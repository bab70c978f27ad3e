//! The resident dataset registry: named [`Dataset`] snapshots loaded
//! once, kept in memory, shared read-mostly across concurrent request
//! threads. What a snapshot holds is [`crate::dataset`]'s business; the
//! registry decides which one is live under a name, and how healthy the
//! name is.
//!
//! ## Self-healing state
//!
//! Beyond the map itself, the registry carries the per-dataset health
//! state the serving layer leans on when things go wrong:
//!
//! * **Quarantine** — kernel panics are attributed to the dataset they
//!   ran against ([`Registry::note_panic`]); after `quarantine_after`
//!   panics the dataset flips to a quarantined state and [`Registry::get`]
//!   answers [`RegistryError::Quarantined`] until an operator clears it
//!   with `unload` + `load`. One corrupt matrix cannot burn the executor
//!   pool forever.
//! * **Memory budget** — with `max_resident_bytes` set, a `load` that
//!   would exceed the budget first evicts least-recently-used un-pinned
//!   datasets (eviction is safe mid-request: in-flight readers hold
//!   `Arc`'d views, and the memory is freed when the last one drops).
//!   Evicted names leave a tombstone so later requests get a typed
//!   [`RegistryError::Evicted`] instead of a bare `unknown_dataset`.
//! * **Poison recovery** — every lock acquisition recovers from a
//!   poisoned mutex: a panicking thread must degrade the one request
//!   that panicked, not wedge the registry for the whole process.
//!
//! ## Dynamic updates
//!
//! The `update` verb folds each edge batch through a transient
//! [`Overlay`] and merges it against the *live* matrix into the successor
//! snapshot ([`Dataset::rebuilt`]: derived operands patched forward from
//! the live snapshot's, sections heap-owned — mutating never touches an
//! mmap'd load, version moved on by one), and the new `Arc` swaps into the entry under the write lock
//! while in-flight readers keep the old views. The swap is the whole
//! commit: everything an update changes is inside the snapshot it swaps
//! in, so a failed update leaves no trace and nothing follows a
//! successful one. The live snapshot is the only one an entry retains.
//! The swap re-checks entry identity, so an `update` racing an `unload`
//! loses cleanly: the removed entry stays removed and the caller gets
//! [`RegistryError::NotFound`].

use crate::dataset::Dataset;
use mspgemm_io::{dataset_name, LoadOpts};
use mspgemm_sparse::overlay::{DeltaOp, Overlay};
use mspgemm_sparse::Idx;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Reasons a registry operation can fail, mapped to protocol error codes
/// by the server layer.
#[derive(Debug)]
pub enum RegistryError {
    /// `load` under a name that is already resident.
    AlreadyLoaded(String),
    /// A request named a dataset that is not resident.
    NotFound(String),
    /// The underlying ingest failed.
    Load(String),
    /// The dataset is quarantined after repeated kernel panics.
    Quarantined(String),
    /// The dataset was evicted by the memory budget.
    Evicted(String),
    /// The dataset cannot fit the resident-memory budget.
    OverBudget(String),
    /// An `update` op addressed an entry outside the matrix shape.
    OutOfBounds(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::AlreadyLoaded(n) => {
                write!(f, "dataset '{n}' is already loaded (unload it first)")
            }
            RegistryError::NotFound(n) => write!(f, "no dataset named '{n}' is loaded"),
            RegistryError::Load(msg) => write!(f, "{msg}"),
            RegistryError::Quarantined(n) => write!(
                f,
                "dataset '{n}' is quarantined after repeated kernel panics \
                 (unload and load it again to clear)"
            ),
            RegistryError::Evicted(n) => write!(
                f,
                "dataset '{n}' was evicted by the memory budget (load it again to use it)"
            ),
            RegistryError::OverBudget(msg) => write!(f, "{msg}"),
            RegistryError::OutOfBounds(msg) => write!(f, "{msg}"),
        }
    }
}

/// One registry slot: the dataset plus its health and usage state. The
/// per-entry state is atomic so the hot [`Registry::get`] path needs
/// only the map's read lock.
struct Entry {
    ds: Arc<Dataset>,
    /// Serializes updates to this entry. Shared by `Arc` so the expensive
    /// merge/rebuild runs under it but outside the map locks; readers
    /// never take it. The `Arc` identity doubles as the swap guard: an
    /// update only lands if the entry still holds the mutex it locked (an
    /// interleaved `unload`, or unload + reload, changes the identity and
    /// the late swap is refused).
    updates: Arc<Mutex<()>>,
    /// Pinned entries (preloads, `load` with `"pin": true`) are never
    /// evicted by the memory budget.
    pinned: bool,
    /// Nanoseconds since the registry epoch at last successful `get` —
    /// the LRU clock for budget eviction. (Nanoseconds so that a
    /// load-then-touch sequence inside one millisecond still orders.)
    last_used: AtomicU64,
    /// Kernel panics attributed to this dataset.
    panics: AtomicU32,
    /// Whether the panic count crossed the quarantine threshold.
    quarantined: AtomicBool,
}

/// A point-in-time view of one resident dataset plus its health state,
/// as returned by [`Registry::list`].
pub struct DatasetInfo {
    /// The dataset itself.
    pub ds: Arc<Dataset>,
    /// Whether the entry is exempt from budget eviction.
    pub pinned: bool,
    /// Whether the entry is quarantined (requests get a typed error).
    pub quarantined: bool,
    /// Kernel panics attributed to this dataset so far.
    pub panics: u32,
}

/// What [`Registry::note_panic`] concluded.
pub struct PanicVerdict {
    /// Panics now attributed to the dataset (0 when it is not resident).
    pub panics: u32,
    /// Whether this panic was the one that flipped it to quarantined.
    pub newly_quarantined: bool,
}

/// What a successful [`Registry::load`] did.
pub struct LoadOutcome {
    /// The freshly loaded dataset.
    pub ds: Arc<Dataset>,
    /// Datasets the memory budget evicted to make room, in eviction
    /// order — disclosed in the `load` response.
    pub evicted: Vec<String>,
}

/// The named-dataset map behind a `RwLock`: requests (the overwhelming
/// majority) take the read lock and clone an `Arc`, so concurrent `mxm`
/// traffic never serializes on the registry; only `load`/`unload` write.
pub struct Registry {
    map: RwLock<HashMap<String, Entry>>,
    /// Names evicted by the memory budget and not since reloaded:
    /// requests against them get the typed `evicted` error instead of
    /// `unknown_dataset`. Bounded by the number of distinct names ever
    /// evicted; `unload` and `load` both clear a name's tombstone.
    tombstones: Mutex<HashSet<String>>,
    /// Epoch for the LRU clock.
    epoch: Instant,
    /// Resident-bytes budget enforced at `load` (0 = unlimited).
    max_resident_bytes: u64,
    /// Panics per dataset before it is quarantined.
    quarantine_after: u32,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_limits(0, 3)
    }
}

/// Lock helpers: recover from poison instead of propagating it — the
/// registry must survive any panicking thread that held a guard.
fn read_map(l: &RwLock<HashMap<String, Entry>>) -> RwLockReadGuard<'_, HashMap<String, Entry>> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_map(l: &RwLock<HashMap<String, Entry>>) -> RwLockWriteGuard<'_, HashMap<String, Entry>> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// An empty registry with no memory budget and the default
    /// quarantine threshold.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry with explicit limits: `max_resident_bytes = 0`
    /// disables the budget; `quarantine_after` is clamped to at least 1.
    pub fn with_limits(max_resident_bytes: u64, quarantine_after: u32) -> Self {
        Registry {
            map: RwLock::new(HashMap::new()),
            tombstones: Mutex::new(HashSet::new()),
            epoch: Instant::now(),
            max_resident_bytes,
            quarantine_after: quarantine_after.max(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Load a dataset and insert it under its name, evicting
    /// least-recently-used un-pinned datasets first when a memory budget
    /// is set. `pin` exempts the new entry from future eviction.
    pub fn load(
        &self,
        path: &str,
        name: Option<&str>,
        opts: &LoadOpts,
        pin: bool,
    ) -> Result<LoadOutcome, RegistryError> {
        // Failpoint `serve.registry.load`: a registry-level load failure
        // (the ingest-level ones live in `mspgemm-io`).
        if let Some(msg) = mspgemm_fault::fire("serve.registry.load") {
            return Err(RegistryError::Load(format!(
                "failpoint serve.registry.load: {msg}"
            )));
        }
        // Ingest outside the write lock: a slow parse must not block
        // concurrent readers. The name collision is re-checked on insert.
        let key = name
            .map(str::to_string)
            .unwrap_or_else(|| dataset_name(std::path::Path::new(path)));
        if read_map(&self.map).contains_key(&key) {
            return Err(RegistryError::AlreadyLoaded(key));
        }
        let ds = Arc::new(Dataset::load(path, Some(&key), opts).map_err(RegistryError::Load)?);
        let mut map = write_map(&self.map);
        if map.contains_key(&key) {
            return Err(RegistryError::AlreadyLoaded(key));
        }
        let evicted = self.evict_for(&mut map, ds.mem_bytes(), &key)?;
        map.insert(
            key.clone(),
            Entry {
                ds: ds.clone(),
                updates: Arc::default(),
                pinned: pin,
                last_used: AtomicU64::new(self.now_ns()),
                panics: AtomicU32::new(0),
                quarantined: AtomicBool::new(false),
            },
        );
        drop(map);
        let mut tombs = relock(&self.tombstones);
        tombs.remove(&key);
        for name in &evicted {
            tombs.insert(name.clone());
        }
        Ok(LoadOutcome { ds, evicted })
    }

    /// Under the write lock: evict LRU un-pinned entries until `needed`
    /// more bytes fit the budget. Eviction is safe while requests are in
    /// flight — they hold `Arc`'d views, and the memory is released when
    /// the last one drops.
    fn evict_for(
        &self,
        map: &mut HashMap<String, Entry>,
        needed: u64,
        incoming: &str,
    ) -> Result<Vec<String>, RegistryError> {
        if self.max_resident_bytes == 0 {
            return Ok(Vec::new());
        }
        let mut evicted = Vec::new();
        loop {
            let resident: u64 = map.values().map(|e| e.ds.mem_bytes()).sum();
            if resident + needed <= self.max_resident_bytes {
                return Ok(evicted);
            }
            let victim = map
                .iter()
                .filter(|(_, e)| !e.pinned)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else {
                // Roll back: the evictions stand (they were legitimate
                // LRU picks), but the incoming dataset is refused.
                return Err(RegistryError::OverBudget(format!(
                    "loading '{incoming}' needs {needed} bytes but only {} of the \
                     {}-byte budget can be freed (everything left is pinned)",
                    self.max_resident_bytes.saturating_sub(resident),
                    self.max_resident_bytes
                )));
            };
            map.remove(&victim);
            evicted.push(victim);
        }
    }

    /// Resolve a live entry, refreshing its LRU stamp. Quarantined and
    /// evicted datasets answer their typed errors.
    fn resolve<T>(&self, name: &str, pick: impl FnOnce(&Entry) -> T) -> Result<T, RegistryError> {
        if let Some(e) = read_map(&self.map).get(name) {
            if e.quarantined.load(Ordering::Relaxed) {
                return Err(RegistryError::Quarantined(name.to_string()));
            }
            e.last_used.store(self.now_ns(), Ordering::Relaxed);
            return Ok(pick(e));
        }
        if relock(&self.tombstones).contains(name) {
            return Err(RegistryError::Evicted(name.to_string()));
        }
        Err(RegistryError::NotFound(name.to_string()))
    }

    /// Look up a resident dataset, refreshing its LRU stamp. Quarantined
    /// and evicted datasets answer their typed errors.
    pub fn get(&self, name: &str) -> Result<Arc<Dataset>, RegistryError> {
        self.resolve(name, |e| e.ds.clone())
    }

    /// Apply an edge batch to a resident dataset and return the new live
    /// snapshot.
    ///
    /// The batch is folded through a transient overlay (atomically: any
    /// out-of-bounds op rejects the whole batch), merged against the live
    /// matrix into its successor ([`Dataset::rebuilt`]) outside the map
    /// locks, and the new `Arc` swaps into the registry — in-flight
    /// readers keep their old views; no stop-the-world. The swap is the
    /// whole commit: an update that fails (or panics) anywhere before it
    /// leaves the entry as it was, and nothing remains to do after it.
    ///
    /// Updates to the same dataset serialize on the entry's update mutex;
    /// the swap re-checks that the entry still holds that very mutex, so
    /// an `unload` (or unload + reload) racing the rebuild wins cleanly
    /// and this update reports [`RegistryError::NotFound`].
    ///
    /// # Errors
    /// Typed registry errors: unknown/evicted/quarantined dataset,
    /// out-of-bounds ops, or the dataset disappearing mid-update.
    pub fn update(&self, name: &str, ops: &[DeltaOp<f64>]) -> Result<Arc<Dataset>, RegistryError> {
        let updates = self.resolve(name, |e| e.updates.clone())?;
        let _serialized = relock(&updates);
        // Read the live snapshot only now: no other update can replace it
        // before this one's swap.
        let live = self.get(name)?;
        let n = live.square.matrix().nrows();
        let mut batch = Overlay::new(n, n);
        batch.apply_batch(ops).map_err(RegistryError::OutOfBounds)?;
        let changed: Vec<(Idx, Idx)> = ops.iter().map(DeltaOp::key).collect();
        // Rebuild outside the map locks: only other updates to this
        // dataset wait; readers and other verbs proceed on the old Arc.
        let next = Arc::new(Dataset::rebuilt(
            &live,
            batch.merged(live.square.matrix().view()),
            &changed,
        ));
        // Failpoint `serve.update.swap`: widen (or fail) the window
        // between the rebuild and the registry swap — the unload-race
        // regression tests arm this.
        if let Some(msg) = mspgemm_fault::fire("serve.update.swap") {
            return Err(RegistryError::Load(format!(
                "failpoint serve.update.swap: {msg}"
            )));
        }
        // Declared last, so released first: `live` — possibly the previous
        // snapshot's final reference — is freed outside the write lock.
        let mut map = write_map(&self.map);
        match map.get_mut(name) {
            Some(e) if Arc::ptr_eq(&e.updates, &updates) => {
                e.ds = next.clone();
                Ok(next)
            }
            // Unloaded (or unloaded and reloaded as a different entry)
            // while we were rebuilding: drop our work on the floor and
            // leave the registry exactly as the unload left it.
            _ => Err(RegistryError::NotFound(name.to_string())),
        }
    }

    /// Attribute one kernel panic to a dataset; after `quarantine_after`
    /// of them the dataset flips to quarantined (the verdict says when
    /// that transition happened, so the caller can count it once).
    pub fn note_panic(&self, name: &str) -> PanicVerdict {
        let map = read_map(&self.map);
        let Some(e) = map.get(name) else {
            return PanicVerdict {
                panics: 0,
                newly_quarantined: false,
            };
        };
        let panics = e.panics.fetch_add(1, Ordering::Relaxed) + 1;
        let newly_quarantined =
            panics >= self.quarantine_after && !e.quarantined.swap(true, Ordering::Relaxed);
        PanicVerdict {
            panics,
            newly_quarantined,
        }
    }

    /// Remove a dataset; in-flight requests holding its `Arc` finish
    /// normally, and the memory is released when the last one drops.
    /// Unloading also clears quarantine (a re-load starts healthy) and
    /// an `evicted` tombstone (the name reverts to `unknown_dataset`).
    pub fn unload(&self, name: &str) -> Result<(), RegistryError> {
        if write_map(&self.map).remove(name).is_some() {
            relock(&self.tombstones).remove(name);
            return Ok(());
        }
        if relock(&self.tombstones).remove(name) {
            return Ok(());
        }
        Err(RegistryError::NotFound(name.to_string()))
    }

    /// All resident datasets with their health state, sorted by name.
    pub fn list(&self) -> Vec<DatasetInfo> {
        let mut v: Vec<DatasetInfo> = read_map(&self.map)
            .values()
            .map(|e| DatasetInfo {
                ds: e.ds.clone(),
                pinned: e.pinned,
                quarantined: e.quarantined.load(Ordering::Relaxed),
                panics: e.panics.load(Ordering::Relaxed),
            })
            .collect();
        v.sort_by(|a, b| a.ds.name.cmp(&b.ds.name));
        v
    }

    /// Total approximate resident bytes across all datasets.
    pub fn resident_bytes(&self) -> u64 {
        read_map(&self.map).values().map(|e| e.ds.mem_bytes()).sum()
    }

    /// The resident-bytes budget (0 = unlimited).
    pub fn max_resident_bytes(&self) -> u64 {
        self.max_resident_bytes
    }

    /// Number of resident datasets.
    pub fn len(&self) -> usize {
        read_map(&self.map).len()
    }

    /// Whether no dataset is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{TcAnswer, DELTA_LOG_CAP};
    use masked_spgemm::{Algorithm, ExecOpts, Phases};
    use mspgemm_graph::{tricount, Scheme};
    use mspgemm_io::{CachePolicy, MsbBackend};
    use mspgemm_sparse::Csr;

    fn off_opts() -> LoadOpts {
        LoadOpts {
            policy: CachePolicy::Off,
            ..LoadOpts::default()
        }
    }

    fn fixture_dir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join("mspgemm_serve_registry");
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_graph(path: &std::path::Path) {
        let g = mspgemm_gen::er_symmetric(80, 6, 11);
        mspgemm_io::mtx::write_mtx_file(path, &g).unwrap();
    }

    const SCHEME: Scheme = Scheme::Ours(Algorithm::Msa, Phases::One);

    /// One `app tc` pass over a snapshot, as the verb runs it.
    fn count(ds: &Dataset) -> TcAnswer {
        ds.triangle_count(SCHEME, &ExecOpts::default())
    }

    /// Triangles of a snapshot's graph, counted from scratch outside it.
    fn fresh_total(ds: &Dataset) -> u64 {
        tricount::triangle_count(ds.adj(), SCHEME).triangles
    }

    /// Both directions of an undirected edge, as one update batch.
    fn edge(u: Idx, v: Idx) -> [DeltaOp<f64>; 2] {
        [(u, v), (v, u)].map(|(row, col)| DeltaOp::Upsert { row, col, val: 1.0 })
    }

    #[test]
    fn load_get_unload_cycle() {
        let dir = fixture_dir();
        let mtx = dir.join("cycle.mtx");
        write_graph(&mtx);
        let reg = Registry::new();
        let out = reg
            .load(mtx.to_str().unwrap(), None, &off_opts(), false)
            .unwrap();
        let ds = out.ds;
        assert!(out.evicted.is_empty(), "no budget, no eviction");
        assert_eq!(ds.name, "cycle");
        assert_eq!(ds.square.matrix().nrows(), 80);
        assert_eq!(ds.square.bt().nnz(), ds.square.matrix().nnz());
        assert!(ds.mem_bytes() > 0);

        assert!(matches!(
            reg.load(mtx.to_str().unwrap(), None, &off_opts(), false),
            Err(RegistryError::AlreadyLoaded(_))
        ));
        assert_eq!(reg.list().len(), 1);
        assert!(reg.get("cycle").is_ok());
        assert!(matches!(reg.get("nope"), Err(RegistryError::NotFound(_))));
        reg.unload("cycle").unwrap();
        assert!(reg.is_empty());
        assert!(reg.unload("cycle").is_err());
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn tc_operands_are_cached() {
        let dir = fixture_dir();
        let mtx = dir.join("tc.mtx");
        write_graph(&mtx);
        let ds = Dataset::load(mtx.to_str().unwrap(), Some("tc"), &off_opts()).unwrap();
        let before = ds.mem_bytes();
        let a = ds.tc_operands();
        let b = ds.tc_operands();
        assert!(Arc::ptr_eq(&a, &b), "prepare must run once");
        assert!(ds.mem_bytes() > before, "cached operands count as resident");
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn rejects_rectangular_and_bad_names() {
        let dir = fixture_dir();
        let mtx = dir.join("rect.mtx");
        let rect = Csr::from_dense(&[vec![Some(1.0), None, None]], 3);
        mspgemm_io::mtx::write_mtx_file(&mtx, &rect).unwrap();
        let err = match Dataset::load(mtx.to_str().unwrap(), None, &off_opts()) {
            Err(e) => e,
            Ok(_) => panic!("rectangular matrix must be rejected"),
        };
        assert!(err.contains("square"), "{err}");
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn repeated_panics_quarantine_until_reload() {
        let dir = fixture_dir();
        let mtx = dir.join("quar.mtx");
        write_graph(&mtx);
        let reg = Registry::with_limits(0, 3);
        reg.load(mtx.to_str().unwrap(), Some("q"), &off_opts(), false)
            .unwrap();
        // Panics against a non-resident name are inert.
        let v = reg.note_panic("ghost");
        assert_eq!(v.panics, 0);
        assert!(!v.newly_quarantined);

        let v1 = reg.note_panic("q");
        let v2 = reg.note_panic("q");
        assert_eq!((v1.panics, v2.panics), (1, 2));
        assert!(!v1.newly_quarantined && !v2.newly_quarantined);
        assert!(reg.get("q").is_ok(), "two panics stay below the threshold");
        let v3 = reg.note_panic("q");
        assert_eq!(v3.panics, 3);
        assert!(v3.newly_quarantined, "third panic flips quarantine");
        assert!(matches!(reg.get("q"), Err(RegistryError::Quarantined(_))));
        // The transition is counted exactly once.
        assert!(!reg.note_panic("q").newly_quarantined);
        let info = &reg.list()[0];
        assert!(info.quarantined);
        assert_eq!(info.panics, 4);

        // unload + load clears quarantine: the replacement starts fresh.
        reg.unload("q").unwrap();
        reg.load(mtx.to_str().unwrap(), Some("q"), &off_opts(), false)
            .unwrap();
        assert!(reg.get("q").is_ok());
        assert_eq!(reg.list()[0].panics, 0);
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn budget_evicts_lru_and_tombstones_answer_evicted() {
        let dir = fixture_dir();
        let m1 = dir.join("ev1.mtx");
        let m2 = dir.join("ev2.mtx");
        let m3 = dir.join("ev3.mtx");
        for p in [&m1, &m2, &m3] {
            write_graph(p);
        }
        let probe = Registry::new();
        let one = probe
            .load(m1.to_str().unwrap(), Some("probe"), &off_opts(), false)
            .unwrap()
            .ds
            .mem_bytes();
        // Budget fits two of these datasets but not three.
        let reg = Registry::with_limits(one * 2 + one / 2, 3);
        reg.load(m1.to_str().unwrap(), Some("a"), &off_opts(), false)
            .unwrap();
        reg.load(m2.to_str().unwrap(), Some("b"), &off_opts(), false)
            .unwrap();
        // Touch "a" so "b" is the LRU victim.
        reg.get("a").unwrap();
        let out = reg
            .load(m3.to_str().unwrap(), Some("c"), &off_opts(), false)
            .unwrap();
        assert_eq!(out.evicted, vec!["b".to_string()]);
        assert!(reg.resident_bytes() <= reg.max_resident_bytes());
        assert!(matches!(reg.get("b"), Err(RegistryError::Evicted(_))));
        assert!(reg.get("a").is_ok() && reg.get("c").is_ok());

        // Reloading an evicted name clears its tombstone.
        reg.get("a").unwrap();
        let out = reg
            .load(m2.to_str().unwrap(), Some("b"), &off_opts(), false)
            .unwrap();
        assert_eq!(out.evicted, vec!["c".to_string()], "LRU again");
        assert!(reg.get("b").is_ok());
        assert!(matches!(reg.get("c"), Err(RegistryError::Evicted(_))));
        // unload of a tombstoned name clears the marker.
        reg.unload("c").unwrap();
        assert!(matches!(reg.get("c"), Err(RegistryError::NotFound(_))));
        std::fs::remove_file(&m1).ok();
        std::fs::remove_file(&m2).ok();
        std::fs::remove_file(&m3).ok();
    }

    #[test]
    fn update_bumps_version_and_merges() {
        // Fires `serve.update.swap`: must not consume the race test's
        // armed delay.
        let _g = crate::failpoint_guard();
        let dir = fixture_dir();
        let mtx = dir.join("upd.mtx");
        write_graph(&mtx);
        let reg = Registry::new();
        reg.load(mtx.to_str().unwrap(), Some("u"), &off_opts(), false)
            .unwrap();
        let before = reg.get("u").unwrap();
        assert_eq!(before.version, 0);

        let out = reg
            .update(
                "u",
                &[
                    DeltaOp::Upsert {
                        row: 0,
                        col: 79,
                        val: 2.5,
                    },
                    DeltaOp::Delete { row: 0, col: 79 },
                    DeltaOp::Upsert {
                        row: 3,
                        col: 4,
                        val: 1.0,
                    },
                ],
            )
            .unwrap();
        assert_eq!(out.version, 1);
        let live = reg.get("u").unwrap();
        assert!(Arc::ptr_eq(&out, &live), "update returns the live snapshot");
        assert!(!Arc::ptr_eq(&before, &live), "live Arc swapped");
        assert_eq!(live.square.matrix().get(3, 4), Some(&1.0));
        assert_eq!(live.square.matrix().get(0, 79), None);
        // In-flight readers keep their old view.
        assert_eq!(before.square.matrix().get(3, 4), None);
        // Derived operands track the merged matrix.
        assert_eq!(live.square.bt().get(4, 3), Some(&1.0));

        let out = reg
            .update("u", &[DeltaOp::Delete { row: 3, col: 4 }])
            .unwrap();
        assert_eq!(out.version, 2);
        assert_eq!(reg.get("u").unwrap().square.matrix().get(3, 4), None);
        assert_eq!(reg.list()[0].ds.version, 2);

        // Out-of-bounds ops reject the batch atomically.
        let err = reg
            .update(
                "u",
                &[
                    DeltaOp::Upsert {
                        row: 1,
                        col: 1,
                        val: 9.0,
                    },
                    DeltaOp::Upsert {
                        row: 80,
                        col: 0,
                        val: 9.0,
                    },
                ],
            )
            .err()
            .expect("an out-of-bounds op rejects the batch");
        assert!(matches!(err, RegistryError::OutOfBounds(_)), "{err:?}");
        assert_eq!(
            reg.get("u").unwrap().version,
            2,
            "rejected batch bumps nothing"
        );
        assert_eq!(reg.get("u").unwrap().square.matrix().get(1, 1), None);

        assert!(matches!(
            reg.update("ghost", &[]),
            Err(RegistryError::NotFound(_))
        ));
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn update_flips_backend_to_heap_and_tc_cache_tracks_versions() {
        // Fires `serve.update.swap`: must not consume the race test's
        // armed delay.
        let _g = crate::failpoint_guard();
        let dir = fixture_dir();
        let mtx = dir.join("updtc.mtx");
        write_graph(&mtx);
        let reg = Registry::new();
        reg.load(mtx.to_str().unwrap(), Some("t"), &off_opts(), false)
            .unwrap();
        // Count at version 0, then update: the successor carries those
        // counts as its seed, plus the changed positions.
        let v0 = reg.get("t").unwrap();
        assert_eq!(v0.version, 0);
        assert!(v0.tc_seed_changed().is_none(), "a load has no ancestor");
        let full = count(&v0);
        assert!(full.cached && full.patched_rows.is_none());
        assert_eq!(full.triangles, fresh_total(&v0));

        let v1 = reg
            .update(
                "t",
                &[DeltaOp::Upsert {
                    row: 7,
                    col: 9,
                    val: 1.0,
                }],
            )
            .unwrap();
        assert_eq!(v1.version, 1);
        assert_eq!(
            v1.tc_seed_changed(),
            Some(&[(7, 9)][..]),
            "the ancestor's counts stay usable for patching"
        );
        assert_eq!(v1.backend(), MsbBackend::Heap);
        assert_eq!(v1.mapped_bytes(), 0);

        // The patched count lands on v1, and the next snapshot's seed
        // restarts from it: only the newer batch is left to patch.
        let patched = count(&v1);
        assert!(patched.cached && patched.patched_rows.is_some());
        assert_eq!(patched.triangles, fresh_total(&v1));
        let v2 = reg.update("t", &edge(20, 21)).unwrap();
        assert_eq!(v2.tc_seed_changed(), Some(&[(20, 21), (21, 20)][..]));

        // A snapshot's counts are written once: a repeat recounts every
        // row (the patched total faces a full one) and keeps the first.
        let again = count(&v1);
        assert!(again.patched_rows.is_none() && !again.cached);
        assert_eq!(again.triangles, patched.triangles);
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn counts_land_on_the_snapshot_they_ran_against() {
        let _g = crate::failpoint_guard();
        let dir = fixture_dir();
        let mtx = dir.join("tcrace.mtx");
        write_graph(&mtx);
        let reg = Registry::new();
        reg.load(mtx.to_str().unwrap(), Some("a"), &off_opts(), false)
            .unwrap();
        count(&reg.get("a").unwrap());
        // An `app tc` holds v1 while the next update swaps v2 in: v2 is
        // built before v1 has counts of its own.
        let v1 = reg.update("a", &edge(2, 40)).unwrap();
        let v2 = reg.update("a", &edge(3, 50)).unwrap();
        let on_v1 = count(&v1);
        assert!(on_v1.cached, "v1's counts are kept — on v1");
        assert_eq!(on_v1.triangles, fresh_total(&v1));
        assert!(Arc::ptr_eq(&v2, &reg.get("a").unwrap()));

        // v2 never sees them: it patches the newest counts an ancestor had
        // when it was built (v0's) across both batches.
        assert_eq!(
            v2.tc_seed_changed(),
            Some(&[(2, 40), (40, 2), (3, 50), (50, 3)][..])
        );
        let on_v2 = count(&v2);
        assert!(on_v2.cached && on_v2.patched_rows.is_some());
        assert_eq!(on_v2.triangles, fresh_total(&v2));
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn seed_accumulates_until_a_count_and_is_dropped_past_the_cap() {
        let _g = crate::failpoint_guard();
        let dir = fixture_dir();
        let mtx = dir.join("tcseed.mtx");
        write_graph(&mtx);
        let reg = Registry::new();
        reg.load(mtx.to_str().unwrap(), Some("s"), &off_opts(), false)
            .unwrap();
        // No ancestor ever counted: updates have nothing to carry.
        assert!(reg
            .update("s", &edge(1, 30))
            .unwrap()
            .tc_seed_changed()
            .is_none());
        count(&reg.get("s").unwrap());

        // Two updates with no `tc` between them accumulate one seed.
        reg.update("s", &edge(2, 40)).unwrap();
        let v3 = reg.update("s", &edge(3, 50)).unwrap();
        assert_eq!(v3.version, 3);
        assert_eq!(v3.tc_seed_changed().map(<[_]>::len), Some(4));

        // Filled exactly to the cap the seed survives and still patches…
        let fill = vec![DeltaOp::Delete { row: 5, col: 60 }; DELTA_LOG_CAP - 4];
        let full = reg.update("s", &fill).unwrap();
        assert_eq!(full.tc_seed_changed().map(<[_]>::len), Some(DELTA_LOG_CAP));
        // …one position more and it is dropped: a full recount.
        let over = reg
            .update("s", &[DeltaOp::Delete { row: 5, col: 61 }])
            .unwrap();
        assert!(over.tc_seed_changed().is_none());
        let recount = count(&over);
        assert!(recount.patched_rows.is_none() && recount.cached);
        assert_eq!(recount.triangles, fresh_total(&over));
        // Its counts seed the next snapshot again.
        let next = reg.update("s", &edge(4, 70)).unwrap();
        assert_eq!(next.tc_seed_changed().map(<[_]>::len), Some(2));
        let patched = count(&next);
        assert!(patched.patched_rows.is_some());
        assert_eq!(patched.triangles, fresh_total(&next));
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn reload_starts_at_version_zero_with_no_seed() {
        let _g = crate::failpoint_guard();
        let dir = fixture_dir();
        let mtx = dir.join("tcreload.mtx");
        write_graph(&mtx);
        let reg = Registry::new();
        reg.load(mtx.to_str().unwrap(), Some("e"), &off_opts(), false)
            .unwrap();
        count(&reg.get("e").unwrap());
        let v1 = reg.update("e", &edge(2, 40)).unwrap();
        assert!(v1.version == 1 && v1.tc_seed_changed().is_some());

        reg.unload("e").unwrap();
        reg.load(mtx.to_str().unwrap(), Some("e"), &off_opts(), false)
            .unwrap();
        let fresh = reg.get("e").unwrap();
        assert_eq!(fresh.version, 0);
        assert!(fresh.tc_seed_changed().is_none());
        assert!(
            count(&fresh).patched_rows.is_none(),
            "nothing to patch from"
        );
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn triangle_state_counts_as_resident_bytes() {
        let _g = crate::failpoint_guard();
        let dir = fixture_dir();
        let mtx = dir.join("tcmem.mtx");
        write_graph(&mtx);
        let reg = Registry::new();
        reg.load(mtx.to_str().unwrap(), Some("m"), &off_opts(), false)
            .unwrap();
        let v0 = reg.get("m").unwrap();
        let n = v0.square.matrix().nrows() as u64;
        let loaded = v0.mem_bytes();
        let operands = {
            let ops = v0.tc_operands();
            (ops.l.storage_report().heap_bytes + ops.lt.storage_report().heap_bytes) as u64
        };
        // Operands: L, Lᵀ and the 4-byte relabeling; counts: 8 bytes a row.
        assert_eq!(v0.mem_bytes(), loaded + operands + 4 * n);
        count(&v0);
        assert_eq!(v0.mem_bytes(), loaded + operands + 4 * n + 8 * n);
        assert_eq!(reg.resident_bytes(), v0.mem_bytes());

        // The successor is born with operands of its own — L, Lᵀ and the
        // relabeling, patched forward from the previous snapshot's, equal
        // in size here because the batch changes nothing — and holds the
        // seed: the shared counts and one changed position.
        let v1 = reg
            .update("m", &[DeltaOp::Delete { row: 0, col: 0 }])
            .unwrap();
        assert_eq!(
            v1.square.matrix(),
            v0.square.matrix(),
            "deleting an absent entry is a no-op"
        );
        assert_eq!(v1.mem_bytes(), loaded + operands + 4 * n + (8 * n + 8));
        assert_eq!(reg.resident_bytes(), v1.mem_bytes());
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn failed_update_leaves_no_trace() {
        let _g = crate::failpoint_guard();
        let dir = fixture_dir();
        let mtx = dir.join("updfail.mtx");
        write_graph(&mtx);
        let reg = Registry::new();
        reg.load(mtx.to_str().unwrap(), Some("f"), &off_opts(), false)
            .unwrap();
        let loaded = reg.get("f").unwrap();
        assert_eq!(
            loaded.square.matrix().get(7, 70),
            None,
            "fixture has no (7,70)"
        );
        count(&loaded);

        mspgemm_fault::configure("serve.update.swap=1*err(boom)").unwrap();
        let res = reg.update(
            "f",
            &[DeltaOp::Upsert {
                row: 7,
                col: 70,
                val: 9.0,
            }],
        );
        mspgemm_fault::clear();
        let err = res.err();
        assert!(matches!(err, Some(RegistryError::Load(_))), "{err:?}");
        let live = reg.get("f").unwrap();
        assert!(
            Arc::ptr_eq(&live, &loaded),
            "the live snapshot is untouched"
        );
        assert_eq!(live.version, 0, "a failed update bumps nothing");
        assert!(live.tc_seed_changed().is_none());

        let accepted = [DeltaOp::Upsert {
            row: 3,
            col: 4,
            val: 1.0,
        }];
        let out = reg.update("f", &accepted).unwrap();
        assert_eq!(out.version, 1, "versions count successful updates only");
        assert_eq!(
            out.tc_seed_changed(),
            Some(&[(3, 4)][..]),
            "the failed batch is in no seed"
        );
        // The live matrix is the accepted ops alone over the loaded one:
        // the failed batch does not resurface.
        let mut only_accepted = Overlay::new(80, 80);
        only_accepted.apply_batch(&accepted).unwrap();
        let live = reg.get("f").unwrap();
        assert_eq!(live.square.matrix().get(7, 70), None);
        assert_eq!(
            live.square.matrix(),
            &only_accepted.merged(loaded.square.matrix().view())
        );
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn update_releases_the_previous_dataset() {
        let _g = crate::failpoint_guard();
        let dir = fixture_dir();
        let mtx = dir.join("updrel.mtx");
        write_graph(&mtx);
        let reg = Registry::new();
        reg.load(mtx.to_str().unwrap(), Some("w"), &off_opts(), false)
            .unwrap();
        let before = reg.get("w").unwrap();
        let weak = Arc::downgrade(&before);
        reg.update("w", &[DeltaOp::Delete { row: 0, col: 1 }])
            .unwrap();
        assert!(weak.upgrade().is_some(), "an in-flight reader keeps it");
        drop(before);
        assert!(
            weak.upgrade().is_none(),
            "the registry retains only the live dataset"
        );
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn unload_racing_update_swap_leaves_registry_consistent() {
        // The registry-level half of the race regression: unload lands in
        // the window between an update's rebuild and its swap. The typed
        // failure and the absent entry are the contract; the live-socket
        // version drives the same window through the server.
        let _g = crate::failpoint_guard();
        let dir = fixture_dir();
        let mtx = dir.join("race.mtx");
        write_graph(&mtx);
        let reg = Arc::new(Registry::new());
        reg.load(mtx.to_str().unwrap(), Some("r"), &off_opts(), false)
            .unwrap();
        let reg2 = reg.clone();
        std::thread::scope(|s| {
            let updater = s.spawn(move || {
                // Delay in the swap window so the unload below wins.
                mspgemm_fault::configure("serve.update.swap=1*delay(150)").unwrap();
                reg2.update(
                    "r",
                    &[DeltaOp::Upsert {
                        row: 1,
                        col: 2,
                        val: 1.0,
                    }],
                )
            });
            std::thread::sleep(std::time::Duration::from_millis(50));
            reg.unload("r").unwrap();
            let res = updater.join().unwrap();
            let err = res.err();
            assert!(
                matches!(err, Some(RegistryError::NotFound(_))),
                "late swap must lose: {err:?}"
            );
        });
        mspgemm_fault::clear();
        assert!(reg.is_empty(), "unload is not resurrected by the late swap");
        assert!(matches!(reg.get("r"), Err(RegistryError::NotFound(_))));
        // The name is immediately reloadable and healthy.
        reg.load(mtx.to_str().unwrap(), Some("r"), &off_opts(), false)
            .unwrap();
        assert_eq!(reg.get("r").unwrap().version, 0);
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn pinned_datasets_survive_and_over_budget_is_typed() {
        let dir = fixture_dir();
        let m1 = dir.join("pin1.mtx");
        let m2 = dir.join("pin2.mtx");
        write_graph(&m1);
        write_graph(&m2);
        let probe = Registry::new();
        let one = probe
            .load(m1.to_str().unwrap(), Some("probe"), &off_opts(), false)
            .unwrap()
            .ds
            .mem_bytes();
        let reg = Registry::with_limits(one + one / 2, 3);
        reg.load(m1.to_str().unwrap(), Some("a"), &off_opts(), true)
            .unwrap();
        let err = match reg.load(m2.to_str().unwrap(), Some("b"), &off_opts(), false) {
            Err(e) => e,
            Ok(_) => panic!("load past a fully pinned budget must fail"),
        };
        assert!(
            matches!(err, RegistryError::OverBudget(_)),
            "pinned entries cannot be evicted: {err:?}"
        );
        assert!(reg.get("a").is_ok(), "the pinned dataset is untouched");
        assert!(reg.list()[0].pinned);
        std::fs::remove_file(&m1).ok();
        std::fs::remove_file(&m2).ok();
    }
}
