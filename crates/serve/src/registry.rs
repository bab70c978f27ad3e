//! The resident dataset registry: named matrices loaded once, kept in
//! memory with pre-transposed operands, shared read-mostly across
//! concurrent request threads.
//!
//! A [`Dataset`] holds everything a request needs so that no per-request
//! ingest, normalization, or transposition happens on the hot path:
//!
//! * the raw matrix as loaded (the `mxm` verb squares it under its own
//!   pattern as the mask, mirroring `mxm run`) and its transpose (the
//!   pre-computed `Bᵀ` that the pull-based Inner scheme consumes);
//! * the normalized undirected adjacency (what the TC / k-truss / BC
//!   applications consume);
//! * lazily, the relabeled triangle-counting operands — built on the
//!   first `app tc` request against this dataset and reused afterwards.
//!
//! Loading goes through the `.msb` sidecar cache ([`mspgemm_io`]), so the
//! first `load` of a text matrix warms the sidecar and every later server
//! start deserializes the binary directly.
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
//! [`Overlay`] into the *live* matrix: the batch is validated, merged
//! into a fresh [`Dataset`] (derived operands rebuilt, sections
//! heap-owned — mutating never touches an mmap'd load), and the new `Arc`
//! swaps into the entry under the write lock while in-flight readers
//! keep the old views. The swap is the commit point: only after it does
//! the entry's monotone `version` bump and the batch join the edge log
//! the incremental `app tc` path patches from, so a failed update leaves
//! no trace. The live dataset is the only one an entry retains. The swap
//! re-checks entry identity, so an `update` racing an `unload` loses
//! cleanly: the removed entry stays removed and the caller gets
//! [`RegistryError::NotFound`].

use mspgemm_graph::tricount::{self, TcOperands};
use mspgemm_io::{dataset_name, load_matrix, to_adjacency, IngestReport, LoadOpts, MsbBackend};
use mspgemm_sparse::overlay::{DeltaOp, Overlay};
use mspgemm_sparse::{transpose, Csr, Idx};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Instant;

/// One resident dataset: the loaded matrix plus every derived operand the
/// request handlers reuse across calls.
pub struct Dataset {
    /// Registry name (defaults to the file stem).
    pub name: String,
    /// Path the matrix was loaded from.
    pub path: String,
    /// The matrix as loaded from disk (square — the server rejects
    /// rectangular inputs at `load`, like `mxm run` does).
    pub matrix: Csr<f64>,
    /// `matrixᵀ`, pre-computed once so Inner-scheme requests skip the
    /// per-call transpose the paper charges to `SS:DOT` (§8.4).
    pub matrix_t: Csr<f64>,
    /// Normalized simple undirected adjacency (symmetric pattern, no
    /// self-loops, unit weights) — the application operand.
    pub adj: Csr<f64>,
    /// FLOP count (2 × multiplies) of the unmasked `matrix·matrix`
    /// product — the `mxm` verb's GFLOPS denominator, computed once here
    /// rather than per request (it is a constant of the dataset).
    pub mxm_flops: u64,
    /// Ingest throughput of the original load.
    pub ingest: IngestReport,
    /// When the dataset was loaded (for `stats` uptime-style reporting).
    pub loaded_at: Instant,
    /// Relabeled triangle-counting operands, built on first use.
    tc_ops: OnceLock<Arc<TcOperands>>,
}

impl Dataset {
    /// Load a dataset from disk and derive the resident operands. With
    /// `opts.mmap`, a v2 `.msb` input or fresh sidecar backs the raw
    /// matrix zero-copy by the mapped file.
    pub fn load(path: &str, name: Option<&str>, opts: &LoadOpts) -> Result<Dataset, String> {
        let (matrix, ingest) = load_matrix(path, opts).map_err(|e| format!("{path}: {e}"))?;
        if matrix.nrows() != matrix.ncols() {
            return Err(format!(
                "{path}: the server holds square matrices (graphs); got {}x{}",
                matrix.nrows(),
                matrix.ncols()
            ));
        }
        let name = name
            .map(str::to_string)
            .unwrap_or_else(|| dataset_name(std::path::Path::new(path)));
        if name.is_empty() {
            return Err(format!("{path}: dataset name must be non-empty"));
        }
        Ok(Self::derive(
            name,
            path.to_string(),
            matrix,
            ingest,
            Instant::now(),
        ))
    }

    /// Derive every resident operand from a raw square matrix — shared by
    /// the disk loader and the update path's rebuilds.
    fn derive(
        name: String,
        path: String,
        matrix: Csr<f64>,
        ingest: IngestReport,
        loaded_at: Instant,
    ) -> Dataset {
        let mut matrix_t = transpose(&matrix);
        let (mut adj, _) = to_adjacency(&matrix);
        if matrix.values_unit_shared() {
            // Pattern-loaded base: the transpose and the normalized
            // adjacency are all-ones too, so point their value sections at
            // the process-wide unit arena instead of keeping nnz private
            // copies of the literal 1.0 each.
            matrix_t.share_unit_values();
            adj.share_unit_values();
        }
        let mxm_flops = 2 * matrix.flops_with(&matrix);
        Dataset {
            name,
            path,
            matrix,
            matrix_t,
            adj,
            mxm_flops,
            ingest,
            loaded_at,
            tc_ops: OnceLock::new(),
        }
    }

    /// A fresh dataset carrying an updated matrix: identity (name, path,
    /// load time) is inherited from `prev`, derived operands are rebuilt,
    /// and the ingest report flips to the heap backend — merged sections
    /// are always heap-owned, so an update copies-on-write away from any
    /// mmap backing (the mapping itself stays untouched and alive only as
    /// long as an in-flight reader still holds the previous dataset).
    pub fn rebuilt(prev: &Dataset, matrix: Csr<f64>) -> Dataset {
        debug_assert!(!matrix.has_shared_storage(), "rebuilds must be heap-owned");
        let ingest = IngestReport {
            backend: MsbBackend::Heap,
            entries: matrix.nnz(),
            ..prev.ingest
        };
        Self::derive(
            prev.name.clone(),
            prev.path.clone(),
            matrix,
            ingest,
            prev.loaded_at,
        )
    }

    /// The triangle-counting operands (degree-relabeled `L` and `Lᵀ`),
    /// built once on first use and shared by every later `app tc`
    /// request.
    pub fn tc_operands(&self) -> Arc<TcOperands> {
        self.tc_ops
            .get_or_init(|| Arc::new(tricount::prepare(&self.adj)))
            .clone()
    }

    /// Whether the raw matrix is resident pattern-only: its value section
    /// is a view of the process-wide unit arena rather than per-dataset
    /// storage (`load` with `"pattern": true`, or a pattern `.msb`).
    pub fn pattern(&self) -> bool {
        self.matrix.values_unit_shared()
    }

    /// Approximate resident bytes across all held operands. Unit-arena
    /// value sections are excluded — they are one process-wide allocation
    /// shared by every pattern dataset, disclosed via [`Self::unit_bytes`].
    pub fn mem_bytes(&self) -> u64 {
        self.sum_reports(|r| (r.heap_bytes + r.shared_bytes) as u64)
    }

    /// Bytes of value sections served by the shared unit arena across all
    /// held operands (`0` for value-bearing datasets). These bytes are
    /// *views*: the arena is resident once per process, not once per
    /// dataset, so they are deliberately left out of [`Self::mem_bytes`]
    /// and the eviction budget.
    pub fn unit_bytes(&self) -> u64 {
        self.sum_reports(|r| r.unit_bytes as u64)
    }

    fn sum_reports(&self, f: impl Fn(&mspgemm_sparse::StorageReport) -> u64) -> u64 {
        let tc = self
            .tc_ops
            .get()
            .map(|ops| f(&ops.l.storage_report()) + f(&ops.lt.storage_report()))
            .unwrap_or(0);
        f(&self.matrix.storage_report())
            + f(&self.matrix_t.storage_report())
            + f(&self.adj.storage_report())
            + tc
    }

    /// How the raw matrix got resident (`heap` or zero-copy `mmap`).
    pub fn backend(&self) -> MsbBackend {
        self.ingest.backend
    }

    /// Bytes of resident sections that are mmap-shared rather than
    /// heap-owned, across every held operand (the raw matrix; the derived
    /// operands are heap-built and contribute 0).
    pub fn mapped_bytes(&self) -> u64 {
        self.sum_reports(|r| r.shared_bytes as u64)
    }
}

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
    /// The entry's dynamic-update state, shared by `Arc` so the expensive
    /// merge/rebuild runs outside the map locks while still serializing
    /// updates per dataset. The `Arc` identity doubles as the swap guard:
    /// an update only lands if the entry still holds the same state it
    /// started from (an interleaved `unload`, or unload + reload, changes
    /// the identity and the late swap is refused).
    dynamics: Arc<Mutex<DynState>>,
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

/// Cap on the accumulated edge log consumed by the incremental TC path.
/// Past it, patching would approach full-recompute cost anyway, so the
/// log is dropped and the next `app tc` recomputes from scratch.
const DELTA_LOG_CAP: usize = 1 << 16;

/// Per-entry dynamic-update state: the monotone version and the
/// incremental-TC bookkeeping. Everything here changes only after an
/// update's swap has landed.
#[derive(Default)]
struct DynState {
    /// Bumped once per successful update; never reset while resident.
    version: u64,
    /// Positions changed since `tc_cache` was last stored.
    delta_log: Vec<(Idx, Idx)>,
    /// The log outgrew [`DELTA_LOG_CAP`] and was dropped: the next
    /// `app tc` must do a full recompute.
    log_overflow: bool,
    /// Per-row triangle counts from the last full or patched count.
    tc_cache: Option<TcCache>,
}

/// Cached per-row triangle counts, patchable by the incremental path.
#[derive(Clone)]
pub struct TcCache {
    /// The relabeling the counts were computed under (`perm[old] = new`).
    pub perm: Vec<Idx>,
    /// Per-row counts (row `i` = triangles whose largest relabeled vertex
    /// is `i`); summing gives `total`.
    pub counts: Vec<u64>,
    /// Total triangles at `version`.
    pub total: u64,
    /// The dataset version the counts describe.
    pub version: u64,
}

/// What the incremental `app tc` path needs: the live dataset, its
/// version, a usable cache (if any), and the positions changed since the
/// cache was stored.
pub struct TcSnapshot {
    /// The live dataset.
    pub ds: Arc<Dataset>,
    /// Current dataset version.
    pub version: u64,
    /// The cached counts, absent when unusable (never stored, edge log
    /// overflowed, or shape changed).
    pub cache: Option<TcCache>,
    /// Positions changed since `cache` — empty when `cache` is `None`.
    pub changed: Vec<(Idx, Idx)>,
}

/// What a successful [`Registry::update`] did.
pub struct UpdateOutcome {
    /// The new live dataset (already swapped into the registry).
    pub ds: Arc<Dataset>,
    /// Dataset version after this update (monotone per dataset).
    pub version: u64,
    /// Ops applied (inserts + deletes, as submitted).
    pub applied: usize,
}

impl std::fmt::Debug for UpdateOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateOutcome")
            .field("dataset", &self.ds.name)
            .field("version", &self.version)
            .field("applied", &self.applied)
            .finish()
    }
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
    /// Dataset version (0 = never updated).
    pub version: u64,
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
                dynamics: Arc::default(),
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

    /// Fetch a dataset's dynamic state for an update-path operation,
    /// answering the same typed errors as [`Registry::get`].
    fn dynamics_of(&self, name: &str) -> Result<Arc<Mutex<DynState>>, RegistryError> {
        self.resolve(name, |e| e.dynamics.clone())
    }

    /// Apply an edge batch to a resident dataset.
    ///
    /// The batch is folded through a transient overlay (atomically: any
    /// out-of-bounds op rejects the whole batch), merged against the live
    /// matrix into a fresh heap-owned [`Dataset`] outside the map locks,
    /// and the new `Arc` swaps into the registry — in-flight readers keep
    /// their old views; no stop-the-world. The swap is the commit point:
    /// the version bump and the edge log follow it, so an update that
    /// fails (or panics) anywhere before leaves the entry as it was.
    ///
    /// Updates to the same dataset serialize on its dynamics mutex; the
    /// swap re-checks that the entry still holds the same dynamic state,
    /// so an `unload` (or unload + reload) racing the rebuild wins
    /// cleanly and this update reports [`RegistryError::NotFound`].
    ///
    /// # Errors
    /// Typed registry errors: unknown/evicted/quarantined dataset,
    /// out-of-bounds ops, or the dataset disappearing mid-update.
    pub fn update(&self, name: &str, ops: &[DeltaOp<f64>]) -> Result<UpdateOutcome, RegistryError> {
        let dynamics = self.dynamics_of(name)?;
        // Dynamics before the dataset, as in `tc_snapshot`: no other
        // update can swap a newer matrix in under this one.
        let mut st = relock(&dynamics);
        let live = self.get(name)?;
        let n = live.matrix.nrows();
        let mut batch = Overlay::new(n, n);
        batch.apply_batch(ops).map_err(RegistryError::OutOfBounds)?;
        // Rebuild outside the map locks: only other updates to this
        // dataset wait; readers and other verbs proceed on the old Arc.
        let new_ds = Arc::new(Dataset::rebuilt(&live, batch.merged(live.matrix.view())));
        // Failpoint `serve.update.swap`: widen (or fail) the window
        // between the rebuild and the registry swap — the unload-race
        // regression tests arm this.
        if let Some(msg) = mspgemm_fault::fire("serve.update.swap") {
            return Err(RegistryError::Load(format!(
                "failpoint serve.update.swap: {msg}"
            )));
        }
        match write_map(&self.map).get_mut(name) {
            Some(e) if Arc::ptr_eq(&e.dynamics, &dynamics) => e.ds = new_ds.clone(),
            // Unloaded (or unloaded and reloaded as a different entry)
            // while we were rebuilding: drop our work on the floor and
            // leave the registry exactly as the unload left it.
            _ => return Err(RegistryError::NotFound(name.to_string())),
        }
        st.version += 1;
        if st.delta_log.len() + ops.len() > DELTA_LOG_CAP {
            st.delta_log.clear();
            st.log_overflow = true;
        } else {
            st.delta_log.extend(ops.iter().map(DeltaOp::key));
        }
        Ok(UpdateOutcome {
            ds: new_ds,
            version: st.version,
            applied: ops.len(),
        })
    }

    /// Snapshot what the incremental `app tc` path needs. The cache is
    /// omitted (forcing a full recompute) when none was stored, the edge
    /// log overflowed, or the cached shape no longer matches.
    pub fn tc_snapshot(&self, name: &str) -> Result<TcSnapshot, RegistryError> {
        let dynamics = self.dynamics_of(name)?;
        // Lock dynamics *before* fetching the dataset (dynamics → map is
        // the established order): no update can swap a newer matrix in
        // between reading `ds` and reading `version`.
        let st = relock(&dynamics);
        let ds = self.get(name)?;
        let usable = !st.log_overflow
            && st
                .tc_cache
                .as_ref()
                .is_some_and(|c| c.counts.len() == ds.matrix.nrows());
        Ok(TcSnapshot {
            ds,
            version: st.version,
            cache: if usable { st.tc_cache.clone() } else { None },
            changed: if usable {
                st.delta_log.clone()
            } else {
                Vec::new()
            },
        })
    }

    /// Store freshly computed triangle counts. The store is refused
    /// (returning `false`) when the dataset has moved past
    /// `cache.version` — a concurrent update landed between compute and
    /// store, so the counts no longer describe the live matrix — or when
    /// the dataset is gone.
    pub fn store_tc_cache(&self, name: &str, cache: TcCache) -> bool {
        let Ok(dynamics) = self.dynamics_of(name) else {
            return false;
        };
        let mut st = relock(&dynamics);
        if st.version != cache.version {
            return false;
        }
        st.tc_cache = Some(cache);
        st.delta_log.clear();
        st.log_overflow = false;
        true
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
        // Lock order is dynamics → map (the update path's swap), so never
        // acquire a dynamics mutex while holding the map lock: snapshot
        // the entries first, then read each dynamic state.
        type EntrySnap = (Arc<Dataset>, Arc<Mutex<DynState>>, bool, bool, u32);
        let snap: Vec<EntrySnap> = read_map(&self.map)
            .values()
            .map(|e| {
                (
                    e.ds.clone(),
                    e.dynamics.clone(),
                    e.pinned,
                    e.quarantined.load(Ordering::Relaxed),
                    e.panics.load(Ordering::Relaxed),
                )
            })
            .collect();
        let mut v: Vec<DatasetInfo> = snap
            .into_iter()
            .map(|(ds, dynamics, pinned, quarantined, panics)| DatasetInfo {
                ds,
                pinned,
                quarantined,
                panics,
                version: relock(&dynamics).version,
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
    use mspgemm_io::CachePolicy;

    fn off_opts() -> LoadOpts {
        LoadOpts {
            policy: CachePolicy::Off,
            parse_threads: 1,
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
        assert_eq!(ds.matrix.nrows(), 80);
        assert_eq!(ds.matrix_t.nnz(), ds.matrix.nnz());
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
        assert_eq!(reg.list()[0].version, 0);

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
        assert_eq!(out.applied, 3);
        let live = reg.get("u").unwrap();
        assert!(!Arc::ptr_eq(&before, &live), "live Arc swapped");
        assert_eq!(live.matrix.get(3, 4), Some(&1.0));
        assert_eq!(live.matrix.get(0, 79), None);
        // In-flight readers keep their old view.
        assert_eq!(before.matrix.get(3, 4), None);
        // Derived operands track the merged matrix.
        assert_eq!(live.matrix_t.get(4, 3), Some(&1.0));

        let out = reg
            .update("u", &[DeltaOp::Delete { row: 3, col: 4 }])
            .unwrap();
        assert_eq!(out.version, 2);
        assert_eq!(reg.get("u").unwrap().matrix.get(3, 4), None);
        assert_eq!(reg.list()[0].version, 2);

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
            .unwrap_err();
        assert!(matches!(err, RegistryError::OutOfBounds(_)), "{err:?}");
        assert_eq!(reg.list()[0].version, 2, "rejected batch bumps nothing");
        assert_eq!(reg.get("u").unwrap().matrix.get(1, 1), None);

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
        // Store a cache at version 0, then update: the snapshot exposes
        // the stale cache plus the changed positions.
        let ds0 = reg.get("t").unwrap();
        let ops0 = ds0.tc_operands();
        let (counts, _) = tricount::count_prepared_rows_with(
            &ops0,
            mspgemm_graph::scheme::Scheme::Ours(
                masked_spgemm::Algorithm::Msa,
                masked_spgemm::Phases::One,
            ),
            &masked_spgemm::ExecOpts::default(),
        );
        let total: u64 = counts.iter().sum();
        assert!(reg.store_tc_cache(
            "t",
            TcCache {
                perm: ops0.perm.clone(),
                counts: counts.clone(),
                total,
                version: 0,
            }
        ));
        let snap = reg.tc_snapshot("t").unwrap();
        assert_eq!(snap.version, 0);
        assert_eq!(snap.cache.as_ref().unwrap().total, total);
        assert!(snap.changed.is_empty());

        reg.update(
            "t",
            &[DeltaOp::Upsert {
                row: 7,
                col: 9,
                val: 1.0,
            }],
        )
        .unwrap();
        let snap = reg.tc_snapshot("t").unwrap();
        assert_eq!(snap.version, 1);
        assert!(
            snap.cache.is_some(),
            "stale cache still usable for patching"
        );
        assert_eq!(snap.changed, vec![(7, 9)]);
        assert_eq!(snap.ds.backend(), MsbBackend::Heap);
        assert_eq!(snap.ds.mapped_bytes(), 0);

        // A stale-stamped store is refused.
        assert!(!reg.store_tc_cache(
            "t",
            TcCache {
                perm: ops0.perm.clone(),
                counts: counts.clone(),
                total,
                version: 0,
            }
        ));
        // A current-stamped store lands and clears the log.
        assert!(reg.store_tc_cache(
            "t",
            TcCache {
                perm: ops0.perm.clone(),
                counts,
                total,
                version: 1,
            }
        ));
        let snap = reg.tc_snapshot("t").unwrap();
        assert!(snap.changed.is_empty());
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
        assert_eq!(loaded.matrix.get(7, 70), None, "fixture has no (7,70)");

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
        assert!(matches!(res, Err(RegistryError::Load(_))), "{res:?}");
        assert_eq!(reg.list()[0].version, 0, "a failed update bumps nothing");

        let accepted = [DeltaOp::Upsert {
            row: 3,
            col: 4,
            val: 1.0,
        }];
        let out = reg.update("f", &accepted).unwrap();
        assert_eq!(out.version, 1, "versions count successful updates only");
        // The live matrix is the accepted ops alone over the loaded one:
        // the failed batch does not resurface.
        let mut only_accepted = Overlay::new(80, 80);
        only_accepted.apply_batch(&accepted).unwrap();
        let live = reg.get("f").unwrap();
        assert_eq!(live.matrix.get(7, 70), None);
        assert_eq!(live.matrix, only_accepted.merged(loaded.matrix.view()));
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
            assert!(
                matches!(res, Err(RegistryError::NotFound(_))),
                "late swap must lose: {res:?}"
            );
        });
        mspgemm_fault::clear();
        assert!(reg.is_empty(), "unload is not resurrected by the late swap");
        assert!(matches!(reg.get("r"), Err(RegistryError::NotFound(_))));
        // The name is immediately reloadable and healthy.
        reg.load(mtx.to_str().unwrap(), Some("r"), &off_opts(), false)
            .unwrap();
        assert_eq!(reg.list()[0].version, 0);
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
