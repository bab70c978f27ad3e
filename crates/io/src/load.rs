//! Format dispatch, the `.msb` sidecar cache, and graph-oriented loading
//! helpers that turn an arbitrary on-disk matrix into the simple
//! undirected adjacency the TC / k-truss / BC applications consume.

use crate::error::IoError;
use crate::msb::{load_msb_file, write_msb_file, MsbBackend};
use crate::mtx::{read_mtx_file, write_mtx_file};
use mspgemm_sparse::ops::ewise::ewise_add;
use mspgemm_sparse::ops::select::remove_diagonal;
use mspgemm_sparse::{transpose, Csr, Idx, Overlay};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// On-disk matrix formats this crate reads and writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Text Matrix Market.
    Mtx,
    /// Binary cache ([`crate::msb`]).
    Msb,
}

impl Format {
    /// Infer the format from a path's extension (case-insensitive).
    pub fn from_path(path: &Path) -> Result<Format, IoError> {
        match path
            .extension()
            .and_then(|e| e.to_str())
            .map(|e| e.to_ascii_lowercase())
        {
            Some(e) if e == "mtx" || e == "mm" => Ok(Format::Mtx),
            Some(e) if e == "msb" => Ok(Format::Msb),
            _ => Err(IoError::UnknownFormat(path.to_path_buf())),
        }
    }
}

/// Run `write` against a hidden temp sibling of `dst`, then rename it
/// into place — so an interrupted writer never leaves a truncated file
/// under the real name (which the sidecar cache, trusting mtimes, would
/// later serve as valid).
fn persist_atomically(
    dst: &Path,
    write: impl FnOnce(&Path) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let name = dst
        .file_name()
        .ok_or_else(|| IoError::UnknownFormat(dst.to_path_buf()))?
        .to_string_lossy();
    // Dotted + pid-suffixed: invisible to directory dataset scans and
    // collision-free across concurrent writers.
    let tmp = dst.with_file_name(format!(".{name}.tmp{}", std::process::id()));
    let finish = write(&tmp).and_then(|()| Ok(std::fs::rename(&tmp, dst)?));
    if finish.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    finish
}

/// Save a matrix, dispatching on the extension. The write is atomic:
/// data lands in a temp file that is renamed over `path` only after the
/// full stream is flushed.
pub fn save_matrix(path: impl AsRef<Path>, a: &Csr<f64>) -> Result<(), IoError> {
    let path = path.as_ref();
    let format = Format::from_path(path)?;
    persist_atomically(path, |tmp| match format {
        Format::Mtx => write_mtx_file(tmp, a),
        Format::Msb => write_msb_file(tmp, a),
    })
}

/// Save only the pattern of `a` as a values-less `.msb` stream (atomic,
/// like [`save_matrix`]) — roughly half the bytes of a value `.msb` for
/// typical `nnz ≫ nrows` matrices. Text output has no values-less
/// layout, so a non-`.msb` extension is an error.
pub fn save_matrix_pattern(path: impl AsRef<Path>, a: &Csr<f64>) -> Result<(), IoError> {
    let path = path.as_ref();
    match Format::from_path(path)? {
        Format::Msb => persist_atomically(path, |tmp| crate::msb::write_msb_pattern_file(tmp, a)),
        Format::Mtx => Err(IoError::Format(
            "pattern output requires an .msb destination (Matrix Market has no \
             values-less binary layout here)"
                .into(),
        )),
    }
}

/// Sidecar-cache behaviour for [`load_matrix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Read a fresh sidecar if present; write one after parsing text.
    #[default]
    ReadWrite,
    /// Ignore sidecars entirely.
    Off,
}

/// What [`load_matrix`] actually did with the sidecar cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Parsed the text file; no cache involved.
    Parsed,
    /// Served from a fresh `.msb` sidecar.
    Hit,
    /// Parsed the text file and wrote the sidecar for next time.
    Written,
}

/// The sidecar path: `graph.mtx` → `graph.msb` — the one cache file a
/// text input has. It is always a faithful value stream; a
/// [`LoadOpts::pattern`] load is served from it by skipping the values
/// range, so pattern and plain loads share it in either order.
pub fn sidecar_path(path: &Path) -> PathBuf {
    path.with_extension("msb")
}

fn is_fresh(original: &Path, sidecar: &Path) -> bool {
    let (Ok(om), Ok(sm)) = (std::fs::metadata(original), std::fs::metadata(sidecar)) else {
        return false;
    };
    match (om.modified(), sm.modified()) {
        (Ok(ot), Ok(st)) => st >= ot,
        _ => false,
    }
}

/// What one ingest actually moved, for throughput reporting: the bytes
/// read, the coordinate entries parsed (stored entries for text, nnz for
/// binary), and the wall time of the read+parse (sidecar writing
/// excluded — it is amortized, not ingest).
#[derive(Clone, Copy, Debug)]
pub struct IngestReport {
    /// How the matrix was obtained.
    pub outcome: CacheOutcome,
    /// How the resident sections are backed (heap copies, or zero-copy
    /// `Arc`-shared views into an mmap'd v2 `.msb`).
    pub backend: MsbBackend,
    /// Bytes actually read: the whole text file, or the `.msb` stream up
    /// to the last section the load materialised (a pattern load of a
    /// value stream stops before the values range).
    pub bytes: u64,
    /// Entries parsed (text: declared stored entries; binary: nnz).
    pub entries: usize,
    /// Seconds spent reading + parsing.
    pub seconds: f64,
    /// Whether the resident matrix is pattern-only: its values are unit
    /// (`1.0`) views into the process-wide arena
    /// ([`mspgemm_sparse::shared_ones`]) instead of an `8·nnz`-byte
    /// private section — either because the `.msb` stream carried no
    /// values, or because [`LoadOpts::pattern`] left them on disk.
    pub pattern: bool,
}

/// Everything [`load_matrix`] lets a caller pin: the sidecar cache
/// policy, and whether `.msb` inputs/sidecars should be memory-mapped
/// zero-copy instead of heap-copied. Text always parses at the automatic
/// fan-out ([`crate::mtx::read_mtx_bytes`] with `0`).
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadOpts {
    /// Sidecar cache behaviour (default [`CachePolicy::ReadWrite`]).
    pub policy: CachePolicy,
    /// Prefer the zero-copy mmap path for `.msb` files. Targets that
    /// cannot map fall back to heap copies — the report's `backend`
    /// field says what happened.
    pub mmap: bool,
    /// Load as a structural pattern: values are served as unit `1.0`
    /// views of the process-wide arena, and the values range of an
    /// `.msb` input or sidecar is not materialised (heap: never read;
    /// mmap: never cast). Files are untouched — the sidecar a pattern
    /// load writes still carries the weights. Only for workloads that
    /// never read weights (TC / k-truss / structural masks).
    pub pattern: bool,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Load `path`, dispatching on the extension (`.mtx`/`.mm` or `.msb`)
/// and transparently using an `.msb` sidecar to skip text parsing on
/// repeat runs.
///
/// * `.msb` input: read directly (the cache *is* the input).
/// * `.mtx` input: under [`CachePolicy::ReadWrite`], if a sidecar exists
///   and is at least as new as the text file, read it instead; otherwise
///   parse the text ([`read_mtx_file`]) and write the sidecar —
///   atomically, so an interrupted run cannot plant a truncated cache. A
///   stale or corrupt sidecar falls back to the text file rather than
///   failing the load. [`CachePolicy::Off`] always parses and never
///   writes.
///
/// With `opts.mmap` set, a v2 `.msb` input (or fresh sidecar) backs the
/// matrix directly by the mapped file, so residency costs no per-section
/// heap copy of `colidx`/`values`. With `opts.pattern` set, whichever
/// `.msb` is read has its values range skipped and a text parse drops
/// its weights after the sidecar is written — the one sidecar serves
/// plain and pattern loads alike.
pub fn load_matrix(
    path: impl AsRef<Path>,
    opts: &LoadOpts,
) -> Result<(Csr<f64>, IngestReport), IoError> {
    let path = path.as_ref();
    let _span = mspgemm_obs::span("ingest");
    // Failpoint `io.load`: a whole-ingest failure (disk gone, short
    // read) before any bytes move.
    if let Some(msg) = mspgemm_fault::fire("io.load") {
        return Err(IoError::Format(format!("failpoint io.load: {msg}")));
    }
    // Failpoint `io.mmap`: the mapping call fails; like a real mmap
    // refusal this degrades gracefully to the heap-copying reader.
    let mmap = opts.mmap && mspgemm_fault::fire("io.mmap").is_none();
    let start = Instant::now();
    let report = |outcome, backend, bytes, entries, a: &Csr<f64>| IngestReport {
        outcome,
        backend,
        bytes,
        entries,
        seconds: start.elapsed().as_secs_f64(),
        pattern: a.values_unit_shared(),
    };
    let hit = |(a, backend, bytes): (Csr<f64>, MsbBackend, u64)| {
        let r = report(CacheOutcome::Hit, backend, bytes, a.nnz(), &a);
        (a, r)
    };
    if Format::from_path(path)? == Format::Msb {
        // Failpoint `io.msb`: a truncated or corrupt binary input —
        // fatal here, because the `.msb` file IS the dataset.
        if let Some(msg) = mspgemm_fault::fire("io.msb") {
            return Err(IoError::Format(format!("failpoint io.msb: {msg}")));
        }
        return load_msb_file(path, mmap, opts.pattern).map(hit);
    }
    let sidecar = sidecar_path(path);
    let cached = opts.policy == CachePolicy::ReadWrite;
    if cached
        && is_fresh(path, &sidecar)
        // Failpoint `io.msb` on a *sidecar* behaves like the corrupt
        // cache it simulates: skip it and fall back to the text parse.
        && mspgemm_fault::fire("io.msb").is_none()
    {
        if let Ok(loaded) = load_msb_file(&sidecar, mmap, opts.pattern) {
            return Ok(hit(loaded));
        }
        // Corrupt sidecar: fall through to the text parse.
    }
    let (h, mut a) = read_mtx_file(path)?;
    // The sidecar keeps the weights whatever this load wants in memory.
    let wrote = cached && persist_atomically(&sidecar, |tmp| write_msb_file(tmp, &a)).is_ok();
    if opts.pattern {
        a.set_unit_values();
    }
    let mut r = report(
        CacheOutcome::Parsed,
        MsbBackend::Heap,
        file_len(path),
        h.stored_entries,
        &a,
    );
    if wrote {
        r.outcome = CacheOutcome::Written;
        // With mmap preferred, swap the fresh parse for a mapping of the
        // sidecar just written: first runs then match repeat runs in
        // backend, and the server's residency is zero-copy from load one.
        if mmap {
            if let Ok((mapped, MsbBackend::Mmap, _)) = load_msb_file(&sidecar, true, opts.pattern) {
                debug_assert_eq!(mapped, a, "sidecar must round-trip the parse");
                r.backend = MsbBackend::Mmap;
                return Ok((mapped, r));
            }
        }
    }
    // Read-only filesystems are fine; the parse still succeeded.
    Ok((a, r))
}

/// Summary of what [`to_adjacency`] changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdjacencyStats {
    /// Self-loop entries removed.
    pub self_loops_removed: usize,
    /// Directed entries mirrored to make the pattern symmetric.
    pub entries_mirrored: usize,
}

/// Normalize an arbitrary square matrix into the simple undirected
/// adjacency the applications (and the synthetic suite) use: symmetric
/// pattern `A ∪ Aᵀ`, no self-loops, every stored value `1.0`.
///
/// # Panics
/// If the matrix is not square.
pub fn to_adjacency(a: &Csr<f64>) -> (Csr<f64>, AdjacencyStats) {
    assert_eq!(a.nrows(), a.ncols(), "adjacency requires a square matrix");
    let no_diag = remove_diagonal(a);
    let self_loops_removed = a.nnz() - no_diag.nnz();
    let at = transpose(&no_diag);
    // Union of the pattern with its transpose; weights are irrelevant to
    // the structural applications, so every edge becomes 1.0.
    let sym = ewise_add(&no_diag, &at, |_, _| 1.0f64, |_| 1.0, |_| 1.0);
    let entries_mirrored = sym.nnz() - no_diag.nnz();
    (
        sym,
        AdjacencyStats {
            self_loops_removed,
            entries_mirrored,
        },
    )
}

/// The batch that carries a held [`to_adjacency`] result forward after
/// `a` changed at `changed`: every off-diagonal position maps to both of
/// its orientations, present (as `1.0`) iff the updated `a` stores
/// `(i, j)` or `(j, i)`. An overwrite therefore leaves the adjacency
/// alone, and removing one orientation of an edge keeps it while the
/// other stays. Merging the result into the previous adjacency equals
/// [`to_adjacency`] of the updated `a`.
///
/// # Panics
/// If `a` is not square or a position is out of bounds for it.
pub fn adjacency_delta(a: &Csr<f64>, changed: &[(Idx, Idx)]) -> Overlay<f64> {
    assert_eq!(a.nrows(), a.ncols(), "adjacency requires a square matrix");
    let mut delta = Overlay::new(a.nrows(), a.ncols());
    for &(i, j) in changed {
        if i != j {
            let edge = a.get(i as usize, j).or(a.get(j as usize, i)).map(|_| 1.0);
            delta.set(i, j, edge);
            delta.set(j, i, edge);
        }
    }
    delta
}

/// `transposed` (= `matrixᵀ`) unless it is `matrix` over again — same
/// pattern, same values bit for bit (`-0.0` is not `0.0` here: a
/// product's fingerprint hashes bits). `None` says `matrix` is its own
/// transpose, which is what lets a caller hand `matrix` itself to
/// `masked_mxm_with_bt` as `Bᵀ` and so declare a symmetric self-product.
/// A kept transpose of a pattern-loaded `matrix` is all-ones too, so its
/// values are pointed at the process-wide unit arena.
pub fn distinct_transpose(matrix: &Csr<f64>, mut transposed: Csr<f64>) -> Option<Csr<f64>> {
    if same_bits(matrix, &transposed) {
        return None;
    }
    if matrix.values_unit_shared() {
        transposed.share_unit_values();
    }
    Some(transposed)
}

/// `a == b` with values compared by bits.
pub fn same_bits(a: &Csr<f64>, b: &Csr<f64>) -> bool {
    a.rowptr() == b.rowptr()
        && a.colidx() == b.colidx()
        && a.values()
            .iter()
            .map(|v| v.to_bits())
            .eq(b.values().iter().map(|v| v.to_bits()))
}

/// [`load_matrix`] a file and normalize it with [`to_adjacency`]. The
/// normalized adjacency is a derived (owned) matrix either way; the mmap
/// preference still saves the intermediate heap copy of the raw operand
/// while normalizing.
pub fn load_graph(
    path: impl AsRef<Path>,
    opts: &LoadOpts,
) -> Result<(Csr<f64>, AdjacencyStats), IoError> {
    let (a, _) = load_matrix(path, opts)?;
    if a.nrows() != a.ncols() {
        return Err(IoError::Format(format!(
            "graph loading needs a square matrix, got {}x{}",
            a.nrows(),
            a.ncols()
        )));
    }
    Ok(to_adjacency(&a))
}

/// Default options under `policy` — the shape most I/O tests load with.
#[cfg(test)]
pub(crate) fn policy(policy: CachePolicy) -> LoadOpts {
    LoadOpts {
        policy,
        ..LoadOpts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::Coo;

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mspgemm_io_load_{tag}"));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn directed_sample() -> Csr<f64> {
        // 0→1, 1→2, 2→0 (a directed cycle) plus a self-loop at 1.
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 5.0);
        coo.push(1, 2, 5.0);
        coo.push(2, 0, 5.0);
        coo.push(1, 1, 9.0);
        coo.to_csr(|a, _| a)
    }

    #[test]
    fn format_inference() {
        assert_eq!(
            Format::from_path(Path::new("a/b.mtx")).unwrap(),
            Format::Mtx
        );
        assert_eq!(
            Format::from_path(Path::new("a/B.MTX")).unwrap(),
            Format::Mtx
        );
        assert_eq!(Format::from_path(Path::new("x.mm")).unwrap(), Format::Mtx);
        assert_eq!(Format::from_path(Path::new("x.msb")).unwrap(), Format::Msb);
        assert!(Format::from_path(Path::new("x.csv")).is_err());
        assert!(Format::from_path(Path::new("noext")).is_err());
    }

    #[test]
    fn to_adjacency_symmetrizes_and_cleans() {
        let (adj, stats) = to_adjacency(&directed_sample());
        assert_eq!(stats.self_loops_removed, 1);
        assert_eq!(stats.entries_mirrored, 3);
        assert_eq!(adj.nnz(), 6, "3 undirected edges");
        for (i, j, &v) in adj.iter() {
            assert_eq!(v, 1.0);
            assert_ne!(i, j as usize);
            assert!(
                adj.get(j as usize, i as u32).is_some(),
                "({i},{j}) not mirrored"
            );
        }
    }

    #[test]
    fn to_adjacency_output_is_its_own_transpose() {
        // Values included: what lets a BC request pass the adjacency as
        // both operands instead of transposing it.
        let weighted = mspgemm_gen::er(60, 60, 4, 9);
        for a in [directed_sample(), weighted] {
            let (adj, _) = to_adjacency(&a);
            assert!(adj.nnz() > 0);
            assert!(adj == transpose(&adj));
        }
    }

    #[test]
    fn adjacency_delta_carries_a_held_adjacency_forward() {
        use mspgemm_sparse::DeltaOp::{Delete, Upsert};
        let a = directed_sample();
        let (adj, _) = to_adjacency(&a);
        let up = |row, col| Upsert { row, col, val: 3.0 };
        let batches: [&[_]; 4] = [
            // An overwrite, a self-loop and a delete of an absent entry:
            // the adjacency does not move.
            &[up(0, 1), up(2, 2), Delete { row: 0, col: 2 }],
            // The second orientation of 0–1 arrives, then the first one
            // leaves: the edge stays throughout.
            &[up(1, 0)],
            &[Delete { row: 0, col: 1 }],
            // The last orientation goes, and a new edge comes and goes
            // within one batch.
            &[
                Delete { row: 1, col: 0 },
                up(0, 2),
                Delete { row: 0, col: 2 },
            ],
        ];
        let edges = [3, 3, 3, 2];
        let (mut a, mut adj) = (a, adj);
        for (ops, edges) in batches.into_iter().zip(edges) {
            let mut batch = Overlay::new(3, 3);
            batch.apply_batch(ops).unwrap();
            a = batch.merged(a.view());
            let changed: Vec<(Idx, Idx)> = ops.iter().map(|op| op.key()).collect();
            adj = adjacency_delta(&a, &changed).merged(adj.view());
            assert_eq!(adj, to_adjacency(&a).0);
            assert_eq!(adj.nnz(), 2 * edges);
        }
    }

    #[test]
    fn already_simple_graph_is_unchanged() {
        let g = mspgemm_gen::er_symmetric(100, 6, 5);
        let (adj, stats) = to_adjacency(&g);
        assert_eq!(stats, AdjacencyStats::default());
        assert_eq!(adj.pattern(), g.pattern());
    }

    /// `n × n` from `(row, col, value)` triples.
    fn from_triples(n: usize, entries: &[(u32, u32, f64)]) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for &(i, j, v) in entries {
            coo.push(i, j, v);
        }
        coo.to_csr(|a, _| a)
    }

    fn own_transpose(a: &Csr<f64>) -> Option<Csr<f64>> {
        distinct_transpose(a, transpose(a))
    }

    #[test]
    fn distinct_transpose_keeps_only_a_transpose_that_differs_by_bits() {
        let symmetric = mspgemm_gen::er_symmetric(60, 6, 3);
        assert!(own_transpose(&symmetric).is_none());
        // The same pattern both ways, but not the same values.
        let valued = from_triples(2, &[(0, 1, 1.0), (1, 0, 2.0)]);
        assert_eq!(own_transpose(&valued), Some(transpose(&valued)));
        // Equal by `==`, not by bits.
        let zeros = from_triples(2, &[(0, 1, 0.0), (1, 0, -0.0)]);
        assert_eq!(zeros, transpose(&zeros));
        assert!(!same_bits(&zeros, &transpose(&zeros)));
        assert!(own_transpose(&zeros).is_some());
    }

    #[test]
    fn distinct_transpose_of_a_pattern_load_reads_the_pattern() {
        let dir = tempdir("distinct_transpose");
        let pattern = LoadOpts {
            pattern: true,
            ..policy(CachePolicy::Off)
        };
        // Unit values are symmetric wherever the pattern is.
        let valued = dir.join("valued.mtx");
        crate::mtx::write_mtx_file(&valued, &from_triples(2, &[(0, 1, 1.0), (1, 0, 2.0)])).unwrap();
        let (a, _) = load_matrix(&valued, &pattern).unwrap();
        assert!(a.values_unit_shared());
        assert!(own_transpose(&a).is_none());
        // A transpose that differs is kept, its values on the unit arena.
        let directed = dir.join("directed.mtx");
        crate::mtx::write_mtx_file(&directed, &directed_sample()).unwrap();
        let (a, _) = load_matrix(&directed, &pattern).unwrap();
        let at = own_transpose(&a).expect("a directed cycle is not symmetric");
        assert!(at.values_unit_shared());
        assert_eq!(at, transpose(&a));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_roundtrip_and_freshness() {
        let dir = tempdir("cache");
        let mtx = dir.join("g.mtx");
        let msb = sidecar_path(&mtx);
        std::fs::remove_file(&msb).ok();
        crate::mtx::write_mtx_file(&mtx, &directed_sample()).unwrap();

        // First load parses and writes the sidecar.
        let (a, r) = load_matrix(&mtx, &policy(CachePolicy::ReadWrite)).unwrap();
        assert_eq!(r.outcome, CacheOutcome::Written);
        assert!(msb.exists());
        // Second load hits the sidecar and agrees.
        let (b, r) = load_matrix(&mtx, &policy(CachePolicy::ReadWrite)).unwrap();
        assert_eq!(r.outcome, CacheOutcome::Hit);
        assert_eq!(a, b);
        // Off policy re-parses.
        let (_, r) = load_matrix(&mtx, &policy(CachePolicy::Off)).unwrap();
        assert_eq!(r.outcome, CacheOutcome::Parsed);
        std::fs::remove_file(&mtx).ok();
        std::fs::remove_file(&msb).ok();
    }

    #[test]
    fn corrupt_sidecar_falls_back_to_text() {
        let dir = tempdir("corrupt");
        let mtx = dir.join("g.mtx");
        let msb = sidecar_path(&mtx);
        crate::mtx::write_mtx_file(&mtx, &directed_sample()).unwrap();
        std::fs::write(&msb, b"not an msb file").unwrap();
        // The sidecar is newer than the text, so the fallback path is
        // what's exercised (not staleness) — and the parse replaces it.
        let (a, r) = load_matrix(&mtx, &policy(CachePolicy::ReadWrite)).unwrap();
        assert_eq!(a, directed_sample());
        assert_eq!(r.outcome, CacheOutcome::Written);
        assert_eq!(crate::msb::read_msb_file(&msb).unwrap(), a);
        std::fs::remove_file(&mtx).ok();
        std::fs::remove_file(&msb).ok();
    }

    #[test]
    fn save_matrix_is_atomic_and_leaves_no_temp() {
        let dir = tempdir("atomic");
        let msb = dir.join("out.msb");
        // Pre-plant a file so we know rename replaced it wholesale.
        std::fs::write(&msb, b"stale garbage").unwrap();
        save_matrix(&msb, &directed_sample()).unwrap();
        assert_eq!(crate::msb::read_msb_file(&msb).unwrap(), directed_sample());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&msb).ok();
    }

    #[test]
    fn failed_save_does_not_clobber_existing_file() {
        let dir = tempdir("atomic_fail");
        let mtx = dir.join("keep.mtx");
        crate::mtx::write_mtx_file(&mtx, &directed_sample()).unwrap();
        // A symmetric .mtx save of an asymmetric matrix fails validation
        // mid-write in principle; here we use an unknown extension to
        // force an early error and then a doomed path to force a late
        // one. Either way the original must survive intact.
        assert!(save_matrix(dir.join("x.nope"), &directed_sample()).is_err());
        let gone = dir.join("no_such_subdir").join("y.msb");
        assert!(save_matrix(&gone, &directed_sample()).is_err());
        assert_eq!(
            crate::mtx::read_mtx_file(&mtx).unwrap().1,
            directed_sample(),
            "existing file damaged by failed saves"
        );
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn ingest_report_tracks_outcomes_and_bytes() {
        let dir = tempdir("report");
        let mtx = dir.join("r.mtx");
        let msb = sidecar_path(&mtx);
        std::fs::remove_file(&msb).ok();
        crate::mtx::write_mtx_file(&mtx, &directed_sample()).unwrap();

        let opts = policy(CachePolicy::ReadWrite);
        let (_, r) = load_matrix(&mtx, &opts).unwrap();
        assert_eq!(r.outcome, CacheOutcome::Written);
        assert_eq!(r.bytes, std::fs::metadata(&mtx).unwrap().len());
        assert_eq!(r.entries, 4, "declared stored entries");
        assert!(r.seconds >= 0.0);

        let (_, r) = load_matrix(&mtx, &opts).unwrap();
        assert_eq!(r.outcome, CacheOutcome::Hit);
        assert_eq!(
            r.bytes,
            std::fs::metadata(&msb).unwrap().len(),
            "sidecar bytes"
        );
        std::fs::remove_file(&mtx).ok();
        std::fs::remove_file(&msb).ok();
    }

    #[test]
    fn pattern_and_plain_loads_share_the_one_value_sidecar() {
        // Both load orders on one weighted text, heap and mmap: exactly
        // one `.msb` lands beside it, the plain load always gets the
        // original weights, the pattern load unit-arena values.
        let w = directed_sample();
        for (tag, pattern_first) in [("pattern_first", true), ("plain_first", false)] {
            for mmap in [false, true] {
                let dir = tempdir(&format!("{tag}_{mmap}"));
                std::fs::remove_dir_all(&dir).ok();
                std::fs::create_dir_all(&dir).unwrap();
                let mtx = dir.join("g.mtx");
                crate::mtx::write_mtx_file(&mtx, &w).unwrap();
                let opts = |pattern| LoadOpts {
                    mmap,
                    pattern,
                    ..policy(CachePolicy::ReadWrite)
                };
                let mut outcomes = Vec::new();
                for pattern in [pattern_first, !pattern_first, pattern_first] {
                    let (a, r) = load_matrix(&mtx, &opts(pattern)).unwrap();
                    outcomes.push(r.outcome);
                    assert_eq!(r.pattern, pattern);
                    assert_eq!(a.values_unit_shared(), pattern);
                    assert_eq!(a.pattern(), w.pattern());
                    if pattern {
                        assert!(a.values().iter().all(|&v| v == 1.0));
                    } else {
                        assert_eq!(a, w, "{tag}: the plain load keeps the weights");
                    }
                    if r.outcome == CacheOutcome::Hit {
                        // A pattern hit stops before the values range.
                        let whole = file_len(&sidecar_path(&mtx));
                        let expect = whole - if pattern { 8 * w.nnz() as u64 } else { 0 };
                        assert_eq!(r.bytes, expect, "{tag}: bytes read");
                    }
                }
                assert_eq!(
                    outcomes,
                    [CacheOutcome::Written, CacheOutcome::Hit, CacheOutcome::Hit],
                    "{tag}: the second flavour is served by the first one's sidecar"
                );
                let mut files: Vec<_> = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| e.unwrap().file_name().into_string().unwrap())
                    .collect();
                files.sort();
                assert_eq!(files, ["g.msb", "g.mtx"], "{tag}: one cache file");
                assert_eq!(
                    crate::msb::read_msb_file(sidecar_path(&mtx)).unwrap(),
                    w,
                    "{tag}: the sidecar is a faithful value stream"
                );
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn pattern_load_of_a_value_msb_leaves_the_file_alone() {
        let dir = tempdir("pattern_msb");
        let msb = dir.join("w.msb");
        save_matrix(&msb, &directed_sample()).unwrap();
        let popts = LoadOpts {
            pattern: true,
            ..LoadOpts::default()
        };
        let (pm, rm) = load_matrix(&msb, &popts).unwrap();
        assert!(rm.pattern && pm.values_unit_shared());
        assert_eq!(pm.pattern(), directed_sample().pattern());
        assert_eq!(
            crate::msb::read_msb_file(&msb).unwrap(),
            directed_sample(),
            "the on-disk values are untouched"
        );
        std::fs::remove_file(&msb).ok();
    }

    #[test]
    fn load_graph_rejects_rectangular() {
        let dir = tempdir("rect");
        let mtx = dir.join("r.mtx");
        let rect = Csr::from_dense(&[vec![Some(1.0), None, None]], 3);
        crate::mtx::write_mtx_file(&mtx, &rect).unwrap();
        assert!(load_graph(&mtx, &policy(CachePolicy::Off)).is_err());
        std::fs::remove_file(&mtx).ok();
    }
}
