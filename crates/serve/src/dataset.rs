//! One resident dataset: an immutable, versioned snapshot of a matrix
//! with every derived operand the request handlers reuse, and the
//! triangle-counting state that describes *this* snapshot.
//!
//! A [`Dataset`] holds everything a request needs so that no per-request
//! ingest, normalization, or transposition happens on the hot path:
//!
//! * the raw matrix as loaded (the `mxm` verb squares it under its own
//!   pattern as the mask, mirroring `mxm run`) and its transpose (the
//!   pre-computed `Bᵀ` that the pull-based Inner scheme consumes);
//! * the normalized undirected adjacency (what the TC / k-truss / BC
//!   applications consume);
//! * lazily, the relabeled triangle-counting operands and the per-row
//!   counts — both written once, by the first `app tc` that ran against
//!   this snapshot.
//!
//! Loading goes through the `.msb` sidecar cache ([`mspgemm_io`]), so the
//! first `load` of a text matrix warms the sidecar and every later server
//! start deserializes the binary directly.
//!
//! ## Versions and the triangle seed
//!
//! A loaded dataset is `version` 0. An `update` never mutates a snapshot:
//! [`Dataset::rebuilt`] derives the successor (`version + 1`) from the
//! merged matrix, and the registry swaps it in. What makes the
//! successor's first `app tc` incremental travels with it as a **seed**:
//! the newest per-row counts any ancestor had, the relabeling they were
//! counted under, and the positions changed since. The seed shares those
//! vectors by `Arc` and never references the ancestor itself, so a
//! replaced snapshot is freed with its last in-flight reader. Counts are
//! only ever stored in the snapshot they were computed against, so they
//! cannot describe any other matrix — there is nothing to check at store
//! time.

use masked_spgemm::ExecOpts;
use mspgemm_graph::tricount::{self, TcOperands};
use mspgemm_graph::Scheme;
use mspgemm_io::{dataset_name, load_matrix, to_adjacency, IngestReport, LoadOpts, MsbBackend};
use mspgemm_sparse::{transpose, Csr, Idx, StorageReport};
use std::mem::size_of_val;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cap on the changed positions a seed carries. Past it, patching would
/// approach full-recompute cost anyway, so the seed is dropped and the
/// next `app tc` recounts every row.
pub(crate) const DELTA_LOG_CAP: usize = 1 << 16;

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
    /// Updates applied since the load: 0 as loaded, the predecessor's
    /// plus one in every [`Dataset::rebuilt`].
    pub version: u64,
    /// Relabeled triangle-counting operands, built on first use — under
    /// the seed's relabeling when there is a seed, so the seed's counts
    /// and this snapshot's stay row-aligned.
    tc_ops: OnceLock<Arc<TcOperands>>,
    /// Per-row triangle counts of this snapshot (rows as relabeled by
    /// `tc_ops`), written by the first `app tc` that ran against it.
    tc_counts: OnceLock<Arc<[u64]>>,
    /// What an ancestor's counts can still say about this snapshot.
    tc_seed: Option<TcSeed>,
}

/// The newest per-row triangle counts any ancestor of a snapshot had,
/// plus everything needed to patch them forward.
struct TcSeed {
    /// The relabeling the counts were computed under (`perm[old] = new`).
    perm: Arc<[Idx]>,
    /// The ancestor's per-row counts.
    counts: Arc<[u64]>,
    /// Positions changed between that ancestor and this snapshot.
    changed: Vec<(Idx, Idx)>,
}

/// What one `app tc` pass over a snapshot found and did.
pub(crate) struct TcAnswer {
    /// Total triangles in the snapshot.
    pub triangles: u64,
    /// Wall-clock seconds of the masked SpGEMM.
    pub mxm_seconds: f64,
    /// FLOP count (2 × multiplies) of the full unmasked `L·L`.
    pub flops: u64,
    /// Rows recounted by an incremental pass; `None` when every row was.
    pub patched_rows: Option<usize>,
    /// Whether this pass's counts were kept on the snapshot (they are
    /// unless an earlier pass already left its own there).
    pub cached: bool,
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

    /// Derive every resident operand from a raw square matrix, as a
    /// version-0 snapshot with no seed — shared by the disk loader and
    /// the update path's rebuilds.
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
            version: 0,
            tc_ops: OnceLock::new(),
            tc_counts: OnceLock::new(),
            tc_seed: None,
        }
    }

    /// The successor of `prev` carrying an updated matrix: identity (name,
    /// path, load time) is inherited, the version moves on by one, derived
    /// operands are rebuilt, and the ingest report flips to the heap
    /// backend — merged sections are always heap-owned, so an update
    /// copies-on-write away from any mmap backing (the mapping itself
    /// stays untouched and alive only as long as an in-flight reader still
    /// holds the previous dataset).
    ///
    /// `changed` are the positions the update touched. They extend the
    /// seed: `prev`'s own counts if it has any (then `changed` is all that
    /// separates them from the new matrix), else `prev`'s seed with
    /// `changed` appended. A seed grown past `DELTA_LOG_CAP` (2¹⁶ positions)
    /// is dropped.
    pub fn rebuilt(prev: &Dataset, matrix: Csr<f64>, changed: &[(Idx, Idx)]) -> Dataset {
        debug_assert!(!matrix.has_shared_storage(), "rebuilds must be heap-owned");
        let ingest = IngestReport {
            backend: MsbBackend::Heap,
            entries: matrix.nnz(),
            ..prev.ingest
        };
        let tc_seed = match (prev.tc_counts.get(), &prev.tc_seed) {
            (Some(counts), _) => Some(TcSeed {
                perm: prev.tc_operands().perm.as_slice().into(),
                counts: counts.clone(),
                changed: changed.to_vec(),
            }),
            (None, Some(seed)) => Some(TcSeed {
                perm: seed.perm.clone(),
                counts: seed.counts.clone(),
                changed: [&seed.changed, changed].concat(),
            }),
            (None, None) => None,
        };
        Dataset {
            version: prev.version + 1,
            tc_seed: tc_seed.filter(|seed| seed.changed.len() <= DELTA_LOG_CAP),
            ..Self::derive(
                prev.name.clone(),
                prev.path.clone(),
                matrix,
                ingest,
                prev.loaded_at,
            )
        }
    }

    /// The triangle-counting operands (degree-relabeled `L` and `Lᵀ`),
    /// built once on first use and shared by every later `app tc`
    /// request. A seeded snapshot replays the seed's relabeling instead of
    /// ranking degrees afresh (any permutation counts correctly; degree
    /// order is only a performance heuristic).
    pub fn tc_operands(&self) -> Arc<TcOperands> {
        self.tc_ops
            .get_or_init(|| {
                Arc::new(match &self.tc_seed {
                    Some(seed) => tricount::prepare_with_perm(&self.adj, seed.perm.to_vec()),
                    None => tricount::prepare(&self.adj),
                })
            })
            .clone()
    }

    /// Count this snapshot's triangles — the whole `app tc` verb.
    ///
    /// The first count of a seeded snapshot is incremental: the masked
    /// SpGEMM shrinks to the rows the changed positions could have
    /// affected, and those rows patch the seed's counts. Every other
    /// count (no ancestor ever counted, the seed outgrew its cap, or this
    /// snapshot already has counts of its own) runs the full product. The
    /// per-row counts are then stored on this snapshot, for its
    /// successors to be seeded from.
    pub(crate) fn triangle_count(&self, scheme: Scheme, opts: &ExecOpts<'_>) -> TcAnswer {
        let ops = self.tc_operands();
        let (counts, mxm_seconds, patched_rows) = match &self.tc_seed {
            Some(seed) if self.tc_counts.get().is_none() => {
                let rows = tricount::affected_rows(&ops, &seed.changed);
                let (patch, secs) = tricount::recount_rows_with(&ops, &rows, scheme, opts);
                let mut counts = seed.counts.to_vec();
                for &i in &rows {
                    counts[i] = patch[i];
                }
                (counts, secs, Some(rows.len()))
            }
            _ => {
                let (counts, secs) = tricount::count_prepared_rows_with(&ops, scheme, opts);
                (counts, secs, None)
            }
        };
        TcAnswer {
            triangles: counts.iter().sum(),
            mxm_seconds,
            flops: ops.flops,
            patched_rows,
            cached: self.tc_counts.set(counts.into()).is_ok(),
        }
    }

    /// The positions a seeded snapshot's first `app tc` patches from
    /// (`None` without a seed).
    #[cfg(test)]
    pub(crate) fn tc_seed_changed(&self) -> Option<&[(Idx, Idx)]> {
        self.tc_seed.as_ref().map(|seed| seed.changed.as_slice())
    }

    /// Whether the raw matrix is resident pattern-only: its value section
    /// is a view of the process-wide unit arena rather than per-dataset
    /// storage (`load` with `"pattern": true`, or a pattern `.msb`).
    pub fn pattern(&self) -> bool {
        self.matrix.values_unit_shared()
    }

    /// Approximate resident bytes across all held operands and the
    /// triangle-counting state. Unit-arena value sections are excluded —
    /// they are one process-wide allocation shared by every pattern
    /// dataset, disclosed via [`Self::unit_bytes`].
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

    fn sum_reports(&self, f: impl Fn(&StorageReport) -> u64) -> u64 {
        // Beside the operand matrices the triangle state is plain heap
        // vectors: the relabeling, this snapshot's counts, and the seed
        // (shared with ancestors no entry retains, so counted here).
        let mut vectors = 0;
        let mut total = f(&self.matrix.storage_report())
            + f(&self.matrix_t.storage_report())
            + f(&self.adj.storage_report());
        if let Some(ops) = self.tc_ops.get() {
            total += f(&ops.l.storage_report()) + f(&ops.lt.storage_report());
            vectors += size_of_val(ops.perm.as_slice());
        }
        if let Some(counts) = self.tc_counts.get() {
            vectors += size_of_val(&counts[..]);
        }
        if let Some(seed) = &self.tc_seed {
            vectors += size_of_val(&seed.perm[..])
                + size_of_val(&seed.counts[..])
                + size_of_val(seed.changed.as_slice());
        }
        total
            + f(&StorageReport {
                heap_bytes: vectors,
                ..StorageReport::default()
            })
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
