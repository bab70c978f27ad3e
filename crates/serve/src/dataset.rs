//! One resident dataset: an immutable, versioned snapshot of a matrix
//! with every derived operand the request handlers reuse, and the
//! triangle-counting state that describes *this* snapshot.
//!
//! A [`Dataset`] holds everything a request needs so that no per-request
//! ingest, normalization, or transposition happens on the hot path:
//!
//! * the raw matrix as loaded (the `mxm` verb squares it under its own
//!   pattern as the mask, mirroring `mxm run`) and its transpose (the
//!   pre-computed `Bᵀ` that the pull-based Inner scheme consumes) — which
//!   a symmetric matrix is itself, so a symmetric snapshot stores none
//!   and [`Dataset::bt`] hands out the matrix: the identity that lets
//!   `Auto` compute the self-product once per edge, as `mxm run` does;
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
//! A loaded dataset is `version` 0, its operands derived from the whole
//! matrix once. An `update` never mutates a snapshot and never derives
//! again: every resident operand is a canonical CSR and so a function of
//! its entry set, which makes a batch of changed positions in the matrix
//! a batch of changed positions in each operand. [`Dataset::rebuilt`]
//! maps the batch (`transpose_delta`, `adjacency_delta`,
//! `TcOperands::patched`) and merges it into the predecessor's sections,
//! so the successor (`version + 1`) costs the rows it touched plus one
//! copy of each section; the registry then swaps it in. Snapshots share
//! no matrix storage with each other.
//!
//! What makes the successor's first `app tc` incremental travels with it
//! as a **seed**: the newest per-row counts any ancestor had and the
//! positions changed since. A seeded snapshot is built with its
//! relabeled operands already patched forward under the relabeling those
//! counts were taken in, so that first `app tc` is the affected-row
//! recount and nothing else. The seed shares the counts by `Arc` and
//! never references the ancestor itself, so a replaced snapshot is freed
//! with its last in-flight reader. Counts are only ever stored in the
//! snapshot they were computed against, so they cannot describe any
//! other matrix — there is nothing to check at store time.
//!
//! ## The product seed
//!
//! The `mxm` verb's normal-mask product `pattern(A) ⊙ (A·A)` travels the
//! same way. An updated snapshot (`version` ≥ 1) keeps the first such
//! product computed against it, and hands it to its successor with the
//! positions changed since. The successor's first `auto` product then
//! recomputes only the entries those positions can reach
//! (`affected_entries`) and merges them into the seed's product. The
//! seed is single-use: the first normal-mask product takes it, so a
//! snapshot holds at most one product. A loaded snapshot that is never
//! updated keeps none.

use masked_spgemm::{masked_mxm_with_bt, Algorithm, Error, ExecOpts, MaskMode, Phases};
use mspgemm_graph::tricount::{self, TcOperands};
use mspgemm_graph::Scheme;
use mspgemm_io::{
    adjacency_delta, dataset_name, distinct_transpose, load_matrix, to_adjacency, IngestReport,
    LoadOpts, MsbBackend,
};
use mspgemm_sparse::semiring::PlusTimesF64;
use mspgemm_sparse::{transpose, transpose_delta, Csr, Idx, Overlay, StorageReport};
use std::cmp::Ordering;
use std::mem::size_of_val;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Cap on the changed positions a seed carries. Past it, patching would
/// approach full-recompute cost anyway, so the seed is dropped and the
/// next `app tc` recounts every row (the next `mxm` runs the kernel).
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
    /// `matrixᵀ` where it differs from `matrix` (pattern, or values by
    /// bits), pre-computed once so Inner-scheme requests skip the per-call
    /// transpose the paper charges to `SS:DOT` (§8.4). `None` for a
    /// symmetric matrix — read it through [`Dataset::bt`].
    matrix_t: Option<Csr<f64>>,
    /// Normalized simple undirected adjacency (symmetric pattern, no
    /// self-loops, unit weights) — the application operand, and its own
    /// transpose: checked (debug builds) where a snapshot is built, relied
    /// on by every `app bc` request.
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
    /// Relabeled triangle-counting operands: built on first use, except
    /// that a seeded snapshot is born with them — patched forward from
    /// its predecessor's, so the seed's counts and this snapshot's stay
    /// row-aligned.
    tc_ops: OnceLock<Arc<TcOperands>>,
    /// Per-row triangle counts of this snapshot (rows as relabeled by
    /// `tc_ops`), written by the first `app tc` that ran against it.
    tc_counts: OnceLock<Arc<[u64]>>,
    /// What an ancestor's counts can still say about this snapshot (rows
    /// as relabeled by `tc_ops`).
    tc_seed: Option<Seed<[u64]>>,
    /// The `mxm` verb's normal-mask product of this snapshot, written by
    /// the first one computed against it — on an updated snapshot only.
    product: OnceLock<Arc<Csr<f64>>>,
    /// What an ancestor's product can still say about this snapshot;
    /// taken by the first normal-mask product computed against it.
    product_seed: Mutex<Option<Seed<Csr<f64>>>>,
}

/// The newest state any ancestor of a snapshot computed, plus the
/// positions to patch it across.
struct Seed<T: ?Sized> {
    /// The ancestor's state.
    base: Arc<T>,
    /// Positions changed between that ancestor and this snapshot.
    changed: Vec<(Idx, Idx)>,
}

impl<T: ?Sized> Seed<T> {
    /// The seed a successor inherits across `changed`: the predecessor's
    /// `own` state if it has one (then `changed` is all that separates it
    /// from the new matrix), else the predecessor's `seed` with `changed`
    /// appended. A seed grown past [`DELTA_LOG_CAP`] is dropped.
    fn carried(
        own: Option<&Arc<T>>,
        seed: Option<&Seed<T>>,
        changed: &[(Idx, Idx)],
    ) -> Option<Seed<T>> {
        let seed = match (own, seed) {
            (Some(base), _) => Seed {
                base: base.clone(),
                changed: changed.to_vec(),
            },
            (None, Some(seed)) => Seed {
                base: seed.base.clone(),
                changed: [&seed.changed, changed].concat(),
            },
            (None, None) => return None,
        };
        (seed.changed.len() <= DELTA_LOG_CAP).then_some(seed)
    }
}

/// One normal-mask product of a snapshot, as the `mxm` verb answers it.
pub(crate) struct Product {
    /// `pattern(A) ⊙ (A·A)`.
    pub csr: Arc<Csr<f64>>,
    /// Wall-clock seconds: the kernel's best run, or the whole patch.
    pub seconds: f64,
    /// Whether the seed's product was patched instead of a kernel run.
    pub incremental: bool,
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
    /// version-0 snapshot with no seed — the disk loader's half; updates
    /// patch these operands forward instead ([`Dataset::rebuilt`]). The
    /// transpose is built once and kept only if it differs from the
    /// matrix by bits ([`distinct_transpose`], the same test `mxm run`
    /// makes before its product).
    fn derive(
        name: String,
        path: String,
        matrix: Csr<f64>,
        ingest: IngestReport,
        loaded_at: Instant,
    ) -> Dataset {
        let matrix_t = distinct_transpose(&matrix, transpose(&matrix));
        let (mut adj, _) = to_adjacency(&matrix);
        if matrix.values_unit_shared() {
            // Pattern-loaded base: the normalized adjacency is all-ones
            // too, so point its value section at the process-wide unit
            // arena instead of keeping nnz private copies of the literal
            // 1.0 (`distinct_transpose` does the same for the transpose).
            adj.share_unit_values();
        }
        debug_assert!(adj == transpose(&adj), "adj must be its own transpose");
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
            product: OnceLock::new(),
            product_seed: Mutex::new(None),
        }
    }

    /// The successor of `prev` carrying an updated matrix: identity (name,
    /// path, load time) is inherited, the version moves on by one, and the
    /// ingest report flips to the heap backend — merged sections are
    /// always heap-owned, so an update copies-on-write away from any mmap
    /// or unit-arena backing (the mapping itself stays untouched and alive
    /// only as long as an in-flight reader still holds the previous
    /// dataset).
    ///
    /// `changed` are the positions the update touched, and they are all
    /// the derived operands are charged for: each is `prev`'s section with
    /// the batch's image merged in, the states read back from `matrix`
    /// (so last-write-wins, overwrites and deletes of absent entries need
    /// no second rule), and the flop count follows from two row pointers.
    ///
    /// Symmetry is carried forward the same way: a symmetric `prev` whose
    /// every changed position ends up equal to its mirror image has a
    /// symmetric successor, decided in `O(batch)` with no transpose built;
    /// otherwise the patched transpose is compared with the matrix once.
    ///
    /// `changed` also extends both seeds (`Seed::carried`): `prev`'s own
    /// counts and product if it has them, else `prev`'s seeds, each
    /// dropped past `DELTA_LOG_CAP` (2¹⁶ positions). A snapshot with
    /// counts or a seed always has built operands, so a seeded successor
    /// gets them patched too — same relabeling, the one the counts align
    /// with.
    pub fn rebuilt(prev: &Dataset, matrix: Csr<f64>, changed: &[(Idx, Idx)]) -> Dataset {
        debug_assert!(!matrix.has_shared_storage(), "rebuilds must be heap-owned");
        let matrix_t = if prev.symmetric() && mirrors_itself(&matrix, changed) {
            None
        } else {
            let patched = transpose_delta(&matrix, changed).merged(prev.bt().view());
            distinct_transpose(&matrix, patched)
        };
        let adj = adjacency_delta(&matrix, changed).merged(prev.adj.view());
        debug_assert!(adj == transpose(&adj), "adj must be its own transpose");
        let tc_seed = Seed::carried(prev.tc_counts.get(), prev.tc_seed.as_ref(), changed);
        let product_seed = Seed::carried(prev.product.get(), prev.product_seed().as_ref(), changed);
        let tc_ops = match &tc_seed {
            Some(_) => {
                let ops = prev.tc_ops.get().expect("counts or a seed imply operands");
                OnceLock::from(Arc::new(ops.patched(&adj, changed)))
            }
            None => OnceLock::new(),
        };
        Dataset {
            name: prev.name.clone(),
            path: prev.path.clone(),
            mxm_flops: 2 * matrix_t
                .as_ref()
                .unwrap_or(&matrix)
                .transposed_flops_with(&matrix),
            ingest: IngestReport {
                backend: MsbBackend::Heap,
                entries: matrix.nnz(),
                ..prev.ingest
            },
            matrix,
            matrix_t,
            adj,
            loaded_at: prev.loaded_at,
            version: prev.version + 1,
            tc_ops,
            tc_counts: OnceLock::new(),
            tc_seed,
            product: OnceLock::new(),
            product_seed: Mutex::new(product_seed),
        }
    }

    /// The product seed, under its lock (recovered from poison: a
    /// panicking product must not wedge the snapshot).
    fn product_seed(&self) -> MutexGuard<'_, Option<Seed<Csr<f64>>>> {
        self.product_seed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// `matrixᵀ` in CSR — the `Bᵀ` of the `mxm` verb. For a symmetric
    /// snapshot this *is* [`Self::matrix`], the same object: the identity
    /// `masked_mxm_with_bt` reads as `A = Aᵀ`.
    pub fn bt(&self) -> &Csr<f64> {
        self.matrix_t.as_ref().unwrap_or(&self.matrix)
    }

    /// Whether the matrix equals its transpose, pattern and values (by
    /// bits) — known since the snapshot was built.
    pub fn symmetric(&self) -> bool {
        self.matrix_t.is_none()
    }

    /// The triangle-counting operands (degree-relabeled `L` and `Lᵀ`),
    /// shared by every `app tc` request against this snapshot. A seeded
    /// snapshot was built with them (see [`Dataset::rebuilt`]); any other
    /// ranks degrees afresh on first use.
    pub fn tc_operands(&self) -> Arc<TcOperands> {
        self.tc_ops
            .get_or_init(|| Arc::new(tricount::prepare(&self.adj)))
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
                let mut counts = seed.base.to_vec();
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

    /// The `mxm` verb's normal-mask product `pattern(A) ⊙ (A·A)`.
    ///
    /// With `patch` set, the first product of a seeded snapshot patches
    /// the seed's ([`Self::patched_product`]); every other one is what
    /// `kernel` computes (its product and seconds). Either way the first
    /// normal-mask product takes the seed — a failed one drops it, and the
    /// next runs the kernel — and, on an updated snapshot, is kept for the
    /// successor's seed. A loaded snapshot keeps nothing, so a dataset that
    /// is never updated holds what its operands hold.
    pub(crate) fn normal_product(
        &self,
        patch: bool,
        phases: Phases,
        opts: &ExecOpts<'_>,
        kernel: impl FnOnce() -> Result<(f64, Csr<f64>), Error>,
    ) -> Result<Product, Error> {
        let seed = self.product_seed().take();
        let out = match seed {
            Some(seed) if patch => {
                let t0 = Instant::now();
                let csr = self.patched_product(&seed, phases, opts)?;
                Product {
                    csr,
                    seconds: t0.elapsed().as_secs_f64(),
                    incremental: true,
                }
            }
            _ => {
                let (seconds, csr) = kernel()?;
                Product {
                    csr: Arc::new(csr),
                    seconds,
                    incremental: false,
                }
            }
        };
        if self.version > 0 {
            // A concurrent first product may have landed already: the
            // same bits, so either copy will do.
            let _ = self.product.set(out.csr.clone());
        }
        Ok(out)
    }

    /// This snapshot's product, patched from `seed`'s. Only the entries
    /// the changed positions can reach ([`affected_entries`]) are
    /// recomputed, by one product masked to those the matrix stores; each
    /// becomes an upsert where that product emitted it and a delete where
    /// it did not, merged into the seed's product. Every other entry
    /// keeps its mask bit and its terms, in the same order, so the result
    /// equals a fresh product by bits.
    fn patched_product(
        &self,
        seed: &Seed<Csr<f64>>,
        phases: Phases,
        opts: &ExecOpts<'_>,
    ) -> Result<Arc<Csr<f64>>, Error> {
        let a = &self.matrix;
        let entries = affected_entries(a, self.bt(), &seed.changed);
        if entries.is_empty() {
            return Ok(seed.base.clone());
        }
        let stored: Vec<(Idx, Idx)> = entries
            .iter()
            .copied()
            .filter(|&(i, j)| a.get(i as usize, j).is_some())
            .collect();
        let recomputed = masked_mxm_with_bt::<PlusTimesF64, ()>(
            &pattern_at(a.nrows(), a.ncols(), &stored),
            a,
            a,
            Some(self.bt()),
            Algorithm::Auto,
            MaskMode::Mask,
            phases,
            opts,
        )?;
        let mut delta = Overlay::new(a.nrows(), a.ncols());
        for &(i, j) in &entries {
            delta.set(i, j, recomputed.get(i as usize, j).copied());
        }
        Ok(Arc::new(delta.merged(seed.base.view())))
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
        // (counts shared with ancestors no entry retains, so counted
        // here). The product and its seed count the same way.
        let mut vectors = 0;
        let mut total = f(&self.matrix.storage_report()) + f(&self.adj.storage_report());
        if let Some(t) = &self.matrix_t {
            total += f(&t.storage_report());
        }
        if let Some(ops) = self.tc_ops.get() {
            total += f(&ops.l.storage_report()) + f(&ops.lt.storage_report());
            vectors += size_of_val(ops.perm.as_slice());
        }
        if let Some(counts) = self.tc_counts.get() {
            vectors += size_of_val(&counts[..]);
        }
        if let Some(seed) = &self.tc_seed {
            vectors += size_of_val(&seed.base[..]) + size_of_val(seed.changed.as_slice());
        }
        if let Some(product) = self.product.get() {
            total += f(&product.storage_report());
        }
        if let Some(seed) = self.product_seed().as_ref() {
            total += f(&seed.base.storage_report());
            vectors += size_of_val(seed.changed.as_slice());
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

/// Whether every position in `changed` now holds what its mirror image
/// holds — which keeps a matrix that was symmetric before the batch
/// symmetric after it.
fn mirrors_itself(matrix: &Csr<f64>, changed: &[(Idx, Idx)]) -> bool {
    let bits = |i: Idx, j: Idx| matrix.get(i as usize, j).map(|v| v.to_bits());
    changed.iter().all(|&(i, j)| bits(i, j) == bits(j, i))
}

/// The entries of `pattern(A) ⊙ (A·A)` that `changed` positions of `a`
/// can have moved, sorted and deduplicated; `at` is `aᵀ`. With `P` the
/// changed positions, they are `P` itself (mask bits) plus, for each
/// `(i, k) ∈ P`:
///
/// * `(i, j)` for `j ∈ A[i,:] ∩ (A[k,:] ∪ P[k,:])` — the terms
///   `A(i,k)·A(k,j)`;
/// * `(r, k)` for `r ∈ Aᵀ[k,:] ∩ (Aᵀ[i,:] ∪ Pᵀ[i,:])` — the terms
///   `A(r,i)·A(i,k)`.
///
/// `A` is the matrix after the change; a term that existed only before
/// it has a changed factor, which `P[k,:]` / `Pᵀ[i,:]` cover. Any other
/// entry keeps its mask bit and every one of its terms. No symmetry is
/// assumed.
fn affected_entries(a: &Csr<f64>, at: &Csr<f64>, changed: &[(Idx, Idx)]) -> Vec<(Idx, Idx)> {
    let mut p = changed.to_vec();
    p.sort_unstable();
    p.dedup();
    let mut pt: Vec<(Idx, Idx)> = p.iter().map(|&(i, j)| (j, i)).collect();
    pt.sort_unstable();
    let mut entries = p.clone();
    for &(i, k) in &p {
        let (iu, ku) = (i as usize, k as usize);
        intersect(a.row_cols(iu), a.row_cols(ku), |j| entries.push((i, j)));
        for j in row_of(&p, k).filter(|&j| a.get(iu, j).is_some()) {
            entries.push((i, j));
        }
        intersect(at.row_cols(ku), at.row_cols(iu), |r| entries.push((r, k)));
        for r in row_of(&pt, i).filter(|&r| a.get(r as usize, k).is_some()) {
            entries.push((r, k));
        }
    }
    entries.sort_unstable();
    entries.dedup();
    entries
}

/// Calls `hit` with every index both sorted slices hold.
fn intersect(x: &[Idx], y: &[Idx], mut hit: impl FnMut(Idx)) {
    let (mut p, mut q) = (0, 0);
    while p < x.len() && q < y.len() {
        match x[p].cmp(&y[q]) {
            Ordering::Less => p += 1,
            Ordering::Greater => q += 1,
            Ordering::Equal => {
                hit(x[p]);
                (p, q) = (p + 1, q + 1);
            }
        }
    }
}

/// The columns of row `r` in a sorted position list.
fn row_of(sorted: &[(Idx, Idx)], r: Idx) -> impl Iterator<Item = Idx> + '_ {
    let lo = sorted.partition_point(|&(i, _)| i < r);
    sorted[lo..]
        .iter()
        .take_while(move |&&(i, _)| i == r)
        .map(|&(_, j)| j)
}

/// The `nrows × ncols` pattern holding exactly the sorted, deduplicated
/// `positions` — built directly, since `Coo::to_csr` sorts its rows on
/// the thread pool, a wake-up a mask this small does not need.
fn pattern_at(nrows: usize, ncols: usize, positions: &[(Idx, Idx)]) -> Csr<()> {
    let mut rowptr = vec![0usize; nrows + 1];
    for &(i, _) in positions {
        rowptr[i as usize + 1] += 1;
    }
    for i in 0..nrows {
        rowptr[i + 1] += rowptr[i];
    }
    let colidx = positions.iter().map(|&(_, j)| j).collect();
    let values = vec![(); positions.len()];
    Csr::from_parts_unchecked(nrows, ncols, rowptr, colidx, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_io::{same_bits, CachePolicy};
    use mspgemm_sparse::DeltaOp;
    use proptest::prelude::*;

    const SCHEME: Scheme = Scheme::Ours(Algorithm::Msa, Phases::One);
    const N: usize = 14;

    fn count(ds: &Dataset) -> TcAnswer {
        ds.triangle_count(SCHEME, &ExecOpts::default())
    }

    /// A fresh `auto` product of `ds`'s matrix, as the `mxm` verb runs it.
    fn fresh(ds: &Dataset) -> Csr<f64> {
        let m = &ds.matrix;
        masked_mxm_with_bt::<PlusTimesF64, f64>(
            m,
            m,
            m,
            Some(ds.bt()),
            Algorithm::Auto,
            MaskMode::Mask,
            Phases::One,
            &ExecOpts::default(),
        )
        .unwrap()
    }

    /// One default `mxm` against `ds`: a patch where it is seeded, else
    /// [`fresh`].
    fn product(ds: &Dataset) -> Product {
        let kernel = || Ok((0.0, fresh(ds)));
        ds.normal_product(true, Phases::One, &ExecOpts::default(), kernel)
            .unwrap()
    }

    /// One default `mxm` landed on `ds`: patched exactly when `ds` was
    /// seeded, equal to a fresh product by bits, and kept on an updated
    /// snapshot only.
    fn land(ds: &Dataset) -> Result<Product, TestCaseError> {
        let seeded = ds.product_seed().is_some();
        let got = product(ds);
        prop_assert_eq!(got.incremental, seeded);
        prop_assert!(same_bits(&got.csr, &fresh(ds)));
        prop_assert!(ds.product_seed().is_none(), "the seed is single-use");
        prop_assert_eq!(ds.product.get().is_some(), ds.version > 0);
        Ok(got)
    }

    /// `ds`'s patched product checked against a fresh one, by bits,
    /// leaving the seed in place.
    fn check_seed(ds: &Dataset) -> Result<(), TestCaseError> {
        if let Some(seed) = ds.product_seed().as_ref() {
            let patched = ds
                .patched_product(seed, Phases::One, &ExecOpts::default())
                .unwrap();
            let want = fresh(ds);
            prop_assert!(
                same_bits(&patched, &want),
                "patched {patched:?} != fresh {want:?} across {:?}",
                seed.changed
            );
        }
        Ok(())
    }

    /// A directed, valued base with self-loops and one-way edges.
    fn base_strategy() -> impl Strategy<Value = Csr<f64>> {
        proptest::collection::vec(
            proptest::collection::vec(proptest::option::weighted(0.25, 1i32..=9), N),
            N,
        )
        .prop_map(|d| {
            let dd: Vec<Vec<Option<f64>>> = d
                .into_iter()
                .map(|r| r.into_iter().map(|c| c.map(f64::from)).collect())
                .collect();
            Csr::from_dense(&dd, N)
        })
    }

    fn next(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        s.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn upsert((row, col): (Idx, Idx), val: f64) -> DeltaOp<f64> {
        DeltaOp::Upsert { row, col, val }
    }

    fn delete((row, col): (Idx, Idx)) -> DeltaOp<f64> {
        DeltaOp::Delete { row, col }
    }

    /// One batch of 1–6 random ops plus, by `kind`, one of the shapes the
    /// position maps must get right on their own.
    fn batch(s: &mut u64, live: &Csr<f64>) -> Vec<DeltaOp<f64>> {
        let pos = |s: &mut u64| {
            let r = next(s);
            (((r >> 8) % N as u64) as Idx, ((r >> 24) % N as u64) as Idx)
        };
        let stored = |s: &mut u64| {
            let k = next(s) as usize % live.nnz().max(1);
            live.iter().nth(k).map(|(i, j, _)| (i as Idx, j))
        };
        let mut ops: Vec<DeltaOp<f64>> = (0..1 + next(s) % 6)
            .map(|_| match next(s) % 5 {
                0 | 1 => delete(pos(s)),
                r => upsert(pos(s), r as f64),
            })
            .collect();
        match (next(s) % 6, stored(s)) {
            // Overwrite a stored entry: only values move.
            (0, Some(at)) => ops.push(upsert(at, -7.0)),
            // One orientation of a stored edge goes; the other may stay.
            (1, Some(at)) => ops.push(delete(at)),
            // The same position twice, and an upsert the batch takes back.
            (2, _) => {
                let (twice, undone) = (pos(s), pos(s));
                ops.extend([upsert(twice, 2.0), upsert(twice, 3.0)]);
                ops.extend([upsert(undone, 4.0), delete(undone)]);
            }
            // A self-loop comes or goes.
            (3, _) => {
                let (i, _) = pos(s);
                ops.push(if next(s).is_multiple_of(2) {
                    upsert((i, i), 5.0)
                } else {
                    delete((i, i))
                });
            }
            // A whole undirected edge arrives.
            (4, _) => {
                let (i, j) = pos(s);
                ops.extend([upsert((i, j), 1.0), upsert((j, i), 1.0)]);
            }
            // Every op lands above the diagonal and arrives with its mirror
            // image: a symmetric matrix stays symmetric, and no transpose
            // is built to find that out.
            (5, _) => {
                let at = |(i, j): (Idx, Idx), flip: bool| match flip {
                    true => (i.max(j), i.min(j)),
                    false => (i.min(j), i.max(j)),
                };
                let side = |flip: bool| {
                    let ops = ops.iter().map(move |op| match *op {
                        DeltaOp::Upsert { row, col, val } => upsert(at((row, col), flip), val),
                        DeltaOp::Delete { row, col } => delete(at((row, col), flip)),
                    });
                    ops.collect::<Vec<_>>()
                };
                ops = [side(false), side(true)].concat();
            }
            _ => {}
        }
        ops
    }

    /// `prev`'s successor under `ops`, built the way `Registry::update`
    /// builds it.
    fn updated(prev: &Dataset, ops: &[DeltaOp<f64>]) -> Dataset {
        let n = prev.matrix.nrows();
        let mut overlay = Overlay::new(n, n);
        overlay.apply_batch(ops).unwrap();
        let changed: Vec<(Idx, Idx)> = ops.iter().map(DeltaOp::key).collect();
        Dataset::rebuilt(prev, overlay.merged(prev.matrix.view()), &changed)
    }

    /// `a == b` section by section, and `a` owns its storage.
    fn assert_section<T: PartialEq + std::fmt::Debug>(
        what: &str,
        a: &Csr<T>,
        b: &Csr<T>,
    ) -> Result<(), TestCaseError> {
        prop_assert!(a == b, "{what}: patched {a:?} != derived {b:?}");
        prop_assert!(!a.has_shared_storage(), "{what} must be heap-owned");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Folded batch by batch, every section of the patched successor
        /// equals what `derive` / `prepare_with_perm` build from the
        /// merged matrix — over a heap, an mmap and a unit-arena base,
        /// with `app tc` landing on some snapshots and not others so all
        /// three seed arms of `rebuilt` carry operands forward. `mxm`
        /// lands the same way, so product seeds span one batch or
        /// several, and every seeded successor's patch equals a fresh
        /// product by bits.
        #[test]
        fn patched_sections_equal_derive(
            base in base_strategy(),
            seed in 0u64..1_000_000,
            nbatches in 2usize..9,
        ) {
            // Every other case starts symmetric (the upper triangle
            // mirrored), so the snapshots that store no transpose and the
            // batches that keep or break that are walked too.
            let base = if seed % 2 == 0 {
                let d = base.to_dense();
                let cell = |i: usize, j: usize| d[i.min(j)][i.max(j)];
                let dd: Vec<Vec<_>> = (0..N).map(|i| (0..N).map(|j| cell(i, j)).collect()).collect();
                Csr::from_dense(&dd, N)
            } else {
                base
            };
            let dir = std::env::temp_dir().join("mspgemm_serve_patch");
            std::fs::create_dir_all(&dir).unwrap();
            let (mtx, msb) = (dir.join("b.mtx"), dir.join("b.msb"));
            mspgemm_io::mtx::write_mtx_file(&mtx, &base).unwrap();
            mspgemm_io::write_msb_file(&msb, &base).unwrap();
            let off = LoadOpts { policy: CachePolicy::Off, ..LoadOpts::default() };
            let lanes = [
                (&mtx, off),
                (&msb, LoadOpts { mmap: true, ..off }),
                (&mtx, LoadOpts { pattern: true, ..off }),
            ];
            for (lane, (path, opts)) in lanes.into_iter().enumerate() {
                let mut s = (seed + lane as u64) | 1;
                let mut ds = Dataset::load(path.to_str().unwrap(), Some("p"), &opts).unwrap();
                prop_assert_eq!(ds.pattern(), opts.pattern);
                if cfg!(all(target_endian = "little", target_pointer_width = "64")) {
                    prop_assert_eq!(ds.matrix.has_shared_storage(), opts.mmap || opts.pattern);
                }
                for _ in 0..nbatches {
                    if !next(&mut s).is_multiple_of(3) {
                        count(&ds);
                    }
                    if next(&mut s).is_multiple_of(2) {
                        land(&ds)?;
                    }
                    let next_ds = updated(&ds, &batch(&mut s, &ds.matrix));
                    check_seed(&next_ds)?;
                    let want = Dataset::derive(
                        ds.name.clone(),
                        ds.path.clone(),
                        next_ds.matrix.clone(),
                        ds.ingest,
                        ds.loaded_at,
                    );
                    prop_assert_eq!(next_ds.symmetric(), want.symmetric());
                    prop_assert_eq!(next_ds.symmetric(), next_ds.matrix == transpose(&next_ds.matrix));
                    if let (Some(t), Some(want_t)) = (&next_ds.matrix_t, &want.matrix_t) {
                        assert_section("matrix_t", t, want_t)?;
                    }
                    assert_section("adj", &next_ds.adj, &want.adj)?;
                    prop_assert_eq!(next_ds.mxm_flops, want.mxm_flops);
                    match (&next_ds.tc_seed, next_ds.tc_ops.get()) {
                        (Some(_), Some(ops)) => {
                            let fresh = tricount::prepare_with_perm(&want.adj, ops.perm.clone());
                            assert_section("L", &ops.l, &fresh.l)?;
                            assert_section("Lt", &ops.lt, &fresh.lt)?;
                            prop_assert_eq!(ops.flops, fresh.flops);
                            prop_assert_eq!(&ops.perm, &ds.tc_operands().perm);
                        }
                        (None, None) => {}
                        (seed, ops) => prop_assert!(
                            false,
                            "seed {} but operands {}",
                            seed.is_some(),
                            ops.is_some()
                        ),
                    }
                    ds = next_ds;
                }
                land(&ds)?;
                prop_assert_eq!(count(&ds).triangles, count(&Dataset::derive(
                    ds.name.clone(),
                    ds.path.clone(),
                    ds.matrix.clone(),
                    ds.ingest,
                    ds.loaded_at,
                )).triangles);
            }
        }
    }

    /// A snapshot stores a transpose exactly while its matrix differs from
    /// it, and `bt()` is the matrix itself — the same object — otherwise.
    #[test]
    fn symmetry_is_carried_by_identity_across_updates() {
        let dir = std::env::temp_dir().join("mspgemm_serve_patch");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("sym.mtx");
        mspgemm_io::mtx::write_mtx_file(&mtx, &mspgemm_gen::er_symmetric(60, 6, 3)).unwrap();
        let off = LoadOpts {
            policy: CachePolicy::Off,
            ..LoadOpts::default()
        };
        let own_transpose = |ds: &Dataset| {
            assert_eq!(ds.bt(), &transpose(&ds.matrix));
            assert_eq!(ds.symmetric(), std::ptr::eq(ds.bt(), &ds.matrix));
            ds.symmetric()
        };
        let v0 = Dataset::load(mtx.to_str().unwrap(), None, &off).unwrap();
        assert!(own_transpose(&v0));
        let held = v0.mem_bytes();
        // One direction of a new edge: the transpose has to be stored.
        let v1 = updated(&v0, &[upsert((3, 40), 1.0)]);
        assert!(!own_transpose(&v1));
        assert!(v1.mem_bytes() > held + 8 * v0.matrix.nnz() as u64);
        // The other direction with another value: still not symmetric.
        let v2 = updated(&v1, &[upsert((40, 3), 2.0)]);
        assert!(!own_transpose(&v2));
        // Equal values restore it, and the stored transpose goes.
        let v3 = updated(&v2, &[upsert((40, 3), 1.0)]);
        assert!(own_transpose(&v3));
        assert!(v3.mem_bytes() < v2.mem_bytes() - 8 * v0.matrix.nnz() as u64);
        // A batch that mirrors itself keeps it; -0.0 is not 0.0.
        let v4 = updated(
            &v3,
            &[delete((3, 40)), delete((40, 3)), upsert((7, 7), 5.0)],
        );
        assert!(own_transpose(&v4));
        let v5 = updated(&v4, &[upsert((1, 2), 0.0), upsert((2, 1), -0.0)]);
        assert!(!own_transpose(&v5));
        assert_eq!(v5.matrix, transpose(&v5.matrix), "equal by ==, not by bits");
    }

    /// The warm path of an update → `app tc` pair never ranks or relabels
    /// the adjacency again: the successor is born with its operands, so
    /// no `tc-relabel` span opens on this thread after the first count.
    #[test]
    fn seeded_successors_never_prepare() {
        let dir = std::env::temp_dir().join("mspgemm_serve_patch");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("warm.mtx");
        mspgemm_io::mtx::write_mtx_file(&mtx, &mspgemm_gen::er_symmetric(60, 6, 3)).unwrap();
        let off = LoadOpts {
            policy: CachePolicy::Off,
            ..LoadOpts::default()
        };
        let v0 = Dataset::load(mtx.to_str().unwrap(), None, &off).unwrap();
        let tracer = mspgemm_obs::trace::global();
        tracer.set_enabled(true);
        let relabels = || {
            let here = mspgemm_obs::thread_index();
            let events = tracer.drain();
            let mine = events.iter().filter(|e| e.tid == here);
            mine.filter(|e| e.name == "tc-relabel").count()
        };
        count(&v0);
        assert_eq!(relabels(), 1, "the load path ranks degrees once");

        // Counted predecessor, then an uncounted one: both seed arms.
        let v1 = updated(&v0, &[upsert((3, 40), 1.0), upsert((40, 3), 1.0)]);
        let v2 = updated(&v1, &[delete((3, 40)), delete((40, 3))]);
        assert!(count(&v2).patched_rows.is_some());
        let v3 = updated(&v2, &[upsert((5, 6), 2.0)]);
        assert!(count(&v3).patched_rows.is_some());
        assert_eq!(relabels(), 0, "updates carry the operands forward");
        tracer.set_enabled(false);
    }

    /// A loaded 5-vertex undirected graph: the triangle {0, 1, 2} plus
    /// the edges 1–3, 2–3, 3–4 and 0–4, so the product entry (1, 2) sums
    /// a term through 0 and one through 3.
    fn triangle_graph(tag: &str) -> Dataset {
        let mut d = vec![vec![None; 5]; 5];
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4), (0, 4)] {
            (d[u][v], d[v][u]) = (Some(1.0), Some(1.0));
        }
        let dir = std::env::temp_dir().join("mspgemm_serve_patch");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join(format!("{tag}.mtx"));
        mspgemm_io::mtx::write_mtx_file(&mtx, &Csr::from_dense(&d, 5)).unwrap();
        let off = LoadOpts {
            policy: CachePolicy::Off,
            ..LoadOpts::default()
        };
        Dataset::load(mtx.to_str().unwrap(), None, &off).unwrap()
    }

    /// An updated snapshot of [`triangle_graph`] (an overwrite of 3–4
    /// with its own value) holding its product, entry (1, 2) = 2.
    fn kept_product(tag: &str) -> (Dataset, Product) {
        let v0 = triangle_graph(tag);
        let v1 = updated(&v0, &[upsert((3, 4), 1.0), upsert((4, 3), 1.0)]);
        let kept = product(&v1);
        assert!(!kept.incremental, "v0 keeps no product to seed from");
        assert_eq!(kept.csr.get(1, 2), Some(&2.0));
        (v1, kept)
    }

    const TRIANGLE_EDGES: [(Idx, Idx); 4] = [(0, 1), (1, 0), (0, 2), (2, 0)];

    /// One batch deletes two edges of the triangle. In the new matrix 0
    /// links neither 1 nor 2, so only the changed positions themselves
    /// (`P[k,:]` / `Pᵀ[i,:]`) reach (1, 2), whose term through 0 is gone.
    #[test]
    fn one_batch_deleting_two_triangle_edges_patches_the_third() {
        let (v1, _) = kept_product("tri_one");
        let v2 = updated(&v1, &TRIANGLE_EDGES.map(delete));
        let reach = affected_entries(&v2.matrix, v2.bt(), &TRIANGLE_EDGES);
        assert!(
            reach.contains(&(1, 2)) && reach.contains(&(2, 1)),
            "{reach:?}"
        );
        let patched = product(&v2);
        assert!(patched.incremental);
        assert_eq!(patched.csr.get(1, 2), Some(&1.0));
        assert!(same_bits(&patched.csr, &fresh(&v2)));
    }

    /// The same deletions in two batches with no product between them:
    /// the second successor patches the first's seed across both.
    #[test]
    fn two_batches_deleting_two_triangle_edges_patch_across_both() {
        let (v1, _) = kept_product("tri_two");
        let ops = TRIANGLE_EDGES.map(delete);
        let v2 = updated(&v1, &ops[..2]);
        let v3 = updated(&v2, &ops[2..]);
        let logged = v3.product_seed().as_ref().map(|seed| seed.changed.clone());
        assert_eq!(logged.as_deref(), Some(&TRIANGLE_EDGES[..]));
        let patched = product(&v3);
        assert!(patched.incremental);
        assert_eq!(patched.csr.get(1, 2), Some(&1.0));
        assert!(same_bits(&patched.csr, &fresh(&v3)));
    }

    /// An op-free `compact` changes no position: its successor's patch
    /// recomputes nothing and keeps the seed's product itself.
    #[test]
    fn op_free_successor_patches_nothing() {
        let (v1, kept) = kept_product("tri_compact");
        let v2 = updated(&v1, &[]);
        let patched = product(&v2);
        assert!(patched.incremental);
        assert!(Arc::ptr_eq(&patched.csr, &kept.csr));
        assert!(Arc::ptr_eq(v2.product.get().unwrap(), &kept.csr));
    }

    /// A loaded snapshot keeps no product, however many it computes. An
    /// updated one keeps its first, and its successor holds that one (as
    /// the seed, shared) until it holds its own — never two.
    #[test]
    fn products_are_resident_on_updated_snapshots_only() {
        let dir = std::env::temp_dir().join("mspgemm_serve_patch");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("resident.mtx");
        mspgemm_io::mtx::write_mtx_file(&mtx, &mspgemm_gen::er_symmetric(60, 6, 3)).unwrap();
        let off = LoadOpts {
            policy: CachePolicy::Off,
            ..LoadOpts::default()
        };
        let v0 = Dataset::load(mtx.to_str().unwrap(), None, &off).unwrap();
        let loaded = v0.mem_bytes();
        for _ in 0..3 {
            assert!(!product(&v0).incremental);
            assert_eq!(v0.mem_bytes(), loaded);
        }
        // Overwrites of one stored edge, both orientations: every section
        // keeps its size, and the matrix its symmetry.
        let (i, j, _) = v0.matrix.iter().find(|&(i, j, _)| i != j as usize).unwrap();
        let overwrite = |val| [upsert((i as Idx, j), val), upsert((j, i as Idx), val)];
        let bytes = |c: &Csr<f64>| c.storage_report().heap_bytes as u64;

        let v1 = updated(&v0, &overwrite(3.0));
        let bare = v1.mem_bytes();
        let first = product(&v1);
        assert_eq!(v1.mem_bytes(), bare + bytes(&first.csr));
        product(&v1);
        assert_eq!(v1.mem_bytes(), bare + bytes(&first.csr), "written once");

        let v2 = updated(&v1, &overwrite(4.0));
        assert_eq!(
            v2.mem_bytes(),
            bare + bytes(&first.csr) + 16,
            "seeded, not doubled"
        );
        let patched = product(&v2);
        assert!(patched.incremental);
        assert_eq!(
            v2.mem_bytes(),
            bare + bytes(&patched.csr),
            "the seed is gone"
        );
        assert_eq!(bytes(&patched.csr), bytes(&first.csr));
    }
}
