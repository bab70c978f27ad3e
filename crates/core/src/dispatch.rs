//! Public entry point: algorithm / mask-mode / phase selection and
//! validation, plus `Auto`: the push/pull direction decided per product
//! from counted work (§4.3's argument, evaluated instead of assumed), the
//! accumulator by the paper's Fig 7 / §8.1 shape rules.

use crate::algos::hash::HashKernel;
use crate::algos::heap::HeapKernel;
use crate::algos::inner::InnerKernel;
use crate::algos::mca::McaKernel;
use crate::algos::msa::MsaKernel;
use crate::phases::{
    driven_flops, driven_row_flops, masked_out, needs_row_flops, run_kernel, Phases,
};
use crate::schedule::{AutoChoice, ExecOpts};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::{transpose, Csr};
use rayon::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

/// Which Masked SpGEMM algorithm to run (§8's scheme names).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Masked sparse accumulator (§5.2) — dense states/values arrays.
    Msa,
    /// Hash accumulator (§5.3) — open addressing, load factor 0.25.
    Hash,
    /// Mask-compressed accumulator (§5.4) — `nnz(m_i)`-sized arrays.
    Mca,
    /// Multiway-merge heap with `NInspect = 1` (§5.5).
    Heap,
    /// Multiway-merge heap with `NInspect = ∞` (§5.5, `HeapDot`).
    HeapDot,
    /// Pull-based dot products (§4.1). Transposes `B` internally unless
    /// [`masked_mxm_with_bt`] is handed a `Bᵀ`.
    Inner,
    /// Pick once for the whole call: the cheaper direction by counted
    /// work (push products vs pull probes, see [`DirectionWork`]), then —
    /// when push it is — the accumulator by input shape.
    Auto,
}

impl Algorithm {
    /// All concrete (non-`Auto`) algorithms, in the paper's listing order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Msa,
        Algorithm::Hash,
        Algorithm::Mca,
        Algorithm::Heap,
        Algorithm::HeapDot,
        Algorithm::Inner,
    ];

    /// The scheme name as it appears in the paper's plots.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Msa => "MSA",
            Algorithm::Hash => "Hash",
            Algorithm::Mca => "MCA",
            Algorithm::Heap => "Heap",
            Algorithm::HeapDot => "HeapDot",
            Algorithm::Inner => "Inner",
            Algorithm::Auto => "Auto",
        }
    }

    /// Whether the algorithm supports complemented masks (§8.4: MCA does
    /// not).
    pub fn supports_complement(&self) -> bool {
        !matches!(self, Algorithm::Mca)
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Parse a scheme name as the CLI spells it (case-insensitive):
    /// `msa`, `hash`, `mca`, `heap`, `heapdot`, `inner`, `auto`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "msa" => Ok(Algorithm::Msa),
            "hash" => Ok(Algorithm::Hash),
            "mca" => Ok(Algorithm::Mca),
            "heap" => Ok(Algorithm::Heap),
            "heapdot" | "heap-dot" => Ok(Algorithm::HeapDot),
            "inner" | "dot" => Ok(Algorithm::Inner),
            "auto" => Ok(Algorithm::Auto),
            other => Err(format!(
                "unknown algorithm '{other}' (expected msa|hash|mca|heap|heapdot|inner|auto)"
            )),
        }
    }
}

/// Structural mask interpretation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaskMode {
    /// `C = M ⊙ (A·B)` — keep coordinates present in the mask.
    Mask,
    /// `C = ¬M ⊙ (A·B)` — keep coordinates absent from the mask.
    Complement,
}

impl std::str::FromStr for MaskMode {
    type Err = String;

    /// Parse a mask mode (case-insensitive): `normal`/`mask` or
    /// `complement`/`c`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "normal" | "mask" | "m" => Ok(MaskMode::Mask),
            "complement" | "complemented" | "c" => Ok(MaskMode::Complement),
            other => Err(format!(
                "unknown mask mode '{other}' (expected normal|complement)"
            )),
        }
    }
}

/// Errors reported by the dispatcher.
#[derive(Debug, PartialEq, Eq)]
pub enum Error {
    /// Operand shapes are incompatible.
    DimensionMismatch(String),
    /// The requested combination is not defined by the paper.
    Unsupported(&'static str),
    /// [`ExecOpts::deadline`] passed at a phase boundary; the product was
    /// abandoned before its next pass (see [`crate::phases::run_kernel`]).
    DeadlineExceeded,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::DimensionMismatch(s) => write!(f, "dimension mismatch: {s}"),
            Error::Unsupported(s) => write!(f, "unsupported: {s}"),
            Error::DeadlineExceeded => write!(f, "deadline exceeded before the numeric phase"),
        }
    }
}

impl std::error::Error for Error {}

fn check_dims<S: Semiring, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    bt: Option<&Csr<S::Right>>,
) -> Result<(), Error> {
    let show = |(rows, cols): (usize, usize)| format!("{rows}x{cols}");
    let (am, ak) = (a.nrows(), a.ncols());
    let (bk, bn) = (b.nrows(), b.ncols());
    let mask = (mask.nrows(), mask.ncols());
    let bad = if ak != bk {
        format!("A is {} but B is {}", show((am, ak)), show((bk, bn)))
    } else if mask != (am, bn) {
        format!("mask is {} but A·B is {}", show(mask), show((am, bn)))
    } else if let Some(bt) = bt.filter(|bt| (bt.nrows(), bt.ncols()) != (bn, bk)) {
        // The pull kernel indexes `bt` by output column and its column
        // ids by `A`'s: any other shape would be read out of bounds.
        let bt = show((bt.nrows(), bt.ncols()));
        format!("B is {} but the supplied Bᵀ is {bt}", show((bk, bn)))
    } else {
        return Ok(());
    };
    Err(Error::DimensionMismatch(bad))
}

/// Masked SpGEMM: `C = M ⊙ (A·B)` (or `¬M ⊙ (A·B)`) on semiring `S`, under
/// `opts` — row schedule, workspace pool, busy-time stats, deadline (see
/// [`crate::schedule`]; `&ExecOpts::default()` for a one-shot call).
///
/// The mask is structural — its values are never read (§2). When
/// [`Algorithm::Inner`] runs, `B` is transposed inside this call; use
/// [`masked_mxm_with_bt`] to amortize a precomputed `Bᵀ`.
///
/// # Errors
/// [`Error::DimensionMismatch`] for incompatible shapes,
/// [`Error::Unsupported`] for MCA with a complemented mask,
/// [`Error::DeadlineExceeded`] for a deadline passed at a phase boundary.
pub fn masked_mxm_with_opts<S, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    algo: Algorithm,
    mode: MaskMode,
    phases: Phases,
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    M: Send + Sync,
{
    masked_mxm_with_bt::<S, M>(mask, a, b, None, algo, mode, phases, opts)
}

/// [`masked_mxm_with_opts`] with an optional caller-provided `bt = Bᵀ`
/// (`B` in CSC) — the one implementation behind every masked product.
/// The pull kernel reads `bt` whenever it runs (named, or picked by
/// [`Algorithm::Auto`]) instead of transposing `B`, so applications
/// amortize the transpose across calls (the paper notes SuiteSparse's
/// per-call transpose as an overhead of `SS:DOT`, §8.4); the push kernels
/// ignore it. Its shape is checked; its values are trusted to be `B`'s.
#[allow(clippy::too_many_arguments)]
pub fn masked_mxm_with_bt<S, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    bt: Option<&Csr<S::Right>>,
    algo: Algorithm,
    mode: MaskMode,
    phases: Phases,
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    M: Send + Sync,
{
    check_dims::<S, M>(mask, a, b, bt)?;
    let complement = mode == MaskMode::Complement;
    if complement && !algo.supports_complement() {
        return Err(Error::Unsupported(
            "MCA does not support complemented masks (paper §8.4)",
        ));
    }
    // Per-row flops `Auto` counted on the driver's behalf, if it needs them.
    let mut row_flops = None;
    let algo = match algo {
        Algorithm::Auto => {
            let _span = mspgemm_obs::span("auto-select");
            let keep = needs_row_flops(opts.schedule, phases, complement);
            let (flops, work) = direction_work(mask, a, b, bt, complement, keep);
            row_flops = flops;
            let algo = auto_select(mask, a, b, complement, work);
            if let Some(stats) = opts.stats {
                stats.record_auto(AutoChoice { algo, work });
            }
            algo
        }
        other => other,
    };
    warm_gather_stream(a, b);
    match algo {
        Algorithm::Msa => run_kernel::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &MsaKernel { complement },
            row_flops,
            opts,
        ),
        Algorithm::Hash => run_kernel::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &HashKernel { complement },
            row_flops,
            opts,
        ),
        Algorithm::Mca => {
            run_kernel::<S, _, M>(mask, a, b, complement, phases, &McaKernel, row_flops, opts)
        }
        Algorithm::Heap => run_kernel::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &HeapKernel::heap(complement),
            row_flops,
            opts,
        ),
        Algorithm::HeapDot => run_kernel::<S, _, M>(
            mask,
            a,
            b,
            complement,
            phases,
            &HeapKernel::heap_dot(complement),
            row_flops,
            opts,
        ),
        Algorithm::Inner => {
            let transposed;
            let bt = match bt {
                Some(bt) => bt,
                None => {
                    let _span = mspgemm_obs::span("transpose");
                    transposed = transpose(b);
                    &transposed
                }
            };
            let kernel = InnerKernel::new(bt.view(), complement);
            run_kernel::<S, _, M>(mask, a, b, complement, phases, &kernel, row_flops, opts)
        }
        Algorithm::Auto => unreachable!("Auto resolved above"),
    }
}

/// Prime the head of the push kernels' B-row gather stream: the first
/// rows of `B` that row 0 of `A` will fetch are known before any kernel
/// runs, so their rowptr entries are prefetched here while the executor
/// pool spins up. The per-iteration prefetches inside the kernels
/// ([`crate::phases::RowCtx::prefetch_ahead`]) take over from there.
fn warm_gather_stream<L, R>(a: &Csr<L>, b: &Csr<R>) {
    if a.nrows() == 0 || !crate::simd::PREFETCH {
        return;
    }
    let bv = b.view();
    for &k in a.view().row_cols(0).iter().take(8) {
        crate::simd::prefetch_b_rowptr(&bv, k as usize);
    }
}

/// The work one product costs in each direction, counted before it runs
/// over the rows the driver will not skip (a normal mask's empty rows).
/// The cheaper side is exact; the other may have stopped counting once it
/// could no longer win, and is then a lower bound past that point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirectionWork {
    /// Products a push kernel forms: `Σ_i flops_i`, `flops_i = Σ_{A_ik≠0}
    /// nnz(B_k*)` — whatever the mask then discards.
    pub push: u64,
    /// Probes the pull kernel makes: `Σ_i (|A_i| + Σ_{j candidate}
    /// |Bᵀ_j|)` over the rows with a nonempty `A_i` — the candidates being
    /// the mask row's columns, or every other column under a complemented
    /// mask — plus [`TRANSPOSE_PROBES_PER_ENTRY`]` · nnz(B)` for the
    /// transpose when no `Bᵀ` was supplied.
    pub pull: u64,
}

/// What one pull probe costs in push products: pull runs when
/// `pull · PULL_PROBE_COST < push`. A probe is a dependent load into the
/// scattered `A` row; a product streams a `B` row into an accumulator
/// that the mask mostly short-circuits. Fixed by the `abl_push_pull` grid
/// (`Auto` within 1.15× of the faster direction on every `d_input = 32`
/// cell) and BC's per-level counts — both in `docs/DECISIONS.md`. An exact
/// tie (every symmetric self-mask) stays push.
pub const PULL_PROBE_COST: f64 = 1.5;

/// What transposing one entry of `B` costs in pull probes, charged to the
/// pull side when the caller supplied no `Bᵀ`: `sparse::transpose` takes
/// 8–14 ns per entry on the inputs the repo measures (R-MAT 13, ER
/// n = 16384) where a probe takes 1–2 ns. At `2` — its two passes over the
/// entries, counted as if they were probes — `Auto` transposed for a pull
/// that then lost to push by 1.7× (`core.auto_regret.sparsemask`).
pub const TRANSPOSE_PROBES_PER_ENTRY: u64 = 10;

/// Entries-plus-rows the first block of an abandonable count holds; each
/// later block doubles it, so a count that settles early stops within 2×
/// of where it could have and one that never settles runs in few blocks.
const COUNT_BLOCK: usize = 1 << 14;

/// Entries below which a counting pass stays on the calling thread: a
/// lookup per entry is cheaper than waking the pool for them.
const PAR_COUNT_MIN: usize = 1 << 17;

/// `Σ per_row(i)` over `rows`, which hold `entries` stored entries — on the
/// pool when those repay waking it.
fn sum_rows(rows: Range<usize>, entries: usize, per_row: impl Fn(usize) -> u64 + Sync) -> u64 {
    if entries < PAR_COUNT_MIN {
        rows.map(per_row).sum()
    } else {
        rows.into_par_iter().map(per_row).sum()
    }
}

/// `init + Σ per_row(i)` over the rows of `m` (whose entries `per_row`
/// walks), looked at before every block and abandoned once `settled`.
fn sum_until<T>(
    m: &Csr<T>,
    init: u64,
    per_row: impl Fn(usize) -> u64 + Sync,
    settled: impl Fn(u64) -> bool,
) -> u64 {
    let rowptr = m.rowptr();
    let mut total = init;
    let (mut start, mut block) = (0usize, COUNT_BLOCK);
    while start < m.nrows() && !settled(total) {
        let goal = rowptr[start] + start + block;
        let mut end = start + 1;
        while end < m.nrows() && rowptr[end] + end < goal {
            end += 1;
        }
        total += sum_rows(start..end, rowptr[end] - rowptr[start], &per_row);
        (start, block) = (end, 2 * block);
    }
    total
}

/// Count both directions' work: push off `B`'s row pointers, pull off
/// `bt`'s — or off `B`'s column counts, with the transpose charged, when
/// no `bt` was supplied.
///
/// The side whose pass is shorter (`nnz(A)` lookups for push, `nnz(M)` for
/// pull) is counted in full; the other only until it can no longer win, so
/// the decision costs `O(min(nnz(A), nnz(M)))` plus a share of the pass
/// the chosen product is about to repeat many times over — a sparse mask
/// does not pay for walking `A`, a dense one is not walked for a product
/// that pushes. Push is the full side whenever the driver needs the
/// per-row flops anyway (`keep_row_flops`: they are returned) or no `bt`
/// came with the call (pull then starts from the transpose's charge).
fn direction_work<M, L, R>(
    mask: &Csr<M>,
    a: &Csr<L>,
    b: &Csr<R>,
    bt: Option<&Csr<R>>,
    complement: bool,
    keep_row_flops: bool,
) -> (Option<Vec<u64>>, DirectionWork)
where
    M: Send + Sync,
    L: Send + Sync,
    R: Send + Sync,
{
    // `|Bᵀ_j|` without a `bt`: `B`'s column counts, built on first use —
    // the transpose's own charge often settles the comparison before it.
    let b_col_len = OnceLock::new();
    let count_b_cols = || {
        let mut len = vec![0usize; b.ncols()];
        for &j in b.colidx() {
            len[j as usize] += 1;
        }
        len
    };
    let transpose_cost = match bt {
        Some(_) => 0,
        None => TRANSPOSE_PROBES_PER_ENTRY * b.nnz() as u64,
    };
    let pull_row = |i: usize| -> u64 {
        // The kernel returns at once on an empty `A` row.
        if a.row_nnz(i) == 0 || masked_out(mask, complement, i) {
            return 0;
        }
        let m_i = mask.row_cols(i).iter();
        let in_mask: usize = match bt {
            Some(bt) => m_i.map(|&j| bt.row_nnz(j as usize)).sum(),
            None => {
                let len = b_col_len.get_or_init(count_b_cols);
                m_i.map(|&j| len[j as usize]).sum()
            }
        };
        let candidates = if complement {
            b.nnz() - in_mask
        } else {
            in_mask
        };
        (a.row_nnz(i) + candidates) as u64
    };
    let push_row = |i: usize| driven_flops(mask, a, b, complement, i);
    if keep_row_flops || bt.is_none() || a.nnz() <= mask.nnz() {
        let (flops, push) = if keep_row_flops {
            let flops = driven_row_flops(mask, a, b, complement);
            let push = flops.iter().sum();
            (Some(flops), push)
        } else {
            (None, sum_rows(0..a.nrows(), a.nnz(), push_row))
        };
        let pull = sum_until(mask, transpose_cost, pull_row, |pull| {
            !pull_is_cheaper(DirectionWork { push, pull })
        });
        (flops, DirectionWork { push, pull })
    } else {
        let pull = transpose_cost + sum_rows(0..mask.nrows(), mask.nnz(), pull_row);
        let push = sum_until(a, 0, push_row, |push| {
            pull_is_cheaper(DirectionWork { push, pull })
        });
        (None, DirectionWork { push, pull })
    }
}

/// The direction rule: pull runs when its probes, weighted by
/// [`PULL_PROBE_COST`], undercut the products push would form.
fn pull_is_cheaper(work: DirectionWork) -> bool {
    work.pull as f64 * PULL_PROBE_COST < work.push as f64
}

/// `Auto`'s choice for one product:
///
/// * pull cheaper than push by counted work ([`PULL_PROBE_COST`]) →
///   `Inner`, under either mask mode (§4.3: neither direction wins
///   everywhere — a mask asymptotically sparser than the inputs is
///   pull's, and so is a late BFS level of BC, whose complemented mask
///   leaves few columns under long `A` rows);
/// * inputs much sparser than a normal mask → `Heap`;
/// * otherwise `MSA` on narrow matrices (accumulator fits cache),
///   `Hash` on wide ones (§8.1: "MSA performing better on smaller
///   matrices and Hash on larger ones").
pub(crate) fn auto_select<M, L, R>(
    mask: &Csr<M>,
    a: &Csr<L>,
    b: &Csr<R>,
    complement: bool,
    work: DirectionWork,
) -> Algorithm {
    /// Matrices narrower than this keep a dense MSA row resident in cache.
    const MSA_WIDTH_LIMIT: usize = 1 << 16;
    if pull_is_cheaper(work) {
        return Algorithm::Inner;
    }
    let dm = mask.nnz() as f64 / mask.nrows().max(1) as f64;
    let da = a.nnz() as f64 / a.nrows().max(1) as f64;
    let db = b.nnz() as f64 / b.nrows().max(1) as f64;
    if !complement && da.max(db) * 8.0 <= dm {
        Algorithm::Heap
    } else if b.ncols() <= MSA_WIDTH_LIMIT {
        Algorithm::Msa
    } else {
        Algorithm::Hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::semiring::PlusTimesI64;

    fn dense(n: usize, v: i64) -> Csr<i64> {
        let d: Vec<Vec<Option<i64>>> = (0..n).map(|_| vec![Some(v); n]).collect();
        Csr::from_dense(&d, n)
    }

    /// `C = mode(M) ⊙ (A·B)` under default options.
    fn mxm(
        m: &Csr<()>,
        a: &Csr<i64>,
        b: &Csr<i64>,
        algo: Algorithm,
        mode: MaskMode,
    ) -> Result<Csr<i64>, Error> {
        let opts = ExecOpts::default();
        masked_mxm_with_opts::<PlusTimesI64, ()>(m, a, b, algo, mode, Phases::One, &opts)
    }

    #[test]
    fn dimension_checks() {
        let a = dense(3, 1);
        let b = dense(4, 1);
        let m = dense(3, 1).pattern();
        let r = mxm(&m, &a, &b, Algorithm::Msa, MaskMode::Mask);
        assert!(matches!(r, Err(Error::DimensionMismatch(_))));

        let b3 = dense(3, 1);
        let m_wrong = Csr::<()>::empty(2, 3);
        let r = mxm(&m_wrong, &a, &b3, Algorithm::Msa, MaskMode::Mask);
        assert!(matches!(r, Err(Error::DimensionMismatch(_))));
    }

    #[test]
    fn supplied_bt_of_the_wrong_shape_is_a_dimension_mismatch() {
        // B is 3x5, so Bᵀ is 5x3. Anything else must be refused before
        // the pull kernel indexes it — whatever the algorithm asked for.
        let a = dense(3, 1);
        let b = Csr::from_dense(&vec![vec![Some(1i64); 5]; 3], 5);
        let m = Csr::from_dense(&vec![vec![Some(()); 5]; 3], 5);
        let opts = ExecOpts::default();
        let run = |bt: &Csr<i64>, algo| {
            masked_mxm_with_bt::<PlusTimesI64, ()>(
                &m,
                &a,
                &b,
                Some(bt),
                algo,
                MaskMode::Mask,
                Phases::One,
                &opts,
            )
        };
        for algo in [Algorithm::Inner, Algorithm::Msa, Algorithm::Auto] {
            for bad in [&b, &dense(3, 1), &dense(5, 1)] {
                let r = run(bad, algo);
                assert!(matches!(r, Err(Error::DimensionMismatch(_))), "{algo:?}");
            }
            assert_eq!(
                run(&transpose(&b), algo),
                mxm(&m, &a, &b, algo, MaskMode::Mask)
            );
        }
    }

    #[test]
    fn mca_complement_rejected() {
        let a = dense(3, 1);
        let m = a.pattern();
        let r = mxm(&m, &a, &a, Algorithm::Mca, MaskMode::Complement);
        assert_eq!(
            r.unwrap_err(),
            Error::Unsupported("MCA does not support complemented masks (paper §8.4)")
        );
    }

    /// What `Auto` resolves to, and the work it counted.
    fn auto<M: Send + Sync>(
        m: &Csr<M>,
        a: &Csr<i64>,
        b: &Csr<i64>,
        bt: Option<&Csr<i64>>,
        complement: bool,
    ) -> (Algorithm, DirectionWork) {
        let (_, work) = direction_work(m, a, b, bt, complement, true);
        (auto_select(m, a, b, complement, work), work)
    }

    #[test]
    fn auto_picks_inner_for_sparse_mask() {
        // Inputs dense (degree n), mask nearly empty: only row 0 is driven,
        // 64·64 products against 64 + 64 probes.
        let a = dense(64, 1);
        let mut md = vec![vec![None; 64]; 64];
        md[0][0] = Some(());
        let m = Csr::from_dense(&md, 64);
        let (algo, work) = auto(&m, &a, &a, Some(&a), false);
        assert_eq!((work.push, work.pull), (64 * 64, 64 + 64));
        assert_eq!(algo, Algorithm::Inner);
    }

    #[test]
    fn auto_picks_heap_for_sparse_inputs() {
        // One product per row against a probe per mask entry: push, and
        // inputs this much sparser than the mask are the heap's.
        let m = dense(64, 1).pattern();
        let a = Csr::<i64>::diagonal(64, 1);
        let (algo, work) = auto(&m, &a, &a, Some(&a), false);
        assert_eq!((work.push, work.pull), (64, 64 + 64 * 64));
        assert_eq!(algo, Algorithm::Heap);
    }

    #[test]
    fn auto_balanced_picks_msa_small() {
        let a = dense(8, 1);
        let m = a.pattern();
        assert_eq!(auto(&m, &a, &a, Some(&a), false).0, Algorithm::Msa);
    }

    #[test]
    fn symmetric_self_mask_is_a_tie_and_stays_push() {
        // M = A = B = Bᵀ: every product `a_ik·b_kj` has its probe, so the
        // two sides differ by the scatter of the `A` rows alone — the
        // `mxm` verb, `mxm run`, k-truss's full product.
        let n = 40usize;
        let d: Vec<Vec<Option<i64>>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * j) % 3 == 1).then_some(1)).collect())
            .collect();
        let a = Csr::from_dense(&d, n);
        assert_eq!(a, transpose(&a));
        let (algo, work) = auto(&a, &a, &a, Some(&a), false);
        assert_eq!(work.push, a.flops_with(&a));
        assert_eq!(work.pull, work.push + a.nnz() as u64);
        assert_eq!(algo, Algorithm::Msa);
    }

    /// One BFS level of BC over `n` vertices and 4 batch rows: a frontier
    /// with `width` entries per row, every vertex visited but the last
    /// `unvisited`, on the complete graph.
    fn bc_level(n: usize, width: usize, unvisited: usize) -> (Csr<()>, Csr<i64>, Csr<i64>) {
        let row = |len: usize| (0..n).map(|j| (j < len).then_some(1i64)).collect();
        let frontier = Csr::from_dense(&vec![row(width); 4], n);
        let visited = Csr::from_dense(&vec![row(n - unvisited); 4], n).pattern();
        (visited, frontier, dense(n, 1))
    }

    #[test]
    fn late_bc_level_pulls_under_a_complemented_mask() {
        // Long frontier rows, two unvisited columns: 4·(48·64) products
        // against 4·(48 + 2·64) probes.
        let (visited, frontier, adj) = bc_level(64, 48, 2);
        let (algo, work) = auto(&visited, &frontier, &adj, Some(&adj), true);
        assert_eq!(work.push, 4 * 48 * 64);
        assert_eq!(work.pull, 4 * (48 + 2 * 64));
        assert_eq!(algo, Algorithm::Inner);
        // The product itself is the push kernels'.
        let got = mxm(
            &visited,
            &frontier,
            &adj,
            Algorithm::Auto,
            MaskMode::Complement,
        );
        let want = mxm(
            &visited,
            &frontier,
            &adj,
            Algorithm::Msa,
            MaskMode::Complement,
        );
        assert_eq!(got, want);
    }

    #[test]
    fn early_bc_level_pushes() {
        // One-entry frontier rows, nearly everything unvisited: 4·64
        // products against 4·(1 + 63·64) probes.
        let (visited, frontier, adj) = bc_level(64, 1, 63);
        let (algo, work) = auto(&visited, &frontier, &adj, Some(&adj), true);
        assert_eq!(work.push, 4 * 64);
        assert_eq!(work.pull, 4 * (1 + 63 * 64));
        assert_eq!(algo, Algorithm::Msa);
    }

    #[test]
    fn no_supplied_bt_charges_the_transpose() {
        // 64 products against 16 probes with a `Bᵀ` at hand: pull. Without
        // one the same product also pays for transposing B's 64 entries,
        // and that charge alone already loses to forming the products —
        // the probes are never counted.
        let b = dense(8, 1);
        let a = Csr::from_dense(&[vec![Some(1i64); 8]], 8);
        let m = Csr::from_dense(
            &[vec![Some(()), None, None, None, None, None, None, None]],
            8,
        );
        let (algo, work) = auto(&m, &a, &b, Some(&b), false);
        assert_eq!((work.push, work.pull), (64, 8 + 8));
        assert_eq!(algo, Algorithm::Inner);
        let (algo, work) = auto(&m, &a, &b, None, false);
        assert_eq!(
            (work.push, work.pull),
            (64, TRANSPOSE_PROBES_PER_ENTRY * 64)
        );
        assert_eq!(algo, Algorithm::Msa);
    }

    #[test]
    fn the_longer_count_stops_once_it_cannot_win() {
        let b = dense(8, 1);
        let rows = |keep: usize| {
            let row: Vec<Option<i64>> = (0..8).map(|j| (j < keep).then_some(1)).collect();
            Csr::from_dense(&vec![row; 3000], 8)
        };
        // Full `A` rows under a one-entry mask: pull's pass is the short
        // one — 3000 · (8 + 8) probes. Push forms 64 products a row and is
        // past 48 000 · 1.5 within its first block of rows, so the rest
        // are never counted — unless the driver wants every row's flops.
        let (a, m) = (rows(8), rows(1).pattern());
        let (flops, cut) = direction_work(&m, &a, &b, Some(&b), false, false);
        assert_eq!(flops, None);
        assert_eq!(cut.pull, 3000 * 16);
        assert!(72_000 < cut.push && cut.push < 3000 * 64, "{cut:?}");
        assert_eq!(cut.push % 64, 0, "whole rows");
        let (flops, full) = direction_work(&m, &a, &b, Some(&b), false, true);
        assert_eq!(flops, Some(vec![64; 3000]));
        assert_eq!((full.push, full.pull), (3000 * 64, cut.pull));
        for work in [cut, full] {
            assert_eq!(auto_select(&m, &a, &b, false, work), Algorithm::Inner);
        }
        // One-entry `A` rows under a full mask: push's pass is the short
        // one — 8 products a row — and pull's 1 + 8 · 8 probes a row are
        // out of the race after one block.
        let (a, m) = (rows(1), rows(8).pattern());
        let (_, cut) = direction_work(&m, &a, &b, Some(&b), false, false);
        assert_eq!(cut.push, 3000 * 8);
        assert!(16_000 < cut.pull && cut.pull < 3000 * 65, "{cut:?}");
        assert_eq!(cut.pull % 65, 0, "whole rows");
        assert_eq!(auto_select(&m, &a, &b, false, cut), Algorithm::Msa);
    }

    #[test]
    fn auto_choice_rides_in_exec_stats() {
        let (visited, frontier, adj) = bc_level(64, 48, 2);
        let stats = crate::schedule::ExecStats::new();
        assert_eq!(stats.auto_choice(), None);
        let opts = ExecOpts {
            stats: Some(&stats),
            ..ExecOpts::default()
        };
        let run = |algo| {
            masked_mxm_with_bt::<PlusTimesI64, ()>(
                &visited,
                &frontier,
                &adj,
                Some(&adj),
                algo,
                MaskMode::Complement,
                Phases::One,
                &opts,
            )
            .unwrap()
        };
        // A named algorithm records nothing; `Auto` what it resolved to.
        run(Algorithm::Msa);
        assert_eq!(stats.auto_choice(), None);
        run(Algorithm::Auto);
        let choice = stats.auto_choice().expect("Auto ran");
        assert_eq!(choice.algo, Algorithm::Inner);
        assert_eq!(choice.work.push, 4 * 48 * 64);
        stats.reset();
        assert_eq!(stats.auto_choice(), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn expired_deadline_cancels_before_any_pass() {
        let a = dense(16, 1);
        let m = a.pattern();
        let opts = ExecOpts {
            deadline: std::time::Instant::now().checked_sub(std::time::Duration::from_secs(1)),
            ..ExecOpts::default()
        };
        for algo in Algorithm::ALL {
            for phases in [Phases::One, Phases::Two] {
                let r = masked_mxm_with_opts::<PlusTimesI64, ()>(
                    &m,
                    &a,
                    &a,
                    algo,
                    MaskMode::Mask,
                    phases,
                    &opts,
                );
                assert_eq!(
                    r.unwrap_err(),
                    Error::DeadlineExceeded,
                    "{algo:?} {phases:?}"
                );
            }
        }
        // No deadline (the default) still completes.
        let r = masked_mxm_with_opts::<PlusTimesI64, ()>(
            &m,
            &a,
            &a,
            Algorithm::Hash,
            MaskMode::Mask,
            Phases::One,
            &ExecOpts::default(),
        );
        assert!(r.is_ok());
    }
}
