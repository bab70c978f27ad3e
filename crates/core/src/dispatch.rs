//! Public entry point: a masked product as one [`Product`] value, its
//! validation, and the one planning function behind `Auto` — the direction
//! decided per product from counted work (§4.3's argument, evaluated
//! instead of assumed): push, pull, or, for a declared symmetric
//! self-product `A ⊙ (A·A)`, the pull over half the mask mirrored
//! ([`Plan::Oriented`]) — and the push accumulator by the output width
//! (§8.1). The verdict comes back as the [`Plan`] that ran.

use crate::algos::hash::HashKernel;
use crate::algos::heap::HeapKernel;
use crate::algos::inner::InnerKernel;
use crate::algos::mca::McaKernel;
use crate::algos::msa::MsaKernel;
use crate::phases::{driven_flops, driven_row_flops, masked_out, run_kernel, Phases};
use crate::schedule::ExecOpts;
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::util::exclusive_prefix_sum;
use mspgemm_sparse::{transpose, Csr, CsrRef, Idx};
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
    /// the [`Product`] carries a `Bᵀ`.
    Inner,
    /// Pick once for the whole call: the cheapest direction by counted
    /// work (push products vs pull probes, see [`DirectionWork`]; a
    /// declared self-product may also run as [`Plan::Oriented`]), then —
    /// when push it is — the accumulator by the output width.
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

/// One masked product `C = M ⊙ (A·B)` (or `¬M ⊙ (A·B)`) as a value: the
/// mask's structure, the operands, an optional `Bᵀ` (`B` in CSC, read by
/// the pull kernel instead of transposing `B`, so applications amortize
/// the transpose across calls — SuiteSparse's per-call transpose is an
/// overhead of `SS:DOT`, §8.4; its shape is checked, its values trusted),
/// the mask mode and the phase strategy. The mask is held as a structural
/// view ([`CsrRef::structure`]: its own `rowptr` / `colidx`, no values),
/// so whatever its value type, every product runs one compiled kernel set
/// per semiring. A symmetric self-product is declared, never inferred:
/// only [`Product::self_product`] lets `Auto` run [`Plan::Oriented`].
pub struct Product<'a, L, R> {
    pub(crate) mask: CsrRef<'a, ()>,
    pub(crate) a: &'a Csr<L>,
    pub(crate) b: &'a Csr<R>,
    pub(crate) bt: Option<&'a Csr<R>>,
    pub(crate) mode: MaskMode,
    pub(crate) phases: Phases,
    /// Set by [`Product::self_product`] alone.
    pub(crate) symmetric: bool,
}

impl<'a, L, R> Product<'a, L, R> {
    /// `M ⊙ (A·B)` under a normal mask and one phase, with the caller's
    /// `Bᵀ` if it has one. Of `mask` only the structure is kept, in O(1).
    pub fn new<M>(mask: &'a Csr<M>, a: &'a Csr<L>, b: &'a Csr<R>, bt: Option<&'a Csr<R>>) -> Self {
        Product {
            mask: mask.view().structure(),
            a,
            b,
            bt,
            mode: MaskMode::Mask,
            phases: Phases::One,
            symmetric: false,
        }
    }

    /// This product under mask mode `mode`.
    pub fn with_mode(&self, mode: MaskMode) -> Self {
        Product { mode, ..*self }
    }

    /// This product under phase strategy `phases`.
    pub fn with_phases(&self, phases: Phases) -> Self {
        Product { phases, ..*self }
    }

    /// The mask's structure, `A`, `B` and the mask mode: what a baseline
    /// reads.
    pub fn operands(&self) -> (CsrRef<'a, ()>, &'a Csr<L>, &'a Csr<R>, MaskMode) {
        (self.mask, self.a, self.b, self.mode)
    }

    pub(crate) fn complement(&self) -> bool {
        self.mode == MaskMode::Complement
    }

    /// Whether [`Plan::Oriented`] computes this product on `S`: declared,
    /// under a normal mask (the half mask has no complemented reading), on
    /// a [`Semiring::MUL_COMMUTES`] multiply.
    fn orientable<S: Semiring>(&self) -> bool {
        self.symmetric && !self.complement() && S::MUL_COMMUTES
    }
}

impl<'a, T: Copy + PartialEq + Send + Sync> Product<'a, T, T> {
    /// `A ⊙ (A·A)` for an `A` equal to its transpose: mask, `A`, `B` and
    /// `Bᵀ` are all `a`. The one way to declare `A = Aᵀ` — checked in
    /// debug builds (a value unequal to itself, a NaN, mirrors its like),
    /// trusted otherwise.
    pub fn self_product(a: &'a Csr<T>) -> Self {
        let mirrors = |x: &T, y: &T| x == y || (x.ne(x) && y.ne(y));
        debug_assert!(a.is_symmetric_by(mirrors), "a self-product needs A = Aᵀ");
        Product {
            symmetric: true,
            ..Self::new(a, a, a, Some(a))
        }
    }
}

/// How one product runs: the verdict [`masked_mxm`] returns, with the work
/// `Auto` counted when it chose it, or a caller's choice for [`run_plan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// One concrete kernel (never `Auto`) over the whole mask.
    Kernel(Algorithm, Option<DirectionWork>),
    /// A declared self-product once per unordered edge: the pull kernel
    /// over the half mask `{(i, j) ∈ A : (d_j, j) ≤ (d_i, i)}` — the longer
    /// row scattered, the shorter probed — on [`run_kernel`], then
    /// `C[j, i] := C[i, j]`. Bit-identical to every other plan: both
    /// kernels sum in ascending `k`, and `a_ik · a_kj`, `a_jk · a_ki` are
    /// the same two numbers. The serial passes around the half product run
    /// under the span `oriented-mirror` (`Auto` builds the half mask inside
    /// `auto-select`: it makes the decision's third count).
    Oriented(Option<DirectionWork>),
}

impl Plan {
    /// What `Auto` counted to choose this plan; `None` for a plan it did
    /// not choose.
    pub fn work(&self) -> Option<DirectionWork> {
        match *self {
            Plan::Kernel(_, work) | Plan::Oriented(work) => work,
        }
    }

    /// The kernel's scheme name, or `oriented pull`: what `mxm run` prints
    /// after `Auto→` and the `mxm` verb answers as `"plan"`.
    pub fn name(&self) -> &'static str {
        match self {
            Plan::Kernel(algo, _) => algo.name(),
            Plan::Oriented(_) => "oriented pull",
        }
    }
}

pub(crate) fn check_dims<S: Semiring>(p: &Product<'_, S::Left, S::Right>) -> Result<(), Error> {
    let show = |(rows, cols): (usize, usize)| format!("{rows}x{cols}");
    let (am, ak) = (p.a.nrows(), p.a.ncols());
    let (bk, bn) = (p.b.nrows(), p.b.ncols());
    let mask = (p.mask.nrows(), p.mask.ncols());
    let bad = if ak != bk {
        format!("A is {} but B is {}", show((am, ak)), show((bk, bn)))
    } else if mask != (am, bn) {
        format!("mask is {} but A·B is {}", show(mask), show((am, bn)))
    } else if let Some(bt) = p.bt.filter(|bt| (bt.nrows(), bt.ncols()) != (bn, bk)) {
        // The pull kernel indexes `bt` by output column and its column
        // ids by `A`'s: any other shape would be read out of bounds.
        let bt = show((bt.nrows(), bt.ncols()));
        format!("B is {} but the supplied Bᵀ is {bt}", show((bk, bn)))
    } else {
        return Ok(());
    };
    Err(Error::DimensionMismatch(bad))
}

/// Masked SpGEMM of one [`Product`] on semiring `S`, under `opts` —
/// workspace pool, busy-time stats, deadline (see [`crate::schedule`];
/// `&ExecOpts::default()` for a one-shot call). Returns the product and
/// the [`Plan`] that ran: `algo` itself, or what [`Algorithm::Auto`]
/// chose. The mask is structural — its values are never read (§2), and
/// the type enforces it: a [`Product`] holds no mask values to read.
///
/// # Errors
/// [`Error::DimensionMismatch`] for incompatible shapes,
/// [`Error::Unsupported`] for MCA with a complemented mask,
/// [`Error::DeadlineExceeded`] for a deadline passed at a phase boundary.
pub fn masked_mxm<S: Semiring>(
    p: &Product<'_, S::Left, S::Right>,
    algo: Algorithm,
    opts: &ExecOpts<'_>,
) -> Result<(Csr<S::Out>, Plan), Error> {
    check_dims::<S>(p)?;
    let (plan, row_flops, half) = plan::<S>(p, algo);
    Ok((execute::<S>(p, plan, row_flops, half, opts)?, plan))
}

/// [`masked_mxm`] under a plan the caller chose, such as [`Plan::Oriented`]
/// where `Auto` would not pick it. The plan's counted work is not read.
///
/// # Errors
/// As [`masked_mxm`]; also [`Error::Unsupported`] for `Auto`, which is no
/// plan, and for [`Plan::Oriented`] of a product it cannot compute.
pub fn run_plan<S: Semiring>(
    p: &Product<'_, S::Left, S::Right>,
    plan: Plan,
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error> {
    check_dims::<S>(p)?;
    execute::<S>(p, plan, None, None, opts)
}

/// [`masked_mxm`] of `mode(mask) ⊙ (a·b)` under `phases`, the product
/// alone: the one-call form. It carries no `Bᵀ` and declares nothing, so
/// it never runs [`Plan::Oriented`]. Generic in the mask's value type for
/// its callers alone: [`Product::new`] keeps the structure.
///
/// # Errors
/// As [`masked_mxm`].
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
    let p = Product::new(mask, a, b, None).with_mode(mode);
    masked_mxm::<S>(&p.with_phases(phases), algo, opts).map(|(c, _)| c)
}

/// The one planning function: a named `algo` as it is; `Auto` by counted
/// work — a declared self-product's three directions off its row pointers
/// ([`self_product_plan`]), any other product's two by
/// [`direction_work`] — then [`auto_select`]. A cheaper estimate of the
/// same verdict replaces this function and nothing else. Also returns what
/// the count built that the run reuses: the per-row flops of a
/// complemented one-phase product, or the oriented plan's half mask.
fn plan<S: Semiring>(
    p: &Product<'_, S::Left, S::Right>,
    algo: Algorithm,
) -> (Plan, Option<Vec<u64>>, Option<HalfMask>) {
    if algo != Algorithm::Auto {
        return (Plan::Kernel(algo, None), None, None);
    }
    let _span = mspgemm_obs::span("auto-select");
    let (complement, ncols) = (p.complement(), p.b.ncols());
    if p.orientable::<S>() {
        let (work, half) = self_product_plan(p.a);
        let plan = match half {
            Some(_) => Plan::Oriented(Some(work)),
            None => Plan::Kernel(auto_select(ncols, work), Some(work)),
        };
        return (plan, None, half);
    }
    let keep = p.phases == Phases::One && complement;
    let (row_flops, work) = direction_work(p.mask, p.a, p.b, p.bt, complement, keep);
    (
        Plan::Kernel(auto_select(ncols, work), Some(work)),
        row_flops,
        None,
    )
}

/// Run `plan` on a checked `p`, with what planning counted.
fn execute<S: Semiring>(
    p: &Product<'_, S::Left, S::Right>,
    plan: Plan,
    row_flops: Option<Vec<u64>>,
    half: Option<HalfMask>,
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error> {
    let complement = p.complement();
    let algo = match plan {
        Plan::Kernel(algo, _) => algo,
        Plan::Oriented(_) if !p.orientable::<S>() => {
            return Err(Error::Unsupported(
                "the oriented plan needs a declared self-product under a normal mask",
            ));
        }
        Plan::Oriented(_) => {
            let HalfMask { mask, .. } = half.unwrap_or_else(|| {
                let _span = mspgemm_obs::span("oriented-mirror");
                half_mask(p.a)
            });
            // A declared self-product's `B` is its own transpose.
            let kernel = InnerKernel::new(p.b.view(), false);
            let lower = Product::new(&mask, p.a, p.b, None).with_phases(p.phases);
            let lower = run_kernel::<S, _>(&lower, &kernel, None, opts)?;
            drop(mask);
            let _span = mspgemm_obs::span("oriented-mirror");
            return Ok(mirror(&lower));
        }
    };
    if complement && !algo.supports_complement() {
        return Err(Error::Unsupported(
            "MCA does not support complemented masks (paper §8.4)",
        ));
    }
    match algo {
        Algorithm::Msa => run_kernel::<S, _>(p, &MsaKernel { complement }, row_flops, opts),
        Algorithm::Hash => run_kernel::<S, _>(p, &HashKernel { complement }, row_flops, opts),
        Algorithm::Mca => run_kernel::<S, _>(p, &McaKernel, row_flops, opts),
        Algorithm::Heap => run_kernel::<S, _>(p, &HeapKernel::heap(complement), row_flops, opts),
        Algorithm::HeapDot => {
            run_kernel::<S, _>(p, &HeapKernel::heap_dot(complement), row_flops, opts)
        }
        Algorithm::Inner => {
            let transposed;
            let bt = match p.bt {
                Some(bt) => bt,
                None => {
                    let _span = mspgemm_obs::span("transpose");
                    transposed = transpose(p.b);
                    &transposed
                }
            };
            let kernel = InnerKernel::new(bt.view(), complement);
            run_kernel::<S, _>(p, &kernel, row_flops, opts)
        }
        Algorithm::Auto => Err(Error::Unsupported("Auto is no plan: masked_mxm plans it")),
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
    /// Probes [`Plan::Oriented`] makes, `Σ d_j` over the entries `(i, j)`
    /// of `A` with `(d_j, j) ≤ (d_i, i)`: one dot per unordered edge, the
    /// shorter row probed into the longer one — `Σ_{edges} min(d_i, d_j)`,
    /// the orientation bound of Chiba & Nishizeki. Counted while the half
    /// mask is built, so `Some` exactly when `Auto` planned that way; for
    /// any declared self-product ([`Product::self_product`]) `push` and
    /// `pull` are exact and cost `O(n)`.
    pub oriented: Option<u64>,
}

impl DirectionWork {
    /// The two counts of a product that does not run oriented.
    fn of(push: u64, pull: u64) -> Self {
        DirectionWork {
            push,
            pull,
            oriented: None,
        }
    }
}

/// What one pull probe costs in push products: pull runs when
/// `pull · PULL_PROBE_COST < push`. A probe is a dependent load into the
/// scattered `A` row; a product streams a `B` row into an accumulator
/// that the mask mostly short-circuits. Fixed by the `abl_push_pull` grid
/// (`Auto` within 1.15× of the faster direction on every `d_input = 32`
/// cell) and BC's per-level counts — both in `docs/DECISIONS.md`. An exact
/// tie (every symmetric self-mask) stays push.
pub const PULL_PROBE_COST: f64 = 1.5;

/// What the passes around an oriented product are charged per stored
/// entry of `A` **and per thread**, in push products: selecting the half
/// mask before it and mirroring the half product after it are serial
/// `O(nnz)` passes, so against a product that spreads over `T` threads
/// each entry weighs `T` times as much. With [`ORIENTED_FIXED_COST`] it is
/// all that stands between a symmetric self-product and the oriented plan
/// (see `oriented_is_cheaper`), and both are fitted to `abl_push_pull`'s
/// symmetric section, not derived: on two threads oriented wins wherever
/// a graph forms more than ≈ 4 products per stored entry (every R-MAT row
/// by 1.4–1.8×, `er_symmetric(8192, 8 … 64)` by 1.3–1.6×) and ties at
/// `er_symmetric(32768, 4)` (4.5 per entry), which it wins 1.5× on one
/// thread — `docs/DECISIONS.md`.
pub const MIRROR_COST: f64 = 0.5;

/// Push products the oriented plan must save before anything else, which
/// keeps karate-sized products on the path they have always run. Fitted
/// while every drive also re-read the machine's CPU count, which held a
/// karate product at ≈ 100 µs on two threads either way; without that
/// tax it takes ≈ 8–13 µs, push or oriented, and `er_symmetric(256, 8)`
/// runs oriented 1.7–1.9× faster than the push this keeps it on — a
/// value to re-fit (`docs/DECISIONS.md`, "Symmetric self-product").
pub const ORIENTED_FIXED_COST: u64 = 1 << 12;

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

/// Entries below which a counting pass stays on the calling thread, at
/// 1–2 ns a lookup against a drive's fixed cost of publishing a job to the
/// parked workers and joining it (≈ 1–5 µs back-to-back, ≈ 8–12 µs after
/// an idle, on two threads: `abl_schedule`'s `drive_us`). Fitted while a
/// drive also re-read the machine's CPU count (2–3 × 18 µs), so it is
/// conservative — a value to re-fit.
const PAR_COUNT_MIN: usize = 1 << 17;

/// `Σ per_row(i)` over `rows`, which hold `entries` stored entries — on the
/// pool when those repay a drive's fixed cost.
fn sum_rows(rows: Range<usize>, entries: usize, per_row: impl Fn(usize) -> u64 + Sync) -> u64 {
    if entries < PAR_COUNT_MIN {
        rows.map(per_row).sum()
    } else {
        rows.into_par_iter().map(per_row).sum()
    }
}

/// `init + Σ per_row(i)` over the rows `rowptr` delimits (the entries
/// `per_row` walks), looked at before every block and abandoned once
/// `settled`.
fn sum_until(
    rowptr: &[usize],
    init: u64,
    per_row: impl Fn(usize) -> u64 + Sync,
    settled: impl Fn(u64) -> bool,
) -> u64 {
    let nrows = rowptr.len() - 1;
    let mut total = init;
    let (mut start, mut block) = (0usize, COUNT_BLOCK);
    while start < nrows && !settled(total) {
        let goal = rowptr[start] + start + block;
        let mut end = start + 1;
        while end < nrows && rowptr[end] + end < goal {
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
/// that pushes. Push is the full side whenever the complemented one-phase
/// bound needs the per-row flops anyway (`keep_row_flops`: they are
/// returned) or no `bt` came with the call (pull then starts from the
/// transpose's charge).
fn direction_work<L, R>(
    mask: CsrRef<'_, ()>,
    a: &Csr<L>,
    b: &Csr<R>,
    bt: Option<&Csr<R>>,
    complement: bool,
    keep_row_flops: bool,
) -> (Option<Vec<u64>>, DirectionWork)
where
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
        let pull = sum_until(mask.rowptr(), transpose_cost, pull_row, |pull| {
            !pull_is_cheaper(DirectionWork::of(push, pull))
        });
        (flops, DirectionWork::of(push, pull))
    } else {
        let pull = transpose_cost + sum_rows(0..mask.nrows(), mask.nnz(), pull_row);
        let push = sum_until(a.rowptr(), 0, push_row, |push| {
            pull_is_cheaper(DirectionWork::of(push, pull))
        });
        (None, DirectionWork::of(push, pull))
    }
}

/// The direction rule: pull runs when its probes, weighted by
/// [`PULL_PROBE_COST`], undercut the products push would form.
fn pull_is_cheaper(work: DirectionWork) -> bool {
    work.pull as f64 * PULL_PROBE_COST < work.push as f64
}

/// The counts of a declared self-product, none of them by walking a
/// product: `push = Σ d_i²` and `pull = push + nnz` off the row pointers.
/// When the oriented plan wins on those alone ([`oriented_is_cheaper`]),
/// its half mask is built — one pass over the column indices, which also
/// yields the exact `oriented` count.
fn self_product_plan<T>(a: &Csr<T>) -> (DirectionWork, Option<HalfMask>) {
    // `A` is its own transpose: column `k` of it is row `k`.
    let push = a.transposed_flops_with(a);
    let mut work = DirectionWork::of(push, push + a.nnz() as u64);
    let half = oriented_is_cheaper(push, a.nnz()).then(|| half_mask(a));
    work.oriented = half.as_ref().map(|half| half.probes);
    (work, half)
}

/// The third direction's rule, decided before an entry is walked: an
/// edge's dot makes `min(d_i, d_j) ≤ (d_i + d_j) / 2` probes, so the
/// oriented plan makes at most `push / 2`, and it runs when even that many
/// — priced like any pull probe — plus its own serial passes undercut
/// push: `push/2 · PULL_PROBE_COST + nnz · threads · MIRROR_COST +
/// ORIENTED_FIXED_COST < push`. A product that pushes has paid `O(n)` for
/// the verdict.
fn oriented_is_cheaper(push: u64, nnz: usize) -> bool {
    let at_most = push as f64 / 2.0 * PULL_PROBE_COST;
    let passes = (nnz * rayon::current_num_threads().max(1)) as f64 * MIRROR_COST;
    at_most + passes + (ORIENTED_FIXED_COST as f64) < push as f64
}

/// What [`Plan::Oriented`] drives the pull kernel over.
struct HalfMask {
    /// `{(i, j) ∈ A : (d_j, j) ≤ (d_i, i)}`: every unordered edge once, in
    /// the row with the longer — scattered — side, and the diagonal.
    mask: Csr<()>,
    /// `Σ d_j` over the mask's entries: the probes its product makes.
    probes: u64,
}

/// One serial pass over `a`'s column indices: the half mask and the
/// probes its product will make.
fn half_mask<T>(a: &Csr<T>) -> HalfMask {
    let (n, rowptr, colidx) = (a.nrows(), a.rowptr(), a.colidx());
    // `(degree, index)` packed into one integer: one load and one
    // comparison order two rows.
    let degrees = rowptr.windows(2).map(|w| (w[1] - w[0]) as u64);
    let keys: Vec<u64> = degrees
        .enumerate()
        .map(|(i, d)| d << 32 | i as u64)
        .collect();
    let mut half_ptr = Vec::with_capacity(n + 1);
    // Written branch-free at the full size, cut to what was kept.
    let mut half_cols = vec![0 as Idx; a.nnz()];
    let (mut kept, mut probes) = (0usize, 0u64);
    half_ptr.push(0);
    for i in 0..n {
        for &j in &colidx[rowptr[i]..rowptr[i + 1]] {
            let key = keys[j as usize];
            let below = key <= keys[i];
            half_cols[kept] = j;
            kept += usize::from(below);
            probes += if below { key >> 32 } else { 0 };
        }
        half_ptr.push(kept);
    }
    // Give the unused half back before the product allocates its output.
    half_cols.truncate(kept);
    half_cols.shrink_to_fit();
    let values = vec![(); kept];
    HalfMask {
        mask: Csr::from_parts_unchecked(n, a.ncols(), half_ptr, half_cols, values),
        probes,
    }
}

/// `lower ∪ lowerᵀ` for a square `lower` whose off-diagonal entries all
/// lack their mirror image: row `i` of the result holds row `i` and
/// column `i` of `lower`, merged by column, in an output allocated at its
/// exact size.
fn mirror<T: Copy + Default>(lower: &Csr<T>) -> Csr<T> {
    let n = lower.nrows();
    let (lp, lc, lv) = (lower.rowptr(), lower.colidx(), lower.values());
    let mut len = lower.row_degrees();
    for i in 0..n {
        for &j in &lc[lp[i]..lp[i + 1]] {
            len[j as usize] += usize::from(j as usize != i);
        }
    }
    let rowptr = exclusive_prefix_sum(&len);
    let mut colidx = vec![0 as Idx; rowptr[n]];
    let mut values = vec![T::default(); rowptr[n]];
    // Column `i` goes to the front of row `i`; visiting the source rows in
    // order leaves it sorted. `len` is reused as the write cursors.
    let mut end = len;
    end.copy_from_slice(&rowptr[..n]);
    for i in 0..n {
        for p in lp[i]..lp[i + 1] {
            let j = lc[p] as usize;
            if j != i {
                (colidx[end[j]], values[end[j]]) = (i as Idx, lv[p]);
                end[j] += 1;
            }
        }
    }
    // Row `i` is merged in from the back, into the room left behind it.
    for i in 0..n {
        let (own_cols, own_vals) = (&lc[lp[i]..lp[i + 1]], &lv[lp[i]..lp[i + 1]]);
        let base = rowptr[i];
        let (mut mirrored, mut own) = (end[i] - base, own_cols.len());
        let (cols, vals) = (&mut colidx[base..], &mut values[base..]);
        while own > 0 {
            let w = mirrored + own - 1;
            if mirrored > 0 && cols[mirrored - 1] > own_cols[own - 1] {
                mirrored -= 1;
                (cols[w], vals[w]) = (cols[mirrored], vals[mirrored]);
            } else {
                own -= 1;
                (cols[w], vals[w]) = (own_cols[own], own_vals[own]);
            }
        }
    }
    Csr::from_parts_unchecked(n, lower.ncols(), rowptr, colidx, values)
}

/// `Auto`'s choice for one product that is not run oriented:
///
/// * pull cheaper than push by counted work ([`PULL_PROBE_COST`]) →
///   `Inner`, under either mask mode (§4.3: neither direction wins
///   everywhere — a mask asymptotically sparser than the inputs is
///   pull's, and so is a late BFS level of BC, whose complemented mask
///   leaves few columns under long `A` rows);
/// * otherwise `MSA` on narrow outputs (accumulator fits cache), `Hash`
///   on wide ones (§8.1: "MSA performing better on smaller matrices and
///   Hash on larger ones").
///
/// No shape rule picks `Heap` any more: "inputs 8× sparser than a normal
/// mask" cost 10–16 ms where MSA took 2.6–3.7 (`abl_push_pull`, `d_input
/// 8`, `d_mask ≥ 128`) — `docs/DECISIONS.md`. `heap` stays nameable, and
/// sums in the same `k` order as every other scheme.
pub(crate) fn auto_select(out_cols: usize, work: DirectionWork) -> Algorithm {
    /// Matrices narrower than this keep a dense MSA row resident in cache.
    const MSA_WIDTH_LIMIT: usize = 1 << 16;
    if pull_is_cheaper(work) {
        Algorithm::Inner
    } else if out_cols <= MSA_WIDTH_LIMIT {
        Algorithm::Msa
    } else {
        Algorithm::Hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::WsPool;
    use mspgemm_sparse::semiring::{PlusTimesF64, PlusTimesI64};

    /// A symmetric 640-vertex graph skewed enough for the oriented plan to
    /// win: vertices 0–7 are adjacent to every vertex that has an edge at
    /// all, the rest sparsely to each other; every 97th vertex is isolated
    /// (an empty row and column) and every 41st carries a self-loop.
    /// `value(u, v)` is called with `u ≤ v`, so the values are symmetric.
    fn skewed<T: Copy + Send + Sync>(value: impl Fn(usize, usize) -> T) -> Csr<T> {
        const N: usize = 640;
        let isolated = |x: usize| x % 97 == 13;
        let edge = |u: usize, v: usize| match (isolated(u) || isolated(v), u == v) {
            (true, _) => false,
            (_, true) => u.is_multiple_of(41),
            _ => u < 8 || (u * 31 + v * 17).is_multiple_of(53),
        };
        let d: Vec<Vec<Option<T>>> = (0..N)
            .map(|i| {
                let cell = |j: usize| (i.min(j), i.max(j));
                (0..N)
                    .map(|j| edge(cell(j).0, cell(j).1).then(|| value(cell(j).0, cell(j).1)))
                    .collect()
            })
            .collect();
        Csr::from_dense(&d, N)
    }

    fn hubs_and_leaves() -> Csr<i64> {
        skewed(|u, v| ((u + 2 * v) % 5) as i64 + 1)
    }

    /// [`skewed`] with values whose products span 32 orders of magnitude,
    /// so a coordinate's sum depends on the order its terms are added in.
    fn order_sensitive() -> Csr<f64> {
        const VALUES: [f64; 6] = [1e8, 1.0, -1e8, 3.0, 0.5, -1.0];
        skewed(|u, v| VALUES[((u + v) * 7 + u * v) % 6])
    }

    /// `f` on a pool of two workers: the oriented rule charges its serial
    /// passes per thread, so a test of the decision pins the thread count
    /// instead of inheriting the host's.
    fn on_two_threads<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        let workers = rayon::ThreadPoolBuilder::new().num_threads(2).build();
        workers.unwrap().install(f)
    }

    /// A CSR's three sections, the values by bits.
    type Sections = (Vec<usize>, Vec<Idx>, Vec<u64>);

    fn sections(c: &Csr<f64>) -> Sections {
        let bits = c.values().iter().map(|v| v.to_bits()).collect();
        (c.rowptr().to_vec(), c.colidx().to_vec(), bits)
    }

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
            let p = Product::new(&m, &a, &b, Some(bt));
            masked_mxm::<PlusTimesI64>(&p, algo, &opts).map(|(c, _)| c)
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
    fn auto(
        m: &Csr<()>,
        a: &Csr<i64>,
        b: &Csr<i64>,
        bt: Option<&Csr<i64>>,
        complement: bool,
    ) -> (Algorithm, DirectionWork) {
        let (_, work) = direction_work(m.view(), a, b, bt, complement, true);
        (auto_select(b.ncols(), work), work)
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
    fn sparse_inputs_under_a_dense_mask_stay_msa() {
        // One product per row against a probe per mask entry: push. Inputs
        // 8× sparser than the mask used to be the heap's — a measured
        // regret (`docs/DECISIONS.md`), so no shape rule names it now.
        let m = dense(64, 1).pattern();
        let a = Csr::<i64>::diagonal(64, 1);
        let (algo, work) = auto(&m, &a, &a, Some(&a), false);
        assert_eq!((work.push, work.pull), (64, 64 + 64 * 64));
        assert_eq!(algo, Algorithm::Msa);
    }

    #[test]
    fn auto_balanced_picks_msa_small() {
        let a = dense(8, 1);
        let m = a.pattern();
        assert_eq!(auto(&m, &a, &a, Some(&a), false).0, Algorithm::Msa);
    }

    #[test]
    fn symmetric_self_mask_counts_three_directions_off_the_row_pointers() {
        // A declared self-product, M = A = B = Bᵀ: every product
        // `a_ik·b_kj` has its probe, so push and pull differ by the scatter
        // of the `A` rows alone and stay a tie that push wins — the `mxm`
        // verb, k-truss's full product. The oriented count is what can
        // beat both.
        let a = hubs_and_leaves();
        assert_eq!(a, transpose(&a));
        let (work, half) = on_two_threads(|| self_product_plan(&a));
        assert_eq!(work.push, a.flops_with(&a));
        assert_eq!(work.pull, work.push + a.nnz() as u64);
        // One dot per unordered edge (and per self-loop), `min(d_i, d_j)`
        // probes each — the diagonal probes its own row.
        let degree = a.row_degrees();
        let edges = a.iter().filter(|&(i, j, _)| j as usize <= i);
        let bound: usize = edges
            .map(|(i, j, _)| degree[i].min(degree[j as usize]))
            .sum();
        assert_eq!(work.oriented, Some(bound as u64));
        assert!(
            bound as u64 <= work.push / 2,
            "the bound the decision rests on"
        );
        assert!(!pull_is_cheaper(work));
        // The plan that won comes with its half mask: each edge in the row
        // of its higher `(degree, index)` end.
        let half = half.expect("the oriented plan wins here");
        assert_eq!(half.probes, bound as u64);
        assert_eq!(
            2 * half.mask.nnz(),
            a.nnz() + a.iter().filter(|&(i, j, _)| i == j as usize).count()
        );
        assert!(half
            .mask
            .iter()
            .all(|(i, j, _)| (degree[j as usize], j as usize) <= (degree[i], i)));
        // The walked counts — what an undeclared product gets — agree on
        // push, stop counting pull once it has lost, and do not know the
        // third.
        let (_, walked) =
            direction_work(a.view().structure(), &a, &a, Some(&a.clone()), false, true);
        assert_eq!((walked.push, walked.oriented), (work.push, None));
        assert!(walked.pull <= work.pull && !pull_is_cheaper(walked));
        assert_eq!(auto_select(a.ncols(), walked), Algorithm::Msa);
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
        let (flops, cut) = direction_work(m.view(), &a, &b, Some(&b), false, false);
        assert_eq!(flops, None);
        assert_eq!(cut.pull, 3000 * 16);
        assert!(72_000 < cut.push && cut.push < 3000 * 64, "{cut:?}");
        assert_eq!(cut.push % 64, 0, "whole rows");
        let (flops, full) = direction_work(m.view(), &a, &b, Some(&b), false, true);
        assert_eq!(flops, Some(vec![64; 3000]));
        assert_eq!((full.push, full.pull), (3000 * 64, cut.pull));
        for work in [cut, full] {
            assert_eq!(auto_select(b.ncols(), work), Algorithm::Inner);
        }
        // One-entry `A` rows under a full mask: push's pass is the short
        // one — 8 products a row — and pull's 1 + 8 · 8 probes a row are
        // out of the race after one block.
        let (a, m) = (rows(1), rows(8).pattern());
        let (_, cut) = direction_work(m.view(), &a, &b, Some(&b), false, false);
        assert_eq!(cut.push, 3000 * 8);
        assert!(16_000 < cut.pull && cut.pull < 3000 * 65, "{cut:?}");
        assert_eq!(cut.pull % 65, 0, "whole rows");
        assert_eq!(auto_select(b.ncols(), cut), Algorithm::Msa);
    }

    #[test]
    fn the_plan_that_ran_comes_back() {
        let (visited, frontier, adj) = bc_level(64, 48, 2);
        let opts = ExecOpts::default();
        let p = Product::new(&visited, &frontier, &adj, Some(&adj)).with_mode(MaskMode::Complement);
        let run = |algo| masked_mxm::<PlusTimesI64>(&p, algo, &opts).unwrap();
        // A named algorithm is its own plan, counted by nobody; `Auto`'s
        // is what it resolved to, with what it counted.
        let (want, named) = run(Algorithm::Msa);
        assert_eq!(named, Plan::Kernel(Algorithm::Msa, None));
        let (got, plan) = run(Algorithm::Auto);
        assert_eq!(got, want);
        let work = plan.work().expect("Auto counted");
        assert_eq!(plan, Plan::Kernel(Algorithm::Inner, Some(work)));
        assert_eq!((work.push, work.oriented), (4 * 48 * 64, None));
        assert_eq!(plan.name(), "Inner");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    /// `p` on `S` under `opts`, and the plan that ran.
    fn product<S: Semiring<Left = f64, Right = f64, Out = f64>>(
        p: &Product<'_, f64, f64>,
        algo: Algorithm,
        opts: &ExecOpts<'_>,
    ) -> (Csr<f64>, Plan) {
        masked_mxm::<S>(p, algo, opts).unwrap()
    }

    #[test]
    fn oriented_self_product_equals_msa_and_inner_by_bits() {
        let a = order_sensitive();
        assert_eq!(a, transpose(&a));
        assert!((0..8).all(|hub| a.row_nnz(hub) >= 630) && a.row_nnz(13) == 0);
        assert!(a.get(41, 41).is_some(), "a self-loop");
        let default = ExecOpts::default();
        let declared = Product::self_product(&a);
        let named = |algo| {
            let (c, plan) = product::<PlusTimesF64>(&declared, algo, &default);
            assert_eq!(plan, Plan::Kernel(algo, None));
            sections(&c)
        };
        let want = named(Algorithm::Msa);
        assert_eq!(named(Algorithm::Inner), want);
        // The values really are order-sensitive: summed in descending `k`
        // some coordinate comes out different.
        let descending = |i: usize, j: Idx| {
            let (row, vals) = a.row(i);
            let terms = row.iter().zip(vals).rev();
            terms
                .filter_map(|(&k, &x)| a.get(k as usize, j).map(|&y| x * y))
                .reduce(|acc, t| acc + t)
        };
        let c = masked_mxm_with_opts::<PlusTimesF64, f64>(
            &a,
            &a,
            &a,
            Algorithm::Msa,
            MaskMode::Mask,
            Phases::One,
            &default,
        )
        .unwrap();
        assert!(
            c.iter()
                .any(|(i, j, v)| descending(i, j).map(f64::to_bits) != Some(v.to_bits())),
            "test values must tell summation orders apart"
        );

        let pool = WsPool::new();
        for threads in [1usize, 2, 4] {
            let workers = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for phases in [Phases::One, Phases::Two] {
                for ws_pool in [None, Some(&pool)] {
                    let opts = ExecOpts {
                        ws_pool,
                        ..ExecOpts::default()
                    };
                    let p = declared.with_phases(phases);
                    let (c, plan) =
                        workers.install(|| product::<PlusTimesF64>(&p, Algorithm::Auto, &opts));
                    let what = format!("{threads} threads {phases:?} pooled={}", ws_pool.is_some());
                    let work = self_product_plan(&a).0;
                    assert_eq!(plan, Plan::Oriented(Some(work)), "{what}");
                    assert_eq!(plan.name(), "oriented pull", "{what}");
                    assert_eq!(sections(&c), want, "{what}");
                }
            }
        }
        assert!(pool.hits() > 0, "the half products share the pull scratch");
    }

    #[test]
    fn every_guard_keeps_a_product_off_the_oriented_path() {
        on_two_threads(|| {
            let a = order_sensitive();
            let opts = ExecOpts::default();
            // `Auto`'s plan for `p`, and its answer checked against MSA's.
            fn judged<S: Semiring<Left = f64, Right = f64, Out = f64>>(
                p: &Product<'_, f64, f64>,
                opts: &ExecOpts<'_>,
            ) -> (Plan, Sections) {
                let (got, plan) = product::<S>(p, Algorithm::Auto, opts);
                let (want, _) = product::<S>(p, Algorithm::Msa, opts);
                assert_eq!(sections(&got), sections(&want));
                (plan, sections(&got))
            }
            let (taken, want) = judged::<PlusTimesF64>(&Product::self_product(&a), &opts);
            let work = taken.work().expect("Auto counted");
            assert_eq!(taken, Plan::Oriented(Some(work)));
            // The declaration is what counts, not the object: an equal
            // but distinct matrix declared runs oriented to the same bits…
            let twin = a.clone();
            let declared = judged::<PlusTimesF64>(&Product::self_product(&twin), &opts);
            assert_eq!(declared, (taken, want));
            // …and one object handed over four times, undeclared, does not.
            let undeclared = Product::new(&a, &a, &a, Some(&a));
            let (plan, _) = judged::<PlusTimesF64>(&undeclared, &opts);
            let counted = plan.work().expect("Auto counted");
            assert!(matches!(plan, Plan::Kernel(Algorithm::Msa, _)), "{plan:?}");
            assert_eq!((counted.push, counted.oriented), (work.push, None));
            // The complement of a symmetric mask is symmetric too, but the
            // half mask has no complemented reading.
            let complemented = Product::self_product(&a).with_mode(MaskMode::Complement);
            let (plan, _) = judged::<PlusTimesF64>(&complemented, &opts);
            assert!(matches!(plan, Plan::Kernel(..)), "{plan:?}");
            // A karate-sized product sits under the fixed charge, a long thin
            // ring under the per-entry one: neither is walked, both push.
            let circulant = |n: usize, steps: &[usize]| {
                let mut coo = mspgemm_sparse::Coo::new(n, n);
                for i in 0..n {
                    for &step in steps {
                        coo.push(i as Idx, ((i + step) % n) as Idx, 2.0);
                        coo.push(((i + step) % n) as Idx, i as Idx, 2.0);
                    }
                }
                coo.to_csr(|x, _| x)
            };
            for (graph, under_fixed) in [
                (circulant(34, &[1, 2, 5]), true),
                (circulant(30_000, &[1]), false),
            ] {
                let (plan, _) = judged::<PlusTimesF64>(&Product::self_product(&graph), &opts);
                let work = plan.work().expect("Auto counted");
                assert_eq!(work.push / 4 < ORIENTED_FIXED_COST, under_fixed);
                assert_eq!(plan, Plan::Kernel(Algorithm::Msa, Some(work)));
            }
        })
    }

    /// `mul(x, y) = x`: one operand type, but `a_ik · a_kj` is `a_ik`
    /// where the mirrored term `a_jk · a_ki` is `a_jk`.
    #[derive(Clone, Copy)]
    struct PlusFirstI64;

    impl Semiring for PlusFirstI64 {
        type Left = i64;
        type Right = i64;
        type Out = i64;
        const ZERO: i64 = 0;
        fn mul(x: i64, _: i64) -> i64 {
            x
        }
        fn add(x: i64, y: i64) -> i64 {
            x + y
        }
    }

    #[test]
    fn a_multiply_that_does_not_commute_never_runs_oriented() {
        on_two_threads(|| {
            let a = hubs_and_leaves();
            let declared = Product::self_product(&a);
            let opts = ExecOpts::default();
            let (_, plan) = masked_mxm::<PlusTimesI64>(&declared, Algorithm::Auto, &opts).unwrap();
            assert!(matches!(plan, Plan::Oriented(_)), "{plan:?}");
            // The same declared product on a multiply that does not commute:
            // `Auto` runs a kernel, and a forced oriented plan is refused.
            let first = |algo| masked_mxm::<PlusFirstI64>(&declared, algo, &opts).unwrap();
            let ((got, plan), (want, _)) = (first(Algorithm::Auto), first(Algorithm::Msa));
            assert!(matches!(plan, Plan::Kernel(..)), "{plan:?}");
            assert_eq!(got, want);
            let forced = run_plan::<PlusFirstI64>(&declared, Plan::Oriented(None), &opts);
            assert!(matches!(forced, Err(Error::Unsupported(_))), "{forced:?}");
        })
    }

    #[test]
    fn a_mask_is_read_for_its_structure_alone() {
        on_two_threads(|| {
            // Mask values no structural mask may read, on a graph whose
            // declared self-product runs oriented.
            const VALUES: [f64; 4] = [0.0, -0.0, f64::NAN, 2.0];
            let a = skewed(|u, v| VALUES[(u + 3 * v) % VALUES.len()]);
            let pattern = a.pattern();
            let opts = ExecOpts::default();
            let run = |p: &Product<'_, f64, f64>, plan| {
                let c = run_plan::<PlusTimesF64>(p, plan, &opts).unwrap();
                mspgemm_harness::csr_fingerprint(&c)
            };
            // Whatever the mask's value type, a product has one type.
            let products = [
                Product::new(&a, &a, &a, Some(&a)),
                Product::new(&pattern, &a, &a, Some(&a)),
            ];
            for algo in Algorithm::ALL {
                for mode in [MaskMode::Mask, MaskMode::Complement] {
                    if mode == MaskMode::Complement && !algo.supports_complement() {
                        continue;
                    }
                    for phases in [Phases::One, Phases::Two] {
                        let [valued, structural] = products.each_ref().map(|p| {
                            run(
                                &p.with_mode(mode).with_phases(phases),
                                Plan::Kernel(algo, None),
                            )
                        });
                        assert_eq!(valued, structural, "{algo:?} {mode:?} {phases:?}");
                    }
                }
            }
            // The declared self-product is masked by `a`, values and all.
            let want = run(&products[1], Plan::Kernel(Algorithm::Msa, None));
            for phases in [Phases::One, Phases::Two] {
                let declared = Product::self_product(&a).with_phases(phases);
                assert_eq!(run(&declared, Plan::Oriented(None)), want, "{phases:?}");
            }
        })
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a self-product needs A = Aᵀ")]
    fn declaring_a_one_way_edge_a_self_product_panics() {
        let one_way = Csr::from_dense(&[vec![None, Some(1i64)], vec![None, None]], 2);
        let _ = Product::self_product(&one_way);
    }

    #[test]
    fn a_forced_oriented_plan_checks_its_declaration_and_deadline() {
        let a = hubs_and_leaves();
        let opts = ExecOpts::default();
        let run = |p: &Product<'_, i64, i64>, plan, opts: &ExecOpts<'_>| {
            run_plan::<PlusTimesI64>(p, plan, opts)
        };
        let declared = Product::self_product(&a).with_phases(Phases::Two);
        assert_eq!(
            run(&declared, Plan::Oriented(None), &opts),
            mxm(&a.pattern(), &a, &a, Algorithm::Msa, MaskMode::Mask)
        );
        for refused in [
            run(
                &Product::new(&a, &a, &a, Some(&a)),
                Plan::Oriented(None),
                &opts,
            ),
            run(
                &declared.with_mode(MaskMode::Complement),
                Plan::Oriented(None),
                &opts,
            ),
            run(&declared, Plan::Kernel(Algorithm::Auto, None), &opts),
        ] {
            assert!(matches!(refused, Err(Error::Unsupported(_))), "{refused:?}");
        }
        let late = ExecOpts {
            deadline: std::time::Instant::now().checked_sub(std::time::Duration::from_secs(1)),
            ..opts
        };
        let r = run(&declared, Plan::Oriented(None), &late);
        assert_eq!(r.unwrap_err(), Error::DeadlineExceeded);
    }

    #[test]
    fn mirror_merges_rows_with_columns() {
        // Row 2 holds columns on both sides of its mirrored entries, row 0
        // only receives, row 3 is empty both ways, (1, 1) is a diagonal.
        let lower = Csr::from_dense(
            &[
                vec![None; 5],
                vec![Some(10), Some(11), None, None, None],
                vec![Some(20), None, None, None, Some(24)],
                vec![None; 5],
                vec![Some(40), Some(41), None, None, None],
            ],
            5,
        );
        let full = mirror(&lower);
        assert_eq!(full, transpose(&full));
        assert_eq!(full.nnz(), 2 * lower.nnz() - 1);
        for (i, j, v) in lower.iter() {
            assert_eq!(full.get(i, j), Some(v));
        }
        assert_eq!(mirror(&Csr::<i64>::empty(3, 3)), Csr::empty(3, 3));
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
