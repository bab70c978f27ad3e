//! One-phase / two-phase execution of the row-parallel algorithms
//! (paper §6) — the one driver all six schemes run through, the five push
//! kernels and the pull-based Inner alike.
//!
//! * **Two-phase** first runs a *symbolic* pass computing the exact number
//!   of output nonzeros per row, allocates the output tightly, then runs
//!   the *numeric* pass writing in place.
//! * **One-phase** skips the symbolic pass: the mask bounds every output
//!   row (`|c_i| ≤ nnz(m_i)`, or `min(flops_i, ncols − nnz(m_i))` when the
//!   mask is complemented), so slack buffers sized by a prefix sum of those
//!   bounds are filled directly and compacted once. The paper finds this
//!   usually wins for Masked SpGEMM — the mask makes the bound tight enough
//!   that the symbolic pass does not pay for itself.
//!
//! A kernel reads a normal mask row as its sorted columns and a
//! complemented one as bits ([`crate::mask`]): a
//! [`BitRows`](crate::BitRows) mask's row as it is, a CSR row set into the executor's own bit row before the row
//! and cleared after it.
//!
//! The product comes out in one of two [`OutputForm`]s: a tight CSR, or
//! — for a caller that only folds it — **on-mask values**, one slot per
//! mask entry in the mask's own storage order. Under a normal mask the
//! output is a subset of the mask (§5.4 sizes MCA's accumulator by
//! `nnz(m_i)` for that reason), so the on-mask form needs no symbolic
//! pass and no compaction: each row's kernel writes into its mask row's
//! slots, and the driver spreads the entries to their columns' slots while
//! the row is in cache. SuiteSparse:GraphBLAS's dot3 method delivers
//! `C⟨M⟩ = AᵀB` in the mask's pattern the same way.
//!
//! Rows are distributed dynamically (§6 does so for exactly the
//! skewed-input reason): the guided chunk list built by
//! [`crate::schedule`] is claimed by executors of the persistent worker
//! pool, with one reusable workspace per executor — leased from a
//! [`WsPool`] when [`ExecOpts`] carries one, so iterative callers pay zero
//! accumulator allocations in steady state. Every row writes into an
//! index-addressed range from a prefix sum, so the output is bit-identical
//! across thread counts.

use crate::dispatch::{Error, Product};
use crate::mask::MaskRef;
use crate::schedule::{row_chunks, ExecOpts, ProbeCounts, ProductCounts, WsPool};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::util::{split_entries, split_rows, SlackRows};
use mspgemm_sparse::{Csr, CsrRef, Idx};
use rayon::prelude::*;
use std::any::Any;
use std::ops::Range;
use std::time::Instant;

/// Execution strategy (§6): with (`Two`) or without (`One`) a symbolic
/// phase. Suffixes `-1P`/`-2P` in the paper's plots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phases {
    /// Single numeric pass into mask-bounded slack buffers + compaction.
    One,
    /// Symbolic sizing pass, then an exact numeric pass.
    Two,
}

impl std::str::FromStr for Phases {
    type Err = String;

    /// Parse a phase strategy as the CLI spells it: `1`/`one`/`1p` or
    /// `2`/`two`/`2p` (case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "1" | "one" | "1p" => Ok(Phases::One),
            "2" | "two" | "2p" => Ok(Phases::Two),
            other => Err(format!("unknown phase strategy '{other}' (expected 1|2)")),
        }
    }
}

/// What a product is delivered as: [`AsCsr`] or [`OnMask`]. The form is
/// a type, so a call returns the one it asked for, [`OutputForm::Of`].
pub trait OutputForm: Copy {
    /// A product of `T` values in this form.
    type Of<T>;
    /// Whether the form holds one slot per mask entry, which only a
    /// normal mask bounds.
    const ON_MASK: bool;
    /// Drive `kernel` over the rows of a checked `p`, partitioned into
    /// `chunks` (see [`run_kernel`]).
    ///
    /// # Errors
    /// [`Error::DeadlineExceeded`] between the passes of a two-phase run.
    fn drive<S: Semiring, K: RowKernel<S>>(
        p: &Product<'_, S::Left, S::Right>,
        kernel: &K,
        row_flops: Option<Vec<u64>>,
        chunks: &[Range<usize>],
        opts: &ExecOpts<'_>,
    ) -> Result<Self::Of<S::Out>, Error>;
    /// A CSR product in this form, where the form takes one: the oriented
    /// plan mirrors a CSR.
    fn from_csr<T>(c: Csr<T>) -> Option<Self::Of<T>>;
}

/// A tight CSR: the entries the product holds, row by row.
#[derive(Clone, Copy, Debug)]
pub struct AsCsr;

/// One value per mask entry, in the mask's storage order; an entry the
/// product does not hold is `Out::default()`. A normal mask and a kernel
/// plan only: the mask must bound the output. Its size is the mask's, so
/// it has no symbolic pass under either [`Phases`].
#[derive(Clone, Copy, Debug)]
pub struct OnMask;

impl OutputForm for AsCsr {
    type Of<T> = Csr<T>;
    const ON_MASK: bool = false;

    fn drive<S: Semiring, K: RowKernel<S>>(
        p: &Product<'_, S::Left, S::Right>,
        kernel: &K,
        row_flops: Option<Vec<u64>>,
        chunks: &[Range<usize>],
        opts: &ExecOpts<'_>,
    ) -> Result<Csr<S::Out>, Error> {
        match p.phases {
            Phases::One => {
                let flops = row_flops.or_else(|| {
                    p.complement().then(|| {
                        let _span = mspgemm_obs::span("flop-prefix");
                        driven_row_flops(p.mask, p.a, p.b, true)
                    })
                });
                run_one_phase(p, kernel, flops.as_deref(), chunks, opts)
            }
            Phases::Two => run_two_phase(p, kernel, chunks, opts),
        }
    }

    fn from_csr<T>(c: Csr<T>) -> Option<Csr<T>> {
        Some(c)
    }
}

impl OutputForm for OnMask {
    type Of<T> = Vec<T>;
    const ON_MASK: bool = true;

    fn drive<S: Semiring, K: RowKernel<S>>(
        p: &Product<'_, S::Left, S::Right>,
        kernel: &K,
        _: Option<Vec<u64>>,
        chunks: &[Range<usize>],
        opts: &ExecOpts<'_>,
    ) -> Result<Vec<S::Out>, Error> {
        Ok(run_on_mask(p, kernel, chunks, opts))
    }

    fn from_csr<T>(_: Csr<T>) -> Option<Vec<T>> {
        None
    }
}

/// Everything a kernel needs to produce one output row.
pub struct RowCtx<'a, S: Semiring> {
    /// Sorted mask columns of this row under a normal mask; empty under a
    /// complemented one, which the kernel reads as [`RowCtx::mask_bits`].
    pub mask_cols: &'a [Idx],
    /// A complemented mask's row as bits, `⌈ncols/64⌉` words: column `j`
    /// is masked out when [`bit`](crate::mask::bit)`(mask_bits, j)`.
    /// Empty under a normal mask.
    pub mask_bits: &'a [u64],
    /// Entries of the mask row, in either form.
    pub mask_nnz: usize,
    /// Sorted column indices of the `A` row.
    pub a_cols: &'a [Idx],
    /// Values of the `A` row.
    pub a_vals: &'a [S::Left],
    /// The full `B` matrix as a borrowed view (kernels fetch rows `B_k*`
    /// for `A_ik ≠ 0`) — storage-agnostic, so mmap-backed operands flow
    /// through the kernels with no copies.
    pub b: CsrRef<'a, S::Right>,
}

/// A Masked SpGEVM kernel: computes one output row given one mask row and
/// one `A` row (§5's row-by-row formulation, `c_i = m_i ⊙ Σ_k a_ik · B_k*`).
/// The push kernels gather rows of [`RowCtx::b`]; the pull kernel
/// ([`crate::algos::inner::InnerKernel`]) dots against its own `Bᵀ`.
pub trait RowKernel<S: Semiring>: Sync {
    /// Per-thread reusable scratch (the accumulator). `'static` so it can
    /// be parked in a [`WsPool`] across calls.
    type Ws: Send + 'static;

    /// Allocate scratch for a matrix with `ncols` output columns.
    fn make_ws(&self, ncols: usize) -> Self::Ws;

    /// Distinguishes kernel configurations whose workspaces share a type
    /// but are **not** interchangeable (e.g. MSA's normal vs complemented
    /// dense-array defaults). [`WsPool`] keys on it; configurations that
    /// produce identical workspaces can share the default `0`.
    fn ws_tag(&self) -> u64 {
        0
    }

    /// Whether [`make_ws`](Self::make_ws) output depends on `ncols`.
    /// Kernels whose scratch is row-adaptive (hash tables, heaps,
    /// mask-rank arrays) return `false`, so a [`WsPool`] shares their
    /// workspaces across output widths — e.g. across the datasets of one
    /// suite sweep.
    fn ws_depends_on_ncols(&self) -> bool {
        true
    }

    /// Hand over (and zero) the products the workspace counted since the
    /// last call — see [`ProductCounts`]. Kernels that do not count
    /// report nothing.
    fn take_product_counts(_ws: &mut Self::Ws) -> ProductCounts {
        ProductCounts::default()
    }

    /// Hand over (and zero) the probes the workspace counted since the
    /// last call — see [`ProbeCounts`]; the pull kernel's counterpart of
    /// [`take_product_counts`](Self::take_product_counts).
    fn take_probe_counts(_ws: &mut Self::Ws) -> ProbeCounts {
        ProbeCounts::default()
    }

    /// Symbolic pass: the exact number of entries row `i` will produce.
    fn row_symbolic(&self, ws: &mut Self::Ws, ctx: RowCtx<'_, S>) -> usize;

    /// Numeric pass: write the row into `out_cols`/`out_vals` (sorted by
    /// column); returns the entry count. The slices are large enough for
    /// the row's bound.
    fn row_numeric(
        &self,
        ws: &mut Self::Ws,
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize;
}

/// A leased workspace: taken from the pool (or freshly built) when an
/// executor starts claiming chunks, returned to the pool on drop. Also
/// accumulates the executor's busy seconds locally, reporting the total
/// — and the products and probes the workspace counted — once at lease
/// end so no shared state sits inside the timed region.
struct WsLease<'a, W: Any + Send> {
    ws: Option<W>,
    /// The executor's bit row for a complemented CSR mask ([`with_row`]):
    /// all clear between rows, allocated by the first row that needs it.
    bits: Vec<u64>,
    pool: Option<&'a WsPool>,
    stats: Option<&'a crate::schedule::ExecStats>,
    busy: f64,
    tag: u64,
    ncols: usize,
    take_counts: TakeCounts<W>,
}

/// Drains a workspace's counters: [`RowKernel::take_product_counts`] and
/// [`RowKernel::take_probe_counts`] of its kernel.
type TakeCounts<W> = fn(&mut W) -> (ProductCounts, ProbeCounts);

impl<'a, W: Any + Send> WsLease<'a, W> {
    fn new(
        pool: Option<&'a WsPool>,
        stats: Option<&'a crate::schedule::ExecStats>,
        tag: u64,
        ncols: usize,
        take_counts: TakeCounts<W>,
        make: impl FnOnce() -> W,
    ) -> Self {
        let ws = match pool {
            Some(p) => p.take(tag, ncols, make),
            None => make(),
        };
        Self {
            ws: Some(ws),
            bits: Vec::new(),
            pool,
            stats,
            busy: 0.0,
            tag,
            ncols,
            take_counts,
        }
    }

    /// The workspace and the bit row.
    fn get(&mut self) -> (&mut W, &mut Vec<u64>) {
        let ws = self.ws.as_mut().expect("workspace leased out");
        (ws, &mut self.bits)
    }
}

impl<W: Any + Send> Drop for WsLease<'_, W> {
    fn drop(&mut self) {
        // Never park a workspace while unwinding: a panic mid-row leaves
        // the accumulator dirty, and a pooled dirty accumulator would
        // silently corrupt a later product.
        if std::thread::panicking() {
            return;
        }
        let Some(mut ws) = self.ws.take() else {
            return;
        };
        // Drained even when nobody records: a parked workspace must not
        // carry this drive's counts into the next one's report.
        let (products, probes) = (self.take_counts)(&mut ws);
        if let Some(pool) = self.pool {
            pool.put(self.tag, self.ncols, ws);
        }
        if let Some(stats) = self.stats {
            if self.busy > 0.0 {
                stats.record(self.busy);
            }
            stats.record_counts(products, probes);
        }
    }
}

/// Drive `chunk` over every part — one per chunk of the [`row_chunks`]
/// list, holding that chunk's rows and output windows — with one leased
/// workspace and one bit row ([`with_row`]) per executor.
/// `with_max_len(1)` pins every part as its own claim unit: the drive
/// must not re-group the partition. Records per-executor busy time
/// (rank-folded at drive end) when `opts.stats` is set.
fn run_rows<S, K, P: Send>(
    parts: &mut [P],
    opts: &ExecOpts<'_>,
    kernel: &K,
    ncols: usize,
    chunk: impl Fn(&mut K::Ws, &mut Vec<u64>, &mut P) + Sync,
) where
    S: Semiring,
    K: RowKernel<S>,
{
    // ncols-independent workspaces share one shelf across output widths.
    let key_ncols = if kernel.ws_depends_on_ncols() {
        ncols
    } else {
        0
    };
    parts.par_iter_mut().with_max_len(1).for_each_init(
        || {
            WsLease::new(
                opts.ws_pool,
                opts.stats,
                kernel.ws_tag(),
                key_ncols,
                |ws| (K::take_product_counts(ws), K::take_probe_counts(ws)),
                || kernel.make_ws(ncols),
            )
        },
        |lease, part| {
            let t0 = lease.stats.map(|_| Instant::now());
            let (ws, bits) = lease.get();
            chunk(ws, bits, part);
            if let Some(t0) = t0 {
                lease.busy += t0.elapsed().as_secs_f64();
            }
        },
    );
    if let Some(stats) = opts.stats {
        stats.fold_drive();
    }
}

/// Per-row output upper bounds for the one-phase pass.
///
/// Normal mask: the output is a subset of the mask row. Complemented mask:
/// at most one entry per product (`flops_i`, counted once per product,
/// see [`run_kernel`]) and at most the non-mask columns.
pub(crate) fn one_phase_bounds(
    mask: MaskRef<'_>,
    ncols: usize,
    complement: bool,
    flops: Option<&[u64]>,
) -> Vec<usize> {
    if !complement {
        (0..mask.nrows())
            .into_par_iter()
            .map(|i| mask.row_nnz(i))
            .collect()
    } else {
        let flops = flops.expect("complemented one-phase bounds need per-row flops");
        (0..mask.nrows())
            .into_par_iter()
            .map(|i| {
                let f = usize::try_from(flops[i]).unwrap_or(usize::MAX);
                f.min(ncols - mask.row_nnz(i))
            })
            .collect()
    }
}

/// Whether row `i` emits nothing whatever `A·B` holds: under a normal
/// mask, a row the mask leaves empty. Every pass skips such rows before
/// forming a product, so a sparse mask (the recount passes of incremental
/// triangle counting and k-truss) pays for the rows it touches only.
#[inline]
pub(crate) fn masked_out(mask: MaskRef<'_>, complement: bool, i: usize) -> bool {
    !complement && mask.row_nnz(i) == 0
}

/// `flops_i = Σ_{A_ik≠0} nnz(B_k*)` of row `i` as the drive will run it:
/// `0` for a row it skips ([`masked_out`]), whose `A` row is not even
/// walked.
#[inline]
pub(crate) fn driven_flops<L, R>(
    mask: MaskRef<'_>,
    a: &Csr<L>,
    b: &Csr<R>,
    complement: bool,
    i: usize,
) -> u64 {
    if masked_out(mask, complement, i) {
        return 0;
    }
    let cols = a.row_cols(i).iter();
    cols.map(|&k| b.row_nnz(k as usize) as u64).sum()
}

/// [`driven_flops`] of every row; their sum is the products a push kernel
/// forms.
pub(crate) fn driven_row_flops<L, R>(
    mask: MaskRef<'_>,
    a: &Csr<L>,
    b: &Csr<R>,
    complement: bool,
) -> Vec<u64>
where
    L: Send + Sync,
    R: Send + Sync,
{
    (0..mask.nrows())
        .into_par_iter()
        .map(|i| driven_flops(mask, a, b, complement, i))
        .collect()
}

/// `f` of row `i` of `p` as its kernel sees it; `None`, without calling
/// `f`, for a row the drive skips ([`masked_out`]). A complemented CSR
/// mask row is set into the executor's `bits` for the call and cleared
/// after it, `O(|m_i|)`, so every complemented row reaches a kernel as
/// bits.
fn with_row<'a, S: Semiring, T>(
    p: &Product<'a, S::Left, S::Right>,
    b: CsrRef<'a, S::Right>,
    bits: &mut Vec<u64>,
    i: usize,
    f: impl FnOnce(RowCtx<'_, S>) -> T,
) -> Option<T> {
    let (a_cols, a_vals) = (p.a.row_cols(i), p.a.row_vals(i));
    let ctx = |mask_cols, mask_bits, mask_nnz| RowCtx {
        mask_cols,
        mask_bits,
        mask_nnz,
        a_cols,
        a_vals,
        b,
    };
    match p.mask {
        _ if masked_out(p.mask, p.complement(), i) => None,
        MaskRef::Bits(m) => Some(f(ctx(&[], m.row(i), m.row_ones(i)))),
        MaskRef::Csr(m) if !p.complement() => Some(f(ctx(m.row_cols(i), &[], m.row_nnz(i)))),
        MaskRef::Csr(m) => {
            let cols = m.row_cols(i);
            if bits.is_empty() {
                bits.resize(m.ncols().div_ceil(64), 0);
            }
            for &j in cols {
                bits[j as usize / 64] |= 1 << (j % 64);
            }
            let out = f(ctx(&[], bits, cols.len()));
            // The bit row holds this row's bits alone.
            for &j in cols {
                bits[j as usize / 64] = 0;
            }
            Some(out)
        }
    }
}

/// Whether the options' cancellation deadline has passed.
fn expired(opts: &ExecOpts<'_>) -> bool {
    opts.deadline.is_some_and(|d| Instant::now() >= d)
}

/// Run a row kernel over all rows of `p` — its mask mode and phase
/// strategy — under the given execution options (workspace pool,
/// busy-time stats, deadline). `p`'s `Bᵀ` is not read here: a pull
/// kernel carries the one it reads.
///
/// The per-row flop count `flops_i = Σ_{A_ik≠0} nnz(B_k*)` is computed at
/// most once per product: `row_flops` hands it in when the caller already
/// counted it (the dispatch's `Auto` decision does); otherwise it is
/// counted here if its one consumer, the complemented one-phase bound,
/// needs it.
///
/// # Errors
/// [`Error::DeadlineExceeded`] when [`ExecOpts::deadline`] has passed at a
/// phase boundary — before any pass starts, or between the symbolic and
/// numeric passes of a two-phase run. A drive never aborts mid-pass; the
/// output, when produced, is always complete. [`Error::Unsupported`] for
/// a bit-row mask under [`MaskMode::Mask`](crate::MaskMode::Mask).
pub fn run_kernel<S, K>(
    p: &Product<'_, S::Left, S::Right>,
    kernel: &K,
    row_flops: Option<Vec<u64>>,
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    K: RowKernel<S>,
{
    deliver::<S, K, AsCsr>(p, kernel, row_flops, opts)
}

/// [`run_kernel`] into the form `F`.
///
/// # Errors
/// As [`run_kernel`]; also [`Error::Unsupported`] for [`OnMask`] under a
/// complemented mask.
pub(crate) fn deliver<S, K, F>(
    p: &Product<'_, S::Left, S::Right>,
    kernel: &K,
    row_flops: Option<Vec<u64>>,
    opts: &ExecOpts<'_>,
) -> Result<F::Of<S::Out>, Error>
where
    S: Semiring,
    K: RowKernel<S>,
    F: OutputForm,
{
    if matches!(p.mask, MaskRef::Bits(_)) && !p.complement() {
        // A kernel walks a normal mask row's columns, which bits do not list.
        return Err(Error::Unsupported(
            "a bit-row mask is read complemented only",
        ));
    }
    if F::ON_MASK && p.complement() {
        return Err(Error::Unsupported(
            "on-mask output needs a normal mask: a complemented one does not bound the output",
        ));
    }
    if expired(opts) {
        return Err(Error::DeadlineExceeded);
    }
    let threads = rayon::current_num_threads().max(1);
    let chunks = row_chunks(p.mask.nrows(), threads);
    F::drive::<S, K>(p, kernel, row_flops, &chunks, opts)
}

fn run_one_phase<S, K>(
    p: &Product<'_, S::Left, S::Right>,
    kernel: &K,
    flops: Option<&[u64]>,
    chunks: &[Range<usize>],
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    K: RowKernel<S>,
{
    let ncols = p.b.ncols();
    let bounds = one_phase_bounds(p.mask, ncols, p.complement(), flops);
    // Last boundary before the (only) numeric pass: the bound/prefix work
    // above is cheap, the pass below is not.
    if expired(opts) {
        return Err(Error::DeadlineExceeded);
    }
    let out = numeric_rows(p, kernel, &bounds, chunks, opts);
    let _span = mspgemm_obs::span("compaction");
    Ok(out.into_csr(ncols))
}

fn run_two_phase<S, K>(
    p: &Product<'_, S::Left, S::Right>,
    kernel: &K,
    chunks: &[Range<usize>],
    opts: &ExecOpts<'_>,
) -> Result<Csr<S::Out>, Error>
where
    S: Semiring,
    K: RowKernel<S>,
{
    let (nrows, ncols, bv) = (p.mask.nrows(), p.b.ncols(), p.b.view());
    // Symbolic phase: exact per-row sizes.
    let mut sizes = vec![0usize; nrows];
    {
        // Failpoint `kernel.symbolic` — see `kernel.numeric` in
        // `numeric_pass`.
        if let Some(msg) = mspgemm_fault::fire("kernel.symbolic") {
            panic!("failpoint kernel.symbolic: {msg}");
        }
        let _span = mspgemm_obs::span("symbolic");
        let mut parts: Vec<_> = chunks.iter().zip(split_rows(&mut sizes, chunks)).collect();
        run_rows::<S, K, _>(
            &mut parts,
            opts,
            kernel,
            ncols,
            |ws, bits, (rows, sizes)| {
                for (i, size) in (*rows).clone().zip(sizes.iter_mut()) {
                    if let Some(n) = with_row(p, bv, bits, i, |ctx| kernel.row_symbolic(ws, ctx)) {
                        *size = n;
                    }
                }
            },
        );
    }
    // The boundary this strategy exists for: the symbolic pass sized the
    // output, the numeric pass pays for it — drop expired work here.
    if expired(opts) {
        return Err(Error::DeadlineExceeded);
    }
    // Numeric phase into the exact allocation, over the same chunk list.
    Ok(numeric_rows(p, kernel, &sizes, chunks, opts).into_csr(ncols))
}

/// The CSR form's numeric pass: every row the drive does not skip
/// ([`masked_out`]) writes into its room of `rooms[i]` entries and its
/// entry count into its size slot.
fn numeric_rows<S, K>(
    p: &Product<'_, S::Left, S::Right>,
    kernel: &K,
    rooms: &[usize],
    chunks: &[Range<usize>],
    opts: &ExecOpts<'_>,
) -> SlackRows<S::Out>
where
    S: Semiring,
    K: RowKernel<S>,
{
    let mut out = SlackRows::new(rooms, S::Out::default());
    let bv = p.b.view();
    numeric_pass(
        p,
        kernel,
        &mut out.windows(chunks),
        opts,
        |ws, bits, window| {
            for (i, oc, ov, size) in window.rows_mut() {
                if let Some(n) = with_row(p, bv, bits, i, |ctx| kernel.row_numeric(ws, ctx, oc, ov))
                {
                    *size = n;
                }
            }
        },
    );
    out
}

/// The on-mask form's one pass: row `i`'s kernel writes its entries into
/// the front of the mask row's own slots, their columns into a scratch
/// of the row's length, and [`spread`] moves each value to its column's
/// slot. A row the drive skips ([`masked_out`]) has no slots.
fn run_on_mask<S, K>(
    p: &Product<'_, S::Left, S::Right>,
    kernel: &K,
    chunks: &[Range<usize>],
    opts: &ExecOpts<'_>,
) -> Vec<S::Out>
where
    S: Semiring,
    K: RowKernel<S>,
{
    let MaskRef::Csr(mask) = p.mask else {
        unreachable!("a normal mask is a CSR")
    };
    let (ptr, bv) = (mask.rowptr(), p.b.view());
    let mut vals = vec![S::Out::default(); mask.nnz()];
    let mut parts: Vec<_> = (chunks.iter())
        .zip(split_entries(&mut vals, ptr, chunks))
        .collect();
    numeric_pass(p, kernel, &mut parts, opts, |ws, bits, (rows, slots)| {
        let (base, mut cols) = (ptr[rows.start], Vec::new());
        for i in (*rows).clone() {
            let row = &mut slots[ptr[i] - base..ptr[i + 1] - base];
            cols.resize(row.len(), 0);
            let numeric = with_row(p, bv, bits, i, |ctx| {
                kernel.row_numeric(ws, ctx, &mut cols, row)
            });
            if let Some(n) = numeric {
                spread(mask.row_cols(i), &cols[..n], row);
            }
        }
    });
    vals
}

/// Move the values a kernel wrote to the front of `slots`, at columns
/// `cols` (sorted, a subset of the sorted `mask_cols`), to their columns'
/// slots, and set every other slot to the default. It walks from the back,
/// so a value moves before anything overwrites it: the `t`-th value's
/// column is at least the `t`-th mask column.
///
/// # Panics
/// If a column of `cols` is not in `mask_cols`.
fn spread<T: Copy + Default>(mask_cols: &[Idx], cols: &[Idx], slots: &mut [T]) {
    let mut t = cols.len();
    if t == slots.len() {
        return;
    }
    for (s, &j) in mask_cols.iter().enumerate().rev() {
        slots[s] = if t > 0 && cols[t - 1] == j {
            t -= 1;
            slots[t]
        } else {
            T::default()
        };
    }
    assert_eq!(t, 0, "a kernel emitted a column outside its mask row");
}

/// The numeric pass of either form and strategy: `chunk` over every part,
/// one per chunk of the row partition.
fn numeric_pass<S, K, P: Send>(
    p: &Product<'_, S::Left, S::Right>,
    kernel: &K,
    parts: &mut [P],
    opts: &ExecOpts<'_>,
    chunk: impl Fn(&mut K::Ws, &mut Vec<u64>, &mut P) + Sync,
) where
    S: Semiring,
    K: RowKernel<S>,
{
    // Failpoint `kernel.numeric`: an injected panic or stall at the top of
    // the pass. An `err` task panics too — the kernel error enum is
    // closed, and the serve layer catches panics anyway.
    if let Some(msg) = mspgemm_fault::fire("kernel.numeric") {
        panic!("failpoint kernel.numeric: {msg}");
    }
    let _span = mspgemm_obs::span("numeric");
    run_rows::<S, K, _>(parts, opts, kernel, p.b.ncols(), chunk);
}
