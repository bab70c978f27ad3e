//! Row partitioning, cross-call workspace pooling, and per-thread
//! busy-time accounting for the row-parallel drives.
//!
//! ## Row chunks
//!
//! Power-law inputs (R-MAT, web/social graphs) concentrate most of the
//! flops of `A·B` in a few heavy rows. `row_chunks` splits the rows into
//! contiguous chunks of geometrically decreasing size that executors claim
//! from an atomic cursor (guided self-scheduling, the paper's dynamic row
//! distribution, §6): heavy early chunks do not pin a whole thread's
//! share, at the cost of one `fetch_add` per chunk, and no input analysis
//! is needed.
//!
//! The partition never changes results: every row writes to an
//! index-addressed output range derived from a prefix sum, so the output
//! CSR is bit-identical across thread counts.
//!
//! ## Workspace pooling
//!
//! [`WsPool`] caches accumulator scratch (the `RowKernel::Ws` of each
//! kernel — hash tables, dense MSA arrays, heaps) across `run_kernel`
//! invocations, keyed by workspace type, kernel configuration tag, and
//! `ncols`. Iterative applications (k-truss, BC) issue one masked product
//! per convergence step; with a pool threaded through, steady-state
//! products perform **zero accumulator allocations** — each executor
//! leases a workspace at drive start and returns it at drive end.
//!
//! [`ExecStats`] records per-thread busy seconds inside the row loops, the
//! raw material for the load-imbalance (max/mean) figure the CLI reports,
//! and the [`ProductCounts`] the MSA row entry keeps (products formed vs.
//! admitted by the mask — the paper's wasted-work figure) beside the
//! [`ProbeCounts`] the pull kernel keeps (probes made vs. hit).

use crate::dispatch::{Algorithm, DirectionWork};
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Smallest chunk handed out: keeps the cursor traffic and per-chunk
/// bookkeeping amortized over a useful batch of rows near the tail.
const GUIDED_MIN_CHUNK: usize = 8;

/// The row chunk list: contiguous chunks partitioning `0..nrows` exactly,
/// in row order, one chunk when `threads` is 1.
pub(crate) fn row_chunks(nrows: usize, threads: usize) -> Vec<Range<usize>> {
    let threads = threads.max(1);
    if nrows == 0 {
        return Vec::new();
    }
    if threads == 1 {
        return std::iter::once(0..nrows).collect();
    }
    // Textbook guided self-scheduling hands out `remaining / 2T` rows per
    // claim, but its biggest chunk comes *first* — the worst shape when
    // heavy rows are front-loaded (degree-sorted graphs). Capping every
    // chunk at `n / 8T` spreads such a hub prefix over several
    // dynamically-claimed chunks while the tail still decays to keep
    // cursor traffic low.
    let cap = nrows.div_ceil(8 * threads).max(GUIDED_MIN_CHUNK);
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < nrows {
        let rem = nrows - start;
        let len = rem
            .div_ceil(2 * threads)
            .min(cap)
            .max(GUIDED_MIN_CHUNK)
            .min(rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Shelf key: workspace type, kernel configuration tag, output width.
type ShelfKey = (TypeId, u64, usize);

/// Lock a mutex, recovering from poison: a panicking kernel (fault
/// injection, or a real bug) must not wedge the pool or the stats for
/// every later request. The guarded data stays structurally valid —
/// these critical sections only push/pop/clear plain collections.
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A cross-call cache of kernel workspaces (accumulator scratch), keyed by
/// workspace type, kernel configuration tag, and `ncols`.
///
/// Thread-safe: executors `take` a workspace when a drive starts and `put`
/// it back when the drive ends, so the shelf holds at most one workspace
/// per executor that ever ran concurrently. After one warmup call, a
/// steady-state `run_kernel` driven through the same pool allocates no
/// accumulators at all — every `take` is a hit.
#[derive(Default)]
pub struct WsPool {
    shelves: Mutex<HashMap<ShelfKey, Vec<Box<dyn Any + Send>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl WsPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lease a workspace: reuse a cached one when available, else build
    /// with `make` (counted as a miss).
    pub(crate) fn take<W: Any + Send>(
        &self,
        tag: u64,
        ncols: usize,
        make: impl FnOnce() -> W,
    ) -> W {
        let key = (TypeId::of::<W>(), tag, ncols);
        let cached = relock(&self.shelves)
            .get_mut(&key)
            .and_then(|shelf| shelf.pop());
        match cached {
            Some(boxed) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                *boxed.downcast::<W>().expect("WsPool: key/type mismatch")
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                make()
            }
        }
    }

    /// Return a leased workspace for future reuse.
    pub(crate) fn put<W: Any + Send>(&self, tag: u64, ncols: usize, ws: W) {
        let key = (TypeId::of::<W>(), tag, ncols);
        relock(&self.shelves)
            .entry(key)
            .or_default()
            .push(Box::new(ws));
    }

    /// Number of leases served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of leases that had to allocate a fresh workspace.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Workspaces currently parked in the pool.
    pub fn retained(&self) -> usize {
        relock(&self.shelves).values().map(Vec::len).sum()
    }

    /// Drop every parked workspace (the caller's eviction lever: shelves
    /// otherwise grow to one workspace per concurrent executor per
    /// distinct (type, tag, width) combination and live as long as the
    /// pool). Counters are preserved.
    pub fn clear(&self) {
        relock(&self.shelves).clear();
    }
}

/// The paper's wasted-work pair for one stretch of numeric rows: how many
/// products `a_ik · b_kj` the push kernel formed (walked in `B`) and how
/// many of those the mask admitted into the accumulator. Their gap is the
/// work a masked product throws away. Counted by the MSA row entry (once
/// per B row, inside the workspace) and folded into [`ExecStats`] when the
/// executor's lease ends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProductCounts {
    /// Products formed: `Σ nnz(B_k*)` over the `A` entries visited.
    pub formed: u64,
    /// Products whose column the mask admitted.
    pub admitted: u64,
}

impl ProductCounts {
    /// Share of formed products the mask discarded (`0.0` when nothing
    /// was formed).
    pub fn wasted_ratio(&self) -> f64 {
        if self.formed == 0 {
            0.0
        } else {
            1.0 - self.admitted as f64 / self.formed as f64
        }
    }
}

/// The pull kernel's pair for one stretch of numeric rows: how many probes
/// of the scattered `A` row its dots made (`Σ |Bᵀ_j|` over the candidates)
/// and how many of them hit an `A` entry, i.e. formed a product. Their
/// ratio is what the kernel picks its probe loop by. Counted in the pull
/// kernel's workspace and folded into [`ExecStats`] when the executor's
/// lease ends, like [`ProductCounts`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Probes made: one per entry of every candidate `Bᵀ` row walked.
    pub probes: u64,
    /// Probes that found an `A` entry.
    pub hits: u64,
}

impl ProbeCounts {
    /// Share of probes that hit (`0.0` when none was made).
    pub fn hit_ratio(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }
}

/// What [`Algorithm::Auto`] resolved to for one product, with the counted
/// work it compared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AutoChoice {
    /// The concrete algorithm that ran.
    pub algo: Algorithm,
    /// Push products against pull probes, as counted for the decision. A
    /// product that ran as
    /// [`oriented_self_product`](crate::dispatch::oriented_self_product)
    /// — `algo` is then the pull kernel, over half the mask — carries its
    /// third count, [`DirectionWork::oriented`]; no other product does.
    pub work: DirectionWork,
}

/// Per-executor busy-time accounting for the row loops.
///
/// Each executor workspace lease accumulates the wall-clock seconds its
/// owner spent processing chunks and reports the total once when the
/// lease ends (one mutex touch per executor per drive — nothing shared
/// sits inside the timed region). At the end of each drive the per-lease
/// spans are *rank-folded*: sorted descending and added into rank-indexed
/// buckets, so "rank 0" always means "the busiest executor of each
/// drive", no matter which pool worker happened to claim the slot that
/// time. The max/mean spread over the rank buckets is the load-imbalance
/// figure (1.0 = perfectly balanced).
#[derive(Default)]
pub struct ExecStats {
    /// Per-lease busy spans of the drive currently in flight.
    current: Mutex<Vec<f64>>,
    /// Rank-folded totals across completed drives (rank 0 = busiest).
    ranks: Mutex<Vec<f64>>,
    /// Products formed / admitted, summed over every lease reported.
    formed: AtomicU64,
    admitted: AtomicU64,
    /// Pull probes made / hit, summed over every lease reported.
    probes: AtomicU64,
    hits: AtomicU64,
    /// The latest `Auto` resolution recorded.
    auto: Mutex<Option<AutoChoice>>,
}

impl ExecStats {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Report one executor lease's total busy seconds for the drive in
    /// flight.
    pub(crate) fn record(&self, seconds: f64) {
        relock(&self.current).push(seconds);
    }

    /// Report the products one executor lease formed and admitted, and the
    /// probes it made and hit.
    pub(crate) fn record_counts(&self, products: ProductCounts, probes: ProbeCounts) {
        self.formed.fetch_add(products.formed, Ordering::Relaxed);
        self.admitted
            .fetch_add(products.admitted, Ordering::Relaxed);
        self.probes.fetch_add(probes.probes, Ordering::Relaxed);
        self.hits.fetch_add(probes.hits, Ordering::Relaxed);
    }

    /// Products formed and admitted across every drive recorded so far
    /// (numeric passes of the MSA kernel; other kernels report nothing).
    pub fn products(&self) -> ProductCounts {
        ProductCounts {
            formed: self.formed.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
        }
    }

    /// Probes made and hit across every drive recorded so far (numeric
    /// passes of the pull kernel; other kernels report nothing).
    pub fn probes(&self) -> ProbeCounts {
        ProbeCounts {
            probes: self.probes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// Report what `Auto` resolved to for the product about to run.
    pub(crate) fn record_auto(&self, choice: AutoChoice) {
        *relock(&self.auto) = Some(choice);
    }

    /// The most recent product's `Auto` resolution; `None` when no
    /// recorded product asked for [`Algorithm::Auto`].
    pub fn auto_choice(&self) -> Option<AutoChoice> {
        *relock(&self.auto)
    }

    /// Close the drive in flight: rank-fold its per-lease spans into the
    /// cross-drive buckets.
    pub(crate) fn fold_drive(&self) {
        let mut spans = std::mem::take(&mut *relock(&self.current));
        if spans.is_empty() {
            return;
        }
        spans.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let mut ranks = relock(&self.ranks);
        if ranks.len() < spans.len() {
            ranks.resize(spans.len(), 0.0);
        }
        for (rank, s) in spans.into_iter().enumerate() {
            ranks[rank] += s;
        }
    }

    /// Busy seconds per executor rank, descending (rank 0 aggregates the
    /// busiest executor of every drive).
    pub fn busy_seconds(&self) -> Vec<f64> {
        self.fold_drive();
        relock(&self.ranks).clone()
    }

    /// Clear all buckets (e.g. between timed repetitions).
    pub fn reset(&self) {
        relock(&self.current).clear();
        relock(&self.ranks).clear();
        self.formed.store(0, Ordering::Relaxed);
        self.admitted.store(0, Ordering::Relaxed);
        self.probes.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        *relock(&self.auto) = None;
    }
}

/// Execution options for the row-parallel drives: optional cross-call
/// workspace pool, optional busy-time recorder, optional deadline.
///
/// `Default` has no pool, no stats and no deadline — safe for one-shot
/// calls; iterative callers should thread a [`WsPool`] through.
#[derive(Clone, Copy, Default)]
pub struct ExecOpts<'a> {
    /// Cross-call accumulator cache; `None` allocates per drive.
    pub ws_pool: Option<&'a WsPool>,
    /// Busy-time recorder; `None` skips the timing instrumentation.
    pub stats: Option<&'a ExecStats>,
    /// Cooperative cancellation deadline. Checked at phase boundaries
    /// (drive entry, and between the symbolic and numeric passes), so an
    /// expired request is dropped before its most expensive work instead
    /// of running to completion; the drive returns
    /// [`crate::Error::DeadlineExceeded`]. `None` never cancels.
    pub deadline: Option<std::time::Instant>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_partition(chunks: &[Range<usize>], nrows: usize) {
        let mut next = 0usize;
        for c in chunks {
            assert_eq!(c.start, next, "chunks must be contiguous in order");
            assert!(c.end > c.start, "empty chunk");
            next = c.end;
        }
        assert_eq!(next, nrows, "chunks must cover all rows");
    }

    #[test]
    fn guided_chunks_decrease_and_partition() {
        let chunks = row_chunks(10_000, 4);
        assert_partition(&chunks, 10_000);
        assert!(row_chunks(0, 4).is_empty());
        assert!(chunks.len() > 4, "guided must oversubscribe");
        // Sizes are non-increasing until the minimum chunk floor.
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        for w in sizes.windows(2) {
            assert!(
                w[1] <= w[0] || w[0] <= GUIDED_MIN_CHUNK,
                "guided sizes must decrease: {sizes:?}"
            );
        }
    }

    #[test]
    fn single_thread_is_one_chunk() {
        assert_eq!(row_chunks(50, 1), vec![0..50]);
    }

    #[test]
    fn ws_pool_counts_hits_and_misses() {
        let pool = WsPool::new();
        let a: Vec<u32> = pool.take(0, 8, || vec![0u32; 8]);
        assert_eq!((pool.hits(), pool.misses()), (0, 1));
        pool.put(0, 8, a);
        assert_eq!(pool.retained(), 1);
        let _b: Vec<u32> = pool.take(0, 8, || vec![0u32; 8]);
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
        // Different tag or ncols is a different shelf.
        let _c: Vec<u32> = pool.take(1, 8, || vec![0u32; 8]);
        let _d: Vec<u32> = pool.take(0, 9, || vec![0u32; 9]);
        assert_eq!(pool.misses(), 3);
    }

    #[test]
    fn exec_stats_rank_fold_across_drives() {
        let stats = ExecStats::new();
        // Drive 1: two executor spans, imbalanced.
        stats.record(0.5);
        stats.record(0.25);
        stats.fold_drive();
        // Drive 2: spans arrive in the other order — rank folding must
        // still pair busiest with busiest.
        stats.record(0.1);
        stats.record(0.4);
        stats.fold_drive();
        let busy = stats.busy_seconds();
        assert_eq!(busy.len(), 2, "two executor ranks");
        assert!((busy[0] - 0.9).abs() < 1e-12, "{busy:?}");
        assert!((busy[1] - 0.35).abs() < 1e-12, "{busy:?}");
        stats.reset();
        assert!(stats.busy_seconds().is_empty());
        // Pending spans fold implicitly on read.
        stats.record(0.3);
        assert_eq!(stats.busy_seconds(), vec![0.3]);
    }
}
