//! Offline stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment for this workspace has no crates.io access, so this
//! crate re-implements exactly the subset of rayon's API the workspace uses,
//! with the same semantics: `ThreadPool::install` scopes a thread-count
//! override, and all combinators preserve input order so results are
//! bit-identical to sequential execution.
//!
//! Parallel drives run on a **persistent worker pool** (`pool` module): the
//! first drive lazily spawns parked workers, and every later drive wakes
//! them with a published job instead of spawning threads — steady state is
//! spawn-free. Within a drive, the input is split into contiguous chunks
//! (oversubscribed a few × beyond the thread count) that executors claim
//! through a shared atomic cursor — guided self-scheduling, the
//! shared-memory cousin of work stealing — so imbalanced chunks migrate to
//! whichever thread is free rather than pinning their original owner.
//! `for_each_init` builds one workspace per *executor* and reuses it
//! across every chunk that executor claims.
//!
//! Supported surface:
//!
//! * `prelude::*` — [`iter::IntoParallelIterator`] for ranges,
//!   [`slice::ParallelSlice`] / [`slice::ParallelSliceMut`] for `par_iter`,
//!   `par_iter_mut`, `par_chunks`, `par_chunks_mut`;
//! * combinators `map`, `flat_map_iter`, `enumerate`, `zip`,
//!   `with_min_len`, `with_max_len`;
//! * terminals `for_each`, `for_each_init`, `collect` (into `Vec`), `sum`,
//!   `reduce`;
//! * [`scope`] with `Scope::spawn`;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] /
//!   [`current_num_threads`].
//!
//! Not a general rayon replacement: no task-granularity stealing (balance
//! comes from chunk claiming), no parallel sorts, no `join`; [`scope`]
//! still uses scoped threads (it is off the row-loop hot path). The
//! surface is exactly what the workspace calls — an item nothing calls is
//! deleted, not kept for parity with the real crate.

#![warn(missing_docs)]

use std::cell::Cell;
use std::ops::Range;

pub mod iter;
pub(crate) mod pool;
pub mod slice;

/// One-stop imports mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelIterator};
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`];
    /// 0 means "no override".
    static CURRENT_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The number of threads parallel drives will fan out to: the installed
/// pool's size if inside [`ThreadPool::install`], else the machine's
/// available parallelism.
pub fn current_num_threads() -> usize {
    let o = CURRENT_OVERRIDE.with(|c| c.get());
    if o > 0 {
        o
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

pub(crate) fn with_override<R>(n: usize, f: impl FnOnce() -> R) -> R {
    CURRENT_OVERRIDE.with(|c| {
        let prev = c.get();
        c.set(n);
        let out = f();
        c.set(prev);
        out
    })
}

pub(crate) fn override_value() -> usize {
    CURRENT_OVERRIDE.with(|c| c.get())
}

/// Split `0..n` into at most `parts` contiguous near-equal ranges.
pub(crate) fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Error from [`ThreadPoolBuilder::build`]. Never actually produced; kept
/// for signature compatibility.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (all available threads).
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the pool at `n` threads (0 = all available).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool. Infallible in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A sized "pool". This shim spawns scoped threads on demand rather than
/// keeping workers alive; the pool only pins the fan-out width.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread count governing every parallel
    /// drive (and [`current_num_threads`]) on this thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        with_override(self.num_threads, f)
    }
}

/// A scope for spawning borrowed tasks, mirroring `rayon::scope`.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn a task that may borrow from the enclosing scope. The closure
    /// receives the scope again (rayon convention) for nested spawns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        let inherited = override_value();
        inner.spawn(move || {
            with_override(inherited, || {
                let s = Scope { inner };
                f(&s);
            })
        });
    }
}

/// Create a scope in which borrowed tasks can be spawned; blocks until all
/// spawned tasks finish.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| {
        let wrapper = Scope { inner: s };
        f(&wrapper)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover() {
        for n in [0usize, 1, 7, 100] {
            for p in [1usize, 3, 8, 200] {
                let rs = chunk_ranges(n, p);
                assert_eq!(rs.iter().map(|r| r.len()).sum::<usize>(), n);
            }
        }
    }

    #[test]
    fn install_overrides_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
    }

    #[test]
    fn scope_spawn_runs_everything() {
        let mut hits = [false; 8];
        {
            let cells: Vec<_> = hits.iter_mut().collect();
            scope(|s| {
                for c in cells {
                    s.spawn(move |_| *c = true);
                }
            });
        }
        assert!(hits.iter().all(|&b| b));
    }

    #[test]
    fn pool_workers_observe_install_override() {
        // Regression: the install override lives in a thread_local Cell;
        // persistent pool workers are *different threads*, so the job must
        // carry the installing thread's effective count explicitly.
        use crate::iter::IntoParallelIterator;
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let seen: Vec<usize> = pool.install(|| {
            (0..256usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect()
        });
        assert!(
            seen.iter().all(|&n| n == 3),
            "a drive chunk ran without the installed override: {seen:?}"
        );
    }

    #[test]
    fn nested_install_overrides_nest_and_restore() {
        use crate::iter::IntoParallelIterator;
        let outer = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let inner = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        outer.install(|| {
            assert_eq!(current_num_threads(), 4);
            inner.install(|| {
                assert_eq!(current_num_threads(), 2);
                let seen: Vec<usize> = (0..64usize)
                    .into_par_iter()
                    .map(|_| current_num_threads())
                    .collect();
                assert!(
                    seen.iter().all(|&n| n == 2),
                    "inner install leaked: {seen:?}"
                );
            });
            // Back under the outer override — including on pool workers.
            assert_eq!(current_num_threads(), 4);
            let seen: Vec<usize> = (0..64usize)
                .into_par_iter()
                .map(|_| current_num_threads())
                .collect();
            assert!(seen.iter().all(|&n| n == 4), "outer install lost: {seen:?}");
        });
        assert_eq!(override_value(), 0, "override must fully unwind");
    }

    #[test]
    fn nested_parallel_drives_complete() {
        use crate::iter::IntoParallelIterator;
        // Inner drives issued from worker threads fall back to inline
        // execution; the totals must still be exact.
        let sums: Vec<u64> = (0..16u64)
            .into_par_iter()
            .map(|i| (0..1000u64).into_par_iter().map(|j| j + i).sum::<u64>())
            .collect();
        for (i, s) in sums.iter().enumerate() {
            assert_eq!(*s, 499_500 + 1000 * i as u64);
        }
    }

    #[test]
    fn drive_panic_propagates() {
        use crate::iter::IntoParallelIterator;
        let caught = std::panic::catch_unwind(|| {
            (0..1000usize).into_par_iter().for_each(|i| {
                assert!(i != 617, "worker chunk panic");
            });
        });
        assert!(caught.is_err());
    }
}
