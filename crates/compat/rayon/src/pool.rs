//! The persistent worker pool behind every parallel drive.
//!
//! The first parallel drive lazily spawns a set of detached worker threads
//! that park on a condvar; every later drive publishes a *job* to a shared
//! queue and wakes them, so steady-state execution performs **zero thread
//! spawns** — the fork/join tax of `std::thread::scope` (stack setup, TLS
//! init, scheduler wake-up, join teardown) is paid once per process instead
//! of once per call. Iterative workloads (k-truss, BC) that issue thousands
//! of row-parallel drives are the beneficiaries.
//!
//! ## Job anatomy
//!
//! A job is a lifetime-erased executor body `Fn(slot)` plus `executors`
//! slots. Slot 0 always runs on the submitting thread — a drive makes
//! progress even if every worker is busy with other jobs — and workers
//! claim the remaining slots through a ticket counter under the queue lock.
//! The body itself loops over an atomic chunk cursor (see
//! [`crate::iter`]), so a job completes no matter how many of its slots are
//! actually picked up; [`broadcast`] cancels untaken slots once the
//! submitting thread runs out of chunks and waits for in-flight workers
//! before returning, which is what makes the lifetime erasure sound.
//!
//! ## Semantics preserved
//!
//! * **Override inheritance** — each job snapshots the submitting thread's
//!   [`ThreadPool::install`](crate::ThreadPool::install) override and
//!   workers run the body under it, so `current_num_threads()` and nested
//!   drives observe the installing thread's thread count (the effective
//!   fan-out travels with the job; it is not re-derived on the worker).
//! * **Panics** — a panicking body is caught on the worker, the first
//!   payload is stored, and `broadcast` resumes the unwind on the
//!   submitting thread after all slots settle, matching what
//!   `JoinHandle::join` + `resume_unwind` did before.
//! * **No nested-drive deadlock** — a drive issued from inside a worker
//!   runs its slots inline on that worker instead of re-entering the pool.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One published parallel drive.
struct Job {
    /// The executor body, lifetime-erased. [`broadcast`] keeps the real
    /// closure alive until `remaining` reaches zero, so dereferencing from
    /// a worker is sound.
    body: *const (dyn Fn(usize) + Sync),
    /// Total executor slots, including slot 0 (the submitting thread).
    executors: usize,
    /// Next slot to hand to a worker (starts at 1; slot 0 is the caller's).
    /// Only mutated under the pool queue lock.
    next_slot: AtomicUsize,
    /// Slots not yet finished or cancelled; guarded for the `done` condvar.
    remaining: Mutex<usize>,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
    /// The submitting thread's `install` override, inherited by workers.
    inherited: usize,
    /// First panic payload from any slot.
    panic: Mutex<Option<PanicPayload>>,
}

// SAFETY: the raw body pointer is only dereferenced while `broadcast` is
// blocked keeping the underlying closure alive, and the closure is `Sync`.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Mark `n` slots finished; wake the submitter when all have settled.
    fn finish_slots(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut rem = self.remaining.lock().unwrap();
        *rem -= n;
        if *rem == 0 {
            self.done.notify_all();
        }
    }
}

/// Pool state shared by the workers and every submitting thread.
struct PoolShared {
    /// Jobs with unclaimed slots, oldest first.
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Signalled when the queue gains a job.
    work_ready: Condvar,
    /// Number of workers spawned so far.
    spawned: AtomicUsize,
}

fn pool() -> &'static Arc<PoolShared> {
    static POOL: OnceLock<Arc<PoolShared>> = OnceLock::new();
    POOL.get_or_init(|| {
        Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            spawned: AtomicUsize::new(0),
        })
    })
}

thread_local! {
    /// Whether the current thread is a pool worker (nested drives from a
    /// worker run inline instead of re-entering the pool).
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is one of the pool's workers.
pub(crate) fn is_pool_worker() -> bool {
    IS_WORKER.with(|c| c.get())
}

/// Upper bound on pool size: generous oversubscription so explicit
/// `--threads N > cores` experiments still get N-way fan-out, without
/// letting a pathological request spawn unbounded threads.
fn worker_cap() -> usize {
    (crate::machine_threads() * 4).max(32)
}

/// Spawn detached workers until at least `wanted` exist (capped).
fn ensure_workers(shared: &'static Arc<PoolShared>, wanted: usize) {
    let wanted = wanted.min(worker_cap());
    loop {
        let cur = shared.spawned.load(Ordering::Relaxed);
        if cur >= wanted {
            return;
        }
        if shared
            .spawned
            .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("mspgemm-pool-{cur}"))
                .spawn(move || worker_loop(shared))
                .expect("rayon-shim: failed to spawn pool worker");
        }
    }
}

/// Worker main: park until a job has unclaimed slots, claim one, run it.
fn worker_loop(shared: Arc<PoolShared>) {
    IS_WORKER.with(|c| c.set(true));
    loop {
        let (job, slot) = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(front) = q.front() {
                    let job = Arc::clone(front);
                    // Hand out the next slot under the queue lock so slot
                    // handout cannot race `broadcast`'s cancellation.
                    let slot = job.next_slot.fetch_add(1, Ordering::Relaxed);
                    debug_assert!(slot < job.executors, "job left in queue with no slots");
                    if slot + 1 >= job.executors {
                        q.pop_front();
                    }
                    break (job, slot);
                }
                q = shared.work_ready.wait(q).unwrap();
            }
        };
        run_slot(&job, slot);
    }
}

/// Run one executor slot of a job, capturing panics.
fn run_slot(job: &Job, slot: usize) {
    // SAFETY: `broadcast` does not return (and therefore the body is not
    // dropped) until this slot is counted finished below.
    let body = unsafe { &*job.body };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::with_override(job.inherited, || body(slot));
    }));
    if let Err(payload) = result {
        let mut p = job.panic.lock().unwrap();
        if p.is_none() {
            *p = Some(payload);
        }
    }
    job.finish_slots(1);
}

/// Cancels untaken slots and waits out in-flight workers; runs on both the
/// normal path and when the submitting thread's own slot panics, so the
/// erased body is never freed while a worker can still reach it.
struct CompletionGuard<'a> {
    shared: &'static PoolShared,
    job: &'a Arc<Job>,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        let untaken = {
            let mut q = self.shared.queue.lock().unwrap();
            if let Some(pos) = q.iter().position(|j| Arc::ptr_eq(j, self.job)) {
                q.remove(pos);
            }
            let taken = self.job.next_slot.load(Ordering::Relaxed);
            let untaken = self.job.executors - taken;
            self.job
                .next_slot
                .store(self.job.executors, Ordering::Relaxed);
            untaken
        };
        // The submitter's slot 0 plus every slot no worker will ever take.
        self.job.finish_slots(untaken + 1);
        let mut rem = self.job.remaining.lock().unwrap();
        while *rem > 0 {
            rem = self.job.done.wait(rem).unwrap();
        }
    }
}

/// Run `body(slot)` for every slot in `0..executors`, slot 0 on the calling
/// thread and the rest on pool workers, under the given thread-count
/// override. Returns when every slot has settled; re-raises the first
/// panic. The body must tolerate any subset of slots `1..` never running
/// (chunk-claiming bodies do: the claim loop drains the work regardless).
pub(crate) fn broadcast(executors: usize, inherited: usize, body: &(dyn Fn(usize) + Sync)) {
    if executors <= 1 || is_pool_worker() {
        // Degenerate or nested-in-worker drive: run every slot inline.
        // Slot 0's claim loop drains the chunks; later slots no-op.
        for slot in 0..executors.max(1) {
            body(slot);
        }
        return;
    }
    let shared = pool();
    ensure_workers(shared, executors - 1);
    // SAFETY (lifetime erasure): the Job never outlives this function's
    // borrow of `body` — the CompletionGuard blocks until every slot that
    // could touch it has finished.
    let erased: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    let job = Arc::new(Job {
        body: erased,
        executors,
        next_slot: AtomicUsize::new(1),
        remaining: Mutex::new(executors),
        done: Condvar::new(),
        inherited,
        panic: Mutex::new(None),
    });
    {
        let guard = CompletionGuard { shared, job: &job };
        {
            let mut q = guard.shared.queue.lock().unwrap();
            q.push_back(Arc::clone(&job));
        }
        guard.shared.work_ready.notify_all();
        body(0);
        // Guard drop: cancel untaken slots, wait for in-flight workers.
    }
    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn all_chunks_execute_once() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let cursor = AtomicUsize::new(0);
        broadcast(4, 0, &|_slot| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_executor_runs_inline() {
        let ran = AtomicUsize::new(0);
        broadcast(1, 0, &|slot| {
            assert_eq!(slot, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn workers_inherit_override() {
        let seen = Mutex::new(Vec::new());
        broadcast(3, 7, &|slot| {
            seen.lock()
                .unwrap()
                .push((slot, crate::current_num_threads()));
        });
        // Worker slots (1..) must see the inherited override (7). Slot 0
        // runs on the submitting thread, whose own override state (none
        // here) is authoritative, so it is exempt.
        let seen = seen.lock().unwrap();
        assert!(seen.iter().any(|&(slot, _)| slot == 0));
        for &(slot, n) in seen.iter() {
            if slot > 0 {
                assert_eq!(n, 7, "worker slot {slot} missed the override");
            }
        }
    }

    #[test]
    fn panics_propagate_after_settling() {
        let result = std::panic::catch_unwind(|| {
            let cursor = AtomicUsize::new(0);
            broadcast(4, 0, &|_slot| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= 64 {
                    break;
                }
                if i == 33 {
                    panic!("chunk 33 exploded");
                }
            });
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "chunk 33 exploded");
    }

    #[test]
    fn sequential_fallback_when_nested_in_worker() {
        // A body that itself broadcasts: the inner drive must complete
        // (inline on the worker) rather than deadlock.
        let total = AtomicUsize::new(0);
        let outer_cursor = AtomicUsize::new(0);
        broadcast(4, 0, &|_slot| loop {
            let i = outer_cursor.fetch_add(1, Ordering::Relaxed);
            if i >= 8 {
                break;
            }
            let inner_cursor = AtomicUsize::new(0);
            broadcast(4, 0, &|_s| loop {
                let j = inner_cursor.fetch_add(1, Ordering::Relaxed);
                if j >= 10 {
                    break;
                }
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 80);
    }

    #[test]
    fn many_sequential_jobs_reuse_the_pool() {
        for _ in 0..50 {
            let cursor = AtomicUsize::new(0);
            let sum = AtomicUsize::new(0);
            broadcast(4, 0, &|_slot| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= 100 {
                    break;
                }
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 4950);
        }
        // Spawn-per-call would have created 150 workers for 50 four-way
        // drives; the persistent pool never exceeds its machine-derived
        // cap, no matter what sibling tests run concurrently.
        let after = pool().spawned.load(Ordering::Relaxed);
        assert!(
            after <= worker_cap(),
            "pool grew past its cap: {after} > {}",
            worker_cap()
        );
    }

    #[test]
    fn concurrent_submitters_all_complete() {
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    let cursor = AtomicUsize::new(0);
                    let sum = AtomicUsize::new(0);
                    broadcast(3, 0, &|_slot| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= 500 {
                            break;
                        }
                        sum.fetch_add(i + t, Ordering::Relaxed);
                    });
                    assert_eq!(sum.load(Ordering::Relaxed), 500 * 499 / 2 + 500 * t);
                });
            }
        });
    }
}
