//! Admission-controlled request scheduling: a bounded queue feeding a
//! fixed set of executor workers.
//!
//! Connection threads stopped *executing* heavy verbs when this module
//! landed — they parse and validate a request, [`Scheduler::submit`] it,
//! and block on a reply channel. A fixed pool of `max_inflight` executor
//! workers drains the queue, so the number of kernels running
//! concurrently is a policy knob instead of "however many clients
//! connected". The queue itself is bounded by `queue_depth`: when it is
//! full, admission fails **immediately** with [`Admission::Busy`] and a
//! `retry_after_ms` hint, which the server turns into the typed `busy`
//! protocol error — under overload the server sheds load in microseconds
//! instead of stacking unbounded work behind a shared thread pool.
//!
//! The waiting room is also where **fusion** happens: when a worker pops
//! a `mxm` job it drains every queued job identical to it (same dataset,
//! algorithm, mask mode, phases, threads, reps — see
//! [`HeavyRequest::same_pass`]) and executes them as one batch: a single
//! kernel pass answers every rider. The batch assembly lives here; the
//! execution and fan-out live in [`crate::server`].
//!
//! Workers hold a `Weak` reference to the shared [`ServerState`], so
//! dropping the last server handle tears the scheduler down: `Drop`
//! closes the queue, wakes every parked worker, and answers any
//! still-queued job with `shutting_down` — no job is ever silently
//! dropped, which is what keeps connection threads from hanging forever
//! on their reply channels.
//!
//! Workers are also **supervised**: each carries a [`Sentinel`] whose
//! `Drop` runs when the worker thread unwinds from a panic. As long as
//! the queue is still open, the sentinel respawns a replacement worker
//! under the same name and bumps the `worker_restarts_total` counter —
//! one poisoned request costs one thread spawn, not an executor slot
//! for the rest of the process lifetime.

use crate::json::Json;
use crate::protocol::{err_response, shutting_down, HeavyRequest};
use crate::server::ServerState;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Upper bound on one fused batch: bounds how long the first waiter's
/// response is delayed by riders joining its kernel pass.
const MAX_FUSE: usize = 32;

/// Floor and ceiling for the `retry_after_ms` hint.
const RETRY_AFTER_MS: (u64, u64) = (10, 5_000);

/// One admitted unit of heavy work, parked in the queue until an
/// executor worker claims it.
pub(crate) struct Job {
    /// The decoded request: verb, dataset, and typed parameters.
    pub request: HeavyRequest,
    /// When the request line was read off the socket; the worker charges
    /// `received → execution start` to the `queue_wait_us` histogram.
    pub received: Instant,
    /// Absolute per-request deadline (from `deadline_ms`), checked at
    /// admission, at dequeue, and at kernel phase boundaries.
    pub deadline: Option<Instant>,
    /// Exactly one response is sent here — by the worker, or by the
    /// scheduler's drop draining the queue.
    pub reply: mpsc::Sender<Json>,
}

impl Job {
    /// Whether the job's deadline has already passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Answer a job that will never run: the queue closed under it.
    /// Every job gets its one response, so no connection thread is left
    /// parked on its reply channel.
    fn refuse(self) {
        let (code, message) = shutting_down();
        let _ = self.reply.send(err_response(code, message));
    }
}

/// Admission verdict for one submitted job.
pub(crate) enum Admission {
    /// Parked in the queue; the reply channel will produce the response.
    Enqueued,
    /// The queue is full. The job is handed back; answer `busy` with the
    /// retry hint.
    Busy {
        /// Suggested client backoff, scaled by queue pressure and the
        /// recent execution-time EWMA.
        retry_after_ms: u64,
        /// Jobs waiting at rejection time (for the error message).
        queued: usize,
    },
    /// The scheduler is shutting down; answer `shutting_down`.
    Closed,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Lock the queue, recovering from poison: a worker that panicked while
/// holding the guard must not wedge admission for every connection. The
/// queue's invariants (a `VecDeque` plus a flag) survive any partial
/// mutation our code can perform.
fn lock_queue(shared: &Shared) -> MutexGuard<'_, QueueState> {
    shared.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    queue: Mutex<QueueState>,
    cv: Condvar,
    max_inflight: usize,
    queue_depth: usize,
    /// EWMA of recent batch execution time in microseconds, feeding the
    /// `retry_after_ms` hint.
    ewma_exec_us: AtomicU64,
}

impl Shared {
    /// The backoff hint handed to rejected clients: roughly how long
    /// until a queue slot frees up — (queue depth / workers + 1) recent
    /// average executions — clamped to a sane range.
    fn retry_after_ms(&self, queued: usize) -> u64 {
        let ewma_ms = self.ewma_exec_us.load(Ordering::Relaxed) / 1_000;
        let turns = (queued / self.max_inflight + 1) as u64;
        (turns * ewma_ms.max(1)).clamp(RETRY_AFTER_MS.0, RETRY_AFTER_MS.1)
    }

    fn observe_exec(&self, elapsed: Duration) {
        let sample = elapsed.as_micros() as u64;
        // 80/20 EWMA; lock-free because the hint only needs to be
        // roughly right.
        let old = self.ewma_exec_us.load(Ordering::Relaxed);
        self.ewma_exec_us
            .store(old - old / 5 + sample / 5, Ordering::Relaxed);
    }
}

/// The bounded admission queue plus its executor workers' shared half.
pub(crate) struct Scheduler {
    shared: Arc<Shared>,
}

impl Scheduler {
    /// A scheduler with `max_inflight` executor slots and a waiting room
    /// of `queue_depth` jobs. Both are clamped to at least 1 — zero
    /// workers would strand every job, and a zero-depth queue would
    /// reject work even on an idle server.
    pub fn new(max_inflight: usize, queue_depth: usize) -> Scheduler {
        Scheduler {
            shared: Arc::new(Shared {
                queue: Mutex::new(QueueState {
                    jobs: VecDeque::new(),
                    closed: false,
                }),
                cv: Condvar::new(),
                max_inflight: max_inflight.max(1),
                queue_depth: queue_depth.max(1),
                // A fresh server has no execution history; the retry hint
                // floor covers the first rejections.
                ewma_exec_us: AtomicU64::new(0),
            }),
        }
    }

    /// Spawn the executor workers for `state`'s scheduler. Workers hold
    /// only a `Weak` state reference (upgraded per batch), so they never
    /// keep a shut-down server alive.
    pub fn spawn_workers(state: &Arc<ServerState>) {
        let shared = &state.scheduler.shared;
        for i in 0..shared.max_inflight {
            spawn_worker(shared.clone(), Arc::downgrade(state), i);
        }
    }

    /// Admit one job, or reject it when the waiting room is full.
    pub fn submit(&self, job: Job) -> Admission {
        let mut q = lock_queue(&self.shared);
        if q.closed {
            return Admission::Closed;
        }
        if q.jobs.len() >= self.shared.queue_depth {
            return Admission::Busy {
                retry_after_ms: self.shared.retry_after_ms(q.jobs.len()),
                queued: q.jobs.len(),
            };
        }
        q.jobs.push_back(job);
        drop(q);
        self.shared.cv.notify_one();
        Admission::Enqueued
    }

    /// Executor slots (normalized `max_inflight`).
    pub fn workers(&self) -> usize {
        self.shared.max_inflight
    }

    /// Waiting-room capacity (normalized `queue_depth`).
    pub fn depth(&self) -> usize {
        self.shared.queue_depth
    }

    /// Jobs currently waiting (not yet claimed by a worker).
    pub fn queued(&self) -> usize {
        lock_queue(&self.shared).jobs.len()
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        let leftovers: Vec<Job> = {
            let mut q = lock_queue(&self.shared);
            q.closed = true;
            q.jobs.drain(..).collect()
        };
        self.shared.cv.notify_all();
        leftovers.into_iter().for_each(Job::refuse);
    }
}

/// Claim the next batch: the queue's front job plus every queued job
/// the same kernel pass answers (capped at [`MAX_FUSE`]). Returns `None`
/// when the queue closed.
fn next_batch(shared: &Shared) -> Option<Vec<Job>> {
    let mut q = lock_queue(shared);
    loop {
        if let Some(first) = q.jobs.pop_front() {
            let mut batch = vec![first];
            let mut i = 0;
            while i < q.jobs.len() && batch.len() < MAX_FUSE {
                if batch[0].request.same_pass(&q.jobs[i].request) {
                    batch.push(q.jobs.remove(i).expect("index in bounds"));
                } else {
                    i += 1;
                }
            }
            return Some(batch);
        }
        if q.closed {
            return None;
        }
        q = shared.cv.wait(q).unwrap_or_else(PoisonError::into_inner);
    }
}

/// Spawn one executor worker (slot `i`), supervised by a [`Sentinel`].
fn spawn_worker(shared: Arc<Shared>, state: Weak<ServerState>, i: usize) {
    std::thread::Builder::new()
        .name(format!("mxm-exec-{i}"))
        .spawn(move || {
            let _sentinel = Sentinel {
                shared: shared.clone(),
                state: state.clone(),
                index: i,
            };
            worker_loop(shared, state);
        })
        .expect("spawn executor worker");
}

/// Worker supervision: dropped when the worker thread exits. On a clean
/// exit (queue closed, server gone) it does nothing; when the thread is
/// *unwinding from a panic* while the queue is still open, it respawns a
/// replacement worker in the same slot and counts the restart — the
/// executor pool self-heals instead of shrinking one panic at a time.
struct Sentinel {
    shared: Arc<Shared>,
    state: Weak<ServerState>,
    index: usize,
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        if lock_queue(&self.shared).closed {
            return;
        }
        if let Some(st) = self.state.upgrade() {
            st.metrics.counter("worker_restarts_total", &[]).inc();
        }
        spawn_worker(self.shared.clone(), self.state.clone(), self.index);
    }
}

fn worker_loop(shared: Arc<Shared>, state: Weak<ServerState>) {
    while let Some(batch) = next_batch(&shared) {
        let Some(st) = state.upgrade() else {
            // The server is gone mid-teardown; answer rather than drop.
            batch.into_iter().for_each(Job::refuse);
            return;
        };
        // Failpoint `serve.exec.delay`: a slow executor (chaos suites
        // stretch queue waits and deadline pressure with it).
        mspgemm_fault::fire("serve.exec.delay");
        let t0 = Instant::now();
        crate::server::execute_batch(&st, batch);
        shared.observe_exec(t0.elapsed());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::{decode, parse_object, Request, Work};

    impl Scheduler {
        /// Claim the next batch as a worker would — for tests (here and in
        /// `server`) that drive a worker-less queue by hand.
        pub(crate) fn claim(&self) -> Option<Vec<Job>> {
            next_batch(&self.shared)
        }
    }

    /// An `app` job, which never fuses.
    const APP: &str = r#"{"op":"app","dataset":"g"}"#;

    /// The job of one heavy request line, and where its answer arrives.
    pub(crate) fn job(line: &str) -> (Job, mpsc::Receiver<Json>) {
        let Ok(Request::Heavy(request)) = decode(&parse_object(line).unwrap()).1 else {
            panic!("{line} must decode as a heavy request");
        };
        let (tx, rx) = mpsc::channel();
        (
            Job {
                request,
                received: Instant::now(),
                deadline: None,
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn admission_is_bounded_and_busy_carries_a_hint() {
        // No workers spawned: jobs stay queued, so the bound is exact.
        let s = Scheduler::new(1, 2);
        let (j1, _r1) = job(APP);
        let (j2, _r2) = job(APP);
        let (j3, _r3) = job(APP);
        assert!(matches!(s.submit(j1), Admission::Enqueued));
        assert!(matches!(s.submit(j2), Admission::Enqueued));
        match s.submit(j3) {
            Admission::Busy {
                retry_after_ms,
                queued,
            } => {
                assert!(retry_after_ms >= RETRY_AFTER_MS.0);
                assert!(retry_after_ms <= RETRY_AFTER_MS.1);
                assert_eq!(queued, 2);
            }
            _ => panic!("third job must be rejected"),
        }
        assert_eq!(s.queued(), 2);
    }

    #[test]
    fn batches_fuse_identical_requests_and_preserve_strangers() {
        let s = Scheduler::new(1, 8);
        let k1 = r#"{"op":"mxm","dataset":"k1"}"#;
        let lines = [
            k1,
            r#"{"op":"mxm","dataset":"k2"}"#,
            r#"{"op":"mxm","dataset":"k1","mask":"complement"}"#,
            k1,
            APP,
        ];
        let _replies: Vec<_> = lines
            .iter()
            .map(|line| {
                let (j, rx) = job(line);
                assert!(matches!(s.submit(j), Admission::Enqueued));
                rx
            })
            .collect();
        let batch = next_batch(&s.shared).unwrap();
        assert_eq!(batch.len(), 2, "the two identical k1 jobs fuse");
        assert!(batch.iter().all(|j| j.request.same_pass(&batch[0].request)));
        let batch = next_batch(&s.shared).unwrap();
        assert_eq!(batch[0].request.dataset, "k2");
        assert_eq!(batch.len(), 1, "k2 stays alone");
        let batch = next_batch(&s.shared).unwrap();
        assert_eq!(batch[0].request.dataset, "k1");
        assert_eq!(batch.len(), 1, "another mask mode is another pass");
        let batch = next_batch(&s.shared).unwrap();
        assert_eq!(batch.len(), 1, "apps never fuse");
        assert!(matches!(batch[0].request.work, Work::App(_)));
    }

    #[test]
    fn drop_answers_queued_jobs_with_shutting_down() {
        let s = Scheduler::new(1, 4);
        let (j, rx) = job(APP);
        assert!(matches!(s.submit(j), Admission::Enqueued));
        drop(s);
        let resp = rx.recv().expect("drop must answer queued jobs");
        assert_eq!(
            resp.get("error").unwrap().get("code").unwrap().as_str(),
            Some("shutting_down")
        );
    }

    #[test]
    fn closed_scheduler_rejects_new_work() {
        let s = Scheduler::new(1, 4);
        s.shared.queue.lock().unwrap().closed = true;
        let (j, _rx) = job(APP);
        assert!(matches!(s.submit(j), Admission::Closed));
    }

    #[test]
    fn retry_hint_scales_with_pressure_and_history() {
        let s = Scheduler::new(2, 64);
        // No history: the floor.
        assert_eq!(s.shared.retry_after_ms(0), RETRY_AFTER_MS.0);
        // 40 ms EWMA, 8 queued over 2 workers: 5 turns of 40 ms.
        s.shared.ewma_exec_us.store(40_000, Ordering::Relaxed);
        assert_eq!(s.shared.retry_after_ms(8), 5 * 40);
        // Absurd pressure clamps at the ceiling.
        s.shared.ewma_exec_us.store(10_000_000, Ordering::Relaxed);
        assert_eq!(s.shared.retry_after_ms(64), RETRY_AFTER_MS.1);
    }
}
