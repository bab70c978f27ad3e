//! The server: listener setup, per-connection threads, and the request
//! lifecycle — **decode → route → admit → execute → record → write**.
//!
//! One [`ServerState`] is shared by every connection: the dataset
//! [`Registry`] behind its `RwLock`, one [`WsPool`] so accumulator
//! scratch is reused across *all* requests (the second query against a
//! warm dataset allocates nothing), and one [`ExecStats`] recorder
//! feeding the `stats` verb's busy-spread figure. Parallel kernels run on
//! the process-wide persistent worker pool (the rayon layer), so steady
//! state spawns no threads either.
//!
//! The accept loop runs on its own thread; each accepted connection — TCP
//! or Unix, one generic body — gets a handler thread that loops over
//! request lines until EOF, an oversized payload, or `shutdown`. Each
//! line is decoded **once** into a typed `Request` ([`crate::protocol`]);
//! light verbs (ping, list, stats, metrics, load, …) then run inline on
//! the connection thread, while the heavy verbs (`mxm`, `app`, `update`)
//! are resolved against the registry and handed to the scheduler's
//! bounded queue, where a fixed pool of executor workers
//! (`--max-inflight`) drains them — so concurrency is a policy knob,
//! overload is answered with a typed `busy` + `retry_after_ms` instead of
//! unbounded queueing, identical queued `mxm` requests fuse into one
//! kernel pass, and `deadline_ms` budgets cancel expired work before its
//! numeric phase. All three heavy verbs share one execute path
//! (`execute_batch`) holding the crate's only `catch_unwind`; what each
//! verb computes lives in `crate::ops`.
//!
//! Shutdown is cooperative: the flag flips, the accept loop is woken by
//! a self-connection, and in-flight requests finish their response
//! before the process exits.

use crate::json::Json;
use crate::ops::{self, reg_err, OpResult};
use crate::protocol::{
    self, err_response, err_response_with, read_frame, write_line, ErrorCode, Frame, HeavyRequest,
    Request, MAX_REQUEST_BYTES,
};
use crate::registry::{Registry, RegistryError};
use crate::scheduler::{Admission, Job, Scheduler};
use masked_spgemm::{ExecStats, WsPool};
use mspgemm_io::LoadOpts;
use mspgemm_obs::MetricsRegistry;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Server-wide defaults a request can override per call.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// How `load` requests and preloads ingest when the request does not
    /// say otherwise — the same [`LoadOpts`] `mxm run` / `mxm suite`
    /// build from `--no-cache`, `--mmap` and `--pattern`. The default
    /// reads and writes the sidecar cache, so the first text load warms
    /// the `.msb` next to it.
    pub load: LoadOpts,
    /// Executor workers draining the admission queue — the number of
    /// heavy requests executing concurrently (`mxm serve
    /// --max-inflight`). Clamped to at least 1.
    pub max_inflight: usize,
    /// Admission queue capacity: a heavy request arriving when this many
    /// are already waiting is answered with a typed `busy` error
    /// (`mxm serve --queue-depth`). Clamped to at least 1.
    pub queue_depth: usize,
    /// Resident-memory budget across all datasets (`mxm serve
    /// --max-resident-bytes`); a `load` over budget evicts
    /// least-recently-used un-pinned datasets first. `0` = unlimited.
    pub max_resident_bytes: u64,
    /// Kernel panics attributed to one dataset before it is quarantined
    /// (`mxm serve --quarantine-after`). Clamped to at least 1.
    pub quarantine_after: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            load: LoadOpts::default(),
            // Two executor slots keep a second core busy while one
            // request fills the other; 64 queued jobs is roughly a
            // second of backlog at interactive kernel sizes. Both are
            // sized so light workloads never see `busy`.
            max_inflight: 2,
            queue_depth: 64,
            max_resident_bytes: 0,
            // Three strikes: one panic may be cosmic-ray bad luck, three
            // against the same dataset is a pattern worth fencing off.
            quarantine_after: 3,
        }
    }
}

/// Everything the request handlers share across connections.
pub struct ServerState {
    /// The resident datasets.
    pub registry: Registry,
    /// Cross-request accumulator cache: the reason a warm query
    /// allocates nothing.
    pub ws_pool: WsPool,
    /// Cumulative per-thread busy-time recorder behind the `stats`
    /// verb's load-balance figure.
    pub exec_stats: ExecStats,
    /// Named metric series — request counters, per-verb and per-dataset
    /// latency and queue-wait histograms, ingest totals — served by the
    /// `metrics` verb as JSON or Prometheus text.
    pub metrics: MetricsRegistry,
    /// The admission queue feeding the executor workers; heavy verbs go
    /// through here, light verbs bypass it.
    pub(crate) scheduler: Scheduler,
    pub(crate) config: ServeConfig,
    pub(crate) started: Instant,
    requests: AtomicU64,
    /// Requests currently between line-read and response-flush; shutdown
    /// drains this to zero before the process exits.
    active: AtomicU64,
    shutting_down: AtomicBool,
    /// The resolved listen address, for the shutdown self-connection.
    addr: OnceLock<String>,
}

impl ServerState {
    fn new(config: ServeConfig) -> Arc<Self> {
        let state = Arc::new(ServerState {
            registry: Registry::with_limits(config.max_resident_bytes, config.quarantine_after),
            ws_pool: WsPool::new(),
            exec_stats: ExecStats::new(),
            metrics: MetricsRegistry::new(),
            scheduler: Scheduler::new(config.max_inflight, config.queue_depth),
            config,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            active: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            addr: OnceLock::new(),
        });
        // Pre-touch the overload counters so every metrics scrape carries
        // them at zero — an operator alerting on `rejected_busy_total`
        // sees the series exist before the first rejection.
        for name in [
            "rejected_busy_total",
            "deadline_exceeded_total",
            "fused_requests_total",
            "worker_restarts_total",
            "quarantined_total",
            "evictions_total",
            "updates_total",
        ] {
            let _ = state.metrics.counter(name, &[]);
        }
        for verb in ["mxm", "tc"] {
            let _ = state
                .metrics
                .counter("incremental_total", &[("verb", verb)]);
        }
        Scheduler::spawn_workers(&state);
        state
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Flip the shutdown flag and poke the listener so a blocked `accept`
    /// observes it.
    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let Some(addr) = self.addr.get() else { return };
        match addr.strip_prefix("unix:") {
            #[cfg(unix)]
            Some(path) => drop(UnixStream::connect(path)),
            _ => drop(TcpStream::connect(addr)),
        }
    }

    /// Valid JSON requests handled so far (including ones answered with
    /// an error).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

/// One running server: accept-loop thread plus shared state. Dropping the
/// handle shuts the server down (tests rely on this); the CLI instead
/// parks on [`Server::wait`] until a `shutdown` request arrives.
pub struct Server {
    state: Arc<ServerState>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `listen` and start accepting. `listen` is either a TCP
    /// address (`127.0.0.1:7654`, port `0` picks a free one) or
    /// `unix:/path/to.sock`.
    pub fn start(listen: &str, config: ServeConfig) -> Result<Server, String> {
        Self::start_preloaded(listen, config, &[]).map(|(server, _)| server)
    }

    /// Bind `listen` (so a bad address fails before any ingest), load
    /// `paths` as [`Server::preload`] does, and only then start
    /// accepting: a client that connects while the preloads run waits in
    /// the listen backlog, and the first response it gets already sees
    /// every preloaded dataset. Returns the registry names of `paths` in
    /// input order.
    pub fn start_preloaded(
        listen: &str,
        config: ServeConfig,
        paths: &[String],
    ) -> Result<(Server, Vec<String>), String> {
        let state = ServerState::new(config);
        let st = state.clone();
        let bind_err = |e: std::io::Error| format!("bind {listen}: {e}");
        // Bind here (errors go to the caller); the returned closure is the
        // accept thread's body.
        let (addr, serve): (String, Box<dyn FnOnce() + Send>) =
            if let Some(path) = listen.strip_prefix("unix:") {
                #[cfg(unix)]
                {
                    let l = UnixListener::bind(path).map_err(bind_err)?;
                    // Owned by the closure, so the socket file goes when
                    // the accept loop ends — or when a failed preload
                    // drops the closure unrun.
                    let unlink = UnlinkOnDrop(std::path::PathBuf::from(path));
                    let serve = move || {
                        let _unlink = unlink;
                        accept_loop(&st, || l.accept().map(|(stream, _)| stream));
                    };
                    (listen.to_string(), Box::new(serve))
                }
                #[cfg(not(unix))]
                {
                    return Err(format!(
                        "bind {listen}: unix sockets are not supported on this platform"
                    ));
                }
            } else {
                let l = TcpListener::bind(listen).map_err(bind_err)?;
                let local = l.local_addr().map_err(bind_err)?;
                // Responses are single small writes; with Nagle on, each
                // would sit out the peer's delayed ACK.
                let accept = move || {
                    let (stream, _) = l.accept()?;
                    stream.set_nodelay(true)?;
                    Ok(stream)
                };
                (
                    local.to_string(),
                    Box::new(move || accept_loop(&st, accept)),
                )
            };
        state.addr.set(addr).unwrap();
        let mut server = Server {
            state,
            accept: None,
        };
        let names = server.preload(paths)?;
        let accept = std::thread::Builder::new()
            .name("mxm-serve-accept".into())
            .spawn(serve)
            .map_err(|e| e.to_string())?;
        server.accept = Some(accept);
        Ok((server, names))
    }

    /// The resolved listen address (`host:port`, or `unix:/path`).
    pub fn addr(&self) -> &str {
        self.state.addr.get().expect("set at start")
    }

    /// The shared state (registries, pools) — for preloading and tests.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Load datasets into the registry while serving, under the server's
    /// default [`ServeConfig::load`] options (to have them resident
    /// before the first request is answered, pass them to
    /// [`Server::start_preloaded`]). Returns the registry names in input
    /// order. Preloads are **pinned**: the
    /// operator named them on the command line, so the memory budget
    /// never evicts them in favor of an ad-hoc `load`.
    pub fn preload(&self, paths: &[String]) -> Result<Vec<String>, String> {
        paths
            .iter()
            .map(|p| {
                self.state
                    .registry
                    .load(p, None, &self.state.config.load, true)
                    .map(|out| out.ds.name.clone())
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Request shutdown, join the accept thread, and drain in-flight
    /// requests. Idempotent.
    pub fn shutdown(&mut self) {
        self.state.begin_shutdown();
        self.join();
    }

    /// Block until a `shutdown` request stops the server, then until
    /// every in-flight request has flushed its response.
    pub fn wait(mut self) {
        self.join();
    }

    /// Join the accept thread, then drain. Connection handler threads
    /// are detached (an idle connection parked on a read would block a
    /// join forever), so shutdown instead waits for the *requests*
    /// currently executing — kernels always terminate — and lets idle
    /// connections die with the process, their responses long since
    /// flushed.
    fn join(&mut self) {
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
        while self.state.active.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Removes a Unix socket file when dropped.
#[cfg(unix)]
struct UnlinkOnDrop(std::path::PathBuf);

#[cfg(unix)]
impl Drop for UnlinkOnDrop {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The accept loop of either transport: `accept` yields the next
/// connection's stream, which is both halves of the conversation
/// (`&TcpStream` / `&UnixStream` read and write).
fn accept_loop<S>(state: &Arc<ServerState>, accept: impl Fn() -> std::io::Result<S>)
where
    S: Send + 'static,
    for<'a> &'a S: Read + Write,
{
    loop {
        let conn = accept();
        if state.is_shutting_down() {
            break;
        }
        match conn {
            Ok(stream) => {
                let st = state.clone();
                std::thread::spawn(move || {
                    let _ = serve_connection(&st, BufReader::new(&stream), &stream);
                });
            }
            // Transient errors (EMFILE under fd exhaustion, ECONNABORTED)
            // return immediately; back off instead of spinning a core.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Drive one connection: read request lines, write response lines, until
/// EOF, an oversized payload, or shutdown.
pub fn serve_connection(
    state: &Arc<ServerState>,
    mut reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<()> {
    loop {
        match read_frame(&mut reader, MAX_REQUEST_BYTES)? {
            Frame::Eof => return Ok(()),
            Frame::Oversized => {
                let resp = err_response(
                    ErrorCode::PayloadTooLarge,
                    format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                );
                write_line(&mut writer, resp.to_line())?;
                // Swallow the rest of the oversized line (constant
                // memory, at most `DRAIN_CAP_BYTES`) before closing:
                // dropping the socket with unread bytes queued would RST
                // the connection and race the error response out of the
                // peer's receive buffer.
                let mut rest = (&mut reader).take(DRAIN_CAP_BYTES as u64);
                rest.skip_until(b'\n').ok();
                return Ok(());
            }
            Frame::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let received = Instant::now();
                // In-flight guard spans compute *and* response flush, so
                // shutdown's drain never cuts a response mid-write.
                let guard = ActiveGuard::new(&state.active);
                let (resp, stop) = handle_request_at(state, &line, received);
                // Failpoint `serve.conn.drop`: the request executed and
                // was *recorded*, but the response is discarded and the
                // connection closed — the client sees its socket die.
                // Firing after recording keeps the metric invariants
                // exact: `hits("serve.conn.drop")` is precisely the gap
                // between requests counted and responses delivered.
                if mspgemm_fault::fire("serve.conn.drop").is_some() {
                    return Ok(());
                }
                write_line(&mut writer, resp.to_line())?;
                drop(guard);
                if stop {
                    state.begin_shutdown();
                    return Ok(());
                }
            }
        }
    }
}

/// RAII increment of the in-flight request counter; decrements on drop
/// (including the early-return paths when a response write fails).
struct ActiveGuard<'a>(&'a AtomicU64);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<'a> ActiveGuard<'a> {
    fn new(counter: &'a AtomicU64) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        ActiveGuard(counter)
    }
}

/// Upper bound on bytes swallowed while draining one oversized line. The
/// drain exists only to let the error response escape the peer's receive
/// buffer before the close; a peer streaming gigabytes without a newline
/// is not owed that courtesy, and an unbounded drain would let it hold
/// the connection thread (and the socket) forever.
const DRAIN_CAP_BYTES: usize = 8 * MAX_REQUEST_BYTES;

/// Dispatch one request line. Returns the response and whether the server
/// should stop accepting (the `shutdown` verb).
pub fn handle_request(state: &ServerState, line: &str) -> (Json, bool) {
    handle_request_at(state, line, Instant::now())
}

/// Where a decoded request line was sent.
struct Routed {
    /// Metric label: the verb, or `"invalid"` / `"unknown"` /
    /// `"rejected"` for lines that never named a runnable one.
    verb: &'static str,
    /// The dataset's name **as the registry resolved it** — the only
    /// source of per-dataset metric labels, so a request naming a
    /// dataset that does not exist cannot mint a series.
    dataset: Option<String>,
    reply: Reply,
    /// The `shutdown` verb: stop accepting after this response.
    stop: bool,
}

enum Reply {
    /// Executed (or rejected) synchronously on the connection thread.
    Inline(OpResult),
    /// Admitted to the scheduler; the channel produces the one response,
    /// and the executor worker records its metrics.
    Queued(mpsc::Receiver<Json>),
}

fn inline(verb: &'static str, dataset: Option<String>, result: OpResult) -> Routed {
    Routed {
        verb,
        dataset,
        reply: Reply::Inline(result),
        stop: false,
    }
}

/// [`handle_request`] with an explicit arrival timestamp. Heavy verbs
/// queue behind the scheduler, and the worker charges `arrival →
/// execution start` to the `queue_wait_us` histogram; light verbs run
/// here on the connection thread with a near-zero wait.
fn handle_request_at(state: &ServerState, line: &str, received: Instant) -> (Json, bool) {
    let exec_start = Instant::now();
    let routed = route_request(state, line, received);
    let (resp, waited_since) = match routed.reply {
        Reply::Inline(result) => (
            result.unwrap_or_else(|(code, msg)| err_response(code, msg)),
            received,
        ),
        Reply::Queued(rx) => match rx.recv() {
            // The worker recorded this request before replying.
            Ok(resp) => return (resp, false),
            // The sender was dropped without an answer — a worker panic
            // unwinding past this job. Answer (and record, with no queue
            // wait to report) here so the connection never hangs.
            Err(_) => (
                err_response(ErrorCode::ExecFailed, "executor dropped the request"),
                exec_start,
            ),
        },
    };
    let dataset = routed.dataset.as_deref();
    record_request(state, routed.verb, dataset, &resp, waited_since, exec_start);
    (resp, routed.stop)
}

/// Fold one finished request into the metrics registry — the single
/// recording point shared by the inline path and the executor workers,
/// so the exact-count invariants (a `metrics` scrape reports precisely
/// the requests answered before it) hold regardless of which side
/// answered. Latency runs from `exec_start` to now; the queue wait from
/// `received` to `exec_start`.
fn record_request(
    state: &ServerState,
    verb: &'static str,
    dataset: Option<&str>,
    resp: &Json,
    received: Instant,
    exec_start: Instant,
) {
    let latency_us = exec_start.elapsed().as_micros() as u64;
    let queue_us = exec_start.saturating_duration_since(received).as_micros() as u64;
    let m = &state.metrics;
    m.counter("requests_total", &[]).inc();
    m.counter("requests_total", &[("verb", verb)]).inc();
    if resp.get("ok") != Some(&Json::Bool(true)) {
        m.counter("errors_total", &[]).inc();
        m.counter("errors_total", &[("verb", verb)]).inc();
    }
    m.histogram("request_latency_us", &[]).record(latency_us);
    m.histogram("request_latency_us", &[("verb", verb)])
        .record(latency_us);
    m.histogram("queue_wait_us", &[("verb", verb)])
        .record(queue_us);
    if let Some(ds) = dataset {
        m.histogram("dataset_request_latency_us", &[("dataset", ds)])
            .record(latency_us);
    }
}

/// Decode one request line and route it: light verbs execute inline,
/// heavy verbs (`mxm`, `app`, `update`) go through [`admit`].
fn route_request(state: &ServerState, line: &str, received: Instant) -> Routed {
    if state.is_shutting_down() {
        return inline("rejected", None, Err(protocol::shutting_down()));
    }
    let object = match protocol::parse_object(line) {
        Ok(object) => object,
        Err(e) => return inline("invalid", None, Err(e)),
    };
    state.requests.fetch_add(1, Ordering::Relaxed);
    let (verb, decoded) = protocol::decode(&object);
    match decoded {
        Err(e) => inline(verb, None, Err(e)),
        Ok(Request::Ping) => inline(verb, None, ops::ping(state)),
        Ok(Request::Load(p)) => match ops::load(state, &p) {
            Ok((name, resp)) => inline(verb, Some(name), Ok(resp)),
            Err(e) => inline(verb, None, Err(e)),
        },
        Ok(Request::List) => inline(verb, None, ops::list(state)),
        Ok(Request::Unload(name)) => {
            let result = ops::unload(state, &name);
            inline(verb, result.is_ok().then_some(name), result)
        }
        Ok(Request::Heavy(request)) => admit(state, request, received),
        Ok(Request::Stats) => inline(verb, None, ops::stats(state)),
        Ok(Request::Metrics(format)) => inline(verb, None, ops::metrics(state, format)),
        Ok(Request::Shutdown) => Routed {
            stop: true,
            ..inline(
                verb,
                None,
                Ok(protocol::ok_response(vec![
                    ("op", Json::str("shutdown")),
                    ("stopping", true.into()),
                ])),
            )
        },
    }
}

/// Admit one decoded heavy request into the scheduler, or answer inline
/// when it cannot be queued: its dataset does not resolve
/// (`unknown_dataset` / `quarantined` / `evicted` before a slot is
/// wasted — field validation already happened at decode), it is already
/// past its deadline, or the queue is full (`busy` with a
/// `retry_after_ms` hint).
fn admit(state: &ServerState, request: HeavyRequest, received: Instant) -> Routed {
    let verb = request.verb();
    // Execution resolves again: the dataset may be unloaded meanwhile.
    if let Err(e) = state.registry.get(&request.dataset) {
        // A quarantined or evicted name is one the registry still knows
        // (a resident entry or a tombstone), so its series stays bounded;
        // an unknown name is client-chosen and gets no per-dataset label.
        let known = !matches!(e, RegistryError::NotFound(_));
        return inline(verb, known.then_some(request.dataset), Err(reg_err(e)));
    }
    let dataset = Some(request.dataset.clone());
    // The execution budget counts from arrival, so time spent queued
    // spends it too — that is the point: a client that gave up by its
    // deadline should not have stale work run on its behalf.
    let deadline_ms = request.deadline_ms;
    let deadline = (deadline_ms > 0).then(|| received + Duration::from_millis(deadline_ms));
    if deadline.is_some_and(|d| Instant::now() >= d) {
        state.metrics.counter("deadline_exceeded_total", &[]).inc();
        let expired = (
            ErrorCode::DeadlineExceeded,
            format!("deadline of {deadline_ms} ms expired before admission"),
        );
        return inline(verb, dataset, Err(expired));
    }
    let (tx, rx) = mpsc::channel();
    let job = Job {
        request,
        received,
        deadline,
        reply: tx,
    };
    match state.scheduler.submit(job) {
        Admission::Enqueued => Routed {
            verb,
            dataset,
            reply: Reply::Queued(rx),
            stop: false,
        },
        Admission::Busy {
            retry_after_ms,
            queued,
        } => {
            state.metrics.counter("rejected_busy_total", &[]).inc();
            // `Ok` despite being an error response: the `busy` object
            // carries `retry_after_ms` inside `error`, which the plain
            // `(code, message)` error path cannot express. It still
            // counts as an error (`"ok": false`) in the metrics.
            let resp = err_response_with(
                ErrorCode::Busy,
                format!("admission queue full ({queued} waiting); retry in ~{retry_after_ms} ms"),
                vec![("retry_after_ms", retry_after_ms.into())],
            );
            inline(verb, dataset, Ok(resp))
        }
        Admission::Closed => inline(verb, dataset, Err(protocol::shutting_down())),
    }
}

/// Execute one scheduler batch on an executor worker — the one path all
/// three heavy verbs take from the queue to their reply. Jobs whose
/// deadline expired while queued are answered without running; the rest
/// (identical `mxm` riders, or a single job of any verb — see
/// [`HeavyRequest::same_pass`]) share one kernel pass: execute → record →
/// reply, under the crate's single panic policy.
pub(crate) fn execute_batch(state: &Arc<ServerState>, batch: Vec<Job>) {
    let exec_start = Instant::now();
    let (expired, riders): (Vec<Job>, Vec<Job>) = batch.into_iter().partition(Job::expired);
    for job in expired {
        state.metrics.counter("deadline_exceeded_total", &[]).inc();
        let resp = err_response(
            ErrorCode::DeadlineExceeded,
            "deadline expired while the request was queued",
        );
        finish_job(state, job, resp, exec_start);
    }
    let Some(first) = riders.first() else {
        return;
    };
    let k = riders.len();
    if k > 1 {
        // k requests shared one pass: k-1 kernel executions saved.
        state
            .metrics
            .counter("fused_requests_total", &[])
            .add((k - 1) as u64);
    }
    // The pass runs once for everyone, so it gets the *loosest* deadline
    // among its riders: by the time that one expires, every earlier
    // deadline has expired too. Any rider without a budget disables
    // kernel cancellation for the whole pass.
    let deadline = if riders.iter().all(|job| job.deadline.is_some()) {
        riders.iter().filter_map(|job| job.deadline).max()
    } else {
        None
    };
    let request = &first.request;
    let resp = match catch_unwind(AssertUnwindSafe(|| {
        ops::execute(state, request, deadline, k)
    })) {
        Ok(Ok(resp)) => resp,
        Ok(Err((code, msg))) => {
            if code == ErrorCode::DeadlineExceeded {
                state
                    .metrics
                    .counter("deadline_exceeded_total", &[])
                    .add(k as u64);
            }
            err_response(code, msg)
        }
        Err(payload) => {
            // A kernel panic, whatever the verb. Attribute it to the
            // dataset (repeat offenders get quarantined), answer every
            // rider with a typed error, then re-raise: the worker thread
            // dies and its sentinel respawns a replacement, so the panic
            // costs one thread spawn instead of an executor slot.
            let msg = panic_msg(payload);
            if state
                .registry
                .note_panic(&request.dataset)
                .newly_quarantined
            {
                state.metrics.counter("quarantined_total", &[]).inc();
            }
            let text = format!("kernel panicked on dataset '{}': {msg}", request.dataset);
            let resp = err_response(ErrorCode::ExecFailed, text);
            for job in riders {
                finish_job(state, job, resp.clone(), exec_start);
            }
            std::panic::resume_unwind(Box::new(msg));
        }
    };
    for job in riders {
        finish_job(state, job, resp.clone(), exec_start);
    }
}

fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "kernel panicked".to_string()
    }
}

/// Record one queued job's metrics and send its response. Recording
/// happens *before* the reply, so a client that scrapes `metrics`
/// right after its answer sees its own request already counted — the
/// same exact-count invariant the inline path provides.
fn finish_job(state: &ServerState, job: Job, resp: Json, exec_start: Instant) {
    let (verb, dataset) = (job.request.verb(), Some(&*job.request.dataset));
    record_request(state, verb, dataset, &resp, job.received, exec_start);
    let _ = job.reply.send(resp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::publish_gauges;

    /// Loads that neither read nor write a sidecar.
    fn uncached() -> LoadOpts {
        LoadOpts {
            policy: mspgemm_io::CachePolicy::Off,
            ..LoadOpts::default()
        }
    }

    fn state_with(dir_tag: &str, n: usize) -> (Arc<ServerState>, String) {
        let dir = std::env::temp_dir().join(format!("mspgemm_serve_server_{dir_tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("g.mtx");
        let g = mspgemm_gen::er_symmetric(n, 6, 3);
        mspgemm_io::mtx::write_mtx_file(&mtx, &g).unwrap();
        let state = ServerState::new(ServeConfig {
            load: uncached(),
            ..ServeConfig::default()
        });
        (state, mtx.to_str().unwrap().to_string())
    }

    fn ok(state: &ServerState, line: &str) -> Json {
        let (resp, stop) = handle_request(state, line);
        assert!(!stop);
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "expected success: {}",
            resp.to_line()
        );
        resp
    }

    fn err_code(state: &ServerState, line: &str) -> String {
        let (resp, _) = handle_request(state, line);
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(false)),
            "{}",
            resp.to_line()
        );
        resp.get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn request_lifecycle_load_mxm_warm_unload() {
        let (state, path) = state_with("lifecycle", 120);
        ok(&state, r#"{"op":"ping"}"#);
        let resp = ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        assert_eq!(resp.get("name").unwrap().as_str(), Some("g"));

        // One executor: the first request parks exactly the workspaces
        // the second one leases, whatever the machine's core count.
        let q = r#"{"op":"mxm","dataset":"g","algo":"hash","phases":2,"threads":1,"reps":1}"#;
        let first = ok(&state, q);
        let second = ok(&state, q);
        assert_eq!(
            first.get("fingerprint"),
            second.get("fingerprint"),
            "identical requests must return identical results"
        );
        let pool = second.get("pool").unwrap();
        assert_eq!(pool.get("misses").unwrap().as_u64(), Some(0));
        assert_eq!(pool.get("warm").unwrap().as_bool(), Some(true));

        ok(&state, r#"{"op":"unload","name":"g"}"#);
        assert_eq!(err_code(&state, q), "unknown_dataset");
    }

    #[test]
    fn inner_reports_its_pool_and_fingerprint() {
        let (state, path) = state_with("inner_real", 90);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        // Inner runs on the shared row drive: its (empty) workspaces go
        // through the pool, and its product is the push kernels'.
        let q = r#"{"op":"mxm","dataset":"g","algo":"inner","threads":1}"#;
        let resp = ok(&state, q);
        let hash = ok(
            &state,
            r#"{"op":"mxm","dataset":"g","algo":"hash","threads":1}"#,
        );
        assert_eq!(resp.get("fingerprint"), hash.get("fingerprint"));
        let pool = resp.get("pool").unwrap();
        assert_eq!(pool.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(pool.get("warm").unwrap().as_bool(), Some(false));
        let pool = ok(&state, q).get("pool").unwrap().clone();
        assert_eq!(pool.get("hits").unwrap().as_u64(), Some(1));
        assert_eq!(pool.get("warm").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn error_codes_cover_the_protocol() {
        let (state, path) = state_with("errors", 60);
        assert_eq!(err_code(&state, "not json"), "bad_request");
        assert_eq!(err_code(&state, "[1,2]"), "bad_request");
        assert_eq!(err_code(&state, r#"{"op":"frobnicate"}"#), "unknown_op");
        assert_eq!(err_code(&state, r#"{"op":"mxm"}"#), "bad_request");
        assert_eq!(
            err_code(&state, r#"{"op":"mxm","dataset":"nope"}"#),
            "unknown_dataset"
        );
        assert_eq!(
            err_code(&state, r#"{"op":"load","path":"/no/such/file.mtx"}"#),
            "load_failed"
        );
        ok(&state, &format!(r#"{{"op":"load","path":"{path}"}}"#));
        assert_eq!(
            err_code(&state, &format!(r#"{{"op":"load","path":"{path}"}}"#)),
            "already_loaded"
        );
        // MCA × complement is a kernel-level rejection.
        assert_eq!(
            err_code(
                &state,
                r#"{"op":"mxm","dataset":"g","algo":"mca","mask":"complement"}"#
            ),
            "exec_failed"
        );
        // Unknown algo is a request-level rejection.
        assert_eq!(
            err_code(&state, r#"{"op":"mxm","dataset":"g","algo":"quantum"}"#),
            "bad_request"
        );
    }

    #[test]
    fn apps_run_and_reuse_the_pool() {
        let (state, path) = state_with("apps", 100);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        // One executor, so the second run leases exactly what the first
        // parked.
        let q = r#"{"op":"app","dataset":"g","app":"tc","scheme":"hash-1p","threads":1}"#;
        let tc = ok(&state, q);
        assert!(tc.get("triangles").unwrap().as_u64().is_some());
        let tc2 = ok(&state, q);
        assert_eq!(tc.get("triangles"), tc2.get("triangles"));
        assert_eq!(
            tc2.get("pool").unwrap().get("misses").unwrap().as_u64(),
            Some(0),
            "second tc must be allocation-free"
        );
        let kt = ok(&state, r#"{"op":"app","dataset":"g","app":"ktruss","k":3}"#);
        assert!(kt.get("iterations").unwrap().as_u64().unwrap() >= 1);
        let bc = ok(
            &state,
            r#"{"op":"app","dataset":"g","app":"bc","batch":4,"scheme":"msa-1p"}"#,
        );
        assert_eq!(bc.get("batch").unwrap().as_u64(), Some(4));
        // BC × MCA is rejected before execution.
        assert_eq!(
            err_code(
                &state,
                r#"{"op":"app","dataset":"g","app":"bc","scheme":"mca-1p"}"#
            ),
            "exec_failed"
        );
        assert_eq!(
            err_code(&state, r#"{"op":"app","dataset":"g","app":"ktruss","k":2}"#),
            "bad_request"
        );
    }

    #[test]
    fn pattern_load_parity_and_accounting() {
        // A weighted graph: chained triangles (i, i+1, i+2) with non-unit
        // weights, so a pattern load genuinely discards something.
        let dir = std::env::temp_dir().join("mspgemm_serve_server_pattern_parity");
        std::fs::create_dir_all(&dir).unwrap();
        let n = 30usize;
        let mut body = String::from("%%MatrixMarket matrix coordinate real symmetric\n");
        body.push_str(&format!("{n} {n} {}\n", (n - 1) + (n - 2)));
        for i in 1..n {
            body.push_str(&format!("{} {} {}.5\n", i + 1, i, (i % 7) + 2));
        }
        for i in 1..n - 1 {
            body.push_str(&format!("{} {} 3.25\n", i + 2, i));
        }
        let mtx = dir.join("tri.mtx");
        std::fs::write(&mtx, body).unwrap();
        let path = mtx.to_str().unwrap();
        let state = ServerState::new(ServeConfig {
            load: uncached(),
            ..ServeConfig::default()
        });

        let v = ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"v"}}"#),
        );
        assert_eq!(v.get("pattern").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("unit_bytes").unwrap().as_u64(), Some(0));
        let p = ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"p","pattern":true}}"#),
        );
        assert_eq!(p.get("pattern").unwrap().as_bool(), Some(true));
        assert!(
            p.get("unit_bytes").unwrap().as_u64().unwrap() > 0,
            "pattern operands must report their arena-backed view bytes"
        );
        assert!(
            p.get("mem_bytes").unwrap().as_u64().unwrap()
                < v.get("mem_bytes").unwrap().as_u64().unwrap(),
            "dropping per-dataset value sections must shrink resident bytes: {} vs {}",
            p.to_line(),
            v.to_line()
        );

        // Structural applications must not notice the missing weights.
        for req in [
            r#"{"op":"app","dataset":"DS","app":"tc"}"#,
            r#"{"op":"app","dataset":"DS","app":"ktruss","k":3}"#,
        ] {
            let rv = ok(&state, &req.replace("DS", "v"));
            let rp = ok(&state, &req.replace("DS", "p"));
            assert_eq!(rv.get("triangles"), rp.get("triangles"), "{req}");
            assert_eq!(rv.get("edges_kept"), rp.get("edges_kept"), "{req}");
        }
        let tc = ok(&state, r#"{"op":"app","dataset":"p","app":"tc"}"#);
        assert_eq!(
            tc.get("triangles").unwrap().as_u64(),
            Some((n - 2) as u64),
            "chained-triangle graph has n-2 triangles"
        );
        // The mxm verb still runs against arena-backed values.
        ok(&state, r#"{"op":"mxm","dataset":"p","algo":"hash"}"#);

        // Disclosure: ping/stats carry the probe path, stats carries the
        // per-dataset pattern flags and the once-per-process arena bytes.
        let ping = ok(&state, r#"{"op":"ping"}"#);
        let compiled = Some(masked_spgemm::simd::COMPILED_PATH);
        assert_eq!(ping.get("simd").unwrap().as_str(), compiled);
        let stats = ok(&state, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("simd").unwrap().as_str(), compiled);
        assert!(stats.get("unit_arena_bytes").unwrap().as_u64().unwrap() > 0);
        let rows = match stats.get("datasets").unwrap() {
            Json::Arr(rows) => rows,
            other => panic!("datasets must be an array, got {}", other.to_line()),
        };
        let by_name = |want: &str| {
            rows.iter()
                .find(|r| r.get("name").unwrap().as_str() == Some(want))
                .unwrap()
        };
        assert_eq!(by_name("v").get("pattern").unwrap().as_bool(), Some(false));
        assert_eq!(by_name("p").get("pattern").unwrap().as_bool(), Some(true));
        publish_gauges(&state);
        let snap = state.metrics.gauge("unit_arena_bytes", &[]).get();
        assert!(snap > 0.0, "unit_arena_bytes gauge must be published");
    }

    #[test]
    fn deadline_expired_before_admission_is_rejected() {
        let (state, path) = state_with("deadline_admission", 60);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        // An arrival stamp far in the past: the 1 ms budget is long gone
        // by admission time, deterministically.
        let received = Instant::now()
            .checked_sub(Duration::from_secs(10))
            .expect("monotonic clock is past its first 10 seconds");
        let (resp, stop) = handle_request_at(
            &state,
            r#"{"op":"mxm","dataset":"g","deadline_ms":1}"#,
            received,
        );
        assert!(!stop);
        assert_eq!(
            resp.get("error").unwrap().get("code").unwrap().as_str(),
            Some("deadline_exceeded"),
            "{}",
            resp.to_line()
        );
        assert_eq!(
            state.metrics.counter("deadline_exceeded_total", &[]).get(),
            1
        );
        // Without a budget the same request runs fine.
        ok(&state, r#"{"op":"mxm","dataset":"g","deadline_ms":0}"#);
    }

    #[test]
    fn queued_requests_fuse_only_when_identical() {
        let (state, path) = state_with("fusion", 100);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        const NORMAL: &str = r#"{"op":"mxm","dataset":"g","algo":"hash"}"#;
        const COMP: &str = r#"{"op":"mxm","dataset":"g","algo":"hash","mask":"complement"}"#;
        // Reference fingerprints from plain (unfused) requests.
        let normal = ok(&state, NORMAL);
        let comp = ok(&state, COMP);
        assert_eq!(normal.get("fused").unwrap().as_bool(), Some(false));
        assert_eq!(normal.get("fused_group").unwrap().as_u64(), Some(1));

        // A worker-less queue: the lines wait in it together, then every
        // batch is claimed and run right here, exactly as a worker would.
        let queue = Scheduler::new(1, 8);
        let run_queued = |lines: &[&str]| -> Vec<Json> {
            let replies: Vec<_> = lines
                .iter()
                .map(|line| {
                    let (job, rx) = crate::scheduler::tests::job(line);
                    assert!(matches!(queue.submit(job), Admission::Enqueued));
                    rx
                })
                .collect();
            while queue.queued() > 0 {
                execute_batch(&state, queue.claim().unwrap());
            }
            replies.iter().map(|rx| rx.recv().unwrap()).collect()
        };
        let fused_total = || state.metrics.counter("fused_requests_total", &[]).get();

        // Differing only in the mask mode: two passes, nothing shared.
        let apart = run_queued(&[NORMAL, COMP]);
        for (resp, want) in apart.iter().zip([&normal, &comp]) {
            assert_eq!(resp.get("fused").unwrap().as_bool(), Some(false));
            assert_eq!(resp.get("fused_group").unwrap().as_u64(), Some(1));
            assert_eq!(resp.get("fingerprint"), want.get("fingerprint"));
        }
        assert_eq!(fused_total(), 0);

        // Identical: one pass answers both, around the stranger between.
        let together = run_queued(&[NORMAL, COMP, NORMAL]);
        for resp in [&together[0], &together[2]] {
            assert_eq!(resp.get("fused").unwrap().as_bool(), Some(true));
            assert_eq!(resp.get("fused_group").unwrap().as_u64(), Some(2));
            assert_eq!(resp.get("mask").unwrap().as_str(), Some("normal"));
            assert_eq!(
                resp.get("fingerprint"),
                normal.get("fingerprint"),
                "fused output must be bit-identical to the unfused one"
            );
        }
        assert_eq!(together[1].get("fused_group").unwrap().as_u64(), Some(1));
        assert_eq!(together[1].get("fingerprint"), comp.get("fingerprint"));
        assert_eq!(
            fused_total(),
            1,
            "two riders shared one pass: one kernel execution saved"
        );
    }

    #[test]
    fn stats_reports_the_scheduler_shape() {
        let (state, _) = state_with("sched_stats", 40);
        let stats = ok(&state, r#"{"op":"stats"}"#);
        let sched = stats.get("scheduler").unwrap();
        assert_eq!(sched.get("workers").unwrap().as_u64(), Some(2));
        assert_eq!(sched.get("queue_depth").unwrap().as_u64(), Some(64));
        assert_eq!(sched.get("queued").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn load_and_stats_report_backend_and_mapped_bytes() {
        // Heap-loaded text dataset: backend "heap", zero mapped bytes.
        let (state, path) = state_with("backend_heap", 60);
        let resp = ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        assert_eq!(resp.get("backend").unwrap().as_str(), Some("heap"));
        assert_eq!(resp.get("mapped_bytes").unwrap().as_u64(), Some(0));
        let stats = ok(&state, r#"{"op":"stats"}"#);
        let ds = &stats.get("datasets").unwrap().as_arr().unwrap()[0];
        assert_eq!(ds.get("backend").unwrap().as_str(), Some("heap"));
        assert_eq!(stats.get("total_mapped_bytes").unwrap().as_u64(), Some(0));

        // A v2 .msb loaded with "mmap": true comes back mapped (on
        // targets that support zero-copy; elsewhere it stays heap).
        let dir = std::env::temp_dir().join("mspgemm_serve_server_backend_mmap");
        std::fs::create_dir_all(&dir).unwrap();
        let msb = dir.join("m.msb");
        let g = mspgemm_gen::er_symmetric(60, 6, 3);
        let mut buf = Vec::new();
        mspgemm_io::msb::write_msb(&mut buf, &g).unwrap();
        std::fs::write(&msb, &buf).unwrap();
        let resp = ok(
            &state,
            &format!(
                r#"{{"op":"load","path":"{}","name":"m","mmap":true}}"#,
                msb.to_str().unwrap()
            ),
        );
        if cfg!(all(target_endian = "little", target_pointer_width = "64")) {
            assert_eq!(resp.get("backend").unwrap().as_str(), Some("mmap"));
            assert!(resp.get("mapped_bytes").unwrap().as_u64().unwrap() > 0);
            let stats = ok(&state, r#"{"op":"stats"}"#);
            assert!(stats.get("total_mapped_bytes").unwrap().as_u64().unwrap() > 0);
        }
        // Results off a mapped operand agree with the heap-loaded twin.
        let m1 = ok(&state, r#"{"op":"mxm","dataset":"m","algo":"hash"}"#);
        assert!(m1.get("fingerprint").unwrap().as_str().is_some());
        ok(&state, r#"{"op":"unload","name":"m"}"#);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Find the entry with the given name (and label subset) in a
    /// `metrics` response array.
    fn find_series<'a>(arr: &'a Json, name: &str, labels: &[(&str, &str)]) -> Option<&'a Json> {
        arr.as_arr().unwrap().iter().find(|e| {
            e.get("name").unwrap().as_str() == Some(name)
                && labels.iter().all(|(k, v)| {
                    e.get("labels").unwrap().get(k).and_then(Json::as_str) == Some(*v)
                })
        })
    }

    /// Requests attributed to dataset `g` so far: the count of its
    /// per-dataset latency series, `None` while the series does not exist.
    fn requests_on_g(state: &ServerState) -> Option<u64> {
        let m = ok(state, r#"{"op":"metrics"}"#);
        let hists = m.get("histograms").unwrap();
        find_series(hists, "dataset_request_latency_us", &[("dataset", "g")])
            .and_then(|h| h.get("count").unwrap().as_u64())
    }

    #[test]
    fn ping_reports_version_and_uptime() {
        let (state, _) = state_with("ping_fields", 40);
        let resp = ok(&state, r#"{"op":"ping"}"#);
        assert_eq!(
            resp.get("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(resp.get("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn metrics_verb_counts_requests_and_serves_quantiles() {
        let (state, path) = state_with("metrics", 80);
        ok(&state, r#"{"op":"ping"}"#);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
        assert_eq!(err_code(&state, "not json"), "bad_request");

        // 5 requests so far; the metrics request records *after* its own
        // snapshot, so it reports exactly what was issued before it.
        let m = ok(&state, r#"{"op":"metrics"}"#);
        let counters = m.get("counters").unwrap();
        let total = find_series(counters, "requests_total", &[]).unwrap();
        assert_eq!(total.get("value").unwrap().as_u64(), Some(5));
        let mxm = find_series(counters, "requests_total", &[("verb", "mxm")]).unwrap();
        assert_eq!(mxm.get("value").unwrap().as_u64(), Some(2));
        let errors = find_series(counters, "errors_total", &[]).unwrap();
        assert_eq!(errors.get("value").unwrap().as_u64(), Some(1));
        let ingest = find_series(counters, "ingest_bytes_total", &[]).unwrap();
        assert!(ingest.get("value").unwrap().as_u64().unwrap() > 0);

        let hists = m.get("histograms").unwrap();
        let lat = find_series(hists, "request_latency_us", &[("verb", "mxm")]).unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(2));
        let p50 = lat.get("p50").unwrap().as_u64().unwrap();
        let p99 = lat.get("p99").unwrap().as_u64().unwrap();
        assert!(p50 <= p99, "quantiles must be monotone");
        assert!(
            find_series(hists, "queue_wait_us", &[("verb", "mxm")]).is_some(),
            "queue-wait series exists per verb"
        );
        assert!(
            find_series(hists, "dataset_request_latency_us", &[("dataset", "g")]).is_some(),
            "per-dataset latency series exists"
        );

        // Gauges mirror the pool and residency at snapshot time.
        let gauges = m.get("gauges").unwrap();
        let resident = find_series(gauges, "datasets_resident", &[]).unwrap();
        assert_eq!(resident.get("value").unwrap().as_f64(), Some(1.0));

        // Prometheus exposition of the same registry.
        let prom = ok(&state, r#"{"op":"metrics","format":"prometheus"}"#);
        let text = prom.get("text").unwrap().as_str().unwrap();
        assert!(text.contains("# TYPE requests_total counter"));
        assert!(
            text.contains("requests_total 6"),
            "json metrics request counted: {text}"
        );
        assert!(text.contains("request_latency_us_bucket"));
        assert!(text.contains("# TYPE ws_pool_hits gauge"));

        assert_eq!(
            err_code(&state, r#"{"op":"metrics","format":"xml"}"#),
            "bad_request"
        );
    }

    #[test]
    fn stats_reports_totals_and_latency_quantiles() {
        let (state, path) = state_with("stats_latency", 70);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"msa"}"#);
        err_code(&state, r#"{"op":"mxm","dataset":"nope"}"#);
        let stats = ok(&state, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("requests_total").unwrap().as_u64(), Some(3));
        assert_eq!(stats.get("errors_total").unwrap().as_u64(), Some(1));
        let lat = stats.get("latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(3));
        let p50 = lat.get("p50").unwrap().as_f64().unwrap();
        let p99 = lat.get("p99").unwrap().as_f64().unwrap();
        assert!(p50 >= 0.0 && p50 <= p99, "seconds, monotone: {p50} {p99}");
    }

    #[test]
    fn memory_budget_evicts_lru_and_answers_typed_errors() {
        // Probe the per-dataset footprint with an unlimited server.
        let (probe, path) = state_with("budget_probe", 120);
        let resp = ok(
            &probe,
            &format!(r#"{{"op":"load","path":"{path}","name":"p"}}"#),
        );
        let one = resp.get("mem_bytes").unwrap().as_u64().unwrap();
        assert_eq!(resp.get("pinned").unwrap().as_bool(), Some(false));
        assert_eq!(resp.get("evicted").unwrap().as_arr().unwrap().len(), 0);
        drop(probe);

        // A budget that fits two of these datasets but not three.
        let state = ServerState::new(ServeConfig {
            load: uncached(),
            max_resident_bytes: 2 * one + one / 2,
            ..ServeConfig::default()
        });
        for name in ["a", "b"] {
            ok(
                &state,
                &format!(r#"{{"op":"load","path":"{path}","name":"{name}"}}"#),
            );
        }
        // Touch "a" so "b" is the least-recently-used victim.
        ok(&state, r#"{"op":"mxm","dataset":"a","algo":"hash"}"#);
        let resp = ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"c"}}"#),
        );
        let evicted = resp.get("evicted").unwrap().as_arr().unwrap();
        assert_eq!(evicted.len(), 1, "{}", resp.to_line());
        assert_eq!(evicted[0].as_str(), Some("b"));
        assert_eq!(state.metrics.counter("evictions_total", &[]).get(), 1);
        // The evicted dataset answers its typed error, not
        // unknown_dataset; the survivors still serve.
        assert_eq!(err_code(&state, r#"{"op":"mxm","dataset":"b"}"#), "evicted");
        ok(&state, r#"{"op":"mxm","dataset":"a","algo":"hash"}"#);
        // The gauge stays under budget after a scrape refresh.
        publish_gauges(&state);
        let resident = state.metrics.gauge("resident_bytes", &[]).get();
        assert!(resident <= (2 * one + one / 2) as f64, "{resident}");

        // A budget nothing fits: typed over_budget, nothing loaded.
        let tiny = ServerState::new(ServeConfig {
            load: uncached(),
            max_resident_bytes: one / 2,
            ..ServeConfig::default()
        });
        assert_eq!(
            err_code(
                &tiny,
                &format!(r#"{{"op":"load","path":"{path}","name":"x"}}"#)
            ),
            "over_budget"
        );
        assert!(tiny.registry.is_empty());

        // Pinned datasets are never evicted: a pinned load filling the
        // budget forces over_budget on the next one.
        let pinned = ServerState::new(ServeConfig {
            load: uncached(),
            max_resident_bytes: one + one / 2,
            ..ServeConfig::default()
        });
        let resp = ok(
            &pinned,
            &format!(r#"{{"op":"load","path":"{path}","name":"keep","pin":true}}"#),
        );
        assert_eq!(resp.get("pinned").unwrap().as_bool(), Some(true));
        assert_eq!(
            err_code(
                &pinned,
                &format!(r#"{{"op":"load","path":"{path}","name":"y"}}"#)
            ),
            "over_budget"
        );
        ok(&pinned, r#"{"op":"mxm","dataset":"keep","algo":"hash"}"#);
    }

    #[test]
    fn quarantine_flows_through_the_protocol() {
        let (state, path) = state_with("quarantine", 100);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        // Two attributed panics: below the default threshold of 3.
        state.registry.note_panic("g");
        state.registry.note_panic("g");
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
        // The third flips quarantine; requests get the typed error.
        assert!(state.registry.note_panic("g").newly_quarantined);
        assert_eq!(
            err_code(&state, r#"{"op":"mxm","dataset":"g"}"#),
            "quarantined"
        );
        let list = ok(&state, r#"{"op":"list"}"#);
        let entry = &list.get("datasets").unwrap().as_arr().unwrap()[0];
        assert_eq!(entry.get("quarantined").unwrap().as_bool(), Some(true));
        assert_eq!(entry.get("panics").unwrap().as_u64(), Some(3));
        // unload + load is the operator's reset lever.
        ok(&state, r#"{"op":"unload","name":"g"}"#);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"hash"}"#);
    }

    #[test]
    fn stats_reports_failpoints_and_budget() {
        // The one lib test that arms a failpoint (the registry's unload
        // race) holds this guard; outside it the table is empty, and the
        // field must still exist.
        let _g = crate::failpoint_guard();
        let (state, _) = state_with("stats_fail", 40);
        let stats = ok(&state, r#"{"op":"stats"}"#);
        assert_eq!(
            stats.get("failpoints").unwrap().as_arr().unwrap().len(),
            0,
            "{}",
            stats.to_line()
        );
        assert_eq!(stats.get("max_resident_bytes").unwrap().as_u64(), Some(0));
    }

    /// A `Write` that counts `write` calls: one call is one segment on an
    /// unbuffered socket.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_exactly_one_write() {
        let (state, _) = state_with("one_write", 40);
        let input = b"{\"op\":\"ping\"}\n{\"op\":\"frobnicate\"}\n{\"op\":\"stats\"}\n";
        let mut out = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        serve_connection(&state, BufReader::new(&input[..]), &mut out).unwrap();
        let text = String::from_utf8(out.bytes).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert_eq!(
            out.writes, 3,
            "a response split across writes stalls on Nagle + delayed ACK"
        );
    }

    #[test]
    fn unknown_dataset_names_mint_no_metric_series() {
        let (state, path) = state_with("series_bound", 40);
        let series = |state: &ServerState| {
            let m = ok(state, r#"{"op":"metrics"}"#);
            ["counters", "gauges", "histograms"]
                .iter()
                .map(|kind| m.get(kind).unwrap().as_arr().unwrap().len())
                .sum::<usize>()
        };
        // `i = 0` touches every verb/outcome series the loop produces,
        // so all a later name could add is a per-dataset series.
        let mut before = 0;
        for i in 0..=100 {
            ok(&state, &format!(r#"{{"op":"ping","dataset":"ghost-{i}"}}"#));
            for verb in ["mxm", "app", "unload"] {
                let line = format!(r#"{{"op":"{verb}","dataset":"ghost-{i}","name":"ghost-{i}"}}"#);
                assert_eq!(err_code(&state, &line), "unknown_dataset");
            }
            if i == 0 {
                series(&state);
                before = series(&state);
            }
        }
        assert_eq!(
            series(&state),
            before,
            "per-dataset series are labeled only from registry-resolved names"
        );
        // A name the registry knows but refuses (quarantined) is bounded
        // by residency, so its rejections stay in its series.
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        assert_eq!(requests_on_g(&state), Some(1), "the load itself");
        for _ in 0..3 {
            state.registry.note_panic("g");
        }
        assert_eq!(
            err_code(&state, r#"{"op":"mxm","dataset":"g"}"#),
            "quarantined"
        );
        assert_eq!(requests_on_g(&state), Some(2));
    }

    #[test]
    fn absurd_threads_are_rejected_at_decode() {
        let (state, path) = state_with("threads_bound", 40);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        assert_eq!(requests_on_g(&state), Some(1), "the load itself");
        for verb in ["mxm", "app"] {
            let (resp, _) = handle_request(
                &state,
                &format!(r#"{{"op":"{verb}","dataset":"g","threads":100000}}"#),
            );
            let error = resp.get("error").unwrap();
            assert_eq!(error.get("code").unwrap().as_str(), Some("bad_request"));
            assert_eq!(
                error.get("message").unwrap().as_str(),
                Some("threads must be at most 256, got 100000")
            );
        }
        assert_eq!(
            requests_on_g(&state),
            Some(1),
            "a request refused at decode is not attributed to the dataset"
        );
        // More threads than this machine has cores is still a fair ask.
        for verb in ["mxm", "app"] {
            let resp = ok(
                &state,
                &format!(r#"{{"op":"{verb}","dataset":"g","threads":8}}"#),
            );
            assert_eq!(resp.get("op").unwrap().as_str(), Some(verb));
        }
        assert_eq!(requests_on_g(&state), Some(3));
    }

    #[test]
    fn oversized_line_drain_is_bounded() {
        let (state, _) = state_with("drain_cap", 40);
        // A line far past the drain cap, no newline anywhere: the
        // connection must answer payload_too_large and close without
        // consuming the stream forever.
        let big = vec![b'x'; DRAIN_CAP_BYTES + MAX_REQUEST_BYTES];
        let mut out = Vec::new();
        serve_connection(&state, BufReader::new(&big[..]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("payload_too_large"), "{text}");
        assert_eq!(text.lines().count(), 1, "one response, then close");
    }

    #[test]
    fn stats_and_shutdown_flow() {
        let (state, path) = state_with("stats", 80);
        ok(
            &state,
            &format!(r#"{{"op":"load","path":"{path}","name":"g"}}"#),
        );
        ok(&state, r#"{"op":"mxm","dataset":"g","algo":"msa"}"#);
        let stats = ok(&state, r#"{"op":"stats"}"#);
        assert!(stats.get("requests").unwrap().as_u64().unwrap() >= 2);
        assert!(stats.get("total_mem_bytes").unwrap().as_u64().unwrap() > 0);
        assert!(stats.get("pool").unwrap().get("hit_rate").is_some());

        let (resp, stop) = handle_request(&state, r#"{"op":"shutdown"}"#);
        assert!(stop);
        assert_eq!(resp.get("stopping").unwrap().as_bool(), Some(true));
        state.begin_shutdown();
        let (resp, stop) = handle_request(&state, r#"{"op":"ping"}"#);
        assert!(!stop);
        assert_eq!(
            resp.get("error").unwrap().get("code").unwrap().as_str(),
            Some("shutting_down")
        );
    }
}
