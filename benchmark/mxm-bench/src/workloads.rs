//! The four workloads. Each sets the system up from seeded inputs, runs
//! whole cycles of its operation mix in a closed loop until the
//! measuring window has passed, checks every answer against a reference
//! computed outside the program, and (for the serving ones) reconciles
//! the server's own counters with the lines it was sent.
//!
//! Why these four, and what each is expected to show, is recorded in
//! `BENCHMARK.json` and `benchmark/README.md`.

use crate::calib::{self, Calibrator};
use crate::client::{self, Client};
use crate::gen::{rmat_draw, Graph, SplitMix64};
use crate::json::Json;
use crate::model::{triangles, Model};
use crate::proc::{self, Server};
use crate::spans::{Span, Tracer};
use crate::stats::median;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Workload names, as `--workload` and `BENCHMARK.json` spell them.
pub const WORKLOADS: [&str; 4] = ["run-sweep", "serve-kernel", "serve-light", "serve-update"];

/// R-MAT scale of the batch-CLI sweep: ten processes per cycle must fit
/// several cycles into a twenty-second window, so it runs one scale below
/// the resident workloads.
pub const SWEEP_SCALE: u32 = 12;
/// R-MAT scale of the resident (`serve-kernel`, `serve-update`) graph.
pub const SERVE_SCALE: u32 = 13;
/// Undirected edges per `update` batch (twice as many positions).
pub const UPDATE_EDGES: usize = 8;
/// `k` of the k-truss requests. At k = 3 the iteration count is the same
/// for every seed tried (prune once, confirm once); from k = 4 up it
/// varies 4-9 with the seed, which alone spreads the cycle time by a
/// third and would drown any change in the other three classes.
pub const KTRUSS_K: usize = 3;
/// Sources of the batched BC requests.
pub const BC_BATCH: usize = 64;

/// The `mxm run` configurations of one `run-sweep` cycle: class label,
/// `--algo`, `--phases`. `auto` — what a user who passes no flags gets —
/// appears three times so its median rests on the most samples.
pub const SWEEP: [(&str, &str, &str); 10] = [
    ("auto", "auto", "1"),
    ("msa_1p", "msa", "1"),
    ("auto", "auto", "1"),
    ("hash_1p", "hash", "1"),
    ("msa_2p", "msa", "2"),
    ("auto", "auto", "1"),
    ("hash_2p", "hash", "2"),
    ("mca_1p", "mca", "1"),
    ("heap_1p", "heap", "1"),
    ("inner_1p", "inner", "1"),
];

/// `run-sweep` sets up this many times per configured repetition: its
/// set-up is some 70 ms, a tenth of the serving workloads', and a median
/// of five of them moved by a sixth from run to run.
const SWEEP_SETUPS_PER_REP: usize = 3;

/// Everything one workload run needs from the command line.
#[derive(Clone)]
pub struct Config {
    /// The `mxm` binary under test.
    pub mxm: PathBuf,
    /// Scratch directory of this run (created, not cleaned).
    pub work: PathBuf,
    /// The repo's `data/karate.mtx`; copied into `work`, never loaded in
    /// place.
    pub karate: PathBuf,
    pub seed: u64,
    /// Length of the measuring window, seconds. Cycles run whole, so the
    /// measured wall overshoots by at most one cycle.
    pub seconds: f64,
    /// Full set-ups per run; the last one is measured on, all are timed.
    pub setup_reps: usize,
    /// Record the generator's spans.
    pub traced: bool,
}

/// What one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    /// Seconds of each full set-up (inputs → warm system).
    pub setup_s: Vec<f64>,
    /// Measured wall: first measured op sent → last answered, seconds.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// `(class, milliseconds)` of every measured operation.
    pub samples: Vec<(&'static str, f64)>,
    /// Milliseconds of every measured whole cycle.
    pub cycles_ms: Vec<f64>,
    /// Peak resident set of the measured `mxm` process(es), MB.
    pub rss_mb: f64,
    /// Failed checks, in the order they were seen.
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    /// SIMD level `mxm` reported (`mxm run` report line / `ping`).
    pub simd: String,
    /// `mxm convert` seconds per set-up (`run-sweep` only).
    pub convert_s: Vec<f64>,
    /// Milliseconds of every host-speed calibration sample, one before
    /// each measured op (empty unless the workload calibrates; see
    /// [`crate::calib`]).
    pub calib_ms: Vec<f64>,
}

impl Outcome {
    /// Milliseconds of every measured op of one class.
    pub fn class_ms(&self, class: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|&(_, ms)| ms)
            .collect()
    }

    /// How much slower than nominal the host ran during the measured
    /// window: median calibration sample ÷ [`calib::NOMINAL_MS`]. `1`
    /// for a workload that does not calibrate.
    pub fn host_speed(&self) -> f64 {
        median(&self.calib_ms).map_or(1.0, |ms| ms / calib::NOMINAL_MS)
    }

    /// Successful operations per second of measured wall.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted.saturating_sub(self.failed) as f64 / self.wall_s
    }

    /// Classes in first-seen order.
    pub fn classes(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for &(c, _) in &self.samples {
            if !seen.contains(&c) {
                seen.push(c);
            }
        }
        seen
    }
}

/// Run one workload by name.
pub fn run(name: &str, cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("{}: {e}", cfg.work.display()))?;
    match name {
        "run-sweep" => run_sweep(cfg),
        "serve-kernel" => serve_kernel(cfg),
        "serve-light" => serve_light(cfg),
        "serve-update" => serve_update(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected {})",
            WORKLOADS.join("|")
        )),
    }
}

/// Per-connection bookkeeping: samples, counts, failed checks, spans.
struct Recorder {
    tracer: Tracer,
    /// Warm-up ops are checked but neither counted nor sampled.
    measuring: bool,
    samples: Vec<(&'static str, f64)>,
    cycles_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Non-`ok` responses over the connection's whole life — what the
    /// server's `errors_total` must equal.
    server_errors: u64,
    server_busy: u64,
    errors: Vec<String>,
    first: Option<Instant>,
    last: Option<Instant>,
    /// Times the fixed kernel before every measured op when present.
    calibrator: Option<Calibrator>,
    calib_ms: Vec<f64>,
    /// Seconds spent calibrating so far — not the program's time, so
    /// taken out of every cycle's wall.
    calibrating_s: f64,
    /// The part of `calibrating_s` that lies after the first measured
    /// op, and so inside the measured wall.
    paused_s: f64,
}

/// Failed checks kept verbatim; beyond this only the count grows.
const MAX_ERRORS_KEPT: usize = 20;

impl Recorder {
    /// `calibrate`: the workload's time is compute, so it reports at
    /// nominal host speed. A traced run never does: its layer timings
    /// are raw, so the end-to-end times they are summed against are too.
    fn new(cfg: &Config, epoch: Instant, lane: u32, calibrate: bool) -> Recorder {
        Recorder {
            tracer: Tracer::new(cfg.traced, epoch, lane),
            measuring: false,
            samples: Vec::new(),
            cycles_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            server_errors: 0,
            server_busy: 0,
            errors: Vec::new(),
            first: None,
            last: None,
            calibrator: (calibrate && !cfg.traced).then(Calibrator::new),
            calib_ms: Vec::new(),
            calibrating_s: 0.0,
            paused_s: 0.0,
        }
    }

    /// One calibration sample, taken right before a measured op: a
    /// 12 ms think time, short enough that a connection's delayed-ACK
    /// state is what back-to-back requests meet (after pauses of 100 ms
    /// the next answer skipped its 40 ms stall).
    fn calibrate(&mut self) {
        if let (true, Some(calibrator)) = (self.measuring, &self.calibrator) {
            let t0 = Instant::now();
            self.calib_ms.push(calibrator.sample());
            let took = t0.elapsed().as_secs_f64();
            self.calibrating_s += took;
            if self.first.is_some() {
                self.paused_s += took;
            }
        }
    }

    fn note(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS_KEPT {
            self.errors.push(msg);
        }
    }

    /// Fold one finished operation in: `verdict` is the check's result.
    fn finish(
        &mut self,
        class: &'static str,
        ctx: (u32, u32),
        start: Instant,
        end: Instant,
        verdict: Result<(), String>,
    ) {
        let failed = verdict.is_err();
        if let Err(msg) = verdict {
            self.note(format!("{class}: {msg}"));
        }
        if self.measuring {
            self.attempted += 1;
            self.failed += u64::from(failed);
            self.samples
                .push((class, end.duration_since(start).as_secs_f64() * 1e3));
            self.first.get_or_insert(start);
            self.last = Some(end);
            let id = self.tracer.reserve();
            self.tracer.record(id, ctx.0, ctx.1, class, start, end);
        } else if failed {
            // A warm-up failure still makes the run incorrect.
            self.failed += 1;
        }
    }

    /// One request/response over the socket, timed from before the line
    /// is written to after the response is parsed. A transport error
    /// aborts the run (`Err`); a non-`ok` answer or a failed `check`
    /// counts as a failed operation.
    fn request(
        &mut self,
        client: &mut Client,
        class: &'static str,
        ctx: (u32, u32),
        line: &str,
        check: impl FnOnce(&Json) -> Result<(), String>,
    ) -> Result<Json, String> {
        self.calibrate();
        let start = Instant::now();
        let resp = client.request(line).map_err(|e| format!("{class}: {e}"))?;
        let end = Instant::now();
        let verdict = if client::is_ok(&resp) {
            check(&resp)
        } else {
            self.server_errors += 1;
            if client::error_code(&resp) == Some("busy") {
                self.server_busy += 1;
            }
            Err(format!("server answered {}", resp.to_line()))
        };
        self.finish(class, ctx, start, end, verdict);
        Ok(resp)
    }

    /// Run whole cycles until `seconds` have passed since `t0`.
    fn measure(
        &mut self,
        t0: Instant,
        seconds: f64,
        mut cycle: impl FnMut(&mut Recorder, (u32, u32)) -> Result<(), String>,
    ) -> Result<(), String> {
        self.measuring = true;
        let mut n = 0u32;
        while t0.elapsed().as_secs_f64() < seconds {
            n += 1;
            let id = self.tracer.reserve();
            let calibrating_s = self.calibrating_s;
            let start = Instant::now();
            cycle(self, (id, n))?;
            let end = Instant::now();
            self.tracer.record(id, 0, n, "cycle", start, end);
            self.cycles_ms.push(
                (end.duration_since(start).as_secs_f64() - (self.calibrating_s - calibrating_s))
                    * 1e3,
            );
        }
        self.measuring = false;
        Ok(())
    }
}

/// Merge the recorders of a run into its [`Outcome`].
fn outcome(
    workload: &'static str,
    recorders: Vec<Recorder>,
    setup_s: Vec<f64>,
    rss_mb: f64,
    simd: String,
    extra_errors: Vec<String>,
) -> Outcome {
    let first = recorders.iter().filter_map(|r| r.first).min();
    let last = recorders.iter().filter_map(|r| r.last).max();
    let mut out = Outcome {
        workload,
        setup_s,
        wall_s: match (first, last) {
            (Some(a), Some(b)) => {
                b.duration_since(a).as_secs_f64()
                    - recorders.iter().map(|r| r.paused_s).sum::<f64>()
            }
            _ => 0.0,
        },
        attempted: 0,
        failed: 0,
        samples: Vec::new(),
        cycles_ms: Vec::new(),
        rss_mb,
        errors: Vec::new(),
        spans: Vec::new(),
        simd,
        convert_s: Vec::new(),
        calib_ms: Vec::new(),
    };
    for r in recorders {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.samples.extend(r.samples);
        out.cycles_ms.extend(r.cycles_ms);
        out.calib_ms.extend(r.calib_ms);
        out.errors.extend(r.errors);
        out.spans.extend(r.tracer.into_spans());
    }
    // A failed run-level check (accounting, final state) is a failure
    // the per-op counts cannot express; it must not read as correct.
    out.failed += extra_errors.len() as u64;
    out.errors.extend(extra_errors);
    out
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn fresh_dir(cfg: &Config, name: &str) -> Result<PathBuf, String> {
    let dir = cfg.work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// `mxm run --reps 1 <args> <file>` to completion; the fingerprint and
/// SIMD level it printed.
fn mxm_run(cfg: &Config, args: &[&str], file: &Path) -> Result<(proc::Finished, String), String> {
    let done = proc::run(
        Command::new(&cfg.mxm)
            .args(["run", "--reps", "1"])
            .args(args)
            .arg(file),
        &cfg.work.join("mxm.stderr"),
    )
    .map_err(|e| format!("mxm run: {e}"))?;
    let fp = proc::run_fingerprint(&done.stdout)
        .unwrap_or("")
        .to_string();
    Ok((done, fp))
}

/// Reference fingerprint of `C = pattern(A) ⊙ A·A` for a file: one
/// `mxm run --algo auto` that leaves no sidecar behind.
fn reference_fingerprint(cfg: &Config, file: &Path) -> Result<String, String> {
    let (done, fp) = mxm_run(cfg, &["--no-cache", "--algo", "auto"], file)?;
    if done.code != 0 || fp.is_empty() {
        return Err(format!(
            "reference `mxm run` on {} failed (exit {})",
            file.display(),
            done.code
        ));
    }
    Ok(fp)
}

// ---------------------------------------------------------------- run-sweep

fn run_sweep(cfg: &Config) -> Result<Outcome, String> {
    let mut rec = Recorder::new(cfg, Instant::now(), 1, true);
    let mut setup_s = Vec::new();
    let mut convert_s = Vec::new();
    let mut reference = String::new();
    let mut simd = String::new();
    let mut msb = PathBuf::new();
    for rep in 0..cfg.setup_reps * SWEEP_SETUPS_PER_REP {
        let t0 = Instant::now();
        let dir = fresh_dir(cfg, &format!("run-sweep-{rep}"))?;
        let mtx = dir.join("graph.mtx");
        msb = dir.join("graph.msb");
        write(&mtx, &Graph::rmat(SWEEP_SCALE, cfg.seed).to_mtx())?;
        let conv = proc::run(
            Command::new(&cfg.mxm).arg("convert").arg(&mtx).arg(&msb),
            &cfg.work.join("mxm.stderr"),
        )
        .map_err(|e| format!("mxm convert: {e}"))?;
        if conv.code != 0 {
            return Err(format!("mxm convert exited {}", conv.code));
        }
        convert_s.push(conv.wall_s);
        // Warm-up: one default product pulls the binary and the .msb
        // into the page cache and yields the reference fingerprint.
        let (warm, fp) = mxm_run(cfg, &["--mmap", "--algo", "auto"], &msb)?;
        if warm.code != 0 || fp.is_empty() {
            return Err(format!("warm-up `mxm run` exited {}", warm.code));
        }
        if !reference.is_empty() && reference != fp {
            rec.note(format!("set-up {rep}: fingerprint {fp} != {reference}"));
            rec.failed += 1;
        }
        reference = fp;
        simd = proc::report_field(&warm.stdout, "simd")
            .and_then(|s| s.split_whitespace().next())
            .unwrap_or("unknown")
            .to_string();
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut rss_mb = 0.0f64;
    rec.measure(Instant::now(), cfg.seconds, |rec, ctx| {
        for (class, algo, phases) in SWEEP {
            rec.calibrate();
            let (done, fp) = mxm_run(cfg, &["--mmap", "--algo", algo, "--phases", phases], &msb)?;
            rss_mb = rss_mb.max(done.rss_mb);
            let verdict = if done.code != 0 {
                Err(format!("exit code {}", done.code))
            } else if fp != reference {
                Err(format!("fingerprint {fp} != {reference}"))
            } else {
                Ok(())
            };
            rec.finish(class, ctx, done.started, done.ended, verdict);
        }
        Ok(())
    })?;
    let mut out = outcome("run-sweep", vec![rec], setup_s, rss_mb, simd, Vec::new());
    out.convert_s = convert_s;
    Ok(out)
}

/// Median wall of `mxm --help`, milliseconds: what a process costs
/// before it does anything (the traced run's `cli.spawn_ms`).
pub fn spawn_floor_ms(cfg: &Config, reps: usize) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|_| {
            proc::run(
                Command::new(&cfg.mxm).arg("--help"),
                &cfg.work.join("mxm.stderr"),
            )
            .map(|d| d.wall_s * 1e3)
            .map_err(|e| format!("mxm --help: {e}"))
        })
        .collect()
}

// ------------------------------------------------------------ serve shared

fn field_u64(resp: &Json, key: &str) -> Result<u64, String> {
    resp.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response has no integer '{key}': {}", resp.to_line()))
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} {got:?}, expected {want:?}"))
    }
}

fn check_fingerprint(resp: &Json, want: &str) -> Result<(), String> {
    expect_eq(
        "fingerprint",
        resp.get("fingerprint").and_then(Json::as_str).unwrap_or(""),
        want,
    )
}

fn mxm_line(dataset: &str) -> String {
    format!(r#"{{"op":"mxm","dataset":"{dataset}"}}"#)
}

fn app_line(dataset: &str, app: &str, extra: &str) -> String {
    format!(r#"{{"op":"app","dataset":"{dataset}","app":"{app}"{extra}}}"#)
}

/// An unlabeled counter from a `metrics` response; `0` when the series
/// was never touched (the registry creates counters on first use).
fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|c| {
            c.get("name").and_then(Json::as_str) == Some(name)
                && c.get("labels")
                    .and_then(Json::as_obj)
                    .is_some_and(|l| l.is_empty())
        })
        .and_then(|c| c.get("value"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Reconcile the server's counters with what the generator sent and
/// saw, then shut the server down. Returns the server's peak RSS and
/// the failed reconciliations.
fn account_and_stop(
    server: Server,
    client: &mut Client,
    recorders: &[&Recorder],
) -> Result<(f64, Vec<String>), String> {
    // A `metrics` request snapshots before recording itself, so it must
    // report exactly the lines sent before it.
    let sent = server.sent.load(Ordering::Relaxed);
    let metrics = client.request(r#"{"op":"metrics"}"#)?;
    let mut errors = Vec::new();
    let mut reconcile = |name: &str, want: u64| {
        let got = counter(&metrics, name);
        if got != want {
            errors.push(format!(
                "accounting: server {name} = {got}, generator counted {want}"
            ));
        }
    };
    reconcile("requests_total", sent);
    reconcile(
        "errors_total",
        recorders.iter().map(|r| r.server_errors).sum(),
    );
    reconcile(
        "rejected_busy_total",
        recorders.iter().map(|r| r.server_busy).sum(),
    );
    let rss_mb = server.rss_mb()?;
    let code = server.stop(client)?;
    if code != 0 {
        errors.push(format!("mxm serve exited with code {code}"));
    }
    Ok((rss_mb, errors))
}

/// A warm server, ready to be measured on.
struct Live<T> {
    /// Seconds of each full set-up, the kept one included.
    setup_s: Vec<f64>,
    server: Server,
    clients: Vec<Client>,
    /// Whatever the warm-up built that the measuring phase continues
    /// from.
    state: T,
}

/// Set a serving workload up `cfg.setup_reps` times — write the input
/// (`input` regenerates it, inside the timed region), start `mxm serve`
/// preloading it, run `warm` (connections + one unmeasured cycle) — and
/// keep the last one. Each repetition gets a fresh directory, so the
/// sidecar write is paid every time.
fn set_up_server<T>(
    cfg: &Config,
    workload: &str,
    file: &str,
    mut input: impl FnMut() -> String,
    mut warm: impl FnMut(&Server) -> Result<(Vec<Client>, T), String>,
) -> Result<Live<T>, String> {
    let mut setup_s = Vec::new();
    for rep in 1..=cfg.setup_reps {
        let t0 = Instant::now();
        let path = fresh_dir(cfg, &format!("{workload}-{rep}"))?.join(file);
        write(&path, &input())?;
        let server = Server::spawn(
            &cfg.mxm,
            &[path.to_str().ok_or("non-UTF-8 work path")?],
            &cfg.work.join("mxm.stderr"),
        )?;
        let (mut clients, state) = warm(&server)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep == cfg.setup_reps {
            return Ok(Live {
                setup_s,
                server,
                clients,
                state,
            });
        }
        match server.stop(&mut clients[0])? {
            0 => {}
            code => return Err(format!("mxm serve exited with code {code}")),
        }
    }
    Err("setup_reps must be at least 1".into())
}

fn ping_simd(client: &mut Client) -> Result<String, String> {
    let pong = client.request(r#"{"op":"ping"}"#)?;
    Ok(pong
        .get("simd")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string())
}

// ------------------------------------------------------------- serve-kernel

/// Answers that must not change from cycle to cycle. The first response
/// of each app pins its fields; every later one is compared to it.
#[derive(Default)]
struct Pinned {
    ktruss: Option<(u64, u64)>,
    bc: Option<(u64, f64)>,
}

/// Relative tolerance for BC's `scores_sum` across *schemes*: they
/// accumulate the same dependencies in different orders. Across cycles
/// of one scheme the sum must repeat exactly.
const BC_SCHEME_TOLERANCE: f64 = 1e-9;

fn ktruss_fields(resp: &Json) -> Result<(u64, u64), String> {
    Ok((field_u64(resp, "edges")?, field_u64(resp, "iterations")?))
}

fn bc_fields(resp: &Json) -> Result<(u64, f64), String> {
    let sum = resp
        .get("scores_sum")
        .and_then(Json::as_f64)
        .ok_or("bc response has no 'scores_sum'")?;
    Ok((field_u64(resp, "depth")?, sum))
}

/// One `serve-kernel` cycle: the default product, then the three
/// applications the paper evaluates.
fn kernel_cycle(
    rec: &mut Recorder,
    client: &mut Client,
    ctx: (u32, u32),
    fingerprint: &str,
    tri: u64,
    pinned: &mut Pinned,
) -> Result<(), String> {
    rec.request(client, "mxm", ctx, &mxm_line("graph"), |r| {
        check_fingerprint(r, fingerprint)
    })?;
    rec.request(client, "tc", ctx, &app_line("graph", "tc", ""), |r| {
        expect_eq("triangles", field_u64(r, "triangles")?, tri)
    })?;
    rec.request(
        client,
        "ktruss",
        ctx,
        &app_line("graph", "ktruss", &format!(r#","k":{KTRUSS_K}"#)),
        |r| {
            let got = ktruss_fields(r)?;
            expect_eq(
                "ktruss (edges, iterations)",
                got,
                *pinned.ktruss.get_or_insert(got),
            )
        },
    )?;
    rec.request(
        client,
        "bc",
        ctx,
        &app_line("graph", "bc", &format!(r#","batch":{BC_BATCH}"#)),
        |r| {
            let got = bc_fields(r)?;
            expect_eq("bc (depth, scores_sum)", got, *pinned.bc.get_or_insert(got))
        },
    )?;
    Ok(())
}

/// Once per run: k-truss and BC must agree between this repo's MSA-1P
/// and its SuiteSparse-style late-masking baseline.
fn cross_scheme_check(rec: &mut Recorder, client: &mut Client) -> Result<(), String> {
    let mut ktruss = Vec::new();
    let mut bc = Vec::new();
    for scheme in ["msa-1p", "ss:saxpy"] {
        let extra = format!(r#","k":{KTRUSS_K},"scheme":"{scheme}""#);
        let r = rec.request(
            client,
            "ktruss",
            (0, 0),
            &app_line("graph", "ktruss", &extra),
            |_| Ok(()),
        )?;
        ktruss.push(ktruss_fields(&r));
        let extra = format!(r#","batch":{BC_BATCH},"scheme":"{scheme}""#);
        let r = rec.request(
            client,
            "bc",
            (0, 0),
            &app_line("graph", "bc", &extra),
            |_| Ok(()),
        )?;
        bc.push(bc_fields(&r));
    }
    if ktruss[0] != ktruss[1] {
        rec.failed += 1;
        rec.note(format!(
            "ktruss msa-1p {:?} != ss:saxpy {:?}",
            ktruss[0], ktruss[1]
        ));
    }
    let agree = match (&bc[0], &bc[1]) {
        (Ok((d0, s0)), Ok((d1, s1))) => {
            d0 == d1 && (s0 - s1).abs() <= BC_SCHEME_TOLERANCE * s0.abs().max(s1.abs())
        }
        _ => false,
    };
    if !agree {
        rec.failed += 1;
        rec.note(format!("bc msa-1p {:?} != ss:saxpy {:?}", bc[0], bc[1]));
    }
    Ok(())
}

fn serve_kernel(cfg: &Config) -> Result<Outcome, String> {
    let graph = Graph::rmat(SERVE_SCALE, cfg.seed);
    let tri = triangles(&graph);
    let ref_dir = fresh_dir(cfg, "serve-kernel-ref")?;
    write(&ref_dir.join("graph.mtx"), &graph.to_mtx())?;
    let fingerprint = reference_fingerprint(cfg, &ref_dir.join("graph.mtx"))?;

    let mut rec = Recorder::new(cfg, Instant::now(), 1, true);
    let mut pinned = Pinned::default();
    let live = set_up_server(
        cfg,
        "serve-kernel",
        "graph.mtx",
        || Graph::rmat(SERVE_SCALE, cfg.seed).to_mtx(),
        |server| {
            let mut client = server.connect()?;
            kernel_cycle(
                &mut rec,
                &mut client,
                (0, 0),
                &fingerprint,
                tri,
                &mut pinned,
            )?;
            Ok((vec![client], ()))
        },
    )?;
    let Live {
        setup_s,
        server,
        mut clients,
        ..
    } = live;
    let client = &mut clients[0];
    cross_scheme_check(&mut rec, client)?;
    let simd = ping_simd(client)?;

    rec.measure(Instant::now(), cfg.seconds, |rec, ctx| {
        kernel_cycle(rec, client, ctx, &fingerprint, tri, &mut pinned)
    })?;
    let (rss_mb, errors) = account_and_stop(server, client, &[&rec])?;
    Ok(outcome(
        "serve-kernel",
        vec![rec],
        setup_s,
        rss_mb,
        simd,
        errors,
    ))
}

// -------------------------------------------------------------- serve-light

/// Connections of `serve-light`: one per core of the two-core target.
const LIGHT_CONNECTIONS: usize = 2;
/// Pooled samples `serve-light` collects at least, so its p90 has ten
/// samples beyond it.
const LIGHT_MIN_SAMPLES: usize = crate::stats::P90_MIN_SAMPLES;

fn light_cycle(
    rec: &mut Recorder,
    client: &mut Client,
    ctx: (u32, u32),
    fingerprint: &str,
    tri: u64,
) -> Result<(), String> {
    rec.request(client, "ping", ctx, r#"{"op":"ping"}"#, |r| {
        expect_eq("pong", r.get("pong").and_then(Json::as_bool), Some(true))
    })?;
    rec.request(client, "mxm", ctx, &mxm_line("karate"), |r| {
        check_fingerprint(r, fingerprint)
    })?;
    rec.request(client, "tc", ctx, &app_line("karate", "tc", ""), |r| {
        expect_eq("triangles", field_u64(r, "triangles")?, tri)
    })?;
    rec.request(client, "stats", ctx, r#"{"op":"stats"}"#, |r| {
        field_u64(r, "requests_total").map(|_| ())
    })?;
    Ok(())
}

fn serve_light(cfg: &Config) -> Result<Outcome, String> {
    let text = std::fs::read_to_string(&cfg.karate)
        .map_err(|e| format!("{}: {e}", cfg.karate.display()))?;
    let tri = triangles(&Graph::from_mtx(&text)?);
    let ref_dir = fresh_dir(cfg, "serve-light-ref")?;
    write(&ref_dir.join("karate.mtx"), &text)?;
    let fingerprint = reference_fingerprint(cfg, &ref_dir.join("karate.mtx"))?;

    let epoch = Instant::now();
    let mut recs: Vec<Recorder> = (0..LIGHT_CONNECTIONS)
        .map(|lane| Recorder::new(cfg, epoch, lane as u32 + 1, false))
        .collect();
    let live = set_up_server(
        cfg,
        "serve-light",
        "karate.mtx",
        || text.clone(),
        |server| {
            let mut clients = Vec::new();
            for rec in &mut recs {
                let mut client = server.connect()?;
                light_cycle(rec, &mut client, (0, 0), &fingerprint, tri)?;
                clients.push(client);
            }
            Ok((clients, ()))
        },
    )?;
    let Live {
        setup_s,
        server,
        mut clients,
        ..
    } = live;
    let simd = ping_simd(&mut clients[0])?;

    // Both connections share one window. It is stretched (up to 3x) only
    // if the pooled sample count would leave the p90 unsupported.
    let t0 = Instant::now();
    let mut window = cfg.seconds;
    loop {
        std::thread::scope(|scope| {
            let handles: Vec<_> = recs
                .iter_mut()
                .zip(clients.iter_mut())
                .map(|(rec, client)| {
                    let fingerprint = &fingerprint;
                    scope.spawn(move || {
                        rec.measure(t0, window, |rec, ctx| {
                            light_cycle(rec, client, ctx, fingerprint, tri)
                        })
                    })
                })
                .collect();
            handles.into_iter().try_for_each(|h| {
                h.join()
                    .map_err(|_| "connection thread panicked".to_string())?
            })
        })?;
        let pooled: usize = recs.iter().map(|r| r.samples.len()).sum();
        if pooled >= LIGHT_MIN_SAMPLES {
            break;
        }
        if window >= 3.0 * cfg.seconds {
            return Err(format!(
                "serve-light collected {pooled} samples in {window:.0} s; {LIGHT_MIN_SAMPLES} are needed for its p90"
            ));
        }
        window += cfg.seconds;
    }
    let (rss_mb, errors) =
        account_and_stop(server, &mut clients[0], &recs.iter().collect::<Vec<_>>())?;
    Ok(outcome("serve-light", recs, setup_s, rss_mb, simd, errors))
}

// ------------------------------------------------------------- serve-update

/// The write side's state: the model the server must track, and the
/// benchmark-inserted edges still standing, oldest first.
#[derive(Clone)]
struct UpdateState {
    model: Model,
    rng: SplitMix64,
    standing: VecDeque<(u32, u32)>,
}

/// Mixed into `--seed` for the update stream, so it is not the stream
/// that generated the graph.
pub const UPDATE_SEED_MIX: u64 = 0x5EED_ED17;

/// One `update` batch: [`UPDATE_EDGES`] new undirected edges `(lo, hi)`
/// with endpoints drawn from the graph's own R-MAT distribution; loops,
/// edges `present` in the graph and repeats within the batch are
/// redrawn. Shared with the layer table, which replays the same batch
/// shape as direct calls.
pub fn draw_update_batch(
    rng: &mut SplitMix64,
    present: impl Fn(u32, u32) -> bool,
) -> Vec<(u32, u32)> {
    let mut batch: Vec<(u32, u32)> = Vec::with_capacity(UPDATE_EDGES);
    while batch.len() < UPDATE_EDGES {
        let (u, v) = rmat_draw(rng, SERVE_SCALE);
        let e = (u.min(v), u.max(v));
        if u != v && !present(u, v) && !batch.contains(&e) {
            batch.push(e);
        }
    }
    batch
}

/// `[[u,v],[v,u],...]`: both stored positions of each undirected edge.
fn positions(edges: &[(u32, u32)]) -> String {
    let parts: Vec<String> = edges
        .iter()
        .map(|&(u, v)| format!("[{u},{v}],[{v},{u}]"))
        .collect();
    format!("[{}]", parts.join(","))
}

fn update_insert(
    rec: &mut Recorder,
    client: &mut Client,
    ctx: (u32, u32),
    st: &mut UpdateState,
) -> Result<(), String> {
    let batch = draw_update_batch(&mut st.rng, |u, v| st.model.has_edge(u, v));
    let line = format!(
        r#"{{"op":"update","dataset":"graph","insert":{}}}"#,
        positions(&batch)
    );
    let resp = rec.request(client, "update", ctx, &line, |r| {
        expect_eq("applied", field_u64(r, "applied")?, 2 * UPDATE_EDGES as u64)
    })?;
    if client::is_ok(&resp) {
        for &(u, v) in &batch {
            st.model.insert(u, v);
            st.standing.push_back((u, v));
        }
    }
    Ok(())
}

fn update_delete(
    rec: &mut Recorder,
    client: &mut Client,
    ctx: (u32, u32),
    st: &mut UpdateState,
) -> Result<(), String> {
    let batch: Vec<(u32, u32)> = st.standing.iter().take(UPDATE_EDGES).copied().collect();
    let line = format!(
        r#"{{"op":"update","dataset":"graph","delete":{}}}"#,
        positions(&batch)
    );
    let resp = rec.request(client, "update", ctx, &line, |r| {
        expect_eq("applied", field_u64(r, "applied")?, 2 * batch.len() as u64)
    })?;
    if client::is_ok(&resp) {
        for &(u, v) in &batch {
            st.model.delete(u, v);
            st.standing.pop_front();
        }
    }
    Ok(())
}

/// `app tc` checked against the model: the total always, and that the
/// server took its incremental path whenever an update preceded it.
fn update_tc(
    rec: &mut Recorder,
    client: &mut Client,
    ctx: (u32, u32),
    st: &UpdateState,
    incremental: bool,
) -> Result<(), String> {
    let want = st.model.triangles();
    rec.request(client, "tc", ctx, &app_line("graph", "tc", ""), |r| {
        expect_eq("triangles", field_u64(r, "triangles")?, want)?;
        expect_eq(
            "incremental",
            r.get("incremental").and_then(Json::as_bool),
            Some(incremental),
        )
    })?;
    Ok(())
}

/// One `serve-update` cycle: insert a batch, recount, read the product
/// (so re-derivation deferred past `update` would still be paid inside
/// the cycle), delete the oldest batch, recount.
fn update_cycle(
    rec: &mut Recorder,
    client: &mut Client,
    ctx: (u32, u32),
    st: &mut UpdateState,
) -> Result<(), String> {
    update_insert(rec, client, ctx, st)?;
    update_tc(rec, client, ctx, st, true)?;
    rec.request(client, "mxm", ctx, &mxm_line("graph"), |r| {
        expect_eq(
            "fingerprint length",
            r.get("fingerprint").and_then(Json::as_str).map(str::len),
            Some(16),
        )
    })?;
    update_delete(rec, client, ctx, st)?;
    update_tc(rec, client, ctx, st, true)
}

fn serve_update(cfg: &Config) -> Result<Outcome, String> {
    // The model is the checker's, not the system's: built once, outside
    // the timed set-ups, and copied into each.
    let fresh = UpdateState {
        model: Model::new(&Graph::rmat(SERVE_SCALE, cfg.seed)),
        rng: SplitMix64::new(cfg.seed ^ UPDATE_SEED_MIX),
        standing: VecDeque::new(),
    };
    let mut rec = Recorder::new(cfg, Instant::now(), 1, true);
    let live = set_up_server(
        cfg,
        "serve-update",
        "graph.mtx",
        || Graph::rmat(SERVE_SCALE, cfg.seed).to_mtx(),
        |server| {
            let mut st = fresh.clone();
            let mut client = server.connect()?;
            // Warm-up: a full count seeds the server's per-row cache, one
            // extra insert leaves a batch standing so deletes always lag
            // inserts, then one whole cycle.
            update_tc(&mut rec, &mut client, (0, 0), &st, false)?;
            update_insert(&mut rec, &mut client, (0, 0), &mut st)?;
            update_cycle(&mut rec, &mut client, (0, 0), &mut st)?;
            Ok((vec![client], st))
        },
    )?;
    let Live {
        setup_s,
        server,
        mut clients,
        state: mut st,
    } = live;
    let client = &mut clients[0];
    let simd = ping_simd(client)?;

    rec.measure(Instant::now(), cfg.seconds, |rec, ctx| {
        update_cycle(rec, client, ctx, &mut st)
    })?;

    // Final state: fold the overlay, then the resident product must be
    // bit-identical to `mxm run` on the model's edge set.
    let final_mtx = fresh_dir(cfg, "serve-update-final")?.join("model.mtx");
    write(&final_mtx, &st.model.graph().to_mtx())?;
    let want = reference_fingerprint(cfg, &final_mtx)?;
    rec.request(
        client,
        "update",
        (0, 0),
        r#"{"op":"update","dataset":"graph","compact":true}"#,
        |r| {
            expect_eq(
                "compacted",
                r.get("compacted").and_then(Json::as_bool),
                Some(true),
            )?;
            expect_eq("delta_nnz", field_u64(r, "delta_nnz")?, 0)
        },
    )?;
    rec.request(client, "mxm", (0, 0), &mxm_line("graph"), |r| {
        check_fingerprint(r, &want)
    })?;

    let (rss_mb, errors) = account_and_stop(server, client, &[&rec])?;
    Ok(outcome(
        "serve-update",
        vec![rec],
        setup_s,
        rss_mb,
        simd,
        errors,
    ))
}
