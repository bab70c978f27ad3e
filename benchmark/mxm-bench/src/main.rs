//! `mxm-bench run …` measures workloads; `mxm-bench diff …` compares two
//! sets of result files. `benchmark/run.sh` builds everything and calls
//! `run` with the binary paths filled in.

use mxm_bench::json::{self, Json};
use mxm_bench::report::{self, Metric};
use mxm_bench::workloads::{self, Config, Outcome, WORKLOADS};
use mxm_bench::{diff, proc, spans, traced};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  mxm-bench run --mxm BIN --layers BIN --karate FILE --work DIR
                [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--traced]
                [--out FILE] [--spec BENCHMARK.json]
  mxm-bench diff A.json[,A2.json...] B.json[,B2.json...] [--spec BENCHMARK.json]

run   measures one workload (or all four) end to end and prints one
      `workload metric value unit n=<samples>` line per metric, then one
      JSON result line. With --trace 1 it instead replays every workload
      with the generator's spans on, runs the layer table, and prints the
      per-layer metrics and the decomposition.
diff  judges B against A per workload x end-to-end metric by the bounds
      in the spec; exits 1 when any metric is worse.";

/// Full set-ups per untraced run (`run-sweep` does three times as many):
/// `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// `mxm --help` processes behind `cli.spawn_ms`.
const SPAWN_REPS: usize = 9;

struct Args {
    flags: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if switches.contains(&name) => out.switches.push(name.to_string()),
                Some(name) => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.flags.push((name.to_string(), v.clone()));
                }
                None => out.positional.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.flag(name)
            .ok_or_else(|| format!("missing --{name}\n{USAGE}"))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{name} {v}: {e}")),
        }
    }

    fn known(&self, names: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !names.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The names a spec section declares; a run must measure every one.
fn declared(spec: &Json, section: &str) -> Result<Vec<String>, String> {
    spec.get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("spec has no '{section}'"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("a '{section}' entry has no name"))
        })
        .collect()
}

/// Keep the metrics the spec declares, in its order; a declared metric
/// the run did not produce (or produced as a non-number) is an error —
/// the driver would reject the run anyway, this names the culprit.
fn select(measured: &[Metric], names: &[String]) -> Result<Vec<Metric>, String> {
    names
        .iter()
        .map(|n| {
            measured
                .iter()
                .find(|m| &m.name == n && m.value.is_finite())
                .cloned()
                .ok_or_else(|| format!("declared metric '{n}' was not measured"))
        })
        .collect()
}

fn print_errors(o: &Outcome) {
    for e in &o.errors {
        eprintln!("{} CHECK FAILED: {e}", o.workload);
    }
}

/// What a finished `run` invocation leaves for the result file.
struct RunOutput {
    records: Vec<Json>,
    simd: String,
    ok: bool,
}

/// `--trace 0`: each workload measured end to end with spans off.
fn run_untraced(cfg: &Config, names: &[&str], spec: Option<&Json>) -> Result<RunOutput, String> {
    let mut out = RunOutput {
        records: Vec::new(),
        simd: String::new(),
        ok: true,
    };
    for name in names {
        let o = workloads::run(name, cfg)?;
        print_errors(&o);
        let e2e = report::end_to_end(&o);
        let contract = match spec {
            Some(s) => select(&e2e, &declared(s, "end_to_end")?)?,
            None => e2e.clone(),
        };
        let mut all = e2e;
        all.extend(report::class_details(&o));
        report::print_lines(o.workload, &all);
        let correct = o.failed == 0 && o.errors.is_empty();
        println!(
            "{}",
            report::result_line(correct, o.attempted, o.failed, &contract)
        );
        out.records.push(report::run_record(
            o.workload,
            cfg.seed,
            false,
            correct,
            o.attempted,
            o.failed,
            &all,
        ));
        out.ok &= correct;
        out.simd = o.simd;
    }
    Ok(out)
}

/// Longest replay window of a traced run, seconds: five replays and the
/// layer table must fit one run's time limit whatever `--seconds` is.
const TRACED_SLICE_MAX_S: f64 = 5.0;

/// `--trace 1`: every workload replayed with the generator's spans on
/// (half the window each, at most [`TRACED_SLICE_MAX_S`]), `serve-light`
/// once more with them off for the tracing overhead, then the layer
/// table; joined into the per-layer metric list and the decomposition.
fn run_traced(
    cfg: &Config,
    layers_bin: &Path,
    replay: Option<&str>,
    spec: Option<&Json>,
) -> Result<RunOutput, String> {
    let slice = Config {
        seconds: (cfg.seconds / 2.0).min(TRACED_SLICE_MAX_S),
        setup_reps: 1,
        traced: true,
        ..cfg.clone()
    };
    let mut outcomes = Vec::new();
    for name in WORKLOADS {
        let mut o = workloads::run(name, &slice)?;
        print_errors(&o);
        let path = cfg.work.join(format!("trace-{name}.json"));
        std::fs::write(&path, spans::chrome_trace(&o.spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("{name}: {} spans -> {}", o.spans.len(), path.display());
        o.spans = Vec::new();
        outcomes.push(o);
    }
    let untraced_light = workloads::run(
        "serve-light",
        &Config {
            traced: false,
            ..slice.clone()
        },
    )?;
    print_errors(&untraced_light);
    let traced_light = outcomes
        .iter()
        .find(|o| o.workload == "serve-light")
        .expect("replayed above");
    let overhead = 1.0 - traced_light.ops_per_s() / untraced_light.ops_per_s();

    let mut layers_cmd = Command::new(layers_bin);
    layers_cmd
        .args(["--seed", &cfg.seed.to_string()])
        .arg("--karate")
        .arg(&cfg.karate)
        .arg("--work")
        .arg(&cfg.work);
    if let Some(w) = replay {
        layers_cmd.args(["--workload", w]);
    }
    // The layer binary reports progress and notes on stderr; pass it on.
    let done = proc::run(&mut layers_cmd, &cfg.work.join("layers.stderr"))
        .map_err(|e| format!("{}: {e}", layers_bin.display()))?;
    if let Ok(notes) = std::fs::read_to_string(cfg.work.join("layers.stderr")) {
        eprint!("{notes}");
    }
    if done.code != 0 {
        return Err(format!("mxm-bench-layers exited with code {}", done.code));
    }
    let layer_table = traced::parse_layer_lines(&done.stdout)?;
    let parts = traced::decompose(&outcomes, &layer_table)?;

    let mut all = layer_table;
    all.extend(traced::residual_metrics(&parts));
    let sweep = outcomes
        .iter()
        .find(|o| o.workload == "run-sweep")
        .expect("replayed above");
    all.extend(traced::cli_metrics(
        sweep,
        &workloads::spawn_floor_ms(&slice, SPAWN_REPS)?,
    )?);
    all.extend(traced::e2e_metrics(&outcomes));
    all.push(Metric::new(
        "trace.overhead_share",
        overhead,
        "ratio",
        untraced_light.attempted as usize,
    ));
    report::print_lines("traced", &all);
    println!("\n{}", traced::render(&parts));

    let attempted: u64 =
        outcomes.iter().map(|o| o.attempted).sum::<u64>() + untraced_light.attempted;
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum::<u64>() + untraced_light.failed;
    let correct = failed == 0
        && outcomes.iter().all(|o| o.errors.is_empty())
        && untraced_light.errors.is_empty();
    let contract = match spec {
        Some(s) => select(&all, &declared(s, "per_layer")?)?,
        None => all.clone(),
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &contract)
    );
    Ok(RunOutput {
        records: vec![report::run_record(
            replay.unwrap_or("all"),
            cfg.seed,
            true,
            correct,
            attempted,
            failed,
            &all,
        )],
        simd: traced_light.simd.clone(),
        ok: correct,
    })
}

fn cmd_run(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &["traced"])?;
    args.known(&[
        "mxm", "layers", "karate", "work", "workload", "seed", "seconds", "trace", "out", "spec",
    ])?;
    if !args.positional.is_empty() {
        return Err(format!(
            "unexpected argument '{}'\n{USAGE}",
            args.positional[0]
        ));
    }
    let traced = match args.flag("trace") {
        None => args.switches.iter().any(|s| s == "traced"),
        Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let seconds: f64 = args.parsed("seconds", 20.0)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    let workload = args.flag("workload");
    if let Some(w) = workload {
        if !WORKLOADS.contains(&w) {
            return Err(format!(
                "unknown workload '{w}' (expected {})",
                WORKLOADS.join("|")
            ));
        }
    }
    let seed: u64 = args.parsed("seed", 1)?;
    let cfg = Config {
        mxm: PathBuf::from(args.required("mxm")?),
        // One directory per invocation: concurrent runs never share files.
        work: PathBuf::from(args.required("work")?).join(format!("run-{}", std::process::id())),
        karate: PathBuf::from(args.required("karate")?),
        seed,
        seconds,
        setup_reps: SETUP_REPS,
        traced: false,
    };
    for (what, path) in [("--mxm", &cfg.mxm), ("--karate", &cfg.karate)] {
        if !path.is_file() {
            return Err(format!("{what} {}: no such file", path.display()));
        }
    }
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("{}: {e}", cfg.work.display()))?;
    let spec = args.flag("spec").map(read_json).transpose()?;

    let result = if traced {
        run_traced(
            &cfg,
            Path::new(args.required("layers")?),
            workload,
            spec.as_ref(),
        )
    } else {
        let names: Vec<&str> = workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
        run_untraced(&cfg, &names, spec.as_ref())
    };
    // Inputs and sidecars are regenerable; the chrome traces are what a
    // reader of a traced run came for, so they move up before the
    // directory goes.
    for entry in std::fs::read_dir(&cfg.work).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with("trace-") {
            let _ = std::fs::rename(entry.path(), cfg.work.with_file_name(entry.file_name()));
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.work);
    let out = result?;

    if let Some(path) = args.flag("out") {
        let doc = Json::obj(vec![
            ("host", report::host_facts(&out.simd, seed)),
            ("runs", Json::Arr(out.records)),
        ]);
        std::fs::write(path, doc.to_line() + "\n").map_err(|e| format!("{path}: {e}"))?;
        eprintln!("results: {path}");
    }
    Ok(out.ok)
}

fn cmd_diff(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw, &[])?;
    args.known(&["spec"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err(format!("diff needs two result-file lists\n{USAGE}"));
    };
    let load = |list: &str| {
        list.split(',')
            .map(read_json)
            .collect::<Result<Vec<_>, _>>()
    };
    let spec = read_json(args.flag("spec").unwrap_or("BENCHMARK.json"))?;
    let rows = diff::compare(&spec, &load(a)?, &load(b)?)?;
    print!("{}", diff::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} better, {} same, {} worse, {} unresolved, {} missing",
        count(diff::Verdict::Better),
        count(diff::Verdict::Same),
        count(diff::Verdict::Worse),
        count(diff::Verdict::Unresolved),
        count(diff::Verdict::Missing)
    );
    Ok(count(diff::Verdict::Worse) == 0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("run") => cmd_run(&raw[1..]),
        Some("diff") => cmd_diff(&raw[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("mxm-bench: {msg}");
            ExitCode::from(2)
        }
    }
}
