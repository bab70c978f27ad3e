//! From a workload [`Outcome`] to named metrics, report lines and the
//! result file.

use crate::json::Json;
use crate::stats::{median, p90};
use crate::workloads::Outcome;

/// One reported number: `workload metric value unit n=<samples>`.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a single measurement or count).
    pub n: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            n,
        }
    }
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

/// The class whose median is the workload's `mxm_p50_ms`: the default
/// product — `--algo auto` processes for the CLI sweep, the `mxm` verb
/// over the socket.
fn product_class(workload: &str) -> &'static str {
    if workload == "run-sweep" {
        "auto"
    } else {
        "mxm"
    }
}

/// The end-to-end metrics of `BENCHMARK.json`, defined on every
/// workload. Where the workload calibrated ([`Outcome::host_speed`] is
/// not 1), every duration and the rate are reported at nominal host
/// speed; [`class_details`] prints the raw ones beside them.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let product = o.class_ms(product_class(o.workload));
    let speed = o.host_speed();
    vec![
        Metric::new("setup_s", med(&o.setup_s) / speed, "s", o.setup_s.len()),
        Metric::new(
            "ops_per_s",
            o.ops_per_s() * speed,
            "ops/s",
            o.attempted as usize,
        ),
        Metric::new(
            "cycle_p50_ms",
            med(&o.cycles_ms) / speed,
            "ms",
            o.cycles_ms.len(),
        ),
        Metric::new("mxm_p50_ms", med(&product) / speed, "ms", product.len()),
        Metric::new("rss_mb", o.rss_mb, "MB", 1),
    ]
}

/// Per-class medians of one workload beyond the product class that
/// [`end_to_end`] already reports (and the pooled latency with its p90
/// where at least a hundred samples support one). No class occurs on
/// every workload, so these cannot be `BENCHMARK.json` end-to-end
/// metrics; the traced run reports them as `e2e.<workload>.*`.
pub fn class_details(o: &Outcome) -> Vec<Metric> {
    let speed = o.host_speed();
    let mut out: Vec<Metric> = o
        .classes()
        .into_iter()
        .filter(|&c| c != product_class(o.workload))
        .map(|c| {
            let ms = o.class_ms(c);
            Metric::new(format!("{c}_p50_ms"), med(&ms) / speed, "ms", ms.len())
        })
        .collect();
    if !o.calib_ms.is_empty() {
        let product = o.class_ms(product_class(o.workload));
        out.push(Metric::new("host_speed", speed, "ratio", o.calib_ms.len()));
        out.push(Metric::new(
            "raw_setup_s",
            med(&o.setup_s),
            "s",
            o.setup_s.len(),
        ));
        out.push(Metric::new(
            "raw_ops_per_s",
            o.ops_per_s(),
            "ops/s",
            o.attempted as usize,
        ));
        out.push(Metric::new(
            "raw_cycle_p50_ms",
            med(&o.cycles_ms),
            "ms",
            o.cycles_ms.len(),
        ));
        out.push(Metric::new(
            "raw_mxm_p50_ms",
            med(&product),
            "ms",
            product.len(),
        ));
    }
    if o.workload == "serve-light" {
        let pooled: Vec<f64> = o.samples.iter().map(|&(_, ms)| ms).collect();
        out.push(Metric::new("lat_p50_ms", med(&pooled), "ms", pooled.len()));
        if let Some(tail) = p90(&pooled) {
            out.push(Metric::new("lat_p90_ms", tail, "ms", pooled.len()));
        }
    }
    out.push(Metric::new(
        "fail_share",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
        o.attempted as usize,
    ));
    out
}

/// `workload metric value unit n=<samples>`, one line per metric.
pub fn print_lines(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload} {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
}

/// The metrics object of the driver's result line and of result files:
/// `{"name": {"value": v, "unit": u, "n": n}}`.
pub fn metrics_json(metrics: &[Metric], with_n: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", Json::from(m.value)), ("unit", Json::str(&m.unit))];
                if with_n {
                    fields.push(("n", Json::from(m.n as u64)));
                }
                (m.name.clone(), Json::obj(fields))
            })
            .collect(),
    )
}

/// The last stdout line of a run, exactly the keys the driver reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics_json(metrics, false)),
    ])
    .to_line()
}

/// Facts about the machine and tree a result file was measured on.
pub fn host_facts(simd: &str, seed: u64) -> Json {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        (
            "nproc",
            (std::thread::available_parallelism().map_or(1, usize::from) as u64).into(),
        ),
        ("simd", Json::str(simd)),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease"))),
        ("git_rev", Json::str(git_rev)),
        ("seed", seed.into()),
    ])
}

/// One run's record in a result file.
pub fn run_record(
    workload: &str,
    seed: u64,
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Json {
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", seed.into()),
        ("trace", traced.into()),
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics_json(metrics, true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn outcome() -> Outcome {
        Outcome {
            workload: "serve-light",
            setup_s: vec![0.3, 0.1, 0.2],
            wall_s: 2.0,
            attempted: 8,
            failed: 0,
            samples: vec![
                ("ping", 1.0),
                ("mxm", 3.0),
                ("ping", 2.0),
                ("mxm", 5.0),
                ("ping", 3.0),
                ("mxm", 4.0),
                ("tc", 9.0),
                ("tc", 7.0),
            ],
            cycles_ms: vec![10.0, 14.0],
            rss_mb: 12.5,
            errors: Vec::new(),
            spans: Vec::new(),
            simd: "avx2".into(),
            convert_s: Vec::new(),
            calib_ms: Vec::new(),
        }
    }

    #[test]
    fn end_to_end_metrics_are_the_contract_five() {
        let m = end_to_end(&outcome());
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "ops_per_s",
                "cycle_p50_ms",
                "mxm_p50_ms",
                "rss_mb"
            ]
        );
        assert_eq!(m[0].value, 0.2);
        assert_eq!(m[1].value, 4.0);
        assert_eq!(m[2].value, 12.0);
        assert_eq!((m[3].value, m[3].n), (4.0, 3));
    }

    #[test]
    fn a_calibrated_workload_reports_at_nominal_host_speed() {
        let mut o = outcome();
        o.workload = "run-sweep";
        o.samples = vec![("auto", 60.0), ("msa_1p", 90.0), ("auto", 66.0)];
        // The host ran 1.5x slower than nominal while these were taken.
        o.calib_ms = vec![1.5 * crate::calib::NOMINAL_MS; 3];
        let m = end_to_end(&o);
        assert!((m[0].value - 0.2 / 1.5).abs() < 1e-12);
        assert_eq!(m[1].value, 6.0, "4 ops/s on a host at two thirds speed");
        assert_eq!(m[2].value, 8.0);
        assert_eq!((m[3].value, m[3].n), (42.0, 2));
        let d = class_details(&o);
        let get = |n: &str| d.iter().find(|m| m.name == n).map(|m| m.value);
        assert_eq!(get("msa_1p_p50_ms"), Some(60.0));
        assert_eq!(get("host_speed"), Some(1.5));
        assert_eq!(get("raw_setup_s"), Some(0.2));
        assert_eq!(get("raw_cycle_p50_ms"), Some(12.0));
        assert_eq!(get("raw_mxm_p50_ms"), Some(63.0));
        assert_eq!(get("raw_ops_per_s"), Some(4.0));
        assert_eq!(
            class_details(&outcome())
                .iter()
                .find(|m| m.name == "host_speed")
                .map(|m| m.value),
            None,
            "no calibration, no factor"
        );
    }

    #[test]
    fn details_hold_back_p90_below_a_hundred_samples() {
        let d = class_details(&outcome());
        let names: Vec<&str> = d.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            ["ping_p50_ms", "tc_p50_ms", "lat_p50_ms", "fail_share"]
        );
        let mut big = outcome();
        big.samples = (0..200).map(|i| ("ping", f64::from(i))).collect();
        assert!(class_details(&big)
            .iter()
            .any(|m| m.name == "lat_p90_ms" && m.value == 179.0));
    }

    #[test]
    fn result_line_has_exactly_the_driver_keys() {
        let line = result_line(true, 8, 0, &end_to_end(&outcome()));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.2));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.as_obj().unwrap().len(), 2, "value and unit only");
    }
}
