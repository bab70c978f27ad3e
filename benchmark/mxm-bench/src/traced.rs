//! The traced run's arithmetic: joining the span-recorded end-to-end
//! replays with the layer table `mxm-bench-layers` prints, so that for
//! each operation class
//!
//! ```text
//! end-to-end p50 = Σ direct layer calls + unattributed + socket residual
//! ```
//!
//! holds by construction — `unattributed` is what the in-process handler
//! costs beyond the layer calls it needs, `socket residual` what the
//! round trip costs beyond the in-process handler. Neither is hidden: a
//! residual above a tenth of its p50 is listed as a finding.

use crate::report::{class_details, end_to_end, Metric};
use crate::stats::median;
use crate::workloads::Outcome;

/// Operation classes the decomposition covers, with the workload whose
/// end-to-end p50 stands for each and the in-process layer metric (and
/// its unit's milliseconds factor) it is compared with.
pub const DECOMPOSED: [(&str, &str, &str, f64); 4] = [
    ("ping", "serve-light", "serve.inproc.ping_us", 1e-3),
    ("mxm", "serve-kernel", "serve.inproc.mxm_ms", 1.0),
    ("tc", "serve-kernel", "serve.inproc.tc_ms", 1.0),
    ("update", "serve-update", "serve.inproc.update_ms", 1.0),
];

/// A residual above this share of its end-to-end p50 is a finding.
pub const FINDING_SHARE: f64 = 0.10;

/// Parse the layer table: one `name<TAB>value<TAB>unit<TAB>n` line per
/// metric; anything else on stdout is a protocol error.
pub fn parse_layer_lines(stdout: &str) -> Result<Vec<Metric>, String> {
    stdout
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                [name, value, unit, n] => Ok(Metric::new(
                    *name,
                    value
                        .parse()
                        .map_err(|e| format!("layer line '{line}': {e}"))?,
                    unit,
                    n.parse().map_err(|e| format!("layer line '{line}': {e}"))?,
                )),
                _ => Err(format!("layer line '{line}' is not name/value/unit/n")),
            }
        })
        .collect()
}

fn value_of(metrics: &[Metric], name: &str) -> Result<f64, String> {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .ok_or_else(|| format!("layer table has no '{name}'"))
}

fn p50(outcomes: &[Outcome], workload: &str, class: &str) -> Result<(f64, usize), String> {
    let o = outcomes
        .iter()
        .find(|o| o.workload == workload)
        .ok_or_else(|| format!("no traced replay of {workload}"))?;
    let ms = o.class_ms(class);
    median(&ms)
        .map(|m| (m, ms.len()))
        .ok_or_else(|| format!("{workload} measured no '{class}' op"))
}

/// One operation class's decomposition, all in milliseconds.
pub struct Decomposition {
    pub op: &'static str,
    pub workload: &'static str,
    pub e2e_p50: f64,
    pub samples: usize,
    pub layers: f64,
    pub unattributed: f64,
    pub socket_residual: f64,
}

/// Decompose each class of [`DECOMPOSED`] from the traced replays and
/// the layer table.
pub fn decompose(outcomes: &[Outcome], layers: &[Metric]) -> Result<Vec<Decomposition>, String> {
    DECOMPOSED
        .iter()
        .map(|&(op, workload, inproc_name, to_ms)| {
            let (e2e_p50, samples) = p50(outcomes, workload, op)?;
            let inproc = value_of(layers, inproc_name)? * to_ms;
            let unattributed = value_of(layers, &format!("serve.unattributed.{op}_ms"))?;
            Ok(Decomposition {
                op,
                workload,
                e2e_p50,
                samples,
                layers: inproc - unattributed,
                unattributed,
                socket_residual: e2e_p50 - inproc,
            })
        })
        .collect()
}

/// `serve.socket_residual.<op>_ms` for the per-layer metric list.
pub fn residual_metrics(parts: &[Decomposition]) -> Vec<Metric> {
    parts
        .iter()
        .map(|d| {
            Metric::new(
                format!("serve.socket_residual.{}_ms", d.op),
                d.socket_residual,
                "ms",
                d.samples,
            )
        })
        .collect()
}

/// The decomposition table, with residuals above [`FINDING_SHARE`] of
/// their p50 listed under "unattributed".
pub fn render(parts: &[Decomposition]) -> String {
    let mut out = format!(
        "{:<7} {:<13} {:>11} {:>11} {:>13} {:>13}\n",
        "op", "workload", "e2e p50 ms", "layers ms", "unattrib. ms", "socket ms"
    );
    let mut findings = Vec::new();
    for d in parts {
        out.push_str(&format!(
            "{:<7} {:<13} {:>11.3} {:>11.3} {:>13.3} {:>13.3}  n={}\n",
            d.op, d.workload, d.e2e_p50, d.layers, d.unattributed, d.socket_residual, d.samples
        ));
        for (what, v) in [
            ("in-process", d.unattributed),
            ("socket", d.socket_residual),
        ] {
            if v.abs() > FINDING_SHARE * d.e2e_p50 {
                findings.push(format!(
                    "  {} {what} residual {v:.3} ms = {:.0}% of its {:.3} ms p50",
                    d.op,
                    100.0 * v / d.e2e_p50,
                    d.e2e_p50
                ));
            }
        }
    }
    out.push_str("unattributed (residuals above 10% of their p50):\n");
    if findings.is_empty() {
        out.push_str("  none\n");
    }
    for f in findings {
        out.push_str(&f);
        out.push('\n');
    }
    out
}

/// `cli.*`: the batch front end, read off the `run-sweep` samples.
/// `spawn_ms` are walls of `mxm --help`, the process floor.
pub fn cli_metrics(sweep: &Outcome, spawn_ms: &[f64]) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let mut best: Option<f64> = None;
    for class in sweep.classes() {
        let ms = sweep.class_ms(class);
        let m = median(&ms).ok_or("empty class")?;
        if class != "auto" {
            best = Some(best.map_or(m, |b: f64| b.min(m)));
        }
        out.push(Metric::new(
            format!("cli.run.{class}_ms"),
            m,
            "ms",
            ms.len(),
        ));
    }
    let auto = median(&sweep.class_ms("auto")).ok_or("run-sweep measured no 'auto' process")?;
    let best = best.ok_or("run-sweep measured no explicit scheme")?;
    out.push(Metric::new("cli.run.best_ms", best, "ms", 1));
    out.push(Metric::new("cli.run.auto_regret", auto / best, "ratio", 1));
    out.push(Metric::new(
        "cli.spawn_ms",
        median(spawn_ms).ok_or("no spawn samples")?,
        "ms",
        spawn_ms.len(),
    ));
    out.push(Metric::new(
        "cli.convert_s",
        median(&sweep.convert_s).ok_or("no convert samples")?,
        "s",
        sweep.convert_s.len(),
    ));
    Ok(out)
}

/// `e2e.<workload>.<class>_p50_ms` (and `serve-light`'s pooled median
/// and p90): the per-class client-side latencies of the socket replays.
/// (`run-sweep`'s classes are the `cli.run.*` metrics.)
pub fn e2e_metrics(outcomes: &[Outcome]) -> Vec<Metric> {
    outcomes
        .iter()
        .filter(|o| o.workload != "run-sweep")
        .flat_map(|o| {
            end_to_end(o)
                .into_iter()
                .filter(|m| m.name == "mxm_p50_ms")
                .chain(class_details(o))
                .filter(|m| m.unit == "ms")
                .map(move |m| Metric {
                    name: format!("e2e.{}.{}", o.workload, m.name),
                    ..m
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay(workload: &'static str, samples: Vec<(&'static str, f64)>) -> Outcome {
        Outcome {
            workload,
            setup_s: vec![1.0],
            wall_s: 1.0,
            attempted: samples.len() as u64,
            failed: 0,
            samples,
            cycles_ms: vec![1.0],
            rss_mb: 1.0,
            errors: Vec::new(),
            spans: Vec::new(),
            simd: "avx2".into(),
            convert_s: vec![0.02],
            calib_ms: Vec::new(),
        }
    }

    const TABLE: &str = "serve.inproc.ping_us\t2\tus\t500\nserve.inproc.mxm_ms\t110\tms\t5\nserve.inproc.tc_ms\t8\tms\t5\nserve.inproc.update_ms\t12\tms\t5\nserve.unattributed.ping_ms\t0.0015\tms\t1\nserve.unattributed.mxm_ms\t52\tms\t1\nserve.unattributed.tc_ms\t0.5\tms\t1\nserve.unattributed.update_ms\t-0.25\tms\t1\n";

    #[test]
    fn parts_sum_to_the_end_to_end_p50() {
        let layers = parse_layer_lines(TABLE).unwrap();
        let outcomes = [
            replay(
                "serve-light",
                vec![("ping", 44.0), ("ping", 43.0), ("ping", 45.0)],
            ),
            replay(
                "serve-kernel",
                vec![("mxm", 150.0), ("tc", 50.0), ("mxm", 160.0), ("tc", 52.0)],
            ),
            replay("serve-update", vec![("update", 56.0)]),
        ];
        let parts = decompose(&outcomes, &layers).unwrap();
        for d in &parts {
            assert!(
                (d.layers + d.unattributed + d.socket_residual - d.e2e_p50).abs() < 1e-9,
                "{}",
                d.op
            );
        }
        assert_eq!(parts[1].e2e_p50, 155.0);
        assert_eq!(parts[1].layers, 58.0);
        assert_eq!(parts[0].socket_residual, 44.0 - 0.002);
        let text = render(&parts);
        assert!(
            text.contains("mxm in-process residual 52.000 ms = 34%"),
            "{text}"
        );
        assert!(text.contains("ping socket residual"));
        assert!(
            !text.contains("tc in-process"),
            "0.5 of 51 ms is under a tenth"
        );
        let names: Vec<String> = residual_metrics(&parts)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names[3], "serve.socket_residual.update_ms");
    }

    #[test]
    fn missing_pieces_are_errors_not_zeros() {
        let layers = parse_layer_lines(TABLE).unwrap();
        assert!(decompose(&[replay("serve-light", vec![("ping", 1.0)])], &layers).is_err());
        assert!(parse_layer_lines("just words\n").is_err());
        assert!(parse_layer_lines("a\tx\tms\t1\n").is_err());
    }

    #[test]
    fn cli_metrics_rank_auto_against_the_best_scheme() {
        let sweep = replay(
            "run-sweep",
            vec![
                ("auto", 90.0),
                ("msa_1p", 80.0),
                ("hash_1p", 300.0),
                ("auto", 110.0),
            ],
        );
        let m = cli_metrics(&sweep, &[2.0, 3.0, 4.0]).unwrap();
        let get = |n: &str| m.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("cli.run.best_ms"), 80.0);
        assert_eq!(get("cli.run.auto_regret"), 1.25);
        assert_eq!(get("cli.spawn_ms"), 3.0);
        assert_eq!(get("cli.run.hash_1p_ms"), 300.0);
    }

    #[test]
    fn e2e_metrics_are_prefixed_per_workload() {
        let m = e2e_metrics(&[
            replay("run-sweep", vec![("auto", 1.0)]),
            replay(
                "serve-update",
                vec![("update", 5.0), ("tc", 6.0), ("mxm", 7.0)],
            ),
        ]);
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "e2e.serve-update.mxm_p50_ms",
                "e2e.serve-update.update_p50_ms",
                "e2e.serve-update.tc_p50_ms"
            ]
        );
    }
}
