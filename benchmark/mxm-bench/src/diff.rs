//! `mxm-bench diff A.json[,A2.json…] B.json[,B2.json…]`: per workload ×
//! end-to-end metric, the relative change of B's median against A's,
//! judged by the bound `BENCHMARK.json` fixes for the metric.

use crate::json::Json;
use crate::stats::{median, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound, so neither "same"
    /// nor a change can be claimed.
    Unresolved,
    /// One side has no untraced run of the workload.
    Missing,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// `(b − a) / a`, signed as measured.
    pub change: f64,
    /// The wider of the two sides' interquartile spreads.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Values of one end-to-end metric over the untraced runs of one
/// workload in a set of result files.
fn values(files: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    files
        .iter()
        .flat_map(|f| f.get("runs").and_then(Json::as_arr).unwrap_or(&[]))
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(false)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Judge one metric. `lower_is_better` and `bound` come from the spec.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return (0.0, 0.0, Verdict::Missing);
    };
    let change = (mb - ma) / ma;
    let worse_by = if lower_is_better { change } else { -change };
    let spread = spread(a).max(spread(b));
    // Every run of B on the good side of every run of A resolves a gain
    // even under a wide spread.
    let clean_win = if lower_is_better {
        b.iter().cloned().fold(f64::MIN, f64::max) < a.iter().cloned().fold(f64::MAX, f64::min)
    } else {
        b.iter().cloned().fold(f64::MAX, f64::min) > a.iter().cloned().fold(f64::MIN, f64::max)
    };
    let verdict = if spread > bound && !clean_win {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (change, spread, verdict)
}

/// Compare two sets of result files under `spec` (`BENCHMARK.json`).
pub fn compare(spec: &Json, a: &[Json], b: &[Json]) -> Result<Vec<Row>, String> {
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("spec has no 'workloads'")?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no 'end_to_end'")?;
    let mut rows = Vec::new();
    for w in workloads {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        for m in metrics {
            let metric = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (va, vb) = (values(a, workload, metric), values(b, workload, metric));
            let (change, spread, verdict) = judge(&va, &vb, lower, bound);
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.to_string(),
                a: median(&va),
                b: median(&vb),
                change,
                spread,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The table `mxm-bench diff` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<13} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:<13} {:>12} {:>12} {:>+7.1}% {:>7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            num(r.a),
            num(r.b),
            r.change * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn judges_by_direction_and_bound() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(&a, &[103.0, 104.0, 102.0, 103.5], true, 0.10).2,
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.5], true, 0.10).2,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.5], false, 0.10).2,
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0, 80.5], true, 0.10).2,
            Verdict::Better
        );
        assert_eq!(judge(&a, &[], true, 0.10).2, Verdict::Missing);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            judge(&noisy, &[101.0, 139.0, 82.0, 119.0], true, 0.10).2,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[60.0, 70.0, 50.0, 65.0], true, 0.10).2,
            Verdict::Better
        );
        assert_eq!(
            judge(&[100.0], &[150.0], true, 0.10).2,
            Verdict::Worse,
            "single runs have no spread"
        );
    }

    #[test]
    fn compares_result_files_under_a_spec() {
        let spec = json::parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"lat_ms","unit":"ms","better":"lower","bound":0.1},
                              {"name":"rate","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let file = |lat: f64, rate: f64| {
            json::parse(&format!(
                r#"{{"runs":[{{"workload":"w","trace":false,"metrics":{{"lat_ms":{{"value":{lat}}},"rate":{{"value":{rate}}}}}}},
                            {{"workload":"w","trace":true,"metrics":{{"lat_ms":{{"value":1}}}}}}]}}"#
            ))
            .unwrap()
        };
        let rows = compare(&spec, &[file(10.0, 50.0)], &[file(12.0, 51.0)]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0].verdict, rows[1].verdict),
            (Verdict::Worse, Verdict::Same)
        );
        assert!(
            (rows[0].change - 0.2).abs() < 1e-12,
            "traced runs are ignored"
        );
        assert!(render(&rows).contains("worse"));
    }
}
