//! Minimal tabular report emitters (CSV + aligned text) for the bench
//! binaries — each figure bench prints the same rows/series the paper
//! plots.

/// A simple table: header + rows of strings.
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    /// Column-aligned plain text (for terminal reading).
    pub fn to_text(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (c, cell) in r.iter().enumerate().take(ncols) {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(c, s)| format!("{:>w$}", s, w = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

/// Format seconds with µs resolution.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.6}")
}

/// Format a float metric (GFLOPS / MTEPS) with 3 decimals.
pub fn fmt_metric(x: f64) -> String {
    format!("{x:.3}")
}

/// Escape a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One dataset's identity in a [`SuiteReport`].
#[derive(Clone, Debug)]
pub struct DatasetInfo {
    /// Dataset name (suite entry or file stem).
    pub name: String,
    /// Vertex count (matrix dimension).
    pub nrows: usize,
    /// Stored entries of the adjacency matrix (2× undirected edges).
    pub nnz: usize,
}

/// Execution-layer summary across a whole suite sweep: row
/// balance (busy-time spread over the worker threads) and workspace-pool
/// effectiveness. `None` busy fields never occur here — a sweep that
/// recorded no busy time simply omits the summary.
#[derive(Clone, Debug)]
pub struct ExecSummary {
    /// Busy-time max/mean across threads (1.0 = perfectly even).
    pub busy_max_over_mean: f64,
    /// Number of threads that recorded busy time.
    pub busy_threads: usize,
    /// Workspace-pool takes served from retained scratch.
    pub pool_hits: u64,
    /// Workspace-pool takes that had to allocate fresh.
    pub pool_misses: u64,
    /// The hash-probe path the kernels were compiled with (`sse2` on
    /// x86_64, `scalar` elsewhere).
    pub simd: String,
}

impl ExecSummary {
    /// Fraction of pool takes served warm (`0.0` when nothing was taken).
    pub fn hit_rate(&self) -> f64 {
        let takes = self.pool_hits + self.pool_misses;
        if takes == 0 {
            0.0
        } else {
            self.pool_hits as f64 / takes as f64
        }
    }
}

/// A machine-readable experiment report: which application ran, over
/// which datasets, with per-scheme per-dataset runtimes. Serializes to
/// JSON without external dependencies (the build environment is offline).
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Application name (`tc` / `ktruss` / `bc`).
    pub app: String,
    /// Free-form run parameters (`reps`, `threads`, `k`, `batch`, ...).
    pub params: Vec<(String, String)>,
    /// Scheduling/pool summary for the sweep, when busy time was recorded.
    pub exec: Option<ExecSummary>,
    /// The datasets swept, in run order.
    pub datasets: Vec<DatasetInfo>,
    /// Per-scheme runtimes; `seconds[i]` aligns with `datasets[i]`,
    /// `null` = scheme did not run that case.
    pub runs: Vec<crate::perfprofile::SchemeRuns>,
}

impl SuiteReport {
    /// Serialize to a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"app\": \"{}\",\n", json_escape(&self.app)));
        out.push_str("  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)));
        }
        out.push_str("},\n");
        if let Some(e) = &self.exec {
            out.push_str(&format!(
                "  \"exec\": {{\"busy_max_over_mean\": {:.4}, \"busy_threads\": {}, \
                 \"pool_hits\": {}, \"pool_misses\": {}, \"hit_rate\": {:.4}, \
                 \"simd\": \"{}\"}},\n",
                e.busy_max_over_mean,
                e.busy_threads,
                e.pool_hits,
                e.pool_misses,
                e.hit_rate(),
                json_escape(&e.simd)
            ));
        }
        out.push_str("  \"datasets\": [\n");
        for (i, d) in self.datasets.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"nrows\": {}, \"nnz\": {}}}{}\n",
                json_escape(&d.name),
                d.nrows,
                d.nnz,
                if i + 1 < self.datasets.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"schemes\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let secs: Vec<String> = r
                .seconds
                .iter()
                .map(|s| match s {
                    Some(t) => format!("{t:.9}"),
                    None => "null".to_string(),
                })
                .collect();
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"seconds\": [{}]}}{}\n",
                json_escape(&r.name),
                secs.join(", "),
                if i + 1 < self.runs.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rendering() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        t.row(&["3".into(), "4".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n3,4\n");
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn text_is_aligned() {
        let mut t = Table::new(&["name", "x"]);
        t.row(&["long-name".into(), "1".into()]);
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("name"));
        assert!(lines[2].contains("long-name"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn suite_report_json_shape() {
        use crate::perfprofile::SchemeRuns;
        let rep = SuiteReport {
            app: "tc".into(),
            params: vec![("reps".into(), "2".into())],
            exec: Some(ExecSummary {
                busy_max_over_mean: 1.25,
                busy_threads: 8,
                pool_hits: 30,
                pool_misses: 10,
                simd: "sse2".into(),
            }),
            datasets: vec![
                DatasetInfo {
                    name: "er".into(),
                    nrows: 10,
                    nnz: 40,
                },
                DatasetInfo {
                    name: "rm\"at".into(),
                    nrows: 20,
                    nnz: 80,
                },
            ],
            runs: vec![SchemeRuns {
                name: "MSA-1P".into(),
                seconds: vec![Some(0.5), None],
            }],
        };
        let j = rep.to_json();
        assert!(j.contains("\"app\": \"tc\""));
        assert!(j.contains("\"reps\": \"2\""));
        assert!(j.contains("\"busy_max_over_mean\": 1.2500"));
        assert!(j.contains("\"hit_rate\": 0.7500"));
        assert!(j.contains("rm\\\"at"));
        assert!(j.contains("null"));
        assert!(j.contains("0.500000000"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());

        // No busy time recorded -> the exec block is simply absent.
        let mut quiet = rep.clone();
        quiet.exec = None;
        assert!(!quiet.to_json().contains("\"exec\""));
    }

    #[test]
    fn exec_summary_hit_rate() {
        let e = ExecSummary {
            busy_max_over_mean: 1.0,
            busy_threads: 1,
            pool_hits: 0,
            pool_misses: 0,
            simd: "scalar".into(),
        };
        assert_eq!(e.hit_rate(), 0.0, "no takes: defined as zero");
    }
}
