//! **Figure 15**: Betweenness Centrality MTEPS vs R-MAT scale.
//! MTEPS = batch_size × num_edges / total_time (§8.4; paper batch 512,
//! default here `MSPGEMM_BATCH` = 32).
//!
//! Before a timing counts, every scheme's per-vertex scores must agree
//! with MSA-1P's within 1e-9 relative (that run doubles as the warm-up).
//! Because the metric divides by **total** time, the bench also asserts
//! that at the largest scale MSA-1P spends at least
//! [`MIN_MXM_SHARE`] of a run inside its masked products — a ratio
//! within one process, so host speed cancels. Two more columns carry §4.3
//! into BC: `Inner-1P` pulls every level (the paper's "prohibitively
//! slow"), `Auto-1P` picks push or pull per level from counted work, and
//! at the largest scale its products must cost no more than either's.
//!
//! Emits CSV on stdout, an aligned table on stderr, and — for the CI
//! perf lane — a JSON report at `MSPGEMM_BC_JSON`.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MSPGEMM_SCALE` | largest R-MAT scale (sweep starts at 8) | 12 |
//! | `MSPGEMM_BATCH` | sources per batch | 32 |
//! | `MSPGEMM_REPS` | timed runs per cell (the fastest is kept) | 2 |
//! | `MSPGEMM_BC_JSON` | write the JSON report to this path | (none) |

use masked_spgemm::ExecOpts;
use mspgemm_bench::{banner, bc_batch, bc_schemes, max_scale, reps};
use mspgemm_gen::{rmat_symmetric, RmatParams};
use mspgemm_graph::bc::{self, BcResult};
use mspgemm_harness::mteps;
use mspgemm_harness::report::{fmt_metric, json_escape, Table};

/// Floor on MSA-1P's `mxm_seconds / total_seconds` at the largest scale:
/// the sweep must pay for its masked products, not for the glue between
/// them (0.85 with level-aligned sweep state; 0.47 with the full-matrix
/// element-wise state it replaced).
const MIN_MXM_SHARE: f64 = 0.7;

/// Ceiling on `Auto-1P`'s product seconds over MSA-1P's at the largest
/// scale.
const AUTO_VS_PUSH_SLACK: f64 = 1.05;

struct Row {
    scale: u32,
    scheme: String,
    run: BcResult,
    mteps: f64,
}

impl Row {
    fn mxm_share(&self) -> f64 {
        self.run.mxm_seconds / self.run.total_seconds
    }
}

fn main() {
    banner("Fig 15", "BC MTEPS vs R-MAT scale");
    let schemes = bc_schemes();
    let batch = bc_batch();
    let reps = reps();
    eprintln!("batch = {batch}");
    let mut headers = vec!["scale".to_string()];
    headers.extend(schemes.iter().map(|s| s.name()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&headers_ref);

    let mut rows: Vec<Row> = Vec::new();
    for scale in 8..=max_scale() {
        let g = rmat_symmetric(scale, RmatParams::default(), 13 + scale as u64);
        let sources: Vec<usize> = (0..batch.min(g.nrows())).collect();
        let edges = g.nnz() / 2;
        let mut cells = vec![scale.to_string()];
        // `bc_schemes()` lists MSA-1P first: its scores are the reference.
        let mut reference: Option<Vec<f64>> = None;
        for &s in &schemes {
            let checked = bc::betweenness_with(&g, &sources, s, &ExecOpts::default());
            let want = reference.get_or_insert_with(|| checked.scores.clone());
            assert_scores_agree(&checked.scores, want, scale, &s.name());
            let run = (0..reps)
                .map(|_| bc::betweenness_with(&g, &sources, s, &ExecOpts::default()))
                .min_by(|a, b| a.total_seconds.total_cmp(&b.total_seconds))
                .expect("reps >= 1");
            assert_eq!(run.depth, checked.depth, "scale {scale} {}", s.name());
            let mteps = mteps(sources.len(), edges, run.total_seconds);
            cells.push(fmt_metric(mteps));
            rows.push(Row {
                scale,
                scheme: s.name(),
                run,
                mteps,
            });
        }
        table.row(&cells);
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());

    if let Ok(json_path) = std::env::var("MSPGEMM_BC_JSON") {
        std::fs::write(&json_path, report_json(batch, &rows))
            .unwrap_or_else(|e| panic!("writing {json_path}: {e}"));
        eprintln!("json report: {json_path}");
    }

    let last = |scheme: &str| {
        rows.iter()
            .rfind(|r| r.scheme == scheme)
            .unwrap_or_else(|| panic!("bc_schemes() includes {scheme}"))
    };
    let top = last("MSA-1P");
    eprintln!(
        "MSA-1P at scale {}: {:.4} s total, {:.4} s in masked products ({:.2})",
        top.scale,
        top.run.total_seconds,
        top.run.mxm_seconds,
        top.mxm_share()
    );
    assert!(
        top.mxm_share() >= MIN_MXM_SHARE,
        "MSA-1P at scale {} spends {:.2} of its time in masked products, under {MIN_MXM_SHARE}",
        top.scale,
        top.mxm_share()
    );
    // The cheaper direction per level beats both fixed directions (5 %
    // slack against all-push: early scales' levels are all push anyway).
    let (auto, pull) = (last("Auto-1P"), last("Inner-1P"));
    eprintln!(
        "products at scale {}: MSA-1P {:.4} s, Inner-1P {:.4} s, Auto-1P {:.4} s",
        top.scale, top.run.mxm_seconds, pull.run.mxm_seconds, auto.run.mxm_seconds
    );
    assert!(
        auto.run.mxm_seconds <= top.run.mxm_seconds * AUTO_VS_PUSH_SLACK,
        "Auto-1P's products ({:.4} s) cost more than MSA-1P's ({:.4} s)",
        auto.run.mxm_seconds,
        top.run.mxm_seconds
    );
    assert!(
        auto.run.mxm_seconds <= pull.run.mxm_seconds,
        "Auto-1P's products ({:.4} s) cost more than Inner-1P's ({:.4} s)",
        auto.run.mxm_seconds,
        pull.run.mxm_seconds
    );
}

fn assert_scores_agree(got: &[f64], want: &[f64], scale: u32, scheme: &str) {
    assert_eq!(got.len(), want.len());
    for (v, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-9 * w.abs().max(1.0),
            "scale {scale}, {scheme}: vertex {v} scores {g}, MSA-1P {w}"
        );
    }
}

/// The perf-trajectory artifact the CI benchmark-smoke lane uploads: one
/// record per (scale, scheme), each from the fastest of the timed runs.
fn report_json(batch: usize, rows: &[Row]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"fig15_bc_scale\",\n  \"batch\": {batch},\n  \"cpus\": {},\n  \"results\": [\n",
        mspgemm_harness::threads::num_cpus()
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scale\": {}, \"scheme\": \"{}\", \"total_seconds\": {:.9}, \
             \"mxm_seconds\": {:.9}, \"mxm_share\": {:.4}, \"depth\": {}, \"mteps\": {:.3}}}{}\n",
            r.scale,
            json_escape(&r.scheme),
            r.run.total_seconds,
            r.run.mxm_seconds,
            r.mxm_share(),
            r.run.depth,
            r.mteps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
