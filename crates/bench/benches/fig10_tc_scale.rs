//! **Figure 10**: Triangle Counting GFLOPS vs R-MAT scale (paper: scales
//! 8–20; default here 8–`MSPGEMM_SCALE`).
//!
//! One CSV row per scale with each scheme's GFLOPS.

use masked_spgemm::ExecOpts;
use mspgemm_bench::{banner, max_scale, reps, tc_vs_ssgb_schemes};
use mspgemm_gen::{rmat_symmetric, RmatParams};
use mspgemm_graph::tricount;
use mspgemm_harness::report::{fmt_metric, Table};
use mspgemm_harness::{gflops, time_best};

fn main() {
    banner("Fig 10", "TC GFLOPS vs R-MAT scale");
    let schemes = tc_vs_ssgb_schemes();
    let reps = reps();
    let opts = ExecOpts::default();
    let mut headers = vec!["scale".to_string()];
    headers.extend(schemes.iter().map(|s| s.name()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&headers_ref);

    for scale in 8..=max_scale() {
        let g = rmat_symmetric(scale, RmatParams::default(), 42 + scale as u64);
        let ops = tricount::prepare(&g);
        let mut row = vec![scale.to_string()];
        for &s in &schemes {
            let (secs, _) = time_best(reps, || tricount::count_prepared_rows_with(&ops, s, &opts));
            row.push(fmt_metric(gflops(ops.flops, secs)));
        }
        table.row(&row);
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());
}
