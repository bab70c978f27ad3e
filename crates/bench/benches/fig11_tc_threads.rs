//! **Figure 11**: Triangle Counting strong scaling — GFLOPS vs thread
//! count on a fixed R-MAT graph (paper: scale 20 on up to 32/68 threads;
//! default here `MSPGEMM_SCALE`, sweeping 1,2,4,… to all cores).

use masked_spgemm::ExecOpts;
use mspgemm_bench::{banner, max_scale, reps, tc_vs_ssgb_schemes};
use mspgemm_gen::{rmat_symmetric, RmatParams};
use mspgemm_graph::tricount;
use mspgemm_harness::report::{fmt_metric, Table};
use mspgemm_harness::{gflops, scaling_thread_counts, time_best, with_threads};

fn main() {
    let scale = max_scale();
    banner("Fig 11", "TC strong scaling (threads) on fixed R-MAT");
    eprintln!("R-MAT scale {scale}");
    let schemes = tc_vs_ssgb_schemes();
    let reps = reps();
    let opts = ExecOpts::default();
    let g = rmat_symmetric(scale, RmatParams::default(), 99);
    let ops = tricount::prepare(&g);

    let mut headers = vec!["threads".to_string()];
    headers.extend(schemes.iter().map(|s| s.name()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&headers_ref);

    for t in scaling_thread_counts() {
        let mut row = vec![t.to_string()];
        for &s in &schemes {
            let (secs, _) = with_threads(t, || {
                time_best(reps, || tricount::count_prepared_rows_with(&ops, s, &opts))
            });
            row.push(fmt_metric(gflops(ops.flops, secs)));
        }
        table.row(&row);
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());
}
