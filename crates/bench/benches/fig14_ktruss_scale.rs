//! **Figure 14**: k-truss GFLOPS vs R-MAT scale (k = 5). GFLOPS = sum of
//! masked-SpGEMM flops across pruning iterations divided by the total
//! masked-SpGEMM time (§8.3).

use masked_spgemm::ExecOpts;
use mspgemm_bench::{banner, ktruss_vs_ssgb_schemes, max_scale, reps};
use mspgemm_gen::{rmat_symmetric, RmatParams};
use mspgemm_graph::ktruss;
use mspgemm_harness::report::{fmt_metric, Table};
use mspgemm_harness::{gflops, time_best};

fn main() {
    banner("Fig 14", "k-truss (k=5) GFLOPS vs R-MAT scale");
    let schemes = ktruss_vs_ssgb_schemes();
    let reps = reps();
    let mut headers = vec!["scale".to_string()];
    headers.extend(schemes.iter().map(|s| s.name()));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&headers_ref);

    for scale in 8..=max_scale() {
        let g = rmat_symmetric(scale, RmatParams::default(), 7 + scale as u64);
        let mut row = vec![scale.to_string()];
        for &s in &schemes {
            let (_, r) = time_best(reps, || {
                ktruss::k_truss_with(&g, 5, s, &ExecOpts::default())
            });
            row.push(fmt_metric(gflops(r.flops, r.mxm_seconds)));
        }
        table.row(&row);
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());
}
