//! Triangle counting on an R-MAT graph (the paper's §8.2 benchmark):
//! relabel by degree, take the strict lower triangle `L`, compute
//! `sum(L ⊙ (L·L))`, and compare every scheme's runtime.
//!
//! Run with: `cargo run --release --example triangle_counting [scale]`

use mspgemm::gen::{rmat_symmetric, RmatParams};
use mspgemm::graph::tricount;
use mspgemm::harness::{gflops, time_best};
use mspgemm::prelude::*;

fn main() {
    let scale: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let g = rmat_symmetric(scale, RmatParams::default(), 42);
    println!(
        "R-MAT scale {scale}: {} vertices, {} edges (stored nnz {})\n",
        g.nrows(),
        g.nnz() / 2,
        g.nnz()
    );

    let ops = tricount::prepare(&g);
    println!("L: nnz = {}, product flops = {}\n", ops.l.nnz(), ops.flops);
    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "scheme", "triangles", "seconds", "GFLOPS"
    );

    let mut schemes = Scheme::all_ours();
    schemes.push(Scheme::SsSaxpy);
    schemes.push(Scheme::SsDot);
    let mut counts = std::collections::HashSet::new();
    for s in schemes {
        let (secs, (rows, _)) = time_best(2, || {
            tricount::count_prepared_rows_with(&ops, s, &ExecOpts::default())
        });
        let triangles: u64 = rows.iter().sum();
        println!(
            "{:<12} {:>12} {:>12.6} {:>10.3}",
            s.name(),
            triangles,
            secs,
            gflops(ops.flops, secs)
        );
        counts.insert(triangles);
    }
    assert_eq!(counts.len(), 1, "all schemes must count the same triangles");
    println!("\nall schemes agree ✓");
}
