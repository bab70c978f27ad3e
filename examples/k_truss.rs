//! k-truss decomposition (the paper's §8.3 benchmark): iterated masked
//! SpGEMM with edge pruning, shown for several k on a community graph.
//! `products` counts the masked SpGEMMs a run took — one full support
//! count, then a recount of the edges each prune touched; GFLOPS is the
//! flops of those products as executed (`recount %` of them inside the
//! restricted recounts) over the time spent in them.
//!
//! Run with: `cargo run --release --example k_truss [k]`

use mspgemm::gen::structured::community_blocks;
use mspgemm::graph::ktruss::k_truss_with;
use mspgemm::harness::gflops;
use mspgemm::prelude::*;

fn main() {
    let k_arg: Option<usize> = std::env::args().nth(1).and_then(|s| s.parse().ok());
    // Communities produce rich trusses; inter-community edges get pruned.
    let g = community_blocks(24, 150, 10, 2, 7);
    println!("graph: {} vertices, {} stored edges\n", g.nrows(), g.nnz());

    let ks: Vec<usize> = match k_arg {
        Some(k) => vec![k],
        None => vec![3, 4, 5, 6],
    };
    println!(
        "{:>3} {:>10} {:>8} {:>12} {:>10} {:>9}   scheme = MSA-1P",
        "k", "edges", "products", "mxm seconds", "GFLOPS", "recount %"
    );
    for &k in &ks {
        let r = k_truss_with(
            &g,
            k,
            Scheme::Ours(Algorithm::Msa, Phases::One),
            &ExecOpts::default(),
        );
        println!(
            "{:>3} {:>10} {:>8} {:>12.6} {:>10.3} {:>9.1}",
            k,
            r.truss.nnz(),
            r.iterations,
            r.mxm_seconds,
            gflops(r.flops, r.mxm_seconds),
            100.0 * r.restricted_flops as f64 / r.flops.max(1) as f64
        );
    }

    // The k-trusses are nested: a (k+1)-truss is a subgraph of the k-truss.
    let mut prev = usize::MAX;
    for &k in &[3usize, 4, 5, 6] {
        let r = k_truss_with(
            &g,
            k,
            Scheme::Ours(Algorithm::Hash, Phases::One),
            &ExecOpts::default(),
        );
        assert!(
            r.truss.nnz() <= prev,
            "{k}-truss larger than {}-truss",
            k - 1
        );
        prev = r.truss.nnz();
    }
    println!("\nnesting property verified ✓");
}
