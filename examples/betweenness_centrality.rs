//! Batched betweenness centrality (the paper's §8.4 benchmark): Brandes'
//! algorithm over masked SpGEMM, with the forward BFS using a
//! **complemented** mask to avoid re-discovering visited vertices.
//!
//! Run with: `cargo run --release --example betweenness_centrality [batch]`

use mspgemm::gen::rmat_symmetric;
use mspgemm::gen::RmatParams;
use mspgemm::graph::bc::betweenness_with;
use mspgemm::harness::mteps;
use mspgemm::prelude::*;

fn main() {
    let batch: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let g = rmat_symmetric(11, RmatParams::default(), 5);
    let n = g.nrows();
    let edges = g.nnz() / 2;
    let sources: Vec<usize> = (0..batch.min(n)).collect();
    println!(
        "R-MAT scale 11: {n} vertices, {edges} edges, batch = {}\n",
        sources.len()
    );

    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>7}",
        "scheme", "mxm secs", "total secs", "MTEPS", "depth"
    );
    let schemes = [
        Scheme::Ours(Algorithm::Msa, Phases::One),
        Scheme::Ours(Algorithm::Msa, Phases::Two),
        Scheme::Ours(Algorithm::Hash, Phases::One),
        Scheme::Ours(Algorithm::Hash, Phases::Two),
        Scheme::SsSaxpy,
    ];
    let mut top_vertices = None;
    for s in schemes {
        let r = betweenness_with(&g, &sources, s, &ExecOpts::default());
        println!(
            "{:<12} {:>12.6} {:>12.6} {:>10.2} {:>7}",
            s.name(),
            r.mxm_seconds,
            r.total_seconds,
            mteps(sources.len(), edges, r.total_seconds),
            r.depth
        );
        // Rank vertices by score; all schemes must agree on the ranking.
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_by(|&x, &y| r.scores[y].total_cmp(&r.scores[x]));
        let top: Vec<usize> = ranked.into_iter().take(5).collect();
        match &top_vertices {
            None => top_vertices = Some(top),
            Some(t) => assert_eq!(&top, t, "{} ranks differently", s.name()),
        }
    }
    println!(
        "\ntop-5 most central vertices: {:?} ✓",
        top_vertices.unwrap()
    );
}
