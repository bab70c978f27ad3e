//! k-truss (paper §8.3, after Davis \[15\]): iteratively keep only edges
//! supported by at least `k − 2` triangles. Each iteration is one masked
//! SpGEMM — support `S = A ⊙ (A·A)` on `plus_pair` (mask = the current
//! adjacency) — followed by a pruning select. Terminates when no edge is
//! pruned.

use crate::scheme::Scheme;
use masked_spgemm::{ExecOpts, MaskMode, WsPool};
use mspgemm_sparse::ops::select::select;
use mspgemm_sparse::semiring::PlusPairU64;
use mspgemm_sparse::Csr;
use std::time::Instant;

/// Result of a k-truss computation.
pub struct KtrussResult {
    /// The k-truss subgraph; values are the final edge supports.
    pub truss: Csr<u64>,
    /// Number of masked SpGEMM iterations executed.
    pub iterations: usize,
    /// Wall-clock seconds spent inside masked SpGEMM calls only.
    pub mxm_seconds: f64,
    /// Σ over iterations of the FLOP count (2 × multiplies) of each
    /// product — the numerator of the paper's k-truss GFLOPS metric.
    pub flops: u64,
}

/// Compute the `k`-truss of a simple undirected graph; `opts` (row
/// schedule, workspace pool, busy-time stats) apply to every iteration's
/// masked product. Without a [`WsPool`] in `opts`, a local one is held
/// across the iterations, so every product after the first reuses the
/// accumulator scratch instead of reallocating it.
///
/// The graph keeps changing as edges are pruned (§8.3: "using Masked
/// SpGEMM in an iterative manner"), so the pull-based schemes re-transpose
/// the pruned adjacency inside each iteration's product — that cost is
/// charged to the scheme, mirroring how the paper's library baselines
/// behave.
pub fn k_truss_with(adj: &Csr<f64>, k: usize, scheme: Scheme, opts: &ExecOpts<'_>) -> KtrussResult {
    let local = WsPool::new();
    let opts = &ExecOpts {
        ws_pool: opts.ws_pool.or(Some(&local)),
        ..*opts
    };
    assert!(k >= 3, "k-truss needs k >= 3");
    assert_eq!(adj.nrows(), adj.ncols(), "adjacency must be square");
    let threshold = (k - 2) as u64;
    let mut a: Csr<()> = adj.pattern();
    let mut iterations = 0usize;
    let mut mxm_seconds = 0.0f64;
    let mut flops = 0u64;
    loop {
        let _span = mspgemm_obs::span("ktruss-iter");
        iterations += 1;
        flops += 2 * a.flops_with(&a);
        let t0 = Instant::now();
        let support: Csr<u64> =
            scheme.run_with::<PlusPairU64, ()>(&a, &a, &a, None, MaskMode::Mask, opts);
        mxm_seconds += t0.elapsed().as_secs_f64();
        let kept = select(&support, |_, _, s| *s >= threshold);
        // Converged: nothing was pruned, or nothing is left.
        if kept.nnz() == a.nnz() || kept.nnz() == 0 {
            return KtrussResult {
                truss: kept,
                iterations,
                mxm_seconds,
                flops,
            };
        }
        a = kept.pattern();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masked_spgemm::{Algorithm, Phases};
    use mspgemm_sparse::Coo;

    /// The `k`-truss under default execution options.
    fn truss(adj: &Csr<f64>, k: usize, scheme: Scheme) -> KtrussResult {
        k_truss_with(adj, k, scheme, &ExecOpts::default())
    }

    fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
        coo.to_csr(|a, _| a)
    }

    fn complete(n: usize) -> Csr<f64> {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in 0..u {
                edges.push((u, v));
            }
        }
        graph_from_edges(n, &edges)
    }

    #[test]
    fn complete_graph_is_its_own_truss() {
        // Every edge of K5 sits in 3 triangles, so K5 is a 5-truss.
        let g = complete(5);
        let r = truss(&g, 5, Scheme::Ours(Algorithm::Msa, Phases::One));
        assert_eq!(r.truss.nnz(), 20, "all 10 undirected edges survive");
        // Every support value is exactly 3.
        assert!(r.truss.values().iter().all(|&s| s == 3));
    }

    #[test]
    fn cycle_has_no_3_truss() {
        let c5 = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let r = truss(&c5, 3, Scheme::Ours(Algorithm::Hash, Phases::One));
        assert_eq!(r.truss.nnz(), 0);
    }

    #[test]
    fn pendant_edge_pruned() {
        // K4 plus a pendant vertex: the pendant edge has no triangle
        // support and must be pruned by the 3-truss; K4 survives.
        let mut edges = vec![(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        edges.push((3, 4));
        let g = graph_from_edges(5, &edges);
        let r = truss(&g, 3, Scheme::Ours(Algorithm::Mca, Phases::Two));
        assert_eq!(r.truss.nnz(), 12, "K4's 6 undirected edges survive");
        assert!(r.truss.get(3, 4).is_none());
        assert!(r.truss.get(4, 3).is_none());
        assert!(r.iterations >= 2, "pruning must trigger a second iteration");
    }

    #[test]
    fn truss_peeling_cascade() {
        // Triangle chain: 0-1-2, 2-3-4 share only vertex 2; a 4-truss
        // (every edge in ≥2 triangles) must prune everything.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        let r = truss(&g, 4, Scheme::Ours(Algorithm::Msa, Phases::One));
        assert_eq!(r.truss.nnz(), 0);
    }

    #[test]
    fn all_schemes_agree() {
        let g = mspgemm_gen::er_symmetric(150, 14, 5);
        let reference = truss(&g, 5, Scheme::Ours(Algorithm::Msa, Phases::One));
        let mut schemes = Scheme::all_ours();
        schemes.push(Scheme::SsSaxpy);
        schemes.push(Scheme::SsDot);
        for s in schemes {
            let r = truss(&g, 5, s);
            assert_eq!(r.truss, reference.truss, "{}", s.name());
            assert_eq!(r.iterations, reference.iterations, "{}", s.name());
        }
    }

    #[test]
    fn schedules_and_pool_leave_truss_unchanged() {
        use masked_spgemm::RowSchedule;
        let g = mspgemm_gen::er_symmetric(150, 14, 5);
        let reference = truss(&g, 5, Scheme::Ours(Algorithm::Hash, Phases::One));
        for sched in RowSchedule::ALL {
            let pool = WsPool::new();
            let opts = ExecOpts {
                schedule: sched,
                ws_pool: Some(&pool),
                stats: None,
                deadline: None,
            };
            let r = k_truss_with(&g, 5, Scheme::Ours(Algorithm::Hash, Phases::One), &opts);
            assert_eq!(r.truss, reference.truss, "{}", sched.name());
            assert_eq!(r.iterations, reference.iterations, "{}", sched.name());
            if r.iterations > 1 {
                assert!(pool.hits() > 0, "later iterations must reuse workspaces");
            }
        }
    }

    #[test]
    fn metrics_accumulate_across_iterations() {
        let g = complete(6);
        let r = truss(&g, 4, Scheme::Ours(Algorithm::Hash, Phases::One));
        assert!(r.flops > 0);
        assert!(r.mxm_seconds >= 0.0);
        assert_eq!(r.iterations, 1, "K6 is already a 4-truss");
    }
}
