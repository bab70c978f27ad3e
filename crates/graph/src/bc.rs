//! Batched multi-source Betweenness Centrality (paper §8.4): Brandes'
//! two-stage algorithm \[8\] in the language of masked SpGEMM, after the
//! GraphBLAS C API's BC batch formulation \[11\] — with the sweep state
//! kept **per BFS level** instead of as full `s × n` matrices.
//!
//! The C API listing carries three matrices through both sweeps: `NumSP`
//! (shortest-path counts so far), the per-level patterns `σ_d`, and
//! `BCU = 1 + δ` (the dependency update). Three invariants make all of
//! them views of the frontiers `F_0 … F_{D−1}` the forward sweep already
//! produces:
//!
//! 1. **The frontiers partition the visited set.** `F_d`'s pattern *is*
//!    `σ_d`, the `σ_d` are pairwise disjoint, and their union is the
//!    pattern of `NumSP`.
//! 2. **A path count is final when its vertex is discovered:** `NumSP`
//!    restricted to `σ_d` is `F_d`, values included.
//! 3. **`BCU`'s pattern never changes**, and backward step `d` reads it
//!    only on `σ_d` and writes it only on `σ_{d−1}`.
//!
//! So the driver keeps `levels[d] = F_d`, the visited set `∪ σ_d` for the
//! complemented mask (forward sweep only) as `s × n` bits ([`BitRows`],
//! `⌈n/64⌉` words a source — a direction-optimizing BFS's visited
//! bitmap), and one vector `bcu` aligned with the entries of the level
//! being read:
//!
//! * **Forward** (BFS wave counting shortest paths):
//!   `F_{d+1} ← ⟨¬visited⟩ (F_d · A)` — a **complemented** masked SpGEMM
//!   whose kernels test the visited bits — then `visited ← visited ∪
//!   σ_{d+1}` by setting the new frontier's bits: `O(|F_{d+1}|)`, the
//!   visited set is never walked or copied.
//! * **Backward** (dependency accumulation), deepest level first with
//!   `BCU = 1` there: `W_d = BCU_d ./ F_d` overwrites `F_d`'s values in
//!   place (invariant 2 — `F_d` is dead afterwards), then
//!   `W' ← ⟨F_{d−1}⟩ (W_d · Aᵀ)` — a **plain** masked SpGEMM whose
//!   structural mask is the previous frontier itself, delivered **on the
//!   mask** ([`OnMask`]): one value per entry of `F_{d−1}`, in its
//!   order, `0` where `W'` has none. Then, per entry `e`,
//!   `scores[col(e)] += W'[e] · F_{d−1}[e]` and
//!   `BCU_{d−1}[e] = 1 + W'[e] · F_{d−1}[e]`, one element-wise pass that
//!   turns the product's own vector into the next `bcu`. An entry `W'`
//!   lacks adds `0` to its score and leaves `BCU = 1`, as Brandes has it.
//!
//! Every array is dropped as soon as no later step reads it: `visited`
//! when the forward sweep ends, the old `bcu` once `W_d` is formed, and
//! `F_d` after its backward product. The backward products compact
//! nothing and size nothing, so they run the same under 1P and 2P; only
//! the forward sweep's products differ between the two.
//!
//! The glue is O(|visited|) per request, `s · ⌈n/64⌉` words for the bits
//! plus one pass over each frontier's entries; everything else is the
//! masked products.
//!
//! **One deliberate deviation from the C API listing:** the backward loop
//! stops at `d = 2`. The `d = 1` product (mask `σ_0`, one entry per row)
//! computes exactly each source's own dependency, and scores follow
//! textbook Brandes (unnormalized, ordered pairs), where the source's own
//! dependency is not added to its score — so that product's only output
//! would be discarded.

use crate::scheme::Scheme;
use masked_spgemm::{AsCsr, BitRows, ExecOpts, OnMask, Product, WsPool};
use mspgemm_sparse::semiring::PlusTimesF64;
use mspgemm_sparse::{transpose, Csr, Idx};
use std::time::Instant;

/// Result of a batched BC run.
pub struct BcResult {
    /// Unnormalized betweenness score per vertex (ordered-pair counting;
    /// halve for the undirected convention).
    pub scores: Vec<f64>,
    /// Wall-clock seconds inside masked SpGEMM calls (forward + backward).
    pub mxm_seconds: f64,
    /// Wall-clock seconds of the whole computation.
    pub total_seconds: f64,
    /// Number of BFS levels, level 0 (the sources) included.
    pub depth: usize,
}

/// Batched Brandes BC from `sources` (one batch row per source) on a
/// possibly directed graph: transposes `adj` (charged to
/// [`BcResult::total_seconds`]) and runs [`betweenness_with_transpose`].
///
/// # Panics
/// As [`betweenness_with_transpose`].
pub fn betweenness_with(
    adj: &Csr<f64>,
    sources: &[usize],
    scheme: Scheme,
    opts: &ExecOpts<'_>,
) -> BcResult {
    let t_total = Instant::now();
    let adj_t = transpose(adj);
    let mut r = betweenness_with_transpose(adj, &adj_t, sources, scheme, opts);
    r.total_seconds = t_total.elapsed().as_secs_f64();
    r
}

/// The BC sweep over `adj` and `adj_t = adjᵀ` — which a caller vouching
/// for a symmetric `adj` (values included) passes twice. `opts` apply to
/// every forward- and backward-sweep masked product; each product is
/// handed the other operand as its `Bᵀ`, so a level the pull kernel runs
/// — named, or picked by `Auto` where the frontier is long and few columns
/// are left unvisited — transposes nothing. Without a [`WsPool`] in
/// `opts`, a local one spans both sweeps, so each product after the first
/// reuses accumulator scratch instead of reallocating it per BFS level.
///
/// # Panics
/// If `adj` is not square, `adj_t` is not `adj`'s shape, `scheme` cannot
/// run a complemented mask, or a source is not a vertex of `adj`.
pub fn betweenness_with_transpose(
    adj: &Csr<f64>,
    adj_t: &Csr<f64>,
    sources: &[usize],
    scheme: Scheme,
    opts: &ExecOpts<'_>,
) -> BcResult {
    let local = WsPool::new();
    let opts = &ExecOpts {
        ws_pool: opts.ws_pool.or(Some(&local)),
        ..*opts
    };
    assert_eq!(adj.nrows(), adj.ncols(), "adjacency must be square");
    assert_eq!(
        (adj_t.nrows(), adj_t.ncols()),
        (adj.nrows(), adj.ncols()),
        "the transpose must have the adjacency's shape"
    );
    assert!(
        scheme.supports_complement(),
        "BC needs complemented masks (MCA unsupported)"
    );
    let n = adj.nrows();
    if let Some(bad) = sources.iter().find(|&&v| v >= n) {
        panic!("BC source {bad} is out of range: the graph has {n} vertices");
    }
    let t_total = Instant::now();
    let (mut levels, visited, mut mxm_seconds) = forward(adj, adj_t, sources, scheme, opts);
    drop(visited);
    let depth = levels.len();

    // Backward sweep, deepest level first. `bcu` is BCU = 1 + δ on σ_d,
    // aligned with `levels[d]`'s entries; the deepest level has no
    // successors, so δ = 0 there. Stops at d = 2: the d = 1 product would
    // compute the sources' own dependencies, which the scores exclude.
    let mut scores = vec![0.0f64; n];
    let mut bcu = vec![1.0f64; levels[depth - 1].nnz()];
    for d in (2..depth).rev() {
        let _span = mspgemm_obs::span("bc-backward-level");
        // W_d = BCU_d ./ F_d, over F_d's own values.
        for (f, b) in levels[d].values_mut().iter_mut().zip(&bcu) {
            *f = b / *f;
        }
        drop(bcu);
        // W' = ⟨σ_{d-1}⟩ (W_d · Aᵀ) — plain masked SpGEMM, on σ_{d-1}.
        let t0 = Instant::now();
        let product = Product::new(&levels[d - 1], &levels[d], adj_t, Some(adj)); // (Aᵀ)ᵀ
        bcu = scheme.run_with::<PlusTimesF64, _>(&product, OnMask, opts);
        mxm_seconds += t0.elapsed().as_secs_f64();
        levels.pop();
        fold_dependencies(&levels[d - 1], &mut bcu, &mut scores);
    }

    BcResult {
        scores,
        mxm_seconds,
        total_seconds: t_total.elapsed().as_secs_f64(),
        depth,
    }
}

/// The forward sweep from checked `sources`: the levels `F_0 … F_{D−1}`
/// (row `q` of `F_0` holds source `q` with one path), the visited bits
/// they set, and the seconds spent in the masked products. Each new
/// frontier is kept as its level and sets its bits in the complemented
/// mask.
fn forward(
    adj: &Csr<f64>,
    adj_t: &Csr<f64>,
    sources: &[usize],
    scheme: Scheme,
    opts: &ExecOpts<'_>,
) -> (Vec<Csr<f64>>, BitRows, f64) {
    let (s, n) = (sources.len(), adj.nrows());
    let level0 = Csr::from_parts_unchecked(
        s,
        n,
        (0..=s).collect(),
        sources.iter().map(|&v| v as Idx).collect(),
        vec![1.0f64; s],
    );
    let mut visited = BitRows::new(s, n);
    visited.insert(&level0);
    let (mut levels, mut mxm_seconds) = (vec![level0], 0.0f64);
    loop {
        let _span = mspgemm_obs::span("bc-forward-level");
        let t0 = Instant::now();
        // A pull level reads Bᵀ = Aᵀ.
        let last = &levels[levels.len() - 1];
        let frontier = Product::complement_of(&visited, last, adj, Some(adj_t));
        let next = scheme.run_with::<PlusTimesF64, _>(&frontier, AsCsr, opts);
        mxm_seconds += t0.elapsed().as_secs_f64();
        if next.nnz() == 0 {
            return (levels, visited, mxm_seconds);
        }
        // A shortest path visits each vertex once: n levels at most.
        assert!(
            levels.len() < n,
            "BFS level {} of {n} vertices",
            levels.len()
        );
        visited.insert(&next);
        levels.push(next);
    }
}

/// One backward step's fold, in place: `w2 = ⟨σ_{d−1}⟩ (W_d · Aᵀ)` on
/// `prev`'s entries (`σ_{d−1}`, `0` where the product has none) becomes
/// `BCU = 1 + w2 .* prev`, and the dependencies `BCU − 1` are added into
/// `scores`. An absent entry adds `+0.0`, which leaves every score's bits
/// as they were (no score is `-0.0`). Entries are walked in order, so the
/// sums never depend on the thread count.
fn fold_dependencies(prev: &Csr<f64>, w2: &mut [f64], scores: &mut [f64]) {
    for ((&j, &f), w) in prev.colidx().iter().zip(prev.values()).zip(w2) {
        let delta = *w * f;
        scores[j as usize] += delta;
        *w = 1.0 + delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masked_spgemm::{Algorithm, Phases};
    use mspgemm_sparse::Coo;
    use std::collections::VecDeque;

    /// BC under default execution options.
    fn run_bc(adj: &Csr<f64>, sources: &[usize], scheme: Scheme) -> BcResult {
        betweenness_with(adj, sources, scheme, &ExecOpts::default())
    }

    fn graph_from_edges(n: usize, edges: &[(u32, u32)]) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1.0);
            coo.push(v, u, 1.0);
        }
        coo.to_csr(|a, _| a)
    }

    /// Textbook Brandes (unweighted BFS variant), unnormalized, ordered
    /// pairs, restricted to the given sources.
    fn brandes_reference(adj: &Csr<f64>, sources: &[usize]) -> Vec<f64> {
        let n = adj.nrows();
        let mut bc = vec![0.0f64; n];
        for &s in sources {
            let mut sigma = vec![0.0f64; n];
            let mut dist = vec![-1i64; n];
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut order = Vec::new();
            sigma[s] = 1.0;
            dist[s] = 0;
            let mut q = VecDeque::new();
            q.push_back(s);
            while let Some(v) = q.pop_front() {
                order.push(v);
                for &w in adj.row_cols(v) {
                    let w = w as usize;
                    if dist[w] < 0 {
                        dist[w] = dist[v] + 1;
                        q.push_back(w);
                    }
                    if dist[w] == dist[v] + 1 {
                        sigma[w] += sigma[v];
                        preds[w].push(v);
                    }
                }
            }
            let mut delta = vec![0.0f64; n];
            for &w in order.iter().rev() {
                for &v in &preds[w] {
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
                }
                if w != s {
                    bc[w] += delta[w];
                }
            }
        }
        bc
    }

    fn assert_close(got: &[f64], want: &[f64], label: &str) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() < 1e-9 * (1.0 + w.abs()),
                "{label}: vertex {i}: got {g}, want {w}"
            );
        }
    }

    #[test]
    fn path_graph_centers() {
        // P4: inner vertices each lie on 4 ordered shortest paths.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let sources: Vec<usize> = (0..4).collect();
        let r = run_bc(&g, &sources, Scheme::Ours(Algorithm::Msa, Phases::One));
        assert_close(&r.scores, &[0.0, 4.0, 4.0, 0.0], "P4");
        assert_eq!(r.depth, 4, "P4 BFS from endpoints reaches depth 3");
    }

    #[test]
    fn star_graph_hub() {
        // Star K1,4: hub on every pair of leaves: (n-1)(n-2) = 12 ordered.
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let sources: Vec<usize> = (0..5).collect();
        let r = run_bc(&g, &sources, Scheme::Ours(Algorithm::Hash, Phases::One));
        assert_close(&r.scores, &[12.0, 0.0, 0.0, 0.0, 0.0], "star");
    }

    #[test]
    fn diamond_with_two_shortest_paths() {
        // 0-1, 0-2, 1-3, 2-3: two shortest paths 0→3; 1 and 2 each get 0.5
        // per direction per endpoint pair.
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let sources: Vec<usize> = (0..4).collect();
        let want = brandes_reference(&g, &sources);
        let r = run_bc(&g, &sources, Scheme::Ours(Algorithm::Msa, Phases::Two));
        assert_close(&r.scores, &want, "diamond");
        assert!((r.scores[1] - 1.0).abs() < 1e-9, "split dependency");
    }

    #[test]
    fn partial_batch_matches_reference() {
        let g = mspgemm_gen::er_symmetric(120, 6, 31);
        let sources: Vec<usize> = (0..20).map(|i| i * 5).collect();
        let want = brandes_reference(&g, &sources);
        let r = run_bc(&g, &sources, Scheme::Ours(Algorithm::Msa, Phases::One));
        assert_close(&r.scores, &want, "er batch");
    }

    #[test]
    fn disconnected_graph_handled() {
        // Two components; BFS from 0 never reaches {3,4,5}.
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let sources = vec![0, 3];
        let want = brandes_reference(&g, &sources);
        let r = run_bc(&g, &sources, Scheme::Ours(Algorithm::Hash, Phases::Two));
        assert_close(&r.scores, &want, "disconnected");
    }

    #[test]
    fn complement_capable_schemes_agree() {
        let g = mspgemm_gen::er_symmetric(80, 8, 13);
        let sources: Vec<usize> = (0..10).collect();
        let want = brandes_reference(&g, &sources);
        // MSA/Hash × 1P/2P and SS:SAXPY — the Fig 16 scheme set.
        let schemes = [
            Scheme::Ours(Algorithm::Msa, Phases::One),
            Scheme::Ours(Algorithm::Msa, Phases::Two),
            Scheme::Ours(Algorithm::Hash, Phases::One),
            Scheme::Ours(Algorithm::Hash, Phases::Two),
            Scheme::SsSaxpy,
        ];
        for s in schemes {
            let r = run_bc(&g, &sources, s);
            assert_close(&r.scores, &want, &s.name());
        }
    }

    #[test]
    fn heap_and_inner_also_correct_on_small_graphs() {
        // The paper excludes these from BC for speed, not correctness.
        let g = mspgemm_gen::er_symmetric(40, 5, 3);
        let sources: Vec<usize> = (0..8).collect();
        let want = brandes_reference(&g, &sources);
        for s in [
            Scheme::Ours(Algorithm::Heap, Phases::One),
            Scheme::Ours(Algorithm::HeapDot, Phases::Two),
            Scheme::Ours(Algorithm::Inner, Phases::One),
            Scheme::SsDot,
        ] {
            let r = run_bc(&g, &sources, s);
            assert_close(&r.scores, &want, &s.name());
        }
    }

    #[test]
    fn pool_leaves_scores_unchanged() {
        let g = mspgemm_gen::er_symmetric(100, 7, 11);
        let sources: Vec<usize> = (0..12).collect();
        let want = brandes_reference(&g, &sources);
        let pool = WsPool::new();
        let opts = ExecOpts {
            ws_pool: Some(&pool),
            ..ExecOpts::default()
        };
        let r = betweenness_with(
            &g,
            &sources,
            Scheme::Ours(Algorithm::Msa, Phases::One),
            &opts,
        );
        assert_close(&r.scores, &want, "pooled");
        assert!(
            pool.hits() > 0,
            "BFS levels after the first must reuse workspaces"
        );
    }

    #[test]
    fn empty_sources_gives_zero_scores() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let r = run_bc(&g, &[], Scheme::Ours(Algorithm::Msa, Phases::One));
        assert!(r.scores.iter().all(|&x| x == 0.0));
    }

    const MSA_1P: Scheme = Scheme::Ours(Algorithm::Msa, Phases::One);

    #[test]
    fn directed_graphs_match_reference() {
        // Every graph above is symmetric, where A == Aᵀ would hide a
        // swapped operand in either sweep.
        let rmat = mspgemm_gen::rmat_directed(7, mspgemm_gen::RmatParams::default(), 5);
        let er = mspgemm_gen::er(150, 150, 5, 23).map(|_| 1.0);
        for (g, label) in [(rmat, "rmat-directed"), (er, "er-directed")] {
            assert_ne!(g, transpose(&g), "{label} must not be symmetric");
            let sources: Vec<usize> = (0..24).map(|i| i * 5).collect();
            let want = brandes_reference(&g, &sources);
            assert!(want.iter().any(|&x| x > 0.0), "{label}: trivial input");
            for s in [
                MSA_1P,
                Scheme::Ours(Algorithm::Hash, Phases::Two),
                Scheme::SsSaxpy,
            ] {
                let r = run_bc(&g, &sources, s);
                assert_close(&r.scores, &want, &format!("{label} {}", s.name()));
            }
        }
    }

    #[test]
    fn source_without_out_edges_stops_at_level_zero() {
        // Directed 1 → 0 only: nothing is reachable from 0.
        let g = Csr::from_dense(&[vec![None, None], vec![Some(1.0), None]], 2);
        let r = run_bc(&g, &[0], MSA_1P);
        assert_eq!(r.depth, 1);
        assert_eq!(r.scores, vec![0.0, 0.0]);
    }

    #[test]
    fn shallow_sweeps_match_reference() {
        // Star from its hub: levels {hub}, {leaves} — depth 2, the whole
        // backward sweep is the skipped σ_0 product. From a leaf: depth 3,
        // exactly one backward product.
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        for (sources, depth) in [(vec![0], 2), (vec![3], 3), (vec![0, 3], 3)] {
            let r = run_bc(&g, &sources, MSA_1P);
            assert_eq!(r.depth, depth, "sources {sources:?}");
            assert_close(&r.scores, &brandes_reference(&g, &sources), "star");
        }
    }

    #[test]
    fn duplicate_sources_count_once_per_entry() {
        let g = mspgemm_gen::er_symmetric(60, 5, 17);
        let sources = vec![4, 9, 4, 4, 30, 9];
        let want = brandes_reference(&g, &sources);
        let r = run_bc(&g, &sources, Scheme::Ours(Algorithm::Hash, Phases::One));
        assert_close(&r.scores, &want, "duplicate sources");
    }

    #[test]
    fn sources_covering_a_whole_component() {
        // Every vertex of the 4-cycle is a source; the path component has
        // none. Level 0 alone already covers the first component's rows.
        let g = graph_from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)]);
        let sources = vec![0, 1, 2, 3];
        let want = brandes_reference(&g, &sources);
        let r = run_bc(&g, &sources, MSA_1P);
        assert_close(&r.scores, &want, "whole component");
        assert_eq!(&r.scores[4..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "BC source 9 is out of range: the graph has 4 vertices")]
    fn out_of_range_source_is_named() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        run_bc(&g, &[1, 9], MSA_1P);
    }

    #[test]
    fn scores_are_bit_reproducible() {
        let g = mspgemm_gen::rmat_symmetric(8, mspgemm_gen::RmatParams::default(), 21);
        let sources: Vec<usize> = (0..16).collect();
        let bits = |r: BcResult| r.scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want = bits(run_bc(&g, &sources, MSA_1P));
        assert_eq!(bits(run_bc(&g, &sources, MSA_1P)), want, "second call");
        for threads in [1usize, 2, 4] {
            let workers = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for pooled in [false, true] {
                let pool = WsPool::new();
                let opts = ExecOpts {
                    ws_pool: pooled.then_some(&pool),
                    ..ExecOpts::default()
                };
                let r = workers.install(|| betweenness_with(&g, &sources, MSA_1P, &opts));
                assert_eq!(bits(r), want, "{threads} threads, pooled = {pooled}");
            }
        }
    }

    #[test]
    fn push_pull_and_the_per_level_mix_agree_by_bits() {
        // Every product is bit-identical across kernels and the fold is
        // serial, so all-push, all-pull and `Auto`'s per-level choice of
        // direction must produce the same score bits — whatever the
        // thread count.
        // On the second graph a backward level of R-MAT 8 has inputs 8×
        // sparser than its mask, the heap schemes' home ground; their
        // merge pops a column's products in `k` order, so they must
        // match too.
        let rmat = mspgemm_gen::rmat_symmetric(8, mspgemm_gen::RmatParams::default(), 1);
        for g in [mspgemm_gen::er_symmetric(64, 10, 21), rmat] {
            let sources: Vec<usize> = (0..16).collect();
            let bits = |r: &BcResult| r.scores.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let want = run_bc(&g, &sources, MSA_1P);
            // Early levels push, late ones pull: 10 products against
            // hundreds of probes from a source, the reverse once few
            // columns are left.
            assert!(want.depth > 3, "needs levels on both sides of the choice");
            for threads in [1usize, 2, 4] {
                let workers = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                for algo in [
                    Algorithm::Auto,
                    Algorithm::Msa,
                    Algorithm::Inner,
                    Algorithm::Heap,
                    Algorithm::HeapDot,
                ] {
                    let scheme = Scheme::Ours(algo, Phases::One);
                    let opts = ExecOpts::default();
                    let r = workers.install(|| betweenness_with(&g, &sources, scheme, &opts));
                    let label = format!("{} @ {threads}", scheme.name());
                    assert_eq!(bits(&r), bits(&want), "{label}");
                    assert_eq!(r.depth, want.depth, "{label}");
                }
            }
        }
    }

    #[test]
    fn visited_bits_are_the_union_of_the_levels() {
        // Directed, so a level's pattern is not its predecessor's mirror;
        // 70 sources over 130 vertices: three words a row, the last one
        // partly past the columns.
        let g = mspgemm_gen::rmat_directed(7, mspgemm_gen::RmatParams::default(), 9);
        let g = Csr::from_parts_unchecked(
            130,
            130,
            (0..=130).map(|i| g.rowptr()[i.min(128)]).collect(),
            g.colidx().to_vec(),
            g.values().to_vec(),
        );
        let sources: Vec<usize> = (0..70).map(|i| i * 37 % 130).collect();
        let scheme = Scheme::Ours(Algorithm::Auto, Phases::One);
        let (levels, visited, _) =
            forward(&g, &transpose(&g), &sources, scheme, &Default::default());
        assert!(levels.len() > 3, "depth {}", levels.len());
        for q in 0..sources.len() {
            let mut want = [false; 130];
            for level in &levels {
                for &v in level.row_cols(q) {
                    assert!(!want[v as usize], "levels overlap at ({q}, {v})");
                    want[v as usize] = true;
                }
            }
            for (v, &w) in want.iter().enumerate() {
                assert_eq!(visited.contains(q, v as Idx), w, "({q}, {v})");
            }
        }
    }

    #[test]
    fn symmetric_adjacency_serves_as_its_own_transpose() {
        let g = mspgemm_gen::er_symmetric(90, 6, 29);
        let sources: Vec<usize> = (0..10).collect();
        let opts = ExecOpts::default();
        let want = run_bc(&g, &sources, MSA_1P);
        let got = betweenness_with_transpose(&g, &g, &sources, MSA_1P, &opts);
        assert_eq!(got.scores, want.scores);
        assert_eq!(got.depth, want.depth);
    }
}
