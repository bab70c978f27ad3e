//! k-truss (paper §8.3, after Davis \[15\]): iteratively keep only edges
//! supported by at least `k − 2` triangles. Each round is one masked
//! SpGEMM on `plus_pair` followed by a pruning select. The first round
//! counts every support, `S = A ⊙ (A·A)`; pruning edge `(u, v)` can only
//! lower the support of the edges that closed a triangle with it, so every
//! later round recounts exactly those — `S' = M' ⊙ (A'·A')`, `M'` the
//! affected survivors — and patches the kept supports. The mask shrinks
//! with the prune, which is the regime §4.3 says favours the pull kernel.
//! Terminates when a round prunes nothing, everything, or only edges that
//! closed no triangle.

use crate::scheme::Scheme;
use masked_spgemm::{ExecOpts, MaskMode, WsPool};
use mspgemm_sparse::ops::select::{restrict_rows, select};
use mspgemm_sparse::semiring::PlusPairU64;
use mspgemm_sparse::{Csr, Idx};
use std::cmp::Ordering;
use std::time::Instant;

/// Result of a k-truss computation.
pub struct KtrussResult {
    /// The k-truss subgraph; values are the final edge supports.
    pub truss: Csr<u64>,
    /// Number of masked SpGEMMs executed: the full support count plus one
    /// restricted recount per prune that lowered a surviving support. The
    /// rounds and their masks follow from the supports alone, so the
    /// number is the same for every scheme.
    pub iterations: usize,
    /// Wall-clock seconds spent inside masked SpGEMM calls only (pruning,
    /// marking the affected edges and patching their supports excluded).
    pub mxm_seconds: f64,
    /// Σ over the executed products of their FLOP count (2 × the push
    /// multiplies of the rows the product's mask touches) — the numerator
    /// of the paper's k-truss GFLOPS metric. The first product touches
    /// every row; a restricted recount counts only the rows it recounts.
    pub flops: u64,
    /// The part of [`Self::flops`] charged to the restricted recounts.
    pub restricted_flops: u64,
}

/// Compute the `k`-truss of a simple undirected graph; `opts`
/// (workspace pool, busy-time stats) apply to every round's
/// masked product. Without a [`WsPool`] in `opts`, a local one is held
/// across the rounds, so a later product reuses the scratch of an
/// earlier one that ran the same kernel (`Auto` may switch to the pull
/// kernel once the recount masks turn sparse).
///
/// `adj` must be square with a symmetric pattern and an empty diagonal:
/// the affected-edge marking visits each undirected edge from its lower
/// endpoint and looks the mirrored entry up in the other row.
///
/// The graph keeps changing as edges are pruned (§8.3: "using Masked
/// SpGEMM in an iterative manner"), but a prune keeps it symmetric, so
/// every round hands the pruned adjacency to the product as its own
/// transpose: our pull kernel — named, or picked by `Auto` — transposes
/// nothing. Only the `SS:DOT` stand-in still re-transposes inside each
/// round's product, charged to the scheme the way the paper's library
/// baseline behaves.
pub fn k_truss_with(adj: &Csr<f64>, k: usize, scheme: Scheme, opts: &ExecOpts<'_>) -> KtrussResult {
    let local = WsPool::new();
    let opts = &ExecOpts {
        ws_pool: opts.ws_pool.or(Some(&local)),
        ..*opts
    };
    assert!(k >= 3, "k-truss needs k >= 3");
    assert_eq!(adj.nrows(), adj.ncols(), "adjacency must be square");
    debug_assert!(
        adj.iter()
            .all(|(i, j, _)| i != j as usize && adj.get(j as usize, i as Idx).is_some()),
        "k-truss needs a symmetric adjacency pattern with an empty diagonal"
    );
    let threshold = (k - 2) as u64;
    let mut a: Csr<()> = adj.pattern();
    // The supports kept from the previous round, and the edges among them
    // the next product recounts; the first product counts every edge.
    let mut kept: Option<(Csr<u64>, Csr<()>)> = None;
    let (mut iterations, mut mxm_seconds) = (0usize, 0.0f64);
    let (mut flops, mut restricted_flops) = (0u64, 0u64);
    let truss = loop {
        let _span = mspgemm_obs::span("ktruss-iter");
        let mask = kept.as_ref().map_or(&a, |(_, recount)| recount);
        iterations += 1;
        let row_flops = a.row_flops_with(&a);
        let round_flops = 2
            * (0..a.nrows())
                .filter(|&i| mask.row_nnz(i) > 0)
                .map(|i| row_flops[i])
                .sum::<u64>();
        flops += round_flops;
        if kept.is_some() {
            restricted_flops += round_flops;
        }
        let t0 = Instant::now();
        let counted: Csr<u64> =
            scheme.run_with::<PlusPairU64, ()>(mask, &a, &a, Some(&a), MaskMode::Mask, opts);
        mxm_seconds += t0.elapsed().as_secs_f64();
        // An edge the first count leaves out closes no triangle: dropping
        // it moves no support, so the count itself is the first state.
        let support = match kept.take() {
            None => counted,
            Some((mut support, recount)) => {
                patch_supports(support.values_mut(), &a, &recount, &counted);
                support
            }
        };
        let survivors = select(&support, |_, _, s| *s >= threshold);
        // Converged: nothing was pruned, or nothing is left.
        if survivors.nnz() == support.nnz() || survivors.nnz() == 0 {
            break survivors;
        }
        let recount = affected_edges(&support, threshold);
        // Only support-0 edges went: every kept support still stands.
        if recount.nnz() == 0 {
            break survivors;
        }
        a = survivors.pattern();
        kept = Some((survivors, recount));
    };
    KtrussResult {
        truss,
        iterations,
        mxm_seconds,
        flops,
        restricted_flops,
    }
}

/// Overwrite the supports (aligned with `a`'s storage) at `mask`'s
/// positions with the product's recount; a mask position the product did
/// not emit closes no triangle. Per row, `counted ⊆ mask ⊆ a`.
fn patch_supports(sup: &mut [u64], a: &Csr<()>, mask: &Csr<()>, counted: &Csr<u64>) {
    for i in 0..a.nrows() {
        let row = a.row_cols(i);
        let base = a.rowptr()[i];
        let (cc, cv) = counted.row(i);
        let (mut p, mut q) = (0, 0);
        for &j in mask.row_cols(i) {
            while row[p] != j {
                p += 1;
            }
            sup[base + p] = if cc.get(q) == Some(&j) {
                q += 1;
                cv[q - 1]
            } else {
                0
            };
            p += 1;
        }
    }
}

/// The mask of the next recount: the edges that survive the prune
/// (support `>= threshold`) and close a triangle with an edge that does not.
/// For each pruned `(u, v)` with support > 0 these are `(u, w)` and
/// `(v, w)`, in both stored directions, for `w ∈ N(u) ∩ N(v)` before the
/// prune. The walk only visits triangles through pruned edges — fewer
/// than `threshold` each; the product recounts the full supports.
fn affected_edges(a: &Csr<u64>, threshold: u64) -> Csr<()> {
    let (rowptr, colidx, sup) = (a.rowptr(), a.colidx(), a.values());
    let mut marked = vec![false; a.nnz()];
    let mut row_hit = vec![false; a.nrows()];
    for u in 0..a.nrows() {
        for e in rowptr[u]..rowptr[u + 1] {
            let v = colidx[e] as usize;
            // Each undirected edge once; a support-0 edge closes nothing.
            if v < u || sup[e] == 0 || sup[e] >= threshold {
                continue;
            }
            // `sup[e]` is |N(u) ∩ N(v)|: stop once all of them are found.
            let mut left = sup[e];
            let (mut x, mut y) = (rowptr[u], rowptr[v]);
            while left > 0 && x < rowptr[u + 1] && y < rowptr[v + 1] {
                match colidx[x].cmp(&colidx[y]) {
                    Ordering::Less => x += 1,
                    Ordering::Greater => y += 1,
                    Ordering::Equal => {
                        let w = colidx[x] as usize;
                        for (r, p) in [(u, x), (v, y)] {
                            if sup[p] < threshold {
                                continue;
                            }
                            marked[p] = true;
                            row_hit[r] = true;
                            if let Ok(m) = a.row_cols(w).binary_search(&(r as Idx)) {
                                marked[rowptr[w] + m] = true;
                                row_hit[w] = true;
                            }
                        }
                        (x, y, left) = (x + 1, y + 1, left - 1);
                    }
                }
            }
        }
    }
    let rows: Vec<usize> = (0..a.nrows()).filter(|&i| row_hit[i]).collect();
    restrict_rows(a, &rows, |p| marked[p])
}

#[cfg(test)]
mod tests {
    use super::*;
    use masked_spgemm::{Algorithm, Phases};
    use mspgemm_gen::structured::community_blocks;
    use mspgemm_gen::{er_symmetric, rmat_symmetric, RmatParams};
    use mspgemm_sparse::Coo;
    use proptest::prelude::*;

    /// The `k`-truss under default execution options.
    fn truss(adj: &Csr<f64>, k: usize, scheme: Scheme) -> KtrussResult {
        k_truss_with(adj, k, scheme, &ExecOpts::default())
    }

    /// The loop the restricted driver replaced, kept as the reference:
    /// every round recounts all supports, `S = A ⊙ (A·A)` under the whole
    /// surviving adjacency, until a round prunes nothing. Returns the
    /// truss and the number of products it took.
    fn full_recompute(adj: &Csr<f64>, k: usize, scheme: Scheme) -> (Csr<u64>, usize) {
        let threshold = (k - 2) as u64;
        let mut a: Csr<()> = adj.pattern();
        let mut products = 0;
        loop {
            products += 1;
            let support: Csr<u64> = scheme.run_with::<PlusPairU64, ()>(
                &a,
                &a,
                &a,
                None,
                MaskMode::Mask,
                &ExecOpts::default(),
            );
            let kept = select(&support, |_, _, s| *s >= threshold);
            if kept.nnz() == a.nnz() || kept.nnz() == 0 {
                return (kept, products);
            }
            a = kept.pattern();
        }
    }

    fn msa_1p() -> Scheme {
        Scheme::Ours(Algorithm::Msa, Phases::One)
    }

    fn every_scheme() -> Vec<Scheme> {
        let mut schemes = Scheme::all_ours();
        schemes.extend([Scheme::SsSaxpy, Scheme::SsDot]);
        schemes
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
        assert_eq!(r.iterations, 1, "a support-0 prune needs no recount");
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
    fn pool_leaves_truss_unchanged() {
        let g = mspgemm_gen::er_symmetric(150, 14, 5);
        let reference = truss(&g, 5, Scheme::Ours(Algorithm::Hash, Phases::One));
        let pool = WsPool::new();
        let opts = ExecOpts {
            ws_pool: Some(&pool),
            ..ExecOpts::default()
        };
        let r = k_truss_with(&g, 5, Scheme::Ours(Algorithm::Hash, Phases::One), &opts);
        assert_eq!(r.truss, reference.truss);
        assert_eq!(r.iterations, reference.iterations);
        if r.iterations > 1 {
            assert!(pool.hits() > 0, "later iterations must reuse workspaces");
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

    #[test]
    fn support_zero_prune_takes_one_product() {
        // A triangle with a two-edge tail: at k = 3 both tail edges go,
        // neither closed a triangle, so the first product is the only one
        // although the reference loop runs a second to confirm.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let (want, products) = full_recompute(&g, 3, msa_1p());
        assert_eq!(products, 2);
        for s in every_scheme() {
            let r = truss(&g, 3, s);
            assert_eq!(r.truss, want, "{}", s.name());
            assert_eq!(r.iterations, 1, "{}", s.name());
            assert_eq!(r.restricted_flops, 0, "{}", s.name());
        }
        assert_eq!(want.nnz(), 6);
    }

    #[test]
    fn everything_pruned_returns_an_empty_truss() {
        // K4 is a 4-truss but no 5-truss: the first prune empties it.
        let r = truss(&complete(4), 5, msa_1p());
        assert_eq!(r.truss, full_recompute(&complete(4), 5, msa_1p()).0);
        assert_eq!((r.truss.nnz(), r.truss.nrows()), (0, 4));
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn double_fan_peels_one_pair_of_spokes_per_round() {
        // Two hubs (0, 1; not adjacent) over the path 2 - 3 - … - 8, and a
        // K4 apart on 9..=12. Every rim edge closes a triangle with each
        // hub, every inner spoke one with each rim neighbour: support 2
        // everywhere except the four end spokes (support 1). The 4-truss
        // prunes those; that leaves the end rim edges at 0 and the next
        // spokes at 1, and so on inwards: rounds two and three prune edges
        // of support > 0, round four only support-0 ones (the last spokes
        // and rim edges), so four products run where the reference needs
        // five. The K4's supports are never recounted and must survive.
        let mut edges = vec![
            (9u32, 10u32),
            (9, 11),
            (9, 12),
            (10, 11),
            (10, 12),
            (11, 12),
        ];
        for v in 2..=8u32 {
            edges.extend([(0, v), (1, v)]);
            if v < 8 {
                edges.push((v, v + 1));
            }
        }
        let g = graph_from_edges(13, &edges);
        let (want, full_products) = full_recompute(&g, 4, msa_1p());
        assert_eq!(full_products, 5);
        assert_eq!(want.rowptr()[9], 0, "the fan is gone");
        assert_eq!(want.values(), &[2; 12], "the K4 keeps its supports");
        let a = g.pattern();
        let full_flops = 2 * a.flops_with(&a);
        for s in every_scheme() {
            let r = truss(&g, 4, s);
            assert_eq!(r.truss, want, "{}", s.name());
            assert_eq!(r.iterations, 4, "{}", s.name());
            // The first product is charged in full, the recounts only for
            // the rows they touch.
            assert_eq!(r.flops - r.restricted_flops, full_flops, "{}", s.name());
            assert!(r.restricted_flops > 0, "{}", s.name());
            assert!(r.flops < 2 * full_flops, "{}", s.name());
        }
    }

    #[test]
    fn recount_reaches_a_common_neighbour_that_lost_no_edge() {
        // Two K4s sharing hub 0 ({0,1,2,3} and {0,4,5,6}) bridged by
        // (1, 4), whose one triangle is 0-1-4. The 4-truss prunes the
        // bridge alone; the supports it lowers are (0, 1) and (0, 4), so
        // the recount mask holds row 0 — a row none of whose edges was
        // pruned — beside rows 1 and 4, and nothing else.
        let k4 = |a: u32, b: u32, c: u32| [(0, a), (0, b), (0, c), (a, b), (a, c), (b, c)];
        let mut edges = [k4(1, 2, 3), k4(4, 5, 6)].concat();
        edges.push((1, 4));
        let g = graph_from_edges(7, &edges);
        let a = g.pattern();
        let first = msa_1p().run_with::<PlusPairU64, ()>(
            &a,
            &a,
            &a,
            None,
            MaskMode::Mask,
            &ExecOpts::default(),
        );
        assert_eq!(first.row_vals(0), [3, 2, 2, 3, 2, 2], "before the prune");
        let mask = affected_edges(&first, 2);
        assert_eq!(mask.rowptr(), &[0, 2, 3, 3, 3, 4, 4, 4]);
        assert_eq!(mask.colidx(), &[1, 4, 0, 0]);

        let (want, _) = full_recompute(&g, 4, msa_1p());
        let pruned = want.pattern();
        let touched = pruned.row_flops_with(&pruned);
        for s in every_scheme() {
            let r = truss(&g, 4, s);
            assert_eq!(r.truss, want, "{}", s.name());
            assert_eq!(r.iterations, 2, "{}", s.name());
            assert_eq!(
                r.restricted_flops,
                2 * (touched[0] + touched[1] + touched[4]),
                "{}",
                s.name()
            );
        }
        assert!(want.values().iter().all(|&s| s == 2), "two K4s remain");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The restricted driver against the full-recompute reference:
        /// bit-identical truss (pattern and support values) for every
        /// scheme and thread count, and one round count for all.
        #[test]
        fn restricted_matches_full_recompute(
            family in 0usize..3,
            seed in 0u64..1000,
            k in 3usize..=6,
        ) {
            let g = match family {
                0 => er_symmetric(90, 12, seed),
                1 => rmat_symmetric(7, RmatParams::default(), seed),
                _ => community_blocks(4, 24, 7, 1, seed),
            };
            let (want, full_products) = full_recompute(&g, k, msa_1p());
            let mut rounds = None;
            for threads in [1, 2] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("failed to build rayon pool");
                let opts = ExecOpts::default();
                for s in every_scheme() {
                    let r = pool.install(|| k_truss_with(&g, k, s, &opts));
                    let what = format!("{} t={threads}", s.name());
                    prop_assert_eq!(r.truss.rowptr(), want.rowptr(), "{}", what);
                    prop_assert_eq!(r.truss.colidx(), want.colidx(), "{}", what);
                    prop_assert_eq!(r.truss.values(), want.values(), "{}", what);
                    prop_assert_eq!(*rounds.get_or_insert(r.iterations), r.iterations, "{}", what);
                    prop_assert!(r.iterations <= full_products, "{}", what);
                }
            }
        }
    }
}
