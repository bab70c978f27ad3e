//! Triangle counting (paper §8.2): relabel vertices in non-increasing
//! degree order \[29\], take the strictly lower triangular part `L`, and
//! compute `triangles = sum(L ⊙ (L·L))` — one masked SpGEMM (mask = `L`)
//! plus a reduction, on the `plus_pair` semiring.
//!
//! The product is only summed, so it is delivered on the mask
//! ([`OnMask`]): one count per entry of the mask, in its order, `0` where
//! no wedge closes. Row `i`'s count is the sum of the mask row's slots —
//! no output CSR is sized, filled or compacted. So a scheme's 2P variant
//! runs its 1P twin's one pass here, and SS:DOT no symbolic pass; the
//! paper's TC figures time the CSR product and its sum instead
//! (`mspgemm_harness::runner::tc_csr_count`), where the phases differ.

use crate::scheme::Scheme;
use masked_spgemm::{ExecOpts, OnMask, Product};
use mspgemm_sparse::ops::permute::{degree_descending_permutation, permute_symmetric};
use mspgemm_sparse::ops::select::{restrict_rows, tril_strict};
use mspgemm_sparse::semiring::PlusPairU64;
use mspgemm_sparse::{transpose, Csr, Idx, Overlay};
use std::time::Instant;

/// The prepared operand: relabeled strictly-lower-triangular pattern, plus
/// its transpose for the pull-based scheme.
pub struct TcOperands {
    /// `L`: strict lower triangle after degree-descending relabeling.
    pub l: Csr<()>,
    /// `Lᵀ` (i.e. `L` in CSC) for Inner.
    pub lt: Csr<()>,
    /// Push flops of the *unmasked* `L·L` (×2 = FLOP count for GFLOPS).
    pub flops: u64,
    /// The relabeling used (`perm[old] = new`). The incremental path
    /// keeps an updated adjacency's operands under the *same* permutation
    /// so cached per-row counts stay aligned; any permutation is correct
    /// (degree order is only a performance heuristic).
    pub perm: Vec<Idx>,
}

impl TcOperands {
    /// These operands carried forward after the adjacency changed at
    /// `changed` (vertex pairs, either orientation, repeats allowed):
    /// equal to [`prepare_with_perm`] of the updated `adj` under this
    /// relabeling, at the cost of the touched rows plus one copy of each
    /// section. A pair `{u, v}` is the `L` position `(max, min)` of its
    /// relabeled endpoints — and the mirrored `Lᵀ` position — present iff
    /// `adj` now holds the edge.
    ///
    /// # Panics
    /// If `adj` is not the shape these operands were prepared for.
    pub fn patched(&self, adj: &Csr<f64>, changed: &[(Idx, Idx)]) -> TcOperands {
        let n = self.l.nrows();
        assert_eq!((adj.nrows(), adj.ncols()), (n, n), "adjacency shape");
        let (mut dl, mut dlt) = (Overlay::new(n, n), Overlay::new(n, n));
        for &(u, v) in changed {
            if u != v {
                let (pu, pv) = (self.perm[u as usize], self.perm[v as usize]);
                let edge = adj.get(u as usize, v).map(|_| ());
                dl.set(pu.max(pv), pu.min(pv), edge);
                dlt.set(pu.min(pv), pu.max(pv), edge);
            }
        }
        let (l, lt) = (dl.merged(self.l.view()), dlt.merged(self.lt.view()));
        TcOperands {
            flops: 2 * lt.transposed_flops_with(&l),
            l,
            lt,
            perm: self.perm.clone(),
        }
    }
}

/// Relabel + extract `L` (not timed as part of the masked SpGEMM, matching
/// "we only report the Masked SpGEMM execution time").
pub fn prepare(adj: &Csr<f64>) -> TcOperands {
    assert_eq!(adj.nrows(), adj.ncols(), "adjacency must be square");
    let perm = degree_descending_permutation(adj);
    prepare_with_perm(adj, perm)
}

/// [`prepare`] under a caller-supplied relabeling — the incremental-TC
/// path replays the cached permutation against an updated adjacency so
/// per-row counts remain comparable across updates.
pub fn prepare_with_perm(adj: &Csr<f64>, perm: Vec<Idx>) -> TcOperands {
    assert_eq!(adj.nrows(), adj.ncols(), "adjacency must be square");
    assert_eq!(perm.len(), adj.nrows(), "permutation length != nrows");
    let _span = mspgemm_obs::span("tc-relabel");
    let relabeled = permute_symmetric(adj, &perm);
    let l = tril_strict(&relabeled).pattern();
    let lt = transpose(&l);
    let flops = 2 * l.flops_with(&l);
    TcOperands { l, lt, flops, perm }
}

/// Result of one triangle-count run.
#[derive(Clone, Copy, Debug)]
pub struct TcResult {
    /// Total number of triangles in the graph.
    pub triangles: u64,
    /// Wall-clock seconds of the masked SpGEMM (the benchmarked region).
    pub mxm_seconds: f64,
    /// FLOP count (2 × multiplies) of the unmasked product, for GFLOPS.
    pub flops: u64,
}

/// Convenience: prepare + count + reduce, under default execution options.
pub fn triangle_count(adj: &Csr<f64>, scheme: Scheme) -> TcResult {
    let ops = prepare(adj);
    let (rows, mxm_seconds) = count_prepared_rows_with(&ops, scheme, &ExecOpts::default());
    TcResult {
        triangles: rows.iter().sum(),
        mxm_seconds,
        flops: ops.flops,
    }
}

/// Row sums of `mask ⊙ (L·L)` plus the seconds of that one masked SpGEMM
/// — the pass behind both the full count (`mask = L`) and the incremental
/// recount (`mask = L` restricted to the affected rows).
fn masked_rows(
    ops: &TcOperands,
    mask: &Csr<()>,
    scheme: Scheme,
    opts: &ExecOpts<'_>,
) -> (Vec<u64>, f64) {
    let t0 = Instant::now();
    let product = Product::new(mask, &ops.l, &ops.l, Some(&ops.lt));
    let counts = scheme.run_with::<PlusPairU64, _>(&product, OnMask, opts);
    let secs = t0.elapsed().as_secs_f64();
    let ptr = mask.rowptr();
    let rows = ptr.windows(2).map(|r| counts[r[0]..r[1]].iter().sum());
    (rows.collect(), secs)
}

/// Per-row triangle counts (row `i` = triangles whose largest-labeled
/// vertex is `i` under the operands' relabeling) plus the masked-SpGEMM
/// seconds. Summing the vector gives [`TcResult::triangles`]; the vector
/// itself is what the incremental path caches and patches.
pub fn count_prepared_rows_with(
    ops: &TcOperands,
    scheme: Scheme,
    opts: &ExecOpts<'_>,
) -> (Vec<u64>, f64) {
    masked_rows(ops, &ops.l, scheme, opts)
}

/// Recount triangles for a subset of relabeled rows: one masked-SpGEMM
/// pass whose mask is `L` restricted to `rows` (sorted, deduplicated).
/// Returns a full-length per-row vector — entries are meaningful only at
/// `rows`; everything else is 0 — plus the pass seconds.
pub fn recount_rows_with(
    ops: &TcOperands,
    rows: &[usize],
    scheme: Scheme,
    opts: &ExecOpts<'_>,
) -> (Vec<u64>, f64) {
    masked_rows(ops, &restrict_rows(&ops.l, rows, |_| true), scheme, opts)
}

/// The rows of `L` whose per-row triangle count may change when the given
/// vertex pairs gain or lose an edge, under the operands' relabeling.
///
/// For a changed pair `{u, v}` with relabeled larger endpoint `a`, the
/// changed `L` entry is `(a, min)`; it can perturb `C = L·L ⊙ L` only in
/// row `a` (first factor + mask) or in rows `i` with `L[i][a] = 1`
/// (second-factor term `L[i][a]·L[a][·]`), i.e. `Lᵀ` row `a`. Rows whose
/// own incident edges changed are covered by their own pair's larger
/// endpoint, so taking `Lᵀ` from the *updated* operands is sufficient.
/// Returned sorted and deduplicated — the shape [`recount_rows_with`]
/// expects.
pub fn affected_rows(ops: &TcOperands, edges: &[(Idx, Idx)]) -> Vec<usize> {
    let n = ops.l.nrows();
    let mut hit = vec![false; n];
    for &(u, v) in edges {
        let pu = ops.perm[u as usize] as usize;
        let pv = ops.perm[v as usize] as usize;
        let a = pu.max(pv);
        hit[a] = true;
        for &i in ops.lt.row_cols(a) {
            hit[i as usize] = true;
        }
    }
    (0..n).filter(|&i| hit[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use masked_spgemm::{Algorithm, Phases};
    use mspgemm_sparse::{Coo, Idx};

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

    fn naive_triangles(adj: &Csr<f64>) -> u64 {
        let n = adj.nrows();
        let mut t = 0u64;
        for u in 0..n {
            for &v in adj.row_cols(u) {
                let v = v as usize;
                if v <= u {
                    continue;
                }
                for &w in adj.row_cols(v) {
                    let w = w as usize;
                    if w <= v {
                        continue;
                    }
                    if adj.get(u, w as Idx).is_some() {
                        t += 1;
                    }
                }
            }
        }
        t
    }

    #[test]
    fn complete_graphs_choose_3() {
        for n in [3usize, 4, 5, 7] {
            let g = complete(n);
            let want = (n * (n - 1) * (n - 2) / 6) as u64;
            let r = triangle_count(&g, Scheme::Ours(Algorithm::Msa, Phases::One));
            assert_eq!(r.triangles, want, "K{n}");
        }
    }

    #[test]
    fn triangle_free_graphs() {
        // Path and even cycle have no triangles.
        let path = graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(
            triangle_count(&path, Scheme::Ours(Algorithm::Hash, Phases::One)).triangles,
            0
        );
        let c6 = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(
            triangle_count(&c6, Scheme::Ours(Algorithm::Mca, Phases::Two)).triangles,
            0
        );
    }

    #[test]
    fn two_shared_triangles() {
        // Bowtie: two triangles sharing vertex 2.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        for s in Scheme::all_ours() {
            assert_eq!(triangle_count(&g, s).triangles, 2, "{}", s.name());
        }
    }

    #[test]
    fn all_schemes_agree_on_random_graph() {
        let g = mspgemm_gen::er_symmetric(300, 12, 77);
        let want = naive_triangles(&g);
        let ops = prepare(&g);
        let mut schemes = Scheme::all_ours();
        schemes.push(Scheme::SsSaxpy);
        schemes.push(Scheme::SsDot);
        for s in schemes {
            let (rows, _) = count_prepared_rows_with(&ops, s, &ExecOpts::default());
            assert_eq!(rows.iter().sum::<u64>(), want, "{}", s.name());
        }
    }

    #[test]
    fn incremental_patch_equals_full_recompute() {
        // Start from a random graph, flip a batch of edges, and patch the
        // cached per-row counts through the affected-row masked pass. The
        // patched vector must equal a from-scratch count of the new graph
        // (under the same relabeling, and in total under any relabeling).
        let g0 = mspgemm_gen::er_symmetric(120, 8, 42);
        let scheme = Scheme::Ours(Algorithm::Msa, Phases::One);
        let opts = ExecOpts::default();
        let ops0 = prepare(&g0);
        let (mut counts, _) = count_prepared_rows_with(&ops0, scheme, &opts);

        // Batch: delete three existing edges, insert three new ones.
        let mut entries: std::collections::BTreeMap<(Idx, Idx), f64> =
            g0.iter().map(|(i, j, &v)| ((i as Idx, j), v)).collect();
        let dels: Vec<(Idx, Idx)> = g0
            .iter()
            .filter(|&(i, j, _)| (i as Idx) < j)
            .map(|(i, j, _)| (i as Idx, j))
            .step_by(37)
            .take(3)
            .collect();
        let ins: &[(Idx, Idx)] = &[(1, 117), (5, 64), (30, 31)];
        for &(u, v) in &dels {
            entries.remove(&(u, v));
            entries.remove(&(v, u));
        }
        for &(u, v) in ins {
            entries.insert((u, v), 1.0);
            entries.insert((v, u), 1.0);
        }
        let mut coo = Coo::new(120, 120);
        for (&(i, j), &v) in &entries {
            coo.push(i, j, v);
        }
        let g1 = coo.to_csr(|a, _| a);

        // Incremental: carry the operands forward under the cached
        // permutation (the same ones a re-prepare builds), recount only
        // the affected rows, patch. Pairs arrive in either orientation,
        // with a self-loop and a repeat among them.
        let mut changed: Vec<(Idx, Idx)> = dels.iter().chain(ins).copied().collect();
        changed.extend([(7, 7), (64, 5), (5, 64)]);
        let ops1 = ops0.patched(&g1, &changed);
        let want = prepare_with_perm(&g1, ops0.perm.clone());
        assert!(ops1.l == want.l && ops1.lt == want.lt && ops1.flops == want.flops);
        let rows = affected_rows(&ops1, &changed);
        assert!(!rows.is_empty() && rows.len() < 120);
        let (patch, _) = recount_rows_with(&ops1, &rows, scheme, &opts);
        for &r in &rows {
            counts[r] = patch[r];
        }

        let (want_rows, _) = count_prepared_rows_with(&ops1, scheme, &opts);
        assert_eq!(counts, want_rows);
        assert_eq!(
            counts.iter().sum::<u64>(),
            naive_triangles(&g1),
            "patched total != naive recount"
        );
    }

    #[test]
    fn flops_are_positive_for_nonempty_graphs() {
        let g = complete(6);
        let r = triangle_count(&g, Scheme::Ours(Algorithm::Msa, Phases::One));
        assert!(r.flops > 0);
        assert!(r.mxm_seconds >= 0.0);
    }
}
