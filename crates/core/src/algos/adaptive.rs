//! Per-row hybrid kernel — the paper's §9 future work realized: "hybrid
//! algorithms that can use different accumulators in the same Masked
//! SpGEMM depending on the density of the mask and parts of matrices
//! being processed."
//!
//! For every output row the kernel estimates the §5 cost models and
//! dispatches to the cheapest accumulator:
//!
//! * MCA: `nnz(a_i)·nnz(m_i) + flops_i` — wins when the mask row is tiny;
//! * MSA: `nnz(m_i) + flops_i` (+ a width penalty once the dense arrays
//!   outgrow cache) — wins at moderate densities;
//! * Heap: `nnz(m_i) + log₂(nnz(a_i))·flops_i`, but its cursors skip
//!   non-mask columns, so it wins when inputs are much denser than the
//!   mask and flops would be mostly wasted.

use crate::accumulator::heap::RowHeap;
use crate::accumulator::mca::Mca;
use crate::accumulator::msa::Msa;
use crate::algos::heap::HeapKernel;
use crate::algos::mca::McaKernel;
use crate::algos::msa::MsaKernel;
use crate::phases::{PushKernel, RowCtx};
use crate::schedule::ProductCounts;
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::Idx;

/// Which accumulator the cost model picked for a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pick {
    Msa,
    Mca,
    Heap,
}

/// The hybrid kernel. Holds the sub-kernels; workspaces for all three live
/// in one [`AdaptiveWs`] per thread (allocated lazily by first use except
/// the dense MSA arrays, which are cheap to keep).
pub struct AdaptiveKernel {
    msa: MsaKernel,
    mca: McaKernel,
    heap: HeapKernel,
}

impl AdaptiveKernel {
    /// Hybrid kernel for non-complemented masks.
    pub fn new() -> Self {
        Self {
            msa: MsaKernel { complement: false },
            mca: McaKernel,
            heap: HeapKernel::heap(false),
        }
    }

    /// Cost-model dispatch for one row (§5's complexities with unit-cost
    /// weights: MSA's accumulator accesses are random dense-array writes
    /// — weight 2, or 4 once the array outgrows cache; MCA's mask rescans
    /// and merges are sequential — weight 2 on the `a·m` term; Heap pays
    /// the `log₂ a` factor per product plus heapify).
    fn pick<S: Semiring>(&self, ctx: &RowCtx<'_, S>) -> Pick {
        let m = ctx.mask_cols.len();
        let a = ctx.a_cols.len();
        if m == 0 || a == 0 {
            return Pick::Mca; // trivially empty row; MCA handles it cheapest
        }
        let flops: usize = ctx.a_cols.iter().map(|&k| ctx.b.row_nnz(k as usize)).sum();
        let mca_cost = 2 * a * m + flops;
        let wide = ctx.b.ncols() > (1 << 16);
        let msa_cost = m + if wide { 4 * flops } else { 2 * flops };
        let log_a = (usize::BITS - a.leading_zeros()) as usize;
        let heap_cost = m + a * log_a + log_a * flops;
        if mca_cost <= msa_cost && mca_cost <= heap_cost {
            Pick::Mca
        } else if msa_cost <= heap_cost {
            Pick::Msa
        } else {
            Pick::Heap
        }
    }
}

impl Default for AdaptiveKernel {
    fn default() -> Self {
        Self::new()
    }
}

/// Combined per-thread workspace for the three sub-kernels.
pub struct AdaptiveWs<V> {
    msa: Msa<V>,
    mca: Mca<V>,
    heap: RowHeap,
}

impl<S: Semiring> PushKernel<S> for AdaptiveKernel {
    type Ws = AdaptiveWs<S::Out>;

    fn make_ws(&self, ncols: usize) -> Self::Ws {
        AdaptiveWs {
            msa: Msa::new(ncols),
            mca: Mca::new(),
            heap: RowHeap::new(),
        }
    }

    /// The inner MSA's counts: the rows the cost model gave to MSA only
    /// (MCA and Heap rows form products too, but count nothing).
    fn take_product_counts(ws: &mut Self::Ws) -> ProductCounts {
        ws.msa.take_product_counts()
    }

    fn row_symbolic(&self, ws: &mut Self::Ws, ctx: RowCtx<'_, S>) -> usize {
        match self.pick(&ctx) {
            Pick::Msa => self.msa.row_symbolic(&mut ws.msa, ctx),
            Pick::Mca => self.mca.row_symbolic(&mut ws.mca, ctx),
            Pick::Heap => PushKernel::<S>::row_symbolic(&self.heap, &mut ws.heap, ctx),
        }
    }

    fn row_numeric(
        &self,
        ws: &mut Self::Ws,
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize {
        match self.pick(&ctx) {
            Pick::Msa => self.msa.row_numeric(&mut ws.msa, ctx, out_cols, out_vals),
            Pick::Mca => self.mca.row_numeric(&mut ws.mca, ctx, out_cols, out_vals),
            Pick::Heap => {
                PushKernel::<S>::row_numeric(&self.heap, &mut ws.heap, ctx, out_cols, out_vals)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::{run_push, run_push_with, Phases};
    use crate::schedule::{ExecOpts, ExecStats};
    use mspgemm_sparse::semiring::PlusTimesI64;
    use mspgemm_sparse::Csr;

    fn dense(n: usize) -> Csr<i64> {
        let d: Vec<Vec<Option<i64>>> = (0..n)
            .map(|i| (0..n).map(|j| Some((i + j) as i64 % 5 - 2)).collect())
            .collect();
        Csr::from_dense(&d, n)
    }

    #[test]
    fn pick_prefers_mca_when_mask_rows_are_tiny_vs_b_rows() {
        // a=4, m=2, dense B rows (64 wide): MCA's 2am+flops beats MSA's
        // m+2·flops.
        let b = dense(64);
        let a_cols: Vec<Idx> = vec![1, 5, 9, 13];
        let a_vals = vec![1i64; 4];
        let mask_cols: &[Idx] = &[3, 40];
        let ctx = RowCtx::<PlusTimesI64> {
            mask_cols,
            a_cols: &a_cols,
            a_vals: &a_vals,
            b: b.view(),
        };
        let k = AdaptiveKernel::new();
        assert_eq!(k.pick(&ctx), Pick::Mca);
    }

    #[test]
    fn pick_prefers_msa_for_broad_masks_and_many_merges() {
        // a=32, full mask: the a·m term sinks MCA; log factor sinks Heap.
        let b = dense(64);
        let a_cols: Vec<Idx> = (0..32).collect();
        let a_vals = vec![1i64; 32];
        let mask = dense(64).pattern();
        let ctx = RowCtx::<PlusTimesI64> {
            mask_cols: mask.row_cols(0),
            a_cols: &a_cols,
            a_vals: &a_vals,
            b: b.view(),
        };
        let k = AdaptiveKernel::new();
        assert_eq!(k.pick(&ctx), Pick::Msa);
    }

    #[test]
    fn pick_prefers_heap_for_trivial_merges() {
        // a=1: the "merge" is a single cursor walk — no log penalty worth
        // paying dense-array scatter for.
        let b = dense(64);
        let a_cols: Vec<Idx> = vec![7];
        let a_vals = vec![1i64];
        let mask_cols: Vec<Idx> = (0..8).collect();
        let ctx = RowCtx::<PlusTimesI64> {
            mask_cols: &mask_cols,
            a_cols: &a_cols,
            a_vals: &a_vals,
            b: b.view(),
        };
        let k = AdaptiveKernel::new();
        assert_eq!(k.pick(&ctx), Pick::Heap);
    }

    #[test]
    fn hybrid_matches_msa_everywhere() {
        let a = dense(40);
        let b = dense(40);
        // Mixed mask: some rows tiny, some full, some empty.
        let mut md: Vec<Vec<Option<()>>> = vec![vec![None; 40]; 40];
        for (i, row) in md.iter_mut().enumerate() {
            match i % 3 {
                0 => row[i] = Some(()),                          // tiny mask
                1 => row.iter_mut().for_each(|c| *c = Some(())), // full
                _ => {}                                          // empty
            }
        }
        let mask = Csr::from_dense(&md, 40);
        for phases in [Phases::One, Phases::Two] {
            let hybrid = run_push::<PlusTimesI64, _, ()>(
                &mask,
                &a,
                &b,
                false,
                phases,
                &AdaptiveKernel::new(),
            );
            let msa = run_push::<PlusTimesI64, _, ()>(
                &mask,
                &a,
                &b,
                false,
                phases,
                &MsaKernel { complement: false },
            );
            assert_eq!(hybrid, msa, "{phases:?}");
        }
    }

    #[test]
    fn hybrid_reports_the_products_of_its_msa_rows() {
        // Full mask, every A row 32 long: the cost model gives every row
        // to MSA (`pick_prefers_msa_for_broad_masks_and_many_merges`), so
        // the hybrid's counts are the whole product's.
        let b = dense(64);
        let a = crate::algos::test_grid(64, |_, j| j < 32);
        let mask = b.pattern();
        let stats = ExecStats::new();
        let opts = ExecOpts {
            stats: Some(&stats),
            ..ExecOpts::default()
        };
        run_push_with::<PlusTimesI64, _, ()>(
            &mask,
            &a,
            &b,
            false,
            Phases::One,
            &AdaptiveKernel::new(),
            &opts,
        )
        .unwrap();
        let formed = a.flops_with(&b);
        assert_eq!(
            stats.products(),
            ProductCounts {
                formed,
                admitted: formed
            }
        );
    }
}
