//! MSA push kernel (paper §5.2, Algorithm 2): scale-and-accumulate rows of
//! `B` into a dense [`Msa`] accumulator, filtered by the mask row, then
//! gather in mask order.

use crate::accumulator::msa::Msa;
use crate::phases::{RowCtx, RowKernel};
use crate::schedule::ProductCounts;
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::Idx;

/// Kernel configuration: normal or complemented mask (§5.2's
/// `setNotAllowed` variant).
pub struct MsaKernel {
    /// Interpret the mask as its complement.
    pub complement: bool,
}

impl<S: Semiring> RowKernel<S> for MsaKernel {
    type Ws = Msa<S::Out>;

    fn make_ws(&self, ncols: usize) -> Self::Ws {
        if self.complement {
            Msa::new_complement(ncols)
        } else {
            Msa::new(ncols)
        }
    }

    fn ws_tag(&self) -> u64 {
        // Normal and complemented MSAs share a type but hold opposite
        // dense default states — never interchangeable in a pool.
        self.complement as u64
    }

    fn take_product_counts(ws: &mut Self::Ws) -> ProductCounts {
        ws.take_product_counts()
    }

    fn row_symbolic(&self, ws: &mut Self::Ws, ctx: RowCtx<'_, S>) -> usize {
        ws.begin_row();
        ws.load_mask(ctx.mask_cols);
        for (i, &k) in ctx.a_cols.iter().enumerate() {
            ctx.prefetch_ahead(i);
            for &j in ctx.b.row_cols(k as usize) {
                ws.accumulate_symbolic(j);
            }
        }
        if self.complement {
            ws.count_and_reset_complement(ctx.mask_cols)
        } else {
            ws.count_and_reset(ctx.mask_cols)
        }
    }

    fn row_numeric(
        &self,
        ws: &mut Self::Ws,
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize {
        ws.begin_row();
        ws.load_mask(ctx.mask_cols);
        for (i, (&k, &av)) in ctx.a_cols.iter().zip(ctx.a_vals).enumerate() {
            ctx.prefetch_ahead(i);
            let (bc, bv) = ctx.b.row(k as usize);
            // Filter, then accumulate: `S::mul` runs only for the
            // products the mask admits.
            ws.accumulate_row(bc, bv, |bvv| S::mul(av, bvv), S::add);
        }
        if self.complement {
            ws.gather_complement_into(ctx.mask_cols, out_cols, out_vals)
        } else {
            ws.gather_into(ctx.mask_cols, out_cols, out_vals)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::test_grid as grid;
    use crate::phases::{run_kernel, Phases};
    use crate::schedule::{ExecOpts, ExecStats, WsPool};
    use mspgemm_sparse::semiring::PlusTimesI64;

    #[test]
    fn lease_end_folds_products_formed_and_admitted_into_exec_stats() {
        let n = 24;
        let a = grid(n, |i, j| (i * 7 + j * 3) % 4 == 0);
        let mask = grid(n, |i, j| (i + j) % 3 == 0).pattern();
        let formed = a.flops_with(&a);
        // Brute force: products a_ik·a_kj whose (i, j) the mask holds.
        let in_mask: u64 = (0..n)
            .flat_map(|i| a.row_cols(i).iter().map(move |&k| (i, k as usize)))
            .flat_map(|(i, k)| a.row_cols(k).iter().map(move |&j| (i, j)))
            .filter(|&(i, j)| mask.get(i, j).is_some())
            .count() as u64;
        let pool = WsPool::new();
        for (complement, admitted) in [(false, in_mask), (true, formed - in_mask)] {
            let kernel = MsaKernel { complement };
            // An unrecorded drive first: its counts must not leak out of
            // the pooled workspace into the recorded drives below.
            let quiet = ExecOpts {
                ws_pool: Some(&pool),
                ..ExecOpts::default()
            };
            run_kernel::<PlusTimesI64, _, ()>(
                &mask,
                &a,
                &a,
                complement,
                Phases::One,
                &kernel,
                None,
                &quiet,
            )
            .unwrap();
            for phases in [Phases::One, Phases::Two] {
                let stats = ExecStats::new();
                let opts = ExecOpts {
                    stats: Some(&stats),
                    ..quiet
                };
                run_kernel::<PlusTimesI64, _, ()>(
                    &mask, &a, &a, complement, phases, &kernel, None, &opts,
                )
                .unwrap();
                // The symbolic pass of a two-phase run forms no products.
                assert_eq!(
                    stats.products(),
                    ProductCounts { formed, admitted },
                    "complement={complement} {phases:?}"
                );
                stats.reset();
                assert_eq!(stats.products(), ProductCounts::default());
            }
        }
    }

    #[test]
    fn rows_the_mask_leaves_empty_form_no_products() {
        // A normal mask on the even rows only: the drive skips the odd
        // rows outright, so the products formed are the even rows' — in
        // both phase strategies. The complement of the same mask admits
        // products on every row and skips none.
        let n = 24;
        let a = grid(n, |i, j| (i * 7 + j * 3) % 4 == 0);
        let mask = grid(n, |i, j| i % 2 == 0 && (i + j) % 3 == 0).pattern();
        let row_flops = a.row_flops_with(&a);
        let even: u64 = row_flops.iter().step_by(2).sum();
        assert!(0 < even && even < a.flops_with(&a));
        let want = run_kernel::<PlusTimesI64, _, ()>(
            &mask,
            &a,
            &a,
            false,
            Phases::One,
            &MsaKernel { complement: false },
            None,
            &ExecOpts::default(),
        )
        .unwrap();
        for (complement, formed) in [(false, even), (true, a.flops_with(&a))] {
            for phases in [Phases::One, Phases::Two] {
                let stats = ExecStats::new();
                let opts = ExecOpts {
                    stats: Some(&stats),
                    ..ExecOpts::default()
                };
                let kernel = MsaKernel { complement };
                let c = run_kernel::<PlusTimesI64, _, ()>(
                    &mask, &a, &a, complement, phases, &kernel, None, &opts,
                )
                .unwrap();
                assert_eq!(stats.products().formed, formed, "{complement} {phases:?}");
                if !complement {
                    assert_eq!(c, want, "{phases:?}");
                    assert!((1..n).step_by(2).all(|i| c.row_nnz(i) == 0));
                }
            }
        }
    }
}
