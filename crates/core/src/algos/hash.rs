//! Hash push kernel (paper §5.3): same flow as MSA but over an
//! open-addressing table sized by the mask row — smaller footprint, hash
//! cost per access.

use crate::accumulator::hash::HashAccum;
use crate::phases::{RowCtx, RowKernel};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::Idx;

/// Kernel configuration: normal or complemented mask.
pub struct HashKernel {
    /// Interpret the mask as its complement.
    pub complement: bool,
}

impl HashKernel {
    /// Expected distinct keys this row: the mask row size in normal mode;
    /// mask + admissible products in complement mode.
    fn row_capacity<S: Semiring>(&self, ctx: &RowCtx<'_, S>) -> usize {
        if !self.complement {
            ctx.mask_cols.len()
        } else {
            let flops: usize = ctx.a_cols.iter().map(|&k| ctx.b.row_nnz(k as usize)).sum();
            let ncols = ctx.b.ncols();
            ctx.mask_cols.len() + flops.min(ncols - ctx.mask_cols.len())
        }
    }
}

impl<S: Semiring> RowKernel<S> for HashKernel {
    type Ws = HashAccum<S::Out>;

    fn make_ws(&self, _ncols: usize) -> Self::Ws {
        HashAccum::new()
    }

    fn ws_depends_on_ncols(&self) -> bool {
        false // the table is sized per row, not per matrix width
    }

    fn row_symbolic(&self, ws: &mut Self::Ws, ctx: RowCtx<'_, S>) -> usize {
        ws.begin_row(self.row_capacity(&ctx));
        if self.complement {
            for &j in ctx.mask_cols {
                ws.mark_not_allowed(j);
            }
            for (i, &k) in ctx.a_cols.iter().enumerate() {
                ctx.prefetch_ahead(i);
                for &j in ctx.b.row_cols(k as usize) {
                    ws.accumulate_symbolic_complement(j);
                }
            }
            ws.count_complement()
        } else {
            for &j in ctx.mask_cols {
                ws.mark_allowed(j);
            }
            let mut n = 0;
            for (i, &k) in ctx.a_cols.iter().enumerate() {
                ctx.prefetch_ahead(i);
                n += ws.accumulate_row_symbolic(ctx.b.row_cols(k as usize));
            }
            n
        }
    }

    fn row_numeric(
        &self,
        ws: &mut Self::Ws,
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize {
        ws.begin_row(self.row_capacity(&ctx));
        if self.complement {
            for &j in ctx.mask_cols {
                ws.mark_not_allowed(j);
            }
            for (i, (&k, &av)) in ctx.a_cols.iter().zip(ctx.a_vals).enumerate() {
                ctx.prefetch_ahead(i);
                let (bc, bv) = ctx.b.row(k as usize);
                for (&j, &bvv) in bc.iter().zip(bv) {
                    ws.insert_complement_with(j, || S::mul(av, bvv), S::add);
                }
            }
            ws.gather_complement_into(out_cols, out_vals)
        } else {
            for &j in ctx.mask_cols {
                ws.mark_allowed(j);
            }
            for (i, (&k, &av)) in ctx.a_cols.iter().zip(ctx.a_vals).enumerate() {
                ctx.prefetch_ahead(i);
                let (bc, bv) = ctx.b.row(k as usize);
                ws.accumulate_row(bc, bv, |bvv| S::mul(av, bvv), S::add);
            }
            ws.gather_into(ctx.mask_cols, out_cols, out_vals)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::test_grid as grid;
    use crate::phases::{run_kernel, Phases};
    use crate::schedule::{ExecOpts, WsPool};
    use mspgemm_sparse::semiring::PlusTimesI64;

    #[test]
    fn pooled_workspace_from_a_narrow_product_serves_a_wider_one() {
        // Hash workspaces share one pool shelf across output widths
        // (`ws_depends_on_ncols` is false), so the table and the row-entry
        // scratch a 6-column product parked are what the 96-column product
        // leases: both must grow, and the result must match a cold run.
        let pool = WsPool::new();
        let pooled = ExecOpts {
            ws_pool: Some(&pool),
            ..ExecOpts::default()
        };
        let kernel = HashKernel { complement: false };
        for n in [6, 96] {
            // Dense B rows (as long as the matrix is wide) under a sparse
            // mask: the scratch outgrows the mask-sized table.
            let a = grid(n, |_, _| true);
            let mask = grid(n, |i, j| (i + j) % 5 == 0).pattern();
            for phases in [Phases::One, Phases::Two] {
                let run = |opts: &ExecOpts<'_>| {
                    run_kernel::<PlusTimesI64, _, ()>(
                        &mask, &a, &a, false, phases, &kernel, None, opts,
                    )
                    .unwrap()
                };
                assert_eq!(run(&pooled), run(&ExecOpts::default()), "n={n} {phases:?}");
            }
        }
        assert!(pool.hits() > 0, "the wider product reused parked tables");
    }
}
