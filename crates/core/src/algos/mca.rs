//! MCA push kernel (paper §5.4, Algorithm 3): for each `A`-row nonzero,
//! two-pointer-merge the corresponding `B` row against the (sorted) mask
//! row; matches accumulate at the mask entry's **rank**. Arrays are sized
//! `nnz(m_i)` — the tightest possible accumulator.
//!
//! Complemented masks are not supported (ranks exist only for in-mask
//! columns); the dispatcher rejects that combination.

use crate::accumulator::mca::Mca;
use crate::phases::{RowCtx, RowKernel};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::Idx;

/// Kernel marker (no configuration).
pub struct McaKernel;

impl<S: Semiring> RowKernel<S> for McaKernel {
    type Ws = Mca<S::Out>;

    fn make_ws(&self, _ncols: usize) -> Self::Ws {
        Mca::new()
    }

    fn ws_depends_on_ncols(&self) -> bool {
        false // arrays are sized per mask row, not per matrix width
    }

    fn row_symbolic(&self, ws: &mut Self::Ws, ctx: RowCtx<'_, S>) -> usize {
        let mask = ctx.mask_cols;
        ws.begin_row(mask.len());
        for &k in ctx.a_cols {
            let bc = ctx.b.row_cols(k as usize);
            merge_into(mask, bc, |idx, _| {
                ws.accumulate_symbolic(idx);
            });
        }
        ws.count_and_reset()
    }

    fn row_numeric(
        &self,
        ws: &mut Self::Ws,
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize {
        let mask = ctx.mask_cols;
        ws.begin_row(mask.len());
        for (&k, &av) in ctx.a_cols.iter().zip(ctx.a_vals) {
            let (bc, bv) = ctx.b.row(k as usize);
            merge_into(mask, bc, |idx, bpos| {
                ws.accumulate(idx, S::mul(av, bv[bpos]), S::add);
            });
        }
        ws.gather_into(mask, out_cols, out_vals)
    }
}

/// Walk the mask row (Algorithm 3's `Enumerate(m)`) advancing a cursor into
/// the sorted `B`-row; `hit(rank, b_pos)` fires on every intersection.
#[inline]
fn merge_into(mask: &[Idx], bc: &[Idx], mut hit: impl FnMut(usize, usize)) {
    let mut x = 0usize; // cursor into bc
    for (idx, &mj) in mask.iter().enumerate() {
        while x < bc.len() && bc[x] < mj {
            x += 1;
        }
        if x == bc.len() {
            break;
        }
        if bc[x] == mj {
            hit(idx, x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_finds_all_intersections() {
        let mask: &[Idx] = &[2, 5, 9, 12];
        let bc: &[Idx] = &[1, 5, 9, 13];
        let mut hits = Vec::new();
        merge_into(mask, bc, |idx, bpos| hits.push((idx, bpos)));
        assert_eq!(hits, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn merge_disjoint_inputs() {
        let mut hits = Vec::new();
        merge_into(&[1, 3], &[2, 4], |i, b| hits.push((i, b)));
        assert!(hits.is_empty());
        merge_into(&[], &[2, 4], |i, b| hits.push((i, b)));
        merge_into(&[1, 3], &[], |i, b| hits.push((i, b)));
        assert!(hits.is_empty());
    }

    #[test]
    fn merge_identical_inputs() {
        let cols: &[Idx] = &[0, 7, 20];
        let mut hits = Vec::new();
        merge_into(cols, cols, |idx, bpos| hits.push((idx, bpos)));
        assert_eq!(hits, vec![(0, 0), (1, 1), (2, 2)]);
    }
}
