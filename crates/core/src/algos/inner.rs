//! The pull-based Inner (dot-product) kernel (paper §4.1): for every
//! unmasked output coordinate `(i, j)`, compute the sparse dot product
//! `A_i* · B_*j`. Needs `B` in column-major order, carried by the kernel
//! as `Bᵀ` stored in CSR. A row kernel like the push ones, so the
//! [`crate::phases`] driver runs it one- or two-phase under any schedule.
//!
//! The complemented variant must consider every *non*-mask column whose
//! `Bᵀ` row is nonempty — inherently expensive (the paper reports it
//! prohibitively slow for BC); it is implemented for completeness. Its
//! one-phase rows are bounded like every complemented push row, by
//! `min(flops_i, ncols − nnz(m_i))`: an output entry needs at least one
//! product.

use crate::phases::{RowCtx, RowKernel};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::{CsrRef, Idx};

/// Sparse dot product of two sorted index/value lists. Returns `None` when
/// the patterns do not intersect (no output entry — GraphBLAS structural
/// semantics). `inline(always)`: left to the heuristic, the two call sites
/// in [`InnerKernel`]'s numeric row read 5–8 % slower (`docs/DECISIONS.md`).
#[inline(always)]
pub fn sparse_dot<S: Semiring>(
    ac: &[Idx],
    av: &[S::Left],
    bc: &[Idx],
    bv: &[S::Right],
) -> Option<S::Out> {
    let (mut x, mut y) = (0usize, 0usize);
    let mut acc: Option<S::Out> = None;
    while x < ac.len() && y < bc.len() {
        match ac[x].cmp(&bc[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                let p = S::mul(av[x], bv[y]);
                acc = Some(match acc {
                    None => p,
                    Some(s) => S::add(s, p),
                });
                x += 1;
                y += 1;
            }
        }
    }
    acc
}

/// Pattern-intersection test with early exit — the symbolic-phase dot.
#[inline]
pub fn patterns_intersect(ac: &[Idx], bc: &[Idx]) -> bool {
    let (mut x, mut y) = (0usize, 0usize);
    while x < ac.len() && y < bc.len() {
        match ac[x].cmp(&bc[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The pull kernel: `Bᵀ` in CSR (i.e. `B` in CSC) and the mask
/// interpretation. Needs no per-thread scratch (`Ws = ()`); it ignores
/// [`RowCtx::b`] and dots the `A` row against rows of its own `bt`.
pub struct InnerKernel<'a, R> {
    bt: CsrRef<'a, R>,
    complement: bool,
    /// Columns whose `Bᵀ` row is nonempty, sorted: the complemented
    /// variant's candidates, computed once per product. Empty in normal
    /// mode, where the mask row itself lists the candidates.
    nonempty: Vec<Idx>,
}

impl<'a, R> InnerKernel<'a, R> {
    /// The kernel over `bt = Bᵀ` (a borrowed view — storage-agnostic like
    /// every operand), reading the mask as its complement or not.
    pub fn new(bt: CsrRef<'a, R>, complement: bool) -> Self {
        let nonempty = if complement {
            (0..bt.nrows())
                .filter(|&j| bt.row_nnz(j) > 0)
                .map(|j| j as Idx)
                .collect()
        } else {
            Vec::new()
        };
        Self {
            bt,
            complement,
            nonempty,
        }
    }
}

/// `cand \ mask`, both sorted — the columns a complemented row may emit —
/// by one merge pass.
fn non_mask<'a>(cand: &'a [Idx], mask: &'a [Idx]) -> impl Iterator<Item = Idx> + 'a {
    let mut y = 0usize;
    cand.iter().copied().filter(move |&j| {
        while y < mask.len() && mask[y] < j {
            y += 1;
        }
        mask.get(y) != Some(&j)
    })
}

impl<S: Semiring> RowKernel<S> for InnerKernel<'_, S::Right> {
    type Ws = ();

    fn make_ws(&self, _ncols: usize) -> Self::Ws {}

    fn ws_depends_on_ncols(&self) -> bool {
        false
    }

    /// Early-exit intersection tests: the symbolic-phase dots.
    fn row_symbolic(&self, _ws: &mut (), ctx: RowCtx<'_, S>) -> usize {
        let ac = ctx.a_cols;
        let hit = |j: Idx| patterns_intersect(ac, self.bt.row_cols(j as usize));
        if self.complement {
            non_mask(&self.nonempty, ctx.mask_cols)
                .filter(|&j| hit(j))
                .count()
        } else {
            ctx.mask_cols.iter().filter(|&&j| hit(j)).count()
        }
    }

    fn row_numeric(
        &self,
        _ws: &mut (),
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize {
        let (ac, av) = (ctx.a_cols, ctx.a_vals);
        let mut w = 0usize;
        // One straight loop per mask mode: sharing the emit step through
        // a closure measured slower (`docs/DECISIONS.md`).
        if self.complement {
            for j in non_mask(&self.nonempty, ctx.mask_cols) {
                let (bc, bv) = self.bt.row(j as usize);
                if let Some(v) = sparse_dot::<S>(ac, av, bc, bv) {
                    out_cols[w] = j;
                    out_vals[w] = v;
                    w += 1;
                }
            }
        } else {
            for &j in ctx.mask_cols {
                let (bc, bv) = self.bt.row(j as usize);
                if let Some(v) = sparse_dot::<S>(ac, av, bc, bv) {
                    out_cols[w] = j;
                    out_vals[w] = v;
                    w += 1;
                }
            }
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::semiring::PlusTimesI64;

    #[test]
    fn dot_basics() {
        let ac: &[Idx] = &[1, 4, 7];
        let av: &[i64] = &[2, 3, 5];
        let bc: &[Idx] = &[4, 7, 9];
        let bv: &[i64] = &[10, 100, 1000];
        assert_eq!(sparse_dot::<PlusTimesI64>(ac, av, bc, bv), Some(530));
        assert_eq!(sparse_dot::<PlusTimesI64>(ac, av, &[0, 2], &[1, 1]), None);
        assert_eq!(sparse_dot::<PlusTimesI64>(&[], &[], bc, bv), None);
    }

    #[test]
    fn intersection_test_matches_dot_existence() {
        let cases: &[(&[Idx], &[Idx])] = &[
            (&[1, 2, 3], &[3, 4]),
            (&[1, 2], &[3, 4]),
            (&[], &[1]),
            (&[5], &[5]),
        ];
        for (ac, bc) in cases {
            let av: Vec<i64> = ac.iter().map(|_| 1).collect();
            let bv: Vec<i64> = bc.iter().map(|_| 1).collect();
            assert_eq!(
                patterns_intersect(ac, bc),
                sparse_dot::<PlusTimesI64>(ac, &av, bc, &bv).is_some()
            );
        }
    }

    #[test]
    fn nonmask_iterator_subtracts() {
        let cand: &[Idx] = &[0, 2, 4, 6, 8];
        let mask: &[Idx] = &[2, 3, 8];
        let got: Vec<Idx> = non_mask(cand, mask).collect();
        assert_eq!(got, vec![0, 4, 6]);
    }
}
