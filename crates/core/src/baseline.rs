//! Baselines the paper compares against.
//!
//! * [`spgemm`] / [`spgemm_then_mask`] — the Fig 1 strawman: a plain
//!   (unmasked) Gustavson SpGEMM, optionally followed by applying the mask
//!   to the finished product. Every masked-out flop is wasted. The tests'
//!   reference, so it keeps a driver of its own.
//! * [`ss_saxpy`] — models SuiteSparse:GraphBLAS's SAXPY path as the
//!   paper characterizes it: push-based accumulation that does **not**
//!   consult the mask while accumulating (late masking at the gather).
//! * [`ss_dot`] — models `SS:DOT`: pull-based dot products, but — as
//!   §8.4 observes of the library — `B` is transposed *inside every call*,
//!   and the transpose cost is attributed to the multiplication.
//!
//! Both run on [`run_kernel`], the driver of our six schemes, so a figure
//! compares algorithms, not drivers. Both read a [`Product`]'s mask
//! structure, operands and mode; [`ss_saxpy_like`] / [`ss_dot_like`] are
//! their one-call forms over a mask of any value type, whose structure
//! alone is kept.
//!
//! These are algorithmic stand-ins, not bindings: SuiteSparse:GraphBLAS is
//! a C library this workspace does not link.

use crate::dispatch::check_dims;
use crate::phases::{run_kernel, RowCtx, RowKernel};
use crate::schedule::{row_chunks, ExecOpts};
use crate::{masked_mxm, Algorithm, MaskMode, Phases, Product};
use mspgemm_sparse::ops::ewise::{mask_drop, mask_keep};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::util::SlackRows;
use mspgemm_sparse::{Csr, CsrRef, Idx};
use rayon::prelude::*;

/// Plain (unmasked) row-parallel Gustavson SpGEMM with a dense sparse
/// accumulator (Algorithm 1). One-phase: per-row bound `min(flops_i,
/// ncols)`, compacted at the end. Output rows are sorted.
pub fn spgemm<S: Semiring>(a: &Csr<S::Left>, b: &Csr<S::Right>) -> Csr<S::Out> {
    assert_eq!(a.ncols(), b.nrows(), "spgemm: inner dimensions differ");
    let nrows = a.nrows();
    let ncols = b.ncols();
    let bounds: Vec<usize> = (0..nrows)
        .into_par_iter()
        .map(|i| {
            let flops: usize = a.row_cols(i).iter().map(|&k| b.row_nnz(k as usize)).sum();
            flops.min(ncols)
        })
        .collect();
    let mut out = SlackRows::new(&bounds, S::Out::default());
    out.windows(&row_chunks(nrows, rayon::current_num_threads()))
        .par_iter_mut()
        .with_max_len(1)
        .for_each_init(
            || Spa::<S::Out>::new(ncols),
            |spa, window| {
                for (i, oc, ov, size) in window.rows_mut() {
                    spa.accumulate_row::<S>(a.row_cols(i), a.row_vals(i), b.view());
                    *size = spa.gather_sorted_excluding(&[], oc, ov);
                }
            },
        );
    out.into_csr(ncols)
}

/// The Fig 1 strawman: full product, then apply the mask.
pub fn spgemm_then_mask<S: Semiring>(
    mask: &Csr<()>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    mode: MaskMode,
) -> Csr<S::Out> {
    let full = spgemm::<S>(a, b);
    match mode {
        MaskMode::Mask => mask_keep(&full, mask),
        MaskMode::Complement => mask_drop(&full, mask),
    }
}

/// SAXPY-style baseline with **late masking**: the accumulation loop is
/// identical to plain SpGEMM (mask never consulted, every product
/// computed); the mask filters only at the per-row gather. This captures
/// the algorithmic difference the paper attributes to `SS:SAXPY` while
/// avoiding the full-output materialization of [`spgemm_then_mask`]. One
/// phase, like the library's saxpy3; `p`'s `Bᵀ` and phase strategy are
/// not read.
pub fn ss_saxpy<S: Semiring>(p: &Product<'_, S::Left, S::Right>) -> Csr<S::Out> {
    let p = Product { bt: None, ..*p }.with_phases(Phases::One);
    let kernel = SaxpyKernel {
        complement: p.complement(),
    };
    check_dims::<S>(&p)
        .and_then(|()| run_kernel::<S, _>(&p, &kernel, None, &ExecOpts::default()))
        .unwrap_or_else(|e| panic!("ss_saxpy: {e}"))
}

/// [`ss_saxpy`]'s row: the full unmasked row `Σ_k a_ik · B_k*` in a
/// [`Spa`], gathered by mask mode.
struct SaxpyKernel {
    complement: bool,
}

impl<S: Semiring> RowKernel<S> for SaxpyKernel {
    type Ws = Spa<S::Out>;

    fn make_ws(&self, ncols: usize) -> Self::Ws {
        Spa::new(ncols)
    }

    fn row_symbolic(&self, _: &mut Self::Ws, _: RowCtx<'_, S>) -> usize {
        unreachable!("SS:SAXPY runs one phase")
    }

    fn row_numeric(
        &self,
        spa: &mut Self::Ws,
        ctx: RowCtx<'_, S>,
        out_cols: &mut [Idx],
        out_vals: &mut [S::Out],
    ) -> usize {
        spa.accumulate_row::<S>(ctx.a_cols, ctx.a_vals, ctx.b);
        if self.complement {
            spa.gather_sorted_excluding(ctx.mask_cols, out_cols, out_vals)
        } else {
            spa.gather_mask_order(ctx.mask_cols, out_cols, out_vals)
        }
    }
}

/// [`ss_saxpy`] of `mode(mask) ⊙ (a·b)`.
pub fn ss_saxpy_like<S, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    mode: MaskMode,
) -> Csr<S::Out>
where
    S: Semiring,
    M: Send + Sync,
{
    ss_saxpy::<S>(&Product::new(mask, a, b, None).with_mode(mode))
}

/// Dot-product baseline with a per-call transpose of `B`, charging the
/// transpose to the multiplication the way `SS:DOT` does (§8.4): `p`'s
/// `Bᵀ` is not read. Always two-phase, like the library's
/// symbolic/numeric dot path.
pub fn ss_dot<S: Semiring>(p: &Product<'_, S::Left, S::Right>) -> Csr<S::Out> {
    let p = Product { bt: None, ..*p }.with_phases(Phases::Two);
    masked_mxm::<S>(&p, Algorithm::Inner, &ExecOpts::default())
        .unwrap_or_else(|e| panic!("ss_dot: {e}"))
        .0
}

/// [`ss_dot`] of `mode(mask) ⊙ (a·b)`.
pub fn ss_dot_like<S, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    mode: MaskMode,
) -> Csr<S::Out>
where
    S: Semiring,
    M: Send + Sync,
{
    ss_dot::<S>(&Product::new(mask, a, b, None).with_mode(mode))
}

/// Plain dense sparse accumulator (Gilbert et al.) for the unmasked
/// baselines: values + occupancy flags + unsorted touched list.
struct Spa<V> {
    occupied: Vec<bool>,
    values: Vec<V>,
    touched: Vec<Idx>,
}

impl<V: Copy + Default> Spa<V> {
    fn new(ncols: usize) -> Self {
        Self {
            occupied: vec![false; ncols],
            values: vec![V::default(); ncols],
            touched: Vec::new(),
        }
    }

    /// Clear the previous row, then accumulate `Σ_k a_ik · B_k*` with no
    /// mask awareness (the defining trait of the unmasked baselines).
    fn accumulate_row<S: Semiring<Out = V>>(
        &mut self,
        a_cols: &[Idx],
        a_vals: &[S::Left],
        b: CsrRef<'_, S::Right>,
    ) {
        for &j in &self.touched {
            self.occupied[j as usize] = false;
        }
        self.touched.clear();
        for (&k, &av) in a_cols.iter().zip(a_vals) {
            for (&j, &bv) in b.row_cols(k as usize).iter().zip(b.row_vals(k as usize)) {
                let (j, v) = (j as usize, S::mul(av, bv));
                if self.occupied[j] {
                    self.values[j] = S::add(self.values[j], v);
                } else {
                    self.occupied[j] = true;
                    self.values[j] = v;
                    self.touched.push(j as Idx);
                }
            }
        }
    }

    /// Emit entries present in the (sorted) mask row, in mask order.
    fn gather_mask_order(
        &mut self,
        mask_cols: &[Idx],
        out_cols: &mut [Idx],
        out_vals: &mut [V],
    ) -> usize {
        let mut w = 0usize;
        for &j in mask_cols {
            if self.occupied[j as usize] {
                out_cols[w] = j;
                out_vals[w] = self.values[j as usize];
                w += 1;
            }
        }
        w
    }

    /// Emit touched entries *not* in the (sorted) mask row, sorted.
    fn gather_sorted_excluding(
        &mut self,
        mask_cols: &[Idx],
        out_cols: &mut [Idx],
        out_vals: &mut [V],
    ) -> usize {
        self.touched.sort_unstable();
        let mut w = 0usize;
        let mut y = 0usize;
        for &j in &self.touched {
            while y < mask_cols.len() && mask_cols[y] < j {
                y += 1;
            }
            if y < mask_cols.len() && mask_cols[y] == j {
                continue;
            }
            out_cols[w] = j;
            out_vals[w] = self.values[j as usize];
            w += 1;
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::semiring::PlusTimesI64;

    fn mat(rows: &[&[Option<i64>]], ncols: usize) -> Csr<i64> {
        let d: Vec<Vec<Option<i64>>> = rows.iter().map(|r| r.to_vec()).collect();
        Csr::from_dense(&d, ncols)
    }

    #[allow(clippy::needless_range_loop)]
    fn dense_mul(a: &Csr<i64>, b: &Csr<i64>) -> Vec<Vec<Option<i64>>> {
        let mut d = vec![vec![None; b.ncols()]; a.nrows()];
        for i in 0..a.nrows() {
            let (ac, av) = a.row(i);
            for (&k, &avv) in ac.iter().zip(av) {
                let (bc, bv) = b.row(k as usize);
                for (&j, &bvv) in bc.iter().zip(bv) {
                    let cell = &mut d[i][j as usize];
                    *cell = Some(cell.unwrap_or(0) + avv * bvv);
                }
            }
        }
        d
    }

    #[test]
    fn plain_spgemm_matches_dense() {
        let a = mat(
            &[
                &[Some(1), None, Some(2)],
                &[None, Some(3), None],
                &[Some(4), Some(5), Some(6)],
            ],
            3,
        );
        let b = mat(
            &[
                &[None, Some(7), None],
                &[Some(8), None, Some(9)],
                &[Some(10), None, Some(11)],
            ],
            3,
        );
        let c = spgemm::<PlusTimesI64>(&a, &b);
        assert_eq!(c, Csr::from_dense(&dense_mul(&a, &b), 3));
    }

    #[test]
    fn then_mask_and_saxpy_agree() {
        let a = mat(
            &[
                &[Some(1), Some(1), None, None],
                &[None, Some(2), Some(1), None],
                &[Some(1), None, None, Some(3)],
                &[None, None, Some(1), Some(1)],
            ],
            4,
        );
        let m = mat(
            &[
                &[Some(1), None, Some(1), None],
                &[Some(1), Some(1), None, None],
                &[None, None, Some(1), Some(1)],
                &[Some(1), Some(1), Some(1), Some(1)],
            ],
            4,
        )
        .pattern();
        for mode in [MaskMode::Mask, MaskMode::Complement] {
            let x = spgemm_then_mask::<PlusTimesI64>(&m, &a, &a, mode);
            let y = ss_saxpy_like::<PlusTimesI64, ()>(&m, &a, &a, mode);
            assert_eq!(x, y, "mode {mode:?}");
        }
    }

    #[test]
    fn ss_dot_matches_then_mask() {
        let a = mat(
            &[
                &[Some(2), None, Some(1)],
                &[Some(1), Some(1), None],
                &[None, Some(3), Some(1)],
            ],
            3,
        );
        let m = a.pattern();
        let x = spgemm_then_mask::<PlusTimesI64>(&m, &a, &a, MaskMode::Mask);
        let y = ss_dot_like::<PlusTimesI64, ()>(&m, &a, &a, MaskMode::Mask);
        assert_eq!(x, y);
    }

    #[test]
    fn empty_operands() {
        let e = Csr::<i64>::empty(3, 3);
        let m = Csr::<()>::empty(3, 3);
        assert_eq!(spgemm::<PlusTimesI64>(&e, &e).nnz(), 0);
        assert_eq!(
            ss_saxpy_like::<PlusTimesI64, ()>(&m, &e, &e, MaskMode::Mask).nnz(),
            0
        );
    }
}
