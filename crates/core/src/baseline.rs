//! Baselines the paper compares against.
//!
//! * [`spgemm`] / [`spgemm_then_mask`] — the Fig 1 strawman: a plain
//!   (unmasked) Gustavson SpGEMM, optionally followed by applying the mask
//!   to the finished product. Every masked-out flop is wasted.
//! * [`ss_saxpy_like`] — models SuiteSparse:GraphBLAS's SAXPY path as the
//!   paper characterizes it: push-based accumulation that does **not**
//!   consult the mask while accumulating (late masking at the gather).
//! * [`ss_dot_like`] — models `SS:DOT`: pull-based dot products, but — as
//!   §8.4 observes of the library — `B` is transposed *inside every call*,
//!   and the transpose cost is attributed to the multiplication.
//!
//! These are algorithmic stand-ins, not bindings: see DESIGN.md §2.

use crate::schedule::ExecOpts;
use crate::{masked_mxm_with_opts, Algorithm, MaskMode, Phases};
use mspgemm_sparse::ops::ewise::{mask_drop, mask_keep};
use mspgemm_sparse::semiring::Semiring;
use mspgemm_sparse::util::UnsafeSlice;
use mspgemm_sparse::{Csr, Idx};
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
    let offsets = mspgemm_sparse::util::par_exclusive_prefix_sum(&bounds);
    let mut tmp_cols = vec![0 as Idx; offsets[nrows]];
    let mut tmp_vals = vec![S::Out::default(); offsets[nrows]];
    let mut sizes = vec![0usize; nrows];
    {
        let cw = UnsafeSlice::new(&mut tmp_cols);
        let vw = UnsafeSlice::new(&mut tmp_vals);
        sizes
            .par_iter_mut()
            .enumerate()
            .with_min_len(16)
            .for_each_init(
                || Spa::<S::Out>::new(ncols),
                |spa, (i, size)| {
                    spa.clear();
                    let (ac, av) = a.row(i);
                    for (&k, &avv) in ac.iter().zip(av) {
                        let (bc, bv) = b.row(k as usize);
                        for (&j, &bvv) in bc.iter().zip(bv) {
                            spa.accumulate::<S>(j, S::mul(avv, bvv));
                        }
                    }
                    // SAFETY: prefix-sum ranges are disjoint.
                    let oc = unsafe { cw.slice_mut(offsets[i], bounds[i]) };
                    let ov = unsafe { vw.slice_mut(offsets[i], bounds[i]) };
                    *size = spa.gather_sorted(oc, ov);
                },
            );
    }
    Csr::compact(
        nrows,
        ncols,
        &offsets,
        &sizes,
        tmp_cols,
        tmp_vals,
        S::Out::default(),
    )
}

/// The Fig 1 strawman: full product, then apply the mask.
pub fn spgemm_then_mask<S, M>(
    mask: &Csr<M>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    mode: MaskMode,
) -> Csr<S::Out>
where
    S: Semiring,
    M: Copy + Send + Sync,
{
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
/// avoiding the full-output materialization of [`spgemm_then_mask`].
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
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "ss_saxpy_like: inner dimensions differ"
    );
    assert_eq!(mask.nrows(), a.nrows(), "ss_saxpy_like: mask rows");
    assert_eq!(mask.ncols(), b.ncols(), "ss_saxpy_like: mask cols");
    let nrows = a.nrows();
    let ncols = b.ncols();
    let complement = mode == MaskMode::Complement;
    let bounds: Vec<usize> = (0..nrows)
        .into_par_iter()
        .map(|i| {
            if complement {
                let flops: usize = a.row_cols(i).iter().map(|&k| b.row_nnz(k as usize)).sum();
                flops.min(ncols - mask.row_nnz(i))
            } else {
                mask.row_nnz(i)
            }
        })
        .collect();
    let offsets = mspgemm_sparse::util::par_exclusive_prefix_sum(&bounds);
    let mut tmp_cols = vec![0 as Idx; offsets[nrows]];
    let mut tmp_vals = vec![S::Out::default(); offsets[nrows]];
    let mut sizes = vec![0usize; nrows];
    {
        let cw = UnsafeSlice::new(&mut tmp_cols);
        let vw = UnsafeSlice::new(&mut tmp_vals);
        sizes
            .par_iter_mut()
            .enumerate()
            .with_min_len(16)
            .for_each_init(
                || Spa::<S::Out>::new(ncols),
                |spa, (i, size)| {
                    spa.clear();
                    let (ac, av) = a.row(i);
                    // Accumulate with no mask awareness (the defining trait).
                    for (&k, &avv) in ac.iter().zip(av) {
                        let (bc, bv) = b.row(k as usize);
                        for (&j, &bvv) in bc.iter().zip(bv) {
                            spa.accumulate::<S>(j, S::mul(avv, bvv));
                        }
                    }
                    let oc = unsafe { cw.slice_mut(offsets[i], bounds[i]) };
                    let ov = unsafe { vw.slice_mut(offsets[i], bounds[i]) };
                    *size = if complement {
                        spa.gather_sorted_excluding(mask.row_cols(i), oc, ov)
                    } else {
                        spa.gather_mask_order(mask.row_cols(i), oc, ov)
                    };
                },
            );
    }
    Csr::compact(
        nrows,
        ncols,
        &offsets,
        &sizes,
        tmp_cols,
        tmp_vals,
        S::Out::default(),
    )
}

/// Dot-product baseline with a per-call transpose of `B`, charging the
/// transpose to the multiplication the way `SS:DOT` does (§8.4). Always
/// two-phase, like the library's symbolic/numeric dot path.
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
    masked_mxm_with_opts::<S, M>(
        mask,
        a,
        b,
        Algorithm::Inner,
        mode,
        Phases::Two,
        &ExecOpts::default(),
    )
    .unwrap_or_else(|e| panic!("ss_dot_like: {e}"))
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

    fn clear(&mut self) {
        for &j in &self.touched {
            self.occupied[j as usize] = false;
        }
        self.touched.clear();
    }

    #[inline(always)]
    fn accumulate<S: Semiring<Out = V>>(&mut self, j: Idx, v: V) {
        let k = j as usize;
        if self.occupied[k] {
            self.values[k] = S::add(self.values[k], v);
        } else {
            self.occupied[k] = true;
            self.values[k] = v;
            self.touched.push(j);
        }
    }

    /// Emit all touched entries in sorted order.
    fn gather_sorted(&mut self, out_cols: &mut [Idx], out_vals: &mut [V]) -> usize {
        self.touched.sort_unstable();
        for (w, &j) in self.touched.iter().enumerate() {
            out_cols[w] = j;
            out_vals[w] = self.values[j as usize];
        }
        self.touched.len()
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
            let x = spgemm_then_mask::<PlusTimesI64, ()>(&m, &a, &a, mode);
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
        let x = spgemm_then_mask::<PlusTimesI64, ()>(&m, &a, &a, MaskMode::Mask);
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
