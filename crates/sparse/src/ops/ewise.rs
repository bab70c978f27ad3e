//! Element-wise operations: pattern union (`eWiseAdd`) and structural
//! mask filtering (keep / drop). All row-parallel two-pass kernels
//! (count, prefix-sum, fill) over sorted rows.

use crate::csr::Csr;
use crate::Idx;

/// Count the intersection size of two sorted index slices.
#[inline]
fn intersection_len(a: &[Idx], b: &[Idx]) -> usize {
    let (mut x, mut y, mut n) = (0usize, 0usize, 0usize);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                x += 1;
                y += 1;
            }
        }
    }
    n
}

/// Count the union size of two sorted index slices.
#[inline]
fn union_len(a: &[Idx], b: &[Idx]) -> usize {
    a.len() + b.len() - intersection_len(a, b)
}

/// `C = A + B` on the pattern union; overlapping entries combined with `f`,
/// unmatched entries passed through `only_a` / `only_b`.
pub fn ewise_add<T, U, V>(
    a: &Csr<T>,
    b: &Csr<U>,
    f: impl Fn(&T, &U) -> V + Sync,
    only_a: impl Fn(&T) -> V + Sync,
    only_b: impl Fn(&U) -> V + Sync,
) -> Csr<V>
where
    T: Copy + Send + Sync,
    U: Copy + Send + Sync,
    V: Copy + Send + Sync + Default,
{
    assert_eq!(a.nrows(), b.nrows(), "ewise_add: row count mismatch");
    assert_eq!(a.ncols(), b.ncols(), "ewise_add: column count mismatch");
    Csr::from_row_fill(
        a.nrows(),
        a.ncols(),
        |i| union_len(a.row_cols(i), b.row_cols(i)),
        |i, cols, vals| {
            let (ac, av) = a.row(i);
            let (bc, bv) = b.row(i);
            let (mut x, mut y, mut w) = (0usize, 0usize, 0usize);
            while x < ac.len() || y < bc.len() {
                let take_a = y >= bc.len() || (x < ac.len() && ac[x] <= bc[y]);
                let take_b = x >= ac.len() || (y < bc.len() && bc[y] <= ac[x]);
                if take_a && take_b {
                    cols[w] = ac[x];
                    vals[w] = f(&av[x], &bv[y]);
                    x += 1;
                    y += 1;
                } else if take_a {
                    cols[w] = ac[x];
                    vals[w] = only_a(&av[x]);
                    x += 1;
                } else {
                    cols[w] = bc[y];
                    vals[w] = only_b(&bv[y]);
                    y += 1;
                }
                w += 1;
            }
            w
        },
        V::default(),
    )
}

/// Keep the entries of `a` whose coordinate is present in `mask`
/// (structural; mask values ignored). Equivalent to GraphBLAS
/// `C⟨M⟩ = A` with replace.
pub fn mask_keep<T, M>(a: &Csr<T>, mask: &Csr<M>) -> Csr<T>
where
    T: Copy + Send + Sync + Default,
    M: Copy + Send + Sync,
{
    assert_eq!(a.nrows(), mask.nrows(), "mask_keep: row count mismatch");
    assert_eq!(a.ncols(), mask.ncols(), "mask_keep: column count mismatch");
    Csr::from_row_fill(
        a.nrows(),
        a.ncols(),
        |i| intersection_len(a.row_cols(i), mask.row_cols(i)),
        |i, cols, vals| {
            let (ac, av) = a.row(i);
            let mc = mask.row_cols(i);
            let (mut x, mut y, mut w) = (0usize, 0usize, 0usize);
            while x < ac.len() && y < mc.len() {
                match ac[x].cmp(&mc[y]) {
                    std::cmp::Ordering::Less => x += 1,
                    std::cmp::Ordering::Greater => y += 1,
                    std::cmp::Ordering::Equal => {
                        cols[w] = ac[x];
                        vals[w] = av[x];
                        w += 1;
                        x += 1;
                        y += 1;
                    }
                }
            }
            w
        },
        T::default(),
    )
}

/// Keep the entries of `a` whose coordinate is **absent** from `mask`
/// (complemented structural mask): `C⟨¬M⟩ = A`.
pub fn mask_drop<T, M>(a: &Csr<T>, mask: &Csr<M>) -> Csr<T>
where
    T: Copy + Send + Sync + Default,
    M: Copy + Send + Sync,
{
    assert_eq!(a.nrows(), mask.nrows(), "mask_drop: row count mismatch");
    assert_eq!(a.ncols(), mask.ncols(), "mask_drop: column count mismatch");
    Csr::from_row_fill(
        a.nrows(),
        a.ncols(),
        |i| a.row_nnz(i) - intersection_len(a.row_cols(i), mask.row_cols(i)),
        |i, cols, vals| {
            let (ac, av) = a.row(i);
            let mc = mask.row_cols(i);
            let (mut y, mut w) = (0usize, 0usize);
            for (x, &j) in ac.iter().enumerate() {
                while y < mc.len() && mc[y] < j {
                    y += 1;
                }
                if y < mc.len() && mc[y] == j {
                    continue;
                }
                cols[w] = j;
                vals[w] = av[x];
                w += 1;
            }
            w
        },
        T::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Csr<i64> {
        Csr::from_dense(
            &[
                vec![Some(1), None, Some(3), None],
                vec![None, None, None, None],
                vec![Some(5), Some(6), None, Some(8)],
            ],
            4,
        )
    }

    fn b() -> Csr<i64> {
        Csr::from_dense(
            &[
                vec![Some(10), Some(20), None, None],
                vec![None, Some(30), None, None],
                vec![Some(40), None, None, Some(50)],
            ],
            4,
        )
    }

    #[test]
    fn add_is_union() {
        let c = ewise_add(&a(), &b(), |x, y| x + y, |x| *x, |y| *y);
        assert_eq!(c.nnz(), 7);
        assert_eq!(c.get(0, 0), Some(&11));
        assert_eq!(c.get(0, 1), Some(&20));
        assert_eq!(c.get(0, 2), Some(&3));
        assert_eq!(c.get(1, 1), Some(&30));
        assert_eq!(c.get(2, 1), Some(&6));
    }

    #[test]
    fn keep_and_drop_partition() {
        let m = b().pattern();
        let kept = mask_keep(&a(), &m);
        let dropped = mask_drop(&a(), &m);
        assert_eq!(kept.nnz() + dropped.nnz(), a().nnz());
        // kept ⊆ mask, dropped ∩ mask = ∅
        for (i, j, _) in kept.iter() {
            assert!(m.get(i, j).is_some());
        }
        for (i, j, _) in dropped.iter() {
            assert!(m.get(i, j).is_none());
        }
        // Values unchanged.
        assert_eq!(kept.get(2, 0), Some(&5));
        assert_eq!(dropped.get(2, 1), Some(&6));
    }

    #[test]
    fn add_with_empty_is_identity() {
        let e: Csr<i64> = Csr::empty(3, 4);
        let u = ewise_add(&a(), &e, |x, _| *x, |x| *x, |y| *y);
        assert_eq!(u, a());
    }

    #[test]
    fn mixed_value_types() {
        let pat = a().pattern();
        let c: Csr<u32> = ewise_add(&pat, &b(), |_, y| *y as u32, |_| 0, |y| *y as u32);
        assert_eq!(c.get(2, 3), Some(&50u32));
        assert_eq!(c.get(2, 1), Some(&0u32));
    }
}
