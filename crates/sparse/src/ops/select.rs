//! Structural selection: triangular extraction and predicate pruning.
//! Triangle counting needs the strictly-lower-triangular part after degree
//! relabeling (§8.2); k-truss prunes edges below a support threshold (§8.3).

use crate::csr::Csr;
use crate::Idx;

/// Keep entries `(i, j, v)` where `pred(i, j, &v)` holds. Row-parallel.
pub fn select<T>(a: &Csr<T>, pred: impl Fn(usize, Idx, &T) -> bool + Sync) -> Csr<T>
where
    T: Copy + Send + Sync + Default,
{
    Csr::from_row_fill(
        a.nrows(),
        a.ncols(),
        |i| a.row_nnz(i),
        |i, cols, vals| {
            let (ac, av) = a.row(i);
            let mut w = 0usize;
            for (&j, &v) in ac.iter().zip(av) {
                if pred(i, j, &v) {
                    cols[w] = j;
                    vals[w] = v;
                    w += 1;
                }
            }
            w
        },
        T::default(),
    )
}

/// The pattern of `a` on the given rows (sorted, deduplicated), keeping
/// only the storage positions `keep(p)` accepts (`p` indexes
/// `a.colidx()`); every other row is empty. Serial, and its cost follows
/// the listed rows, not `a`: it builds the sparse masks of the
/// recount passes (incremental triangle counting restricts `L` to whole
/// rows, k-truss to the edges a prune touched), so a masked product only
/// materializes what is being patched.
pub fn restrict_rows<T>(a: &Csr<T>, rows: &[usize], keep: impl Fn(usize) -> bool) -> Csr<()> {
    let mut rowptr = vec![0usize; a.nrows() + 1];
    let mut colidx = Vec::new();
    let mut done = 0usize;
    for &i in rows {
        rowptr[done + 1..=i].fill(colidx.len());
        let (lo, hi) = (a.rowptr()[i], a.rowptr()[i + 1]);
        colidx.extend((lo..hi).filter(|&p| keep(p)).map(|p| a.colidx()[p]));
        done = i;
    }
    rowptr[done + 1..].fill(colidx.len());
    let values = vec![(); colidx.len()];
    Csr::from_parts_unchecked(a.nrows(), a.ncols(), rowptr, colidx, values)
}

/// Strictly lower triangular part (`j < i`).
pub fn tril_strict<T: Copy + Send + Sync + Default>(a: &Csr<T>) -> Csr<T> {
    select(a, |i, j, _| (j as usize) < i)
}

/// Strictly upper triangular part (`j > i`).
pub fn triu_strict<T: Copy + Send + Sync + Default>(a: &Csr<T>) -> Csr<T> {
    select(a, |i, j, _| (j as usize) > i)
}

/// Drop diagonal entries.
pub fn remove_diagonal<T: Copy + Send + Sync + Default>(a: &Csr<T>) -> Csr<T> {
    select(a, |i, j, _| (j as usize) != i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full3() -> Csr<i64> {
        let d: Vec<Vec<Option<i64>>> = (0..3)
            .map(|i| (0..3).map(|j| Some((i * 3 + j) as i64)).collect())
            .collect();
        Csr::from_dense(&d, 3)
    }

    #[test]
    fn tril_triu_diag_partition() {
        let a = full3();
        let l = tril_strict(&a);
        let u = triu_strict(&a);
        let no_diag = remove_diagonal(&a);
        assert_eq!(l.nnz(), 3);
        assert_eq!(u.nnz(), 3);
        assert_eq!(no_diag.nnz(), 6);
        assert_eq!(l.nnz() + u.nnz(), no_diag.nnz());
        for (i, j, _) in l.iter() {
            assert!((j as usize) < i);
        }
        for (i, j, _) in u.iter() {
            assert!((j as usize) > i);
        }
    }

    #[test]
    fn select_by_value() {
        let a = full3();
        let big = select(&a, |_, _, v| *v >= 5);
        assert_eq!(big.nnz(), 4);
        assert_eq!(big.get(1, 2), Some(&5));
        assert_eq!(big.get(0, 2), None);
    }

    #[test]
    fn select_preserves_sortedness() {
        let a = full3();
        let s = select(&a, |_, j, _| j % 2 == 0);
        for i in 0..s.nrows() {
            let cols = s.row_cols(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn restrict_rows_keeps_listed_rows_and_accepted_positions() {
        let a = full3();
        // Whole rows 0 and 2; row 1 stays empty.
        let r = restrict_rows(&a, &[0, 2], |_| true);
        assert_eq!(r.rowptr(), &[0, 3, 3, 6]);
        assert_eq!(r.colidx(), &[0, 1, 2, 0, 1, 2]);
        // Positions are indices into `a.colidx()`: keep the odd ones of
        // rows 1 and 2 (positions 3..6 and 6..9).
        let r = restrict_rows(&a, &[1, 2], |p| p % 2 == 1);
        assert_eq!(r.rowptr(), &[0, 0, 2, 3]);
        assert_eq!(r.colidx(), &[0, 2, 1]);
        assert_eq!(restrict_rows(&a, &[], |_| true).nnz(), 0);
        assert_eq!(restrict_rows(&a, &[0, 1, 2], |_| true), a.pattern());
    }

    #[test]
    fn select_all_and_none() {
        let a = full3();
        assert_eq!(select(&a, |_, _, _| true), a);
        assert_eq!(select(&a, |_, _, _| false).nnz(), 0);
    }
}
