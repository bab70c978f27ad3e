//! Reductions over stored entries.

use crate::csr::Csr;

/// Number of stored entries per column.
pub fn col_nnz<T>(a: &Csr<T>) -> Vec<usize> {
    let mut out = vec![0usize; a.ncols()];
    for &j in a.colidx() {
        out[j as usize] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_counts() {
        let m = Csr::from_dense(
            &[
                vec![Some(1), None, Some(3)],
                vec![None, None, None],
                vec![Some(5), Some(-2), Some(4)],
            ],
            3,
        );
        assert_eq!(col_nnz(&m), vec![2, 1, 2]);
        assert_eq!(col_nnz(&Csr::<i64>::empty(2, 2)), vec![0, 0]);
    }
}
