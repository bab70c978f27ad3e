//! Reductions over stored entries: per-column and whole-matrix.

use crate::csr::Csr;
use rayon::prelude::*;

/// Reduce every stored entry to a single value (monoid must be commutative
/// and associative — chunks are combined in arbitrary order).
pub fn reduce_all<T, A>(
    a: &Csr<T>,
    zero: A,
    f: impl Fn(A, &T) -> A + Sync,
    combine: impl Fn(A, A) -> A + Sync + Send,
) -> A
where
    T: Send + Sync,
    A: Copy + Send + Sync,
{
    a.values()
        .par_chunks(1 << 14)
        .map(|chunk| chunk.iter().fold(zero, &f))
        .reduce(|| zero, &combine)
}

/// Per-column reduction (column sums etc.). Sequential scatter — used for
/// degree-style summaries, not in hot paths.
pub fn reduce_cols<T, A>(a: &Csr<T>, zero: A, f: impl Fn(A, &T) -> A) -> Vec<A>
where
    A: Copy,
{
    let mut out = vec![zero; a.ncols()];
    for (_, j, v) in a.iter() {
        out[j as usize] = f(out[j as usize], v);
    }
    out
}

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

    fn m() -> Csr<i64> {
        Csr::from_dense(
            &[
                vec![Some(1), None, Some(3)],
                vec![None, None, None],
                vec![Some(5), Some(-2), Some(4)],
            ],
            3,
        )
    }

    #[test]
    fn total_sum_and_max() {
        assert_eq!(reduce_all(&m(), 0i64, |a, v| a + v, |x, y| x + y), 11);
        assert_eq!(
            reduce_all(&m(), i64::MIN, |a, v| a.max(*v), |x, y| x.max(y)),
            5
        );
    }

    #[test]
    fn col_sums_and_counts() {
        assert_eq!(reduce_cols(&m(), 0i64, |a, v| a + v), vec![6, -2, 7]);
        assert_eq!(col_nnz(&m()), vec![2, 1, 2]);
    }

    #[test]
    fn empty_reductions() {
        let e: Csr<i64> = Csr::empty(2, 2);
        assert_eq!(reduce_all(&e, 0i64, |a, v| a + v, |x, y| x + y), 0);
    }

    #[test]
    fn large_parallel_sum_matches_sequential() {
        let n = 500usize;
        let dense: Vec<Vec<Option<i64>>> = (0..n)
            .map(|i| (0..n).map(|j| ((i * j) % 3 == 0).then_some(1i64)).collect())
            .collect();
        let a = Csr::from_dense(&dense, n);
        let par = reduce_all(&a, 0i64, |acc, v| acc + v, |x, y| x + y);
        let seq: i64 = a.values().iter().sum();
        assert_eq!(par, seq);
    }
}
