//! Symmetric permutation `P·A·Pᵀ` and degree-descending relabeling.
//! Triangle counting sorts vertices in non-increasing degree order before
//! extracting `L` (§8.2, citing \[29\]); this module implements that step.

use crate::csr::Csr;
use crate::util::{row_split, SlackRows};
use crate::Idx;
use rayon::prelude::*;

/// Apply the symmetric permutation given by `new_of_old`:
/// `C[new_of_old[i]][new_of_old[j]] = A[i][j]`.
///
/// `new_of_old` must be a permutation of `0..nrows` (checked in debug).
/// New rows are filled in parallel, each from its old row, and re-sorted
/// (a permutation destroys column order within rows).
pub fn permute_symmetric<T>(a: &Csr<T>, new_of_old: &[Idx]) -> Csr<T>
where
    T: Copy + Send + Sync,
{
    assert_eq!(
        a.nrows(),
        a.ncols(),
        "symmetric permutation needs a square matrix"
    );
    assert_eq!(new_of_old.len(), a.nrows(), "permutation length mismatch");
    debug_assert!(is_permutation(new_of_old));
    let n = a.nrows();
    // Walk the new rows in order, each through the old row it came from,
    // so every destination row is one contiguous range of the output.
    let mut old_of_new = vec![0 as Idx; n];
    for (i, &ni) in new_of_old.iter().enumerate() {
        old_of_new[ni as usize] = i as Idx;
    }
    let sizes: Vec<usize> = old_of_new.iter().map(|&i| a.row_nnz(i as usize)).collect();
    let Some(&fill) = a.values().first() else {
        return Csr::empty(n, n);
    };
    let mut out = SlackRows::new(&sizes, fill);
    out.windows(&row_split(n))
        .par_iter_mut()
        .with_max_len(1)
        .for_each(|w| {
            let mut pairs = Vec::new();
            for (ni, dst_c, dst_v, size) in w.rows_mut() {
                let (cols, vals) = a.row(old_of_new[ni] as usize);
                // Relabel the columns, then sort the row.
                pairs.clear();
                pairs.extend(
                    cols.iter()
                        .zip(vals)
                        .map(|(&j, &v)| (new_of_old[j as usize], v)),
                );
                pairs.sort_unstable_by_key(|&(j, _)| j);
                for ((c, v), &(j, x)) in dst_c.iter_mut().zip(dst_v.iter_mut()).zip(&pairs) {
                    (*c, *v) = (j, x);
                }
                *size = pairs.len();
            }
        });
    out.into_csr(n)
}

/// Permutation sending each vertex to its rank in non-increasing degree
/// order (ties broken by original index, making it deterministic).
/// Returns `new_of_old`.
pub fn degree_descending_permutation<T>(a: &Csr<T>) -> Vec<Idx> {
    let n = a.nrows();
    let mut order: Vec<Idx> = (0..n as Idx).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(a.row_nnz(i as usize)), i));
    let mut new_of_old = vec![0 as Idx; n];
    for (rank, &old) in order.iter().enumerate() {
        new_of_old[old as usize] = rank as Idx;
    }
    new_of_old
}

fn is_permutation(p: &[Idx]) -> bool {
    let mut seen = vec![false; p.len()];
    for &x in p {
        let x = x as usize;
        if x >= p.len() || seen[x] {
            return false;
        }
        seen[x] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Csr<i64> {
        // Path 0-1-2-3 (symmetric adjacency), values = 10*i + j.
        let mut d = vec![vec![None; 4]; 4];
        for (i, j) in [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)] {
            d[i][j] = Some((10 * i + j) as i64);
        }
        Csr::from_dense(&d, 4)
    }

    #[test]
    fn identity_permutation_is_noop() {
        let a = path4();
        let id: Vec<Idx> = (0..4).collect();
        assert_eq!(permute_symmetric(&a, &id), a);
    }

    #[test]
    fn reversal_permutation() {
        let a = path4();
        let rev: Vec<Idx> = (0..4).rev().collect();
        let c = permute_symmetric(&a, &rev);
        // entry (0,1)=1 moves to (3,2)
        assert_eq!(c.get(3, 2), Some(&1));
        assert_eq!(c.get(2, 3), Some(&10));
        assert_eq!(c.nnz(), a.nnz());
    }

    #[test]
    fn permute_preserves_entry_multiset() {
        let a = path4();
        let p: Vec<Idx> = vec![2, 0, 3, 1];
        let c = permute_symmetric(&a, &p);
        let mut orig: Vec<i64> = a.values().to_vec();
        let mut perm: Vec<i64> = c.values().to_vec();
        orig.sort();
        perm.sort();
        assert_eq!(orig, perm);
        // Check a specific coordinate: A[2][3] -> C[p[2]][p[3]] = C[3][1].
        assert_eq!(c.get(3, 1), a.get(2, 3).copied().as_ref());
    }

    #[test]
    fn degree_descending_orders_star() {
        // Star: vertex 3 is the hub with degree 3; leaves have degree 1.
        let mut d = vec![vec![None; 4]; 4];
        for leaf in [0usize, 1, 2] {
            d[3][leaf] = Some(1i64);
            d[leaf][3] = Some(1i64);
        }
        let a = Csr::from_dense(&d, 4);
        let p = degree_descending_permutation(&a);
        assert_eq!(p[3], 0, "hub gets rank 0");
        // Leaves keep relative order by index (deterministic ties).
        assert_eq!(&p[0..3], &[1, 2, 3]);
    }

    #[test]
    fn rows_sorted_after_permutation() {
        let a = path4();
        let p: Vec<Idx> = vec![3, 1, 0, 2];
        let c = permute_symmetric(&a, &p);
        for i in 0..c.nrows() {
            let cols = c.row_cols(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
