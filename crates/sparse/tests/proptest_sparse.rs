//! Property-based tests for the sparse substrate: algebraic laws and
//! format invariants on arbitrary matrices.

use mspgemm_sparse::ops::ewise::{ewise_add, mask_drop, mask_keep};
use mspgemm_sparse::ops::permute::{degree_descending_permutation, permute_symmetric};
use mspgemm_sparse::ops::reduce::{col_nnz, reduce_all, reduce_rows};
use mspgemm_sparse::ops::select::{tril_strict, triu_strict};
use mspgemm_sparse::transpose::{transpose, transpose_seq};
use mspgemm_sparse::{Coo, Csr, Idx};
use proptest::prelude::*;

fn csr_strategy(nrows: usize, ncols: usize, fill: f64) -> impl Strategy<Value = Csr<i64>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::weighted(fill, -9i64..=9), ncols),
        nrows,
    )
    .prop_map(move |d| Csr::from_dense(&d, ncols))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution(a in csr_strategy(17, 23, 0.25)) {
        prop_assert_eq!(transpose(&transpose(&a)), a);
    }

    #[test]
    fn transpose_par_matches_seq(a in csr_strategy(31, 19, 0.3)) {
        prop_assert_eq!(transpose(&a), transpose_seq(&a));
    }

    #[test]
    fn transpose_preserves_entries(a in csr_strategy(11, 13, 0.4)) {
        let t = transpose(&a);
        prop_assert_eq!(t.nnz(), a.nnz());
        for (i, j, v) in a.iter() {
            prop_assert_eq!(t.get(j as usize, i as Idx), Some(v));
        }
    }

    #[test]
    fn ewise_add_commutes(a in csr_strategy(9, 9, 0.35), b in csr_strategy(9, 9, 0.35)) {
        let ab = ewise_add(&a, &b, |x, y| x + y, |x| *x, |y| *y);
        let ba = ewise_add(&b, &a, |x, y| x + y, |x| *x, |y| *y);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn mask_keep_drop_partition(a in csr_strategy(12, 12, 0.4), m in csr_strategy(12, 12, 0.3)) {
        let m = m.pattern();
        let kept = mask_keep(&a, &m);
        let dropped = mask_drop(&a, &m);
        prop_assert_eq!(kept.nnz() + dropped.nnz(), a.nnz());
        let merged = ewise_add(&kept, &dropped, |_, _| unreachable!(), |x| *x, |y| *y);
        prop_assert_eq!(merged, a);
    }

    #[test]
    fn tril_triu_partition_offdiagonal(a in csr_strategy(10, 10, 0.5)) {
        let l = tril_strict(&a);
        let u = triu_strict(&a);
        let diag_count = (0..10).filter(|&i| a.get(i, i as Idx).is_some()).count();
        prop_assert_eq!(l.nnz() + u.nnz() + diag_count, a.nnz());
    }

    #[test]
    fn row_sums_total_matches_reduce_all(a in csr_strategy(8, 14, 0.4)) {
        let rows = reduce_rows(&a, 0i64, |acc, v| acc + v);
        let total = reduce_all(&a, 0i64, |acc, v| acc + v, |x, y| x + y);
        prop_assert_eq!(rows.iter().sum::<i64>(), total);
    }

    #[test]
    fn col_nnz_sums_to_nnz(a in csr_strategy(8, 14, 0.4)) {
        prop_assert_eq!(col_nnz(&a).iter().sum::<usize>(), a.nnz());
    }

    #[test]
    fn permutation_roundtrip(a in csr_strategy(9, 9, 0.4), seed in 0u64..1000) {
        // Build a deterministic permutation from the seed, apply it and
        // its inverse: identity.
        let n = 9usize;
        let mut perm: Vec<Idx> = (0..n as Idx).collect();
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut inv = vec![0 as Idx; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as Idx;
        }
        let p = permute_symmetric(&a, &perm);
        let back = permute_symmetric(&p, &inv);
        prop_assert_eq!(back, a);
    }

    #[test]
    fn degree_permutation_sorts_degrees(a in csr_strategy(12, 12, 0.3)) {
        let p = degree_descending_permutation(&a);
        let relabeled = permute_symmetric(&a, &p);
        let degs: Vec<usize> = (0..12).map(|i| relabeled.row_nnz(i)).collect();
        prop_assert!(degs.windows(2).all(|w| w[0] >= w[1]), "degrees not descending: {:?}", degs);
    }

    #[test]
    fn coo_roundtrip(a in csr_strategy(10, 16, 0.35)) {
        let mut coo = Coo::new(10, 16);
        for (i, j, v) in a.iter() {
            coo.push(i as Idx, j, *v);
        }
        prop_assert_eq!(coo.to_csr(|x, _| x), a);
    }

    // Matrix Market round-trips moved to `mspgemm-io`'s proptests when
    // the lax legacy `mm_io` reader was deleted: the canonical hardened
    // reader (shared tokenizer in `mspgemm-formats`) covers them,
    // serially and chunk-parallel, in crates/io/tests/.
}
