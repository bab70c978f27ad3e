//! Property-based tests for the sparse substrate: algebraic laws and
//! format invariants on arbitrary matrices.

use mspgemm_sparse::ops::ewise::{ewise_add, mask_drop, mask_keep};
use mspgemm_sparse::ops::permute::{degree_descending_permutation, permute_symmetric};
use mspgemm_sparse::ops::reduce::col_nnz;
use mspgemm_sparse::ops::select::tril_strict;
use mspgemm_sparse::transpose::{transpose, transpose_seq};
use mspgemm_sparse::util::{split_ranges, SlackRows, PAR_COUNT_MIN};
use mspgemm_sparse::{Coo, Csr, Idx};
use proptest::prelude::*;
use rayon::prelude::*;

fn csr_strategy(nrows: usize, ncols: usize, fill: f64) -> impl Strategy<Value = Csr<i64>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::weighted(fill, -9i64..=9), ncols),
        nrows,
    )
    .prop_map(move |d| Csr::from_dense(&d, ncols))
}

/// A matrix of `shape` (0: square with empty rows and columns, 1: one
/// row, 2: one column, 3: hypersparse wide, 4: a hub column 0 in every
/// row holding three quarters of the entries, 5: tall hypersparse, more
/// rows than entries) holding about `target` entries, each valued by its
/// position so a misplaced one shows.
fn shaped(shape: u8, target: usize, seed: u64) -> Csr<i64> {
    let t = target.max(1);
    let (nrows, ncols, rows_used, cols_used) = match shape {
        0 => {
            let n = (target / 6).max(4);
            (n, n, n * 2 / 3, n * 3 / 4)
        }
        1 => (1, t * 2, 1, t * 2),
        2 => (t * 2, 1, t * 2, 1),
        3 => (64, 1 << 20, 64, 1 << 20),
        4 => {
            let (m, n) = ((t * 3 / 4).max(4), (t / 4).max(4));
            (m, n, m, n)
        }
        _ => (t * 4, 256, t * 4, 256),
    };
    let mut s = seed | 1;
    let mut next = |bound: usize| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % bound.max(1) as u64) as usize
    };
    // Every used row takes entries at random strides across the used
    // columns (past the hub, which shape 4 puts first in every used row);
    // shape 0 leaves its last third of rows and quarter of columns empty.
    let hub = usize::from(shape == 4);
    let spread = t.saturating_sub(hub * rows_used).max(1);
    let stride = (cols_used * rows_used / spread).max(1);
    let (mut rowptr, mut colidx) = (vec![0], Vec::new());
    for i in 0..nrows {
        if i < rows_used {
            if hub == 1 {
                colidx.push(0);
            }
            let mut j = hub + next(stride);
            while j < cols_used {
                colidx.push(j as Idx);
                j += 1 + next(2 * stride - 1);
            }
        }
        rowptr.push(colidx.len());
    }
    let values = (0..colidx.len() as i64).collect();
    Csr::try_from_parts(nrows, ncols, rowptr, colidx, values).unwrap()
}

/// Row `i`'s `k`-th entry as [`SlackRows`] is filled in the compaction
/// test: sorted columns, a value naming its row and place.
fn slack_entry(i: usize, k: usize) -> (Idx, i64) {
    ((3 * k + i % 3) as Idx, (100 * i + k) as i64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The in-place compaction equals copying every row's entries out,
    /// on rows of random room that wrote nothing, part of it, or all of it
    /// (every row full takes the tight shortcut), with the slack past
    /// each row's size written over, filled by 1, 2 and 3 threads.
    #[test]
    fn slack_rows_compact_in_place_like_a_copy(
        rooms in proptest::collection::vec(0usize..6, 0..40),
        picks in proptest::collection::vec(0usize..8, 40),
        tight in 0u8..4,
    ) {
        // One case in four fills every room.
        let sizes: Vec<usize> = (rooms.iter().zip(&picks))
            .map(|(&room, &pick)| if tight == 0 { room } else { pick.min(room) })
            .collect();
        let (nrows, ncols) = (rooms.len(), 3 * 6);
        let mut rowptr = vec![0];
        let (mut colidx, mut values) = (Vec::new(), Vec::new());
        for (i, &size) in sizes.iter().enumerate() {
            let (cols, vals): (Vec<Idx>, Vec<i64>) = (0..size).map(|k| slack_entry(i, k)).unzip();
            colidx.extend(cols);
            values.extend(vals);
            rowptr.push(colidx.len());
        }
        let want = Csr::try_from_parts(nrows, ncols, rowptr, colidx, values).unwrap();
        for threads in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let got = pool.install(|| {
                let mut out = SlackRows::new(&rooms, -1i64);
                let chunks = split_ranges(nrows, 2 * threads);
                out.windows(&chunks).par_iter_mut().for_each(|w| {
                    for (i, cols, vals, size) in w.rows_mut() {
                        cols.fill(Idx::MAX);
                        vals.fill(-2);
                        let row = cols.iter_mut().zip(vals.iter_mut()).take(sizes[i]);
                        for (k, (c, v)) in row.enumerate() {
                            (*c, *v) = slack_entry(i, k);
                        }
                        *size = sizes[i];
                    }
                });
                out.into_csr(ncols)
            });
            prop_assert!(got == want, "{threads} threads: rooms {rooms:?}, sizes {sizes:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The parallel transpose equals the sequential one on every shape,
    /// on a tiny input and on one either side of the sequential floor,
    /// under 1, 2 and 3 threads. Near the floor, shape 4's hub leaves the
    /// middle one of three entry-balanced output ranges empty, and
    /// shape 5 has more rows than entries, so it stays sequential.
    #[test]
    fn transpose_par_matches_seq(seed in 0u64..1_000_000) {
        let straddling = PAR_COUNT_MIN / 2 + seed as usize % PAR_COUNT_MIN;
        let targets = [seed as usize % 64, straddling];
        for (shape, target) in (0..6).flat_map(|shape| targets.map(|t| (shape, t))) {
            let a = shaped(shape, target, seed);
            if target == straddling {
                match shape {
                    4 => prop_assert!(col_nnz(&a)[0] * 3 > a.nnz() * 2, "hub {}", a.nnz()),
                    5 => prop_assert!(a.nrows() > a.nnz(), "tall {}", a.nnz()),
                    _ => {}
                }
            }
            let want = transpose_seq(&a);
            for threads in [1, 2, 3] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let got = pool.install(|| transpose(&a));
                prop_assert!(got == want, "shape {shape}, {} entries, {threads} threads", a.nnz());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution(a in csr_strategy(17, 23, 0.25)) {
        prop_assert_eq!(transpose(&transpose(&a)), a);
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
        let below = a.iter().filter(|&(i, j, _)| (j as usize) < i).count();
        prop_assert_eq!(l.nnz(), below);
        for (i, j, v) in l.iter() {
            prop_assert!((j as usize) < i);
            prop_assert_eq!(a.get(i, j), Some(v));
        }
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

    /// The symmetry walk answers what comparing with a built transpose
    /// answers: on random square and rectangular matrices, on their
    /// mirrored (symmetric) halves, and on those with one cell disturbed.
    #[test]
    fn symmetry_walk_equals_transpose_compare(
        a in csr_strategy(9, 9, 0.3),
        r in csr_strategy(6, 9, 0.4),
        seed in 0u64..1_000_000,
    ) {
        let d = a.to_dense();
        let mirrored: Vec<Vec<_>> = (0..9)
            .map(|i| (0..9).map(|j| d[i.min(j)][i.max(j)]).collect())
            .collect();
        let mut disturbed = mirrored.clone();
        let (i, j) = ((seed % 9) as usize, ((seed / 9) % 9) as usize);
        disturbed[i][j] = match disturbed[i][j] {
            Some(v) if seed % 2 == 0 => Some(v + 1),
            Some(_) => None,
            None => Some(3),
        };
        for m in [a, Csr::from_dense(&mirrored, 9), Csr::from_dense(&disturbed, 9), r] {
            let m = m.map(|&v| v as f64);
            walk_matches_transpose(&m)?;
        }
    }
}

/// `a == transpose(a)` with values compared by `same` — the oracle the
/// symmetry walk must agree with.
fn equals_transpose_by(a: &Csr<f64>, same: impl Fn(&f64, &f64) -> bool) -> bool {
    let t = transpose(a);
    (a.nrows(), a.ncols()) == (t.nrows(), t.ncols())
        && a.rowptr() == t.rowptr()
        && a.colidx() == t.colidx()
        && a.values().iter().zip(t.values()).all(|(x, y)| same(x, y))
}

/// `a.is_symmetric_by` against [`equals_transpose_by`] under the three
/// comparisons the workspace makes — pattern only, `==`, and bits —
/// returning the walk's verdicts in that order.
fn walk_matches_transpose(a: &Csr<f64>) -> Result<[bool; 3], TestCaseError> {
    let pattern = |_: &f64, _: &f64| true;
    let eq = |x: &f64, y: &f64| x == y;
    let bits = |x: &f64, y: &f64| x.to_bits() == y.to_bits();
    let walked = [
        a.is_symmetric_by(pattern),
        a.is_symmetric_by(eq),
        a.is_symmetric_by(bits),
    ];
    let built = [
        equals_transpose_by(a, pattern),
        equals_transpose_by(a, eq),
        equals_transpose_by(a, bits),
    ];
    prop_assert_eq!(walked, built, "{:?}", a);
    Ok(walked)
}

/// The shapes the walk's two bounds exist for, each checked against the
/// transpose oracle: the row-end bound (a one-way edge, empty rows, an
/// entry in the last column whose row is empty) and the value compare
/// (value asymmetry, `-0.0` against `0.0`).
#[test]
fn symmetry_walk_edge_cases() {
    let csr = |n: usize, m: usize, entries: &[(usize, usize, f64)]| {
        let mut d = vec![vec![None; m]; n];
        for &(i, j, v) in entries {
            d[i][j] = Some(v);
        }
        Csr::from_dense(&d, m)
    };
    let verdicts = |a: &Csr<f64>| walk_matches_transpose(a).unwrap();
    // [pattern, ==, bits]
    let one_way = csr(3, 3, &[(0, 1, 1.0)]);
    assert_eq!(verdicts(&one_way), [false; 3]);
    let last_column = csr(4, 4, &[(0, 3, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
    assert_eq!(verdicts(&last_column), [false; 3]);
    let skips_a_row = csr(3, 3, &[(0, 1, 1.0), (0, 2, 1.0), (2, 0, 1.0)]);
    assert_eq!(verdicts(&skips_a_row), [false; 3]);
    let values = csr(3, 3, &[(0, 2, 1.0), (2, 0, 2.0)]);
    assert_eq!(verdicts(&values), [true, false, false]);
    let zeros = csr(2, 2, &[(0, 1, 0.0), (1, 0, -0.0)]);
    assert_eq!(verdicts(&zeros), [true, true, false]);
    let diagonal = csr(4, 4, &[(0, 0, 5.0), (2, 2, -0.0), (3, 3, 7.0)]);
    assert_eq!(verdicts(&diagonal), [true; 3]);
    let empty_rows = csr(5, 5, &[(0, 4, 2.0), (4, 0, 2.0), (2, 2, 1.0)]);
    assert_eq!(verdicts(&empty_rows), [true; 3]);
    let corner = csr(4, 4, &[(3, 3, 1.0), (0, 3, 1.0), (3, 0, 1.0)]);
    assert_eq!(verdicts(&corner), [true; 3]);
    assert_eq!(verdicts(&Csr::empty(0, 0)), [true; 3]);
    assert_eq!(verdicts(&Csr::empty(3, 3)), [true; 3]);
    assert_eq!(verdicts(&Csr::empty(2, 3)), [false; 3]);
    assert_eq!(verdicts(&csr(1, 2, &[(0, 0, 1.0)])), [false; 3]);
}
