//! Property-based tests: for *arbitrary* sparse matrices, every algorithm
//! variant must agree with a dense reference, the phase strategies must
//! agree with each other, and the accumulators' numeric row entry must
//! agree with the per-product reference insert.

use masked_spgemm::accumulator::hash::HashAccum;
use masked_spgemm::accumulator::msa::Msa;
use masked_spgemm::accumulator::Accumulator;
use masked_spgemm::{masked_mxm_with_opts, Algorithm, ExecOpts, MaskMode, Phases};
use mspgemm_sparse::semiring::{PlusTimesI64, Semiring};
use mspgemm_sparse::{Csr, Idx};
use proptest::prelude::*;

/// Strategy: an `nrows × ncols` matrix as a dense option grid with the
/// given fill probability.
fn csr_strategy(nrows: usize, ncols: usize, fill: f64) -> impl Strategy<Value = Csr<i64>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::option::weighted(fill, -3i64..=3), ncols),
        nrows,
    )
    .prop_map(move |d| Csr::from_dense(&d, ncols))
}

#[allow(clippy::needless_range_loop)] // dense reference reads clearer with indices
fn reference(mask: &Csr<()>, a: &Csr<i64>, b: &Csr<i64>, complement: bool) -> Csr<i64> {
    let (m, n) = (a.nrows(), b.ncols());
    let mut acc: Vec<Vec<Option<i64>>> = vec![vec![None; n]; m];
    for i in 0..m {
        let (ac, av) = a.row(i);
        for (&k, &avv) in ac.iter().zip(av) {
            let (bc, bv) = b.row(k as usize);
            for (&j, &bvv) in bc.iter().zip(bv) {
                let p = PlusTimesI64::mul(avv, bvv);
                let cell = &mut acc[i][j as usize];
                *cell = Some(cell.unwrap_or(0) + p);
            }
        }
    }
    for (i, row) in acc.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            if (mask.get(i, j as Idx).is_some()) == complement {
                *cell = None;
            }
        }
    }
    Csr::from_dense(&acc, n)
}

/// The three accumulator configurations whose numeric loop filters, then
/// accumulates.
#[derive(Clone, Copy, Debug)]
enum RowEntry {
    Msa,
    MsaComplement,
    Hash,
}

/// One output row `mask ⊙ Σ_k b_k` (or its complement), with the B rows
/// driven either through the two-stage loop or — the §5.1 reference — one
/// product at a time through `Accumulator::insert_with`. Returns the
/// gathered columns and the value bits.
fn accumulate_one_row(
    which: RowEntry,
    by_row: bool,
    mask: &[Idx],
    b: &Csr<f64>,
) -> (Vec<Idx>, Vec<u64>) {
    fn drive<A: Accumulator<f64>>(
        acc: &mut A,
        b: &Csr<f64>,
        row_entry: Option<impl Fn(&mut A, &[Idx], &[f64])>,
    ) {
        for k in 0..b.nrows() {
            let (cols, vals) = (b.row_cols(k), b.row_vals(k));
            match &row_entry {
                Some(entry) => entry(acc, cols, vals),
                None => {
                    for (&j, &v) in cols.iter().zip(vals) {
                        acc.insert_with(j, || v / 7.0, |x, y| x + y);
                    }
                }
            }
        }
    }
    let n = b.ncols();
    let (mut cols, mut vals) = (vec![0 as Idx; n], vec![0f64; n]);
    let len = match which {
        RowEntry::Msa | RowEntry::MsaComplement => {
            let complement = matches!(which, RowEntry::MsaComplement);
            let mut acc = if complement {
                Msa::new_complement(n)
            } else {
                Msa::new(n)
            };
            acc.begin_row();
            acc.load_mask(mask);
            let entry = |a: &mut Msa<f64>, c: &[Idx], v: &[f64]| {
                a.accumulate_row(c, v, |x| x / 7.0, |x, y| x + y)
            };
            drive(&mut acc, b, by_row.then_some(entry));
            if complement {
                acc.gather_complement_into(mask, &mut cols, &mut vals)
            } else {
                acc.gather_into(mask, &mut cols, &mut vals)
            }
        }
        RowEntry::Hash => {
            let mut acc = HashAccum::new();
            acc.begin_row(mask.len());
            for &j in mask {
                acc.mark_allowed(j);
            }
            let entry = |a: &mut HashAccum<f64>, c: &[Idx], v: &[f64]| {
                a.accumulate_row(c, v, |x| x / 7.0, |x, y| x + y)
            };
            drive(&mut acc, b, by_row.then_some(entry));
            acc.gather_into(mask, &mut cols, &mut vals)
        }
    };
    cols.truncate(len);
    (cols, vals[..len].iter().map(|v| v.to_bits()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn row_entry_matches_per_product_reference(
        // Every row of `b` is one scaled B row; sevenths make the sums
        // inexact, so a reordered accumulation would change the bits.
        b in csr_strategy(24, 24, 0.4),
        mask in csr_strategy(24, 24, 0.3),
    ) {
        let b = b.map(|&v| v as f64);
        for which in [RowEntry::Msa, RowEntry::MsaComplement, RowEntry::Hash] {
            for i in [0, 1] {
                let mask_row = mask.row_cols(i);
                let want = accumulate_one_row(which, false, mask_row, &b);
                let got = accumulate_one_row(which, true, mask_row, &b);
                prop_assert_eq!(&got, &want, "{:?}", which);
            }
        }
    }

    #[test]
    fn every_algorithm_matches_reference_square(
        a in csr_strategy(12, 12, 0.3),
        b in csr_strategy(12, 12, 0.3),
        mask in csr_strategy(12, 12, 0.4),
    ) {
        let mask = mask.pattern();
        for algo in Algorithm::ALL {
            for mode in [MaskMode::Mask, MaskMode::Complement] {
                if mode == MaskMode::Complement && !algo.supports_complement() {
                    continue;
                }
                for phases in [Phases::One, Phases::Two] {
                    let want = reference(&mask, &a, &b, mode == MaskMode::Complement);
                    let got = masked_mxm_with_opts::<PlusTimesI64, ()>(&mask, &a, &b, algo, mode, phases, &ExecOpts::default()).unwrap();
                    prop_assert_eq!(&got, &want, "{:?}/{:?}/{:?}", algo, mode, phases);
                }
            }
        }
    }

    #[test]
    fn one_phase_equals_two_phase(
        a in csr_strategy(16, 10, 0.25),
        b in csr_strategy(10, 14, 0.25),
        mask in csr_strategy(16, 14, 0.35),
    ) {
        let mask = mask.pattern();
        for algo in Algorithm::ALL {
            let one = masked_mxm_with_opts::<PlusTimesI64, ()>(&mask, &a, &b, algo, MaskMode::Mask, Phases::One, &ExecOpts::default()).unwrap();
            let two = masked_mxm_with_opts::<PlusTimesI64, ()>(&mask, &a, &b, algo, MaskMode::Mask, Phases::Two, &ExecOpts::default()).unwrap();
            prop_assert_eq!(&one, &two, "{:?}", algo);
        }
    }

    #[test]
    fn output_pattern_subset_of_mask(
        a in csr_strategy(10, 10, 0.4),
        mask in csr_strategy(10, 10, 0.3),
    ) {
        let mask = mask.pattern();
        let c = masked_mxm_with_opts::<PlusTimesI64, ()>(&mask, &a, &a, Algorithm::Msa, MaskMode::Mask, Phases::One, &ExecOpts::default()).unwrap();
        for (i, j, _) in c.iter() {
            prop_assert!(mask.get(i, j).is_some(), "({},{}) escaped the mask", i, j);
        }
        let cc = masked_mxm_with_opts::<PlusTimesI64, ()>(&mask, &a, &a, Algorithm::Msa, MaskMode::Complement, Phases::One, &ExecOpts::default()).unwrap();
        for (i, j, _) in cc.iter() {
            prop_assert!(mask.get(i, j).is_none(), "({},{}) violated the complement", i, j);
        }
    }

    #[test]
    fn output_rows_sorted_and_unique(
        a in csr_strategy(14, 14, 0.35),
        mask in csr_strategy(14, 14, 0.5),
    ) {
        let mask = mask.pattern();
        for algo in Algorithm::ALL {
            let c = masked_mxm_with_opts::<PlusTimesI64, ()>(&mask, &a, &a, algo, MaskMode::Mask, Phases::One, &ExecOpts::default()).unwrap();
            for i in 0..c.nrows() {
                let cols = c.row_cols(i);
                prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "{:?} row {} unsorted", algo, i);
            }
        }
    }

    #[test]
    fn mask_and_complement_partition_product(
        a in csr_strategy(12, 12, 0.3),
        mask in csr_strategy(12, 12, 0.4),
    ) {
        // nnz(M⊙AB) + nnz(¬M⊙AB) == nnz(AB)
        let mask = mask.pattern();
        let full = masked_spgemm::baseline::spgemm::<PlusTimesI64>(&a, &a);
        let kept = masked_mxm_with_opts::<PlusTimesI64, ()>(&mask, &a, &a, Algorithm::Hash, MaskMode::Mask, Phases::Two, &ExecOpts::default()).unwrap();
        let dropped = masked_mxm_with_opts::<PlusTimesI64, ()>(&mask, &a, &a, Algorithm::Hash, MaskMode::Complement, Phases::Two, &ExecOpts::default()).unwrap();
        prop_assert_eq!(kept.nnz() + dropped.nnz(), full.nnz());
    }
}
