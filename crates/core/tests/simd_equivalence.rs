//! Property-based tests for the SIMD dispatch tiers: for arbitrary
//! sparse matrices, capping the kernel at any instruction-set level must
//! produce a CSR identical to the scalar path — vectorized probe
//! clusters and state gathers are implementation details, never
//! observable in results.
//!
//! The level cap is process-global, so every test body serializes on one
//! mutex and restores the cap through a drop guard (a failing assertion
//! must not leak a cap into a sibling test).

use masked_spgemm::accumulator::hash::HashAccum;
use masked_spgemm::accumulator::msa::Msa;
use masked_spgemm::accumulator::Accumulator;
use masked_spgemm::simd::{detected_level, set_level_cap, SimdLevel};
use masked_spgemm::{masked_mxm, Algorithm, MaskMode, Phases};
use mspgemm_sparse::semiring::PlusTimesF64;
use mspgemm_sparse::{Csr, Idx};
use proptest::prelude::*;
use std::sync::Mutex;

static CAP_LOCK: Mutex<()> = Mutex::new(());

/// Holds the cap lock and clears the cap again on drop (also on panic).
struct CapGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl<'a> CapGuard<'a> {
    fn new() -> Self {
        CapGuard(CAP_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn cap(&self, level: SimdLevel) {
        set_level_cap(Some(level));
    }
}

impl Drop for CapGuard<'_> {
    fn drop(&mut self) {
        set_level_cap(None);
    }
}

/// Strategy: an `n × n` matrix as a dense option grid with small
/// integral values (exactly representable, so f64 sums are exact and
/// CSR equality is meaningful bit-for-bit).
fn csr_strategy(n: usize, fill: f64) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec(
        proptest::collection::vec(
            proptest::option::weighted(fill, (-3i8..=3).prop_map(f64::from)),
            n,
        ),
        n,
    )
    .prop_map(move |d| Csr::from_dense(&d, n))
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn row_entry_matches_per_product_reference_at_every_level(
        // Every row of `b` is one scaled B row; sevenths make the sums
        // inexact, so a reordered accumulation would change the bits.
        b in csr_strategy(24, 0.4),
        mask in csr_strategy(24, 0.3),
    ) {
        let guard = CapGuard::new();
        for which in [RowEntry::Msa, RowEntry::MsaComplement, RowEntry::Hash] {
            for i in [0, 1] {
                let mask_row = mask.row_cols(i);
                guard.cap(SimdLevel::Scalar);
                let want = accumulate_one_row(which, false, mask_row, &b);
                for level in SimdLevel::ALL {
                    if level > detected_level() {
                        continue;
                    }
                    guard.cap(level);
                    let got = accumulate_one_row(which, true, mask_row, &b);
                    prop_assert_eq!(&got, &want, "{:?} at {}", which, level.name());
                }
            }
        }
    }

    #[test]
    fn every_simd_level_matches_scalar(
        a in csr_strategy(20, 0.35),
        b in csr_strategy(20, 0.35),
        mask in csr_strategy(20, 0.45),
    ) {
        let mask = mask.pattern();
        let guard = CapGuard::new();
        for algo in [Algorithm::Hash, Algorithm::Msa] {
            for mode in [MaskMode::Mask, MaskMode::Complement] {
                for phases in [Phases::One, Phases::Two] {
                    guard.cap(SimdLevel::Scalar);
                    let want =
                        masked_mxm::<PlusTimesF64, ()>(&mask, &a, &b, algo, mode, phases).unwrap();
                    for level in SimdLevel::ALL {
                        if level == SimdLevel::Scalar || level > detected_level() {
                            continue;
                        }
                        guard.cap(level);
                        let got =
                            masked_mxm::<PlusTimesF64, ()>(&mask, &a, &b, algo, mode, phases)
                                .unwrap();
                        prop_assert_eq!(
                            &got, &want,
                            "{:?}/{:?}/{:?} at {}", algo, mode, phases, level.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn simd_levels_agree_on_dense_hub_rows(
        // One dense row (a hub) forces long hash-probe clusters and full
        // MSA state scans — the loops the SIMD tiers actually rewrite.
        cols in proptest::collection::vec(proptest::option::weighted(0.9, 1i8..=3), 24),
        a in csr_strategy(24, 0.25),
    ) {
        let n = 24;
        let mut dense: Vec<Vec<Option<f64>>> = vec![vec![None; n]; n];
        for (j, v) in cols.iter().enumerate() {
            dense[0][j] = v.map(f64::from);
            dense[j][0] = v.map(f64::from);
        }
        let hub = Csr::from_dense(&dense, n);
        let mask = a.pattern();
        let guard = CapGuard::new();
        for algo in [Algorithm::Hash, Algorithm::Msa] {
            guard.cap(SimdLevel::Scalar);
            let want = masked_mxm::<PlusTimesF64, ()>(
                &mask, &hub, &a, algo, MaskMode::Mask, Phases::One,
            )
            .unwrap();
            for level in SimdLevel::ALL {
                if level == SimdLevel::Scalar || level > detected_level() {
                    continue;
                }
                guard.cap(level);
                let got = masked_mxm::<PlusTimesF64, ()>(
                    &mask, &hub, &a, algo, MaskMode::Mask, Phases::One,
                )
                .unwrap();
                prop_assert_eq!(&got, &want, "{:?} at {}", algo, level.name());
            }
        }
    }
}
