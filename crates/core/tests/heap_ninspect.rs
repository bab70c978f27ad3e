//! The Heap kernel's `NInspect` configurations (0, 1, ∞) against MSA on
//! random f64 inputs, by bits: they differ only in when cursors enter the
//! merge, and the merge pops a column's products in `A`-row order — the
//! order MSA sums them in. Values span several magnitudes, so a sum taken
//! in any other order shows in the fingerprint.

use masked_spgemm::algos::heap::HeapKernel;
use masked_spgemm::algos::msa::MsaKernel;
use masked_spgemm::phases::{run_kernel, Phases, RowKernel};
use masked_spgemm::{ExecOpts, MaskMode, Product};
use mspgemm_harness::csr_fingerprint;
use mspgemm_sparse::semiring::PlusTimesF64;
use mspgemm_sparse::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random `nrows × ncols` matrix at `density`, with row `empty` holding
/// nothing and row `dense` every column (either may be out of range).
fn random_csr(
    nrows: usize,
    ncols: usize,
    density: f64,
    empty: usize,
    dense: usize,
    rng: &mut StdRng,
) -> Csr<f64> {
    let d: Vec<Vec<Option<f64>>> = (0..nrows)
        .map(|i| {
            (0..ncols)
                .map(|_| {
                    let keep = i == dense || (i != empty && rng.gen::<f64>() < density);
                    let value = (rng.gen::<f64>() - 0.4) * 10f64.powi(rng.gen_range(-3..4));
                    keep.then_some(value)
                })
                .collect()
        })
        .collect();
    Csr::from_dense(&d, ncols)
}

fn product<K: RowKernel<PlusTimesF64>>(
    mask: &Csr<()>,
    a: &Csr<f64>,
    b: &Csr<f64>,
    complement: bool,
    phases: Phases,
    kernel: &K,
) -> Csr<f64> {
    let mode = match complement {
        true => MaskMode::Complement,
        false => MaskMode::Mask,
    };
    let p = Product::new(mask, a, b, None)
        .with_mode(mode)
        .with_phases(phases);
    run_kernel::<PlusTimesF64, _>(&p, kernel, None, &ExecOpts::default()).unwrap()
}

/// The plain merge (`NInspect` 0), Heap (1) and HeapDot (∞) × normal /
/// complement × 1P / 2P, each against MSA by `csr_fingerprint`. Under a
/// complemented mask all three run `NInspect` 0 (§5.5).
fn assert_heaps_match_msa(mask: &Csr<()>, a: &Csr<f64>, b: &Csr<f64>, case: &str) {
    for complement in [false, true] {
        for phases in [Phases::One, Phases::Two] {
            let msa = product(mask, a, b, complement, phases, &MsaKernel { complement });
            let heaps = [
                (
                    "NInspect 0",
                    HeapKernel {
                        n_inspect: 0,
                        complement,
                    },
                ),
                ("Heap", HeapKernel::heap(complement)),
                ("HeapDot", HeapKernel::heap_dot(complement)),
            ];
            for (name, kernel) in heaps {
                let c = product(mask, a, b, complement, phases, &kernel);
                assert_eq!(
                    csr_fingerprint(&c),
                    csr_fingerprint(&msa),
                    "{case}: {name}, complement {complement}, {phases:?}\nheap={c:?}\nmsa={msa:?}"
                );
            }
        }
    }
}

#[test]
fn ninspect_variants_equal_msa_small_exhaustive() {
    let mut rng = StdRng::seed_from_u64(99);
    for case in 0..200 {
        let n = 3 + (case % 10);
        let a = random_csr(n, n, 0.3, n, n, &mut rng);
        let b = random_csr(n, n, 0.3, n, n, &mut rng);
        let mask = random_csr(n, n, 0.3, n, n, &mut rng).pattern();
        assert_heaps_match_msa(&mask, &a, &b, &format!("case {case}"));
    }
}

#[test]
fn ninspect_variants_equal_msa_with_empty_and_dense_rows() {
    let mut rng = StdRng::seed_from_u64(7);
    // Rectangular shapes, so `A`'s columns, `B`'s rows and the mask's
    // columns differ in length; every operand has an empty and an
    // all-dense row, and the dense `A` row merges every `B` row.
    for (case, (m, k, n)) in [(40, 33, 57), (64, 64, 64), (17, 90, 25)]
        .into_iter()
        .enumerate()
    {
        let a = random_csr(m, k, 0.12, 1, 5, &mut rng);
        let b = random_csr(k, n, 0.12, 2, 3, &mut rng);
        let mask = random_csr(m, n, 0.3, 5, 0, &mut rng).pattern();
        assert_heaps_match_msa(&mask, &a, &b, &format!("shape {case}"));
    }
}
