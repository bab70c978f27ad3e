//! Correctness of every Masked SpGEMM variant against a dense reference:
//! all 6 algorithms × {1P, 2P} × {mask, complement} (minus MCA×complement,
//! which the paper excludes), across semirings, shapes, and thread counts.

use masked_spgemm::baseline;
use masked_spgemm::{masked_mxm_with_opts, Algorithm, ExecOpts, MaskMode, Phases};
use mspgemm_harness::csr_fingerprint;
use mspgemm_sparse::semiring::{PlusPairU64, PlusTimesI64, Semiring};
use mspgemm_sparse::{Csr, Idx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dense reference for `M ⊙ (A·B)` / `¬M ⊙ (A·B)` (structural semantics:
/// an entry exists iff ≥1 product contributed and the mask admits it).
#[allow(clippy::needless_range_loop)] // dense reference reads clearer with indices
fn reference<S: Semiring>(
    mask: &Csr<()>,
    a: &Csr<S::Left>,
    b: &Csr<S::Right>,
    complement: bool,
) -> Csr<S::Out> {
    let (m, n) = (a.nrows(), b.ncols());
    let mut acc: Vec<Vec<Option<S::Out>>> = vec![vec![None; n]; m];
    for i in 0..m {
        let (ac, av) = a.row(i);
        for (&k, &avv) in ac.iter().zip(av) {
            let (bc, bv) = b.row(k as usize);
            for (&j, &bvv) in bc.iter().zip(bv) {
                let p = S::mul(avv, bvv);
                let cell = &mut acc[i][j as usize];
                *cell = Some(match *cell {
                    None => p,
                    Some(s) => S::add(s, p),
                });
            }
        }
    }
    for i in 0..m {
        for j in 0..n {
            let in_mask = mask.get(i, j as Idx).is_some();
            if in_mask == complement {
                acc[i][j] = None;
            }
        }
    }
    Csr::from_dense(&acc, n)
}

fn random_csr(nrows: usize, ncols: usize, density: f64, rng: &mut StdRng) -> Csr<i64> {
    let d: Vec<Vec<Option<i64>>> = (0..nrows)
        .map(|_| {
            (0..ncols)
                .map(|_| (rng.gen::<f64>() < density).then(|| rng.gen_range(-4i64..=4)))
                .collect()
        })
        .collect();
    Csr::from_dense(&d, ncols)
}

fn all_variants() -> Vec<(Algorithm, MaskMode, Phases)> {
    let mut v = Vec::new();
    for algo in Algorithm::ALL {
        for mode in [MaskMode::Mask, MaskMode::Complement] {
            if mode == MaskMode::Complement && !algo.supports_complement() {
                continue;
            }
            for phases in [Phases::One, Phases::Two] {
                v.push((algo, mode, phases));
            }
        }
    }
    v
}

/// `mask`'s pattern with real values — `0.0`, `-0.0` and `NaN` in turn —
/// none of which a structural mask may read.
fn valued(mask: &Csr<()>) -> Csr<f64> {
    const VALUES: [f64; 3] = [0.0, -0.0, f64::NAN];
    let mut k = 0;
    mask.map(|_| {
        k += 1;
        VALUES[k % VALUES.len()]
    })
}

/// Every variant of `mode(mask) ⊙ (a·b)` against the dense reference, and
/// the same product under `valued` — `mask` as a `Csr<f64>` — equal to it
/// by fingerprint.
fn check_all(mask: &Csr<()>, valued: &Csr<f64>, a: &Csr<i64>, b: &Csr<i64>, label: &str) {
    assert_eq!(&valued.pattern(), mask, "{label}: one pattern");
    let fingerprint = |c: &Csr<i64>| csr_fingerprint(&c.map(|&v| v as f64));
    for (algo, mode, phases) in all_variants() {
        let want = reference::<PlusTimesI64>(mask, a, b, mode == MaskMode::Complement);
        let opts = ExecOpts::default();
        let got = masked_mxm_with_opts::<PlusTimesI64, ()>(mask, a, b, algo, mode, phases, &opts)
            .unwrap_or_else(|e| panic!("{label}: {algo:?}/{mode:?}/{phases:?} errored: {e}"));
        assert_eq!(
            got, want,
            "{label}: {algo:?}/{mode:?}/{phases:?} diverges from dense reference"
        );
        let by_values =
            masked_mxm_with_opts::<PlusTimesI64, f64>(valued, a, b, algo, mode, phases, &opts)
                .unwrap();
        assert_eq!(
            fingerprint(&by_values),
            fingerprint(&got),
            "{label}: {algo:?}/{mode:?}/{phases:?} reads the mask's values"
        );
    }
}

#[test]
fn tiny_handcrafted_case() {
    // The Fig 1-style example: mask admits some coordinates the product
    // never produces, and the product has entries the mask rejects.
    let a = Csr::from_dense(
        &[
            vec![Some(1), Some(2), None],
            vec![None, Some(3), Some(1)],
            vec![Some(1), None, Some(2)],
        ],
        3,
    );
    let b = Csr::from_dense(
        &[
            vec![Some(1), None, Some(1)],
            vec![None, Some(2), Some(1)],
            vec![Some(1), Some(1), None],
        ],
        3,
    );
    let mask = Csr::from_dense(
        &[
            vec![Some(()), Some(()), None],
            vec![Some(()), None, Some(())],
            vec![None, Some(()), Some(())],
        ],
        3,
    );
    check_all(&mask, &valued(&mask), &a, &b, "tiny");
}

#[test]
fn empty_mask_yields_empty_output() {
    let mut rng = StdRng::seed_from_u64(1);
    let a = random_csr(10, 10, 0.4, &mut rng);
    let mask = Csr::<()>::empty(10, 10);
    for (algo, _, phases) in all_variants()
        .into_iter()
        .filter(|(_, m, _)| *m == MaskMode::Mask)
    {
        let c = masked_mxm_with_opts::<PlusTimesI64, ()>(
            &mask,
            &a,
            &a,
            algo,
            MaskMode::Mask,
            phases,
            &ExecOpts::default(),
        )
        .unwrap();
        assert_eq!(c.nnz(), 0, "{algo:?}");
    }
}

#[test]
fn empty_mask_complement_is_full_product() {
    let mut rng = StdRng::seed_from_u64(2);
    let a = random_csr(12, 12, 0.3, &mut rng);
    let mask = Csr::<()>::empty(12, 12);
    let want = baseline::spgemm::<PlusTimesI64>(&a, &a);
    for algo in [
        Algorithm::Msa,
        Algorithm::Hash,
        Algorithm::Heap,
        Algorithm::HeapDot,
        Algorithm::Inner,
    ] {
        for phases in [Phases::One, Phases::Two] {
            let c = masked_mxm_with_opts::<PlusTimesI64, ()>(
                &mask,
                &a,
                &a,
                algo,
                MaskMode::Complement,
                phases,
                &ExecOpts::default(),
            )
            .unwrap();
            assert_eq!(c, want, "{algo:?}/{phases:?}");
        }
    }
}

#[test]
fn full_mask_equals_unmasked_product() {
    let mut rng = StdRng::seed_from_u64(3);
    let a = random_csr(15, 15, 0.3, &mut rng);
    let full: Vec<Vec<Option<()>>> = vec![vec![Some(()); 15]; 15];
    let mask = Csr::from_dense(&full, 15);
    let want = baseline::spgemm::<PlusTimesI64>(&a, &a);
    for (algo, _, phases) in all_variants()
        .into_iter()
        .filter(|(_, m, _)| *m == MaskMode::Mask)
    {
        let c = masked_mxm_with_opts::<PlusTimesI64, ()>(
            &mask,
            &a,
            &a,
            algo,
            MaskMode::Mask,
            phases,
            &ExecOpts::default(),
        )
        .unwrap();
        assert_eq!(c, want, "{algo:?}/{phases:?}");
    }
}

#[test]
fn random_square_sweep() {
    let mut rng = StdRng::seed_from_u64(42);
    for (n, da, dm) in [
        (8usize, 0.5, 0.5),
        (20, 0.2, 0.1),
        (20, 0.05, 0.6),
        (33, 0.3, 0.05),
        (40, 0.02, 0.02),
    ] {
        let a = random_csr(n, n, da, &mut rng);
        let b = random_csr(n, n, da, &mut rng);
        let mask = random_csr(n, n, dm, &mut rng).pattern();
        let label = format!("square n={n} da={da} dm={dm}");
        check_all(&mask, &valued(&mask), &a, &b, &label);
    }
}

#[test]
fn random_rectangular_sweep() {
    let mut rng = StdRng::seed_from_u64(7);
    for (m, k, n) in [
        (5usize, 9usize, 13usize),
        (13, 5, 9),
        (9, 13, 5),
        (1, 7, 7),
        (7, 1, 7),
        (7, 7, 1),
    ] {
        let a = random_csr(m, k, 0.35, &mut rng);
        let b = random_csr(k, n, 0.35, &mut rng);
        let mask = random_csr(m, n, 0.4, &mut rng).pattern();
        check_all(&mask, &valued(&mask), &a, &b, &format!("rect {m}x{k}x{n}"));
    }
}

#[test]
fn structural_zeros_are_kept() {
    // +1 and -1 products cancel numerically; GraphBLAS structural
    // semantics keep the explicit zero.
    let a = Csr::from_dense(&[vec![Some(1i64), Some(1)]], 2);
    let b = Csr::from_dense(&[vec![Some(1i64)], vec![Some(-1)]], 1);
    let mask = Csr::from_dense(&[vec![Some(())]], 1);
    for (algo, _, phases) in all_variants()
        .into_iter()
        .filter(|(_, m, _)| *m == MaskMode::Mask)
    {
        let c = masked_mxm_with_opts::<PlusTimesI64, ()>(
            &mask,
            &a,
            &b,
            algo,
            MaskMode::Mask,
            phases,
            &ExecOpts::default(),
        )
        .unwrap();
        assert_eq!(
            c.nnz(),
            1,
            "{algo:?}/{phases:?} must keep the structural zero"
        );
        assert_eq!(c.get(0, 0), Some(&0));
    }
}

#[test]
fn plus_pair_semiring_counts_structural_hits() {
    // plus_pair over patterns: each output value = |pattern intersection|.
    let mut rng = StdRng::seed_from_u64(11);
    let a = random_csr(18, 18, 0.3, &mut rng).pattern();
    let mask = random_csr(18, 18, 0.5, &mut rng).pattern();
    let want = reference::<PlusPairU64>(&mask, &a, &a, false);
    for algo in Algorithm::ALL {
        let got = masked_mxm_with_opts::<PlusPairU64, ()>(
            &mask,
            &a,
            &a,
            algo,
            MaskMode::Mask,
            Phases::One,
            &ExecOpts::default(),
        )
        .unwrap();
        assert_eq!(got, want, "{algo:?}");
    }
}

#[test]
fn results_independent_of_thread_count() {
    let mut rng = StdRng::seed_from_u64(13);
    let a = random_csr(60, 60, 0.15, &mut rng);
    let mask = random_csr(60, 60, 0.2, &mut rng).pattern();
    let baseline: Vec<Csr<i64>> = all_variants()
        .iter()
        .map(|&(algo, mode, phases)| {
            masked_mxm_with_opts::<PlusTimesI64, ()>(
                &mask,
                &a,
                &a,
                algo,
                mode,
                phases,
                &ExecOpts::default(),
            )
            .unwrap()
        })
        .collect();
    for threads in [1usize, 2, 7] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for (&(algo, mode, phases), want) in all_variants().iter().zip(&baseline) {
                let got = masked_mxm_with_opts::<PlusTimesI64, ()>(
                    &mask,
                    &a,
                    &a,
                    algo,
                    mode,
                    phases,
                    &ExecOpts::default(),
                )
                .unwrap();
                assert_eq!(
                    &got, want,
                    "{algo:?}/{mode:?}/{phases:?} with {threads} threads"
                );
            }
        });
    }
}

#[test]
fn auto_matches_explicit_algorithms() {
    let mut rng = StdRng::seed_from_u64(17);
    for (da, dm) in [(0.4, 0.02), (0.02, 0.5), (0.2, 0.2)] {
        let a = random_csr(30, 30, da, &mut rng);
        let mask = random_csr(30, 30, dm, &mut rng).pattern();
        let want = reference::<PlusTimesI64>(&mask, &a, &a, false);
        let got = masked_mxm_with_opts::<PlusTimesI64, ()>(
            &mask,
            &a,
            &a,
            Algorithm::Auto,
            MaskMode::Mask,
            Phases::One,
            &ExecOpts::default(),
        )
        .unwrap();
        assert_eq!(got, want, "Auto da={da} dm={dm}");
    }
}

#[test]
fn baselines_match_reference() {
    let mut rng = StdRng::seed_from_u64(19);
    let a = random_csr(25, 25, 0.25, &mut rng);
    let b = random_csr(25, 25, 0.25, &mut rng);
    let mask = random_csr(25, 25, 0.3, &mut rng).pattern();
    for mode in [MaskMode::Mask, MaskMode::Complement] {
        let want = reference::<PlusTimesI64>(&mask, &a, &b, mode == MaskMode::Complement);
        assert_eq!(
            baseline::spgemm_then_mask::<PlusTimesI64>(&mask, &a, &b, mode),
            want
        );
        assert_eq!(
            baseline::ss_saxpy_like::<PlusTimesI64, ()>(&mask, &a, &b, mode),
            want
        );
    }
    for mode in [MaskMode::Mask, MaskMode::Complement] {
        let want = reference::<PlusTimesI64>(&mask, &a, &b, mode == MaskMode::Complement);
        assert_eq!(
            baseline::ss_dot_like::<PlusTimesI64, ()>(&mask, &a, &b, mode),
            want
        );
    }
}

#[test]
fn a_supplied_bt_matches() {
    let mut rng = StdRng::seed_from_u64(23);
    let a = random_csr(20, 14, 0.3, &mut rng);
    let b = random_csr(14, 17, 0.3, &mut rng);
    let mask = random_csr(20, 17, 0.4, &mut rng).pattern();
    let bt = mspgemm_sparse::transpose(&b);
    for mode in [MaskMode::Mask, MaskMode::Complement] {
        let want = reference::<PlusTimesI64>(&mask, &a, &b, mode == MaskMode::Complement);
        for phases in [Phases::One, Phases::Two] {
            let p = masked_spgemm::Product::new(&mask, &a, &b, Some(&bt))
                .with_mode(mode)
                .with_phases(phases);
            let opts = ExecOpts::default();
            let (via_bt, _) =
                masked_spgemm::masked_mxm::<PlusTimesI64>(&p, Algorithm::Inner, &opts).unwrap();
            assert_eq!(via_bt, want, "{mode:?} {phases:?}");
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)]
fn skewed_rows_one_dense_row() {
    // One hub row (all columns) among empty ones: stresses bounds and the
    // heap with many cursors.
    let n = 32;
    let mut d: Vec<Vec<Option<i64>>> = vec![vec![None; n]; n];
    for j in 0..n {
        d[0][j] = Some(1);
        d[j][0] = Some(2);
    }
    let a = Csr::from_dense(&d, n);
    let mut rng = StdRng::seed_from_u64(29);
    let mask = random_csr(n, n, 0.3, &mut rng).pattern();
    check_all(&mask, &valued(&mask), &a, &a, "hub");
}
