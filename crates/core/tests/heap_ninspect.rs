//! Cross-checks the three Heap `NInspect` configurations (0, 1, ∞) on the
//! same inputs: all must produce identical output (they only differ in
//! when cursors are admitted to the heap).

use masked_spgemm::algos::heap::{HeapKernel, INSPECT_FULL};
use masked_spgemm::phases::{run_kernel, Phases};
use masked_spgemm::ExecOpts;
use mspgemm_sparse::semiring::PlusTimesI64;
use mspgemm_sparse::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_csr(n: usize, density: f64, rng: &mut StdRng) -> Csr<i64> {
    let d: Vec<Vec<Option<i64>>> = (0..n)
        .map(|_| {
            (0..n)
                .map(|_| (rng.gen::<f64>() < density).then(|| rng.gen_range(1i64..=3)))
                .collect()
        })
        .collect();
    Csr::from_dense(&d, n)
}

#[test]
fn ninspect_variants_agree_small_exhaustive() {
    let mut rng = StdRng::seed_from_u64(99);
    for case in 0..200 {
        let n = 3 + (case % 10);
        let a = random_csr(n, 0.3, &mut rng);
        let b = random_csr(n, 0.3, &mut rng);
        let mask = random_csr(n, 0.3, &mut rng).pattern();
        let outs: Vec<Csr<i64>> = [0u32, 1, INSPECT_FULL]
            .iter()
            .map(|&ni| {
                let kernel = HeapKernel {
                    n_inspect: ni,
                    complement: false,
                };
                let opts = ExecOpts::default();
                run_kernel::<PlusTimesI64, _, ()>(
                    &mask,
                    &a,
                    &b,
                    false,
                    Phases::One,
                    &kernel,
                    None,
                    &opts,
                )
                .unwrap()
            })
            .collect();
        assert_eq!(
            outs[0], outs[1],
            "case {case}: ninspect 0 vs 1\nmask={mask:?}\na={a:?}\nb={b:?}"
        );
        assert_eq!(
            outs[1], outs[2],
            "case {case}: ninspect 1 vs inf\nmask={mask:?}\na={a:?}\nb={b:?}"
        );
    }
}
