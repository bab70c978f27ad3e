//! Criterion microbenchmarks for the end-to-end masked SpGEMM kernels on
//! a fixed ER workload — quick per-algorithm regressions tracking.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use masked_spgemm::{masked_mxm_with_opts, Algorithm, ExecOpts, MaskMode, Phases};
use mspgemm_gen::{er, er_pattern};
use mspgemm_sparse::semiring::PlusTimesF64;

fn bench_kernels(c: &mut Criterion) {
    let n = 1usize << 12;
    let a = er(n, n, 16, 1);
    let b = er(n, n, 16, 2);
    let mask = er_pattern(n, n, 16, 3);

    let mut group = c.benchmark_group("masked_mxm_4k_d16");
    group.sample_size(20);
    for algo in Algorithm::ALL {
        group.bench_with_input(
            BenchmarkId::new(algo.name(), "1P"),
            &algo,
            |bench, &algo| {
                bench.iter(|| {
                    black_box(
                        masked_mxm_with_opts::<PlusTimesF64, ()>(
                            &mask,
                            &a,
                            &b,
                            algo,
                            MaskMode::Mask,
                            Phases::One,
                            &ExecOpts::default(),
                        )
                        .unwrap(),
                    )
                });
            },
        );
    }
    // Complement variants (MCA excluded per the paper).
    for algo in [Algorithm::Msa, Algorithm::Hash] {
        group.bench_with_input(
            BenchmarkId::new(algo.name(), "1P-compl"),
            &algo,
            |bench, &algo| {
                bench.iter(|| {
                    black_box(
                        masked_mxm_with_opts::<PlusTimesF64, ()>(
                            &mask,
                            &a,
                            &b,
                            algo,
                            MaskMode::Complement,
                            Phases::One,
                            &ExecOpts::default(),
                        )
                        .unwrap(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
