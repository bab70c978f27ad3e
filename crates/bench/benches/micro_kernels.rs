//! Microbenchmarks for the end-to-end masked SpGEMM kernels on a fixed ER
//! workload — quick per-algorithm regression tracking: every scheme
//! one-phase under a normal mask, MSA and Hash under a complemented one
//! (MCA excluded, per the paper), each the best of `MSPGEMM_REPS` calls
//! after one untimed call. CSV on stdout, an aligned table on stderr.

use masked_spgemm::{masked_mxm_with_opts, Algorithm, ExecOpts, MaskMode, Phases};
use mspgemm_bench::{banner, reps};
use mspgemm_gen::{er, er_pattern};
use mspgemm_harness::report::{fmt_secs, Table};
use mspgemm_harness::time_best;
use mspgemm_sparse::semiring::PlusTimesF64;
use std::hint::black_box;

fn main() {
    banner("Microbench", "masked_mxm on ER n = 4096, degree 16");
    let n = 1usize << 12;
    let a = er(n, n, 16, 1);
    let b = er(n, n, 16, 2);
    let mask = er_pattern(n, n, 16, 3);
    let (reps, opts) = (reps(), ExecOpts::default());
    let normal = Algorithm::ALL.map(|algo| (algo, MaskMode::Mask));
    let complement = [Algorithm::Msa, Algorithm::Hash].map(|algo| (algo, MaskMode::Complement));
    let mut table = Table::new(&["scheme", "mask", "seconds"]);
    for (algo, mode) in normal.into_iter().chain(complement) {
        let (secs, _) = time_best(reps, || {
            let c = masked_mxm_with_opts::<PlusTimesF64, ()>(
                &mask,
                &a,
                &b,
                algo,
                mode,
                Phases::One,
                &opts,
            );
            black_box(c.unwrap())
        });
        let row = [
            format!("{}-1P", algo.name()),
            format!("{mode:?}"),
            fmt_secs(secs),
        ];
        table.row(&row);
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());
}
