//! **Ablation (§4.3)**: push vs pull crossover. Fixed-degree ER inputs,
//! sweep mask degree, time MSA (push) against Inner (pull) with an
//! amortized transpose. The paper's analysis predicts pull wins when the
//! mask is asymptotically sparser than the inputs — asserted at the two
//! far corners of the `d_input = 32` sweep once every cell is timed.

use masked_spgemm::{masked_mxm_with_bt, Algorithm, ExecOpts, MaskMode, Phases};
use mspgemm_bench::{banner, reps};
use mspgemm_gen::{er, er_pattern};
use mspgemm_harness::report::{fmt_secs, Table};
use mspgemm_harness::time_best;
use mspgemm_sparse::semiring::PlusTimesF64;
use mspgemm_sparse::transpose;

fn main() {
    banner(
        "Ablation §4.3",
        "push (MSA) vs pull (Inner) crossover in mask degree",
    );
    let n = 1usize << 13;
    let reps = reps();
    let opts = ExecOpts::default();
    let mut table = Table::new(&["d_input", "d_mask", "push_MSA", "pull_Inner", "winner"]);
    let mut winners = std::collections::HashMap::new();
    for d_input in [8usize, 32] {
        let a = er(n, n, d_input, 1);
        let b = er(n, n, d_input, 2);
        let bt = transpose(&b);
        for d_mask in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
            let mask = er_pattern(n, n, d_mask, 3);
            let run = |algo| {
                time_best(reps, || {
                    masked_mxm_with_bt::<PlusTimesF64, ()>(
                        &mask,
                        &a,
                        &b,
                        Some(&bt),
                        algo,
                        MaskMode::Mask,
                        Phases::One,
                        &opts,
                    )
                    .unwrap()
                })
            };
            let (push_s, push_c) = run(Algorithm::Msa);
            let (pull_s, pull_c) = run(Algorithm::Inner);
            assert_eq!(
                push_c.pattern(),
                pull_c.pattern(),
                "push/pull disagree on pattern"
            );
            for (x, y) in push_c.values().iter().zip(pull_c.values()) {
                assert!(
                    (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                    "push/pull values diverge"
                );
            }
            let winner = if pull_s < push_s { "pull" } else { "push" };
            winners.insert((d_input, d_mask), winner);
            table.row(&[
                d_input.to_string(),
                d_mask.to_string(),
                fmt_secs(push_s),
                fmt_secs(pull_s),
                winner.to_string(),
            ]);
        }
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());
    // §4.3's shape, at the corners where the gap is widest: a mask 32×
    // sparser than the inputs is pull's, one 8× denser is push's.
    assert_eq!(winners[&(32, 1)], "pull", "d_input 32 / d_mask 1");
    assert_eq!(winners[&(32, 256)], "push", "d_input 32 / d_mask 256");
}
