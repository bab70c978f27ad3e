//! **Ablation (§4.3)**: push vs pull crossover. Fixed-degree ER inputs,
//! sweep mask degree, time MSA (push) against Inner (pull) with an
//! amortized transpose, and `Auto`, which counts both sides' work and
//! runs the cheaper. The paper's analysis predicts pull wins when the
//! mask is asymptotically sparser than the inputs — asserted at the two
//! far corners of the `d_input = 32` sweep once every cell is timed, with
//! `Auto` within [`AUTO_SLACK`] of the faster direction on every cell of
//! that sweep (the grid that fixes `dispatch::PULL_PROBE_COST`).

use masked_spgemm::{masked_mxm_with_bt, Algorithm, ExecOpts, MaskMode, Phases};
use mspgemm_bench::{banner, reps};
use mspgemm_gen::{er, er_pattern};
use mspgemm_harness::report::{fmt_secs, Table};
use mspgemm_harness::time_best;
use mspgemm_sparse::semiring::PlusTimesF64;
use mspgemm_sparse::transpose;

/// How far `Auto` may sit above the faster of push and pull on a
/// `d_input = 32` cell: the decision's two counting passes plus timer
/// noise, not a wrong direction (the nearest miss costs 1.2×).
const AUTO_SLACK: f64 = 1.15;

/// Fewest timing rounds per cell, whatever `MSPGEMM_REPS` says — a single
/// sample of a millisecond product cannot carry a 15 % assert — and the
/// most a cell over the slack is given to settle.
const MIN_ROUNDS: usize = 5;
const MAX_ROUNDS: usize = 40;

fn main() {
    banner(
        "Ablation §4.3",
        "push (MSA) vs pull (Inner) crossover in mask degree",
    );
    let n = 1usize << 13;
    let reps = reps();
    let opts = ExecOpts::default();
    let mut table = Table::new(&[
        "d_input",
        "d_mask",
        "push_MSA",
        "pull_Inner",
        "auto",
        "winner",
    ]);
    let mut winners = std::collections::HashMap::new();
    let mut auto_misses = Vec::new();
    for d_input in [8usize, 32] {
        let a = er(n, n, d_input, 1);
        let b = er(n, n, d_input, 2);
        let bt = transpose(&b);
        for d_mask in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
            let mask = er_pattern(n, n, d_mask, 3);
            let run = |algo| {
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
            };
            // Interleaved rounds, the fastest run per scheme kept: a slow
            // stretch of the host hits all three columns alike. A cell
            // whose `auto` column sits over the slack keeps timing — the
            // minima only converge on the undisturbed figures.
            let algos = [Algorithm::Msa, Algorithm::Inner, Algorithm::Auto];
            let [push_c, pull_c, auto_c] = algos.map(run);
            let mut best = [f64::INFINITY; 3];
            let auto_missed = |[push_s, pull_s, auto_s]: [f64; 3]| {
                d_input == 32 && auto_s > AUTO_SLACK * push_s.min(pull_s)
            };
            for round in 1..=MAX_ROUNDS {
                for (best, algo) in best.iter_mut().zip(algos) {
                    *best = best.min(time_best(1, || run(algo)).0);
                }
                if round >= reps.max(MIN_ROUNDS) && !auto_missed(best) {
                    break;
                }
            }
            let [push_s, pull_s, auto_s] = best;
            for (c, label) in [(&push_c, "push"), (&auto_c, "auto")] {
                assert_eq!(c.pattern(), pull_c.pattern(), "{label}/pull patterns");
                for (x, y) in c.values().iter().zip(pull_c.values()) {
                    assert!(
                        (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                        "{label}/pull values diverge"
                    );
                }
            }
            let winner = if pull_s < push_s { "pull" } else { "push" };
            winners.insert((d_input, d_mask), winner);
            if auto_missed(best) {
                auto_misses.push(format!(
                    "d_mask {d_mask}: auto {auto_s:.6} s, push {push_s:.6} s, pull {pull_s:.6} s"
                ));
            }
            table.row(&[
                d_input.to_string(),
                d_mask.to_string(),
                fmt_secs(push_s),
                fmt_secs(pull_s),
                fmt_secs(auto_s),
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
    assert!(
        auto_misses.is_empty(),
        "Auto over {AUTO_SLACK}× the faster direction at d_input 32: {auto_misses:#?}"
    );
}
