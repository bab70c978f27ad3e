//! **Ablation (§4.3)**: push vs pull crossover. Fixed-degree ER inputs,
//! sweep mask degree, time MSA (push) against Inner (pull) with an
//! amortized transpose, and `Auto`, which counts both sides' work and
//! runs the cheaper. The paper's analysis predicts pull wins when the
//! mask is asymptotically sparser than the inputs — asserted at the two
//! far corners of the `d_input = 32` sweep once every cell is timed, with
//! `Auto` within [`AUTO_SLACK`] of the faster direction on every cell of
//! that sweep (the grid that fixes `dispatch::PULL_PROBE_COST`). A cell
//! whose fastest rounds miss the slack is judged the way `mxm-bench diff`
//! judges a change: it fails only when `Auto`'s median round is over the
//! slack *and* over the wider of the two columns' interquartile spreads
//! ([`auto_against_faster`]); any other miss prints as `unresolved`.
//!
//! A second section times the symmetric self-product `A ⊙ (A·A)` — the
//! `mxm` verb, k-truss's support product — three ways: push, pull, and
//! the oriented pull over half the mask, mirrored, which `Auto` may pick
//! when all four operands are one object. `Auto` must sit within
//! [`AUTO_SLACK`] of the fastest of the three on every row: the grid that
//! fixes `dispatch::{MIRROR_COST, ORIENTED_FIXED_COST}`. On the larger
//! R-MAT rows, where ≈ 40 % of the oriented plan's probes hit, it must also
//! beat push by [`ORIENTED_OVER_PUSH`] — what the pull kernel's
//! branch-free probe pass is for.

use masked_spgemm::dispatch::oriented_self_product;
use masked_spgemm::{masked_mxm_with_bt, Algorithm, ExecOpts, ExecStats, MaskMode, Phases};
use mspgemm_bench::{banner, reps};
use mspgemm_gen::{er, er_pattern, er_symmetric, rmat_symmetric, RmatParams};
use mspgemm_harness::report::{fmt_secs, Table};
use mspgemm_harness::time_best;
use mspgemm_sparse::semiring::PlusTimesF64;
use mspgemm_sparse::{transpose, Csr};

/// How far `Auto` may sit above the fastest direction on an asserted
/// cell: the decision's counting passes plus timer noise, not a wrong
/// direction (the nearest miss costs 1.2×).
const AUTO_SLACK: f64 = 1.15;

/// The most the oriented plan may take of push's time on [`DENSE_HIT_ROWS`]:
/// ≈ 0.3 with the branch-free probe pass, ≈ 0.6 with the branchy loop
/// alone, so a probe loop that regresses to mispredicting fails here.
const ORIENTED_OVER_PUSH: f64 = 0.5;

/// The symmetric rows [`ORIENTED_OVER_PUSH`] holds on.
const DENSE_HIT_ROWS: [&str; 2] = ["rmat12", "rmat13"];

/// Fewest timing rounds per cell, whatever `MSPGEMM_REPS` says — a single
/// sample of a millisecond product cannot carry a 15 % assert — and the
/// most a cell over the slack is given to settle.
const MIN_ROUNDS: usize = 5;
const MAX_ROUNDS: usize = 40;

/// Interleaved rounds over `runs`, every round's time kept per column: a
/// slow stretch of the host hits every column alike. A cell whose fastest
/// times `missed` its assertion keeps timing — the minima only converge
/// on the undisturbed figures.
fn race<const K: usize>(
    runs: [&dyn Fn(); K],
    rounds: usize,
    missed: impl Fn([f64; K]) -> bool,
) -> [Vec<f64>; K] {
    let mut times: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
    for round in 1..=MAX_ROUNDS {
        for (times, run) in times.iter_mut().zip(runs) {
            times.push(time_best(1, run).0);
        }
        if round >= rounds.max(MIN_ROUNDS) && !missed(fastest(&times)) {
            break;
        }
    }
    times
}

/// The fastest round of each column.
fn fastest<const K: usize>(times: &[Vec<f64>; K]) -> [f64; K] {
    times
        .each_ref()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Median and interquartile spread (`(q3 − q1) / median`, quartiles by
/// Python's exclusive method) of one column's rounds — what `mxm-bench
/// diff` judges a change by. Needs two rounds; [`race`] runs at least
/// [`MIN_ROUNDS`].
fn median_spread(times: &[f64]) -> (f64, f64) {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = (v[(n - 1) / 2] + v[n / 2]) / 2.0;
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (median, (quartile(3) - quartile(1)) / median)
}

/// `mxm-bench diff`'s figures for a cell that missed [`AUTO_SLACK`]: how
/// far `auto`'s median sits above the faster column's (by median), and the
/// wider of the two columns' spreads. `auto` is worse only when that gap
/// is over the slack and over the spread — otherwise the host's noise
/// cannot tell the two apart.
fn auto_against_faster(auto: &[f64], push: &[f64], pull: &[f64]) -> (f64, f64) {
    let (auto_m, auto_spread) = median_spread(auto);
    let (faster_m, faster_spread) = [median_spread(push), median_spread(pull)]
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap();
    (auto_m / faster_m - 1.0, auto_spread.max(faster_spread))
}

/// A CSR's sections, the values by bits.
fn sections(c: &Csr<f64>) -> (&[usize], &[u32], Vec<u64>) {
    let bits = c.values().iter().map(|v| v.to_bits()).collect();
    (c.rowptr(), c.colidx(), bits)
}

/// `A ⊙ (A·A)` on symmetric graphs, every operand the same object:
/// push / pull / oriented / what `Auto` makes of the three counts.
fn symmetric_self_products(rounds: usize) -> Vec<String> {
    let opts = ExecOpts::default();
    let mut table = Table::new(&[
        "graph",
        "nnz",
        "push_products",
        "oriented_probes",
        "push_MSA",
        "pull_Inner",
        "oriented",
        "auto",
        "auto_ran",
    ]);
    let rmat = |scale| {
        let g = rmat_symmetric(scale, RmatParams::default(), 1);
        (format!("rmat{scale}"), g)
    };
    let er = |n, d| (format!("er{n}x{d}"), er_symmetric(n, d, 1));
    let graphs = [
        rmat(10),
        rmat(11),
        rmat(12),
        rmat(13),
        er(8192, 8),
        er(8192, 24),
        er(8192, 64),
        er(16384, 8),
        // The sparsest row: 4.5 products per stored entry, where the
        // oriented plan only ties on two threads.
        er(32768, 4),
    ];
    let mut misses = Vec::new();
    for (name, a) in &graphs {
        let run = |algo, opts: &ExecOpts<'_>| {
            let (mode, phases) = (MaskMode::Mask, Phases::One);
            masked_mxm_with_bt::<PlusTimesF64, f64>(a, a, a, Some(a), algo, mode, phases, opts)
                .unwrap()
        };
        let oriented = || oriented_self_product::<PlusTimesF64>(a, a, Phases::One, &opts).unwrap();
        let stats = ExecStats::new();
        let recorded = ExecOpts {
            stats: Some(&stats),
            ..opts
        };
        let want = run(Algorithm::Msa, &opts);
        for (label, got) in [
            ("pull", run(Algorithm::Inner, &opts)),
            ("oriented", oriented()),
            ("auto", run(Algorithm::Auto, &recorded)),
        ] {
            assert!(sections(&got) == sections(&want), "{name}: {label} != push");
        }
        let choice = stats.auto_choice().expect("Auto ran");
        let dense_hits = DENSE_HIT_ROWS.contains(&name.as_str());
        let missed = |[push_s, pull_s, oriented_s, auto_s]: [f64; 4]| {
            auto_s > AUTO_SLACK * push_s.min(pull_s).min(oriented_s)
                || (dense_hits && oriented_s > ORIENTED_OVER_PUSH * push_s)
        };
        let best = fastest(&race(
            [
                &|| drop(run(Algorithm::Msa, &opts)),
                &|| drop(run(Algorithm::Inner, &opts)),
                &|| drop(oriented()),
                &|| drop(run(Algorithm::Auto, &opts)),
            ],
            rounds,
            missed,
        ));
        let probes = choice.work.oriented;
        let ran = match probes {
            Some(_) => "oriented",
            None => choice.algo.name(),
        };
        if missed(best) {
            misses.push(format!(
                "{name}: auto ran {ran}, push/pull/oriented/auto {best:?} s"
            ));
        }
        table.row(&[
            name.clone(),
            a.nnz().to_string(),
            choice.work.push.to_string(),
            probes.map_or("-".to_string(), |p| p.to_string()),
            fmt_secs(best[0]),
            fmt_secs(best[1]),
            fmt_secs(best[2]),
            fmt_secs(best[3]),
            ran.to_string(),
        ]);
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());
    misses
}

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
    let (mut auto_misses, mut unresolved) = (Vec::new(), Vec::new());
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
            let algos = [Algorithm::Msa, Algorithm::Inner, Algorithm::Auto];
            let [push_c, pull_c, auto_c] = algos.map(run);
            let auto_missed = |[push_s, pull_s, auto_s]: [f64; 3]| {
                d_input == 32 && auto_s > AUTO_SLACK * push_s.min(pull_s)
            };
            let times = race(
                algos
                    .map(|algo| move || drop(run(algo)))
                    .each_ref()
                    .map(|f| f as &dyn Fn()),
                reps,
                auto_missed,
            );
            let best = fastest(&times);
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
                let [push_t, pull_t, auto_t] = &times;
                let (worse_by, spread) = auto_against_faster(auto_t, push_t, pull_t);
                let miss = format!(
                    "d_mask {d_mask}: auto {auto_s:.6} s, push {push_s:.6} s, pull {pull_s:.6} s \
                     (fastest of {} rounds); by median auto {:+.1} % against a spread of {:.1} %",
                    auto_t.len(),
                    100.0 * worse_by,
                    100.0 * spread
                );
                if worse_by > AUTO_SLACK - 1.0 && worse_by > spread {
                    auto_misses.push(miss);
                } else {
                    unresolved.push(miss);
                }
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
    for miss in &unresolved {
        eprintln!("unresolved: Auto over {AUTO_SLACK}× the faster direction at d_input 32, {miss}");
    }
    let symmetric_misses = symmetric_self_products(reps);
    // §4.3's shape, at the corners where the gap is widest: a mask 32×
    // sparser than the inputs is pull's, one 8× denser is push's.
    assert_eq!(winners[&(32, 1)], "pull", "d_input 32 / d_mask 1");
    assert_eq!(winners[&(32, 256)], "push", "d_input 32 / d_mask 256");
    assert!(
        auto_misses.is_empty(),
        "Auto worse than the faster direction at d_input 32 (over {AUTO_SLACK}× and the \
         interquartile spread, by median): {auto_misses:#?}"
    );
    assert!(
        symmetric_misses.is_empty(),
        "Auto over {AUTO_SLACK}× the fastest of push / pull / oriented, or oriented over \
         {ORIENTED_OVER_PUSH}× push on {DENSE_HIT_ROWS:?}: {symmetric_misses:#?}"
    );
}
