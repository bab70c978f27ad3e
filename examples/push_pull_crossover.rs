//! The §4.3 analysis, live: sweep mask density on fixed-density inputs and
//! watch the crossover between push-based (MSA) and pull-based (Inner)
//! masked SpGEMM. When the mask is much sparser than the inputs, pull
//! wins; as the mask densifies, push takes over.
//!
//! Run with: `cargo run --release --example push_pull_crossover`

use mspgemm::harness::time_best;
use mspgemm::prelude::*;
use mspgemm::sparse::transpose;

fn main() {
    let n = 1 << 13;
    let input_degree = 32;
    let a = mspgemm::gen::er(n, n, input_degree, 1);
    let b = mspgemm::gen::er(n, n, input_degree, 2);
    let bt = transpose(&b);
    println!("n = {n}, input degree = {input_degree}\n");
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "mask deg", "push (MSA)", "pull (Inner)", "winner"
    );

    let mut pull_won_somewhere = false;
    let mut push_won_somewhere = false;
    for mask_degree in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let mask = mspgemm::gen::er_pattern(n, n, mask_degree, 3);
        let product = Product::new(&mask, &a, &b, Some(&bt));
        let run = |algo| {
            time_best(2, || {
                let opts = ExecOpts::default();
                masked_mxm::<PlusTimesF64, _>(&product, algo, AsCsr, &opts)
                    .unwrap()
                    .0
            })
        };
        let (push_s, push_c) = run(Algorithm::Msa);
        let (pull_s, pull_c) = run(Algorithm::Inner);
        assert_eq!(
            push_c.pattern(),
            pull_c.pattern(),
            "push and pull must agree on pattern"
        );
        for (x, y) in push_c.values().iter().zip(pull_c.values()) {
            assert!(
                (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                "push/pull values diverge"
            );
        }
        let winner = if pull_s < push_s { "pull" } else { "push" };
        pull_won_somewhere |= pull_s < push_s;
        push_won_somewhere |= push_s < pull_s;
        println!("{mask_degree:>10} {push_s:>12.6} {pull_s:>12.6} {winner:>8}");
    }
    println!();
    if pull_won_somewhere && push_won_somewhere {
        println!("crossover observed — matches the paper's §4.3 analysis ✓");
    } else {
        println!("no crossover at this size (machine-dependent; try larger n)");
    }
}
