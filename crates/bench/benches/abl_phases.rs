//! **Ablation (§6)**: one-phase vs two-phase per algorithm on Triangle
//! Counting over the suite. The paper's headline finding: with a mask,
//! 1P usually beats 2P — the mask bounds the output tightly enough that
//! the symbolic pass doesn't pay for itself. Each run builds the CSR
//! product and sums it ([`tc_csr_count`]): on the mask, the form
//! `tricount` itself uses, 1P and 2P are one pass.

use masked_spgemm::{Algorithm, ExecOpts, Phases};
use mspgemm_bench::{banner, reps, suite};
use mspgemm_graph::scheme::Scheme;
use mspgemm_graph::tricount;
use mspgemm_harness::report::{fmt_secs, Table};
use mspgemm_harness::runner::tc_csr_count;
use mspgemm_harness::time_best;

fn main() {
    banner("Ablation §6", "1P vs 2P per algorithm (TC over the suite)");
    let suite = suite();
    let reps = reps();
    let opts = ExecOpts::default();
    let mut table = Table::new(&["graph", "algorithm", "one_phase", "two_phase", "speedup_1p"]);
    let mut wins_1p = 0usize;
    let mut total = 0usize;
    for g in &suite {
        let ops = tricount::prepare(&g.adj);
        for algo in Algorithm::ALL {
            let (s1, _) = time_best(reps, || {
                tc_csr_count(&ops, Scheme::Ours(algo, Phases::One), &opts)
            });
            let (s2, _) = time_best(reps, || {
                tc_csr_count(&ops, Scheme::Ours(algo, Phases::Two), &opts)
            });
            table.row(&[
                g.name.to_string(),
                algo.name().to_string(),
                fmt_secs(s1),
                fmt_secs(s2),
                format!("{:.2}", s2 / s1),
            ]);
            total += 1;
            if s1 <= s2 {
                wins_1p += 1;
            }
        }
    }
    println!("{}", table.to_csv());
    eprintln!("{}", table.to_text());
    eprintln!("1P wins {wins_1p}/{total} cases (paper: 1P usually wins)");
}
