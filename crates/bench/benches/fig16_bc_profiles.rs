//! **Figure 16**: Betweenness Centrality performance profiles — MSA/Hash
//! × 1P/2P vs SS:SAXPY over the suite (the paper excludes Heap, Inner and
//! SS:DOT as prohibitively slow, and MCA does not support the complemented
//! masks BC needs), plus `Inner-1P` and the per-level push/pull mix
//! `Auto-1P` (see `mspgemm_bench::bc_schemes`).

use mspgemm_bench::{banner, bc_batch, bc_schemes, reps, suite};
use mspgemm_harness::runner::bc_runs;
use mspgemm_harness::{default_taus, performance_profile};

fn main() {
    banner("Fig 16", "BC performance profiles — MSA/Hash vs SS:SAXPY");
    let suite = suite();
    let batch = bc_batch();
    eprintln!("batch = {batch}");
    let runs = bc_runs(&suite, &bc_schemes(), batch, reps(), &Default::default());
    let profile = performance_profile(&runs, &default_taus(1.5, 0.05));
    println!("{}", profile.to_csv());
    for (name, fr) in &profile.curves {
        eprintln!("{name:>12}: best on {:5.1}% of cases", fr[0] * 100.0);
    }
}
