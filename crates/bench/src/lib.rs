//! Shared plumbing for the figure benches. Each `fig*` bench is a
//! `harness = false` target whose `main` regenerates one table/figure of
//! the paper as CSV on stdout (plus an aligned-text echo on stderr).
//!
//! Environment knobs (defaults keep `cargo bench` CI-sized; see
//! EXPERIMENTS.md for paper-scale settings):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MSPGEMM_SCALE` | max R-MAT scale for the scale sweeps | 12 |
//! | `MSPGEMM_SUITE` | `full` for the larger suite | small |
//! | `MSPGEMM_BATCH` | BC batch size | 32 |
//! | `MSPGEMM_REPS` | timing repetitions (best-of) | 2 |
//! | `MSPGEMM_THREADS` | max threads for the scaling sweep | all |

use masked_spgemm::{Algorithm, Phases};
use mspgemm_gen::{build_suite, SuiteGraph, SuiteSize};
use mspgemm_graph::scheme::Scheme;
use mspgemm_harness::env_usize;

/// Print a banner naming the figure being regenerated.
pub fn banner(fig: &str, what: &str) {
    eprintln!("=== {fig}: {what} ===");
    eprintln!(
        "(defaults are CI-sized; set MSPGEMM_SCALE / MSPGEMM_SUITE=full / MSPGEMM_BATCH for paper scale)\n"
    );
}

/// The benchmark suite selected by `MSPGEMM_SUITE`.
pub fn suite() -> Vec<SuiteGraph> {
    build_suite(SuiteSize::from_env())
}

/// Best-of repetitions from `MSPGEMM_REPS`.
pub fn reps() -> usize {
    env_usize("MSPGEMM_REPS", 2).max(1)
}

/// Max R-MAT scale for the scale sweeps (paper: 20).
pub fn max_scale() -> u32 {
    env_usize("MSPGEMM_SCALE", 12) as u32
}

/// BC batch size (paper: 512).
pub fn bc_batch() -> usize {
    env_usize("MSPGEMM_BATCH", 32)
}

/// Fig 9's comparison set: our three best TC schemes + the SS baselines.
pub fn tc_vs_ssgb_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Ours(Algorithm::Msa, Phases::One),
        Scheme::Ours(Algorithm::Hash, Phases::One),
        Scheme::Ours(Algorithm::Mca, Phases::One),
        Scheme::SsSaxpy,
        Scheme::SsDot,
    ]
}

/// Fig 13's comparison set: our four best k-truss schemes + baselines.
pub fn ktruss_vs_ssgb_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Ours(Algorithm::Msa, Phases::One),
        Scheme::Ours(Algorithm::Inner, Phases::One),
        Scheme::Ours(Algorithm::Hash, Phases::One),
        Scheme::Ours(Algorithm::Mca, Phases::One),
        Scheme::SsSaxpy,
        Scheme::SsDot,
    ]
}

/// Figs 15–16's scheme set: the paper's MSA/Hash × 1P/2P + SS:SAXPY (it
/// excludes Heap, SS:DOT and Inner as prohibitively slow, and MCA cannot
/// run BC), plus the two columns that show why: `Inner-1P` pulls every
/// level, `Auto-1P` the levels where pulling is cheaper. MSA-1P comes
/// first — Fig 15 checks every other scheme's scores against it.
pub fn bc_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Ours(Algorithm::Msa, Phases::One),
        Scheme::Ours(Algorithm::Hash, Phases::One),
        Scheme::Ours(Algorithm::Msa, Phases::Two),
        Scheme::Ours(Algorithm::Hash, Phases::Two),
        Scheme::Ours(Algorithm::Auto, Phases::One),
        Scheme::Ours(Algorithm::Inner, Phases::One),
        Scheme::SsSaxpy,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_sets_have_expected_sizes() {
        assert_eq!(tc_vs_ssgb_schemes().len(), 5);
        assert_eq!(ktruss_vs_ssgb_schemes().len(), 6);
        assert_eq!(bc_schemes().len(), 7);
        assert_eq!(bc_schemes()[0].name(), "MSA-1P");
        assert!(bc_schemes().iter().all(|s| s.supports_complement()));
    }

    #[test]
    fn knobs_have_defaults() {
        assert!(reps() >= 1);
        assert!(max_scale() >= 8);
        assert!(bc_batch() >= 1);
    }
}
