//! Suite runners: execute one application benchmark for every scheme over
//! every suite graph, producing the [`SchemeRuns`] matrices behind the
//! paper's performance profiles.

use crate::metrics::time_best;
use crate::perfprofile::SchemeRuns;
use masked_spgemm::ExecOpts;
use mspgemm_gen::SuiteGraph;
use mspgemm_graph::scheme::Scheme;
use mspgemm_graph::{bc, ktruss, tricount};

/// Triangle-counting runtimes (masked SpGEMM only, as in §8.2) for each
/// scheme × suite graph, under the given execution options (a shared
/// [`masked_spgemm::WsPool`] in `opts` amortizes accumulator allocation
/// across repetitions and cases).
pub fn tc_runs(
    suite: &[SuiteGraph],
    schemes: &[Scheme],
    reps: usize,
    opts: &ExecOpts<'_>,
) -> Vec<SchemeRuns> {
    let prepared: Vec<_> = suite.iter().map(|g| tricount::prepare(&g.adj)).collect();
    schemes
        .iter()
        .map(|&s| SchemeRuns {
            name: s.name(),
            seconds: prepared
                .iter()
                .map(|ops| {
                    let (secs, _) =
                        time_best(reps, || tricount::count_prepared_rows_with(ops, s, opts));
                    Some(secs)
                })
                .collect(),
        })
        .collect()
}

/// k-truss runtimes: the masked SpGEMM time summed over the products a
/// run executes — one full support count, then a restricted recount per
/// prune that lowered a surviving support (§8.3). Every scheme runs the
/// same products, so the seconds compare like with like.
pub fn ktruss_runs(
    suite: &[SuiteGraph],
    schemes: &[Scheme],
    k: usize,
    reps: usize,
    opts: &ExecOpts<'_>,
) -> Vec<SchemeRuns> {
    schemes
        .iter()
        .map(|&s| SchemeRuns {
            name: s.name(),
            seconds: suite
                .iter()
                .map(|g| {
                    let (_, result) = time_best(reps, || ktruss::k_truss_with(&g.adj, k, s, opts));
                    // The benchmarked quantity is the masked-SpGEMM time,
                    // not the whole loop (pruning, marking the affected
                    // edges and patching their supports excluded), per §8.3.
                    Some(result.mxm_seconds)
                })
                .collect(),
        })
        .collect()
}

/// BC runtimes (forward+backward masked SpGEMM, §8.4) with the first
/// `batch` vertices as sources.
pub fn bc_runs(
    suite: &[SuiteGraph],
    schemes: &[Scheme],
    batch: usize,
    reps: usize,
    opts: &ExecOpts<'_>,
) -> Vec<SchemeRuns> {
    schemes
        .iter()
        .map(|&s| SchemeRuns {
            name: s.name(),
            seconds: suite
                .iter()
                .map(|g| {
                    if !s.supports_complement() {
                        return None; // MCA is absent from Fig 16
                    }
                    let n = g.adj.nrows();
                    let sources: Vec<usize> = (0..batch.min(n)).collect();
                    let (_, result) =
                        time_best(reps, || bc::betweenness_with(&g.adj, &sources, s, opts));
                    Some(result.mxm_seconds)
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use masked_spgemm::{Algorithm, Phases};
    use mspgemm_gen::{build_suite, SuiteSize};

    fn tiny_suite() -> Vec<SuiteGraph> {
        // Two small graphs to keep unit-test runtime negligible.
        vec![
            SuiteGraph::new("er", mspgemm_gen::er_symmetric(200, 8, 1)),
            SuiteGraph::new("sw", mspgemm_gen::structured::small_world(200, 4, 0.1, 2)),
        ]
    }

    #[test]
    fn tc_runs_shape() {
        let schemes = [Scheme::Ours(Algorithm::Msa, Phases::One), Scheme::SsSaxpy];
        let runs = tc_runs(&tiny_suite(), &schemes, 1, &ExecOpts::default());
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.seconds.len() == 2));
        assert!(runs.iter().all(|r| r.seconds.iter().all(|s| s.is_some())));
    }

    #[test]
    fn bc_runs_mark_mca_missing() {
        let schemes = [
            Scheme::Ours(Algorithm::Mca, Phases::One),
            Scheme::Ours(Algorithm::Msa, Phases::One),
        ];
        let runs = bc_runs(&tiny_suite(), &schemes, 4, 1, &ExecOpts::default());
        assert!(
            runs[0].seconds.iter().all(|s| s.is_none()),
            "MCA cannot run BC"
        );
        assert!(runs[1].seconds.iter().all(|s| s.is_some()));
    }

    #[test]
    fn runs_identical_with_pool() {
        use masked_spgemm::WsPool;
        let suite = tiny_suite();
        let schemes = [Scheme::Ours(Algorithm::Hash, Phases::One)];
        let k = 4;
        let baseline = ktruss_runs(&suite, &schemes, k, 1, &ExecOpts::default());
        let pool = WsPool::new();
        let opts = ExecOpts {
            ws_pool: Some(&pool),
            ..ExecOpts::default()
        };
        let runs = ktruss_runs(&suite, &schemes, k, 1, &opts);
        assert_eq!(runs.len(), baseline.len());
        // Timing differs; shape and presence must not.
        for (r, b) in runs.iter().zip(&baseline) {
            assert_eq!(r.seconds.len(), b.seconds.len());
        }
        assert!(pool.hits() > 0, "iterative k-truss must reuse workspaces");
    }

    #[test]
    fn suite_builds_for_runners() {
        // Sanity: the real Small suite is usable (built once, cheap graphs).
        let suite = build_suite(SuiteSize::Small);
        assert!(suite.len() >= 10, "suite should span ≥10 graphs");
    }
}
