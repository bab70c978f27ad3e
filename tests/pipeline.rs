//! Cross-crate integration: generate → relabel → masked mxm → application
//! → metric, end to end, across schemes and thread counts.

use mspgemm::gen::{self, RmatParams};
use mspgemm::graph::{bc, ktruss, tricount};
use mspgemm::harness::{gflops, mteps, performance_profile, with_threads, SchemeRuns};
use mspgemm::prelude::*;

#[test]
fn full_tc_pipeline_on_rmat() {
    let g = gen::rmat_symmetric(9, RmatParams::default(), 3);
    let ops = tricount::prepare(&g);
    let mut counts = Vec::new();
    for s in [
        Scheme::Ours(Algorithm::Msa, Phases::One),
        Scheme::Ours(Algorithm::Mca, Phases::Two),
        Scheme::Ours(Algorithm::Inner, Phases::One),
        Scheme::SsSaxpy,
    ] {
        let (rows, mxm_seconds) = tricount::count_prepared_rows_with(&ops, s, &ExecOpts::default());
        assert!(gflops(ops.flops, mxm_seconds.max(1e-12)) >= 0.0);
        counts.push(rows.iter().sum::<u64>());
    }
    counts.dedup();
    assert_eq!(counts.len(), 1, "schemes disagree on triangles");
    assert!(counts[0] > 0, "R-MAT scale 9 should contain triangles");
}

#[test]
fn full_ktruss_pipeline_shrinks_graph() {
    let g = gen::structured::community_blocks(8, 60, 8, 1, 11);
    let r3 = ktruss::k_truss_with(
        &g,
        3,
        Scheme::Ours(Algorithm::Hash, Phases::One),
        &ExecOpts::default(),
    );
    let r5 = ktruss::k_truss_with(
        &g,
        5,
        Scheme::Ours(Algorithm::Hash, Phases::One),
        &ExecOpts::default(),
    );
    assert!(r5.truss.nnz() <= r3.truss.nnz(), "trusses must be nested");
    assert!(r3.truss.nnz() <= g.nnz());
    // Every surviving edge support must meet the threshold.
    assert!(r5.truss.values().iter().all(|&s| s >= 3));
}

#[test]
fn full_bc_pipeline_produces_sane_scores() {
    let g = gen::er_symmetric(300, 8, 17);
    let sources: Vec<usize> = (0..32).collect();
    let r = bc::betweenness_with(
        &g,
        &sources,
        Scheme::Ours(Algorithm::Msa, Phases::One),
        &ExecOpts::default(),
    );
    assert_eq!(r.scores.len(), g.nrows());
    assert!(
        r.scores.iter().all(|&x| x >= -1e-9),
        "scores are nonnegative"
    );
    assert!(
        r.scores.iter().any(|&x| x > 0.0),
        "something must be central"
    );
    assert!(mteps(sources.len(), g.nnz() / 2, r.total_seconds.max(1e-12)) > 0.0);
}

#[test]
fn profile_machinery_end_to_end() {
    let suite = vec![
        gen::SuiteGraph::new("er", gen::er_symmetric(150, 6, 1)),
        gen::SuiteGraph::new("rmat", gen::rmat_symmetric(7, RmatParams::default(), 2)),
    ];
    let schemes = [
        Scheme::Ours(Algorithm::Msa, Phases::One),
        Scheme::Ours(Algorithm::Hash, Phases::One),
    ];
    let runs: Vec<SchemeRuns> =
        mspgemm::harness::runner::tc_runs(&suite, &schemes, 1, &Default::default());
    let profile = performance_profile(&runs, &mspgemm::harness::default_taus(2.4, 0.2));
    // Some scheme must be best somewhere; fractions in [0, 1].
    let sum_best: f64 = profile.curves.iter().map(|(_, fr)| fr[0]).sum();
    assert!(
        sum_best >= 1.0 - 1e-9,
        "at least one best per case (ties can exceed 1)"
    );
    for (_, fr) in &profile.curves {
        assert!(fr.iter().all(|&f| (0.0..=1.0).contains(&f)));
    }
}

#[test]
fn pipeline_deterministic_across_thread_counts() {
    let g = gen::rmat_symmetric(8, RmatParams::default(), 21);
    let base = tricount::triangle_count(&g, Scheme::Ours(Algorithm::Hash, Phases::One)).triangles;
    for t in [1usize, 3] {
        let got = with_threads(t, || {
            let g = gen::rmat_symmetric(8, RmatParams::default(), 21);
            tricount::triangle_count(&g, Scheme::Ours(Algorithm::Hash, Phases::One)).triangles
        });
        assert_eq!(got, base, "{t} threads");
    }
}

#[test]
fn matrix_market_roundtrip_through_apps() {
    // Write a generated graph to .mtx, read it back (one chunk AND four),
    // and get identical triangle counts — exercises the I/O substrate in
    // the pipeline.
    let g = gen::er_symmetric(120, 6, 9);
    let mut buf = Vec::new();
    mspgemm::io::mtx::write_mtx(&mut buf, &g, mspgemm::io::MtxField::Real).unwrap();
    let (_, g2) = mspgemm::io::read_mtx_bytes(&buf, 1).unwrap();
    let (_, g3) = mspgemm::io::read_mtx_bytes(&buf, 4).unwrap();
    assert_eq!(g, g2);
    assert_eq!(g, g3);
    let t1 = tricount::triangle_count(&g, Scheme::Ours(Algorithm::Msa, Phases::One)).triangles;
    let t2 = tricount::triangle_count(&g2, Scheme::Ours(Algorithm::Msa, Phases::One)).triangles;
    assert_eq!(t1, t2);
}

#[test]
fn msb_cache_roundtrip_through_apps() {
    // Generate → write .mtx → load through the sidecar cache (which
    // writes and then serves .msb) → identical triangle counts. This is
    // the repeat-experiment path `mxm` exercises on real datasets.
    let dir = std::env::temp_dir().join("mspgemm_pipeline_msb");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("g.mtx");

    let g = gen::er_symmetric(200, 8, 23);
    mspgemm::io::mtx::write_mtx_file(&mtx, &g).unwrap();

    let (a, first) = load_matrix(&mtx, &LoadOpts::default()).unwrap();
    let (b, second) = load_matrix(&mtx, &LoadOpts::default()).unwrap();
    assert_eq!(first.outcome, mspgemm::io::CacheOutcome::Written);
    assert_eq!(second.outcome, mspgemm::io::CacheOutcome::Hit);
    assert_eq!(a, b);
    assert_eq!(a, g);

    let t_direct = tricount::triangle_count(&g, Scheme::Ours(Algorithm::Hash, Phases::One));
    let t_cached = tricount::triangle_count(&b, Scheme::Ours(Algorithm::Hash, Phases::One));
    assert_eq!(t_direct.triangles, t_cached.triangles);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_source_feeds_runners() {
    // On-disk datasets flow through the same runner machinery as the
    // synthetic suite — the shape `mxm suite --source <dir>` relies on.
    let dir = std::env::temp_dir().join("mspgemm_pipeline_source");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    for (name, seed) in [("g1", 3u64), ("g2", 4)] {
        let g = gen::er_symmetric(120, 6, seed);
        mspgemm::io::mtx::write_mtx_file(dir.join(format!("{name}.mtx")), &g).unwrap();
    }
    let graphs = DatasetSource::parse(dir.to_str().unwrap())
        .load(&LoadOpts {
            policy: CachePolicy::Off,
            ..LoadOpts::default()
        })
        .unwrap();
    assert_eq!(graphs.len(), 2);
    let schemes = [
        Scheme::Ours(Algorithm::Msa, Phases::One),
        Scheme::Ours(Algorithm::Hash, Phases::One),
    ];
    let runs: Vec<SchemeRuns> =
        mspgemm::harness::runner::tc_runs(&graphs, &schemes, 1, &Default::default());
    let profile = performance_profile(&runs, &mspgemm::harness::default_taus(2.0, 0.5));
    assert_eq!(profile.curves.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn semirings_compose_with_apps() {
    // Reachability on the or_and semiring through the masked primitive:
    // two-hop neighbors restricted to existing edges = "triangle edges".
    let g = gen::er_symmetric(100, 6, 33);
    let gb = g.map(|_| true);
    let mask = g.pattern();
    let two_hop = masked_mxm_with_opts::<OrAndBool, ()>(
        &mask,
        &gb,
        &gb,
        Algorithm::Msa,
        MaskMode::Mask,
        Phases::One,
        &ExecOpts::default(),
    )
    .unwrap();
    // Every surviving coordinate is an edge that closes a triangle.
    for (i, j, &v) in two_hop.iter() {
        assert!(v, "or_and output values are true");
        assert!(g.get(i, j).is_some());
    }
}
