//! k-truss's transient heap peak, counted by a global allocator around
//! one k-truss run the way the server runs it: k = 3 on an R-MAT 13
//! adjacency, Auto-1P, on two threads, leasing from a warm workspace
//! pool.
//!
//! The bound is 4.8 MB; the run reads 4.61. At k = 3 only edges of
//! support 0 are pruned, so one product runs, and the round holds the
//! supports as its one copy of the edges: the pattern `a` is dropped
//! before the prune, which compacts the supports in place. Copying the
//! survivors out instead reads 4.95 MB, and keeping `a`, the supports
//! and the copied survivors live together 5.83 MB.
//!
//! One test in its own binary: the counting allocator (`common`) keeps
//! process-wide counters, and another test's allocations would land in
//! them.

mod common;

use masked_spgemm::{Algorithm, ExecOpts, Phases, WsPool};
use mspgemm_graph::{k_truss_with, Scheme};

/// What one k-truss may hold at its peak beyond what was live before it.
const PEAK_BOUND: usize = 4_800_000;

#[test]
fn ktruss_transient_peak_stays_under_its_bound() {
    let params = mspgemm_gen::RmatParams::default();
    let adj = mspgemm_gen::rmat_symmetric(13, params, 1);
    let scheme = Scheme::Ours(Algorithm::Auto, Phases::One);
    let workers = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("a two-thread pool");
    // The server's pool outlives its requests: the accumulators a
    // k-truss leases are parked before it starts.
    let pool = WsPool::new();
    let opts = ExecOpts {
        ws_pool: Some(&pool),
        ..ExecOpts::default()
    };
    let (r, peak) = workers.install(|| {
        k_truss_with(&adj, 3, scheme, &opts);
        common::transient_peak(|| k_truss_with(&adj, 3, scheme, &opts))
    });
    assert!(
        0 < r.truss.nnz() && r.truss.nnz() < adj.nnz(),
        "a run that prunes: {} of {} entries kept",
        r.truss.nnz(),
        adj.nnz()
    );
    eprintln!(
        "k-truss transient heap peak: {peak} B (bound {PEAK_BOUND} B), {} products, truss nnz {}, adjacency nnz {}",
        r.iterations,
        r.truss.nnz(),
        adj.nnz()
    );
    assert!(
        peak <= PEAK_BOUND,
        "k-truss's transient heap peak is {peak} B, over its bound of {PEAK_BOUND} B"
    );
}
