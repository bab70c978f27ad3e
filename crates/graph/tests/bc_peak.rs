//! BC's transient heap peak, counted by a global allocator around one BC
//! run the way the server runs it: 64 sources on an R-MAT 13 adjacency
//! that is its own transpose, Auto-1P, on two threads, leasing from a warm
//! workspace pool.
//!
//! The bound is what the sweep must hold and little more: 7.49 MB on this
//! input, plus the 0.2 MB margin the bound has carried. The forward sweep
//! holds its levels, the visited bits (64 sources × 8192 bits, 64 KB) and
//! one complemented product's slack; the backward sweep holds the levels
//! not yet read and one `f64` per entry of the level its product lands
//! on. While `visited` was a CSR pattern, grown in place by each frontier
//! (1.3–1.7 MB, counted twice while a growing `realloc` ran), BC read
//! 8.30 MB; a compaction that copies out instead of moving in place read
//! 9.8 MB, and that `visited` kept into the backward sweep 9.2 MB; with
//! CSR backward products, a copying compaction and every array kept to
//! the end, BC read 12.0 MB.
//!
//! One test in its own binary: the counting allocator (`common`) keeps
//! process-wide counters, and another test's allocations would land in
//! them.

mod common;

use masked_spgemm::{Algorithm, ExecOpts, Phases, WsPool};
use mspgemm_graph::bc::betweenness_with_transpose;
use mspgemm_graph::Scheme;

/// What one BC may hold at its peak beyond what was live before it.
const PEAK_BOUND: usize = 7_700_000;

#[test]
fn bc_transient_peak_stays_under_its_bound() {
    let params = mspgemm_gen::RmatParams::default();
    let adj = mspgemm_gen::rmat_symmetric(13, params, 1);
    let sources: Vec<usize> = (0..64).collect();
    let scheme = Scheme::Ours(Algorithm::Auto, Phases::One);
    let workers = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("a two-thread pool");
    // The server's pool outlives its requests: the accumulators a BC
    // leases are parked before it starts.
    let pool = WsPool::new();
    let opts = ExecOpts {
        ws_pool: Some(&pool),
        ..ExecOpts::default()
    };
    let (r, peak) = workers.install(|| {
        betweenness_with_transpose(&adj, &adj, &sources, scheme, &opts);
        common::transient_peak(|| betweenness_with_transpose(&adj, &adj, &sources, scheme, &opts))
    });
    assert!(
        r.depth > 3,
        "a sweep with backward products: depth {}",
        r.depth
    );
    eprintln!("BC transient heap peak: {peak} B (bound {PEAK_BOUND} B)");
    assert!(
        peak <= PEAK_BOUND,
        "BC's transient heap peak is {peak} B, over its bound of {PEAK_BOUND} B"
    );
}
