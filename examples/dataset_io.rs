//! Dataset I/O end to end: write a graph to Matrix Market text, load it
//! back through the `.msb` sidecar cache, normalize it, and run the three
//! applications on it — the same path `mxm suite --source <dir>` takes.
//!
//! Run with: `cargo run --release --example dataset_io`

use mspgemm::io::{sidecar_path, CacheOutcome};
use mspgemm::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join("mspgemm_example_dataset_io");
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("smallworld.mtx");

    // Pretend this came from the SuiteSparse collection.
    let g = mspgemm::gen::structured::small_world(4000, 8, 0.08, 7);
    mspgemm::io::mtx::write_mtx_file(&mtx, &g).unwrap();
    println!(
        "wrote {} ({} vertices, {} entries)",
        mtx.display(),
        g.nrows(),
        g.nnz()
    );

    // First load parses text and writes the sidecar; second load is the
    // fast path every repeat experiment takes.
    let (_, first) = load_matrix(&mtx, &LoadOpts::default()).unwrap();
    println!("first load : {:?}", first.outcome);
    let (a, second) = load_matrix(&mtx, &LoadOpts::default()).unwrap();
    println!(
        "second load: {:?} via {}",
        second.outcome,
        sidecar_path(&mtx).display()
    );
    assert_eq!(second.outcome, CacheOutcome::Hit);
    assert_eq!(a, g);

    // Graph-oriented loading: arbitrary square matrices normalize into
    // the simple undirected adjacency the applications expect.
    let (adj, stats) = load_graph(&mtx, &LoadOpts::default()).unwrap();
    println!("normalized : {stats:?}");

    let scheme = Scheme::Ours(Algorithm::Msa, Phases::One);
    let tc = triangle_count(&adj, scheme);
    println!(
        "triangles  : {} ({:.3} ms mxm)",
        tc.triangles,
        tc.mxm_seconds * 1e3
    );
    let kt = k_truss_with(&adj, 4, scheme, &ExecOpts::default());
    println!("4-truss    : {} surviving entries", kt.truss.nnz());
    let sources: Vec<usize> = (0..8).collect();
    let bc = betweenness_with(&adj, &sources, scheme, &ExecOpts::default());
    let top = bc.scores.iter().cloned().fold(f64::MIN, f64::max);
    println!("bc (8 src) : top score {top:.1}");

    std::fs::remove_dir_all(&dir).ok();
}
