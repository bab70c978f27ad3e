//! # mspgemm — Parallel Masked Sparse Matrix-Matrix Products
//!
//! Facade crate for the workspace reproducing Milaković, Selvitopi, Nisa,
//! Budimlić & Buluç, *Parallel Algorithms for Masked Sparse Matrix-Matrix
//! Products* (PPoPP 2022). Re-exports every sub-crate under one roof so the
//! examples and downstream users need a single dependency:
//!
//! * [`sparse`] — CSR/CSC/COO formats, semirings, kernels;
//! * [`gen`] — deterministic graph generators (ER, R-MAT, suite);
//! * [`core`] — the masked SpGEMM algorithms (MSA, Hash, MCA, Heap, Inner);
//! * [`graph`] — triangle counting, k-truss, betweenness centrality;
//! * [`harness`] — metrics and Dolan-Moré performance profiles;
//! * [`formats`] — the shared Matrix Market lexical layer (tokenizers,
//!   header scanning, newline-aligned chunk splitting);
//! * [`io`] — dataset loading: `.mtx` text (serial or chunked-parallel
//!   parse), the `.msb` binary cache, and the [`io::DatasetSource`]
//!   abstraction feeding the `mxm` CLI.
//!
//! ## Library quick start
//!
//! ```
//! use mspgemm::prelude::*;
//!
//! let g = mspgemm::gen::er_symmetric(500, 8, 42);
//! let tc = triangle_count(&g, Scheme::Ours(Algorithm::Msa, Phases::One));
//! assert_eq!(
//!     tc.triangles,
//!     triangle_count(&g, Scheme::Ours(Algorithm::Inner, Phases::Two)).triangles,
//! );
//! ```
//!
//! ## Datasets from disk
//!
//! ```
//! use mspgemm::io::{read_mtx_bytes, to_adjacency};
//!
//! let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
//!             3 3 3\n2 1\n3 1\n3 2\n";
//! let (_, m) = read_mtx_bytes(text.as_bytes(), 0).unwrap(); // 0 = auto fan-out
//! let (adj, _) = to_adjacency(&m); // symmetrize, strip self-loops
//! assert_eq!(adj.nnz(), 6);        // K3: three undirected edges
//! ```
//!
//! ## The `mxm` experiment driver
//!
//! The `mspgemm-cli` crate builds the `mxm` binary, the end-to-end entry
//! point (`cargo run --release -p mspgemm-cli --`):
//!
//! ```text
//! # one masked product on a matrix from disk (any scheme/mask/phases)
//! mxm run --algo hash --mask complement --phases 2 data/karate.mtx
//!
//! # the paper's TC sweep over the synthetic suite, with JSON output
//! mxm suite --app tc --source synthetic --json tc.json
//!
//! # k-truss / BC over a directory of .mtx or .msb files
//! mxm suite --app ktruss --k 5 --source /path/to/matrices
//!
//! # convert Matrix Market text into the binary cache format
//! mxm convert big.mtx big.msb
//! ```
//!
//! Text inputs are transparently cached: parsing `big.mtx` once writes a
//! `big.msb` sidecar (little-endian raw CSR, see `mspgemm_io::msb`), and
//! later runs deserialize it at memcpy speed.

/// The masked SpGEMM core (algorithms, accumulators, baselines).
pub use masked_spgemm as core;
/// The shared Matrix Market lexical layer.
pub use mspgemm_formats as formats;
/// Graph generators.
pub use mspgemm_gen as gen;
/// Applications: TC / k-truss / BC.
pub use mspgemm_graph as graph;
/// Benchmark methodology.
pub use mspgemm_harness as harness;
/// Dataset I/O: Matrix Market, the `.msb` cache, dataset sources.
pub use mspgemm_io as io;
/// Sparse matrix substrate.
pub use mspgemm_sparse as sparse;

/// One-stop imports for examples and quick experiments.
pub mod prelude {
    pub use masked_spgemm::{
        masked_mxm_with_bt, masked_mxm_with_opts, Algorithm, ExecOpts, MaskMode, Phases,
    };
    pub use mspgemm_graph::scheme::Scheme;
    pub use mspgemm_graph::{betweenness_with, k_truss_with, triangle_count, App};
    pub use mspgemm_io::{load_graph, load_matrix, CachePolicy, DatasetSource, LoadOpts};
    pub use mspgemm_sparse::semiring::{
        OrAndBool, PlusPairU64, PlusTimesF64, PlusTimesI64, PlusTimesU64, Semiring,
    };
    pub use mspgemm_sparse::{Coo, Csr, Idx};
}
