//! # mspgemm-io
//!
//! The dataset I/O subsystem of the Masked SpGEMM reproduction: the layer
//! that turns the paper's evaluation inputs — SuiteSparse/GAP matrices on
//! disk (§7) — into the in-memory [`Csr`](mspgemm_sparse::Csr) operands
//! the kernels consume, and back.
//!
//! * [`mtx`] — Matrix Market reader/writer
//!   (`general`/`symmetric` × `real`/`integer`/`pattern`), with
//!   line-numbered errors: one chunked parallel reader
//!   ([`read_mtx_bytes`]) over the tokenizer in `mspgemm-formats`.
//! * [`msb`] — the little-endian binary cache format (`.msb`): magic,
//!   version, dims, nnz header + raw CSR sections, so repeat experiment
//!   runs skip text parsing entirely.
//! * [`load`] — extension dispatch, the transparent `.msb` sidecar cache,
//!   graph normalization (symmetrize, strip self-loops) matching the
//!   synthetic suite's conventions, and the one symmetry test by content
//!   ([`distinct_transpose`]) that decides whether a loaded matrix is its
//!   own `Bᵀ`.
//! * [`source`] — [`DatasetSource`]: one abstraction over "the synthetic
//!   suite" and "a directory of real matrices", feeding the harness
//!   runners and the `mxm` CLI.

#![warn(missing_docs)]

pub mod error;
pub mod load;
pub mod msb;
pub mod mtx;
pub mod source;

pub use error::IoError;
pub use load::{
    adjacency_delta, distinct_transpose, load_graph, load_matrix, same_bits, save_matrix,
    save_matrix_pattern, sidecar_path, to_adjacency, AdjacencyStats, CacheOutcome, CachePolicy,
    Format, IngestReport, LoadOpts,
};
pub use msb::{
    read_msb, read_msb_file, read_msb_file_auto, read_msb_header, write_msb, write_msb_file,
    write_msb_pattern, write_msb_pattern_file, MsbBackend, MsbHeader,
};
pub use mtx::{
    read_mtx_bytes, read_mtx_file, write_mtx, write_mtx_file, MtxField, MtxHeader, MtxSymmetry,
};
pub use source::{dataset_name, matrix_files_in, DatasetSource};
