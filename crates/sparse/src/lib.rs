//! # mspgemm-sparse
//!
//! The sparse-matrix substrate for the Masked SpGEMM reproduction
//! (Milaković et al., *Parallel Algorithms for Masked Sparse Matrix-Matrix
//! Products*, PPoPP 2022).
//!
//! Provides the storage formats (§2.1 of the paper), GraphBLAS-style
//! semirings (§2), and the parallel utility kernels every other crate in
//! the workspace builds on:
//!
//! * [`Csr`] — compressed sparse row with sorted, duplicate-free rows;
//!   `Csr<()>` doubles as a structural pattern/mask. Sections are
//!   [`storage::Storage`]-backed: owned heap vectors, or `Arc`-shared
//!   views into externally owned memory (the zero-copy mmap'd `.msb`
//!   path in `mspgemm-io`).
//! * [`CsrRef`] — the borrowed CSR view read-only consumers (kernels,
//!   flop prefix sums, fingerprinting) take; `Csr::view()` produces it
//!   whatever the backing.
//! * [`Coo`] — triplet assembly format with canonicalization.
//! * [`overlay`] — delta-COO overlay for dynamic updates: pending
//!   upserts/deletes over an immutable base with a merged read path.
//! * [`transpose()`] — parallel scan-based transpose (CSC is represented as
//!   the transpose stored in CSR).
//! * [`ops`] — eWiseAdd, masking, reductions, selection
//!   (tril/triu), symmetric permutation, degree relabeling.
//! * [`semiring`] — `plus_times`, `plus_pair`, `or_and`, `min_plus`, …
//! * [`util`] — parallel prefix sums, [`util::SlackRows`] (the
//!   row-partitioned output every row-parallel writer fills) and
//!   transpose's disjoint-write slice.
//!
//! Matrix Market I/O lives in the `mspgemm-io` crate (tokenizer shared
//! via the leaf `mspgemm-formats` crate); the lax legacy reader this
//! crate used to carry is gone.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod coo;
pub mod csr;
pub mod ops;
pub mod overlay;
pub mod semiring;
pub mod storage;
pub mod transpose;
pub mod util;
pub mod view;

/// Column/row index type. 32 bits halves the memory traffic of the index
/// streams relative to `usize` — the paper's algorithms are memory-bound
/// (§2.2), so this matters.
pub type Idx = u32;

pub use coo::Coo;
pub use csr::{Csr, StorageReport};
pub use overlay::{DeltaOp, Overlay};
pub use semiring::Semiring;
pub use storage::{
    is_shared_ones, shared_ones, unit_arena_bytes, SectionOwner, SharedSlice, Storage,
};
pub use transpose::{transpose, transpose_delta};
pub use view::CsrRef;
