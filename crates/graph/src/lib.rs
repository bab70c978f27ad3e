//! # mspgemm-graph
//!
//! The paper's application benchmarks (§7–8), expressed over the
//! GraphBLAS-style masked SpGEMM primitive:
//!
//! * [`tricount`] — Triangle Counting: one masked SpGEMM
//!   (`sum(L ⊙ (L·L))` after degree relabeling) plus a reduction.
//! * [`ktruss`] — k-truss: iterative masked SpGEMM with pruning.
//! * [`bc`] — batched Betweenness Centrality: complemented masked SpGEMM
//!   in the forward BFS, plain masked SpGEMM in the backward dependency
//!   accumulation.
//!
//! [`scheme::Scheme`] enumerates the evaluation schemes (our 12 variants
//! plus the two SuiteSparse-modelled baselines) so the benchmark harness
//! can sweep them uniformly.

#![warn(missing_docs)]

pub mod app;
pub mod bc;
pub mod ktruss;
pub mod scheme;
pub mod tricount;

pub use app::App;
pub use bc::{betweenness_with, BcResult};
pub use ktruss::{k_truss_with, KtrussResult};
pub use scheme::Scheme;
pub use tricount::{triangle_count, TcResult};
