//! # masked-spgemm
//!
//! Parallel masked sparse-sparse matrix multiplication,
//! `C = M ⊙ (A·B)` and `C = ¬M ⊙ (A·B)`, reproducing
//! Milaković, Selvitopi, Nisa, Budimlić & Buluç, *Parallel Algorithms for
//! Masked Sparse Matrix-Matrix Products* (PPoPP 2022, arXiv:2111.09947).
//!
//! ## Algorithms
//!
//! | Scheme | Paper | Kind | Accumulator |
//! |---|---|---|---|
//! | [`Algorithm::Msa`] | §5.2 | push | dense states/values (`ncols`) |
//! | [`Algorithm::Hash`] | §5.3 | push | open addressing, load 0.25 |
//! | [`Algorithm::Mca`] | §5.4 | push | mask-rank arrays (`nnz(m_i)`) |
//! | [`Algorithm::Heap`] | §5.5 | push | multiway merge, `NInspect = 1` |
//! | [`Algorithm::HeapDot`] | §5.5 | push | multiway merge, `NInspect = ∞` |
//! | [`Algorithm::Inner`] | §4.1 | pull | sparse dot products over `Bᵀ` |
//!
//! Every scheme runs [`Phases::One`] (mask-bounded allocation, no symbolic
//! pass) or [`Phases::Two`] (symbolic + numeric), with normal or
//! complemented structural masks — the full 14-variant matrix of the
//! paper's §8 (MCA×complement excepted, as in the paper) — as a row
//! kernel on the one [`phases::run_kernel`] driver, so [`ExecOpts`]
//! (workspace pool, stats, deadline) govern all six alike.
//! [`Algorithm::Auto`] picks per product from counted work — push, pull,
//! or, for a symmetric self-product `A ⊙ (A·A)`, the pull kernel over
//! half the mask, mirrored ([`dispatch::oriented_self_product`]).
//!
//! ## Quick start
//!
//! ```
//! use masked_spgemm::{masked_mxm_with_opts, Algorithm, ExecOpts, MaskMode, Phases};
//! use mspgemm_sparse::{Csr, semiring::PlusTimesF64};
//!
//! // A 2x2 all-ones matrix; mask keeps only the diagonal.
//! let a = Csr::from_dense(&[
//!     vec![Some(1.0), Some(1.0)],
//!     vec![Some(1.0), Some(1.0)],
//! ], 2);
//! let mask = Csr::<f64>::diagonal(2, 1.0);
//! let c = masked_mxm_with_opts::<PlusTimesF64, f64>(
//!     &mask, &a, &a, Algorithm::Msa, MaskMode::Mask, Phases::One, &ExecOpts::default(),
//! ).unwrap();
//! assert_eq!(c.get(0, 0), Some(&2.0));
//! assert_eq!(c.get(0, 1), None); // masked out — never computed
//! ```
//!
//! Parallelism is row-level via rayon (§3: "plenty of coarse-grained
//! parallelism across rows"); results are deterministic and independent of
//! thread count because each row accumulates in a fixed order.

#![warn(missing_docs)]

pub mod accumulator;
pub mod algos;
pub mod baseline;
pub mod dispatch;
pub mod phases;
pub mod schedule;
pub mod simd;

pub use dispatch::{
    masked_mxm_with_bt, masked_mxm_with_opts, Algorithm, DirectionWork, Error, MaskMode,
};
pub use phases::Phases;
pub use schedule::{AutoChoice, ExecOpts, ExecStats, ProbeCounts, ProductCounts, WsPool};
