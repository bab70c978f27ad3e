//! # mxm-bench
//!
//! The repo's end-to-end benchmark, as a library the `mxm-bench` binary
//! (and the layer-table binary, for inputs, spans and statistics) is
//! built from. It depends on `std` alone: inputs come from its own
//! seeded generator, the program under test is the real `mxm` binary
//! reached through its CLI flags and its line-JSON socket protocol, and
//! every answer is checked against a reference computed here.
//!
//! * [`gen`] — SplitMix64, R-MAT / Erdős-Rényi graphs, `.mtx` text.
//! * [`model`] — triangle count and the exact insert/delete edge model.
//! * [`json`], [`client`], [`proc`] — protocol lines, the socket client,
//!   child processes reaped with their peak RSS.
//! * [`workloads`] — `run-sweep`, `serve-kernel`, `serve-light`,
//!   `serve-update`.
//! * [`calib`] — the fixed kernel that reads the shared host's speed, so
//!   the compute-bound workload can report at nominal speed.
//! * [`stats`], [`report`], [`diff`] — medians and percentiles, metric
//!   lines and result files, run-set comparison against the bounds.
//! * [`spans`], [`traced`] — the benchmark's own spans and the traced
//!   run's decomposition.

pub mod calib;
pub mod client;
pub mod diff;
pub mod gen;
pub mod json;
pub mod model;
pub mod proc;
pub mod report;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
