//! # mspgemm-harness
//!
//! Benchmark methodology for the Masked SpGEMM reproduction (§7–8):
//!
//! * [`perfprofile`] — Dolan-Moré performance profiles (Figs 8/9/12/13/16);
//! * [`metrics`] — GFLOPS, MTEPS, repeat-and-take-best timing and the
//!   `MSPGEMM_*` environment knobs;
//! * [`threads`] — fixed-size rayon pools for strong scaling (Fig 11);
//! * [`runner`] — scheme × suite sweeps for the three applications;
//! * [`report`] — CSV / aligned-text emitters used by the `fig*` benches;
//! * [`ascii`] — the Fig 7 winner heat-map as a terminal grid.

#![warn(missing_docs)]

pub mod ascii;
pub mod metrics;
pub mod perfprofile;
pub mod report;
pub mod runner;
pub mod threads;

pub use metrics::{
    best_of, csr_fingerprint, entries_per_s, env_usize, env_usize_list, gflops, mb_per_s, mteps,
    time_best,
};
pub use perfprofile::{
    busy_spread, default_taus, performance_profile, BusySpread, PerfProfile, SchemeRuns,
};
pub use threads::{check_threads, scaling_thread_counts, with_threads, MAX_THREADS};
