//! Host-speed calibration for compute-bound workloads.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by a fifth over minutes (a busy sibling hyper-thread, a neighbour's
//! cache traffic). Measured on the two-core box this was written on:
//! `mxm run` processes timed back to back for ten minutes moved their
//! 20-second medians across a 20 % range, interquartile spread 7-10 %,
//! and small fixed loops timed between them moved in step — dividing by
//! a pointer chase's or a random gather's median left a spread of 2-4 %,
//! by a dependent multiply chain's 5-7 % (the drift is in the memory
//! system, which a register-only loop does not feel). No window a run
//! can afford averages minutes of drift out, so the workloads whose time
//! is compute (`run-sweep`, `serve-kernel`, `serve-update`) time this
//! fixed kernel once before every measured operation and report their
//! durations at the *nominal* host speed:
//! `measured / (median calibration sample / NOMINAL_MS)`. The raw medians
//! and the factor are printed next to the corrected ones.
//!
//! The kernel is what the masked-product kernels are made of, reduced to
//! two loops over an 8 MiB table (past any private cache): a dependent
//! pointer chase through a single-cycle permutation (load latency) and
//! independent random gathers scattered into a small accumulator (load
//! throughput, the hash/MSA access pattern). It runs on as many threads
//! as the program under test gets cores (at most two), so both cores'
//! state is sampled. It shares no code with `mxm`: nothing done to the
//! program can move it.

use crate::gen::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

/// What one [`Calibrator::sample`] reads on the machine the bounds in
/// `BENCHMARK.json` were calibrated on while its host is quiet,
/// milliseconds. Corrected durations read as if the host ran at this
/// speed throughout.
pub const NOMINAL_MS: f64 = 6.0;

/// Entries of the pointer-chase permutation (`u32` each: 8 MiB).
const CHAIN_LEN: usize = 1 << 21;
/// Dependent loads per sample and thread.
const CHASE_STEPS: usize = 50_000;
/// Independent gather-and-accumulate steps per sample and thread.
const GATHER_STEPS: usize = 400_000;
/// Slots of the accumulator the gathers scatter into (`u32` each:
/// 256 KiB, an L2-resident hash table's worth).
const ACC_SLOTS: usize = 1 << 16;
/// Threads the calibration never exceeds (the benchmark's load limit).
const MAX_THREADS: usize = 2;

/// The fixed kernel, built once per run.
pub struct Calibrator {
    chain: Vec<u32>,
    threads: usize,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // Sattolo's shuffle: a permutation that is one cycle, so a chase
        // of any length never settles into a short cached loop. The seed
        // is fixed — the kernel is the same in every run.
        let mut chain: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        let mut rng = SplitMix64::new(0xCA11_B8A7E);
        for i in (1..CHAIN_LEN).rev() {
            let j = rng.below(i as u64) as usize;
            chain.swap(i, j);
        }
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(MAX_THREADS);
        Calibrator { chain, threads }
    }

    fn kernel(&self, start: usize) -> f64 {
        let t0 = Instant::now();
        let mut at = start;
        for _ in 0..CHASE_STEPS {
            at = self.chain[at] as usize;
        }
        let mut acc = vec![0u32; ACC_SLOTS];
        let mut x = at as u64 | 1;
        for _ in 0..GATHER_STEPS {
            // xorshift64: the next index never waits for a load.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = self.chain[x as usize % CHAIN_LEN];
            let slot = (v as usize ^ (x >> 40) as usize) % ACC_SLOTS;
            acc[slot] = acc[slot].wrapping_add(v);
        }
        black_box(&acc);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Run the kernel twice on every thread at the same moment and time
    /// the second pass; the mean of the threads' walls, milliseconds. The
    /// first pass makes the sample independent of what ran before it: the
    /// op just measured has emptied the private caches and the TLB, and a
    /// lone cold pass read 1.7x a warm one.
    pub fn sample(&self) -> f64 {
        let walls: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|t| {
                    scope.spawn(move || {
                        let start = t * (CHAIN_LEN / MAX_THREADS);
                        self.kernel(start);
                        self.kernel(start)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the kernel does not panic"))
                .collect()
        });
        walls.iter().sum::<f64>() / walls.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_a_single_cycle() {
        let c = Calibrator::new();
        let mut at = 0usize;
        let mut steps = 0usize;
        loop {
            at = c.chain[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHAIN_LEN);
    }

    #[test]
    fn a_sample_is_a_positive_time() {
        let ms = Calibrator::new().sample();
        assert!(ms > 0.0 && ms.is_finite());
    }
}
