//! Performance metrics matching the paper's y-axes: GFLOPS (Figs 10, 14),
//! MTEPS (Fig 15), and repeat-and-take-best timing.

use std::time::Instant;

/// GFLOPS: `flops / seconds / 1e9`. `flops` already includes the ×2
/// multiply-add convention (see `Csr::flops_with`).
pub fn gflops(flops: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    flops as f64 / seconds / 1e9
}

/// Millions of Traversed Edges Per Second, the Graph500/SSCA metric the
/// paper uses for BC (§8.4): `batch_size × num_edges / total_time`.
pub fn mteps(batch_size: usize, num_edges: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    (batch_size as f64) * (num_edges as f64) / seconds / 1e6
}

/// Ingest throughput in decimal megabytes per second — the dataset
/// cold-start metric the `mxm run` report and the ingest microbench
/// print.
pub fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    bytes as f64 / seconds / 1e6
}

/// FNV-1a fingerprint over a CSR's exact in-memory content: shape, row
/// pointers, column indices, and value bit patterns. Two matrices agree
/// on the fingerprint iff they are content-identical — independent of
/// how their sections are backed, so a heap-loaded and an mmap-backed
/// copy of the same matrix fingerprint identically. `mxm run` and the
/// serve protocol both report it and parity is checkable end to end
/// without shipping the matrix over the wire. Accepts `&Csr<f64>` or a
/// [`CsrRef`](mspgemm_sparse::CsrRef) view.
pub fn csr_fingerprint<'a>(a: impl Into<mspgemm_sparse::CsrRef<'a, f64>>) -> u64 {
    let a = a.into();
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&(a.nrows() as u64).to_le_bytes());
    eat(&(a.ncols() as u64).to_le_bytes());
    for &p in a.rowptr() {
        eat(&(p as u64).to_le_bytes());
    }
    for &c in a.colidx() {
        eat(&c.to_le_bytes());
    }
    for &v in a.values() {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

/// Ingest throughput in parsed entries per second (one coordinate line
/// of a `.mtx` file = one entry, before symmetric expansion).
pub fn entries_per_s(entries: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    entries as f64 / seconds
}

/// Call `f` exactly `reps` times, returning the minimum wall-clock
/// seconds (the standard noise-robust estimator) and the last result —
/// what `mxm run --reps` and the server's `mxm` verb report. The first
/// `Err` is returned at once, with the remaining reps not run. Each
/// rep's output is dropped before the next call, so at most one is
/// alive.
///
/// # Panics
/// If `reps` is 0.
pub fn best_of<T, E>(reps: usize, mut f: impl FnMut() -> Result<T, E>) -> Result<(f64, T), E> {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        drop(out.take());
        let t0 = Instant::now();
        out = Some(f()?);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok((best, out.expect("reps >= 1")))
}

/// One untimed call to warm up (it primes allocators, caches and
/// workspace pools), then [`best_of`]`(reps)`: a steady-state time, as
/// the benches, `mxm suite`'s runner and the examples compare schemes.
///
/// # Panics
/// If `reps` is 0.
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1);
    drop(f());
    let Ok(timed) = best_of(reps, || Ok::<T, std::convert::Infallible>(f()));
    timed
}

/// Read an environment variable as `usize` with a default — the knobs
/// (`MSPGEMM_SCALE`, `MSPGEMM_REPS`, …) that let the default bench runs
/// stay small while paper-scale runs are one variable away.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read an environment variable as a comma-separated list of positive
/// `usize`s with a default spec — the sweep knobs
/// (`MSPGEMM_INGEST_THREADS`, `MSPGEMM_SCHED_SCALES`, …).
///
/// # Panics
/// If the spec yields no usable entries (a silent empty sweep would look
/// like a passing bench).
pub fn env_usize_list(name: &str, default: &str) -> Vec<usize> {
    let spec = std::env::var(name).unwrap_or_else(|_| default.into());
    let list: Vec<usize> = spec
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .filter(|&t| t > 0)
        .collect();
    assert!(!list.is_empty(), "{name} has no usable entries: {spec:?}");
    list
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_math() {
        assert!((gflops(2_000_000_000, 1.0) - 2.0).abs() < 1e-12);
        assert!((gflops(1_000_000_000, 0.5) - 2.0).abs() < 1e-12);
        assert_eq!(gflops(100, 0.0), 0.0);
    }

    #[test]
    fn mteps_math() {
        // 512 sources × 1M edges in 2s = 256 MTEPS.
        assert!((mteps(512, 1_000_000, 2.0) - 256.0).abs() < 1e-9);
        assert_eq!(mteps(1, 1, 0.0), 0.0);
    }

    #[test]
    fn throughput_math() {
        assert!((mb_per_s(5_000_000, 2.0) - 2.5).abs() < 1e-12);
        assert_eq!(mb_per_s(100, 0.0), 0.0);
        assert!((entries_per_s(1_000_000, 0.5) - 2_000_000.0).abs() < 1e-6);
        assert_eq!(entries_per_s(100, 0.0), 0.0);
    }

    #[test]
    fn time_best_returns_min_and_result() {
        let mut calls = 0;
        let (secs, val) = time_best(3, || {
            calls += 1;
            42
        });
        assert_eq!(val, 42);
        assert_eq!(calls, 4, "warmup + reps");
        assert!(secs >= 0.0);
    }

    #[test]
    fn best_of_makes_exactly_reps_calls() {
        for reps in [1, 3] {
            let mut calls = 0;
            let (secs, val) = best_of(reps, || {
                calls += 1;
                Ok::<_, ()>(calls)
            })
            .unwrap();
            assert_eq!(calls, reps, "no warm-up");
            assert_eq!(val, reps, "the last call's output");
            assert!(secs >= 0.0);
        }
    }

    #[test]
    fn best_of_returns_the_minimum_time() {
        // Only the second of three calls is fast.
        let naps = [50, 1, 50];
        let mut i = 0;
        let (secs, ()) = best_of(3, || {
            std::thread::sleep(std::time::Duration::from_millis(naps[i]));
            i += 1;
            Ok::<_, ()>(())
        })
        .unwrap();
        assert!((0.001..0.05).contains(&secs), "{secs}");
    }

    #[test]
    fn best_of_stops_at_the_first_err() {
        let mut calls = 0;
        let err = best_of(5, || {
            calls += 1;
            if calls == 2 {
                Err(calls)
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!((err, calls), (2, 2));
    }

    #[test]
    #[should_panic(expected = "reps >= 1")]
    fn best_of_refuses_zero_reps() {
        let _ = best_of(0, || Ok::<_, ()>(()));
    }

    #[test]
    #[should_panic(expected = "reps >= 1")]
    fn time_best_refuses_zero_reps() {
        time_best(0, || ());
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        use mspgemm_sparse::Csr;
        let a = Csr::from_dense(&[vec![Some(1.0), None], vec![None, Some(2.0)]], 2);
        let b = Csr::from_dense(&[vec![Some(1.0), None], vec![None, Some(2.0)]], 2);
        assert_eq!(csr_fingerprint(&a), csr_fingerprint(&b));
        // A single value-bit flip changes the fingerprint.
        let c = Csr::from_dense(&[vec![Some(1.0), None], vec![None, Some(2.0 + 1e-15)]], 2);
        assert_ne!(csr_fingerprint(&a), csr_fingerprint(&c));
        // Same values, different position.
        let d = Csr::from_dense(&[vec![None, Some(1.0)], vec![Some(2.0), None]], 2);
        assert_ne!(csr_fingerprint(&a), csr_fingerprint(&d));
        // Same nnz layout, different shape padding.
        let e = Csr::<f64>::empty(2, 3);
        let f = Csr::<f64>::empty(3, 2);
        assert_ne!(csr_fingerprint(&e), csr_fingerprint(&f));
    }

    #[test]
    fn env_usize_fallback() {
        std::env::remove_var("MSPGEMM_TEST_KNOB_XYZ");
        assert_eq!(env_usize("MSPGEMM_TEST_KNOB_XYZ", 7), 7);
        std::env::set_var("MSPGEMM_TEST_KNOB_XYZ", "13");
        assert_eq!(env_usize("MSPGEMM_TEST_KNOB_XYZ", 7), 13);
        std::env::set_var("MSPGEMM_TEST_KNOB_XYZ", "not a number");
        assert_eq!(env_usize("MSPGEMM_TEST_KNOB_XYZ", 7), 7);
        std::env::remove_var("MSPGEMM_TEST_KNOB_XYZ");
    }
}
