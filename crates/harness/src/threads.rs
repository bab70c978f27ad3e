//! Fixed-size rayon pools for the strong-scaling experiment (Fig 11) and
//! the `MSPGEMM_THREADS` pinning knob (the paper pins with
//! `GOMP_CPU_AFFINITY`; rayon pools give the equivalent isolation).

/// Ceiling on a dedicated pool's size wherever the size comes from
/// outside the program (`mxm run`/`suite --threads`, a serve request's
/// `"threads"`): every parallel drive fans out that wide, and a real
/// rayon pool spawns that many OS threads, so an absurd request must not
/// translate into an absurd thread count.
pub const MAX_THREADS: usize = 256;

/// Check a requested dedicated-pool size (`0` = the ambient pool) against
/// [`MAX_THREADS`]. The error text is shared by the CLI and the server.
pub fn check_threads(threads: usize) -> Result<usize, String> {
    if threads > MAX_THREADS {
        return Err(format!(
            "threads must be at most {MAX_THREADS}, got {threads}"
        ));
    }
    Ok(threads)
}

/// Run `f` inside a dedicated pool of exactly `threads` workers.
pub fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon pool");
    pool.install(f)
}

/// The thread counts to sweep for strong scaling: 1, 2, 4, … up to the
/// machine (or `MSPGEMM_THREADS`), always including the maximum.
pub fn scaling_thread_counts() -> Vec<usize> {
    let max = crate::metrics::env_usize("MSPGEMM_THREADS", num_cpus());
    let mut counts = Vec::new();
    let mut t = 1usize;
    while t < max {
        counts.push(t);
        t *= 2;
    }
    counts.push(max);
    counts.dedup();
    counts
}

/// Available logical CPUs (rayon's default parallelism).
pub fn num_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn with_threads_uses_exactly_n() {
        let seen = with_threads(3, rayon::current_num_threads);
        assert_eq!(seen, 3);
    }

    #[test]
    fn check_threads_bounds_the_pool_size() {
        assert_eq!(check_threads(0), Ok(0));
        assert_eq!(check_threads(MAX_THREADS), Ok(MAX_THREADS));
        let err = check_threads(100_000).unwrap_err();
        assert_eq!(err, "threads must be at most 256, got 100000");
    }

    #[test]
    fn with_threads_runs_parallel_work() {
        let sum: u64 = with_threads(2, || (0..1000u64).into_par_iter().sum());
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn scaling_counts_are_increasing_and_end_at_max() {
        let counts = scaling_thread_counts();
        assert!(!counts.is_empty());
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*counts.first().unwrap(), 1);
    }
}
