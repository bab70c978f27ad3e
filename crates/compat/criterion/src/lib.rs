//! Offline stand-in for [criterion](https://crates.io/crates/criterion).
//!
//! Provides the API the workspace's microbenchmarks use — [`Criterion`],
//! `benchmark_group`, `sample_size`, `bench_with_input`, [`Bencher::
//! iter`], [`BenchmarkId::new`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros, nothing they do not
//! call — with a simple median-of-samples timing
//! loop instead of criterion's statistical machinery. Good enough to spot
//! order-of-magnitude regressions by eye; not a statistics package.

#![warn(missing_docs)]

use std::time::Instant;

pub use std::hint::black_box;

/// An identifier combining a function name and a parameter label.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
    parameter: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: name.into(),
            parameter: parameter.to_string(),
        }
    }

    fn label(&self) -> String {
        format!("{}/{}", self.name, self.parameter)
    }
}

/// Runs one benchmark's timing loop.
pub struct Bencher {
    samples: usize,
    /// Median seconds per iteration, filled by [`Bencher::iter`].
    last_estimate: f64,
}

impl Bencher {
    /// Time `f`, storing the median per-iteration seconds.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        black_box(f()); // warm-up
        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed().as_secs_f64());
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.last_estimate = times[times.len() / 2];
    }
}

fn human(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmark `f` with an input reference.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: self.sample_size,
            last_estimate: f64::NAN,
        };
        f(&mut b, input);
        println!(
            "{}/{}: {} /iter (median of {})",
            self.name,
            id.label(),
            human(b.last_estimate),
            self.sample_size
        );
        self
    }

    /// End the group (printing is immediate in this shim; kept for API
    /// compatibility).
    pub fn finish(&mut self) {}
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Fresh driver with default settings.
    pub fn new() -> Self {
        Criterion {}
    }

    /// Open a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            _parent: self,
        }
    }
}

/// Define a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::new();
            $($target(&mut c);)+
        }
    };
}

/// Define `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_times_a_closure() {
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("demo");
        g.sample_size(3);
        let mut ran = 0u32;
        g.bench_with_input(BenchmarkId::new("inc", 1), &5u64, |b, &x| {
            b.iter(|| {
                ran += 1;
                x + 1
            })
        });
        g.finish();
        assert!(ran >= 3, "closure must run at least sample_size times");
    }

    #[test]
    fn human_units() {
        assert!(human(2.0).ends_with(" s"));
        assert!(human(2e-3).ends_with(" ms"));
        assert!(human(2e-6).ends_with(" µs"));
        assert!(human(2e-9).ends_with(" ns"));
    }
}
