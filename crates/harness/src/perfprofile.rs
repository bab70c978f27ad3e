//! Dolan-Moré performance profiles \[20\] — the paper's primary comparison
//! device (Figs 8, 9, 12, 13, 16). A point `(x, y)` on a scheme's curve
//! means: on a fraction `y` of the test cases, the scheme's runtime was
//! within a factor `x` of the best scheme for that case.
//!
//! Also home to the per-thread **busy-time spread** ([`BusySpread`]): the
//! max/mean figure over per-thread busy seconds that quantifies how well a
//! row partition balanced the load (1.0 = perfect; one equal-row block per
//! thread on a skewed input approaches the thread count).

/// One scheme's runtimes across a common set of test cases.
#[derive(Clone, Debug)]
pub struct SchemeRuns {
    /// Scheme label (e.g. `MSA-1P`).
    pub name: String,
    /// Runtime (seconds) per test case; `None` = did not run / timed out.
    pub seconds: Vec<Option<f64>>,
}

/// A performance profile: for each scheme, the fraction of cases within
/// each ratio-to-best threshold.
pub struct PerfProfile {
    /// Ratio thresholds (the x axis), ascending, starting at 1.0.
    pub taus: Vec<f64>,
    /// `(name, fraction-within-tau per tau)` per scheme.
    pub curves: Vec<(String, Vec<f64>)>,
}

/// Build a profile from per-case runtimes.
///
/// For each case, the best time over all schemes that ran defines ratio 1;
/// a scheme absent on a case never counts as "within" any threshold.
/// Panics if schemes disagree on the case count or no case has any run.
pub fn performance_profile(runs: &[SchemeRuns], taus: &[f64]) -> PerfProfile {
    assert!(!runs.is_empty(), "no schemes");
    let ncases = runs[0].seconds.len();
    assert!(
        runs.iter().all(|r| r.seconds.len() == ncases),
        "ragged case counts"
    );
    assert!(ncases > 0, "no test cases");
    // Best time per case.
    let best: Vec<f64> = (0..ncases)
        .map(|c| {
            runs.iter()
                .filter_map(|r| r.seconds[c])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let curves = runs
        .iter()
        .map(|r| {
            let fractions = taus
                .iter()
                .map(|&tau| {
                    let within = (0..ncases)
                        .filter(|&c| {
                            best[c].is_finite()
                                && r.seconds[c].is_some_and(|t| t <= tau * best[c] * (1.0 + 1e-12))
                        })
                        .count();
                    within as f64 / ncases as f64
                })
                .collect();
            (r.name.clone(), fractions)
        })
        .collect();
    PerfProfile {
        taus: taus.to_vec(),
        curves,
    }
}

/// Load-imbalance summary over per-thread busy seconds.
#[derive(Clone, Copy, Debug)]
pub struct BusySpread {
    /// Threads that recorded any busy time.
    pub threads: usize,
    /// Busiest thread's seconds.
    pub max: f64,
    /// Mean busy seconds across participating threads.
    pub mean: f64,
}

impl BusySpread {
    /// `max / mean` — 1.0 is perfectly balanced; the wall-clock cost of
    /// imbalance, since the drive ends when the busiest thread does.
    pub fn ratio(&self) -> f64 {
        if self.mean > 0.0 {
            self.max / self.mean
        } else {
            1.0
        }
    }
}

/// Summarize per-thread busy seconds (e.g. from
/// `masked_spgemm::ExecStats::busy_seconds`) into a [`BusySpread`].
/// Returns `None` when nothing was recorded.
pub fn busy_spread(busy: &[f64]) -> Option<BusySpread> {
    if busy.is_empty() {
        return None;
    }
    let max = busy.iter().copied().fold(0.0f64, f64::max);
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    Some(BusySpread {
        threads: busy.len(),
        max,
        mean,
    })
}

/// The x-axis the paper plots: 1.0 to `max` in steps of `step`.
pub fn default_taus(max: f64, step: f64) -> Vec<f64> {
    let mut taus = Vec::new();
    let mut t = 1.0;
    while t <= max + 1e-9 {
        taus.push(t);
        t += step;
    }
    taus
}

impl PerfProfile {
    /// Render as CSV: `tau, scheme1, scheme2, ...` — the series the paper
    /// plots.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("tau");
        for (name, _) in &self.curves {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (i, tau) in self.taus.iter().enumerate() {
            out.push_str(&format!("{tau:.2}"));
            for (_, fr) in &self.curves {
                out.push_str(&format!(",{:.4}", fr[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Fraction of cases where `name` is (tied-)best — its y-intercept at
    /// τ = 1.
    pub fn best_fraction(&self, name: &str) -> Option<f64> {
        self.curves
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, fr)| fr[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs() -> Vec<SchemeRuns> {
        vec![
            // fast on case 0 and 1, slow on 2
            SchemeRuns {
                name: "A".into(),
                seconds: vec![Some(1.0), Some(2.0), Some(9.0)],
            },
            // best on case 2, 2x on the others
            SchemeRuns {
                name: "B".into(),
                seconds: vec![Some(2.0), Some(4.0), Some(3.0)],
            },
            // missing on case 0
            SchemeRuns {
                name: "C".into(),
                seconds: vec![None, Some(2.0), Some(6.0)],
            },
        ]
    }

    #[test]
    fn fractions_at_tau_one() {
        let p = performance_profile(&runs(), &[1.0]);
        // A best on cases 0 and 1 (tie with C on 1); B best on case 2.
        assert_eq!(p.best_fraction("A"), Some(2.0 / 3.0));
        assert_eq!(p.best_fraction("B"), Some(1.0 / 3.0));
        assert_eq!(p.best_fraction("C"), Some(1.0 / 3.0));
    }

    #[test]
    fn fractions_grow_monotonically() {
        let p = performance_profile(&runs(), &default_taus(4.0, 0.5));
        for (name, fr) in &p.curves {
            for w in fr.windows(2) {
                assert!(w[0] <= w[1] + 1e-12, "{name} profile not monotone");
            }
        }
    }

    #[test]
    fn everything_within_large_tau_except_missing() {
        let p = performance_profile(&runs(), &[100.0]);
        assert_eq!(p.best_fraction("A"), None.or(Some(1.0)));
        // C missed case 0 entirely: caps at 2/3.
        let c = p.curves.iter().find(|(n, _)| n == "C").unwrap();
        assert!((c.1[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn csv_shape() {
        let p = performance_profile(&runs(), &default_taus(2.0, 0.2));
        let csv = p.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines[0], "tau,A,B,C");
        assert_eq!(lines.len(), 1 + p.taus.len());
    }

    #[test]
    fn default_taus_spacing() {
        let t = default_taus(2.4, 0.2);
        assert_eq!(t.len(), 8);
        assert!((t[0] - 1.0).abs() < 1e-12);
        assert!((t[7] - 2.4).abs() < 1e-9);
    }

    #[test]
    fn busy_spread_ratio() {
        assert!(busy_spread(&[]).is_none());
        let s = busy_spread(&[4.0, 1.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.threads, 4);
        assert!((s.max - 4.0).abs() < 1e-12);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.ratio() - 2.0).abs() < 1e-12);
        // Perfect balance.
        let s = busy_spread(&[3.0, 3.0]).unwrap();
        assert!((s.ratio() - 1.0).abs() < 1e-12);
        // Degenerate all-zero recording.
        let s = busy_spread(&[0.0]).unwrap();
        assert!((s.ratio() - 1.0).abs() < 1e-12);
    }
}
