//! Order statistics the reports are built from.

/// Samples needed before a p90 is reported: with fewer than 100 there
/// are not ten samples beyond it, and the "tail" is a handful of points.
pub const P90_MIN_SAMPLES: usize = 100;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank p90, only when at least [`P90_MIN_SAMPLES`] samples
/// stand behind it.
pub fn p90(values: &[f64]) -> Option<f64> {
    if values.len() < P90_MIN_SAMPLES {
        return None;
    }
    percentile(values, 0.9)
}

/// Nearest-rank percentile with no sample-count rule — for layer
/// timings that state their own count (`serve.tcp.ping_p99_us`).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default exclusive method) — the same rule the
/// accepting driver applies to ten runs. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound is judged against. `0` with fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&few), None);
        let enough: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(p90(&enough), Some(90.0), "ten samples lie beyond it");
        let more: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p90(&more), Some(900.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(198.0));
        assert_eq!(percentile(&v, 0.5), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
