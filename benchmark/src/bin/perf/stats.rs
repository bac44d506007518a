//! Order statistics for repetition timings.

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of `xs` (nearest rank, `q` in 0..=1).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the ladder p50…p99.99 that still has at
/// least ten of `n` samples beyond it, as `(label, q)`; `None` when not
/// even the median does. A tail percentile with fewer samples beyond it
/// is one or two outliers, not a statistic.
pub fn resolvable_tail(n: usize) -> Option<(&'static str, f64)> {
    // Basis points, so "ten beyond" is exact integer arithmetic.
    const LADDER: [(&str, usize); 6] = [
        ("p99.99", 9_999),
        ("p99.9", 9_990),
        ("p99", 9_900),
        ("p95", 9_500),
        ("p90", 9_000),
        ("p50", 5_000),
    ];
    LADDER
        .into_iter()
        .find(|&(_, bp)| n * (10_000 - bp) / 10_000 >= 10)
        .map(|(label, bp)| (label, bp as f64 / 10_000.0))
}

/// Inter-quartile range ÷ median, the quartiles as Python's
/// `statistics.quantiles(xs, n=4)` gives them — the spread the driver
/// holds a metric's bound against. 0 for fewer than two samples.
pub fn iqr_over_median(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = (k * (v.len() + 1)) as f64 / 4.0;
        let below = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - below as f64;
        v[below - 1] + (v[below] - v[below - 1]) * frac
    };
    (quartile(3) - quartile(1)) / median(xs)
}

/// `(min ÷ median, max ÷ median)` — the run's own range.
pub fn spread(xs: &[f64]) -> (f64, f64) {
    let m = median(xs);
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (lo / m, hi / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn resolvable_tail_needs_ten_samples_beyond() {
        assert_eq!(resolvable_tail(7), None);
        assert_eq!(resolvable_tail(19), None);
        assert_eq!(resolvable_tail(20), Some(("p50", 0.50)));
        assert_eq!(resolvable_tail(48), Some(("p50", 0.50)));
        assert_eq!(resolvable_tail(100), Some(("p90", 0.90)));
        assert_eq!(resolvable_tail(999), Some(("p95", 0.95)));
        assert_eq!(resolvable_tail(1_000), Some(("p99", 0.99)));
        assert_eq!(resolvable_tail(50_000), Some(("p99.9", 0.999)));
        assert_eq!(resolvable_tail(100_000), Some(("p99.99", 0.9999)));
    }

    #[test]
    fn iqr_matches_the_exclusive_quartile_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&xs) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_over_median(&[4.0, 1.0, 2.0]) - 3.0 / 2.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[3.0]), 0.0);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        assert_eq!(spread(&[9.0, 10.0, 12.0]), (0.9, 1.2));
    }
}
