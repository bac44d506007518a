//! Statistics collectors used by the simulators.
//!
//! Simulations run for millions of cell cycles, so per-sample storage is
//! avoided: means and variances use Welford's online algorithm, and latency
//! distributions use fixed-width histograms with an overflow bucket from
//! which quantiles are interpolated.

/// Online mean/variance accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation; +inf if empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; -inf if empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-width histogram over `[0, width × buckets)` with an overflow bucket.
///
/// Used for latencies measured in slots or nanoseconds. Quantiles are
/// linearly interpolated within the containing bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// Histogram with `buckets` bins of `width` each. Panics on zero/negative
    /// width or zero buckets.
    pub fn new(width: f64, buckets: usize) -> Self {
        assert!(width > 0.0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
            sum: 0.0,
        }
    }

    /// Record one observation (negative values and NaN clamp into bucket
    /// 0).
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        self.sum += x;
        // The cast truncates toward zero and saturates (NaN becomes 0),
        // so it is `floor` on every index that names a bucket, with no
        // libm call on a per-cell path.
        match self.counts.get_mut((x / self.width) as usize) {
            Some(count) => *count += 1,
            None => self.overflow += 1,
        }
    }

    /// Reconstruct a histogram from its raw parts (checkpoint restore).
    /// Panics on the same invalid shapes as [`Histogram::new`].
    pub fn from_parts(width: f64, counts: Vec<u64>, overflow: u64, total: u64, sum: f64) -> Self {
        assert!(width > 0.0, "bucket width must be positive");
        assert!(!counts.is_empty(), "need at least one bucket");
        Histogram {
            width,
            counts,
            overflow,
            total,
            sum,
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The bucket width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Exact running sum of all recorded observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all recorded observations (exact, not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Count in the overflow bucket.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// The per-bucket counts (excluding overflow), for digesting and
    /// export.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// q-quantile (0 ≤ q ≤ 1), interpolated within the containing bucket.
    /// Returns `None` when empty or when the quantile falls in overflow.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if next >= target {
                let within = (target - cum) as f64 / c as f64;
                return Some((i as f64 + within) * self.width);
            }
            cum = next;
        }
        None // falls into the overflow bucket
    }

    /// Merge another histogram (must have identical geometry).
    #[expect(
        clippy::float_cmp,
        reason = "histograms merge only when built with the same width, bit for bit"
    )]
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "histogram width mismatch");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin values exact to the bit")]
mod tests {
    use super::*;

    #[test]
    fn welford_basic_moments() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4 → sample variance is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_empty_is_safe() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn welford_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..33] {
            a.add(x);
        }
        for &x in &xs[33..] {
            b.add(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.add(3.0);
        let b = Welford::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 3.0);
    }

    #[test]
    fn histogram_records_and_means() {
        let mut h = Histogram::new(1.0, 10);
        for x in [0.5, 1.5, 1.6, 2.5] {
            h.record(x);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 1.525).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut h = Histogram::new(1.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 50.0).abs() <= 1.0, "median {med}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 99.0).abs() <= 1.0, "p99 {p99}");
    }

    #[test]
    fn histogram_overflow() {
        let mut h = Histogram::new(1.0, 4);
        h.record(100.0);
        assert_eq!(h.overflow_count(), 1);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_negative_clamps_to_zero_bucket() {
        let mut h = Histogram::new(1.0, 4);
        h.record(-3.0);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(1.0).unwrap() <= 1.0);
    }

    #[test]
    fn histogram_empty_quantile_none() {
        let h = Histogram::new(1.0, 4);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn histogram_buckets_match_the_floor_formula() {
        // The bucket rule the cast replaced: floor, negatives into 0.
        let floored = |x: f64, width: f64, buckets: usize| {
            let idx = (x / width).floor();
            if idx < 0.0 {
                Some(0)
            } else {
                Some(idx as usize).filter(|&i| i < buckets)
            }
        };
        let width = 0.5;
        let edges = (0..=9).map(|i| i as f64 * width);
        let nudged = edges.clone().flat_map(|e| [e.next_down(), e.next_up()]);
        let odd = [-0.0, -0.3, -7.5, f64::NAN];
        let past = [4.2, 1e300, f64::MAX, f64::INFINITY, f64::NEG_INFINITY];
        for x in edges.chain(nudged).chain(odd).chain(past) {
            let mut h = Histogram::new(width, 8);
            h.record(x);
            let bucket = h.bucket_counts().iter().position(|&c| c == 1);
            assert_eq!(bucket, floored(x, width, 8), "{x}");
            assert_eq!(h.overflow_count(), u64::from(bucket.is_none()), "{x}");
        }
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(2.0, 8);
        let mut b = Histogram::new(2.0, 8);
        a.record(1.0);
        b.record(3.0);
        b.record(100.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.overflow_count(), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn histogram_merge_geometry_checked() {
        let mut a = Histogram::new(1.0, 8);
        let b = Histogram::new(2.0, 8);
        a.merge(&b);
    }
}
