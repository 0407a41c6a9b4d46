//! HDR-style log-linear histogram.
//!
//! The paper's headline metric is latency at the 99.99th percentile. To
//! report that faithfully over 24,000+ samples we need a histogram with
//! bounded *relative* error across many orders of magnitude — the design
//! popularized by HdrHistogram. Values are bucketed log-linearly: buckets
//! double in width, and each bucket is split into `1 << precision_bits`
//! equal sub-buckets, giving a worst-case relative error of
//! `2^-precision_bits`.
//!
//! The implementation is single-writer; the engine keeps one histogram per
//! measured stream and merges them at report time.

/// Log-linear histogram of `u64` values (typically nanoseconds).
/// Equality is exact (bucket-for-bucket) — used by tests asserting that
/// observers off the virtual timeline cannot move a single sample.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of sub-bucket index bits: relative error is `2^-bits`.
    precision_bits: u32,
    /// `1 << precision_bits`.
    sub_buckets: u64,
    counts: Vec<u64>,
    total: u64,
    max: u64,
    min: u64,
    sum: u128,
}

impl Histogram {
    /// Create a histogram with the given precision (3..=8 bits; 7 bits gives
    /// < 1% relative error, plenty for latency percentiles).
    pub fn new(precision_bits: u32) -> Self {
        assert!(
            (3..=8).contains(&precision_bits),
            "precision must be 3..=8 bits"
        );
        let sub_buckets = 1u64 << precision_bits;
        // 64 value magnitudes, each with `sub_buckets` slots, is enough to
        // cover the full u64 range.
        let slots = (64 - precision_bits as usize + 1) * sub_buckets as usize;
        Histogram {
            precision_bits,
            sub_buckets,
            counts: vec![0; slots],
            total: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    /// Default latency histogram: 7 precision bits (< 1% error).
    pub fn latency() -> Self {
        Self::new(7)
    }

    #[inline]
    fn index_of(&self, value: u64) -> usize {
        let v = value.max(1);
        let magnitude = 63 - v.leading_zeros() as u64; // floor(log2(v))
        if magnitude < self.precision_bits as u64 {
            // Values small enough to be exact.
            v as usize
        } else {
            let shift = magnitude - self.precision_bits as u64;
            let sub = v >> shift; // in [sub_buckets, 2*sub_buckets)
            let bucket = magnitude - self.precision_bits as u64 + 1;
            (bucket * self.sub_buckets + (sub - self.sub_buckets)) as usize
        }
    }

    /// Lowest value that maps to slot `idx` (inverse of `index_of`).
    fn value_of(&self, idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < self.sub_buckets {
            idx
        } else {
            let bucket = idx / self.sub_buckets;
            let sub = idx % self.sub_buckets + self.sub_buckets;
            sub << (bucket - 1)
        }
    }

    /// Highest value that maps to slot `idx` (saturating at `u64::MAX`).
    fn slot_high(&self, idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < self.sub_buckets {
            idx
        } else {
            let bucket = idx / self.sub_buckets;
            let sub = (idx % self.sub_buckets + self.sub_buckets) as u128;
            let high = ((sub + 1) << (bucket - 1)) - 1;
            high.min(u64::MAX as u128) as u64
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let idx = self.index_of(value);
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
        if value > self.max {
            self.max = value;
        }
        if value < self.min {
            self.min = value;
        }
    }

    /// Record `count` observations of the same value.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let idx = self.index_of(value);
        self.counts[idx] += count;
        self.total += count;
        self.sum += value as u128 * count as u128;
        if value > self.max {
            self.max = value;
        }
        if value < self.min {
            self.min = value;
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact maximum recorded value (0 if empty).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Arithmetic mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`. Returns the mid-point of the
    /// bucket holding the q-th observation (clamped into the recorded
    /// `[min, max]` range), so the estimate is off by at most *half* the
    /// bucket width in either direction. Buckets below `sub_buckets` hold a
    /// single value, so small values are still reported exactly.
    ///
    /// Returning the bucket's upper bound instead (the previous behaviour)
    /// systematically over-reported sparse extreme quantiles: a p99.99 that
    /// lands in a near-empty high bucket snapped to the bucket ceiling, a
    /// one-sided error of up to the full bucket relative error.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let low = self.value_of(idx);
                let high = self.slot_high(idx);
                let mid = low + (high - low) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Shorthand for the percentiles the paper reports.
    pub fn percentile(&self, p: f64) -> u64 {
        self.value_at_quantile(p / 100.0)
    }

    /// Merge another histogram (must have identical precision) into this one.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.precision_bits, other.precision_bits,
            "cannot merge histograms of different precision"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Reset all recorded data, keeping the configuration.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.max = 0;
        self.min = u64::MAX;
        self.sum = 0;
    }

    /// Iterate `(bucket_low_value, count)` over non-empty buckets.
    pub fn iter_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(move |(i, &c)| (self.value_of(i), c))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.total)
            .field("min", &self.min())
            .field("max", &self.max())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("p99.99", &self.percentile(99.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::latency();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.99), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new(7);
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.count(), 128);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 127);
        // The 64th observation (rank ceil(0.5*128)) is the value 63.
        assert_eq!(h.value_at_quantile(0.5), 63);
    }

    #[test]
    fn single_value_percentiles() {
        let mut h = Histogram::latency();
        h.record(1_000_000);
        for p in [0.0, 50.0, 99.0, 99.99, 100.0] {
            let v = h.percentile(p);
            assert!(relative_err(v, 1_000_000) < 0.01, "p{p}: {v}");
        }
    }

    #[test]
    fn relative_error_bound_holds() {
        let mut h = Histogram::new(7);
        let values: Vec<u64> = (0..10_000).map(|i| 1 + i * 7919).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9] {
            let exact = sorted
                [((p / 100.0 * sorted.len() as f64).ceil() as usize - 1).min(sorted.len() - 1)];
            let est = h.percentile(p);
            assert!(
                relative_err(est, exact) < 0.01,
                "p{p}: est {est} exact {exact}"
            );
        }
    }

    #[test]
    fn extreme_quantiles_interpolate_not_snap() {
        // Regression: p99.99 on a sparse high bucket used to snap to the
        // bucket *upper* bound. With mid-point interpolation the estimate
        // must stay within half a bucket (2^-(bits+1) relative error) of the
        // exact order statistic, in BOTH directions.
        let mut h = Histogram::new(7);
        let values: Vec<u64> = (0..100_000u64).map(|i| 10_000 + i * 131).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for p in [99.0, 99.9, 99.99, 99.999] {
            let exact = sorted
                [((p / 100.0 * sorted.len() as f64).ceil() as usize - 1).min(sorted.len() - 1)];
            let est = h.percentile(p);
            assert!(
                relative_err(est, exact) < 1.0 / 256.0 + 1e-9,
                "p{p}: est {est} exact {exact} err {}",
                relative_err(est, exact)
            );
        }
        // A lone outlier in an otherwise-empty high bucket: the estimate for
        // the top quantile must not exceed the recorded max (exactness at the
        // extremes), nor round up to the bucket ceiling above it.
        let mut sparse = Histogram::new(7);
        for _ in 0..9_998 {
            sparse.record(1_000_000);
        }
        sparse.record(400_000_001); // sole occupant of a ~2.1 ms-wide bucket
                                    // 9_999 samples total: rank ceil(0.9999 * 9999) = 9999 is the outlier.
        let est = sparse.percentile(99.99);
        assert!(est <= 400_000_001, "p99.99 {est} over-reports lone max");
        assert!(
            relative_err(est, 400_000_001) < 1.0 / 256.0 + 1e-9,
            "p99.99 {est} not within half-bucket of exact 400000001"
        );
    }

    #[test]
    fn max_is_exact_not_bucketed() {
        let mut h = Histogram::new(3);
        h.record(1_000_003);
        assert_eq!(h.max(), 1_000_003);
        assert!(h.percentile(100.0) <= 1_000_003);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new(7);
        let mut b = Histogram::new(7);
        let mut both = Histogram::new(7);
        for i in 0..1000u64 {
            let v = i * i + 17;
            if i.is_multiple_of(2) {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.min(), both.min());
        for p in [10.0, 50.0, 99.0] {
            assert_eq!(a.percentile(p), both.percentile(p));
        }
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new(5);
        let mut b = Histogram::new(5);
        a.record_n(12345, 10);
        for _ in 0..10 {
            b.record(12345);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.percentile(50.0), b.percentile(50.0));
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::latency();
        h.record(5);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_mismatched_precision_panics() {
        let mut a = Histogram::new(5);
        let b = Histogram::new(7);
        a.merge(&b);
    }

    #[test]
    fn huge_values_do_not_overflow() {
        let mut h = Histogram::new(7);
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) >= u64::MAX / 2);
    }

    fn relative_err(a: u64, b: u64) -> f64 {
        let (a, b) = (a as f64, b as f64);
        (a - b).abs() / b.max(1.0)
    }
}
