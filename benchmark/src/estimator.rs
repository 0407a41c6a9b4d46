//! The latency estimator: per-epoch histograms by differencing cumulative
//! snapshots, interpolated percentiles, and the quiet epochs.
//!
//! A paced phase is cut into short epochs. At every epoch boundary the main
//! thread copies the sink's cumulative histogram; an epoch's own histogram
//! is the bucket-count difference of two consecutive copies. Each latency
//! metric is a **low quantile over epochs of that epoch's percentile**: the
//! value only the quietest twentieth of the epochs stay below. Host noise — a
//! preemption, a busy sibling core, a slow stretch of the whole machine —
//! only ever adds latency, and it comes and goes; what the engine itself
//! costs (a 10 ms slide burst, a state snapshot) is in every epoch and so is in
//! the quiet ones too. The single quietest epoch would reject the host as
//! well, but where an epoch holds fewer samples than the percentile needs its
//! tail is one sample, and the minimum of 75 such maxima is an extreme of
//! extremes. README.md has the measured spreads of the alternatives.
//!
//! Of an epoch only its sample count and a few percentiles are kept
//! ([`Epoch`]), so a run can hold a thousand epochs.

use jet_util::Histogram;

/// Sub-bucket bits of [`Histogram::latency`], the histogram `LatencySink`
/// records into. Needed to recover a bucket's width from its low bound
/// (`iter_buckets` yields only the low bound); pinned by a test below.
const LATENCY_PRECISION_BITS: u32 = 7;

/// Width of the latency-histogram bucket whose lowest value is `low`.
fn bucket_width(low: u64) -> u64 {
    if low < (1 << LATENCY_PRECISION_BITS) {
        1
    } else {
        1 << (63 - low.leading_zeros() - LATENCY_PRECISION_BITS)
    }
}

/// `later - earlier`, bucket by bucket. Both must be snapshots of the same
/// never-cleared histogram, `earlier` taken first.
pub fn epoch_diff(later: &Histogram, earlier: &Histogram) -> Histogram {
    let mut out = Histogram::latency();
    let mut old = earlier.iter_buckets().peekable();
    for (low, count) in later.iter_buckets() {
        let mut before = 0;
        while let Some(&(old_low, old_count)) = old.peek() {
            if old_low > low {
                break;
            }
            if old_low == low {
                before = old_count;
            }
            old.next();
        }
        out.record_n(low, count - before);
    }
    out
}

/// Value at quantile `q` of `h`, interpolated linearly inside the bucket
/// that holds the rank, in the histogram's unit (nanoseconds). Interpolation
/// keeps the estimate continuous: two epochs whose p50 falls in the same
/// bucket still differ by where in the bucket the rank lands.
pub fn quantile_ns(h: &Histogram, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut seen = 0u64;
    let mut last = 0.0;
    for (low, count) in h.iter_buckets() {
        let width = bucket_width(low) as f64;
        if (seen + count) as f64 >= rank {
            let inside = (rank - seen as f64) / count as f64;
            return low as f64 + width * inside;
        }
        seen += count;
        last = low as f64 + width;
    }
    last
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The percentiles kept of every epoch.
pub const KEPT: [f64; 4] = [0.5, 0.99, 0.999, 0.9999];

/// What is kept of one epoch: its sample count and its [`KEPT`] percentiles.
/// 40 bytes where the epoch's histogram is 59 kB, so that the epochs of a
/// run do not show in the `peak_rss_mb` of the workload they measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Epoch {
    pub count: u64,
    ns: [f64; 4],
}

impl Epoch {
    pub fn of(h: &Histogram) -> Epoch {
        Epoch {
            count: h.count(),
            ns: KEPT.map(|q| quantile_ns(h, q)),
        }
    }

    /// The epoch's `q`-quantile in nanoseconds; `q` must be one of [`KEPT`].
    pub fn at(&self, q: f64) -> f64 {
        let kept = KEPT.iter().position(|k| *k == q);
        self.ns[kept.expect("a kept percentile")]
    }
}

/// Share of the epochs the estimate leaves below itself.
const QUIET_SHARE: f64 = 0.05;

/// The estimator: the [`QUIET_SHARE`] quantile over `epochs` of each epoch's
/// `q`-quantile (interpolated between neighbours; the minimum when there are
/// too few epochs for anything else).
pub fn quiet_epochs_quantile_ns(epochs: &[Epoch], q: f64) -> f64 {
    assert!(!epochs.is_empty(), "no epochs");
    let mut per_epoch: Vec<f64> = epochs.iter().map(|e| e.at(q)).collect();
    per_epoch.sort_by(f64::total_cmp);
    let rank = QUIET_SHARE * (per_epoch.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = (below + 1).min(per_epoch.len() - 1);
    per_epoch[below] + (per_epoch[above] - per_epoch[below]) * rank.fract()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The epochs between consecutive cumulative snapshots.
    fn epochs_of(snapshots: &[Histogram]) -> Vec<Epoch> {
        snapshots
            .windows(2)
            .map(|pair| Epoch::of(&epoch_diff(&pair[1], &pair[0])))
            .collect()
    }

    /// 25 cumulative snapshots + the initial empty one: every epoch gets
    /// 100k samples near 1 ms; epochs in `spiked` also get 500 at 30 ms
    /// (0.5 % of the epoch, so they own its p99.99 — and, from three epochs
    /// on, the p99.99 of the whole run).
    fn synthetic(spiked: &[usize]) -> Vec<Histogram> {
        let mut cumulative = Histogram::latency();
        let mut snaps = vec![cumulative.clone()];
        for epoch in 0..25 {
            for i in 0..100_000u64 {
                cumulative.record(900_000 + (i % 1000) * 200);
            }
            if spiked.contains(&epoch) {
                cumulative.record_n(30_000_000, 500);
            }
            snaps.push(cumulative.clone());
        }
        snaps
    }

    #[test]
    fn width_matches_the_engine_histogram() {
        for low in [1u64, 127, 128, 129, 1024, 1_000_000, 123_456_789, 1 << 40] {
            // Snap `low` to its bucket's low bound through a real histogram.
            let mut h = Histogram::latency();
            h.record(low);
            let (low, _) = h.iter_buckets().next().unwrap();
            let width = bucket_width(low);
            let mut same = Histogram::latency();
            same.record(low);
            same.record(low + width - 1);
            assert_eq!(same.iter_buckets().count(), 1, "low {low} width {width}");
            let mut next = Histogram::latency();
            next.record(low);
            next.record(low + width);
            assert_eq!(next.iter_buckets().count(), 2, "low {low} width {width}");
        }
    }

    #[test]
    fn differencing_recovers_each_epoch() {
        let snaps = synthetic(&[3]);
        let epochs: Vec<Histogram> = snaps.windows(2).map(|p| epoch_diff(&p[1], &p[0])).collect();
        assert_eq!(epochs.len(), 25);
        for (i, e) in epochs.iter().enumerate() {
            let expect = if i == 3 { 100_500 } else { 100_000 };
            assert_eq!(e.count(), expect, "epoch {i}");
            assert_eq!(epochs_of(&snaps)[i], Epoch::of(e), "epoch {i}");
        }
        // The whole-run histogram equals the sum of its epochs.
        let mut merged = Histogram::latency();
        epochs.iter().for_each(|e| merged.merge(e));
        let whole = epoch_diff(&snaps[25], &snaps[0]);
        assert_eq!(
            merged.iter_buckets().collect::<Vec<_>>(),
            whole.iter_buckets().collect::<Vec<_>>()
        );
    }

    #[test]
    fn spike_in_three_epochs_does_not_move_the_metric() {
        let clean = quiet_epochs_quantile_ns(&epochs_of(&synthetic(&[])), 0.9999);
        let three = quiet_epochs_quantile_ns(&epochs_of(&synthetic(&[2, 11, 19])), 0.9999);
        assert_eq!(clean, three);
        assert!(clean < 1_200_000.0, "{clean}");
        // ... while the whole-run p99.99 is owned by the spikes.
        let snaps = synthetic(&[2, 11, 19]);
        let whole = quantile_ns(&epoch_diff(&snaps[25], &snaps[0]), 0.9999);
        assert!(whole > 25_000_000.0, "{whole}");
    }

    #[test]
    fn spike_in_every_epoch_moves_the_metric() {
        let all: Vec<usize> = (0..25).collect();
        let v = quiet_epochs_quantile_ns(&epochs_of(&synthetic(&all)), 0.9999);
        assert!(v > 25_000_000.0, "{v}");
        // The median latency is untouched by a tail that is in every epoch.
        let p50 = quiet_epochs_quantile_ns(&epochs_of(&synthetic(&all)), 0.5);
        assert!((950_000.0..1_100_000.0).contains(&p50), "{p50}");
    }

    #[test]
    fn quiet_quantile_interpolates_between_epochs() {
        // Per-epoch medians 1000, 2000, ..., 21000 ns: the 5 % quantile of
        // 21 values sits exactly on the second smallest.
        let epochs: Vec<Epoch> = (1..=21u64)
            .map(|i| {
                let mut h = Histogram::latency();
                h.record_n(i * 1000, 2);
                Epoch::of(&h)
            })
            .collect();
        let v = quiet_epochs_quantile_ns(&epochs, 0.5);
        assert!((v - epochs[1].at(0.5)).abs() < 1e-9, "{v}");
        // One epoch: that epoch.
        assert_eq!(
            quiet_epochs_quantile_ns(&epochs[4..5], 0.5),
            epochs[4].at(0.5)
        );
    }

    #[test]
    fn quantile_interpolates_inside_a_bucket() {
        let mut h = Histogram::latency();
        h.record_n(1024, 100); // bucket [1024, 1032)
        assert_eq!(quantile_ns(&h, 0.5), 1028.0);
        assert_eq!(quantile_ns(&h, 1.0), 1032.0);
        assert_eq!(quantile_ns(&Histogram::latency(), 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
