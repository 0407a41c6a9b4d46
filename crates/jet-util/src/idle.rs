//! The idle strategy of cooperative worker threads.
//!
//! When a worker's round-robin pass over its tasklets makes no progress the
//! paper's engine backs off progressively (spin → yield → short park) instead
//! of burning the core or surrendering it to the OS scheduler — §3.2's point
//! about staying on the same CPU to preserve cache lines.

use std::time::Duration;

/// Progressive backoff: busy-spin, then `yield_now`, then park with
/// exponentially growing duration up to `max_park`.
pub struct BackoffIdle {
    spin_rounds: u64,
    yield_rounds: u64,
    min_park: Duration,
    max_park: Duration,
}

impl BackoffIdle {
    // jet-analyze: allow(panic) — constructor parameter validation at wiring time
    pub fn new(
        spin_rounds: u64,
        yield_rounds: u64,
        min_park: Duration,
        max_park: Duration,
    ) -> Self {
        assert!(min_park <= max_park);
        BackoffIdle {
            spin_rounds,
            yield_rounds,
            min_park,
            max_park,
        }
    }

    /// Parameters close to Jet's defaults: a few spins, a few yields, then
    /// parking from 25µs up to 1ms.
    pub fn jet_default() -> Self {
        Self::new(10, 5, Duration::from_micros(25), Duration::from_millis(1))
    }

    /// Compute the park duration for a given round (exposed for tests).
    pub fn park_duration(&self, idle_rounds: u64) -> Option<Duration> {
        if idle_rounds <= self.spin_rounds + self.yield_rounds {
            return None;
        }
        let park_round = idle_rounds - self.spin_rounds - self.yield_rounds - 1;
        let factor = 1u32 << park_round.min(20) as u32;
        Some((self.min_park * factor).min(self.max_park))
    }

    /// Back off after a fruitless scheduling round; `idle_rounds` is the
    /// number of consecutive rounds without progress.
    pub fn idle(&self, idle_rounds: u64) {
        if idle_rounds <= self.spin_rounds {
            std::hint::spin_loop();
        } else if idle_rounds <= self.spin_rounds + self.yield_rounds {
            std::thread::yield_now();
        } else if let Some(d) = self.park_duration(idle_rounds) {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn park_duration_grows_then_caps() {
        let b = BackoffIdle::new(2, 2, Duration::from_micros(10), Duration::from_micros(80));
        assert_eq!(b.park_duration(1), None);
        assert_eq!(b.park_duration(4), None);
        assert_eq!(b.park_duration(5), Some(Duration::from_micros(10)));
        assert_eq!(b.park_duration(6), Some(Duration::from_micros(20)));
        assert_eq!(b.park_duration(7), Some(Duration::from_micros(40)));
        assert_eq!(b.park_duration(8), Some(Duration::from_micros(80)));
        assert_eq!(b.park_duration(9), Some(Duration::from_micros(80)));
        assert_eq!(b.park_duration(1000), Some(Duration::from_micros(80)));
    }

    #[test]
    fn idle_does_not_panic_across_ranges() {
        let b = BackoffIdle::new(1, 1, Duration::from_nanos(1), Duration::from_nanos(4));
        for r in 0..10 {
            b.idle(r);
        }
    }

    #[test]
    fn jet_default_parks_at_most_one_ms() {
        let b = BackoffIdle::jet_default();
        assert_eq!(b.park_duration(10_000), Some(Duration::from_millis(1)));
    }

    #[test]
    fn jet_default_phase_boundaries() {
        // 10 spin rounds, 5 yield rounds, then parking starts at 25 µs.
        let b = BackoffIdle::jet_default();
        assert_eq!(b.park_duration(15), None, "round 15 is the last yield");
        assert_eq!(b.park_duration(16), Some(Duration::from_micros(25)));
        assert_eq!(b.park_duration(17), Some(Duration::from_micros(50)));
        // 25µs * 2^6 = 1.6ms caps at 1ms on round 22.
        assert_eq!(b.park_duration(22), Some(Duration::from_millis(1)));
    }

    #[test]
    fn park_duration_is_monotone_nondecreasing() {
        let b = BackoffIdle::new(3, 4, Duration::from_micros(5), Duration::from_millis(2));
        let mut prev = Duration::ZERO;
        for r in 8..200 {
            let d = b.park_duration(r).expect("past spin+yield rounds");
            assert!(d >= prev, "park shrank at round {r}: {prev:?} -> {d:?}");
            assert!(d <= Duration::from_millis(2));
            prev = d;
        }
    }

    #[test]
    fn huge_round_counts_do_not_overflow_the_shift() {
        let b = BackoffIdle::new(0, 0, Duration::from_nanos(1), Duration::from_secs(1));
        // Round u64::MAX would shift by (u64::MAX - 1) without the clamp.
        assert_eq!(
            b.park_duration(u64::MAX),
            Some(Duration::from_nanos(1 << 20))
        );
    }

    #[test]
    fn equal_min_and_max_parks_flat() {
        let b = BackoffIdle::new(1, 0, Duration::from_micros(7), Duration::from_micros(7));
        for r in 2..40 {
            assert_eq!(b.park_duration(r), Some(Duration::from_micros(7)));
        }
    }

    #[test]
    fn zero_spin_and_yield_parks_immediately() {
        let b = BackoffIdle::new(0, 0, Duration::from_micros(10), Duration::from_millis(1));
        assert_eq!(b.park_duration(0), None, "round 0 means no idle round yet");
        assert_eq!(b.park_duration(1), Some(Duration::from_micros(10)));
    }
}
