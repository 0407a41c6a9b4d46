//! The idle strategy of cooperative worker threads.
//!
//! When a worker's round-robin pass over its tasklets makes no progress the
//! paper's engine backs off progressively (spin → yield → short park) instead
//! of burning the core or surrendering it to the OS scheduler — §3.2's point
//! about staying on the same CPU to preserve cache lines.
//!
//! # Precise parks
//!
//! A park is only as short as the kernel lets it be. Linux may defer the
//! wake-up of a normal thread's sleep by the thread's *timer slack*, 50 µs by
//! default, so that nearby timers fire together. Under that default a
//! `thread::sleep(25 µs)` takes 85–90 µs on a 2-vCPU VM, and a worker paced
//! at 50k ev/s spends its whole latency in that sleep. Every thread that runs
//! the worker loop therefore calls [`precise_parks`] first: it sets the
//! calling thread's slack to 1 ns, so a park overshoots by the wake-up path
//! alone (a few µs). The slack is a per-thread attribute; nothing else in the
//! process changes. Elsewhere than on Linux the call does nothing.
//!
//! With precise parks the first rung of [`BackoffIdle::jet_default`] is
//! re-sized. Measured on a 2-vCPU VM, Q1 paced at 50k ev/s on one worker,
//! 10 s runs over twelve seeds (CPU = the process's utime+stime ÷ wall):
//!
//! | timer slack, first park | p50 µs | p99 µs | CPU (cores) |
//! |---|---|---|---|
//! | 50 µs (default), 25 µs | 36.3–38.1 | 79–82 | 0.16–0.19 |
//! | 1 µs, 25 µs | 14.8–15.2 | 25–32 | 0.31–0.36 |
//! | 1 µs, **15 µs** | **8.5–9.0** | **22.4–23.2** | **0.45–0.46** |
//! | 1 µs, 10 µs | 4.1–8.1 | 18.5–19.5 | 0.55 |
//!
//! 15 µs is the one rung that keeps p50 ≤ 10 µs and p99 ≤ 40 µs at no more
//! than half a core; 10 µs costs more than half a core. A slack of 1 ns and
//! one of 1 µs measured the same.
//!
//! The ladder stays a fixed one. An estimate of the idle gap that skipped
//! the spin and yield rungs when the gap looked long was tried and dropped:
//! yields that the host stretched read as long gaps, each park lengthened the
//! next estimate, and a worker at 400k ev/s that never parks with the fixed
//! ladder parked 478k times in 13.5 s.

use std::time::Duration;

/// The first park of [`BackoffIdle::jet_default`]: the rung that meets all
/// three targets of the table in the module doc once parks are precise.
const FIRST_PARK: Duration = Duration::from_micros(15);

/// The timer slack [`precise_parks`] asks for. 0 would mean "reset to the
/// default", so the minimum is 1 ns.
#[cfg(target_os = "linux")]
const PRECISE_TIMER_SLACK_NANOS: std::ffi::c_ulong = 1;

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_ulong};

    /// `<linux/prctl.h>`.
    pub const PR_SET_TIMERSLACK: c_int = 29;
    pub const PR_GET_TIMERSLACK: c_int = 30;

    extern "C" {
        /// Declared as the libc crate declares it.
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// `prctl(option, arg2, 0, 0, 0)` for the two timer-slack options.
    pub fn timer_slack_prctl(option: c_int, arg2: c_ulong) -> c_int {
        const UNUSED: c_ulong = 0;
        // SAFETY: both timer-slack options take their argument as an
        // unsigned long by value and read or write only the calling
        // thread's slack. All four variadic arguments glibc reads are passed
        // as unsigned longs, and no pointer crosses the call.
        unsafe { prctl(option, arg2, UNUSED, UNUSED, UNUSED) }
    }
}

/// Set the calling thread's timer slack to its minimum, so the parks of a
/// [`BackoffIdle`] on this thread wake up when asked instead of up to 50 µs
/// later (see the module doc). Returns whether the kernel took the setting;
/// where it does not (or off Linux), parks keep the default slack and stay
/// correct, only longer.
pub fn precise_parks() -> bool {
    #[cfg(target_os = "linux")]
    {
        sys::timer_slack_prctl(sys::PR_SET_TIMERSLACK, PRECISE_TIMER_SLACK_NANOS) == 0
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// The calling thread's timer slack, or `None` off Linux or if the kernel
/// refuses to say.
pub fn timer_slack() -> Option<Duration> {
    #[cfg(target_os = "linux")]
    {
        let rc = sys::timer_slack_prctl(sys::PR_GET_TIMERSLACK, 0);
        u64::try_from(rc).ok().map(Duration::from_nanos)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

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

    /// Parameters close to Jet's defaults: 10 spins, 5 yields, then parks
    /// that start at 15 µs and double up to 1 ms. The first park is sized
    /// for a thread that called [`precise_parks`]: with the default 50 µs
    /// of timer slack any park under ~60 µs takes ~85 µs, whatever it asks.
    /// A precise 15 µs park is what keeps Q1 at 50k ev/s under 10 µs p50 at
    /// under half a core (the table in the module doc). The 1 ms cap is
    /// reached on the 8th park, so a worker fed ≤ 1k ev/s wakes at most ~8
    /// times per event.
    pub fn jet_default() -> Self {
        Self::new(10, 5, FIRST_PARK, Duration::from_millis(1))
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
        // 10 spin rounds, 5 yield rounds, then parking starts at 15 µs.
        let b = BackoffIdle::jet_default();
        assert_eq!(b.park_duration(15), None, "round 15 is the last yield");
        assert_eq!(b.park_duration(16), Some(Duration::from_micros(15)));
        assert_eq!(b.park_duration(17), Some(Duration::from_micros(30)));
        // 15µs * 2^6 = 960µs on round 22; 1.92ms caps at 1ms on round 23.
        assert_eq!(b.park_duration(22), Some(Duration::from_micros(960)));
        assert_eq!(b.park_duration(23), Some(Duration::from_millis(1)));
    }

    #[test]
    fn jet_default_reaches_its_cap_within_eight_parks() {
        // A worker fed ≤ 1k ev/s waits ≥ 1 ms between events: the ladder
        // must get there in a few wake-ups, not spin up to it.
        let b = BackoffIdle::jet_default();
        let first_park_round = 16;
        let parks_to_cap = (first_park_round..)
            .take_while(|&r| b.park_duration(r) < Some(Duration::from_millis(1)))
            .count()
            + 1;
        assert!(parks_to_cap <= 8, "cap reached on park {parks_to_cap}");
    }

    #[test]
    fn precise_parks_sets_the_minimum_slack_on_linux() {
        let slack = std::thread::spawn(|| (precise_parks(), timer_slack()))
            .join()
            .unwrap();
        if cfg!(target_os = "linux") {
            assert_eq!(slack, (true, Some(Duration::from_nanos(1))));
        } else {
            assert_eq!(slack, (false, None));
        }
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
