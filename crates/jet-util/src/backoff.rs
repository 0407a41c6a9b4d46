//! Bounded exponential backoff for the recovery retry loop: after the
//! `attempt`-th failure wait `base << (attempt-1)` capped at `max`. It
//! lives here, away from any engine state, so the cap and the overflow
//! guard can be tested in isolation.

/// The capped delay after `attempt` failures (1-based):
/// `min(base << (attempt-1), max)`, saturating instead of wrapping.
/// `attempt == 0` means "no failure yet" and yields 0.
pub fn backoff_delay(base: u64, max: u64, attempt: u32) -> u64 {
    debug_assert!(base > 0, "backoff base must be positive");
    debug_assert!(max >= base, "backoff max below base");
    if attempt == 0 {
        return 0;
    }
    base.saturating_mul(2u64.saturating_pow(attempt - 1))
        .min(max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_then_cap() {
        let delays: Vec<u64> = (1..=8)
            .map(|n| backoff_delay(2_000_000, 32_000_000, n))
            .collect();
        assert_eq!(
            delays,
            vec![
                2_000_000, 4_000_000, 8_000_000, 16_000_000, 32_000_000, 32_000_000, 32_000_000,
                32_000_000
            ]
        );
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        // Doubling past 64 bits saturates instead of wrapping, both when
        // the shift itself is too wide and when the high bits fall off.
        assert_eq!(backoff_delay(1 << 40, u64::MAX, 200), u64::MAX);
        assert_eq!(backoff_delay(1 << 40, u64::MAX, 30), u64::MAX);
        for n in 1..100 {
            assert!(backoff_delay(1, 1 << 20, n) <= 1 << 20);
        }
    }

    #[test]
    fn zero_attempt_means_no_delay() {
        assert_eq!(backoff_delay(5, 10, 0), 0);
    }
}
