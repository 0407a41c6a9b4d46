//! The replay clock: wall time shifted forward by a fixed offset.
//!
//! `GeneratorSource` emits event `seq` once the job clock passes
//! `seq / rate` seconds. Starting the job on a clock that already reads
//! `events / rate` seconds makes the whole backlog due at once — with the
//! paced phase's event-time density, so windows hold the same number of keys
//! and slides — and the job then runs as fast as the engine can drain it.

use jet_util::clock::{Clock, SystemClock};

/// `SystemClock + offset_nanos`.
pub struct OffsetClock {
    base: SystemClock,
    offset_nanos: u64,
}

impl OffsetClock {
    pub fn new(offset_nanos: u64) -> Self {
        OffsetClock {
            base: SystemClock::new(),
            offset_nanos,
        }
    }
}

impl Clock for OffsetClock {
    fn now_nanos(&self) -> u64 {
        self.base.now_nanos() + self.offset_nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_the_offset_and_advances_with_wall_time() {
        let offset = 40_000_000_000;
        let clock = OffsetClock::new(offset);
        let first = clock.now_nanos();
        assert!(first >= offset);
        assert!(first < offset + 1_000_000_000, "{first}");
        // Forced wall-time advance: the clock must move by at least that.
        let before = std::time::Instant::now();
        while before.elapsed().as_micros() < 200 {
            std::hint::spin_loop();
        }
        assert!(clock.now_nanos() >= first + 200_000);
    }
}
