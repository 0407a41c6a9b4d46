// Negative fixture: one allowed, cadenced ingestion point fills a sample
// window, and decisions aggregate over that window only.

// jet-analyze: allow(raw-gauge) — the cadenced ingestion point itself
pub fn observe(&mut self, now: u64, snap: &MetricsSnapshot) {
    let recv_window_min = snap
        .get_all("jet_channel_receive_window")
        .filter_map(|m| m.as_gauge())
        .min()
        .unwrap_or(i64::MAX);
    let bp_stalls = snap.counter_total("jet_backpressure_stalls_total", &[]);
    self.samples.push_back(Sample {
        at: now,
        bp_stalls,
        recv_window_min,
    });
}

pub fn decide(&mut self, now: u64) -> Option<Direction> {
    let (occupancy, stall_rate, _recv) = self.window_aggregate()?;
    if occupancy >= self.cfg.scale_up_occupancy || stall_rate >= self.cfg.scale_up_stall_rate {
        Some(Direction::Up)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_read_live_snapshots() {
        let snap = registry.snapshot();
        let _ = snap.counter_total("jet_backpressure_stalls_total", &[]);
    }
}
