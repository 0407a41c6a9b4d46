// Positive fixture: autoscaling decision code reading live telemetry
// instead of the windowed sample ring. Every read is flagged.

pub fn decide_from_live_telemetry(&mut self) -> Option<Direction> {
    let snap = self.registry.snapshot();
    let stalls = snap.counter_total("jet_backpressure_stalls_total", &[]);
    let depth = snap
        .get_all("jet_channel_receive_window")
        .filter_map(|m| m.as_gauge())
        .min();
    let _ = (self.cluster.job_metrics(), snap.gauge_total("jet_x_depth", &[]));
    if stalls > self.cfg.scale_up_stall_rate || depth < Some(1) {
        Some(Direction::Up)
    } else {
        None
    }
}
