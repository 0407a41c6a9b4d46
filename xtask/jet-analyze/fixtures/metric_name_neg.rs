// Negative fixture: conforming names, a dynamic name, per-instance repeats
// of one instrument, an allowed legacy name, and test-only registrations.

pub fn register(r: &Registry, name: &str) {
    r.counter("jet_events_in_total", tags(&[]));
    r.gauge_fn("jet_queue_depth", tags(&[]), || 0);
    r.histogram("jet_call_duration_nanos", tags(&[]));
    r.counter(name, tags(&[]));
    r.gauge("jet_q_depth", tags(&[("lane", "0")]));
    r.gauge("jet_q_depth", tags(&[("lane", "1")]));
    // jet-analyze: allow(metric-name) — the name is fixed by an external dashboard
    r.counter("legacy_events", tags(&[]));
}

#[cfg(test)]
mod tests {
    fn throwaway(r: &Registry) {
        r.counter("x", tags(&[]));
    }
}
