// Positive fixture: literal metric names that break the convention, and
// one name registered as two instrument kinds.

pub fn register(r: &Registry, h: SharedHistogram) {
    r.counter("jet_events_in", tags(&[])); // counter without `_total`
    r.gauge("jet_queue", tags(&[])); // gauge without a unit suffix
    r.counter("events_total", tags(&[])); // no `jet_` prefix
    r.counter("jet_Events_total", tags(&[])); // not snake_case
    r.register_histogram("jet_latency", tags(&[]), h); // no unit suffix
    r.counter_fn(
        "jet_events", // broken over lines: still seen
        tags(&[]),
        || 0,
    );
    r.gauge("jet_lag_nanos", tags(&[]));
    r.histogram("jet_lag_nanos", tags(&[])); // second kind for one name
}
