// Negative fixture (with b.rs): a counter registered in two files whose
// registries are distinct, said once on the first site.

pub fn register_a(r: &Registry) {
    // jet-analyze: allow(metric-dup) — each member owns its own registry
    r.counter("jet_y_total", tags(&[]));
}
