// Positive fixture (with a.rs): the second registration is flagged.

pub fn register_b(r: &Registry) {
    r.counter("jet_x_total", tags(&[]));
}
