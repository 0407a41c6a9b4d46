// Negative fixture (with a.rs).

pub fn register_b(r: &Registry) {
    r.counter("jet_y_total", tags(&[]));
}
