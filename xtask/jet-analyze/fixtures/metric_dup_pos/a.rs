// Positive fixture (with b.rs): one counter registered in two files.

pub fn register_a(r: &Registry) {
    r.counter("jet_x_total", tags(&[]));
}
