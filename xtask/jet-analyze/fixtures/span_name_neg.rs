// Negative fixture: kebab-case span names, several on one line, and a
// dynamic name that cannot be checked.

pub fn wire(t: &Tracer, v: &Vertex) {
    let _ = t.intern("worker-idle");
    let _ = (t.intern("snapshot.commit"), t.intern("recv_window"));
    let _ = t.intern(v.name());
}
