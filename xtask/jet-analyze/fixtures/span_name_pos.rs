// Positive fixture: span names that are not lowercase kebab-case. On the
// second line of the body the bad name is the second call on the line.

pub fn wire(t: &Tracer) {
    let _ = t.intern("Recovery Phase");
    let _ = (t.intern("worker-idle"), t.intern("Snapshot_Commit"));
}
