//! Execution tracing: low-overhead span records for latency *attribution*.
//!
//! PR 1's metrics say *how much* time the job spent; this module says
//! *where*. Every instrumented writer (a cooperative worker / virtual core,
//! a processor tasklet, a network sender/receiver) owns a private fixed-size
//! lock-free ring of [`SpanRecord`]s and appends to it without ever blocking
//! the hot loop: when the ring is full the record is dropped and counted,
//! never waited for. On the simulated cluster the flight recorder
//! (`flight.rs`) owns the tracer and the runtime drains the rings into the
//! recorder's span ring. A [`TraceData`] is the render view of drained
//! spans: Chrome trace-event JSON — open `results/TRACE_*.json` in
//! <https://ui.perfetto.dev> — and the plain-text diagnostics dump.
//!
//! Cost discipline:
//! * Disabled tracing allocates nothing: [`Tracer::disabled`] hands out
//!   [`TraceWriter`]s that carry no ring, and every `record_*` call reduces
//!   to one branch on an `Option` discriminant.
//! * Enabled tracing touches only the writer's own cache lines plus one
//!   release store per record; string names are interned to `u32` ids at
//!   wiring time (cold), never on the hot path.
//! * Call spans can be sampled (`1/2^k`) to bound volume on multi-minute
//!   runs; drops from sampling are *not* counted (they are policy), drops
//!   from a full ring are.

use crate::sync::{AtomicU64, AtomicUsize, CachePadded, Ordering, UnsafeCell};
use jet_util::json::{ToJson, Writer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// What a span record describes. The numeric `arg` field of [`SpanRecord`]
/// is kind-specific (documented per variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// One tasklet `call()` timeslice. `arg` = 0. Has a duration.
    Call = 0,
    /// A flush found a full downstream queue (backpressure). `arg` = output
    /// ordinal of the stalled edge.
    Stall = 1,
    /// An idle worker parked. `arg` = consecutive idle rounds. Has a
    /// duration (the measured park time, not the requested one).
    IdlePark = 2,
    /// A watermark left this tasklet's outbox. `arg` = watermark ts.
    WmEmit = 3,
    /// The input coalescer's min-watermark advanced. `arg` = new coalesced
    /// watermark ts.
    WmCoalesce = 4,
    /// One snapshot barrier's full lifetime inside a tasklet: from barrier
    /// alignment through state save to barrier re-emission. `arg` =
    /// snapshot id. Has a duration.
    SnapshotPhase = 5,
    /// A network batch was shipped. `arg` = payload bytes.
    NetSend = 6,
    /// A network batch was received. `arg` = item count.
    NetRecv = 7,
    /// Failure-detector state change (suspect / clear / fence). `arg` =
    /// member id. The span name distinguishes the transition.
    Detect = 8,
    /// One recovery attempt, from decision to rebuilt execution. `arg` =
    /// restored snapshot id (-1 = cold restart). Has a duration when the
    /// attempt succeeded.
    Recovery = 9,
    /// A scheduled fault was injected. `arg` = member id where applicable,
    /// -1 otherwise. The span name carries the fault label.
    FaultInject = 10,
}

impl TraceKind {
    /// Every kind, in discriminant order.
    pub const ALL: [TraceKind; 11] = [
        TraceKind::Call,
        TraceKind::Stall,
        TraceKind::IdlePark,
        TraceKind::WmEmit,
        TraceKind::WmCoalesce,
        TraceKind::SnapshotPhase,
        TraceKind::NetSend,
        TraceKind::NetRecv,
        TraceKind::Detect,
        TraceKind::Recovery,
        TraceKind::FaultInject,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Call => "call",
            TraceKind::Stall => "stall",
            TraceKind::IdlePark => "idle-park",
            TraceKind::WmEmit => "wm-emit",
            TraceKind::WmCoalesce => "wm-coalesce",
            TraceKind::SnapshotPhase => "snapshot",
            TraceKind::NetSend => "net-send",
            TraceKind::NetRecv => "net-recv",
            TraceKind::Detect => "detect",
            TraceKind::Recovery => "recovery",
            TraceKind::FaultInject => "fault-inject",
        }
    }
}

/// One fixed-size trace record: 32 bytes, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Start time, nanos (wall or virtual, whichever clock the execution
    /// runs on).
    pub ts: u64,
    /// Duration in nanos; 0 renders as an instant event.
    pub dur: u64,
    /// Interned name id (see [`Tracer::intern`]): the vertex/tasklet the
    /// record belongs to.
    pub name: u32,
    pub kind: TraceKind,
    /// Kind-specific payload (see [`TraceKind`]).
    pub arg: i64,
}

impl SpanRecord {
    fn zeroed() -> SpanRecord {
        SpanRecord {
            ts: 0,
            dur: 0,
            name: 0,
            kind: TraceKind::Call,
            arg: 0,
        }
    }
}

/// The per-writer ring: single producer (the owning worker/tasklet), single
/// consumer (the collector), wait-free on both sides, drop-counted on
/// overflow. Same Lamport-ring discipline as `jet_queue::spsc`, specialised
/// to a `Copy` record type so slots need no `MaybeUninit` bookkeeping.
struct Ring {
    buf: Box<[UnsafeCell<SpanRecord>]>,
    mask: usize,
    /// Next slot the collector reads. Written by the collector only.
    head: CachePadded<AtomicUsize>,
    /// Next slot the writer fills. Written by the writer only.
    tail: CachePadded<AtomicUsize>,
    /// Records discarded because the ring was full when they were offered
    /// (run-cumulative: draining never resets it).
    dropped: AtomicU64,
}

// The writer only stores into slots in `head..head+capacity` that it owns
// (it checks fullness against an acquire-loaded head before writing and
// publishes with a release store of tail); the collector only reads slots in
// `head..tail` (acquire-loaded). SpanRecord is Copy, so torn *ownership* is
// the only hazard. The protocol is model-checked by `loom_tests` below.
//
// SAFETY: the head/tail protocol above excludes concurrent access to any
// slot, so the ring may move across threads.
unsafe impl Send for Ring {}
// SAFETY: as above — writer and collector get exclusive access to disjoint
// slots even through shared references.
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let cap = capacity.max(2).next_power_of_two();
        Ring {
            buf: (0..cap)
                .map(|_| UnsafeCell::new(SpanRecord::zeroed()))
                .collect(),
            mask: cap - 1,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            dropped: AtomicU64::new(0),
        }
    }

    /// Writer side. Never blocks: a full ring counts a drop and returns.
    #[inline]
    fn push(&self, rec: SpanRecord) {
        // ordering: Relaxed — `tail` is only ever written by this writer, so
        // its own last value is always what a relaxed load returns.
        let tail = self.tail.load(Ordering::Relaxed);
        // ordering: Acquire pairs with the collector's Release store of
        // `head` in `drain_into`: slots the collector freed are fully read
        // before we may overwrite them.
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > self.mask {
            // ordering: Relaxed — the drop counter is a statistic, not a
            // synchronization point.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: `tail` is within `head..head+capacity`, so the collector
        // cannot be reading this slot; the record becomes visible to it only
        // through the release store of `tail` below.
        self.buf[tail & self.mask].with_mut(|p| unsafe { *p = rec });
        // ordering: Release pairs with the collector's Acquire load of
        // `tail`: the slot write above is visible before the new position.
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
    }

    /// Collector side: move every published record into `out`.
    fn drain_into(&self, out: &mut Vec<SpanRecord>) -> usize {
        // ordering: Acquire pairs with the writer's Release store of `tail`.
        let tail = self.tail.load(Ordering::Acquire);
        // ordering: Relaxed — `head` is only ever written by this collector.
        let mut head = self.head.load(Ordering::Relaxed);
        let n = tail.wrapping_sub(head);
        for _ in 0..n {
            // SAFETY: slots in `head..tail` hold records the writer
            // published (acquire-loaded `tail` above) and will not touch
            // again until `head` is released past them.
            out.push(self.buf[head & self.mask].with(|p| unsafe { *p }));
            head = head.wrapping_add(1);
        }
        // ordering: Release pairs with the writer's Acquire load of `head`
        // in `push`: our slot reads complete before the writer may reuse
        // the slots.
        self.head.store(head, Ordering::Release);
        n
    }
}

/// Identity of one trace track (≈ one ring): which member it belongs to
/// (Perfetto `pid`), its per-job track index (`tid`), and a human label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackInfo {
    pub pid: u32,
    pub tid: u32,
    pub label: String,
}

struct Track {
    info: TrackInfo,
    ring: Arc<Ring>,
}

struct NameTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl NameTable {
    fn new() -> NameTable {
        // Id 0 is reserved for "?" so a zeroed record still renders.
        NameTable {
            names: vec!["?".to_string()],
            index: HashMap::new(),
        }
    }

    // jet-analyze: allow(alloc) — names are interned once per distinct string at wiring time
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }
}

struct TracerInner {
    names: Mutex<NameTable>,
    tracks: Mutex<Vec<Track>>,
    ring_capacity: usize,
    /// Record one in `2^sample_shift` Call spans (other kinds always
    /// record).
    sample_shift: u32,
    next_tid: AtomicUsize,
}

/// Default records per ring: 4096 × 32 B = 128 KiB per instrumented writer.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// Handle to the tracing subsystem. Cheap to clone; `disabled()` is the
/// always-available no-op used everywhere tracing is not requested.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The no-op tracer: writers carry no ring and record nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An active tracer with default ring capacity and no sampling.
    pub fn enabled() -> Tracer {
        Tracer::with_config(DEFAULT_RING_CAPACITY, 0)
    }

    /// `ring_capacity` records per writer (rounded up to a power of two);
    /// `sample_shift` records one in `2^shift` Call spans.
    pub fn with_config(ring_capacity: usize, sample_shift: u32) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                names: Mutex::new(NameTable::new()),
                tracks: Mutex::new(Vec::new()),
                ring_capacity,
                sample_shift,
                next_tid: AtomicUsize::new(0),
            })),
        }
    }

    /// Call spans are recorded 1-in-`2^shift` (0 when disabled).
    pub fn sample_shift(&self) -> u32 {
        self.inner.as_ref().map_or(0, |i| i.sample_shift)
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Intern a name (cold path: wiring/registration time only). Returns 0
    /// when disabled.
    pub fn intern(&self, name: &str) -> u32 {
        match &self.inner {
            Some(inner) => inner.names.lock().intern(name),
            None => 0,
        }
    }

    /// Create the writer for one instrumented entity. `pid` groups tracks in
    /// the timeline viewer (we use the member id); `label` becomes the
    /// track's thread name. Disabled tracers return a no-op writer without
    /// allocating.
    pub fn writer(&self, pid: u32, label: &str) -> TraceWriter {
        let Some(inner) = &self.inner else {
            return TraceWriter { inner: None };
        };
        let ring = Arc::new(Ring::new(inner.ring_capacity));
        // ordering: Relaxed — the id only needs uniqueness, and the track
        // list it keys is published under the `tracks` mutex.
        let tid = inner.next_tid.fetch_add(1, Ordering::Relaxed) as u32;
        inner.tracks.lock().push(Track {
            info: TrackInfo {
                pid,
                tid,
                label: label.to_string(),
            },
            ring: ring.clone(),
        });
        TraceWriter {
            inner: Some(WriterInner {
                ring,
                tracer: inner.clone(),
                sample_mask: (1u64 << inner.sample_shift) - 1,
                calls_seen: 0,
            }),
        }
    }

    /// Records discarded because some ring was full, since the tracer was
    /// created. Only the writers add to it, so it never goes down.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner
                .tracks
                .lock()
                .iter()
                // ordering: Relaxed — the drop counter is a statistic.
                .map(|t| t.ring.dropped.load(Ordering::Relaxed))
                .sum(),
            None => 0,
        }
    }

    /// The interned names, indexed by id.
    pub(crate) fn names(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => inner.names.lock().names.clone(),
            None => Vec::new(),
        }
    }

    /// The render view of drained `events`: this tracer's names, and its
    /// tracks indexed by `tid`.
    pub(crate) fn view(&self, events: Vec<TraceEvent>) -> TraceData {
        let mut tracks: Vec<TrackInfo> = match &self.inner {
            Some(inner) => inner.tracks.lock().iter().map(|t| t.info.clone()).collect(),
            None => Vec::new(),
        };
        tracks.sort_by_key(|t| t.tid);
        TraceData {
            names: self.names(),
            tracks,
            events,
        }
    }

    /// Move every published record out of the rings into `f`: tracks in
    /// creation order, each ring oldest first.
    pub(crate) fn drain_each(&self, mut f: impl FnMut(TraceEvent)) {
        let Some(inner) = &self.inner else { return };
        let mut scratch = Vec::new();
        for t in inner.tracks.lock().iter() {
            scratch.clear();
            t.ring.drain_into(&mut scratch);
            for &rec in &scratch {
                f(TraceEvent {
                    track: t.info.tid,
                    rec,
                });
            }
        }
    }

    /// Drain everything into a fresh [`TraceData`].
    pub fn drain(&self) -> TraceData {
        let mut events = Vec::new();
        self.drain_each(|e| events.push(e));
        self.view(events)
    }
}

struct WriterInner {
    ring: Arc<Ring>,
    tracer: Arc<TracerInner>,
    sample_mask: u64,
    calls_seen: u64,
}

/// The hot-path handle one instrumented entity records through. Single
/// owner (not `Clone`): each writer is the sole producer of its ring.
pub struct TraceWriter {
    inner: Option<WriterInner>,
}

impl Default for TraceWriter {
    fn default() -> Self {
        TraceWriter::disabled()
    }
}

impl TraceWriter {
    /// A writer that records nothing and owns nothing.
    pub fn disabled() -> TraceWriter {
        TraceWriter { inner: None }
    }

    /// Whether records are being kept. Use to skip clock reads and payload
    /// computation entirely when tracing is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Intern a name through the owning tracer (cold path). 0 when
    /// disabled.
    // jet-analyze: allow(block) — names are interned once per distinct string at wiring time
    pub fn intern(&self, name: &str) -> u32 {
        match &self.inner {
            Some(w) => w.tracer.names.lock().intern(name),
            None => 0,
        }
    }

    /// Record one span/instant. No-op when disabled.
    #[inline]
    pub fn record(&mut self, kind: TraceKind, ts: u64, dur: u64, name: u32, arg: i64) {
        if let Some(w) = &self.inner {
            w.ring.push(SpanRecord {
                ts,
                dur,
                name,
                kind,
                arg,
            });
        }
    }

    /// Record a `Call` span, subject to the tracer's sampling policy.
    #[inline]
    pub fn record_call(&mut self, ts: u64, dur: u64, name: u32) {
        if let Some(w) = &mut self.inner {
            w.calls_seen = w.calls_seen.wrapping_add(1);
            if w.calls_seen & w.sample_mask != 0 {
                return;
            }
            w.ring.push(SpanRecord {
                ts,
                dur,
                name,
                kind: TraceKind::Call,
                arg: 0,
            });
        }
    }
}

/// One drained record with the track it came from.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Index into [`TraceData::tracks`].
    pub track: u32,
    pub rec: SpanRecord,
}

/// Drained spans with the names and tracks they refer to, ready to render.
pub struct TraceData {
    pub names: Vec<String>,
    pub tracks: Vec<TrackInfo>,
    pub events: Vec<TraceEvent>,
}

impl TraceData {
    pub fn name(&self, id: u32) -> &str {
        self.names
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Events of one kind, in order.
    pub fn of_kind(&self, kind: TraceKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.rec.kind == kind)
    }

    /// The `k` slowest `Call` spans whose name contains `name_filter`
    /// (empty matches all), slowest first.
    pub fn top_k_slowest_calls(&self, name_filter: &str, k: usize) -> Vec<&TraceEvent> {
        let mut calls: Vec<&TraceEvent> = self
            .of_kind(TraceKind::Call)
            .filter(|e| name_filter.is_empty() || self.name(e.rec.name).contains(name_filter))
            .collect();
        calls.sort_by(|a, b| b.rec.dur.cmp(&a.rec.dur).then(a.rec.ts.cmp(&b.rec.ts)));
        calls.truncate(k);
        calls
    }
}

/// Chrome trace-event JSON (the format Perfetto and `chrome://tracing`
/// load). Spans with a duration become complete events (`"ph": "X"`);
/// zero-duration records become thread-scoped instants (`"ph": "i"`).
/// Timestamps are microseconds (fractional nanos preserved).
impl ToJson for TraceData {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("displayTimeUnit", "ms")
                .key("traceEvents")
                .arr(|w| {
                    // Track metadata: name each pid (member) and tid (writer label).
                    let mut seen_pids: Vec<u32> = Vec::new();
                    for t in &self.tracks {
                        if !seen_pids.contains(&t.pid) {
                            seen_pids.push(t.pid);
                            let member = format!("member-{}", t.pid);
                            metadata(w, "process_name", t.pid, 0, &member);
                        }
                        metadata(w, "thread_name", t.pid, t.tid, &t.label);
                    }
                    for e in &self.events {
                        let Some(track) = self.tracks.get(e.track as usize) else {
                            continue;
                        };
                        let r = &e.rec;
                        w.obj(|w| {
                            w.field("ph", if r.dur > 0 { "X" } else { "i" });
                            if r.dur == 0 {
                                w.field("s", "t");
                            }
                            w.field("name", self.name(r.name))
                                .field("cat", r.kind.name())
                                .field("ts", r.ts as f64 / 1_000.0);
                            if r.dur > 0 {
                                w.field("dur", r.dur as f64 / 1_000.0);
                            }
                            w.field("pid", track.pid)
                                .field("tid", track.tid)
                                .key("args")
                                .obj(|w| {
                                    w.field("arg", r.arg);
                                });
                        });
                    }
                });
        });
    }
}

fn metadata(w: &mut Writer<'_>, kind: &str, pid: u32, tid: u32, name: &str) {
    w.obj(|w| {
        w.field("ph", "M")
            .field("name", kind)
            .field("pid", pid)
            .field("tid", tid)
            .key("args")
            .obj(|w| {
                w.field("name", name);
            });
    });
}

/// Loom models of the trace ring's writer/collector protocol. Run with
/// `RUSTFLAGS="--cfg loom" cargo test -p jet-core --lib trace::loom_tests`.
#[cfg(all(loom, test))]
mod loom_tests {
    use super::*;
    use loom::thread;

    fn rec(ts: u64) -> SpanRecord {
        SpanRecord {
            ts,
            dur: 1,
            name: 0,
            kind: TraceKind::Call,
            arg: 0,
        }
    }

    /// A writer racing a draining collector on a 2-slot ring: every record
    /// is either drained in order or counted as dropped — never lost, never
    /// duplicated, never torn.
    #[test]
    fn ring_accepts_or_counts_every_record() {
        loom::model(|| {
            let ring = crate::sync::Arc::new(Ring::new(2));
            let writer = thread::spawn({
                let ring = ring.clone();
                move || {
                    for i in 0..3u64 {
                        ring.push(rec(i));
                    }
                    // ordering: Relaxed — the writer reads its own counter.
                    ring.dropped.load(Ordering::Relaxed)
                }
            });
            let mut out = Vec::new();
            ring.drain_into(&mut out);
            let dropped = writer.join().unwrap();
            // Writer is done: one final drain empties the ring.
            ring.drain_into(&mut out);
            assert_eq!(
                out.len() as u64 + dropped,
                3,
                "records lost or duplicated: drained {out:?}, dropped {dropped}"
            );
            // Drained records keep the writer's order and are never torn.
            for pair in out.windows(2) {
                assert!(pair[0].ts < pair[1].ts, "reordered: {pair:?}");
            }
            for r in &out {
                assert_eq!(r.dur, 1, "torn record: {r:?}");
            }
        });
    }

    /// The sampling counter together with the ring under a concurrent
    /// drain: exactly one of every 2 calls is kept, none of the kept
    /// records can be lost (ring never fills at this rate).
    #[test]
    fn sampled_writer_with_concurrent_collector() {
        loom::model(|| {
            let tracer = Tracer::with_config(4, 1); // keep 1 in 2 calls
            let writer = thread::spawn({
                let mut w = tracer.writer(0, "w");
                move || {
                    for i in 0..4u64 {
                        w.record_call(i, 1, 0);
                    }
                }
            });
            let mut ts = Vec::new();
            tracer.drain_each(|e| ts.push(e.rec.ts));
            writer.join().unwrap();
            tracer.drain_each(|e| ts.push(e.rec.ts));
            assert_eq!(ts, vec![1, 3], "sampling must keep calls 2 and 4");
            assert_eq!(tracer.dropped(), 0, "sampling is not a drop");
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use jet_util::json;

    fn rec(ts: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            ts,
            dur,
            name: 1,
            kind: TraceKind::Call,
            arg: 0,
        }
    }

    #[test]
    fn span_record_is_fixed_size() {
        assert!(std::mem::size_of::<SpanRecord>() <= 32);
    }

    #[test]
    fn ring_wraps_around_many_times() {
        let ring = Ring::new(8);
        let mut out = Vec::new();
        for round in 0u64..100 {
            for i in 0..5 {
                ring.push(rec(round * 10 + i, 1));
            }
            out.clear();
            assert_eq!(ring.drain_into(&mut out), 5);
            assert_eq!(out.len(), 5);
            assert_eq!(out[0].ts, round * 10);
            assert_eq!(out[4].ts, round * 10 + 4);
        }
        assert_eq!(ring.dropped.load(Ordering::Relaxed), 0, "no drops expected");
    }

    #[test]
    fn ring_counts_drops_under_overflow_and_never_blocks() {
        let ring = Ring::new(4); // power of two, 4 slots
        for i in 0..10 {
            ring.push(rec(i, 1));
        }
        assert_eq!(ring.dropped.load(Ordering::Relaxed), 6);
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        // The first 4 records survived, in order.
        assert_eq!(
            out.iter().map(|r| r.ts).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // After draining there is room again.
        ring.push(rec(99, 1));
        out.clear();
        ring.drain_into(&mut out);
        assert_eq!(out[0].ts, 99);
    }

    #[test]
    fn concurrent_writer_and_reader_lose_nothing_that_was_accepted() {
        let tracer = Tracer::with_config(1 << 12, 0);
        let mut writer = tracer.writer(0, "w");
        const N: u64 = if cfg!(miri) { 500 } else { 200_000 };
        let collector = std::thread::spawn({
            let tracer = tracer.clone();
            move || {
                let mut events = Vec::new();
                // Drain until the writer signals completion via a sentinel.
                loop {
                    tracer.drain_each(|e| events.push(e));
                    if events.last().is_some_and(|e| e.rec.ts == u64::MAX) {
                        return events;
                    }
                    std::thread::yield_now();
                }
            }
        });
        for i in 0..N {
            writer.record(TraceKind::Call, i, 1, 1, 0);
        }
        // The sentinel can itself be dropped when the ring is momentarily
        // full — retry until the ring accepts it, and keep the retries out
        // of the loss accounting. Draining never resets the drop count, so
        // an unchanged count means the ring took the sentinel.
        let mut sentinel_drops = 0;
        loop {
            let before = tracer.dropped();
            writer.record(TraceKind::Call, u64::MAX, 1, 1, 0);
            if tracer.dropped() == before {
                break;
            }
            sentinel_drops += 1;
            std::thread::yield_now();
        }
        let events = collector.join().unwrap();
        // accepted = drained + sentinel; accepted + dropped = offered.
        let drained = events.len() as u64 - 1;
        assert_eq!(
            drained + (tracer.dropped() - sentinel_drops),
            N,
            "records leaked or duplicated"
        );
        // Drained timestamps are strictly increasing (order preserved).
        for pair in events.windows(2) {
            assert!(pair[1].rec.ts > pair[0].rec.ts, "out of order: {pair:?}");
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_allocates_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let mut w = tracer.writer(0, "hot");
        assert!(!w.enabled());
        // A no-op writer holds no ring: the whole handle is a None.
        assert_eq!(
            std::mem::size_of_val(&w.inner),
            std::mem::size_of::<Option<WriterInner>>()
        );
        assert!(
            w.inner.is_none(),
            "disabled writer must not allocate a ring"
        );
        for i in 0..1000 {
            w.record(TraceKind::Stall, i, 0, 0, 0);
            w.record_call(i, 5, 0);
        }
        assert_eq!(tracer.intern("x"), 0);
        assert_eq!(tracer.dropped(), 0);
        let data = tracer.drain();
        assert!(data.events.is_empty());
        assert!(data.tracks.is_empty());
    }

    #[test]
    fn call_sampling_keeps_one_in_2k() {
        let tracer = Tracer::with_config(1 << 12, 2); // 1 in 4
        let mut w = tracer.writer(0, "sampled");
        for i in 0..100 {
            w.record_call(i, 1, 0);
        }
        let data = tracer.drain();
        assert_eq!(data.events.len(), 25);
        assert_eq!(tracer.dropped(), 0, "sampling is not a drop");
        // Non-call kinds are never sampled away.
        let mut w2 = tracer.writer(0, "unsampled");
        for i in 0..10 {
            w2.record(TraceKind::WmEmit, i, 0, 0, i as i64);
        }
        let data = tracer.drain();
        assert_eq!(data.events.len(), 10);
    }

    #[test]
    fn interning_is_stable_and_shared() {
        let tracer = Tracer::enabled();
        let a = tracer.intern("vertex-a");
        let b = tracer.intern("vertex-b");
        assert_ne!(a, b);
        assert_eq!(tracer.intern("vertex-a"), a);
        let w = tracer.writer(0, "w");
        assert_eq!(w.intern("vertex-b"), b);
        let data = tracer.drain();
        assert_eq!(data.name(a), "vertex-a");
        assert_eq!(data.name(0), "?");
    }

    #[test]
    fn chrome_json_is_well_formed_and_complete() {
        let tracer = Tracer::enabled();
        let name = tracer.intern("map \"v\"");
        let mut w = tracer.writer(3, "m3/core-0");
        w.record(TraceKind::Call, 1_500, 2_000, name, 0);
        w.record(TraceKind::WmEmit, 4_000, 0, name, 42);
        let data = tracer.drain();
        let doc = json::parse(&json::render(&data)).expect("valid JSON");
        assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
        let events = doc["traceEvents"].as_arr().expect("traceEvents");
        // Metadata names the process and the thread.
        assert_eq!(events[0]["name"].as_str(), Some("process_name"));
        assert_eq!(events[0]["args"]["name"].as_str(), Some("member-3"));
        assert_eq!(events[1]["name"].as_str(), Some("thread_name"));
        assert_eq!(events[1]["args"]["name"].as_str(), Some("m3/core-0"));
        // A complete event with ph/ts/dur/pid/tid, its escaped name intact.
        let call = &events[2];
        assert_eq!(call["ph"].as_str(), Some("X"));
        assert_eq!(call["name"].as_str(), Some("map \"v\""));
        assert_eq!(
            (call["ts"].as_f64(), call["dur"].as_f64()),
            (Some(1.5), Some(2.0))
        );
        assert_eq!(
            (call["pid"].as_u64(), call["tid"].as_u64()),
            (Some(3), Some(0))
        );
        // An instant event for the zero-duration record.
        let instant = &events[3];
        assert_eq!(instant["ph"].as_str(), Some("i"));
        assert_eq!(instant["dur"], json::Json::Null);
        assert_eq!(instant["args"]["arg"].as_u64(), Some(42));
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn top_k_slowest_calls_sorts_and_filters() {
        let tracer = Tracer::enabled();
        let a = tracer.intern("vertex-a");
        let b = tracer.intern("vertex-b");
        let mut w = tracer.writer(0, "w");
        w.record(TraceKind::Call, 0, 10, a, 0);
        w.record(TraceKind::Call, 1, 50, b, 0);
        w.record(TraceKind::Call, 2, 30, a, 0);
        w.record(TraceKind::Stall, 3, 0, a, 0);
        let data = tracer.drain();
        let top = data.top_k_slowest_calls("", 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].rec.dur, 50);
        assert_eq!(top[1].rec.dur, 30);
        let only_a = data.top_k_slowest_calls("vertex-a", 10);
        assert_eq!(only_a.len(), 2);
        assert!(only_a.iter().all(|e| data.name(e.rec.name) == "vertex-a"));
    }
}
