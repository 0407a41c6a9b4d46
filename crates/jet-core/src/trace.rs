//! Execution tracing: low-overhead span records for latency *attribution*.
//!
//! PR 1's metrics say *how much* time the job spent; this module says
//! *where*. Every instrumented writer (a cooperative worker / virtual core,
//! a processor tasklet, a network sender/receiver) is the one producer of a
//! `jet_queue` SPSC ring of [`SpanRecord`]s — the same wait-free ring the
//! tasklets exchange items through — and appends to it without ever
//! blocking the hot loop: when the ring is full the record is dropped and
//! counted, never waited for. The flight recorder (`flight.rs`) is the only
//! way to get an enabled [`Tracer`]: it creates one whenever its span ring
//! is armed, and the runtime drains the rings into the recorder's span
//! ring. A [`TraceData`] is the render view of drained spans: Chrome
//! trace-event JSON — open `results/TRACE_*.json` in
//! <https://ui.perfetto.dev> — and the plain-text diagnostics dump.
//!
//! Cost discipline:
//! * Disabled tracing allocates nothing: [`Tracer::disabled`] hands out
//!   [`TraceWriter`]s that carry no ring, and every `record_*` call reduces
//!   to one branch on an `Option` discriminant.
//! * Enabled tracing touches only the writer's own cache lines plus one
//!   release store per record; string names are interned to `u32` ids at
//!   wiring time (cold), never on the hot path.
//! * Call spans are sampled 1-in-`2^CALL_SAMPLE_SHIFT` to bound volume on
//!   multi-minute runs; drops from sampling are *not* counted (they are
//!   policy), drops from a full ring are.

use jet_queue::{spsc_channel, Consumer, Producer};
use jet_util::json::{ToJson, Writer};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Records per writer ring (rounded up to a power of two by the ring):
/// 8192 × 32 B = 256 KiB per instrumented writer. The runtime drains the
/// rings every ~10 ms of virtual time, so even 20 members × dozens of
/// writers stay bounded.
pub const RING_CAPACITY: usize = 8192;

/// One Call span in `2^4` is recorded: calls outnumber every other span
/// kind ~10:1, and the slowest ones still surface. Other kinds always
/// record.
pub const CALL_SAMPLE_SHIFT: u32 = 4;

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

/// Identity of one trace track (≈ one ring): which member it belongs to
/// (Perfetto `pid`), its per-job track index (`tid`), and a human label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackInfo {
    pub pid: u32,
    pub tid: u32,
    pub label: String,
}

/// The collector's end of one writer's ring.
struct Track {
    info: TrackInfo,
    ring: Consumer<SpanRecord>,
    /// Records the writer discarded because the ring was full
    /// (run-cumulative: draining never resets it).
    dropped: Arc<AtomicU64>,
}

struct NameTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl NameTable {
    fn new() -> NameTable {
        // Id 0 is reserved for "?" so an unnamed record still renders.
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
    /// One per writer, in creation order: a track's `tid` is its index.
    tracks: Mutex<Vec<Track>>,
}

/// Handle to the tracing subsystem. Cheap to clone; `disabled()` is the
/// always-available no-op used everywhere tracing is not requested, and the
/// flight recorder owns the only enabled one.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The no-op tracer: writers carry no ring and record nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An active tracer: [`RING_CAPACITY`] records per writer, one Call
    /// span in `2^CALL_SAMPLE_SHIFT`. Only the flight recorder makes one.
    pub(crate) fn new() -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                names: Mutex::new(NameTable::new()),
                tracks: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Call spans are recorded 1-in-`2^shift` (0 when disabled).
    pub fn sample_shift(&self) -> u32 {
        if self.is_enabled() {
            CALL_SAMPLE_SHIFT
        } else {
            0
        }
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
        let (producer, consumer) = spsc_channel(RING_CAPACITY);
        let dropped = Arc::new(AtomicU64::new(0));
        let mut tracks = inner.tracks.lock();
        let tid = tracks.len() as u32;
        tracks.push(Track {
            info: TrackInfo {
                pid,
                tid,
                label: label.to_string(),
            },
            ring: consumer,
            dropped: dropped.clone(),
        });
        TraceWriter {
            inner: Some(WriterInner {
                ring: producer,
                dropped,
                tracer: inner.clone(),
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
                .map(|t| t.dropped.load(Ordering::Relaxed))
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
        let tracks = match &self.inner {
            Some(inner) => inner.tracks.lock().iter().map(|t| t.info.clone()).collect(),
            None => Vec::new(),
        };
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
        for t in inner.tracks.lock().iter_mut() {
            let track = t.info.tid;
            t.ring
                .drain_batch(usize::MAX, |rec| f(TraceEvent { track, rec }));
        }
    }
}

struct WriterInner {
    ring: Producer<SpanRecord>,
    dropped: Arc<AtomicU64>,
    tracer: Arc<TracerInner>,
    calls_seen: u64,
}

impl WriterInner {
    /// Never blocks: a full ring counts a drop and returns.
    #[inline]
    fn push(&mut self, rec: SpanRecord) {
        if self.ring.offer(rec).is_err() {
            // ordering: Relaxed — the drop counter is a statistic, not a
            // synchronization point.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
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
        if let Some(w) = &mut self.inner {
            w.push(SpanRecord {
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
            if w.calls_seen & ((1 << CALL_SAMPLE_SHIFT) - 1) != 0 {
                return;
            }
            w.push(SpanRecord {
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

    /// The `k` slowest `Call` spans named exactly `name` (empty matches
    /// all), slowest first.
    pub fn top_k_slowest_calls(&self, name: &str, k: usize) -> Vec<&TraceEvent> {
        let mut calls: Vec<&TraceEvent> = self
            .of_kind(TraceKind::Call)
            .filter(|e| name.is_empty() || self.name(e.rec.name) == name)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{Recorder, RecorderConfig};
    use jet_util::json;

    /// A recorder whose span ring (and so its tracer) is armed.
    fn recorder() -> Recorder {
        Recorder::new(RecorderConfig {
            provenance: true,
            ..RecorderConfig::default()
        })
    }

    fn timestamps(rec: &Recorder) -> Vec<u64> {
        let data = rec.trace().expect("span ring armed");
        data.events.iter().map(|e| e.rec.ts).collect()
    }

    #[test]
    fn span_record_is_fixed_size() {
        assert!(std::mem::size_of::<SpanRecord>() <= 32);
    }

    /// 300k records pass through one 8192-slot ring in runs of 5000, so
    /// the ring wraps dozens of times. Nothing is dropped, and the
    /// recorder's capacity eviction leaves exactly the newest 262,144
    /// records, contiguous and in order.
    #[test]
    fn ring_wraps_around_many_times() {
        let rec = recorder();
        let mut w = rec.tracer().writer(0, "w");
        let (rounds, per_round) = (60u64, 5_000u64);
        for round in 0..rounds {
            for i in 0..per_round {
                w.record(TraceKind::Stall, round * per_round + i, 0, 1, 0);
            }
            rec.drain_spans();
        }
        let total = rounds * per_round;
        let s = rec.stats();
        assert_eq!(s.ring_dropped, 0, "no drops expected");
        assert_eq!(s.spans_retained as u64 + s.spans_evicted, total);
        let ts = timestamps(&rec);
        let first = total - ts.len() as u64;
        assert!(ts.iter().copied().eq(first..total), "lost or reordered");
    }

    #[test]
    fn ring_counts_drops_under_overflow_and_never_blocks() {
        let rec = recorder();
        let mut w = rec.tracer().writer(0, "w");
        for i in 0..RING_CAPACITY as u64 + 6 {
            w.record(TraceKind::Stall, i, 0, 1, 0);
        }
        assert_eq!(rec.stats().ring_dropped, 6);
        rec.drain_spans();
        // The first RING_CAPACITY records survived, in order.
        assert!(timestamps(&rec).into_iter().eq(0..RING_CAPACITY as u64));
        // After draining there is room again.
        w.record(TraceKind::Stall, 99_999, 0, 1, 0);
        rec.drain_spans();
        assert_eq!(timestamps(&rec).last(), Some(&99_999));
        assert_eq!(rec.stats().ring_dropped, 6, "drops only grow on overflow");
    }

    /// A writer thread races the collector. Every offered record is
    /// counted exactly once: retained, evicted by the recorder's capacity,
    /// or dropped by a full ring. None is duplicated or reordered.
    #[test]
    fn concurrent_writer_and_reader_lose_nothing_that_was_accepted() {
        const N: u64 = 300_000;
        let rec = recorder();
        let mut w = rec.tracer().writer(0, "w");
        let writer = std::thread::spawn(move || {
            for i in 0..N {
                w.record(TraceKind::WmEmit, i, 0, 1, 0);
            }
        });
        while !writer.is_finished() {
            rec.drain_spans();
            std::thread::yield_now();
        }
        writer.join().unwrap();
        rec.drain_spans();
        let s = rec.stats();
        assert_eq!(
            s.spans_retained as u64 + s.spans_evicted + s.ring_dropped,
            N,
            "records leaked or duplicated: {s:?}"
        );
        let ts = timestamps(&rec);
        assert!(ts.windows(2).all(|p| p[0] < p[1]), "duplicated record");
    }

    #[test]
    fn disabled_tracer_records_nothing_and_allocates_nothing() {
        let tracer = Recorder::disabled().tracer();
        assert!(!tracer.is_enabled());
        let mut w = tracer.writer(0, "hot");
        assert!(!w.enabled());
        // A no-op writer holds no ring: the whole handle is a None.
        assert!(
            w.inner.is_none(),
            "disabled writer must not allocate a ring"
        );
        for i in 0..1000 {
            w.record(TraceKind::Stall, i, 0, 0, 0);
            w.record_call(i, 5, 0);
        }
        assert_eq!(tracer.intern("x"), 0);
        assert_eq!((tracer.dropped(), tracer.sample_shift()), (0, 0));
        let mut drained = 0;
        tracer.drain_each(|_| drained += 1);
        assert_eq!(drained, 0);
        assert!(tracer.view(Vec::new()).tracks.is_empty());
    }

    #[test]
    fn call_sampling_keeps_one_in_2k() {
        let rec = recorder();
        let mut w = rec.tracer().writer(0, "sampled");
        for i in 0..100 {
            w.record_call(i, 1, 0);
        }
        rec.drain_spans();
        // Calls 16, 32, … 96 (1-based) are kept.
        assert_eq!(timestamps(&rec), vec![15, 31, 47, 63, 79, 95]);
        let s = rec.stats();
        assert_eq!((s.ring_dropped, s.sample_shift), (0, CALL_SAMPLE_SHIFT));
        // Non-call kinds are never sampled away.
        let mut w2 = rec.tracer().writer(0, "unsampled");
        for i in 0..10 {
            w2.record(TraceKind::WmEmit, 1_000 + i, 0, 0, i as i64);
        }
        rec.drain_spans();
        assert_eq!(rec.stats().spans_retained, 6 + 10);
    }

    #[test]
    fn interning_is_stable_and_shared() {
        let rec = recorder();
        let tracer = rec.tracer();
        let a = tracer.intern("vertex-a");
        let b = tracer.intern("vertex-b");
        assert_ne!(a, b);
        assert_eq!(tracer.intern("vertex-a"), a);
        let w = tracer.writer(0, "w");
        assert_eq!(w.intern("vertex-b"), b);
        let data = rec.trace().expect("span ring armed");
        assert_eq!(data.name(a), "vertex-a");
        assert_eq!(data.name(0), "?");
    }

    #[test]
    fn chrome_json_is_well_formed_and_complete() {
        let rec = recorder();
        let mut w = rec.tracer().writer(3, "m3/core-0");
        let name = w.intern("map \"v\"");
        w.record(TraceKind::Call, 1_500, 2_000, name, 0);
        w.record(TraceKind::WmEmit, 4_000, 0, name, 42);
        rec.drain_spans();
        let data = rec.trace().expect("span ring armed");
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
        let rec = recorder();
        let mut w = rec.tracer().writer(0, "w");
        let a = w.intern("vertex-a");
        let b = w.intern("vertex-b");
        w.record(TraceKind::Call, 0, 10, a, 0);
        w.record(TraceKind::Call, 1, 50, b, 0);
        w.record(TraceKind::Call, 2, 30, a, 0);
        w.record(TraceKind::Stall, 3, 0, a, 0);
        rec.drain_spans();
        let data = rec.trace().expect("span ring armed");
        let top = data.top_k_slowest_calls("", 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].rec.dur, 50);
        assert_eq!(top[1].rec.dur, 30);
        let only_a = data.top_k_slowest_calls("vertex-a", 10);
        assert_eq!(only_a.len(), 2);
        assert!(only_a.iter().all(|e| data.name(e.rec.name) == "vertex-a"));
    }

    /// A vertex whose name prefixes another's (`nexmark` and
    /// `nexmark-fanout`) lists only its own calls.
    #[test]
    fn top_k_slowest_calls_matches_the_name_exactly() {
        let rec = recorder();
        let mut w = rec.tracer().writer(0, "w");
        let src = w.intern("nexmark");
        let fanout = w.intern("nexmark-fanout");
        w.record(TraceKind::Call, 0, 10, src, 0);
        w.record(TraceKind::Call, 1, 90, fanout, 0);
        rec.drain_spans();
        let data = rec.trace().expect("span ring armed");
        let durs = |name| -> Vec<u64> {
            let top = data.top_k_slowest_calls(name, 5);
            top.iter().map(|e| e.rec.dur).collect()
        };
        assert_eq!(durs("nexmark"), vec![10]);
        assert_eq!(durs("nexmark-fanout"), vec![90]);
        assert!(durs("nex").is_empty(), "a prefix names no vertex");
        assert_eq!(durs(""), vec![90, 10]);
    }
}
