//! The flight recorder: *why* was the tail slow, and *when* did each
//! metric move?
//!
//! Metrics say how much time the job spent and the trace says where, but
//! both are passive: when a bench shows a 631 ms p99.99 excursion, someone
//! still has to read the trace by hand. One [`Recorder`] handle closes the
//! loop. Under one lock it owns four parts, each armed by its own
//! [`RecorderConfig`] field:
//!
//! * the **watchdog** — an online spike detector fed by the latency sink.
//!   It keeps a rolling latency histogram per epoch of *virtual* time and
//!   flags emissions whose latency exceeds an adaptive threshold
//!   (3 × previous-epoch p99, floored at 20 ms) or the operator's SLO.
//!   Consecutive detections merge into bounded *incidents*, and each
//!   incident opens a frozen window;
//! * the **span ring** — a bounded ring of the spans drained from the
//!   recorder's own [`Tracer`], which it creates whenever the ring is armed.
//!   A span that ages out inside an incident window is *frozen* instead of
//!   discarded. The ring and the frozen store are the one span store: the
//!   Perfetto export, the diagnostics dump and forensics all read it;
//! * the **provenance sampler** — a bounded store of sampled
//!   `(event_ts, emitted_at)` journeys, so any percentile of the measured
//!   distribution can be matched to a concrete journey and decomposed
//!   ([`Recorder::waterfalls`]);
//! * the **metrics timeline** — every registered instrument sampled on a
//!   fixed virtual-time cadence into bounded, delta-encoded rings, so a run
//!   replays as a time series: queue depths ramping up before a stall,
//!   watermark lag breathing with snapshot phases, throughput dips lining
//!   up with recovery.
//!
//! [`attribute`] is the critical-path attribution engine: given the spans
//! overlapping one event's journey `[event_ts, emitted]`, it partitions
//! that interval into named causes (queue wait, tasklet execution,
//! backpressure stall, watermark straggler gap, snapshot phase, network
//! send/recv, fault detection, recovery, post-recovery catch-up). The
//! partition is exact: the per-cause nanos always sum to the measured
//! end-to-end latency.
//!
//! The recorder has three feeds: [`Recorder::observe`] per sink emission,
//! [`Recorder::sample`] on the timeline's cadence, and
//! [`Recorder::drain_spans`], which the runtime that schedules the work
//! calls on its own cadence. All of them cost *real* time only and never
//! advance the virtual clock, so a recorded run produces bit-identical
//! percentiles to an unrecorded one.
//!
//! Timeline encoding: one series per distinct `(name, tags)` instrument.
//! Each tick appends one signed delta per series (`value - previous
//! value`); counters therefore store their per-tick increments directly and
//! flat gauges compress to runs of zeros. Histograms are sampled at their
//! p99 — the tail-shape signal this engine is about. A series that first
//! appears mid-run is zero-padded so every series always has exactly one
//! delta per retained tick; old ticks fold into each series' `base`, so the
//! retained window always reconstructs exactly.

use crate::metrics::{MetricValue, MetricsSnapshot, Tags};
use crate::trace::{TraceData, TraceEvent, TraceKind, Tracer};
use jet_util::json::{self, ToJson, Writer};
use jet_util::Histogram;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

const MS: u64 = 1_000_000;

// The recorder's fixed settings. Each bounds memory or sets a detection
// scale; none is a policy an operator tunes per job (the SLO is, so it
// stays in [`WatchdogConfig`]).

/// Watchdog epoch on the virtual timeline: the detection threshold adapts
/// once per epoch from the completed epoch's p99.
const EPOCH_NANOS: u64 = 500 * MS;
/// Spike when `latency >= SPIKE_MULTIPLIER × previous-epoch p99`.
const SPIKE_MULTIPLIER: f64 = 3.0;
/// Floor under which nothing counts as a spike, however quiet the baseline
/// epoch was.
const MIN_SPIKE_NANOS: u64 = 20 * MS;
/// Detections closer together than this merge into one incident.
const QUIET_GAP_NANOS: u64 = 100 * MS;
/// Remembered incidents; further ones are counted, not kept.
const MAX_INCIDENTS: usize = 64;
/// Span ring retention horizon behind the newest ingested record.
const SPAN_HORIZON_NANOS: u64 = 4_000 * MS;
/// Span ring records (32 B each).
const SPAN_CAPACITY: usize = 262_144;
/// Frozen window padding before the peak event's occurrence and after the
/// last detection.
const PRE_ROLL_NANOS: u64 = 20 * MS;
const POST_ROLL_NANOS: u64 = 20 * MS;
/// Frozen spans across all incident windows. A span evicted inside a
/// window once the store is full counts as that window's truncation.
const FROZEN_SPAN_CAPACITY: usize = 262_144;
/// Stride-sampled journeys; hitting the cap doubles the stride and
/// decimates in place (deterministic, no RNG).
const STAMP_CAPACITY: usize = 4096;
/// Largest-latency journeys always retained, so extreme-percentile
/// exemplars never depend on stride luck.
const TOP_K_STAMPS: usize = 64;
/// Metrics timeline sampling cadence, virtual nanos.
const TIMELINE_CADENCE_NANOS: u64 = 100 * MS;
/// Ticks retained per series; older ticks fold into the series base.
const TIMELINE_TICKS: usize = 1024;
/// Backpressure-stall instants closer than this merge into one stall.
const STALL_MERGE_GAP_NANOS: u64 = MS;
/// Watermark-coalesce silence longer than this is a straggler gap.
const STRAGGLER_GAP_NANOS: u64 = 20 * MS;

// ------------------------------------------------------------------ config

/// The watchdog's one policy setting.
#[derive(Clone, Copy, Debug, Default)]
pub struct WatchdogConfig {
    /// Hard SLO: any emission at or above this latency is a spike, even
    /// before the first epoch establishes an adaptive baseline.
    pub slo_nanos: Option<u64>,
}

/// What a [`Recorder`] arms; an unarmed part costs nothing. The span ring
/// and its tracer run whenever the watchdog or the sampler is armed, since
/// they are what reads it.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecorderConfig {
    pub watchdog: Option<WatchdogConfig>,
    /// The provenance sampler.
    pub provenance: bool,
    /// The metrics timeline.
    pub timeline: bool,
}

// ------------------------------------------------------------------- state

/// One detected tail-latency excursion: a run of spiked emissions merged
/// under the quiet-gap rule, keyed by its worst (peak) event.
#[derive(Clone, Debug)]
pub struct SpikeIncident {
    pub id: u32,
    /// Virtual instant of the first spiked emission.
    pub first_detected: u64,
    /// Virtual instant of the most recent spiked emission.
    pub last_detected: u64,
    /// Spiked emissions merged into this incident.
    pub samples: u64,
    /// Worst latency observed in the incident.
    pub peak_latency: u64,
    /// Occurrence timestamp of the peak event (window end for windowed
    /// queries — the instant the paper's latency clock started).
    pub peak_event_ts: u64,
    /// Virtual instant the peak event was emitted at the sink.
    pub peak_emitted_at: u64,
    /// Detection threshold in force when the incident opened.
    pub threshold: u64,
}

/// One sampled event journey: occurrence → emission at the latency sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamp {
    pub event_ts: u64,
    pub emitted_at: u64,
    pub latency: u64,
}

struct Watchdog {
    slo_nanos: Option<u64>,
    epoch_start: Option<u64>,
    current: Histogram,
    /// p99 of the last completed epoch; None until one completes.
    baseline_p99: Option<u64>,
    observed: u64,
    suppressed: u64,
    next_id: u32,
}

impl Watchdog {
    /// The adaptive threshold currently in force (`u64::MAX` = armed only
    /// by the SLO until the first epoch completes).
    fn threshold(&self) -> u64 {
        let adaptive = match self.baseline_p99 {
            Some(p99) => {
                let scaled = (p99 as f64 * SPIKE_MULTIPLIER) as u64;
                scaled.max(MIN_SPIKE_NANOS)
            }
            None => u64::MAX,
        };
        adaptive.min(self.slo_nanos.unwrap_or(u64::MAX))
    }
}

#[derive(Default)]
struct Sampler {
    shift: u32,
    observed: u64,
    sampled: Vec<Stamp>,
    /// Ascending by latency, bounded at `top_k`.
    top: Vec<Stamp>,
}

impl Sampler {
    /// The sampled journey whose latency best matches `target_nanos`.
    /// Within 2% relative error the *newest* emission wins — its spans are
    /// the most likely to still sit in the span ring's horizon — else the
    /// closest latency.
    fn exemplar(&self, target_nanos: u64) -> Option<Stamp> {
        let tol = target_nanos / 50;
        let mut in_tol: Option<Stamp> = None;
        let mut closest: Option<(u64, Stamp)> = None;
        for s in self.sampled.iter().chain(self.top.iter()) {
            let err = s.latency.abs_diff(target_nanos);
            if err <= tol && in_tol.is_none_or(|b| s.emitted_at > b.emitted_at) {
                in_tol = Some(*s);
            }
            if closest.is_none_or(|(e, _)| err < e) {
                closest = Some((err, *s));
            }
        }
        in_tol.or(closest.map(|(_, s)| s))
    }
}

/// The window frozen around one incident. Its bounds widen to the
/// incident's at each drain, before any span can be evicted into it, so
/// they are the bounds the incident had when spans left the ring.
struct FrozenWindow {
    incident: SpikeIncident,
    lo: u64,
    hi: u64,
    /// Spans evicted inside the window that the frozen store had no room
    /// for.
    truncated: u64,
}

impl FrozenWindow {
    fn covers(&self, ts: u64) -> bool {
        self.lo <= ts && ts <= self.hi
    }
}

/// What a sampled instrument's scalar means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeriesKind {
    /// Cumulative counter; deltas are per-tick increments.
    Counter,
    /// Instantaneous gauge.
    Gauge,
    /// Histogram sampled at its p99 (nanos for latency instruments).
    HistogramP99,
}

impl SeriesKind {
    pub fn name(&self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::HistogramP99 => "histogram_p99",
        }
    }
}

/// One `(name, tags)` instrument's delta-encoded ring. `base` is the
/// absolute value just before the oldest retained tick, so the value at
/// retained tick `i` is `base + deltas[0..=i].sum()`.
struct Series {
    name: String,
    tags: Tags,
    kind: SeriesKind,
    base: i64,
    deltas: VecDeque<i64>,
    /// Last sampled absolute value (next delta's reference point).
    last: i64,
}

impl Series {
    /// Reconstruct the absolute value at every retained tick.
    fn values(&self) -> Vec<i64> {
        let mut acc = self.base;
        self.deltas
            .iter()
            .map(|d| {
                acc += d;
                acc
            })
            .collect()
    }
}

#[derive(Default)]
struct Timeline {
    /// Virtual timestamps of retained ticks, strictly increasing.
    ticks: VecDeque<u64>,
    /// Ticks folded out of the ring so far.
    evicted_ticks: u64,
    series: Vec<Series>,
    /// (name, canonical tag string) -> index into `series`.
    index: BTreeMap<(String, String), usize>,
    next_sample_at: u64,
    samples_total: u64,
}

fn tag_key(tags: &Tags) -> String {
    let mut s = String::new();
    for (k, v) in tags {
        s.push_str(k);
        s.push('\u{1}');
        s.push_str(v);
        s.push('\u{2}');
    }
    s
}

fn metric_scalar(value: &MetricValue) -> (SeriesKind, i64) {
    match value {
        MetricValue::Counter(v) => (SeriesKind::Counter, *v as i64),
        MetricValue::Gauge(v) => (SeriesKind::Gauge, *v),
        MetricValue::Histogram(h) => (SeriesKind::HistogramP99, h.p99 as i64),
    }
}

impl Timeline {
    fn record(&mut self, now: u64, snap: &MetricsSnapshot) {
        self.next_sample_at = now + TIMELINE_CADENCE_NANOS;
        // Re-sampling the same instant (e.g. a run boundary flush) would
        // break tick monotonicity; fold into the existing tick instead by
        // skipping — the snapshot at an instant is single-valued anyway.
        if self.ticks.back().is_some_and(|&t| t >= now) {
            return;
        }
        self.ticks.push_back(now);
        self.samples_total += 1;
        let prior_len = self.ticks.len() - 1;
        // Every known series gets a delta this tick; start at "unchanged".
        for s in &mut self.series {
            s.deltas.push_back(0);
        }
        for m in &snap.metrics {
            let (kind, value) = metric_scalar(&m.value);
            let key = (m.name.clone(), tag_key(&m.tags));
            match self.index.get(&key) {
                Some(&i) => {
                    let s = &mut self.series[i];
                    *s.deltas.back_mut().expect("pushed above") = value - s.last;
                    s.last = value;
                }
                None => {
                    // First appearance: zero-pad history so the ring stays
                    // rectangular, then step from 0 to the observed value.
                    let mut deltas: VecDeque<i64> = VecDeque::with_capacity(prior_len + 1);
                    deltas.extend(std::iter::repeat_n(0, prior_len));
                    deltas.push_back(value);
                    self.index.insert(key, self.series.len());
                    self.series.push(Series {
                        name: m.name.clone(),
                        tags: m.tags.clone(),
                        kind,
                        base: 0,
                        deltas,
                        last: value,
                    });
                }
            }
        }
        while self.ticks.len() > TIMELINE_TICKS {
            self.ticks.pop_front();
            self.evicted_ticks += 1;
            for s in &mut self.series {
                if let Some(d) = s.deltas.pop_front() {
                    s.base += d;
                }
            }
        }
        debug_assert!(
            self.ticks.iter().is_sorted_by(|a, b| a < b),
            "timeline ticks are not strictly monotone: {:?}",
            self.ticks
        );
        debug_assert!(
            self.series
                .iter()
                .all(|s| s.deltas.len() == self.ticks.len()),
            "a ragged timeline series: not one delta per tick"
        );
    }

    /// The retained window as `jet-timeline-v1` JSON, series sorted by
    /// (name, tags).
    fn to_json(&self, bench: &str, run: &str) -> String {
        let mut sorted: Vec<&Series> = self.series.iter().collect();
        sorted.sort_by(|a, b| (&a.name, &a.tags).cmp(&(&b.name, &b.tags)));
        json::document(|w| {
            w.obj(|w| {
                w.field("schema", "jet-timeline-v1")
                    .field("bench", bench)
                    .field("run", run)
                    .field("cadence_nanos", TIMELINE_CADENCE_NANOS)
                    .field("evicted_ticks", self.evicted_ticks)
                    .key("ticks_nanos")
                    .items(&self.ticks)
                    .field("series", &sorted);
            });
        })
    }
}

impl ToJson for Series {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("name", &self.name)
                .key("tags")
                .pairs(&self.tags)
                .field("kind", self.kind.name())
                .field("base", self.base)
                .key("deltas")
                .items(&self.deltas);
        });
    }
}

struct RecorderInner {
    watchdog: Option<Watchdog>,
    sampler: Option<Sampler>,
    timeline: Option<Timeline>,
    /// Enabled exactly when the span ring is armed.
    tracer: Tracer,
    ring: VecDeque<TraceEvent>,
    newest_ts: u64,
    /// Spans evicted from the ring inside some incident window, each kept
    /// once however many windows cover it.
    frozen: Vec<TraceEvent>,
    /// Spans evicted from the ring outside every incident window.
    evicted: u64,
    /// One per incident, in detection order.
    windows: Vec<FrozenWindow>,
}

impl RecorderInner {
    fn records_spans(&self) -> bool {
        self.tracer.is_enabled()
    }

    fn widen_windows(&mut self) {
        for w in &mut self.windows {
            w.lo =
                w.lo.min(w.incident.peak_event_ts.saturating_sub(PRE_ROLL_NANOS));
            w.hi =
                w.hi.max(w.incident.last_detected.saturating_add(POST_ROLL_NANOS));
        }
    }

    fn prune(&mut self) {
        let floor = self.newest_ts.saturating_sub(SPAN_HORIZON_NANOS);
        while self.ring.len() > SPAN_CAPACITY || self.ring.front().is_some_and(|e| e.rec.ts < floor)
        {
            let ev = self.ring.pop_front().expect("non-empty: condition held");
            self.freeze_or_evict(ev);
        }
    }

    /// A span leaving the ring is frozen once if any incident window covers
    /// it — every covering window then counts and attributes it — and is
    /// discarded otherwise.
    fn freeze_or_evict(&mut self, ev: TraceEvent) {
        let ts = ev.rec.ts;
        let room = self.frozen.len() < FROZEN_SPAN_CAPACITY;
        let mut covered = false;
        for w in self.windows.iter_mut().filter(|w| w.covers(ts)) {
            covered = true;
            if !room {
                w.truncated += 1;
            }
        }
        if !covered {
            self.evicted += 1;
        } else if room {
            self.frozen.push(ev);
        }
    }

    /// Every retained span (frozen or still in the ring) that `keep`
    /// selects, oldest first. A span lives in exactly one of the two
    /// stores.
    fn spans(&self, keep: impl Fn(&TraceEvent) -> bool) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .frozen
            .iter()
            .chain(&self.ring)
            .filter(|e| keep(e))
            .copied()
            .collect();
        events.sort_by_key(|e| e.rec.ts);
        events
    }

    /// Attribute an arbitrary event journey `[t0, t1]` from whatever spans
    /// are still retained — the full-distribution generalization of
    /// incident forensics.
    fn attribute_window(&self, t0: u64, t1: u64, net_latency_hint: u64) -> Attribution {
        let events = self.spans(|e| e.rec.ts <= t1 && e.rec.ts.saturating_add(e.rec.dur) >= t0);
        attribute(&events, &self.tracer.names(), t0, t1, net_latency_hint)
    }
}

/// The recorder's own fidelity counters: what the recording pipeline
/// dropped, sampled, or suppressed along the way.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecorderStats {
    /// Records lost to full tracer rings (never goes down, not even at
    /// [`Recorder::clear`]).
    pub ring_dropped: u64,
    /// Call spans are sampled 1-in-2^shift.
    pub sample_shift: u32,
    /// Spans evicted from the ring outside every incident window (never
    /// goes down).
    pub spans_evicted: u64,
    /// Spans held in the ring and the frozen store.
    pub spans_retained: usize,
    /// Emissions the watchdog observed.
    pub observed: u64,
    /// Spikes dropped by the incident cap.
    pub suppressed: u64,
    /// The watchdog's detection threshold in force (`u64::MAX` until armed).
    pub threshold: u64,
    /// Timeline samples taken.
    pub samples: u64,
    /// Timeline series tracked.
    pub series: usize,
    /// Timeline ticks retained.
    pub ticks: usize,
    /// Timeline ticks folded into the series bases.
    pub ticks_evicted: u64,
}

/// Cheap-to-clone handle to the flight recorder; `disabled()` is a no-op
/// everywhere, one branch on the hot path.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Mutex<RecorderInner>>>,
}

impl Recorder {
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Arm the parts `cfg` names; a config that arms nothing yields
    /// [`Recorder::disabled`].
    pub fn new(cfg: RecorderConfig) -> Recorder {
        let RecorderConfig {
            watchdog,
            provenance,
            timeline,
        } = cfg;
        if watchdog.is_none() && !provenance && !timeline {
            return Recorder::disabled();
        }
        let tracer = if watchdog.is_some() || provenance {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        Recorder {
            inner: Some(Arc::new(Mutex::new(RecorderInner {
                watchdog: watchdog.map(|cfg| Watchdog {
                    slo_nanos: cfg.slo_nanos,
                    epoch_start: None,
                    current: Histogram::latency(),
                    baseline_p99: None,
                    observed: 0,
                    suppressed: 0,
                    next_id: 0,
                }),
                sampler: provenance.then(Sampler::default),
                timeline: timeline.then(Timeline::default),
                tracer,
                ring: VecDeque::new(),
                newest_ts: 0,
                frozen: Vec::new(),
                evicted: 0,
                windows: Vec::new(),
            }))),
        }
    }

    fn with<R>(&self, off: R, f: impl FnOnce(&mut RecorderInner) -> R) -> R {
        match &self.inner {
            Some(inner) => f(&mut inner.lock()),
            None => off,
        }
    }

    /// Is the span ring armed (the watchdog or the sampler is)? Only then
    /// do sink emissions and drained spans carry anything for the recorder.
    pub fn records_spans(&self) -> bool {
        self.with(false, |r| r.records_spans())
    }

    /// The tracer whose rings feed the span ring: enabled exactly when
    /// [`Self::records_spans`] is. Hand it to everything that records spans.
    pub fn tracer(&self) -> Tracer {
        self.with(Tracer::disabled(), |r| r.tracer.clone())
    }

    /// Is the metrics timeline armed?
    pub fn samples_metrics(&self) -> bool {
        self.with(false, |r| r.timeline.is_some())
    }

    /// Feed one emission to the watchdog and the sampler: `now` is the
    /// virtual emission instant, `event_ts` the event's occurrence
    /// timestamp, `latency = now - event_ts`. Called from the latency sink
    /// per emission, so a disabled recorder costs one inlined branch.
    #[inline]
    pub fn observe(&self, now: u64, event_ts: u64, latency: u64) {
        if let Some(inner) = &self.inner {
            observe_armed(inner, now, event_ts, latency);
        }
    }

    /// Drain the tracer's rings into the span ring. Widens every incident
    /// window first, so eviction freezes in-window spans rather than
    /// discarding them. The rings are small by design: the runtime calls
    /// this every ~10 ms of virtual time and once more when a run returns.
    pub fn drain_spans(&self) {
        self.with((), |r| {
            if !r.records_spans() {
                return;
            }
            r.widen_windows();
            let (ring, newest_ts) = (&mut r.ring, &mut r.newest_ts);
            r.tracer.drain_each(|ev| {
                *newest_ts = (*newest_ts).max(ev.rec.ts);
                ring.push_back(ev);
            });
            r.prune();
        })
    }

    /// The retained spans (frozen or still in the ring, oldest first) with
    /// the names and tracks they refer to — the Perfetto export and the
    /// diagnostics dump render this. `None` when the span ring is not armed.
    pub fn trace(&self) -> Option<TraceData> {
        self.with(None, |r| {
            r.records_spans().then(|| r.tracer.view(r.spans(|_| true)))
        })
    }

    /// Virtual nanos until the next timeline sample is due (0 if overdue);
    /// `None` without a timeline. Callers chunk long runs at this deadline
    /// without polling every quantum.
    pub fn next_sample_in(&self, now: u64) -> Option<u64> {
        self.with(None, |r| {
            r.timeline
                .as_ref()
                .map(|t| t.next_sample_at.saturating_sub(now))
        })
    }

    /// Append one timeline tick sampled from `snap` (normally the
    /// member-merged job snapshot, so per-member series arrive pre-tagged
    /// with `member`).
    pub fn sample(&self, now: u64, snap: &MetricsSnapshot) {
        self.with((), |r| {
            if let Some(t) = &mut r.timeline {
                t.record(now, snap);
            }
        })
    }

    /// The warm-up boundary: forget incidents, every retained span and
    /// every sampled journey, so cold-start noise does not pollute the
    /// report. The watchdog's rolling baseline is kept — warm-up is exactly
    /// what it should learn — and so are the drop and eviction counts.
    pub fn clear(&self) {
        self.with((), |r| {
            r.windows.clear();
            r.frozen.clear();
            r.ring.clear();
            if let Some(w) = &mut r.watchdog {
                w.suppressed = 0;
            }
            if let Some(p) = &mut r.sampler {
                *p = Sampler::default();
            }
        })
    }

    pub fn stats(&self) -> RecorderStats {
        let off = RecorderStats {
            threshold: u64::MAX,
            ..RecorderStats::default()
        };
        self.with(off, |r| {
            let mut s = RecorderStats {
                ring_dropped: r.tracer.dropped(),
                sample_shift: r.tracer.sample_shift(),
                spans_evicted: r.evicted,
                spans_retained: r.ring.len() + r.frozen.len(),
                ..off
            };
            if let Some(w) = &r.watchdog {
                (s.observed, s.suppressed, s.threshold) = (w.observed, w.suppressed, w.threshold());
            }
            if let Some(t) = &r.timeline {
                s.samples = t.samples_total;
                s.series = t.series.len();
                s.ticks = t.ticks.len();
                s.ticks_evicted = t.evicted_ticks;
            }
            s
        })
    }

    /// Attribute every incident over its frozen window: the closed loop's
    /// output, worst incident first. `net_latency_hint` is the cluster's
    /// one-way network latency, which the span stream alone cannot know.
    pub fn forensics(&self, net_latency_hint: u64) -> Vec<IncidentReport> {
        self.with(Vec::new(), |r| {
            r.widen_windows();
            let names = r.tracer.names();
            let mut out: Vec<IncidentReport> = r
                .windows
                .iter()
                .map(|w| {
                    let events = r.spans(|e| w.covers(e.rec.ts));
                    let inc = &w.incident;
                    let (t0, t1) = (inc.peak_event_ts, inc.peak_emitted_at);
                    let attribution = attribute(&events, &names, t0, t1, net_latency_hint);
                    debug_assert_eq!(
                        attribution.total_nanos, inc.peak_latency,
                        "incident #{}: the attributed journey is not the peak latency",
                        inc.id
                    );
                    IncidentReport {
                        incident: inc.clone(),
                        window_lo: w.lo,
                        window_hi: w.hi,
                        window_events: events.len(),
                        window_truncated: w.truncated,
                        attribution,
                    }
                })
                .collect();
            out.sort_by_key(|r| std::cmp::Reverse(r.incident.peak_latency));
            out
        })
    }

    /// Build the per-percentile-band waterfall: for each `(band,
    /// percentile, target_nanos)` pick the sampler's exemplar journey and
    /// decompose it over the retained spans. Bands with no exemplar (no
    /// sampler, or nothing sampled) are omitted. `net_latency_hint` is as
    /// for [`Self::forensics`].
    pub fn waterfalls(
        &self,
        net_latency_hint: u64,
        bands: &[(&str, f64, u64)],
    ) -> AttributionReport {
        self.with(AttributionReport::default(), |r| {
            let Some(p) = &r.sampler else {
                return AttributionReport::default();
            };
            let bands = bands
                .iter()
                .filter_map(|&(band, percentile, target_nanos)| {
                    let stamp = p.exemplar(target_nanos)?;
                    debug_assert_eq!(
                        stamp.latency,
                        stamp.emitted_at.saturating_sub(stamp.event_ts),
                        "band {band}: the stamp's latency is not emitted_at - event_ts"
                    );
                    let attribution =
                        r.attribute_window(stamp.event_ts, stamp.emitted_at, net_latency_hint);
                    debug_assert_eq!(
                        attribution.total_nanos, stamp.latency,
                        "band {band}: the attributed journey is not the exemplar's latency"
                    );
                    Some(BandWaterfall {
                        band: band.to_string(),
                        percentile,
                        target_nanos,
                        stamp,
                        attribution,
                    })
                })
                .collect();
            AttributionReport {
                observed: p.observed,
                sampled: p.sampled.len() + p.top.len(),
                sample_shift: p.shift,
                bands,
            }
        })
    }

    /// Retained timeline tick timestamps, oldest first.
    pub fn ticks(&self) -> Vec<u64> {
        self.with(Vec::new(), |r| {
            r.timeline
                .as_ref()
                .map_or(Vec::new(), |t| t.ticks.iter().copied().collect())
        })
    }

    /// Job-wide timeline view: series summed across tag sets per `(name,
    /// kind)`, sorted by name — the compact rollup the diagnostics
    /// sparklines show.
    pub fn job_series(&self) -> Vec<(String, SeriesKind, Vec<i64>)> {
        self.with(Vec::new(), |r| {
            let Some(t) = &r.timeline else {
                return Vec::new();
            };
            let n = t.ticks.len();
            let mut rolled: BTreeMap<(String, &'static str), (SeriesKind, Vec<i64>)> =
                BTreeMap::new();
            for s in &t.series {
                let entry = rolled
                    .entry((s.name.clone(), s.kind.name()))
                    .or_insert_with(|| (s.kind, vec![0; n]));
                for (acc, v) in entry.1.iter_mut().zip(s.values()) {
                    *acc += v;
                }
            }
            rolled
                .into_iter()
                .map(|((name, _), (kind, values))| (name, kind, values))
                .collect()
        })
    }

    /// Export the retained timeline as `jet-timeline-v1` JSON; `None`
    /// without a timeline.
    pub fn timeline_json(&self, bench: &str, run: &str) -> Option<String> {
        self.with(None, |r| r.timeline.as_ref().map(|t| t.to_json(bench, run)))
    }
}

/// [`Recorder::observe`] past its branch: one short lock feeds the sampler
/// and the watchdog, whose incidents open their frozen windows directly.
// jet-analyze: allow(alloc, block) — one short uncontended lock per emission; incidents and sampled stamps are capacity-bounded
fn observe_armed(inner: &Mutex<RecorderInner>, now: u64, event_ts: u64, latency: u64) {
    let mut guard = inner.lock();
    let r = &mut *guard;
    if let Some(p) = &mut r.sampler {
        p.observed += 1;
        let stamp = Stamp {
            event_ts,
            emitted_at: now,
            latency,
        };
        let pos = p.top.partition_point(|s| s.latency < latency);
        if p.top.len() < TOP_K_STAMPS {
            p.top.insert(pos, stamp);
        } else if pos > 0 {
            p.top.insert(pos, stamp);
            p.top.remove(0);
        }
        let mask = (1u64 << p.shift.min(63)) - 1;
        if p.observed & mask == 0 {
            p.sampled.push(stamp);
            if p.sampled.len() >= STAMP_CAPACITY {
                // Halve by keeping even indices; the stride doubles for
                // the rest of the run.
                let mut i = 0usize;
                p.sampled.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                p.shift += 1;
            }
        }
    }
    let Some(w) = &mut r.watchdog else { return };
    w.observed += 1;
    // Roll epochs: the completed epoch's p99 becomes the baseline.
    match w.epoch_start {
        None => w.epoch_start = Some(now),
        Some(start) if now >= start + EPOCH_NANOS => {
            if w.current.count() > 0 {
                w.baseline_p99 = Some(w.current.percentile(99.0));
            }
            w.current.clear();
            // Snap forward (don't loop per missed epoch on gaps).
            let missed = (now - start) / EPOCH_NANOS;
            w.epoch_start = Some(start + missed * EPOCH_NANOS);
        }
        Some(_) => {}
    }
    let threshold = w.threshold();
    if latency < threshold {
        // Only non-spiked samples feed the baseline: a spike-heavy epoch
        // must not inflate the next epoch's threshold and mask the tail
        // of its own incident.
        w.current.record(latency);
        return;
    }
    // Spiked: merge into the open incident or open a new one.
    if let Some(last) = r.windows.last_mut().map(|fw| &mut fw.incident) {
        if now <= last.last_detected.saturating_add(QUIET_GAP_NANOS) {
            last.last_detected = last.last_detected.max(now);
            last.samples += 1;
            if latency > last.peak_latency {
                last.peak_latency = latency;
                last.peak_event_ts = event_ts;
                last.peak_emitted_at = now;
            }
            return;
        }
    }
    if r.windows.len() >= MAX_INCIDENTS {
        w.suppressed += 1;
        return;
    }
    let id = w.next_id;
    w.next_id += 1;
    r.windows.push(FrozenWindow {
        incident: SpikeIncident {
            id,
            first_detected: now,
            last_detected: now,
            samples: 1,
            peak_latency: latency,
            peak_event_ts: event_ts,
            peak_emitted_at: now,
            threshold,
        },
        // Empty until the next drain widens it.
        lo: u64::MAX,
        hi: 0,
        truncated: 0,
    });
}

// ------------------------------------------------------------ attribution

/// Named causes a spike decomposes into, in *priority* order: when two
/// causes overlap in time, the earlier variant wins the overlap. Recovery-
/// family causes outrank execution so a fault spike never blames whichever
/// innocent vertex happened to run during the outage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    /// Fault injected/first suspicion → member fenced.
    FaultDetection,
    /// Fence → execution rebuilt from the latest complete snapshot.
    Recovery,
    /// Rebuild → the spiked event finally emitted (source replay).
    RecoveryCatchup,
    /// Aligned snapshot phase in progress.
    SnapshotPhase,
    /// Producer blocked on a full downstream queue.
    BackpressureStall,
    /// Time in flight on a distributed edge (receive half).
    NetRecv,
    /// Time in flight on a distributed edge (send half).
    NetSend,
    /// Watermark coalescing silent longer than the straggler threshold.
    WatermarkGap,
    /// A tasklet timeslice was executing.
    TaskletExec,
    /// Residual: the event (or its watermark) sat in queues.
    QueueWait,
}

pub const ALL_CAUSES: [Cause; 10] = [
    Cause::FaultDetection,
    Cause::Recovery,
    Cause::RecoveryCatchup,
    Cause::SnapshotPhase,
    Cause::BackpressureStall,
    Cause::NetRecv,
    Cause::NetSend,
    Cause::WatermarkGap,
    Cause::TaskletExec,
    Cause::QueueWait,
];

impl Cause {
    pub fn name(&self) -> &'static str {
        match self {
            Cause::FaultDetection => "fault_detection",
            Cause::Recovery => "recovery",
            Cause::RecoveryCatchup => "recovery_catchup",
            Cause::SnapshotPhase => "snapshot_phase",
            Cause::BackpressureStall => "backpressure_stall",
            Cause::NetRecv => "net_recv",
            Cause::NetSend => "net_send",
            Cause::WatermarkGap => "watermark_gap",
            Cause::TaskletExec => "tasklet_exec",
            Cause::QueueWait => "queue_wait",
        }
    }

    /// Coarse family used for "is this a recovery-phase spike or a compute
    /// spike?" verdicts.
    pub fn group(&self) -> &'static str {
        match self {
            Cause::FaultDetection | Cause::Recovery | Cause::RecoveryCatchup => "recovery",
            Cause::SnapshotPhase => "snapshot",
            Cause::NetRecv | Cause::NetSend => "network",
            Cause::BackpressureStall | Cause::WatermarkGap | Cause::QueueWait => "dataflow",
            Cause::TaskletExec => "compute",
        }
    }

    fn priority(&self) -> usize {
        *self as usize
    }
}

/// One cause's share of a spike.
#[derive(Clone, Debug)]
pub struct CauseSlice {
    pub cause: Cause,
    pub nanos: u64,
    /// `nanos / total` (0 when the window is empty).
    pub share: f64,
    /// Human hint: dominant vertex, snapshot id, fence target, …
    pub detail: String,
}

/// Exact decomposition of one spiked event's `[t0, t1]` journey.
#[derive(Clone, Debug)]
pub struct Attribution {
    pub t0: u64,
    pub t1: u64,
    pub total_nanos: u64,
    /// Every cause, largest first; nanos sum to `total_nanos` exactly.
    pub slices: Vec<CauseSlice>,
    pub top_cause: Cause,
    pub top_group: &'static str,
    /// Dominant vertex when the top cause is execution/stall-shaped.
    pub blamed_vertex: Option<String>,
}

struct Interval {
    lo: u64,
    hi: u64,
    cause: Cause,
    name: u32,
}

/// Decompose `[t0, t1]` (the spiked event's occurrence → emission) into
/// named causes using the span records overlapping the window. Overlaps
/// resolve by [`Cause`] priority; uncovered time is queue wait. The slice
/// nanos sum to `t1 - t0` exactly, by construction. A network batch's
/// transit (`net_latency_hint`, the one-way latency) splits evenly into the
/// send half and the receive half.
pub fn attribute(
    events: &[TraceEvent],
    names: &[String],
    t0: u64,
    t1: u64,
    net_latency_hint: u64,
) -> Attribution {
    let total = t1.saturating_sub(t0);
    let mut ivs: Vec<Interval> = Vec::new();
    let mut push = |lo: u64, hi: u64, cause: Cause, name: u32| {
        let (lo, hi) = (lo.max(t0), hi.min(t1));
        if lo < hi {
            ivs.push(Interval {
                lo,
                hi,
                cause,
                name,
            });
        }
    };

    // Fault detection: the earliest trouble signal (fault injection or
    // first suspicion) after the previous fence, up to each fence verdict.
    let lookup = |n: &str| names.iter().position(|x| x == n).map(|i| i as u32);
    let n_fence = lookup("fence");
    let n_suspect = lookup("suspect");
    let n_recovery = lookup("recovery");
    let mut prev_fence = 0u64;
    let mut first_trouble: Option<u64> = None;
    for e in events {
        if e.rec.kind != TraceKind::Detect || Some(e.rec.name) != n_fence {
            continue;
        }
        let fence_at = e.rec.ts;
        let start = events
            .iter()
            .filter(|s| {
                (s.rec.kind == TraceKind::FaultInject
                    || (s.rec.kind == TraceKind::Detect && Some(s.rec.name) == n_suspect))
                    && s.rec.ts > prev_fence
                    && s.rec.ts <= fence_at
            })
            .map(|s| s.rec.ts)
            .min()
            .unwrap_or(fence_at);
        push(start, fence_at, Cause::FaultDetection, e.rec.name);
        first_trouble = Some(first_trouble.map_or(start, |p: u64| p.min(start)));
        prev_fence = fence_at;
    }

    // Recovery spans carry their duration (fence → rebuild complete); the
    // rebuild's end starts the catch-up clock, which runs until the spiked
    // event finally emerged at t1: its emission was gated on source replay.
    // A zero-duration span still marks the completion instant — in the
    // simulator the rebuild itself costs no virtual time, and the entire
    // outage manifests as detection + catch-up.
    let mut latest_recovery_end: Option<u64> = None;
    for e in events {
        if e.rec.kind != TraceKind::Recovery || Some(e.rec.name) != n_recovery {
            continue;
        }
        let end = e.rec.ts + e.rec.dur;
        if e.rec.dur > 0 {
            push(e.rec.ts, end, Cause::Recovery, e.rec.name);
        }
        if end >= t0 && end <= t1 {
            latest_recovery_end = Some(latest_recovery_end.map_or(end, |p: u64| p.max(end)));
        }
    }
    if let Some(end) = latest_recovery_end {
        push(end, t1, Cause::RecoveryCatchup, n_recovery.unwrap_or(0));
        // The event occurred before the trouble signal yet emerged only
        // after the rebuild: it crossed the outage, so it was re-emitted by
        // source replay from a snapshot taken *before* its occurrence. The
        // pre-fault stretch is the replay rewind depth — owned by recovery,
        // not by whatever the dataflow happened to be doing back then.
        if let Some(trouble) = first_trouble {
            if trouble > t0 {
                push(t0, trouble, Cause::RecoveryCatchup, n_recovery.unwrap_or(0));
            }
        }
    }

    for e in events {
        match e.rec.kind {
            TraceKind::SnapshotPhase if e.rec.dur > 0 => {
                push(
                    e.rec.ts,
                    e.rec.ts + e.rec.dur,
                    Cause::SnapshotPhase,
                    e.rec.name,
                );
            }
            TraceKind::Call if e.rec.dur > 0 => {
                push(
                    e.rec.ts,
                    e.rec.ts + e.rec.dur,
                    Cause::TaskletExec,
                    e.rec.name,
                );
            }
            TraceKind::NetSend => {
                let half = net_latency_hint / 2;
                push(e.rec.ts, e.rec.ts + half, Cause::NetSend, e.rec.name);
                push(
                    e.rec.ts + half,
                    e.rec.ts + 2 * half,
                    Cause::NetRecv,
                    e.rec.name,
                );
            }
            _ => {}
        }
    }

    // Backpressure stalls are instants recorded per blocked flush; runs of
    // them (same track+vertex, gaps under the merge threshold) become one
    // stall interval.
    let mut stalls: Vec<(u32, u32, u64)> = events
        .iter()
        .filter(|e| e.rec.kind == TraceKind::Stall)
        .map(|e| (e.track, e.rec.name, e.rec.ts))
        .collect();
    stalls.sort_unstable();
    let mut run: Option<(u32, u32, u64, u64)> = None;
    for (track, name, ts) in stalls {
        match &mut run {
            Some((t, n, _first, last))
                if *t == track
                    && *n == name
                    && ts.saturating_sub(*last) <= STALL_MERGE_GAP_NANOS =>
            {
                *last = ts;
            }
            _ => {
                if let Some((_, n, first, last)) = run.take() {
                    push(first, last, Cause::BackpressureStall, n);
                }
                run = Some((track, name, ts, ts));
            }
        }
    }
    if let Some((_, n, first, last)) = run.take() {
        push(first, last, Cause::BackpressureStall, n);
    }

    // Watermark straggler gaps: per-track silence between coalesce events.
    let mut coalesces: Vec<(u32, u64)> = events
        .iter()
        .filter(|e| e.rec.kind == TraceKind::WmCoalesce)
        .map(|e| (e.track, e.rec.ts))
        .collect();
    coalesces.sort_unstable();
    for w in coalesces.windows(2) {
        let ((ta, a), (tb, b)) = (w[0], w[1]);
        if ta == tb && b.saturating_sub(a) > STRAGGLER_GAP_NANOS {
            push(a, b, Cause::WatermarkGap, 0);
        }
    }

    // Priority sweep: at every elementary segment between interval
    // boundaries, the highest-priority active cause wins; segments nobody
    // covers are queue wait. Event-driven so big windows stay O(n log n).
    let mut bounds: Vec<u64> = Vec::with_capacity(ivs.len() * 2 + 2);
    bounds.push(t0);
    bounds.push(t1);
    for iv in &ivs {
        bounds.push(iv.lo);
        bounds.push(iv.hi);
    }
    bounds.sort_unstable();
    bounds.dedup();
    let mut starts: Vec<(u64, usize)> = ivs.iter().map(|iv| (iv.lo, iv.cause.priority())).collect();
    let mut ends: Vec<(u64, usize)> = ivs.iter().map(|iv| (iv.hi, iv.cause.priority())).collect();
    starts.sort_unstable();
    ends.sort_unstable();
    let (mut si, mut ei) = (0usize, 0usize);
    let mut active = [0i64; 10];
    let mut nanos = [0u64; 10];
    for seg in bounds.windows(2) {
        let (a, b) = (seg[0], seg[1]);
        while si < starts.len() && starts[si].0 <= a {
            active[starts[si].1] += 1;
            si += 1;
        }
        while ei < ends.len() && ends[ei].0 <= a {
            active[ends[ei].1] -= 1;
            ei += 1;
        }
        let winner = active
            .iter()
            .position(|&c| c > 0)
            .unwrap_or(Cause::QueueWait.priority());
        nanos[winner] += b - a;
    }

    // Per-cause dominant vertex (largest raw overlap) for details/blame.
    let mut dominant: [(u64, u32); 10] = [(0, 0); 10];
    for iv in &ivs {
        let p = iv.cause.priority();
        let weight = iv.hi - iv.lo;
        if weight > dominant[p].0 {
            dominant[p] = (weight, iv.name);
        }
    }
    let name_of = |id: u32| -> &str { names.get(id as usize).map(String::as_str).unwrap_or("?") };
    let mut slices: Vec<CauseSlice> = ALL_CAUSES
        .iter()
        .map(|&cause| {
            let p = cause.priority();
            let detail = if nanos[p] == 0 {
                String::new()
            } else {
                match cause {
                    Cause::TaskletExec | Cause::BackpressureStall => {
                        format!("dominated by {}", name_of(dominant[p].1))
                    }
                    Cause::FaultDetection => "trouble signal -> member fenced".to_string(),
                    Cause::Recovery => "fence -> rebuilt from latest complete snapshot".to_string(),
                    Cause::RecoveryCatchup => "source replay until the event emerged".to_string(),
                    Cause::QueueWait => "residual: no span covered this time".to_string(),
                    _ => String::new(),
                }
            };
            CauseSlice {
                cause,
                nanos: nanos[p],
                share: if total > 0 {
                    nanos[p] as f64 / total as f64
                } else {
                    0.0
                },
                detail,
            }
        })
        .collect();
    slices.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.cause.cmp(&b.cause)));
    let top_cause = slices.first().map(|s| s.cause).unwrap_or(Cause::QueueWait);
    let blamed_vertex = match top_cause {
        Cause::TaskletExec | Cause::BackpressureStall => {
            Some(name_of(dominant[top_cause.priority()].1).to_string())
        }
        _ => None,
    };
    let a = Attribution {
        t0,
        t1,
        total_nanos: total,
        slices,
        top_cause,
        top_group: top_cause.group(),
        blamed_vertex,
    };
    a.assert_exact();
    a
}

impl Attribution {
    /// The partition is exact: slice nanos sum to `total_nanos` and, over a
    /// non-empty window, shares sum to one.
    fn assert_exact(&self) {
        debug_assert_eq!(
            self.slices.iter().map(|c| c.nanos).sum::<u64>(),
            self.total_nanos,
            "cause nanos do not sum to total_nanos"
        );
        debug_assert!(
            self.total_nanos == 0
                || (self.slices.iter().map(|c| c.share).sum::<f64>() - 1.0).abs() < 1e-9,
            "cause shares do not sum to 1"
        );
    }

    /// The members every attribution object shares, `total_nanos` through
    /// `causes`.
    fn write_fields(&self, w: &mut Writer<'_>) {
        w.field("total_nanos", self.total_nanos)
            .field("top_cause", self.top_cause.name())
            .field("top_group", self.top_group)
            .field("blamed_vertex", &self.blamed_vertex)
            .field("causes", &self.slices);
    }
}

impl ToJson for Attribution {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| self.write_fields(w));
    }
}

impl ToJson for CauseSlice {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("cause", self.cause.name())
                .field("group", self.cause.group())
                .field("nanos", self.nanos)
                .field("share", self.share)
                .field("detail", &self.detail);
        });
    }
}

// ----------------------------------------------------------------- report

/// One attributed incident, ready to render.
#[derive(Clone, Debug)]
pub struct IncidentReport {
    pub incident: SpikeIncident,
    pub window_lo: u64,
    pub window_hi: u64,
    pub window_events: usize,
    pub window_truncated: u64,
    pub attribution: Attribution,
}

/// The structured spike report written as `results/SPIKE_<bench>.json`.
#[derive(Clone, Debug)]
pub struct SpikeReport {
    pub bench: String,
    pub run_label: String,
    /// How trustworthy the forensics are, and the detection threshold.
    pub fidelity: RecorderStats,
    pub incidents: Vec<IncidentReport>,
}

/// `jet-spike-v1`.
impl ToJson for SpikeReport {
    fn write_json(&self, w: &mut Writer<'_>) {
        let f = &self.fidelity;
        w.obj(|w| {
            w.field("schema", "jet-spike-v1")
                .field("bench", &self.bench)
                .field("run", &self.run_label)
                .field("threshold_nanos", f.threshold)
                .key("fidelity")
                .obj(|w| {
                    w.field("trace_ring_dropped", f.ring_dropped)
                        .field("recorder_evicted", f.spans_evicted)
                        .field("sample_shift", f.sample_shift)
                        .field("spans_retained", f.spans_retained)
                        .field("observed", f.observed)
                        .field("suppressed", f.suppressed);
                })
                .field("incidents", &self.incidents);
        });
    }
}

impl ToJson for IncidentReport {
    fn write_json(&self, w: &mut Writer<'_>) {
        let inc = &self.incident;
        w.obj(|w| {
            w.field("id", inc.id)
                .field("first_detected_nanos", inc.first_detected)
                .field("last_detected_nanos", inc.last_detected)
                .field("samples", inc.samples)
                .key("peak")
                .obj(|w| {
                    w.field("event_ts_nanos", inc.peak_event_ts)
                        .field("emitted_at_nanos", inc.peak_emitted_at)
                        .field("latency_nanos", inc.peak_latency);
                })
                .key("window")
                .obj(|w| {
                    w.field("lo_nanos", self.window_lo)
                        .field("hi_nanos", self.window_hi)
                        .field("events", self.window_events)
                        .field("truncated", self.window_truncated);
                })
                .field("attribution", &self.attribution);
        });
    }
}

// -------------------------------------------------------------- waterfall

/// One percentile band's latency waterfall: the exemplar journey matched
/// to the measured percentile, decomposed into exact-sum cause slices.
#[derive(Clone, Debug)]
pub struct BandWaterfall {
    /// Display label: `p50`, `p99`, `p99.99`.
    pub band: String,
    pub percentile: f64,
    /// The measured percentile from the run's latency histogram.
    pub target_nanos: u64,
    /// The exemplar journey (its `latency` equals the attribution total
    /// exactly; `target_nanos` is the histogram digest it approximates).
    pub stamp: Stamp,
    pub attribution: Attribution,
}

/// The full-distribution attribution section embedded per run in
/// `BENCH_*.json`.
#[derive(Clone, Debug, Default)]
pub struct AttributionReport {
    /// Journeys the sampler observed in the measurement window.
    pub observed: u64,
    /// Stamps retained when the waterfall was built.
    pub sampled: usize,
    /// Journeys were stride-sampled 1-in-2^shift.
    pub sample_shift: u32,
    pub bands: Vec<BandWaterfall>,
}

/// The `"attribution"` object a BENCH run record embeds.
impl ToJson for AttributionReport {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("observed", self.observed)
                .field("sampled", self.sampled)
                .field("sample_shift", self.sample_shift)
                .field("bands", &self.bands);
        });
    }
}

/// A band flattens its exemplar stamp and its attribution into one object.
impl ToJson for BandWaterfall {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("band", &self.band)
                .field("percentile", self.percentile)
                .field("target_nanos", self.target_nanos)
                .field("event_ts_nanos", self.stamp.event_ts)
                .field("emitted_at_nanos", self.stamp.emitted_at)
                .field("latency_nanos", self.stamp.latency);
            self.attribution.write_fields(w);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{tags, MetricsRegistry};
    use crate::trace::{SpanRecord, CALL_SAMPLE_SHIFT, RING_CAPACITY};

    /// The one-way network latency the tests attribute with.
    const NET: u64 = 500_000;

    fn ev(kind: TraceKind, ts: u64, dur: u64, name: u32) -> TraceEvent {
        TraceEvent {
            track: 0,
            rec: SpanRecord {
                ts,
                dur,
                name,
                kind,
                arg: 0,
            },
        }
    }

    fn watched(slo_nanos: Option<u64>) -> Recorder {
        Recorder::new(RecorderConfig {
            watchdog: Some(WatchdogConfig { slo_nanos }),
            ..RecorderConfig::default()
        })
    }

    fn sampled() -> Recorder {
        Recorder::new(RecorderConfig {
            provenance: true,
            ..RecorderConfig::default()
        })
    }

    fn timeline() -> Recorder {
        Recorder::new(RecorderConfig {
            timeline: true,
            ..RecorderConfig::default()
        })
    }

    /// Incidents in detection order.
    fn incidents(rec: &Recorder) -> Vec<SpikeIncident> {
        let mut reps = rec.forensics(NET);
        reps.sort_by_key(|r| r.incident.id);
        reps.into_iter().map(|r| r.incident).collect()
    }

    fn exemplar(rec: &Recorder, target_nanos: u64) -> Option<Stamp> {
        let report = rec.waterfalls(NET, &[("t", 0.0, target_nanos)]);
        report.bands.first().map(|b| b.stamp)
    }

    fn snap_with_counter(v: u64) -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("jet_test_items_total", tags(&[("member", "0")]))
            .add(v);
        reg.snapshot()
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let off = Recorder::disabled();
        assert!(Recorder::new(RecorderConfig::default()).inner.is_none());
        assert!(!off.records_spans() && !off.samples_metrics());
        assert_eq!(off.next_sample_in(0), None);
        off.observe(0, 0, u64::MAX);
        off.sample(0, &snap_with_counter(1));
        off.drain_spans();
        assert!(!off.tracer().is_enabled() && off.trace().is_none());
        let s = off.stats();
        assert_eq!((s.observed, s.samples, s.spans_retained), (0, 0, 0));
        assert_eq!(s.threshold, u64::MAX);
        assert!(off.forensics(NET).is_empty());
        assert!(exemplar(&off, 1).is_none());
        assert!(off.timeline_json("b", "r").is_none());
    }

    #[test]
    fn watchdog_adapts_threshold_and_merges_incidents() {
        let rec = watched(None);
        // First epoch (500 ms from the first emission): 5 ms latencies.
        // Nothing can spike before a baseline exists.
        for i in 0..100u64 {
            rec.observe(5 * MS + i * MS, i * MS, 5 * MS);
        }
        assert!(incidents(&rec).is_empty());
        assert_eq!(rec.stats().threshold, u64::MAX);
        // Second epoch: 3 × 5 ms is under the 20 ms floor.
        for i in 0..100u64 {
            let now = 600 * MS + i * MS;
            rec.observe(now, now - 8 * MS, 8 * MS);
        }
        assert_eq!(rec.stats().threshold, MIN_SPIKE_NANOS);
        // Third epoch: 3 × the second's 8 ms p99 clears the floor.
        rec.observe(1_100 * MS, 1_092 * MS, 8 * MS);
        let mut h = Histogram::latency();
        h.record(8 * MS);
        let adaptive = (h.percentile(99.0) as f64 * SPIKE_MULTIPLIER) as u64;
        assert!(adaptive > MIN_SPIKE_NANOS);
        assert_eq!(rec.stats().threshold, adaptive);
        rec.observe(1_200 * MS, 1_150 * MS, 50 * MS); // spike
        rec.observe(1_250 * MS, 1_160 * MS, 90 * MS); // merges, new peak
        rec.observe(1_400 * MS, 1_330 * MS, 70 * MS); // past quiet gap: second incident
        let incs = incidents(&rec);
        assert_eq!(incs.len(), 2);
        assert_eq!(incs[0].samples, 2);
        assert_eq!(incs[0].peak_latency, 90 * MS);
        assert_eq!(incs[0].peak_event_ts, 1_160 * MS);
        assert_eq!(incs[0].threshold, adaptive);
        assert_eq!(incs[1].samples, 1);
    }

    #[test]
    fn watchdog_slo_arms_immediately() {
        let rec = watched(Some(100));
        rec.observe(150, 0, 150);
        let incs = incidents(&rec);
        assert_eq!(incs.len(), 1);
        assert_eq!(incs[0].threshold, 100);
    }

    #[test]
    fn watchdog_incidents_are_capped() {
        let rec = watched(Some(100));
        rec.observe(150, 0, 150);
        // Spikes 200 ms apart each open an incident until the cap; the
        // rest are counted.
        for i in 1..=MAX_INCIDENTS as u64 + 5 {
            let now = i * 200 * MS;
            rec.observe(now, now - 150, 150);
        }
        assert_eq!(incidents(&rec).len(), MAX_INCIDENTS);
        assert_eq!(rec.stats().suppressed, 6);
    }

    /// Four `agg` calls at 1000..1030 ns and four at 300 ms, then a flood
    /// of 32 spans at 5 s that pushes all eight past the 4 s horizon.
    fn drain_then_flood(rec: &Recorder, spike: impl FnOnce()) {
        let mut w = rec.tracer().writer(0, "w");
        let name = w.intern("agg");
        for i in 0..4u64 {
            w.record(TraceKind::Call, 1_000 + i * 10, 5, name, 0);
            w.record(TraceKind::Call, 300 * MS + i, 5, name, 0);
        }
        rec.drain_spans();
        spike();
        for i in 0..32u64 {
            w.record(TraceKind::Call, 5_000 * MS + i, 1, name, 0);
        }
        rec.drain_spans();
    }

    #[test]
    fn recorder_freezes_spike_window_across_eviction() {
        let rec = watched(Some(100));
        // The window [0, 1100 ns + 20 ms] covers the four early spans: they
        // are evicted into the frozen store, not the void.
        drain_then_flood(&rec, || rec.observe(1_100, 990, 110));
        let reps = rec.forensics(NET);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].window_events, 4, "frozen spans survived eviction");
        let s = rec.stats();
        assert_eq!(s.spans_evicted, 4, "the spans at 300 ms were evicted");
        assert_eq!(s.spans_retained, 4 + 32);
    }

    #[test]
    fn a_span_in_two_overlapping_windows_counts_in_both() {
        let rec = watched(Some(100));
        // Two incidents past the quiet gap, peaking on the same event
        // instant: windows [0, 20 ms + 1100 ns] and [0, 220 ms + 1000 ns]
        // both cover the four early spans, and neither the ones at 300 ms.
        drain_then_flood(&rec, || {
            rec.observe(1_100, 1_000, 100);
            rec.observe(200 * MS + 1_000, 1_000, 200 * MS);
        });
        let reps = rec.forensics(NET);
        assert_eq!(reps.len(), 2);
        for r in &reps {
            assert_eq!(r.window_events, 4, "incident #{}", r.incident.id);
            let exec = &r.attribution.slices;
            let exec = exec.iter().find(|s| s.cause == Cause::TaskletExec).unwrap();
            assert_eq!(
                exec.nanos, 20,
                "incident #{} attributes all four calls",
                r.incident.id
            );
        }
        assert_eq!(
            rec.stats().spans_retained,
            32 + 4,
            "each frozen span kept once"
        );
    }

    #[test]
    fn watchdog_and_sampler_armed_together_match_each_armed_alone() {
        let both = Recorder::new(RecorderConfig {
            watchdog: Some(WatchdogConfig::default()),
            provenance: true,
            ..RecorderConfig::default()
        });
        let (wd_only, prov_only) = (watched(None), sampled());
        for rec in [&both, &wd_only, &prov_only] {
            // 5 s at one emission per 100 µs: a steady ~1 ms with a burst
            // of 50 ms every 7919 emissions (~0.8 s apart).
            for i in 1..=50_000u64 {
                let latency = if i % 7_919 < 5 {
                    50 * MS + i % 13
                } else {
                    MS + i % 7
                };
                let now = 1_000 * MS + i * 100_000;
                rec.observe(now, now - latency, latency);
            }
        }
        let fmt = |v: Vec<SpikeIncident>| format!("{v:?}");
        assert_eq!(fmt(incidents(&both)), fmt(incidents(&wd_only)));
        assert!(
            incidents(&both).len() > 1,
            "the feed must open several incidents"
        );
        let (a, b) = (both.stats(), wd_only.stats());
        assert_eq!(
            (a.observed, a.suppressed, a.threshold),
            (b.observed, b.suppressed, b.threshold)
        );
        let targets = [
            ("p50", 50.0, MS + 3),
            ("p99", 99.0, MS + 6),
            ("max", 100.0, 50 * MS + 12),
        ];
        let (a, b) = (
            both.waterfalls(NET, &targets),
            prov_only.waterfalls(NET, &targets),
        );
        assert_eq!(
            (a.observed, a.sampled, a.sample_shift),
            (b.observed, b.sampled, b.sample_shift)
        );
        assert!(a.sample_shift > 0, "decimation kicked in");
        let stamps = |r: &AttributionReport| r.bands.iter().map(|b| b.stamp).collect::<Vec<_>>();
        assert_eq!(stamps(&a), stamps(&b));
        assert_eq!(a.bands.len(), 3);
    }

    #[test]
    fn attribution_partitions_exactly_and_prioritizes_recovery() {
        let names: Vec<String> = ["?", "agg", "suspect", "fence", "recovery"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (t0, t1) = (1_000u64, 11_000u64);
        let events = vec![
            ev(TraceKind::Call, 1_000, 2_000, 1),     // exec 1000..3000
            ev(TraceKind::FaultInject, 3_500, 0, 0),  // trouble starts
            ev(TraceKind::Detect, 4_000, 0, 2),       // suspect
            ev(TraceKind::Detect, 5_000, 0, 3),       // fence
            ev(TraceKind::Recovery, 5_000, 2_000, 4), // rebuild 5000..7000
            ev(TraceKind::Call, 6_000, 500, 1),       // overlaps recovery: loses
        ];
        let a = attribute(&events, &names, t0, t1, NET);
        let sum: u64 = a.slices.iter().map(|s| s.nanos).sum();
        assert_eq!(sum, t1 - t0, "partition is exact");
        let get = |c: Cause| a.slices.iter().find(|s| s.cause == c).unwrap().nanos;
        // The event occurred before the fault and emerged after the rebuild:
        // it crossed the outage, so the pre-fault stretch (including the
        // exec span back then) is replay rewind depth, not compute.
        assert_eq!(get(Cause::FaultDetection), 1_500); // 3500..5000
        assert_eq!(get(Cause::Recovery), 2_000); // 5000..7000, beats the call
        assert_eq!(get(Cause::RecoveryCatchup), 6_500); // 1000..3500 + 7000..t1
        assert_eq!(get(Cause::TaskletExec), 0);
        assert_eq!(get(Cause::QueueWait), 0);
        assert_eq!(a.top_cause, Cause::RecoveryCatchup);
        assert_eq!(a.top_group, "recovery");
        assert!(a.blamed_vertex.is_none(), "no vertex blamed for a fault");
    }

    #[test]
    fn attribution_blames_dominant_vertex_without_faults() {
        let names: Vec<String> = ["?", "hot-agg", "map"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let events = vec![
            ev(TraceKind::Call, 0, 6_000, 1),
            ev(TraceKind::Call, 6_000, 1_000, 2),
        ];
        let a = attribute(&events, &names, 0, 10_000, NET);
        assert_eq!(a.top_cause, Cause::TaskletExec);
        assert_eq!(a.top_group, "compute");
        assert_eq!(a.blamed_vertex.as_deref(), Some("hot-agg"));
        let sum: u64 = a.slices.iter().map(|s| s.nanos).sum();
        assert_eq!(sum, 10_000);
    }

    #[test]
    fn attribution_of_empty_window_is_all_queue_wait() {
        let a = attribute(&[], &[], 100, 1_100, NET);
        assert_eq!(a.total_nanos, 1_000);
        assert_eq!(a.top_cause, Cause::QueueWait);
        assert_eq!(a.slices[0].nanos, 1_000);
    }

    #[test]
    fn stall_instants_merge_into_intervals() {
        let names: Vec<String> = ["?", "sink"].iter().map(|s| s.to_string()).collect();
        let mut events: Vec<TraceEvent> = (0..5u64)
            .map(|i| ev(TraceKind::Stall, 1_000 + i * 100, 0, 1))
            .collect();
        events.push(ev(TraceKind::Stall, 900_000_000, 0, 1)); // far away: own (empty) run
        let a = attribute(&events, &names, 0, 10_000, NET);
        let stall = a
            .slices
            .iter()
            .find(|s| s.cause == Cause::BackpressureStall)
            .unwrap();
        assert_eq!(stall.nanos, 400, "5 instants 100ns apart = one 400ns stall");
    }

    #[test]
    fn coalesce_silence_past_the_straggler_gap_is_a_watermark_gap() {
        // Coalesces 10 ms apart, then 30 ms apart: only the second silence
        // is longer than the 20 ms straggler gap.
        let events: Vec<TraceEvent> = [0, 10, 40]
            .iter()
            .map(|&t| ev(TraceKind::WmCoalesce, t * MS, 0, 0))
            .collect();
        let a = attribute(&events, &[], 0, 50 * MS, NET);
        let gap = a.slices.iter().find(|s| s.cause == Cause::WatermarkGap);
        assert_eq!(gap.unwrap().nanos, 30 * MS);
    }

    #[test]
    fn spike_report_json_parses_into_typed_fields() {
        let rec = watched(Some(50));
        rec.observe(2_000, 1_000, 1_000);
        let report = SpikeReport {
            bench: "unit".into(),
            run_label: "crash".into(),
            fidelity: rec.stats(),
            incidents: rec.forensics(NET),
        };
        let doc = json::parse(&json::render(&report)).expect("valid JSON");
        assert_eq!(doc["schema"].as_str(), Some("jet-spike-v1"));
        assert_eq!(doc["bench"].as_str(), Some("unit"));
        assert_eq!(doc["threshold_nanos"].as_u64(), Some(50));
        assert_eq!(doc["fidelity"]["suppressed"].as_u64(), Some(0));
        let inc = &doc["incidents"][0];
        assert_eq!(inc["peak"]["latency_nanos"].as_u64(), Some(1_000));
        assert_eq!(inc["window"]["events"].as_u64(), Some(0));
        let a = &inc["attribution"];
        assert_eq!(a["total_nanos"].as_u64(), Some(1_000));
        assert_eq!(a["top_cause"].as_str(), Some("queue_wait"));
        assert_eq!(a["blamed_vertex"], json::Json::Null);
        assert_eq!(a["causes"].as_arr().map(<[_]>::len), Some(ALL_CAUSES.len()));
        assert_eq!(a["causes"][0]["share"].as_f64(), Some(1.0));
    }

    #[test]
    fn sampler_top_k_preserves_extreme_latencies() {
        let rec = sampled();
        // 100k journeys, latency == i: heavy decimation, but the largest
        // latencies must survive in the top-k store.
        for i in 1..=100_000u64 {
            rec.observe(2 * i, i, i);
        }
        let report = rec.waterfalls(NET, &[("max", 100.0, 100_000)]);
        assert_eq!(report.observed, 100_000);
        assert!(report.sampled <= STAMP_CAPACITY + TOP_K_STAMPS);
        assert!(report.sample_shift > 0, "decimation kicked in");
        assert_eq!(
            report.bands[0].stamp.latency, 100_000,
            "p-max exemplar is exact"
        );
    }

    #[test]
    fn sampler_is_deterministic_across_identical_feeds() {
        let mk = || {
            let rec = sampled();
            for i in 1..=10_000u64 {
                rec.observe(i + (i % 997) * 1_000, i, (i % 997) * 1_000);
            }
            rec
        };
        let (a, b) = (mk(), mk());
        for target in [0u64, 100_000, 500_000, 996_000] {
            assert_eq!(exemplar(&a, target).unwrap(), exemplar(&b, target).unwrap());
        }
    }

    #[test]
    fn sampler_exemplar_prefers_newest_within_tolerance() {
        let rec = sampled();
        rec.observe(2_000, 1_000, 1_000); // old journey, exact match
        rec.observe(10_010, 9_000, 1_010); // newer, within 2% of 1000
        let e = exemplar(&rec, 1_000).expect("exemplar");
        assert_eq!(e.emitted_at, 10_010, "newest in-tolerance journey wins");
        // Outside tolerance the closest latency wins regardless of age.
        rec.observe(520_000, 20_000, 500_000);
        let far = exemplar(&rec, 400_000).expect("exemplar");
        assert_eq!(far.latency, 500_000);
    }

    #[test]
    fn clear_forgets_incidents_and_stamps_but_keeps_the_baseline() {
        let rec = Recorder::new(RecorderConfig {
            watchdog: Some(WatchdogConfig {
                slo_nanos: Some(100),
            }),
            provenance: true,
            ..RecorderConfig::default()
        });
        rec.observe(200, 0, 200);
        rec.clear();
        assert!(incidents(&rec).is_empty());
        let report = rec.waterfalls(NET, &[("p50", 50.0, 1)]);
        assert_eq!(
            (report.observed, report.sampled, report.sample_shift),
            (0, 0, 0)
        );
        assert!(report.bands.is_empty());
        rec.observe(400, 0, 400);
        assert_eq!(incidents(&rec)[0].id, 1, "incident ids keep counting");
        assert_eq!(rec.stats().observed, 2);
    }

    #[test]
    fn waterfall_attributes_ring_spans() {
        let rec = sampled();
        let mut w = rec.tracer().writer(0, "w");
        let name = w.intern("hot-agg");
        w.record(TraceKind::Call, 2_000, 6_000, name, 0);
        rec.drain_spans();
        rec.observe(11_000, 1_000, 10_000);
        let report = rec.waterfalls(NET, &[("p50", 50.0, 10_000)]);
        let a = &report.bands[0].attribution;
        let sum: u64 = a.slices.iter().map(|s| s.nanos).sum();
        assert_eq!(sum, 10_000, "partition is exact");
        assert_eq!(a.top_cause, Cause::TaskletExec);
        assert_eq!(a.blamed_vertex.as_deref(), Some("hot-agg"));
    }

    #[test]
    fn band_waterfalls_sum_exactly_and_render_json() {
        let rec = sampled();
        let mut w = rec.tracer().writer(0, "w");
        let name = w.intern("agg");
        w.record(TraceKind::Call, 500, 200, name, 0);
        w.record(TraceKind::Call, 5_000, 3_000, name, 0);
        rec.drain_spans();
        let bands = [("p50", 50.0, 1_000), ("p99.99", 99.99, 10_000)];
        // An empty sampler yields an empty-bands report, not a panic.
        assert!(rec.waterfalls(NET, &bands).bands.is_empty());
        rec.observe(1_100, 100, 1_000); // p50-ish journey
        rec.observe(10_400, 400, 10_000); // tail journey
        let report = rec.waterfalls(NET, &bands);
        assert_eq!(report.bands.len(), 2);
        for b in &report.bands {
            let sum: u64 = b.attribution.slices.iter().map(|s| s.nanos).sum();
            assert_eq!(sum, b.stamp.latency, "band {} sums exactly", b.band);
            assert_eq!(b.attribution.total_nanos, b.stamp.latency);
        }
        let tail = &report.bands[1];
        let exec = tail
            .attribution
            .slices
            .iter()
            .find(|s| s.cause == Cause::TaskletExec)
            .unwrap();
        // Both ring spans (500..700 and 5000..8000) fall inside the band.
        assert_eq!(exec.nanos, 3_200, "ring spans attributed inside the band");
        let doc = json::parse(&json::render(&report)).expect("valid JSON");
        assert_eq!(doc["observed"].as_u64(), Some(2));
        assert_eq!(doc["bands"][0]["band"].as_str(), Some("p50"));
        let tail = &doc["bands"][1];
        assert_eq!(tail["band"].as_str(), Some("p99.99"));
        assert_eq!(tail["percentile"].as_f64(), Some(99.99));
        assert_eq!(tail["latency_nanos"].as_u64(), Some(10_000));
        assert_eq!(tail["total_nanos"].as_u64(), Some(10_000));
        assert_eq!(tail["causes"][0]["cause"].as_str(), Some("queue_wait"));
    }

    #[test]
    fn spike_and_band_json_render_attribution_identically() {
        let rec = Recorder::new(RecorderConfig {
            watchdog: Some(WatchdogConfig {
                slo_nanos: Some(50),
            }),
            provenance: true,
            ..RecorderConfig::default()
        });
        rec.observe(2_000, 1_000, 1_000);
        let spike = json::render(SpikeReport {
            bench: "unit".into(),
            run_label: "r".into(),
            fidelity: rec.stats(),
            incidents: rec.forensics(NET),
        });
        let band = json::render(rec.waterfalls(NET, &[("p50", 50.0, 1_000)]));
        let (spike, band) = (json::parse(&spike).unwrap(), json::parse(&band).unwrap());
        let attribution = spike["incidents"][0]["attribution"].as_obj().unwrap();
        let band = band["bands"][0].as_obj().unwrap();
        // The band's members end with exactly the spike's attribution object.
        assert_eq!(&band[band.len() - attribution.len()..], attribution);
        assert_eq!(
            attribution[0],
            ("total_nanos".into(), json::Json::Int(1_000))
        );
        let causes = spike["incidents"][0]["attribution"]["causes"].clone();
        assert_eq!(
            causes[0]["detail"].as_str(),
            Some("residual: no span covered this time")
        );
    }

    #[test]
    fn timeline_only_recorder_keeps_no_spans() {
        let rec = timeline();
        assert!(rec.samples_metrics() && !rec.records_spans());
        assert!(!rec.tracer().is_enabled(), "no span ring, no tracer");
        rec.drain_spans();
        assert_eq!(rec.stats().spans_retained, 0);
        assert!(rec.trace().is_none());
    }

    #[test]
    fn clear_forgets_retained_spans_and_counts_only_grow() {
        let rec = watched(Some(100));
        let tracer = rec.tracer();
        assert_eq!(tracer.sample_shift(), CALL_SAMPLE_SHIFT);
        let mut w = tracer.writer(0, "w");
        let name = w.intern("agg");
        let mut last = rec.stats();
        for round in 0..3u64 {
            // Overfill the writer's ring by 5 (drops) with spans 1 ms
            // apart, so the kept ones span 8.19 s and the 4 s horizon
            // evicts all but the newest 4,001 of them, then drain.
            for i in 0..RING_CAPACITY as u64 + 5 {
                w.record(TraceKind::Call, round * 10_000 * MS + i * MS, 1, name, 0);
            }
            rec.drain_spans();
            let s = rec.stats();
            assert_eq!(s.ring_dropped, 5 * (round + 1), "round {round}");
            assert!(s.spans_evicted > last.spans_evicted, "round {round}");
            assert_eq!(s.spans_retained, 4_001);
            let trace = rec.trace().expect("span ring armed");
            assert_eq!(trace.events.len(), 4_001);
            assert_eq!(trace.tracks.len(), 1);
            assert_eq!(trace.name(name), "agg");
            if round == 1 {
                rec.clear();
                let cleared = rec.stats();
                assert_eq!(cleared.spans_retained, 0, "clear forgets retained spans");
                assert!(rec.trace().expect("still armed").events.is_empty());
                assert_eq!(
                    (cleared.ring_dropped, cleared.spans_evicted),
                    (s.ring_dropped, s.spans_evicted),
                    "clear keeps the counts"
                );
            }
            last = rec.stats();
        }
    }

    #[test]
    fn empty_job_exports_valid_empty_timeline() {
        let rec = timeline();
        let doc = timeline_doc_named(&rec, "bench", "run");
        assert_eq!(doc["schema"].as_str(), Some("jet-timeline-v1"));
        assert_eq!(doc["bench"].as_str(), Some("bench"));
        assert_eq!(doc["cadence_nanos"].as_u64(), Some(100 * MS));
        assert_eq!(doc["ticks_nanos"], json::Json::Arr(Vec::new()));
        let s = rec.stats();
        assert_eq!(
            (s.samples, s.series, s.ticks, s.ticks_evicted),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn single_sample_records_absolute_values_as_first_delta() {
        let rec = timeline();
        assert_eq!(rec.next_sample_in(0), Some(0));
        rec.sample(0, &snap_with_counter(42));
        assert_eq!(rec.next_sample_in(1), Some(100 * MS - 1));
        assert_eq!(rec.next_sample_in(100 * MS), Some(0));
        let s = rec.stats();
        assert_eq!(
            (s.samples, s.series, s.ticks, s.ticks_evicted),
            (1, 1, 1, 0)
        );
        let series = &timeline_doc(&rec)["series"][0];
        assert_eq!(series["name"].as_str(), Some("jet_test_items_total"));
        assert_eq!(series["tags"]["member"].as_str(), Some("0"));
        assert_eq!(series["kind"].as_str(), Some("counter"));
        assert_eq!(series["base"].as_u64(), Some(0));
        assert_eq!(series["deltas"], json::Json::Arr(vec![json::Json::Int(42)]));
    }

    #[test]
    fn counters_delta_encode_and_gauges_track_value() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jet_test_items_total", tags(&[]));
        let g = reg.gauge("jet_test_queue_depth", tags(&[]));
        let rec = timeline();
        c.add(10);
        g.set(5);
        rec.sample(0, &reg.snapshot());
        c.add(7);
        g.set(3);
        rec.sample(100 * MS, &reg.snapshot());
        let series = rec.job_series();
        let counter = series
            .iter()
            .find(|(n, _, _)| n == "jet_test_items_total")
            .expect("counter series");
        assert_eq!(counter.2, vec![10, 17]);
        let gauge = series
            .iter()
            .find(|(n, _, _)| n == "jet_test_queue_depth")
            .expect("gauge series");
        assert_eq!(gauge.2, vec![5, 3]);
    }

    #[test]
    fn ring_wrap_folds_oldest_ticks_into_base() {
        let rec = timeline();
        let reg = MetricsRegistry::new();
        let c = reg.counter("jet_test_items_total", tags(&[]));
        let n = TIMELINE_TICKS as u64 + 3;
        for i in 0..n {
            c.add(10);
            rec.sample(i * TIMELINE_CADENCE_NANOS, &reg.snapshot());
        }
        let s = rec.stats();
        assert_eq!(
            (s.samples, s.ticks, s.ticks_evicted),
            (n, TIMELINE_TICKS, 3)
        );
        let ticks = rec.ticks();
        assert_eq!(ticks[0], 3 * TIMELINE_CADENCE_NANOS);
        assert_eq!(ticks.last(), Some(&((n - 1) * TIMELINE_CADENCE_NANOS)));
        // Absolute values survive the fold: base picks up evicted deltas.
        let values = &rec.job_series()[0].2;
        assert_eq!(values[..3], [40, 50, 60]);
        assert_eq!(values.last(), Some(&(10 * n as i64)));
        let doc = timeline_doc(&rec);
        assert_eq!(doc["series"][0]["base"].as_u64(), Some(30));
        assert_eq!(doc["evicted_ticks"].as_u64(), Some(3));
    }

    #[test]
    fn late_appearing_series_zero_pads_history() {
        let rec = timeline();
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("jet_test_a_total", tags(&[]));
        c1.add(1);
        rec.sample(0, &reg.snapshot());
        let c2 = reg.counter("jet_test_b_total", tags(&[]));
        c2.add(9);
        rec.sample(100 * MS, &reg.snapshot());
        let series = rec.job_series();
        let b = series
            .iter()
            .find(|(n, _, _)| n == "jet_test_b_total")
            .expect("late series");
        assert_eq!(b.2, vec![0, 9]);
        // Rectangular invariant: every series has one delta per tick.
        let ticks = rec.stats().ticks;
        for (_, _, values) in &series {
            assert_eq!(values.len(), ticks);
        }
    }

    #[test]
    fn duplicate_instant_sample_is_folded() {
        let rec = timeline();
        rec.sample(0, &snap_with_counter(1));
        rec.sample(0, &snap_with_counter(2));
        let s = rec.stats();
        assert_eq!((s.samples, s.ticks), (1, 1));
    }

    #[test]
    fn histogram_series_sample_p99() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("jet_test_latency_nanos", tags(&[]));
        for v in 1..=100u64 {
            h.record(v);
        }
        let rec = timeline();
        rec.sample(0, &reg.snapshot());
        let series = rec.job_series();
        assert_eq!(series[0].1, SeriesKind::HistogramP99);
        assert!(series[0].2[0] > 0);
        let doc = timeline_doc(&rec);
        assert_eq!(doc["series"][0]["kind"].as_str(), Some("histogram_p99"));
    }

    #[test]
    fn timeline_json_ticks_are_strictly_monotone() {
        let rec = timeline();
        for i in 0..5u64 {
            rec.sample(i * MS, &snap_with_counter(1));
        }
        rec.sample(3 * MS, &snap_with_counter(1));
        let doc = timeline_doc(&rec);
        let ticks: Vec<u64> = doc["ticks_nanos"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|t| t.as_u64().unwrap())
            .collect();
        assert_eq!(ticks, (0..5u64).map(|i| i * MS).collect::<Vec<_>>());
        assert_eq!(
            doc["series"][0]["deltas"].as_arr().unwrap().len(),
            ticks.len()
        );
    }

    fn timeline_doc(rec: &Recorder) -> json::Json {
        timeline_doc_named(rec, "b", "r")
    }

    fn timeline_doc_named(rec: &Recorder, bench: &str, run: &str) -> json::Json {
        let text = rec.timeline_json(bench, run).expect("timeline armed");
        json::parse(&text).expect("valid JSON")
    }

    /// A timeline of ticks at 1 and 2 ms, one counter series.
    fn two_ticks() -> Timeline {
        let mut t = Timeline::default();
        t.record(MS, &snap_with_counter(1));
        t.record(2 * MS, &snap_with_counter(2));
        t
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not strictly monotone")]
    fn timeline_asserts_strictly_monotone_ticks() {
        let mut t = two_ticks();
        t.ticks[0] = 3 * MS;
        t.record(4 * MS, &snap_with_counter(3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "ragged timeline series")]
    fn timeline_asserts_one_delta_per_tick() {
        let mut t = two_ticks();
        t.series[0].deltas.pop_back();
        t.record(3 * MS, &snap_with_counter(3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cause nanos do not sum to total_nanos")]
    fn attribution_asserts_an_exact_partition() {
        let mut a = attribute(&[], &[], 100, 1_100, NET);
        a.slices[0].nanos += 1;
        a.assert_exact();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not emitted_at - event_ts")]
    fn waterfall_asserts_a_consistent_stamp() {
        let rec = sampled();
        rec.observe(11_000, 1_000, 9_000);
        rec.waterfalls(NET, &[("p50", 50.0, 9_000)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not the peak latency")]
    fn forensics_asserts_the_incident_journey_is_its_peak() {
        let rec = watched(Some(50));
        rec.observe(2_000, 1_000, 900);
        rec.forensics(NET);
    }
}
