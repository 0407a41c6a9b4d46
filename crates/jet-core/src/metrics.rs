//! Lightweight execution metrics.
//!
//! Counters are per-tasklet atomics aggregated on read; latency histograms
//! are owned by whoever measures (sink processors in the benches) behind a
//! mutex that is only touched at window-emission rate, never per event.
//!
//! On top of the raw handles sits [`MetricsRegistry`]: a tagged catalogue of
//! every instrument a job execution creates (the analogue of Jet's per-job
//! metrics system). Hot paths keep touching plain atomics / the shared
//! histogram mutex; the registry is only walked when someone asks for a
//! [`MetricsSnapshot`], which renders to Prometheus text format.
//!
//! Naming scheme: metric names are lowercase snake_case with a `jet_`
//! prefix; monotone counters end in `_total` (Prometheus convention).
//! Standard tags: `job`, `member`, `vertex`, `instance`, `ordinal`,
//! `worker`, `edge` — whichever subset identifies the instrument's scope.

use jet_util::json::{ToJson, Writer};
use jet_util::Histogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Counters for one tasklet / processor instance.
#[derive(Debug, Default)]
pub struct TaskletCounters {
    /// Events consumed from inboxes.
    pub events_in: AtomicU64,
    /// Events emitted to the outbox.
    pub events_out: AtomicU64,
    /// Scheduling rounds that made progress.
    pub busy_rounds: AtomicU64,
    /// Scheduling rounds without progress.
    pub idle_rounds: AtomicU64,
    /// State records serialized into snapshots (charged by the simulator:
    /// saving large window state is what drives the paper's Fig. 13 tail).
    pub snapshot_records: AtomicU64,
    /// Bulk queue transfers performed (inbox fills, source outbox flushes).
    /// At most one per events_in/events_out increment — the cost model uses
    /// it to charge per-queue-hop overhead once per batch, not per item.
    pub queue_batches: AtomicU64,
    /// Bounded snapshot-record chunks written to the snapshot store. One
    /// per non-empty `save_snapshot` quantum: streaming snapshots write
    /// many small chunks where the old stop-the-world pass wrote one huge
    /// one, and the simulator charges the per-chunk store round-trip.
    pub snapshot_chunks: AtomicU64,
}

impl TaskletCounters {
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    #[inline]
    pub fn add_in(&self, n: u64) {
        self.events_in.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_out(&self, n: u64) {
        self.events_out.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_busy(&self, n: u64) {
        self.busy_rounds.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_idle(&self, n: u64) {
        self.idle_rounds.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_snapshot_records(&self, n: u64) {
        self.snapshot_records.fetch_add(n, Ordering::Relaxed);
    }

    pub fn snapshot_records(&self) -> u64 {
        self.snapshot_records.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn add_snapshot_chunks(&self, n: u64) {
        self.snapshot_chunks.fetch_add(n, Ordering::Relaxed);
    }

    pub fn snapshot_chunks(&self) -> u64 {
        self.snapshot_chunks.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn add_queue_batches(&self, n: u64) {
        self.queue_batches.fetch_add(n, Ordering::Relaxed);
    }

    pub fn queue_batches(&self) -> u64 {
        self.queue_batches.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.events_in.load(Ordering::Relaxed),
            self.events_out.load(Ordering::Relaxed),
            self.busy_rounds.load(Ordering::Relaxed),
            self.idle_rounds.load(Ordering::Relaxed),
        )
    }
}

/// A shareable histogram handle for latency recording from sink processors.
#[derive(Clone)]
pub struct SharedHistogram {
    inner: Arc<Mutex<Histogram>>,
}

impl SharedHistogram {
    pub fn new() -> Self {
        SharedHistogram {
            inner: Arc::new(Mutex::new(Histogram::latency())),
        }
    }

    // jet-analyze: allow(block) — histogram mutex: one steady-state recorder per handle, held for a bucket increment
    pub fn record(&self, v: u64) {
        self.inner.lock().record(v);
    }

    pub fn record_n(&self, v: u64, n: u64) {
        self.inner.lock().record_n(v, n);
    }

    /// Lock once and record a whole batch (sinks use this: one lock per
    /// inbox batch, never per event).
    // jet-analyze: allow(block) — one lock per inbox batch by design, never per event
    pub fn record_batch(&self, values: impl Iterator<Item = u64>) {
        let mut h = self.inner.lock();
        for v in values {
            h.record(v);
        }
    }

    /// Copy out the current histogram.
    pub fn snapshot(&self) -> Histogram {
        self.inner.lock().clone()
    }

    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    pub fn count(&self) -> u64 {
        self.inner.lock().count()
    }

    /// Value at an arbitrary percentile in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.inner.lock().percentile(p)
    }

    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    pub fn p9999(&self) -> u64 {
        self.percentile(99.99)
    }

    /// One-lock extraction of the standard quantile set plus count/min/max/
    /// mean — what bench bins and the JSON dump embed.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary::of(&self.inner.lock())
    }
}

/// Fixed quantile digest of a histogram at one point in time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
    pub p9999: u64,
}

impl HistogramSummary {
    pub fn of(h: &Histogram) -> Self {
        if h.count() == 0 {
            return HistogramSummary::default();
        }
        let s = HistogramSummary {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
            p999: h.percentile(99.9),
            p9999: h.percentile(99.99),
        };
        debug_assert!(s.is_monotone(), "percentiles out of order: {s:?}");
        s
    }

    /// `min <= p50 <= p90 <= p99 <= p999 <= p9999 <= max`.
    fn is_monotone(&self) -> bool {
        [
            self.min, self.p50, self.p90, self.p99, self.p999, self.p9999, self.max,
        ]
        .is_sorted()
    }
}

impl ToJson for HistogramSummary {
    fn write_json(&self, w: &mut Writer<'_>) {
        w.obj(|w| {
            w.field("count", self.count)
                .field("min", self.min)
                .field("max", self.max)
                .field("mean", self.mean)
                .field("p50", self.p50)
                .field("p90", self.p90)
                .field("p99", self.p99)
                .field("p999", self.p999)
                .field("p9999", self.p9999);
        });
    }
}

impl Default for SharedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Simple atomic event counter handle (used by sinks in tests/benches).
#[derive(Clone, Default)]
pub struct SharedCounter {
    inner: Arc<AtomicU64>,
}

impl SharedCounter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// Signed instantaneous value handle (queue depths, window sizes, lags).
#[derive(Clone, Default)]
pub struct SharedGauge {
    inner: Arc<AtomicI64>,
}

impl SharedGauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: i64) {
        self.inner.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.inner.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// Tag set identifying one instrument. Kept sorted by key so that equal tag
/// sets compare equal regardless of registration order.
pub type Tags = Vec<(String, String)>;

/// Convenience for building a sorted tag list from `&str` pairs.
pub fn tags(pairs: &[(&str, &str)]) -> Tags {
    let mut t: Tags = pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    t.sort();
    t
}

enum Instrument {
    Counter(SharedCounter),
    /// Monotone counter read through a closure — lets existing atomics (e.g.
    /// a field of [`TaskletCounters`]) feed the registry without relayout.
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    Gauge(SharedGauge),
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
    Histogram(SharedHistogram),
}

struct Entry {
    name: String,
    tags: Tags,
    instrument: Instrument,
}

/// Catalogue of every instrument one member's job execution creates.
///
/// Registration happens at wiring time (cold); reads happen on `snapshot()`
/// (cold); the returned handles are the only thing hot paths touch. Default
/// tags (typically `job` and `member`) are merged into every instrument's
/// tag set at registration, so per-member registries can later be merged
/// into one job-level snapshot without key collisions.
#[derive(Default)]
pub struct MetricsRegistry {
    default_tags: Tags,
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_tags(default_tags: Tags) -> Self {
        let mut default_tags = default_tags;
        default_tags.sort();
        MetricsRegistry {
            default_tags,
            entries: Mutex::new(Vec::new()),
        }
    }

    fn full_tags(&self, tags: Tags) -> Tags {
        let mut t = tags;
        for (k, v) in &self.default_tags {
            if !t.iter().any(|(ek, _)| ek == k) {
                t.push((k.clone(), v.clone()));
            }
        }
        t.sort();
        t
    }

    fn register(&self, name: &str, tags: Tags, instrument: Instrument) {
        let tags = self.full_tags(tags);
        insert(&mut self.entries.lock(), name, tags, instrument);
    }

    /// The handle registered under `(name, tags)` if it is of the kind
    /// `view` picks; otherwise a fresh one that replaces whatever was there.
    fn handle<H: Clone + Default>(
        &self,
        name: &str,
        tags: Tags,
        view: fn(&Instrument) -> Option<H>,
        wrap: fn(H) -> Instrument,
    ) -> H {
        let tags = self.full_tags(tags);
        let mut entries = self.entries.lock();
        let found = entries
            .iter()
            .find(|e| e.name == name && e.tags == tags)
            .and_then(|e| view(&e.instrument));
        if let Some(h) = found {
            return h;
        }
        let h = H::default();
        insert(&mut entries, name, tags, wrap(h.clone()));
        h
    }

    /// Register (or look up) a counter and return its handle.
    pub fn counter(&self, name: &str, tags: Tags) -> SharedCounter {
        let view = |i: &Instrument| match i {
            Instrument::Counter(c) => Some(c.clone()),
            _ => None,
        };
        self.handle(name, tags, view, Instrument::Counter)
    }

    /// Register a counter whose value is computed on read.
    pub fn counter_fn(&self, name: &str, tags: Tags, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.register(name, tags, Instrument::CounterFn(Box::new(f)));
    }

    /// Register (or look up) a gauge and return its handle.
    pub fn gauge(&self, name: &str, tags: Tags) -> SharedGauge {
        let view = |i: &Instrument| match i {
            Instrument::Gauge(g) => Some(g.clone()),
            _ => None,
        };
        self.handle(name, tags, view, Instrument::Gauge)
    }

    /// Register a gauge whose value is computed on read (e.g. a queue-depth
    /// probe reading the SPSC ring's position atomics).
    pub fn gauge_fn(&self, name: &str, tags: Tags, f: impl Fn() -> i64 + Send + Sync + 'static) {
        self.register(name, tags, Instrument::GaugeFn(Box::new(f)));
    }

    /// Register (or look up) a histogram and return its handle.
    pub fn histogram(&self, name: &str, tags: Tags) -> SharedHistogram {
        let view = |i: &Instrument| match i {
            Instrument::Histogram(h) => Some(h.clone()),
            _ => None,
        };
        self.handle(name, tags, view, Instrument::Histogram)
    }

    /// Register an existing histogram handle under a name (sinks create the
    /// latency histogram first; the registry learns about it here).
    pub fn register_histogram(&self, name: &str, tags: Tags, h: SharedHistogram) {
        self.register(name, tags, Instrument::Histogram(h));
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read every instrument into a point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock();
        let mut metrics: Vec<Metric> = entries
            .iter()
            .map(|e| Metric {
                name: e.name.clone(),
                tags: e.tags.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::CounterFn(f) => MetricValue::Counter(f()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::GaugeFn(f) => MetricValue::Gauge(f()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.summary()),
                },
            })
            .collect();
        metrics.sort_by(|a, b| (&a.name, &a.tags).cmp(&(&b.name, &b.tags)));
        MetricsSnapshot { metrics }
    }
}

/// Add one instrument under `(name, full tags)`. Re-registering the same
/// key replaces the old instrument, keeping snapshots collision-free by
/// construction.
fn insert(entries: &mut Vec<Entry>, name: &str, tags: Tags, instrument: Instrument) {
    debug_assert!(
        name.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
        "metric names are lowercase snake_case: {name}"
    );
    entries.retain(|e| !(e.name == name && e.tags == tags));
    entries.push(Entry {
        name: name.to_string(),
        tags,
        instrument,
    });
}

#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSummary),
}

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub tags: Tags,
    pub value: MetricValue,
}

impl Metric {
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn as_counter(&self) -> Option<u64> {
        match self.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_gauge(&self) -> Option<i64> {
        match self.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_histogram(&self) -> Option<&HistogramSummary> {
        match &self.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// Point-in-time view over one or more registries, sorted by (name, tags).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// Stamp `key=value` onto every metric that does not already carry
    /// `key` — used to add job-level tags when aggregating member
    /// snapshots into one job view.
    pub fn with_tag(mut self, key: &str, value: &str) -> Self {
        for m in &mut self.metrics {
            if m.tag(key).is_none() {
                m.tags.push((key.to_string(), value.to_string()));
                m.tags.sort();
            }
        }
        self.metrics
            .sort_by(|a, b| (&a.name, &a.tags).cmp(&(&b.name, &b.tags)));
        self
    }

    /// Merge another snapshot in. Identical (name, tags) keys combine:
    /// counters add, gauges add (they are occupancy-style values whose
    /// job-level meaning is the sum), histograms keep the larger digest.
    /// Distinct members carry a `member` tag, so cross-member merging is
    /// normally collision-free and this is pure concatenation.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for m in &other.metrics {
            match self
                .metrics
                .iter_mut()
                .find(|e| e.name == m.name && e.tags == m.tags)
            {
                None => self.metrics.push(m.clone()),
                Some(existing) => match (&mut existing.value, &m.value) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => {
                        if b.count > a.count {
                            *a = b.clone();
                        }
                    }
                    (v, _) => {
                        debug_assert!(false, "kind mismatch merging {}", m.name);
                        *v = m.value.clone();
                    }
                },
            }
        }
        self.metrics
            .sort_by(|a, b| (&a.name, &a.tags).cmp(&(&b.name, &b.tags)));
    }

    /// All metrics with this name.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Metric> {
        self.metrics.iter().filter(move |m| m.name == name)
    }

    /// The single metric with this exact name and tag subset (every given
    /// tag must match; the metric may carry more).
    pub fn find(&self, name: &str, tag_subset: &[(&str, &str)]) -> Option<&Metric> {
        self.metrics
            .iter()
            .find(|m| m.name == name && tag_subset.iter().all(|(k, v)| m.tag(k) == Some(*v)))
    }

    /// Sum of all counters with this name, optionally restricted to a tag
    /// subset. The job-level "how many events did vertex X emit" reads.
    pub fn counter_total(&self, name: &str, tag_subset: &[(&str, &str)]) -> u64 {
        self.get_all(name)
            .filter(|m| tag_subset.iter().all(|(k, v)| m.tag(k) == Some(*v)))
            .filter_map(Metric::as_counter)
            .sum()
    }

    /// Group counter sums by the value of one tag (e.g. per-vertex totals).
    pub fn counters_by(&self, name: &str, tag_key: &str) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for m in self.get_all(name) {
            if let (Some(tag), Some(v)) = (m.tag(tag_key), m.as_counter()) {
                *out.entry(tag.to_string()).or_insert(0) += v;
            }
        }
        out
    }

    /// Render in Prometheus text exposition format (version 0.0.4).
    /// Histograms render as summaries: `{quantile="..."}` series plus
    /// `_count` and `_sum`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for m in &self.metrics {
            if m.name != last_name {
                let kind = match m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "summary",
                };
                let _ = writeln!(
                    out,
                    "# HELP {} {}",
                    m.name,
                    prom_help_escape(&prom_help(&m.name))
                );
                let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
                last_name = &m.name;
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, prom_labels(&m.tags, None), v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {}", m.name, prom_labels(&m.tags, None), v);
                }
                MetricValue::Histogram(h) => {
                    for (q, v) in [
                        ("0.5", h.p50),
                        ("0.9", h.p90),
                        ("0.99", h.p99),
                        ("0.999", h.p999),
                        ("0.9999", h.p9999),
                    ] {
                        let _ = writeln!(out, "{}{} {}", m.name, prom_labels(&m.tags, Some(q)), v);
                    }
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        m.name,
                        prom_labels(&m.tags, None),
                        h.count
                    );
                    let _ = writeln!(
                        out,
                        "{}_sum{} {}",
                        m.name,
                        prom_labels(&m.tags, None),
                        (h.mean * h.count as f64) as u64
                    );
                }
            }
        }
        out
    }
}

fn prom_labels(tags: &Tags, quantile: Option<&str>) -> String {
    if tags.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in tags {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{}=\"{}\"", k, prom_escape(v));
        first = false;
    }
    if let Some(q) = quantile {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "quantile=\"{q}\"");
    }
    out.push('}');
    out
}

fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// HELP-line escaping per the Prometheus text exposition format: only
/// backslash and newline (quotes are legal in help text, unlike in label
/// values).
fn prom_help_escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Derive a HELP string from the workspace's structured metric names
/// (`jet_<subject>[_<unit>|_total]`, enforced by jet-analyze's `metric-name`
/// check). Keeping the text derived rather than registered per call site
/// means every instrument gets a spec-conformant `# HELP` line with zero
/// registration overhead.
fn prom_help(name: &str) -> String {
    fn capitalize(s: &str) -> String {
        let mut c = s.chars();
        match c.next() {
            Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
            None => String::new(),
        }
    }
    let body = name.strip_prefix("jet_").unwrap_or(name);
    if let Some(b) = body.strip_suffix("_total") {
        format!("Cumulative count of {}.", b.replace('_', " "))
    } else if let Some(b) = body.strip_suffix("_nanos") {
        format!("{} in nanoseconds.", capitalize(&b.replace('_', " ")))
    } else if let Some(b) = body.strip_suffix("_bytes") {
        format!("{} in bytes.", capitalize(&b.replace('_', " ")))
    } else {
        format!("{}.", capitalize(&body.replace('_', " ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = TaskletCounters::shared();
        c.add_in(5);
        c.add_in(2);
        c.add_out(3);
        let (i, o, _, _) = c.snapshot();
        assert_eq!((i, o), (7, 3));
    }

    #[test]
    fn shared_histogram_records_across_clones() {
        let h = SharedHistogram::new();
        let h2 = h.clone();
        h.record(100);
        h2.record(200);
        assert_eq!(h.count(), 2);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(snap.count(), 2, "snapshot must be independent");
    }

    #[test]
    fn shared_counter_is_shared() {
        let c = SharedCounter::new();
        let c2 = c.clone();
        c.add(1);
        c2.add(2);
        assert_eq!(c.get(), 3);
    }

    #[test]
    fn histogram_summary_extracts_quantiles() {
        let h = SharedHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert!(
            (s.p50 as f64 - 5_000.0).abs() / 5_000.0 < 0.02,
            "p50={}",
            s.p50
        );
        assert!(
            (s.p99 as f64 - 9_900.0).abs() / 9_900.0 < 0.02,
            "p99={}",
            s.p99
        );
        assert!(
            (s.p9999 as f64 - 10_000.0).abs() / 10_000.0 < 0.02,
            "p9999={}",
            s.p9999
        );
        assert_eq!(h.p50(), s.p50);
        assert_eq!(h.p99(), s.p99);
        assert_eq!(h.p9999(), s.p9999);
    }

    #[test]
    fn registry_returns_same_handle_for_same_key() {
        let r = MetricsRegistry::with_tags(tags(&[("job", "j1"), ("member", "0")]));
        let a = r.counter("jet_events_in_total", tags(&[("vertex", "map")]));
        let b = r.counter("jet_events_in_total", tags(&[("vertex", "map")]));
        a.add(3);
        b.add(4);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 1);
        assert_eq!(
            snap.counter_total("jet_events_in_total", &[("vertex", "map")]),
            7
        );
        // Default tags were merged in.
        assert_eq!(snap.metrics[0].tag("job"), Some("j1"));
        assert_eq!(snap.metrics[0].tag("member"), Some("0"));
    }

    #[test]
    fn snapshot_merge_aggregates_across_members() {
        let m0 = MetricsRegistry::with_tags(tags(&[("member", "0")]));
        let m1 = MetricsRegistry::with_tags(tags(&[("member", "1")]));
        m0.counter("jet_events_in_total", tags(&[("vertex", "src")]))
            .add(10);
        m1.counter("jet_events_in_total", tags(&[("vertex", "src")]))
            .add(32);
        m0.gauge("jet_queue_depth", tags(&[("vertex", "src")]))
            .set(5);
        let mut job = m0.snapshot();
        job.merge(&m1.snapshot());
        // Distinct member tags: both survive individually...
        assert_eq!(job.metrics.len(), 3);
        // ...and the per-vertex total spans members.
        assert_eq!(
            job.counter_total("jet_events_in_total", &[("vertex", "src")]),
            42
        );
        let by_member = job.counters_by("jet_events_in_total", "member");
        assert_eq!(by_member["0"], 10);
        assert_eq!(by_member["1"], 32);
    }

    #[test]
    fn merge_sums_identical_keys() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("jet_x_total", tags(&[])).add(1);
        b.counter("jet_x_total", tags(&[])).add(2);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.metrics.len(), 1);
        assert_eq!(s.counter_total("jet_x_total", &[]), 3);
    }

    #[test]
    fn merge_is_deterministic_across_member_orderings() {
        // Job-wide rollup must not depend on which member's snapshot merges
        // first: SimCluster iterates members in index order, but the
        // timeline and diagnostics would silently drift if order mattered.
        let member = |id: &str, events: u64, depth: i64, hist_count: u64| {
            let r = MetricsRegistry::with_tags(tags(&[("member", id)]));
            r.counter("jet_events_in_total", tags(&[("vertex", "src")]))
                .add(events);
            // Same key on every member (no member tag): merge must sum.
            let shared = MetricsRegistry::new();
            shared.counter("jet_shared_total", tags(&[])).add(events);
            shared.gauge("jet_queue_depth", tags(&[])).set(depth);
            let h = SharedHistogram::new();
            for i in 0..hist_count {
                h.record(1_000 * (i + 1));
            }
            shared.register_histogram("jet_latency_nanos", tags(&[]), h);
            let mut snap = r.snapshot();
            snap.merge(&shared.snapshot());
            snap
        };
        let snaps = [
            member("0", 10, 3, 5),
            member("1", 20, 4, 2),
            member("2", 5, 1, 9),
        ];
        let mut renderings = Vec::new();
        // All 6 permutations of 3 members.
        for perm in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let mut job = MetricsSnapshot::default();
            for i in perm {
                job.merge(&snaps[i]);
            }
            renderings.push(job.render_prometheus());
        }
        for r in &renderings[1..] {
            assert_eq!(r, &renderings[0], "merge result depends on member order");
        }
        // And the rollup is the expected sum, not just self-consistent.
        let job = crate::metrics::MetricsSnapshot::default();
        let mut job = job;
        for s in &snaps {
            job.merge(s);
        }
        assert_eq!(job.counter_total("jet_shared_total", &[]), 35);
        assert_eq!(
            job.find("jet_queue_depth", &[]).unwrap().as_gauge(),
            Some(8)
        );
    }

    #[test]
    fn fn_instruments_read_live_values() {
        let r = MetricsRegistry::new();
        let src = Arc::new(AtomicU64::new(7));
        let src2 = src.clone();
        r.counter_fn("jet_live_total", tags(&[]), move || {
            src2.load(Ordering::Relaxed)
        });
        r.gauge_fn("jet_depth", tags(&[]), || -3);
        assert_eq!(r.snapshot().counter_total("jet_live_total", &[]), 7);
        src.store(9, Ordering::Relaxed);
        assert_eq!(r.snapshot().counter_total("jet_live_total", &[]), 9);
        assert_eq!(
            r.snapshot().find("jet_depth", &[]).unwrap().as_gauge(),
            Some(-3)
        );
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let r = MetricsRegistry::with_tags(tags(&[("job", "wordcount"), ("member", "0")]));
        r.counter(
            "jet_events_in_total",
            tags(&[("vertex", "tokenize\"quoted\"")]),
        )
        .add(5);
        r.gauge(
            "jet_queue_depth",
            tags(&[("vertex", "tokenize"), ("ordinal", "0")]),
        )
        .set(17);
        let h = r.histogram("jet_latency_nanos", tags(&[]));
        h.record(1000);
        h.record(2000);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE jet_events_in_total counter"));
        assert!(text.contains("# TYPE jet_queue_depth gauge"));
        assert!(text.contains("# TYPE jet_latency_nanos summary"));
        assert!(text.contains("vertex=\"tokenize\\\"quoted\\\"\""));
        assert!(text.contains("jet_latency_nanos_count"));
        assert!(text.contains("quantile=\"0.9999\""));
        // Every sample line is `name{labels} value` with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(value.parse::<f64>().is_ok(), "bad sample line: {line}");
        }
    }

    #[test]
    fn prometheus_emits_help_before_type_once_per_name() {
        let r = MetricsRegistry::new();
        r.counter("jet_events_in_total", tags(&[("vertex", "a")]))
            .add(1);
        r.counter("jet_events_in_total", tags(&[("vertex", "b")]))
            .add(2);
        r.histogram("jet_latency_nanos", tags(&[])).record(5);
        let text = r.snapshot().render_prometheus();
        assert_eq!(
            text.matches("# HELP jet_events_in_total ").count(),
            1,
            "one HELP per name, not per series:\n{text}"
        );
        assert!(
            text.contains("# HELP jet_events_in_total Cumulative count of events in.\n"),
            "{text}"
        );
        assert!(
            text.contains("# HELP jet_latency_nanos Latency in nanoseconds.\n"),
            "{text}"
        );
        // HELP immediately precedes the matching TYPE.
        let lines: Vec<&str> = text.lines().collect();
        for (i, l) in lines.iter().enumerate() {
            if let Some(rest) = l.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(
                    lines[i + 1].starts_with(&format!("# TYPE {name} ")),
                    "HELP for {name} not followed by its TYPE:\n{text}"
                );
            }
        }
    }

    #[test]
    fn prometheus_label_values_escape_backslash_quote_newline() {
        let r = MetricsRegistry::new();
        r.gauge("jet_queue_depth", tags(&[("vertex", "a\\b\"c\nd")]))
            .set(1);
        let text = r.snapshot().render_prometheus();
        assert!(
            text.contains("vertex=\"a\\\\b\\\"c\\nd\""),
            "label escaping broken:\n{text}"
        );
        // The raw newline must not survive into the exposition.
        let sample = text.lines().find(|l| !l.starts_with('#')).unwrap();
        assert!(sample.contains("jet_queue_depth{"), "{text}");
    }

    #[test]
    fn prometheus_help_escape_covers_backslash_and_newline() {
        assert_eq!(prom_help_escape("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(prom_help_escape("plain \"quoted\""), "plain \"quoted\"");
        // Derived help strings for the unit-suffix families.
        assert_eq!(
            prom_help("jet_bytes_sent_total"),
            "Cumulative count of bytes sent."
        );
        assert_eq!(prom_help("jet_state_bytes"), "State in bytes.");
        assert_eq!(prom_help("jet_queue_depth"), "Queue depth.");
    }

    #[test]
    fn summaries_of_real_histograms_are_monotone() {
        let mut h = Histogram::latency();
        for v in [3u64, 1_000, 7, 5_000_000, 42] {
            h.record(v);
        }
        assert!(HistogramSummary::of(&h).is_monotone());
        // The ladder `HistogramSummary::of` asserts rejects a p90 below p50.
        let s = HistogramSummary {
            count: 4,
            min: 0,
            max: 10,
            mean: 5.0,
            p50: 6,
            p90: 5,
            p99: 7,
            p999: 8,
            p9999: 9,
        };
        assert!(!s.is_monotone());
    }
}
