//! Plain-text job diagnostics dump: one page that answers "where is my
//! latency going?" without loading a trace viewer.
//!
//! The dump is assembled from three sources that are each cheap to obtain
//! on a live job: the merged metrics snapshot (queue depths, watermark
//! gauges, stall counters), the scheduler's per-tasklet state table, and —
//! when the flight recorder's span ring is armed — its retained spans for
//! top-k slowest call attribution. Every section degrades gracefully: with
//! tracing disabled the trace-derived lines render as `n/a` rather than
//! vanishing, so operators always see the same shape of report.

use crate::coordinator::{Coordinator, MemberHealth};
use jet_core::flight::{IncidentReport, Recorder};
use jet_core::metrics::{Metric, MetricsSnapshot};
use jet_core::trace::TraceKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Format a watermark gauge: the end-of-stream flush watermark sits near
/// `Ts::MAX` and would render as a nonsense timestamp.
fn wm(nanos: i64) -> String {
    if nanos > i64::MAX / 2 {
        "end-of-stream".to_string()
    } else {
        format!("{:.3}s", secs(nanos.max(0) as u64))
    }
}

fn gauge_or(snap: &MetricsSnapshot, name: &str, tags: &[(&str, &str)], default: i64) -> i64 {
    snap.find(name, tags)
        .and_then(Metric::as_gauge)
        .unwrap_or(default)
}

/// Render the job diagnostics dump.
///
/// `tasklets` is the scheduler's `(core, name, state, events_in,
/// events_out)` table; `recorder`'s retained spans add latency attribution
/// when its span ring is armed; `coordinator` adds the cluster-health
/// section (member liveness, suspicion state, last recovery) and degrades
/// to `n/a` when the job runs without a failure detector.
pub fn render_dump(
    job_id: u64,
    now_nanos: u64,
    snap: &MetricsSnapshot,
    tasklets: &[(usize, String, &'static str, u64, u64)],
    recorder: &Recorder,
    coordinator: Option<&Coordinator>,
) -> String {
    let trace = recorder.trace();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "=== job {} diagnostics @ {:.3}s virtual ===",
        job_id,
        secs(now_nanos)
    );

    // Cluster health: what the failure detector currently believes.
    let _ = writeln!(out, "\ncluster health");
    match coordinator {
        Some(coord) => {
            for &m in coord.members() {
                let verdict = match coord.health(m) {
                    Some(MemberHealth::Alive) => "alive".to_string(),
                    Some(MemberHealth::Suspect { since }) => {
                        format!("SUSPECT since {:.3}s", secs(since))
                    }
                    None => "unknown".to_string(),
                };
                let _ = writeln!(out, "  m{}: {}", m, verdict);
            }
            let _ = writeln!(
                out,
                "  fences={} false-suspicions={}",
                coord.fences(),
                coord.false_suspicions()
            );
            match coord.last_recovery() {
                Some((snapshot, attempt, at)) => {
                    let from = match snapshot {
                        Some(id) => format!("snapshot {}", id),
                        None => "cold restart (no complete snapshot)".to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "  last recovery: {} at {:.3}s (attempt {})",
                        from,
                        secs(at),
                        attempt
                    );
                }
                None => {
                    let _ = writeln!(out, "  last recovery: none");
                }
            }
        }
        None => {
            let _ = writeln!(out, "  n/a (no coordinator wired)");
        }
    }

    // Vertex names, in DAG-tag order (metrics preserve registration order
    // per member; a BTreeSet gives a stable cross-member order).
    let vertices: BTreeSet<&str> = snap
        .get_all("jet_events_in_total")
        .chain(snap.get_all("jet_events_out_total"))
        .filter_map(|m| m.tag("vertex"))
        .collect();

    for v in &vertices {
        let _ = writeln!(out, "\nvertex {}", v);

        // Scheduler state of every tasklet instance named after the vertex.
        let mut states: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (_, _, state, _, _) in tasklets.iter().filter(|(_, n, ..)| n == v) {
            *states.entry(state).or_insert(0) += 1;
        }
        let state_line = if states.is_empty() {
            "none live".to_string()
        } else {
            states
                .iter()
                .map(|(s, n)| format!("{}x {}", n, s))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let events_in = snap.counter_total("jet_events_in_total", &[("vertex", v)]);
        let events_out = snap.counter_total("jet_events_out_total", &[("vertex", v)]);
        let _ = writeln!(
            out,
            "  state: {:<24} events: in={} out={}",
            state_line, events_in, events_out
        );

        // Keyed-state footprint (only vertices that export a state probe):
        // resident bytes across all frame tables plus late-event drops.
        let resident: i64 = snap
            .get_all("jet_state_resident_bytes")
            .filter(|m| m.tag("vertex") == Some(v))
            .filter_map(Metric::as_gauge)
            .sum();
        let keys: i64 = snap
            .get_all("jet_state_keys_records")
            .filter(|m| m.tag("vertex") == Some(v))
            .filter_map(Metric::as_gauge)
            .sum();
        let late = snap.counter_total("jet_window_late_events_total", &[("vertex", v)]);
        if resident > 0 || keys > 0 || late > 0 {
            let _ = writeln!(
                out,
                "  keyed-state: resident={:.1} MiB keys={} late-events={}",
                resident as f64 / (1024.0 * 1024.0),
                keys,
                late
            );
        }

        // Stage 1 of a two-stage window: how many of each instance's frames
        // were forwarded at once instead of held to the frame close, and
        // the events-per-key ratio of its last measured frame.
        for m in snap
            .get_all("jet_window_events_per_key_milli_ratio")
            .filter(|m| m.tag("vertex") == Some(v))
        {
            let instance = m.tag("instance").unwrap_or("?");
            let tags: &[(&str, &str)] = &[("vertex", v), ("instance", instance)];
            let bypassed = snap.counter_total("jet_window_bypassed_frames_total", tags);
            let _ = writeln!(
                out,
                "  stage-1[#{}]: bypassed-frames={} events-per-key={:.3}",
                instance,
                bypassed,
                m.as_gauge().unwrap_or(0) as f64 / 1000.0
            );
        }

        // Watermark position per instance: highest seen on any input vs.
        // the coalesced output the instance forwarded. A persistent gap
        // means one input channel is a straggler holding results back.
        let mut instances: BTreeSet<u64> = snap
            .get_all("jet_vertex_watermark_seen_nanos")
            .filter(|m| m.tag("vertex") == Some(v))
            .filter_map(|m| m.tag("instance").and_then(|i| i.parse().ok()))
            .collect();
        for i in std::mem::take(&mut instances) {
            let it = i.to_string();
            let tags: &[(&str, &str)] = &[("vertex", v), ("instance", &it)];
            let seen = gauge_or(snap, "jet_vertex_watermark_seen_nanos", tags, -1);
            let coal = gauge_or(snap, "jet_vertex_watermark_coalesced_nanos", tags, -1);
            if seen < 0 && coal < 0 {
                continue; // no watermark ever reached this instance
            }
            let gap = if seen >= 0 && coal >= 0 {
                format!("{:.3}s", secs(seen.saturating_sub(coal) as u64))
            } else {
                "n/a".to_string()
            };
            let _ = writeln!(
                out,
                "  wm[#{}]: seen={} coalesced={} straggler-gap={}",
                i,
                wm(seen),
                wm(coal),
                gap
            );
        }

        // Input queues: depth/capacity per (ordinal, instance, lane).
        let mut queue_lines = 0usize;
        for m in snap.get_all("jet_queue_depth") {
            if m.tag("vertex") != Some(v) {
                continue;
            }
            let depth = m.as_gauge().unwrap_or(0);
            let cap = snap
                .metrics
                .iter()
                .find(|c| c.name == "jet_queue_capacity" && c.tags == m.tags)
                .and_then(Metric::as_gauge)
                .unwrap_or(0);
            // Only itemize hot queues; summarize the idle ones.
            if depth * 4 >= cap.max(1) {
                let _ = writeln!(
                    out,
                    "  queue ord={} inst={} lane={}: {}/{}{}",
                    m.tag("ordinal").unwrap_or("?"),
                    m.tag("instance").unwrap_or("?"),
                    m.tag("lane").unwrap_or("?"),
                    depth,
                    cap,
                    if depth >= cap { "  FULL" } else { "" }
                );
            }
            queue_lines += 1;
        }
        if queue_lines > 0 {
            let _ = writeln!(
                out,
                "  queues: {} lanes (hot ones itemized above)",
                queue_lines
            );
        }

        // Backpressure: queue-full stalls per output edge ordinal.
        let stalls = {
            let mut per_ordinal: BTreeMap<String, u64> = BTreeMap::new();
            for m in snap.get_all("jet_backpressure_stalls_total") {
                if m.tag("vertex") == Some(v) {
                    if let (Some(ord), Some(c)) = (m.tag("ordinal"), m.as_counter()) {
                        *per_ordinal.entry(ord.to_string()).or_insert(0) += c;
                    }
                }
            }
            per_ordinal
        };
        for (ord, total) in &stalls {
            let _ = writeln!(out, "  backpressure stalls out-ordinal {}: {}", ord, total);
        }

        // Batch efficiency: items moved per queue drain/flush on this
        // vertex's edges. A mean stuck near 1 means the batched hot path
        // is degenerating to item-at-a-time transfers.
        for m in snap.get_all("jet_edge_batch_size") {
            if m.tag("vertex") != Some(v) {
                continue;
            }
            if let Some(h) = m.as_histogram() {
                if h.count == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  edge batch[#{}]: n={} mean={:.1} p50={} p99={} max={}",
                    m.tag("instance").unwrap_or("?"),
                    h.count,
                    h.mean,
                    h.p50,
                    h.p99,
                    h.max
                );
            }
        }

        // Latency attribution: the slowest timeslices this vertex ran.
        match &trace {
            Some(data) => {
                let top = data.top_k_slowest_calls(v, 5);
                if top.is_empty() {
                    let _ = writeln!(out, "  slowest calls: none recorded");
                } else {
                    let line = top
                        .iter()
                        .map(|e| format!("{:.1}us@{:.3}s", e.rec.dur as f64 / 1e3, secs(e.rec.ts)))
                        .collect::<Vec<_>>()
                        .join("  ");
                    let _ = writeln!(out, "  slowest calls: {}", line);
                }
            }
            None => {
                let _ = writeln!(out, "  slowest calls: n/a (tracing disabled)");
            }
        }
    }

    // Distributed edges: sender/receiver queue pressure and watermark lag.
    let mut channel_lines: Vec<String> = Vec::new();
    for m in snap.get_all("jet_channel_watermark_lag_nanos") {
        if let (Some(edge), Some(from), Some(to), Some(lag)) =
            (m.tag("edge"), m.tag("from"), m.tag("to"), m.as_gauge())
        {
            let lag_str = if lag < 0 {
                "idle".to_string()
            } else {
                format!("{:.3}s", secs(lag as u64))
            };
            channel_lines.push(format!(
                "  edge {} m{}->m{}: wm-lag={}",
                edge, from, to, lag_str
            ));
        }
    }
    if !channel_lines.is_empty() {
        let _ = writeln!(out, "\nchannels");
        channel_lines.sort();
        for l in &channel_lines {
            let _ = writeln!(out, "{}", l);
        }
    }

    // Trace roll-up.
    let _ = writeln!(out, "\ntrace");
    match &trace {
        Some(data) => {
            let _ = writeln!(
                out,
                "  events={} tracks={} dropped={}",
                data.events.len(),
                data.tracks.len(),
                recorder.stats().ring_dropped
            );
            for kind in TraceKind::ALL {
                let n = data.of_kind(kind).count();
                if n > 0 {
                    let _ = writeln!(out, "  {:<12} {}", kind.name(), n);
                }
            }
        }
        None => {
            let _ = writeln!(out, "  n/a (tracing disabled)");
        }
    }
    out
}

/// Render the spike-blame section appended to the dump when a flight
/// recorder is wired: one block per detected p99.99 excursion, worst
/// first, decomposing the spiked event's journey into named causes. The
/// shape is stable with zero incidents ("none detected") so operators
/// always see the section.
pub fn render_blame(reports: &[IncidentReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\nspike blame");
    if reports.is_empty() {
        let _ = writeln!(out, "  none detected");
        return out;
    }
    for r in reports {
        let inc = &r.incident;
        let a = &r.attribution;
        let _ = writeln!(
            out,
            "  incident #{}: peak {:.3}ms at {:.3}s ({} spiked samples, threshold {:.3}ms)",
            inc.id,
            inc.peak_latency as f64 / 1e6,
            secs(inc.peak_emitted_at),
            inc.samples,
            inc.threshold as f64 / 1e6,
        );
        let _ = writeln!(
            out,
            "    window [{:.3}s, {:.3}s]: {} spans{}",
            secs(r.window_lo),
            secs(r.window_hi),
            r.window_events,
            if r.window_truncated > 0 {
                format!(" ({} spans truncated)", r.window_truncated)
            } else {
                String::new()
            }
        );
        let verdict = match &a.blamed_vertex {
            Some(v) => format!("{} (vertex {})", a.top_cause.name(), v),
            None => format!("{} ({})", a.top_cause.name(), a.top_group),
        };
        let _ = writeln!(out, "    verdict: {}", verdict);
        for s in a.slices.iter().filter(|s| s.nanos > 0) {
            let _ = writeln!(
                out,
                "    {:>5.1}% {:<18} {:>12.3}ms{}{}",
                s.share * 100.0,
                s.cause.name(),
                s.nanos as f64 / 1e6,
                if s.detail.is_empty() { "" } else { "  " },
                s.detail
            );
        }
    }
    out
}

/// Render the metrics-timeline section appended to the dump when the
/// recorder's timeline is armed: one ASCII sparkline per job-wide series
/// (summed across tag sets), min/max-scaled per series. The shape is stable
/// with zero samples ("no samples") so operators always see the section.
pub fn render_timeline(recorder: &Recorder) -> String {
    const WIDTH: usize = 48;
    let mut out = String::new();
    let _ = writeln!(out, "\nmetrics timeline");
    let ticks = recorder.ticks();
    if ticks.is_empty() {
        let _ = writeln!(out, "  no samples");
        return out;
    }
    let stats = recorder.stats();
    let _ = writeln!(
        out,
        "  {} samples ({} retained, {} evicted), {} series, window [{:.3}s, {:.3}s]",
        stats.samples,
        ticks.len(),
        stats.ticks_evicted,
        stats.series,
        secs(ticks[0]),
        secs(*ticks.last().expect("non-empty")),
    );
    for (name, kind, values) in recorder.job_series() {
        let min = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        let _ = writeln!(
            out,
            "  {:<42} {:<13} |{}| {} .. {}",
            name,
            kind.name(),
            sparkline(&values, WIDTH),
            min,
            max,
        );
    }
    out
}

/// Render `values` as a fixed-width ASCII sparkline, scaled to the series'
/// own min..max. Pure ASCII so the diagnostics dump stays grep/terminal
/// safe everywhere.
fn sparkline(values: &[i64], width: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#@";
    if values.is_empty() || width == 0 {
        return String::new();
    }
    // Downsample by averaging fixed-size buckets so bursts don't vanish.
    let buckets: Vec<i64> = (0..width.min(values.len()))
        .map(|b| {
            let lo = b * values.len() / width.min(values.len());
            let hi = ((b + 1) * values.len() / width.min(values.len())).max(lo + 1);
            let slice = &values[lo..hi];
            slice.iter().sum::<i64>() / slice.len() as i64
        })
        .collect();
    let min = *buckets.iter().min().expect("non-empty");
    let max = *buckets.iter().max().expect("non-empty");
    let span = (max - min).max(1) as f64;
    buckets
        .iter()
        .map(|&v| {
            let t = (v - min) as f64 / span;
            let idx = (t * (RAMP.len() - 1) as f64).round() as usize;
            RAMP[idx.min(RAMP.len() - 1)] as char
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jet_core::metrics::{tags, MetricsRegistry};

    #[test]
    fn dump_renders_without_trace_and_lists_every_vertex() {
        let r = MetricsRegistry::new();
        for v in ["src", "agg", "sink"] {
            r.counter(
                "jet_events_in_total",
                tags(&[("vertex", v), ("instance", "0")]),
            )
            .add(7);
        }
        r.gauge(
            "jet_vertex_watermark_seen_nanos",
            tags(&[("vertex", "agg"), ("instance", "0")]),
        )
        .set(2_000_000_000);
        r.gauge(
            "jet_vertex_watermark_coalesced_nanos",
            tags(&[("vertex", "agg"), ("instance", "0")]),
        )
        .set(1_500_000_000);
        let bh = r.histogram(
            "jet_edge_batch_size",
            tags(&[("vertex", "agg"), ("instance", "0")]),
        );
        bh.record(4);
        bh.record(4);
        let snap = r.snapshot();
        let tasklets = vec![(0usize, "agg".to_string(), "running", 7u64, 7u64)];
        let dump = render_dump(
            9,
            3_000_000_000,
            &snap,
            &tasklets,
            &Recorder::disabled(),
            None,
        );
        for v in ["src", "agg", "sink"] {
            assert!(
                dump.contains(&format!("vertex {}", v)),
                "missing {v}: {dump}"
            );
        }
        assert!(dump.contains("1x running"));
        assert!(dump.contains("edge batch[#0]: n=2 mean=4.0"), "{dump}");
        assert!(dump.contains("straggler-gap=0.500s"));
        assert!(dump.contains("n/a (tracing disabled)"));
        assert!(dump.contains("cluster health"));
        assert!(dump.contains("n/a (no coordinator wired)"));
    }

    use jet_core::flight::{Cause, RecorderConfig, WatchdogConfig};
    use jet_core::trace::RING_CAPACITY;

    const MS: u64 = 1_000_000;
    /// The one-way network latency forensics attribute with.
    const NET: u64 = 500_000;

    /// Watchdog armed purely by a hard SLO: deterministic from sample one.
    fn slo_watchdog(slo: u64) -> Recorder {
        Recorder::new(RecorderConfig {
            watchdog: Some(WatchdogConfig {
                slo_nanos: Some(slo),
            }),
            ..RecorderConfig::default()
        })
    }

    /// Record `(kind, ts, dur, name, arg)` spans on one track of `rec`'s
    /// tracer, then drain them into its span ring.
    fn record_spans(rec: &Recorder, spans: &[(TraceKind, u64, u64, &str, i64)]) {
        let mut w = rec.tracer().writer(0, "m0/agg#0");
        for &(kind, ts, dur, name, arg) in spans {
            let id = w.intern(name);
            w.record(kind, ts, dur, id, arg);
        }
        rec.drain_spans();
    }

    fn agg_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter(
            "jet_events_in_total",
            tags(&[("vertex", "agg"), ("instance", "0")]),
        )
        .add(1);
        r.snapshot()
    }

    #[test]
    fn dump_renders_with_completely_empty_trace() {
        let dump = render_dump(1, MS, &agg_snapshot(), &[], &slo_watchdog(MS), None);
        assert!(dump.contains("slowest calls: none recorded"), "{dump}");
        assert!(dump.contains("events=0 tracks=0 dropped=0"), "{dump}");
    }

    #[test]
    fn dump_renders_when_rings_dropped_spans() {
        let flight = slo_watchdog(MS);
        flight.observe(50 * MS, 40 * MS, 10 * MS);
        // Overfill one writer's ring with spans far past the incident's
        // window: the ring keeps RING_CAPACITY and drops the rest.
        let mut w = flight.tracer().writer(0, "w");
        let name = w.intern("agg");
        for i in 0..(RING_CAPACITY + 4096) as u64 {
            w.record(TraceKind::Stall, 900 * MS + i, 0, name, 0);
        }
        flight.drain_spans();
        let dump = render_dump(1, MS, &MetricsSnapshot::default(), &[], &flight, None);
        assert!(dump.contains("dropped=4096"), "{dump}");
        // And forensics over an incident with zero surviving spans still
        // attributes: everything is queue wait (the honest residual).
        let reports = flight.forensics(NET);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].window_events, 0);
        assert_eq!(reports[0].attribution.top_cause, Cause::QueueWait);
        let blame = render_blame(&reports);
        assert!(blame.contains("verdict: queue_wait (dataflow)"), "{blame}");
        assert!(blame.contains("0 spans"), "{blame}");
    }

    #[test]
    fn blame_attributes_a_single_span_window() {
        let flight = slo_watchdog(MS);
        flight.observe(50 * MS, 40 * MS, 10 * MS);
        record_spans(&flight, &[(TraceKind::Call, 45 * MS, 2 * MS, "agg", 0)]);
        let reports = flight.forensics(NET);
        assert_eq!(reports.len(), 1);
        let a = &reports[0].attribution;
        assert_eq!(reports[0].window_events, 1);
        // Exact partition: 2ms exec + 8ms residual = the 10ms spike.
        let sum: u64 = a.slices.iter().map(|s| s.nanos).sum();
        assert_eq!(sum, a.total_nanos);
        assert_eq!(a.total_nanos, 10 * MS);
        assert_eq!(a.top_cause, Cause::QueueWait);
        let exec = a
            .slices
            .iter()
            .find(|s| s.cause == Cause::TaskletExec)
            .unwrap();
        assert_eq!(exec.nanos, 2 * MS);
        assert!(exec.detail.contains("agg"), "{:?}", exec.detail);
        let blame = render_blame(&reports);
        assert!(blame.contains("1 spans"), "{blame}");
    }

    #[test]
    fn blame_renders_none_detected_without_incidents() {
        let blame = render_blame(&[]);
        assert!(blame.contains("spike blame"), "{blame}");
        assert!(blame.contains("none detected"), "{blame}");
    }

    /// Golden-file test: a crash → fence → recovery → catch-up spike renders
    /// byte-for-byte as `golden/spike_blame.txt`. Regenerate by updating the
    /// file with the printed actual if the format changes intentionally.
    #[test]
    fn blame_section_matches_golden_file() {
        let flight = slo_watchdog(2 * MS);
        // The spiked emission: event at 100ms emitted at 150ms (50ms spike).
        flight.observe(150 * MS, 100 * MS, 50 * MS);
        // The forensic story: fault injected at 105ms, suspected at 110ms,
        // fenced at 120ms, rebuilt by 140ms, replay caught up by 150ms.
        record_spans(
            &flight,
            &[
                (TraceKind::FaultInject, 105 * MS, 0, "crash", 1),
                (TraceKind::Detect, 110 * MS, 0, "suspect", 1),
                (TraceKind::Detect, 120 * MS, 0, "fence", 1),
                (TraceKind::Recovery, 120 * MS, 20 * MS, "recovery", -1),
            ],
        );
        let reports = flight.forensics(NET);
        let blame = render_blame(&reports);
        let golden = include_str!("golden/spike_blame.txt");
        assert_eq!(blame, golden, "actual:\n{blame}");
    }

    #[test]
    fn dump_includes_trace_attribution_when_present() {
        let flight = slo_watchdog(MS);
        record_spans(&flight, &[(TraceKind::Call, 1_000, 50_000, "agg", 0)]);
        let dump = render_dump(1, MS, &agg_snapshot(), &[], &flight, None);
        assert!(dump.contains("slowest calls: 50.0us@"), "{dump}");
        assert!(dump.contains("events=1 tracks=1 dropped=0"), "{dump}");
        assert!(dump.contains("call         1"), "{dump}");
    }

    fn timeline() -> Recorder {
        Recorder::new(RecorderConfig {
            timeline: true,
            ..RecorderConfig::default()
        })
    }

    #[test]
    fn timeline_section_is_stable_when_empty() {
        let section = render_timeline(&timeline());
        assert!(section.contains("metrics timeline"), "{section}");
        assert!(section.contains("no samples"), "{section}");
    }

    #[test]
    fn timeline_section_rolls_series_up_by_name_with_sparklines() {
        let timeline = timeline();
        let r = MetricsRegistry::new();
        let c0 = r.counter("jet_events_in_total", tags(&[("member", "0")]));
        let c1 = r.counter("jet_events_in_total", tags(&[("member", "1")]));
        for i in 0..5u64 {
            c0.add(100);
            c1.add(50);
            timeline.sample(i * 100_000_000, &r.snapshot());
        }
        let section = render_timeline(&timeline);
        assert!(section.contains("5 samples"), "{section}");
        // Members roll up: one line for the name, summed 150..750.
        assert_eq!(
            section.matches("jet_events_in_total").count(),
            1,
            "{section}"
        );
        assert!(section.contains("150 .. 750"), "{section}");
        assert!(section.contains('|'), "{section}");
        assert!(section.is_ascii(), "{section}");
    }

    #[test]
    fn sparkline_is_ascii_and_fixed_width() {
        let values: Vec<i64> = (0..100).map(|i| (i % 17) * 3).collect();
        let line = sparkline(&values, 40);
        assert_eq!(line.len(), 40);
        assert!(line.is_ascii());
        assert_eq!(sparkline(&[], 40), "");
        assert_eq!(sparkline(&[5], 40).len(), 1);
        // Flat series renders flat (min==max guard).
        let flat = sparkline(&[7, 7, 7, 7], 4);
        assert!(flat.chars().all(|c| c == flat.chars().next().unwrap()));
    }
}
