//! End-to-end checks of the job-wide metrics registry (observability PR
//! acceptance): a windowed aggregation runs on a simulated multi-member
//! cluster and the aggregated snapshot must be internally consistent —
//! per-vertex event counts balance across edges, queue-depth gauges stay
//! within capacity, and the Prometheus exposition parses cleanly.

use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::metrics::MetricsSnapshot;
use jet_core::processors::agg::counting;
use jet_core::Ts;
use jet_pipeline::{Pipeline, WindowDef, WindowResult};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// Timestamped sink output, shared with the collecting stage.
type Collected<T> = Arc<Mutex<Vec<(Ts, T)>>>;

const SEC: u64 = 1_000_000_000;
const LIMIT: u64 = 20_000;

/// gen -> window-accumulate -> window-combine -> collect-sink.
fn run_counting_job(members: usize) -> (SimCluster, Collected<WindowResult<u64, u64>>) {
    let p = Pipeline::create();
    let out = Arc::new(Mutex::new(Vec::new()));
    p.read_from_generator_cfg(
        "gen",
        1_000_000,
        Some(LIMIT),
        jet_core::processors::WatermarkPolicy::default(),
        |seq, _ts| seq % 32,
    )
    .grouping_key(|k: &u64| *k)
    .window(WindowDef::tumbling(SEC as Ts))
    .aggregate(counting::<u64>())
    .write_to_collect(out.clone());
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members,
        cores_per_member: 2,
        partition_count: 31,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    assert!(cluster.run_for(30 * SEC), "job did not finish");
    (cluster, out)
}

#[test]
fn job_metrics_balance_across_edges_and_members() {
    let (cluster, out) = run_counting_job(2);
    let results: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(results, LIMIT);

    let snap = cluster.job_metrics();
    assert!(!snap.metrics.is_empty());

    // Every metric is tagged with the job and its member of origin.
    for m in &snap.metrics {
        assert_eq!(m.tag("job"), Some("1"), "{} missing job tag", m.name);
        assert!(m.tag("member").is_some(), "{} missing member tag", m.name);
    }

    // Per-vertex event totals, summed over members and instances.
    let ins = snap.counters_by("jet_events_in_total", "vertex");
    let outs = snap.counters_by("jet_events_out_total", "vertex");
    assert_eq!(ins["gen"], 0, "sources consume nothing");
    assert_eq!(outs["gen"], LIMIT, "source emitted a wrong event count");
    // Linear chain: what each vertex queued out must equal what the next
    // vertex consumed, whether delivered locally or over a distributed
    // channel — nothing may be lost in the exchange layer.
    for (from, to) in [
        ("gen", "window-accumulate"),
        ("window-accumulate", "window-combine"),
        ("window-combine", "collect-sink"),
    ] {
        assert_eq!(
            outs[from], ins[to],
            "edge {from} -> {to} unbalanced: {} out vs {} in",
            outs[from], ins[to]
        );
    }

    // With two members and a partitioned stage-2 edge, data crossed the
    // network: the channel instruments must have seen it.
    assert!(snap.counter_total("jet_channel_items_sent_total", &[]) > 0);
    assert!(snap.counter_total("jet_channel_bytes_sent_total", &[]) > 0);

    // Every queue-depth gauge sits within its capacity gauge (same tags).
    let mut depth_gauges = 0;
    for m in snap.get_all("jet_queue_depth") {
        let depth = m.as_gauge().expect("depth is a gauge");
        let cap = snap
            .metrics
            .iter()
            .find(|c| c.name == "jet_queue_capacity" && c.tags == m.tags)
            .and_then(|c| c.as_gauge())
            .expect("matching capacity gauge");
        assert!(
            0 <= depth && depth <= cap,
            "queue depth {depth} outside [0, {cap}] for {:?}",
            m.tags
        );
        depth_gauges += 1;
    }
    assert!(depth_gauges > 0, "no queue-depth gauges registered");
}

/// Minimal line-level parse of the Prometheus text format: every sample is
/// `name{label="value",...} number`, `# HELP` and `# TYPE` come once per
/// name (HELP first), and no (name, label-set) series repeats.
fn parse_prometheus(text: &str) -> (HashSet<(String, String)>, HashSet<String>) {
    let mut series = HashSet::new();
    let mut typed = HashSet::new();
    let mut helped: HashSet<String> = HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, text) = rest.split_once(' ').expect("help line has text");
            assert!(!text.is_empty(), "empty HELP for {name}");
            assert!(
                !typed.contains(name),
                "HELP for {name} must precede its TYPE line"
            );
            assert!(helped.insert(name.to_string()), "duplicate HELP for {name}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("type line names a metric");
            let kind = parts.next().expect("type line has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "bad kind {kind}"
            );
            assert!(
                helped.contains(name),
                "TYPE for {name} is missing a HELP line"
            );
            assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad value in: {line}"));
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, l)) => {
                let l = l.strip_suffix('}').expect("unterminated label set");
                for pair in l.split("\",") {
                    let (k, v) = pair.split_once("=\"").expect("label is k=\"v\"");
                    assert!(
                        !k.is_empty() && k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                        "bad label key {k:?} in: {line}"
                    );
                    assert!(
                        !v.contains('"') || v.ends_with('"'),
                        "unescaped quote in {v:?}"
                    );
                }
                (n, l)
            }
            None => (name_labels, ""),
        };
        assert!(
            series.insert((name.to_string(), labels.to_string())),
            "duplicate series: {name}{{{labels}}}"
        );
    }
    (series, typed)
}

#[test]
fn prometheus_exposition_is_well_formed_and_unique() {
    let (cluster, _out) = run_counting_job(2);
    let text = cluster.prometheus();
    let (series, typed) = parse_prometheus(&text);
    assert!(!series.is_empty());
    // Every sample's base name was declared. Histogram samples append
    // _count/_sum to the declared summary name.
    for (name, _) in &series {
        let base = name
            .strip_suffix("_count")
            .or_else(|| name.strip_suffix("_sum"))
            .filter(|b| typed.contains(*b))
            .unwrap_or(name);
        assert!(typed.contains(base), "sample {name} has no TYPE line");
    }
    for expected in [
        "jet_events_in_total",
        "jet_events_out_total",
        "jet_queue_depth",
        "jet_channel_items_sent_total",
        "jet_window_bypassed_frames_total",
        "jet_window_events_per_key_milli_ratio",
    ] {
        assert!(typed.contains(expected), "missing {expected} in exposition");
    }
}

#[test]
fn member_snapshots_merge_into_job_view() {
    let (cluster, _out) = run_counting_job(2);
    // Merging the members by hand must agree with the job-level helper.
    let mut manual = MetricsSnapshot::default();
    for reg in cluster.member_metrics() {
        manual.merge(&reg.snapshot());
    }
    let manual = manual.with_tag("job", "1");
    let job = cluster.job_metrics();
    assert_eq!(manual.metrics.len(), job.metrics.len());
    // Gauge-fn values (queue depths) can race between the two walks, but
    // settled counters must agree exactly.
    assert_eq!(
        manual.counters_by("jet_events_in_total", "vertex"),
        job.counters_by("jet_events_in_total", "vertex")
    );
}
