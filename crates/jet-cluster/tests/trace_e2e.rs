//! End-to-end checks of the execution tracer: a windowed job on a 2-member
//! simulated cluster with the flight recorder's span ring armed must leave
//! the recorder a well-formed Chrome trace (spans from every layer — tasklet
//! calls, watermark emissions, network send/receive) and a diagnostics
//! dump that lists every vertex, with no caller draining anything; and
//! running the identical job untraced must record nothing while producing
//! the same results.

use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::flight::{Recorder, RecorderConfig};
use jet_core::processors::agg::counting;
use jet_core::trace::{TraceData, TraceKind};
use jet_core::Ts;
use jet_pipeline::{Pipeline, WindowDef, WindowResult};
use jet_util::json;
use parking_lot::Mutex;
use std::sync::Arc;

type Collected<T> = Arc<Mutex<Vec<(Ts, T)>>>;

const SEC: u64 = 1_000_000_000;
const LIMIT: u64 = 20_000;
const VERTICES: [&str; 4] = ["gen", "window-accumulate", "window-combine", "collect-sink"];

/// gen -> window-accumulate -> window-combine -> collect-sink on two
/// members. With `traced`, the recorder's provenance sampler arms its span
/// ring, and with it the tracer the runtime drains.
fn run_job(traced: bool) -> (SimCluster, Recorder, Collected<WindowResult<u64, u64>>) {
    let recorder = if traced {
        Recorder::new(RecorderConfig {
            provenance: true,
            ..RecorderConfig::default()
        })
    } else {
        Recorder::disabled()
    };
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
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        recorder: recorder.clone(),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    assert!(cluster.run_for(30 * SEC), "job did not finish");
    (cluster, recorder, out)
}

fn traced_job() -> (SimCluster, Recorder, TraceData) {
    let (cluster, recorder, out) = run_job(true);
    let results: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(results, LIMIT, "tracing must not change results");
    let data = recorder.trace().expect("span ring armed");
    (cluster, recorder, data)
}

#[test]
fn traced_job_produces_spans_from_every_layer() {
    let (_cluster, recorder, data) = traced_job();
    assert!(!data.events.is_empty(), "no spans recorded");
    let stats = recorder.stats();
    assert_eq!(stats.ring_dropped, 0, "rings overflowed between drains");
    assert_eq!(stats.spans_evicted, 0, "the whole job fits the span ring");

    // Tasklet call spans exist for every vertex, on the virtual timeline.
    for v in VERTICES {
        assert!(
            data.of_kind(TraceKind::Call)
                .any(|e| data.name(e.rec.name) == v),
            "no call span for vertex {v}"
        );
    }
    // Watermarks flowed and were coalesced downstream of the source.
    assert!(data.of_kind(TraceKind::WmEmit).next().is_some());
    assert!(data.of_kind(TraceKind::WmCoalesce).next().is_some());
    // Two members with a partitioned edge: traffic crossed the network.
    let sent: i64 = data.of_kind(TraceKind::NetSend).map(|e| e.rec.arg).sum();
    let recv: i64 = data.of_kind(TraceKind::NetRecv).map(|e| e.rec.arg).sum();
    assert!(sent > 0, "no net-send spans");
    assert!(recv > 0, "no net-recv spans");

    // Tracks carry member (pid) and writer labels from both members.
    let pids: std::collections::HashSet<u32> = data.tracks.iter().map(|t| t.pid).collect();
    assert!(pids.len() >= 2, "expected tracks from 2 members: {pids:?}");
    assert!(data.tracks.iter().any(|t| t.label.contains("core-")));
    assert!(data.tracks.iter().any(|t| t.label.contains("send-")));
    assert!(data.tracks.iter().any(|t| t.label.contains("recv-")));

    // Call spans sit on the virtual timeline (within the 30 s run).
    for e in data.of_kind(TraceKind::Call).take(1000) {
        assert!(e.rec.ts + e.rec.dur <= 31 * SEC, "span beyond run end");
    }
}

#[test]
fn chrome_export_and_diagnostics_dump_are_complete() {
    let (cluster, _recorder, data) = traced_job();

    let doc = json::parse(&json::render(&data)).expect("valid JSON");
    assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
    let events = doc["traceEvents"].as_arr().expect("traceEvents");
    let phase = |ph: &'static str| events.iter().filter(move |e| e["ph"].as_str() == Some(ph));
    let pids: std::collections::HashSet<u32> = data.tracks.iter().map(|t| t.pid).collect();
    assert_eq!(
        phase("M").count(),
        data.tracks.len() + pids.len(),
        "one thread name per track and one process name per member"
    );
    assert_eq!(phase("X").count() + phase("i").count(), data.events.len());
    assert!(phase("X").all(|e| e["dur"].as_f64() > Some(0.0)));
    for v in VERTICES {
        assert!(
            phase("X").any(|e| e["name"].as_str() == Some(v)),
            "no complete event for vertex {v}"
        );
    }

    let dump = cluster.diagnostics_dump();
    for v in VERTICES {
        assert!(dump.contains(&format!("vertex {v}")), "dump misses {v}");
    }
    assert!(dump.contains("slowest calls:"), "no latency attribution");
    assert!(dump.contains("state:"), "no tasklet states");
    assert!(dump.contains("trace"), "no trace roll-up");
    assert!(!dump.contains("slowest calls: n/a"), "trace not used");
}

#[test]
fn disabled_tracer_records_nothing_but_job_still_dumps() {
    let (cluster, recorder, out) = run_job(false);
    let results: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(results, LIMIT);
    assert!(recorder.trace().is_none(), "disabled recorder kept spans");
    assert_eq!(recorder.stats().spans_retained, 0);

    // The dump still renders, with trace sections marked n/a.
    let dump = cluster.diagnostics_dump();
    for v in VERTICES {
        assert!(dump.contains(&format!("vertex {v}")), "dump misses {v}");
    }
    assert!(dump.contains("n/a (tracing disabled)"));
}
