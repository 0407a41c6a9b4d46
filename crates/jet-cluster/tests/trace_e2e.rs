//! End-to-end checks of the execution tracer (observability PR
//! acceptance): a traced windowed job on a 2-member simulated cluster must
//! produce a well-formed Chrome trace (spans from every layer — tasklet
//! calls, watermark emissions, network send/receive) and a diagnostics
//! dump that lists every vertex; and running the identical job untraced
//! must record nothing while producing the same results.

use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::processors::agg::counting;
use jet_core::trace::{TraceData, TraceKind, Tracer};
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
/// members, draining the tracer's rings every ~10 ms of virtual time.
fn run_traced_job(tracer: Tracer) -> (SimCluster, TraceData, Collected<WindowResult<u64, u64>>) {
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
        tracer: tracer.clone(),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    let mut data = TraceData::new();
    let mut next_drain = 0u64;
    let finished = cluster.run_for_with(30 * SEC, |now| {
        if now >= next_drain {
            tracer.drain_into(&mut data);
            next_drain = now + 10_000_000;
        }
    });
    assert!(finished, "job did not finish");
    cluster.drain_trace_into(&mut data);
    (cluster, data, out)
}

#[test]
fn traced_job_produces_spans_from_every_layer() {
    let (_cluster, data, out) = run_traced_job(Tracer::enabled());
    let results: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(results, LIMIT, "tracing must not change results");

    assert!(!data.events.is_empty(), "no spans recorded");
    assert_eq!(data.dropped, 0, "rings overflowed despite periodic drains");

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
    let (cluster, data, _out) = run_traced_job(Tracer::enabled());

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

    let dump = cluster.diagnostics_dump(Some(&data));
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
    let (cluster, data, out) = run_traced_job(Tracer::disabled());
    let results: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(results, LIMIT);
    assert!(data.events.is_empty(), "disabled tracer recorded spans");
    assert!(data.tracks.is_empty());

    // The dump still renders, with trace sections marked n/a.
    let dump = cluster.diagnostics_dump(None);
    for v in VERTICES {
        assert!(dump.contains(&format!("vertex {v}")), "dump misses {v}");
    }
    assert!(dump.contains("n/a (tracing disabled)"));
}
