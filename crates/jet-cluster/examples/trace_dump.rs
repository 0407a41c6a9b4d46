//! Execution-tracing demo: run a windowed counting job on a two-member
//! simulated cluster with the tracer on, print the job diagnostics dump,
//! and write the captured spans as Chrome trace-event JSON (open
//! `trace_dump.json` in Perfetto or `chrome://tracing`).
//!
//! Run untraced (spans skipped, dump still renders) with `--disabled`.
use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::processors::agg::counting;
use jet_core::trace::{TraceData, Tracer};
use jet_pipeline::{Pipeline, WindowDef};
use parking_lot::Mutex;
use std::sync::Arc;

fn main() {
    let enabled = !std::env::args().any(|a| a == "--disabled");
    let tracer = if enabled {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };

    let p = Pipeline::create();
    let out = Arc::new(Mutex::new(Vec::new()));
    p.read_from_generator_cfg(
        "gen",
        1_000_000,
        Some(10_000),
        jet_core::processors::WatermarkPolicy::default(),
        |seq, _ts| seq % 8,
    )
    .grouping_key(|k: &u64| *k)
    .window(WindowDef::tumbling(1_000_000_000))
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

    // Drain the per-worker rings every ~1 ms of virtual time so they never
    // overflow, accumulating the job-level trace as the job runs.
    let mut trace = TraceData::new();
    let mut next_drain = 0u64;
    let mut drain = |now: u64, trace: &mut TraceData| {
        if now >= next_drain {
            tracer.drain_into(trace);
            next_drain = now + 1_000_000;
        }
    };

    // Dump diagnostics mid-run (5 ms in, while tasklets are live)...
    cluster.run_for_with(5_000_000, |now| drain(now, &mut trace));
    cluster.drain_trace_into(&mut trace);
    print!("{}", cluster.diagnostics_dump(enabled.then_some(&trace)));

    // ...then run the job to completion.
    let finished = cluster.run_for_with(30_000_000_000, |now| drain(now, &mut trace));
    assert!(finished, "job did not finish");
    cluster.drain_trace_into(&mut trace);

    let windows: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    eprintln!("job finished: {windows} events counted across windows");

    if enabled {
        let path = "trace_dump.json";
        std::fs::write(path, jet_util::json::render(&trace)).expect("write trace");
        eprintln!(
            "wrote {path}: {} spans on {} tracks ({} dropped) — open it in Perfetto",
            trace.events.len(),
            trace.tracks.len(),
            trace.dropped
        );
    } else {
        eprintln!("tracing disabled: {} spans recorded", trace.events.len());
    }
}
