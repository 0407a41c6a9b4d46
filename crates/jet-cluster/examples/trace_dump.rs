//! Execution-tracing demo: run a windowed counting job on a two-member
//! simulated cluster with the flight recorder's span ring armed, print the
//! job diagnostics dump, and write the recorder's retained spans as Chrome
//! trace-event JSON (open `trace_dump.json` in Perfetto or
//! `chrome://tracing`). The run checks what it claims: a non-empty trace
//! that lost no span to a full ring.
//!
//! Run untraced with `--disabled`: no recorder, no spans, and the dump's
//! trace lines read `n/a`.
use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::flight::{Recorder, RecorderConfig};
use jet_core::processors::agg::counting;
use jet_pipeline::{Pipeline, WindowDef};
use jet_util::json;
use parking_lot::Mutex;
use std::sync::Arc;

fn main() {
    let enabled = !std::env::args().any(|a| a == "--disabled");
    // Spans are recorded exactly when the recorder's span ring is armed;
    // its provenance sampler arms it.
    let recorder = if enabled {
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
        recorder: recorder.clone(),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();

    // Dump diagnostics mid-run (5 ms in, while tasklets are live)...
    cluster.run_for(5_000_000);
    let dump = cluster.diagnostics_dump();
    print!("{dump}");

    // ...then run the job to completion.
    assert!(cluster.run_for(30_000_000_000), "job did not finish");
    let windows: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    eprintln!("job finished: {windows} events counted across windows");

    let Some(trace) = recorder.trace() else {
        assert_eq!(recorder.stats().spans_retained, 0, "spans without tracing");
        assert!(
            dump.contains("slowest calls: n/a (tracing disabled)")
                && dump.contains("\ntrace\n  n/a (tracing disabled)"),
            "trace lines are not n/a:\n{dump}"
        );
        eprintln!("tracing disabled: 0 spans recorded");
        return;
    };
    assert!(!trace.events.is_empty(), "no spans recorded");
    assert_eq!(recorder.stats().ring_dropped, 0, "rings overflowed");
    let path = "trace_dump.json";
    std::fs::write(path, json::render(&trace)).expect("write trace");
    eprintln!(
        "wrote {path}: {} spans on {} tracks (0 dropped) — open it in Perfetto",
        trace.events.len(),
        trace.tracks.len(),
    );
}
