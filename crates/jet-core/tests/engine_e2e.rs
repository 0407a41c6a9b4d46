//! End-to-end engine tests: DAGs wired by the planner, executed by both the
//! deterministic sequential driver and the threaded executor.

use jet_core::dag::{Dag, Edge};
use jet_core::exec::{run_sequential, spawn_threaded};
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::plan::{build_local, LocalConfig};
use jet_core::processor::{Guarantee, Processor};
use jet_core::processors::join::{BUILD_ORDINAL, PROBE_ORDINAL};
use jet_core::processors::*;
use jet_core::snapshot::SnapshotRegistry;
use jet_core::supplier;
use jet_core::Ts;
use jet_imdg::{Grid, SnapshotStore};
use jet_util::clock::manual_clock;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Timestamped sink output, shared with the collecting stage.
type Collected<T> = Arc<Mutex<Vec<(Ts, T)>>>;

fn registry_disabled() -> Arc<SnapshotRegistry> {
    Arc::new(SnapshotRegistry::disabled())
}

#[test]
fn map_filter_pipeline_batch() {
    let items: Arc<Vec<(Ts, u64)>> = Arc::new((0..1000u64).map(|i| (i as Ts, i)).collect());
    let out: Collected<u64> = Arc::new(Mutex::new(Vec::new()));

    let mut dag = Dag::new();
    let items2 = items.clone();
    let src = dag.vertex_with_parallelism(
        "src",
        2,
        supplier(move |_i| Box::new(VecSource::new(items2.clone()))),
    );
    let xform = dag.vertex_with_parallelism("xform", 2, supplier(|_| Box::new(TransformP)));
    dag.fuse(
        xform,
        Arc::new(
            Fused::<u64>::default()
                .map(|v| v * 2)
                .filter(|v| v.is_multiple_of(4)),
        ),
    );
    let out2 = out.clone();
    let sink = dag.vertex_with_parallelism(
        "sink",
        1,
        supplier(move |_| Box::new(CollectSink::new(out2.clone()))),
    );
    dag.edge(Edge::between(src, xform));
    dag.edge(Edge::between(xform, sink));

    let cfg = LocalConfig::new(2);
    let exec = build_local(&dag, &cfg, &registry_disabled(), None).unwrap();
    let mut tasklets = exec.tasklets;
    assert!(
        run_sequential(&mut tasklets, 100_000),
        "pipeline did not complete"
    );

    let mut values: Vec<u64> = out.lock().iter().map(|(_, v)| *v).collect();
    values.sort_unstable();
    let expected: Vec<u64> = (0..1000u64)
        .map(|i| i * 2)
        .filter(|v| v.is_multiple_of(4))
        .collect();
    assert_eq!(values, expected);
}

#[test]
fn flat_map_fusion_preserves_order_per_instance() {
    let items: Arc<Vec<(Ts, u64)>> = Arc::new((0..100u64).map(|i| (i as Ts, i)).collect());
    let out: Collected<u64> = Arc::new(Mutex::new(Vec::new()));
    let mut dag = Dag::new();
    let items2 = items.clone();
    let src = dag.vertex_with_parallelism(
        "src",
        1,
        supplier(move |_i| Box::new(VecSource::new(items2.clone()))),
    );
    let fused = dag.vertex_with_parallelism("fused", 1, supplier(|_| Box::new(TransformP)));
    dag.fuse(
        fused,
        Arc::new(Fused::<u64>::default().flat_map(|&v| [v, v + 1000])),
    );
    dag.fuse(fused, Arc::new(Fused::<u64>::default().map(|&v| v)));
    let out2 = out.clone();
    let sink = dag.vertex_with_parallelism(
        "sink",
        1,
        supplier(move |_| Box::new(CollectSink::new(out2.clone()))),
    );
    dag.edge(Edge::between(src, fused).isolated());
    dag.edge(Edge::between(fused, sink).isolated());
    let exec = build_local(&dag, &LocalConfig::new(1), &registry_disabled(), None).unwrap();
    let mut tasklets = exec.tasklets;
    assert!(run_sequential(&mut tasklets, 100_000));
    let values: Vec<u64> = out.lock().iter().map(|(_, v)| *v).collect();
    assert_eq!(values.len(), 200);
    // Per-event expansion order is preserved: v then v+1000.
    for (i, chunk) in values.chunks(2).enumerate() {
        assert_eq!(chunk, &[i as u64, i as u64 + 1000]);
    }
}

/// Brute-force sliding window count for validation.
fn brute_force_counts(
    events: &[(Ts, u64)],
    size: Ts,
    slide: Ts,
) -> std::collections::HashMap<(u64, Ts), u64> {
    let mut out = std::collections::HashMap::new();
    let max_ts = events.iter().map(|(t, _)| *t).max().unwrap_or(0);
    let mut end = slide;
    while end <= max_ts + size {
        for (ts, key) in events {
            if *ts >= end - size && *ts < end {
                *out.entry((*key, end)).or_insert(0) += 1;
            }
        }
        end += slide;
    }
    out
}

#[test]
fn single_stage_sliding_window_matches_brute_force() {
    // 500 events, 7 keys, window 100 slide 20.
    let events: Vec<(Ts, u64)> = (0..500)
        .map(|i| ((i * 3 % 400) as Ts, (i % 7) as u64))
        .collect();
    let items = Arc::new(events.clone());
    let out: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));

    let mut dag = Dag::new();
    let items2 = items.clone();
    let src = dag.vertex_with_parallelism(
        "src",
        1,
        supplier(move |_i| Box::new(VecSource::new(items2.clone()))),
    );
    let win = dag.vertex_with_parallelism(
        "win",
        2,
        supplier(|_| {
            Box::new(SlidingWindowP::new::<u64>(
                WindowDef::sliding(100, 20),
                |v: &u64| *v,
                counting::<u64>(),
            ))
        }),
    );
    let out2 = out.clone();
    let sink = dag.vertex_with_parallelism(
        "sink",
        1,
        supplier(move |_| Box::new(CollectSink::new(out2.clone()))),
    );
    dag.edge(Edge::between(src, win).partitioned_by::<u64, _, _>(|v| *v));
    dag.edge(Edge::between(win, sink));

    let exec = build_local(&dag, &LocalConfig::new(2), &registry_disabled(), None).unwrap();
    let mut tasklets = exec.tasklets;
    assert!(run_sequential(&mut tasklets, 1_000_000));

    let expected = brute_force_counts(&events, 100, 20);
    let results = out.lock();
    let mut got: std::collections::HashMap<(u64, Ts), u64> = std::collections::HashMap::new();
    for (_, r) in results.iter() {
        let prev = got.insert((r.key, r.end), r.value);
        assert!(
            prev.is_none(),
            "duplicate window result for {:?}",
            (r.key, r.end)
        );
        assert_eq!(r.start, r.end - 100);
    }
    for ((k, end), count) in &expected {
        assert_eq!(
            got.get(&(*k, *end)),
            Some(count),
            "window (key={k}, end={end}) mismatch"
        );
    }
    // No spurious non-empty windows.
    for ((k, end), count) in &got {
        if *count > 0 {
            assert!(
                expected.contains_key(&(*k, *end)),
                "spurious window ({k}, {end})"
            );
        }
    }
}

#[test]
fn two_stage_window_equals_single_stage() {
    let events: Vec<(Ts, u64)> = (0..800)
        .map(|i| ((i * 7 % 600) as Ts, (i % 11) as u64))
        .collect();
    let items = Arc::new(events.clone());
    let out: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));

    let mut dag = Dag::new();
    let items2 = items.clone();
    let src = dag.vertex_with_parallelism(
        "src",
        2,
        supplier(move |_i| Box::new(VecSource::new(items2.clone()))),
    );
    let wdef = WindowDef::sliding(200, 50);
    let stage1 = dag.vertex_with_parallelism(
        "accumulate",
        2,
        supplier(move |_| {
            Box::new(AccumulateFrameP::new::<u64>(
                wdef,
                |v: &u64| *v,
                counting::<u64>(),
            ))
        }),
    );
    let stage2 = dag.vertex_with_parallelism(
        "combine",
        2,
        supplier(move |_| {
            Box::new(CombineFramesP::<u64, u64, u64>::new(
                wdef,
                counting::<u64>(),
            ))
        }),
    );
    let out2 = out.clone();
    let sink = dag.vertex_with_parallelism(
        "sink",
        1,
        supplier(move |_| Box::new(CollectSink::new(out2.clone()))),
    );
    dag.edge(Edge::between(src, stage1));
    dag.edge(Edge::between(stage1, stage2).partitioned_by::<FrameChunk<u64, u64>, _, _>(|c| c.key));
    dag.edge(Edge::between(stage2, sink));

    let exec = build_local(&dag, &LocalConfig::new(2), &registry_disabled(), None).unwrap();
    let mut tasklets = exec.tasklets;
    assert!(run_sequential(&mut tasklets, 1_000_000));

    let expected = brute_force_counts(&events, 200, 50);
    let results = out.lock();
    let mut got: std::collections::HashMap<(u64, Ts), u64> = std::collections::HashMap::new();
    for (_, r) in results.iter() {
        assert!(
            got.insert((r.key, r.end), r.value).is_none(),
            "duplicate window ({}, {})",
            r.key,
            r.end
        );
    }
    for ((k, end), count) in &expected {
        assert_eq!(got.get(&(*k, *end)), Some(count), "window ({k}, {end})");
    }
}

#[test]
fn hash_join_build_then_probe() {
    // Build side: (age, count) pairs. Probe side: orders keyed by age.
    let build: Arc<Vec<(Ts, (u64, u64))>> =
        Arc::new((0..10u64).map(|age| (0, (age, age * 100))).collect());
    let probe: Arc<Vec<(Ts, u64)>> = Arc::new((0..50u64).map(|i| (i as Ts, i % 10)).collect());
    let out: Collected<(u64, u64)> = Arc::new(Mutex::new(Vec::new()));

    let mut dag = Dag::new();
    let b2 = build.clone();
    let bsrc = dag.vertex_with_parallelism(
        "build-src",
        1,
        supplier(move |_| Box::new(VecSource::new(b2.clone()))),
    );
    let p2 = probe.clone();
    let psrc = dag.vertex_with_parallelism(
        "probe-src",
        1,
        supplier(move |_| Box::new(VecSource::new(p2.clone()))),
    );
    let join = dag.vertex_with_parallelism(
        "join",
        2,
        supplier(|_| {
            Box::new(HashJoinP::new(
                |b: &(u64, u64)| b.0,
                |p: &u64| *p,
                |p: &u64, matches: &[(u64, u64)]| {
                    matches.iter().map(|b| (*p, b.1)).collect::<Vec<_>>()
                },
            ))
        }),
    );
    let out2 = out.clone();
    let sink = dag.vertex_with_parallelism(
        "sink",
        1,
        supplier(move |_| Box::new(CollectSink::new(out2.clone()))),
    );
    // Build side: broadcast (every join instance needs the whole table),
    // higher priority so it completes before probing starts.
    dag.edge(
        Edge::between(bsrc, join)
            .to_ordinal(BUILD_ORDINAL)
            .broadcast()
            .priority(-1),
    );
    dag.edge(Edge::between(psrc, join).to_ordinal(PROBE_ORDINAL));
    dag.edge(Edge::between(join, sink));

    let exec = build_local(&dag, &LocalConfig::new(2), &registry_disabled(), None).unwrap();
    let mut tasklets = exec.tasklets;
    assert!(run_sequential(&mut tasklets, 1_000_000));

    let results = out.lock();
    assert_eq!(results.len(), 50);
    for (_, (age, joined)) in results.iter() {
        assert_eq!(*joined, age * 100);
    }
}

#[test]
fn generator_source_under_threaded_executor() {
    // 50k events/s for a bounded 5_000 events, threaded with 2 workers.
    let count = SharedCounter::new();
    let hist = SharedHistogram::new();

    let mut dag = Dag::new();
    let src = dag.vertex_with_parallelism(
        "gen",
        2,
        supplier(move |_| {
            Box::new(GeneratorSource::new(200_000, |seq, _ts| seq).with_limit(5_000))
        }),
    );
    let c2 = count.clone();
    let h2 = hist.clone();
    let sink = dag.vertex_with_parallelism(
        "sink",
        2,
        supplier(move |_| Box::new(LatencySink::new(h2.clone(), c2.clone()))),
    );
    dag.edge(Edge::between(src, sink));

    let cfg = LocalConfig::new(2);
    let exec = build_local(&dag, &cfg, &registry_disabled(), None).unwrap();
    let cancelled = exec.cancelled.clone();
    let handle = spawn_threaded(exec.tasklets, 2, cancelled);
    handle.join();
    assert_eq!(
        count.get(),
        5_000,
        "every generated event must reach the sink"
    );
    assert_eq!(hist.count(), 5_000);
}

/// A watermark that overtakes an event closes windows the event belongs to.
/// Here nothing hides that: no allowed lag, a watermark after every event,
/// an outbox of one or two items (so the map stage's outbox is full most of
/// the time), two workers, and the whole stream due at once.
#[test]
fn no_event_is_late_behind_a_full_outbox_on_two_workers() {
    const EVENTS: u64 = 100_000;
    const KEYS: u64 = 8;
    const RATE: u64 = 100_000_000; // one event per 10 ns of event time
    let wdef = WindowDef::sliding(400, 100);
    for batch in [1, 2] {
        let probes = Arc::new(Mutex::new(Vec::new()));
        let out: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));

        let mut dag = Dag::new();
        let src = dag.vertex_with_parallelism(
            "gen",
            2,
            supplier(|_| {
                let policy = WatermarkPolicy {
                    allowed_lag: 0,
                    stride: 10,
                    ..Default::default()
                };
                Box::new(
                    GeneratorSource::new(RATE, |seq, _ts| seq)
                        .with_limit(EVENTS)
                        .with_policy(policy),
                )
            }),
        );
        let map = dag.vertex_with_parallelism("map", 2, supplier(|_| Box::new(TransformP)));
        dag.fuse(map, Arc::new(Fused::<u64>::default().map(|seq| seq % KEYS)));
        let probes2 = probes.clone();
        let win = dag.vertex_with_parallelism(
            "win",
            2,
            supplier(move |_| {
                let p = SlidingWindowP::new::<u64>(wdef, |k: &u64| *k, counting::<u64>());
                probes2.lock().extend(p.state_probe());
                Box::new(p)
            }),
        );
        let out2 = out.clone();
        let sink = dag.vertex_with_parallelism(
            "sink",
            1,
            supplier(move |_| Box::new(CollectSink::new(out2.clone()))),
        );
        dag.edge(Edge::between(src, map));
        dag.edge(Edge::between(map, win).partitioned_by::<u64, _, _>(|k| *k));
        dag.edge(Edge::between(win, sink));

        let cfg = LocalConfig::new(2).with_batch(batch);
        let exec = build_local(&dag, &cfg, &registry_disabled(), None).unwrap();
        spawn_threaded(exec.tasklets, 2, exec.cancelled).join();

        // What `jet_window_late_events_total` exports, summed over instances.
        let late: u64 = probes
            .lock()
            .iter()
            .map(|p| p.late_events.load(Ordering::Relaxed))
            .sum();
        assert_eq!(late, 0, "batch {batch}: events dropped as late");

        let mut expected = std::collections::HashMap::new();
        for seq in 0..EVENTS {
            let ts = (seq * 1_000_000_000 / RATE) as Ts;
            let first_end = wdef.frame_end(ts);
            for end in (first_end..first_end + wdef.size).step_by(wdef.slide as usize) {
                *expected.entry((seq % KEYS, end)).or_insert(0u64) += 1;
            }
        }
        let got: std::collections::HashMap<(u64, Ts), u64> = out
            .lock()
            .iter()
            .map(|(_, r)| ((r.key, r.end), r.value))
            .collect();
        assert_eq!(
            got.len(),
            out.lock().len(),
            "batch {batch}: duplicate window"
        );
        // An event late for only some of its windows is not counted as late;
        // it is missing from the windows that had closed.
        let short: Vec<_> = expected
            .iter()
            .filter(|(window, count)| got.get(window) != Some(count))
            .take(5)
            .collect();
        assert!(
            short.is_empty(),
            "batch {batch}: windows missing events, (key, end) -> full count: {short:?}"
        );
        assert_eq!(got.len(), expected.len(), "batch {batch}: spurious window");
    }
}

#[test]
fn exactly_once_snapshot_and_restore_counts_once() {
    // Stage 1: run a generator -> stateful counter with exactly-once
    // snapshots under a manual clock; cancel mid-stream; restore from the
    // last complete snapshot and run to the end; total counted per key must
    // equal the events at-or-before the snapshot plus replayed remainder,
    // i.e. exactly the full stream (no loss, no double counting).
    let grid = Grid::with_partition_count(2, 1, 32);
    let store = SnapshotStore::new(&grid, 42);
    let (manual, clock) = manual_clock();

    const TOTAL: u64 = 4_000;
    const RATE: u64 = 1_000_000; // 1M/s -> all due within 4 ms

    let make_dag = |out: Collected<WindowResult<u64, u64>>| {
        let mut dag = Dag::new();
        let src = dag.vertex_with_parallelism(
            "gen",
            2,
            supplier(move |_| {
                Box::new(GeneratorSource::new(RATE, |seq, _ts| seq % 10).with_limit(TOTAL))
            }),
        );
        // Tumbling window over the whole stream counts per key.
        let win = dag.vertex_with_parallelism(
            "win",
            2,
            supplier(|_| {
                Box::new(SlidingWindowP::new::<u64>(
                    WindowDef::tumbling(1_000_000_000),
                    |v: &u64| *v,
                    counting::<u64>(),
                ))
            }),
        );
        let out2 = out.clone();
        let sink = dag.vertex_with_parallelism(
            "sink",
            1,
            supplier(move |_| Box::new(CollectSink::new(out2.clone()))),
        );
        dag.edge(Edge::between(src, win).partitioned_by::<u64, _, _>(|v| *v));
        dag.edge(Edge::between(win, sink));
        dag
    };

    // --- First execution: cancel after at least one complete snapshot.
    let out1: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
    let dag = make_dag(out1.clone());
    let registry = Arc::new(SnapshotRegistry::new(store.clone(), 0));
    let cfg = LocalConfig::new(2)
        .with_guarantee(Guarantee::ExactlyOnce)
        .with_clock(clock.clone());
    let exec = build_local(&dag, &cfg, &registry, None).unwrap();
    let mut tasklets = exec.tasklets;
    // Run for 2 ms of virtual time (half the stream), then snapshot.
    for _ in 0..20 {
        manual.advance(100_000); // 0.1 ms
        run_sequential(&mut tasklets, 200);
    }
    registry.trigger().unwrap();
    for _ in 0..50 {
        run_sequential(&mut tasklets, 200);
        if registry.completed() >= 1 {
            break;
        }
        manual.advance(10_000);
    }
    assert_eq!(registry.completed(), 1, "snapshot did not complete");
    // Hard-stop this execution (simulated crash: drop everything).
    drop(tasklets);

    // --- Recovery: restore from snapshot 1 and run to completion.
    let out2: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
    let dag = make_dag(out2.clone());
    let registry2 = Arc::new(SnapshotRegistry::new(store.clone(), 0));
    let exec = build_local(&dag, &cfg, &registry2, Some((&store, 1))).unwrap();
    let mut tasklets = exec.tasklets;
    for _ in 0..200 {
        manual.advance(1_000_000);
        if run_sequential(&mut tasklets, 2_000) {
            break;
        }
    }
    assert!(tasklets.is_empty(), "recovered job did not finish");

    // Every key counted exactly TOTAL/10 across both... results come only
    // from the recovered run (windows emit on completion).
    let results = out2.lock();
    let mut per_key: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for (_, r) in results.iter() {
        *per_key.entry(r.key).or_insert(0) += r.value;
    }
    for k in 0..10u64 {
        assert_eq!(
            per_key.get(&k).copied().unwrap_or(0),
            TOTAL / 10,
            "key {k} lost or duplicated events across recovery"
        );
    }
    drop(results);

    // A stored chunk that no longer decodes fails the rebuild with an error
    // the caller can act on — never a panic, never a job restored from part
    // of its state.
    assert!(store.corrupt_one_chunk(1));
    let err = build_local(&make_dag(out2.clone()), &cfg, &registry2, Some((&store, 1)))
        .err()
        .expect("restored from a corrupt snapshot");
    assert!(err.contains("snapshot 1"), "unexpected error: {err}");
    assert_eq!(store.faults().read_failures(), 1);
}

#[test]
fn cancellation_drains_pipeline() {
    let count = SharedCounter::new();
    let mut dag = Dag::new();
    let src = dag.vertex_with_parallelism(
        "gen",
        1,
        supplier(move |_| Box::new(GeneratorSource::new(1_000_000, |seq, _| seq))),
    );
    let c2 = count.clone();
    let sink = dag.vertex_with_parallelism(
        "sink",
        1,
        supplier(move |_| Box::new(CountSink::new(c2.clone()))),
    );
    dag.edge(Edge::between(src, sink));
    let exec = build_local(&dag, &LocalConfig::new(1), &registry_disabled(), None).unwrap();
    let cancelled = exec.cancelled.clone();
    let handle = spawn_threaded(exec.tasklets, 1, cancelled.clone());
    while count.get() < 1000 {
        std::thread::yield_now();
    }
    cancelled.store(true, Ordering::SeqCst);
    handle.join(); // must terminate
    assert!(count.get() >= 1000);
}
