//! Pipeline API tests: fluent construction, fusion, windowing, joins,
//! fan-out — each compiled and executed on the deterministic driver.

use jet_core::exec::run_sequential;
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::plan::{build_local, LocalConfig};
use jet_core::processors::agg::{averaging, counting, summing};
use jet_core::snapshot::SnapshotRegistry;
use jet_core::Ts;
use jet_pipeline::{Pipeline, WindowDef, WindowResult};
use parking_lot::Mutex;
use std::sync::Arc;

/// Timestamped sink output, shared with the collecting stage.
type Collected<T> = Arc<Mutex<Vec<(Ts, T)>>>;

fn run(p: &Pipeline, lp: usize) {
    let dag = p.compile(lp).unwrap();
    let registry = Arc::new(SnapshotRegistry::disabled());
    let exec = build_local(&dag, &LocalConfig::new(lp), &registry, None).unwrap();
    let mut tasklets = exec.tasklets;
    assert!(
        run_sequential(&mut tasklets, 2_000_000),
        "pipeline did not complete"
    );
}

#[test]
fn map_filter_chain_is_fused_into_one_vertex() {
    let p = Pipeline::create();
    let out = Arc::new(Mutex::new(Vec::new()));
    p.read_from_vec("src", (0..100u64).map(|i| (i as Ts, i)).collect::<Vec<_>>())
        .as_stream()
        .map(|v| v + 1)
        .filter(|v| v.is_multiple_of(2))
        .map(|v| v * 10)
        .write_to_collect(out.clone());
    let dag = p.compile(2).unwrap();
    // The chain rides on the source: source + sink = 2 vertices.
    assert_eq!(dag.vertices().len(), 2, "fusion failed: {dag:?}");
    assert_eq!(dag.vertices()[0].fused.len(), 3);
    run(&p, 2);
    let mut vals: Vec<u64> = out.lock().iter().map(|(_, v)| *v).collect();
    vals.sort_unstable();
    let mut expected: Vec<u64> = (0..100u64)
        .map(|i| i + 1)
        .filter(|v| v.is_multiple_of(2))
        .map(|v| v * 10)
        .collect();
    expected.sort_unstable();
    assert_eq!(vals, expected);
}

#[test]
fn fan_out_sends_every_event_to_both_sinks() {
    let p = Pipeline::create();
    let c1 = SharedCounter::new();
    let c2 = SharedCounter::new();
    let src = p
        .read_from_vec("src", (0..50u64).map(|i| (i as Ts, i)).collect::<Vec<_>>())
        .as_stream();
    src.write_to_count(c1.clone());
    src.map(|v| v * 2).write_to_count(c2.clone());
    run(&p, 2);
    assert_eq!(c1.get(), 50);
    assert_eq!(c2.get(), 50);
}

/// A run fused onto a stage with two consumers runs once per event, and
/// both consumers get every output: the vertex's output goes to both edges.
#[test]
fn a_chain_feeding_two_consumers_runs_once_per_event() {
    let p = Pipeline::create();
    let (runs, c1, c2) = (
        SharedCounter::new(),
        SharedCounter::new(),
        SharedCounter::new(),
    );
    let counted = runs.clone();
    let mapped = p
        .read_from_vec("src", (0..50u64).map(|i| (i as Ts, i)).collect::<Vec<_>>())
        .as_stream()
        .map(move |v| {
            counted.add(1);
            v + 1
        });
    mapped.write_to_count(c1.clone());
    mapped.write_to_count(c2.clone());
    let dag = p.compile(2).unwrap();
    assert_eq!(
        shape(&dag),
        [("src", 1), ("count-sink", 0), ("count-sink-2", 0)]
    );
    run(&p, 2);
    assert_eq!((runs.get(), c1.get(), c2.get()), (50, 50, 50));
}

#[test]
fn windowed_aggregate_two_stage_counts() {
    let p = Pipeline::create();
    let out: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
    // 10 keys, one event per key per tick, 100 ticks.
    let events: Vec<(Ts, (u64, u64))> = (0..1000u64)
        .map(|i| ((i / 10) as Ts, (i % 10, i)))
        .collect();
    p.read_from_vec("src", events)
        .as_stream()
        .grouping_key(|(k, _)| *k)
        .window(WindowDef::tumbling(50))
        .aggregate(counting::<(u64, u64)>())
        .write_to_collect(out.clone());
    run(&p, 2);
    let results = out.lock();
    // 100 ticks of event time / 50 per window = 2 windows x 10 keys.
    assert_eq!(results.len(), 20);
    for (_, r) in results.iter() {
        assert_eq!(r.value, 50, "key {} window {} wrong count", r.key, r.end);
    }
}

#[test]
fn windowed_sum_and_average() {
    let p = Pipeline::create();
    let sums: Collected<WindowResult<u64, i64>> = Arc::new(Mutex::new(Vec::new()));
    let avgs: Collected<WindowResult<u64, f64>> = Arc::new(Mutex::new(Vec::new()));
    let events: Vec<(Ts, (u64, i64))> = (0..100i64).map(|i| (i, (0u64, i))).collect();
    let src = p.read_from_vec("src", events).as_stream();
    src.grouping_key(|(k, _)| *k)
        .window(WindowDef::tumbling(100))
        .aggregate(summing::<(u64, i64)>(|(_, v)| *v))
        .write_to_collect(sums.clone());
    src.grouping_key(|(k, _)| *k)
        .window(WindowDef::tumbling(100))
        .aggregate(averaging::<(u64, i64)>(|(_, v)| *v))
        .write_to_collect(avgs.clone());
    run(&p, 2);
    let sums = sums.lock();
    assert_eq!(sums.len(), 1);
    assert_eq!(sums[0].1.value, (0..100i64).sum::<i64>());
    let avgs = avgs.lock();
    assert_eq!(avgs.len(), 1);
    assert!((avgs[0].1.value - 49.5).abs() < 1e-9);
}

#[test]
fn single_stage_equals_two_stage() {
    let events: Vec<(Ts, (u64, u64))> = (0..500u64)
        .map(|i| ((i * 3 % 300) as Ts, (i % 7, i)))
        .collect();
    let collect = |single: bool| {
        let p = Pipeline::create();
        let out: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
        let keyed = p
            .read_from_vec("src", events.clone())
            .as_stream()
            .grouping_key(|(k, _): &(u64, u64)| *k)
            .window(WindowDef::sliding(100, 25));
        let stage = if single {
            keyed.aggregate_single_stage(counting::<(u64, u64)>())
        } else {
            keyed.aggregate(counting::<(u64, u64)>())
        };
        stage.write_to_collect(out.clone());
        run(&p, 2);
        let mut v: Vec<(u64, Ts, u64)> = out
            .lock()
            .iter()
            .map(|(_, r)| (r.key, r.end, r.value))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(collect(true), collect(false));
}

#[test]
fn hash_join_enriches_stream() {
    let p = Pipeline::create();
    let out: Collected<(u64, String)> = Arc::new(Mutex::new(Vec::new()));
    let build = p.read_from_vec(
        "dim",
        (0..5u64)
            .map(|k| (0, (k, format!("name{k}"))))
            .collect::<Vec<_>>(),
    );
    p.read_from_vec(
        "orders",
        (0..20u64).map(|i| (i as Ts, i)).collect::<Vec<_>>(),
    )
    .as_stream()
    .hash_join(
        &build,
        |(k, _)| *k,
        |order| order % 5,
        |order, matches| {
            matches
                .iter()
                .map(|(_, name)| (*order, name.clone()))
                .collect()
        },
    )
    .write_to_collect(out.clone());
    run(&p, 2);
    let results = out.lock();
    assert_eq!(results.len(), 20);
    for (_, (order, name)) in results.iter() {
        assert_eq!(*name, format!("name{}", order % 5));
    }
}

#[test]
fn windowed_cogroup_joins_two_streams() {
    let p = Pipeline::create();
    type CoGroupResult = WindowResult<u64, (Vec<(u64, u64)>, Vec<(u64, String)>)>;
    let out: Collected<CoGroupResult> = Arc::new(Mutex::new(Vec::new()));
    // Left: (key, val) at ts = val; right: (key, label).
    let left: Vec<(Ts, (u64, u64))> = (0..40u64).map(|i| (i as Ts, (i % 4, i))).collect();
    let right: Vec<(Ts, (u64, String))> = (0..8u64)
        .map(|i| (i as Ts * 5, (i % 4, format!("r{i}"))))
        .collect();
    let lstage = p.read_from_vec("left", left).as_stream();
    let rstage = p.read_from_vec("right", right).as_stream();
    lstage
        .grouping_key(|(k, _): &(u64, u64)| *k)
        .window(WindowDef::tumbling(40))
        .cogroup(rstage.grouping_key(|(k, _): &(u64, String)| *k))
        .write_to_collect(out.clone());
    run(&p, 2);
    let results = out.lock();
    assert_eq!(results.len(), 4, "one window result per key");
    for (_, r) in results.iter() {
        let (ls, rs) = &r.value;
        assert_eq!(ls.len(), 10, "key {} left side", r.key);
        assert_eq!(rs.len(), 2, "key {} right side", r.key);
        assert!(ls.iter().all(|(k, _)| *k == r.key));
        assert!(rs.iter().all(|(k, _)| *k == r.key));
    }
}

#[test]
fn map_stateful_threads_state_per_key() {
    let p = Pipeline::create();
    let out: Collected<(u64, u64)> = Arc::new(Mutex::new(Vec::new()));
    // Running count per key.
    p.read_from_vec(
        "src",
        (0..60u64).map(|i| (i as Ts, i % 3)).collect::<Vec<_>>(),
    )
    .as_stream()
    .map_stateful(
        |k| *k,
        || 0u64,
        |count, k| {
            *count += 1;
            Some((*k, *count))
        },
    )
    .write_to_collect(out.clone());
    run(&p, 2);
    let results = out.lock();
    assert_eq!(results.len(), 60);
    // Highest running count per key must be 20.
    let mut max_per_key = std::collections::HashMap::new();
    for (_, (k, c)) in results.iter() {
        let e = max_per_key.entry(*k).or_insert(0u64);
        *e = (*e).max(*c);
    }
    for k in 0..3u64 {
        assert_eq!(max_per_key[&k], 20);
    }
}

#[test]
fn compile_rejects_nothing_but_is_deterministic() {
    let p = Pipeline::create();
    let c = SharedCounter::new();
    p.read_from_vec("src", vec![(0, 1u64)])
        .as_stream()
        .write_to_count(c.clone());
    let d1 = p.compile(2).unwrap();
    let d2 = p.compile(2).unwrap();
    assert_eq!(d1.vertices().len(), d2.vertices().len());
    assert_eq!(d1.edges().len(), d2.edges().len());
}

#[test]
fn tenant_job_prefix_propagates_to_downstream_vertices() {
    // A source's job must reach every derived vertex so per-job scheduling
    // quotas (jet-core::fairness) cover the whole tenant pipeline, not just
    // its source. Names stay what the stages call them.
    let p = Pipeline::create();
    let out: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
    let events: Vec<(Ts, u64)> = (0..100u64).map(|i| (i as Ts, i)).collect();
    p.read_from_vec("src", events)
        .as_stream()
        .in_job(7)
        .map(|v| v + 1)
        .grouping_key(|v| v % 4)
        .window(WindowDef::tumbling(50))
        .aggregate(counting::<u64>())
        .write_to_collect(out.clone());
    let dag = p.compile(2).unwrap();
    for v in dag.vertices() {
        assert_eq!(v.job, 7, "vertex {} lost the tenant's job", v.name);
    }
    assert_eq!(
        shape(&dag),
        [
            ("src", 1),
            ("window-accumulate", 0),
            ("window-combine", 0),
            ("collect-sink", 0)
        ]
    );
    run(&p, 2);
    assert!(!out.lock().is_empty());
}

#[test]
fn a_stage_fed_by_two_jobs_stays_in_job_zero() {
    let p = Pipeline::create();
    let c = SharedCounter::new();
    let a = p.read_from_vec("a", vec![(0, 1u64)]).as_stream().in_job(1);
    let b = p.read_from_vec("b", vec![(0, 2u64)]).as_stream().in_job(2);
    a.merge(&b).write_to_count(c.clone());
    let dag = p.compile(1).unwrap();
    let jobs: Vec<(&str, u32)> = dag
        .vertices()
        .iter()
        .map(|v| (v.name.as_str(), v.job))
        .collect();
    assert_eq!(jobs, [("a", 1), ("b", 2), ("merge", 0), ("count-sink", 0)]);
}

#[test]
fn untagged_pipelines_keep_their_plain_vertex_names() {
    // A name is only a label: a source named like a tenant but never put
    // in a job stays in job 0, and so does everything it feeds.
    let p = Pipeline::create();
    let c = SharedCounter::new();
    p.read_from_vec("job7-src", vec![(0, 1u64)])
        .as_stream()
        .map(|v| v * 2)
        .write_to_count(c.clone());
    let dag = p.compile(2).unwrap();
    assert_eq!(shape(&dag), [("job7-src", 1), ("count-sink", 0)]);
    for v in dag.vertices() {
        assert_eq!(
            v.job, 0,
            "vertex {} is in a job it was never put in",
            v.name
        );
    }
}

/// Vertex names of `dag` with the number of runs fused onto each.
fn shape(dag: &jet_core::Dag) -> Vec<(&str, usize)> {
    dag.vertices()
        .iter()
        .map(|v| (v.name.as_str(), v.fused.len()))
        .collect()
}

/// The benchmark's Q1 and Q5 shapes (a generator named `nexmark`, a
/// flat-map picking the bids, the query, a digest map, the latency sink):
/// every transform rides on the vertex that feeds it, under its name.
#[test]
fn q1_and_q5_shapes_fuse_into_their_producers() {
    let latency_sink = |stage: &jet_pipeline::StreamStage<u64>| {
        stage.write_to_latency(SharedHistogram::new(), SharedCounter::new());
    };
    let source = |p: &Pipeline| {
        p.read_from_generator("nexmark", 1_000, |seq, _| seq)
            .flat_map(|seq: &u64| (!seq.is_multiple_of(10)).then_some(*seq))
    };

    let q1 = Pipeline::create();
    latency_sink(&source(&q1).map(|bid| bid * 2).map(|row| row + 1));
    let dag = q1.compile(2).unwrap();
    assert_eq!(shape(&dag), [("nexmark", 3), ("latency-sink", 0)]);

    let q5 = Pipeline::create();
    let counts = source(&q5)
        .grouping_key(|bid| bid % 7)
        .window(WindowDef::sliding(100, 10))
        .aggregate(counting::<u64>());
    latency_sink(&counts.map(|r: &WindowResult<u64, u64>| r.value));
    let dag = q5.compile(2).unwrap();
    assert_eq!(
        shape(&dag),
        [
            ("nexmark", 1),
            ("window-accumulate", 0),
            ("window-combine", 1),
            ("latency-sink", 0),
        ]
    );
}

/// A transform whose producer has a second consumer, or whose pinned
/// parallelism differs from its producer's, runs on a pass-through host;
/// what follows it fuses onto that host.
#[test]
fn a_run_that_cannot_fuse_gets_a_host_vertex() {
    let p = Pipeline::create();
    let (c1, c2) = (SharedCounter::new(), SharedCounter::new());
    let src = p
        .read_from_vec("src", (0..50u64).map(|i| (i as Ts, i)).collect::<Vec<_>>())
        .as_stream();
    src.write_to_count(c1.clone());
    src.map(|v| v * 2)
        .filter(|v| v.is_multiple_of(4))
        .write_to_count(c2.clone());
    let dag = p.compile(2).unwrap();
    assert_eq!(
        shape(&dag),
        [
            ("src", 0),
            ("count-sink", 0),
            ("map", 2),
            ("count-sink-2", 0),
        ]
    );
    run(&p, 2);
    assert_eq!((c1.get(), c2.get()), (50, 25));

    let p = Pipeline::create();
    let out = Arc::new(Mutex::new(Vec::new()));
    p.read_from_vec("src", (0..50u64).map(|i| (i as Ts, i)).collect::<Vec<_>>())
        .as_stream()
        .map(|v| v + 1)
        .local_parallelism(1)
        .map(|v| v * 10)
        .local_parallelism(1)
        .write_to_collect(out.clone());
    let dag = p.compile(2).unwrap();
    assert_eq!(shape(&dag), [("src", 0), ("map", 2), ("collect-sink", 0)]);
    run(&p, 2);
    let mut vals: Vec<u64> = out.lock().iter().map(|(_, v)| *v).collect();
    vals.sort_unstable();
    assert_eq!(vals, (1..=50u64).map(|v| v * 10).collect::<Vec<_>>());
}
