//! Simulator-level behavioural tests: determinism of full pipeline runs and
//! the latency effect of injected GC pauses (ablation A2's mechanism).

use jet_core::dag::{Dag, Edge};
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::plan::{build_local, LocalConfig};
use jet_core::processors::GeneratorSource;
use jet_core::snapshot::SnapshotRegistry;
use jet_core::supplier;
use jet_core::tasklet::Tasklet;
use jet_sim::{CostModel, GcModel, Simulator};
use jet_util::clock::ManualClock;
use std::sync::Arc;

const SEC: u64 = 1_000_000_000;

/// Build a generator -> latency-sink job against `clock` and run it on a
/// 2-core simulator; returns the latency histogram.
fn run_sim(gc: Option<GcModel>, rate: u64, limit: u64) -> jet_util::Histogram {
    let clock = Arc::new(ManualClock::new());
    let hist = SharedHistogram::new();
    let count = SharedCounter::new();
    let mut dag = Dag::new();
    let src = dag.vertex_with_parallelism(
        "gen",
        2,
        supplier(move |_| Box::new(GeneratorSource::new(rate, |seq, _| seq).with_limit(limit))),
    );
    let h2 = hist.clone();
    let c2 = count.clone();
    let sink = dag.vertex_with_parallelism(
        "latency-sink",
        2,
        supplier(move |_| {
            Box::new(jet_core::processors::LatencySink::new(
                h2.clone(),
                c2.clone(),
            ))
        }),
    );
    dag.edge(Edge::between(src, sink));
    let cfg = LocalConfig::new(2).with_clock(clock.clone());
    let registry = Arc::new(SnapshotRegistry::disabled());
    let exec = build_local(&dag, &cfg, &registry, None).unwrap();

    let mut sim = Simulator::new(clock, CostModel::default(), 20_000);
    if let Some(gc) = gc {
        sim = sim.with_gc(gc);
    }
    let c0 = sim.add_core();
    let c1 = sim.add_core();
    for (i, t) in exec.tasklets.into_iter().enumerate() {
        let t: Box<dyn Tasklet> = t;
        sim.assign(if i.is_multiple_of(2) { c0 } else { c1 }, t, None);
    }
    assert!(
        sim.run_until_done(600 * SEC),
        "job did not finish in simulated time"
    );
    assert_eq!(count.get(), limit);
    hist.snapshot()
}

#[test]
fn identical_runs_are_bit_identical() {
    let a = run_sim(None, 500_000, 30_000);
    let b = run_sim(None, 500_000, 30_000);
    assert_eq!(a.count(), b.count());
    for p in [10.0, 50.0, 90.0, 99.0, 99.9, 99.99, 100.0] {
        assert_eq!(
            a.percentile(p),
            b.percentile(p),
            "simulation must be deterministic (p{p})"
        );
    }
}

#[test]
fn stop_world_gc_inflates_the_tail() {
    let clean = run_sim(None, 500_000, 50_000);
    let gc = run_sim(
        Some(GcModel::stop_world(20_000_000, 50_000_000)),
        500_000,
        50_000,
    );
    // Median barely moves; the tail absorbs the pauses.
    assert!(
        gc.percentile(99.99) >= clean.percentile(99.99) + 10_000_000,
        "stop-world pauses must show at p99.99: clean={} gc={}",
        clean.percentile(99.99),
        gc.percentile(99.99)
    );
    // The percentile is a bucket mid-point estimate, so allow half a bucket
    // (2^-8 relative at 7 precision bits) of quantization below the exact
    // 20 ms pause length.
    let half_bucket = 20_000_000 / 256;
    assert!(
        gc.percentile(99.99) >= 20_000_000 - half_bucket,
        "tail below one pause length: {}",
        gc.percentile(99.99)
    );
}

#[test]
fn concurrent_gc_hurts_less_than_stop_world() {
    let concurrent = run_sim(
        Some(GcModel::concurrent(20_000_000, 50_000_000)),
        500_000,
        50_000,
    );
    let stop_world = run_sim(
        Some(GcModel::stop_world(20_000_000, 50_000_000)),
        500_000,
        50_000,
    );
    assert!(
        concurrent.percentile(99.0) <= stop_world.percentile(99.0),
        "a rotating single-core pause must beat a global pause: conc={} sw={}",
        concurrent.percentile(99.0),
        stop_world.percentile(99.0)
    );
}
