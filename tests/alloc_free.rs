//! Acceptance: NEXMark Q1 and Q5 allocate nothing per event on a local path
//! but what the generator itself builds. The jobs are the real ones — the
//! `NexmarkConfig::event` generator, `queries::q1` / `queries::q5`,
//! compiled by `Pipeline` and wired by `build_local` — and their tasklets
//! are polled on this thread under a thread-local counting allocator. In
//! steady state the only allocations are the three `String`s of every
//! `Person` event; a `Bid` or an `Auction` costs none, from the source
//! through its fused chain, Q5's two window stages on either stage-1 path,
//! to the sink.

use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::metrics::SharedCounter;
use jet_core::plan::{build_local, LocalConfig};
use jet_core::processors::WatermarkPolicy;
use jet_core::{SnapshotRegistry, Tasklet};
use jet_nexmark::{queries, NexmarkConfig};
use jet_pipeline::{Pipeline, WindowDef};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates directly to `System`, which upholds the `GlobalAlloc`
// contract; the wrapper only bumps a thread-local counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn q1_allocates_only_the_strings_of_each_person_event() {
    let persons = Arc::new(AtomicU64::new(0));
    let counted = persons.clone();
    let nex = NexmarkConfig::default();
    let p = Pipeline::create();
    // Far ahead of what one thread emits, so every event is due.
    let src = p.read_from_generator("nexmark", 1_000_000_000, move |seq, ts| {
        let event = nex.event(seq, ts);
        if event.as_person().is_some() {
            counted.fetch_add(1, Ordering::Relaxed);
        }
        event
    });
    let bids = SharedCounter::new();
    queries::q1(&src).write_to_count(bids.clone());
    let dag = p.compile(1).unwrap();
    let shape: Vec<_> = dag
        .vertices()
        .iter()
        .map(|v| (v.name.as_str(), v.fused.len()))
        .collect();
    assert_eq!(shape, [("nexmark", 2), ("count-sink", 0)]);
    let registry = Arc::new(SnapshotRegistry::disabled());
    let mut tasklets = build_local(&dag, &LocalConfig::new(1), &registry, None)
        .unwrap()
        .tasklets;
    let mut poll = |rounds: usize| {
        for _ in 0..rounds {
            for t in tasklets.iter_mut() {
                t.call();
            }
        }
    };
    // Warm-up: the source claims its shards, every buffer and queue reaches
    // its steady-state capacity.
    poll(500);
    let (persons_before, bids_before) = (persons.load(Ordering::Relaxed), bids.get());
    let n = allocs_during(|| poll(5_000));
    let persons = persons.load(Ordering::Relaxed) - persons_before;
    let bids = bids.get() - bids_before;
    assert!(bids > 100_000, "only {bids} bids reached the sink");
    assert!(persons > 2_000, "only {persons} persons were generated");
    assert_eq!(
        n,
        3 * persons,
        "{n} allocations for {persons} persons and {bids} bids"
    );
}

/// Q5 counted over a short window: the generator's 1e9 events/s put one
/// event on every nanosecond of event time, so a 2 µs frame holds 2,000
/// events (1,840 bids) and a window closes every 2,000 events. Returns the
/// job, its sink's result count and the persons it generated.
fn q5_job(auctions: u64, limit: Option<u64>) -> (Pipeline, SharedCounter, Arc<AtomicU64>) {
    const SLIDE: i64 = 2_000;
    let persons = Arc::new(AtomicU64::new(0));
    let counted = persons.clone();
    let nex = NexmarkConfig {
        auctions,
        ..NexmarkConfig::default()
    };
    let p = Pipeline::create();
    let policy = WatermarkPolicy {
        stride: SLIDE / 4,
        ..WatermarkPolicy::default()
    };
    let src = p.read_from_generator_cfg("nexmark", 1_000_000_000, limit, policy, move |seq, ts| {
        let event = nex.event(seq, ts);
        if event.as_person().is_some() {
            counted.fetch_add(1, Ordering::Relaxed);
        }
        event
    });
    let results = SharedCounter::new();
    queries::q5(&src, WindowDef::sliding(4 * SLIDE, SLIDE)).write_to_count(results.clone());
    (p, results, persons)
}

/// Frames stage 1 forwarded instead of held when the job runs 50 frames on
/// the simulator: the key count alone picks the path.
fn q5_bypassed_frames(auctions: u64) -> u64 {
    let (p, results, _) = q5_job(auctions, Some(100_000));
    let cfg = SimClusterConfig {
        members: 1,
        cores_per_member: 1,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(p.compile(1).unwrap(), cfg).unwrap();
    assert!(cluster.run_for(1_000_000_000), "job did not complete");
    assert!(results.get() > 0, "no window results");
    cluster.job_metrics().counter_total(
        "jet_window_bypassed_frames_total",
        &[("vertex", "window-accumulate")],
    )
}

/// Steady-state allocations of Q5 over `auctions` auction ids, against the
/// persons generated meanwhile.
fn q5_allocations(auctions: u64) -> (u64, u64) {
    let (p, results, persons) = q5_job(auctions, None);
    let dag = p.compile(1).unwrap();
    let shape: Vec<_> = dag
        .vertices()
        .iter()
        .map(|v| (v.name.as_str(), v.fused.len()))
        .collect();
    assert_eq!(
        shape,
        [
            ("nexmark", 1),
            ("window-accumulate", 0),
            ("window-combine", 0),
            ("count-sink", 0)
        ]
    );
    let registry = Arc::new(SnapshotRegistry::disabled());
    let mut tasklets: Vec<Box<dyn Tasklet>> =
        build_local(&dag, &LocalConfig::new(1), &registry, None)
            .unwrap()
            .tasklets;
    let mut poll = |rounds: usize| {
        for _ in 0..rounds {
            for t in tasklets.iter_mut() {
                t.call();
            }
        }
    };
    // Warm-up: every frame table, pool, buffer and queue of both window
    // stages reaches its steady-state capacity.
    poll(3_000);
    let (persons_before, results_before) = (persons.load(Ordering::Relaxed), results.get());
    let n = allocs_during(|| poll(5_000));
    let persons = persons.load(Ordering::Relaxed) - persons_before;
    let windows = results.get() - results_before;
    assert!(persons > 1_000, "only {persons} persons were generated");
    assert!(windows > 10_000, "only {windows} window results");
    (n, persons)
}

#[test]
fn q5_allocates_only_the_strings_of_each_person_event_on_either_stage_1_path() {
    // 1,840 bids per frame over 20 auctions: stage 1 holds every frame.
    assert_eq!(q5_bypassed_frames(20), 0);
    let (n, persons) = q5_allocations(20);
    assert_eq!(
        n,
        3 * persons,
        "{n} allocations for {persons} persons, holding"
    );
    // Over 2,000 auctions a frame has ~1.5 bids per auction: stage 1
    // forwards every frame after its first.
    assert!(q5_bypassed_frames(2_000) >= 45);
    let (n, persons) = q5_allocations(2_000);
    assert_eq!(
        n,
        3 * persons,
        "{n} allocations for {persons} persons, forwarding"
    );
}
