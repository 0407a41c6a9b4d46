//! Acceptance: NEXMark Q1 allocates nothing per event on a local path but
//! what the generator itself builds. The job is the real one — the
//! `NexmarkConfig::event` generator, `queries::q1`, compiled by `Pipeline`
//! and wired by `build_local` — and its tasklets are polled on this thread
//! under a thread-local counting allocator. In steady state the only
//! allocations are the three `String`s of every `Person` event; a `Bid` or
//! an `Auction` costs none, from the source through its fused chain to the
//! sink.

use jet_core::metrics::SharedCounter;
use jet_core::plan::{build_local, LocalConfig};
use jet_core::SnapshotRegistry;
use jet_nexmark::{queries, NexmarkConfig};
use jet_pipeline::Pipeline;
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
