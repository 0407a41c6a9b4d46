//! Acceptance: the small-event hot path performs **zero heap allocations
//! per event**. A counting global allocator wraps `System`; the test drives
//! the full per-event surface — `boxed` construction, `Item` wrapping,
//! SPSC offer/poll, clone (as a broadcast edge would), borrow-downcast, and
//! consume-by-`take` — and asserts the allocation counter did not move for
//! payloads at or under `INLINE_CAP` (32 bytes). The snapshot write path is
//! held to the same standard per record: staging a chunk of state records
//! into a warmed-up `Outbox` arena allocates nothing. So is a source tasklet
//! whose outbox runs a fused map/filter/flat-map chain.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

use jet_core::item::Item;
use jet_core::object::{boxed, downcast_ref, take};
use jet_queue::spsc_channel;

#[test]
fn small_payload_event_path_is_allocation_free() {
    // Queue allocation happens up front, outside the measured window.
    let (mut p, mut c) = spsc_channel::<Item>(64);

    let n = allocs_during(|| {
        for i in 0..1_000u64 {
            let obj = boxed(i); // 8-byte payload: inline
            assert!(obj.is_inline());
            let item = Item::event(i as i64, obj);
            let copy = item.clone(); // broadcast-style duplication
            p.offer(item).unwrap();
            p.offer(copy).unwrap();
            let mut seen = 0;
            c.drain_batch(2, |it| {
                match it {
                    Item::Event { ts, obj } => {
                        assert_eq!(ts, i as i64);
                        assert_eq!(*downcast_ref::<u64>(obj.as_ref()), i);
                        assert_eq!(take::<u64>(obj), i);
                    }
                    _ => panic!("expected event"),
                }
                seen += 1;
            });
            assert_eq!(seen, 2);
        }
    });
    assert_eq!(n, 0, "small-event hot path allocated {n} times");
}

#[test]
fn inline_cap_sized_tuple_is_allocation_free() {
    let n = allocs_during(|| {
        for i in 0..100u64 {
            // (u64, u64, u64, i64) is exactly 32 bytes = INLINE_CAP.
            let obj = boxed((i, i * 2, i * 3, -(i as i64)));
            assert!(obj.is_inline());
            let copy = obj.clone_object();
            assert_eq!(
                take::<(u64, u64, u64, i64)>(copy),
                (i, i * 2, i * 3, -(i as i64))
            );
            drop(obj);
        }
    });
    assert_eq!(n, 0, "INLINE_CAP-sized path allocated {n} times");
}

#[test]
fn oversized_payloads_fall_back_to_the_heap() {
    let n = allocs_during(|| {
        let obj = boxed([0u8; 40]); // 40 > INLINE_CAP
        assert!(!obj.is_inline());
        assert_eq!(take::<[u8; 40]>(obj), [0u8; 40]);
    });
    assert!(n > 0, "oversized payload should have boxed");
}

#[test]
fn staging_a_snapshot_chunk_into_a_warm_outbox_is_allocation_free() {
    use jet_core::processor::Outbox;
    // One chunk of window state as `AccumulateFrameP` stages it: the record
    // key is (tag, instance, key, frame end), the value an accumulator.
    fn stage_chunk(outbox: &mut Outbox) {
        for k in 0..2_048u64 {
            assert!(outbox.offer_snapshot(&(0u64, 1u64, k, 10_000_000_000i64 + k as i64), &k));
        }
        assert!(outbox.offer_snapshot_bytes(b"meta", &[0; 16]));
    }
    let mut outbox = Outbox::new(1, 256);
    // The first chunk grows the arena; every later one reuses it.
    stage_chunk(&mut outbox);
    let (records, body) = outbox.snapshot_chunk();
    let first = (records, body.to_vec());
    outbox.clear_snapshot_chunk();

    let n = allocs_during(|| stage_chunk(&mut outbox));
    assert_eq!(n, 0, "staging 2049 records allocated {n} times");
    let (records, body) = outbox.snapshot_chunk();
    assert_eq!((records, body), (first.0, &first.1[..]));
    assert_eq!(records, 2_049);
}

#[test]
fn a_chain_fused_onto_a_source_is_allocation_free_in_steady_state() {
    use jet_core::outbound::OutboundCollector;
    use jet_core::processor::{Guarantee, ProcessorContext};
    use jet_core::processors::{Fused, GeneratorSource, Link};
    use jet_core::snapshot::SnapshotRegistry;
    use jet_core::tasklet::{ProcessorTasklet, Tasklet};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    // map → filter → flat-map over inline payloads, onto an unpaced source.
    let chain = Fused::<u64>::default()
        .map(|seq| seq * 3)
        .filter(|v| v % 2 == 0)
        .flat_map(|&v| [(v, 0u64), (v, 1)])
        .head(&[]);
    let source = GeneratorSource::new(u64::MAX / 2, |seq, _| seq);
    let (out_p, mut out_c) = spsc_channel::<Item>(1024);
    let ctx = ProcessorContext {
        vertex: "src".into(),
        global_index: 0,
        total_parallelism: 1,
        member: 0,
        clock: jet_util::clock::system_clock(),
        guarantee: Guarantee::None,
        cancelled: Arc::new(AtomicBool::new(false)),
        partition_count: 8,
        owned_partitions: Arc::new(vec![true; 8]),
    };
    let mut tasklet = ProcessorTasklet::new(
        Box::new(source),
        Some(chain),
        ctx,
        Vec::new(),
        vec![OutboundCollector::new(
            jet_core::Routing::Unicast,
            vec![out_p],
            vec![],
            8,
            0,
        )],
        Arc::new(SnapshotRegistry::disabled()),
        64,
    );
    let mut pairs = 0u64;
    let mut step = |pairs: &mut u64| {
        tasklet.call();
        while let Some(item) = out_c.poll() {
            if let Item::Event { obj, .. } = item {
                let (v, i) = take::<(u64, u64)>(obj);
                assert!(v % 6 == 0 && i < 2);
                *pairs += 1;
            }
        }
    };
    // Warm-up: the source claims its shards, the buffers reach capacity.
    for _ in 0..200 {
        step(&mut pairs);
    }
    let warm = pairs;
    let n = allocs_during(|| {
        for _ in 0..2_000 {
            step(&mut pairs);
        }
    });
    assert!(pairs - warm > 10_000, "only {} outputs", pairs - warm);
    assert_eq!(n, 0, "the fused path allocated {n} times");
}
