//! Acceptance: the small-event hot path performs **zero heap allocations
//! per event**. A counting global allocator wraps `System`; the test drives
//! the full per-event surface — `boxed` construction, `Item` wrapping,
//! SPSC offer/poll, clone (as a broadcast edge would), borrow-downcast, and
//! consume-by-`take` — and asserts the allocation counter did not move for
//! payloads at or under `INLINE_CAP` (32 bytes). The snapshot write path is
//! held to the same standard per record: staging a chunk of state records
//! into a warmed-up `Outbox` arena allocates nothing.

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
