//! Bounded wait-free single-producer single-consumer ring queue.
//!
//! The design follows the classic lock-free SPSC array queue (Lamport's ring
//! buffer with the cache-friendly refinements used by Aeron and Jet's
//! `OneToOneConcurrentArrayQueue`):
//!
//! * `head` is only written by the consumer, `tail` only by the producer —
//!   each operation is a handful of instructions and never retries, i.e. the
//!   queue is *wait-free*, which is what bounds per-item latency jitter.
//! * both counters live on their own cache line (`CachePadded`),
//! * the producer caches the consumer's `head` (and vice versa) so the
//!   common case touches only one shared cache line.
//!
//! Single-producer/single-consumer discipline is enforced at compile time by
//! handing out a `!Clone` [`Producer`] and [`Consumer`] pair, and the
//! mutating operations take `&mut self` so a reference returned by
//! [`Consumer::peek`] can never be invalidated by a concurrent-looking
//! [`Consumer::poll`] through the same handle.
//!
//! The memory-ordering protocol (and the `UnsafeCell` slot discipline) is
//! model-checked: `RUSTFLAGS="--cfg loom" cargo test -p jet-queue` runs the
//! `loom_tests` module below under exhaustive interleaving exploration, and
//! the `--cfg jet_weak_ordering` mutation lane proves the checker fails on
//! a deliberately weakened publish ordering. See DESIGN.md "Correctness
//! toolkit".

use crate::sync::{Arc, AtomicBool, AtomicUsize, CachePadded, Ordering, UnsafeCell};
use std::mem::MaybeUninit;

/// Ordering of the producer's publish store of `tail`.
///
/// ordering: `Release` pairs with the consumer's `Acquire` load of `tail`,
/// making the slot write visible before the new position. The
/// `jet_weak_ordering` cfg (loom mutation lane only) deliberately weakens it
/// to `Relaxed` to prove the model checker catches exactly this bug class —
/// never enable it in a real build.
const TAIL_PUBLISH: Ordering = if cfg!(jet_weak_ordering) {
    Ordering::Relaxed
} else {
    Ordering::Release
};

/// Publish-on-drop guard for the consumer's bulk drains: the freed run is
/// made visible to the producer by a single release store of `head`, even
/// when a caller closure panics mid-batch (otherwise `Shared::drop` would
/// double-drop the items already moved out).
struct HeadPublish<'a> {
    head: &'a AtomicUsize,
    val: usize,
    start: usize,
}

impl Drop for HeadPublish<'_> {
    fn drop(&mut self) {
        if self.val != self.start {
            // ordering: Release — same contract as the per-item store in
            // `poll` (pairs with the producer's Acquire refresh of `head`),
            // but one store per batch.
            self.head.store(self.val, Ordering::Release);
        }
    }
}

struct Shared<T> {
    buffer: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the consumer will read. Written by consumer only.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write. Written by producer only.
    tail: CachePadded<AtomicUsize>,
    /// Set once the producer guarantees no further offers (explicit
    /// [`Producer::done`] or producer drop).
    done: AtomicBool,
}

// SAFETY: only the producer writes slots between head..tail boundaries it
// owns, only the consumer reads slots it owns; positions are published with
// release stores and observed with acquire loads (model-checked by the loom
// tests below).
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: as above — the head/tail protocol gives each side exclusive
// access to disjoint slots, so shared references to `Shared` are fine.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Runs when the *last* of the two handles goes away: any items still
        // sitting in `head..tail` (including items offered after the
        // consumer was dropped) must have their destructors run or they leak.
        // ordering: Relaxed suffices — `&mut self` proves unique ownership,
        // and `Arc`'s drop protocol already ordered all prior accesses.
        let tail = self.tail.load(Ordering::Relaxed);
        let mut head = self.head.load(Ordering::Relaxed);
        while head != tail {
            // SAFETY: slots in `head..tail` hold initialized items that no
            // handle can access anymore (we are the unique owner), so moving
            // them out exactly once is sound.
            drop(self.buffer[head & self.mask].with_mut(|p| unsafe { (*p).assume_init_read() }));
            head = head.wrapping_add(1);
        }
    }
}

/// Producer half of an SPSC queue. Not cloneable.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Producer's private copy of `tail` (avoids an atomic load).
    tail: usize,
    /// Cached consumer position; refreshed only when the queue looks full.
    cached_head: usize,
}

/// Consumer half of an SPSC queue. Not cloneable.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Consumer's private copy of `head`.
    head: usize,
    /// Cached producer position; refreshed only when the queue looks empty.
    cached_tail: usize,
}

// SAFETY: moving the producer to another thread moves the only writer of
// `tail` and the slots it owns; `T: Send` carries the items across.
unsafe impl<T: Send> Send for Producer<T> {}
// SAFETY: as above for the consumer side.
unsafe impl<T: Send> Send for Consumer<T> {}

/// Create a bounded SPSC queue with capacity rounded up to a power of two.
pub fn spsc_channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buffer: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        buffer,
        mask: cap - 1,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
        done: AtomicBool::new(false),
    });
    (
        Producer {
            shared: shared.clone(),
            tail: 0,
            cached_head: 0,
        },
        Consumer {
            shared,
            head: 0,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Capacity of the queue (power of two).
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Try to enqueue one item; returns it back if the queue is full.
    #[inline]
    pub fn offer(&mut self, item: T) -> Result<(), T> {
        let tail = self.tail;
        if tail.wrapping_sub(self.cached_head) > self.shared.mask {
            // Looks full — refresh the consumer position.
            // ordering: Acquire pairs with the consumer's Release store of
            // `head` in `poll`: slots the consumer freed are fully read
            // before we may overwrite them.
            self.cached_head = self.shared.head.load(Ordering::Acquire);
            if tail.wrapping_sub(self.cached_head) > self.shared.mask {
                return Err(item);
            }
        }
        // SAFETY: `tail` is within `cached_head..cached_head+capacity`, so
        // this slot is either uninitialized or already moved out by the
        // consumer; the producer is the only writer and publishes the slot
        // only after this write via the `tail` release store below.
        self.shared.buffer[tail & self.shared.mask].with_mut(|p| unsafe { (*p).write(item) });
        self.tail = tail.wrapping_add(1);
        // ordering: `TAIL_PUBLISH` (Release) pairs with the consumer's
        // Acquire load of `tail`: the slot write is visible before the new
        // position.
        self.shared.tail.store(self.tail, TAIL_PUBLISH);
        Ok(())
    }

    /// Bulk enqueue: move items out of `iter` into the ring until the
    /// iterator is exhausted or the queue is full, returning how many were
    /// moved. Items the queue had no room for stay in the iterator (which is
    /// why it is taken by `&mut`).
    ///
    /// The batch costs the same number of shared-memory operations as a
    /// *single* `offer`: the head/tail snapshot is read once, the consumer
    /// position is refreshed at most once (only when the snapshot cannot
    /// satisfy the batch), every slot is filled with a plain write, and the
    /// whole run is published by one release store of `tail`.
    pub fn offer_batch<I>(&mut self, iter: &mut I) -> usize
    where
        I: Iterator<Item = T>,
    {
        let mask = self.shared.mask;
        let start = self.tail;
        // Publish-on-drop guard: `iter.next()` runs arbitrary caller code,
        // and a panic there must still publish the items already written
        // into their slots (otherwise `Shared::drop` would leak them).
        struct Publish<'a> {
            tail: &'a AtomicUsize,
            val: usize,
            start: usize,
        }
        impl Drop for Publish<'_> {
            fn drop(&mut self) {
                if self.val != self.start {
                    // ordering: same contract as the single-item publish —
                    // `TAIL_PUBLISH` (Release) makes every slot write in the
                    // batch visible before the new position. One store per
                    // batch is the whole point of this method.
                    self.tail.store(self.val, TAIL_PUBLISH);
                }
            }
        }
        let mut publish = Publish {
            tail: &self.shared.tail,
            val: start,
            start,
        };
        let mut refreshed = false;
        'fill: loop {
            let mut free = (mask + 1).wrapping_sub(publish.val.wrapping_sub(self.cached_head));
            if free == 0 {
                if refreshed {
                    break;
                }
                // Looks full — refresh the consumer position, at most once
                // per batch.
                // ordering: Acquire — same pairing as the refresh in `offer`.
                self.cached_head = self.shared.head.load(Ordering::Acquire);
                refreshed = true;
                free = (mask + 1).wrapping_sub(publish.val.wrapping_sub(self.cached_head));
                if free == 0 {
                    break;
                }
            }
            // Fill the contiguous run up to the wrap point: borrowing the
            // segment as a slice hoists the bounds check and index masking
            // out of the per-item path.
            let off = publish.val & mask;
            let seg = free.min(mask + 1 - off);
            for slot in &self.shared.buffer[off..off + seg] {
                let Some(item) = iter.next() else { break 'fill };
                // SAFETY: `free > 0` keeps `publish.val` within
                // `cached_head..cached_head+capacity`, so this slot is free
                // (uninit or moved out); the producer is the only writer, and
                // the batch becomes visible only via the guard's single tail
                // store, after every slot write it covers.
                slot.with_mut(|p| unsafe { (*p).write(item) });
                publish.val = publish.val.wrapping_add(1);
            }
        }
        let n = publish.val.wrapping_sub(start);
        self.tail = publish.val;
        drop(publish);
        n
    }

    /// Free slots available for offers right now (a lower bound: the consumer
    /// may free more concurrently).
    pub fn remaining_capacity(&mut self) -> usize {
        // ordering: Acquire — same pairing as the refresh in `offer`.
        let head = self.shared.head.load(Ordering::Acquire);
        self.cached_head = head;
        self.capacity() - self.tail.wrapping_sub(head)
    }

    /// True if `offer` would currently fail.
    pub fn is_full(&mut self) -> bool {
        self.remaining_capacity() == 0
    }

    /// Promise that no further items will be offered. The consumer observes
    /// this through [`Consumer::is_finished`] once the queue is drained.
    /// Dropping the producer makes the same promise implicitly.
    pub fn done(&self) {
        // ordering: Release pairs with the Acquire load in `is_finished`, so
        // a consumer that sees `done` also sees every item offered before it.
        self.shared.done.store(true, Ordering::Release);
    }

    /// Has [`Producer::done`] been called (or the producer dropped)?
    pub fn is_done(&self) -> bool {
        self.shared.done.load(Ordering::Acquire)
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // A dropped producer can never offer again: equivalent to `done()`.
        self.done();
    }
}

impl<T> Consumer<T> {
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Dequeue one item if available.
    #[inline]
    pub fn poll(&mut self) -> Option<T> {
        let head = self.head;
        if head == self.cached_tail {
            // ordering: Acquire pairs with the producer's Release store of
            // `tail`: the slot write is visible before the new position.
            self.cached_tail = self.shared.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: `head < cached_tail` (acquire-published), so the slot
        // holds an initialized item the producer will not touch until we
        // release `head` past it below; reading it out exactly once is sound.
        let item = self.shared.buffer[head & self.shared.mask]
            .with(|p| unsafe { (*p).assume_init_read() });
        self.head = head.wrapping_add(1);
        // ordering: Release pairs with the producer's Acquire refresh of
        // `head` in `offer`: our slot read completes before the producer may
        // overwrite the slot.
        self.shared.head.store(self.head, Ordering::Release);
        Some(item)
    }

    /// Peek at the next item without consuming it. Holding the returned
    /// reference borrows the consumer, so the slot cannot be `poll`ed (and
    /// recycled by the producer) while it is alive.
    #[inline]
    pub fn peek(&mut self) -> Option<&T> {
        let head = self.head;
        if head == self.cached_tail {
            // ordering: Acquire — same pairing as in `poll`.
            self.cached_tail = self.shared.tail.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: as in `poll`, the slot is initialized and producer-stable;
        // we hand out a shared borrow tied to `&mut self`, so no `poll` can
        // move the item out while the reference lives.
        Some(
            self.shared.buffer[head & self.shared.mask].with(|p| unsafe { (*p).assume_init_ref() }),
        )
    }

    /// Bulk dequeue: move up to `max` items into `sink`, returning how many
    /// were moved. Equivalent to `max` successful `poll`s but pays the
    /// shared-memory cost of one: the producer position is refreshed at most
    /// once (only when the cached snapshot cannot satisfy the batch), slots
    /// are read with plain loads, and the freed run is published by a single
    /// release store of `head`.
    #[inline]
    pub fn drain_batch(&mut self, max: usize, mut sink: impl FnMut(T)) -> usize {
        let mask = self.shared.mask;
        let start = self.head;
        let mut avail = self.cached_tail.wrapping_sub(start);
        if avail < max {
            // The cache cannot satisfy the whole batch — refresh the
            // producer position, at most once per batch.
            // ordering: Acquire — same pairing as in `poll`: the slot writes
            // are visible before the new position.
            self.cached_tail = self.shared.tail.load(Ordering::Acquire);
            avail = self.cached_tail.wrapping_sub(start);
        }
        let n = avail.min(max);
        if n == 0 {
            return 0;
        }
        // Publish-on-drop guard: `sink` runs arbitrary caller code, and a
        // panic there must still publish the slots already read out
        // (otherwise `Shared::drop` would double-drop the moved items).
        let mut publish = HeadPublish {
            head: &self.shared.head,
            val: start,
            start,
        };
        let mut left = n;
        while left > 0 {
            // Walk the contiguous run up to the wrap point: borrowing the
            // segment as a slice hoists the bounds check and index masking
            // out of the per-item path.
            let off = publish.val & mask;
            let seg = left.min(mask + 1 - off);
            for slot in &self.shared.buffer[off..off + seg] {
                // SAFETY: the slot is below the acquire-published `tail`, so
                // it holds an initialized item the producer cannot touch
                // until `head` is released past it; it is read out exactly
                // once, and the cursor advances *before* `sink` runs so a
                // panic inside it cannot double-drop the moved item.
                let item = slot.with(|p| unsafe { (*p).assume_init_read() });
                publish.val = publish.val.wrapping_add(1);
                sink(item);
            }
            left -= seg;
        }
        self.head = publish.val;
        drop(publish);
        n
    }

    /// Like [`Consumer::drain_batch`], but stops (without consuming) at the
    /// first item `accept` rejects. This is the primitive the engine uses to
    /// bulk-move a run of data items while leaving a control item (barrier,
    /// watermark) at the head of the queue for one-at-a-time handling.
    pub fn drain_batch_while(
        &mut self,
        max: usize,
        mut accept: impl FnMut(&T) -> bool,
        mut sink: impl FnMut(T),
    ) -> usize {
        let mask = self.shared.mask;
        let start = self.head;
        let mut avail = self.cached_tail.wrapping_sub(start);
        if avail < max {
            // The cache cannot satisfy the whole batch — refresh the
            // producer position, at most once per batch.
            // ordering: Acquire — same pairing as in `poll`: the slot writes
            // are visible before the new position.
            self.cached_tail = self.shared.tail.load(Ordering::Acquire);
            avail = self.cached_tail.wrapping_sub(start);
        }
        let n = avail.min(max);
        if n == 0 {
            return 0;
        }
        // Publish-on-drop guard: `accept`/`sink` run arbitrary caller code,
        // and a panic there must still publish the slots already read out
        // (otherwise `Shared::drop` would double-drop the moved items).
        let mut publish = HeadPublish {
            head: &self.shared.head,
            val: start,
            start,
        };
        while publish.val.wrapping_sub(start) < n {
            let slot = &self.shared.buffer[publish.val & mask];
            // SAFETY: the slot is below the acquire-published `tail`, so it
            // holds an initialized item the producer cannot touch until
            // `head` is released past it; peeking by shared reference before
            // deciding to consume is the same discipline as `peek`.
            if !slot.with(|p| unsafe { accept((*p).assume_init_ref()) }) {
                break;
            }
            // SAFETY: as above; the slot is read out exactly once, and the
            // cursor advances *before* `sink` runs so a panic inside it
            // cannot double-drop the item already moved out.
            let item = slot.with(|p| unsafe { (*p).assume_init_read() });
            publish.val = publish.val.wrapping_add(1);
            sink(item);
        }
        let taken = publish.val.wrapping_sub(start);
        self.head = publish.val;
        drop(publish);
        taken
    }

    /// Number of items currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        // ordering: Acquire keeps the count consistent with what `poll`
        // could actually return next.
        let tail = self.shared.tail.load(Ordering::Acquire);
        tail.wrapping_sub(self.head)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the producer called [`Producer::done`] (or was dropped)
    /// *and* every item it offered has been polled. A `true` result is
    /// final: no further item can ever arrive on this queue.
    pub fn is_finished(&mut self) -> bool {
        // ordering: Acquire pairs with the Release store in `done`; seeing
        // `done == true` therefore also makes the producer's final `tail`
        // visible to the refresh below, so "empty" is conclusive.
        if !self.shared.done.load(Ordering::Acquire) {
            return false;
        }
        self.cached_tail = self.shared.tail.load(Ordering::Acquire);
        self.head == self.cached_tail
    }
}

/// Type-erased view of one queue's occupancy, readable from *any* thread.
///
/// `Producer`/`Consumer` cache positions privately, so their `len()`-style
/// accessors must stay on the owning thread. The probe reads only the shared
/// atomics (the same ones the SPSC protocol publishes with release stores),
/// which makes it safe for a metrics thread to sample depth concurrently
/// with traffic — the value is approximate by nature.
#[derive(Clone)]
pub struct DepthProbe {
    // A std Arc even in loom builds: the dyn-erasure needs std's unsize
    // coercion, and the concrete source inside holds the queue via the shim
    // `Arc`, so loom still tracks the underlying accesses.
    source: std::sync::Arc<dyn DepthSource + Send + Sync>,
}

trait DepthSource {
    fn depth(&self) -> usize;
    fn capacity(&self) -> usize;
}

/// Concrete probe source: keeps the shared ring alive through the shim
/// [`Arc`] while presenting the dyn-compatible [`DepthSource`] face.
struct ProbeSource<T>(Arc<Shared<T>>);

impl<T> DepthSource for ProbeSource<T> {
    fn depth(&self) -> usize {
        // ordering: Acquire on both — the probe only needs a consistent
        // snapshot no newer than either counter.
        let tail = self.0.tail.load(Ordering::Acquire);
        let head = self.0.head.load(Ordering::Acquire);
        // `tail` was read first: a concurrent poll can make `head` pass it,
        // so clamp instead of wrapping to a huge value.
        tail.wrapping_sub(head).min(self.0.mask + 1)
    }

    fn capacity(&self) -> usize {
        self.0.mask + 1
    }
}

impl DepthProbe {
    /// Items currently queued (approximate under concurrency, never above
    /// capacity).
    pub fn depth(&self) -> usize {
        self.source.depth()
    }

    pub fn capacity(&self) -> usize {
        self.source.capacity()
    }
}

impl<T: Send + 'static> Producer<T> {
    /// A thread-safe occupancy probe for this queue.
    pub fn probe(&self) -> DepthProbe {
        DepthProbe {
            source: std::sync::Arc::new(ProbeSource(self.shared.clone())),
        }
    }
}

impl<T: Send + 'static> Consumer<T> {
    /// A thread-safe occupancy probe for this queue.
    pub fn probe(&self) -> DepthProbe {
        DepthProbe {
            source: std::sync::Arc::new(ProbeSource(self.shared.clone())),
        }
    }
}

/// Loom models of the SPSC protocol. Run with
/// `RUSTFLAGS="--cfg loom" cargo test -p jet-queue` (see DESIGN.md).
///
/// The models are deliberately tiny — capacity 2, a handful of items — so
/// the DFS stays exhaustive within the preemption bound while still forcing
/// every boundary case: wrap-around, the full-queue `cached_head` refresh,
/// the empty-queue `cached_tail` refresh, and drop with in-flight items.
#[cfg(all(loom, test))]
mod loom_tests {
    use super::*;
    use loom::thread;

    /// Move `n` items through a capacity-`cap` ring with retry/yield loops
    /// on both sides, asserting order and completeness.
    fn transfer_model(cap: usize, n: u64) {
        loom::model(move || {
            let (mut p, mut c) = spsc_channel::<u64>(cap);
            let producer = thread::spawn(move || {
                for i in 0..n {
                    let mut v = i;
                    loop {
                        match p.offer(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                thread::yield_now();
                            }
                        }
                    }
                }
            });
            let mut expected = 0u64;
            while expected < n {
                match c.poll() {
                    Some(v) => {
                        assert_eq!(v, expected, "items reordered or corrupted");
                        expected += 1;
                    }
                    None => thread::yield_now(),
                }
            }
            producer.join().unwrap();
            assert!(c.poll().is_none(), "phantom item after the last offer");
        });
    }

    /// Move `n` items through a capacity-`cap` ring using only the *batch*
    /// APIs (`offer_batch` retrying on full, `drain_batch` in runs of
    /// `batch`, `done()` after the final batch), asserting order and
    /// completeness. Exercises wrap-around, the at-most-once cache refresh
    /// on both sides, and the done()-during-batch hand-shake.
    fn batch_transfer_model(cap: usize, n: u64, batch: usize) {
        loom::model(move || {
            let (mut p, mut c) = spsc_channel::<u64>(cap);
            let producer = thread::spawn(move || {
                let mut iter = 0..n;
                let mut left = n as usize;
                while left > 0 {
                    let moved = p.offer_batch(&mut iter);
                    left -= moved;
                    if moved == 0 {
                        thread::yield_now();
                    }
                }
                p.done();
            });
            let mut expected = 0u64;
            loop {
                let got = c.drain_batch(batch, |v| {
                    assert_eq!(v, expected, "batch drain reordered or corrupted");
                    expected += 1;
                });
                if got == 0 {
                    if c.is_finished() {
                        break;
                    }
                    thread::yield_now();
                }
            }
            assert_eq!(expected, n, "is_finished() fired before the last batch");
            producer.join().unwrap();
        });
    }

    /// Wrap-around plus both cache-refresh races: 3 items through a 2-slot
    /// ring force the producer's full-refresh and the consumer's
    /// empty-refresh on every schedule.
    #[cfg(not(jet_weak_ordering))]
    #[test]
    fn transfer_wraparound_and_cache_refresh() {
        transfer_model(2, 3);
    }

    /// Batch wrap-around: 3 items in runs of 2 through a 2-slot ring force
    /// partial batches, the single-refresh path, and slot reuse across the
    /// index wrap on every schedule.
    #[cfg(not(jet_weak_ordering))]
    #[test]
    fn batch_transfer_wraparound_and_cache_refresh() {
        batch_transfer_model(2, 3, 2);
    }

    /// done() racing a consumer mid-batch: the producer publishes its last
    /// batch and immediately promises completion; a consumer observing
    /// `is_finished()` must already have drained every item of that batch.
    #[cfg(not(jet_weak_ordering))]
    #[test]
    fn batch_done_during_drain_is_conclusive() {
        batch_transfer_model(4, 3, 4);
    }

    /// Mixed APIs: single-item offers against a batch drainer (and the
    /// peek-based `drain_batch_while` reject path) interoperate with the
    /// same ordering guarantees.
    #[cfg(not(jet_weak_ordering))]
    #[test]
    fn batch_drain_interoperates_with_single_offer() {
        loom::model(|| {
            let (mut p, mut c) = spsc_channel::<u64>(2);
            let producer = thread::spawn(move || {
                for i in 0..3u64 {
                    let mut v = i;
                    loop {
                        match p.offer(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                thread::yield_now();
                            }
                        }
                    }
                }
            });
            let mut expected = 0u64;
            while expected < 3 {
                // Accept everything below 2, then fall back to plain drain:
                // the rejected item must stay queued for the next call.
                let got = c.drain_batch_while(
                    4,
                    |v| *v < 2,
                    |v| {
                        assert_eq!(v, expected);
                        expected += 1;
                    },
                );
                if got == 0 {
                    if c.peek().is_some() {
                        assert_eq!(c.poll(), Some(expected));
                        expected += 1;
                    } else {
                        thread::yield_now();
                    }
                }
            }
            producer.join().unwrap();
        });
    }

    /// Mutation lane, batch flavor: with `--cfg jet_weak_ordering` the batch
    /// publish in `offer_batch` degrades to `Relaxed` (it shares
    /// [`TAIL_PUBLISH`] with the single-item path) and the checker must
    /// report the slot hand-off to `drain_batch` as a data race.
    #[cfg(jet_weak_ordering)]
    #[test]
    #[should_panic(expected = "data race")]
    fn batch_weakened_tail_publish_is_caught() {
        batch_transfer_model(2, 2, 2);
    }

    /// The mutation lane: with `--cfg jet_weak_ordering` the tail publish
    /// store degrades to `Relaxed` (see [`TAIL_PUBLISH`]) and the checker
    /// must report the slot hand-off as a data race. This is the proof that
    /// the loom models have teeth.
    #[cfg(jet_weak_ordering)]
    #[test]
    #[should_panic(expected = "data race")]
    fn weakened_tail_publish_is_caught() {
        transfer_model(2, 2);
    }

    /// Items still in flight when both handles drop must be released exactly
    /// once, under every drop order the scheduler can produce.
    #[cfg(not(jet_weak_ordering))]
    #[test]
    fn drop_with_in_flight_items_releases_all() {
        use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
        use std::sync::Arc as StdArc;

        struct D(StdArc<StdAtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, StdOrdering::SeqCst);
            }
        }

        loom::model(|| {
            let drops = StdArc::new(StdAtomicUsize::new(0));
            let (mut p, mut c) = spsc_channel::<D>(2);
            assert!(p.offer(D(drops.clone())).is_ok());
            assert!(p.offer(D(drops.clone())).is_ok());
            let consumer = thread::spawn(move || {
                // Consume at most one item, then drop with the rest in
                // flight; completeness must not depend on who drops last.
                let _maybe = c.poll();
            });
            drop(p);
            consumer.join().unwrap();
            assert_eq!(
                drops.load(StdOrdering::SeqCst),
                2,
                "in-flight items leaked on drop"
            );
        });
    }

    /// The done() hand-shake: a consumer that sees `is_finished()` must have
    /// observed every offered item first — no early termination.
    #[cfg(not(jet_weak_ordering))]
    #[test]
    fn done_is_conclusive_only_after_last_item() {
        loom::model(|| {
            let (mut p, mut c) = spsc_channel::<u64>(2);
            let producer = thread::spawn(move || {
                p.offer(1).unwrap();
                p.offer(2).unwrap();
                p.done();
            });
            let mut sum = 0u64;
            loop {
                if let Some(v) = c.poll() {
                    sum += v;
                } else if c.is_finished() {
                    break;
                } else {
                    thread::yield_now();
                }
            }
            assert_eq!(sum, 3, "is_finished() fired before the queue drained");
            producer.join().unwrap();
        });
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn offer_poll_roundtrip() {
        let (mut p, mut c) = spsc_channel::<u32>(4);
        assert!(c.poll().is_none());
        p.offer(1).unwrap();
        p.offer(2).unwrap();
        assert_eq!(c.poll(), Some(1));
        assert_eq!(c.poll(), Some(2));
        assert!(c.poll().is_none());
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = spsc_channel::<u8>(5);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = spsc_channel::<u8>(0);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn full_queue_rejects_and_returns_item() {
        let (mut p, mut c) = spsc_channel::<u32>(2);
        p.offer(1).unwrap();
        p.offer(2).unwrap();
        assert_eq!(p.offer(3), Err(3));
        assert!(p.is_full());
        assert_eq!(c.poll(), Some(1));
        p.offer(3).unwrap();
        assert_eq!(c.poll(), Some(2));
        assert_eq!(c.poll(), Some(3));
    }

    #[test]
    fn peek_does_not_consume() {
        let (mut p, mut c) = spsc_channel::<String>(4);
        p.offer("a".to_string()).unwrap();
        assert_eq!(c.peek().map(|s| s.as_str()), Some("a"));
        assert_eq!(c.peek().map(|s| s.as_str()), Some("a"));
        assert_eq!(c.poll().as_deref(), Some("a"));
        assert!(c.peek().is_none());
    }

    #[test]
    fn len_tracks_contents() {
        let (mut p, mut c) = spsc_channel::<u32>(8);
        assert!(c.is_empty());
        for i in 0..5 {
            p.offer(i).unwrap();
        }
        assert_eq!(c.len(), 5);
        c.poll();
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn wraparound_many_times() {
        let (mut p, mut c) = spsc_channel::<u64>(4);
        let n: u64 = if cfg!(miri) { 200 } else { 10_000 };
        for i in 0..n {
            p.offer(i).unwrap();
            assert_eq!(c.poll(), Some(i));
        }
    }

    #[test]
    fn offer_batch_moves_what_fits_and_keeps_the_rest() {
        let (mut p, mut c) = spsc_channel::<u32>(4);
        let mut iter = 0..10u32;
        // Queue has room for 4: exactly 4 move, the iterator keeps 4..10.
        assert_eq!(p.offer_batch(&mut iter), 4);
        assert_eq!(iter.next(), Some(4));
        assert_eq!(p.offer_batch(&mut iter), 0, "full queue must move nothing");
        assert_eq!(
            iter.next(),
            Some(5),
            "full queue must not consume the iterator"
        );
        assert_eq!(c.poll(), Some(0));
        assert_eq!(c.poll(), Some(1));
        // Two slots freed by the consumer: the refresh finds them.
        assert_eq!(p.offer_batch(&mut iter), 2);
        let mut out = Vec::new();
        c.drain_batch(16, |v| out.push(v));
        assert_eq!(out, vec![2, 3, 6, 7]);
    }

    #[test]
    fn offer_batch_with_short_iterator_publishes_once() {
        let (mut p, mut c) = spsc_channel::<u32>(16);
        let mut iter = [7u32, 8, 9].into_iter();
        assert_eq!(p.offer_batch(&mut iter), 3);
        assert_eq!(c.len(), 3, "batch must be visible after the single publish");
        assert_eq!(p.offer_batch(&mut std::iter::empty::<u32>()), 0);
        assert_eq!(c.poll(), Some(7));
    }

    #[test]
    fn drain_batch_respects_max_and_preserves_fifo() {
        let (mut p, mut c) = spsc_channel::<u32>(16);
        for i in 0..10 {
            p.offer(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(c.drain_batch(4, |v| out.push(v)), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(c.drain_batch(100, |v| out.push(v)), 6);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(c.drain_batch(1, |_| panic!("queue is empty")), 0);
    }

    #[test]
    fn drain_batch_while_stops_at_rejected_item_without_consuming_it() {
        let (mut p, mut c) = spsc_channel::<u32>(16);
        for v in [1, 2, 99, 3] {
            p.offer(v).unwrap();
        }
        let mut out = Vec::new();
        // Reject 99: the run before it drains, 99 stays at the head.
        assert_eq!(c.drain_batch_while(16, |v| *v < 10, |v| out.push(v)), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(c.peek(), Some(&99));
        assert_eq!(c.poll(), Some(99));
        assert_eq!(c.drain_batch_while(16, |v| *v < 10, |v| out.push(v)), 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn batch_apis_wrap_around_many_times() {
        let (mut p, mut c) = spsc_channel::<u64>(4);
        let n: u64 = if cfg!(miri) { 200 } else { 10_000 };
        let mut iter = 0..n;
        let mut expected = 0u64;
        while expected < n {
            p.offer_batch(&mut iter);
            c.drain_batch(3, |v| {
                assert_eq!(v, expected);
                expected += 1;
            });
        }
    }

    #[test]
    fn drain_batch_sees_done_after_final_batch() {
        let (mut p, mut c) = spsc_channel::<u32>(8);
        let mut iter = [1u32, 2].into_iter();
        p.offer_batch(&mut iter);
        p.done();
        assert!(!c.is_finished(), "finished while the final batch is queued");
        let mut out = Vec::new();
        assert_eq!(c.drain_batch(8, |v| out.push(v)), 2);
        assert_eq!(out, vec![1, 2]);
        assert!(c.is_finished());
    }

    #[test]
    fn drop_releases_unconsumed_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, c) = spsc_channel::<D>(8);
        for _ in 0..5 {
            assert!(p.offer(D).is_ok());
        }
        drop(c);
        drop(p);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    /// Regression (loom/Miri audit): items offered *after* the consumer was
    /// dropped used to leak — the old `Consumer::drop` drained the queue,
    /// but nothing released what arrived later. The queue's backing storage
    /// now owns the cleanup, so drop order and timing no longer matter.
    #[test]
    fn items_offered_after_consumer_drop_are_released() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, c) = spsc_channel::<D>(8);
        for _ in 0..3 {
            assert!(p.offer(D).is_ok());
        }
        drop(c);
        // The consumer is gone; these items can never be polled.
        for _ in 0..2 {
            assert!(p.offer(D).is_ok());
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 0, "items dropped too early");
        drop(p);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5, "in-flight items leaked");
    }

    #[test]
    fn done_flag_finishes_only_when_drained() {
        let (mut p, mut c) = spsc_channel::<u32>(4);
        p.offer(1).unwrap();
        assert!(!c.is_finished());
        p.done();
        assert!(p.is_done());
        assert!(!c.is_finished(), "finished while an item is still queued");
        assert_eq!(c.poll(), Some(1));
        assert!(c.is_finished());
        // `is_finished` is final and idempotent.
        assert!(c.is_finished());
    }

    #[test]
    fn producer_drop_implies_done() {
        let (p, mut c) = spsc_channel::<u32>(4);
        drop(p);
        assert!(c.is_finished());
    }

    #[test]
    fn cross_thread_transfer_preserves_order() {
        let (mut p, mut c) = spsc_channel::<u64>(128);
        const N: u64 = if cfg!(miri) { 500 } else { 200_000 };
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match p.offer(v) {
                        Ok(()) => break,
                        Err(back) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = c.poll() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert!(c.poll().is_none());
    }

    #[test]
    fn remaining_capacity_reflects_consumption() {
        let (mut p, mut c) = spsc_channel::<u32>(4);
        assert_eq!(p.remaining_capacity(), 4);
        p.offer(1).unwrap();
        p.offer(2).unwrap();
        assert_eq!(p.remaining_capacity(), 2);
        c.poll();
        assert_eq!(p.remaining_capacity(), 3);
    }

    #[test]
    fn depth_probe_tracks_occupancy_from_another_thread() {
        let (mut p, mut c) = spsc_channel::<u32>(8);
        let probe = p.probe();
        assert_eq!(probe.capacity(), 8);
        assert_eq!(probe.depth(), 0);
        for i in 0..5 {
            p.offer(i).unwrap();
        }
        let handle = std::thread::spawn(move || probe.depth());
        assert_eq!(handle.join().unwrap(), 5);
        c.poll();
        assert_eq!(c.probe().depth(), 4);
        // Producer- and consumer-derived probes see the same queue.
        assert_eq!(p.probe().depth(), c.probe().depth());
    }
}
