//! The `Processor` abstraction: custom logic of one DAG vertex (paper §3.2).
//!
//! "Each processor includes an inbox of input records to be processed and an
//! outbox of output records to be dispatched downstream. A tasklet manages
//! the processor's inbox and outbox, its state, and its inbound and outbound
//! queues."
//!
//! The contract is cooperative and non-blocking throughout:
//!
//! * a processor does not pick an output: everything it emits goes to every
//!   one of its out-edges, and the edges route it (Jet's `Outbox.offer`).
//! * the outbox is the only place an emitted but undelivered item lives.
//!   `process` asks [`Outbox::has_room`] before it takes the inbox head, and
//!   then appends *every* output of that item with [`Outbox::emit`]; when
//!   there is no room the item stays in the inbox and is offered again on
//!   the next timeslice. The batch limit is that
//!   admission threshold, not a cap on one item's outputs, so a buffer
//!   overshoots it by at most one item's outputs. A processor keeps no
//!   output queue of its own: the tasklet takes the control item at a lane
//!   head once the inbox is empty, and [`Outbox::broadcast`] queues it behind
//!   everything emitted so far — an event parked anywhere else would be
//!   overtaken by that watermark (and dropped as late downstream) or by that
//!   barrier (and missing from the snapshot it belongs to).
//! * stateless stages fused onto a vertex (paper §3.1, Fig. 2) run *inside*
//!   its outbox: [`Outbox::emit`] passes each event through the vertex's
//!   [`Chain`] once and buffers what comes out on every edge, so the
//!   chain's outputs are outputs of the admitted item like any
//!   other and land in the outbox ahead of the next control item. A chain
//!   has two entries built from the same stages: the erased one takes an
//!   event's `Object` and unboxes it once, and the typed one takes the
//!   head's concrete type. [`Outbox::emit_value`] hands a processor's own
//!   value to the typed entry when the head takes its type, so a source
//!   whose events feed a chain boxes nothing before the chain's tail.
//! * every `-> bool` method means "am I done?" — returning `false` yields
//!   the core and the tasklet will call again later.
//! * processors never block, never sleep, and never do unbounded work in
//!   one call; that is what keeps every tasklet timeslice under the
//!   millisecond budget the paper's p99.99 target requires.

use crate::item::{Item, Ts};
use crate::object::BoxedObject;
use crate::state::Snap;
use jet_util::clock::SharedClock;
use jet_util::codec::ByteWriter;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Processing guarantee of a job (§4.4–4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Guarantee {
    /// No snapshots; rely on active-active replication or accept loss (§4.6).
    #[default]
    None,
    /// Barriers are forwarded without aligning input channels.
    AtLeastOnce,
    /// Input channels block after their barrier until all inputs align.
    ExactlyOnce,
}

/// Immutable per-processor-instance metadata handed to every callback.
pub struct ProcessorContext {
    /// Vertex name this processor implements.
    pub vertex: String,
    /// Index of this instance among all parallel instances of the vertex
    /// across the whole cluster.
    pub global_index: usize,
    /// Total number of parallel instances of the vertex across the cluster.
    pub total_parallelism: usize,
    /// Member this instance runs on.
    pub member: u32,
    /// The engine clock (wall or virtual).
    pub clock: SharedClock,
    /// Processing guarantee of the job.
    pub guarantee: Guarantee,
    /// Cooperative cancellation: sources treat this as end-of-stream.
    pub cancelled: Arc<AtomicBool>,
    /// Grid partition count (key routing space, §4.1).
    pub partition_count: u32,
    /// `owned_partitions[p]` is true iff partitioned input routed by the
    /// engine delivers partition `p` to *this* instance. Used to filter
    /// snapshot records on restore (state must land with its partition).
    pub owned_partitions: Arc<Vec<bool>>,
}

impl ProcessorContext {
    pub fn is_cancelled(&self) -> bool {
        // ordering: Acquire — pairs with the SeqCst (release-side) store in
        // `ExecutionHandle::cancel`, so everything the canceller did before
        // cancelling is visible to a source that observes the flag. A
        // Relaxed load here paired that store with nothing.
        self.cancelled.load(Ordering::Acquire)
    }

    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Does this instance own the partition of a key with stable hash `h`?
    pub fn owns_key_hash(&self, h: u64) -> bool {
        let p = jet_util::seq::bucket_of(h, self.partition_count) as usize;
        self.owned_partitions.get(p).copied().unwrap_or(false)
    }

    /// Partition of a key hash.
    pub fn partition_of_hash(&self, h: u64) -> u32 {
        jet_util::seq::bucket_of(h, self.partition_count)
    }
}

/// Batch of input events handed to `process`. Items not taken remain for the
/// next call.
#[derive(Default)]
pub struct Inbox {
    items: VecDeque<(Ts, BoxedObject)>,
}

impl Inbox {
    pub fn new() -> Self {
        Inbox {
            items: VecDeque::new(),
        }
    }

    // jet-analyze: allow(alloc) — inbox deque reaches steady-state capacity after warm-up
    pub fn push(&mut self, ts: Ts, obj: BoxedObject) {
        self.items.push_back((ts, obj));
    }

    /// Look at the head without consuming.
    pub fn peek(&self) -> Option<&(Ts, BoxedObject)> {
        self.items.front()
    }

    /// Take the head item.
    pub fn take(&mut self) -> Option<(Ts, BoxedObject)> {
        self.items.pop_front()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Fast path for consumers that always take everything: drains the whole
    /// inbox in one pass with no per-item continue/stop branch — the backing
    /// deque is consumed via a bulk `drain(..)`, which walks its (at most
    /// two) contiguous slices directly instead of re-checking the front each
    /// iteration the way a `take()` loop does.
    pub fn drain_all(&mut self, mut f: impl FnMut(Ts, BoxedObject)) {
        for (ts, obj) in self.items.drain(..) {
            f(ts, obj);
        }
    }
}

/// A typed continuation: what a fused stage hands each of its outputs to,
/// along with the edge buffer the last stage appends to.
pub type Cont<T> = Box<dyn FnMut(Ts, T, &mut VecDeque<Item>) + Send>;

/// The stateless stages fused onto one processor instance's outbox, composed
/// once when the instance is built: the tail boxes its output once, and
/// nothing in between is boxed, cloned or collected. Both entries are
/// spliced from the same runs, so either one runs the same stages.
pub struct Chain {
    /// Takes the head's type out of an event's `Object` once: one dynamic
    /// call per item, for events that arrive already boxed.
    pub(crate) erased: Cont<BoxedObject>,
    /// The `Cont<T>` of the head's input type `T`, for
    /// [`Outbox::emit_value`].
    pub(crate) typed: Box<dyn Any + Send>,
}

/// Per-edge output buffers plus the snapshot staging area.
///
/// Each edge's buffer admits new work while it holds fewer than the batch
/// limit; [`Self::has_room`] turning `false` is the backpressure signal that
/// propagates queue fullness into the processor without blocking (§3.3,
/// local case).
pub struct Outbox {
    bufs: Vec<VecDeque<Item>>,
    /// The vertex's fused stages: every event emitted runs through them.
    chain: Option<Chain>,
    batch_limit: usize,
    /// The snapshot chunk being staged: `snapshot_records` length-prefixed
    /// `(key, value)` pairs, back to back in one arena that keeps its
    /// allocation from chunk to chunk.
    snapshot: ByteWriter,
    snapshot_records: u32,
    /// Monotone count of events accepted into the buffers (an event counts
    /// once per edge). The tasklet diffs this after each `call()` to feed
    /// `TaskletCounters::events_out` — emission happens here, not at the
    /// queues, so this is the one place that sees every event exactly once.
    events_queued: u64,
    /// Monotone count of events handed to `emit` (before the chain): a
    /// source whose chain filtered everything out still made progress.
    events_emitted: u64,
}

impl Outbox {
    pub fn new(out_edges: usize, batch_limit: usize) -> Self {
        Outbox {
            bufs: (0..out_edges).map(|_| VecDeque::new()).collect(),
            chain: None,
            batch_limit: batch_limit.max(1),
            snapshot: ByteWriter::new(),
            snapshot_records: 0,
            events_queued: 0,
            events_emitted: 0,
        }
    }

    /// Run every event emitted from now on through `chain`.
    pub fn with_chain(mut self, chain: Option<Chain>) -> Self {
        self.chain = chain;
        self
    }

    /// Append an output event to every out-edge — through the fused chain,
    /// if there is one. Infallible: the caller asked [`Self::has_room`]
    /// before taking the input item this event derives from, and all
    /// outputs of an admitted item are accepted.
    #[inline]
    pub fn emit(&mut self, ts: Ts, obj: BoxedObject) {
        self.events_emitted += 1;
        self.events_queued += self.write(|chain, buf| {
            let Some(chain) = chain else {
                return Some(Item::Event { ts, obj });
            };
            (chain.erased)(ts, obj, buf);
            None
        }) as u64;
    }

    /// As [`Self::emit`] for a value of its concrete type: handed as it is
    /// to the chain's typed entry when the chain's head takes a `T`, and
    /// boxed otherwise.
    #[inline]
    pub fn emit_value<T: Any + Send + Clone + Debug>(&mut self, ts: Ts, value: T) {
        self.events_emitted += 1;
        self.events_queued += self.write(|chain, buf| {
            let Some(chain) = chain else {
                return Some(Item::Event {
                    ts,
                    obj: crate::object::boxed(value),
                });
            };
            match chain.typed.downcast_mut::<Cont<T>>() {
                Some(head) => head(ts, value, buf),
                None => (chain.erased)(ts, crate::object::boxed(value), buf),
            }
            None
        }) as u64;
    }

    /// Offer a control item (watermark, barrier, done flag) to every
    /// out-edge; events go through [`Self::emit`]. All-or-nothing, refused
    /// while any buffer is at or over the batch limit; vacuously succeeds
    /// for a sink with no output edges.
    pub fn broadcast(&mut self, item: Item) -> bool {
        debug_assert!(item.is_control(), "events go through `emit`");
        if !self.has_room() {
            return false;
        }
        self.write(|_, _| Some(item));
        true
    }

    /// The one place the edge buffers grow. `append` writes to the first
    /// edge's buffer, through the chain, or returns the one item to
    /// append; every other edge then gets a copy of what the first gained,
    /// so the chain runs once however many edges there are. Returns the
    /// items appended over all edges.
    // jet-analyze: allow(alloc) — outbox buckets reach steady-state capacity after warm-up
    #[inline]
    fn write(
        &mut self,
        append: impl FnOnce(Option<&mut Chain>, &mut VecDeque<Item>) -> Option<Item>,
    ) -> usize {
        let Some((first, rest)) = self.bufs.split_first_mut() else {
            return 0;
        };
        let before = first.len();
        if let Some(item) = append(self.chain.as_mut(), first) {
            first.push_back(item);
        }
        for buf in rest.iter_mut() {
            buf.extend(first.range(before..).cloned());
        }
        (first.len() - before) * (1 + rest.len())
    }

    /// May the processor take another input item? Its outputs go to every
    /// edge, so this holds while every buffer is below the batch limit.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.bufs.iter().all(|b| b.len() < self.batch_limit)
    }

    /// Stage one state record for the in-flight snapshot (§4.4): `key` and
    /// `value` are serialized straight into the chunk arena, and `restore`
    /// later sees exactly the bytes `Snap::to_bytes` would have produced.
    /// Unbounded: snapshot pressure is bounded by state size, not stream
    /// rate — a processor bounds a quantum by returning `false` from
    /// `save_snapshot` and resuming.
    pub fn offer_snapshot<K: Snap, V: Snap>(&mut self, key: &K, value: &V) -> bool {
        self.snapshot.put_framed(|w| key.save(w));
        self.snapshot.put_framed(|w| value.save(w));
        self.snapshot_records += 1;
        true
    }

    /// As [`Self::offer_snapshot`] for a record that already is bytes.
    pub fn offer_snapshot_bytes(&mut self, key: &[u8], value: &[u8]) -> bool {
        self.snapshot.put_bytes(key);
        self.snapshot.put_bytes(value);
        self.snapshot_records += 1;
        true
    }

    // --- tasklet-side API ---

    pub(crate) fn buf_mut(&mut self, edge: usize) -> &mut VecDeque<Item> {
        &mut self.bufs[edge]
    }

    /// The staged snapshot chunk: record count and the records' bytes.
    pub fn snapshot_chunk(&self) -> (u32, &[u8]) {
        (self.snapshot_records, self.snapshot.as_bytes())
    }

    /// Start the next chunk in the same arena.
    pub fn clear_snapshot_chunk(&mut self) {
        self.snapshot.clear();
        self.snapshot_records = 0;
    }

    pub(crate) fn is_fully_flushed(&self) -> bool {
        self.bufs.iter().all(|b| b.is_empty())
    }

    /// Total buffered items (diagnostics).
    pub fn buffered(&self) -> usize {
        self.bufs.iter().map(|b| b.len()).sum()
    }

    /// Monotone count of events ever accepted into the buffers, once per edge.
    pub fn events_queued_total(&self) -> u64 {
        self.events_queued
    }

    /// Monotone count of events ever handed to `emit`, before the chain.
    pub fn events_emitted_total(&self) -> u64 {
        self.events_emitted
    }
}

/// Custom logic of one DAG vertex instance. See the module docs for the
/// cooperative contract.
#[allow(unused_variables)]
pub trait Processor: Send {
    /// One-time initialization after wiring, before any input.
    fn init(&mut self, ctx: &ProcessorContext) {}

    /// Consume items from `inbox` (which arrived on input edge `ordinal`)
    /// and emit to `outbox`: while `outbox.has_room()`, take the head item and
    /// emit all of its outputs. Items not admitted stay in the inbox; an
    /// output kept anywhere but the outbox would be overtaken by the next
    /// watermark or barrier (see the module docs).
    fn process(
        &mut self,
        ordinal: usize,
        inbox: &mut Inbox,
        outbox: &mut Outbox,
        ctx: &ProcessorContext,
    );

    /// The coalesced watermark advanced to `wm`. Return `true` when fully
    /// handled (all resulting output fit in the outbox). The default
    /// forwards the watermark to all output edges.
    fn try_process_watermark(
        &mut self,
        wm: Ts,
        outbox: &mut Outbox,
        ctx: &ProcessorContext,
    ) -> bool {
        outbox.broadcast(Item::Watermark(wm))
    }

    /// Called once per tasklet quantum (before input is drained) so the
    /// processor can advance background work a bounded chunk at a time —
    /// amortized frame eviction, resumed window emission, deferred
    /// watermark forwarding. Return `true` when progress was made (keeps
    /// the worker out of its idle backoff while work remains).
    fn tick(&mut self, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        false
    }

    /// Keyed-state health probe, when this processor maintains keyed state.
    /// The wiring layer registers the probe's numbers as
    /// `jet_state_resident_bytes` / `jet_state_keys_records` gauges and the
    /// `jet_window_late_events_total` counter, plus a window stage 1's
    /// `jet_window_bypassed_frames_total` and
    /// `jet_window_events_per_key_milli_ratio`.
    fn state_probe(&self) -> Option<std::sync::Arc<crate::state::StateProbe>> {
        None
    }

    /// Input edge `ordinal` is exhausted. Return `true` when done reacting.
    fn complete_edge(
        &mut self,
        ordinal: usize,
        outbox: &mut Outbox,
        ctx: &ProcessorContext,
    ) -> bool {
        true
    }

    /// All inputs exhausted (or: this is a source). Called repeatedly until
    /// it returns `true`. A streaming source returns `false` forever (until
    /// cancellation).
    fn complete(&mut self, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        true
    }

    /// Stage this processor's state into the outbox's snapshot area. Called
    /// repeatedly until `true` (state can be saved incrementally).
    /// `snapshot_id` identifies the checkpoint round — transactional sinks
    /// key their prepared transactions by it (§4.5).
    fn save_snapshot(
        &mut self,
        snapshot_id: u64,
        outbox: &mut Outbox,
        ctx: &ProcessorContext,
    ) -> bool {
        true
    }

    /// One state record from the snapshot being restored. The planner
    /// delivers *all* records of the vertex to *every* instance; keyed
    /// processors keep only the keys they own (`ctx.owns_key_hash`), which
    /// makes restore correct under rescaling (§4.3).
    fn restore_from_snapshot(&mut self, key: &[u8], value: &[u8], ctx: &ProcessorContext) {}

    /// All snapshot records delivered.
    fn finish_snapshot_restore(&mut self, ctx: &ProcessorContext) {}

    /// Cooperative processors run on shared worker threads; non-cooperative
    /// ones (blocking connectors, §3.1) get a dedicated thread.
    fn is_cooperative(&self) -> bool {
        true
    }
}

/// Shared constructor type: builds the processor for global instance `i`.
pub type ProcessorSupplier = Arc<dyn Fn(usize) -> Box<dyn Processor> + Send + Sync>;

/// Helper to build a supplier from a closure.
pub fn supplier<F>(f: F) -> ProcessorSupplier
where
    F: Fn(usize) -> Box<dyn Processor> + Send + Sync + 'static,
{
    Arc::new(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::boxed;

    #[test]
    fn inbox_is_fifo_and_peek_does_not_consume() {
        let mut inbox = Inbox::new();
        for i in 0..3i64 {
            inbox.push(i, boxed(i));
        }
        assert_eq!(inbox.len(), 3);
        assert_eq!(inbox.peek().unwrap().0, 0);
        assert_eq!(inbox.take().unwrap().0, 0);
        assert_eq!(inbox.peek().unwrap().0, 1);
        assert_eq!(inbox.len(), 2, "remaining items stay for next round");
    }

    #[test]
    fn inbox_drain_all_preserves_fifo_order_and_empties() {
        let mut inbox = Inbox::new();
        // Force the deque to wrap so `drain(..)` covers both slices.
        for i in 0..3i64 {
            inbox.push(i, boxed(i));
        }
        inbox.take();
        inbox.take();
        for i in 3..10i64 {
            inbox.push(i, boxed(i));
        }
        let mut seen = Vec::new();
        inbox.drain_all(|ts, obj| {
            assert_eq!(crate::object::take::<i64>(obj), ts);
            seen.push(ts);
        });
        assert_eq!(seen, (2..10).collect::<Vec<_>>(), "strict FIFO order");
        assert!(inbox.is_empty(), "drain_all consumes the whole queue");
    }

    #[test]
    fn outbox_respects_batch_limit() {
        let mut ob = Outbox::new(1, 2);
        ob.emit(1, boxed(1i64));
        assert!(ob.has_room(), "below the limit the next item is admitted");
        // All three outputs of that item are accepted, past the limit.
        for i in 2..5i64 {
            ob.emit(i, boxed(i));
        }
        assert_eq!((ob.buffered(), ob.events_queued_total()), (4, 4));
        assert!(!ob.has_room(), "admission refused at the limit");
        assert!(!ob.broadcast(Item::Watermark(9)), "control items wait");
        ob.buf_mut(0).drain(..3);
        assert!(ob.has_room());
        assert!(ob.broadcast(Item::Watermark(9)));
        assert!(matches!(ob.buf_mut(0).back(), Some(Item::Watermark(9))));
    }

    #[test]
    fn one_emit_runs_the_chain_once_and_reaches_every_edge() {
        use crate::processors::transform::{splice, Fused, Link};
        use std::sync::atomic::AtomicUsize;
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = runs.clone();
        let times_ten: Arc<dyn Link> = Arc::new(Fused::<i64>::default().map(move |v| {
            counted.fetch_add(1, Ordering::Relaxed);
            v * 10
        }));
        let mut ob = Outbox::new(2, 2).with_chain(splice(&[times_ten]));
        ob.emit(1, boxed(1i64));
        ob.emit_value(2, 2i64);
        assert_eq!(
            runs.load(Ordering::Relaxed),
            2,
            "once per event, not per edge"
        );
        assert_eq!(ob.events_queued_total(), 4);
        let take_edge = |ob: &mut Outbox, edge: usize| -> Vec<(Ts, i64)> {
            ob.buf_mut(edge)
                .drain(..)
                .map(|item| match item {
                    Item::Event { ts, obj } => (ts, crate::object::take::<i64>(obj)),
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        assert!(!ob.has_room(), "both edges at the limit");
        assert_eq!(take_edge(&mut ob, 0), [(1, 10), (2, 20)]);
        assert!(!ob.has_room(), "edge 1 is still at the limit");
        assert_eq!(take_edge(&mut ob, 1), [(1, 10), (2, 20)]);
        assert!(ob.has_room());
    }

    #[test]
    fn outbox_broadcast_is_all_or_nothing() {
        let mut ob = Outbox::new(2, 1);
        assert!(ob.broadcast(Item::Watermark(1)));
        assert!(!ob.broadcast(Item::Watermark(2)));
        assert_eq!(ob.buffered(), 2);
        ob.buf_mut(0).clear();
        // Edge 1 still full -> broadcast still fails.
        assert!(!ob.broadcast(Item::Watermark(2)));
    }

    #[test]
    fn snapshot_chunk_accumulates_and_restarts_in_place() {
        use jet_util::codec::ByteReader;
        let mut ob = Outbox::new(1, 8);
        assert_eq!(ob.snapshot_chunk(), (0, &[][..]));
        assert!(ob.offer_snapshot(&(7u64, -1i64), &"a long enough value".to_string()));
        assert!(ob.offer_snapshot_bytes(b"k2", b"v2"));
        let (records, body) = ob.snapshot_chunk();
        assert_eq!(records, 2);
        // Each field reads back as the bytes `to_bytes` produces.
        let mut r = ByteReader::new(body);
        assert_eq!(r.get_bytes().unwrap(), (7u64, -1i64).to_bytes());
        assert_eq!(
            r.get_bytes().unwrap(),
            "a long enough value".to_string().to_bytes()
        );
        assert_eq!(r.get_bytes().unwrap(), b"k2");
        assert_eq!(r.get_bytes().unwrap(), b"v2");
        assert!(r.is_exhausted());
        ob.clear_snapshot_chunk();
        assert_eq!(ob.snapshot_chunk(), (0, &[][..]));
    }

    #[test]
    fn default_watermark_forwarding_broadcasts() {
        struct Nop;
        impl Processor for Nop {
            fn process(&mut self, _: usize, _: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {}
        }
        let mut p = Nop;
        let mut ob = Outbox::new(2, 4);
        let ctx = test_ctx();
        assert!(p.try_process_watermark(9, &mut ob, &ctx));
        assert_eq!(ob.buffered(), 2);
    }

    pub(crate) fn test_ctx() -> ProcessorContext {
        ProcessorContext {
            vertex: "test".into(),
            global_index: 0,
            total_parallelism: 1,
            member: 0,
            clock: jet_util::clock::system_clock(),
            guarantee: Guarantee::None,
            cancelled: Arc::new(AtomicBool::new(false)),
            partition_count: 271,
            owned_partitions: Arc::new(vec![true; 271]),
        }
    }
}
