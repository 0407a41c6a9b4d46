//! Source processors.
//!
//! * [`GeneratorSource`] — the rate-controlled, replayable synthetic source
//!   every experiment uses (§7.1 fixes input throughput and starts each
//!   event's latency clock at its *predetermined occurrence time*; any
//!   emission delay — scheduling, backpressure — is charged to latency).
//! * [`VecSource`] — a finite batch source (Listing 2's "build side").
//! * [`JournalSource`] — replays an IMap's event journal: the replayable
//!   source contract of §4.5 backed by the grid, and the CDC/view-
//!   maintenance pattern of §6.
//!
//! `GeneratorSource` is sharded for rescaling: the event space is split into
//! [`GENERATOR_SHARDS`] interleaved sub-streams; an instance owns the shards
//! whose hash falls in its partitions, so offsets snapshotted by N instances
//! restore cleanly onto M ≠ N instances. Its *frontier* is the next global
//! sequence of every owned shard in a min-heap: the next event is the top,
//! and emitting it replaces the top with the same shard's next sequence, so
//! picking an event costs O(log shards) and not a scan of every shard.
//!
//! Every source hands its events to the vertex's fused chain with their
//! concrete type ([`Outbox::emit_value`]), so nothing is boxed before the
//! chain's tail.

use crate::item::{Item, Ts};
use crate::processor::Inbox;
use crate::processor::{Outbox, Processor, ProcessorContext};
use crate::state::Snap;
use crate::watermark::{EventTimeMapper, WmAction};
use jet_util::seq;
use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Debug;
use std::sync::Arc;

/// Fixed shard count for generator offset state (rescale granularity).
pub const GENERATOR_SHARDS: u64 = 64;

/// Builds an event payload from its global sequence number and timestamp.
pub type EventFactory<T> = Arc<dyn Fn(u64, Ts) -> T + Send + Sync>;

/// Scheduled occurrence time (nanos from the origin) of global event `seq`
/// at `rate` events per second: `seq * 10^9 / rate`, in 64 bits unless the
/// product overflows them.
#[inline]
pub fn schedule_of(seq: u64, rate: u64) -> u64 {
    match seq.checked_mul(1_000_000_000) {
        Some(nanos) => nanos / rate,
        None => (seq as u128 * 1_000_000_000 / rate as u128) as u64,
    }
}

/// Watermark policy knobs for sources.
#[derive(Debug, Clone)]
pub struct WatermarkPolicy {
    pub allowed_lag: Ts,
    pub stride: Ts,
    pub idle_timeout_nanos: u64,
}

impl Default for WatermarkPolicy {
    fn default() -> Self {
        // 1 ms stride, no allowed lag (generator is in-order per shard),
        // 100 ms idle timeout.
        WatermarkPolicy {
            allowed_lag: 0,
            stride: 1_000_000,
            idle_timeout_nanos: 100_000_000,
        }
    }
}

/// Rate-controlled generator source of events of type `T`.
pub struct GeneratorSource<T> {
    /// Aggregate rate across all instances (events/second).
    total_rate: u64,
    factory: EventFactory<T>,
    /// Stop after this many events globally (None = unbounded streaming).
    limit: Option<u64>,
    policy: WatermarkPolicy,
    /// The next global sequence of every owned shard, smallest on top
    /// (shard s emits global sequences `k * SHARDS + s`, so a sequence
    /// names its shard and that shard's offset `k`).
    frontier: BinaryHeap<Reverse<u64>>,
    mapper: EventTimeMapper,
    /// Max events emitted per `complete` call (timeslice bound).
    burst: usize,
    /// Set once an instance with no shards has told downstream it is idle.
    idle_marked: bool,
    /// Restored from a snapshot: the frontier came from it, not from init.
    restored: bool,
}

impl<T: Any + Send + Clone + Debug> GeneratorSource<T> {
    pub fn new(total_rate: u64, factory: impl Fn(u64, Ts) -> T + Send + Sync + 'static) -> Self {
        assert!(total_rate > 0);
        GeneratorSource {
            total_rate,
            factory: Arc::new(factory),
            limit: None,
            policy: WatermarkPolicy::default(),
            frontier: BinaryHeap::new(),
            mapper: EventTimeMapper::new(0, 1, 0),
            burst: 512,
            idle_marked: false,
            restored: false,
        }
    }

    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    pub fn with_policy(mut self, policy: WatermarkPolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_burst(mut self, burst: usize) -> Self {
        self.burst = burst.max(1);
        self
    }

    /// Claim, at offset 0, every owned shard the frontier does not hold.
    // jet-analyze: allow(alloc) — runs once, in the init of a fresh start, before the first call()
    fn claim_fresh_shards(&mut self, ctx: &ProcessorContext) {
        for s in 0..GENERATOR_SHARDS {
            if ctx.owns_key_hash(seq::hash_of(&s))
                && !self.frontier.iter().any(|r| r.0 % GENERATOR_SHARDS == s)
            {
                self.frontier.push(Reverse(s));
            }
        }
    }
}

impl<T: Any + Send + Clone + Debug> Processor for GeneratorSource<T> {
    fn init(&mut self, ctx: &ProcessorContext) {
        self.mapper = EventTimeMapper::new(
            self.policy.allowed_lag,
            self.policy.stride,
            self.policy.idle_timeout_nanos,
        );
        if !self.restored {
            self.claim_fresh_shards(ctx);
        }
    }

    // jet-analyze: allow(panic) — emission state-machine invariant; the arm is guarded by the preceding checks
    fn process(&mut self, _: usize, _: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        unreachable!("sources have no inputs")
    }

    fn complete(&mut self, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        if ctx.is_cancelled() {
            return true;
        }
        if self.frontier.is_empty() {
            // An instance that owns no shards must not hold back event time:
            // mark its output channels idle so downstream watermark
            // coalescing skips them (§2.2 idle-source handling).
            if !self.idle_marked
                && outbox.broadcast(Item::Watermark(crate::watermark::IDLE_CHANNEL))
            {
                self.idle_marked = true;
            }
            return self.limit.is_some();
        }
        let now = ctx.now_nanos();
        let mut emitted = 0usize;
        let mut done = false;
        // Emit in global-sequence (= schedule) order across owned shards:
        // the frontier's top. After a snapshot restore the whole backlog is
        // immediately eligible; draining one shard ahead of the others would
        // advance the watermark past their pending events, and downstream
        // windows would drop them as stragglers.
        while let Some(mut next) = self.frontier.peek_mut() {
            let global_seq = next.0;
            if let Some(limit) = self.limit {
                // The minimum past the limit means every shard is past it.
                if global_seq >= limit {
                    done = true;
                    break;
                }
            }
            let sched = schedule_of(global_seq, self.total_rate);
            if sched > now {
                break;
            }
            if emitted >= self.burst || !outbox.has_room() {
                // Timeslice budget spent, or backpressure (§3.3): stop and
                // resume from the same frontier on the next slice.
                break;
            }
            // The event's timestamp is its *scheduled* occurrence: if we
            // are emitting late (backpressure, scheduling), downstream
            // latency measurements see the delay (§7.1).
            let ts = sched as Ts;
            outbox.emit_value(ts, (self.factory)(global_seq, ts));
            emitted += 1;
            // The shard's next sequence takes its place; the heap sifts it
            // down when `next` goes out of scope.
            next.0 = global_seq + GENERATOR_SHARDS;
            if let WmAction::Emit(wm) = self.mapper.observe_event(ts, now) {
                if !outbox.broadcast(Item::Watermark(wm)) {
                    // Possible only with multiple out edges; the mapper
                    // will regenerate an equal-or-later watermark.
                    break;
                }
            }
        }
        if emitted == 0 {
            if let WmAction::MarkIdle = self.mapper.observe_idle(now) {
                let _ = outbox.broadcast(Item::Watermark(crate::watermark::IDLE_CHANNEL));
            }
        }
        // Batch mode: done when every shard ran past the limit.
        done
    }

    fn save_snapshot(&mut self, _id: u64, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        for Reverse(next) in &self.frontier {
            outbox.offer_snapshot(&(next % GENERATOR_SHARDS), &(next / GENERATOR_SHARDS));
        }
        true
    }

    fn restore_from_snapshot(&mut self, key: &[u8], value: &[u8], ctx: &ProcessorContext) {
        let shard = u64::from_bytes(key).expect("corrupt generator offset key");
        if !ctx.owns_key_hash(seq::hash_of(&shard)) {
            return;
        }
        let k = u64::from_bytes(value).expect("corrupt generator offset");
        self.frontier.push(Reverse(k * GENERATOR_SHARDS + shard));
    }

    fn finish_snapshot_restore(&mut self, _ctx: &ProcessorContext) {
        // Every shard is claimed before the first snapshot, so a shard the
        // snapshot has no record of was held by an instance that had
        // finished, which it does only once all its shards are past the
        // limit. The shard stays exhausted: restarting it at offset 0 would
        // emit its events a second time.
        self.restored = true;
    }
}

/// Finite source emitting a fixed vector of `(ts, payload)` pairs, split
/// round-robin across all parallel instances (cluster-wide — the split uses
/// the context's `global_index`/`total_parallelism`, so every item is
/// emitted exactly once no matter how many members deploy the vertex).
/// Emits a final watermark past the last event so downstream windows close.
pub struct VecSource<T> {
    items: Arc<Vec<(Ts, T)>>,
    cursor: usize,
    step: usize,
    final_wm_sent: bool,
}

impl<T: Send + Sync + Clone + std::fmt::Debug + 'static> VecSource<T> {
    pub fn new(items: Arc<Vec<(Ts, T)>>) -> Self {
        VecSource {
            items,
            cursor: 0,
            step: 0,
            final_wm_sent: false,
        }
    }
}

impl<T: Send + Sync + Clone + std::fmt::Debug + 'static> Processor for VecSource<T> {
    fn init(&mut self, ctx: &ProcessorContext) {
        self.cursor = ctx.global_index;
        self.step = ctx.total_parallelism.max(1);
    }

    // jet-analyze: allow(panic) — emission state-machine invariant; the arm is guarded by the preceding checks
    fn process(&mut self, _: usize, _: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        unreachable!("sources have no inputs")
    }

    // jet-analyze: allow(alloc) — emits the terminal watermark clone once at stream end
    fn complete(&mut self, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        debug_assert!(self.step > 0, "init not called");
        while self.cursor < self.items.len() {
            if !outbox.has_room() {
                return false;
            }
            let (ts, item) = &self.items[self.cursor];
            outbox.emit_value(*ts, item.clone());
            self.cursor += self.step;
        }
        if !self.final_wm_sent {
            let max_ts = self.items.iter().map(|(ts, _)| *ts).max().unwrap_or(0);
            if !outbox.broadcast(Item::Watermark(max_ts + 1)) {
                return false;
            }
            self.final_wm_sent = true;
        }
        true
    }
}

/// Replays an IMap's event journal (§4.5 "replayable source" / §6 CDC).
/// Instance `i` reads the grid partitions it owns; offsets are snapshotted
/// per partition.
pub struct JournalSource<K, V> {
    map: jet_imdg::IMap<K, V>,
    /// (partition, next sequence) pairs owned by this instance.
    offsets: Vec<(u32, u64)>,
    batch: usize,
    restored: bool,
}

impl<K, V> JournalSource<K, V>
where
    K: Clone + Eq + std::hash::Hash + Send + std::fmt::Debug + 'static,
    V: Clone + Send + std::fmt::Debug + 'static,
{
    pub fn new(map: jet_imdg::IMap<K, V>) -> Self {
        JournalSource {
            map,
            offsets: Vec::new(),
            batch: 256,
            restored: false,
        }
    }
}

impl<K, V> Processor for JournalSource<K, V>
where
    K: Clone + Eq + std::hash::Hash + Send + std::fmt::Debug + 'static,
    V: Clone + Send + std::fmt::Debug + 'static,
{
    // jet-analyze: allow(alloc) — init runs once before the first call()
    fn init(&mut self, ctx: &ProcessorContext) {
        if !self.restored {
            for p in 0..ctx.partition_count {
                if ctx.owned_partitions[p as usize] {
                    self.offsets.push((p, 0));
                }
            }
        }
    }

    // jet-analyze: allow(panic) — emission state-machine invariant; the arm is guarded by the preceding checks
    fn process(&mut self, _: usize, _: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        unreachable!("sources have no inputs")
    }

    // jet-analyze: allow(alloc) — emits the terminal watermark clone once at stream end
    fn complete(&mut self, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        if ctx.is_cancelled() {
            return true;
        }
        let now = ctx.now_nanos() as Ts;
        for (p, next) in &mut self.offsets {
            let Ok((events, new_next)) =
                self.map
                    .read_journal(jet_imdg::PartitionId(*p), *next, self.batch)
            else {
                continue;
            };
            let mut accepted = *next;
            for ev in events {
                // CDC events are timestamped at read time (the grid does not
                // record event times).
                if !outbox.has_room() {
                    break;
                }
                outbox.emit_value(now, (ev.kind, ev.key.clone(), ev.value.clone()));
                accepted = ev.seq + 1;
            }
            *next = accepted.max(*next);
            let _ = new_next;
        }
        false // CDC streams are unbounded
    }

    fn save_snapshot(&mut self, _id: u64, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        for (p, next) in &self.offsets {
            outbox.offer_snapshot(&(*p as u64), next);
        }
        true
    }

    fn restore_from_snapshot(&mut self, key: &[u8], value: &[u8], ctx: &ProcessorContext) {
        let p = u64::from_bytes(key).expect("corrupt journal offset key") as u32;
        if !ctx
            .owned_partitions
            .get(p as usize)
            .copied()
            .unwrap_or(false)
        {
            return;
        }
        let next = u64::from_bytes(value).expect("corrupt journal offset");
        self.offsets.push((p, next));
        self.restored = true;
    }

    fn finish_snapshot_restore(&mut self, ctx: &ProcessorContext) {
        for p in 0..ctx.partition_count {
            if ctx.owned_partitions[p as usize] && !self.offsets.iter().any(|&(x, _)| x == p) {
                self.offsets.push((p, 0));
            }
        }
        self.offsets.sort_unstable();
    }

    /// Journal polling hits grid locks, so run it non-cooperatively when the
    /// grid is contended. It is still cooperative here because the in-process
    /// grid never blocks for long.
    fn is_cooperative(&self) -> bool {
        true
    }
}
