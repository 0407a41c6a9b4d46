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
//! restore cleanly onto M ≠ N instances.

use crate::item::{Item, Ts};
use crate::object::BoxedObject;
use crate::processor::Inbox;
use crate::processor::{Outbox, Processor, ProcessorContext};
use crate::state::Snap;
use crate::watermark::{EventTimeMapper, WmAction};
use jet_util::seq;
use std::sync::Arc;

/// Fixed shard count for generator offset state (rescale granularity).
pub const GENERATOR_SHARDS: u64 = 64;

/// Builds an event payload from its global sequence number and timestamp.
pub type EventFactory = Arc<dyn Fn(u64, Ts) -> BoxedObject + Send + Sync>;

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

/// Rate-controlled generator source.
pub struct GeneratorSource {
    /// Aggregate rate across all instances (events/second).
    total_rate: u64,
    factory: EventFactory,
    /// Stop after this many events globally (None = unbounded streaming).
    limit: Option<u64>,
    policy: WatermarkPolicy,
    /// Shards this instance owns, with the next per-shard sequence `k`
    /// (shard s emits global sequences `k * SHARDS + s`).
    shards: Vec<(u64, u64)>,
    mapper: EventTimeMapper,
    /// Max events emitted per `complete` call (timeslice bound).
    burst: usize,
    origin_nanos: u64,
    initialized: bool,
    /// Set once an instance with no shards has told downstream it is idle.
    idle_marked: bool,
}

impl GeneratorSource {
    pub fn new(total_rate: u64, factory: EventFactory) -> Self {
        assert!(total_rate > 0);
        GeneratorSource {
            total_rate,
            factory,
            limit: None,
            policy: WatermarkPolicy::default(),
            shards: Vec::new(),
            mapper: EventTimeMapper::new(0, 1, 0),
            burst: 512,
            origin_nanos: 0,
            initialized: false,
            idle_marked: false,
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

    /// Scheduled occurrence time (nanos) of global event `seq`.
    #[inline]
    fn schedule_of(&self, seq: u64) -> u64 {
        self.origin_nanos + (seq as u128 * 1_000_000_000 / self.total_rate as u128) as u64
    }
}

impl Processor for GeneratorSource {
    // jet-analyze: allow(alloc) — init runs once before the first call()
    fn init(&mut self, ctx: &ProcessorContext) {
        self.mapper = EventTimeMapper::new(
            self.policy.allowed_lag,
            self.policy.stride,
            self.policy.idle_timeout_nanos,
        );
        if self.shards.is_empty() {
            // Fresh start (no restore): claim owned shards at k = 0.
            for s in 0..GENERATOR_SHARDS {
                if ctx.owns_key_hash(seq::hash_of(&s)) {
                    self.shards.push((s, 0));
                }
            }
        }
        self.initialized = true;
    }

    // jet-analyze: allow(panic) — emission state-machine invariant; the arm is guarded by the preceding checks
    fn process(&mut self, _: usize, _: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        unreachable!("sources have no inputs")
    }

    fn complete(&mut self, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        if ctx.is_cancelled() {
            return true;
        }
        if self.shards.is_empty() {
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
        loop {
            // Emit in global-sequence (= schedule) order across owned
            // shards. After a snapshot restore the whole backlog is
            // immediately eligible; draining one shard ahead of the others
            // would advance the watermark past their pending events, and
            // downstream windows would drop them as stragglers.
            let mut idx = 0usize;
            let mut global_seq = u64::MAX;
            for (i, &(shard, k)) in self.shards.iter().enumerate() {
                let seq = k * GENERATOR_SHARDS + shard;
                if seq < global_seq {
                    global_seq = seq;
                    idx = i;
                }
            }
            if let Some(limit) = self.limit {
                // The minimum past the limit means every shard is past it.
                if global_seq >= limit {
                    done = true;
                    break;
                }
            }
            let sched = self.schedule_of(global_seq);
            if sched > now {
                break;
            }
            if emitted >= self.burst || !outbox.has_room(0) {
                // Timeslice budget spent, or backpressure (§3.3): stop and
                // resume from the same frontier on the next slice.
                break;
            }
            // The event's timestamp is its *scheduled* occurrence: if we
            // are emitting late (backpressure, scheduling), downstream
            // latency measurements see the delay (§7.1).
            let ts = sched as Ts;
            let obj = (self.factory)(global_seq, ts);
            outbox.emit(0, ts, obj);
            emitted += 1;
            self.shards[idx].1 += 1;
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
        for (shard, k) in &self.shards {
            outbox.offer_snapshot(shard, k);
        }
        true
    }

    fn restore_from_snapshot(&mut self, key: &[u8], value: &[u8], ctx: &ProcessorContext) {
        let shard = u64::from_bytes(key).expect("corrupt generator offset key");
        if !ctx.owns_key_hash(seq::hash_of(&shard)) {
            return;
        }
        let k = u64::from_bytes(value).expect("corrupt generator offset");
        self.shards.push((shard, k));
    }

    fn finish_snapshot_restore(&mut self, ctx: &ProcessorContext) {
        // Claim owned shards that had no snapshot record (fresh shards).
        for s in 0..GENERATOR_SHARDS {
            if ctx.owns_key_hash(seq::hash_of(&s)) && !self.shards.iter().any(|&(x, _)| x == s) {
                self.shards.push((s, 0));
            }
        }
        self.shards.sort_unstable();
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
            if !outbox.has_room(0) {
                return false;
            }
            let (ts, item) = &self.items[self.cursor];
            outbox.emit(0, *ts, crate::object::boxed(item.clone()));
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
                if !outbox.has_room(0) {
                    break;
                }
                let cdc = (ev.kind, ev.key.clone(), ev.value.clone());
                outbox.emit(0, now, crate::object::boxed(cdc));
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
