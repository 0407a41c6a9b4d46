//! Sink processors, including the §4.5 delivery-guarantee sinks.
//!
//! * [`CollectSink`] / [`CountSink`] — test/diagnostic sinks.
//! * [`LatencySink`] — the measurement sink: records `now - event_ts` into a
//!   shared histogram. Window results carry their window-end as the event
//!   timestamp, so this implements exactly the paper's latency clock
//!   ("the clock stops when Jet has started emitting the window results").
//! * [`IMapSink`] — writes entries into a grid map (idempotent by key).
//! * [`TransactionalSink`] — two-phase-commit sink: output is buffered,
//!   *prepared* when a snapshot barrier arrives, and made visible only when
//!   that snapshot completes.
//! * [`IdempotentSink`] — dedups by record id persisted in the snapshot,
//!   implementing the "idempotent writes" alternative.

use crate::flight::Recorder;
use crate::item::Ts;
use crate::metrics::{SharedCounter, SharedHistogram};
use crate::processor::{Inbox, Outbox, Processor, ProcessorContext};
use crate::snapshot::SnapshotRegistry;
use crate::state::Snap;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Collects `(ts, item)` pairs into a shared vector.
pub struct CollectSink<T> {
    out: Arc<Mutex<Vec<(Ts, T)>>>,
}

impl<T: Clone + Send + 'static> CollectSink<T> {
    pub fn new(out: Arc<Mutex<Vec<(Ts, T)>>>) -> Self {
        CollectSink { out }
    }
}

impl<T: Clone + Send + 'static> Processor for CollectSink<T> {
    // jet-analyze: allow(alloc, block) — collection sink is a test/bench aid: events land in a shared Vec under a short lock
    fn process(&mut self, _: usize, inbox: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        let mut out = self.out.lock();
        inbox.drain_all(|ts, obj| out.push((ts, crate::object::take::<T>(obj))));
    }
}

/// Counts events.
pub struct CountSink {
    counter: SharedCounter,
}

impl CountSink {
    pub fn new(counter: SharedCounter) -> Self {
        CountSink { counter }
    }
}

impl Processor for CountSink {
    fn process(&mut self, _: usize, inbox: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        let n = inbox.len() as u64;
        inbox.drain_all(|_, _| ());
        self.counter.add(n);
    }
}

/// Records `now - event_ts` (nanos) per event into a shared histogram, and
/// optionally feeds each sample to the flight recorder's watchdog and
/// provenance sampler (real-time-only observers: virtual time and the
/// recorded histogram are identical with them on or off).
pub struct LatencySink {
    hist: SharedHistogram,
    count: SharedCounter,
    recorder: Recorder,
}

impl LatencySink {
    pub fn new(hist: SharedHistogram, count: SharedCounter) -> Self {
        Self::recorded(hist, count, Recorder::disabled())
    }

    /// Feed every sample to `recorder` as well. A recorder with neither a
    /// watchdog nor a sampler armed learns nothing from emissions, so it is
    /// dropped here and the hot path stays lock-free.
    pub fn recorded(hist: SharedHistogram, count: SharedCounter, recorder: Recorder) -> Self {
        let recorder = if recorder.records_spans() {
            recorder
        } else {
            Recorder::disabled()
        };
        LatencySink {
            hist,
            count,
            recorder,
        }
    }
}

impl Processor for LatencySink {
    fn process(&mut self, _: usize, inbox: &mut Inbox, _: &mut Outbox, ctx: &ProcessorContext) {
        let now = ctx.now_nanos();
        let mut n = 0u64;
        let recorder = &self.recorder;
        self.hist.record_batch(std::iter::from_fn(|| {
            inbox.take().map(|(ts, _obj)| {
                n += 1;
                let event_ts = ts.max(0) as u64;
                let latency = now.saturating_sub(event_ts);
                recorder.observe(now, event_ts, latency);
                latency
            })
        }));
        self.count.add(n);
    }
}

/// Writes `(K, V)` entries extracted from events into an IMap. Idempotent
/// when the extraction is deterministic (same key → same value).
pub struct IMapSink<T, K, V> {
    map: jet_imdg::IMap<K, V>,
    entry_fn: EntryFn<T, K, V>,
}

/// Extracts the map entry to write from one event.
type EntryFn<T, K, V> = Arc<dyn Fn(&T) -> (K, V) + Send + Sync>;

impl<T, K, V> IMapSink<T, K, V>
where
    T: 'static,
    K: Clone + Eq + std::hash::Hash + Send + 'static,
    V: Clone + Send + 'static,
{
    pub fn new(
        map: jet_imdg::IMap<K, V>,
        entry_fn: impl Fn(&T) -> (K, V) + Send + Sync + 'static,
    ) -> Self {
        IMapSink {
            map,
            entry_fn: Arc::new(entry_fn),
        }
    }
}

impl<T, K, V> Processor for IMapSink<T, K, V>
where
    T: 'static,
    K: Clone + Eq + std::hash::Hash + Send + 'static,
    V: Clone + Send + 'static,
{
    fn process(&mut self, _: usize, inbox: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        let (map, entry_fn) = (&self.map, &self.entry_fn);
        inbox.drain_all(|_ts, obj| {
            let t = crate::object::downcast_ref::<T>(obj.as_ref());
            let (k, v) = entry_fn(t);
            map.put(k, v);
        });
    }
}

/// Two-phase-commit sink (§4.5): "a transactional sink withholds output and
/// only makes it available to the outside world when a checkpoint is
/// complete."
///
/// * events accumulate in the *active* transaction;
/// * `save_snapshot(id)` is the prepare phase: the active transaction is
///   staged under `id` and also written into the snapshot (so a crash after
///   prepare but before commit replays the commit on restore);
/// * on every `process`/`complete` call the sink polls the registry and
///   commits (publishes) all prepared transactions whose snapshot completed.
pub struct TransactionalSink<T> {
    active: Vec<(Ts, T)>,
    prepared: VecDeque<(u64, Vec<(Ts, T)>)>,
    committed: Arc<Mutex<Vec<(Ts, T)>>>,
    registry: Arc<SnapshotRegistry>,
}

impl<T> TransactionalSink<T>
where
    T: Clone + Send + Snap + 'static,
{
    pub fn new(committed: Arc<Mutex<Vec<(Ts, T)>>>, registry: Arc<SnapshotRegistry>) -> Self {
        TransactionalSink {
            active: Vec::new(),
            prepared: VecDeque::new(),
            committed,
            registry,
        }
    }

    // jet-analyze: allow(alloc, block, panic) — commit path runs once per epoch barrier, not per event
    fn commit_completed(&mut self) {
        let completed = self.registry.completed();
        while let Some((id, _)) = self.prepared.front() {
            if *id > completed {
                break;
            }
            let (_, items) = self.prepared.pop_front().expect("front checked");
            self.committed.lock().extend(items);
        }
    }
}

impl<T> Processor for TransactionalSink<T>
where
    T: Clone + Send + Snap + 'static,
{
    // jet-analyze: allow(alloc) — per-event record lands in the open transaction's batch-amortized buffer
    fn process(&mut self, _: usize, inbox: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        let active = &mut self.active;
        inbox.drain_all(|ts, obj| active.push((ts, crate::object::take::<T>(obj))));
        self.commit_completed();
    }

    // jet-analyze: allow(alloc, block) — drains pending transactions at stream end (cold by definition)
    fn complete(&mut self, _: &mut Outbox, _: &ProcessorContext) -> bool {
        self.commit_completed();
        // On (normal) job completion, commit the remainder.
        self.committed.lock().extend(self.active.drain(..));
        for (_, items) in self.prepared.drain(..) {
            self.committed.lock().extend(items);
        }
        true
    }

    // jet-analyze: allow(alloc) — snapshot serialization clones pending state once per epoch
    fn save_snapshot(&mut self, id: u64, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        // Prepare phase: stage the active transaction under this snapshot,
        // and persist it so recovery can re-commit it.
        let items = std::mem::take(&mut self.active);
        let blob: Vec<(i64, T)> = items.iter().map(|(ts, t)| (*ts, t.clone())).collect();
        outbox.offer_snapshot(&(id, ctx.global_index as u64), &blob);
        self.prepared.push_back((id, items));
        true
    }

    fn restore_from_snapshot(&mut self, key: &[u8], value: &[u8], ctx: &ProcessorContext) {
        let (id, instance) = <(u64, u64)>::from_bytes(key).expect("corrupt txn sink key");
        // A prepared-but-uncommitted transaction from the *completed*
        // snapshot must be committed now (the snapshot completing IS the
        // commit decision). Only the instance that wrote it restores it.
        if instance as usize != ctx.global_index {
            return;
        }
        let _ = id;
        let items = Vec::<(i64, T)>::from_bytes(value).expect("corrupt txn sink blob");
        self.committed.lock().extend(items);
    }
}

/// Idempotent-writes sink (§4.5): dedups by a record id that is part of the
/// snapshot state, so replayed inputs after recovery publish exactly once.
pub struct IdempotentSink<T> {
    id_fn: Arc<dyn Fn(&T) -> u64 + Send + Sync>,
    seen: HashSet<u64>,
    published: Arc<Mutex<HashMap<u64, T>>>,
}

impl<T> IdempotentSink<T>
where
    T: Clone + Send + 'static,
{
    pub fn new(
        published: Arc<Mutex<HashMap<u64, T>>>,
        id_fn: impl Fn(&T) -> u64 + Send + Sync + 'static,
    ) -> Self {
        IdempotentSink {
            id_fn: Arc::new(id_fn),
            seen: HashSet::new(),
            published,
        }
    }
}

impl<T> Processor for IdempotentSink<T>
where
    T: Clone + Send + 'static,
{
    // jet-analyze: allow(alloc, block) — dedup set grows with distinct-key cardinality; the lock is the sink's published contract
    fn process(&mut self, _: usize, inbox: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        let (seen, published, id_fn) = (&mut self.seen, &self.published, &self.id_fn);
        inbox.drain_all(|_ts, obj| {
            let t = crate::object::take::<T>(obj);
            let id = id_fn(&t);
            if seen.insert(id) {
                published.lock().insert(id, t);
            }
        });
    }

    // jet-analyze: allow(alloc) — snapshot serialization walks the dedup set once per epoch
    fn save_snapshot(&mut self, _id: u64, outbox: &mut Outbox, ctx: &ProcessorContext) -> bool {
        let ids: Vec<u64> = self.seen.iter().copied().collect();
        outbox.offer_snapshot(&(ctx.global_index as u64), &ids);
        true
    }

    fn restore_from_snapshot(&mut self, _key: &[u8], value: &[u8], _ctx: &ProcessorContext) {
        // Record-id sets merge across instances: after rescale, any instance
        // may receive a replay of any record.
        let ids = Vec::<u64>::from_bytes(value).expect("corrupt idempotent sink ids");
        self.seen.extend(ids);
    }
}
