//! Snapshot coordination (paper §4.4).
//!
//! "At regular intervals, Jet instructs source vertices to take a state
//! snapshot. Then, all processors belonging to source vertices save their
//! state, emit a checkpoint barrier to the downstream processors through the
//! data flow, and resume processing."
//!
//! The [`SnapshotRegistry`] is the per-execution rendezvous:
//!
//! * the coordinator bumps the *requested* snapshot id (time-driven);
//! * source tasklets observe the bump, save their state, and emit barriers;
//! * every participating tasklet writes its staged state records here and
//!   *acks* the snapshot id once its barrier logic completes;
//! * when all live participants acked, the snapshot is marked complete in
//!   the [`SnapshotStore`] (backed by the replicated IMDG), becoming the
//!   recovery point.

use crate::item::SnapshotId;
use jet_imdg::SnapshotStore;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Per-execution snapshot coordination state. Shared by all tasklets of a
/// job execution and by the coordinator.
pub struct SnapshotRegistry {
    /// Latest requested snapshot id; 0 = none yet.
    requested: AtomicU64,
    /// Latest snapshot whose completion was recorded.
    completed: AtomicU64,
    /// Id of an in-flight terminal snapshot (0 = none): used for
    /// suspend-with-snapshot.
    terminal: AtomicU64,
    /// Number of tasklets that must ack each snapshot.
    participants: AtomicUsize,
    acks: Mutex<HashMap<SnapshotId, usize>>,
    /// Snapshots that suffered a store write failure: they still drain
    /// their barriers, but are never marked complete (a partial snapshot
    /// must not become the recovery point).
    poisoned: Mutex<HashSet<SnapshotId>>,
    /// Count of snapshots poisoned by write failures.
    poisoned_total: AtomicU64,
    store: Option<SnapshotStore>,
    /// Nanos timestamp of the last trigger (coordinator bookkeeping).
    last_trigger_nanos: AtomicU64,
}

impl SnapshotRegistry {
    /// Registry with persistent storage (real fault tolerance).
    pub fn new(store: SnapshotStore, participants: usize) -> Self {
        SnapshotRegistry {
            requested: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            terminal: AtomicU64::new(0),
            participants: AtomicUsize::new(participants),
            acks: Mutex::new(HashMap::new()),
            poisoned: Mutex::new(HashSet::new()),
            poisoned_total: AtomicU64::new(0),
            store: Some(store),
            last_trigger_nanos: AtomicU64::new(0),
        }
    }

    /// Registry for jobs running without fault tolerance — snapshots are
    /// never requested (guarantee `None`, §4.6 active-active style).
    pub fn disabled() -> Self {
        SnapshotRegistry {
            requested: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            terminal: AtomicU64::new(0),
            participants: AtomicUsize::new(0),
            acks: Mutex::new(HashMap::new()),
            poisoned: Mutex::new(HashSet::new()),
            poisoned_total: AtomicU64::new(0),
            store: None,
            last_trigger_nanos: AtomicU64::new(0),
        }
    }

    pub fn set_participants(&self, n: usize) {
        // ordering: SeqCst — participant accounting must totally order with
        // ack counting: a stale count can complete a snapshot early. Cold
        // path (wiring and retirement only).
        self.participants.store(n, Ordering::SeqCst);
    }

    pub fn participants(&self) -> usize {
        // ordering: SeqCst — same total order as `set_participants`.
        self.participants.load(Ordering::SeqCst)
    }

    /// The snapshot id sources should be working toward.
    pub fn requested(&self) -> SnapshotId {
        self.requested.load(Ordering::Acquire)
    }

    /// Latest fully completed snapshot id (0 = none).
    pub fn completed(&self) -> SnapshotId {
        self.completed.load(Ordering::Acquire)
    }

    /// Is the in-flight snapshot terminal?
    pub fn is_terminal(&self, id: SnapshotId) -> bool {
        self.terminal.load(Ordering::Acquire) == id && id != 0
    }

    /// Coordinator: request a new snapshot if the previous one finished.
    /// Returns the new id if one was started.
    pub fn trigger(&self) -> Option<SnapshotId> {
        self.start(false)
    }

    /// Coordinator: request a terminal snapshot (suspend the job once it
    /// completes). Like `trigger`, refuses while a snapshot is in flight: a
    /// source that has not emitted the in-flight barrier yet would skip
    /// straight to the terminal id, and its consumers would align the two
    /// snapshots' barriers into one torn cut.
    pub fn trigger_terminal(&self) -> Option<SnapshotId> {
        self.start(true)
    }

    fn start(&self, terminal: bool) -> Option<SnapshotId> {
        self.store.as_ref()?;
        let req = self.requested.load(Ordering::Acquire);
        if req != self.completed.load(Ordering::Acquire) {
            return None; // previous still in flight
        }
        let next = req + 1;
        if terminal {
            // The flag goes up before the id, so a source never sees the
            // new id without it.
            self.terminal.store(next, Ordering::Release);
        }
        self.requested.store(next, Ordering::Release);
        Some(next)
    }

    /// Jump the id sequence past `id` without taking a snapshot — used when
    /// a recovered execution continues from a restored snapshot so new
    /// snapshot ids keep increasing.
    pub fn fast_forward_to(&self, id: SnapshotId) {
        self.requested.fetch_max(id, Ordering::AcqRel);
        self.completed.fetch_max(id, Ordering::AcqRel);
    }

    /// Time-driven trigger helper: fires when `interval_nanos` elapsed since
    /// the last trigger.
    pub fn maybe_trigger(&self, now_nanos: u64, interval_nanos: u64) -> Option<SnapshotId> {
        let last = self.last_trigger_nanos.load(Ordering::Acquire);
        if now_nanos.saturating_sub(last) < interval_nanos {
            return None;
        }
        if self
            .last_trigger_nanos
            .compare_exchange(last, now_nanos, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return None;
        }
        self.trigger()
    }

    /// Tasklet: persist one staged chunk — `records` records in `body`, the
    /// `seq`-th chunk instance `writer` of `vertex` writes under `id`. A
    /// store write failure poisons the snapshot: barriers still drain, but
    /// it will never be marked complete.
    // jet-analyze: allow(alloc, block) — snapshot registry: epoch-barrier path under a short registry lock, once per epoch
    pub fn write_chunk(
        &self,
        id: SnapshotId,
        vertex: &str,
        writer: u32,
        seq: u32,
        records: u32,
        body: &[u8],
    ) {
        if let Some(store) = &self.store {
            let ok = store.write_chunk(id, vertex, writer, seq, records, body);
            if !ok && self.poisoned.lock().insert(id) {
                self.poisoned_total.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Finish snapshot `id`: advance `completed` so the next trigger can
    /// fire, and — unless the snapshot was poisoned by a write failure —
    /// durably mark it as a recovery point.
    // jet-analyze: allow(block) — snapshot registry: epoch-barrier path under a short registry lock, once per epoch
    fn finish(&self, id: SnapshotId) {
        let poisoned = self.poisoned.lock().remove(&id);
        if !poisoned {
            if let Some(store) = &self.store {
                store.mark_complete(id, Vec::new());
            }
        }
        self.completed.fetch_max(id, Ordering::AcqRel);
    }

    /// Tasklet: ack completion of barrier handling for `id`. When the last
    /// participant acks, the snapshot is marked complete.
    // jet-analyze: allow(alloc, block) — snapshot registry: epoch-barrier path under a short registry lock, once per epoch
    pub fn ack(&self, id: SnapshotId) {
        if id <= self.completed.load(Ordering::Acquire) {
            return; // late ack for an abandoned (or finished) snapshot
        }
        let complete = {
            let mut acks = self.acks.lock();
            let n = acks.entry(id).or_insert(0);
            *n += 1;
            // ordering: SeqCst — the completion decision must see the most
            // recent participant count in the same total order.
            let done = *n >= self.participants.load(Ordering::SeqCst);
            if done {
                acks.remove(&id);
            }
            done
        };
        if complete {
            self.finish(id);
        }
    }

    /// A tasklet finished for good; it will not ack future snapshots.
    /// `last_acked` is the last snapshot it acked: its acks of snapshots
    /// still in flight are withdrawn with it, or a source that acked and
    /// then finished would stand in for a participant that has not acked
    /// yet, and the snapshot would complete without that one's state.
    // jet-analyze: allow(alloc, block) — snapshot registry: epoch-barrier path under a short registry lock, once per epoch
    pub fn retire_participant(&self, last_acked: SnapshotId) {
        let completed = self.completed.load(Ordering::Acquire);
        let mut finished = Vec::new();
        {
            // Under the ack lock, like the ack path's completion check, so
            // exactly one side sees the last participant go.
            let mut acks = self.acks.lock();
            // ordering: SeqCst — same total order as the ack path's load.
            // Runs once per tasklet lifetime.
            let remaining = self.participants.fetch_sub(1, Ordering::SeqCst) - 1;
            acks.retain(|&id, n| {
                if id <= completed {
                    return false; // abandoned: drop, never finish
                }
                if id <= last_acked {
                    *n = n.saturating_sub(1);
                }
                // Finishing a participant can complete a snapshot.
                let done = *n >= remaining;
                if done {
                    finished.push(id);
                }
                !done
            });
        }
        for id in finished {
            self.finish(id);
        }
    }

    /// Abandon the in-flight snapshot (if any) so triggering can resume.
    ///
    /// Without this, a snapshot whose acks never all arrive — e.g. a
    /// terminal rescale snapshot that missed its deadline — wedges the
    /// registry: `requested > completed` forever, so [`Self::trigger`]
    /// returns `None` for the rest of the job and the recovery point
    /// silently freezes. Abandoning declares the in-flight id finished
    /// *without* a completion marker: it can never be restored from, late
    /// acks for it are ignored (its ack entry is dropped), and the next
    /// trigger hands out a fresh id. Returns the abandoned id.
    pub fn abort_in_flight(&self) -> Option<SnapshotId> {
        let req = self.requested.load(Ordering::Acquire);
        if req == self.completed.load(Ordering::Acquire) {
            return None;
        }
        self.terminal.store(0, Ordering::Release);
        self.acks.lock().remove(&req);
        self.poisoned.lock().remove(&req);
        self.completed.fetch_max(req, Ordering::AcqRel);
        Some(req)
    }

    /// Snapshots poisoned by store write failures so far.
    pub fn poisoned_total(&self) -> u64 {
        self.poisoned_total.load(Ordering::Relaxed)
    }

    /// Access the backing store (for recovery).
    pub fn store(&self) -> Option<&SnapshotStore> {
        self.store.as_ref()
    }

    /// Is snapshotting enabled at all?
    pub fn enabled(&self) -> bool {
        self.store.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jet_imdg::Grid;

    fn registry(participants: usize) -> SnapshotRegistry {
        let grid = Grid::with_partition_count(2, 1, 16);
        SnapshotRegistry::new(SnapshotStore::new(&grid, 1), participants)
    }

    /// Write the one-record chunk `k → value` of vertex "agg" under `id`.
    fn write_one(r: &SnapshotRegistry, id: SnapshotId, value: &[u8]) {
        let mut body = jet_util::codec::ByteWriter::new();
        body.put_bytes(b"k");
        body.put_bytes(value);
        r.write_chunk(id, "agg", 0, 0, 1, body.as_bytes());
    }

    #[test]
    fn trigger_then_acks_complete_snapshot() {
        let r = registry(3);
        assert_eq!(r.requested(), 0);
        assert_eq!(r.trigger(), Some(1));
        assert_eq!(r.requested(), 1);
        assert_eq!(r.trigger(), None, "in-flight snapshot blocks retrigger");
        r.ack(1);
        r.ack(1);
        assert_eq!(r.completed(), 0);
        r.ack(1);
        assert_eq!(r.completed(), 1);
        assert_eq!(r.store().unwrap().latest_complete(), Some(1));
        assert_eq!(r.trigger(), Some(2));
    }

    #[test]
    fn disabled_registry_never_triggers() {
        let r = SnapshotRegistry::disabled();
        assert_eq!(r.trigger(), None);
        assert_eq!(r.maybe_trigger(1_000_000_000, 1), None);
        assert!(!r.enabled());
    }

    #[test]
    fn maybe_trigger_respects_interval() {
        let r = registry(1);
        assert_eq!(r.maybe_trigger(5, 1_000), None, "too early");
        assert_eq!(r.maybe_trigger(1_000, 1_000), Some(1));
        r.ack(1);
        assert_eq!(r.maybe_trigger(1_500, 1_000), None);
        assert_eq!(r.maybe_trigger(2_000, 1_000), Some(2));
    }

    #[test]
    fn records_are_persisted_per_vertex() {
        let r = registry(1);
        r.trigger();
        write_one(&r, 1, b"v");
        r.ack(1);
        let recs = r.store().unwrap().read_vertex(1, "agg").unwrap();
        assert_eq!(recs, vec![(b"k".to_vec(), b"v".to_vec())]);
    }

    #[test]
    fn retiring_last_missing_participant_completes() {
        let r = registry(2);
        r.trigger();
        r.ack(1);
        assert_eq!(r.completed(), 0);
        r.retire_participant(0);
        assert_eq!(r.completed(), 1, "retire should complete the snapshot");
    }

    #[test]
    fn a_participant_that_acked_and_retired_does_not_stand_in_for_another() {
        let r = registry(3);
        r.trigger();
        r.ack(1);
        r.ack(1);
        r.retire_participant(1);
        assert_eq!(r.completed(), 0, "the third participant has not acked");
        r.ack(1);
        assert_eq!(r.completed(), 1);
    }

    #[test]
    fn terminal_trigger_marks_terminal() {
        let r = registry(1);
        let id = r.trigger_terminal().unwrap();
        assert!(r.is_terminal(id));
        assert!(!r.is_terminal(id + 1));
    }

    #[test]
    fn terminal_trigger_waits_for_the_in_flight_snapshot() {
        let r = registry(1);
        let id = r.trigger().unwrap();
        assert_eq!(r.trigger_terminal(), None, "snapshot {id} in flight");
        assert!(!r.is_terminal(id));
        r.ack(id);
        assert_eq!(r.trigger_terminal(), Some(id + 1));
        assert!(r.is_terminal(id + 1));
    }

    #[test]
    fn abort_in_flight_unwedges_the_registry() {
        let r = registry(3);
        let id = r.trigger_terminal().unwrap();
        r.ack(id); // only 1 of 3 participants ever acks
        assert_eq!(r.trigger(), None, "wedged while in flight");
        let aborted = r.abort_in_flight();
        assert_eq!(aborted, Some(id));
        assert!(!r.is_terminal(id), "abort clears the terminal flag");
        // Triggering resumes with a fresh id…
        assert_eq!(r.trigger(), Some(id + 1));
        // …and the abandoned snapshot never became a recovery point.
        assert_eq!(r.store().unwrap().latest_complete(), None);
    }

    #[test]
    fn late_acks_for_an_abandoned_snapshot_never_complete_it() {
        let r = registry(3);
        let id = r.trigger().unwrap();
        r.ack(id);
        r.abort_in_flight();
        // Stragglers ack after the abort; even combined with participant
        // retirement this must not mark the torn snapshot complete.
        r.ack(id);
        r.ack(id);
        r.retire_participant(0);
        r.retire_participant(0);
        assert_eq!(r.store().unwrap().latest_complete(), None);
    }

    #[test]
    fn abort_without_in_flight_is_a_no_op() {
        let r = registry(1);
        assert_eq!(r.abort_in_flight(), None);
        r.trigger();
        r.ack(1);
        assert_eq!(r.abort_in_flight(), None);
        assert_eq!(r.completed(), 1);
    }

    #[test]
    fn write_failure_poisons_the_snapshot() {
        let r = registry(2);
        let store = r.store().unwrap().clone();
        let id = r.trigger().unwrap();
        store.faults().set_fail_writes(true);
        write_one(&r, id, b"v");
        store.faults().set_fail_writes(false);
        r.ack(id);
        r.ack(id);
        // All acks arrived, the id is finished (no wedge)…
        assert_eq!(r.completed(), id);
        assert_eq!(r.trigger(), Some(id + 1));
        assert_eq!(r.poisoned_total(), 1);
        // …but a partial snapshot is never a recovery point.
        assert_eq!(store.latest_complete(), None);
        // The next, healthy snapshot completes normally.
        write_one(&r, id + 1, b"v2");
        r.ack(id + 1);
        r.ack(id + 1);
        assert_eq!(store.latest_complete(), Some(id + 1));
    }
}
