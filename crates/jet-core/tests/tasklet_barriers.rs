//! White-box tests of the ProcessorTasklet barrier protocol (§4.4): channel
//! blocking under exactly-once, pass-through under at-least-once, snapshot
//! record persistence, ack accounting, and barrier forwarding order.

use jet_core::item::{Barrier, Item};
use jet_core::metrics::SharedCounter;
use jet_core::object::boxed;
use jet_core::outbound::OutboundCollector;
use jet_core::processor::{Guarantee, Inbox, Outbox, Processor, ProcessorContext};
use jet_core::snapshot::SnapshotRegistry;
use jet_core::tasklet::{InputConveyor, ProcessorTasklet, Tasklet};
use jet_core::Routing;
use jet_imdg::{Grid, SnapshotStore};
use jet_queue::{spsc_channel, Consumer, Conveyor, Producer};
use parking_lot::Mutex;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Processor recording which u64 events it processed, with one snapshot
/// record of its running sum.
struct Recorder {
    seen: Arc<Mutex<Vec<u64>>>,
    sum: u64,
}

impl Processor for Recorder {
    fn process(&mut self, _: usize, inbox: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        while let Some((_, obj)) = inbox.take() {
            let v = *jet_core::downcast::<u64>(obj);
            self.sum += v;
            self.seen.lock().push(v);
        }
    }

    fn save_snapshot(&mut self, _id: u64, outbox: &mut Outbox, _: &ProcessorContext) -> bool {
        outbox.offer_snapshot_bytes(b"sum", &self.sum.to_le_bytes());
        true
    }
}

struct Rig {
    tasklet: ProcessorTasklet,
    lanes: Vec<Producer<Item>>,
    out: Consumer<Item>,
    seen: Arc<Mutex<Vec<u64>>>,
    registry: Arc<SnapshotRegistry>,
    store: SnapshotStore,
}

fn rig(guarantee: Guarantee, lanes: usize) -> Rig {
    let grid = Grid::with_partition_count(1, 0, 8);
    let store = SnapshotStore::new(&grid, 9);
    let registry = Arc::new(SnapshotRegistry::new(store.clone(), 1));
    let (conveyor, producers) = Conveyor::new(lanes, 64);
    let (out_p, out_c) = spsc_channel::<Item>(256);
    let collector = OutboundCollector::new(Routing::Unicast, vec![out_p], vec![], 8, 0);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let ctx = ProcessorContext {
        vertex: "recorder".into(),
        global_index: 0,
        total_parallelism: 1,
        member: 0,
        clock: jet_util::clock::system_clock(),
        guarantee,
        cancelled: Arc::new(AtomicBool::new(false)),
        partition_count: 8,
        owned_partitions: Arc::new(vec![true; 8]),
    };
    let tasklet = ProcessorTasklet::new(
        Box::new(Recorder {
            seen: seen.clone(),
            sum: 0,
        }),
        ctx,
        vec![InputConveyor {
            ordinal: 0,
            priority: 0,
            conveyor,
        }],
        vec![collector],
        registry.clone(),
        64,
    );
    Rig {
        tasklet,
        lanes: producers,
        out: out_c,
        seen,
        registry,
        store,
    }
}

fn spin(t: &mut ProcessorTasklet, rounds: usize) {
    for _ in 0..rounds {
        t.call();
    }
}

fn barrier(id: u64) -> Item {
    Item::Barrier(Barrier {
        snapshot_id: id,
        terminal: false,
    })
}

#[test]
fn exactly_once_blocks_aligned_lane_until_alignment() {
    let mut r = rig(Guarantee::ExactlyOnce, 2);
    r.registry.trigger().unwrap();
    r.lanes[0].offer(Item::event(0, boxed(1u64))).unwrap();
    r.lanes[0].offer(barrier(1)).unwrap();
    r.lanes[0].offer(Item::event(0, boxed(99u64))).unwrap(); // post-barrier
    r.lanes[1].offer(Item::event(0, boxed(2u64))).unwrap();
    spin(&mut r.tasklet, 10);
    // Pre-barrier events from both lanes processed; post-barrier one blocked.
    {
        let seen = r.seen.lock();
        assert!(
            seen.contains(&1) && seen.contains(&2),
            "pre-barrier events: {seen:?}"
        );
        assert!(
            !seen.contains(&99),
            "post-barrier event leaked through alignment"
        );
    }
    assert_eq!(
        r.registry.completed(),
        0,
        "snapshot completed before alignment"
    );
    // Align lane 1: snapshot happens, block releases.
    r.lanes[1].offer(barrier(1)).unwrap();
    spin(&mut r.tasklet, 10);
    assert!(
        r.seen.lock().contains(&99),
        "post-barrier event never released"
    );
    assert_eq!(r.registry.completed(), 1);
    // State record persisted (sum at the barrier = 1 + 2 = 3).
    let records = r.store.read_vertex(1, "recorder").unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].1, 3u64.to_le_bytes().to_vec());
}

#[test]
fn at_least_once_does_not_block_but_snapshots_on_last_barrier() {
    let mut r = rig(Guarantee::AtLeastOnce, 2);
    r.registry.trigger().unwrap();
    r.lanes[0].offer(barrier(1)).unwrap();
    r.lanes[0].offer(Item::event(0, boxed(99u64))).unwrap(); // post-barrier
    spin(&mut r.tasklet, 10);
    // At-least-once: the post-barrier event IS processed pre-alignment
    // (that is exactly why replay may duplicate it).
    assert!(
        r.seen.lock().contains(&99),
        "at-least-once must not block channels"
    );
    assert_eq!(r.registry.completed(), 0);
    r.lanes[1].offer(barrier(1)).unwrap();
    spin(&mut r.tasklet, 10);
    assert_eq!(r.registry.completed(), 1);
    // The snapshot includes the post-barrier effect (sum = 99): the source
    // of at-least-once's duplicates-on-replay semantics.
    let records = r.store.read_vertex(1, "recorder").unwrap();
    assert_eq!(records[0].1, 99u64.to_le_bytes().to_vec());
}

#[test]
fn barrier_is_forwarded_downstream_after_state_save() {
    let mut r = rig(Guarantee::ExactlyOnce, 1);
    r.registry.trigger().unwrap();
    r.lanes[0].offer(Item::event(0, boxed(7u64))).unwrap();
    r.lanes[0].offer(barrier(1)).unwrap();
    spin(&mut r.tasklet, 10);
    let mut saw_event_first = false;
    let mut saw_barrier = false;
    while let Some(item) = r.out.poll() {
        match item {
            Item::Barrier(b) => {
                assert_eq!(b.snapshot_id, 1);
                saw_barrier = true;
            }
            Item::Event { .. } => {
                assert!(!saw_barrier, "event overtook the barrier");
                saw_event_first = true;
            }
            _ => {}
        }
    }
    // This vertex consumes events (sink-like recorder) but still forwards
    // the barrier to its output edge.
    assert!(saw_barrier, "barrier not forwarded");
    let _ = saw_event_first;
}

#[test]
fn done_lane_counts_as_aligned() {
    let mut r = rig(Guarantee::ExactlyOnce, 2);
    r.registry.trigger().unwrap();
    r.lanes[0].offer(barrier(1)).unwrap();
    r.lanes[1].offer(Item::Done).unwrap();
    spin(&mut r.tasklet, 10);
    assert_eq!(
        r.registry.completed(),
        1,
        "a Done lane must not hold back snapshot alignment"
    );
}

#[test]
fn consecutive_snapshots_reuse_cleared_alignment_state() {
    let mut r = rig(Guarantee::ExactlyOnce, 2);
    for id in 1..=3u64 {
        r.registry.trigger().unwrap();
        r.lanes[0].offer(Item::event(0, boxed(id))).unwrap();
        r.lanes[0].offer(barrier(id)).unwrap();
        r.lanes[1].offer(barrier(id)).unwrap();
        spin(&mut r.tasklet, 12);
        assert_eq!(r.registry.completed(), id, "snapshot {id} did not complete");
    }
    assert_eq!(r.seen.lock().len(), 3);
}

#[test]
fn sink_counts_match_through_alignment_stress() {
    // Interleave many events and barriers; every event must be processed
    // exactly once whatever the alignment pattern.
    let mut r = rig(Guarantee::ExactlyOnce, 2);
    let mut expected = Vec::new();
    let mut next = 0u64;
    for id in 1..=5u64 {
        r.registry.trigger().unwrap();
        for _ in 0..7 {
            r.lanes[(next % 2) as usize]
                .offer(Item::event(0, boxed(next)))
                .unwrap();
            expected.push(next);
            next += 1;
        }
        r.lanes[0].offer(barrier(id)).unwrap();
        spin(&mut r.tasklet, 6);
        r.lanes[1].offer(barrier(id)).unwrap();
        spin(&mut r.tasklet, 12);
        assert_eq!(r.registry.completed(), id);
    }
    let mut seen = r.seen.lock().clone();
    seen.sort_unstable();
    assert_eq!(seen, expected);
    let _ = SharedCounter::new();
}
