//! White-box tests of the ProcessorTasklet barrier protocol (§4.4): channel
//! blocking under exactly-once, pass-through under at-least-once, snapshot
//! record persistence, ack accounting, and barrier forwarding order — also
//! behind a full outbox, where no control item may overtake an event, and
//! through a chain of stages fused onto the outbox of a source or a window.

use jet_core::item::{Barrier, Item};
use jet_core::metrics::SharedCounter;
use jet_core::object::boxed;
use jet_core::outbound::OutboundCollector;
use jet_core::processor::{Chain, Guarantee, Inbox, Outbox, Processor, ProcessorContext};
use jet_core::processors::join::{HashJoinP, BUILD_ORDINAL};
use jet_core::processors::{counting, CombineFramesP, FrameChunk, Fused, Link, StatefulMapP};
use jet_core::processors::{TransformP, WindowDef, WindowResult};
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
    /// Producers of input ordinal 0, one per lane.
    lanes: Vec<Producer<Item>>,
    /// Producer of the one-lane, higher-priority input `BUILD_ORDINAL`, if
    /// wired.
    build: Option<Producer<Item>>,
    out: Consumer<Item>,
    registry: Arc<SnapshotRegistry>,
    store: SnapshotStore,
}

/// One tasklet around the processor `make` builds, with `chain` fused onto
/// its outbox: `lanes` producers on input ordinal 0 (none: a source), plus
/// a one-lane `BUILD_ORDINAL` that is drained first, when `build_input`; an
/// outbox and inbox of `batch`, one unicast output queue of `out_capacity`.
fn rig(
    make: impl FnOnce(&Arc<SnapshotRegistry>) -> Box<dyn Processor>,
    chain: Option<Chain>,
    guarantee: Guarantee,
    lanes: usize,
    build_input: bool,
    batch: usize,
    out_capacity: usize,
) -> Rig {
    let grid = Grid::with_partition_count(1, 0, 8);
    let store = SnapshotStore::new(&grid, 9);
    let registry = Arc::new(SnapshotRegistry::new(store.clone(), 1));
    let (mut inputs, mut producers) = (Vec::new(), Vec::new());
    if lanes > 0 {
        let (conveyor, lane_producers) = Conveyor::new(lanes, 64);
        inputs.push(InputConveyor {
            ordinal: 0,
            priority: 0,
            conveyor,
        });
        producers = lane_producers;
    }
    let build = build_input.then(|| {
        let (conveyor, mut producers) = Conveyor::new(1, 64);
        inputs.push(InputConveyor {
            ordinal: BUILD_ORDINAL,
            priority: -1,
            conveyor,
        });
        producers.remove(0)
    });
    let (out_p, out_c) = spsc_channel::<Item>(out_capacity);
    let collector = OutboundCollector::new(Routing::Unicast, vec![out_p], vec![], 8, 0);
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
        make(&registry),
        chain,
        ctx,
        inputs,
        vec![collector],
        registry.clone(),
        batch,
    );
    Rig {
        tasklet,
        lanes: producers,
        build,
        out: out_c,
        registry,
        store,
    }
}

/// The rig around a [`Recorder`], and what the recorder saw.
fn recorder_rig(guarantee: Guarantee, lanes: usize) -> (Rig, Arc<Mutex<Vec<u64>>>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let recorder = Recorder {
        seen: seen.clone(),
        sum: 0,
    };
    (
        rig(
            |_| Box::new(recorder),
            None,
            guarantee,
            lanes,
            false,
            64,
            256,
        ),
        seen,
    )
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
    let (mut r, seen) = recorder_rig(Guarantee::ExactlyOnce, 2);
    r.registry.trigger().unwrap();
    r.lanes[0].offer(Item::event(0, boxed(1u64))).unwrap();
    r.lanes[0].offer(barrier(1)).unwrap();
    r.lanes[0].offer(Item::event(0, boxed(99u64))).unwrap(); // post-barrier
    r.lanes[1].offer(Item::event(0, boxed(2u64))).unwrap();
    spin(&mut r.tasklet, 10);
    // Pre-barrier events from both lanes processed; post-barrier one blocked.
    {
        let seen = seen.lock();
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
        seen.lock().contains(&99),
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
    let (mut r, seen) = recorder_rig(Guarantee::AtLeastOnce, 2);
    r.registry.trigger().unwrap();
    r.lanes[0].offer(barrier(1)).unwrap();
    r.lanes[0].offer(Item::event(0, boxed(99u64))).unwrap(); // post-barrier
    spin(&mut r.tasklet, 10);
    // At-least-once: the post-barrier event IS processed pre-alignment
    // (that is exactly why replay may duplicate it).
    assert!(
        seen.lock().contains(&99),
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
    let (mut r, _) = recorder_rig(Guarantee::ExactlyOnce, 1);
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
    let (mut r, _) = recorder_rig(Guarantee::ExactlyOnce, 2);
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
    let (mut r, seen) = recorder_rig(Guarantee::ExactlyOnce, 2);
    for id in 1..=3u64 {
        r.registry.trigger().unwrap();
        r.lanes[0].offer(Item::event(0, boxed(id))).unwrap();
        r.lanes[0].offer(barrier(id)).unwrap();
        r.lanes[1].offer(barrier(id)).unwrap();
        spin(&mut r.tasklet, 12);
        assert_eq!(r.registry.completed(), id, "snapshot {id} did not complete");
    }
    assert_eq!(seen.lock().len(), 3);
}

#[test]
fn sink_counts_match_through_alignment_stress() {
    // Interleave many events and barriers; every event must be processed
    // exactly once whatever the alignment pattern.
    let (mut r, seen) = recorder_rig(Guarantee::ExactlyOnce, 2);
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
    let mut seen = seen.lock().clone();
    seen.sort_unstable();
    assert_eq!(seen, expected);
    let _ = SharedCounter::new();
}

/// What left the tasklet, reduced to what the order tests compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Out {
    Ev(u64),
    Wm(i64),
    Barrier(u64),
    Done,
}

fn out_of(item: &Item) -> Out {
    match item {
        Item::Event { obj, .. } => Out::Ev(*jet_core::downcast_ref::<u64>(obj.as_ref())),
        Item::Watermark(w) => Out::Wm(*w),
        Item::Barrier(b) => Out::Barrier(b.snapshot_id),
        Item::Done => Out::Done,
    }
}

/// `ev, ev, Watermark, ev, Barrier, ev, Done` with events `v = 0, 1, 2, 3`:
/// the input of every order test.
fn script() -> Vec<Item> {
    let ev = |v: u64| Item::event(v as i64, boxed(v));
    vec![
        ev(0),
        ev(1),
        Item::Watermark(10),
        ev(2),
        barrier(1),
        ev(3),
        Item::Done,
    ]
}

/// What leaves a tasklet that turns each event `v` of [`script`] into
/// `fan_out` outputs `10 v + i`, each before the control item after `v`.
fn expected(fan_out: u64) -> Vec<Out> {
    let mut expected = Vec::new();
    for item in script() {
        match out_of(&item) {
            Out::Ev(v) => expected.extend((0..fan_out).map(|i| Out::Ev(10 * v + i))),
            control => expected.push(control),
        }
    }
    expected
}

/// Fused flat-map stage: `v` becomes `10 v + i` for `i < 3`.
fn triple() -> Chain {
    Fused::<u64>::default()
        .flat_map(|&v| (0..3).map(move |i| 10 * v + i))
        .head(&[])
}

/// Step the tasklet with the downstream queue drained one item every
/// `drain_every` calls, so the outbox is full for most of the run; what
/// left it, up to its `Done`.
fn drain_slowly(r: &mut Rig, drain_every: usize) -> Vec<Out> {
    let mut got = Vec::new();
    for call in 1..=1_000 {
        r.tasklet.call();
        if call % drain_every == 0 {
            got.extend(r.out.poll().as_ref().map(out_of));
        }
        if got.last() == Some(&Out::Done) {
            break;
        }
    }
    got
}

/// Feed [`script`] on the one lane of input ordinal 0: every processor under
/// test turns event `v` into `fan_out` outputs `10 v + i`, and each must
/// leave before the control item fed after `v`.
fn assert_no_control_item_overtakes(mut r: Rig, fan_out: u64, drain_every: usize) {
    r.registry.trigger().unwrap();
    for item in script() {
        r.lanes[0].offer(item).unwrap();
    }
    assert_eq!(drain_slowly(&mut r, drain_every), expected(fan_out));
    assert_eq!(
        r.registry.completed(),
        1,
        "the barrier completes snapshot 1"
    );
}

/// `(guarantee, outbox batch)` of every run of an order test.
const FULL_OUTBOX_CASES: [(Guarantee, usize); 4] = [
    (Guarantee::ExactlyOnce, 1),
    (Guarantee::ExactlyOnce, 2),
    (Guarantee::AtLeastOnce, 1),
    (Guarantee::AtLeastOnce, 2),
];

#[test]
fn flat_map_outputs_leave_before_the_next_control_item() {
    for (guarantee, batch) in FULL_OUTBOX_CASES {
        let r = rig(
            |_| Box::new(TransformP),
            Some(triple()),
            guarantee,
            1,
            false,
            batch,
            2,
        );
        assert_no_control_item_overtakes(r, 3, 1);
    }
}

/// A source emitting [`script`]'s events and watermarks, and requesting a
/// snapshot where the script has a barrier (the tasklet injects it).
struct ScriptSource {
    script: std::collections::VecDeque<Item>,
    registry: Arc<SnapshotRegistry>,
}

impl Processor for ScriptSource {
    fn process(&mut self, _: usize, _: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {}

    fn complete(&mut self, outbox: &mut Outbox, _: &ProcessorContext) -> bool {
        while let Some(item) = self.script.pop_front() {
            match item {
                Item::Event { ts, obj } if outbox.has_room() => outbox.emit(ts, obj),
                Item::Barrier(_) => {
                    self.registry.trigger().unwrap();
                    return false;
                }
                Item::Done => return true,
                Item::Watermark(_) if outbox.broadcast(item.clone()) => {}
                refused => {
                    self.script.push_front(refused);
                    return false;
                }
            }
        }
        true
    }
}

#[test]
fn a_sources_chain_outputs_leave_before_the_next_control_item() {
    for (guarantee, batch) in FULL_OUTBOX_CASES {
        let mut r = rig(
            |registry| {
                Box::new(ScriptSource {
                    script: script().into(),
                    registry: registry.clone(),
                })
            },
            Some(triple()),
            guarantee,
            0,
            false,
            batch,
            2,
        );
        assert_eq!(drain_slowly(&mut r, 1), expected(3));
        assert_eq!(r.registry.completed(), 1);
    }
}

/// A source whose chain drops the event it emitted made progress all the
/// same: a worker that took the call for idle would back off with events due.
#[test]
fn a_source_whose_chain_drops_its_events_still_makes_progress() {
    let mut r = rig(
        |registry| {
            Box::new(ScriptSource {
                script: [Item::event(0, boxed(7u64)), barrier(1)].into(),
                registry: registry.clone(),
            })
        },
        Some(Fused::<u64>::default().filter(|_| false).head(&[])),
        Guarantee::ExactlyOnce,
        0,
        false,
        64,
        64,
    );
    assert_eq!(r.tasklet.call(), jet_util::Progress::MadeProgress);
    assert!(r.out.poll().is_none(), "the chain dropped the event");
}

/// A window's results go through the chain fused onto its outbox ahead of the
/// watermark that closed the window and of a barrier: [`script`]'s events
/// become frame chunks of key `v` (frame end 10 for `v < 2`, else 20), one
/// result per key, tripled by the chain.
#[test]
fn a_windows_chain_outputs_leave_before_the_next_control_item() {
    for (guarantee, batch) in FULL_OUTBOX_CASES {
        let chain = Fused::<WindowResult<u64, u64>>::default()
            .flat_map(|r| {
                let key = r.key;
                (0..3).map(move |i| 10 * key + i)
            })
            .head(&[]);
        let mut r = rig(
            |_| {
                Box::new(CombineFramesP::<u64, u64, u64>::new(
                    WindowDef::tumbling(10),
                    counting::<u64>(),
                ))
            },
            Some(chain),
            guarantee,
            1,
            false,
            batch,
            2,
        );
        r.registry.trigger().unwrap();
        for item in script() {
            r.lanes[0]
                .offer(match item {
                    Item::Event { ts, obj } => {
                        let key = jet_core::object::take::<u64>(obj);
                        let frame_end = if key < 2 { 10 } else { 20 };
                        Item::event(
                            ts,
                            boxed(FrameChunk {
                                key,
                                frame_end,
                                acc: 1u64,
                            }),
                        )
                    }
                    control => control,
                })
                .unwrap();
        }
        // Window 10 closes at the watermark, window 20 when the input is
        // done; within a window, results leave in key-table order.
        let mut got = drain_slowly(&mut r, 1);
        for run in got.split_mut(|out| !matches!(out, Out::Ev(_))) {
            run.sort_unstable();
        }
        let results = |keys: std::ops::Range<u64>| {
            keys.flat_map(|key| (0..3).map(move |i| Out::Ev(10 * key + i)))
        };
        let want: Vec<Out> = results(0..2)
            .chain([Out::Wm(10), Out::Barrier(1)])
            .chain(results(2..4))
            .chain([Out::Wm(i64::MAX - 10), Out::Done])
            .collect();
        assert_eq!(got, want);
        assert_eq!(r.registry.completed(), 1);
    }
}

#[test]
fn stateful_map_outputs_leave_before_the_next_control_item() {
    for (guarantee, batch) in FULL_OUTBOX_CASES {
        let count_and_tag = StatefulMapP::<u64, u64, u64, u64>::new(
            |v| *v,
            || 0,
            |seen, v| {
                *seen += 1;
                Some(10 * *v)
            },
        );
        let r = rig(
            |_| Box::new(count_and_tag),
            None,
            guarantee,
            1,
            false,
            batch,
            2,
        );
        // One output per event: only a consumer slower than the tasklet
        // keeps the outbox full.
        assert_no_control_item_overtakes(r, 1, 2);
    }
}

#[test]
fn hash_join_matches_leave_before_the_next_control_item() {
    for (guarantee, batch) in FULL_OUTBOX_CASES {
        let join = HashJoinP::<u64, (u64, u64), u64, u64>::new(
            |b| b.0,
            |p| *p,
            |p, matches| matches.iter().map(|b| 10 * *p + b.1).collect(),
        );
        let mut r = rig(|_| Box::new(join), None, guarantee, 1, true, batch, 2);
        let build = r.build.as_mut().unwrap();
        for key in 0..4u64 {
            for i in 0..3u64 {
                build.offer(Item::event(0, boxed((key, i)))).unwrap();
            }
        }
        build.offer(Item::Done).unwrap();
        assert_no_control_item_overtakes(r, 3, 1);
    }
}
