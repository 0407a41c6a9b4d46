//! Property tests over the keyed frame-store state layer (the fig_keyscale
//! tentpole), checked against naive reference models:
//!
//! * `KeyTable` ≡ `HashMap` over arbitrary upsert/remove/get interleavings,
//!   including cursor-resumed scans and drain-to-empty;
//! * deduct-mode emission (running accumulator + frame refcounts) ≡
//!   recombine-mode emission (scratch gather) ≡ brute-force recomputation,
//!   for the same randomized event sets;
//! * late arrivals behind the emission floor are dropped from every window
//!   and counted exactly once in the `late_events` probe;
//! * chunked streaming snapshots restore to a state that finishes the job
//!   with per-window values identical to an uninterrupted brute-force run
//!   (no torn chunks, no loss, no double counting).

use jet_core::dag::{Dag, Edge};
use jet_core::exec::run_sequential;
use jet_core::plan::{build_local, LocalConfig};
use jet_core::processor::{Guarantee, Inbox, Outbox, Processor, ProcessorContext};
use jet_core::processors::*;
use jet_core::snapshot::SnapshotRegistry;
use jet_core::state::{fingerprint, Cursor, KeyTable, StateProbe};
use jet_core::supplier;
use jet_core::{Item, Ts};
use jet_imdg::{Grid, SnapshotStore};
use jet_util::clock::manual_clock;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

type Collected<T> = Arc<Mutex<Vec<(Ts, T)>>>;

fn brute_force(events: &[(Ts, u64)], size: Ts, slide: Ts) -> HashMap<(u64, Ts), u64> {
    let mut out = HashMap::new();
    let max_ts = events.iter().map(|(t, _)| *t).max().unwrap_or(0);
    let mut end = slide;
    while end <= max_ts + size {
        for (ts, key) in events {
            if *ts >= end - size && *ts < end {
                *out.entry((*key, end)).or_insert(0) += 1;
            }
        }
        end += slide;
    }
    out.retain(|_, v| *v > 0);
    out
}

// ---------------------------------------------------------------- KeyTable

fn fp(k: u64) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    fingerprint(h.finish())
}

#[derive(Clone, Debug)]
enum TableOp {
    Upsert(u64, u64),
    Remove(u64),
    Get(u64),
}

fn table_ops() -> impl Strategy<Value = Vec<TableOp>> {
    // Keys from a small domain so probes collide, removes hit, and
    // backward-shift deletion gets exercised on long runs.
    proptest::collection::vec(
        prop_oneof![
            3 => (0u64..48, 1u64..1_000_000).prop_map(|(k, v)| TableOp::Upsert(k, v)),
            1 => (0u64..48).prop_map(TableOp::Remove),
            1 => (0u64..48).prop_map(TableOp::Get),
        ],
        1..400,
    )
}

// ------------------------------------------------------------ window jobs

/// `counting()` with the deduct stripped: forces the recombine (scratch
/// gather) emission path through the exact same accumulator algebra.
fn counting_no_deduct() -> AggregateOp<u64, u64> {
    AggregateOp::of::<u64, _, _, _>(|| 0u64, |a, _| *a += 1, |a, b| *a += *b, |a| *a)
}

fn run_single_stage(
    events: &[(Ts, u64)],
    size: Ts,
    slide: Ts,
    lp: usize,
    deduct: bool,
) -> HashMap<(u64, Ts), u64> {
    let items: Arc<Vec<(Ts, u64)>> = Arc::new(events.to_vec());
    let out: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
    let mut dag = Dag::new();
    let items2 = items.clone();
    let src = dag.vertex_with_parallelism(
        "src",
        lp,
        supplier(move |_| Box::new(VecSource::new(items2.clone()))),
    );
    let wdef = WindowDef::sliding(size, slide);
    let w = dag.vertex_with_parallelism(
        "window",
        lp,
        supplier(move |_| {
            let op = if deduct {
                counting::<u64>()
            } else {
                counting_no_deduct()
            };
            Box::new(SlidingWindowP::new::<u64>(wdef, |v: &u64| *v, op))
        }),
    );
    let sink_target = out.clone();
    let sink = dag.vertex_with_parallelism(
        "sink",
        1,
        supplier(move |_| Box::new(CollectSink::new(sink_target.clone()))),
    );
    dag.edge(Edge::between(src, w).partitioned_by::<u64, _, _>(|v| *v));
    dag.edge(Edge::between(w, sink));
    let registry = Arc::new(SnapshotRegistry::disabled());
    let exec = build_local(&dag, &LocalConfig::new(lp), &registry, None).unwrap();
    let mut tasklets = exec.tasklets;
    assert!(
        run_sequential(&mut tasklets, 3_000_000),
        "job did not finish"
    );
    let results = out.lock();
    let mut got = HashMap::new();
    for (_, r) in results.iter() {
        assert!(
            got.insert((r.key, r.end), r.value).is_none(),
            "duplicate window result ({}, {})",
            r.key,
            r.end
        );
    }
    got.retain(|_, v| *v > 0);
    got
}

// ---------------------------------------------------------- late arrivals

/// Finite source replaying a scripted interleaving of events and
/// watermarks on a single instance — the only way to place an event
/// *behind* an already-forwarded watermark.
#[derive(Clone, Debug)]
enum Script {
    Ev(Ts, u64),
    Wm(Ts),
}

struct ScriptSource {
    items: Arc<Vec<Script>>,
    cursor: usize,
}

impl Processor for ScriptSource {
    fn process(&mut self, _: usize, _: &mut Inbox, _: &mut Outbox, _: &ProcessorContext) {
        unreachable!("sources have no inputs")
    }

    fn complete(&mut self, outbox: &mut Outbox, _ctx: &ProcessorContext) -> bool {
        while self.cursor < self.items.len() {
            if !outbox.has_room() {
                return false;
            }
            match &self.items[self.cursor] {
                Script::Ev(ts, k) => outbox.emit(*ts, jet_core::boxed(*k)),
                Script::Wm(w) => assert!(outbox.broadcast(Item::Watermark(*w))),
            }
            self.cursor += 1;
        }
        true
    }
}

// --------------------------------------------------------------- the laws

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn keytable_matches_hashmap_reference(ops in table_ops(), parts in 1u32..64) {
        let mut kt: KeyTable<u64, u64> = KeyTable::new(parts);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for op in &ops {
            match *op {
                TableOp::Upsert(k, v) => {
                    let (slot, _created) = kt.upsert(fp(k), k, || 0);
                    *slot = v;
                    reference.insert(k, v);
                }
                TableOp::Remove(k) => {
                    prop_assert_eq!(kt.remove(fp(k), &k), reference.remove(&k));
                }
                TableOp::Get(k) => {
                    prop_assert_eq!(kt.get(fp(k), &k).copied(), reference.get(&k).copied());
                    prop_assert_eq!(
                        kt.get_mut(fp(k), &k).map(|v| *v),
                        reference.get(&k).copied()
                    );
                }
            }
            prop_assert_eq!(kt.len(), reference.len());
        }
        // Cursor-resumed scan visits every live record exactly once.
        let mut scanned: HashMap<u64, u64> = HashMap::new();
        let mut cur = Cursor::default();
        loop {
            let (next, item) = kt.scan_next(cur);
            match item {
                Some((f, k, v)) => {
                    prop_assert_eq!(f, fp(*k), "stored fingerprint drifted");
                    prop_assert!(scanned.insert(*k, *v).is_none(), "scan revisited a key");
                    cur = next;
                }
                None => break,
            }
        }
        prop_assert_eq!(&scanned, &reference);
        // Drain-to-empty yields the same records and leaves nothing behind.
        let mut drained: HashMap<u64, u64> = HashMap::new();
        let mut cur = Cursor::default();
        loop {
            let (next, item) = kt.drain_next(cur);
            match item {
                Some((_, k, v)) => {
                    prop_assert!(drained.insert(k, v).is_none(), "drain revisited a key");
                    cur = next;
                }
                None => break,
            }
        }
        prop_assert_eq!(&drained, &reference);
        prop_assert!(kt.is_empty());
    }

    #[test]
    fn deduct_and_recombine_agree_with_brute_force(
        events in proptest::collection::vec((0i64..400, 0u64..8), 1..200),
        frames_per_window in 1i64..5,
        slide in prop_oneof![Just(10i64), Just(25)],
        lp in 1usize..3,
    ) {
        let size = slide * frames_per_window;
        let want = brute_force(&events, size, slide);
        let via_deduct = run_single_stage(&events, size, slide, lp, true);
        let via_recombine = run_single_stage(&events, size, slide, lp, false);
        prop_assert_eq!(&via_deduct, &want);
        prop_assert_eq!(&via_recombine, &want);
    }

    #[test]
    fn late_arrivals_are_dropped_and_counted(
        batches in proptest::collection::vec(
            (
                proptest::collection::vec((0i64..1, 0u64..6), 1..8), // (offset seed, key)
                proptest::collection::vec((0i64..1, 0u64..6), 0..3), // ancient seeds
            ),
            5..9,
        ),
        offsets in proptest::collection::vec(0i64..10_000, 64..65),
        frames_per_window in 1i64..4,
        slide in prop_oneof![Just(10i64), Just(20)],
    ) {
        let size = slide * frames_per_window;
        // Watermark cadence: batch i occupies ts in [i*range, (i+1)*range)
        // and is followed by watermark W_i = (i+1)*range. `range` is two
        // windows wide so an "ancient" event in batch i (ts at least a full
        // window below batch i-3's start, whose emission is guaranteed to
        // have begun) sits behind the floor by construction.
        let range = 2 * size;
        let mut script: Vec<Script> = Vec::new();
        let mut normal: Vec<(Ts, u64)> = Vec::new();
        let mut ancient_count = 0u64;
        let mut oi = 0usize;
        let mut next_off = |bound: i64| {
            let v = offsets[oi % offsets.len()] % bound.max(1);
            oi += 1;
            v
        };
        for (i, (evs, ancients)) in batches.iter().enumerate() {
            let base = i as Ts * range;
            for (_, key) in evs {
                let ts = base + next_off(range);
                normal.push((ts, *key));
                script.push(Script::Ev(ts, *key));
            }
            if i >= 4 {
                let bound = (i as Ts - 3) * range - size;
                for (_, key) in ancients {
                    let ts = next_off(bound + 1);
                    ancient_count += 1;
                    script.push(Script::Ev(ts, *key));
                }
            }
            script.push(Script::Wm(base + range));
        }

        let items = Arc::new(script);
        let out: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
        let probe_slot: Arc<Mutex<Option<Arc<StateProbe>>>> = Arc::new(Mutex::new(None));
        let mut dag = Dag::new();
        let items2 = items.clone();
        let src = dag.vertex_with_parallelism(
            "script-src",
            1,
            supplier(move |_| Box::new(ScriptSource { items: items2.clone(), cursor: 0 })),
        );
        let wdef = WindowDef::sliding(size, slide);
        let slot = probe_slot.clone();
        let w = dag.vertex_with_parallelism(
            "window",
            1,
            supplier(move |_| {
                let p = SlidingWindowP::new::<u64>(wdef, |v: &u64| *v, counting::<u64>());
                *slot.lock() = p.state_probe();
                Box::new(p)
            }),
        );
        let sink_target = out.clone();
        let sink = dag.vertex_with_parallelism(
            "sink",
            1,
            supplier(move |_| Box::new(CollectSink::new(sink_target.clone()))),
        );
        dag.edge(Edge::between(src, w));
        dag.edge(Edge::between(w, sink));
        let registry = Arc::new(SnapshotRegistry::disabled());
        let exec = build_local(&dag, &LocalConfig::new(1), &registry, None).unwrap();
        let mut tasklets = exec.tasklets;
        prop_assert!(run_sequential(&mut tasklets, 3_000_000), "job did not finish");

        let mut got = HashMap::new();
        for (_, r) in out.lock().iter() {
            prop_assert!(
                got.insert((r.key, r.end), r.value).is_none(),
                "duplicate window result"
            );
        }
        got.retain(|_, v| *v > 0);
        // Ancient events vanish from every window; on-time events land in
        // all of theirs.
        prop_assert_eq!(&got, &brute_force(&normal, size, slide));
        let probe = probe_slot.lock().clone().expect("probe captured");
        prop_assert_eq!(probe.late_events.load(Ordering::Relaxed), ancient_count);
    }

    #[test]
    fn chunked_snapshot_restore_is_exact(
        total in 300u64..1200,
        nkeys in 1u64..8,
        frames_per_window in 1i64..5,
        slide_us in prop_oneof![Just(50i64), Just(100)],
        pre_steps in 1usize..10,
        lp in 1usize..3,
    ) {
        const RATE: u64 = 1_000_000; // event ts = seq * 1000 ns
        let slide = slide_us * 1_000;
        let size = slide * frames_per_window;
        let grid = Grid::with_partition_count(2, 1, 32);
        let store = SnapshotStore::new(&grid, 42);
        let (manual, clock) = manual_clock();

        let make_dag = |out: Collected<WindowResult<u64, u64>>| {
            let mut dag = Dag::new();
            let src = dag.vertex_with_parallelism(
                "gen",
                lp,
                supplier(move |_| {
                    Box::new(
                        GeneratorSource::new(
                            RATE,
                            move |seq, _ts| seq % nkeys,
                        )
                        .with_limit(total),
                    )
                }),
            );
            let win = dag.vertex_with_parallelism(
                "win",
                lp,
                supplier(move |_| {
                    Box::new(SlidingWindowP::new::<u64>(
                        WindowDef::sliding(size, slide),
                        |v: &u64| *v,
                        counting::<u64>(),
                    ))
                }),
            );
            let out2 = out.clone();
            let sink = dag.vertex_with_parallelism(
                "sink",
                1,
                supplier(move |_| Box::new(CollectSink::new(out2.clone()))),
            );
            dag.edge(Edge::between(src, win).partitioned_by::<u64, _, _>(|v| *v));
            dag.edge(Edge::between(win, sink));
            dag
        };

        // First execution: advance partway, take one chunked snapshot, crash.
        let out1: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
        let dag = make_dag(out1.clone());
        let registry = Arc::new(SnapshotRegistry::new(store.clone(), 0));
        let cfg = LocalConfig::new(lp)
            .with_guarantee(Guarantee::ExactlyOnce)
            .with_clock(clock.clone());
        let exec = build_local(&dag, &cfg, &registry, None).unwrap();
        let mut tasklets = exec.tasklets;
        for _ in 0..pre_steps {
            manual.advance(20_000);
            run_sequential(&mut tasklets, 200);
        }
        registry.trigger().unwrap();
        for _ in 0..300 {
            run_sequential(&mut tasklets, 200);
            if registry.completed() >= 1 {
                break;
            }
            manual.advance(10_000);
        }
        prop_assert_eq!(registry.completed(), 1, "snapshot did not complete");
        drop(tasklets); // simulated crash

        // Recovery: restore from the streamed chunks, run to the end.
        let out2: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
        let dag = make_dag(out2.clone());
        let registry2 = Arc::new(SnapshotRegistry::new(store.clone(), 0));
        let exec = build_local(&dag, &cfg, &registry2, Some((&store, 1))).unwrap();
        let mut tasklets = exec.tasklets;
        let mut finished = false;
        for _ in 0..400 {
            manual.advance(1_000_000);
            if run_sequential(&mut tasklets, 5_000) {
                finished = true;
                break;
            }
        }
        prop_assert!(finished, "recovered job did not finish");

        let mut got = HashMap::new();
        for (_, r) in out2.lock().iter() {
            prop_assert!(
                got.insert((r.key, r.end), r.value).is_none(),
                "window re-emitted after restore"
            );
        }
        got.retain(|_, v| *v > 0);
        prop_assert!(!got.is_empty(), "recovery emitted nothing");
        // Windows emitted before the crash are gone with the first
        // execution; everything from the restored floor onward must match
        // an uninterrupted run exactly (counts neither lost nor doubled).
        let events: Vec<(Ts, u64)> = (0..total).map(|s| (s as Ts * 1000, s % nkeys)).collect();
        let min_end = got.keys().map(|&(_, end)| end).min().unwrap();
        let mut want = brute_force(&events, size, slide);
        want.retain(|&(_, end), _| end >= min_end);
        prop_assert_eq!(&got, &want);
    }
}
