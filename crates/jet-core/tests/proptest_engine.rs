//! Property tests over engine invariants:
//!
//! * sliding-window results equal a brute-force recomputation for arbitrary
//!   event sets, window geometry, and parallelism;
//! * two-stage aggregation ≡ single-stage;
//! * `Snap` codec round-trips arbitrary values;
//! * exactly-once counts survive snapshot/restore at arbitrary cut points;
//! * a tasklet forwards every control item at its place among the outputs of
//!   the events around it, however full its outbox is;
//! * the schedule without quotas polls like a `retain_mut` pass, and with
//!   quotas gives every job its weight's share of the polls.

use jet_core::dag::{Dag, Edge, Routing};
use jet_core::exec::run_sequential;
use jet_core::fairness::{JobQuotas, Round, Schedule};
use jet_core::item::{Barrier, Item};
use jet_core::outbound::OutboundCollector;
use jet_core::plan::{build_local, LocalConfig};
use jet_core::processor::{Guarantee, ProcessorContext};
use jet_core::processors::*;
use jet_core::snapshot::SnapshotRegistry;
use jet_core::state::Snap;
use jet_core::supplier;
use jet_core::tasklet::{InputConveyor, ProcessorTasklet, Tasklet};
use jet_core::Ts;
use jet_queue::{spsc_channel, Conveyor};
use jet_util::progress::Progress;
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Timestamped sink output, shared with the collecting stage.
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

fn run_window_job(
    events: &[(Ts, u64)],
    size: Ts,
    slide: Ts,
    lp: usize,
    two_stage: bool,
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
    let sink_target = out.clone();
    if two_stage {
        let s1 = dag.vertex_with_parallelism(
            "accumulate",
            lp,
            supplier(move |_| {
                Box::new(AccumulateFrameP::new::<u64>(
                    wdef,
                    |v: &u64| *v,
                    counting::<u64>(),
                ))
            }),
        );
        let s2 = dag.vertex_with_parallelism(
            "combine",
            lp,
            supplier(move |_| {
                Box::new(CombineFramesP::<u64, u64, u64>::new(
                    wdef,
                    counting::<u64>(),
                ))
            }),
        );
        let sink = dag.vertex_with_parallelism(
            "sink",
            1,
            supplier(move |_| Box::new(CollectSink::new(sink_target.clone()))),
        );
        dag.edge(Edge::between(src, s1));
        dag.edge(Edge::between(s1, s2).partitioned_by::<FrameChunk<u64, u64>, _, _>(|c| c.key));
        dag.edge(Edge::between(s2, sink));
    } else {
        let w = dag.vertex_with_parallelism(
            "window-single",
            lp,
            supplier(move |_| {
                Box::new(SlidingWindowP::new::<u64>(
                    wdef,
                    |v: &u64| *v,
                    counting::<u64>(),
                ))
            }),
        );
        let sink = dag.vertex_with_parallelism(
            "sink",
            1,
            supplier(move |_| Box::new(CollectSink::new(sink_target.clone()))),
        );
        dag.edge(Edge::between(src, w).partitioned_by::<u64, _, _>(|v| *v));
        dag.edge(Edge::between(w, sink));
    }
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

/// One item leaving a tasklet, reduced to what its order is judged by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Left {
    /// Output `.1` of event `.0`.
    Ev(u64, u64),
    Wm(Ts),
    Barrier(u64),
    Done,
}

/// A flat-map tasklet with one input lane holding `script` followed by
/// `Done`, stepped one `call()` at a time while its output queue is drained
/// one item every `drain_every` calls. Events carry `(id, fan_out)` and turn
/// into `(id, 0) .. (id, fan_out)`. Returns what left the tasklet, and the
/// most events it ever held emitted but not yet polled (outbox plus queue).
fn step_flat_map_tasklet(
    script: Vec<Item>,
    batch: usize,
    out_capacity: usize,
    drain_every: usize,
) -> (Vec<Item>, u64) {
    let (conveyor, mut lanes) = Conveyor::new(1, script.len() + 1);
    for item in script {
        lanes[0].offer(item).unwrap();
    }
    lanes[0].offer(Item::Done).unwrap();
    let (out_p, mut out) = spsc_channel::<Item>(out_capacity);
    let registry = Arc::new(SnapshotRegistry::disabled());
    registry.set_participants(1);
    let ctx = ProcessorContext {
        vertex: "flat-map".into(),
        global_index: 0,
        total_parallelism: 1,
        member: 0,
        clock: jet_util::clock::system_clock(),
        guarantee: Guarantee::ExactlyOnce,
        cancelled: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        partition_count: 8,
        owned_partitions: Arc::new(vec![true; 8]),
    };
    let repeat = Fused::<(u64, u64)>::default()
        .flat_map(|&(id, fan_out)| (0..fan_out).map(move |i| (id, i)));
    let mut tasklet = ProcessorTasklet::new(
        Box::new(TransformP),
        Some(repeat.head(&[])),
        ctx,
        vec![InputConveyor {
            ordinal: 0,
            priority: 0,
            conveyor,
        }],
        vec![OutboundCollector::new(
            Routing::Unicast,
            vec![out_p],
            vec![],
            8,
            0,
        )],
        registry,
        batch,
    );
    let emitted = tasklet.counters();
    let mut got = Vec::new();
    let mut most_in_flight = 0;
    for call in 1..=10_000 {
        tasklet.call();
        let polled = got.iter().filter(|item: &&Item| item.is_event()).count() as u64;
        let in_flight = emitted.events_out.load(Ordering::Relaxed) - polled;
        most_in_flight = most_in_flight.max(in_flight);
        if call % drain_every == 0 {
            got.extend(out.poll());
        }
        if matches!(got.last(), Some(Item::Done)) {
            break;
        }
    }
    (got, most_in_flight)
}

/// A stand-in tasklet: call `k` progresses iff `steps[k % len]`, and call
/// number `lifetime` returns `Done`.
#[derive(Clone)]
struct Scripted {
    id: usize,
    steps: Vec<bool>,
    lifetime: usize,
    calls: usize,
}

impl Scripted {
    fn call(&mut self) -> Progress {
        let call = self.calls;
        self.calls += 1;
        if call == self.lifetime {
            Progress::Done
        } else if self.steps[call % self.steps.len()] {
            Progress::MadeProgress
        } else {
            Progress::NoProgress
        }
    }
}

/// The generator's emission order as a linear scan over its owned shards
/// `(shard, next k)` finds it: the smallest next global sequence, while it is
/// under `limit` and `due`. Returns the sequences and whether the limit
/// ended the run.
fn linear_scan(
    mut shards: Vec<(u64, u64)>,
    limit: Option<u64>,
    due: impl Fn(u64) -> bool,
) -> (Vec<u64>, bool) {
    let mut out = Vec::new();
    if shards.is_empty() {
        return (out, limit.is_some());
    }
    loop {
        let (i, seq) = shards
            .iter()
            .map(|&(s, k)| k * GENERATOR_SHARDS + s)
            .enumerate()
            .min_by_key(|&(_, seq)| seq)
            .unwrap();
        if limit.is_some_and(|l| seq >= l) {
            return (out, true);
        }
        if !due(seq) {
            return (out, false);
        }
        out.push(seq);
        shards[i].1 += 1;
    }
}

/// The context of an instance owning the partitions that are `true` in
/// `owned`, on a clock stopped at `now`.
fn generator_ctx(owned: Vec<bool>, now: u64) -> ProcessorContext {
    ProcessorContext {
        vertex: "gen".into(),
        global_index: 0,
        total_parallelism: 1,
        member: 0,
        clock: Arc::new(jet_util::clock::ManualClock::starting_at(now)),
        guarantee: Guarantee::ExactlyOnce,
        cancelled: Arc::new(std::sync::atomic::AtomicBool::new(false)),
        partition_count: owned.len() as u32,
        owned_partitions: Arc::new(owned),
    }
}

/// One generator instance, restored from the `(shard, k)` offset records
/// `restored` (a fresh start when there are none), run until it reports
/// done or stops emitting. Returns the `(seq, ts)` events it handed to its
/// chain's typed entry and whether it reported done.
fn run_generator(
    ctx: &ProcessorContext,
    restored: &[(u64, u64)],
    rate: u64,
    limit: Option<u64>,
) -> (Vec<(u64, Ts)>, bool) {
    use jet_core::processor::{Outbox, Processor};
    let seen: Collected<u64> = Arc::new(Mutex::new(Vec::new()));
    let log = seen.clone();
    // The chain records every event and passes none on, so the outbox
    // never fills.
    let chain = Fused::<(u64, Ts)>::default()
        .filter(move |&(seq, ts)| {
            log.lock().push((ts, seq));
            false
        })
        .head(&[]);
    let mut outbox = Outbox::new(1, 1 << 30).with_chain(Some(chain));
    let mut source = GeneratorSource::new(rate, |seq, ts| (seq, ts)).with_burst(97);
    if let Some(limit) = limit {
        source = source.with_limit(limit);
    }
    if !restored.is_empty() {
        for (shard, k) in restored {
            source.restore_from_snapshot(&shard.to_bytes(), &k.to_bytes(), ctx);
        }
        source.finish_snapshot_restore(ctx);
    }
    source.init(ctx);
    let mut done = false;
    let mut emitted = usize::MAX;
    while !done && seen.lock().len() != emitted {
        emitted = seen.lock().len();
        done = source.complete(&mut outbox, ctx);
    }
    let events = seen.lock().iter().map(|&(ts, seq)| (seq, ts)).collect();
    (events, done)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generator_frontier_emits_what_a_linear_scan_emits(
        owned in proptest::collection::vec(any::<bool>(), 1..24),
        restored in proptest::collection::vec((0..GENERATOR_SHARDS, 0u64..100), 0..80),
        rate in 1u64..3_000_000_000,
        limit in 0u64..8_000,
        bounded in any::<bool>(),
        any_seq in any::<u64>(),
    ) {
        // An instance owning a random subset of the shards, restored at
        // random per-shard offsets (the N→M rescale shape), emits exactly
        // the due sequences a linear scan for the smallest next sequence
        // emits — strictly increasing, each at its schedule — and a limited
        // run stops at the same event.
        let mut records: Vec<(u64, u64)> = Vec::new();
        for (s, k) in restored {
            if !records.iter().any(|r| r.0 == s) {
                records.push((s, k));
            }
        }
        let schedule = |seq: u64| (seq as u128 * 1_000_000_000 / rate as u128) as u64;
        prop_assert_eq!(source::schedule_of(any_seq, rate), schedule(any_seq));
        // A limited run has every event due; an unlimited one stops at the
        // clock, around sequence `limit`.
        let (limit, now) = match bounded {
            true => (Some(limit), u64::MAX / 4),
            false => (None, schedule(limit)),
        };
        let ctx = generator_ctx(owned, now);
        // A fresh start claims every owned shard at offset 0. A restore
        // resumes the owned shards the snapshot has records of; an owned
        // shard without one was exhausted by an instance that finished, and
        // stays exhausted.
        let start: Vec<(u64, u64)> = (0..GENERATOR_SHARDS)
            .filter(|s| ctx.owns_key_hash(jet_util::seq::hash_of(s)))
            .filter_map(|s| match records.iter().find(|r| r.0 == s) {
                Some(r) => Some((s, r.1)),
                None => records.is_empty().then_some((s, 0)),
            })
            .collect();
        let (events, done) = run_generator(&ctx, &records, rate, limit);
        let (want, want_done) = linear_scan(start, limit, |seq| schedule(seq) <= now);
        let seqs: Vec<u64> = events.iter().map(|e| e.0).collect();
        prop_assert!(seqs.windows(2).all(|w| w[0] < w[1]), "not increasing: {:?}", seqs);
        prop_assert_eq!(seqs, want);
        prop_assert_eq!(done, want_done);
        for (seq, ts) in events {
            prop_assert_eq!(ts, schedule(seq) as Ts);
        }
    }

    #[test]
    fn schedule_without_quotas_polls_like_a_retain_pass(
        scripts in proptest::collection::vec(
            (proptest::collection::vec(any::<bool>(), 1..6), 0usize..12, 0u32..4),
            0..9,
        ),
    ) {
        let mut reference: Vec<Scripted> = scripts
            .iter()
            .enumerate()
            .map(|(id, (steps, lifetime, _))| Scripted {
                id,
                steps: steps.clone(),
                lifetime: *lifetime,
                calls: 0,
            })
            .collect();
        // Job ids are there to be ignored.
        let mut schedule = Schedule::new(None);
        for (t, (_, _, job)) in reference.iter().zip(&scripts) {
            schedule.push(t.clone(), *job);
        }
        for _ in 0..14 {
            let live: Vec<usize> = reference.iter().map(|t| t.id).collect();
            prop_assert_eq!(schedule.round_len(), live.len());
            let mut want = Vec::new();
            let mut want_progress = false;
            reference.retain_mut(|t| {
                want.push(t.id);
                let p = t.call();
                want_progress |= p != Progress::NoProgress;
                p != Progress::Done
            });
            let mut got = Vec::new();
            let round = schedule.run_round(|t| {
                got.push(t.id);
                ControlFlow::Continue(t.call())
            });
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&got, &live, "every live tasklet exactly once");
            let want_round = if want_progress { Round::Progressed } else { Round::Fruitless };
            prop_assert_eq!(round, want_round);
        }
        prop_assert!(schedule.is_empty() && reference.is_empty());
    }

    #[test]
    fn schedule_gives_every_live_job_its_weights_share_of_the_polls(
        // Per job: its weight and how many tasklets it deploys.
        jobs in proptest::collection::vec((1u32..9, 1usize..6), 1..7),
    ) {
        let mut quotas = JobQuotas::new();
        for (job, (weight, _)) in jobs.iter().enumerate() {
            quotas = quotas.with_weight(job as u32, *weight);
        }
        let mut schedule = Schedule::new(Some(quotas));
        for (job, (_, tasklets)) in jobs.iter().enumerate() {
            for _ in 0..*tasklets {
                schedule.push(job, job as u32);
            }
        }
        let total_weight: usize = jobs.iter().map(|(w, _)| *w as usize).sum();
        prop_assert_eq!(schedule.cycle_len(), total_weight);
        // A round is a whole number of cycles.
        prop_assert_eq!(schedule.round_len() % total_weight, 0);
        let mut polls = vec![0usize; jobs.len()];
        let round = schedule.run_round(|job| {
            polls[*job] += 1;
            ControlFlow::Continue(Progress::MadeProgress)
        });
        prop_assert_eq!(round, Round::Progressed);
        for (job, (weight, _)) in jobs.iter().enumerate() {
            prop_assert_eq!(
                polls[job] * total_weight,
                *weight as usize * schedule.round_len(),
                "job {}", job
            );
        }
    }

    #[test]
    fn sliding_window_equals_brute_force(
        events in proptest::collection::vec((0i64..500, 0u64..9), 1..250),
        frames_per_window in 1i64..6,
        slide in prop_oneof![Just(10i64), Just(25), Just(40)],
        lp in 1usize..4,
        two_stage in any::<bool>(),
    ) {
        let size = slide * frames_per_window;
        let got = run_window_job(&events, size, slide, lp, two_stage);
        let want = brute_force(&events, size, slide);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn control_items_keep_their_place_among_the_outputs(
        // 0 = watermark, 1 = barrier, otherwise an event with that fan-out.
        script in proptest::collection::vec((0u8..6, 0u64..10), 0..40),
        batch in 1usize..9,
        out_capacity in 2usize..17,
        drain_every in 1usize..4,
    ) {
        let mut snapshots = 0;
        let mut items = Vec::new();
        let mut want = Vec::new();
        for (at, (kind, fan_out)) in script.into_iter().enumerate() {
            let at = at as u64;
            items.push(match kind {
                0 => {
                    want.push(Left::Wm(at as Ts));
                    Item::Watermark(at as Ts)
                }
                1 => {
                    snapshots += 1;
                    want.push(Left::Barrier(snapshots));
                    Item::Barrier(Barrier { snapshot_id: snapshots, terminal: false })
                }
                _ => {
                    want.extend((0..fan_out).map(|i| Left::Ev(at, i)));
                    Item::event(at as Ts, jet_core::boxed((at, fan_out)))
                }
            });
        }
        want.push(Left::Done);
        let (got, most_in_flight) =
            step_flat_map_tasklet(items, batch, out_capacity, drain_every);
        // An item is admitted below `batch`, and then all of its outputs are.
        let most_fan_out = 9;
        let queue = out_capacity.next_power_of_two();
        prop_assert!(most_in_flight as usize <= batch - 1 + most_fan_out + queue);
        let got: Vec<Left> = got
            .iter()
            .map(|item| match item {
                Item::Event { obj, .. } => {
                    let (id, i) = *jet_core::downcast_ref::<(u64, u64)>(obj.as_ref());
                    Left::Ev(id, i)
                }
                Item::Watermark(w) => Left::Wm(*w),
                Item::Barrier(b) => Left::Barrier(b.snapshot_id),
                Item::Done => Left::Done,
            })
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn snap_roundtrip_vec_map(
        v in proptest::collection::vec(any::<i64>(), 0..50),
        m in proptest::collection::hash_map(any::<u64>(), any::<(i64, u64)>(), 0..30),
        s in ".*",
    ) {
        prop_assert_eq!(Vec::<i64>::from_bytes(&v.to_bytes()).unwrap(), v);
        prop_assert_eq!(
            std::collections::HashMap::<u64, (i64, u64)>::from_bytes(&m.to_bytes()).unwrap(),
            m
        );
        prop_assert_eq!(String::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn generator_shards_partition_the_sequence_space(
        lp in 1usize..7,
        limit in 1u64..2000,
    ) {
        // Every global sequence < limit is emitted exactly once across
        // instances, whatever the parallelism.
        let out: Collected<u64> = Arc::new(Mutex::new(Vec::new()));
        let mut dag = Dag::new();
        let src = dag.vertex_with_parallelism("gen", lp, supplier(move |_| {
            Box::new(
                GeneratorSource::new(1_000_000_000, |seq, _| seq)
                    .with_limit(limit),
            )
        }));
        let out2 = out.clone();
        let sink = dag.vertex_with_parallelism("sink", 1, supplier(move |_| {
            Box::new(CollectSink::new(out2.clone()))
        }));
        dag.edge(Edge::between(src, sink));
        let registry = Arc::new(SnapshotRegistry::disabled());
        let exec = build_local(&dag, &LocalConfig::new(lp), &registry, None).unwrap();
        let mut tasklets = exec.tasklets;
        prop_assert!(run_sequential(&mut tasklets, 2_000_000));
        let mut seqs: Vec<u64> = out.lock().iter().map(|(_, s)| *s).collect();
        seqs.sort_unstable();
        prop_assert_eq!(seqs, (0..limit).collect::<Vec<_>>());
    }
}
