//! Workspace integration tests spanning crates: NEXMark queries validated
//! against reference computations, delivery-guarantee sinks, the threaded
//! executor driving pipeline-compiled DAGs, and the poll order of a worker
//! thread against that of a virtual core.

use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::metrics::SharedCounter;
use jet_core::processors::WatermarkPolicy;
use jet_core::Ts;
use jet_nexmark::{queries, Event, NexmarkConfig};
use jet_pipeline::Pipeline;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

const SEC: u64 = 1_000_000_000;

/// Timestamped sink output, shared with the collecting pipeline stage.
type Collected<T> = Arc<Mutex<Vec<(Ts, T)>>>;

fn small_nexmark() -> NexmarkConfig {
    NexmarkConfig {
        people: 50,
        auctions: 40,
        ..Default::default()
    }
}

fn run_to_completion(p: &Pipeline, members: usize) {
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members,
        cores_per_member: 2,
        partition_count: 31,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    assert!(cluster.run_for(120 * SEC), "job did not complete");
}

/// Reference event stream: same generator, computed directly.
fn reference_events(cfg: &NexmarkConfig, rate: u64, limit: u64) -> Vec<Event> {
    (0..limit)
        .map(|seq| {
            let ts = (seq as u128 * 1_000_000_000 / rate as u128) as Ts;
            cfg.event(seq, ts)
        })
        .collect()
}

#[test]
fn q2_matches_reference_filter() {
    let nex = small_nexmark();
    const RATE: u64 = 500_000;
    const LIMIT: u64 = 25_000;
    let p = Pipeline::create();
    let out: Collected<(u64, i64)> = Arc::new(Mutex::new(Vec::new()));
    let src = queries::source(&p, &nex, RATE, Some(LIMIT), WatermarkPolicy::default());
    queries::q2(&src).write_to_collect(out.clone());
    run_to_completion(&p, 2);

    let expected: Vec<(u64, i64)> = reference_events(&nex, RATE, LIMIT)
        .iter()
        .filter_map(|e| e.as_bid())
        .filter(|b| b.auction % 123 == 0)
        .map(|b| (b.auction, b.price))
        .collect();
    let mut got: Vec<(u64, i64)> = out.lock().iter().map(|(_, v)| *v).collect();
    let mut want = expected;
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn q1_converts_every_bid() {
    let nex = small_nexmark();
    const LIMIT: u64 = 20_000;
    let p = Pipeline::create();
    let count = SharedCounter::new();
    let src = queries::source(&p, &nex, 500_000, Some(LIMIT), WatermarkPolicy::default());
    queries::q1(&src).write_to_count(count.clone());
    run_to_completion(&p, 2);
    let expected_bids = reference_events(&nex, 500_000, LIMIT)
        .iter()
        .filter(|e| e.as_bid().is_some())
        .count() as u64;
    assert_eq!(count.get(), expected_bids);
}

#[test]
fn q5_window_counts_match_reference() {
    let nex = small_nexmark();
    const RATE: u64 = 1_000_000;
    const LIMIT: u64 = 50_000; // 50ms of stream
    let window = jet_pipeline::WindowDef::tumbling(10_000_000); // 10ms
    let p = Pipeline::create();
    let out: Collected<jet_pipeline::WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
    let src = queries::source(&p, &nex, RATE, Some(LIMIT), WatermarkPolicy::default());
    queries::q5(&src, window).write_to_collect(out.clone());
    run_to_completion(&p, 3);

    // Reference: count bids per (auction, window end).
    let mut expected: HashMap<(u64, Ts), u64> = HashMap::new();
    for e in reference_events(&nex, RATE, LIMIT) {
        if let Some(b) = e.as_bid() {
            let end = (b.ts / 10_000_000) * 10_000_000 + 10_000_000;
            *expected.entry((b.auction, end)).or_insert(0) += 1;
        }
    }
    let results = out.lock();
    let mut got: HashMap<(u64, Ts), u64> = HashMap::new();
    for (_, r) in results.iter() {
        let prev = got.insert((r.key, r.end), r.value);
        assert!(prev.is_none(), "duplicate window ({}, {})", r.key, r.end);
    }
    assert_eq!(got, expected);
}

#[test]
fn q7_highest_bid_is_the_true_max() {
    let nex = small_nexmark();
    const LIMIT: u64 = 20_000;
    const RATE: u64 = 1_000_000;
    let p = Pipeline::create();
    let out: Collected<jet_pipeline::WindowResult<u64, i64>> = Arc::new(Mutex::new(Vec::new()));
    let src = queries::source(&p, &nex, RATE, Some(LIMIT), WatermarkPolicy::default());
    queries::q7(&src, 20_000_000).write_to_collect(out.clone()); // 20ms periods
    run_to_completion(&p, 2);

    let mut expected: HashMap<Ts, i64> = HashMap::new();
    for e in reference_events(&nex, RATE, LIMIT) {
        if let Some(b) = e.as_bid() {
            let end = (b.ts / 20_000_000) * 20_000_000 + 20_000_000;
            let m = expected.entry(end).or_insert(i64::MIN);
            *m = (*m).max(b.price);
        }
    }
    let results = out.lock();
    assert!(!results.is_empty());
    for (_, r) in results.iter() {
        assert_eq!(
            Some(&r.value),
            expected.get(&r.end),
            "window {} max mismatch",
            r.end
        );
    }
    assert_eq!(results.len(), expected.len());
}

#[test]
fn q8_reports_exactly_the_sellers_who_listed() {
    let nex = small_nexmark();
    const LIMIT: u64 = 30_000;
    const RATE: u64 = 1_000_000;
    let window: Ts = 30_000_000; // 30ms = whole stream
    let p = Pipeline::create();
    let out: Collected<(u64, String)> = Arc::new(Mutex::new(Vec::new()));
    let src = queries::source(&p, &nex, RATE, Some(LIMIT), WatermarkPolicy::default());
    queries::q8(&src, window).write_to_collect(out.clone());
    run_to_completion(&p, 2);

    // Reference: persons who appear AND have an auction with seller == id in
    // the same window.
    let events = reference_events(&nex, RATE, LIMIT);
    let mut expected: std::collections::HashSet<(Ts, u64)> = Default::default();
    let wend = |ts: Ts| (ts / window) * window + window;
    for e in &events {
        if let Some(p0) = e.as_person() {
            let w = wend(p0.ts);
            if events.iter().any(|x| {
                x.as_auction()
                    .map(|a| a.seller == p0.id && wend(a.ts) == w)
                    .unwrap_or(false)
            }) {
                expected.insert((w, p0.id));
            }
        }
    }
    let got: std::collections::HashSet<(Ts, u64)> =
        out.lock().iter().map(|(ts, (id, _))| (*ts, *id)).collect();
    assert_eq!(got, expected);
}

#[test]
fn q3_q4_q6_smoke_produce_plausible_output() {
    let nex = NexmarkConfig {
        people: 200,
        auctions: 100,
        ..Default::default()
    };
    const LIMIT: u64 = 40_000;
    let p = Pipeline::create();
    let q3_out: Collected<(String, String, String, u64)> = Arc::new(Mutex::new(Vec::new()));
    let q4_out: Collected<jet_pipeline::WindowResult<u64, f64>> = Arc::new(Mutex::new(Vec::new()));
    let q6_out: Collected<(u64, i64)> = Arc::new(Mutex::new(Vec::new()));
    let src = queries::source(&p, &nex, 1_000_000, Some(LIMIT), WatermarkPolicy::default());
    queries::q3(&src).write_to_collect(q3_out.clone());
    queries::q4(&src, 10_000_000).write_to_collect(q4_out.clone());
    queries::q6(&src, 10_000_000).write_to_collect(q6_out.clone());
    run_to_completion(&p, 2);

    let q3 = q3_out.lock();
    for (_, (_, _, state, _)) in q3.iter() {
        assert!(
            matches!(state.as_str(), "OR" | "ID" | "CA"),
            "Q3 state filter leaked: {state}"
        );
    }
    let q4 = q4_out.lock();
    assert!(!q4.is_empty(), "Q4 produced nothing");
    for (_, r) in q4.iter() {
        assert!(
            r.value >= 100.0,
            "Q4 average below min bid price: {}",
            r.value
        );
    }
    let q6 = q6_out.lock();
    assert!(!q6.is_empty(), "Q6 produced nothing");
    for (_, (_, avg)) in q6.iter() {
        assert!(*avg >= 100, "Q6 average below min price: {avg}");
    }
}

#[test]
fn transactional_sink_hides_uncommitted_output() {
    use jet_core::processor::Guarantee;
    const LIMIT: u64 = 10_000;
    let p = Pipeline::create();
    let committed: Collected<u64> = Arc::new(Mutex::new(Vec::new()));
    // Registry is created by SimCluster; use a two-phase wiring instead:
    // build with cluster, then fetch its registry for the sink. We pre-create
    // the pipeline with a placeholder registry and rebuild after.
    // Simpler: run with snapshots and check the invariant at completion.
    let dag = {
        let registry_cell: Arc<Mutex<Option<Arc<jet_core::SnapshotRegistry>>>> =
            Arc::new(Mutex::new(None));
        let _ = registry_cell;
        // Build the pipeline against a fresh registry that the cluster will
        // replace; the sink only uses `completed()`, which is monotonic, so
        // wiring it to the *cluster's* registry matters. We therefore build
        // the cluster first with a probe dag, then the real one.
        p.read_from_generator_cfg(
            "gen",
            1_000_000,
            Some(LIMIT),
            WatermarkPolicy::default(),
            |seq, _| seq,
        )
        .map(|v: &u64| *v)
        .write_to_count(SharedCounter::new()); // placeholder sink
        p.compile(2).unwrap()
    };
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 2_000_000, // 2ms
        ..Default::default()
    };
    let cluster = SimCluster::start(dag, cfg.clone()).unwrap();
    let registry = cluster.registry();
    drop(cluster);
    // Now the real job wired to a live registry.
    let p2 = Pipeline::create();
    p2.read_from_generator_cfg(
        "gen",
        1_000_000,
        Some(LIMIT),
        WatermarkPolicy::default(),
        |seq, _| seq,
    )
    .write_to_transactional(committed.clone(), registry);
    let dag2 = p2.compile(2).unwrap();
    let mut cluster = SimCluster::start(dag2, cfg).unwrap();
    assert!(cluster.run_for(60 * SEC));
    // On completion everything is committed exactly once.
    let mut vals: Vec<u64> = committed.lock().iter().map(|(_, v)| *v).collect();
    vals.sort_unstable();
    vals.dedup();
    assert_eq!(
        vals.len(),
        LIMIT as usize,
        "transactional sink lost or duplicated"
    );
}

#[test]
fn idempotent_sink_dedups_by_record_id() {
    const LIMIT: u64 = 5_000;
    let p = Pipeline::create();
    let published: Arc<Mutex<HashMap<u64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
    // Emit each record id TWICE (simulating an at-least-once replay).
    p.read_from_generator_cfg(
        "gen",
        1_000_000,
        Some(LIMIT * 2),
        WatermarkPolicy::default(),
        |seq, _| seq / 2, // ids 0..LIMIT, each twice
    )
    .write_to_idempotent(published.clone(), |v: &u64| *v);
    run_to_completion(&p, 1);
    assert_eq!(published.lock().len(), LIMIT as usize);
}

#[test]
fn threaded_executor_runs_pipeline_compiled_dags() {
    // The same pipeline crates compile to DAGs that run on REAL threads.
    let p = Pipeline::create();
    let count = SharedCounter::new();
    p.read_from_generator_cfg(
        "gen",
        2_000_000,
        Some(100_000),
        WatermarkPolicy::default(),
        |seq, _| seq,
    )
    .filter(|v: &u64| v.is_multiple_of(2))
    .write_to_count(count.clone());
    let dag = p.compile(2).unwrap();
    let registry = Arc::new(jet_core::SnapshotRegistry::disabled());
    let exec =
        jet_core::plan::build_local(&dag, &jet_core::plan::LocalConfig::new(2), &registry, None)
            .unwrap();
    let handle = jet_core::exec::spawn_threaded(exec.tasklets, 2, exec.cancelled);
    handle.join();
    assert_eq!(count.get(), 50_000);
}

/// Exactly-once on real threads, through the chunked snapshot store: a Q5
/// job that snapshots every `snapshot_every` is stopped mid-stream and
/// rebuilt from its latest complete snapshot; what the first execution
/// emitted up to that snapshot plus what the rebuilt one emits must be, window
/// for window, the output of a run that was never interrupted. Every event is
/// repeated `fan_out` times ahead of the window and every outbox admits
/// `batch` items.
fn q5_rebuilt_from_a_snapshot_matches_the_uninterrupted_run(
    fan_out: usize,
    batch: usize,
    snapshot_every: std::time::Duration,
) {
    use jet_core::plan::{build_local, LocalConfig};
    use jet_core::processor::Guarantee;
    use jet_core::SnapshotRegistry;
    use jet_imdg::{Grid, SnapshotStore};
    use std::time::Duration;

    const RATE: u64 = 500_000;
    const LIMIT: u64 = 100_000; // 200 ms of stream
    type Rows = Collected<jet_pipeline::WindowResult<u64, u64>>;
    let job = || {
        let p = Pipeline::create();
        let out: Rows = Arc::new(Mutex::new(Vec::new()));
        let src = queries::source(
            &p,
            &small_nexmark(),
            RATE,
            Some(LIMIT),
            WatermarkPolicy::default(),
        );
        let src = match fan_out {
            1 => src,
            n => src.flat_map(move |e: &Event| vec![e.clone(); n]),
        };
        queries::q5(
            &src,
            jet_pipeline::WindowDef::sliding(20_000_000, 5_000_000),
        )
        .write_to_collect(out.clone());
        (p.compile(2).unwrap(), out)
    };
    let rows = |out: &Rows| -> Vec<(u64, Ts, u64)> {
        let mut rows: Vec<_> = out
            .lock()
            .iter()
            .map(|(_, r)| (r.key, r.end, r.value))
            .collect();
        rows.sort_unstable();
        rows
    };
    // Every execution gets a clock of its own, starting at zero.
    let config = || {
        LocalConfig::new(2)
            .with_guarantee(Guarantee::ExactlyOnce)
            .with_batch(batch)
    };

    let (dag, uninterrupted) = job();
    let exec = build_local(
        &dag,
        &config(),
        &Arc::new(SnapshotRegistry::disabled()),
        None,
    )
    .unwrap();
    jet_core::exec::spawn_threaded(exec.tasklets, 2, exec.cancelled).join();
    let expected = rows(&uninterrupted);
    assert!(expected.len() > 1_000, "only {} windows", expected.len());

    let store = SnapshotStore::new(&Grid::new(1, 0), 1);
    let (dag, first) = job();
    let registry = Arc::new(SnapshotRegistry::new(store.clone(), 0));
    let exec = build_local(&dag, &config(), &registry, None).unwrap();
    let handle = jet_core::exec::spawn_threaded(exec.tasklets, 2, exec.cancelled);
    // Snapshot until the third has completed and so has one started after
    // the first window was out, so that the restore is from mid-stream.
    let mut after_output = None;
    while registry.completed() < 3 || after_output.is_none_or(|id| registry.completed() < id) {
        assert!(!handle.is_finished(), "job ended before its third snapshot");
        let had_output = !first.lock().is_empty();
        let started = registry.trigger();
        if had_output && after_output.is_none() {
            after_output = started;
        }
        std::thread::sleep(snapshot_every);
    }
    // Let the snapshot in flight finish: one racing the shutdown could
    // complete without the state of a source that had already retired.
    while registry.completed() < registry.requested() {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(!handle.is_finished(), "job ended before it was stopped");
    handle.cancel_and_join();
    let restored = store.latest_complete().expect("no complete snapshot");
    assert_eq!(restored, registry.completed());
    assert!(store.record_count(restored) > 0);

    let (dag, second) = job();
    let registry = Arc::new(SnapshotRegistry::new(store.clone(), 0));
    registry.fast_forward_to(restored);
    let exec = build_local(&dag, &config(), &registry, Some((&store, restored))).unwrap();
    jet_core::exec::spawn_threaded(exec.tasklets, 2, exec.cancelled).join();

    // The rebuilt execution resumes at the first window the snapshot had not
    // emitted. Of the stopped execution only the windows before that count:
    // it ran on past the snapshot and, when stopped, flushed partial ones.
    let second = rows(&second);
    let resumed_at = second.iter().map(|r| r.1).min().expect("no output");
    let mut got: Vec<_> = rows(&first)
        .into_iter()
        .filter(|r| r.1 < resumed_at)
        .chain(second)
        .collect();
    got.sort_unstable();
    assert!(
        got.first().unwrap().1 < resumed_at,
        "restored from an empty state"
    );
    assert_eq!(got.len(), expected.len());
    let differing: Vec<_> = got
        .iter()
        .zip(&expected)
        .filter(|(got, expected)| got != expected)
        .take(5)
        .collect();
    assert!(
        differing.is_empty(),
        "(key, window end, count) got vs. uninterrupted: {differing:?}"
    );
}

#[test]
fn q5_rebuilt_from_a_snapshot_on_real_threads_matches_the_uninterrupted_run() {
    q5_rebuilt_from_a_snapshot_matches_the_uninterrupted_run(
        1,
        jet_core::tasklet::DEFAULT_BATCH,
        std::time::Duration::from_millis(20),
    );
}

/// The same with the outboxes full: a flat-map fused into the source makes
/// eight outputs per event into outboxes that admit four, so most barriers
/// find the source waiting for room. An output the source had emitted but
/// not handed on would be missing from the snapshot and, its source offset
/// being saved, lost by the restore.
#[test]
fn q5_behind_a_full_outbox_rebuilt_from_a_snapshot_matches_the_uninterrupted_run() {
    q5_rebuilt_from_a_snapshot_matches_the_uninterrupted_run(
        8,
        4,
        std::time::Duration::from_millis(5),
    );
}

/// Compile `p` for two workers, check its vertices (name, runs fused onto
/// it), and run it to completion on two real worker threads.
fn run_on_two_threads(p: &Pipeline, shape: &[(&str, usize)]) {
    let dag = p.compile(2).unwrap();
    let got: Vec<_> = dag
        .vertices()
        .iter()
        .map(|v| (v.name.as_str(), v.fused.len()))
        .collect();
    assert_eq!(got, shape);
    let registry = Arc::new(jet_core::SnapshotRegistry::disabled());
    let exec =
        jet_core::plan::build_local(&dag, &jet_core::plan::LocalConfig::new(2), &registry, None)
            .unwrap();
    jet_core::exec::spawn_threaded(exec.tasklets, 2, exec.cancelled).join();
}

/// Fused stages on real threads: Q1's transforms ride on the source's
/// outbox, Q5's flat-map on the source's and its result map on
/// `window-combine`'s. Each sink gets exactly what a plain fold over the
/// generated events gives.
#[test]
fn fused_q1_and_q5_on_two_threads_match_a_plain_fold() {
    use jet_nexmark::Bid;
    const RATE: u64 = 1_000_000;
    const LIMIT: u64 = 40_000;
    let nex = small_nexmark();
    let bids: Vec<Bid> = reference_events(&nex, RATE, LIMIT)
        .iter()
        .filter_map(|e| e.as_bid().cloned())
        .collect();

    let p = Pipeline::create();
    let out: Collected<(u64, i64)> = Arc::new(Mutex::new(Vec::new()));
    let src = queries::source(&p, &nex, RATE, Some(LIMIT), WatermarkPolicy::default());
    queries::q1(&src)
        .map(|b: &Bid| (b.auction, b.price))
        .write_to_collect(out.clone());
    run_on_two_threads(&p, &[("nexmark", 3), ("collect-sink", 0)]);
    let mut got: Vec<_> = out.lock().iter().map(|(_, row)| *row).collect();
    let mut want: Vec<_> = bids
        .iter()
        .map(|b| (b.auction, (b.price as f64 * 0.908) as i64))
        .collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want);

    let wdef = jet_pipeline::WindowDef::sliding(20_000_000, 5_000_000);
    let p = Pipeline::create();
    let out: Collected<(u64, Ts, u64)> = Arc::new(Mutex::new(Vec::new()));
    let src = queries::source(&p, &nex, RATE, Some(LIMIT), WatermarkPolicy::default());
    queries::q5(&src, wdef)
        .map(|r: &jet_pipeline::WindowResult<u64, u64>| (r.key, r.end, r.value))
        .write_to_collect(out.clone());
    run_on_two_threads(
        &p,
        &[
            ("nexmark", 1),
            ("window-accumulate", 0),
            ("window-combine", 1),
            ("collect-sink", 0),
        ],
    );
    let mut want: HashMap<(u64, Ts), u64> = HashMap::new();
    for b in &bids {
        let first_end = wdef.frame_end(b.ts);
        for end in (first_end..first_end + wdef.size).step_by(wdef.slide as usize) {
            *want.entry((b.auction, end)).or_insert(0) += 1;
        }
    }
    let mut got: HashMap<(u64, Ts), u64> = HashMap::new();
    for (_, (key, end, count)) in out.lock().iter() {
        assert!(got.insert((*key, *end), *count).is_none(), "window twice");
    }
    assert_eq!(got, want);
}

/// A tasklet that logs its id on every call, progresses `left` times and
/// then finishes.
struct Logging {
    id: u32,
    job: u32,
    left: usize,
    log: Arc<Mutex<Vec<u32>>>,
}

impl jet_core::Tasklet for Logging {
    fn call(&mut self) -> jet_util::Progress {
        self.log.lock().push(self.id);
        if self.left == 0 {
            return jet_util::Progress::Done;
        }
        self.left -= 1;
        jet_util::Progress::MadeProgress
    }
    fn name(&self) -> &str {
        "logging"
    }
    fn job(&self) -> u32 {
        self.job
    }
}

/// Tasklets of three jobs whose lifetimes make several finish mid-run, the
/// one at index 0 first.
fn logging_tasklets(log: &Arc<Mutex<Vec<u32>>>) -> Vec<Box<dyn jet_core::Tasklet>> {
    [(1, 1), (2, 4), (0, 2), (1, 6), (2, 3), (0, 5), (1, 2)]
        .into_iter()
        .enumerate()
        .map(|(id, (job, left))| {
            Box::new(Logging {
                id: id as u32,
                job,
                left,
                log: log.clone(),
            }) as Box<dyn jet_core::Tasklet>
        })
        .collect()
}

/// The same scheduler on both clocks: one worker thread and one virtual core
/// poll the same tasklets in the same order, without quotas and with them.
#[test]
fn one_worker_thread_and_one_virtual_core_poll_in_the_same_order() {
    use jet_core::fairness::JobQuotas;
    use std::sync::atomic::AtomicBool;
    for quotas in [None, Some(JobQuotas::new().with_weight(1, 3))] {
        let threaded = Arc::new(Mutex::new(Vec::new()));
        jet_core::exec::spawn_threaded_with(
            logging_tasklets(&threaded),
            1,
            Arc::new(AtomicBool::new(false)),
            None,
            quotas.as_ref(),
        )
        .join();

        let simulated = Arc::new(Mutex::new(Vec::new()));
        // One quantum holds every call of the run: no round is ever cut.
        let mut sim = jet_sim::Simulator::new(
            Arc::new(jet_util::ManualClock::new()),
            jet_sim::CostModel::default(),
            SEC,
        );
        let core = sim.add_core();
        for t in logging_tasklets(&simulated) {
            sim.assign(core, t, None);
        }
        if let Some(q) = &quotas {
            sim.set_job_quotas(q);
        }
        assert!(sim.run_until_done(10 * SEC));

        let threaded = threaded.lock();
        assert_eq!(threaded.len(), 23 + 7, "every call and every Done");
        assert_eq!(*threaded, *simulated.lock(), "quotas: {quotas:?}");
    }
}

/// Records the timer slack of the thread that polls it, then finishes.
struct SlackProbe {
    cooperative: bool,
    seen: Arc<Mutex<Vec<Option<std::time::Duration>>>>,
}

impl jet_core::Tasklet for SlackProbe {
    fn call(&mut self) -> jet_util::Progress {
        self.seen.lock().push(jet_util::idle::timer_slack());
        jet_util::Progress::Done
    }
    fn name(&self) -> &str {
        "slack-probe"
    }
    fn is_cooperative(&self) -> bool {
        self.cooperative
    }
}

/// Parks are precise on every executor: a cooperative worker, a dedicated
/// thread and the thread-per-operator baseline all run with the minimum
/// timer slack, so a 15 µs park is not stretched by the kernel's default
/// 50 µs.
#[test]
fn every_executor_thread_parks_with_minimal_timer_slack() {
    use jet_core::exec::{spawn_thread_per_operator, spawn_threaded};
    use std::sync::atomic::AtomicBool;
    let seen = Arc::new(Mutex::new(Vec::new()));
    let probe = |cooperative| {
        Box::new(SlackProbe {
            cooperative,
            seen: seen.clone(),
        }) as Box<dyn jet_core::Tasklet>
    };
    spawn_threaded(
        vec![probe(true), probe(false)],
        1,
        Arc::new(AtomicBool::new(false)),
    )
    .join();
    spawn_thread_per_operator(vec![probe(true)], Arc::new(AtomicBool::new(false))).join();

    let seen = seen.lock();
    assert_eq!(seen.len(), 3, "one probe per executor thread");
    for slack in seen.iter() {
        if cfg!(target_os = "linux") {
            let slack = slack.expect("PR_GET_TIMERSLACK answers on Linux");
            assert!(
                slack <= std::time::Duration::from_micros(1),
                "a worker thread runs with {slack:?} of timer slack"
            );
        } else {
            assert_eq!(*slack, None);
        }
    }
}
