//! Chaos suite: seeded random fault schedules against a windowed
//! exactly-once job with heartbeat failure detection and self-healing
//! recovery.
//!
//! Every run draws a deterministic [`FaultPlan`] (crashes, stalls,
//! partitions, channel chaos, snapshot-store outages) and asserts the
//! end-to-end invariants:
//!
//! * the job always completes (recovery self-heals, retries survive store
//!   outages);
//! * no window count is lost or duplicated — re-emissions after a restore
//!   must be bit-identical, checked through an idempotent `(key, window
//!   end) → count` view of the sink (the paper's exactly-once guarantee
//!   presumes idempotent or transactional sinks);
//! * pure-delay faults (stall/partition/chaos without a crash) never fence
//!   a member — the suspicion grace absorbs them;
//! * the same seed replays bit-for-bit: same fault schedule, same cluster
//!   event log, same outputs.
//!
//! Seed count comes from `JET_CHAOS_SEEDS` (CI runs 200; the default keeps
//! local `cargo test` fast). On failure the offending seed, the fault
//! schedule, and a diagnostics dump file are printed so the run can be
//! replayed exactly.

use jet_cluster::{ClusterEvent, CoordinatorConfig, SimCluster, SimClusterConfig};
use jet_core::processor::Guarantee;
use jet_core::processors::agg::counting;
use jet_core::Ts;
use jet_pipeline::{Pipeline, WindowDef, WindowResult};
use jet_sim::{FaultPlan, RandomFaultSpec};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000_000_000;
const LIMIT: u64 = 60_000; // 60 ms of stream at 1M events/s
const KEYS: u64 = 16;
/// Keys of the odd 10 ms frames in `run_plan`: about one event per key and
/// stage-1 instance, where the even frames have ~100.
const WIDE_KEYS: u64 = 4096;
const WINDOW: Ts = 10 * MS as Ts;

fn chaos_seeds() -> Vec<u64> {
    let n: u64 = std::env::var("JET_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    (0..n).collect()
}

/// Everything one chaos run produced, for assertions and replay checks.
struct ChaosRun {
    seed: u64,
    digest: String,
    done: bool,
    failed: Option<String>,
    events: Vec<ClusterEvent>,
    collected: Vec<(Ts, WindowResult<u64, u64>)>,
    /// Windows each event is counted in.
    frames_per_window: u64,
    fences: u64,
    dump: String,
}

/// Odd seeds run a window that slides by a quarter of its size, so the
/// running accumulators, their retirement and the fold ahead of each
/// window's watermark are crashed and restored too; even seeds tumble.
fn window_of(seed: u64) -> WindowDef {
    if seed % 2 == 1 {
        WindowDef::sliding(4 * WINDOW, WINDOW)
    } else {
        WindowDef::tumbling(WINDOW)
    }
}

fn run_plan(seed: u64, plan: FaultPlan) -> ChaosRun {
    let digest = plan.digest();
    let wdef = window_of(seed);
    let p = Pipeline::create();
    let out = Arc::new(Mutex::new(Vec::new()));
    p.read_from_generator_cfg(
        "gen",
        1_000_000,
        Some(LIMIT),
        jet_core::processors::WatermarkPolicy::default(),
        // Frames alternate between few and many keys, so the window's stage
        // 1 flips between holding a frame and forwarding its events at once
        // under every fault schedule.
        |seq, _ts| {
            if (seq / 10_000).is_multiple_of(2) {
                seq % KEYS
            } else {
                KEYS + seq % WIDE_KEYS
            }
        },
    )
    .grouping_key(|k: &u64| *k)
    .window(wdef)
    .aggregate(counting::<u64>())
    .write_to_collect(out.clone());
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 3,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        fault_plan: Some(plan),
        coordinator: Some(CoordinatorConfig::default()),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    let done = cluster.run_for(SEC);
    let collected = out.lock().clone();
    ChaosRun {
        seed,
        digest,
        done,
        failed: cluster.failed().map(str::to_string),
        events: cluster.cluster_events(),
        collected,
        frames_per_window: wdef.frames_per_window() as u64,
        fences: cluster.coordinator().map(|c| c.fences()).unwrap_or(0),
        dump: cluster.diagnostics_dump(),
    }
}

/// The idempotent-sink view: group emissions by `(key, window end)`. A
/// re-emission after recovery must carry the identical count; the deduped
/// sum must equal the stream length times the windows each event is in.
fn check_exactly_once(run: &ChaosRun) -> Result<(), String> {
    let mut windows: HashMap<(u64, Ts), u64> = HashMap::new();
    for (_, r) in &run.collected {
        if let Some(prev) = windows.insert((r.key, r.end), r.value) {
            if prev != r.value {
                return Err(format!(
                    "conflicting re-emission for key {} window-end {}: {} vs {}",
                    r.key, r.end, prev, r.value
                ));
            }
        }
    }
    let total: u64 = windows.values().sum();
    let want = LIMIT * run.frames_per_window;
    if total != want {
        return Err(format!(
            "window counts lost or duplicated: deduped sum {total} != {want}"
        ));
    }
    Ok(())
}

fn check_run(run: &ChaosRun) -> Result<(), String> {
    if let Some(f) = &run.failed {
        return Err(format!("job declared lost: {f}"));
    }
    if !run.done {
        return Err("job did not complete within the virtual budget".into());
    }
    check_exactly_once(run)?;
    // Only crashed members may be fenced, and a crash must be healed by a
    // completed recovery.
    let crashes: Vec<u32> = crashed_members(&run.digest);
    let fenced: Vec<u32> = run
        .events
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::Fenced { member, .. } => Some(*member),
            _ => None,
        })
        .collect();
    for m in &fenced {
        if !crashes.contains(m) {
            return Err(format!("member {m} fenced without having crashed"));
        }
    }
    let recovered = run
        .events
        .iter()
        .any(|e| matches!(e, ClusterEvent::RecoveryCompleted { .. }));
    if !fenced.is_empty() && !recovered {
        return Err("fence without a completed recovery".into());
    }
    Ok(())
}

/// Members crashed by the plan, parsed from the digest (test-side only; the
/// digest format is stable by contract).
fn crashed_members(digest: &str) -> Vec<u32> {
    digest
        .lines()
        .filter_map(|l| {
            let idx = l.find("crash(m")?;
            l[idx + 7..].split(')').next()?.parse().ok()
        })
        .collect()
}

fn fail_with_diagnostics(run: &ChaosRun, err: &str) -> ! {
    let path = format!(
        "{}/chaos-seed-{}-dump.txt",
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
        run.seed
    );
    let mut windows: HashMap<(u64, Ts), Vec<u64>> = HashMap::new();
    for (_, r) in &run.collected {
        windows.entry((r.key, r.end)).or_default().push(r.value);
    }
    let mut rows: Vec<_> = windows.into_iter().collect();
    rows.sort_unstable_by_key(|&((k, e), _)| (e, k));
    let window_table = rows
        .iter()
        .map(|((k, e), vs)| format!("  end={e:>12} key={k:>3} values={vs:?}"))
        .collect::<Vec<_>>()
        .join("\n");
    let artifact = format!(
        "chaos seed {} FAILED: {}\n\nfault schedule:\n{}\n\ncluster events:\n{}\n\nwindows:\n{}\n\n{}",
        run.seed,
        err,
        if run.digest.is_empty() {
            "(empty)"
        } else {
            &run.digest
        },
        run.events
            .iter()
            .map(|e| format!("  {:>12}ns {}", e.at(), e.label()))
            .collect::<Vec<_>>()
            .join("\n"),
        window_table,
        run.dump
    );
    let _ = std::fs::write(&path, &artifact);
    eprintln!("{artifact}");
    eprintln!("diagnostics dump written to {path}");
    panic!("chaos seed {} failed: {}", run.seed, err);
}

#[test]
fn seeded_fault_schedules_preserve_exactly_once() {
    let spec = RandomFaultSpec::default();
    for seed in chaos_seeds() {
        let run = run_plan(seed, FaultPlan::random(seed, &spec));
        if let Err(e) = check_run(&run) {
            fail_with_diagnostics(&run, &e);
        }
    }
}

#[test]
fn same_seed_replays_bit_for_bit() {
    let spec = RandomFaultSpec::default();
    // Pick the first seed whose plan contains a crash so the replay check
    // covers detection + recovery, not just clean runs.
    let seed = (0..500)
        .find(|&s| !crashed_members(&FaultPlan::random(s, &spec).digest()).is_empty())
        .expect("no crashing seed in range");
    let a = run_plan(seed, FaultPlan::random(seed, &spec));
    let b = run_plan(seed, FaultPlan::random(seed, &spec));
    assert_eq!(a.digest, b.digest, "fault schedules diverged");
    assert_eq!(a.events, b.events, "cluster event logs diverged");
    assert_eq!(a.done, b.done);
    let key = |v: &[(Ts, WindowResult<u64, u64>)]| {
        let mut k: Vec<(Ts, u64, Ts, u64)> =
            v.iter().map(|(t, r)| (*t, r.key, r.end, r.value)).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(key(&a.collected), key(&b.collected), "outputs diverged");
}

#[test]
fn pure_delay_faults_never_cause_a_false_kill() {
    // Stall + partition + chaos, no crash: worst-case composition of every
    // delay fault. The detector may suspect, but must always clear.
    for seed in [3, 17, 40] {
        let mut plan = FaultPlan::new(seed);
        plan.stall(20 * MS, 1, 3 * MS)
            .partition(23 * MS, 3 * MS, vec![1])
            .chaos(5 * MS, 60 * MS, 200_000, MS);
        let run = run_plan(seed, plan);
        if let Err(e) = check_run(&run) {
            fail_with_diagnostics(&run, &e);
        }
        if run.fences != 0 {
            fail_with_diagnostics(&run, "pure-delay fault fenced a live member");
        }
        let suspected = run
            .events
            .iter()
            .filter(|e| matches!(e, ClusterEvent::Suspected { .. }))
            .count();
        let cleared = run
            .events
            .iter()
            .filter(|e| matches!(e, ClusterEvent::Cleared { .. }))
            .count();
        assert_eq!(
            suspected, cleared,
            "seed {seed}: every suspicion must be cleared"
        );
    }
}

#[test]
fn detected_crash_fences_after_grace_and_recovers() {
    let crash_at = 30 * MS;
    let mut plan = FaultPlan::new(99);
    plan.crash(crash_at, 2);
    let run = run_plan(99, plan);
    if let Err(e) = check_run(&run) {
        fail_with_diagnostics(&run, &e);
    }
    let cfg = CoordinatorConfig::default();
    let fence_at = run
        .events
        .iter()
        .find_map(|e| match e {
            ClusterEvent::Fenced { member: 2, at } => Some(*at),
            _ => None,
        })
        .unwrap_or_else(|| fail_with_diagnostics(&run, "crash was never fenced"));
    // Detection delay is real and bounded: at least the fencing grace, at
    // most grace + heartbeat interval + delivery + scheduling slack.
    assert!(
        fence_at >= crash_at + cfg.suspect_after,
        "fenced before the grace could elapse: {fence_at}"
    );
    assert!(
        fence_at <= crash_at + cfg.fence_after + 5 * MS,
        "detection took too long: {}ns after crash",
        fence_at - crash_at
    );
    // Fence → recovery completed from a snapshot (interval 5 ms, crash at
    // 30 ms: a recovery point must exist).
    let recovery = run.events.iter().find_map(|e| match e {
        ClusterEvent::RecoveryCompleted { snapshot, at, .. } => Some((*snapshot, *at)),
        _ => None,
    });
    match recovery {
        Some((Some(_), at)) => assert!(at >= fence_at),
        Some((None, _)) => fail_with_diagnostics(&run, "expected warm restore, got cold restart"),
        None => fail_with_diagnostics(&run, "no completed recovery"),
    }
}

#[test]
fn crash_before_first_snapshot_degrades_to_cold_restart() {
    // Crash at 2 ms, before the first 5 ms snapshot: no recovery point
    // exists, the documented degraded mode is a cold restart from the
    // sources — still exactly-once through the idempotent sink view.
    let mut plan = FaultPlan::new(7);
    plan.crash(2 * MS, 1);
    let run = run_plan(7, plan);
    if let Err(e) = check_run(&run) {
        fail_with_diagnostics(&run, &e);
    }
    let cold = run
        .events
        .iter()
        .any(|e| matches!(e, ClusterEvent::RecoveryCompleted { snapshot: None, .. }));
    if !cold {
        fail_with_diagnostics(&run, "expected a cold restart recovery");
    }
}

#[test]
fn store_read_outage_makes_recovery_retry_with_backoff() {
    let crash_at = 30 * MS;
    let outage = 12 * MS;
    let mut plan = FaultPlan::new(5);
    plan.crash(crash_at, 0);
    // The outage starts at the crash and outlives the fence (~11 ms after
    // the crash), so the first recovery attempt must fail and retry.
    plan.store_read_outage(crash_at, outage + 12 * MS);
    let run = run_plan(5, plan);
    if let Err(e) = check_run(&run) {
        fail_with_diagnostics(&run, &e);
    }
    let failures: Vec<u64> = run
        .events
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::RecoveryFailed { at, .. } => Some(*at),
            _ => None,
        })
        .collect();
    if failures.is_empty() {
        fail_with_diagnostics(&run, "read outage did not fail any recovery attempt");
    }
    // Attempts must space out (exponential backoff), and recovery must
    // eventually complete once the outage lifts.
    for pair in failures.windows(2) {
        assert!(pair[1] > pair[0], "retries not ordered");
    }
    let completed = run
        .events
        .iter()
        .any(|e| matches!(e, ClusterEvent::RecoveryCompleted { .. }));
    if !completed {
        fail_with_diagnostics(&run, "recovery never completed after outage lifted");
    }
}

#[test]
fn store_write_outage_poisons_snapshots_but_recovery_survives() {
    // Writes fail from 10 ms to 25 ms: snapshots taken in the window are
    // poisoned (never become recovery points). The crash at 35 ms must
    // recover from a snapshot taken outside the window.
    let mut plan = FaultPlan::new(11);
    plan.store_write_outage(10 * MS, 15 * MS);
    plan.crash(35 * MS, 1);
    let run = run_plan(11, plan);
    if let Err(e) = check_run(&run) {
        fail_with_diagnostics(&run, &e);
    }
    let recovered_from = run.events.iter().find_map(|e| match e {
        ClusterEvent::RecoveryCompleted { snapshot, .. } => Some(*snapshot),
        _ => None,
    });
    match recovered_from {
        Some(Some(_)) => {}
        Some(None) => fail_with_diagnostics(&run, "expected warm restore despite write outage"),
        None => fail_with_diagnostics(&run, "no completed recovery"),
    }
}

/// The tentpole's headline scenario on a real query: NEXMark Q5 (a 40 ms
/// window sliding by 10 ms) under exactly-once with a detected crash. Window counts over auction bids
/// aren't globally predictable like the counting job above, so the oracle
/// is a fault-free twin: a detected crash plus recovery must reproduce the
/// exact same deduped window counts the clean run produces, and the same
/// seed must replay bit-for-bit.
#[test]
fn nexmark_q5_survives_a_detected_crash_with_identical_results() {
    type Out = Arc<Mutex<Vec<(Ts, WindowResult<u64, u64>)>>>;
    let run_q5 = |plan: Option<FaultPlan>| {
        let p = Pipeline::create();
        let out: Out = Arc::new(Mutex::new(Vec::new()));
        let nex = jet_nexmark::NexmarkConfig {
            people: 50,
            auctions: 50,
            ..Default::default()
        };
        let src = jet_nexmark::queries::source(
            &p,
            &nex,
            1_000_000,
            Some(60_000),
            jet_core::processors::WatermarkPolicy::default(),
        );
        jet_nexmark::queries::q5(&src, WindowDef::sliding(4 * WINDOW, WINDOW))
            .write_to_collect(out.clone());
        let dag = p.compile(2).unwrap();
        let cfg = SimClusterConfig {
            members: 3,
            cores_per_member: 2,
            partition_count: 31,
            guarantee: Guarantee::ExactlyOnce,
            snapshot_interval: 5 * MS,
            coordinator: Some(CoordinatorConfig::default()),
            fault_plan: plan,
            ..Default::default()
        };
        let mut cluster = SimCluster::start(dag, cfg).unwrap();
        let done = cluster.run_for(SEC);
        assert!(done, "Q5 did not complete");
        assert!(
            cluster.failed().is_none(),
            "job lost: {:?}",
            cluster.failed()
        );
        let mut windows: HashMap<(u64, Ts), u64> = HashMap::new();
        for (_, r) in out.lock().iter() {
            if let Some(prev) = windows.insert((r.key, r.end), r.value) {
                assert_eq!(prev, r.value, "conflicting re-emission in Q5");
            }
        }
        let mut v: Vec<_> = windows.into_iter().collect();
        v.sort_unstable();
        (v, cluster.cluster_events())
    };
    let crash_plan = || {
        let mut plan = FaultPlan::new(0x45);
        plan.crash(25 * MS, 2);
        plan
    };
    let (clean, _) = run_q5(None);
    let (faulted, events) = run_q5(Some(crash_plan()));
    assert!(!clean.is_empty(), "Q5 produced no windows");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ClusterEvent::RecoveryCompleted { .. })),
        "crash was never recovered"
    );
    assert_eq!(
        faulted, clean,
        "detected crash changed Q5's deduped window counts"
    );
    // Same seed, same crash: bit-for-bit replay.
    let (replay, replay_events) = run_q5(Some(crash_plan()));
    assert_eq!(replay, faulted);
    assert_eq!(replay_events, events);
}

/// Tentpole closing assertion: a spike caused by an injected crash must be
/// attributed to the failure-detection/recovery phases by the flight
/// recorder — never to whichever innocent vertex happened to be running
/// during the outage — and the decomposition must partition the measured
/// spike exactly.
#[test]
fn fault_spikes_attribute_to_recovery_not_an_innocent_vertex() {
    use jet_core::flight::{Recorder, RecorderConfig, WatchdogConfig};
    use jet_core::metrics::{SharedCounter, SharedHistogram};

    let mut plan = FaultPlan::new(4242);
    plan.crash(20 * MS, 1);

    let p = Pipeline::create();
    let hist = SharedHistogram::new();
    let count = SharedCounter::new();
    // The stream is only 60 ms long — far less than one adaptive epoch —
    // so arm a hard SLO between the steady-state window-emission latency
    // (~2-3 ms past each window end) and the outage peak (detection grace
    // ~9.5 ms + snapshot replay).
    let recorder = Recorder::new(RecorderConfig {
        watchdog: Some(WatchdogConfig {
            slo_nanos: Some(6 * MS),
        }),
        ..RecorderConfig::default()
    });
    p.read_from_generator_cfg(
        "gen",
        1_000_000,
        Some(LIMIT),
        jet_core::processors::WatermarkPolicy::default(),
        |seq, _ts| seq % KEYS,
    )
    .grouping_key(|k: &u64| *k)
    .window(WindowDef::tumbling(WINDOW))
    .aggregate(counting::<u64>())
    .write_to_latency_recorded(hist, count, recorder.clone());
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 3,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        fault_plan: Some(plan),
        coordinator: Some(CoordinatorConfig::default()),
        recorder: recorder.clone(),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    let done = cluster.run_for(SEC);
    assert!(done, "job did not complete");
    assert!(
        cluster.failed().is_none(),
        "job lost: {:?}",
        cluster.failed()
    );

    let incidents = cluster.spike_forensics();
    assert!(
        !incidents.is_empty(),
        "the crash outage produced no spike incidents (observed={} threshold={}ns)",
        recorder.stats().observed,
        recorder.stats().threshold
    );
    // Incidents come worst-first; the outage spike dominates this stream.
    let a = &incidents[0].attribution;
    assert_eq!(
        a.top_group, "recovery",
        "outage spike blamed {:?} ({}) instead of the recovery phases:\n{:#?}",
        a.top_cause, a.top_group, a.slices
    );
    assert!(
        a.blamed_vertex.is_none(),
        "an innocent vertex was blamed: {:?}",
        a.blamed_vertex
    );
    let sum: u64 = a.slices.iter().map(|s| s.nanos).sum();
    assert_eq!(
        sum, a.total_nanos,
        "slices must partition the spike exactly"
    );
    assert_eq!(a.total_nanos, incidents[0].incident.peak_latency);
}
