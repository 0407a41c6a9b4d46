//! Chaos-hardened autoscaling: the elastic controller drives live
//! rescales while seeded fault schedules fire *during* its decision
//! windows and mid-rescale.
//!
//! Deterministic lanes first (an undersized cluster scales up, an
//! oversized one scales down, a failed rescale climbs the backoff ladder
//! instead of flapping), then the chaos lane: every seed draws a
//! [`FaultPlan::random_in_window`] aimed at the controller's first
//! decision window and the rescale that follows, and asserts the
//! end-to-end invariants:
//!
//! * the job always completes and no window count is lost or duplicated
//!   (the same idempotent-sink oracle as tests/chaos.rs);
//! * no flapping — adjacent decisions in *different* directions are at
//!   least one cooldown apart, no matter what faults fired;
//! * only crashed members are ever fenced;
//! * the same seed replays bit-for-bit: fault schedule, cluster events,
//!   controller decision timeline, and outputs.
//!
//! Seed count comes from `JET_CHAOS_SEEDS` (CI runs 100 via the
//! chaos-autoscale job; the default keeps local `cargo test` fast). On
//! failure the seed, fault schedule, decision timeline, and a diagnostics
//! dump file are printed so the run can be replayed exactly.

use jet_cluster::{
    ClusterEvent, ControllerConfig, ControllerEvent, CoordinatorConfig, Direction, SimCluster,
    SimClusterConfig,
};
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
const KEYS: u64 = 16;
const WINDOW: Ts = 10 * MS as Ts;

/// Shared sink the collect stage appends `(close_ts, window)` pairs into.
type Collected = Arc<Mutex<Vec<(Ts, WindowResult<u64, u64>)>>>;

fn chaos_seeds() -> Vec<u64> {
    let n: u64 = std::env::var("JET_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    (0..n).collect()
}

/// A keyed windowed count over a bounded generated stream.
fn counting_job(rate: u64, limit: u64) -> (Pipeline, Collected) {
    let p = Pipeline::create();
    let out = Arc::new(Mutex::new(Vec::new()));
    p.read_from_generator_cfg(
        "gen",
        rate,
        Some(limit),
        jet_core::processors::WatermarkPolicy::default(),
        |seq, _ts| seq % KEYS,
    )
    .grouping_key(|k: &u64| *k)
    .window(WindowDef::tumbling(WINDOW))
    .aggregate(counting::<u64>())
    .write_to_collect(out.clone());
    (p, out)
}

/// Everything one autoscaled run produced, for assertions and replay.
struct ScaleRun {
    seed: u64,
    limit: u64,
    digest: String,
    done: bool,
    failed: Option<String>,
    events: Vec<ClusterEvent>,
    ctl_events: Vec<ControllerEvent>,
    cooldown: u64,
    members_final: usize,
    collected: Vec<(Ts, WindowResult<u64, u64>)>,
    dump: String,
}

fn run_scaled(
    seed: u64,
    rate: u64,
    limit: u64,
    members: usize,
    ctl: ControllerConfig,
    plan: Option<FaultPlan>,
) -> ScaleRun {
    let digest = plan.as_ref().map(|p| p.digest()).unwrap_or_default();
    let cooldown = ctl.cooldown;
    let (p, out) = counting_job(rate, limit);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        fault_plan: plan,
        coordinator: Some(CoordinatorConfig::default()),
        controller: Some(ctl),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    let done = cluster.run_for(2 * SEC);
    let collected = out.lock().clone();
    ScaleRun {
        seed,
        limit,
        digest,
        done,
        failed: cluster.failed().map(str::to_string),
        events: cluster.cluster_events(),
        ctl_events: cluster.controller_events(),
        cooldown,
        members_final: cluster.grid().members().len(),
        collected,
        dump: cluster.diagnostics_dump(),
    }
}

/// The idempotent-sink view: re-emissions after a restore must be
/// bit-identical and the deduped sum must equal the stream length.
fn check_exactly_once(run: &ScaleRun) -> Result<(), String> {
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
    if total != run.limit {
        return Err(format!(
            "window counts lost or duplicated: deduped sum {total} != {}",
            run.limit
        ));
    }
    Ok(())
}

/// The no-flap oracle: any two adjacent decisions in *different*
/// directions must be at least one cooldown apart — "at most one
/// direction change per cooldown window", whatever faults fired.
fn check_no_flap(run: &ScaleRun) -> Result<(), String> {
    let decisions: Vec<(u64, Direction)> = run
        .ctl_events
        .iter()
        .filter_map(|e| match e {
            ControllerEvent::Decided { at, direction, .. } => Some((*at, *direction)),
            _ => None,
        })
        .collect();
    for pair in decisions.windows(2) {
        let ((t0, d0), (t1, d1)) = (pair[0], pair[1]);
        if d0 != d1 && t1.saturating_sub(t0) < run.cooldown {
            return Err(format!(
                "flap: scale-{} at {t0} then scale-{} at {t1} within one \
                 cooldown ({}ns)",
                d0.name(),
                d1.name(),
                run.cooldown
            ));
        }
    }
    Ok(())
}

fn check_run(run: &ScaleRun) -> Result<(), String> {
    if let Some(f) = &run.failed {
        return Err(format!("job declared lost: {f}"));
    }
    if !run.done {
        return Err("job did not complete within the virtual budget".into());
    }
    check_exactly_once(run)?;
    check_no_flap(run)?;
    // Only crashed members may be fenced (controller-ordered removals go
    // through graceful shutdown, never the fence path).
    let crashes = crashed_members(&run.digest);
    for e in &run.events {
        if let ClusterEvent::Fenced { member, .. } = e {
            if !crashes.contains(member) {
                return Err(format!("member {member} fenced without having crashed"));
            }
        }
    }
    Ok(())
}

/// Members crashed by the plan, parsed from the digest (test-side only;
/// the digest format is stable by contract).
fn crashed_members(digest: &str) -> Vec<u32> {
    digest
        .lines()
        .filter_map(|l| {
            let idx = l.find("crash(m")?;
            l[idx + 7..].split(')').next()?.parse().ok()
        })
        .collect()
}

fn fail_with_diagnostics(run: &ScaleRun, err: &str) -> ! {
    let path = format!(
        "{}/chaos-autoscale-seed-{}-dump.txt",
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
        run.seed
    );
    let artifact = format!(
        "chaos-autoscale seed {} FAILED: {}\n\nfault schedule:\n{}\n\n\
         controller decisions:\n{}\n\ncluster events:\n{}\n\n{}",
        run.seed,
        err,
        if run.digest.is_empty() {
            "(none)"
        } else {
            &run.digest
        },
        run.ctl_events
            .iter()
            .map(|e| format!("  {:>12}ns {}", e.at(), e.label()))
            .collect::<Vec<_>>()
            .join("\n"),
        run.events
            .iter()
            .map(|e| format!("  {:>12}ns {}", e.at(), e.label()))
            .collect::<Vec<_>>()
            .join("\n"),
        run.dump
    );
    let _ = std::fs::write(&path, &artifact);
    eprintln!("{artifact}");
    eprintln!("diagnostics dump written to {path}");
    panic!("chaos-autoscale seed {} failed: {}", run.seed, err);
}

/// Controller tuned for the deterministic lanes: decisions possible from
/// ~15 ms (4 samples on a 5 ms cadence), long cooldown so a bounded
/// stream sees at most one rescale per direction.
fn lane_controller() -> ControllerConfig {
    ControllerConfig {
        cadence: 5 * MS,
        window: 4,
        cooldown: 100 * MS,
        rescale_max_wait: SEC,
        ..ControllerConfig::default()
    }
}

/// An undersized cluster (2 members saturated by the source) must scale
/// up — and the live rescale must not lose or duplicate a single event.
#[test]
fn controller_scales_up_an_undersized_cluster() {
    let ctl = ControllerConfig {
        scale_up_occupancy: 700_000,
        scale_down_occupancy: 0,
        min_members: 2,
        max_members: 3,
        ..lane_controller()
    };
    // 16M events/s against 2 members x 2 cores at ~300 ns/event of summed
    // stage cost: comfortably past saturation.
    let run = run_scaled(0, 16_000_000, 600_000, 2, ctl, None);
    if let Err(e) = check_run(&run) {
        fail_with_diagnostics(&run, &e);
    }
    let decided_up = run.ctl_events.iter().any(|e| {
        matches!(
            e,
            ControllerEvent::Decided {
                direction: Direction::Up,
                ..
            }
        )
    });
    if !decided_up {
        fail_with_diagnostics(&run, "saturated cluster never decided to scale up");
    }
    let completed = run.ctl_events.iter().any(|e| {
        matches!(
            e,
            ControllerEvent::RescaleCompleted {
                direction: Direction::Up,
                members: 3,
                ..
            }
        )
    });
    if !completed {
        fail_with_diagnostics(&run, "scale-up was decided but never completed");
    }
    if run.members_final != 3 {
        fail_with_diagnostics(
            &run,
            &format!(
                "expected 3 members after scale-up, got {}",
                run.members_final
            ),
        );
    }
}

/// An oversized cluster (3 members nearly idle) must scale down to the
/// configured floor and stop there.
#[test]
fn controller_scales_down_an_idle_cluster_to_the_floor() {
    let ctl = ControllerConfig {
        scale_up_occupancy: 900_000,
        scale_down_occupancy: 300_000,
        min_members: 2,
        max_members: 3,
        ..lane_controller()
    };
    // 200k events/s against 3 members x 2 cores: a few percent occupancy.
    let run = run_scaled(0, 200_000, 12_000, 3, ctl, None);
    if let Err(e) = check_run(&run) {
        fail_with_diagnostics(&run, &e);
    }
    let completed = run.ctl_events.iter().any(|e| {
        matches!(
            e,
            ControllerEvent::RescaleCompleted {
                direction: Direction::Down,
                members: 2,
                ..
            }
        )
    });
    if !completed {
        fail_with_diagnostics(&run, "idle cluster never completed a scale-down");
    }
    if run.members_final != 2 {
        fail_with_diagnostics(
            &run,
            &format!(
                "expected the 2-member floor after scale-down, got {}",
                run.members_final
            ),
        );
    }
}

/// A rescale that keeps failing (snapshot store writes are dark, so the
/// terminal snapshot can never complete) must climb the bounded backoff
/// ladder and degrade — never flap, never wedge, never lose events.
#[test]
fn failed_rescales_back_off_then_degrade_instead_of_flapping() {
    let ctl = ControllerConfig {
        scale_up_occupancy: 700_000,
        scale_down_occupancy: 0,
        min_members: 2,
        max_members: 3,
        // Tight rescale budget + short ladder so the whole path fits the run.
        rescale_max_wait: 10 * MS,
        cooldown: 30 * MS,
        backoff_base: 10 * MS,
        backoff_max: 40 * MS,
        max_rescale_failures: 2,
        ..lane_controller()
    };
    let mut plan = FaultPlan::new(1);
    // Writes dark from just before the first decision (~15 ms) for longer
    // than the ladder can outlast: every terminal snapshot times out.
    plan.store_write_outage(12 * MS, 500 * MS);
    let run = run_scaled(1, 16_000_000, 1_200_000, 2, ctl, Some(plan));
    if let Err(e) = check_run(&run) {
        fail_with_diagnostics(&run, &e);
    }
    let failures: Vec<(u64, u32)> = run
        .ctl_events
        .iter()
        .filter_map(|e| match e {
            ControllerEvent::RescaleFailed { at, failures, .. } => Some((*at, *failures)),
            _ => None,
        })
        .collect();
    if failures.len() < 2 {
        fail_with_diagnostics(
            &run,
            &format!("expected repeated rescale failures, got {failures:?}"),
        );
    }
    for pair in failures.windows(2) {
        assert!(pair[1].0 > pair[0].0, "failures not ordered: {failures:?}");
        assert_eq!(
            pair[1].1,
            pair[0].1 + 1,
            "ladder must climb one rung per failure"
        );
    }
    let degraded = run
        .ctl_events
        .iter()
        .any(|e| matches!(e, ControllerEvent::Degraded { .. }));
    if !degraded {
        fail_with_diagnostics(&run, "ladder topped out but controller never degraded");
    }
    if run.members_final != 2 {
        fail_with_diagnostics(
            &run,
            "failed rescales must leave the cluster on its original topology",
        );
    }
}

/// Controller used by the chaos lane: saturated cluster, both directions
/// live, seeded backoff jitter.
fn chaos_controller(seed: u64) -> ControllerConfig {
    ControllerConfig {
        scale_up_occupancy: 700_000,
        scale_down_occupancy: 100_000,
        min_members: 1,
        max_members: 4,
        cadence: 5 * MS,
        window: 4,
        cooldown: 50 * MS,
        rescale_max_wait: 200 * MS,
        seed,
        ..ControllerConfig::default()
    }
}

fn chaos_plan(seed: u64) -> FaultPlan {
    // Aim the faults at the interesting interval: the controller's first
    // full window closes ~15-20 ms in, the first rescale runs just after.
    let spec = RandomFaultSpec::default();
    FaultPlan::random_in_window(seed, &spec, 10 * MS, 45 * MS)
}

fn run_chaos(seed: u64) -> ScaleRun {
    run_scaled(
        seed,
        16_000_000,
        400_000,
        3,
        chaos_controller(seed),
        Some(chaos_plan(seed)),
    )
}

/// The headline oracle: seeded faults fired into the decision window and
/// mid-rescale must never cost an event, flap the topology, or fence an
/// innocent member.
#[test]
fn autoscaling_under_seeded_faults_holds_every_oracle() {
    for seed in chaos_seeds() {
        let run = run_chaos(seed);
        if let Err(e) = check_run(&run) {
            fail_with_diagnostics(&run, &e);
        }
    }
}

/// Same seed, same chaos, same decisions: the controller timeline, the
/// cluster event log, and the outputs must replay bit-for-bit.
#[test]
fn same_seed_replays_controller_decisions_bit_for_bit() {
    // Prefer a seed whose plan crashes a member so the replay covers
    // detection + recovery interleaved with autoscaling decisions.
    let seed = (0..500)
        .find(|&s| !crashed_members(&chaos_plan(s).digest()).is_empty())
        .expect("no crashing seed in range");
    let a = run_chaos(seed);
    let b = run_chaos(seed);
    assert_eq!(a.digest, b.digest, "fault schedules diverged");
    assert_eq!(a.ctl_events, b.ctl_events, "controller decisions diverged");
    assert_eq!(a.events, b.events, "cluster event logs diverged");
    assert_eq!(a.done, b.done);
    assert_eq!(a.members_final, b.members_final, "final topology diverged");
    let key = |v: &[(Ts, WindowResult<u64, u64>)]| {
        let mut k: Vec<(Ts, u64, Ts, u64)> =
            v.iter().map(|(t, r)| (*t, r.key, r.end, r.value)).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(key(&a.collected), key(&b.collected), "outputs diverged");
}

/// Config validation is part of the API surface the chaos lane leans on:
/// a controller that could flap by construction must be rejected before
/// the cluster starts.
#[test]
fn start_rejects_controller_misconfigurations() {
    let (p, _out) = counting_job(1_000_000, 1_000);
    let dag = p.compile(2).unwrap();
    let bad = ControllerConfig {
        scale_up_occupancy: 200_000,
        scale_down_occupancy: 300_000, // inverted hysteresis
        ..ControllerConfig::default()
    };
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        controller: Some(bad),
        ..Default::default()
    };
    let err = SimCluster::start(dag, cfg).err().expect("must reject");
    assert!(err.contains("controller config"), "unexpected error: {err}");

    // Autoscaling without snapshots can never rescale: reject up front.
    let (p, _out) = counting_job(1_000_000, 1_000);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        snapshot_interval: 0,
        controller: Some(ControllerConfig::default()),
        ..Default::default()
    };
    let err = SimCluster::start(dag, cfg).err().expect("must reject");
    assert!(err.contains("snapshot"), "unexpected error: {err}");
}
