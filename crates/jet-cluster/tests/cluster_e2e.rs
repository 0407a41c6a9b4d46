//! Cluster-level end-to-end tests on the virtual-time simulator: multi-
//! member correctness, distributed snapshots with failure recovery,
//! operator-ordered rescaling, and active-active failover.

use jet_cluster::{ActiveActive, ActiveSide, CoordinatorConfig, SimCluster, SimClusterConfig};
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::processor::Guarantee;
use jet_core::processors::agg::counting;
use jet_core::Ts;
use jet_nexmark::NexmarkConfig;
use jet_pipeline::{Pipeline, WindowDef, WindowResult};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Timestamped sink output, shared with the collecting stage.
type Collected<T> = Arc<Mutex<Vec<(Ts, T)>>>;

const SEC: u64 = 1_000_000_000;
const MS: u64 = 1_000_000;

/// A keyed windowed count over a bounded generated stream, collected to a
/// shared vec.
fn counting_job(
    rate: u64,
    limit: u64,
    keys: u64,
    window: Ts,
) -> (Pipeline, Collected<WindowResult<u64, u64>>) {
    let p = Pipeline::create();
    let out = Arc::new(Mutex::new(Vec::new()));
    p.read_from_generator_cfg(
        "gen",
        rate,
        Some(limit),
        jet_core::processors::WatermarkPolicy::default(),
        move |seq, _ts| seq % keys,
    )
    .grouping_key(|k: &u64| *k)
    .window(WindowDef::tumbling(window))
    .aggregate(counting::<u64>())
    .write_to_collect(out.clone());
    (p, out)
}

#[test]
fn three_member_cluster_counts_every_event_once() {
    const LIMIT: u64 = 30_000;
    const KEYS: u64 = 64;
    let (p, out) = counting_job(1_000_000, LIMIT, KEYS, SEC as Ts);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 3,
        cores_per_member: 2,
        partition_count: 31,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    // A rescale rides the terminal-snapshot path: without snapshots it is
    // refused before it touches the grid.
    for err in [
        cluster.add_member_and_rescale(SEC).unwrap_err(),
        cluster.remove_member_and_rescale(SEC).unwrap_err(),
    ] {
        assert!(
            err.contains("rescaling requires snapshots enabled"),
            "unexpected error: {err}"
        );
    }
    assert_eq!(cluster.grid().members().len(), 3, "refused rescale moved");
    assert!(cluster.run_for(20 * SEC), "job did not finish");
    let results = out.lock();
    let mut per_key: HashMap<u64, u64> = HashMap::new();
    for (_, r) in results.iter() {
        *per_key.entry(r.key).or_insert(0) += r.value;
    }
    let total: u64 = per_key.values().sum();
    assert_eq!(total, LIMIT, "events lost or duplicated across members");
    for k in 0..KEYS {
        assert!(per_key.contains_key(&k), "key {k} never counted");
    }
}

#[test]
fn single_vs_multi_member_results_agree() {
    let run = |members: usize| {
        let (p, out) = counting_job(2_000_000, 20_000, 16, SEC as Ts);
        let dag = p.compile(2).unwrap();
        let cfg = SimClusterConfig {
            members,
            cores_per_member: 2,
            partition_count: 31,
            ..Default::default()
        };
        let mut cluster = SimCluster::start(dag, cfg).unwrap();
        assert!(cluster.run_for(20 * SEC));
        let mut v: Vec<(u64, Ts, u64)> = out
            .lock()
            .iter()
            .map(|(_, r)| (r.key, r.end, r.value))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(run(1), run(4), "cluster size changed the results");
}

/// The generator, with a fused map, feeds two windowed counts: its output
/// goes to two edges, and each count must see every event once across the
/// recovery. The windows close after the stream ends, so a result emitted
/// before the kill cannot be emitted again.
#[test]
fn exactly_once_survives_member_kill() {
    const LIMIT: u64 = 40_000;
    const KEYS: u64 = 32;
    let p = Pipeline::create();
    let (out, by_fives): (Collected<_>, Collected<_>) = Default::default();
    let keys = p
        .read_from_generator_cfg(
            "gen",
            1_000_000,
            Some(LIMIT),
            jet_core::processors::WatermarkPolicy::default(),
            |seq, _ts| seq,
        )
        .map(|seq: &u64| seq % KEYS);
    keys.grouping_key(|k: &u64| *k)
        .window(WindowDef::tumbling(10 * SEC as Ts))
        .aggregate(counting::<u64>())
        .write_to_collect(out.clone());
    keys.grouping_key(|k: &u64| *k % 5)
        .window(WindowDef::tumbling(10 * SEC as Ts))
        .aggregate(counting::<u64>())
        .write_to_collect(by_fives.clone());
    let dag = p.compile(2).unwrap();
    let gen = dag.vertex_named("gen").unwrap();
    assert_eq!(
        (dag.vertices()[gen].fused.len(), dag.out_edges(gen).len()),
        (1, 2)
    );
    let cfg = SimClusterConfig {
        members: 3,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    // Run 20 virtual ms (half the 40 ms stream), ensuring >=1 snapshot.
    cluster.run_for(20 * MS);
    assert!(
        cluster.registry().completed() >= 1,
        "no snapshot completed before kill"
    );
    let victim = cluster.grid().members()[1];
    let recovered_from = cluster.kill_member_and_recover(victim).unwrap();
    assert!(recovered_from.is_some(), "recovery had no snapshot");
    assert!(
        cluster.run_for(60 * SEC),
        "job did not finish after recovery"
    );
    let results = out.lock();
    let mut per_key: HashMap<u64, u64> = HashMap::new();
    for (_, r) in results.iter() {
        *per_key.entry(r.key).or_insert(0) += r.value;
    }
    let total: u64 = per_key.values().sum();
    assert_eq!(total, LIMIT, "exactly-once violated across recovery");
    let total: u64 = by_fives.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(total, LIMIT, "exactly-once violated on the second branch");
}

#[test]
fn at_least_once_loses_nothing_but_may_duplicate() {
    const LIMIT: u64 = 30_000;
    let (p, out) = counting_job(1_000_000, LIMIT, 16, 10 * SEC as Ts);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::AtLeastOnce,
        snapshot_interval: 5 * MS,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(15 * MS);
    let victim = cluster.grid().members()[0];
    cluster.kill_member_and_recover(victim).unwrap();
    assert!(cluster.run_for(60 * SEC));
    let total: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert!(
        total >= LIMIT,
        "at-least-once lost events: {total} < {LIMIT}"
    );
}

#[test]
fn mid_flight_snapshot_kill_never_exposes_a_torn_snapshot() {
    const LIMIT: u64 = 40_000;
    const KEYS: u64 = 32;
    let (p, out) = counting_job(1_000_000, LIMIT, KEYS, 10 * SEC as Ts);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 3,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(20 * MS);
    assert!(
        cluster.registry().completed() >= 1,
        "no snapshot completed before kill"
    );
    // Start a fresh snapshot and kill a member while its barriers are
    // still in flight, between emission and the final ack.
    let torn = cluster.registry().trigger().expect("snapshot in flight");
    cluster.run_for(MS / 2);
    assert!(
        cluster.registry().completed() < torn,
        "snapshot completed before the kill could tear it"
    );
    let victim = cluster.grid().members()[1];
    let recovered_from = cluster.kill_member_and_recover(victim).unwrap();
    // The torn snapshot has no completion marker: recovery must pick an
    // older complete generation, never the torn id.
    let restored = recovered_from.expect("recovery had no snapshot");
    assert!(
        restored < torn,
        "recovered from the torn snapshot {torn} (got {restored})"
    );
    let store = cluster.registry();
    let store = store.store().expect("snapshots enabled");
    assert!(store.latest_complete().is_some_and(|id| id < torn));
    assert_eq!(
        store.record_count(torn),
        0,
        "partial records of the torn snapshot must be purged on rebuild"
    );
    assert!(
        cluster.run_for(60 * SEC),
        "job did not finish after recovery"
    );
    let results = out.lock();
    let mut per_key: HashMap<u64, u64> = HashMap::new();
    for (_, r) in results.iter() {
        *per_key.entry(r.key).or_insert(0) += r.value;
    }
    let total: u64 = per_key.values().sum();
    assert_eq!(total, LIMIT, "exactly-once violated across a torn snapshot");
}

/// A stored chunk of the latest complete snapshot no longer decodes when a
/// member dies. The rebuild must fail with an error the caller sees and the
/// store counts — not panic, not restore part of the state — and the retry
/// ladder must then recover from the older retained generation.
#[test]
fn corrupt_snapshot_chunk_fails_recovery_over_to_the_older_generation() {
    const LIMIT: u64 = 40_000;
    const KEYS: u64 = 32;
    let (p, out) = counting_job(1_000_000, LIMIT, KEYS, 10 * SEC as Ts);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 3,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(20 * MS);
    let registry = cluster.registry();
    let store = registry.store().expect("snapshots enabled").clone();
    let latest = store
        .latest_complete()
        .expect("no snapshot before the kill");
    assert!(latest >= 2, "need an older generation to fall back to");
    assert!(store.corrupt_one_chunk(latest));

    let victim = cluster.grid().members()[1];
    let err = cluster.kill_member_and_recover(victim).unwrap_err();
    assert!(
        err.contains(&format!("snapshot {latest}")) && err.contains("decode error"),
        "unexpected error: {err}"
    );
    assert_eq!(store.faults().read_failures(), 1, "failure not counted");
    assert_eq!(
        store.latest_complete(),
        Some(latest - 1),
        "the corrupt generation must be retired, the older one kept"
    );
    assert!(
        cluster.run_for(60 * SEC),
        "job did not recover from the older generation: {:?}",
        cluster.failed()
    );
    assert!(
        cluster.failed().is_none(),
        "job lost: {:?}",
        cluster.failed()
    );
    assert!(
        store.latest_complete().is_some_and(|id| id >= latest),
        "snapshots did not resume after the fallback"
    );
    let results = out.lock();
    let mut per_key: HashMap<u64, u64> = HashMap::new();
    for (_, r) in results.iter() {
        *per_key.entry(r.key).or_insert(0) += r.value;
    }
    assert_eq!(per_key.len() as u64, KEYS);
    let total: u64 = per_key.values().sum();
    assert_eq!(total, LIMIT, "exactly-once violated across the fallback");
}

#[test]
fn failed_rescale_aborts_the_terminal_snapshot_and_resumes() {
    const LIMIT: u64 = 40_000;
    let (p, out) = counting_job(1_000_000, LIMIT, 32, 10 * SEC as Ts);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(20 * MS);
    let completed_before = cluster.registry().completed();
    // A zero max_wait: the terminal snapshot cannot complete before the
    // deadline, so the rescale must fail...
    let err = cluster.add_member_and_rescale(0).unwrap_err();
    assert!(err.contains("did not complete"), "unexpected error: {err}");
    assert_eq!(cluster.grid().members().len(), 2, "no member may be added");
    // ...and must NOT wedge the job: the aborted terminal snapshot is
    // abandoned, later snapshots keep completing, and the job finishes
    // with exactly-once intact.
    cluster.run_for(20 * MS);
    assert!(
        cluster.registry().completed() > completed_before,
        "snapshots wedged after the failed rescale"
    );
    assert!(
        cluster.run_for(60 * SEC),
        "job did not finish after failed rescale"
    );
    let total: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(total, LIMIT, "failed rescale lost or duplicated events");
}

/// Regression: a store write outage during the terminal snapshot poisons
/// it — barriers drain, every participant acks, but no durable completion
/// marker exists. The rescale must FAIL and roll back, never restore the
/// new topology from the phantom snapshot (which would silently
/// cold-restart the job disguised as a warm rescale).
#[test]
fn rescale_refuses_to_restore_from_a_poisoned_terminal_snapshot() {
    const LIMIT: u64 = 40_000;
    let (p, out) = counting_job(1_000_000, LIMIT, 32, 10 * SEC as Ts);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(20 * MS);
    let reg = cluster.registry();
    let faults = reg.store().expect("snapshots enabled").faults();
    let complete_before = reg.store().unwrap().latest_complete();
    assert!(
        complete_before.is_some(),
        "no complete snapshot before outage"
    );
    faults.set_fail_writes(true);
    let err = cluster.add_member_and_rescale(SEC).unwrap_err();
    assert!(err.contains("poisoned"), "unexpected error: {err}");
    assert_eq!(cluster.grid().members().len(), 2, "no member may be added");
    // The poisoned terminal id must not have become a recovery point, and
    // its partial records must be purged by the rollback rebuild.
    let reg = cluster.registry();
    let store = reg.store().unwrap();
    assert_eq!(store.latest_complete(), complete_before);
    faults.set_fail_writes(false);
    assert!(
        cluster.run_for(60 * SEC),
        "job did not finish after the poisoned rescale rolled back"
    );
    let total: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(total, LIMIT, "poisoned rescale lost or duplicated events");
}

/// Regression: the topology *commit* fails (snapshot store reads go dark
/// between terminal-snapshot completion and the rebuild). The grid
/// mutation must roll back, and even though the rollback rebuild itself
/// cannot run against a dark store, the job must self-heal through the
/// recovery retry ladder once the outage lifts — never wedge.
#[test]
fn failed_topology_commit_rolls_back_and_self_heals() {
    const LIMIT: u64 = 40_000;
    let (p, out) = counting_job(1_000_000, LIMIT, 32, 10 * SEC as Ts);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(20 * MS);
    let reg = cluster.registry();
    let faults = reg.store().expect("snapshots enabled").faults();
    // Writes stay healthy (the terminal snapshot completes durably); reads
    // go dark, so the commit rebuild must fail.
    faults.set_fail_reads(true);
    let err = cluster.add_member_and_rescale(SEC).unwrap_err();
    assert!(err.contains("commit failed"), "unexpected error: {err}");
    assert_eq!(
        cluster.grid().members().len(),
        2,
        "failed commit must roll the added member back out"
    );
    // The rollback rebuild cannot read the store either, so a recovery is
    // pending: further rescales are refused before they touch the grid.
    for err in [
        cluster.add_member_and_rescale(SEC).unwrap_err(),
        cluster.remove_member_and_rescale(SEC).unwrap_err(),
    ] {
        assert!(
            err.contains("while a recovery is pending"),
            "unexpected error: {err}"
        );
    }
    assert_eq!(cluster.grid().members().len(), 2, "refused rescale moved");
    faults.set_fail_reads(false);
    assert!(
        cluster.run_for(60 * SEC),
        "job did not self-heal after the failed commit: {:?}",
        cluster.failed()
    );
    assert!(
        cluster.failed().is_none(),
        "job lost: {:?}",
        cluster.failed()
    );
    let total: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(total, LIMIT, "failed commit lost or duplicated events");
}

#[test]
fn rescale_removes_member_without_losing_state() {
    const LIMIT: u64 = 40_000;
    let (p, out) = counting_job(1_000_000, LIMIT, 32, 10 * SEC as Ts);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 3,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(20 * MS);
    let victim = cluster.remove_member_and_rescale(SEC).unwrap();
    assert_eq!(cluster.grid().members().len(), 2);
    assert!(!cluster.grid().members().contains(&victim));
    assert!(
        cluster.run_for(60 * SEC),
        "job did not finish after scale-in"
    );
    let total: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(total, LIMIT, "scale-in lost or duplicated events");
}

#[test]
fn rescale_adds_member_without_losing_state() {
    const LIMIT: u64 = 40_000;
    let (p, out) = counting_job(1_000_000, LIMIT, 32, 10 * SEC as Ts);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(20 * MS);
    let new_member = cluster.add_member_and_rescale(SEC).unwrap();
    assert_eq!(cluster.grid().members().len(), 3);
    assert!(cluster.grid().members().contains(&new_member));
    assert!(
        cluster.run_for(60 * SEC),
        "job did not finish after rescale"
    );
    let total: u64 = out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(total, LIMIT, "rescale lost or duplicated events");
}

/// A rescale restores every stage-1 instance at a point inside a frame, so
/// the first frame a restored instance measures holds only the restore
/// point's tail, a few events per key. Were that frame to choose the path,
/// the next one would be forwarded event by event into channels rebuilt at
/// the minimum receive window, and no window result could leave before the
/// receivers' first ack, 100 ms later. The job is the rescale chaos lane's.
#[test]
fn a_rescale_does_not_stall_the_next_window() {
    const WINDOW: Ts = 10 * MS as Ts;
    let (p, out) = counting_job(4_000_000, 480_000, 16, WINDOW);
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 3,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        coordinator: Some(CoordinatorConfig::default()),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(30 * MS);
    cluster.add_member_and_rescale(SEC).unwrap();
    let mut emitted_at = None;
    cluster.run_for_with((50 * MS).saturating_sub(cluster.now()), |now| {
        if emitted_at.is_none() && out.lock().iter().any(|(_, r)| r.end == 4 * WINDOW) {
            emitted_at = Some(now);
        }
    });
    assert!(
        emitted_at.is_some(),
        "the window ending at 40 ms was not emitted by t = 50 ms"
    );
}

#[test]
fn active_active_failover_keeps_results_flowing() {
    let make = |out: Collected<WindowResult<u64, u64>>| {
        let p = Pipeline::create();
        p.read_from_generator_cfg(
            "gen",
            1_000_000,
            Some(20_000),
            jet_core::processors::WatermarkPolicy::default(),
            |seq, _| seq % 8,
        )
        .grouping_key(|k: &u64| *k)
        .window(WindowDef::tumbling(10 * SEC as Ts))
        .aggregate(counting::<u64>())
        .write_to_collect(out.clone());
        p.compile(2).unwrap()
    };
    let primary_out = Arc::new(Mutex::new(Vec::new()));
    let standby_out = Arc::new(Mutex::new(Vec::new()));
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        ..Default::default()
    };
    let mut aa =
        ActiveActive::start(make(primary_out.clone()), make(standby_out.clone()), cfg).unwrap();
    assert_eq!(aa.active(), ActiveSide::Primary);
    aa.run_for(10 * MS);
    aa.fail_primary();
    assert_eq!(aa.active(), ActiveSide::Standby);
    assert!(aa.run_for(60 * SEC), "standby did not finish");
    // The standby (deterministic twin) has the complete result set.
    let total: u64 = standby_out.lock().iter().map(|(_, r)| r.value).sum();
    assert_eq!(total, 20_000);
}

#[test]
fn nexmark_q5_runs_on_a_simulated_cluster_with_sane_latency() {
    let p = Pipeline::create();
    let hist = SharedHistogram::new();
    let count = SharedCounter::new();
    let nex = NexmarkConfig {
        people: 100,
        auctions: 100,
        ..Default::default()
    };
    let src = jet_nexmark::queries::source(
        &p,
        &nex,
        200_000, // 200k ev/s
        Some(200_000 * 2),
        jet_core::processors::WatermarkPolicy::default(),
    );
    jet_nexmark::queries::q5(&src, WindowDef::sliding(SEC as Ts, (100 * MS) as Ts))
        .write_to_latency(hist.clone(), count.clone());
    let dag = p.compile(2).unwrap();
    let cfg = SimClusterConfig {
        members: 2,
        cores_per_member: 2,
        partition_count: 31,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    assert!(cluster.run_for(30 * SEC), "Q5 did not finish");
    assert!(count.get() > 0, "no window results measured");
    let h = hist.snapshot();
    let p9999 = h.percentile(99.99);
    assert!(
        p9999 < 500 * MS,
        "p99.99 latency implausible: {:.1} ms",
        p9999 as f64 / 1e6
    );
}
