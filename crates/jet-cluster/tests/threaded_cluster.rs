//! The multi-member wiring also runs on REAL threads and the wall clock —
//! the same `build_cluster_execution` output, with the in-memory transport
//! driven by the system clock. This is the deployment mode a user without
//! the simulator would run (one process; members as thread groups).

use jet_cluster::wiring::{build_cluster_execution, ClusterConfig};
use jet_core::exec::spawn_threaded;
use jet_core::metrics::SharedCounter;
use jet_core::network::InMemoryTransport;
use jet_core::processor::Guarantee;
use jet_core::processors::agg::counting;
use jet_core::snapshot::SnapshotRegistry;
use jet_core::Ts;
use jet_pipeline::{Pipeline, WindowDef, WindowResult};
use parking_lot::Mutex;
use std::sync::Arc;

/// Timestamped sink output, shared with the collecting stage.
type Collected<T> = Arc<Mutex<Vec<(Ts, T)>>>;

#[test]
fn threaded_multi_member_windowed_count_is_exact() {
    const LIMIT: u64 = 60_000;
    const KEYS: u64 = 32;
    let p = Pipeline::create();
    let out: Collected<WindowResult<u64, u64>> = Arc::new(Mutex::new(Vec::new()));
    p.read_from_generator_cfg(
        "gen",
        2_000_000,
        Some(LIMIT),
        jet_core::processors::WatermarkPolicy::default(),
        |seq, _| seq % KEYS,
    )
    .grouping_key(|k: &u64| *k)
    .window(WindowDef::tumbling(1_000_000_000))
    .aggregate(counting::<u64>())
    .write_to_collect(out.clone());
    let dag = p.compile(2).unwrap();

    let grid = jet_imdg::Grid::with_partition_count(3, 1, 31);
    let members = grid.members();
    let table = grid.table();
    let clock = jet_util::clock::system_clock();
    // 50µs simulated LAN latency against the wall clock.
    let transport = Arc::new(InMemoryTransport::new(clock.clone(), 50_000));
    let registry = Arc::new(SnapshotRegistry::disabled());
    let cfg = ClusterConfig::new(2, clock).with_guarantee(Guarantee::None);
    let exec =
        build_cluster_execution(&dag, &members, &table, transport, &cfg, &registry, None).unwrap();
    let tasklets: Vec<_> = exec
        .members
        .into_iter()
        .flat_map(|m| m.tasklets.into_iter().map(|(t, _)| t))
        .collect();
    // 3 members x 2 cores = 6 logical workers; on this container they time-
    // share one CPU, which only affects wall time, not results.
    let handle = spawn_threaded(tasklets, 6, exec.cancelled);
    handle.join();

    let results = out.lock();
    let total: u64 = results.iter().map(|(_, r)| r.value).sum();
    assert_eq!(total, LIMIT, "threaded cluster lost or duplicated events");
    let mut keys: Vec<u64> = results.iter().map(|(_, r)| r.key).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), KEYS as usize);
}

#[test]
fn threaded_cluster_with_snapshots_completes_checkpoints() {
    const LIMIT: u64 = 40_000;
    let p = Pipeline::create();
    let count = SharedCounter::new();
    p.read_from_generator_cfg(
        "gen",
        4_000_000,
        Some(LIMIT),
        jet_core::processors::WatermarkPolicy::default(),
        |seq, _| seq,
    )
    .map(|v: &u64| v * 2)
    .write_to_count(count.clone());
    let dag = p.compile(2).unwrap();

    let grid = jet_imdg::Grid::with_partition_count(2, 1, 31);
    let members = grid.members();
    let table = grid.table();
    let clock = jet_util::clock::system_clock();
    let transport = Arc::new(InMemoryTransport::new(clock.clone(), 10_000));
    let store = jet_imdg::SnapshotStore::new(&grid, 3);
    let registry = Arc::new(SnapshotRegistry::new(store.clone(), 0));
    let cfg = ClusterConfig::new(2, clock.clone()).with_guarantee(Guarantee::ExactlyOnce);
    let exec =
        build_cluster_execution(&dag, &members, &table, transport, &cfg, &registry, None).unwrap();
    let tasklets: Vec<_> = exec
        .members
        .into_iter()
        .flat_map(|m| m.tasklets.into_iter().map(|(t, _)| t))
        .collect();
    let handle = spawn_threaded(tasklets, 4, exec.cancelled);
    // Trigger snapshots from this thread while the job runs (the coordinator
    // role, §4.4).
    let mut triggered = 0;
    while !handle.is_finished() {
        if registry.trigger().is_some() {
            triggered += 1;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    handle.join();
    assert_eq!(count.get(), LIMIT);
    assert!(triggered >= 1, "no snapshot was triggered");
    assert!(
        registry.completed() >= 1,
        "no snapshot completed on the threaded executor"
    );
    assert!(store.latest_complete().is_some());
}
