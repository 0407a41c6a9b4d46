//! The four workloads and how each becomes a running job: `Pipeline` →
//! `compile` → `build_local` / `build_cluster_execution` → `spawn_threaded`,
//! on a wall clock. Only `pub` engine items are used.

use crate::clock::OffsetClock;
use crate::reference::{hash_bid, hash_window, Tally};
use crate::timed::{wrap_group, StatsSink};
use jet_cluster::wiring::{build_cluster_execution, ClusterConfig};
use jet_core::exec::{spawn_threaded, ExecutionHandle};
use jet_core::metrics::{MetricsRegistry, SharedCounter, SharedHistogram};
use jet_core::network::InMemoryTransport;
use jet_core::plan::{build_local, LocalConfig};
use jet_core::processors::window::{WindowDef, WindowResult};
use jet_core::processors::WatermarkPolicy;
use jet_core::snapshot::SnapshotRegistry;
use jet_core::tasklet::Tasklet;
use jet_core::{Guarantee, Ts};
use jet_imdg::{Grid, SnapshotStore};
use jet_nexmark::{queries, Bid, NexmarkConfig};
use jet_pipeline::Pipeline;
use jet_util::clock::SharedClock;
use parking_lot::Mutex;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// `queries::q1`: currency conversion, stateless.
    Q1,
    /// `queries::q5` over [`window`]: bids per auction per sliding window.
    Q5,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deploy {
    Local,
    /// Two members of one core each over an `InMemoryTransport`.
    Cluster,
}

pub struct Workload {
    pub name: &'static str,
    pub query: Query,
    pub deploy: Deploy,
    pub guarantee: Guarantee,
    /// Paced-phase input rate, events/second; also the event-time density
    /// of the replay backlog.
    pub rate: u64,
    /// Backlog of one replay at the full run length ([`FULL_SECONDS`]),
    /// sized to take one worker 1.5 to 2 seconds.
    pub replay_events: u64,
    /// Length of a latency epoch of the paced phase (see `phases::Epochs`).
    /// Q5: twenty slides, so an epoch holds twenty samples beyond its
    /// p99.99. Q1 has no tail of its own; what it shows is how long the idle
    /// worker sleeps, and the host lengthens a few percent of those sleeps
    /// in bursts that last a second or a minute. The shortest epoch with ten
    /// samples beyond p99 finds the stretches between the bursts.
    pub epoch_millis: u64,
}

/// Run length the replay backlogs are sized for; shorter runs scale them.
pub const FULL_SECONDS: u64 = 20;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "q1-stateless",
        query: Query::Q1,
        deploy: Deploy::Local,
        guarantee: Guarantee::None,
        rate: 50_000,
        replay_events: 4_000_000,
        epoch_millis: 25,
    },
    Workload {
        name: "q5-sliding",
        query: Query::Q5,
        deploy: Deploy::Local,
        guarantee: Guarantee::None,
        rate: 400_000,
        replay_events: 1_200_000,
        epoch_millis: 200,
    },
    Workload {
        name: "q5-cluster",
        query: Query::Q5,
        deploy: Deploy::Cluster,
        guarantee: Guarantee::None,
        rate: 300_000,
        replay_events: 900_000,
        epoch_millis: 200,
    },
    Workload {
        name: "q5-snapshot",
        query: Query::Q5,
        deploy: Deploy::Local,
        guarantee: Guarantee::ExactlyOnce,
        rate: 25_000,
        replay_events: 150_000,
        epoch_millis: 200,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Q5's window: 1 s sliding by 10 ms, so every bid is in 100 windows and
/// ~10 000 results leave every 10 ms.
pub fn window() -> WindowDef {
    WindowDef::sliding(1_000_000_000, 10_000_000)
}

/// `WatermarkPolicy::allowed_lag` of replay jobs: one slide. Paced jobs use
/// the default policy (no lag). Under the sustained backpressure of a replay
/// the seed engine now and then lets a watermark overtake an event buffered
/// inside a transform (about one event in ten million); with no lag that
/// event's frame is already closed and the window stage drops it as late.
/// One slide of lag keeps every replay exact, and costs nothing that replay
/// measures: results are the same, only emitted one slide later.
const REPLAY_WATERMARK_LAG: Ts = 10_000_000;

/// Partitions of the exactly-once workload's snapshot store. Every partition
/// of an `IMap` journals its changes in a ring of 16 384 events, and a
/// snapshot of this workload writes 45 000. With the default 271 partitions
/// the rings fill for 98 snapshots and 0.9 GB, so every cycle of a run meets
/// a larger and colder heap than the one before (9 MB a snapshot). Eight are
/// full after three snapshots, inside the warm-up: the measured cycles see
/// the store in its steady state, as a job does that has run for a minute.
/// Run in turns over the same minutes, the quartile spread of
/// `latency_p99_us` was 0.02 with 8 partitions and 0.10 with 271.
const SNAPSHOT_STORE_PARTITIONS: u32 = 8;

/// One-way latency of the cluster workload's in-memory transport.
const TRANSPORT_LATENCY_NANOS: u64 = 50_000;

/// What the `map` stage before the sink hands on: Q1 `[auction, bidder,
/// price, ts]`, Q5 `[auction, window end, bids, 0]`. 32 bytes, so it rides
/// inline in the engine's object box.
pub type Row = [u64; 4];
pub type Collected = Arc<Mutex<Vec<(Ts, Row)>>>;

pub fn q1_row(b: &Bid) -> Row {
    [b.auction, b.bidder, b.price as u64, b.ts as u64]
}

pub fn q5_row(key: u64, end: Ts, value: u64) -> Row {
    [key, end as u64, value, 0]
}

/// How one job is to be built.
pub struct JobPlan {
    /// Worker threads, and for local jobs the parallelism of every vertex.
    pub workers: usize,
    /// The source stops after this many events.
    pub events: u64,
    /// Head start of the job clock: 0 paces the input, `events / rate`
    /// makes the whole input due at once (see [`OffsetClock`]).
    pub clock_offset_nanos: u64,
    /// The source's `WatermarkPolicy::allowed_lag`.
    pub watermark_lag: Ts,
    /// Sample how late the generator runs (traced runs).
    pub sample_emit_lag: bool,
    /// Collect rows instead of recording latency (the oracle).
    pub collect: bool,
}

impl JobPlan {
    pub fn paced(events: u64, traced: bool) -> Self {
        JobPlan {
            workers: 1,
            events,
            clock_offset_nanos: 0,
            watermark_lag: 0,
            sample_emit_lag: traced,
            collect: false,
        }
    }

    pub fn replay(w: &Workload, events: u64, workers: usize) -> Self {
        JobPlan {
            workers,
            events,
            clock_offset_nanos: (events as u128 * 1_000_000_000 / w.rate as u128) as u64 + 1,
            watermark_lag: REPLAY_WATERMARK_LAG,
            sample_emit_lag: false,
            collect: false,
        }
    }
}

/// Everything the harness observes a job through.
pub struct Probes {
    pub latency: SharedHistogram,
    pub results: SharedCounter,
    pub tally: Arc<Tally>,
    pub emit_lag: SharedHistogram,
    pub collected: Collected,
}

/// Tasklets that share one `spawn_threaded` call.
pub struct Group {
    pub tasklets: Vec<Box<dyn Tasklet>>,
    pub threads: usize,
}

/// A wired job, ready to spawn.
pub struct Job {
    pub groups: Vec<Group>,
    pub cancelled: Arc<AtomicBool>,
    pub registry: Arc<SnapshotRegistry>,
    pub store: Option<SnapshotStore>,
    /// Per-member registries of a cluster job (channel instruments).
    pub member_metrics: Vec<Arc<MetricsRegistry>>,
    pub clock: SharedClock,
    pub probes: Probes,
}

/// Build `w` for `seed` as `plan` says. This is the whole set-up path the
/// `setup_s` metric times: clock, pipeline, compile, grid/store, wiring.
pub fn build(w: &Workload, seed: u64, plan: &JobPlan) -> Result<Job, String> {
    let clock: SharedClock = Arc::new(OffsetClock::new(plan.clock_offset_nanos));
    let probes = Probes {
        latency: SharedHistogram::new(),
        results: SharedCounter::new(),
        tally: Arc::default(),
        emit_lag: SharedHistogram::new(),
        collected: Arc::default(),
    };
    let cfg = NexmarkConfig {
        seed,
        ..Default::default()
    };
    assert_eq!((cfg.people, cfg.auctions), (10_000, 10_000));

    let p = Pipeline::create();
    let lag = plan
        .sample_emit_lag
        .then(|| (clock.clone(), probes.emit_lag.clone()));
    let src = p.read_from_generator_cfg(
        "nexmark",
        w.rate,
        Some(plan.events),
        WatermarkPolicy {
            allowed_lag: plan.watermark_lag,
            ..Default::default()
        },
        move |seq, ts| {
            if let Some((clock, lag)) = &lag {
                if seq % 256 == 0 {
                    lag.record(clock.now_nanos().saturating_sub(ts as u64));
                }
            }
            cfg.event(seq, ts)
        },
    );
    let tally = probes.tally.clone();
    let rows = match w.query {
        Query::Q1 => queries::q1(&src).map(move |b: &Bid| {
            tally.add(hash_bid(b), 1);
            q1_row(b)
        }),
        Query::Q5 => queries::q5(&src, window()).map(move |r: &WindowResult<u64, u64>| {
            tally.add(hash_window(r.key, r.end, r.value), r.value);
            q5_row(r.key, r.end, r.value)
        }),
    };
    if plan.collect {
        rows.write_to_collect(probes.collected.clone());
    } else {
        rows.write_to_latency(probes.latency.clone(), probes.results.clone());
    }

    let (registry, store) = match w.guarantee {
        Guarantee::None => (SnapshotRegistry::disabled(), None),
        _ => {
            let grid = Grid::with_partition_count(1, 0, SNAPSHOT_STORE_PARTITIONS);
            let store = SnapshotStore::new(&grid, 1);
            (SnapshotRegistry::new(store.clone(), 0), Some(store))
        }
    };
    let registry = Arc::new(registry);

    match w.deploy {
        Deploy::Local => {
            let dag = p.compile(plan.workers)?;
            let cfg = LocalConfig::new(plan.workers)
                .with_clock(clock.clone())
                .with_guarantee(w.guarantee);
            let exec = build_local(&dag, &cfg, &registry, None)?;
            Ok(Job {
                groups: vec![Group {
                    tasklets: exec.tasklets,
                    threads: plan.workers,
                }],
                cancelled: exec.cancelled,
                registry,
                store,
                member_metrics: Vec::new(),
                clock,
                probes,
            })
        }
        Deploy::Cluster => {
            let dag = p.compile(1)?;
            let grid = Grid::new(2, 0);
            let transport = Arc::new(InMemoryTransport::new(
                clock.clone(),
                TRANSPORT_LATENCY_NANOS,
            ));
            let cfg = ClusterConfig::new(1, clock.clone()).with_guarantee(w.guarantee);
            let exec = build_cluster_execution(
                &dag,
                &grid.members(),
                &grid.table(),
                transport,
                &cfg,
                &registry,
                None,
            )?;
            let member_metrics = exec.members.iter().map(|m| m.metrics.clone()).collect();
            let per_member = exec
                .members
                .into_iter()
                .map(|m| m.tasklets.into_iter().map(|(t, _)| t).collect::<Vec<_>>());
            // One worker: both members share it. Two: one worker per member.
            let groups = if plan.workers == 1 {
                vec![Group {
                    tasklets: per_member.flatten().collect(),
                    threads: 1,
                }]
            } else {
                per_member
                    .map(|tasklets| Group {
                        tasklets,
                        threads: 1,
                    })
                    .collect()
            };
            Ok(Job {
                groups,
                cancelled: exec.cancelled,
                registry,
                store,
                member_metrics,
                clock,
                probes,
            })
        }
    }
}

impl Job {
    /// Total worker threads across groups.
    pub fn workers(&self) -> usize {
        self.groups.iter().map(|g| g.threads).sum()
    }

    /// Hand every group to `spawn_threaded`. With `trace`, every tasklet is
    /// first wrapped in a `TimedTasklet` reporting into it.
    pub fn spawn(&mut self, trace: Option<&StatsSink>) -> Vec<ExecutionHandle> {
        let mut first_worker = 0;
        std::mem::take(&mut self.groups)
            .into_iter()
            .map(|g| {
                let tasklets = match trace {
                    Some(sink) => wrap_group(g.tasklets, g.threads, first_worker, sink),
                    None => g.tasklets,
                };
                first_worker += g.threads;
                spawn_threaded(tasklets, g.threads, self.cancelled.clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert!(by_name("q9").is_none());
    }

    #[test]
    fn replay_clock_makes_the_whole_backlog_due() {
        let w = by_name("q5-cluster").unwrap();
        let plan = JobPlan::replay(w, 900_000, 2);
        let last_due = crate::reference::schedule_of(900_000 - 1, w.rate) as u64;
        assert!(plan.clock_offset_nanos > last_due);
    }

    #[test]
    fn every_workload_wires_into_the_planned_groups() {
        for w in &WORKLOADS {
            for workers in [1, 2] {
                let plan = JobPlan::replay(w, 1000, workers);
                let job = build(w, 1, &plan).unwrap();
                assert_eq!(job.workers(), workers, "{}", w.name);
                let groups = match (w.deploy, workers) {
                    (Deploy::Cluster, 2) => 2,
                    _ => 1,
                };
                assert_eq!(job.groups.len(), groups, "{}", w.name);
                assert_eq!(job.store.is_some(), w.guarantee == Guarantee::ExactlyOnce);
                // Every tasklet name maps to a benchmarked layer.
                for g in &job.groups {
                    for t in &g.tasklets {
                        crate::timed::Layer::of(t.name());
                    }
                }
            }
        }
    }
}
