//! **Elastic autoscaling figure** (ROADMAP item 5, §4.5 machinery): an
//! undersized cluster saturated by its input stream scales itself up
//! mid-run — the controller watches windowed occupancy/stall telemetry on
//! its virtual-time cadence, orders a live rescale through the
//! terminal-snapshot path, and the backlog drains on the larger topology.
//!
//! Three runs on the same workload:
//! * `static-2` — the undersized topology, no controller (what the paper's
//!   operator would see before intervening);
//! * `static-3` — the provisioned topology, the latency target;
//! * `autoscale` — starts at 2 members with the controller armed and ends
//!   at 3, cutting the tail the undersized run accumulates.
//!
//! The controller's decision timeline is embedded in
//! `results/BENCH_fig_autoscale.json` (`runs[].controller`).

use jet_bench::{percentile_row, BenchReport, RunResult, MS, SEC};
use jet_cluster::{ControllerConfig, ControllerEvent, SimCluster, SimClusterConfig};
use jet_core::flight::Recorder;
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::processor::Guarantee;
use jet_core::processors::agg::counting;
use jet_core::Ts;
use jet_pipeline::{Pipeline, WindowDef};

const RATE: u64 = 16_000_000;
const LIMIT: u64 = 1_600_000;
const KEYS: u64 = 16;

/// The drained-backlog counting job from the chaos-autoscale lane: a 16M
/// ev/s generator against ~13M ev/s of 2-member capacity, so occupancy
/// pins near 100% until the topology grows.
fn build(hist: &SharedHistogram, count: &SharedCounter) -> jet_core::Dag {
    let p = Pipeline::create();
    p.read_from_generator_cfg(
        "gen",
        RATE,
        Some(LIMIT),
        jet_core::processors::WatermarkPolicy::default(),
        |seq, _| (seq % KEYS, seq),
    )
    .grouping_key(|(k, _): &(u64, u64)| *k)
    .window(WindowDef::tumbling((10 * MS) as Ts))
    .aggregate(counting::<(u64, u64)>())
    .write_to_latency(hist.clone(), count.clone());
    p.compile(2).unwrap()
}

fn controller() -> ControllerConfig {
    ControllerConfig {
        cadence: 5 * MS,
        window: 4,
        scale_up_occupancy: 700_000,
        scale_down_occupancy: 100_000,
        min_members: 2,
        max_members: 3,
        cooldown: 50 * MS,
        rescale_max_wait: 200 * MS,
        ..ControllerConfig::default()
    }
}

fn run_one(members: usize, ctl: Option<ControllerConfig>) -> RunResult {
    let hist = SharedHistogram::new();
    let count = SharedCounter::new();
    let dag = build(&hist, &count);
    let cfg = SimClusterConfig {
        members,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        controller: ctl.clone(),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    // Finite stream: run to completion (the backlog drains well inside the
    // budget on every topology) and track when the job actually finished.
    let mut finished_at = 2 * SEC;
    let mut last = 0;
    let done = cluster.run_for_with(2 * SEC, |now| last = now);
    if done {
        finished_at = last.max(1);
    }
    assert!(done, "job did not drain its backlog in the budget");
    assert!(
        cluster.failed().is_none(),
        "job failed: {:?}",
        cluster.failed()
    );
    let controller_events = ctl.is_some().then(|| cluster.controller_events());
    let members_final = cluster.grid().members().len();
    cluster.cancel();
    RunResult {
        hist: hist.snapshot(),
        outputs: count.get(),
        inputs: LIMIT,
        virtual_secs: finished_at as f64 / 1e9,
        diagnostics: None,
        cluster_events: cluster.cluster_events(),
        spike: None,
        attribution: None,
        recorder: Recorder::disabled(),
        controller_events,
        members_final,
    }
}

fn main() {
    println!(
        "# Autoscale: counting job, {}M ev/s for {:.0}ms of input, \
         exactly-once, 5ms snapshots",
        RATE / 1_000_000,
        LIMIT as f64 / RATE as f64 * 1e3
    );
    let mut report = BenchReport::new("fig_autoscale");
    report
        .param("rate", RATE)
        .param("events", LIMIT)
        .param("guarantee", "exactly-once")
        .param("snapshot_interval_ms", 5)
        .param("scale_up_occupancy", controller().scale_up_occupancy)
        .param("cooldown_ms", controller().cooldown / MS);

    for (label, members, ctl) in [
        ("static-2", 2, None),
        ("static-3", 3, None),
        ("autoscale", 2, Some(controller())),
    ] {
        let r = run_one(members, ctl);
        println!(
            "{label:10}  members {}->{}  drained in {:7.1}ms  {}",
            members,
            r.members_final,
            r.virtual_secs * 1e3,
            percentile_row(&r.hist)
        );
        if let Some(events) = &r.controller_events {
            for e in events {
                println!("            t={:7.1}ms  {}", e.at() as f64 / 1e6, e.label());
            }
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, ControllerEvent::RescaleCompleted { members: 3, .. })),
                "controller never scaled the cluster up: {events:?}"
            );
            assert_eq!(r.members_final, 3, "autoscaled run must end at 3 members");
        }
        report.add_run(
            label,
            &[
                ("members_start", members.to_string()),
                ("controller", r.controller_events.is_some().to_string()),
            ],
            &r,
        );
    }
    report.write().expect("report");
}
