//! **Elastic rescale figure** (§4.3): an undersized cluster saturated by
//! its input stream is grown by one member mid-run. Cluster size is an
//! operator input, as in the paper: the operator orders the rescale, the
//! job takes a terminal snapshot, restarts from it on the larger topology,
//! and the backlog drains there.
//!
//! Three runs on the same workload:
//! * `static-2` — the undersized topology (what the operator sees before
//!   intervening);
//! * `static-3` — the provisioned topology, the latency target;
//! * `rescale` — starts at 2 members; at 15 ms the operator calls
//!   `add_member_and_rescale`, and the run ends at 3, cutting the tail the
//!   undersized run accumulates.

use jet_bench::{percentile_row, BenchReport, RunResult, MS, SEC};
use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::flight::Recorder;
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::processor::Guarantee;
use jet_core::processors::agg::counting;
use jet_core::Ts;
use jet_pipeline::{Pipeline, WindowDef};

const RATE: u64 = 16_000_000;
const LIMIT: u64 = 1_600_000;
const KEYS: u64 = 16;
/// Virtual-time budget of every run.
const BUDGET: u64 = 2 * SEC;
/// When the operator orders the scale-up.
const RESCALE_AT: u64 = 15 * MS;
/// How long the rescale may wait for its terminal snapshot.
const RESCALE_MAX_WAIT: u64 = 200 * MS;

/// A counting job over a drained backlog: a 16M ev/s generator against
/// ~13M ev/s of 2-member capacity, so the undersized topology falls behind
/// until it grows.
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

/// One run on `members`, scaled up by one member at `rescale_at` when
/// given. Returns the result and the member count the run ended on.
fn run_one(members: usize, rescale_at: Option<u64>) -> (RunResult, usize) {
    let hist = SharedHistogram::new();
    let count = SharedCounter::new();
    let dag = build(&hist, &count);
    let cfg = SimClusterConfig {
        members,
        cores_per_member: 2,
        partition_count: 31,
        guarantee: Guarantee::ExactlyOnce,
        snapshot_interval: 5 * MS,
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    // Finite stream: run to completion (the backlog drains well inside the
    // budget on every topology) and track when the job actually finished.
    let mut last = 0;
    if let Some(at) = rescale_at {
        assert!(
            !cluster.run_for_with(at, |now| last = now),
            "job finished before the rescale"
        );
        cluster
            .add_member_and_rescale(RESCALE_MAX_WAIT)
            .expect("rescale");
    }
    let done = cluster.run_for_with(BUDGET - cluster.now(), |now| last = now);
    assert!(done, "job did not drain its backlog in the budget");
    assert!(
        cluster.failed().is_none(),
        "job failed: {:?}",
        cluster.failed()
    );
    let members_end = cluster.grid().members().len();
    cluster.cancel();
    let run = RunResult {
        hist: hist.snapshot(),
        outputs: count.get(),
        inputs: LIMIT,
        virtual_secs: last.max(1) as f64 / 1e9,
        diagnostics: None,
        cluster_events: cluster.cluster_events(),
        spike: None,
        attribution: None,
        recorder: Recorder::disabled(),
    };
    (run, members_end)
}

fn main() {
    println!(
        "# Rescale: counting job, {}M ev/s for {:.0}ms of input, \
         exactly-once, 5ms snapshots",
        RATE / 1_000_000,
        LIMIT as f64 / RATE as f64 * 1e3
    );
    let mut report = BenchReport::new("fig_rescale");
    report
        .param("rate", RATE)
        .param("events", LIMIT)
        .param("guarantee", "exactly-once")
        .param("snapshot_interval_ms", 5)
        .param("rescale_at_ms", RESCALE_AT / MS);

    for (label, members, rescale_at) in [
        ("static-2", 2, None),
        ("static-3", 3, None),
        ("rescale", 2, Some(RESCALE_AT)),
    ] {
        let (r, members_end) = run_one(members, rescale_at);
        println!(
            "{label:10}  members {members}->{members_end}  drained in {:7.1}ms  {}",
            r.virtual_secs * 1e3,
            percentile_row(&r.hist)
        );
        assert_eq!(members_end, members + rescale_at.is_some() as usize);
        report.add_run(
            label,
            &[
                ("members_start", members.to_string()),
                ("members_end", members_end.to_string()),
            ],
            &r,
        );
    }
    report.write().expect("report");
}
