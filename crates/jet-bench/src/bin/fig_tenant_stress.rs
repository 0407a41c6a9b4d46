//! **Multi-tenant tail isolation stress** (§7.7 hardened): one
//! latency-critical tenant shares a member with 100 small jobs and must
//! hold its p99.99 within 2x of its solo-run baseline.
//!
//! Plain tasklet round-robin gives each tenant a share proportional to its
//! *tasklet count*, so 100 busy neighbours crowd the one job that matters.
//! Per-job weighted quotas (`JobQuotas`, jet-core::fairness) hand the
//! critical tenant a fixed share of every scheduling cycle instead.
//!
//! Churn: each small job carries a staggered event limit, so jobs drain
//! and leave continuously across the measurement window (tasklets of a
//! finished job are removed from the polling cycle — the "leave" half of
//! churn; mid-run joins are not representable on a statically deployed
//! DAG, so the lane stresses departure churn plus full-rate neighbours).
//!
//! Runs: `solo` (baseline), `crowd-rr` (100 neighbours, plain
//! round-robin), `crowd-quota` (same neighbours, critical tenant weighted).
//! The 2x acceptance bound is asserted on `crowd-quota`.

use jet_bench::{percentile_row, BenchReport, RunResult, MS, SEC};
use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::flight::Recorder;
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::processors::agg::counting;
use jet_core::{JobQuotas, Ts};
use jet_pipeline::{Pipeline, WindowDef};

const CRITICAL_JOB: u32 = 1;
const CRITICAL_RATE: u64 = 1_000_000;
const SMALL_JOBS: u64 = 100;
const SMALL_RATE: u64 = 10_000;
const WARMUP: u64 = SEC + 500 * MS;
const MEASURE: u64 = 2 * SEC;

/// The latency-critical tenant: the paper's Q5 shape — a 1s/100ms sliding
/// window over a 1k keyspace — with its own latency sink. Each slide
/// emits the full keyspace, so the tenant's solo tail is set by its own
/// emission-burst drain (milliseconds), the scale the paper reports.
fn critical(p: &Pipeline, hist: &SharedHistogram, count: &SharedCounter) {
    p.read_from_generator("src", CRITICAL_RATE, |seq, _| (seq % 1_000, seq))
        .in_job(CRITICAL_JOB)
        .grouping_key(|(k, _): &(u64, u64)| *k)
        .window(WindowDef::sliding(SEC as Ts, (100 * MS) as Ts))
        .aggregate(counting::<(u64, u64)>())
        .write_to_latency(hist.clone(), count.clone());
}

/// One small neighbour: full-rate until its staggered limit drains, then
/// it completes and leaves the scheduling cycle.
fn neighbour(p: &Pipeline, id: u64, count: &SharedCounter) {
    // Job `id` leaves at 2.0s + id*20ms: departures sweep the whole
    // measurement window.
    let limit = 2 * SMALL_RATE + SMALL_RATE * id * 20 / 1000;
    p.read_from_generator_cfg(
        "src",
        SMALL_RATE,
        Some(limit),
        jet_core::processors::WatermarkPolicy::default(),
        |seq, _| (seq % 8, seq),
    )
    .in_job(id as u32)
    .grouping_key(|(k, _): &(u64, u64)| *k)
    .window(WindowDef::sliding(SEC as Ts, (100 * MS) as Ts))
    .aggregate(counting::<(u64, u64)>())
    .write_to_count(count.clone());
}

fn run_one(neighbours: u64, quotas: Option<JobQuotas>) -> RunResult {
    let p = Pipeline::create();
    let hist = SharedHistogram::new();
    let count = SharedCounter::new();
    critical(&p, &hist, &count);
    let small_out = SharedCounter::new();
    for j in 0..neighbours {
        neighbour(&p, 2 + j, &small_out);
    }
    let dag = p.compile(1).unwrap();
    let cfg = SimClusterConfig {
        members: 1,
        cores_per_member: 2,
        cost_model: jet_sim::CostModel::paper_calibrated(),
        guarantee: jet_core::processor::Guarantee::ExactlyOnce,
        snapshot_interval: 50 * MS,
        quotas: quotas.clone(),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(WARMUP);
    hist.clear();
    let before = count.get();
    cluster.run_for(MEASURE);
    let outputs = count.get() - before;
    cluster.cancel();
    RunResult {
        hist: hist.snapshot(),
        outputs,
        inputs: CRITICAL_RATE * MEASURE / SEC,
        virtual_secs: MEASURE as f64 / 1e9,
        diagnostics: None,
        cluster_events: Vec::new(),
        spike: None,
        attribution: None,
        recorder: Recorder::disabled(),
    }
}

fn main() {
    println!(
        "# Tenant isolation: critical job at {}k ev/s vs {} neighbours at \
         {}k ev/s each, 1 member x 2 vcores",
        CRITICAL_RATE / 1000,
        SMALL_JOBS,
        SMALL_RATE / 1000
    );
    let quota = JobQuotas::new().with_weight(CRITICAL_JOB, 64);
    let mut report = BenchReport::new("fig_tenant_stress");
    report
        .param("critical_rate", CRITICAL_RATE)
        .param("small_jobs", SMALL_JOBS)
        .param("small_rate", SMALL_RATE)
        .param("critical_weight", 64)
        .param("measure_ms", MEASURE / MS);

    let mut p9999 = Vec::new();
    for (label, neighbours, quotas) in [
        ("solo", 0, None),
        ("crowd-rr", SMALL_JOBS, None),
        ("crowd-quota", SMALL_JOBS, Some(quota)),
    ] {
        let r = run_one(neighbours, quotas.clone());
        println!("{label:12}  {}", percentile_row(&r.hist));
        p9999.push(r.hist.percentile(99.99) as f64);
        report.add_run(
            label,
            &[
                ("neighbours", neighbours.to_string()),
                ("quotas", quotas.is_some().to_string()),
            ],
            &r,
        );
    }
    let (solo, rr, quota) = (p9999[0], p9999[1], p9999[2]);
    println!(
        "critical p99.99: solo {:.3}ms | crowd-rr {:.3}ms ({:.2}x) | \
         crowd-quota {:.3}ms ({:.2}x)",
        solo / 1e6,
        rr / 1e6,
        rr / solo,
        quota / 1e6,
        quota / solo
    );
    report.add_values(
        "isolation",
        &[],
        &[
            ("solo_p9999_ms", solo / 1e6),
            ("crowd_rr_p9999_ms", rr / 1e6),
            ("crowd_quota_p9999_ms", quota / 1e6),
            ("rr_ratio", rr / solo),
            ("quota_ratio", quota / solo),
        ],
    );
    report.write().expect("report");
    assert!(
        quota <= solo * 2.0,
        "quota run p99.99 {:.3}ms exceeds 2x solo baseline {:.3}ms",
        quota / 1e6,
        solo / 1e6
    );
    println!("ACCEPTANCE: crowd-quota p99.99 within 2x of solo baseline");
}
