//! **§7.7 reproduction** — multi-tenancy: "we executed one hundred Query 5
//! jobs concurrently on a single node [...] We observed roughly 200ms
//! 99.99th percentile latency, when running 100 concurrent jobs with an
//! aggregate throughput of one million events per second."
//!
//! The mechanism under test is the tasklet design: hundreds of operator
//! instances share the same few cooperative threads, and an idle tasklet
//! costs one cheap poll per round. We deploy 100 independent Q5-shaped
//! jobs into one execution (disconnected subgraphs — tasklets of all jobs
//! interleave in the same round-robin loops, exactly like 100 Jet jobs on
//! one member) and compare against a single job ingesting the same
//! aggregate rate.

use jet_bench::{percentile_row, MS, SEC};
use jet_cluster::{SimCluster, SimClusterConfig};
use jet_core::metrics::{SharedCounter, SharedHistogram};
use jet_core::processors::agg::counting;
use jet_core::Ts;
use jet_pipeline::{Pipeline, WindowDef};

fn tenant(
    p: &Pipeline,
    id: u64,
    rate: u64,
    keys: u64,
    hist: &SharedHistogram,
    count: &SharedCounter,
) {
    p.read_from_generator("src", rate, move |seq, _ts| (seq % keys, seq))
        .in_job(id as u32)
        .grouping_key(|(k, _): &(u64, u64)| *k)
        .window(WindowDef::sliding(SEC as Ts, (100 * MS) as Ts))
        .aggregate(counting::<(u64, u64)>())
        .write_to_latency(hist.clone(), count.clone());
}

fn run_jobs(jobs: u64, aggregate_rate: u64) -> jet_util::Histogram {
    let p = Pipeline::create();
    let hist = SharedHistogram::new();
    let count = SharedCounter::new();
    let per_job_keys = (10_000 / jobs).max(10);
    for j in 0..jobs {
        tenant(&p, j, aggregate_rate / jobs, per_job_keys, &hist, &count);
    }
    let dag = p.compile(1).unwrap(); // lp 1 per vertex: 100 jobs x ~4 tasklets
    let cfg = SimClusterConfig {
        members: 1,
        cores_per_member: 2,
        cost_model: jet_sim::CostModel::paper_calibrated(),
        ..Default::default()
    };
    let mut cluster = SimCluster::start(dag, cfg).unwrap();
    cluster.run_for(SEC + 500 * MS);
    hist.clear();
    cluster.run_for(2 * SEC);
    cluster.cancel();
    hist.snapshot()
}

fn main() {
    println!("# §7.7: N concurrent jobs on one member (2 vcores), fixed 400k ev/s aggregate");
    println!("# jobs  tasklets~  latency");
    for jobs in [1u64, 10, 50, 100] {
        let h = run_jobs(jobs, 400_000);
        println!("{jobs:4}  {}", percentile_row(&h));
        eprintln!("  [{jobs} jobs done]");
    }
}
