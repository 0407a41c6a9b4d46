//! **Figure 9 reproduction** — "Distribution of latencies of all NEXMark
//! queries for 1M events per second and cluster size of DOP=240."
//!
//! Paper result: the 99.9th percentile latency is at worst 10 ms; simple
//! queries sit at/below 1 ms across the whole distribution, windowed
//! queries (Q5, Q8) rise towards the tail.
//!
//! Scale-down: largest cluster = 20 members × 2 vcores (DOP 40), total
//! rate 400k ev/s.
//!
//! Every run carries full-distribution attribution, which arms the flight
//! recorder's span ring, and samples the metrics timeline: per query,
//! `results/TRACE_fig9_<query>.json` is the recorder's retained spans as
//! Chrome trace-event JSON (load in Perfetto) and `.txt` the diagnostics
//! dump, `results/TIMELINE_fig9_<query>.json` the timeline, and each run's
//! `BENCH_fig9.json` record carries a p50/p99/p99.99 latency waterfall.
//! All of them observe off the virtual timeline — the percentile curves
//! are the reproduction target and are identical with them off.

use jet_bench::{
    percentile_curve, run, write_timeline, write_trace, BenchReport, Query, RunSpec, MS, SEC,
};
use jet_core::Ts;
use jet_pipeline::WindowDef;

fn main() {
    println!("# Figure 9: latency distribution per query at the largest cluster size");
    println!("# query then (percentile, latency_ms) pairs");
    let mut report = BenchReport::new("fig9");
    report
        .param("members", 20)
        .param("cores_per_member", 2)
        .param("total_rate", 400_000);
    for query in [Query::Q1, Query::Q2, Query::Q5, Query::Q8, Query::Q13] {
        let mut spec = RunSpec::new(query, 400_000);
        spec.members = 20;
        spec.cores_per_member = 2;
        spec.window = WindowDef::sliding(SEC as Ts, (10 * MS) as Ts);
        spec.warmup = SEC + 500 * MS;
        spec.measure = 1500 * MS;
        spec.attribution = true;
        spec.timeline = true;
        let r = run(&spec);
        print!("{:4}", query.name());
        for (p, ms) in percentile_curve(&r.hist) {
            print!("  p{p}={ms:.3}ms");
        }
        println!("  n={}", r.hist.count());
        eprintln!("  [{} done]", query.name());
        write_trace(&format!("fig9_{}", query.name()), &r).expect("trace");
        write_timeline(&format!("fig9_{}", query.name()), query.name(), &r).expect("timeline");
        report.add_run(query.name(), &[("query", query.name().to_string())], &r);
    }
    report.write().expect("report");
}
