//! **Figure 11 reproduction** — "Latency for NEXMark queries on a 5-node
//! cluster" (fault tolerance disabled, §7.5).
//!
//! Paper result: map/filter queries stay at or below ~1 ms even at p99.99;
//! join/window queries reach 11–12 ms at p99.99 while ≥90% of their events
//! are at 2 ms or less — all with a window triggering every 10 ms.

use jet_bench::{percentile_curve, run, BenchReport, Query, RunSpec, MS, SEC};
use jet_core::Ts;
use jet_pipeline::WindowDef;

pub fn run_for_members(members: usize, report: &mut BenchReport) {
    for query in [Query::Q1, Query::Q2, Query::Q5, Query::Q8, Query::Q13] {
        let mut spec = RunSpec::new(query, 400_000);
        spec.members = members;
        spec.cores_per_member = 2;
        spec.window = WindowDef::sliding(SEC as Ts, (10 * MS) as Ts);
        spec.warmup = SEC + 500 * MS;
        spec.measure = 1500 * MS;
        spec.guarantee = jet_core::Guarantee::None; // §7.5: FT disabled
        let r = run(&spec);
        print!("{:4}", query.name());
        for (p, ms) in percentile_curve(&r.hist) {
            print!("  p{p}={ms:.3}ms");
        }
        println!("  n={}", r.hist.count());
        eprintln!("  [{} x{members} done]", query.name());
        report.add_run(query.name(), &[("query", query.name().to_string())], &r);
    }
}

fn main() {
    println!("# Figure 11: latency distribution per query on a 5-member cluster (FT off)");
    let mut report = BenchReport::new("fig11");
    report
        .param("members", 5)
        .param("cores_per_member", 2)
        .param("total_rate", 400_000);
    run_for_members(5, &mut report);
    report.write().expect("report");
}
