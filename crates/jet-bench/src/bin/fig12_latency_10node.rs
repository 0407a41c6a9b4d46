//! **Figure 12 reproduction** — "Latency for NEXMark queries on a 10-node
//! cluster" (§7.5). Same methodology as Figure 11 with a 10-member cluster;
//! the paper's observation is that the distributions barely move from the
//! 5-node ones.

use jet_bench::{percentile_curve, run, BenchReport, Query, RunSpec, MS, SEC};
use jet_core::Ts;
use jet_pipeline::WindowDef;

fn main() {
    println!("# Figure 12: latency distribution per query on a 10-member cluster (FT off)");
    let mut report = BenchReport::new("fig12");
    report
        .param("members", 10)
        .param("cores_per_member", 2)
        .param("total_rate", 400_000);
    for query in [Query::Q1, Query::Q2, Query::Q5, Query::Q8, Query::Q13] {
        let mut spec = RunSpec::new(query, 400_000);
        spec.members = 10;
        spec.cores_per_member = 2;
        spec.window = WindowDef::sliding(SEC as Ts, (10 * MS) as Ts);
        spec.warmup = SEC + 500 * MS;
        spec.measure = 1500 * MS;
        spec.guarantee = jet_core::Guarantee::None;
        let r = run(&spec);
        print!("{:4}", query.name());
        for (p, ms) in percentile_curve(&r.hist) {
            print!("  p{p}={ms:.3}ms");
        }
        println!("  n={}", r.hist.count());
        eprintln!("  [{} done]", query.name());
        report.add_run(query.name(), &[("query", query.name().to_string())], &r);
    }
    report.write().expect("report");
}
