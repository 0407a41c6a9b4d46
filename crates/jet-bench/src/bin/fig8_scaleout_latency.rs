//! **Figure 8 reproduction** — "99th percentile latency for all NEXMark
//! queries for fixed input throughput of 1M events/s" while scaling the
//! cluster out (paper: 1→20 nodes, DOP 12→240).
//!
//! Paper result: latency stays essentially FLAT in cluster size; p99.99
//! never exceeds 16 ms (worst: Q5 at DOP 240); simple queries (Q1, Q2) add
//! almost nothing; Q5/Q8 are the most demanding.
//!
//! Scale-down: 2 vcores/member, total rate 400k ev/s (fixed across sizes,
//! like the paper's fixed 1M), members ∈ {1, 5, 10, 20}.
//!
//! **Figures 11 and 12** (§7.5, "Latency for NEXMark queries on a 5-/10-node
//! cluster", fault tolerance off) are the same runs at 5 and 10 members:
//! after the table, the per-query percentile curve of each is printed.
//! Paper result: map/filter queries stay at or below ~1 ms even at p99.99;
//! join/window queries reach 11–12 ms at p99.99 while ≥90% of their events
//! are at 2 ms or less.

use jet_bench::{percentile_curve, run, BenchReport, Query, RunSpec, MS, SEC};
use jet_core::Ts;
use jet_pipeline::WindowDef;

fn main() {
    println!("# Figure 8: p99 latency, fixed total input rate, scaling members out");
    println!("# query members dop p99_ms p99.99_ms n");
    let mut report = BenchReport::new("fig8");
    report
        .param("total_rate", 400_000)
        .param("cores_per_member", 2);
    // (members, figure, that figure's curve rows), printed after the table.
    let mut curves = [(5, 11, String::new()), (10, 12, String::new())];
    for query in [Query::Q1, Query::Q2, Query::Q5, Query::Q8, Query::Q13] {
        for members in [1usize, 5, 10, 20] {
            let mut spec = RunSpec::new(query, 400_000);
            spec.members = members;
            spec.cores_per_member = 2;
            spec.window = WindowDef::sliding(SEC as Ts, (10 * MS) as Ts);
            spec.warmup = SEC + 500 * MS;
            spec.measure = 1500 * MS;
            let r = run(&spec);
            println!(
                "{:4} {:3} {:4} {:10.3} {:10.3} {}",
                query.name(),
                members,
                members * 2,
                r.p(99.0),
                r.p(99.99),
                r.hist.count(),
            );
            if let Some((_, _, rows)) = curves.iter_mut().find(|c| c.0 == members) {
                rows.push_str(&format!("{:4}", query.name()));
                for (p, ms) in percentile_curve(&r.hist) {
                    rows.push_str(&format!("  p{p}={ms:.3}ms"));
                }
                rows.push_str(&format!("  n={}\n", r.hist.count()));
            }
            eprintln!("  [{} x{members} done]", query.name());
            report.add_run(
                &format!("{}-x{members}", query.name()),
                &[
                    ("query", query.name().to_string()),
                    ("members", members.to_string()),
                ],
                &r,
            );
        }
    }
    for (members, fig, rows) in curves {
        println!(
            "# Figure {fig}: latency distribution per query on a {members}-member cluster (FT off)"
        );
        print!("{rows}");
    }
    report.write().expect("report");
}
