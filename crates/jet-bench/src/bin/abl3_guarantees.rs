//! **Ablation A3** — processing guarantees (paper §4.4–4.6): none (the
//! active-active §4.6 mode: zero book-keeping) vs at-least-once (barriers
//! forwarded without channel blocking) vs exactly-once (aligned barriers).
//! The paper's Fig. 13 shows checkpointing costs ~2 orders of magnitude at
//! the tail; §4.4 notes at-least-once "decreas\[es\] latency" vs exactly-once.

use jet_bench::{percentile_row, run, BenchReport, Query, RunSpec, MS, SEC};
use jet_core::processor::Guarantee;
use jet_core::Ts;
use jet_pipeline::WindowDef;

fn main() {
    println!("# Ablation A3: guarantee level vs Q5 latency (2 members, 1s snapshots)");
    let mut report = BenchReport::new("abl3");
    report
        .param("query", "Q5")
        .param("members", 2)
        .param("total_rate", 400_000);
    for (name, guarantee, interval) in [
        ("none/active-active", Guarantee::None, 0u64),
        ("at-least-once", Guarantee::AtLeastOnce, SEC),
        ("exactly-once", Guarantee::ExactlyOnce, SEC),
    ] {
        let mut spec = RunSpec::new(Query::Q5, 400_000);
        spec.members = 2;
        spec.cores_per_member = 2;
        spec.window = WindowDef::sliding(SEC as Ts, (10 * MS) as Ts);
        spec.warmup = 2 * SEC;
        spec.measure = 5 * SEC;
        spec.guarantee = guarantee;
        spec.snapshot_interval = interval;
        let r = run(&spec);
        println!("{name:20} {}", percentile_row(&r.hist));
        eprintln!("  [{name} done]");
        report.add_run(name, &[("guarantee", name.to_string())], &r);
    }
    report.write().expect("report");
}
