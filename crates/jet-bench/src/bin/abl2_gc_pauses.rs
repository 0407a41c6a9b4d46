//! **Ablation A2** — GC interference (paper §5): the evaluation configures
//! G1 with a 5 ms pause target doing most work concurrently; §5 argues that
//! keeping collection off the data path is what makes p99.99 < 10 ms
//! possible on the JVM. Rust has no GC; the simulator injects pauses to
//! quantify what the paper's engineering avoids:
//!
//! * none         — this repository's natural mode;
//! * concurrent   — rotating single-core 5 ms pauses (the paper's target);
//! * stop-world   — 50 ms global pauses (what an untuned collector does).

use jet_bench::{percentile_row, run, BenchReport, Query, RunSpec, MS, SEC};
use jet_core::Ts;
use jet_pipeline::WindowDef;
use jet_sim::GcModel;

fn main() {
    println!("# Ablation A2: injected GC pauses vs Q5 latency (1 member x 2 vcores, 1M ev/s)");
    let mut report = BenchReport::new("abl2");
    report.param("query", "Q5").param("total_rate", 1_000_000);
    let cases: Vec<(&str, Option<GcModel>)> = vec![
        ("none", None),
        ("concurrent-5ms/100ms", Some(GcModel::paper_g1())),
        (
            "stop-world-50ms/500ms",
            Some(GcModel::stop_world(50 * MS, 500 * MS)),
        ),
    ];
    for (name, gc) in cases {
        let mut spec = RunSpec::new(Query::Q5, 1_000_000);
        spec.cores_per_member = 2;
        spec.window = WindowDef::sliding(SEC as Ts, (10 * MS) as Ts);
        spec.warmup = SEC + 500 * MS;
        spec.measure = 3 * SEC;
        spec.gc = gc;
        let r = run(&spec);
        println!("{name:24} {}", percentile_row(&r.hist));
        eprintln!("  [{name} done]");
        report.add_run(name, &[("gc", name.to_string())], &r);
    }
    report.write().expect("report");
}
