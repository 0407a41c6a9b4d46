//! **Ablation A4** — adaptive vs fixed receive window (paper §3.3): the
//! sender may only ship what the receiver granted; Jet sizes the grant to
//! ~300 ms of the observed flow and re-acks every 100 ms. A small fixed
//! window throttles throughput across member boundaries (grants run out
//! between acks); a huge fixed window removes the safety valve. The
//! adaptive policy tracks the rate.

use jet_bench::{percentile_row, run, BenchReport, Query, RunSpec, MS, SEC};
use jet_core::Ts;
use jet_pipeline::WindowDef;

fn main() {
    println!("# Ablation A4: receive-window policy vs Q5 latency (4 members, 1.6M ev/s total)");
    let mut report = BenchReport::new("abl4");
    report
        .param("query", "Q5")
        .param("members", 4)
        .param("total_rate", 1_600_000);
    for (name, fixed) in [
        ("adaptive-300ms", None),
        ("fixed-4096", Some(4096u64)),
        ("fixed-65536", Some(65_536u64)),
    ] {
        let mut spec = RunSpec::new(Query::Q5, 1_600_000);
        spec.members = 4;
        spec.cores_per_member = 2;
        spec.window = WindowDef::sliding(SEC as Ts, (10 * MS) as Ts);
        spec.warmup = SEC + 500 * MS;
        spec.measure = 2 * SEC;
        spec.fixed_receive_window = fixed;
        let r = run(&spec);
        println!("{name:16} {} out={}", percentile_row(&r.hist), r.outputs);
        eprintln!("  [{name} done]");
        report.add_run(name, &[("window_policy", name.to_string())], &r);
    }
    report.write().expect("report");
}
