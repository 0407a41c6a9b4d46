//! **Figure 13 reproduction** — "Latency in Query 5, with checkpoints
//! enabled" (§7.6): 1 s snapshot interval, exactly-once, 1 backup replica.
//!
//! Paper result: "Jet's latency at the 99.99th percentile when checkpoints
//! are enabled is about 350 ms. Latency remains very low for 70% of the
//! events approximately, then spikes up to approximately 200 ms at the 90%,
//! and continues to rise sharply up to the 99%th percentile where it
//! smoothens." The mechanism: while exactly-once barriers align, input
//! channels block; events queued behind the alignment inherit the stall.
//!
//! The same stepped distribution emerges here — low median, a sharp rise in
//! the upper percentiles driven by the once-per-second alignment stalls.

use jet_bench::{
    percentile_curve, run, write_spike_report, write_timeline, BenchReport, Query, RunSpec, MS, SEC,
};
use jet_core::flight::WatchdogConfig;
use jet_core::Ts;
use jet_pipeline::WindowDef;

fn main() {
    let mut report = BenchReport::new("fig13");
    report
        .param("query", "Q5")
        .param("members", 2)
        .param("snapshot_interval", "1s");
    println!("# Figure 13: Q5 latency with 1s exactly-once checkpoints (2 members, 1 backup)");
    let mut spec = RunSpec::new(Query::Q5, 400_000);
    spec.members = 2;
    spec.cores_per_member = 2;
    // 3 s window so the snapshotted state is sizable (the paper used 10 s:
    // serializing the window state is what drives the spikes).
    spec.window = WindowDef::sliding((3 * SEC) as Ts, (10 * MS) as Ts);
    spec.warmup = 3 * SEC + 500 * MS;
    spec.measure = 8 * SEC; // cover several checkpoint rounds
    spec.guarantee = jet_core::Guarantee::ExactlyOnce;
    spec.snapshot_interval = SEC;
    // Every fig13 run carries a full-distribution latency waterfall; the
    // checkpointed run also samples a metrics timeline (the once-per-second
    // alignment stalls show up as breathing in the queue-depth sparklines).
    spec.attribution = true;
    spec.timeline = true;
    let r = run(&spec);
    write_timeline("fig13", "exactly-once-1s", &r).expect("timeline");
    for (p, ms) in percentile_curve(&r.hist) {
        println!("p{p:6}  {ms:10.3} ms");
    }
    println!("# n={}", r.hist.count());
    report.add_run(
        "exactly-once-1s",
        &[("guarantee", "exactly-once".to_string())],
        &r,
    );
    println!("# compare: same load without checkpoints");
    let mut base = spec.clone();
    base.guarantee = jet_core::Guarantee::None;
    base.snapshot_interval = 0;
    base.measure = 3 * SEC;
    let rb = run(&base);
    println!(
        "# no-checkpoint p50={:.3}ms p99.99={:.3}ms | with-checkpoint p50={:.3}ms p99.99={:.3}ms",
        rb.p(50.0),
        rb.p(99.99),
        r.p(50.0),
        r.p(99.99),
    );
    report.add_run("no-checkpoint", &[("guarantee", "none".to_string())], &rb);

    // Same checkpointed load with a member crash injected mid-measurement,
    // detected by the heartbeat coordinator (not an API kill): the upper
    // percentiles now include detection delay + snapshot-restore recovery,
    // the full outage a real deployment would see (§7.6). The tail-latency
    // watchdog is armed on this run: `results/SPIKE_fig13.json` carries the
    // root-cause attribution of every detected p99.99 excursion.
    println!("# compare: same load with a detected member crash mid-measurement");
    let mut faulted = spec.clone();
    let crash_at = faulted.warmup + 4 * SEC;
    let mut plan = jet_sim::FaultPlan::new(13);
    plan.crash(crash_at, 1);
    faulted.fault_plan = Some(plan);
    faulted.coordinator = Some(jet_cluster::CoordinatorConfig::default());
    faulted.spike = Some(WatchdogConfig::default());
    let rf = run(&faulted);
    write_spike_report("fig13", "detected-crash", &rf).expect("spike report");
    let fenced_at = rf
        .cluster_events
        .iter()
        .find(|e| matches!(e, jet_cluster::ClusterEvent::Fenced { .. }))
        .map(|e| e.at());
    let recovered_at = rf
        .cluster_events
        .iter()
        .find(|e| matches!(e, jet_cluster::ClusterEvent::RecoveryCompleted { .. }))
        .map(|e| e.at());
    let detection_ms = fenced_at
        .map(|t| (t - crash_at) as f64 / 1e6)
        .unwrap_or(-1.0);
    let recovery_ms = match (fenced_at, recovered_at) {
        (Some(f), Some(r)) => (r - f) as f64 / 1e6,
        _ => -1.0,
    };
    println!(
        "# detected-crash p50={:.3}ms p99.99={:.3}ms (detection {:.1}ms, recovery {:.1}ms)",
        rf.p(50.0),
        rf.p(99.99),
        detection_ms,
        recovery_ms,
    );
    report.add_run(
        "detected-crash",
        &[
            ("guarantee", "exactly-once".to_string()),
            ("crash_at_ms", (crash_at / MS).to_string()),
            ("detection_ms", format!("{detection_ms:.3}")),
            ("recovery_ms", format!("{recovery_ms:.3}")),
        ],
        &rf,
    );
    report.write().expect("report");
}
