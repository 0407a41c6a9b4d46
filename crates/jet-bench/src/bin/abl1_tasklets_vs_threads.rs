//! **Ablation A1** — tasklets + cooperative threads vs the
//! thread-per-operator model (paper §3.1–3.2: "Jet does not follow the
//! typical operator-per-core model"; §7.7's multi-tenancy rests on this).
//!
//! This ablation runs on REAL threads and the wall clock (not the
//! simulator): the same batch workload — N independent source→map→sink
//! chains — executed (a) by a fixed pool of cooperative worker threads
//! round-robining all tasklets, and (b) with one OS thread per tasklet.
//! As N grows, (b) drowns in context switches and scheduler pressure while
//! (a) degrades gracefully.

use jet_core::dag::{Dag, Edge};
use jet_core::exec::{spawn_thread_per_operator, spawn_threaded};
use jet_core::metrics::SharedCounter;
use jet_core::plan::{build_local, LocalConfig};
use jet_core::processors::{CountSink, Fused, GeneratorSource, TransformP};
use jet_core::snapshot::SnapshotRegistry;
use jet_core::supplier;
use std::sync::Arc;
use std::time::Instant;

const EVENTS_PER_CHAIN: u64 = 40_000;

fn build(chains: usize, count: &SharedCounter) -> (Dag, usize) {
    let mut dag = Dag::new();
    for c in 0..chains {
        let src = dag.vertex_with_parallelism(
            format!("src{c}"),
            1,
            supplier(move |_| {
                Box::new(
                    GeneratorSource::new(u64::MAX / 2, |seq, _| seq).with_limit(EVENTS_PER_CHAIN),
                )
            }),
        );
        let map =
            dag.vertex_with_parallelism(format!("map{c}"), 1, supplier(|_| Box::new(TransformP)));
        dag.fuse(
            map,
            Arc::new(Fused::<u64>::default().map(|v| v.wrapping_mul(2654435761))),
        );
        let c2 = count.clone();
        let sink = dag.vertex_with_parallelism(
            format!("sink{c}"),
            1,
            supplier(move |_| Box::new(CountSink::new(c2.clone()))),
        );
        dag.edge(Edge::between(src, map));
        dag.edge(Edge::between(map, sink));
    }
    (dag, chains * 3)
}

fn run_mode(chains: usize, thread_per_op: bool) -> (f64, u64) {
    let count = SharedCounter::new();
    let (dag, _tasklets) = build(chains, &count);
    let registry = Arc::new(SnapshotRegistry::disabled());
    let cfg = LocalConfig::new(1);
    let exec = build_local(&dag, &cfg, &registry, None).unwrap();
    let started = Instant::now();
    let handle = if thread_per_op {
        spawn_thread_per_operator(exec.tasklets, exec.cancelled)
    } else {
        spawn_threaded(exec.tasklets, 2, exec.cancelled)
    };
    handle.join();
    let secs = started.elapsed().as_secs_f64();
    (secs, count.get())
}

fn main() {
    println!(
        "# Ablation A1: cooperative tasklets vs thread-per-operator (real threads, wall clock)"
    );
    println!("# chains ops  tasklet_secs  tpo_secs  tasklet_Mev/s  tpo_Mev/s  speedup");
    let mut report = jet_bench::BenchReport::new("abl1");
    report
        .param("events_per_chain", EVENTS_PER_CHAIN)
        .param("workers", 2);
    for chains in [4usize, 16, 64, 128] {
        let (coop_secs, n1) = run_mode(chains, false);
        let (tpo_secs, n2) = run_mode(chains, true);
        assert_eq!(n1, chains as u64 * EVENTS_PER_CHAIN);
        assert_eq!(n2, chains as u64 * EVENTS_PER_CHAIN);
        let total = n1 as f64;
        println!(
            "{chains:6} {:4} {coop_secs:12.2} {tpo_secs:9.2} {:13.2} {:10.2} {:7.2}x",
            chains * 3,
            total / coop_secs / 1e6,
            total / tpo_secs / 1e6,
            tpo_secs / coop_secs,
        );
        report.add_values(
            &format!("{chains}-chains"),
            &[("chains", chains.to_string())],
            &[
                ("tasklet_secs", coop_secs),
                ("thread_per_op_secs", tpo_secs),
                ("events", total),
                ("speedup", tpo_secs / coop_secs),
            ],
        );
    }
    report.write().expect("report");
}
