//! **Figure 11 reproduction** — "Latency for NEXMark queries on a 5-node
//! cluster" (fault tolerance disabled, §7.5).
//!
//! Paper result: map/filter queries stay at or below ~1 ms even at p99.99;
//! join/window queries reach 11–12 ms at p99.99 while ≥90% of their events
//! are at 2 ms or less — all with a window triggering every 10 ms.

fn main() {
    println!("# Figure 11: latency distribution per query on a 5-member cluster (FT off)");
    jet_bench::nexmark_cluster_latency("fig11", 5);
}
