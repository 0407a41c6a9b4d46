//! **Figure 12 reproduction** — "Latency for NEXMark queries on a 10-node
//! cluster" (§7.5). Same methodology as Figure 11 with a 10-member cluster;
//! the paper's observation is that the distributions barely move from the
//! 5-node ones.

fn main() {
    println!("# Figure 12: latency distribution per query on a 10-member cluster (FT off)");
    jet_bench::nexmark_cluster_latency("fig12", 10);
}
