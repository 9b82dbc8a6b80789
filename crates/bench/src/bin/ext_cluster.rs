//! Extension experiment (paper §9, "Cluster-level analysis"): how request
//! routing affects keep-alive effectiveness across a fleet of servers.
//!
//! The paper predicts that stateful, locality-preserving load balancing
//! improves keep-alive hit ratios while randomized routing hurts them.
//! This harness measures all four balancers against the
//! one-big-server baseline on the representative trace, then prices the
//! sharded daemon's split: affinity over 1, 2, 4 and 8 pools that share
//! one total memory, at every Figure-6 size.
//!
//! Run with: `cargo run --release -p faascache-bench --bin ext_cluster`

use faascache::core::policy::PolicyKind;
use faascache::prelude::*;
use faascache::sim::cluster::{compare_balancers, run_cluster, ClusterConfig, LoadBalancer};

fn main() {
    let trace = faascache_bench::representative_trace();
    let servers = 4;
    let per_server = SimConfig::new(MemMb::from_gb(10), PolicyKind::GreedyDual);
    println!(
        "Cluster extension: {} servers x {} each, GD keep-alive, representative trace\n",
        servers, per_server.memory
    );

    let (results, single) = compare_balancers(&trace, servers, per_server, 42);
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>11}",
        "routing", "warm", "cold", "dropped", "hit%", "imbalance"
    );
    for r in &results {
        let t = r.totals();
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>8.1}% {:>11.3}",
            r.balancer,
            t.warm,
            t.cold,
            t.dropped,
            100.0 * r.hit_ratio(),
            r.load_imbalance()
        );
    }
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>8.1}% {:>11}",
        format!("1 server x {}", per_server.memory.mul_f64(servers as f64)),
        single.warm,
        single.cold,
        single.dropped,
        100.0 * single.hit_ratio(),
        "-"
    );
    println!(
        "\n(§9: stateful/affinity routing preserves temporal locality and should\n\
         approach the single-server hit ratio; random routing fragments it)"
    );
    price_the_split(&trace);
}

/// What splitting one server's memory into affinity-routed pools costs —
/// the sharded daemon's layout: `--shards N` pools of `total / N` each,
/// every pool with the daemon's settings (`PoolConfig::new`, no eviction
/// batch). One pool is the single-server simulation.
fn price_the_split(trace: &Trace) {
    let sizes = faascache_bench::large_size_axis();
    println!("\nPrice of the split: hit% of affinity over N pools sharing one total memory");
    println!("(GD, no eviction batch, representative trace)\n");
    print!("{:<8}", "pools");
    for total in &sizes {
        print!("{:>8}", total.to_string());
    }
    println!();
    for pools in [1usize, 2, 4, 8] {
        print!("{pools:<8}");
        for &total in &sizes {
            let mut per_server = SimConfig::new(
                MemMb::new(total.as_mb() / pools as u64),
                PolicyKind::GreedyDual,
            );
            per_server.eviction_batch = MemMb::ZERO;
            let cluster = ClusterConfig {
                servers: pools,
                per_server,
                balancer: LoadBalancer::FunctionAffinity,
                seed: 42,
            };
            print!("{:>7.1}%", 100.0 * run_cluster(trace, &cluster).hit_ratio());
        }
        println!();
    }
}
