//! Figure 8: per-function warm/cold/dropped breakdown for the
//! skewed-frequency workload (CNN, disk-bench, web-serving families at an
//! aggregate 1500 ms IAT; floating-point at 400 ms) on OpenWhisk vs
//! FaasCache, plus the application-latency comparison the paper
//! summarizes as "6×".
//!
//! Run with: `cargo run --release -p faascache-bench --bin fig8_breakdown`

use faascache::core::policy::PolicyKind;
use faascache::platform::emulator::{Emulator, PlatformResult};
use faascache::prelude::*;
use faascache::trace::workloads;
use faascache_bench::overload_config;
use std::collections::BTreeMap;

const CLONES: usize = 8;

/// Aggregates clone statistics back to their app family.
fn by_family(r: &PlatformResult) -> BTreeMap<String, (u64, u64, u64, u64)> {
    let mut fam: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
    for f in &r.per_function {
        let family = f
            .name
            .rsplit_once('-')
            .map(|(head, _)| head.to_string())
            .unwrap_or_else(|| f.name.clone());
        let e = fam.entry(family).or_insert((0, 0, 0, 0));
        e.0 += f.warm;
        e.1 += f.cold;
        e.2 += f.dropped;
        e.3 += f.latency_sum_us;
    }
    fam
}

fn print_breakdown(label: &str, r: &PlatformResult) {
    println!("{label} ({}):", r.policy);
    println!(
        "  {:<20} {:>7} {:>7} {:>8} {:>8} {:>13}",
        "app family", "warm", "cold", "dropped", "hit%", "mean latency"
    );
    for (family, (warm, cold, dropped, latency_us)) in by_family(r) {
        let served = warm + cold;
        println!(
            "  {:<20} {:>7} {:>7} {:>8} {:>7.1}% {:>13}",
            family,
            warm,
            cold,
            dropped,
            100.0 * warm as f64 / served.max(1) as f64,
            SimDuration::from_micros(latency_us / served.max(1)).to_string()
        );
    }
    println!(
        "  TOTAL: warm {} cold {} dropped {} | served {} | mean latency {}\n",
        r.warm,
        r.cold,
        r.dropped,
        r.served(),
        r.mean_latency()
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = workloads::skewed_frequency_clones(SimDuration::from_mins(60), CLONES)?;
    println!(
        "Figure 8: skewed-frequency workload breakdown\n\
         6000 MB pool, 6 CPU slots, {CLONES} clones per app, {} requests over 60 minutes\n",
        trace.len()
    );

    let ow = Emulator::run(&trace, &overload_config(PolicyKind::Ttl));
    let fc = Emulator::run(&trace, &overload_config(PolicyKind::GreedyDual));
    print_breakdown("OpenWhisk", &ow);
    print_breakdown("FaasCache", &fc);

    println!(
        "FaasCache vs OpenWhisk: {:.2}x warm starts, {:.2}x served requests, {:.2}x lower mean latency",
        fc.warm as f64 / ow.warm.max(1) as f64,
        fc.served() as f64 / ow.served().max(1) as f64,
        ow.mean_latency().as_secs_f64() / fc.mean_latency().as_secs_f64().max(1e-9),
    );
    Ok(())
}
