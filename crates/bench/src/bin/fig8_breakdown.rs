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
use faascache::sim::Tally;
use faascache::trace::workloads;
use faascache_bench::overload_config;
use std::collections::BTreeMap;

const CLONES: usize = 8;

/// Aggregates clone statistics back to their app family: its tally and
/// latency sum (µs).
fn by_family(r: &PlatformResult) -> BTreeMap<String, (Tally, u64)> {
    let mut fam: BTreeMap<String, (Tally, u64)> = BTreeMap::new();
    for f in &r.per_function {
        let family = f
            .name
            .rsplit_once('-')
            .map(|(head, _)| head.to_string())
            .unwrap_or_else(|| f.name.clone());
        let e = fam.entry(family).or_default();
        e.0 += f.tally;
        e.1 += f.latency_sum_us;
    }
    fam
}

fn print_breakdown(label: &str, r: &PlatformResult) {
    println!("{label} ({}):", r.policy);
    println!(
        "  {:<20} {:>7} {:>7} {:>8} {:>8} {:>13}",
        "app family", "warm", "cold", "dropped", "hit%", "mean latency"
    );
    for (family, (t, latency_us)) in by_family(r) {
        let served = t.served();
        println!(
            "  {:<20} {:>7} {:>7} {:>8} {:>7.1}% {:>13}",
            family,
            t.warm,
            t.cold,
            t.dropped,
            100.0 * t.warm as f64 / served.max(1) as f64,
            SimDuration::from_micros(latency_us / served.max(1)).to_string()
        );
    }
    let t = r.totals();
    println!(
        "  TOTAL: warm {} cold {} dropped {} | served {} | mean latency {}\n",
        t.warm,
        t.cold,
        t.dropped,
        t.served(),
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

    let (owt, fct) = (ow.totals(), fc.totals());
    println!(
        "FaasCache vs OpenWhisk: {:.2}x warm starts, {:.2}x served requests, {:.2}x lower mean latency",
        fct.warm as f64 / owt.warm.max(1) as f64,
        fct.served() as f64 / owt.served().max(1) as f64,
        ow.mean_latency().as_secs_f64() / fc.mean_latency().as_secs_f64().max(1e-9),
    );
    Ok(())
}
