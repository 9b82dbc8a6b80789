//! Figure 7: FaasCache (GD) vs vanilla OpenWhisk (TTL) cold and warm
//! invocation counts under three skewed workloads (skewed frequency,
//! cyclic access, skewed size).
//!
//! The emulated server mirrors the artifact's load tests: many function
//! instances ("clones" of the Table-1 apps, like the LookBusy actions), a
//! pool-memory limit that forces keep-alive decisions, and a CPU
//! concurrency cap so cold-start-heavy systems queue and shed load.
//!
//! Run with: `cargo run --release -p faascache-bench --bin fig7_skew`

use faascache::core::policy::PolicyKind;
use faascache::platform::emulator::Emulator;
use faascache::prelude::*;
use faascache::trace::workloads;
use faascache_bench::overload_config;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let duration = SimDuration::from_mins(30);
    let clones = 8;
    println!(
        "Figure 7: invocations served by OpenWhisk (TTL) vs FaasCache (GD)\n\
         6000 MB pool, 6 CPU slots, {clones} clones per app, 30-minute workloads\n"
    );
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>11}",
        "Workload",
        "OW cold",
        "OW warm",
        "FC cold",
        "FC warm",
        "OW drop",
        "FC drop",
        "warm gain",
        "served gain"
    );

    for (name, trace) in [
        (
            "Skewed Freq",
            workloads::skewed_frequency_clones(duration, clones)?,
        ),
        ("Cyclic", workloads::cyclic_clones(duration, clones)?),
        (
            "Skewed Size",
            workloads::skewed_size_clones(duration, clones)?,
        ),
    ] {
        let ow = Emulator::run(&trace, &overload_config(PolicyKind::Ttl));
        let fc = Emulator::run(&trace, &overload_config(PolicyKind::GreedyDual));
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9.2}x {:>10.2}x",
            name,
            ow.cold,
            ow.warm,
            fc.cold,
            fc.warm,
            ow.dropped,
            fc.dropped,
            fc.warm as f64 / ow.warm.max(1) as f64,
            fc.served() as f64 / ow.served().max(1) as f64,
        );
    }
    Ok(())
}
