//! Figure 9: dynamic cache-size adjustment. The proportional controller
//! keeps the cold-start rate near the target while shrinking the average
//! cache size well below the conservative static provisioning (the paper
//! reports ~30 %).
//!
//! Run with: `cargo run --release -p faascache-bench --bin fig9_elastic`

use faascache::prelude::*;
use faascache::sim::elastic::{run_elastic, Controller, ControllerConfig, ElasticConfig};
use faascache::trace::{adapt, synth};

fn main() {
    // A diurnal day: the arrival rate at peak is about 2x the mean.
    let dataset = synth::generate(&synth::SynthConfig {
        num_functions: 150,
        num_apps: 60,
        max_rate_per_min: 12.0,
        diurnal_amplitude: 1.0,
        seed: faascache_bench::EXPERIMENT_SEED ^ 9,
        ..synth::SynthConfig::default()
    });
    let trace = adapt::adapt(&dataset, &adapt::AdaptOptions::default());

    // Preparation phase: hit-ratio curve from reuse distances.
    let curve = HitRatioCurve::from_reuse(&reuse_distances(&trace));

    // The conservative static choice, and the paper-style horizontal
    // target line: the miss speed a static server would average, with a
    // little slack so quiet periods let the controller shrink.
    let static_size = MemMb::new(10_000);
    let mean_rate = trace.len() as f64 / trace.duration().as_secs_f64();
    let achievable = (1.0 - curve.hit_ratio(static_size)) * mean_rate;
    let target = 1.5 * achievable;
    let controller = Controller::new(
        curve.clone(),
        ControllerConfig::new(target, MemMb::new(1000), static_size),
    );

    let result = run_elastic(&trace, &ElasticConfig::new(static_size), controller);

    println!("Figure 9: elastic cache sizing (target {target:.4} cold starts/s)\n");
    println!(
        "{:>7} {:>12} {:>10} {:>12} {:>8}",
        "min", "cache (MB)", "miss/s", "arrivals/s", "resized"
    );
    for s in result.samples.iter().step_by(3) {
        println!(
            "{:>7.0} {:>12} {:>10.4} {:>12.1} {:>8}",
            s.time_secs / 60.0,
            s.capacity_mb,
            s.miss_speed,
            s.arrival_rate,
            if s.resized { "yes" } else { "" }
        );
    }

    let saving = 100.0 * (1.0 - result.avg_capacity_mb / static_size.as_mb() as f64);
    println!("\nstatic provisioning:  {} MB", static_size.as_mb());
    println!("elastic average:      {:.0} MB", result.avg_capacity_mb);
    println!("reduction:            {saving:.0}%");
    println!(
        "mean miss speed:      {:.4}/s (target {target:.4}/s)",
        result.mean_miss_speed()
    );
    let t = result.tally;
    println!(
        "totals: warm {} cold {} dropped {}",
        t.warm, t.cold, t.dropped
    );
}
