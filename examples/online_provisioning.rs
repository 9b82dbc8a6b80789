//! Online provisioning: stream a day of invocations through the
//! epoch-based hit-ratio estimator, watch for drift, and re-provision
//! when the workload shifts — the paper's §5.2 "online adjustments"
//! realized end to end. Also demonstrates the Azure CSV round trip, the
//! drop-in path for the real dataset.
//!
//! Run with: `cargo run --release --example online_provisioning`

use faascache::analysis::online::OnlineCurveEstimator;
use faascache::prelude::*;
use faascache::trace::azure::AzureDataset;
use faascache::trace::{adapt, synth};

fn main() {
    // Generate a synthetic day and push it through the *CSV* schema, as
    // if it had been loaded from the real Azure dataset files.
    let dataset = synth::generate(&synth::SynthConfig {
        num_functions: 200,
        num_apps: 70,
        max_rate_per_min: 20.0,
        seed: 2026,
        ..synth::SynthConfig::default()
    });
    let (inv_csv, dur_csv, mem_csv) = dataset.to_csv();
    let reloaded = AzureDataset::parse_csv(&inv_csv, &dur_csv, &mem_csv, 170.0)
        .expect("round-trip through the published schema");
    assert_eq!(reloaded, dataset);
    println!(
        "loaded {} functions / {} invocations via the Azure CSV schema",
        reloaded.len(),
        reloaded.total_invocations()
    );

    let trace = adapt::adapt(&reloaded, &adapt::AdaptOptions::default());

    // Stream invocations through the online estimator; at every epoch
    // boundary, print the drift and the size a 90%-target provisioner
    // would now pick.
    let epoch = trace.len() / 6;
    let mut estimator = OnlineCurveEstimator::new(epoch.max(1));
    let probe: Vec<MemMb> = (1..=40).map(MemMb::from_gb).collect();

    println!("\nepoch  drift   recommended size (90% of achievable hit ratio)");
    for inv in trace.invocations() {
        let mem = trace.registry().spec(inv.function).mem();
        if estimator.observe(inv.function, mem) {
            let curve = estimator.curve().expect("epoch just closed");
            let drift = estimator.drift(probe.iter().copied());
            let size = curve
                .size_for_hit_ratio(0.9 * curve.max_hit_ratio())
                .expect("target within reach");
            println!(
                "{:>5}  {}  {} (predicted hit ratio {:.2})",
                estimator.epochs_completed(),
                drift
                    .map(|d| format!("{d:.4}"))
                    .unwrap_or_else(|| "  n/a ".into()),
                size,
                curve.hit_ratio(size)
            );
        }
    }
    println!(
        "\n({} invocations buffered toward the unfinished final epoch)",
        estimator.pending()
    );
}
