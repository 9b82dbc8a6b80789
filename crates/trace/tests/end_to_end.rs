//! End-to-end pipeline test: synthetic dataset → sampling → adaptation →
//! trace statistics, asserting Table 2's shape.

use faascache_trace::stats::TraceStats;
use faascache_trace::{adapt, sample, synth};
use faascache_util::Pcg64;

#[test]
fn trace_stats_reflect_sampling() {
    let dataset = synth::generate(&synth::SynthConfig {
        num_functions: 300,
        num_apps: 100,
        zipf_exponent: 1.3,
        seed: 13,
        ..synth::SynthConfig::default()
    });
    let mut rng = Pcg64::seed_from_u64(13);
    let rep = adapt::adapt(
        &sample::representative(&dataset, 60, &mut rng),
        &adapt::AdaptOptions::default(),
    );
    let rare = adapt::adapt(
        &sample::rare(&dataset, 60, &mut rng),
        &adapt::AdaptOptions::default(),
    );
    let rep_stats = TraceStats::compute(&rep);
    let rare_stats = TraceStats::compute(&rare);
    assert!(rep_stats.reqs_per_sec > rare_stats.reqs_per_sec);
    assert!(rare_stats.avg_iat_ms > rep_stats.avg_iat_ms);
}
