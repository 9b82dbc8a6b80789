//! End-to-end pipeline tests: synthetic dataset → sampling → adaptation →
//! simulation, asserting the paper's headline *shapes* hold on this
//! reproduction.

use faascache_core::policy::PolicyKind;
use faascache_sim::sim::{SimConfig, Simulation};
use faascache_trace::record::Trace;
use faascache_trace::{adapt, sample, synth};
use faascache_util::Pcg64;

fn pipeline_trace(seed: u64, functions: usize, sample_n: usize) -> Trace {
    let dataset = synth::generate(&synth::SynthConfig {
        num_functions: functions,
        num_apps: (functions / 3).max(1),
        max_rate_per_min: 60.0,
        zipf_exponent: 1.2,
        seed,
        ..synth::SynthConfig::default()
    });
    let mut rng = Pcg64::seed_from_u64(seed ^ 0xF00D);
    let sampled = sample::representative(&dataset, sample_n, &mut rng);
    adapt::adapt(
        &sampled,
        &adapt::AdaptOptions {
            horizon_mins: Some(360),
            ..adapt::AdaptOptions::default()
        },
    )
}

#[test]
fn greedy_dual_beats_ttl_on_representative_workload() {
    let trace = pipeline_trace(11, 300, 120);
    // A cache that holds roughly a third of the total footprint.
    let memory = trace.registry().total_mem().mul_f64(0.35);
    let gd = Simulation::run(&trace, &SimConfig::new(memory, PolicyKind::GreedyDual));
    let ttl = Simulation::run(&trace, &SimConfig::new(memory, PolicyKind::Ttl));
    assert!(
        gd.pct_cold() < ttl.pct_cold(),
        "GD {:.2}% cold should beat TTL {:.2}%",
        gd.pct_cold(),
        ttl.pct_cold()
    );
    assert!(
        gd.pct_increase_exec_time() < ttl.pct_increase_exec_time(),
        "GD exec increase {:.2}% should beat TTL {:.2}%",
        gd.pct_increase_exec_time(),
        ttl.pct_increase_exec_time()
    );
}

#[test]
fn caching_policies_beat_ttl_on_rare_workload() {
    // Rare functions: IATs beyond the 10-minute TTL, so TTL is nearly
    // always cold while resource-conserving policies keep them alive.
    let dataset = synth::generate(&synth::SynthConfig {
        num_functions: 400,
        num_apps: 130,
        max_rate_per_min: 60.0,
        zipf_exponent: 1.5,
        seed: 21,
        ..synth::SynthConfig::default()
    });
    let mut rng = Pcg64::seed_from_u64(21);
    let rare = sample::rare(&dataset, 80, &mut rng);
    let trace = adapt::adapt(&rare, &adapt::AdaptOptions::default());
    let memory = trace.registry().total_mem(); // everything fits
    let ttl = Simulation::run(&trace, &SimConfig::new(memory, PolicyKind::Ttl));
    for kind in [PolicyKind::GreedyDual, PolicyKind::Lru] {
        let r = Simulation::run(&trace, &SimConfig::new(memory, kind));
        assert!(
            r.pct_cold() < 0.6 * ttl.pct_cold(),
            "{kind} {:.1}% cold should be well below TTL {:.1}%",
            r.pct_cold(),
            ttl.pct_cold()
        );
    }
    // TTL on a rare trace is mostly cold.
    assert!(
        ttl.pct_cold() > 50.0,
        "rare trace under TTL should be mostly cold, got {:.1}%",
        ttl.pct_cold()
    );
}
