//! End-to-end pipeline tests: synthetic dataset → sampling → adaptation →
//! simulation, asserting the paper's headline *shapes* hold on this
//! reproduction.

use faascache::core::policy::PolicyKind;
use faascache::prelude::*;
use faascache::sim::sweep::sweep;
use faascache::trace::stats::TraceStats;
use faascache::trace::{adapt, sample, synth};

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

#[test]
fn cold_starts_shrink_as_memory_grows() {
    let trace = pipeline_trace(31, 200, 80);
    let total = trace.registry().total_mem();
    let sizes: Vec<MemMb> = [0.15, 0.3, 0.6, 1.0]
        .iter()
        .map(|f| total.mul_f64(*f))
        .collect();
    let base = SimConfig::new(sizes[0], PolicyKind::GreedyDual);
    let grid = sweep(&trace, &[PolicyKind::GreedyDual], &sizes, &base);
    for pair in grid.windows(2) {
        let a = pair[0].result.pct_cold() + pair[0].result.pct_dropped();
        let b = pair[1].result.pct_cold() + pair[1].result.pct_dropped();
        assert!(b <= a + 1e-9, "non-warm% rose with memory: {a:.2} → {b:.2}");
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let a = pipeline_trace(77, 150, 60);
    let b = pipeline_trace(77, 150, 60);
    assert_eq!(a.invocations(), b.invocations());
    let ra = Simulation::run(&a, &SimConfig::new(MemMb::from_gb(8), PolicyKind::Landlord));
    let rb = Simulation::run(&b, &SimConfig::new(MemMb::from_gb(8), PolicyKind::Landlord));
    assert_eq!(ra, rb);
}

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
