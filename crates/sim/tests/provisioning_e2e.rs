//! Cross-crate provisioning tests: reuse-distance curves against observed
//! simulator behavior, static sizing, SHARDS accuracy, and the elastic
//! controller loop.

use faascache_analysis::hitratio::HitRatioCurve;
use faascache_analysis::reuse::reuse_distances;
use faascache_analysis::shards;
use faascache_core::policy::PolicyKind;
use faascache_provision::controller::{Controller, ControllerConfig};
use faascache_provision::static_prov::StaticProvisioner;
use faascache_sim::elastic::{run_elastic, ElasticConfig};
use faascache_sim::sim::{SimConfig, Simulation};
use faascache_trace::record::Trace;
use faascache_trace::{adapt, sample, synth};
use faascache_util::{MemMb, Pcg64};

fn trace(seed: u64) -> Trace {
    let dataset = synth::generate(&synth::SynthConfig {
        num_functions: 250,
        num_apps: 80,
        max_rate_per_min: 30.0,
        zipf_exponent: 1.2,
        seed,
        ..synth::SynthConfig::default()
    });
    let mut rng = Pcg64::seed_from_u64(seed);
    let sampled = sample::representative(&dataset, 100, &mut rng);
    adapt::adapt(&sampled, &adapt::AdaptOptions::default())
}

#[test]
fn curve_predicts_simulated_hit_ratio_at_large_sizes() {
    // Figure 3's claim: the reuse-distance curve tracks the observed hit
    // ratio, with deviations at small sizes (drops) and large sizes
    // (concurrency). At a comfortably large size the two should be close.
    let t = trace(1);
    let curve = HitRatioCurve::from_reuse(&reuse_distances(&t));
    let size = t.registry().total_mem().mul_f64(0.8);
    let sim = Simulation::run(&t, &SimConfig::new(size, PolicyKind::GreedyDual));
    let predicted = curve.hit_ratio(size);
    let observed = sim.hit_ratio();
    assert!(
        (predicted - observed).abs() < 0.08,
        "predicted {predicted:.3} vs observed {observed:.3}"
    );
}

#[test]
fn curve_overestimates_at_starved_sizes() {
    // At small sizes the real hit ratio falls below the ideal curve
    // because requests are dropped — the paper's Figure-3 deviation.
    let t = trace(2);
    let curve = HitRatioCurve::from_reuse(&reuse_distances(&t));
    let size = t.registry().total_mem().mul_f64(0.05);
    let sim = Simulation::run(&t, &SimConfig::new(size, PolicyKind::GreedyDual));
    assert!(
        sim.hit_ratio() <= curve.hit_ratio(size) + 0.02,
        "observed {:.3} should not exceed ideal {:.3}",
        sim.hit_ratio(),
        curve.hit_ratio(size)
    );
}

#[test]
fn static_provisioning_achieves_its_target() {
    let t = trace(3);
    let curve = HitRatioCurve::from_reuse(&reuse_distances(&t));
    let prov = StaticProvisioner::new(curve);
    let target = 0.9 * prov.curve().max_hit_ratio();
    let plan = prov.by_target_hit_ratio(target).expect("reachable target");
    let sim = Simulation::run(&t, &SimConfig::new(plan.size, PolicyKind::GreedyDual));
    // Concurrency and drops cost a few points vs the ideal curve.
    assert!(
        sim.hit_ratio() > target - 0.12,
        "hit ratio {:.3} far below target {target:.3} at {}",
        sim.hit_ratio(),
        plan.size
    );
}

#[test]
fn shards_estimate_tracks_exact_curve_on_pipeline_trace() {
    let t = trace(4);
    let exact = HitRatioCurve::from_reuse(&reuse_distances(&t));
    let est = shards::estimate_curve(&t, 0.3);
    let sizes = (1..=30).map(MemMb::from_gb);
    let err = shards::curve_error(&exact, &est, sizes);
    assert!(err < 0.15, "SHARDS error {err:.3} too large at rate 0.3");
}

#[test]
fn controller_tracks_target_within_band_on_average() {
    let t = trace(6);
    let curve = HitRatioCurve::from_reuse(&reuse_distances(&t));
    let target = 0.08;
    let controller = Controller::new(
        curve,
        ControllerConfig::new(target, MemMb::from_gb(1), MemMb::from_gb(20)),
    );
    let result = run_elastic(&t, &ElasticConfig::new(MemMb::from_gb(10)), controller);
    let mean = result.mean_miss_speed();
    assert!(
        mean < 4.0 * target,
        "mean miss speed {mean:.3}/s is wildly above target {target}/s"
    );
}
