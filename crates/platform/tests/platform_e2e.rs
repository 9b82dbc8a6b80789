//! Platform-emulator end-to-end tests: the Figure-7/8 comparisons of
//! FaasCache (GD) against vanilla OpenWhisk (TTL).

use faascache_core::function::FunctionRegistry;
use faascache_core::policy::PolicyKind;
use faascache_platform::emulator::{Emulator, PlatformConfig, PlatformResult};
use faascache_platform::lifecycle::PhaseModel;
use faascache_sim::Tally;
use faascache_trace::record::Trace;
use faascache_trace::{apps, workloads};
use faascache_util::{MemMb, SimDuration};

fn run(trace: &Trace, policy: PolicyKind, mem: MemMb) -> PlatformResult {
    Emulator::run(trace, &PlatformConfig::new(mem, policy))
}

fn fig7_config(policy: PolicyKind) -> PlatformConfig {
    let mut cfg = PlatformConfig::new(MemMb::new(6000), policy);
    cfg.max_concurrency = 6;
    cfg.patience = SimDuration::from_secs(15);
    cfg
}

#[test]
fn figure7_faascache_never_serves_fewer_warm_starts() {
    let duration = SimDuration::from_mins(15);
    for (name, trace) in [
        (
            "skewed-freq",
            workloads::skewed_frequency_clones(duration, 8).unwrap(),
        ),
        ("cyclic", workloads::cyclic_clones(duration, 8).unwrap()),
        (
            "skewed-size",
            workloads::skewed_size_clones(duration, 8).unwrap(),
        ),
    ] {
        let ow = Emulator::run(&trace, &fig7_config(PolicyKind::Ttl)).totals();
        let fc = Emulator::run(&trace, &fig7_config(PolicyKind::GreedyDual)).totals();
        assert!(
            fc.warm >= ow.warm,
            "{name}: FC warm {} < OW warm {}",
            fc.warm,
            ow.warm
        );
        assert!(
            fc.served() >= ow.served(),
            "{name}: FC served {} < OW served {}",
            fc.served(),
            ow.served()
        );
    }
}

#[test]
fn figure8_faascache_gains_warm_starts_and_latency() {
    let trace = workloads::skewed_frequency_clones(SimDuration::from_mins(30), 8).unwrap();
    let ow = Emulator::run(&trace, &fig7_config(PolicyKind::Ttl));
    let fc = Emulator::run(&trace, &fig7_config(PolicyKind::GreedyDual));
    let (owt, fct) = (ow.totals(), fc.totals());
    assert!(
        fct.warm as f64 > 1.2 * owt.warm as f64,
        "FC warm {} should clearly exceed OW warm {}",
        fct.warm,
        owt.warm
    );
    assert!(
        ow.mean_latency().as_secs_f64() > 3.0 * fc.mean_latency().as_secs_f64(),
        "OW latency {} should dwarf FC latency {}",
        ow.mean_latency(),
        fc.mean_latency()
    );
    assert!(fct.dropped < owt.dropped);
}

#[test]
fn figure8_per_function_priorities_show_in_hit_ratios() {
    // GD prioritizes high-init-cost, small functions: the floating-point
    // family (1.7 s init, 128 MB) should get a higher aggregate hit ratio
    // than the CNN family (512 MB) under memory pressure.
    let trace = workloads::skewed_frequency_clones(SimDuration::from_mins(30), 8).unwrap();
    let fc = Emulator::run(&trace, &fig7_config(PolicyKind::GreedyDual));
    let family_hit = |prefix: &str| {
        let t: Tally = fc
            .per_function
            .iter()
            .filter(|f| f.name.starts_with(prefix))
            .map(|f| &f.tally)
            .sum();
        t.warm as f64 / t.served().max(1) as f64
    };
    let fp = family_hit("floating-point");
    let cnn = family_hit("ml-inference");
    assert!(
        fp > cnn,
        "floating-point hit ratio {fp:.2} should exceed CNN {cnn:.2} under GD"
    );
}

#[test]
fn latency_reflects_cold_starts() {
    // With plentiful memory almost everything is warm, so FaasCache's
    // mean latency approaches the warm execution time.
    let trace = workloads::skewed_frequency(SimDuration::from_mins(10)).unwrap();
    let fc = run(&trace, PolicyKind::GreedyDual, MemMb::from_gb(32));
    let ow_tiny = run(&trace, PolicyKind::Ttl, MemMb::new(700));
    assert!(
        ow_tiny.mean_latency() > fc.mean_latency(),
        "starved TTL ({}) should be slower than ample GD ({})",
        ow_tiny.mean_latency(),
        fc.mean_latency()
    );
}

#[test]
fn figure1_overhead_dominates_short_functions() {
    let mut reg = FunctionRegistry::new();
    let ids = apps::register_table1(&mut reg).unwrap();
    let model = PhaseModel::default();
    for &id in &ids {
        let spec = reg.spec(id);
        let tl = model.timeline(spec);
        // Timeline totals the pool check plus the cold time.
        let expected = spec.cold_time() + model.pool_check;
        let diff = (tl.total().as_secs_f64() - expected.as_secs_f64()).abs();
        assert!(
            diff < 0.01,
            "{}: timeline {} vs {}",
            spec.name(),
            tl.total(),
            expected
        );
    }
    // The web-serving app spends >80% of its cold time in overhead.
    let web = reg.find("web-serving").unwrap();
    let tl = model.timeline(web);
    let frac = tl.overhead().as_secs_f64() / tl.total().as_secs_f64();
    assert!(frac > 0.8, "web overhead fraction {frac:.2}");
}

#[test]
fn queue_sheds_load_under_sustained_overload() {
    let trace = workloads::skewed_frequency(SimDuration::from_mins(10)).unwrap();
    let mut cfg = PlatformConfig::new(MemMb::from_gb(16), PolicyKind::GreedyDual);
    cfg.max_concurrency = 1; // one CPU slot: hopeless backlog
    cfg.queue_capacity = 8;
    cfg.patience = SimDuration::from_secs(10);
    let r = Emulator::run(&trace, &cfg).totals();
    assert!(r.dropped > r.served(), "overload should drop most requests");
    assert_eq!(r.total() as usize, trace.len());
}
