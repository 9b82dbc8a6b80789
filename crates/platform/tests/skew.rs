//! Skew regression test: warm-set re-homing never adds a cold start.
//!
//! On a seeded single-threaded Zipf(s = 1.2) replay through 8 shards,
//! enabling re-homing never increases total cold starts vs affinity-only
//! routing on the same seed (the warm set is moved, not destroyed); the
//! replay also checks that it does migrate and does not worsen the
//! max/min per-shard served-load ratio.

use faascache_core::function::{FunctionRegistry, FunctionSpec};
use faascache_core::policy::PolicyKind;
use faascache_platform::sharded::{InvokeOutcome, RebalanceConfig, ShardedConfig, ShardedInvoker};
use faascache_util::stats::balance_ratio;
use faascache_util::{route, MemMb, SimDuration, SimTime};

const SHARDS: usize = 8;
const FUNCTIONS: usize = 64;
const ZIPF_S: f64 = 1.2;

fn registry(n: usize, mem: u64) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    for i in 0..n {
        reg.register(
            format!("f{i}"),
            MemMb::new(mem),
            SimDuration::from_micros(200),
            SimDuration::from_millis(2),
        )
        .expect("registration");
    }
    reg
}

/// Seeded Zipf(s) sampler over ranks `0..n` (rank 0 hottest): inverse-CDF
/// over the normalized `1/(k+1)^s` weights, driven by the same SplitMix64
/// stream the router's hash uses, so sequences are identical across runs
/// and across the invoker configurations under comparison.
struct ZipfSampler {
    cdf: Vec<f64>,
    state: u64,
}

impl ZipfSampler {
    fn new(n: usize, s: f64, seed: u64) -> Self {
        let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ZipfSampler { cdf, state: seed }
    }

    fn next(&mut self) -> usize {
        self.state = self.state.wrapping_add(1);
        let u = route::stable_hash(self.state) as f64 / u64::MAX as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Served (warm + cold) count per shard.
fn served_per_shard(inv: &ShardedInvoker) -> Vec<u64> {
    inv.per_shard().iter().map(|s| s.tally.served()).collect()
}

fn replay_seeded_zipf(inv: &ShardedInvoker, reg: &FunctionRegistry, requests: usize) {
    let mut zipf = ZipfSampler::new(FUNCTIONS, ZIPF_S, 0xFAA5CACE);
    let specs: Vec<&FunctionSpec> = reg.iter().collect();
    for i in 0..requests {
        let f = zipf.next();
        let at = SimTime::from_micros((i as u64) * 500);
        inv.invoke(specs[f], at);
        // A no-op on the affinity invoker (no rebalance config), so both
        // runs execute the identical sequence of calls.
        if i % 256 == 255 {
            inv.rebalance_tick(at + SimDuration::from_micros(100));
        }
    }
}

/// The same seeded Zipf(1.2) trace replayed through 8 shards, affinity
/// vs rebalancing: the rebalanced run must not pay a single extra cold
/// start (migration moves the warm set, it never destroys it), must
/// actually migrate, and must improve the served balance ratio.
#[test]
fn rebalancing_never_increases_cold_starts_on_the_seeded_trace() {
    let requests = 8_192;
    // Memory sized for pressure: 64 × 64 MB functions over 8 × 512 MB
    // shards — warm sets matter and eviction is live.
    let reg = registry(FUNCTIONS, 64);
    let affinity = ShardedInvoker::with_kind(
        ShardedConfig::split(MemMb::from_gb(4), SHARDS),
        PolicyKind::GreedyDual,
    );
    replay_seeded_zipf(&affinity, &reg, requests);
    let rebalancing = ShardedInvoker::with_kind(
        ShardedConfig::split(MemMb::from_gb(4), SHARDS).with_rebalance(RebalanceConfig::default()),
        PolicyKind::GreedyDual,
    );
    replay_seeded_zipf(&rebalancing, &reg, requests);

    let base = affinity.stats().outcomes;
    let rb = rebalancing.stats().outcomes;
    assert_eq!(base.total(), requests as u64);
    assert_eq!(rb.total(), requests as u64);
    assert!(
        rebalancing.stats().migrations >= 1,
        "the skewed trace must trigger re-homing"
    );
    assert!(
        rb[InvokeOutcome::Cold] <= base[InvokeOutcome::Cold],
        "re-homing must not add cold starts: affinity {} vs rebalanced {}",
        base[InvokeOutcome::Cold],
        rb[InvokeOutcome::Cold]
    );
    let r_base = balance_ratio(&served_per_shard(&affinity));
    let r_rb = balance_ratio(&served_per_shard(&rebalancing));
    assert!(
        r_rb <= r_base,
        "re-homing must improve the served balance: {r_base:.2} -> {r_rb:.2}"
    );
}
