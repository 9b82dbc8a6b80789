//! Cluster-level simulation: load balancing across keep-alive servers.
//!
//! The paper deliberately evaluates a single server (§9, "Cluster-level
//! analysis") but observes that "a stateful load-balancing policy which
//! runs a function on the same subset of servers will result in better
//! temporal locality, which in turn improves keep-alive effectiveness",
//! while "randomized load-balancing is simpler to implement and scale,
//! but offers worse temporal locality". This module implements that
//! discussion so the locality effect can be measured:
//!
//! - [`LoadBalancer::Random`] — uniform random server per invocation,
//! - [`LoadBalancer::RoundRobin`] — rotate across servers,
//! - [`LoadBalancer::LeastLoaded`] — fewest running containers first,
//! - [`LoadBalancer::FunctionAffinity`] — hash each function to a home
//!   server (the stateful, locality-preserving policy).
//!
//! The policy enum and the pick function itself live in
//! [`faascache_util::route`] and are shared verbatim with the live
//! `faas-router` process, so the simulator and the router cannot drift.

use crate::engine::{self, Completions, Node};
use crate::metrics::SimResult;
use crate::sim::{SimConfig, Simulation};
use faascache_core::container::ContainerId;
use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::pool::{Acquire, ContainerPool, PoolConfig};
use faascache_trace::record::Trace;
use faascache_util::route::{self, BalancerState};
use faascache_util::SimTime;

pub use faascache_util::route::LoadBalancer;

/// Cluster configuration: `servers` identical servers, each configured by
/// the per-server [`SimConfig`] (its `memory` is per server).
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of servers.
    pub servers: usize,
    /// Per-server simulation configuration.
    pub per_server: SimConfig,
    /// Routing policy.
    pub balancer: LoadBalancer,
    /// Seed for the randomized balancer.
    pub seed: u64,
}

/// Aggregated outcome of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResult {
    /// The routing policy used.
    pub balancer: String,
    /// Total warm starts across servers.
    pub warm: u64,
    /// Total cold starts across servers.
    pub cold: u64,
    /// Total drops across servers.
    pub dropped: u64,
    /// Per-server (warm, cold, dropped).
    pub per_server: Vec<(u64, u64, u64)>,
}

impl ClusterResult {
    /// Cluster-wide warm-start ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.warm + self.cold + self.dropped;
        if total == 0 {
            0.0
        } else {
            self.warm as f64 / total as f64
        }
    }

    /// Coefficient of variation of per-server load (served requests) —
    /// a balance metric (0 = perfectly even).
    ///
    /// Always finite: a cluster that served nothing (or an empty
    /// `per_server` vector) reports the `0.0` sentinel rather than
    /// dividing by a zero mean, and individual zero-served servers are
    /// fine — they just raise the variance like any other outlier.
    pub fn load_imbalance(&self) -> f64 {
        if self.per_server.is_empty() {
            return 0.0;
        }
        let loads: Vec<f64> = self
            .per_server
            .iter()
            .map(|&(w, c, _)| (w + c) as f64)
            .collect();
        let mean = loads.iter().sum::<f64>() / loads.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = loads.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / loads.len() as f64;
        var.sqrt() / mean
    }
}

/// Runs a trace through a cluster of keep-alive servers.
///
/// Each server runs its own pool (same policy, same memory); the balancer
/// routes each invocation as it arrives.
///
/// # Panics
///
/// Panics if `config.servers == 0` or the tick interval is zero.
pub fn run_cluster(trace: &Trace, config: &ClusterConfig) -> ClusterResult {
    assert!(config.servers > 0, "need at least one server");
    let pool_config = PoolConfig::new(config.per_server.memory)
        .with_eviction_batch(config.per_server.eviction_batch);
    let mut cluster = Cluster {
        pools: (0..config.servers)
            .map(|_| ContainerPool::with_config(pool_config, config.per_server.policy.build()))
            .collect(),
        registry: trace.registry(),
        balancer: config.balancer,
        state: BalancerState::new(config.seed),
    };
    engine::run(&mut cluster, trace, config.per_server.tick_interval, None);

    let counters = cluster.pools.iter().map(ContainerPool::counters);
    let per_server: Vec<_> = counters
        .map(|c| (c.warm_starts, c.cold_starts, c.drops))
        .collect();
    ClusterResult {
        balancer: config.balancer.label().to_string(),
        warm: per_server.iter().map(|s| s.0).sum(),
        cold: per_server.iter().map(|s| s.1).sum(),
        dropped: per_server.iter().map(|s| s.2).sum(),
        per_server,
    }
}

/// N pools behind [`route::pick`]; the pools' own counters are the tally.
struct Cluster<'a> {
    pools: Vec<ContainerPool>,
    registry: &'a FunctionRegistry,
    balancer: LoadBalancer,
    state: BalancerState,
}

impl Node for Cluster<'_> {
    type Token = (usize, ContainerId);

    fn arrive(&mut self, function: FunctionId, now: SimTime, done: &mut Completions<Self::Token>) {
        // The simulator treats every server as healthy and never spills,
        // so `route::pick` reduces to the historical per-policy choice.
        let pools = &self.pools;
        let server = route::pick(
            self.balancer,
            &mut self.state,
            pools.len(),
            function.index() as u64,
            |i| pools[i].running_count() as u64,
            |_| true,
            None,
        )
        .expect("at least one healthy server");
        let spec = self.registry.spec(function);
        let (container, time) = match self.pools[server].acquire(spec, now) {
            Acquire::Warm { container } => (container, spec.warm_time()),
            Acquire::Cold { container, .. } => (container, spec.cold_time()),
            Acquire::NoCapacity => return,
        };
        done.push(now + time, (server, container));
    }

    fn complete(&mut self, token: Self::Token, at: SimTime, _: &mut Completions<Self::Token>) {
        self.pools[token.0].release(token.1, at);
    }

    fn tick(&mut self, now: SimTime, _: &mut Completions<Self::Token>) {
        for pool in &mut self.pools {
            engine::housekeep(pool, self.registry, now);
        }
    }
}

/// Convenience: runs the same trace through every balancer and the
/// single-big-server baseline (one server with `servers ×` the memory).
pub fn compare_balancers(
    trace: &Trace,
    servers: usize,
    per_server: SimConfig,
    seed: u64,
) -> (Vec<ClusterResult>, SimResult) {
    let results = LoadBalancer::ALL
        .iter()
        .map(|&balancer| {
            run_cluster(
                trace,
                &ClusterConfig {
                    servers,
                    per_server,
                    balancer,
                    seed,
                },
            )
        })
        .collect();
    let mut big = per_server;
    big.memory = per_server.memory.mul_f64(servers as f64);
    let single = Simulation::run(trace, &big);
    (results, single)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_core::policy::PolicyKind;
    use faascache_trace::adapt::{adapt, AdaptOptions};
    use faascache_trace::synth::{generate, SynthConfig};
    use faascache_util::{MemMb, SimDuration};

    fn trace() -> Trace {
        let d = generate(&SynthConfig {
            num_functions: 120,
            num_apps: 40,
            max_rate_per_min: 20.0,
            seed: 5150,
            ..SynthConfig::default()
        });
        adapt(
            &d,
            &AdaptOptions {
                horizon_mins: Some(240),
                ..AdaptOptions::default()
            },
        )
    }

    fn config(balancer: LoadBalancer) -> ClusterConfig {
        ClusterConfig {
            servers: 4,
            per_server: SimConfig::new(MemMb::from_gb(2), PolicyKind::GreedyDual),
            balancer,
            seed: 1,
        }
    }

    #[test]
    fn conservation_across_servers() {
        let t = trace();
        for balancer in LoadBalancer::ALL {
            let r = run_cluster(&t, &config(balancer));
            assert_eq!(
                r.warm + r.cold + r.dropped,
                t.len() as u64,
                "{balancer:?} lost requests"
            );
            let per: u64 = r.per_server.iter().map(|&(w, c, d)| w + c + d).sum();
            assert_eq!(per, t.len() as u64);
        }
    }

    #[test]
    fn affinity_beats_random_on_locality() {
        // The paper's §9 claim: stateful routing → better temporal
        // locality → higher keep-alive hit ratio.
        let t = trace();
        let affinity = run_cluster(&t, &config(LoadBalancer::FunctionAffinity));
        let random = run_cluster(&t, &config(LoadBalancer::Random));
        assert!(
            affinity.hit_ratio() > random.hit_ratio(),
            "affinity {:.3} should beat random {:.3}",
            affinity.hit_ratio(),
            random.hit_ratio()
        );
    }

    #[test]
    fn round_robin_spreads_load_evenly() {
        let t = trace();
        let rr = run_cluster(&t, &config(LoadBalancer::RoundRobin));
        assert!(
            rr.load_imbalance() < 0.05,
            "imbalance {:.3}",
            rr.load_imbalance()
        );
        // Affinity is allowed to be imbalanced — that's its trade-off.
        let aff = run_cluster(&t, &config(LoadBalancer::FunctionAffinity));
        assert!(aff.load_imbalance() >= rr.load_imbalance());
    }

    #[test]
    fn load_imbalance_is_finite_with_zero_served_servers() {
        // Regression: a server that served nothing (all requests landed
        // elsewhere, or its share was all-dropped) must not make the
        // balance metric inf/NaN.
        let r = ClusterResult {
            balancer: "affinity".to_string(),
            warm: 10,
            cold: 2,
            dropped: 5,
            per_server: vec![(10, 2, 0), (0, 0, 5), (0, 0, 0)],
        };
        assert!(r.load_imbalance().is_finite());
        assert!(r.load_imbalance() > 0.0);

        let idle = ClusterResult {
            balancer: "random".to_string(),
            warm: 0,
            cold: 0,
            dropped: 0,
            per_server: vec![(0, 0, 0), (0, 0, 0)],
        };
        assert_eq!(idle.load_imbalance(), 0.0, "all-idle cluster sentinel");

        let empty = ClusterResult {
            balancer: "random".to_string(),
            warm: 0,
            cold: 0,
            dropped: 0,
            per_server: Vec::new(),
        };
        assert_eq!(empty.load_imbalance(), 0.0, "empty per_server sentinel");
    }

    #[test]
    fn shared_picker_preserves_historical_routing() {
        // The extraction of the balancer into util::route must be
        // behavior-preserving: re-derive random + round-robin choices
        // with the raw primitives and compare against run_cluster's
        // per-server distribution on a short trace.
        let t = trace();
        let n = 4usize;
        let mut rng = faascache_util::rng::Pcg64::seed_from_u64(1);
        let mut rr = 0usize;
        let mut want_random = vec![0u64; n];
        let mut want_rr = vec![0u64; n];
        let mut want_aff = vec![0u64; n];
        for inv in t.invocations() {
            want_random[rng.next_below(n as u64) as usize] += 1;
            rr = (rr + 1) % n;
            want_rr[rr] += 1;
            want_aff[route::shard_for(inv.function.index() as u64, n)] += 1;
        }
        let totals = |r: &ClusterResult| -> Vec<u64> {
            r.per_server.iter().map(|&(w, c, d)| w + c + d).collect()
        };
        let random = run_cluster(&t, &config(LoadBalancer::Random));
        assert_eq!(totals(&random), want_random);
        let rrr = run_cluster(&t, &config(LoadBalancer::RoundRobin));
        assert_eq!(totals(&rrr), want_rr);
        let aff = run_cluster(&t, &config(LoadBalancer::FunctionAffinity));
        assert_eq!(totals(&aff), want_aff);
    }

    #[test]
    #[should_panic(expected = "zero tick interval")]
    fn zero_tick_interval_is_refused() {
        let t = faascache_trace::workloads::skewed_frequency(SimDuration::from_mins(1)).unwrap();
        let mut cfg = config(LoadBalancer::RoundRobin);
        cfg.per_server.tick_interval = SimDuration::ZERO;
        run_cluster(&t, &cfg);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = trace();
        let a = run_cluster(&t, &config(LoadBalancer::Random));
        let b = run_cluster(&t, &config(LoadBalancer::Random));
        assert_eq!(a, b);
    }

    #[test]
    fn compare_balancers_includes_baseline() {
        let t = trace();
        let (results, single) = compare_balancers(
            &t,
            4,
            SimConfig::new(MemMb::from_gb(2), PolicyKind::GreedyDual),
            7,
        );
        assert_eq!(results.len(), 4);
        assert_eq!(single.invocations, t.len() as u64);
        // One big server sees perfect locality: it should match or beat
        // every partitioned configuration.
        for r in &results {
            assert!(
                single.hit_ratio() >= r.hit_ratio() - 0.02,
                "single server {:.3} vs {} {:.3}",
                single.hit_ratio(),
                r.balancer,
                r.hit_ratio()
            );
        }
    }
}
