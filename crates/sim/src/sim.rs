//! The single-server simulation: one [`Invoker`] and the [`SimResult`] it
//! reports, driven by [`crate::engine`] in virtual time, so a full day of
//! a server's traffic simulates in seconds. Ticks drive TTL expiry
//! (`cleanup_finished` in the artifact) and HIST pre-warming
//! (`PreWarmContainers`); they pop only the due entries from the pool's
//! ordered indexes (O(k log n) for k of n idle containers), so frequent
//! ticks stay cheap even on large pools.

use crate::engine::{self, Completions, Node};
use crate::invoker::Invoker;
use crate::metrics::{FunctionOutcome, SimResult};
use faascache_core::container::ContainerId;
use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::policy::{KeepAlivePolicy, PolicyKind};
use faascache_core::pool::{ContainerPool, PoolConfig};
use faascache_trace::record::Trace;
use faascache_util::stats::LatencySummary;
use faascache_util::{MemMb, SimDuration, SimTime};

/// Simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Server memory.
    pub memory: MemMb,
    /// Keep-alive policy.
    pub policy: PolicyKind,
    /// Eviction batching threshold (paper §6 default: 1000 MB).
    pub eviction_batch: MemMb,
    /// Interval of housekeeping ticks (TTL reaping, pre-warm checks).
    pub tick_interval: SimDuration,
}

impl SimConfig {
    /// A configuration with the paper's defaults for the given memory and
    /// policy: 1000 MB eviction batch, 15 s ticks.
    pub fn new(memory: MemMb, policy: PolicyKind) -> Self {
        SimConfig {
            memory,
            policy,
            eviction_batch: MemMb::new(1000),
            tick_interval: SimDuration::from_secs(15),
        }
    }
}

/// A single-server keep-alive simulation.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::PolicyKind;
/// use faascache_sim::sim::{SimConfig, Simulation};
/// use faascache_trace::workloads;
/// use faascache_util::{MemMb, SimDuration};
///
/// let trace = workloads::skewed_frequency(SimDuration::from_mins(5))?;
/// let result = Simulation::run(&trace, &SimConfig::new(MemMb::from_gb(4), PolicyKind::GreedyDual));
/// assert!(result.warm > 0);
/// # Ok::<(), faascache_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct Simulation;

impl Simulation {
    /// Replays `trace` under `config` and returns the collected metrics.
    pub fn run(trace: &Trace, config: &SimConfig) -> SimResult {
        Self::run_with_policy(trace, config, config.policy.build())
    }

    /// Replays `trace` with an explicitly constructed policy (for custom
    /// parameters, e.g. a non-default TTL). Panics if
    /// `config.tick_interval` is zero.
    pub fn run_with_policy(
        trace: &Trace,
        config: &SimConfig,
        policy: Box<dyn KeepAlivePolicy>,
    ) -> SimResult {
        let mut server = Server::new(trace, config, policy);
        engine::run(&mut server, trace, config.tick_interval, None);
        server.into_result()
    }
}

/// One [`Invoker`] and what a [`SimResult`] needs beyond its tally;
/// [`crate::elastic`] adds a controller to it.
pub(crate) struct Server<'a> {
    pub(crate) invoker: Invoker,
    registry: &'a FunctionRegistry,
    /// The delay digest's sum, in arrival order: a served invocation's
    /// delay is its cold-start initialization (the plain simulator has no
    /// queue), so with the counts this is all the digest needs.
    delay_sum_ms: f64,
}

impl<'a> Server<'a> {
    pub fn new(trace: &'a Trace, config: &SimConfig, policy: Box<dyn KeepAlivePolicy>) -> Self {
        let pool_config = PoolConfig::new(config.memory).with_eviction_batch(config.eviction_batch);
        let pool = ContainerPool::with_config(pool_config, policy);
        Server {
            invoker: Invoker::new(pool, trace.registry().len()),
            registry: trace.registry(),
            delay_sum_ms: 0.0,
        }
    }

    /// The run's metrics: the totals are the pool's counters, the
    /// per-function breakdown the invoker's tally.
    pub fn into_result(self) -> SimResult {
        let pool = self.invoker.pool();
        let counters = pool.counters();
        let mut result = SimResult {
            policy: pool.policy().name().to_string(),
            memory: pool.capacity(),
            invocations: counters.warm_starts + counters.cold_starts + counters.drops,
            warm: counters.warm_starts,
            cold: counters.cold_starts,
            dropped: counters.drops,
            evictions: counters.evictions,
            prewarms: counters.prewarms,
            ..SimResult::default()
        };
        let mut delay_runs = vec![(0.0, result.warm)];
        for (spec, t) in self.registry.iter().zip(self.invoker.tally()) {
            let warm_us = spec.warm_time().as_micros().saturating_mul(t.served());
            let init = spec.init_overhead();
            result.total_warm_exec += SimDuration::from_micros(warm_us);
            result.wasted_init += SimDuration::from_micros(init.as_micros().saturating_mul(t.cold));
            if t.cold > 0 {
                delay_runs.push((init.as_millis_f64(), t.cold));
            }
            result.per_function.push(FunctionOutcome {
                warm: t.warm,
                cold: t.cold,
                dropped: t.dropped,
            });
        }
        result.latency = LatencySummary::from_runs_ms(&mut delay_runs, self.delay_sum_ms);
        result
    }
}

impl Node for Server<'_> {
    type Token = ContainerId;

    #[inline(always)]
    fn arrive(&mut self, function: FunctionId, now: SimTime, done: &mut Completions<ContainerId>) {
        let spec = self.registry.spec(function);
        let Some(run) = self.invoker.start(spec, now) else {
            return;
        };
        if run.cold {
            self.delay_sum_ms += spec.init_overhead().as_millis_f64();
        }
        done.push(run.finish, run.container);
    }

    fn complete(&mut self, container: ContainerId, at: SimTime, _: &mut Completions<ContainerId>) {
        self.invoker.release(container, at);
    }

    fn tick(&mut self, now: SimTime, _: &mut Completions<ContainerId>) {
        self.invoker.housekeep(self.registry, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_core::function::FunctionRegistry;
    use faascache_trace::record::Invocation;
    use faascache_trace::workloads;

    fn tiny_trace(gap: SimDuration, n: u64) -> Trace {
        let mut reg = FunctionRegistry::new();
        let f = reg
            .register(
                "f",
                MemMb::new(100),
                SimDuration::from_millis(50),
                SimDuration::from_millis(500),
            )
            .unwrap();
        Trace::new(
            reg,
            (0..n)
                .map(|i| Invocation {
                    time: SimTime::ZERO + gap.mul_f64(i as f64),
                    function: f,
                })
                .collect(),
        )
    }

    #[test]
    fn one_cold_then_all_warm() {
        let trace = tiny_trace(SimDuration::from_secs(10), 10);
        let cfg = SimConfig::new(MemMb::from_gb(1), PolicyKind::GreedyDual);
        let r = Simulation::run(&trace, &cfg);
        assert_eq!(r.invocations, 10);
        assert_eq!(r.cold, 1);
        assert_eq!(r.warm, 9);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.per_function[0].cold, 1);
        assert_eq!(r.wasted_init, SimDuration::from_millis(450));
    }

    #[test]
    fn ttl_expires_between_invocations() {
        // Invocations 11 minutes apart: the 10-minute TTL always expires.
        let trace = tiny_trace(SimDuration::from_mins(11), 5);
        let cfg = SimConfig::new(MemMb::from_gb(1), PolicyKind::Ttl);
        let r = Simulation::run(&trace, &cfg);
        assert_eq!(r.cold, 5, "every invocation should be cold under TTL");
        // Under GD (resource-conserving) the container survives.
        let cfg = SimConfig::new(MemMb::from_gb(1), PolicyKind::GreedyDual);
        let r = Simulation::run(&trace, &cfg);
        assert_eq!(r.cold, 1);
    }

    #[test]
    fn concurrent_arrivals_spawn_concurrent_containers() {
        // Invocations every 100ms but each runs 50ms warm / 500ms cold:
        // the second arrival lands while the first cold start is running.
        let trace = tiny_trace(SimDuration::from_millis(100), 20);
        let cfg = SimConfig::new(MemMb::from_gb(1), PolicyKind::GreedyDual);
        let r = Simulation::run(&trace, &cfg);
        assert!(r.cold >= 2, "cold burst at startup, got {}", r.cold);
        assert_eq!(r.dropped, 0);
        assert_eq!(r.warm + r.cold, 20);
    }

    #[test]
    fn tight_memory_drops_requests() {
        // Each container needs 100MB; server has 100MB; invocations arrive
        // faster than the cold time so overlapping requests must drop.
        let trace = tiny_trace(SimDuration::from_millis(100), 10);
        let cfg = SimConfig::new(MemMb::new(100), PolicyKind::GreedyDual);
        let r = Simulation::run(&trace, &cfg);
        assert!(r.dropped > 0);
        assert_eq!(r.invocations, 10);
        assert_eq!(r.warm + r.cold + r.dropped, 10);
    }

    #[test]
    fn deterministic() {
        let trace = workloads::skewed_frequency(SimDuration::from_mins(3)).unwrap();
        let cfg = SimConfig::new(MemMb::from_gb(2), PolicyKind::GreedyDual);
        let a = Simulation::run(&trace, &cfg);
        let b = Simulation::run(&trace, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn hist_prewarms_periodic_functions() {
        // A strictly periodic function with a long period: HIST should
        // learn the period, release the container, and pre-warm in time.
        let trace = tiny_trace(SimDuration::from_mins(30), 20);
        let cfg = SimConfig::new(MemMb::from_gb(1), PolicyKind::Hist);
        let r = Simulation::run(&trace, &cfg);
        assert!(r.prewarms > 0, "expected pre-warms, got {:?}", r.prewarms);
        // After warmup, invocations land on pre-warmed containers.
        assert!(
            r.warm >= 10,
            "periodic function should mostly hit pre-warmed containers: {r:?}"
        );
    }

    #[test]
    fn latency_digest_tracks_cold_start_delay() {
        // 10 invocations: 1 cold (450 ms init overhead) + 9 warm (zero
        // delay) → p50 is 0, max/p99 catch the cold start.
        let trace = tiny_trace(SimDuration::from_secs(10), 10);
        let cfg = SimConfig::new(MemMb::from_gb(1), PolicyKind::GreedyDual);
        let r = Simulation::run(&trace, &cfg);
        assert_eq!(r.latency.count, 10);
        assert_eq!(r.latency.p50_ms, 0.0);
        assert!((r.latency.max_ms - 450.0).abs() < 1e-9);
        assert!((r.latency.mean_ms - 45.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero tick interval")]
    fn zero_tick_interval_is_refused() {
        let mut cfg = SimConfig::new(MemMb::from_gb(1), PolicyKind::GreedyDual);
        cfg.tick_interval = SimDuration::ZERO;
        Simulation::run(&tiny_trace(SimDuration::from_secs(10), 3), &cfg);
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace::new(FunctionRegistry::new(), vec![]);
        let cfg = SimConfig::new(MemMb::from_gb(1), PolicyKind::GreedyDual);
        let r = Simulation::run(&trace, &cfg);
        assert_eq!(r.invocations, 0);
    }
}
