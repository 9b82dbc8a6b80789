//! The single-server simulation: one pool and the [`SimResult`] tally,
//! driven by [`crate::engine`] in virtual time, so a full day of a
//! server's traffic simulates in seconds. Ticks drive TTL expiry
//! (`cleanup_finished` in the artifact) and HIST pre-warming
//! (`PreWarmContainers`); they pop only the due entries from the pool's
//! ordered indexes (O(k log n) for k of n idle containers), so frequent
//! ticks stay cheap even on large pools.

use crate::engine::{self, Completions, Node};
use crate::metrics::{FunctionOutcome, SimResult};
use faascache_core::container::ContainerId;
use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::policy::{KeepAlivePolicy, PolicyKind};
use faascache_core::pool::{Acquire, ContainerPool, PoolConfig};
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
    /// Interval of housekeeping ticks (TTL reaping, pre-warm checks,
    /// memory timeline sampling).
    pub tick_interval: SimDuration,
    /// Whether to record the memory-usage timeline (costs memory on long
    /// runs; figures that don't need it turn it off).
    pub record_memory_timeline: bool,
}

impl SimConfig {
    /// A configuration with the paper's defaults for the given memory and
    /// policy: 1000 MB eviction batch, 15 s ticks, no timeline.
    pub fn new(memory: MemMb, policy: PolicyKind) -> Self {
        SimConfig {
            memory,
            policy,
            eviction_batch: MemMb::new(1000),
            tick_interval: SimDuration::from_secs(15),
            record_memory_timeline: false,
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

        let mut result = server.result;
        let mut delay_runs = vec![(0.0, result.warm)];
        delay_runs.extend(
            server
                .registry
                .iter()
                .zip(&result.per_function)
                .filter(|(_, outcome)| outcome.cold > 0)
                .map(|(spec, outcome)| (spec.init_overhead().as_millis_f64(), outcome.cold)),
        );
        result.latency = LatencySummary::from_runs_ms(&mut delay_runs, server.delay_sum_ms);
        let counters = server.pool.counters();
        result.evictions = counters.evictions;
        result.prewarms = counters.prewarms;
        debug_assert_eq!(counters.warm_starts, result.warm);
        debug_assert_eq!(counters.cold_starts, result.cold);
        result
    }
}

/// One pool and its tally; [`crate::elastic`] adds a controller to it.
pub(crate) struct Server<'a> {
    pub(crate) pool: ContainerPool,
    registry: &'a FunctionRegistry,
    pub(crate) result: SimResult,
    /// The delay digest's sum, in arrival order: a served invocation's
    /// delay is its cold-start initialization (the plain simulator has no
    /// queue), so with the counts this is all the digest needs.
    delay_sum_ms: f64,
    record_memory_timeline: bool,
}

impl<'a> Server<'a> {
    pub fn new(trace: &'a Trace, config: &SimConfig, policy: Box<dyn KeepAlivePolicy>) -> Self {
        let pool_config = PoolConfig::new(config.memory).with_eviction_batch(config.eviction_batch);
        let pool = ContainerPool::with_config(pool_config, policy);
        let registry = trace.registry();
        let minutes = trace.end_time().minute_index() as usize + 1;
        Server {
            result: SimResult {
                policy: pool.policy().name().to_string(),
                memory: config.memory,
                per_function: vec![FunctionOutcome::default(); registry.len()],
                cold_per_minute: vec![0; if trace.is_empty() { 0 } else { minutes }],
                ..SimResult::default()
            },
            pool,
            registry,
            delay_sum_ms: 0.0,
            record_memory_timeline: config.record_memory_timeline,
        }
    }
}

impl Node for Server<'_> {
    type Token = ContainerId;

    #[inline(always)]
    fn arrive(&mut self, function: FunctionId, now: SimTime, done: &mut Completions<ContainerId>) {
        let spec = self.registry.spec(function);
        let result = &mut self.result;
        result.invocations += 1;
        let f = &mut result.per_function[function.index()];
        match self.pool.acquire(spec, now) {
            Acquire::Warm { container } => {
                result.warm += 1;
                f.warm += 1;
                f.record_delay(SimDuration::ZERO);
                result.total_warm_exec += spec.warm_time();
                done.push(now + spec.warm_time(), container);
            }
            Acquire::Cold { container, .. } => {
                result.cold += 1;
                f.cold += 1;
                f.record_delay(spec.init_overhead());
                self.delay_sum_ms += spec.init_overhead().as_millis_f64();
                result.total_warm_exec += spec.warm_time();
                result.wasted_init += spec.init_overhead();
                result.cold_per_minute[now.minute_index() as usize] += 1;
                done.push(now + spec.cold_time(), container);
            }
            Acquire::NoCapacity => {
                result.dropped += 1;
                f.dropped += 1;
            }
        }
    }

    fn complete(&mut self, container: ContainerId, at: SimTime, _: &mut Completions<ContainerId>) {
        self.pool.release(container, at);
    }

    fn tick(&mut self, now: SimTime, _: &mut Completions<ContainerId>) {
        engine::housekeep(&mut self.pool, self.registry, now);
        if self.record_memory_timeline {
            let used = self.pool.used_mem().as_mb();
            self.result.mem_timeline.push((now.as_secs_f64(), used));
        }
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
    fn all_policies_conserve_invocations() {
        let trace = workloads::skewed_frequency(SimDuration::from_mins(3)).unwrap();
        for kind in PolicyKind::ALL {
            let cfg = SimConfig::new(MemMb::from_gb(1), kind);
            let r = Simulation::run(&trace, &cfg);
            assert_eq!(
                r.warm + r.cold + r.dropped,
                r.invocations,
                "{kind} lost invocations"
            );
            assert_eq!(r.invocations as usize, trace.len());
            let per_fn: u64 = r.per_function.iter().map(|f| f.total()).sum();
            assert_eq!(per_fn, r.invocations, "{kind} per-function mismatch");
        }
    }

    #[test]
    fn memory_timeline_recorded_when_asked() {
        let trace = tiny_trace(SimDuration::from_secs(30), 10);
        let mut cfg = SimConfig::new(MemMb::from_gb(1), PolicyKind::GreedyDual);
        cfg.record_memory_timeline = true;
        let r = Simulation::run(&trace, &cfg);
        assert!(!r.mem_timeline.is_empty());
        assert!(r.mem_timeline.iter().all(|&(_, mb)| mb <= 1024));
        let off = Simulation::run(
            &trace,
            &SimConfig::new(MemMb::from_gb(1), PolicyKind::GreedyDual),
        );
        assert!(off.mem_timeline.is_empty());
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
        let f = &r.per_function[0];
        assert_eq!(f.delay_max_us, 450_000);
        assert!((f.mean_delay_ms() - 45.0).abs() < 1e-9);
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
        assert!(r.cold_per_minute.is_empty());
    }
}
