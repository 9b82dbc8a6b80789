//! The invoker emulator: keep-alive pool + request buffer + latency
//! accounting, in virtual time.
//!
//! Vanilla OpenWhisk is emulated as `PolicyKind::Ttl` (10-minute TTL);
//! FaasCache as `PolicyKind::GreedyDual`. Requests that cannot be served
//! immediately wait in a bounded [`RequestQueue`] and are dropped on
//! overflow or timeout — reproducing the §7.2 behavior where OpenWhisk's
//! higher cold-start load makes it shed a large fraction of requests
//! while FaasCache serves ~2× more.

use crate::lifecycle::PhaseModel;
use crate::queue::RequestQueue;
use faascache_core::container::ContainerId;
use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::policy::PolicyKind;
use faascache_core::pool::{Acquire, ContainerPool, PoolConfig};
use faascache_sim::engine::{self, Completions, Node};
use faascache_trace::record::Trace;
use faascache_util::{MemMb, SimDuration, SimTime};

/// Emulated platform configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlatformConfig {
    /// Memory available to the container pool.
    pub memory: MemMb,
    /// Keep-alive policy (TTL = vanilla OpenWhisk, GD = FaasCache).
    pub policy: PolicyKind,
    /// Eviction batching threshold (paper §6: 1000 MB).
    pub eviction_batch: MemMb,
    /// Maximum concurrently running containers (CPU slots); `0` = unbounded.
    pub max_concurrency: usize,
    /// Request buffer length.
    pub queue_capacity: usize,
    /// How long a buffered request waits before being dropped.
    pub patience: SimDuration,
    /// Housekeeping tick (queue expiry, TTL reaping, pre-warming); ticks
    /// pop only due entries, so short intervals are cheap.
    pub tick_interval: SimDuration,
    /// Cold-start phase model (adds the pool-check latency to every
    /// request).
    pub phases: PhaseModel,
}

impl PlatformConfig {
    /// A configuration with paper-like defaults for the given memory and
    /// policy.
    pub fn new(memory: MemMb, policy: PolicyKind) -> Self {
        PlatformConfig {
            memory,
            policy,
            eviction_batch: MemMb::new(1000),
            max_concurrency: 0,
            queue_capacity: 512,
            patience: SimDuration::from_secs(30),
            tick_interval: SimDuration::from_secs(1),
            phases: PhaseModel::default(),
        }
    }
}

/// Per-function platform statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FunctionPlatformStats {
    /// Function name.
    pub name: String,
    /// Warm starts.
    pub warm: u64,
    /// Cold starts.
    pub cold: u64,
    /// Dropped requests (buffer overflow or timeout).
    pub dropped: u64,
    /// Sum of end-to-end latencies (µs) over served invocations.
    pub latency_sum_us: u64,
}

impl FunctionPlatformStats {
    /// Served invocations.
    pub fn served(&self) -> u64 {
        self.warm + self.cold
    }
}

/// Result of a platform emulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlatformResult {
    /// The policy label.
    pub policy: String,
    /// Total warm starts.
    pub warm: u64,
    /// Total cold starts.
    pub cold: u64,
    /// Total dropped requests.
    pub dropped: u64,
    /// Per-function statistics (indexed by function index).
    pub per_function: Vec<FunctionPlatformStats>,
}

impl PlatformResult {
    /// Invocations served (warm + cold).
    pub fn served(&self) -> u64 {
        self.warm + self.cold
    }

    /// Total requests observed.
    pub fn total(&self) -> u64 {
        self.served() + self.dropped
    }

    /// Overall mean end-to-end latency over served invocations.
    pub fn mean_latency(&self) -> SimDuration {
        let served = self.served();
        if served == 0 {
            return SimDuration::ZERO;
        }
        let sum: u64 = self.per_function.iter().map(|f| f.latency_sum_us).sum();
        SimDuration::from_micros(sum / served)
    }
}

/// The platform emulator.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::PolicyKind;
/// use faascache_platform::emulator::{Emulator, PlatformConfig};
/// use faascache_trace::workloads;
/// use faascache_util::{MemMb, SimDuration};
///
/// let trace = workloads::skewed_frequency(SimDuration::from_mins(2))?;
/// let cfg = PlatformConfig::new(MemMb::from_gb(4), PolicyKind::GreedyDual);
/// let result = Emulator::run(&trace, &cfg);
/// assert!(result.served() > 0);
/// # Ok::<(), faascache_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct Emulator;

impl Emulator {
    /// Replays `trace` against the emulated platform; after the trace, the
    /// buffer is ticked until every queued request was served or expired.
    /// Panics if `config.tick_interval` is zero.
    pub fn run(trace: &Trace, config: &PlatformConfig) -> PlatformResult {
        let pool_config = PoolConfig::new(config.memory).with_eviction_batch(config.eviction_batch);
        let pool = ContainerPool::with_config(pool_config, config.policy.build());
        let registry = trace.registry();
        let mut invoker = Invoker {
            result: PlatformResult {
                policy: pool.policy().name().to_string(),
                per_function: registry
                    .iter()
                    .map(|s| FunctionPlatformStats {
                        name: s.name().to_string(),
                        ..FunctionPlatformStats::default()
                    })
                    .collect(),
                ..PlatformResult::default()
            },
            pool,
            registry,
            queue: RequestQueue::new(config.queue_capacity, config.patience),
            config,
        };
        engine::run(&mut invoker, trace, config.tick_interval, None);
        invoker.result
    }
}

/// A pool fed from the request buffer, and the latency tally.
struct Invoker<'a> {
    pool: ContainerPool,
    registry: &'a FunctionRegistry,
    queue: RequestQueue,
    config: &'a PlatformConfig,
    result: PlatformResult,
}

impl Invoker<'_> {
    /// Starts a request for `function` that arrived at `arrived`, at `now`;
    /// false when the platform is saturated (the caller queues or drops).
    fn try_serve(
        &mut self,
        function: FunctionId,
        arrived: SimTime,
        now: SimTime,
        done: &mut Completions<ContainerId>,
    ) -> bool {
        let cap = self.config.max_concurrency;
        if cap > 0 && self.pool.running_count() >= cap {
            return false;
        }
        let spec = self.registry.spec(function);
        let (container, finish, warm) = match self.pool.acquire(spec, now) {
            Acquire::Warm { container } => (container, now + spec.warm_time(), true),
            Acquire::Cold { container, .. } => (container, now + spec.cold_time(), false),
            Acquire::NoCapacity => return false,
        };
        done.push(finish, container);
        let stats = &mut self.result.per_function[function.index()];
        if warm {
            self.result.warm += 1;
            stats.warm += 1;
        } else {
            self.result.cold += 1;
            stats.cold += 1;
        }
        let pool_check = self.config.phases.pool_check;
        stats.latency_sum_us += (finish + pool_check).since(arrived).as_micros();
        true
    }

    /// Serves queued requests in FIFO order for as long as they admit.
    fn serve_queued(&mut self, now: SimTime, done: &mut Completions<ContainerId>) {
        while let Some(front) = self.queue.front().copied() {
            if !self.try_serve(front.function, front.arrived, now, done) {
                break;
            }
            self.queue.pop();
        }
    }
}

impl Node for Invoker<'_> {
    type Token = ContainerId;

    fn arrive(&mut self, function: FunctionId, now: SimTime, done: &mut Completions<ContainerId>) {
        // A new arrival goes behind any already-queued requests.
        if self.queue.is_empty() && self.try_serve(function, now, now, done) {
            return;
        }
        if !self.queue.push(function, now) {
            self.result.dropped += 1;
            self.result.per_function[function.index()].dropped += 1;
        }
    }

    fn complete(&mut self, id: ContainerId, at: SimTime, done: &mut Completions<ContainerId>) {
        self.pool.release(id, at);
        self.serve_queued(at, done);
    }

    fn tick(&mut self, now: SimTime, done: &mut Completions<ContainerId>) {
        for req in self.queue.expire(now) {
            self.result.dropped += 1;
            self.result.per_function[req.function.index()].dropped += 1;
        }
        engine::housekeep(&mut self.pool, self.registry, now);
        self.serve_queued(now, done);
    }

    fn has_waiting(&self) -> bool {
        !self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_trace::workloads;

    fn run(policy: PolicyKind, mem_gb: u64) -> PlatformResult {
        let trace = workloads::skewed_frequency(SimDuration::from_mins(5)).unwrap();
        let cfg = PlatformConfig::new(MemMb::from_gb(mem_gb), policy);
        Emulator::run(&trace, &cfg)
    }

    #[test]
    fn accounting_sums_to_trace_length() {
        let trace = workloads::skewed_frequency(SimDuration::from_mins(5)).unwrap();
        for policy in [PolicyKind::GreedyDual, PolicyKind::Ttl] {
            let cfg = PlatformConfig::new(MemMb::from_gb(2), policy);
            let r = Emulator::run(&trace, &cfg);
            assert_eq!(r.total() as usize, trace.len(), "{policy}");
            let per_fn: u64 = r.per_function.iter().map(|f| f.served() + f.dropped).sum();
            assert_eq!(per_fn as usize, trace.len(), "{policy} per-function");
        }
    }

    #[test]
    fn ample_memory_serves_everything() {
        let r = run(PolicyKind::GreedyDual, 64);
        assert_eq!(r.dropped, 0);
        assert!(r.warm > r.cold, "steady workload should be mostly warm");
    }

    #[test]
    fn faascache_beats_openwhisk_under_pressure() {
        // Constrained memory: GD should serve at least as many requests
        // warm as the TTL baseline.
        let gd = run(PolicyKind::GreedyDual, 2);
        let ow = run(PolicyKind::Ttl, 2);
        assert!(
            gd.warm >= ow.warm,
            "GD warm {} should be >= TTL warm {}",
            gd.warm,
            ow.warm
        );
    }

    #[test]
    fn latency_includes_queue_wait() {
        // Saturate concurrency so requests queue.
        let trace = workloads::skewed_frequency(SimDuration::from_mins(2)).unwrap();
        let mut cfg = PlatformConfig::new(MemMb::from_gb(16), PolicyKind::GreedyDual);
        cfg.max_concurrency = 2;
        let constrained = Emulator::run(&trace, &cfg);
        let mut free_cfg = PlatformConfig::new(MemMb::from_gb(16), PolicyKind::GreedyDual);
        free_cfg.max_concurrency = 0;
        let free = Emulator::run(&trace, &free_cfg);
        assert!(
            constrained.mean_latency() > free.mean_latency(),
            "queueing should raise latency: {} vs {}",
            constrained.mean_latency(),
            free.mean_latency()
        );
        assert!(constrained.dropped > 0, "saturation should drop requests");
    }

    #[test]
    fn per_function_names_match_registry() {
        let trace = workloads::skewed_frequency(SimDuration::from_mins(1)).unwrap();
        let cfg = PlatformConfig::new(MemMb::from_gb(4), PolicyKind::GreedyDual);
        let r = Emulator::run(&trace, &cfg);
        for (spec, stats) in trace.registry().iter().zip(&r.per_function) {
            assert_eq!(spec.name(), stats.name);
        }
    }

    #[test]
    #[should_panic(expected = "zero tick interval")]
    fn zero_tick_interval_is_refused() {
        let trace = workloads::skewed_frequency(SimDuration::from_mins(1)).unwrap();
        let mut cfg = PlatformConfig::new(MemMb::from_gb(4), PolicyKind::GreedyDual);
        cfg.tick_interval = SimDuration::ZERO;
        Emulator::run(&trace, &cfg);
    }

    #[test]
    fn deterministic() {
        let a = run(PolicyKind::Ttl, 2);
        let b = run(PolicyKind::Ttl, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_latency_zero_when_nothing_served() {
        let r = PlatformResult {
            dropped: 5,
            ..PlatformResult::default()
        };
        assert_eq!(r.mean_latency(), SimDuration::ZERO);
    }
}
