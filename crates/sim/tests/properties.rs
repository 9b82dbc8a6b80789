//! Property-based tests of the simulator and its engine (proptest).

use faascache_analysis::hitratio::HitRatioCurve;
use faascache_analysis::reuse::reuse_distances;
use faascache_core::container::ContainerId;
use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::policy::PolicyKind;
use faascache_core::pool::ContainerPool;
use faascache_platform::emulator::{Emulator, PlatformConfig};
use faascache_platform::sharded::{InvokeOutcome, Outcomes, ShardedConfig, ShardedInvoker};
use faascache_sim::cluster::{run_cluster, ClusterConfig, LoadBalancer};
use faascache_sim::elastic::{run_elastic, Controller, ControllerConfig, ElasticConfig};
use faascache_sim::engine::{self, Completions, Node};
use faascache_sim::sim::{SimConfig, Simulation};
use faascache_sim::Invoker;
use faascache_trace::record::{Invocation, Trace};
use faascache_util::{MemMb, SimDuration, SimTime};
use proptest::prelude::*;

/// A compact description of a random workload.
#[derive(Debug, Clone)]
struct RandomWorkload {
    /// Memory size (MB) of each function.
    sizes: Vec<u16>,
    /// Warm time (ms) of each function.
    warm_ms: Vec<u16>,
    /// Extra init overhead (ms) of each function.
    init_ms: Vec<u16>,
    /// (function index, gap since previous arrival in ms).
    arrivals: Vec<(usize, u32)>,
}

impl RandomWorkload {
    fn to_trace(&self) -> Trace {
        let n = self.sizes.len();
        let mut reg = FunctionRegistry::new();
        let ids: Vec<FunctionId> = (0..n)
            .map(|i| {
                let warm = SimDuration::from_millis(self.warm_ms[i] as u64);
                let cold = warm + SimDuration::from_millis(self.init_ms[i] as u64);
                reg.register(
                    format!("f{i}"),
                    MemMb::new(self.sizes[i] as u64 + 1),
                    warm,
                    cold,
                )
                .expect("valid function")
            })
            .collect();
        let mut t = SimTime::ZERO;
        let invocations = self
            .arrivals
            .iter()
            .map(|&(f, gap)| {
                t += SimDuration::from_millis(gap as u64);
                Invocation {
                    time: t,
                    function: ids[f % n],
                }
            })
            .collect();
        Trace::new(reg, invocations)
    }
}

fn workload_strategy(max_fns: usize, max_arrivals: usize) -> impl Strategy<Value = RandomWorkload> {
    (1..=max_fns).prop_flat_map(move |n| {
        (
            prop::collection::vec(1u16..2048, n),
            prop::collection::vec(1u16..5000, n),
            prop::collection::vec(0u16..8000, n),
            prop::collection::vec((0usize..n, 0u32..120_000), 1..=max_arrivals),
        )
            .prop_map(|(sizes, warm_ms, init_ms, arrivals)| RandomWorkload {
                sizes,
                warm_ms,
                init_ms,
                arrivals,
            })
    })
}

/// One invoker under the engine that checks its pool's capacity after
/// every event.
struct CapacityCheck<'a> {
    invoker: Invoker,
    registry: &'a FunctionRegistry,
}

impl CapacityCheck<'_> {
    fn check(&self, after: &str) {
        let pool = self.invoker.pool();
        assert!(pool.used_mem() <= pool.capacity(), "after {after}");
    }
}

impl Node for CapacityCheck<'_> {
    type Token = ContainerId;

    fn arrive(&mut self, function: FunctionId, now: SimTime, done: &mut Completions<ContainerId>) {
        if let Some(run) = self.invoker.start(self.registry.spec(function), now) {
            done.push(run.finish, run.container);
        }
        self.check("an arrival");
    }

    fn complete(&mut self, id: ContainerId, at: SimTime, _: &mut Completions<ContainerId>) {
        self.invoker.release(id, at);
        self.check("a completion");
    }

    fn tick(&mut self, now: SimTime, _: &mut Completions<ContainerId>) {
        self.invoker.housekeep(self.registry, now);
        self.check("a tick");
    }
}

/// A one-shard live invoker under the engine, counting the outcomes it
/// returns per function.
struct Live<'a> {
    invoker: ShardedInvoker,
    registry: &'a FunctionRegistry,
    outcomes: Outcomes,
}

impl Node for Live<'_> {
    type Token = ();

    fn arrive(&mut self, function: FunctionId, now: SimTime, _: &mut Completions<()>) {
        let outcome = self.invoker.invoke(self.registry.spec(function), now);
        assert!(
            !matches!(outcome, InvokeOutcome::Rejected | InvokeOutcome::Throttled),
            "no admission bound or quota is set, yet {outcome:?}"
        );
        self.outcomes.record(outcome);
    }

    fn complete(&mut self, _: (), _: SimTime, _: &mut Completions<()>) {}

    fn tick(&mut self, now: SimTime, _: &mut Completions<()>) {
        self.invoker.housekeep(self.registry, now);
    }
}

/// Sums `(warm, cold, dropped)` triples.
fn sum(counts: impl Iterator<Item = (u64, u64, u64)>) -> (u64, u64, u64) {
    counts.fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every node counts each invocation once: the simulator's
    /// per-function outcomes sum to the totals `SimResult` stores; a
    /// 3-server cluster's totals (its per-server sum), the emulator's
    /// (its per-function sum, drops included: its buffer's losses, which
    /// its invoker counts) and an elastic run's tally each add up to the
    /// trace; and a one-shard live invoker's stats equal the outcomes it
    /// returned.
    #[test]
    fn tallies_match_pool_counters(
        w in workload_strategy(8, 120),
        policy_idx in 0usize..PolicyKind::ALL.len(),
        mem_mb in 128u64..8192,
    ) {
        let trace = w.to_trace();
        let config = SimConfig::new(MemMb::new(mem_mb), PolicyKind::ALL[policy_idx]);

        let r = Simulation::run(&trace, &config);
        let per_fn = sum(r.per_function.iter().map(|f| (f.warm, f.cold, f.dropped)));
        prop_assert_eq!(per_fn, (r.warm, r.cold, r.dropped));

        let cluster = ClusterConfig {
            servers: 3,
            per_server: config,
            balancer: LoadBalancer::Random,
            seed: 7,
        };
        let c = run_cluster(&trace, &cluster);
        prop_assert_eq!(c.totals().total(), trace.len() as u64);

        let e = Emulator::run(&trace, &PlatformConfig::new(config.memory, config.policy));
        prop_assert_eq!(e.totals().total(), trace.len() as u64);

        let controller = Controller::new(
            HitRatioCurve::from_reuse(&reuse_distances(&trace)),
            ControllerConfig::new(0.01, MemMb::new(128), MemMb::from_gb(8)),
        );
        let elastic = ElasticConfig {
            policy: config.policy,
            ..ElasticConfig::new(config.memory)
        };
        let el = run_elastic(&trace, &elastic, controller);
        prop_assert_eq!(el.tally.total(), trace.len() as u64);

        let sharded = ShardedConfig::split(config.memory, 1).with_eviction_batch(config.eviction_batch);
        let mut live = Live {
            invoker: ShardedInvoker::with_kind(sharded, config.policy),
            registry: trace.registry(),
            outcomes: Outcomes::default(),
        };
        engine::run(&mut live, &trace, config.tick_interval, None);
        prop_assert_eq!(live.outcomes, live.invoker.stats().outcomes);
    }

    /// Every policy accounts for every invocation exactly once, and the
    /// per-function breakdown agrees with the totals.
    #[test]
    fn simulation_conserves_invocations(
        w in workload_strategy(12, 300),
        policy_idx in 0usize..PolicyKind::ALL.len(),
        mem_mb in 256u64..20_000,
    ) {
        let trace = w.to_trace();
        let kind = PolicyKind::ALL[policy_idx];
        let r = Simulation::run(&trace, &SimConfig::new(MemMb::new(mem_mb), kind));
        prop_assert_eq!(r.invocations as usize, trace.len());
        prop_assert_eq!(r.warm + r.cold + r.dropped, r.invocations);
        let per_fn: u64 = r.per_function.iter().map(|f| f.warm + f.cold + f.dropped).sum();
        prop_assert_eq!(per_fn, r.invocations);
    }

    /// The pool never holds more than its capacity after any arrival,
    /// completion or tick of an engine run.
    #[test]
    fn pool_never_exceeds_capacity(
        w in workload_strategy(8, 200),
        mem_mb in 128u64..8192,
    ) {
        let trace = w.to_trace();
        let pool = ContainerPool::new(MemMb::new(mem_mb), PolicyKind::GreedyDual.build());
        let mut node = CapacityCheck {
            invoker: Invoker::new(pool, trace.registry().len()),
            registry: trace.registry(),
        };
        engine::run(&mut node, &trace, SimDuration::from_secs(15), None);
    }

    /// With zero initialization cost, Greedy-Dual degenerates to LRU
    /// (priority = clock, ties broken by recency — §4.2).
    #[test]
    fn greedy_dual_degenerates_to_lru_without_costs(
        mut w in workload_strategy(8, 250),
        mem_mb in 256u64..4096,
    ) {
        for init in w.init_ms.iter_mut() {
            *init = 0;
        }
        let trace = w.to_trace();
        let gd = Simulation::run(&trace, &SimConfig::new(MemMb::new(mem_mb), PolicyKind::GreedyDual));
        let lru = Simulation::run(&trace, &SimConfig::new(MemMb::new(mem_mb), PolicyKind::Lru));
        prop_assert_eq!(gd.warm, lru.warm);
        prop_assert_eq!(gd.cold, lru.cold);
        prop_assert_eq!(gd.dropped, lru.dropped);
    }

    /// With memory far beyond the workload's total footprint nothing is
    /// ever dropped or evicted under a resource-conserving policy: cold
    /// starts are exactly the compulsory + concurrency-driven container
    /// creations, so every function is cold at least once and warm
    /// accounts for the rest.
    ///
    /// (Pointwise "more memory ⇒ more warm starts" is intentionally NOT
    /// asserted: with drops in play it is false — a dropped request at a
    /// small size can leave a container idle for a later request that a
    /// larger server would have served cold.)
    #[test]
    fn unbounded_memory_serves_everything(w in workload_strategy(8, 200)) {
        let trace = w.to_trace();
        let memory = trace.registry().total_mem().mul_f64(200.0) + MemMb::from_gb(64);
        let r = Simulation::run(&trace, &SimConfig::new(memory, PolicyKind::GreedyDual));
        prop_assert_eq!(r.dropped, 0, "nothing can be dropped with unbounded memory");
        prop_assert_eq!(r.evictions, 0, "GD is resource-conserving");
        let distinct_invoked = trace
            .invocation_counts()
            .iter()
            .filter(|&&c| c > 0)
            .count() as u64;
        prop_assert!(
            r.cold >= distinct_invoked,
            "every invoked function is cold at least once ({} < {})",
            r.cold, distinct_invoked
        );
        prop_assert_eq!(r.warm + r.cold, r.invocations);
    }
}
