//! Property-based tests of the simulator and its engine (proptest).

use faascache_core::container::ContainerId;
use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::policy::PolicyKind;
use faascache_core::pool::{Acquire, ContainerPool};
use faascache_sim::engine::{self, Completions, Node};
use faascache_sim::sim::{SimConfig, Simulation};
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

/// One pool under the engine that checks its capacity after every event.
struct CapacityCheck<'a> {
    pool: ContainerPool,
    registry: &'a FunctionRegistry,
}

impl Node for CapacityCheck<'_> {
    type Token = ContainerId;

    fn arrive(&mut self, function: FunctionId, now: SimTime, done: &mut Completions<ContainerId>) {
        let spec = self.registry.spec(function);
        match self.pool.acquire(spec, now) {
            Acquire::Warm { container } => done.push(now + spec.warm_time(), container),
            Acquire::Cold { container, .. } => done.push(now + spec.cold_time(), container),
            Acquire::NoCapacity => {}
        }
        assert!(
            self.pool.used_mem() <= self.pool.capacity(),
            "after an arrival"
        );
    }

    fn complete(&mut self, id: ContainerId, at: SimTime, _: &mut Completions<ContainerId>) {
        self.pool.release(id, at);
        assert!(
            self.pool.used_mem() <= self.pool.capacity(),
            "after a completion"
        );
    }

    fn tick(&mut self, now: SimTime, _: &mut Completions<ContainerId>) {
        engine::housekeep(&mut self.pool, self.registry, now);
        assert!(self.pool.used_mem() <= self.pool.capacity(), "after a tick");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
        let cold_sum: u64 = r.cold_per_minute.iter().map(|&c| c as u64).sum();
        prop_assert_eq!(cold_sum, r.cold);
    }

    /// The pool never holds more than its capacity after any arrival,
    /// completion or tick of an engine run.
    #[test]
    fn pool_never_exceeds_capacity(
        w in workload_strategy(8, 200),
        mem_mb in 128u64..8192,
    ) {
        let trace = w.to_trace();
        let mut node = CapacityCheck {
            pool: ContainerPool::new(MemMb::new(mem_mb), PolicyKind::GreedyDual.build()),
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
