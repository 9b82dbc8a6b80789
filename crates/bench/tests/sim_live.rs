//! Sim ≡ live: a one-shard `ShardedInvoker` (the daemon's invoker, with no
//! housekeeping thread) as an engine node, against `Simulation::run`.
//!
//! Both replay the first four hours of the representative sample (22,920
//! invocations) under all seven policies at the smallest, the middle and
//! the largest Figure-6 size, with one eviction batch and one tick period
//! (the live node's tick is `ShardedInvoker::housekeep`, which runs the
//! simulator's own `engine::housekeep`). Their per-function
//! warm/cold/dropped counts differ for one reason only:
//! `ShardedInvoker::invoke` completes each invocation inside the call and
//! advances the shard clock to its finish (`Shard::advance(finish)`), so
//! overlapping executions are serialised: an arrival during another
//! execution is served later, warm, by the container that execution just
//! released, where the simulator starts a second container cold.
//!
//! `representative_differences_are_pinned` pins, per policy and size, how
//! many of the 400 functions differ and the live warm total minus the
//! simulator's (either sign: changed starts change later evictions).
//! `sequential_trace_agrees` removes that cause: with no overlapping
//! execution (6,568 invocations, still evicting at 10 GB), every policy
//! decides identically.

use faascache::prelude::*;
use faascache::sim::engine::{self, Completions, Node};
use faascache_bench::{large_size_axis, representative_trace};

/// Per-function (warm, cold, dropped).
type Counts = Vec<(u64, u64, u64)>;

/// A one-shard invoker; it completes every invocation inside `invoke`, so
/// it schedules nothing.
struct Live<'a> {
    invoker: ShardedInvoker,
    registry: &'a FunctionRegistry,
    counts: Counts,
}

impl Node for Live<'_> {
    type Token = ();

    fn arrive(&mut self, function: FunctionId, now: SimTime, _: &mut Completions<()>) {
        let f = &mut self.counts[function.index()];
        match self.invoker.invoke(self.registry.spec(function), now) {
            InvokeOutcome::Warm => f.0 += 1,
            InvokeOutcome::Cold => f.1 += 1,
            InvokeOutcome::Dropped => f.2 += 1,
            other => panic!("no admission bound or quota is set, yet {other:?}"),
        }
    }

    fn complete(&mut self, _: (), _: SimTime, _: &mut Completions<()>) {}

    fn tick(&mut self, now: SimTime, _: &mut Completions<()>) {
        self.invoker.housekeep(self.registry, now);
    }
}

/// Per-function counts from the simulator and from the live node.
fn sim_and_live(trace: &Trace, policy: PolicyKind, memory: MemMb) -> (Counts, Counts) {
    let config = SimConfig::new(memory, policy);
    let outcomes = Simulation::run(trace, &config).per_function;
    let sim = outcomes.iter().map(|f| (f.warm, f.cold, f.dropped));
    let sharded = ShardedConfig::split(memory, 1).with_eviction_batch(config.eviction_batch);
    let mut live = Live {
        invoker: ShardedInvoker::with_kind(sharded, policy),
        registry: trace.registry(),
        counts: vec![(0, 0, 0); outcomes.len()],
    };
    engine::run(&mut live, trace, config.tick_interval, None);
    (sim.collect(), live.counts)
}

fn trace() -> Trace {
    representative_trace().truncated(SimTime::from_mins(4 * 60))
}

/// The smallest, the middle and the largest Figure-6 size.
fn sizes() -> [MemMb; 3] {
    let axis = large_size_axis();
    [axis[0], axis[axis.len() / 2], axis[axis.len() - 1]]
}

#[test]
fn representative_differences_are_pinned() {
    let trace = trace();
    let mut got = Vec::new();
    for policy in PolicyKind::ALL {
        for memory in sizes() {
            let (sim, live) = sim_and_live(&trace, policy, memory);
            let differ = sim.iter().zip(&live).filter(|(s, l)| s != l).count();
            let warm = |c: &Counts| c.iter().map(|f| f.0 as i64).sum::<i64>();
            let gb = memory.as_gb_f64() as u64;
            got.push((policy.label(), gb, differ, warm(&live) - warm(&sim)));
        }
    }
    #[rustfmt::skip]
    let pinned = [
        ("GD", 10, 259, 1833), ("GD", 40, 120, 348), ("GD", 80, 32, 11),
        ("TTL", 10, 235, -84), ("TTL", 40, 57, 76), ("TTL", 80, 90, 143),
        ("LRU", 10, 235, -84), ("LRU", 40, 57, 76), ("LRU", 80, 35, 11),
        ("HIST", 10, 239, 1927), ("HIST", 40, 190, 300), ("HIST", 80, 200, 118),
        ("SIZE", 10, 327, 69), ("SIZE", 40, 199, -1438), ("SIZE", 80, 48, -469),
        ("LND", 10, 270, 921), ("LND", 40, 167, 33), ("LND", 80, 44, 17),
        ("FREQ", 10, 230, 1151), ("FREQ", 40, 112, 106), ("FREQ", 80, 35, 12),
    ];
    assert_eq!(got, pinned);
}

#[test]
fn sequential_trace_agrees() {
    // Keep an invocation only once the previous kept one ran, even cold.
    let full = trace();
    let registry = full.registry();
    let mut free_at = SimTime::ZERO;
    let mut kept = Vec::new();
    for inv in full.invocations() {
        if inv.time >= free_at {
            free_at = inv.time + registry.spec(inv.function).cold_time();
            kept.push(*inv);
        }
    }
    let trace = Trace::new(registry.clone(), kept);
    for policy in PolicyKind::ALL {
        for memory in sizes() {
            let (sim, live) = sim_and_live(&trace, policy, memory);
            assert_eq!(sim, live, "{policy} at {memory}");
        }
    }
    let smallest = SimConfig::new(sizes()[0], PolicyKind::GreedyDual);
    assert!(Simulation::run(&trace, &smallest).evictions > 0);
}
