//! `SimResult::latency` is computed from counts (warm starts, and cold
//! starts per function) instead of one sample per served invocation.
//! These tests replay traces under a policy wrapper that *does* write down
//! one startup delay per served invocation, in arrival order, and require
//! the digest to equal `LatencySummary::from_samples_ms` of that vector in
//! every bit of every field.

use faascache_core::container::{Container, ContainerId};
use faascache_core::function::{FunctionId, FunctionRegistry, FunctionSpec};
use faascache_core::policy::{KeepAlivePolicy, PolicyKind, TenantWeights};
use faascache_sim::sim::{SimConfig, Simulation};
use faascache_trace::record::{Invocation, Trace};
use faascache_util::stats::LatencySummary;
use faascache_util::{MemMb, SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// Delegates everything to `inner` and records the startup delay (ms) of
/// every served invocation: zero on a warm start, the container's
/// initialization overhead on a cold one. Prewarmed containers serve
/// nobody when they are created.
#[derive(Debug)]
struct Recording {
    inner: Box<dyn KeepAlivePolicy>,
    delays_ms: Arc<Mutex<Vec<f64>>>,
}

impl KeepAlivePolicy for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_request(&mut self, spec: &FunctionSpec, now: SimTime) {
        self.inner.on_request(spec, now)
    }
    fn on_warm_start(&mut self, c: &Container, now: SimTime) {
        self.delays_ms.lock().unwrap().push(0.0);
        self.inner.on_warm_start(c, now)
    }
    fn on_container_created(&mut self, c: &Container, now: SimTime, prewarm: bool) {
        if !prewarm {
            let delay = c.init_overhead().as_millis_f64();
            self.delays_ms.lock().unwrap().push(delay);
        }
        self.inner.on_container_created(c, now, prewarm)
    }
    fn on_finish(&mut self, c: &Container, now: SimTime) {
        self.inner.on_finish(c, now)
    }
    fn pop_victim(&mut self) -> Option<ContainerId> {
        self.inner.pop_victim()
    }
    fn pop_expired(&mut self, now: SimTime) -> Option<ContainerId> {
        self.inner.pop_expired(now)
    }
    fn on_evicted(&mut self, c: &Container, remaining: usize, now: SimTime) {
        self.inner.on_evicted(c, remaining, now)
    }
    fn prewarm_due(&mut self, now: SimTime) -> Vec<FunctionId> {
        self.inner.prewarm_due(now)
    }
    fn priority_of(&self, c: &Container) -> Option<f64> {
        self.inner.priority_of(c)
    }
    fn set_tenant_weights(&mut self, weights: Arc<TenantWeights>) {
        self.inner.set_tenant_weights(weights)
    }
}

/// `(memory MB, warm ms, initialization overhead ms)` per function.
type FnShape = (u64, u64, u64);

fn trace_of(functions: &[FnShape], arrivals: &[(u64, usize)]) -> Trace {
    let mut reg = FunctionRegistry::new();
    let ids: Vec<FunctionId> = functions
        .iter()
        .enumerate()
        .map(|(i, &(mem, warm_ms, overhead_ms))| {
            reg.register(
                format!("f{i}"),
                MemMb::new(mem),
                SimDuration::from_millis(warm_ms),
                SimDuration::from_millis(warm_ms + overhead_ms),
            )
            .unwrap()
        })
        .collect();
    let mut now = SimTime::ZERO;
    let invocations = arrivals
        .iter()
        .map(|&(gap_ms, f)| {
            now += SimDuration::from_millis(gap_ms);
            Invocation {
                time: now,
                function: ids[f % ids.len()],
            }
        })
        .collect();
    Trace::new(reg, invocations)
}

/// Replays `trace` and checks the digest against the per-invocation
/// samples; returns `(warm, cold)`.
fn check(trace: &Trace, policy: PolicyKind, memory_mb: u64) -> Result<(u64, u64), String> {
    let delays_ms = Arc::new(Mutex::new(Vec::new()));
    let recording = Recording {
        inner: policy.build(),
        delays_ms: Arc::clone(&delays_ms),
    };
    let config = SimConfig::new(MemMb::new(memory_mb), policy);
    let r = Simulation::run_with_policy(trace, &config, Box::new(recording));
    let samples = delays_ms.lock().unwrap();
    let want = LatencySummary::from_samples_ms(&samples);
    let got = r.latency;
    let same = got.count == want.count
        && got.count == r.warm + r.cold
        && [
            (got.mean_ms, want.mean_ms),
            (got.p50_ms, want.p50_ms),
            (got.p95_ms, want.p95_ms),
            (got.p99_ms, want.p99_ms),
            (got.max_ms, want.max_ms),
        ]
        .iter()
        .all(|(g, w)| g.to_bits() == w.to_bits());
    if same {
        Ok((r.warm, r.cold))
    } else {
        Err(format!(
            "{policy} at {memory_mb} MB: digest {got:?}, per-invocation samples give {want:?}"
        ))
    }
}

#[test]
fn empty_trace_has_the_all_zero_digest() {
    let trace = trace_of(&[(128, 50, 400)], &[]);
    assert_eq!(check(&trace, PolicyKind::GreedyDual, 1024), Ok((0, 0)));
}

#[test]
fn all_cold_and_all_zero_delay_traces() {
    // Eleven minutes apart under the ten-minute TTL: every start is cold.
    let arrivals: Vec<(u64, usize)> = (0..40).map(|i| (11 * 60_000, i % 3)).collect();
    let shapes = [(128, 50, 400), (128, 80, 400), (256, 20, 1_250)];
    let (warm, cold) = check(&trace_of(&shapes, &arrivals), PolicyKind::Ttl, 4096).unwrap();
    assert_eq!((warm, cold), (0, 40));
    // Ten seconds apart with room for all: one cold start per function,
    // the rest warm.
    let arrivals: Vec<(u64, usize)> = (0..40).map(|i| (10_000, i % 3)).collect();
    let (warm, cold) = check(&trace_of(&shapes, &arrivals), PolicyKind::Lru, 4096).unwrap();
    assert_eq!((warm, cold), (37, 3));
    // No initialization overhead at all: warm or cold, every delay is
    // zero, which is what an all-warm trace would digest to.
    let free = [(128, 50, 0), (256, 20, 0)];
    let (warm, cold) = check(&trace_of(&free, &arrivals), PolicyKind::Ttl, 128).unwrap();
    assert!(warm > 0 && cold > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random traces over a handful of functions — overheads drawn from a
    /// few values so that functions share one, zero included — at memory
    /// sizes from "one container" to "everything fits", under all seven
    /// policies.
    #[test]
    fn digest_equals_the_per_invocation_samples(
        functions in prop::collection::vec((0usize..4, 1u64..2_000, 0usize..5), 1..8),
        arrivals in prop::collection::vec((0u64..90_000, 0usize..8), 0..300),
        policy in 0usize..7,
        memory in 0usize..4,
    ) {
        const MEM_MB: [u64; 4] = [64, 128, 256, 512];
        const OVERHEAD_MS: [u64; 5] = [0, 125, 400, 400, 3_333];
        let shapes: Vec<FnShape> = functions
            .iter()
            .map(|&(mem, warm_ms, overhead)| (MEM_MB[mem], warm_ms, OVERHEAD_MS[overhead]))
            .collect();
        let trace = trace_of(&shapes, &arrivals);
        let memory_mb = [512, 1024, 2048, 1 << 20][memory];
        let outcome = check(&trace, PolicyKind::ALL[policy], memory_mb);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
