//! Differential tests for the eviction order.
//!
//! Every keep-alive policy keeps its containers in one lazy heap of lower
//! bounds (`policy::index::Resident`). The reference it is held to lives
//! here, as test code: [`Scan`] wraps the real policy, forwards every hook
//! to it (so frequencies, clock, histograms and pre-warm schedule are the
//! real thing), tracks the idle set from those hooks alone, and finds a
//! victim the slow, obvious way — a scan of the idle set for the minimum
//! `(key, last_used, id)`, the key computed from what the policy exposes.
//! Landlord's reference, [`RentRounds`], shares nothing with the policy:
//! it charges rent round by round where the policy advances an offset.
//!
//! These tests drive two pools — one over the policy, one over its
//! reference — through identical randomized workloads covering the whole
//! pool surface (acquire, release, reap, prewarm, resize) and assert
//! byte-identical behavior: the same acquire outcomes including the
//! evicted-victim sequences, the same reap and resize results, and the
//! same counters and memory accounting at the end.
//!
//! Memory sizes and cold-start times are drawn from power-of-two-friendly
//! sets so that Landlord's credit arithmetic (`cost / size`) is exactly
//! representable: the offset encoding and the iterative rent rounds then
//! agree bit-for-bit, not merely approximately.

use faascache_core::container::{Container, ContainerId};
use faascache_core::function::{FunctionId, FunctionRegistry, FunctionSpec};
use faascache_core::policy::{
    GreedyDual, Hist, HistConfig, KeepAlivePolicy, Lfu, Lru, PolicyKind, SizeAware, TotalF64, Ttl,
};
use faascache_core::pool::{Acquire, ContainerPool, PoolConfig};
use faascache_util::{MemMb, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// The real policy `P` with its eviction order taken away (see the module
/// docs).
#[derive(Debug)]
struct Scan<P, K> {
    inner: P,
    /// The idle containers, as the hook that made each idle saw it.
    idle: BTreeMap<ContainerId, Container>,
    /// `P`'s eviction key for an idle container, read live.
    key: fn(&P, &Container) -> K,
    /// Whether an idle container's keep-alive lease has lapsed.
    lapsed: fn(&P, &Container, SimTime) -> bool,
}

impl<P: KeepAlivePolicy + 'static, K: Ord + std::fmt::Debug + 'static> Scan<P, K> {
    fn boxed(
        inner: P,
        key: fn(&P, &Container) -> K,
        lapsed: fn(&P, &Container, SimTime) -> bool,
    ) -> Box<dyn KeepAlivePolicy> {
        Box::new(Scan {
            inner,
            idle: BTreeMap::new(),
            key,
            lapsed,
        })
    }
}

impl<P: KeepAlivePolicy, K: Ord + std::fmt::Debug> KeepAlivePolicy for Scan<P, K> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn on_request(&mut self, spec: &FunctionSpec, now: SimTime) {
        self.inner.on_request(spec, now);
    }
    fn on_warm_start(&mut self, c: &Container, now: SimTime) {
        self.idle.remove(&c.id());
        self.inner.on_warm_start(c, now);
    }
    fn on_container_created(&mut self, c: &Container, now: SimTime, prewarm: bool) {
        if prewarm {
            self.idle.insert(c.id(), c.clone());
        }
        self.inner.on_container_created(c, now, prewarm);
    }
    fn on_finish(&mut self, c: &Container, now: SimTime) {
        self.idle.insert(c.id(), c.clone());
        self.inner.on_finish(c, now);
    }
    fn pop_victim(&mut self) -> Option<ContainerId> {
        let victim = self
            .idle
            .values()
            .min_by_key(|c| ((self.key)(&self.inner, c), c.last_used(), c.id()))?
            .id();
        self.idle.remove(&victim);
        Some(victim)
    }
    fn pop_expired(&mut self, now: SimTime) -> Option<ContainerId> {
        let lapsed = self
            .idle
            .values()
            .find(|c| (self.lapsed)(&self.inner, c, now))?
            .id();
        self.idle.remove(&lapsed);
        Some(lapsed)
    }
    fn on_evicted(&mut self, c: &Container, remaining: usize, now: SimTime) {
        self.idle.remove(&c.id());
        self.inner.on_evicted(c, remaining, now);
    }
    fn prewarm_due(&mut self, now: SimTime) -> Vec<FunctionId> {
        self.inner.prewarm_due(now)
    }
}

/// Landlord as Young states it: when space must be freed, charge every
/// idle container rent in proportion to its size, at the rate that drives
/// the poorest one's credit to zero, and evict a container whose credit is
/// gone (the oldest, then lowest id, of those). One round per victim.
#[derive(Debug, Default)]
struct RentRounds {
    /// Credit of every resident container as of its last use or the last
    /// rent round.
    credit: BTreeMap<ContainerId, f64>,
    idle: BTreeMap<ContainerId, Container>,
}

impl RentRounds {
    fn cost(c: &Container) -> f64 {
        c.init_overhead().as_secs_f64().max(1e-9)
    }
}

impl KeepAlivePolicy for RentRounds {
    fn name(&self) -> &'static str {
        "LND"
    }
    fn on_warm_start(&mut self, c: &Container, _now: SimTime) {
        self.idle.remove(&c.id());
        self.credit.insert(c.id(), Self::cost(c));
    }
    fn on_container_created(&mut self, c: &Container, _now: SimTime, prewarm: bool) {
        self.credit.insert(c.id(), Self::cost(c));
        if prewarm {
            self.idle.insert(c.id(), c.clone());
        }
    }
    fn on_finish(&mut self, c: &Container, _now: SimTime) {
        self.idle.insert(c.id(), c.clone());
    }
    fn pop_victim(&mut self) -> Option<ContainerId> {
        let size = |c: &Container| c.mem().as_mb().max(1) as f64;
        // Rent rate: the smallest credit/size among the idle containers.
        let delta = self
            .idle
            .values()
            .map(|c| self.credit[&c.id()] / size(c))
            .fold(f64::INFINITY, f64::min);
        if !delta.is_finite() {
            return None;
        }
        let mut broke = Vec::new();
        for c in self.idle.values() {
            let credit = self.credit.get_mut(&c.id()).expect("resident");
            *credit -= delta * size(c);
            if *credit <= 1e-12 {
                *credit = 0.0;
                broke.push((c.last_used(), c.id()));
            }
        }
        let (_, victim) = broke.into_iter().min()?;
        self.idle.remove(&victim);
        Some(victim)
    }
    fn on_evicted(&mut self, c: &Container, _remaining: usize, _now: SimTime) {
        self.idle.remove(&c.id());
        self.credit.remove(&c.id());
    }
}

/// The brute-force counterpart of `kind.build()`.
fn reference(kind: PolicyKind) -> Box<dyn KeepAlivePolicy> {
    fn never<P>(_: &P, _: &Container, _: SimTime) -> bool {
        false
    }
    match kind {
        PolicyKind::GreedyDual => Scan::boxed(
            GreedyDual::new(),
            |p, c| TotalF64(p.priority_of(c).expect("GD is priority-based")),
            never,
        ),
        PolicyKind::Ttl => Scan::boxed(
            Ttl::open_whisk_default(),
            |_, c| c.last_used(),
            |p, c, now| now.since(c.last_used()) >= p.ttl(),
        ),
        PolicyKind::Lru => Scan::boxed(Lru::new(), |_, c| c.last_used(), never),
        PolicyKind::Lfu => Scan::boxed(Lfu::new(), |p, c| p.frequency(c.function()), never),
        PolicyKind::SizeAware => Scan::boxed(SizeAware::new(), |_, c| Reverse(c.mem()), never),
        PolicyKind::Landlord => Box::new(RentRounds::default()),
        PolicyKind::Hist => Scan::boxed(
            Hist::new(HistConfig::default()),
            |p, c| Reverse(p.keys_of(c).0),
            |p, c, now| now >= p.keys_of(c).1,
        ),
        other => panic!("no reference for {other}"),
    }
}

/// Memory footprints (MB): powers of two.
const MEM_CHOICES: [u64; 4] = [64, 128, 256, 512];
/// Cold-start times (ms) whose init overhead (cold − warm = cold / 2) is
/// an exact binary fraction of a second: 0.125, 0.25, 0.5, 1.0.
const COLD_CHOICES: [u64; 4] = [250, 500, 1000, 2000];

#[derive(Debug, Clone)]
struct Workload {
    /// Per-function (mem MB, cold ms).
    functions: Vec<(u64, u64)>,
    /// (function index, inter-arrival gap ms, hold ms).
    arrivals: Vec<(usize, u16, u16)>,
    capacity_mb: u64,
    batch_mb: u64,
    /// Run reap/prewarm maintenance every this many arrivals.
    maintenance_every: usize,
    /// Mid-run shrink target; 0 disables the resize.
    resize_to_mb: u64,
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (1usize..=6).prop_flat_map(|n| {
        (
            prop::collection::vec((0usize..4, 0usize..4), n),
            prop::collection::vec((0usize..n, 0u16..3000, 1u16..2000), 1..120),
            (1u64..=4, 0usize..3, 2usize..20, 0u64..2048),
        )
            .prop_map(
                |(choices, arrivals, (cap_units, batch_idx, every, resize_to))| Workload {
                    functions: choices
                        .into_iter()
                        .map(|(m, c)| (MEM_CHOICES[m], COLD_CHOICES[c]))
                        .collect(),
                    arrivals,
                    capacity_mb: cap_units * 512,
                    batch_mb: [0u64, 256, 1000][batch_idx],
                    maintenance_every: every,
                    resize_to_mb: resize_to,
                },
            )
    })
}

/// Drives a pool over `kind` and one over its reference through `w` in
/// lockstep, asserting identical observable behavior at every step.
fn assert_modes_agree(kind: PolicyKind, w: &Workload) {
    let mut reg = FunctionRegistry::new();
    let ids: Vec<_> = w
        .functions
        .iter()
        .enumerate()
        .map(|(i, &(mem, cold))| {
            reg.register(
                format!("f{i}"),
                MemMb::new(mem),
                SimDuration::from_millis(cold / 2),
                SimDuration::from_millis(cold),
            )
            .unwrap()
        })
        .collect();
    let config =
        PoolConfig::new(MemMb::new(w.capacity_mb)).with_eviction_batch(MemMb::new(w.batch_mb));
    let mut fast = ContainerPool::with_config(config, kind.build());
    let mut slow = ContainerPool::with_config(config, reference(kind));

    let mut now = SimTime::ZERO;
    // Outcomes are asserted identical, so one schedule serves both pools.
    let mut running: Vec<(SimTime, ContainerId)> = Vec::new();
    let mut resized = false;
    for (step, &(f, gap, hold)) in w.arrivals.iter().enumerate() {
        now += SimDuration::from_millis(gap as u64);
        running.retain(|&(until, id)| {
            if until <= now {
                fast.release(id, until);
                slow.release(id, until);
                false
            } else {
                true
            }
        });
        if step % w.maintenance_every == w.maintenance_every - 1 {
            let reaped_fast = fast.reap(now);
            let reaped_slow = slow.reap(now);
            prop_assert_eq!(
                &reaped_fast,
                &reaped_slow,
                "{:?}: reap diverged at {}",
                kind,
                step
            );
            let due_fast = fast.prewarm_due(now);
            let due_slow = slow.prewarm_due(now);
            prop_assert_eq!(
                &due_fast,
                &due_slow,
                "{:?}: prewarm_due diverged at {}",
                kind,
                step
            );
            for fid in due_fast {
                let a = fast.prewarm(reg.spec(fid), now);
                let b = slow.prewarm(reg.spec(fid), now);
                prop_assert_eq!(a, b, "{:?}: prewarm diverged at {}", kind, step);
            }
            if !resized && w.resize_to_mb > 0 && step >= w.arrivals.len() / 2 {
                resized = true;
                let ev_fast = fast.resize(MemMb::new(w.resize_to_mb), now);
                let ev_slow = slow.resize(MemMb::new(w.resize_to_mb), now);
                prop_assert_eq!(
                    &ev_fast,
                    &ev_slow,
                    "{:?}: resize diverged at {}",
                    kind,
                    step
                );
            }
        }
        let spec = reg.spec(ids[f % ids.len()]);
        let a = fast.acquire(spec, now);
        let b = slow.acquire(spec, now);
        prop_assert_eq!(&a, &b, "{:?}: acquire diverged at step {}", kind, step);
        match a {
            Acquire::Warm { container } | Acquire::Cold { container, .. } => {
                running.push((now + SimDuration::from_millis(hold as u64), container));
            }
            Acquire::NoCapacity => {}
        }
    }
    prop_assert_eq!(
        fast.counters(),
        slow.counters(),
        "{:?}: counters diverged",
        kind
    );
    prop_assert_eq!(fast.used_mem(), slow.used_mem(), "{:?}", kind);
    prop_assert_eq!(fast.warm_mem(), slow.warm_mem(), "{:?}", kind);
    prop_assert_eq!(fast.warm_count(), slow.warm_count(), "{:?}", kind);
}

/// Case 3350 of the property below at 4,096 cases, which once failed under
/// GD (step 47: the policy's pool evicted `[2, 5]`, the reference's `[2]`):
/// the shrink to 807 MB leaves running containers holding more than the
/// new capacity, and a `make_room` that takes its shortfall from the
/// saturated-zero `free_mem()` stops short of the batch target (paper §6).
#[test]
fn overcommitted_pool_still_frees_to_the_batch_target() {
    let w = Workload {
        functions: vec![(256, 500), (512, 1000)],
        arrivals: vec![
            (0, 2773, 1501),
            (1, 298, 1013),
            (1, 636, 264),
            (1, 2239, 605),
            (1, 898, 528),
            (0, 852, 405),
            (1, 2679, 327),
            (1, 973, 423),
            (1, 2396, 175),
            (1, 1150, 287),
            (1, 2448, 879),
            (0, 294, 1909),
            (0, 2567, 1246),
            (1, 124, 541),
            (1, 564, 1594),
            (0, 2996, 1765),
            (1, 2132, 1181),
            (0, 506, 1004),
            (0, 2499, 1004),
            (1, 799, 674),
            (1, 914, 1032),
            (0, 2360, 736),
            (1, 1324, 1620),
            (1, 1272, 1794),
            (0, 1433, 1947),
            (0, 383, 1554),
            (1, 238, 1592),
            (0, 1655, 769),
            (0, 1406, 257),
            (1, 290, 384),
            (1, 1778, 511),
            (0, 348, 1638),
            (1, 2753, 1040),
            (0, 2486, 1233),
            (0, 2305, 347),
            (0, 1917, 97),
            (1, 772, 1164),
            (0, 2653, 997),
            (0, 2286, 505),
            (0, 780, 230),
            (1, 1655, 198),
            (0, 473, 420),
            (1, 1998, 707),
            (1, 42, 1171),
            (1, 281, 429),
            (1, 1841, 1800),
            (1, 2494, 18),
            (0, 752, 1118),
            (1, 1150, 1750),
            (1, 1560, 966),
            (1, 2453, 1287),
            (1, 2237, 410),
            (0, 786, 1328),
            (0, 1402, 1277),
            (1, 1695, 709),
            (1, 1913, 709),
            (1, 561, 1693),
            (1, 6, 713),
            (1, 2868, 635),
            (0, 1991, 254),
            (0, 299, 1902),
            (1, 522, 177),
            (1, 2881, 785),
            (1, 1371, 696),
        ],
        capacity_mb: 1024,
        batch_mb: 256,
        maintenance_every: 15,
        resize_to_mb: 807,
    };
    for kind in PolicyKind::ALL {
        assert_modes_agree(kind, &w);
    }
}

/// A script short enough to follow by hand: three functions of 100, 200 and
/// 300 MB, one arrival a second, each released before the next, in a
/// 500 MB pool that frees 100 MB extra per eviction round.
#[test]
fn incremental_matches_naive_on_scripted_workload() {
    let w = Workload {
        functions: vec![(100, 500), (200, 800), (300, 900)],
        arrivals: [0, 1, 0, 2, 1, 0, 2, 2, 1, 0]
            .map(|f| (f, 1000, 900))
            .to_vec(),
        capacity_mb: 500,
        batch_mb: 100,
        maintenance_every: 4,
        resize_to_mb: 0,
    };
    for kind in PolicyKind::ALL {
        assert_modes_agree(kind, &w);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The lazy heaps pick byte-identical victim sequences to the
    /// brute-force scan-the-idle-set reference — for every policy, across
    /// the full pool lifecycle.
    #[test]
    fn incremental_policies_match_naive_reference(w in workload_strategy()) {
        for kind in PolicyKind::ALL {
            assert_modes_agree(kind, &w);
        }
    }
}
