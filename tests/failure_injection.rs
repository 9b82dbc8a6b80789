//! Failure-injection tests: the pool must stay consistent — and must not
//! hang — even when a keep-alive policy misbehaves (hands back running
//! containers, stale or never-minted ids, duplicates, or nothing at all).

use faascache::core::container::{Container, ContainerId};
use faascache::core::policy::KeepAlivePolicy;
use faascache::core::pool::{Acquire, ContainerPool};
use faascache::prelude::*;
use faascache::util::{MemMb, SimDuration, SimTime};

/// A policy that violates the eviction contract in configurable ways. It
/// follows the hooks honestly, so it knows which ids would be right.
#[derive(Debug)]
struct AdversarialPolicy {
    mode: Mode,
    idle: Vec<ContainerId>,
    running: Vec<ContainerId>,
    /// The victim handed out last, if it has been handed out only once.
    repeat: Option<ContainerId>,
    pops: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Hands out ids that were never minted, for as long as it is asked.
    BogusIds,
    /// Hands out every idle container twice.
    Duplicates,
    /// Refuses to evict anything.
    Refusal,
    /// Hands out a container that is running an invocation, forever.
    Running,
    /// Reports never-minted ids as expired, for as long as it is asked.
    BogusExpiry,
}

impl AdversarialPolicy {
    fn boxed(mode: Mode) -> Box<Self> {
        Box::new(AdversarialPolicy {
            mode,
            idle: Vec::new(),
            running: Vec::new(),
            repeat: None,
            pops: 0,
        })
    }

    fn never_minted(&mut self) -> Option<ContainerId> {
        self.pops += 1;
        Some(ContainerId::from_raw(u64::MAX - self.pops % 2))
    }
}

impl KeepAlivePolicy for AdversarialPolicy {
    fn name(&self) -> &'static str {
        "ADVERSARIAL"
    }

    fn on_warm_start(&mut self, c: &Container, _now: SimTime) {
        self.idle.retain(|&id| id != c.id());
        self.running.push(c.id());
    }

    fn on_container_created(&mut self, c: &Container, _now: SimTime, prewarm: bool) {
        if prewarm {
            self.idle.push(c.id());
        } else {
            self.running.push(c.id());
        }
    }

    fn on_finish(&mut self, c: &Container, _now: SimTime) {
        self.running.retain(|&id| id != c.id());
        self.idle.push(c.id());
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        match self.mode {
            Mode::BogusIds => self.never_minted(),
            Mode::Duplicates => self.repeat.take().or_else(|| {
                self.repeat = self.idle.first().copied();
                self.repeat
            }),
            Mode::Refusal | Mode::BogusExpiry => None,
            Mode::Running => self.running.first().copied(),
        }
    }

    fn pop_expired(&mut self, _now: SimTime) -> Option<ContainerId> {
        match self.mode {
            Mode::BogusExpiry => self.never_minted(),
            _ => None,
        }
    }

    fn on_evicted(&mut self, c: &Container, _remaining: usize, _now: SimTime) {
        self.idle.retain(|&id| id != c.id());
    }
}

fn registry() -> (FunctionRegistry, Vec<FunctionId>) {
    let mut reg = FunctionRegistry::new();
    let ids = (0..4)
        .map(|i| {
            reg.register(
                format!("f{i}"),
                MemMb::new(100),
                SimDuration::from_millis(10),
                SimDuration::from_millis(100),
            )
            .unwrap()
        })
        .collect();
    (reg, ids)
}

fn register_big(reg: &mut FunctionRegistry) -> FunctionId {
    reg.register("big", MemMb::new(200), SimDuration::ZERO, SimDuration::ZERO)
        .unwrap()
}

fn fill_pool(pool: &mut ContainerPool, reg: &FunctionRegistry, ids: &[FunctionId]) {
    for (i, &f) in ids.iter().enumerate() {
        if let Acquire::Cold { container, .. } =
            pool.acquire(reg.spec(f), SimTime::from_millis(i as u64))
        {
            pool.release(container, SimTime::from_secs(i as u64 + 1));
        }
    }
}

#[test]
fn bogus_victim_ids_do_not_corrupt_the_pool() {
    let (reg, ids) = registry();
    let mut pool = ContainerPool::new(MemMb::new(400), AdversarialPolicy::boxed(Mode::BogusIds));
    fill_pool(&mut pool, &reg, &ids);
    assert_eq!(pool.used_mem(), MemMb::new(400));
    // Needs an eviction, but the policy only offers garbage, and never
    // runs out of it: the request must be dropped — not panic, double-free,
    // or keep asking.
    let mut reg = reg;
    let big = register_big(&mut reg);
    let out = pool.acquire(reg.spec(big), SimTime::from_secs(10));
    assert_eq!(out, Acquire::NoCapacity);
    assert_eq!(pool.used_mem(), MemMb::new(400));
    assert_eq!(pool.len(), 4);
    // Likewise a shrink: nothing evicted, the pool stays overcommitted.
    assert!(pool
        .resize(MemMb::new(100), SimTime::from_secs(11))
        .is_empty());
    assert_eq!(pool.used_mem(), MemMb::new(400));
    assert_eq!(pool.counters().evictions, 0);
}

#[test]
fn duplicate_victims_evict_each_container_once() {
    let (reg, ids) = registry();
    let mut pool = ContainerPool::new(MemMb::new(400), AdversarialPolicy::boxed(Mode::Duplicates));
    fill_pool(&mut pool, &reg, &ids);
    let mut reg = reg;
    let big = register_big(&mut reg);
    let out = pool.acquire(reg.spec(big), SimTime::from_secs(10));
    // Two 100 MB victims make the room, each handed out twice and
    // evicted once: the repeats free nothing and are not counted.
    match out {
        Acquire::Cold { evicted, .. } => assert_eq!(evicted.len(), 2),
        other => panic!("eviction should succeed despite duplicates: {other:?}"),
    }
    assert_eq!(pool.used_mem(), MemMb::new(400));
    assert_eq!(pool.counters().evictions, 2);
    assert_eq!(pool.len(), 3);
}

#[test]
fn refusing_policy_causes_drops_not_hangs() {
    let (reg, ids) = registry();
    let mut pool = ContainerPool::new(MemMb::new(400), AdversarialPolicy::boxed(Mode::Refusal));
    fill_pool(&mut pool, &reg, &ids);
    let mut reg = reg;
    let big = register_big(&mut reg);
    let out = pool.acquire(reg.spec(big), SimTime::from_secs(10));
    assert_eq!(out, Acquire::NoCapacity);
    // The resident warm set is untouched.
    assert_eq!(pool.len(), 4);
    assert_eq!(pool.counters().evictions, 0);
}

#[test]
fn resize_with_refusing_policy_stays_overcommitted_gracefully() {
    let (reg, ids) = registry();
    let mut pool = ContainerPool::new(MemMb::new(400), AdversarialPolicy::boxed(Mode::Refusal));
    fill_pool(&mut pool, &reg, &ids);
    let evicted = pool.resize(MemMb::new(100), SimTime::from_secs(20));
    assert!(evicted.is_empty());
    assert_eq!(pool.capacity(), MemMb::new(100));
    assert_eq!(pool.used_mem(), MemMb::new(400), "idle containers linger");
    assert_eq!(pool.free_mem(), MemMb::ZERO);
}

#[test]
fn a_running_containers_id_is_never_evicted() {
    let (reg, ids) = registry();
    let mut pool = ContainerPool::new(MemMb::new(400), AdversarialPolicy::boxed(Mode::Running));
    fill_pool(&mut pool, &reg, &ids[1..]);
    let Acquire::Cold { container, .. } = pool.acquire(reg.spec(ids[0]), SimTime::from_secs(5))
    else {
        panic!("100 MB are free");
    };
    // Three idle, one running, no room: the policy names the running one,
    // again and again. It is not killed, and the pool stops asking.
    let mut reg = reg;
    let big = register_big(&mut reg);
    let out = pool.acquire(reg.spec(big), SimTime::from_secs(10));
    assert_eq!(out, Acquire::NoCapacity);
    assert!(pool
        .resize(MemMb::new(100), SimTime::from_secs(11))
        .is_empty());
    assert_eq!(pool.counters().evictions, 0);
    assert_eq!((pool.len(), pool.running_count()), (4, 1));
    // Its invocation completes as if nothing had happened.
    pool.release(container, SimTime::from_secs(12));
    assert_eq!(pool.warm_count(), 4);
}

#[test]
fn bogus_expired_ids_are_not_reaped() {
    let (reg, ids) = registry();
    let mut pool = ContainerPool::new(MemMb::new(400), AdversarialPolicy::boxed(Mode::BogusExpiry));
    fill_pool(&mut pool, &reg, &ids);
    // The policy reports garbage as expired for as long as it is asked:
    // the sweep ends, terminates nothing and reports nothing.
    assert!(pool.reap(SimTime::from_mins(60)).is_empty());
    assert_eq!(pool.len(), 4);
    assert_eq!(pool.used_mem(), MemMb::new(400));
    assert_eq!(pool.counters().evictions, 0);
}
