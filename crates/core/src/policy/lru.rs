//! Least-recently-used keep-alive (paper §4.2).
//!
//! LRU is the Greedy-Dual degenerate case that keeps only the access clock:
//! the least recently used idle container is terminated first. It is
//! resource-conserving — containers never expire while memory is free.

use crate::container::{Container, ContainerId};
use crate::policy::index::{grows, Resident};
use crate::policy::KeepAlivePolicy;
use faascache_util::SimTime;

/// Least-recently-used keep-alive policy.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{KeepAlivePolicy, Lru};
/// assert_eq!(Lru::new().name(), "LRU");
/// ```
#[derive(Debug, Default)]
pub struct Lru {
    /// Idle containers by `last_used`, which every order ends in: there
    /// is no key to put in front of it, and nothing to record.
    pub(super) order: Resident<(), ()>,
}

impl Lru {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn file(&mut self, container: &Container) {
        self.order
            .file(container.id(), container.last_used(), || (), grows, |_| ());
    }
}

impl KeepAlivePolicy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        self.order.mark_busy(container.id());
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
        // Only prewarmed containers are born idle; cold-start containers
        // enter the idle set through `on_finish`.
        if prewarm {
            self.file(container);
        }
    }

    fn on_finish(&mut self, container: &Container, _now: SimTime) {
        self.file(container);
    }

    fn on_evicted(&mut self, container: &Container, _remaining: usize, _now: SimTime) {
        self.order.forget(container.id());
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        self.order.pop(|_| ())
    }

    fn priority_of(&self, container: &Container) -> Option<f64> {
        Some(container.last_used().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{FunctionId, FunctionRegistry};
    use crate::pool::{Acquire, ContainerPool};
    use faascache_util::{MemMb, SimDuration};

    fn container_used_at(id: u64, used: u64) -> Container {
        let mut c = Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(id as u32),
            MemMb::new(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            SimTime::ZERO,
        );
        c.begin_invocation(SimTime::from_secs(used), SimTime::from_secs(used + 1));
        c.finish_invocation();
        c
    }

    #[test]
    fn evicts_least_recent_first() {
        let mut lru = Lru::new();
        let old = container_used_at(1, 10);
        let newer = container_used_at(2, 100);
        lru.on_finish(&newer, newer.last_used());
        lru.on_finish(&old, old.last_used());
        assert_eq!(lru.pop_victim(), Some(ContainerId::from_raw(1)));
    }

    #[test]
    fn takes_enough_to_cover_need() {
        let mut reg = FunctionRegistry::new();
        let mut register = |name: &str, mem| {
            let ms = SimDuration::from_millis;
            reg.register(name, MemMb::new(mem), ms(10), ms(20)).unwrap()
        };
        let small = [register("a", 100), register("b", 100), register("c", 100)];
        let big = register("big", 150);
        let mut pool = ContainerPool::new(MemMb::new(300), Box::new(Lru::new()));
        let mut ids = Vec::new();
        // Last used at 3, 1 and 2 s.
        for (f, used) in [(small[2], 3), (small[0], 1), (small[1], 2)] {
            let at = SimTime::from_secs(used);
            let Acquire::Cold { container, .. } = pool.acquire(reg.spec(f), at) else {
                panic!("the pool starts empty");
            };
            pool.release(container, at);
            ids.push(container);
        }
        // 150 MB are needed: the two least recently used go, the third stays.
        match pool.acquire(reg.spec(big), SimTime::from_secs(9)) {
            Acquire::Cold { evicted, .. } => assert_eq!(evicted, vec![ids[1], ids[2]]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pool.warm_count(), 1);
    }

    #[test]
    fn never_expires() {
        let mut lru = Lru::new();
        let c = container_used_at(1, 0);
        lru.on_finish(&c, c.last_used());
        assert!(lru.pop_expired(SimTime::from_mins(10_000)).is_none());
        assert_eq!(lru.pop_victim(), Some(c.id()), "still there to evict");
    }

    #[test]
    fn priority_is_recency() {
        let lru = Lru::new();
        let c = container_used_at(1, 42);
        assert!((lru.priority_of(&c).unwrap() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_pop_follows_lru_order() {
        let mut lru = Lru::new();
        let a = container_used_at(1, 30);
        let b = container_used_at(2, 10);
        let c = container_used_at(3, 20);
        for x in [&a, &b, &c] {
            lru.on_finish(x, x.last_used());
        }
        assert_eq!(lru.pop_victim(), Some(ContainerId::from_raw(2)));
        // A running container is not a victim.
        lru.on_warm_start(&c, SimTime::from_secs(40));
        assert_eq!(lru.pop_victim(), Some(ContainerId::from_raw(1)));
        assert_eq!(lru.pop_victim(), None);
    }
}
