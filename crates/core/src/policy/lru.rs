//! Least-recently-used keep-alive (paper §4.2).
//!
//! LRU is the Greedy-Dual degenerate case that keeps only the access clock:
//! the least recently used idle container is terminated first. It is
//! resource-conserving — containers never expire while memory is free.

use crate::container::{Container, ContainerId};
use crate::policy::index::OrderedIdleSet;
use crate::policy::{take_until_freed, KeepAlivePolicy};
use faascache_util::{MemMb, SimTime};

/// Least-recently-used keep-alive policy.
///
/// By default the eviction order is held in an incremental index keyed by
/// `last_used` (O(log n) per victim); [`Lru::naive`] retains the seed
/// scan-and-sort path as a differential-testing reference.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{KeepAlivePolicy, Lru};
/// assert_eq!(Lru::new().name(), "LRU");
/// ```
#[derive(Debug)]
pub struct Lru {
    index: Option<OrderedIdleSet<SimTime>>,
}

impl Lru {
    /// Creates the policy (incremental eviction index).
    pub fn new() -> Self {
        Lru {
            index: Some(OrderedIdleSet::new()),
        }
    }

    /// Creates the policy with the naive sort-based eviction path.
    pub fn naive() -> Self {
        Lru { index: None }
    }
}

impl Default for Lru {
    fn default() -> Self {
        Self::new()
    }
}

impl KeepAlivePolicy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        if let Some(index) = self.index.as_mut() {
            index.mark_busy(container.id());
        }
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
        // Only prewarmed containers are born idle; cold-start containers
        // enter the idle set through `on_finish`.
        if prewarm {
            if let Some(index) = self.index.as_mut() {
                index.insert(container.id(), container.last_used(), container.last_used());
            }
        }
    }

    fn on_finish(&mut self, container: &Container, _now: SimTime) {
        if let Some(index) = self.index.as_mut() {
            index.insert(container.id(), container.last_used(), container.last_used());
        }
    }

    fn select_victims(&mut self, idle: &[&Container], needed: MemMb) -> Vec<ContainerId> {
        let mut ranked: Vec<&Container> = idle.to_vec();
        ranked.sort_by_key(|c| c.last_used());
        take_until_freed(&ranked, needed)
    }

    fn on_evicted(&mut self, container: &Container, _remaining: usize, _now: SimTime) {
        if let Some(index) = self.index.as_mut() {
            index.remove(container.id());
        }
    }

    fn supports_incremental(&self) -> bool {
        self.index.is_some()
    }

    fn peek_victim(&mut self) -> Option<ContainerId> {
        self.index.as_mut()?.first().map(|(_, _, id)| id)
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        self.index.as_mut()?.pop_first().map(|(_, _, id)| id)
    }

    fn priority_of(&self, container: &Container) -> Option<f64> {
        Some(container.last_used().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionId;
    use faascache_util::SimDuration;

    impl Lru {
        /// Heap entries held, stale ones included.
        pub(crate) fn heap_len(&self) -> usize {
            self.index.as_ref().map_or(0, OrderedIdleSet::heap_len)
        }
    }

    fn container_used_at(id: u64, used: u64) -> Container {
        let mut c = Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(id as u32),
            MemMb::new(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            None,
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
        let victims = lru.select_victims(&[&newer, &old], MemMb::new(100));
        assert_eq!(victims, vec![ContainerId::from_raw(1)]);
    }

    #[test]
    fn takes_enough_to_cover_need() {
        let mut lru = Lru::new();
        let a = container_used_at(1, 1);
        let b = container_used_at(2, 2);
        let c = container_used_at(3, 3);
        let victims = lru.select_victims(&[&c, &a, &b], MemMb::new(150));
        assert_eq!(
            victims,
            vec![ContainerId::from_raw(1), ContainerId::from_raw(2)]
        );
    }

    #[test]
    fn never_expires() {
        let mut lru = Lru::new();
        let c = container_used_at(1, 0);
        assert!(lru.expired(&[&c], SimTime::from_mins(10_000)).is_empty());
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
        assert!(lru.supports_incremental());
        assert!(!Lru::naive().supports_incremental());
        let a = container_used_at(1, 30);
        let b = container_used_at(2, 10);
        let c = container_used_at(3, 20);
        for x in [&a, &b, &c] {
            lru.on_finish(x, x.last_used());
        }
        assert_eq!(lru.peek_victim(), Some(ContainerId::from_raw(2)));
        assert_eq!(lru.pop_victim(), Some(ContainerId::from_raw(2)));
        // A running container is not a victim.
        lru.on_warm_start(&c, SimTime::from_secs(40));
        assert_eq!(lru.pop_victim(), Some(ContainerId::from_raw(1)));
        assert_eq!(lru.pop_victim(), None);
    }
}
