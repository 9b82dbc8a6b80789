//! Size-aware keep-alive (the paper's `SIZE` variant, §4.2).
//!
//! Uses `1 / size` as the Greedy-Dual priority: the largest idle container
//! is terminated first, which is useful "in scenarios where memory size is
//! at a premium". Ties break by recency.

use crate::container::{Container, ContainerId};
use crate::policy::index::OrderedIdleSet;
use crate::policy::{take_until_freed, KeepAlivePolicy};
use faascache_util::{MemMb, SimTime};
use std::cmp::Reverse;

/// Largest-first, size-aware keep-alive policy.
///
/// The incremental index orders idle containers by descending memory
/// footprint (then ascending recency); [`SizeAware::naive`] retains the
/// seed sort-based path as a reference.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{KeepAlivePolicy, SizeAware};
/// assert_eq!(SizeAware::new().name(), "SIZE");
/// ```
#[derive(Debug)]
pub struct SizeAware {
    index: Option<OrderedIdleSet<Reverse<MemMb>>>,
}

impl SizeAware {
    /// Creates the policy (incremental eviction index).
    pub fn new() -> Self {
        SizeAware {
            index: Some(OrderedIdleSet::new()),
        }
    }

    /// Creates the policy with the naive sort-based eviction path.
    pub fn naive() -> Self {
        SizeAware { index: None }
    }
}

impl Default for SizeAware {
    fn default() -> Self {
        Self::new()
    }
}

impl KeepAlivePolicy for SizeAware {
    fn name(&self) -> &'static str {
        "SIZE"
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        if let Some(index) = self.index.as_mut() {
            index.mark_busy(container.id());
        }
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
        if prewarm {
            if let Some(index) = self.index.as_mut() {
                index.insert(
                    container.id(),
                    Reverse(container.mem()),
                    container.last_used(),
                );
            }
        }
    }

    fn on_finish(&mut self, container: &Container, _now: SimTime) {
        if let Some(index) = self.index.as_mut() {
            index.insert(
                container.id(),
                Reverse(container.mem()),
                container.last_used(),
            );
        }
    }

    fn select_victims(&mut self, idle: &[&Container], needed: MemMb) -> Vec<ContainerId> {
        let mut ranked: Vec<&Container> = idle.to_vec();
        ranked.sort_by(|a, b| {
            b.mem()
                .cmp(&a.mem())
                .then(a.last_used().cmp(&b.last_used()))
        });
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
        Some(1.0 / container.mem().as_mb().max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionId;
    use faascache_util::SimDuration;

    impl SizeAware {
        /// Heap entries held, stale ones included.
        pub(crate) fn heap_len(&self) -> usize {
            self.index.as_ref().map_or(0, OrderedIdleSet::heap_len)
        }
    }

    fn container(id: u64, mem: u64) -> Container {
        Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(id as u32),
            MemMb::new(mem),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            None,
            SimTime::ZERO,
        )
    }

    #[test]
    fn evicts_largest_first() {
        let mut policy = SizeAware::new();
        let small = container(1, 64);
        let big = container(2, 2048);
        let victims = policy.select_victims(&[&small, &big], MemMb::new(100));
        assert_eq!(victims, vec![ContainerId::from_raw(2)]);
    }

    #[test]
    fn priority_is_inverse_size() {
        let policy = SizeAware::new();
        let small = container(1, 64);
        let big = container(2, 2048);
        assert!(policy.priority_of(&small).unwrap() > policy.priority_of(&big).unwrap());
    }

    #[test]
    fn equal_sizes_fall_back_to_lru() {
        let mut policy = SizeAware::new();
        let mut a = container(1, 128);
        let mut b = container(2, 128);
        a.begin_invocation(SimTime::from_secs(50), SimTime::from_secs(51));
        a.finish_invocation();
        b.begin_invocation(SimTime::from_secs(10), SimTime::from_secs(11));
        b.finish_invocation();
        let victims = policy.select_victims(&[&a, &b], MemMb::new(128));
        assert_eq!(victims, vec![ContainerId::from_raw(2)]);
    }

    #[test]
    fn incremental_pop_is_largest_first() {
        let mut policy = SizeAware::new();
        let small = container(1, 64);
        let big = container(2, 2048);
        let mid = container(3, 512);
        for c in [&small, &big, &mid] {
            policy.on_finish(c, SimTime::ZERO);
        }
        assert_eq!(policy.pop_victim(), Some(ContainerId::from_raw(2)));
        assert_eq!(policy.pop_victim(), Some(ContainerId::from_raw(3)));
        assert_eq!(policy.pop_victim(), Some(ContainerId::from_raw(1)));
        assert_eq!(policy.pop_victim(), None);
    }
}
