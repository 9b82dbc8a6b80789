//! Size-aware keep-alive (the paper's `SIZE` variant, §4.2).
//!
//! Uses `1 / size` as the Greedy-Dual priority: the largest idle container
//! is terminated first, which is useful "in scenarios where memory size is
//! at a premium". Ties break by recency.

use crate::container::{Container, ContainerId};
use crate::policy::index::{grows, Resident};
use crate::policy::KeepAlivePolicy;
use faascache_util::{MemMb, SimTime};
use std::cmp::Reverse;

/// Largest-first, size-aware keep-alive policy.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{KeepAlivePolicy, SizeAware};
/// assert_eq!(SizeAware::new().name(), "SIZE");
/// ```
#[derive(Debug, Default)]
pub struct SizeAware {
    /// Idle containers by descending memory footprint (then ascending
    /// recency). The record is the key: a container's size is fixed.
    pub(super) order: Resident<Reverse<MemMb>, Reverse<MemMb>>,
}

impl SizeAware {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn file(&mut self, container: &Container) {
        self.order.file(
            container.id(),
            container.last_used(),
            || Reverse(container.mem()),
            grows,
            |&size| size,
        );
    }
}

impl KeepAlivePolicy for SizeAware {
    fn name(&self) -> &'static str {
        "SIZE"
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        self.order.mark_busy(container.id());
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
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
        self.order.pop(|&size| size)
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

    fn container(id: u64, mem: u64) -> Container {
        Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(id as u32),
            MemMb::new(mem),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            SimTime::ZERO,
        )
    }

    #[test]
    fn evicts_largest_first() {
        let mut policy = SizeAware::new();
        let small = container(1, 64);
        let big = container(2, 2048);
        policy.on_finish(&small, SimTime::ZERO);
        policy.on_finish(&big, SimTime::ZERO);
        assert_eq!(policy.pop_victim(), Some(ContainerId::from_raw(2)));
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
        policy.on_finish(&a, SimTime::from_secs(51));
        policy.on_finish(&b, SimTime::from_secs(11));
        assert_eq!(policy.pop_victim(), Some(ContainerId::from_raw(2)));
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
