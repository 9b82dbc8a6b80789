//! Least-frequently-used keep-alive (the paper's `FREQ` variant, §4.2).
//!
//! Uses only invocation frequency as the Greedy-Dual priority; ties break
//! by recency. Like GD, a function's frequency resets when its last
//! container is terminated.

use crate::container::{Container, ContainerId};
use crate::fn_table::FnTable;
use crate::function::FunctionId;
use crate::policy::index::{grows, Resident};
use crate::policy::KeepAlivePolicy;
use faascache_util::SimTime;

/// Least-frequently-used keep-alive policy.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{KeepAlivePolicy, Lfu};
/// assert_eq!(Lfu::new().name(), "FREQ");
/// ```
#[derive(Debug, Default)]
pub struct Lfu {
    /// Invocations per function (0 ≡ never seen or fully evicted).
    freq: FnTable<u64>,
    /// Every container that has been idle at least once, recorded by its
    /// function and ordered by that function's frequency.
    ///
    /// The key grows when *any* container of the function serves a warm
    /// start, and never decreases while the function has resident
    /// containers, so the heap entry of a resident container stays a lower
    /// bound across warm cycles (see [`crate::policy::index`]).
    pub(super) order: Resident<FunctionId, u64>,
}

impl Lfu {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current frequency of a function.
    pub fn frequency(&self, function: FunctionId) -> u64 {
        self.freq.value(function)
    }

    fn bump(&mut self, function: FunctionId) {
        *self.freq.slot(function) += 1;
    }

    /// The container is idle: files it at its function's frequency.
    fn file(&mut self, container: &Container) {
        let freq = &self.freq;
        self.order.file(
            container.id(),
            container.last_used(),
            || container.function(),
            grows,
            |&function| freq.value(function),
        );
    }
}

impl KeepAlivePolicy for Lfu {
    fn name(&self) -> &'static str {
        "FREQ"
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        self.bump(container.function());
        self.order.mark_busy(container.id());
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
        if !prewarm {
            self.bump(container.function());
        } else {
            self.file(container);
        }
    }

    fn on_finish(&mut self, container: &Container, _now: SimTime) {
        self.file(container);
    }

    fn on_evicted(&mut self, container: &Container, remaining_of_function: usize, _now: SimTime) {
        if remaining_of_function == 0 {
            if let Some(freq) = self.freq.get_mut(container.function()) {
                *freq = 0;
            }
        }
        self.order.forget(container.id());
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        let freq = &self.freq;
        self.order.pop(|&function| freq.value(function))
    }

    fn priority_of(&self, container: &Container) -> Option<f64> {
        Some(self.frequency(container.function()) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_util::{MemMb, SimDuration};

    fn container(id: u64, fid: u32) -> Container {
        Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(fid),
            MemMb::new(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            SimTime::ZERO,
        )
    }

    #[test]
    fn evicts_least_frequent() {
        let mut lfu = Lfu::new();
        let hot = container(1, 0);
        let cold = container(2, 1);
        lfu.on_container_created(&hot, SimTime::ZERO, false);
        lfu.on_container_created(&cold, SimTime::ZERO, false);
        for _ in 0..9 {
            lfu.on_warm_start(&hot, SimTime::from_secs(1));
        }
        assert_eq!(lfu.frequency(hot.function()), 10);
        assert_eq!(lfu.frequency(cold.function()), 1);
        lfu.on_finish(&hot, SimTime::from_secs(2));
        lfu.on_finish(&cold, SimTime::from_secs(2));
        assert_eq!(lfu.pop_victim(), Some(ContainerId::from_raw(2)));
    }

    #[test]
    fn frequency_resets_on_full_eviction() {
        let mut lfu = Lfu::new();
        let c = container(1, 5);
        lfu.on_container_created(&c, SimTime::ZERO, false);
        lfu.on_warm_start(&c, SimTime::from_secs(1));
        assert_eq!(lfu.frequency(c.function()), 2);
        lfu.on_evicted(&c, 0, SimTime::from_secs(2));
        assert_eq!(lfu.frequency(c.function()), 0);
    }

    #[test]
    fn recency_breaks_frequency_ties() {
        let mut lfu = Lfu::new();
        let mut a = container(1, 0);
        let mut b = container(2, 1);
        lfu.on_container_created(&a, SimTime::ZERO, false);
        lfu.on_container_created(&b, SimTime::ZERO, false);
        a.begin_invocation(SimTime::from_secs(10), SimTime::from_secs(11));
        a.finish_invocation();
        b.begin_invocation(SimTime::from_secs(5), SimTime::from_secs(6));
        b.finish_invocation();
        // Frequencies: a=1 (created) ... begin_invocation on the container does
        // not bump policy frequency by itself; both are tied at 1 → older b first.
        lfu.on_finish(&a, SimTime::from_secs(11));
        lfu.on_finish(&b, SimTime::from_secs(6));
        assert_eq!(lfu.pop_victim(), Some(ContainerId::from_raw(2)));
    }

    #[test]
    fn prewarm_gets_no_credit() {
        let mut lfu = Lfu::new();
        let c = container(1, 2);
        lfu.on_container_created(&c, SimTime::ZERO, true);
        assert_eq!(lfu.frequency(c.function()), 0);
    }

    #[test]
    fn incremental_pop_tracks_sibling_frequency_growth() {
        let mut lfu = Lfu::new();
        // Two containers of function 0, one of function 1.
        let a = container(1, 0);
        let b = container(2, 0);
        let c = container(3, 1);
        for x in [&a, &b, &c] {
            lfu.on_container_created(x, SimTime::ZERO, false);
        }
        // All idle; function 0 at freq 2, function 1 at freq 1.
        for x in [&a, &b, &c] {
            lfu.on_finish(x, SimTime::ZERO);
        }
        // A warm start on `a` bumps function 0 to 3 *after* `b` was
        // indexed at freq 2: the heap must re-rank `b` behind `c`.
        lfu.on_warm_start(&a, SimTime::from_secs(1));
        assert_eq!(lfu.pop_victim(), Some(ContainerId::from_raw(3)));
        assert_eq!(lfu.pop_victim(), Some(ContainerId::from_raw(2)));
        assert_eq!(lfu.pop_victim(), None);
    }
}
