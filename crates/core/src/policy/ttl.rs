//! Constant time-to-live keep-alive — the OpenWhisk default the paper
//! compares against (`TTL`).
//!
//! Every idle container expires a fixed interval after its last use
//! (OpenWhisk uses 10 minutes). This policy is *not* resource-conserving:
//! it terminates containers even when memory is free. When the server is
//! full, it evicts in LRU order (paper §7.1: "When the server is full,
//! this TTL policy evicts containers in an LRU order").

use crate::container::{Container, ContainerId};
use crate::policy::index::OrderedIdleSet;
use crate::policy::{take_until_freed, KeepAlivePolicy};
use faascache_util::{MemMb, SimDuration, SimTime};

/// Fixed-TTL keep-alive policy with LRU eviction under memory pressure.
///
/// One incremental index keyed by `last_used` serves both duties: its head
/// is the LRU eviction victim *and* the first container to expire.
/// [`Ttl::naive`] retains the seed scan-based path as a reference.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{KeepAlivePolicy, Ttl};
/// use faascache_util::SimDuration;
/// let ow = Ttl::open_whisk_default();
/// assert_eq!(ow.ttl(), SimDuration::from_mins(10));
/// assert_eq!(ow.name(), "TTL");
/// ```
#[derive(Debug)]
pub struct Ttl {
    ttl: SimDuration,
    index: Option<OrderedIdleSet<SimTime>>,
}

impl Ttl {
    /// Creates a policy with the given time-to-live (incremental index).
    pub fn new(ttl: SimDuration) -> Self {
        Ttl {
            ttl,
            index: Some(OrderedIdleSet::new()),
        }
    }

    /// Creates a policy with the naive scan-based eviction/expiry path.
    pub fn naive(ttl: SimDuration) -> Self {
        Ttl { ttl, index: None }
    }

    /// The 10-minute default used by OpenWhisk.
    pub fn open_whisk_default() -> Self {
        Ttl::new(SimDuration::from_mins(10))
    }

    /// The configured time-to-live.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }
}

impl KeepAlivePolicy for Ttl {
    fn name(&self) -> &'static str {
        "TTL"
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        if let Some(index) = self.index.as_mut() {
            index.mark_busy(container.id());
        }
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
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

    fn expired(&mut self, idle: &[&Container], now: SimTime) -> Vec<ContainerId> {
        idle.iter()
            .filter(|c| now.since(c.last_used()) >= self.ttl)
            .map(|c| c.id())
            .collect()
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

    fn pop_expired(&mut self, now: SimTime) -> Option<ContainerId> {
        let index = self.index.as_mut()?;
        let (last_used, _, id) = index.first()?;
        if now.since(last_used) >= self.ttl {
            index.pop_first();
            Some(id)
        } else {
            None
        }
    }

    fn priority_of(&self, container: &Container) -> Option<f64> {
        Some(container.last_used().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionId;

    impl Ttl {
        /// Heap entries held, stale ones included.
        pub(crate) fn heap_len(&self) -> usize {
            self.index.as_ref().map_or(0, OrderedIdleSet::heap_len)
        }
    }

    fn container_used_at(id: u64, used_secs: u64) -> Container {
        let mut c = Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(id as u32),
            MemMb::new(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            None,
            SimTime::ZERO,
        );
        c.begin_invocation(
            SimTime::from_secs(used_secs),
            SimTime::from_secs(used_secs + 1),
        );
        c.finish_invocation();
        c
    }

    #[test]
    fn expires_after_ttl() {
        let mut ttl = Ttl::open_whisk_default();
        let c = container_used_at(1, 0);
        assert!(ttl.expired(&[&c], SimTime::from_mins(9)).is_empty());
        let expired = ttl.expired(&[&c], SimTime::from_mins(10));
        assert_eq!(expired, vec![ContainerId::from_raw(1)]);
    }

    #[test]
    fn expiry_measured_from_last_use() {
        let mut ttl = Ttl::new(SimDuration::from_mins(5));
        let c = container_used_at(1, 600); // last used at t=10min
        assert!(ttl.expired(&[&c], SimTime::from_mins(14)).is_empty());
        assert_eq!(ttl.expired(&[&c], SimTime::from_mins(15)).len(), 1);
    }

    #[test]
    fn full_server_evicts_lru() {
        let mut ttl = Ttl::open_whisk_default();
        let old = container_used_at(1, 5);
        let newer = container_used_at(2, 500);
        let victims = ttl.select_victims(&[&newer, &old], MemMb::new(100));
        assert_eq!(victims, vec![ContainerId::from_raw(1)]);
    }

    #[test]
    fn multiple_expired_at_once() {
        let mut ttl = Ttl::new(SimDuration::from_secs(60));
        let a = container_used_at(1, 0);
        let b = container_used_at(2, 10);
        let c = container_used_at(3, 1000);
        let mut expired = ttl.expired(&[&a, &b, &c], SimTime::from_secs(120));
        expired.sort();
        assert_eq!(
            expired,
            vec![ContainerId::from_raw(1), ContainerId::from_raw(2)]
        );
    }

    #[test]
    fn incremental_pop_expired_drains_lapsed_only() {
        let mut ttl = Ttl::new(SimDuration::from_secs(60));
        let a = container_used_at(1, 0);
        let b = container_used_at(2, 10);
        let c = container_used_at(3, 1000);
        for x in [&a, &b, &c] {
            ttl.on_finish(x, x.last_used());
        }
        assert!(ttl.pop_expired(SimTime::from_secs(59)).is_none());
        assert_eq!(ttl.pop_expired(SimTime::from_secs(120)), Some(a.id()));
        assert_eq!(ttl.pop_expired(SimTime::from_secs(120)), Some(b.id()));
        assert!(ttl.pop_expired(SimTime::from_secs(120)).is_none());
        // The survivor is still the eviction victim under pressure.
        assert_eq!(ttl.pop_victim(), Some(c.id()));
    }
}
