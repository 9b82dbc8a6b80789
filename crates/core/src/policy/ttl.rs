//! Constant time-to-live keep-alive — the OpenWhisk default the paper
//! compares against (`TTL`).
//!
//! Every idle container expires a fixed interval after its last use
//! (OpenWhisk uses 10 minutes). This policy is *not* resource-conserving:
//! it terminates containers even when memory is free. When the server is
//! full, it evicts in LRU order (paper §7.1: "When the server is full,
//! this TTL policy evicts containers in an LRU order").

use crate::container::{Container, ContainerId};
use crate::policy::index::{grows, Resident};
use crate::policy::KeepAlivePolicy;
use faascache_util::{SimDuration, SimTime};

/// Fixed-TTL keep-alive policy with LRU eviction under memory pressure.
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
    /// Idle containers by `last_used`. One order serves both duties: its
    /// head is the LRU eviction victim *and* the first container to
    /// expire.
    pub(super) order: Resident<(), ()>,
}

impl Ttl {
    /// Creates a policy with the given time-to-live.
    pub fn new(ttl: SimDuration) -> Self {
        Ttl {
            ttl,
            order: Resident::new(),
        }
    }

    /// The 10-minute default used by OpenWhisk.
    pub fn open_whisk_default() -> Self {
        Ttl::new(SimDuration::from_mins(10))
    }

    /// The configured time-to-live.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    fn file(&mut self, container: &Container) {
        self.order
            .file(container.id(), container.last_used(), || (), grows, |_| ());
    }
}

impl KeepAlivePolicy for Ttl {
    fn name(&self) -> &'static str {
        "TTL"
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
        self.order.pop(|_| ())
    }

    fn pop_expired(&mut self, now: SimTime) -> Option<ContainerId> {
        let ttl = self.ttl;
        self.order
            .pop_if(|_| (), |_, last_used| now.since(last_used) >= ttl)
    }

    fn priority_of(&self, container: &Container) -> Option<f64> {
        Some(container.last_used().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionId;
    use faascache_util::MemMb;

    fn container_used_at(id: u64, used_secs: u64) -> Container {
        let mut c = Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(id as u32),
            MemMb::new(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            SimTime::ZERO,
        );
        c.begin_invocation(
            SimTime::from_secs(used_secs),
            SimTime::from_secs(used_secs + 1),
        );
        c.finish_invocation();
        c
    }

    /// Everything the policy reports lapsed at `now`, in ascending id order
    /// (the order the pool terminates it in).
    fn lapsed_at(ttl: &mut Ttl, now: SimTime) -> Vec<ContainerId> {
        let mut lapsed: Vec<ContainerId> = std::iter::from_fn(|| ttl.pop_expired(now)).collect();
        lapsed.sort();
        lapsed
    }

    #[test]
    fn expires_after_ttl() {
        let mut ttl = Ttl::open_whisk_default();
        let c = container_used_at(1, 0);
        ttl.on_finish(&c, c.last_used());
        assert!(lapsed_at(&mut ttl, SimTime::from_mins(9)).is_empty());
        assert_eq!(
            lapsed_at(&mut ttl, SimTime::from_mins(10)),
            vec![ContainerId::from_raw(1)]
        );
    }

    #[test]
    fn expiry_measured_from_last_use() {
        let mut ttl = Ttl::new(SimDuration::from_mins(5));
        let c = container_used_at(1, 600); // last used at t=10min
        ttl.on_finish(&c, c.last_used());
        assert!(lapsed_at(&mut ttl, SimTime::from_mins(14)).is_empty());
        assert_eq!(lapsed_at(&mut ttl, SimTime::from_mins(15)).len(), 1);
    }

    #[test]
    fn full_server_evicts_lru() {
        let mut ttl = Ttl::open_whisk_default();
        let old = container_used_at(1, 5);
        let newer = container_used_at(2, 500);
        ttl.on_finish(&newer, newer.last_used());
        ttl.on_finish(&old, old.last_used());
        assert_eq!(ttl.pop_victim(), Some(ContainerId::from_raw(1)));
    }

    #[test]
    fn multiple_expired_at_once() {
        let mut ttl = Ttl::new(SimDuration::from_secs(60));
        let a = container_used_at(1, 0);
        let b = container_used_at(2, 10);
        let c = container_used_at(3, 1000);
        for x in [&c, &b, &a] {
            ttl.on_finish(x, x.last_used());
        }
        assert_eq!(
            lapsed_at(&mut ttl, SimTime::from_secs(120)),
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
