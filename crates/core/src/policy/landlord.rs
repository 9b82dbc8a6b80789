//! The Landlord online caching algorithm as a keep-alive policy (paper
//! §4.2, Young 2002).
//!
//! Each resident container holds a *credit*. When space must be freed, a
//! "rent" proportional to each container's size is charged: the rent rate
//! is `min(credit / size)` over all idle containers, so at least one
//! credit reaches zero per round. Zero-credit containers are evicted. On a
//! warm hit a container's credit is restored to its cost (we use the
//! initialization overhead, matching Greedy-Dual's `Cost`).
//!
//! Unlike GDSF — where priorities decay only through the global clock
//! captured at use time — Landlord's rent decrement "is computed based on
//! the state of all the cached containers, and not independently applied."

use crate::container::{Container, ContainerId};
use crate::policy::index::{Resident, TotalF64};
use crate::policy::KeepAlivePolicy;
use faascache_util::SimTime;

/// What the policy keeps per resident container.
#[derive(Debug, Clone, Copy)]
pub(super) struct Tenancy {
    /// Credit as of the last use.
    credit: f64,
    /// Size (MB, ≥ 1), for effective-credit recovery.
    size: f64,
    /// The key the container was last released at; read only while it is
    /// idle.
    key: TotalF64,
}

impl Tenancy {
    /// A tenancy at full credit (the cost), never released.
    fn new(container: &Container) -> Self {
        Tenancy {
            credit: Landlord::cost(container),
            size: Landlord::size_of(container),
            key: TotalF64(0.0),
        }
    }
}

/// The Landlord keep-alive policy (`LND` in the paper's figures).
///
/// Uses the classic *offset* formulation of the algorithm (often written
/// `L` in analyses of Landlord/GreedyDual): instead of decrementing every
/// idle container's credit on each rent round, a global cumulative
/// rent-per-MB `offset` is advanced and each idle container stores the
/// constant key
///
/// ```text
/// key = offset_at_release + credit / size
/// ```
///
/// The container with the smallest key is the next to run out of credit.
/// Popping it advances `offset` to its key — implicitly charging every
/// survivor the same rent — and a survivor's effective credit can be
/// recovered as `(key - offset) * size`, clamped at zero.
///
/// Rent rounds subtract `delta * size` from each credit, i.e. they subtract
/// `delta` from each *ratio* `credit / size`; the ordering of ratios is
/// therefore invariant under rent, which is what makes the constant-key
/// encoding exact. Exact floating-point equality with the iterative rounds
/// (the differential suite's reference) holds when `cost / size` is exactly
/// representable (e.g. power-of-two sizes); otherwise the two accumulate
/// rounding differently on the order of machine epsilon.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{KeepAlivePolicy, Landlord};
/// assert_eq!(Landlord::new().name(), "LND");
/// ```
#[derive(Debug, Default)]
pub struct Landlord {
    /// Every resident container, ordered by `(key, last_used, id)` —
    /// matching the rent rounds' `(used, id)` order within a zero-credit
    /// group. A warm start restores the credit to the cost and the offset
    /// only advances, so the key a container is released at is never below
    /// the one its heap entry is stored under (see
    /// [`crate::policy::index`]).
    pub(super) tenancies: Resident<Tenancy, TotalF64>,
    /// Cumulative rent charged per MB so far.
    offset: f64,
}

impl Landlord {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current credit of a container (None if unknown).
    ///
    /// For an idle container this is the *effective* credit
    /// `(key - offset) * size`, which already accounts for all rent
    /// charged since the container went idle.
    ///
    /// A *running* container reports the credit its warm start restored:
    /// no rent is charged to it, whatever its heap entry is stored under.
    pub fn credit(&self, id: ContainerId) -> Option<f64> {
        let tenancy = self.tenancies.get(id)?;
        Some(if self.tenancies.is_idle(id) {
            ((tenancy.key.0 - self.offset) * tenancy.size).max(0.0)
        } else {
            tenancy.credit
        })
    }

    fn cost(container: &Container) -> f64 {
        // Guard against zero-cost functions: every container retains a
        // minimal credit so rent rounds terminate sensibly.
        container.init_overhead().as_secs_f64().max(1e-9)
    }

    fn size_of(container: &Container) -> f64 {
        container.mem().as_mb().max(1) as f64
    }

    /// The container is idle: files it at its credit over the rent charged
    /// so far.
    fn file(&mut self, container: &Container) {
        let offset = self.offset;
        self.tenancies.file(
            container.id(),
            container.last_used(),
            || Tenancy::new(container),
            |tenancy| {
                let key = TotalF64(offset + tenancy.credit / tenancy.size);
                let fell = key < tenancy.key;
                tenancy.key = key;
                fell
            },
            |tenancy| tenancy.key,
        );
    }
}

impl KeepAlivePolicy for Landlord {
    fn name(&self) -> &'static str {
        "LND"
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        // Credit refresh: Landlord permits any value in [current, cost];
        // taking the maximum (the cost) is the standard instantiation.
        // Running again, the container is out of the eviction order.
        self.tenancies
            .running(container.id(), || Tenancy::new(container))
            .credit = Self::cost(container);
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
        if prewarm {
            self.file(container);
        } else {
            self.tenancies
                .running(container.id(), || Tenancy::new(container));
        }
    }

    fn on_finish(&mut self, container: &Container, _now: SimTime) {
        self.file(container);
    }

    fn on_evicted(&mut self, container: &Container, _remaining: usize, _now: SimTime) {
        // Forgetting the tenancy also retires its heap entry, if any.
        self.tenancies.forget(container.id());
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        let id = self.tenancies.pop(|tenancy| tenancy.key)?;
        let key = self.tenancies.get(id).expect("popped a resident").key;
        // Advancing the offset to the popped key implicitly charges every
        // surviving idle container the rent that drove this victim's
        // credit to zero.
        if key.0 > self.offset {
            self.offset = key.0;
        }
        Some(id)
    }

    fn priority_of(&self, container: &Container) -> Option<f64> {
        self.credit(container.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionId;
    use faascache_util::{MemMb, SimDuration};

    fn container(id: u64, mem: u64, init_secs: u64) -> Container {
        Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(id as u32),
            MemMb::new(mem),
            SimDuration::ZERO,
            SimDuration::from_secs(init_secs),
            SimTime::ZERO,
        )
    }

    #[test]
    fn initial_credit_is_cost() {
        let mut lnd = Landlord::new();
        let c = container(1, 100, 5);
        lnd.on_container_created(&c, SimTime::ZERO, false);
        assert!((lnd.credit(c.id()).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn warm_hit_refreshes_credit() {
        let mut lnd = Landlord::new();
        let a = container(1, 100, 5);
        let b = container(2, 100, 5);
        lnd.on_container_created(&a, SimTime::ZERO, false);
        lnd.on_container_created(&b, SimTime::ZERO, false);
        lnd.on_finish(&a, SimTime::ZERO);
        lnd.on_finish(&b, SimTime::ZERO);
        // Charge rent by evicting someone else's worth of memory.
        let victim = lnd.pop_victim().unwrap();
        let (victim, survivor) = if victim == a.id() { (&a, &b) } else { (&b, &a) };
        lnd.on_evicted(victim, 0, SimTime::ZERO);
        let drained = lnd.credit(survivor.id()).unwrap();
        assert!(drained < 5.0);
        lnd.on_warm_start(survivor, SimTime::from_secs(1));
        assert!((lnd.credit(survivor.id()).unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rent_evicts_lowest_credit_per_size() {
        let mut lnd = Landlord::new();
        // Same size, different costs: the cheap one runs out of credit first.
        let cheap = container(1, 100, 1);
        let dear = container(2, 100, 10);
        lnd.on_container_created(&cheap, SimTime::ZERO, false);
        lnd.on_container_created(&dear, SimTime::ZERO, false);
        lnd.on_finish(&dear, SimTime::ZERO);
        lnd.on_finish(&cheap, SimTime::ZERO);
        assert_eq!(lnd.pop_victim(), Some(ContainerId::from_raw(1)));
        lnd.on_evicted(&cheap, 0, SimTime::ZERO);
        // Survivor paid rent: 10 - (1/100)*100 = 9.
        assert!((lnd.credit(dear.id()).unwrap() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn rent_favors_small_containers_at_equal_cost() {
        let mut lnd = Landlord::new();
        let small = container(1, 64, 4);
        let big = container(2, 1024, 4);
        lnd.on_container_created(&small, SimTime::ZERO, false);
        lnd.on_container_created(&big, SimTime::ZERO, false);
        // Rent rate = min(4/64, 4/1024) = 4/1024; big hits zero first.
        lnd.on_finish(&small, SimTime::ZERO);
        lnd.on_finish(&big, SimTime::ZERO);
        assert_eq!(lnd.pop_victim(), Some(ContainerId::from_raw(2)));
    }

    #[test]
    fn multiple_rounds_until_enough_freed() {
        let mut lnd = Landlord::new();
        let a = container(1, 100, 1);
        let b = container(2, 100, 2);
        let c = container(3, 100, 30);
        for x in [&a, &b, &c] {
            lnd.on_container_created(x, SimTime::ZERO, false);
        }
        for x in [&a, &b, &c] {
            lnd.on_finish(x, SimTime::ZERO);
        }
        // Freeing 200 MB takes two rounds of rent: 1/100, then 1/100 more.
        for x in [&a, &b] {
            assert_eq!(lnd.pop_victim(), Some(x.id()));
            lnd.on_evicted(x, 0, SimTime::ZERO);
        }
        assert!((lnd.credit(c.id()).unwrap() - 28.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_pop_charges_rent_via_offset() {
        let mut lnd = Landlord::new();
        let cheap = container(1, 100, 1);
        let dear = container(2, 100, 10);
        lnd.on_container_created(&cheap, SimTime::ZERO, false);
        lnd.on_container_created(&dear, SimTime::ZERO, false);
        lnd.on_finish(&cheap, SimTime::ZERO);
        lnd.on_finish(&dear, SimTime::ZERO);
        assert_eq!(lnd.pop_victim(), Some(cheap.id()));
        // Survivor's effective credit: 10 - (1/100)*100 = 9, exactly as
        // an iterative rent round computes.
        assert!((lnd.credit(dear.id()).unwrap() - 9.0).abs() < 1e-9);
        assert_eq!(lnd.pop_victim(), Some(dear.id()));
        assert_eq!(lnd.pop_victim(), None);
    }

    #[test]
    fn incremental_rent_is_per_size() {
        let mut lnd = Landlord::new();
        let small = container(1, 64, 4);
        let big = container(2, 1024, 4);
        lnd.on_container_created(&small, SimTime::ZERO, false);
        lnd.on_container_created(&big, SimTime::ZERO, false);
        lnd.on_finish(&small, SimTime::ZERO);
        lnd.on_finish(&big, SimTime::ZERO);
        // Rates to zero: 4/64 vs 4/1024 — the big container drains first.
        assert_eq!(lnd.pop_victim(), Some(big.id()));
        // Small's effective credit: 4 - (4/1024)*64 = 3.75.
        assert!((lnd.credit(small.id()).unwrap() - 3.75).abs() < 1e-12);
    }

    #[test]
    fn warm_start_leaves_eviction_order() {
        let mut lnd = Landlord::new();
        let a = container(1, 100, 1);
        let b = container(2, 100, 10);
        lnd.on_container_created(&a, SimTime::ZERO, false);
        lnd.on_container_created(&b, SimTime::ZERO, false);
        lnd.on_finish(&a, SimTime::ZERO);
        lnd.on_finish(&b, SimTime::ZERO);
        lnd.on_warm_start(&a, SimTime::from_secs(1));
        // `a` is busy again: only `b` is poppable, although both have an
        // entry in the heap.
        assert_eq!(lnd.pop_victim(), Some(b.id()));
        assert_eq!(lnd.pop_victim(), None);
    }

    #[test]
    fn running_tenancy_reports_its_refreshed_credit() {
        let mut lnd = Landlord::new();
        let a = container(1, 100, 5);
        let cheap = container(2, 100, 1);
        let dear = container(3, 100, 10);
        for x in [&a, &cheap, &dear] {
            lnd.on_container_created(x, SimTime::ZERO, false);
            lnd.on_finish(x, SimTime::ZERO);
        }
        // Idle, `a` pays the rent that evicts `cheap`: 5 - (1/100)*100.
        assert_eq!(lnd.pop_victim(), Some(cheap.id()));
        lnd.on_evicted(&cheap, 0, SimTime::ZERO);
        assert!((lnd.credit(a.id()).unwrap() - 4.0).abs() < 1e-9);
        // A warm start restores the credit. The heap entry stays, stored
        // under the old key, and must not be what the credit is read from.
        lnd.on_warm_start(&a, SimTime::from_secs(1));
        assert_eq!(lnd.tenancies.heap_len(), 2);
        assert_eq!(lnd.credit(a.id()), Some(5.0));
        assert_eq!(lnd.priority_of(&a), Some(5.0));
        // An eviction elsewhere advances the offset past that key (the
        // stale entry surfaces and is dropped); a running container pays
        // no rent.
        assert_eq!(lnd.pop_victim(), Some(dear.id()));
        lnd.on_evicted(&dear, 0, SimTime::from_secs(2));
        assert_eq!(lnd.tenancies.heap_len(), 0);
        assert_eq!(lnd.credit(a.id()), Some(5.0));
        // Released at full credit over the advanced offset.
        lnd.on_finish(&a, SimTime::from_secs(3));
        assert!((lnd.credit(a.id()).unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(lnd.pop_victim(), Some(a.id()));
    }

    #[test]
    fn eviction_clears_credit() {
        let mut lnd = Landlord::new();
        let c = container(1, 100, 5);
        lnd.on_container_created(&c, SimTime::ZERO, false);
        lnd.on_evicted(&c, 0, SimTime::ZERO);
        assert!(lnd.credit(c.id()).is_none());
    }
}
