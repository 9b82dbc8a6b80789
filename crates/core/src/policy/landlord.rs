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
use crate::policy::index::{Probe, Seat, TotalF64, VictimHeap};
use crate::policy::KeepAlivePolicy;
use faascache_util::idmap::IdMap;
use faascache_util::{MemMb, SimTime};

/// Incremental eviction order for Landlord, using the classic *offset*
/// formulation of the algorithm (often written `L` in analyses of
/// Landlord/GreedyDual): instead of decrementing every idle container's
/// credit on each rent round, a global cumulative rent-per-MB `offset` is
/// advanced and each idle container stores the constant key
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
/// holds when `cost / size` is exactly representable (e.g. power-of-two
/// sizes); otherwise the two accumulate rounding differently on the order
/// of machine epsilon.
#[derive(Debug, Default)]
struct LandlordIndex {
    /// Containers by `(key, last_used, id)` — matching the naive path's
    /// `(used, id)` order within a zero-credit group. A warm start
    /// restores the credit to the cost and the offset only advances, so
    /// the key a container is released at is never below the one its heap
    /// entry is stored under (see [`crate::policy::index`]).
    order: VictimHeap<TotalF64>,
    /// Cumulative rent charged per MB so far.
    offset: f64,
}

/// What the policy keeps per resident container — its only table keyed by
/// [`ContainerId`].
#[derive(Debug, Clone, Copy)]
struct Tenancy {
    /// Credit as of the last use or the last committed naive rent round.
    credit: f64,
    /// Size (MB, ≥ 1), for effective-credit recovery.
    size: f64,
    /// The key and `last_used` the container was last released at; read
    /// only while it is idle under the incremental index.
    key: TotalF64,
    last_used: SimTime,
    /// Its standing in [`LandlordIndex::order`].
    seat: Seat,
}

impl Tenancy {
    /// A running tenancy at full credit (the cost), not filed.
    fn new(container: &Container) -> Self {
        Tenancy {
            credit: Landlord::cost(container),
            size: Landlord::size_of(container),
            key: TotalF64(0.0),
            last_used: container.last_used(),
            seat: Seat::running(),
        }
    }
}

/// The Landlord keep-alive policy (`LND` in the paper's figures).
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{KeepAlivePolicy, Landlord};
/// assert_eq!(Landlord::new().name(), "LND");
/// ```
#[derive(Debug)]
pub struct Landlord {
    tenancies: IdMap<ContainerId, Tenancy>,
    index: Option<LandlordIndex>,
}

impl Landlord {
    /// Creates the policy (incremental eviction index).
    pub fn new() -> Self {
        Landlord {
            tenancies: IdMap::default(),
            index: Some(LandlordIndex::default()),
        }
    }

    /// Creates the policy with the naive rent-round eviction path.
    pub fn naive() -> Self {
        Landlord {
            tenancies: IdMap::default(),
            index: None,
        }
    }

    /// Current credit of a container (None if unknown).
    ///
    /// For an idle container under the incremental index this is the
    /// *effective* credit `(key - offset) * size`, which already accounts
    /// for all rent charged since the container went idle.
    ///
    /// A *running* container reports the credit its warm start restored:
    /// no rent is charged to it, whatever its heap entry is stored under.
    pub fn credit(&self, id: ContainerId) -> Option<f64> {
        let tenancy = self.tenancies.get(&id)?;
        match self.index.as_ref() {
            Some(index) if !tenancy.seat.is_busy() => {
                Some(((tenancy.key.0 - index.offset) * tenancy.size).max(0.0))
            }
            _ => Some(tenancy.credit),
        }
    }

    fn cost(container: &Container) -> f64 {
        // Guard against zero-cost functions: every container retains a
        // minimal credit so rent rounds terminate sensibly.
        container.init_overhead().as_secs_f64().max(1e-9)
    }

    fn size_of(container: &Container) -> f64 {
        container.mem().as_mb().max(1) as f64
    }

    fn index_insert(&mut self, container: &Container) {
        let Some(index) = self.index.as_mut() else {
            return;
        };
        let tenancies = &mut self.tenancies;
        let id = container.id();
        let tenancy = tenancies
            .entry(id)
            .or_insert_with(|| Tenancy::new(container));
        let key = TotalF64(index.offset + tenancy.credit / tenancy.size);
        let last_used = container.last_used();
        let moved_down = (key, last_used) < (tenancy.key, tenancy.last_used);
        (tenancy.key, tenancy.last_used) = (key, last_used);
        if tenancy.seat.file(moved_down) {
            tenancy.seat.entered(index.order.push(id, key, last_used));
            index.order.shed_stale_with(tenancies.len(), |id, gen| {
                tenancies.get(&id).is_some_and(|t| t.seat.holds(gen))
            });
        }
    }

    /// The heap's minimum among the idle tenancies, popped or only peeked.
    fn next_victim(&mut self, pop: bool) -> Option<ContainerId> {
        let index = self.index.as_mut()?;
        let tenancies = &mut self.tenancies;
        let probe = |id: ContainerId, gen: u64| match tenancies.get_mut(&id) {
            Some(t) => t.seat.probe(gen, t.key, t.last_used),
            None => Probe::Gone,
        };
        if !pop {
            return index.order.peek_min_with(probe);
        }
        let id = index.order.pop_min_with(probe)?;
        let tenancy = tenancies.get_mut(&id).expect("popped a live member");
        tenancy.seat.take();
        let key = tenancy.key;
        // Advancing the offset to the popped key implicitly charges every
        // surviving idle container the rent that drove this victim's
        // credit to zero.
        if key.0 > index.offset {
            index.offset = key.0;
        }
        Some(id)
    }
}

impl Default for Landlord {
    fn default() -> Self {
        Self::new()
    }
}

impl KeepAlivePolicy for Landlord {
    fn name(&self) -> &'static str {
        "LND"
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        // Credit refresh: Landlord permits any value in [current, cost];
        // taking the maximum (the cost) is the standard instantiation.
        let tenancy = self
            .tenancies
            .entry(container.id())
            .or_insert_with(|| Tenancy::new(container));
        // Running again: out of the eviction order.
        tenancy.seat.mark_busy();
        tenancy.credit = Self::cost(container);
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
        self.tenancies
            .insert(container.id(), Tenancy::new(container));
        if prewarm {
            self.index_insert(container);
        }
    }

    fn on_finish(&mut self, container: &Container, _now: SimTime) {
        self.index_insert(container);
    }

    fn select_victims(&mut self, idle: &[&Container], needed: MemMb) -> Vec<ContainerId> {
        let mut victims = Vec::new();
        let mut freed = MemMb::ZERO;
        // Work on a local copy of the credits of the candidates; commit the
        // rent charges at the end so repeated calls are consistent.
        let mut local: Vec<(&&Container, f64)> = idle
            .iter()
            .map(|c| {
                let credit = self
                    .tenancies
                    .get(&c.id())
                    .map_or_else(|| Self::cost(c), |t| t.credit);
                (c, credit)
            })
            .collect();
        while freed < needed && victims.len() < local.len() {
            // Rent rate: the smallest credit/size among surviving candidates.
            let delta = local
                .iter()
                .filter(|(c, _)| !victims.contains(&c.id()))
                .map(|(c, credit)| credit / c.mem().as_mb().max(1) as f64)
                .fold(f64::INFINITY, f64::min);
            if !delta.is_finite() {
                break;
            }
            // Charge rent to every candidate; evict those that hit zero,
            // lowest first, until enough is freed.
            let mut newly_zero: Vec<(ContainerId, MemMb, SimTime)> = Vec::new();
            for (c, credit) in local.iter_mut() {
                if victims.contains(&c.id()) {
                    continue;
                }
                *credit -= delta * c.mem().as_mb().max(1) as f64;
                if *credit <= 1e-12 {
                    *credit = 0.0;
                    newly_zero.push((c.id(), c.mem(), c.last_used()));
                }
            }
            // Deterministic order: oldest last-use first.
            newly_zero.sort_by_key(|&(id, _, used)| (used, id));
            for (id, mem, _) in newly_zero {
                if freed >= needed {
                    break;
                }
                victims.push(id);
                freed += mem;
            }
        }
        // Commit the surviving candidates' reduced credits.
        for (c, credit) in local {
            if !victims.contains(&c.id()) {
                self.tenancies
                    .entry(c.id())
                    .or_insert_with(|| Tenancy::new(c))
                    .credit = credit;
            }
        }
        victims
    }

    fn on_evicted(&mut self, container: &Container, _remaining: usize, _now: SimTime) {
        // Forgetting the tenancy also retires its heap entry, if any.
        self.tenancies.remove(&container.id());
    }

    fn supports_incremental(&self) -> bool {
        self.index.is_some()
    }

    fn peek_victim(&mut self) -> Option<ContainerId> {
        self.next_victim(false)
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        self.next_victim(true)
    }

    fn priority_of(&self, container: &Container) -> Option<f64> {
        self.credit(container.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionId;
    use faascache_util::SimDuration;

    impl Landlord {
        /// Heap entries held, stale ones included.
        pub(crate) fn heap_len(&self) -> usize {
            self.index.as_ref().map_or(0, |index| index.order.len())
        }
    }

    fn container(id: u64, mem: u64, init_secs: u64) -> Container {
        Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(id as u32),
            MemMb::new(mem),
            SimDuration::ZERO,
            SimDuration::from_secs(init_secs),
            None,
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
        // Charge rent by evicting someone else's worth of memory.
        let victims = lnd.select_victims(&[&a, &b], MemMb::new(100));
        assert_eq!(victims.len(), 1);
        let survivor = if victims[0] == a.id() { &b } else { &a };
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
        let victims = lnd.select_victims(&[&cheap, &dear], MemMb::new(100));
        assert_eq!(victims, vec![ContainerId::from_raw(1)]);
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
        let victims = lnd.select_victims(&[&small, &big], MemMb::new(512));
        assert_eq!(victims, vec![ContainerId::from_raw(2)]);
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
        let victims = lnd.select_victims(&[&a, &b, &c], MemMb::new(200));
        assert_eq!(victims.len(), 2);
        assert!(!victims.contains(&ContainerId::from_raw(3)));
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
        assert_eq!(lnd.peek_victim(), Some(cheap.id()));
        assert_eq!(lnd.pop_victim(), Some(cheap.id()));
        // Survivor's effective credit: 10 - (1/100)*100 = 9, exactly as
        // the naive rent round computes.
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
        assert_eq!(lnd.heap_len(), 2);
        assert_eq!(lnd.credit(a.id()), Some(5.0));
        assert_eq!(lnd.priority_of(&a), Some(5.0));
        // An eviction elsewhere advances the offset past that key (the
        // stale entry surfaces and is dropped); a running container pays
        // no rent.
        assert_eq!(lnd.pop_victim(), Some(dear.id()));
        lnd.on_evicted(&dear, 0, SimTime::from_secs(2));
        assert_eq!(lnd.heap_len(), 0);
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
