//! Keep-alive policies: cache eviction algorithms adapted to function
//! keep-alive (paper §4).
//!
//! A policy observes the life of every container (creation, warm hits,
//! completion, eviction) and answers three questions for the pool:
//!
//! 1. **Eviction** — [`KeepAlivePolicy::pop_victim`]: which idle container
//!    to terminate next when a new container needs memory.
//! 2. **Expiry** — [`KeepAlivePolicy::pop_expired`]: which idle containers
//!    have outlived their keep-alive lease. Resource-conserving policies
//!    (the Greedy-Dual family) never expire containers; TTL-style policies
//!    (OpenWhisk default, HIST) do.
//! 3. **Prefetch** — [`KeepAlivePolicy::prewarm_due`]: which functions to
//!    warm up ahead of a predicted invocation (only HIST).
//!
//! Each of the seven policies is a per-container record, a key function
//! and its side state over one [`index::Resident`] table, which owns the
//! eviction order.

use crate::container::{Container, ContainerId};
use crate::function::{FunctionId, FunctionSpec};
use faascache_util::SimTime;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod greedy_dual;
mod hist;
pub mod index;
mod landlord;
mod lfu;
mod lru;
mod size_aware;
mod ttl;

pub use greedy_dual::GreedyDual;
pub use hist::{Hist, HistConfig};
pub use index::{Resident, TotalF64};
pub use landlord::Landlord;
pub use lfu::Lfu;
pub use lru::Lru;
pub use size_aware::SizeAware;
pub use ttl::Ttl;

/// A keep-alive policy: decides which warm containers to keep, evict,
/// expire, or prefetch.
///
/// Implementations are driven by a [`crate::pool::ContainerPool`]; all
/// hooks are infallible and must be cheap — the pool calls them on the
/// invocation fast path.
pub trait KeepAlivePolicy: fmt::Debug + Send {
    /// Short, stable policy name (e.g. `"GD"`, `"TTL"`).
    fn name(&self) -> &'static str;

    /// A request for `spec` arrived, before hit/miss resolution.
    ///
    /// Sequencing contract: if the function has an idle container, the
    /// pool calls [`Self::on_warm_start`] on its most recently used one
    /// (greatest `(last_used, id)`) immediately after, before any other
    /// hook or query. A policy that refreshes per-container state here may
    /// therefore skip that container.
    fn on_request(&mut self, spec: &FunctionSpec, now: SimTime) {
        let _ = (spec, now);
    }

    /// The invocation was served warm by `container`.
    fn on_warm_start(&mut self, container: &Container, now: SimTime);

    /// A new container was created; `prewarm` is true when it was created
    /// speculatively (prefetch) rather than for an in-flight request.
    fn on_container_created(&mut self, container: &Container, now: SimTime, prewarm: bool);

    /// The container finished its invocation and is idle again.
    fn on_finish(&mut self, container: &Container, now: SimTime) {
        let _ = (container, now);
    }

    /// Removes and returns the next eviction victim — `None` when no idle
    /// container remains or the policy declines to free more. The pool
    /// calls this until enough memory is free, and reports each victim it
    /// terminates through [`Self::on_evicted`] before asking again.
    ///
    /// # Victim tie-break contract
    ///
    /// Victims come in ascending policy priority, ties broken by ascending
    /// `last_used` and finally by ascending [`ContainerId`] (equal priority
    /// and recency ⇒ the lower id is evicted first). Simulations are only
    /// reproducible when every implementation honours this order.
    ///
    /// The default is a policy that never evicts.
    fn pop_victim(&mut self) -> Option<ContainerId> {
        None
    }

    /// Removes and returns one idle container whose keep-alive lease has
    /// lapsed at `now`, in any order: the pool drains this and terminates
    /// the result set in ascending-id order.
    ///
    /// The default (resource-conserving policies) never expires anything.
    fn pop_expired(&mut self, now: SimTime) -> Option<ContainerId> {
        let _ = now;
        None
    }

    /// The pool evicted `container`. `remaining_of_function` is how many
    /// containers of the same function are still resident (the Greedy-Dual
    /// family resets a function's frequency when it reaches zero).
    fn on_evicted(&mut self, container: &Container, remaining_of_function: usize, now: SimTime);

    /// Functions that should be prewarmed at `now` (prefetching policies).
    fn prewarm_due(&mut self, now: SimTime) -> Vec<FunctionId> {
        let _ = now;
        Vec::new()
    }

    /// The policy's current eviction priority for `container`, if the
    /// policy is priority-based (introspection for tests and debugging;
    /// *lower* priority is evicted first).
    fn priority_of(&self, container: &Container) -> Option<f64> {
        let _ = container;
        None
    }

    /// Installs shared per-tenant eviction weights (see [`TenantWeights`]).
    ///
    /// Weight-aware policies (Greedy-Dual) divide a container's value term
    /// by its tenant's weight, so containers of over-budget tenants sort
    /// earlier in eviction order. The default is a no-op: most policies are
    /// tenant-blind, and a pool without quotas never raises a weight.
    fn set_tenant_weights(&mut self, weights: Arc<TenantWeights>) {
        let _ = weights;
    }
}

/// Shared, lock-free per-tenant eviction weight table.
///
/// Slot `t` holds the weight for raw tenant index `t` as `f64` bits in an
/// atomic; tenants beyond the table (or never set) weigh `1.0`. The quota
/// accounting layer raises a tenant's weight above `1.0` while it is over
/// its warm-memory budget, which *lowers* the Greedy-Dual value of that
/// tenant's containers (`value / weight`) and makes them preferred eviction
/// victims. Writers and readers race benignly: a stale weight only delays
/// the preference by one eviction.
#[derive(Debug)]
pub struct TenantWeights {
    slots: Vec<AtomicU64>,
    /// Bumped on every [`Self::set`]; weight-aware policies compare it
    /// against the generation they last keyed their eviction index under
    /// and re-key when it moved (a raised weight *lowers* keys, which lazy
    /// heaps cannot observe on their own).
    generation: AtomicU64,
}

impl TenantWeights {
    /// A table with `capacity` slots, all weighing `1.0`.
    pub fn new(capacity: usize) -> Self {
        TenantWeights {
            slots: (0..capacity)
                .map(|_| AtomicU64::new(1f64.to_bits()))
                .collect(),
            generation: AtomicU64::new(0),
        }
    }

    /// The current weight of raw tenant index `tenant` (`1.0` if unset or
    /// out of range). Always a finite value `>= 1.0`.
    pub fn get(&self, tenant: u32) -> f64 {
        match self.slots.get(tenant as usize) {
            Some(slot) => f64::from_bits(slot.load(Ordering::Relaxed)),
            None => 1.0,
        }
    }

    /// Sets the weight of raw tenant index `tenant`; values below `1.0` or
    /// non-finite are clamped to `1.0`. Out-of-range tenants are ignored.
    pub fn set(&self, tenant: u32, weight: f64) {
        let weight = if weight.is_finite() && weight > 1.0 {
            weight
        } else {
            1.0
        };
        if let Some(slot) = self.slots.get(tenant as usize) {
            slot.store(weight.to_bits(), Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Monotone counter of [`Self::set`] calls (see the field docs).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// The policies evaluated in the paper, with their figure labels.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::PolicyKind;
/// let policy = PolicyKind::GreedyDual.build();
/// assert_eq!(policy.name(), "GD");
/// assert_eq!("LND".parse::<PolicyKind>().unwrap(), PolicyKind::Landlord);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PolicyKind {
    /// Greedy-Dual-Size-Frequency (the paper's `GD`).
    GreedyDual,
    /// OpenWhisk-style constant TTL with LRU eviction when full (`TTL`).
    Ttl,
    /// Least-recently-used (`LRU`).
    Lru,
    /// Least-frequently-used (`FREQ`).
    Lfu,
    /// Largest-first size-aware eviction (`SIZE`).
    SizeAware,
    /// The Landlord online algorithm (`LND`).
    Landlord,
    /// Histogram-based TTL + prefetching of Shahrad et al. (`HIST`).
    Hist,
}

impl PolicyKind {
    /// All policy kinds in the order the paper's figure legends use.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::GreedyDual,
        PolicyKind::Ttl,
        PolicyKind::Lru,
        PolicyKind::Hist,
        PolicyKind::SizeAware,
        PolicyKind::Landlord,
        PolicyKind::Lfu,
    ];

    /// The figure label (`GD`, `TTL`, `LRU`, `HIST`, `SIZE`, `LND`, `FREQ`).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::GreedyDual => "GD",
            PolicyKind::Ttl => "TTL",
            PolicyKind::Lru => "LRU",
            PolicyKind::Lfu => "FREQ",
            PolicyKind::SizeAware => "SIZE",
            PolicyKind::Landlord => "LND",
            PolicyKind::Hist => "HIST",
        }
    }

    /// Instantiates the policy with its paper-default parameters.
    pub fn build(self) -> Box<dyn KeepAlivePolicy> {
        match self {
            PolicyKind::GreedyDual => Box::new(GreedyDual::new()),
            PolicyKind::Ttl => Box::new(Ttl::open_whisk_default()),
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Lfu => Box::new(Lfu::new()),
            PolicyKind::SizeAware => Box::new(SizeAware::new()),
            PolicyKind::Landlord => Box::new(Landlord::new()),
            PolicyKind::Hist => Box::new(Hist::new(HistConfig::default())),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Error returned when parsing an unknown policy label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    input: String,
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown policy {:?} (expected one of GD, TTL, LRU, FREQ, SIZE, LND, HIST)",
            self.input
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for PolicyKind {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "GD" | "GDSF" | "GREEDYDUAL" | "GREEDY-DUAL" => Ok(PolicyKind::GreedyDual),
            "TTL" => Ok(PolicyKind::Ttl),
            "LRU" => Ok(PolicyKind::Lru),
            "FREQ" | "LFU" => Ok(PolicyKind::Lfu),
            "SIZE" => Ok(PolicyKind::SizeAware),
            "LND" | "LANDLORD" => Ok(PolicyKind::Landlord),
            "HIST" | "HISTOGRAM" => Ok(PolicyKind::Hist),
            _ => Err(ParsePolicyError {
                input: s.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionRegistry;
    use crate::pool::{Acquire, ContainerPool};
    use faascache_util::{MemMb, SimDuration};
    use std::sync::{Mutex, MutexGuard};

    fn container(id: u64, mem: u64) -> Container {
        Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(id as u32),
            MemMb::new(mem),
            SimDuration::from_millis(100),
            SimDuration::from_millis(500),
            SimTime::ZERO,
        )
    }

    #[test]
    fn labels_round_trip() {
        for kind in PolicyKind::ALL {
            let parsed: PolicyKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
            assert_eq!(kind.to_string(), kind.label());
        }
    }

    #[test]
    fn parse_aliases_and_errors() {
        assert_eq!(
            "gdsf".parse::<PolicyKind>().unwrap(),
            PolicyKind::GreedyDual
        );
        assert_eq!("lfu".parse::<PolicyKind>().unwrap(), PolicyKind::Lfu);
        assert_eq!(
            "landlord".parse::<PolicyKind>().unwrap(),
            PolicyKind::Landlord
        );
        let err = "bogus".parse::<PolicyKind>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn build_yields_matching_names() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().name(), kind.label());
        }
    }

    /// The whole of a policy: a record per container (none here), a key
    /// function (none: `last_used` alone, i.e. LRU) and the hooks that tell
    /// the [`Resident`] table what happened.
    #[derive(Debug, Default)]
    struct PopOnly {
        order: Resident<(), ()>,
    }

    impl KeepAlivePolicy for PopOnly {
        fn name(&self) -> &'static str {
            "POP"
        }
        fn on_warm_start(&mut self, c: &Container, _now: SimTime) {
            self.order.mark_busy(c.id());
        }
        fn on_container_created(&mut self, c: &Container, _now: SimTime, prewarm: bool) {
            if prewarm {
                self.on_finish(c, c.last_used());
            }
        }
        fn on_finish(&mut self, c: &Container, _now: SimTime) {
            self.order
                .file(c.id(), c.last_used(), || (), index::grows, |_| ());
        }
        fn on_evicted(&mut self, c: &Container, _remaining: usize, _now: SimTime) {
            self.order.forget(c.id());
        }
        fn pop_victim(&mut self) -> Option<ContainerId> {
            self.order.pop(|_| ())
        }
    }

    /// A policy that implements `pop_victim` and nothing else of the
    /// eviction interface is complete (`lru::tests::takes_enough_to_cover_need`
    /// drives the same shape through the pool's loop).
    #[test]
    fn a_policy_is_complete_with_pop_victim_alone() {
        let mut policy = PopOnly::default();
        let mut containers = Vec::new();
        for (id, used) in [(1u64, 30u64), (2, 10), (3, 20)] {
            let mut c = container(id, 100);
            c.begin_invocation(SimTime::from_secs(used), SimTime::from_secs(used + 1));
            c.finish_invocation();
            policy.on_finish(&c, SimTime::from_secs(used + 1));
            containers.push(c);
        }
        assert!(policy.pop_expired(SimTime::from_mins(10_000)).is_none());
        assert_eq!(policy.pop_victim(), Some(ContainerId::from_raw(2)));
        assert_eq!(policy.pop_victim(), Some(ContainerId::from_raw(3)));
        assert_eq!(policy.pop_victim(), Some(ContainerId::from_raw(1)));
        assert_eq!(policy.pop_victim(), None);
    }

    /// A policy the test can still look into after the pool has boxed it.
    #[derive(Debug)]
    struct Shared<P>(Arc<Mutex<P>>);

    impl<P> Shared<P> {
        fn inner(&self) -> MutexGuard<'_, P> {
            self.0
                .lock()
                .expect("no test thread panics holding the policy")
        }
    }

    impl<P: KeepAlivePolicy> KeepAlivePolicy for Shared<P> {
        fn name(&self) -> &'static str {
            self.inner().name()
        }
        fn on_request(&mut self, spec: &FunctionSpec, now: SimTime) {
            self.inner().on_request(spec, now)
        }
        fn on_warm_start(&mut self, c: &Container, now: SimTime) {
            self.inner().on_warm_start(c, now)
        }
        fn on_container_created(&mut self, c: &Container, now: SimTime, prewarm: bool) {
            self.inner().on_container_created(c, now, prewarm)
        }
        fn on_finish(&mut self, c: &Container, now: SimTime) {
            self.inner().on_finish(c, now)
        }
        fn pop_victim(&mut self) -> Option<ContainerId> {
            self.inner().pop_victim()
        }
        fn pop_expired(&mut self, now: SimTime) -> Option<ContainerId> {
            self.inner().pop_expired(now)
        }
        fn on_evicted(&mut self, c: &Container, remaining: usize, now: SimTime) {
            self.inner().on_evicted(c, remaining, now)
        }
        fn prewarm_due(&mut self, now: SimTime) -> Vec<FunctionId> {
            self.inner().prewarm_due(now)
        }
    }

    /// 100,000 cold start → evict cycles through a pool that holds at most
    /// eight containers: the pool's slab and the policy's table hold the
    /// cells of the containers resident at once, not one per id minted
    /// (the test a table indexed by the raw mint counter fails).
    #[test]
    fn churn_reuses_slots_in_the_pool_and_the_policy_table() {
        let policy = Arc::new(Mutex::new(Lru::new()));
        let mut pool = ContainerPool::new(MemMb::new(8), Box::new(Shared(Arc::clone(&policy))));
        let mut reg = FunctionRegistry::new();
        let specs: Vec<FunctionSpec> = (0..16)
            .map(|i| {
                let id = reg
                    .register(
                        format!("f{i}"),
                        MemMb::new(1),
                        SimDuration::from_millis(100),
                        SimDuration::from_millis(600),
                    )
                    .unwrap();
                reg.spec(id).clone()
            })
            .collect();
        let mut last = None;
        for cycle in 0..100_000u64 {
            // Sixteen functions round-robin over eight megabytes: the one
            // asked for is never among the eight resident.
            let now = SimTime::from_secs(cycle);
            let Acquire::Cold { container, .. } = pool.acquire(&specs[(cycle % 16) as usize], now)
            else {
                panic!("cycle {cycle}: every request is a cold start");
            };
            assert!(last < Some(container), "ids keep rising over reused slots");
            last = Some(container);
            pool.release(container, now + SimDuration::from_millis(600));
            assert!(pool.len() <= 8);
        }
        assert_eq!(pool.counters().cold_starts, 100_000);
        assert_eq!(pool.counters().evictions, 100_000 - 8);
        let policy_cells = policy.lock().unwrap().order.cells();
        assert!(
            pool.slab_cells() <= 9 && policy_cells <= 9,
            "{} and {policy_cells} cells for 8 resident containers",
            pool.slab_cells()
        );
    }

    /// Serves 100,000 warm cycles over 50 functions from a pool that never
    /// runs out of memory, so no eviction ever pops the heap, and checks
    /// the heap holds at most `bound(resident now, most ever resident)`
    /// entries at the end.
    ///
    /// Every function is invoked every five minutes like clockwork, half
    /// of them by two concurrent requests: under HIST they turn
    /// predictable, release early, pre-warm, and each request re-keys an
    /// idle sibling.
    fn heap_stays_bounded<P: KeepAlivePolicy + 'static>(
        policy: P,
        heap_len: fn(&P) -> usize,
        bound: fn(usize, usize) -> usize,
    ) {
        let policy = Arc::new(Mutex::new(policy));
        let mut pool =
            ContainerPool::new(MemMb::new(1 << 30), Box::new(Shared(Arc::clone(&policy))));
        let mut reg = FunctionRegistry::new();
        let specs: Vec<FunctionSpec> = (0..50)
            .map(|i| {
                let id = reg
                    .register(
                        format!("f{i}"),
                        MemMb::new(128),
                        SimDuration::from_millis(100),
                        SimDuration::from_millis(600),
                    )
                    .unwrap();
                reg.spec(id).clone()
            })
            .collect();
        let name = pool.policy().name();
        let mut peak_resident = 0;
        let mut cycles = 0u64;
        let mut tick = 0u64;
        while cycles < 100_000 {
            let spec = &specs[(tick % 50) as usize];
            // One arrival slot every 6 s; maintenance every 15 s.
            let now = SimTime::from_secs(tick * 6);
            if tick.is_multiple_of(5) {
                pool.reap(now);
                for f in pool.prewarm_due(now) {
                    pool.prewarm(reg.spec(f), now);
                }
            }
            let concurrent = 1 + (tick % 50) % 2;
            let serving: Vec<ContainerId> = (0..concurrent)
                .map(|_| match pool.acquire(spec, now) {
                    Acquire::Warm { container } | Acquire::Cold { container, .. } => container,
                    Acquire::NoCapacity => panic!("{name}: the pool is large enough"),
                })
                .collect();
            peak_resident = peak_resident.max(pool.containers().count());
            for id in serving {
                pool.release(id, now + SimDuration::from_secs(1));
                cycles += 1;
            }
            tick += 1;
        }
        let held = heap_len(&policy.lock().unwrap());
        let resident = pool.len();
        assert!(
            held <= bound(resident, peak_resident),
            "{name}: heap holds {held} entries for {resident} containers (at most {peak_resident})"
        );
        // Nobody got lost: every idle container is still evictable.
        let idle = pool.warm_count();
        let end = SimTime::from_secs(tick * 6);
        assert_eq!(pool.resize(MemMb::ZERO, end).len(), idle, "{name}");
    }

    #[test]
    fn warm_cycles_under_no_pressure_keep_every_policy_heap_bounded() {
        // A warm cycle leaves the heap alone: one entry per container, the
        // one its first release pushed.
        let one_each = |resident, _peak| resident;
        heap_stays_bounded(GreedyDual::new(), |p| p.resident.heap_len(), one_each);
        heap_stays_bounded(Ttl::open_whisk_default(), |p| p.order.heap_len(), one_each);
        heap_stays_bounded(Lru::new(), |p| p.order.heap_len(), one_each);
        heap_stays_bounded(Lfu::new(), |p| p.order.heap_len(), one_each);
        heap_stays_bounded(SizeAware::new(), |p| p.order.heap_len(), one_each);
        heap_stays_bounded(Landlord::new(), |p| p.tenancies.heap_len(), one_each);
        // HIST's victim key moves down with every hit, so every release
        // supersedes an entry; the table's stale-entry sweep bounds those.
        heap_stays_bounded(
            Hist::new(HistConfig::default()),
            |p| p.victims.heap_len().max(p.expiry.heap_len()),
            |_resident, peak| 2 * peak + 64 + 1,
        );
    }
}
