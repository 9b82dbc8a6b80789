//! The keep-alive container pool — the "cache" in the paper's analogy.
//!
//! The pool owns every container on a server (warm and running), enforces
//! the memory capacity, and delegates eviction/expiry/prefetch decisions to
//! a [`KeepAlivePolicy`]. It mirrors the FaasCache modification to
//! OpenWhisk's `ContainerPool` (paper §6): the pool is *not* kept sorted by
//! priority — it is ranked only when an eviction is needed — and evictions
//! can be batched to a free-memory threshold (the paper's default is
//! 1000 MB) to keep the slow path off the invocation critical path.
//!
//! # Indexed hot path
//!
//! Both key types the pool looks things up by are dense integers it (or
//! the registry) mints itself, so nothing on the invocation path hashes:
//!
//! - `containers` is a `SlotTable`, a slab indexed by the slot half of
//!   the [`ContainerId`] (see [`crate::container`]): a lookup is an index
//!   and one id comparison, and each of `acquire`, `release` and an
//!   eviction looks its container up once. The pool mints an id from its
//!   sequence counter and a slot off its free list (the slot of the
//!   container that left most recently, else a fresh cell), so the slab —
//!   and every policy's table, indexed the same way — holds as many cells
//!   as containers were ever resident at once. With every slot let, a cold
//!   start is refused as [`Acquire::NoCapacity`], a prewarm or an adoption
//!   declined, like any other resource the server has run out of;
//! - per-function state lives in dense tables (`Vec`s, grown on demand,
//!   empty slot ≡ absent) indexed by [`FunctionId::index`]: the resident count, and the function's idle
//!   containers as a `Vec` sorted by `(last_used, id)` that keeps its
//!   capacity (most functions hold one to three), so the warm-path pick is
//!   `last()` and a warm cycle allocates nothing;
//! - running idle-count and idle-memory counters make
//!   `warm_mem`/`warm_count`/`warm_count_of`/`running_count` O(1). No
//!   id-ordered registry of idle containers is kept up to date; the one
//!   diagnostic view that wants one ([`ContainerPool::idle_ids`]) collects
//!   and sorts its own.
//!
//! Evictions, expiry sweeps and resizes pop victims from the policy one at
//! a time ([`KeepAlivePolicy::pop_victim`] / [`KeepAlivePolicy::pop_expired`]),
//! O(log n) each: nothing ever materializes or sorts the idle set.
//!
//! # Victim tie-break contract
//!
//! Victims leave the pool in the order `(policy priority ascending,
//! last_used ascending, ContainerId ascending)` — in particular, among
//! equally ranked idle containers the one with the **lowest id** is
//! evicted first. Every policy guarantees this by ordering its containers
//! on `(key, last_used, id)` (see [`crate::policy::index`]); the
//! differential suite (`tests/differential.rs`) holds each of them to a
//! brute-force scan for that minimum.

use crate::container::{Container, ContainerId, MAX_SLOTS};
use crate::fn_table::FnTable;
use crate::function::{FunctionId, FunctionSpec};
use crate::policy::KeepAlivePolicy;
use crate::slot_table::SlotTable;
use faascache_util::{MemMb, SimTime};
use std::sync::Arc;

/// Observer of per-tenant resident-memory changes.
///
/// Every change to the pool's resident memory flows through exactly four
/// sites — container insertion and adoption (`+mem`), idle extraction and
/// eviction (`−mem`) — and each notifies the ledger with the container's
/// tenant tag. A quota-accounting layer implements this to maintain exact
/// per-tenant warm-memory totals without mirroring any pool state, and
/// answers whether a tenant may grow by a pre-warm; the default ledger
/// does nothing and always says yes.
pub trait TenantLedger: std::fmt::Debug + Send + Sync {
    /// A container of raw tenant index `tenant` became resident with `mem`.
    fn container_added(&self, tenant: u32, mem: MemMb);
    /// A container of raw tenant index `tenant` left the pool, freeing
    /// `mem`.
    fn container_removed(&self, tenant: u32, mem: MemMb);
    /// Whether raw tenant index `tenant` is below its memory budget.
    /// [`ContainerPool::prewarm`] skips a tenant that is not.
    fn under_budget(&self, tenant: u32) -> bool;
}

/// The default ledger: ignores every notification, knows no budget.
#[derive(Debug)]
struct NoopLedger;

impl TenantLedger for NoopLedger {
    fn container_added(&self, _tenant: u32, _mem: MemMb) {}
    fn container_removed(&self, _tenant: u32, _mem: MemMb) {}
    fn under_budget(&self, _tenant: u32) -> bool {
        true
    }
}

/// Outcome of asking the pool to serve an invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Acquire {
    /// Served by an existing warm container — a cache hit.
    Warm {
        /// The serving container.
        container: ContainerId,
    },
    /// A new container was created — a cache miss (cold start).
    Cold {
        /// The new container.
        container: ContainerId,
        /// Containers terminated to make room.
        evicted: Vec<ContainerId>,
    },
    /// The server had insufficient memory even after evicting every idle
    /// container (or, with memory to spare, no container slot left): the
    /// request is dropped (or queued by the caller).
    NoCapacity,
}

impl Acquire {
    /// Whether the invocation was served warm.
    pub fn is_warm(&self) -> bool {
        matches!(self, Acquire::Warm { .. })
    }

    /// Whether the invocation triggered a cold start.
    pub fn is_cold(&self) -> bool {
        matches!(self, Acquire::Cold { .. })
    }
}

/// Pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Server memory available to containers.
    pub capacity: MemMb,
    /// Extra memory to free per eviction round (batching; paper default
    /// 1000 MB). Zero means evict exactly what is needed.
    pub eviction_batch: MemMb,
}

impl PoolConfig {
    /// A configuration with the given capacity and no eviction batching.
    pub fn new(capacity: MemMb) -> Self {
        PoolConfig {
            capacity,
            eviction_batch: MemMb::ZERO,
        }
    }

    /// Sets the eviction batch threshold.
    pub fn with_eviction_batch(mut self, batch: MemMb) -> Self {
        self.eviction_batch = batch;
        self
    }
}

/// What only the pool decides, counted over its lifetime.
///
/// An invocation's outcome (warm, cold or dropped) is not here: the
/// invoker around the pool (`faascache_sim::Invoker`) counts it, since
/// only the invoker knows whether a refused [`Acquire::NoCapacity`]
/// drops the request or leaves it waiting to be tried again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Containers terminated by policy eviction or expiry.
    pub evictions: u64,
    /// Containers created speculatively by prefetching.
    pub prewarms: u64,
}

/// The keep-alive container pool.
///
/// # Examples
///
/// ```
/// use faascache_core::function::FunctionRegistry;
/// use faascache_core::policy::Lru;
/// use faascache_core::pool::ContainerPool;
/// use faascache_util::{MemMb, SimDuration, SimTime};
///
/// let mut reg = FunctionRegistry::new();
/// let f = reg.register("f", MemMb::new(128), SimDuration::from_millis(5),
///                      SimDuration::from_millis(500))?;
/// let mut pool = ContainerPool::new(MemMb::new(256), Box::new(Lru::new()));
/// let outcome = pool.acquire(reg.spec(f), SimTime::ZERO);
/// assert!(outcome.is_cold());
/// # Ok::<(), faascache_core::CoreError>(())
/// ```
#[derive(Debug)]
pub struct ContainerPool {
    config: PoolConfig,
    policy: Box<dyn KeepAlivePolicy>,
    containers: SlotTable<Container>,
    /// Slots of `containers` whose container left, most recent last.
    free_slots: Vec<usize>,
    /// Resident (warm + running) containers per function.
    resident_of: FnTable<u32>,
    idle: IdleIndex,
    used: MemMb,
    /// Ids minted so far: the sequence half of the next one.
    minted: u64,
    counters: PoolCounters,
    ledger: Arc<dyn TenantLedger>,
}

impl ContainerPool {
    /// Creates a pool with the given capacity and policy (no batching).
    pub fn new(capacity: MemMb, policy: Box<dyn KeepAlivePolicy>) -> Self {
        Self::with_config(PoolConfig::new(capacity), policy)
    }

    /// Creates a pool from a full configuration.
    pub fn with_config(config: PoolConfig, policy: Box<dyn KeepAlivePolicy>) -> Self {
        Self::with_config_and_ledger(config, policy, Arc::new(NoopLedger))
    }

    /// Creates a pool that reports per-tenant resident-memory changes to
    /// `ledger` (see [`TenantLedger`]).
    pub fn with_config_and_ledger(
        config: PoolConfig,
        policy: Box<dyn KeepAlivePolicy>,
        ledger: Arc<dyn TenantLedger>,
    ) -> Self {
        ContainerPool {
            config,
            policy,
            containers: SlotTable::default(),
            free_slots: Vec::new(),
            resident_of: FnTable::default(),
            idle: IdleIndex::default(),
            used: MemMb::ZERO,
            minted: 0,
            counters: PoolCounters::default(),
            ledger,
        }
    }

    /// Server memory capacity.
    pub fn capacity(&self) -> MemMb {
        self.config.capacity
    }

    /// Memory currently held by containers (warm + running).
    ///
    /// May transiently exceed [`Self::capacity`] after a downward
    /// [`Self::resize`] while running containers finish.
    pub fn used_mem(&self) -> MemMb {
        self.used
    }

    /// Memory not held by any container.
    pub fn free_mem(&self) -> MemMb {
        self.config.capacity.saturating_sub(self.used)
    }

    /// Memory held by idle (warm) containers only. O(1).
    pub fn warm_mem(&self) -> MemMb {
        self.idle.mem
    }

    /// Number of resident containers.
    pub fn len(&self) -> usize {
        self.containers.len()
    }

    /// Whether the pool holds no containers.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// Number of containers currently running an invocation. O(1).
    pub fn running_count(&self) -> usize {
        self.containers.len() - self.idle.count
    }

    /// Number of idle (warm) containers across all functions. O(1).
    pub fn warm_count(&self) -> usize {
        self.idle.count
    }

    /// Number of idle (warm) containers of `function`. O(1).
    pub fn warm_count_of(&self, function: FunctionId) -> usize {
        self.idle.of(function).len()
    }

    /// Iterates over idle container ids in ascending order (collected and
    /// sorted per call: a diagnostic view, not an invocation-path one).
    pub fn idle_ids(&self) -> impl Iterator<Item = ContainerId> + '_ {
        let mut idle: Vec<ContainerId> = self
            .containers
            .values()
            .filter(|c| c.is_idle())
            .map(|c| c.id())
            .collect();
        idle.sort_unstable();
        idle.into_iter()
    }

    /// Looks up a resident container.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(id)
    }

    /// Iterates over resident containers in unspecified order.
    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.values()
    }

    /// Lifetime counters.
    pub fn counters(&self) -> PoolCounters {
        self.counters
    }

    /// The policy driving this pool.
    pub fn policy(&self) -> &dyn KeepAlivePolicy {
        self.policy.as_ref()
    }

    /// Installs shared per-tenant eviction weights on the policy (a no-op
    /// for tenant-blind policies).
    pub fn set_tenant_weights(&mut self, weights: Arc<crate::policy::TenantWeights>) {
        self.policy.set_tenant_weights(weights);
    }

    /// Serves an invocation of `spec` arriving at `now`.
    ///
    /// Warm path: the most recently used idle container of the function is
    /// reused. Cold path: idle containers are evicted (policy order) until
    /// the new container fits; if even that fails — i.e. running containers
    /// pin too much memory — the request is dropped.
    ///
    /// All specs passed to one pool must come from the same
    /// [`crate::function::FunctionRegistry`]: function identity is the
    /// dense [`FunctionId`], and ids from different registries collide.
    pub fn acquire(&mut self, spec: &FunctionSpec, now: SimTime) -> Acquire {
        self.policy.on_request(spec, now, self.idle.view());

        // Warm path: most recently used idle container of this function.
        if let Some(id) = self.idle.most_recent_of(spec.id()) {
            let c = self.containers.get_mut(id).expect("indexed idle container");
            // Leave the idle index before `begin_invocation` changes the
            // `last_used` the index entry is keyed under.
            self.idle.unmark(c);
            c.begin_invocation(now, now + spec.warm_time());
            self.policy.on_warm_start(c, now);
            return Acquire::Warm { container: id };
        }

        // Cold path.
        if spec.mem() > self.config.capacity {
            return Acquire::NoCapacity;
        }
        let evicted = self.make_room(spec.mem(), now);
        let Some(id) = self.insert_container(spec, now, Some(now + spec.cold_time())) else {
            return Acquire::NoCapacity;
        };
        Acquire::Cold {
            container: id,
            evicted,
        }
    }

    /// Marks a running container's invocation as complete; it becomes warm.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not resident or not running.
    pub fn release(&mut self, id: ContainerId, now: SimTime) {
        let c = self
            .containers
            .get_mut(id)
            .expect("releasing a non-resident container");
        // A second release would re-run `on_finish` on an idle container
        // and re-key it in the policy's index.
        assert!(!c.is_idle(), "releasing a container that is not running");
        c.finish_invocation();
        self.idle.mark(c);
        self.policy.on_finish(c, now);
    }

    /// Applies TTL-style expiry: asks the policy which idle containers have
    /// lapsed and terminates them. Returns the terminated ids.
    pub fn reap(&mut self, now: SimTime) -> Vec<ContainerId> {
        // Drain the policy's expiry order, then terminate in ascending id
        // order, whatever order the policy found them in. The pops are
        // bounded like `evict_until`'s.
        let mut expired = Vec::new();
        for _ in 0..self.idle.count {
            let Some(id) = self.policy.pop_expired(now) else {
                break;
            };
            expired.push(id);
        }
        expired.sort_unstable();
        expired.retain(|&id| self.evict(id, now));
        expired
    }

    /// Functions the policy wants prewarmed at `now`.
    pub fn prewarm_due(&mut self, now: SimTime) -> Vec<FunctionId> {
        self.policy.prewarm_due(now, self.idle.view())
    }

    /// Creates a warm container for `spec` speculatively (prefetch).
    ///
    /// Returns `None` — without evicting anything — if the function already
    /// has an idle container, its tenant is at its memory budget (see
    /// [`TenantLedger::under_budget`]) or memory is insufficient;
    /// prefetching never steals memory from demand traffic.
    pub fn prewarm(&mut self, spec: &FunctionSpec, now: SimTime) -> Option<ContainerId> {
        if self.warm_count_of(spec.id()) > 0
            || !self.ledger.under_budget(spec.tenant().index() as u32)
        {
            return None;
        }
        let id = self.insert_container(spec, now, None)?;
        self.counters.prewarms += 1;
        Some(id)
    }

    /// Removes and returns every *idle* container of `function` for live
    /// migration to another pool (warm-set re-homing). Running containers
    /// stay put.
    ///
    /// The policy is told to forget each container (via
    /// [`KeepAlivePolicy::on_evicted`], so incremental indexes drop it)
    /// but the **eviction counter is not bumped**: migration relocates a
    /// warm set, it does not destroy it, and the conservation invariants
    /// callers check must not see phantom evictions.
    pub fn extract_idle_of(&mut self, function: FunctionId, now: SimTime) -> Vec<Container> {
        let ids: Vec<ContainerId> = self.idle.of(function).iter().map(|&(_, id)| id).collect();
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let (container, remaining) = self.remove_idle(id).expect("indexed idle container");
            self.policy.on_evicted(&container, remaining, now);
            out.push(container);
        }
        out
    }

    /// Adopts a container migrated from another pool, re-identifying it
    /// under this pool's id space while preserving its history
    /// (`created_at`, `last_used`, `uses`) so policy priorities carry
    /// over. The container enters the idle set immediately.
    ///
    /// Like [`Self::prewarm`], adoption never evicts: if the container
    /// does not fit in free memory it is handed back via `Err` so the
    /// source pool can re-adopt it — migration must move a warm set, not
    /// shrink it.
    ///
    /// # Panics
    ///
    /// Panics if the container is not idle.
    pub fn adopt(&mut self, container: Container, now: SimTime) -> Result<ContainerId, Container> {
        assert!(container.is_idle(), "only idle containers migrate");
        let Some(id) = self.mint(container.mem()) else {
            return Err(container);
        };
        let container = container.with_id(id);
        self.used += container.mem();
        self.ledger
            .container_added(container.tenant(), container.mem());
        // The prewarm flag makes policies index the container as
        // born-idle (no frequency credit until an invocation lands).
        self.policy.on_container_created(&container, now, true);
        *self.resident_of.slot(container.function()) += 1;
        self.idle.mark(&container);
        self.containers.insert(id, container);
        Ok(id)
    }

    /// Changes the pool capacity (elastic vertical scaling). When
    /// shrinking, idle containers are evicted until the pool fits; running
    /// containers are never killed, so `used_mem` may transiently exceed
    /// the new capacity. Returns the evicted containers.
    pub fn resize(&mut self, new_capacity: MemMb, now: SimTime) -> Vec<ContainerId> {
        self.config.capacity = new_capacity;
        self.evict_until(now, |pool| pool.used <= pool.config.capacity)
    }

    /// Evicts idle containers (policy order) until at least `needed` memory
    /// is free, possibly over-freeing by the configured batch. Returns the
    /// evicted ids.
    fn make_room(&mut self, needed: MemMb, now: SimTime) -> Vec<ContainerId> {
        if self.free_mem() >= needed {
            return Vec::new();
        }
        // Batching: once we must evict at all, free up to the batch
        // threshold beyond the immediate need (paper §6).
        let target = needed + self.config.eviction_batch;
        self.evict_until(now, |pool| pool.free_mem() >= target)
    }

    /// Terminates the policy's next victims until `done` or the policy has
    /// no more to give. Returns the evicted ids.
    fn evict_until(&mut self, now: SimTime, done: impl Fn(&Self) -> bool) -> Vec<ContainerId> {
        let mut evicted = Vec::new();
        // One pop per container idle at entry is all a conforming policy
        // can answer. A pop that evicts nothing — a stale, running, unknown
        // or repeated id — spends one of them too, so a policy that breaks
        // the contract cannot hold the pool (and its caller's lock) here.
        for _ in 0..self.idle.count {
            if done(self) {
                break;
            }
            let Some(id) = self.policy.pop_victim() else {
                break;
            };
            if self.evict(id, now) {
                evicted.push(id);
            }
        }
        evicted
    }

    /// The id of a new container of `mem`: the next sequence number in the
    /// slot freed most recently, or in a fresh one. `None`, and nothing
    /// changes, when the container does not fit in free memory or every
    /// slot is let.
    fn mint(&mut self, mem: MemMb) -> Option<ContainerId> {
        if self.free_mem() < mem {
            return None;
        }
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None if self.containers.cells() < MAX_SLOTS => self.containers.cells(),
            None => return None,
        };
        let id = ContainerId::mint(self.minted, slot);
        self.minted += 1;
        Some(id)
    }

    /// Creates a container for `spec`: running until `busy_until` (a cold
    /// start, which begins its invocation at once and enters the idle
    /// index on release) or, with `None`, born idle (a prewarm). `None`,
    /// and nothing changes, when [`Self::mint`] declines.
    fn insert_container(
        &mut self,
        spec: &FunctionSpec,
        now: SimTime,
        busy_until: Option<SimTime>,
    ) -> Option<ContainerId> {
        let id = self.mint(spec.mem())?;
        let mut container = Container::new(
            id,
            spec.id(),
            spec.mem(),
            spec.warm_time(),
            spec.cold_time(),
            now,
        )
        .with_tenant(spec.tenant().index() as u32);
        self.used += container.mem();
        self.ledger
            .container_added(container.tenant(), container.mem());
        self.policy
            .on_container_created(&container, now, busy_until.is_none());
        *self.resident_of.slot(spec.id()) += 1;
        match busy_until {
            Some(until) => container.begin_invocation(now, until),
            None => self.idle.mark(&container),
        }
        self.containers.insert(id, container);
        Some(id)
    }

    /// Takes an idle container out of the pool's own structures and
    /// returns it with the number of its function's containers still
    /// resident. `None`, and nothing changes, when `id` is not resident or
    /// is running — policies may hand back stale ids, and running
    /// containers are never killed.
    fn remove_idle(&mut self, id: ContainerId) -> Option<(Container, usize)> {
        let container = self.containers.remove(id)?;
        if !container.is_idle() {
            // One lookup for the victim that is there to take; a running
            // container (only a policy breaking the contract names one)
            // goes back where it was.
            self.containers.insert(id, container);
            return None;
        }
        self.free_slots.push(id.slot());
        self.idle.unmark(&container);
        self.used -= container.mem();
        self.ledger
            .container_removed(container.tenant(), container.mem());
        let resident = self
            .resident_of
            .get_mut(container.function())
            .expect("resident containers are counted");
        *resident -= 1;
        let remaining = *resident as usize;
        Some((container, remaining))
    }

    /// Cells in the container slab, occupied or vacant.
    #[cfg(test)]
    pub(crate) fn slab_cells(&self) -> usize {
        self.containers.cells()
    }

    /// Terminates an idle container; `false` when [`Self::remove_idle`]
    /// declined.
    fn evict(&mut self, id: ContainerId, now: SimTime) -> bool {
        let Some((container, remaining)) = self.remove_idle(id) else {
            return false;
        };
        self.counters.evictions += 1;
        self.policy.on_evicted(&container, remaining, now);
        true
    }
}

/// Sorted `(last_used, id)` keys of one function's idle containers.
type IdleOrder = Vec<(SimTime, ContainerId)>;

/// A read-only view of the pool's idle containers, per function, each in
/// ascending `(last_used, id)` order: the warm pick, the container
/// [`ContainerPool::acquire`] takes next, is the last. The pool hands it
/// to [`KeepAlivePolicy::on_request`] and [`KeepAlivePolicy::prewarm_due`],
/// so a policy that re-keys a function's idle containers there keeps no
/// list of them itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleView<'a> {
    by_fn: &'a [IdleOrder],
}

impl<'a> IdleView<'a> {
    /// A view of `by_fn`: the idle keys of function index `i` at `i`,
    /// each ascending.
    #[cfg(test)]
    pub(crate) fn new(by_fn: &'a [IdleOrder]) -> Self {
        IdleView { by_fn }
    }

    /// The idle containers of `function`, least recently used first.
    pub fn of(&self, function: FunctionId) -> &'a [(SimTime, ContainerId)] {
        self.by_fn.get(function.index()).map_or(&[], Vec::as_slice)
    }
}

/// Which containers are idle: the pool's persistent idle-set index.
#[derive(Debug, Default)]
struct IdleIndex {
    /// Idle containers per function in ascending `(last_used, id)` order;
    /// the warm-path pick is the last element. An emptied `Vec` keeps its
    /// capacity, so the next warm cycle of the function allocates nothing.
    by_fn: FnTable<IdleOrder>,
    /// Number of idle containers across all functions.
    count: usize,
    /// Memory held by idle containers, maintained incrementally.
    mem: MemMb,
}

impl IdleIndex {
    fn view(&self) -> IdleView<'_> {
        IdleView {
            by_fn: self.by_fn.as_slice(),
        }
    }

    /// The idle containers of `function`, least recently used first.
    fn of(&self, function: FunctionId) -> &[(SimTime, ContainerId)] {
        self.view().of(function)
    }

    /// Most recently used idle container of `function` (the higher id
    /// among equally recent ones).
    fn most_recent_of(&self, function: FunctionId) -> Option<ContainerId> {
        self.of(function).last().map(|&(_, id)| id)
    }

    /// Registers a container as idle; a no-op if it already is. Must be
    /// called while the container's `last_used` is the value it will keep
    /// for the idle period.
    fn mark(&mut self, c: &Container) {
        debug_assert!(c.is_idle(), "marking a running container idle");
        let order = self.by_fn.slot(c.function());
        let key = (c.last_used(), c.id());
        // Usually the most recent, i.e. an append.
        let at = order.partition_point(|&k| k < key);
        if order.get(at) != Some(&key) {
            order.insert(at, key);
            self.count += 1;
            self.mem += c.mem();
        }
    }

    /// Removes a container from the idle index; a no-op if it is not in
    /// it. Must be called *before* `begin_invocation` mutates `last_used`
    /// (the per-function key).
    fn unmark(&mut self, c: &Container) {
        let Some(order) = self.by_fn.get_mut(c.function()) else {
            return;
        };
        let key = (c.last_used(), c.id());
        // Usually the warm pick, i.e. the last element.
        let at = order.partition_point(|&k| k < key);
        if order.get(at) == Some(&key) {
            order.remove(at);
            self.count -= 1;
            self.mem -= c.mem();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionRegistry;
    use crate::policy::{GreedyDual, Lru, Ttl};
    use faascache_util::SimDuration;

    fn registry() -> (FunctionRegistry, Vec<FunctionId>) {
        let mut reg = FunctionRegistry::new();
        let ids = vec![
            reg.register(
                "a",
                MemMb::new(100),
                SimDuration::from_millis(10),
                SimDuration::from_millis(500),
            )
            .unwrap(),
            reg.register(
                "b",
                MemMb::new(200),
                SimDuration::from_millis(20),
                SimDuration::from_millis(800),
            )
            .unwrap(),
            reg.register(
                "c",
                MemMb::new(300),
                SimDuration::from_millis(30),
                SimDuration::from_millis(900),
            )
            .unwrap(),
        ];
        (reg, ids)
    }

    #[test]
    fn cold_then_warm() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        let t0 = SimTime::ZERO;
        let first = pool.acquire(reg.spec(ids[0]), t0);
        let Acquire::Cold { container, evicted } = first else {
            panic!("expected cold start");
        };
        assert!(evicted.is_empty());
        pool.release(container, t0 + SimDuration::from_millis(500));
        let second = pool.acquire(reg.spec(ids[0]), SimTime::from_secs(1));
        assert_eq!(second, Acquire::Warm { container });
    }

    #[test]
    fn memory_accounting() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        let t = SimTime::ZERO;
        for &f in &ids {
            pool.acquire(reg.spec(f), t);
        }
        assert_eq!(pool.used_mem(), MemMb::new(600));
        assert_eq!(pool.free_mem(), MemMb::new(400));
        assert_eq!(pool.len(), 3);
        // Running containers hold memory but are not "warm".
        assert_eq!(pool.warm_mem(), MemMb::ZERO);
    }

    #[test]
    fn eviction_makes_room() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(350), Box::new(Lru::new()));
        let c0 = match pool.acquire(reg.spec(ids[0]), SimTime::ZERO) {
            Acquire::Cold { container, .. } => container,
            other => panic!("unexpected {other:?}"),
        };
        pool.release(c0, SimTime::from_millis(500));
        let c1 = match pool.acquire(reg.spec(ids[1]), SimTime::from_secs(1)) {
            Acquire::Cold { container, evicted } => {
                assert!(evicted.is_empty(), "100+200 fits in 350");
                container
            }
            other => panic!("unexpected {other:?}"),
        };
        pool.release(c1, SimTime::from_secs(2));
        // c (300MB) does not fit alongside 300MB of warm containers: evict.
        match pool.acquire(reg.spec(ids[2]), SimTime::from_secs(3)) {
            Acquire::Cold { evicted, .. } => {
                assert_eq!(evicted.len(), 2, "both warm containers evicted (LRU)");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pool.used_mem(), MemMb::new(300));
        assert_eq!(pool.counters().evictions, 2);
    }

    #[test]
    fn running_containers_pin_memory() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(350), Box::new(Lru::new()));
        // a and b running concurrently (300MB total, never released).
        pool.acquire(reg.spec(ids[0]), SimTime::ZERO);
        pool.acquire(reg.spec(ids[1]), SimTime::ZERO);
        // c needs 300MB; only 50 free, nothing evictable → dropped.
        let out = pool.acquire(reg.spec(ids[2]), SimTime::from_millis(1));
        assert_eq!(out, Acquire::NoCapacity);
    }

    #[test]
    fn oversized_function_dropped() {
        let (reg, _) = registry();
        let mut big_reg = FunctionRegistry::new();
        let big = big_reg
            .register(
                "big",
                MemMb::new(4096),
                SimDuration::ZERO,
                SimDuration::ZERO,
            )
            .unwrap();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        assert_eq!(
            pool.acquire(big_reg.spec(big), SimTime::ZERO),
            Acquire::NoCapacity
        );
        let _ = reg;
    }

    #[test]
    fn concurrent_invocations_use_separate_containers() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(GreedyDual::new()));
        let a1 = pool.acquire(reg.spec(ids[0]), SimTime::ZERO);
        let a2 = pool.acquire(reg.spec(ids[0]), SimTime::from_millis(1));
        assert!(
            a1.is_cold() && a2.is_cold(),
            "second concurrent invocation needs its own container"
        );
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.used_mem(), MemMb::new(200));
    }

    #[test]
    fn warm_picks_most_recently_used() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        let c1 = match pool.acquire(reg.spec(ids[0]), SimTime::ZERO) {
            Acquire::Cold { container, .. } => container,
            _ => unreachable!(),
        };
        let c2 = match pool.acquire(reg.spec(ids[0]), SimTime::from_millis(1)) {
            Acquire::Cold { container, .. } => container,
            _ => unreachable!(),
        };
        pool.release(c1, SimTime::from_secs(1));
        pool.release(c2, SimTime::from_secs(2));
        // c2 released later but last_used is begin time; c2 began later.
        match pool.acquire(reg.spec(ids[0]), SimTime::from_secs(3)) {
            Acquire::Warm { container } => assert_eq!(container, c2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ttl_reaping() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(
            MemMb::new(1000),
            Box::new(Ttl::new(SimDuration::from_mins(10))),
        );
        let c = match pool.acquire(reg.spec(ids[0]), SimTime::ZERO) {
            Acquire::Cold { container, .. } => container,
            _ => unreachable!(),
        };
        pool.release(c, SimTime::from_millis(500));
        assert!(pool.reap(SimTime::from_mins(9)).is_empty());
        let reaped = pool.reap(SimTime::from_mins(10));
        assert_eq!(reaped, vec![c]);
        assert!(pool.is_empty());
        assert_eq!(pool.used_mem(), MemMb::ZERO);
    }

    #[test]
    fn reap_never_kills_running() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(
            MemMb::new(1000),
            Box::new(Ttl::new(SimDuration::from_mins(10))),
        );
        pool.acquire(reg.spec(ids[0]), SimTime::ZERO);
        // Still running (never released): reap must not touch it.
        assert!(pool.reap(SimTime::from_mins(60)).is_empty());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn prewarm_creates_idle_container() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(GreedyDual::new()));
        let id = pool.prewarm(reg.spec(ids[0]), SimTime::ZERO).unwrap();
        assert!(pool.container(id).unwrap().is_idle());
        assert_eq!(pool.counters().prewarms, 1);
        // Next acquire is a warm start.
        assert!(pool
            .acquire(reg.spec(ids[0]), SimTime::from_secs(1))
            .is_warm());
        // Prewarm is a no-op when a warm container exists.
        assert!(pool.prewarm(reg.spec(ids[1]), SimTime::ZERO).is_some());
        assert!(pool.prewarm(reg.spec(ids[1]), SimTime::ZERO).is_none());
    }

    #[test]
    fn prewarm_does_not_evict() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(250), Box::new(Lru::new()));
        let c = match pool.acquire(reg.spec(ids[1]), SimTime::ZERO) {
            Acquire::Cold { container, .. } => container,
            _ => unreachable!(),
        };
        pool.release(c, SimTime::from_secs(1));
        // 50MB free; prewarming a 100MB function must fail, not evict.
        assert!(pool
            .prewarm(reg.spec(ids[0]), SimTime::from_secs(2))
            .is_none());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn resize_shrinks_by_evicting_idle() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        let mut released = Vec::new();
        for &f in &ids {
            if let Acquire::Cold { container, .. } = pool.acquire(reg.spec(f), SimTime::ZERO) {
                released.push(container);
            }
        }
        for (i, c) in released.iter().enumerate() {
            pool.release(*c, SimTime::from_secs(i as u64 + 1));
        }
        assert_eq!(pool.used_mem(), MemMb::new(600));
        let evicted = pool.resize(MemMb::new(350), SimTime::from_secs(10));
        assert!(!evicted.is_empty());
        assert!(pool.used_mem() <= MemMb::new(350));
        assert_eq!(pool.capacity(), MemMb::new(350));
    }

    #[test]
    fn resize_cannot_evict_running() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        pool.acquire(reg.spec(ids[2]), SimTime::ZERO); // 300MB running
        let evicted = pool.resize(MemMb::new(100), SimTime::from_secs(1));
        assert!(evicted.is_empty());
        assert_eq!(
            pool.used_mem(),
            MemMb::new(300),
            "overcommitted until release"
        );
        assert_eq!(pool.free_mem(), MemMb::ZERO);
    }

    #[test]
    fn eviction_batching_frees_extra() {
        let (reg, ids) = registry();
        let config = PoolConfig::new(MemMb::new(600)).with_eviction_batch(MemMb::new(300));
        let mut pool = ContainerPool::with_config(config, Box::new(Lru::new()));
        // Fill with six 100MB warm containers of function a.
        let mut cs = Vec::new();
        for i in 0..6 {
            if let Acquire::Cold { container, .. } =
                pool.acquire(reg.spec(ids[0]), SimTime::from_millis(i))
            {
                cs.push(container);
            }
        }
        for (i, c) in cs.iter().enumerate() {
            pool.release(*c, SimTime::from_secs(i as u64 + 1));
        }
        assert_eq!(pool.used_mem(), MemMb::new(600));
        // b needs 200MB: with a 300MB batch, the pool frees ≥ 300MB extra
        // beyond... (target = needed + batch = 500MB free).
        match pool.acquire(reg.spec(ids[1]), SimTime::from_secs(100)) {
            Acquire::Cold { evicted, .. } => assert_eq!(evicted.len(), 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Contract test: among equally ranked idle containers the pool evicts
    /// the one with the lowest `ContainerId` first. (The name is from when
    /// a second, scan-and-sort eviction mode honoured the same contract;
    /// that mode is now the differential suite's test-side reference.)
    #[test]
    fn victim_tiebreak_prefers_lower_id_in_both_modes() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(300), Box::new(Lru::new()));
        // Two concurrent containers of the same 100 MB function start
        // at the same instant: identical priority and last_used.
        let t0 = SimTime::ZERO;
        let c0 = cold(&mut pool, reg.spec(ids[0]), t0);
        let c1 = cold(&mut pool, reg.spec(ids[0]), t0);
        assert!(c0 < c1);
        // Released out of id order: arrival order must not decide.
        pool.release(c1, SimTime::from_secs(1));
        pool.release(c0, SimTime::from_secs(1));
        // b (200 MB) needs 100 MB freed: exactly one victim, and the
        // tie must break toward the lower id.
        match pool.acquire(reg.spec(ids[1]), SimTime::from_secs(2)) {
            Acquire::Cold { evicted, .. } => assert_eq!(evicted, vec![c0]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn idle_index_accounting_stays_consistent() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        let c0 = match pool.acquire(reg.spec(ids[0]), SimTime::ZERO) {
            Acquire::Cold { container, .. } => container,
            _ => unreachable!(),
        };
        let c1 = match pool.acquire(reg.spec(ids[1]), SimTime::ZERO) {
            Acquire::Cold { container, .. } => container,
            _ => unreachable!(),
        };
        assert_eq!(pool.warm_count(), 0);
        assert_eq!(pool.running_count(), 2);
        assert_eq!(pool.warm_mem(), MemMb::ZERO);
        pool.release(c0, SimTime::from_secs(1));
        assert_eq!(pool.warm_count(), 1);
        assert_eq!(pool.running_count(), 1);
        assert_eq!(pool.warm_mem(), MemMb::new(100));
        assert_eq!(pool.idle_ids().collect::<Vec<_>>(), vec![c0]);
        pool.release(c1, SimTime::from_secs(2));
        assert_eq!(pool.warm_mem(), MemMb::new(300));
        // Warm start removes from the idle index...
        assert!(pool
            .acquire(reg.spec(ids[0]), SimTime::from_secs(3))
            .is_warm());
        assert_eq!(pool.warm_count(), 1);
        assert_eq!(pool.warm_mem(), MemMb::new(200));
        // ...and resize-driven eviction drains it.
        let evicted = pool.resize(MemMb::new(100), SimTime::from_secs(4));
        assert_eq!(evicted, vec![c1]);
        assert_eq!(pool.warm_count(), 0);
        assert_eq!(pool.warm_mem(), MemMb::ZERO);
        assert_eq!(pool.running_count(), 1);
    }

    #[test]
    fn extract_and_adopt_migrate_a_warm_set_without_evictions() {
        let (reg, ids) = registry();
        let mut src = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        let mut dst = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        // Two warm containers of a, one of b, on the source.
        let mut warm = Vec::new();
        for (f, t) in [(0, 0u64), (0, 1), (1, 2)] {
            match src.acquire(reg.spec(ids[f]), SimTime::from_secs(t)) {
                Acquire::Cold { container, .. } => warm.push(container),
                other => panic!("unexpected {other:?}"),
            }
        }
        for (i, &c) in warm.iter().enumerate() {
            src.release(c, SimTime::from_secs(10 + i as u64));
        }
        let moved = src.extract_idle_of(ids[0], SimTime::from_secs(20));
        assert_eq!(moved.len(), 2);
        assert_eq!(src.warm_count_of(ids[0]), 0);
        assert_eq!(src.warm_count_of(ids[1]), 1, "other functions untouched");
        assert_eq!(src.used_mem(), MemMb::new(200));
        assert_eq!(src.counters().evictions, 0, "migration is not eviction");
        let mut adopted = Vec::new();
        for c in moved {
            let last_used = c.last_used();
            let uses = c.uses();
            let id = dst.adopt(c, SimTime::from_secs(21)).unwrap();
            let resident = dst.container(id).unwrap();
            assert!(resident.is_idle());
            assert_eq!(resident.last_used(), last_used, "history preserved");
            assert_eq!(resident.uses(), uses);
            adopted.push(id);
        }
        assert_eq!(dst.warm_count_of(ids[0]), 2);
        assert_eq!(dst.used_mem(), MemMb::new(200));
        assert_eq!(dst.counters().prewarms, 0, "adoption is not a prewarm");
        // The warm set serves warm on the destination.
        assert!(dst
            .acquire(reg.spec(ids[0]), SimTime::from_secs(30))
            .is_warm());
    }

    #[test]
    fn adopt_never_evicts_and_hands_back_what_does_not_fit() {
        let (reg, ids) = registry();
        let mut src = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        let mut dst = ContainerPool::new(MemMb::new(250), Box::new(Lru::new()));
        // Fill the destination with a 200 MB warm container of b.
        let b = match dst.acquire(reg.spec(ids[1]), SimTime::ZERO) {
            Acquire::Cold { container, .. } => container,
            other => panic!("unexpected {other:?}"),
        };
        dst.release(b, SimTime::from_secs(1));
        // Source holds two 100 MB warm containers of a.
        let mut cs = Vec::new();
        for t in 0..2 {
            if let Acquire::Cold { container, .. } =
                src.acquire(reg.spec(ids[0]), SimTime::from_secs(t))
            {
                cs.push(container);
            }
        }
        for &c in &cs {
            src.release(c, SimTime::from_secs(5));
        }
        let moved = src.extract_idle_of(ids[0], SimTime::from_secs(6));
        assert_eq!(moved.len(), 2);
        // Only one fits (50 MB free after it would be -50): the second is
        // handed back un-adopted and re-adoptable at the source.
        let mut fitted = 0;
        for c in moved {
            match dst.adopt(c, SimTime::from_secs(7)) {
                Ok(_) => fitted += 1,
                Err(returned) => {
                    src.adopt(returned, SimTime::from_secs(7))
                        .expect("the source freed this memory moments ago");
                }
            }
        }
        assert_eq!(fitted, 0, "250 cap - 200 warm leaves room for neither");
        assert_eq!(dst.counters().evictions, 0, "adoption must not evict");
        assert_eq!(src.warm_count_of(ids[0]), 2, "handed back home");
        assert_eq!(src.used_mem(), MemMb::new(200));
    }

    #[test]
    fn extract_leaves_running_containers_in_place() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        let c0 = match pool.acquire(reg.spec(ids[0]), SimTime::ZERO) {
            Acquire::Cold { container, .. } => container,
            _ => unreachable!(),
        };
        // Second container of the same function, released (idle).
        let c1 = match pool.acquire(reg.spec(ids[0]), SimTime::from_millis(1)) {
            Acquire::Cold { container, .. } => container,
            _ => unreachable!(),
        };
        pool.release(c1, SimTime::from_secs(1));
        let moved = pool.extract_idle_of(ids[0], SimTime::from_secs(2));
        assert_eq!(moved.len(), 1, "only the idle container migrates");
        assert_eq!(pool.len(), 1);
        assert!(!pool.container(c0).unwrap().is_idle());
        // Releasing the still-running container must work afterwards.
        pool.release(c0, SimTime::from_secs(3));
        assert_eq!(pool.warm_count_of(ids[0]), 1);
    }

    fn cold(pool: &mut ContainerPool, spec: &FunctionSpec, at: SimTime) -> ContainerId {
        match pool.acquire(spec, at) {
            Acquire::Cold { container, .. } => container,
            other => panic!("expected a cold start, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn double_release_panics() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        let c = cold(&mut pool, reg.spec(ids[0]), SimTime::ZERO);
        pool.release(c, SimTime::from_secs(1));
        pool.release(c, SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn releasing_an_evicted_container_panics() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(300), Box::new(Lru::new()));
        let c = cold(&mut pool, reg.spec(ids[0]), SimTime::ZERO);
        pool.release(c, SimTime::from_secs(1));
        // c (300 MB) needs the whole pool: `a`'s container is evicted.
        match pool.acquire(reg.spec(ids[2]), SimTime::from_secs(2)) {
            Acquire::Cold { evicted, .. } => assert_eq!(evicted, vec![c]),
            other => panic!("unexpected {other:?}"),
        }
        pool.release(c, SimTime::from_secs(3));
    }

    #[test]
    fn sparse_function_ids_are_served_and_unseen_ones_count_zero() {
        let mut reg = FunctionRegistry::new();
        let ids: Vec<FunctionId> = (0..=5_000)
            .map(|i| {
                reg.register(
                    format!("f{i}"),
                    MemMb::new(64),
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(100),
                )
                .unwrap()
            })
            .collect();
        let (lo, hi) = (ids[0], ids[5_000]);
        assert_eq!((lo.index(), hi.index()), (0, 5_000));
        for kind in crate::policy::PolicyKind::ALL {
            let mut pool = ContainerPool::new(MemMb::new(128), kind.build());
            assert_eq!(pool.warm_count_of(hi), 0, "{kind}: nothing seen yet");
            let c_hi = cold(&mut pool, reg.spec(hi), SimTime::ZERO);
            let c_lo = cold(&mut pool, reg.spec(lo), SimTime::ZERO);
            pool.release(c_hi, SimTime::from_secs(1));
            pool.release(c_lo, SimTime::from_secs(1));
            assert_eq!(pool.warm_count_of(hi), 1, "{kind}");
            assert_eq!(pool.warm_count_of(lo), 1, "{kind}");
            assert_eq!(pool.warm_count_of(ids[2_500]), 0, "{kind}: between the two");
            assert_eq!(
                pool.warm_count_of(FunctionId::from_index(9_999)),
                0,
                "{kind}: beyond anything seen"
            );
            assert_eq!(
                pool.acquire(reg.spec(hi), SimTime::from_secs(2)),
                Acquire::Warm { container: c_hi },
                "{kind}"
            );
            // A third function forces an eviction through the policy.
            assert!(pool
                .acquire(reg.spec(ids[2_500]), SimTime::from_secs(3))
                .is_cold());
            assert_eq!(pool.warm_count_of(lo), 0, "{kind}: evicted");
            assert_eq!(pool.counters().evictions, 1, "{kind}");
        }
    }

    #[test]
    fn warm_pick_among_equally_recent_takes_the_higher_id() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        // Three containers of `a` begin at the same instant: equal
        // `last_used`, so the id decides.
        let t0 = SimTime::ZERO;
        let cs: Vec<ContainerId> = (0..3)
            .map(|_| cold(&mut pool, reg.spec(ids[0]), t0))
            .collect();
        // Release out of id order; the index orders by key, not arrival.
        for &i in &[1usize, 2, 0] {
            pool.release(cs[i], SimTime::from_secs(1));
        }
        for &expected in cs.iter().rev() {
            assert_eq!(
                pool.acquire(reg.spec(ids[0]), SimTime::from_secs(2)),
                Acquire::Warm {
                    container: expected
                }
            );
        }
    }

    #[test]
    fn extract_adopt_round_trip_keeps_per_function_order() {
        let (reg, ids) = registry();
        let mut src = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        let mut dst = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        // Four idle containers of `a` with last_used 0, 1, 2, 3 s.
        let cs: Vec<ContainerId> = (0..4)
            .map(|t| cold(&mut src, reg.spec(ids[0]), SimTime::from_secs(t)))
            .collect();
        for &c in cs.iter().rev() {
            src.release(c, SimTime::from_secs(10));
        }
        let moved = src.extract_idle_of(ids[0], SimTime::from_secs(20));
        let used: Vec<SimTime> = moved.iter().map(|c| c.last_used()).collect();
        assert_eq!(
            used,
            (0..4).map(SimTime::from_secs).collect::<Vec<_>>(),
            "extracted least recently used first"
        );
        // Adopt in reverse: the destination re-sorts by (last_used, id).
        for c in moved.into_iter().rev() {
            dst.adopt(c, SimTime::from_secs(21)).unwrap();
        }
        assert_eq!(dst.warm_count_of(ids[0]), 4);
        let again = dst.extract_idle_of(ids[0], SimTime::from_secs(22));
        let used: Vec<SimTime> = again.iter().map(|c| c.last_used()).collect();
        assert_eq!(used, (0..4).map(SimTime::from_secs).collect::<Vec<_>>());
        assert_eq!(dst.warm_count(), 0);
        assert_eq!(dst.warm_mem(), MemMb::ZERO);
        // And the warm pick on a pool that adopted them is the most recent.
        for c in again {
            src.adopt(c, SimTime::from_secs(23)).unwrap();
        }
        let picked = match src.acquire(reg.spec(ids[0]), SimTime::from_secs(24)) {
            Acquire::Warm { container } => container,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(src.container(picked).unwrap().uses(), 2, "served twice");
        assert_eq!(src.warm_count_of(ids[0]), 3);
    }

    #[test]
    fn idle_index_keeps_each_function_sorted_and_its_capacity() {
        let f = FunctionId::from_index(3);
        let idle_container = |id: u64, used: u64| {
            Container::new(
                ContainerId::from_raw(id),
                f,
                MemMb::new(10),
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimTime::from_secs(used),
            )
        };
        let mut idle = IdleIndex::default();
        assert!(idle.of(f).is_empty());
        assert_eq!(idle.most_recent_of(f), None);
        let cs = [
            idle_container(7, 5),
            idle_container(2, 9),
            idle_container(4, 5),
            idle_container(9, 1),
        ];
        for c in &cs {
            idle.mark(c);
            idle.mark(c); // idempotent
        }
        let keys: Vec<(u64, u64)> = idle
            .of(f)
            .iter()
            .map(|&(t, id)| (t.as_micros() / 1_000_000, id.as_raw()))
            .collect();
        assert_eq!(keys, vec![(1, 9), (5, 4), (5, 7), (9, 2)]);
        assert_eq!(idle.most_recent_of(f), Some(ContainerId::from_raw(2)));
        assert_eq!(idle.mem, MemMb::new(40));
        // Remove from the middle, the front and the back.
        idle.unmark(&cs[2]);
        idle.unmark(&cs[3]);
        idle.unmark(&cs[1]);
        idle.unmark(&cs[1]); // idempotent
        assert_eq!(
            idle.of(f),
            &[(SimTime::from_secs(5), ContainerId::from_raw(7))]
        );
        idle.unmark(&cs[0]);
        assert!(idle.of(f).is_empty());
        assert_eq!(idle.count, 0);
        assert_eq!(idle.mem, MemMb::ZERO);
        // Empty ≡ absent, but the slot's allocation is kept for the next
        // warm cycle.
        assert!(idle.by_fn.get(f).unwrap().capacity() >= 4);
        assert_eq!(idle.most_recent_of(FunctionId::from_index(0)), None);
    }

    #[test]
    fn a_full_slab_refuses_new_containers_until_a_slot_is_freed() {
        let mut reg = FunctionRegistry::new();
        let small = reg
            .register(
                "small",
                MemMb::new(1),
                SimDuration::from_millis(1),
                SimDuration::from_millis(10),
            )
            .unwrap();
        let other = reg
            .register(
                "other",
                MemMb::new(1),
                SimDuration::from_millis(1),
                SimDuration::from_millis(10),
            )
            .unwrap();
        // Memory for twice the slab: only the slots can run out.
        let mut pool = ContainerPool::new(MemMb::new(2 * MAX_SLOTS as u64), Box::new(Lru::new()));
        let t0 = SimTime::ZERO;
        let running: Vec<ContainerId> = (0..MAX_SLOTS)
            .map(|_| cold(&mut pool, reg.spec(small), t0))
            .collect();
        assert_eq!((pool.len(), pool.slab_cells()), (MAX_SLOTS, MAX_SLOTS));
        assert!(pool.free_mem() >= MemMb::new(MAX_SLOTS as u64));
        // Every slot let and running: a cold start, a prewarm and an
        // adoption are all declined, and nothing is evicted for them.
        assert_eq!(pool.acquire(reg.spec(small), t0), Acquire::NoCapacity);
        assert_eq!(pool.prewarm(reg.spec(other), t0), None);
        let migrant = Container::new(
            ContainerId::from_raw(0),
            other,
            MemMb::new(1),
            SimDuration::ZERO,
            SimDuration::ZERO,
            t0,
        );
        let migrant = pool.adopt(migrant, t0).expect_err("no slot to adopt into");
        assert_eq!((pool.len(), pool.counters().evictions), (MAX_SLOTS, 0));
        // One container leaves: its slot is let to the next one, under a
        // later id.
        let t1 = SimTime::from_secs(1);
        pool.release(running[7], t1);
        assert_eq!(pool.extract_idle_of(small, t1).len(), 1);
        let adopted = pool.adopt(migrant, t1).expect("a slot is free again");
        assert_eq!(adopted.slot(), running[7].slot());
        assert!(adopted > *running.last().unwrap());
        assert!(pool.container(running[7]).is_none(), "the old id is stale");
        assert_eq!((pool.len(), pool.slab_cells()), (MAX_SLOTS, MAX_SLOTS));
        assert_eq!(pool.acquire(reg.spec(small), t1), Acquire::NoCapacity);
    }

    #[test]
    fn warm_count_tracks_function_state() {
        let (reg, ids) = registry();
        let mut pool = ContainerPool::new(MemMb::new(1000), Box::new(Lru::new()));
        assert_eq!(pool.warm_count_of(ids[0]), 0);
        let c = match pool.acquire(reg.spec(ids[0]), SimTime::ZERO) {
            Acquire::Cold { container, .. } => container,
            _ => unreachable!(),
        };
        assert_eq!(pool.warm_count_of(ids[0]), 0, "running, not warm");
        pool.release(c, SimTime::from_secs(1));
        assert_eq!(pool.warm_count_of(ids[0]), 1);
    }
}
