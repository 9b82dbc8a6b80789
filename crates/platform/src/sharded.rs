//! A sharded, concurrency-safe invoker: N pools behind N locks.
//!
//! One pool behind one mutex caps throughput at that lock; this module
//! scales the invoker the way the paper's §9 cluster discussion suggests
//! scaling keep-alive servers:
//! partition the memory into `N` independent [`ContainerPool`] shards and
//! route every function to a fixed home shard with the stable affinity
//! hash ([`faascache_util::route`]). Affinity routing preserves the
//! temporal locality keep-alive depends on — all warm containers of a
//! function live on one shard — while invocations of different functions
//! contend on different locks.
//!
//! Each shard also carries a bounded admission gate mirroring the
//! OpenWhisk-style buffer in [`crate::queue`]: at most `queue_bound`
//! requests may be admitted-but-unfinished per shard, and requests beyond
//! the bound are *rejected* with explicit backpressure
//! ([`InvokeOutcome::Rejected`]) rather than queued without limit.
//! Draining ([`ShardedInvoker::begin_drain`]) flips the gate shut
//! everywhere so in-flight requests finish while new arrivals are turned
//! away — the mechanism behind the `faascached` daemon's graceful
//! shutdown.
//!
//! # Load-aware routing
//!
//! A static affinity hash is only as good as its worst shard: one hot
//! function saturates its home shard while the rest idle. Two optional
//! mechanisms spread such skew without giving up warm locality:
//!
//! - **Power-of-two-choices admission** ([`ShardedConfig::with_p2c`]):
//!   every function has a seeded *alternate* candidate shard
//!   ([`faascache_util::route::alt_shard_for`]); when the preferred
//!   shard's in-flight count is above the configured watermark, the
//!   request is admitted to the less-loaded of the two candidates.
//! - **Warm-set re-homing** ([`ShardedConfig::with_rebalance`],
//!   [`ShardedInvoker::rebalance_tick`]): when a shard's served-per-tick
//!   load exceeds the fleet mean by a configurable factor for K
//!   consecutive ticks, the hottest function's *idle* warm containers
//!   migrate to the coldest shard and a route override is published, so
//!   subsequent invocations follow their warm set — moved, not destroyed.
//!
//! Per-shard load (in-flight, admission-queue depth, committed warm
//! memory, served window) is exposed lock-free via
//! [`ShardedInvoker::load`]/[`ShardedInvoker::loads`].

use crate::tenant::{TenantQuotas, TenantSnapshot, TenantTable};
use faascache_core::function::{FunctionId, FunctionSpec};
use faascache_core::policy::{KeepAlivePolicy, PolicyKind};
use faascache_core::pool::{Acquire, ContainerPool, PoolConfig, PoolCounters};
use faascache_util::{route, MemMb, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// Outcome of an invocation through a concurrency-safe invoker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvokeOutcome {
    /// Served warm.
    Warm,
    /// Served with a cold start.
    Cold,
    /// Dropped by the pool: no capacity even after evicting idle
    /// containers.
    Dropped,
    /// Rejected at admission: the shard's bounded queue was full, or the
    /// invoker is draining. Explicit backpressure — the caller may retry
    /// elsewhere or shed the request.
    Rejected,
    /// Throttled at admission: the function's *tenant* is over one of its
    /// isolation budgets (in-flight concurrency or resident container
    /// memory — see [`crate::tenant`]). Unlike [`Self::Rejected`], this is
    /// not server pressure: the right reaction is to back off this
    /// tenant's traffic, and other tenants proceed unaffected.
    Throttled,
}

impl InvokeOutcome {
    /// Whether the invocation was actually served (warm or cold).
    pub fn is_served(self) -> bool {
        matches!(self, InvokeOutcome::Warm | InvokeOutcome::Cold)
    }
}

/// Warm-set re-homing knobs (see [`ShardedInvoker::rebalance_tick`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// A shard is *overloaded* when its served count for one tick window
    /// exceeds `factor ×` the fleet mean.
    pub factor: f64,
    /// Consecutive overloaded ticks required before a migration fires —
    /// hysteresis against reacting to a single bursty window.
    pub ticks: u32,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            factor: 1.5,
            ticks: 2,
        }
    }
}

/// Configuration of a sharded invoker.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of pool shards (≥ 1).
    pub shards: usize,
    /// Per-shard pool configuration (its `capacity` is per shard).
    pub per_shard: PoolConfig,
    /// Maximum admitted-but-unfinished requests per shard before
    /// backpressure kicks in. `usize::MAX` disables the bound.
    pub queue_bound: usize,
    /// Power-of-two-choices admission: consider the seeded alternate
    /// candidate shard when the preferred shard is above the watermark.
    pub p2c: bool,
    /// In-flight count above which the preferred shard counts as loaded
    /// and the alternate candidate is consulted. Only meaningful with
    /// [`Self::p2c`]; a watermark ≥ 1 keeps purely sequential callers on
    /// their home shard (their observed in-flight is always 0).
    pub p2c_watermark: u64,
    /// Background warm-set re-homing; `None` disables it.
    pub rebalance: Option<RebalanceConfig>,
    /// Per-tenant isolation budgets enforced at admission (see
    /// [`crate::tenant`]). The default is unlimited everywhere, which
    /// makes the tenant gate a no-op.
    pub tenant_quotas: TenantQuotas,
}

impl ShardedConfig {
    /// A configuration splitting `total_mem` evenly across `shards`
    /// shards with an unbounded admission queue and load-aware routing
    /// disabled (pure affinity).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn split(total_mem: MemMb, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedConfig {
            shards,
            per_shard: PoolConfig::new(MemMb::new(total_mem.as_mb() / shards as u64)),
            queue_bound: usize::MAX,
            p2c: false,
            p2c_watermark: 2,
            rebalance: None,
            tenant_quotas: TenantQuotas::unlimited(),
        }
    }

    /// Sets the per-shard admission bound.
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = bound;
        self
    }

    /// Sets the per-shard eviction batch threshold.
    pub fn with_eviction_batch(mut self, batch: MemMb) -> Self {
        self.per_shard = self.per_shard.with_eviction_batch(batch);
        self
    }

    /// Enables power-of-two-choices admission with the given in-flight
    /// watermark.
    pub fn with_p2c(mut self, watermark: u64) -> Self {
        self.p2c = true;
        self.p2c_watermark = watermark;
        self
    }

    /// Enables background warm-set re-homing.
    pub fn with_rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = Some(rebalance);
        self
    }

    /// Sets the per-tenant isolation budgets.
    pub fn with_tenant_quotas(mut self, quotas: TenantQuotas) -> Self {
        self.tenant_quotas = quotas;
        self
    }
}

/// A point-in-time snapshot of one shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The shard pool's lifetime counters.
    pub counters: PoolCounters,
    /// Requests rejected at this shard's admission gate.
    pub rejected: u64,
    /// Requests currently admitted but unfinished.
    pub in_flight: u64,
    /// Memory held by the shard's containers.
    pub used_mem: MemMb,
    /// Idle (warm) containers resident on the shard.
    pub warm_containers: usize,
}

/// A lock-free point-in-time load snapshot of one shard: everything the
/// router and the rebalancer read is an atomic, so snapshotting never
/// contends with request service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Admitted-but-unfinished requests.
    pub in_flight: u64,
    /// Admission-queue occupancy. Service is synchronous, so every
    /// admitted request is being served and the queue depth equals
    /// [`Self::in_flight`]; kept as its own field so an asynchronous
    /// executor can diverge without an API change.
    pub queue_depth: u64,
    /// Memory committed to idle (warm) containers, in MB. Refreshed on
    /// every pool operation, so transiently stale by at most one request.
    pub warm_mem_mb: u64,
    /// Requests served since the last rebalance tick reset the window.
    pub window_served: u64,
}

/// One warm-set migration performed by [`ShardedInvoker::rebalance_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalanceEvent {
    /// The re-homed function.
    pub function: FunctionId,
    /// The overloaded source shard.
    pub from: usize,
    /// The destination (coldest) shard now published as the function's
    /// route override.
    pub to: usize,
    /// Warm containers that moved.
    pub moved: usize,
    /// Idle containers that did not fit on the destination and were
    /// re-adopted by the source (running containers are not counted; they
    /// stay put regardless).
    pub left_behind: usize,
}

/// Aggregated counters across every shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvokerStats {
    /// Invocations served warm.
    pub warm: u64,
    /// Invocations served cold.
    pub cold: u64,
    /// Invocations dropped by a pool for lack of memory.
    pub dropped: u64,
    /// Invocations rejected at admission (backpressure or drain).
    pub rejected: u64,
    /// Invocations throttled at admission by a tenant budget.
    pub throttled: u64,
    /// Containers evicted across shards.
    pub evictions: u64,
    /// Containers prewarmed across shards.
    pub prewarms: u64,
    /// Warm-set migrations performed by the rebalancer.
    pub migrations: u64,
}

impl InvokerStats {
    /// Invocations served (warm + cold).
    pub fn served(&self) -> u64 {
        self.warm + self.cold
    }

    /// Every request that received a definite outcome.
    pub fn accounted(&self) -> u64 {
        self.warm + self.cold + self.dropped + self.rejected + self.throttled
    }
}

#[derive(Debug)]
struct Shard {
    pool: Mutex<ContainerPool>,
    /// Monotone virtual clock in microseconds.
    clock_us: AtomicU64,
    /// Admitted-but-unfinished requests (the admission "queue" occupancy:
    /// service is synchronous, so admitted requests are being served).
    in_flight: AtomicU64,
    /// Requests turned away at the admission gate.
    rejected: AtomicU64,
    /// Idle (warm) memory in MB, mirrored out of the pool after every
    /// locked operation so load snapshots never take the pool lock.
    warm_mem_mb: AtomicU64,
    /// Requests served since the last rebalance tick (the tick window).
    window_served: AtomicU64,
    /// Per-function served counts for the current tick window — the
    /// rebalancer's hotness signal. Only maintained when re-homing is
    /// enabled.
    recent: Mutex<HashMap<FunctionId, u64>>,
}

impl Shard {
    fn advance(&self, at: SimTime) -> SimTime {
        let proposed = at.as_micros();
        let clock = self
            .clock_us
            .fetch_max(proposed, Ordering::AcqRel)
            .max(proposed);
        SimTime::from_micros(clock)
    }
}

/// Per-shard overload streak lengths, updated once per rebalance tick.
#[derive(Debug)]
struct RebalanceState {
    streaks: Vec<u32>,
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Shard>,
    queue_bound: u64,
    draining: AtomicBool,
    p2c: bool,
    p2c_watermark: u64,
    rebalance: Option<RebalanceConfig>,
    /// Published route overrides: functions whose warm set was re-homed
    /// off their hash home. Read on every routed invocation, written only
    /// by the (serialized) rebalancer.
    overrides: RwLock<HashMap<FunctionId, usize>>,
    /// Warm-set migrations performed.
    migrations: AtomicU64,
    rebalancer: Mutex<RebalanceState>,
    /// Per-tenant accounting and budget enforcement, shared with every
    /// shard pool as its [`faascache_core::pool::TenantLedger`].
    tenants: Arc<TenantTable>,
}

/// Decrements a shard's in-flight counter on drop, however the
/// invocation ends — normal return or unwind.
struct AdmissionSlot<'a>(&'a AtomicU64);

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A multi-shard concurrency-safe invoker.
///
/// Cloning is cheap (shared handle). Invocations carry explicit virtual
/// timestamps; each shard enforces a monotone clock, so racing threads
/// cannot move a shard's time backwards.
///
/// # Examples
///
/// ```
/// use faascache_core::function::FunctionRegistry;
/// use faascache_core::policy::PolicyKind;
/// use faascache_platform::sharded::{InvokeOutcome, ShardedConfig, ShardedInvoker};
/// use faascache_util::{MemMb, SimDuration, SimTime};
///
/// let mut reg = FunctionRegistry::new();
/// let f = reg.register("f", MemMb::new(64), SimDuration::from_millis(5),
///                      SimDuration::from_millis(50))?;
/// let inv = ShardedInvoker::with_kind(
///     ShardedConfig::split(MemMb::from_gb(1), 4),
///     PolicyKind::GreedyDual,
/// );
/// assert_eq!(inv.invoke(reg.spec(f), SimTime::ZERO), InvokeOutcome::Cold);
/// assert_eq!(inv.invoke(reg.spec(f), SimTime::from_secs(1)), InvokeOutcome::Warm);
/// # Ok::<(), faascache_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedInvoker {
    inner: Arc<Inner>,
}

impl ShardedInvoker {
    /// Creates an invoker from a configuration and one policy per shard.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0` or `policies.len() != config.shards`.
    pub fn new(config: ShardedConfig, policies: Vec<Box<dyn KeepAlivePolicy>>) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert_eq!(
            policies.len(),
            config.shards,
            "one policy instance per shard"
        );
        let tenants = Arc::new(TenantTable::new(config.tenant_quotas.clone()));
        let shards: Vec<Shard> = policies
            .into_iter()
            .map(|mut policy| {
                // Every shard's policy shares one weight table, so an
                // over-budget tenant is deprioritized fleet-wide, and
                // every pool reports memory changes to one ledger, so
                // tenant accounting is exact across migrations.
                policy.set_tenant_weights(tenants.weights());
                Shard {
                    pool: Mutex::new(ContainerPool::with_config_and_ledger(
                        config.per_shard,
                        policy,
                        tenants.clone(),
                    )),
                    clock_us: AtomicU64::new(0),
                    in_flight: AtomicU64::new(0),
                    rejected: AtomicU64::new(0),
                    warm_mem_mb: AtomicU64::new(0),
                    window_served: AtomicU64::new(0),
                    recent: Mutex::new(HashMap::new()),
                }
            })
            .collect();
        let streaks = vec![0; shards.len()];
        ShardedInvoker {
            inner: Arc::new(Inner {
                shards,
                queue_bound: config.queue_bound as u64,
                draining: AtomicBool::new(false),
                p2c: config.p2c,
                p2c_watermark: config.p2c_watermark,
                rebalance: config.rebalance,
                overrides: RwLock::new(HashMap::new()),
                migrations: AtomicU64::new(0),
                rebalancer: Mutex::new(RebalanceState { streaks }),
                tenants,
            }),
        }
    }

    /// Creates an invoker with a fresh policy of `kind` on every shard.
    pub fn with_kind(config: ShardedConfig, kind: PolicyKind) -> Self {
        let policies = (0..config.shards).map(|_| kind.build()).collect();
        Self::new(config, policies)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The home shard of a function (stable affinity routing), ignoring
    /// route overrides and load.
    pub fn shard_of(&self, function: FunctionId) -> usize {
        route::shard_for(function.index() as u64, self.inner.shards.len())
    }

    /// The function's published route override, if the rebalancer has
    /// re-homed its warm set off the hash home.
    pub fn route_override(&self, function: FunctionId) -> Option<usize> {
        self.inner
            .overrides
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&function)
            .copied()
    }

    /// The shard an invocation of `function` is admitted to *right now*.
    ///
    /// The preferred shard is the published override (the warm set lives
    /// there) or else the hash home. With power-of-two-choices enabled,
    /// when the preferred shard's in-flight count is above the watermark
    /// the request spills to the less-loaded of the two candidates; ties
    /// keep it on the preferred shard, preserving warm affinity.
    pub fn route_of(&self, function: FunctionId) -> usize {
        let n = self.inner.shards.len();
        if n == 1 {
            return 0;
        }
        let idx = function.index() as u64;
        let home = route::shard_for(idx, n);
        let pinned = self.route_override(function).unwrap_or(home);
        if !self.inner.p2c {
            return pinned;
        }
        // The second candidate: the seeded alternate — or, once an
        // override moved the function away from its hash home, the home
        // itself (stragglers of the warm set may still live there).
        let alt = if pinned == home {
            route::alt_shard_for(idx, n)
        } else {
            home
        };
        let pinned_load = self.inner.shards[pinned].in_flight.load(Ordering::Acquire);
        if pinned_load <= self.inner.p2c_watermark {
            return pinned;
        }
        let alt_load = self.inner.shards[alt].in_flight.load(Ordering::Acquire);
        if alt_load < pinned_load {
            alt
        } else {
            pinned
        }
    }

    /// Invokes `spec` at virtual time `at` on its routed shard and
    /// synchronously completes the invocation.
    ///
    /// Admission is gated in a fixed order: a draining invoker rejects;
    /// then the function's *tenant* budgets are checked (over-budget
    /// tenants are throttled — see [`crate::tenant`]); then the shard's
    /// bounded queue rejects on backpressure. A throttled request never
    /// consumes a shard admission slot and never touches the pool.
    pub fn invoke(&self, spec: &FunctionSpec, at: SimTime) -> InvokeOutcome {
        let shard = &self.inner.shards[self.route_of(spec.id())];
        if self.inner.draining.load(Ordering::Acquire) {
            shard.rejected.fetch_add(1, Ordering::Relaxed);
            return InvokeOutcome::Rejected;
        }
        // RAII brackets: both the tenant slot and the shard admission
        // slot are released even if the handler aborts (a policy panic
        // unwinding through `serve`), so `await_quiesce` can never wedge
        // on a leaked in-flight count and no tenant counter can leak.
        let Some(_tenant_slot) = self
            .inner
            .tenants
            .try_admit(spec.tenant().index() as u32, spec.tenant_name())
        else {
            return InvokeOutcome::Throttled;
        };
        if !self.try_admit(shard) {
            shard.rejected.fetch_add(1, Ordering::Relaxed);
            return InvokeOutcome::Rejected;
        }
        let _slot = AdmissionSlot(&shard.in_flight);
        let outcome = Self::serve(shard, spec, at);
        if outcome.is_served() {
            self.inner
                .tenants
                .record_served(spec.tenant().index() as u32);
            shard.window_served.fetch_add(1, Ordering::AcqRel);
            if self.inner.rebalance.is_some() {
                *lock(&shard.recent).entry(spec.id()).or_insert(0) += 1;
            }
        }
        outcome
    }

    fn try_admit(&self, shard: &Shard) -> bool {
        let bound = self.inner.queue_bound;
        let mut cur = shard.in_flight.load(Ordering::Acquire);
        loop {
            if cur >= bound {
                return false;
            }
            match shard.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => cur = observed,
            }
        }
    }

    fn serve(shard: &Shard, spec: &FunctionSpec, at: SimTime) -> InvokeOutcome {
        let now = shard.advance(at);
        let mut pool = lock(&shard.pool);
        let served = match pool.acquire(spec, now) {
            Acquire::Warm { container } => {
                let finish = now + spec.warm_time();
                pool.release(container, finish);
                Some((finish, InvokeOutcome::Warm))
            }
            Acquire::Cold { container, .. } => {
                let finish = now + spec.cold_time();
                pool.release(container, finish);
                Some((finish, InvokeOutcome::Cold))
            }
            // Evictions may have happened even on the drop path, so the
            // warm-memory mirror is refreshed on every branch.
            Acquire::NoCapacity => None,
        };
        shard
            .warm_mem_mb
            .store(pool.warm_mem().as_mb(), Ordering::Release);
        drop(pool);
        match served {
            Some((finish, outcome)) => {
                shard.advance(finish);
                outcome
            }
            None => InvokeOutcome::Dropped,
        }
    }

    /// Applies TTL-style expiry on one shard at virtual time `at`;
    /// returns the number of containers reaped.
    ///
    /// The daemon runs one wall-clock reaper thread per shard, each
    /// calling this for its own shard so reaping never serializes the
    /// whole invoker.
    pub fn reap_shard(&self, shard: usize, at: SimTime) -> usize {
        let s = &self.inner.shards[shard];
        let now = s.advance(at);
        let mut pool = lock(&s.pool);
        let reaped = pool.reap(now).len();
        s.warm_mem_mb
            .store(pool.warm_mem().as_mb(), Ordering::Release);
        reaped
    }

    /// Applies TTL-style expiry on every shard; returns the total reaped.
    pub fn reap(&self, at: SimTime) -> usize {
        (0..self.num_shards()).map(|i| self.reap_shard(i, at)).sum()
    }

    /// Starts draining: every subsequent invocation is rejected while
    /// requests already admitted run to completion.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// Whether the invoker is draining.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Blocks until no shard has an in-flight request, or `timeout`
    /// elapses. Returns `true` when fully quiesced.
    ///
    /// Usually preceded by [`Self::begin_drain`]; without it new arrivals
    /// can keep the invoker busy indefinitely.
    pub fn await_quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.in_flight() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Begins draining and waits for in-flight requests to finish.
    /// Returns `true` when fully quiesced within `timeout`.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.begin_drain();
        self.await_quiesce(timeout)
    }

    /// Total admitted-but-unfinished requests across shards.
    pub fn in_flight(&self) -> u64 {
        self.inner
            .shards
            .iter()
            .map(|s| s.in_flight.load(Ordering::Acquire))
            .sum()
    }

    /// Aggregated lifetime pool counters across shards.
    pub fn pool_counters(&self) -> PoolCounters {
        let mut total = PoolCounters::default();
        for s in &self.inner.shards {
            let c = lock(&s.pool).counters();
            total.warm_starts += c.warm_starts;
            total.cold_starts += c.cold_starts;
            total.drops += c.drops;
            total.evictions += c.evictions;
            total.prewarms += c.prewarms;
        }
        total
    }

    /// Aggregated invoker statistics (pool counters + admission
    /// rejections).
    pub fn stats(&self) -> InvokerStats {
        let c = self.pool_counters();
        InvokerStats {
            warm: c.warm_starts,
            cold: c.cold_starts,
            dropped: c.drops,
            rejected: self
                .inner
                .shards
                .iter()
                .map(|s| s.rejected.load(Ordering::Acquire))
                .sum(),
            throttled: self.inner.tenants.total_throttled(),
            evictions: c.evictions,
            prewarms: c.prewarms,
            migrations: self.inner.migrations.load(Ordering::Acquire),
        }
    }

    /// Per-tenant accounting snapshots (tenants seen at least once), in
    /// tenant-index order. Lock-free.
    pub fn tenant_snapshots(&self) -> Vec<TenantSnapshot> {
        self.inner.tenants.snapshots()
    }

    /// Updates a tenant's admission budget at runtime (see
    /// [`TenantTable::set_quota`]): stored for tenants not yet seen,
    /// applied immediately — limits and eviction weight — for tenants
    /// with a live accounting slot. Returns `true` when a live slot was
    /// updated.
    pub fn set_tenant_quota(&self, name: &str, quota: crate::tenant::TenantQuota) -> bool {
        self.inner.tenants.set_quota(name, quota)
    }

    /// A point-in-time clone of the tenant quota configuration
    /// (boot-time flags plus every runtime update), for durability
    /// snapshots.
    pub fn tenant_quotas(&self) -> TenantQuotas {
        self.inner.tenants.quotas_snapshot()
    }

    /// Warm-set migrations performed by the rebalancer.
    pub fn migrations(&self) -> u64 {
        self.inner.migrations.load(Ordering::Acquire)
    }

    /// Lock-free load snapshot of one shard.
    pub fn load(&self, shard: usize) -> ShardLoad {
        let s = &self.inner.shards[shard];
        let in_flight = s.in_flight.load(Ordering::Acquire);
        ShardLoad {
            shard,
            in_flight,
            queue_depth: in_flight,
            warm_mem_mb: s.warm_mem_mb.load(Ordering::Acquire),
            window_served: s.window_served.load(Ordering::Acquire),
        }
    }

    /// Lock-free load snapshots of every shard, in shard order.
    pub fn loads(&self) -> Vec<ShardLoad> {
        (0..self.num_shards()).map(|i| self.load(i)).collect()
    }

    /// One step of background warm-set re-homing, meant to run on the
    /// reaper cadence. Returns the migration performed, if any.
    ///
    /// Each call closes one observation window: per-shard served counts
    /// since the previous tick. A shard whose window exceeds the fleet
    /// mean by the configured factor grows an overload streak; once a
    /// streak reaches the configured tick count, the hottest function
    /// still routed to that shard has its idle warm containers migrated
    /// to the coldest shard and a route override published so subsequent
    /// invocations follow the warm set. All selection tie-breaks are
    /// deterministic (highest served → lowest shard index; highest
    /// per-function count → lowest function id), so identical histories
    /// rebalance identically.
    ///
    /// The migration itself holds both pool locks (acquired in ascending
    /// shard order — the rebalancer is the only multi-lock path, so lock
    /// ordering is trivially deadlock-free) and never evicts on the
    /// destination: containers that do not fit are re-adopted by the
    /// source. No counter of either pool is disturbed — a moved warm set
    /// is not an eviction — so the conservation invariant
    /// `warm + cold + dropped + rejected == requests` is unaffected.
    ///
    /// Returns `None` when re-homing is disabled, the fleet is balanced,
    /// a streak has not matured, or nothing migratable was found.
    pub fn rebalance_tick(&self, at: SimTime) -> Option<RebalanceEvent> {
        let cfg = self.inner.rebalance?;
        let n = self.inner.shards.len();
        if n < 2 {
            return None;
        }
        // Serializes concurrent ticks; nothing else takes this lock.
        let mut state = lock(&self.inner.rebalancer);
        let served: Vec<u64> = self
            .inner
            .shards
            .iter()
            .map(|s| s.window_served.swap(0, Ordering::AcqRel))
            .collect();
        let recent: Vec<HashMap<FunctionId, u64>> = self
            .inner
            .shards
            .iter()
            .map(|s| std::mem::take(&mut *lock(&s.recent)))
            .collect();
        let total: u64 = served.iter().sum();
        if total == 0 {
            state.streaks.iter_mut().for_each(|s| *s = 0);
            return None;
        }
        let mean = total as f64 / n as f64;
        for (i, &count) in served.iter().enumerate() {
            if count as f64 > cfg.factor * mean {
                state.streaks[i] = state.streaks[i].saturating_add(1);
            } else {
                state.streaks[i] = 0;
            }
        }
        let hot = (0..n)
            .filter(|&i| state.streaks[i] >= cfg.ticks)
            .max_by_key(|&i| (served[i], std::cmp::Reverse(i)))?;
        let cold = (0..n)
            .filter(|&i| i != hot)
            .min_by_key(|&i| {
                (
                    served[i],
                    self.inner.shards[i].warm_mem_mb.load(Ordering::Acquire),
                    i,
                )
            })
            .expect("n >= 2");
        // Candidate functions by window count (desc), ties toward the
        // lowest id. Only functions still pinned to the hot shard are
        // eligible — a function whose traffic already routes elsewhere
        // would leave its migrated warm set unreachable.
        let mut by_fn: Vec<(FunctionId, u64)> = recent[hot].iter().map(|(&f, &c)| (f, c)).collect();
        by_fn.sort_by_key(|&(f, c)| (std::cmp::Reverse(c), f));
        let pinned_here: Vec<FunctionId> = by_fn
            .iter()
            .map(|&(f, _)| f)
            .filter(|&f| self.route_override(f).unwrap_or_else(|| self.shard_of(f)) == hot)
            .collect();
        // Advance both shard clocks to a common migration time.
        let now = self.inner.shards[hot].advance(at);
        let now = self.inner.shards[cold].advance(now);
        let (lo, hi) = (hot.min(cold), hot.max(cold));
        let mut guard_lo = lock(&self.inner.shards[lo].pool);
        let mut guard_hi = lock(&self.inner.shards[hi].pool);
        let (src, dst) = if hot == lo {
            (&mut *guard_lo, &mut *guard_hi)
        } else {
            (&mut *guard_hi, &mut *guard_lo)
        };
        let Some(function) = pinned_here.into_iter().find(|&f| src.warm_count_of(f) > 0) else {
            // Nothing migratable this window (hot traffic may be running,
            // not idle): restart the streak rather than thrash.
            drop(guard_hi);
            drop(guard_lo);
            state.streaks[hot] = 0;
            return None;
        };
        let mut moved = 0usize;
        let mut left_behind = 0usize;
        for container in src.extract_idle_of(function, now) {
            match dst.adopt(container, now) {
                Ok(_) => moved += 1,
                Err(back) => {
                    src.adopt(back, now)
                        .expect("the source freed this memory moments ago");
                    left_behind += 1;
                }
            }
        }
        self.inner.shards[hot]
            .warm_mem_mb
            .store(src.warm_mem().as_mb(), Ordering::Release);
        self.inner.shards[cold]
            .warm_mem_mb
            .store(dst.warm_mem().as_mb(), Ordering::Release);
        drop(guard_hi);
        drop(guard_lo);
        if moved == 0 {
            // Nothing actually re-homed (destination full): leave the
            // route alone so requests keep hitting the warm set in place.
            state.streaks[hot] = 0;
            return None;
        }
        {
            let mut overrides = self
                .inner
                .overrides
                .write()
                .unwrap_or_else(|e| e.into_inner());
            if cold == self.shard_of(function) {
                // Moved back to its hash home: the override retires.
                overrides.remove(&function);
            } else {
                overrides.insert(function, cold);
            }
        }
        self.inner.migrations.fetch_add(1, Ordering::AcqRel);
        state.streaks[hot] = 0;
        Some(RebalanceEvent {
            function,
            from: hot,
            to: cold,
            moved,
            left_behind,
        })
    }

    /// The warm (idle) containers resident on one shard, as
    /// `(function, last_used)` pairs in sorted order — a diagnostic view
    /// for tests and tooling that need to check warm-set placement and
    /// history (e.g. that migration preserved both), not just counts.
    pub fn warm_set(&self, shard: usize) -> Vec<(FunctionId, SimTime)> {
        let pool = lock(&self.inner.shards[shard].pool);
        let mut set: Vec<(FunctionId, SimTime)> = pool
            .idle_ids()
            .map(|id| {
                let c = pool.container(id).expect("idle ids are resident");
                (c.function(), c.last_used())
            })
            .collect();
        set.sort_unstable();
        set
    }

    /// Per-shard snapshots, in shard order.
    pub fn per_shard(&self) -> Vec<ShardStats> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let pool = lock(&s.pool);
                ShardStats {
                    shard: i,
                    counters: pool.counters(),
                    rejected: s.rejected.load(Ordering::Acquire),
                    in_flight: s.in_flight.load(Ordering::Acquire),
                    used_mem: pool.used_mem(),
                    warm_containers: pool.warm_count(),
                }
            })
            .collect()
    }

    /// Memory held by containers across every shard.
    pub fn used_mem(&self) -> MemMb {
        self.inner
            .shards
            .iter()
            .map(|s| lock(&s.pool).used_mem())
            .sum()
    }

    /// Total memory capacity across every shard.
    pub fn capacity(&self) -> MemMb {
        self.inner
            .shards
            .iter()
            .map(|s| lock(&s.pool).capacity())
            .sum()
    }

    /// The most advanced shard clock — a monotone upper bound on every
    /// shard's virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(
            self.inner
                .shards
                .iter()
                .map(|s| s.clock_us.load(Ordering::Acquire))
                .max()
                .unwrap_or(0),
        )
    }
}

/// Locks `m`, recovering the guard if a holder panicked, as the tenant
/// table and the router do: one aborted invocation must not wedge its
/// shard for every later one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_core::function::FunctionRegistry;
    use faascache_util::SimDuration;

    fn registry(n: usize) -> FunctionRegistry {
        let mut reg = FunctionRegistry::new();
        for i in 0..n {
            reg.register(
                format!("f{i}"),
                MemMb::new(64),
                SimDuration::from_millis(5),
                SimDuration::from_millis(50),
            )
            .unwrap();
        }
        reg
    }

    #[test]
    fn warm_after_cold_per_function() {
        let reg = registry(16);
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(2), 4),
            PolicyKind::GreedyDual,
        );
        for spec in reg.iter() {
            assert_eq!(inv.invoke(spec, SimTime::ZERO), InvokeOutcome::Cold);
        }
        for spec in reg.iter() {
            assert_eq!(inv.invoke(spec, SimTime::from_secs(1)), InvokeOutcome::Warm);
        }
        let stats = inv.stats();
        assert_eq!(stats.warm, 16);
        assert_eq!(stats.cold, 16);
        assert_eq!(stats.rejected, 0);
        // The virtual clock is monotone: an "earlier" invocation from a
        // racing thread cannot rewind it.
        let spec = reg.iter().next().unwrap();
        inv.invoke(spec, SimTime::from_secs(100));
        inv.invoke(spec, SimTime::from_secs(2));
        assert!(inv.now() >= SimTime::from_secs(100));
    }

    #[test]
    fn tenant_mem_budget_throttles_only_the_offender() {
        use crate::tenant::{TenantQuota, TenantQuotas};
        let mut reg = FunctionRegistry::new();
        let hog = reg
            .register_in(
                "hog",
                MemMb::new(256),
                SimDuration::from_millis(5),
                SimDuration::from_millis(50),
                "greedy",
            )
            .unwrap();
        let bystander = reg
            .register_in(
                "bystander",
                MemMb::new(64),
                SimDuration::from_millis(5),
                SimDuration::from_millis(50),
                "victim",
            )
            .unwrap();
        let mut quotas = TenantQuotas::unlimited();
        quotas.set("greedy", TenantQuota::parse("mem=256").unwrap());
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(2), 1).with_tenant_quotas(quotas),
            PolicyKind::GreedyDual,
        );
        // First hog invocation cold-starts a 256 MB container, putting the
        // tenant exactly at its budget; the next one is throttled, not
        // rejected, and the other tenant is untouched.
        assert_eq!(
            inv.invoke(reg.spec(hog), SimTime::ZERO),
            InvokeOutcome::Cold
        );
        assert_eq!(
            inv.invoke(reg.spec(hog), SimTime::from_secs(1)),
            InvokeOutcome::Throttled
        );
        assert_eq!(
            inv.invoke(reg.spec(bystander), SimTime::from_secs(1)),
            InvokeOutcome::Cold
        );
        let stats = inv.stats();
        assert_eq!(stats.throttled, 1);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.accounted(), 3);
        let snaps = inv.tenant_snapshots();
        let greedy = snaps.iter().find(|s| s.name == "greedy").unwrap();
        assert_eq!(greedy.throttled, 1);
        assert_eq!(greedy.mem_mb, 256);
        assert_eq!(greedy.mem_limit_mb, 256);
        let victim = snaps.iter().find(|s| s.name == "victim").unwrap();
        assert_eq!(victim.throttled, 0);
        assert_eq!(victim.mem_mb, 64);
    }

    #[test]
    fn a_runtime_quota_cut_alone_makes_the_tenant_the_victim() {
        // The one sequence where only the eviction weight protects the
        // other tenant: the admission memory check never fires, because
        // the tenant that cold-starts is under budget and the one that
        // fills the pool was under budget while it filled it.
        use crate::tenant::TenantQuota;
        let mut reg = FunctionRegistry::new();
        let mut register = |name: String, cold_ms: u64, tenant: &str| {
            reg.register_in(
                name,
                MemMb::new(64),
                SimDuration::from_millis(5),
                SimDuration::from_millis(cold_ms),
                tenant,
            )
            .unwrap()
        };
        // Unweighted, an `a` container (0.195 s / 64 MB) outranks `b`'s
        // (0.045 s / 64 MB); at weight 8 it ranks below.
        let a: Vec<_> = (0..7)
            .map(|i| register(format!("a{i}"), 200, "a"))
            .collect();
        let b_old = register("b-old".into(), 50, "b");
        let b_new = register("b-new".into(), 50, "b");
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::new(512), 1),
            PolicyKind::GreedyDual,
        );
        let mut t = 0;
        let mut at = || {
            t += 1;
            SimTime::from_secs(t)
        };
        assert_eq!(inv.invoke(reg.spec(b_old), at()), InvokeOutcome::Cold);
        for &f in &a {
            assert_eq!(inv.invoke(reg.spec(f), at()), InvokeOutcome::Cold);
        }
        assert_eq!(inv.stats().evictions, 0, "exactly full");

        // `a` holds 448 MB; its new budget is 256 MB.
        assert!(inv.set_tenant_quota("a", TenantQuota::parse("mem=256").unwrap()));
        assert_eq!(inv.invoke(reg.spec(b_new), at()), InvokeOutcome::Cold);
        assert_eq!(inv.stats().evictions, 1);
        let mem_of = |name: &str| {
            let snaps = inv.tenant_snapshots();
            snaps.iter().find(|s| s.name == name).unwrap().mem_mb
        };
        assert_eq!(mem_of("a"), 384, "the over-budget tenant paid");
        assert_eq!(mem_of("b"), 128);
        assert_eq!(inv.invoke(reg.spec(b_old), at()), InvokeOutcome::Warm);
        assert_eq!(inv.stats().throttled, 0);
    }

    #[test]
    fn tenant_inflight_budget_is_released_after_service() {
        use crate::tenant::{TenantQuota, TenantQuotas};
        let mut reg = FunctionRegistry::new();
        let f = reg
            .register_in(
                "f",
                MemMb::new(64),
                SimDuration::from_millis(5),
                SimDuration::from_millis(50),
                "capped",
            )
            .unwrap();
        let mut quotas = TenantQuotas::unlimited();
        quotas.set("capped", TenantQuota::parse("inflight=1").unwrap());
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(1), 1).with_tenant_quotas(quotas),
            PolicyKind::GreedyDual,
        );
        // Service is synchronous, so sequential invocations each hold the
        // single in-flight slot only while being served — none throttles.
        for i in 0..8u64 {
            assert!(inv.invoke(reg.spec(f), SimTime::from_secs(i)).is_served());
        }
        assert_eq!(inv.stats().throttled, 0);
        let snaps = inv.tenant_snapshots();
        let snap = snaps.iter().find(|s| s.name == "capped").unwrap();
        assert_eq!(snap.index, 1, "interned after the default tenant");
        assert_eq!(snap.in_flight, 0, "slots all released");
        assert_eq!(snap.served, 8);
        assert_eq!(snap.inflight_limit, 1);
    }

    #[test]
    fn routing_is_stable_and_matches_shard_of() {
        let reg = registry(64);
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(4), 8),
            PolicyKind::GreedyDual,
        );
        for spec in reg.iter() {
            inv.invoke(spec, SimTime::ZERO);
        }
        // Each function's containers live exactly on its home shard.
        let per_shard = inv.per_shard();
        let mut expected = vec![0u64; 8];
        for spec in reg.iter() {
            expected[inv.shard_of(spec.id())] += 1;
        }
        for (s, &e) in per_shard.iter().zip(&expected) {
            assert_eq!(s.counters.cold_starts, e, "shard {}", s.shard);
        }
    }

    #[test]
    fn bounded_queue_rejects_under_pressure() {
        // queue_bound = 0: every request is backpressured away.
        let reg = registry(4);
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(1), 2).with_queue_bound(0),
            PolicyKind::GreedyDual,
        );
        let spec = reg.iter().next().unwrap();
        assert_eq!(inv.invoke(spec, SimTime::ZERO), InvokeOutcome::Rejected);
        assert_eq!(inv.stats().rejected, 1);
        assert_eq!(inv.stats().served(), 0);
    }

    #[test]
    fn drain_rejects_new_work_and_quiesces() {
        let reg = registry(4);
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(1), 2),
            PolicyKind::GreedyDual,
        );
        let spec = reg.iter().next().unwrap();
        assert_eq!(inv.invoke(spec, SimTime::ZERO), InvokeOutcome::Cold);
        assert!(inv.drain(Duration::from_secs(1)));
        assert!(inv.is_draining());
        assert_eq!(
            inv.invoke(spec, SimTime::from_secs(1)),
            InvokeOutcome::Rejected
        );
        let stats = inv.stats();
        assert_eq!(stats.cold, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.accounted(), 2);
    }

    #[test]
    fn reap_per_shard_clears_expired_containers() {
        use faascache_core::policy::Ttl;
        let reg = registry(8);
        let config = ShardedConfig::split(MemMb::from_gb(1), 4);
        let policies = (0..4)
            .map(|_| Box::new(Ttl::new(SimDuration::from_mins(1))) as Box<dyn KeepAlivePolicy>)
            .collect();
        let inv = ShardedInvoker::new(config, policies);
        for spec in reg.iter() {
            inv.invoke(spec, SimTime::ZERO);
        }
        assert_eq!(inv.reap(SimTime::from_secs(30)), 0);
        assert_eq!(inv.reap(SimTime::from_mins(5)), 8);
        assert_eq!(inv.used_mem(), MemMb::ZERO);
    }

    #[test]
    fn aborted_handler_releases_its_admission_slot() {
        use faascache_core::container::Container;

        /// A policy that aborts the invocation mid-handling.
        #[derive(Debug)]
        struct PanickingPolicy;

        impl KeepAlivePolicy for PanickingPolicy {
            fn name(&self) -> &'static str {
                "PANIC"
            }

            fn on_warm_start(&mut self, _c: &Container, _now: SimTime) {}

            fn on_container_created(&mut self, _c: &Container, _now: SimTime, _prewarm: bool) {
                panic!("injected policy abort");
            }

            fn on_evicted(&mut self, _c: &Container, _remaining: usize, _now: SimTime) {}
        }

        let reg = registry(1);
        let config = ShardedConfig::split(MemMb::from_gb(1), 1).with_queue_bound(4);
        let inv = ShardedInvoker::new(config, vec![Box::new(PanickingPolicy)]);
        let spec = reg.iter().next().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inv.invoke(spec, SimTime::ZERO)
        }));
        assert!(result.is_err(), "the policy abort must propagate");
        // The admission bracket must have been released on unwind:
        // drain-time quiescence cannot wedge on a leaked slot.
        assert_eq!(inv.in_flight(), 0, "aborted handler leaked its slot");
        assert!(inv.await_quiesce(Duration::from_millis(10)));
    }

    #[test]
    fn p2c_is_a_no_op_for_sequential_callers() {
        // A sequential caller observes in_flight == 0 at routing time, so
        // with any watermark ≥ 0 the preferred shard always wins and p2c
        // changes nothing: same outcomes, same placement as affinity.
        let reg = registry(64);
        let affinity = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(4), 8),
            PolicyKind::GreedyDual,
        );
        let p2c = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(4), 8).with_p2c(2),
            PolicyKind::GreedyDual,
        );
        for spec in reg.iter() {
            assert_eq!(p2c.route_of(spec.id()), p2c.shard_of(spec.id()));
            assert_eq!(
                affinity.invoke(spec, SimTime::ZERO),
                p2c.invoke(spec, SimTime::ZERO)
            );
        }
        assert_eq!(affinity.stats(), p2c.stats());
    }

    #[test]
    fn load_snapshot_tracks_warm_memory_and_window() {
        let reg = registry(8);
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(1), 2),
            PolicyKind::GreedyDual,
        );
        for spec in reg.iter() {
            inv.invoke(spec, SimTime::ZERO);
        }
        let loads = inv.loads();
        assert_eq!(loads.len(), 2);
        let warm_total: u64 = loads.iter().map(|l| l.warm_mem_mb).sum();
        assert_eq!(warm_total, 8 * 64, "8 idle 64 MB containers");
        let window_total: u64 = loads.iter().map(|l| l.window_served).sum();
        assert_eq!(window_total, 8);
        for l in &loads {
            assert_eq!(l.in_flight, 0);
            assert_eq!(l.queue_depth, 0);
        }
    }

    /// Drives a skewed sequential workload until the rebalancer migrates
    /// the hot function's warm set, then checks the override routes
    /// follow-up invocations to the new shard — warm.
    #[test]
    fn rebalance_migrates_hot_warm_set_and_publishes_override() {
        let reg = registry(16);
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(2), 4).with_rebalance(RebalanceConfig {
                factor: 1.5,
                ticks: 2,
            }),
            PolicyKind::GreedyDual,
        );
        let hot = reg.iter().next().unwrap();
        let home = inv.shard_of(hot.id());
        // Two overload windows: the hot function dominates its shard.
        let mut t = 0u64;
        let mut event = None;
        for _tick in 0..4 {
            for _ in 0..32 {
                assert!(inv.invoke(hot, SimTime::from_millis(t)).is_served());
                t += 100;
            }
            // Background traffic keeps other shards nonzero but cool.
            for spec in reg.iter().skip(1).take(6) {
                inv.invoke(spec, SimTime::from_millis(t));
            }
            t += 100;
            if let Some(e) = inv.rebalance_tick(SimTime::from_millis(t)) {
                event = Some(e);
                break;
            }
        }
        let e = event.expect("sustained skew must trigger a migration");
        assert_eq!(e.function, hot.id());
        assert_eq!(e.from, home);
        assert_ne!(e.to, home);
        assert!(e.moved >= 1);
        assert_eq!(inv.route_override(hot.id()), Some(e.to));
        assert_eq!(inv.route_of(hot.id()), e.to);
        assert_eq!(inv.migrations(), 1);
        // The warm set moved, not died: the next invocation is warm, on
        // the destination shard.
        let before = inv.per_shard()[e.to].counters.warm_starts;
        assert!(matches!(
            inv.invoke(hot, SimTime::from_millis(t + 1000)),
            InvokeOutcome::Warm
        ));
        let after = inv.per_shard()[e.to].counters.warm_starts;
        assert_eq!(after, before + 1, "warm start landed on the new home");
        // Conservation: every request got exactly one outcome.
        let stats = inv.stats();
        assert_eq!(
            stats.accounted(),
            stats.served() + stats.dropped + stats.rejected
        );
    }

    #[test]
    fn rebalance_tick_is_quiet_on_balanced_load() {
        let reg = registry(64);
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(4), 4).with_rebalance(RebalanceConfig::default()),
            PolicyKind::GreedyDual,
        );
        for round in 0..6u64 {
            for spec in reg.iter() {
                inv.invoke(spec, SimTime::from_secs(round));
            }
            assert_eq!(
                inv.rebalance_tick(SimTime::from_secs(round) + SimDuration::from_millis(500)),
                None,
                "balanced fleet must not migrate"
            );
        }
        assert_eq!(inv.migrations(), 0);
    }

    #[test]
    fn rebalance_requires_sustained_overload() {
        let reg = registry(16);
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(2), 4).with_rebalance(RebalanceConfig {
                factor: 1.5,
                ticks: 3,
            }),
            PolicyKind::GreedyDual,
        );
        let hot = reg.iter().next().unwrap();
        // One hot window, then a balanced window: the streak resets.
        for _ in 0..32 {
            inv.invoke(hot, SimTime::from_secs(1));
        }
        assert_eq!(
            inv.rebalance_tick(SimTime::from_secs(2)),
            None,
            "tick 1 of 3"
        );
        for spec in reg.iter() {
            inv.invoke(spec, SimTime::from_secs(3));
        }
        assert_eq!(
            inv.rebalance_tick(SimTime::from_secs(4)),
            None,
            "streak reset"
        );
        assert_eq!(inv.route_override(hot.id()), None);
    }

    #[test]
    fn memory_splits_across_shards() {
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(4), 4),
            PolicyKind::GreedyDual,
        );
        assert_eq!(inv.capacity(), MemMb::from_gb(4));
        assert_eq!(inv.num_shards(), 4);
        assert_eq!(inv.used_mem(), MemMb::ZERO);
    }
}
