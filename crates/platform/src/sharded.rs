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
//! requests may be admitted-but-unfinished per shard (an
//! [`InFlightSlot`], the gate a tenant's concurrency budget uses too),
//! and requests beyond the bound are *rejected* with explicit
//! backpressure ([`InvokeOutcome::Rejected`]) rather than queued without
//! limit. Draining ([`ShardedInvoker::begin_drain`]) flips the gate shut
//! everywhere so new arrivals are turned away; waiting for the requests
//! already admitted is the caller's (the `faascached` daemon waits on
//! its own front counter).
//!
//! # Warm-set re-homing
//!
//! A static affinity hash is only as good as its worst shard: one hot
//! function saturates its home shard while the rest idle. Optional
//! re-homing ([`ShardedConfig::with_rebalance`],
//! [`ShardedInvoker::rebalance_tick`]) spreads such skew without giving
//! up warm locality: when a shard's served-per-tick load exceeds the
//! fleet mean by a configurable factor for K consecutive ticks, the
//! hottest function's *idle* warm containers migrate to the coldest shard
//! and a route override is published, so subsequent invocations follow
//! their warm set — moved, not destroyed. Routing stays one rule: a
//! function goes to its override if it has one, else to its affinity
//! home.

use crate::gate::InFlightSlot;
use crate::tenant::{TenantQuotas, TenantSnapshot, TenantTable};
use faascache_core::function::{FunctionId, FunctionRegistry, FunctionSpec};
use faascache_core::policy::{KeepAlivePolicy, PolicyKind};
use faascache_core::pool::{ContainerPool, PoolConfig, PoolCounters};
use faascache_sim::{Invoker, Tally};
use faascache_util::{route, MemMb, SimTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Outcome of an invocation through a concurrency-safe invoker.
///
/// The declaration order is [`InvokeOutcome::ALL`]'s: the binary
/// protocol's outcome code and the order every count lists them in.
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
    /// Every outcome, in declaration order: an outcome's index here is its
    /// binary outcome code and its place in the `Stats` reply, the
    /// summary lines and the `/metrics` outcome series.
    pub const ALL: [InvokeOutcome; 5] = [
        InvokeOutcome::Warm,
        InvokeOutcome::Cold,
        InvokeOutcome::Dropped,
        InvokeOutcome::Rejected,
        InvokeOutcome::Throttled,
    ];

    /// Whether the invocation was actually served (warm or cold).
    pub fn is_served(self) -> bool {
        matches!(self, InvokeOutcome::Warm | InvokeOutcome::Cold)
    }

    /// The outcome's name in summary lines, `/metrics` labels and HTTP
    /// reply bodies.
    pub fn label(self) -> &'static str {
        match self {
            InvokeOutcome::Warm => "warm",
            InvokeOutcome::Cold => "cold",
            InvokeOutcome::Dropped => "dropped",
            InvokeOutcome::Rejected => "rejected",
            InvokeOutcome::Throttled => "throttled",
        }
    }
}

/// How many invocations ended in each [`InvokeOutcome`], indexed by
/// outcome. Built from an array in [`InvokeOutcome::ALL`]'s order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes([u64; 5]);

impl Outcomes {
    /// Counts one invocation that ended in `outcome`.
    pub fn record(&mut self, outcome: InvokeOutcome) {
        self[outcome] += 1;
    }

    /// Invocations served (warm + cold).
    pub fn served(&self) -> u64 {
        self[InvokeOutcome::Warm] + self[InvokeOutcome::Cold]
    }

    /// Every invocation counted, whatever its outcome.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Each outcome with its count, in [`InvokeOutcome::ALL`]'s order.
    pub fn iter(&self) -> impl Iterator<Item = (InvokeOutcome, u64)> {
        InvokeOutcome::ALL.into_iter().zip(self.0)
    }
}

impl From<[u64; 5]> for Outcomes {
    fn from(counts: [u64; 5]) -> Self {
        Outcomes(counts)
    }
}

impl std::ops::Index<InvokeOutcome> for Outcomes {
    type Output = u64;
    fn index(&self, outcome: InvokeOutcome) -> &u64 {
        &self.0[outcome as usize]
    }
}

impl std::ops::IndexMut<InvokeOutcome> for Outcomes {
    fn index_mut(&mut self, outcome: InvokeOutcome) -> &mut u64 {
        &mut self.0[outcome as usize]
    }
}

/// `warm=1 cold=2 dropped=0 rejected=0 throttled=0`: the form the exit
/// summary lines print.
impl std::fmt::Display for Outcomes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (outcome, n)) in self.iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{}={n}", outcome.label())?;
        }
        Ok(())
    }
}

impl std::ops::AddAssign for Outcomes {
    fn add_assign(&mut self, other: Outcomes) {
        for (count, n) in self.0.iter_mut().zip(other.0) {
            *count += n;
        }
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
    /// Background warm-set re-homing; `None` disables it.
    pub rebalance: Option<RebalanceConfig>,
    /// Per-tenant isolation budgets enforced at admission (see
    /// [`crate::tenant`]). The default is unlimited everywhere, which
    /// makes the tenant gate a no-op.
    pub tenant_quotas: TenantQuotas,
}

impl ShardedConfig {
    /// A configuration splitting `total_mem` evenly across `shards`
    /// shards with an unbounded admission queue and re-homing disabled
    /// (pure affinity).
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
    /// What the shard's invoker did: warm, cold and dropped, summed over
    /// its functions ([`Invoker::totals`]).
    pub tally: Tally,
    /// The shard pool's lifetime counters (evictions, pre-warms).
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
    /// Every invocation's outcome: the shards' warm, cold and dropped,
    /// their admission rejections and the tenant throttles.
    pub outcomes: Outcomes,
    /// Containers evicted across shards.
    pub evictions: u64,
    /// Containers prewarmed across shards.
    pub prewarms: u64,
    /// Warm-set migrations performed by the rebalancer.
    pub migrations: u64,
}

/// A shard: the simulator's [`Invoker`] behind one mutex, plus the three
/// atomics the invocation path touches outside that lock.
#[derive(Debug)]
struct Shard {
    invoker: Mutex<Invoker>,
    /// The arrival clock: the latest time the shard was given, in µs.
    clock_us: AtomicU64,
    /// Admitted-but-unfinished requests (the admission "queue" occupancy:
    /// service is synchronous, so admitted requests are being served).
    in_flight: AtomicU64,
    /// Requests turned away at the admission gate.
    rejected: AtomicU64,
}

impl Shard {
    /// Moves the clock up to `at`, never back, and returns it.
    fn advance(&self, at: SimTime) -> SimTime {
        let at = at.as_micros();
        SimTime::from_micros(self.clock_us.fetch_max(at, Ordering::AcqRel).max(at))
    }
}

/// What the rebalancer carries from one tick to the next.
#[derive(Debug)]
struct RebalanceState {
    /// Per-shard overload streak lengths.
    streaks: Vec<u32>,
    /// Per shard, each function's served count in the shard's tally at
    /// the last tick: a tick's window is the change since then.
    served_before: Vec<Vec<u64>>,
}

#[derive(Debug)]
struct Inner {
    shards: Vec<Shard>,
    queue_bound: u64,
    draining: AtomicBool,
    rebalance: Option<RebalanceConfig>,
    /// Published route overrides: functions whose warm set was re-homed
    /// off their hash home. Read on every routed invocation when
    /// re-homing is on, written only by the (serialized) rebalancer.
    overrides: RwLock<HashMap<FunctionId, usize>>,
    /// Warm-set migrations performed.
    migrations: AtomicU64,
    rebalancer: Mutex<RebalanceState>,
    /// Per-tenant accounting and budget enforcement, shared with every
    /// shard pool as its [`faascache_core::pool::TenantLedger`].
    tenants: Arc<TenantTable>,
}

/// A multi-shard concurrency-safe invoker.
///
/// Cloning is cheap (shared handle). Invocations carry explicit virtual
/// timestamps. A shard's clock is the latest time it was given: a
/// request's run time never moves it, and an earlier timestamp from a
/// racing thread is served at the clock instead of moving it back.
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
                let ledger = tenants.clone();
                let pool = ContainerPool::with_config_and_ledger(config.per_shard, policy, ledger);
                Shard {
                    invoker: Mutex::new(Invoker::new(pool, 0)),
                    clock_us: AtomicU64::new(0),
                    in_flight: AtomicU64::new(0),
                    rejected: AtomicU64::new(0),
                }
            })
            .collect();
        let n = shards.len();
        ShardedInvoker {
            inner: Arc::new(Inner {
                shards,
                queue_bound: config.queue_bound as u64,
                draining: AtomicBool::new(false),
                rebalance: config.rebalance,
                overrides: RwLock::new(HashMap::new()),
                migrations: AtomicU64::new(0),
                rebalancer: Mutex::new(RebalanceState {
                    streaks: vec![0; n],
                    served_before: vec![Vec::new(); n],
                }),
                tenants,
            }),
        }
    }

    /// Creates an invoker with a fresh policy of `kind` on every shard.
    pub fn with_kind(config: ShardedConfig, kind: PolicyKind) -> Self {
        let policies = (0..config.shards).map(|_| kind.build()).collect();
        Self::new(config, policies)
    }

    /// The home shard of a function (stable affinity routing), ignoring
    /// route overrides.
    fn shard_of(&self, function: FunctionId) -> usize {
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

    /// The shard an invocation of `function` is admitted to: the
    /// published override (the warm set lives there) or else the hash
    /// home. Only re-homing publishes overrides, so without it the table
    /// is never read.
    fn route_of(&self, function: FunctionId) -> usize {
        if self.inner.shards.len() == 1 {
            return 0;
        }
        let home = self.shard_of(function);
        if self.inner.rebalance.is_none() {
            return home;
        }
        self.route_override(function).unwrap_or(home)
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
        // Both in-flight slots are given back even if the handler aborts
        // (a policy panic unwinding through `serve`), so neither the
        // shard's nor the tenant's count can leak.
        let Some(_tenant_slot) = self
            .inner
            .tenants
            .try_admit(spec.tenant().index() as u32, spec.tenant_name())
        else {
            return InvokeOutcome::Throttled;
        };
        let Some(_slot) = InFlightSlot::take(&shard.in_flight, self.inner.queue_bound) else {
            shard.rejected.fetch_add(1, Ordering::Relaxed);
            return InvokeOutcome::Rejected;
        };
        let outcome = Self::serve(shard, spec, at);
        if outcome.is_served() {
            self.inner
                .tenants
                .record_served(spec.tenant().index() as u32);
        }
        outcome
    }

    /// Serves one admitted invocation under the shard's one lock, at the
    /// shard's clock advanced to `at`. This is the live completion rule:
    /// the reply is known at acquire, so the container is released at
    /// once, stamped with its finish time.
    fn serve(shard: &Shard, spec: &FunctionSpec, at: SimTime) -> InvokeOutcome {
        let now = shard.advance(at);
        let mut invoker = lock(&shard.invoker);
        let Some(run) = invoker.start(spec, now) else {
            invoker.drop_request(spec.id());
            return InvokeOutcome::Dropped;
        };
        invoker.release(run.container, run.finish);
        if run.cold {
            InvokeOutcome::Cold
        } else {
            InvokeOutcome::Warm
        }
    }

    /// One housekeeping tick on every shard in turn, at that shard's clock
    /// advanced to `at`: [`Invoker::housekeep`], the tick every simulated
    /// pool runs (TTL reaping, then the pre-warms the policy asks for,
    /// specs from `registry`). Holds one shard's lock at a time, so it
    /// never serializes the whole invoker. Returns the total reaped.
    pub fn housekeep(&self, registry: &FunctionRegistry, at: SimTime) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| {
                let now = s.advance(at);
                lock(&s.invoker).housekeep(registry, now)
            })
            .sum()
    }

    /// Starts draining: every subsequent invocation is rejected while
    /// requests already admitted run to completion. Waiting for them is
    /// the caller's: the daemon waits on its own front counter.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// Aggregated invoker statistics: every shard's outcome totals, pool
    /// counters and admission rejections, the tenant throttles and the
    /// re-homing migrations.
    pub fn stats(&self) -> InvokerStats {
        let mut stats = InvokerStats {
            migrations: self.inner.migrations.load(Ordering::Acquire),
            ..InvokerStats::default()
        };
        stats.outcomes[InvokeOutcome::Throttled] = self.inner.tenants.total_throttled();
        for s in &self.inner.shards {
            let invoker = lock(&s.invoker);
            let (t, c) = (invoker.totals(), invoker.pool().counters());
            let rejected = s.rejected.load(Ordering::Acquire);
            stats.outcomes += Outcomes::from([t.warm, t.cold, t.dropped, rejected, 0]);
            stats.evictions += c.evictions;
            stats.prewarms += c.prewarms;
        }
        stats
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

    /// One step of background warm-set re-homing, meant to run on the
    /// housekeeping cadence. Returns the migration performed, if any.
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
    /// source. No count of either shard is disturbed — a moved warm set
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
        // Each shard is read under its one lock: each function's served
        // window (its tally's warm + cold starts since the last tick), their
        // sum, and the shard's warm memory.
        let mut served = Vec::with_capacity(n);
        let mut warm_mem = Vec::with_capacity(n);
        let mut recent = Vec::with_capacity(n);
        for (s, before) in self.inner.shards.iter().zip(&mut state.served_before) {
            let invoker = lock(&s.invoker);
            let tally = invoker.tally();
            before.resize(tally.len(), 0);
            let window: Vec<(FunctionId, u64)> = (0..)
                .zip(tally.iter().zip(before.iter_mut()))
                .filter_map(|(f, (t, before))| {
                    let delta = t.served() - std::mem::replace(before, t.served());
                    (delta > 0).then_some((FunctionId::from_index(f), delta))
                })
                .collect();
            served.push(window.iter().map(|&(_, c)| c).sum::<u64>());
            warm_mem.push(invoker.pool().warm_mem());
            recent.push(window);
        }
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
            .min_by_key(|&i| (served[i], warm_mem[i], i))
            .expect("n >= 2");
        // Candidate functions by window count (desc), ties toward the
        // lowest id. Only functions still pinned to the hot shard are
        // eligible — a function whose traffic already routes elsewhere
        // would leave its migrated warm set unreachable.
        let mut by_fn = std::mem::take(&mut recent[hot]);
        by_fn.sort_by_key(|&(f, c)| (std::cmp::Reverse(c), f));
        let pinned_here: Vec<FunctionId> = by_fn
            .iter()
            .map(|&(f, _)| f)
            .filter(|&f| self.route_of(f) == hot)
            .collect();
        // Advance both shard clocks to a common migration time.
        let now = self.inner.shards[hot].advance(at);
        let now = self.inner.shards[cold].advance(now);
        let (lo, hi) = (hot.min(cold), hot.max(cold));
        let mut guard_lo = lock(&self.inner.shards[lo].invoker);
        let mut guard_hi = lock(&self.inner.shards[hi].invoker);
        let (src, dst) = if hot == lo {
            (guard_lo.pool_mut(), guard_hi.pool_mut())
        } else {
            (guard_hi.pool_mut(), guard_lo.pool_mut())
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
        let invoker = lock(&self.inner.shards[shard].invoker);
        let pool = invoker.pool();
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

    /// Per-shard snapshots, in shard order, each read under its shard's
    /// lock.
    pub fn per_shard(&self) -> Vec<ShardStats> {
        self.inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let invoker = lock(&s.invoker);
                let pool = invoker.pool();
                ShardStats {
                    shard: i,
                    tally: invoker.totals(),
                    counters: pool.counters(),
                    rejected: s.rejected.load(Ordering::Acquire),
                    in_flight: s.in_flight.load(Ordering::Acquire),
                    used_mem: pool.used_mem(),
                    warm_containers: pool.warm_count(),
                }
            })
            .collect()
    }

    /// Total memory capacity across every shard.
    pub fn capacity(&self) -> MemMb {
        self.inner
            .shards
            .iter()
            .map(|s| lock(&s.invoker).pool().capacity())
            .sum()
    }

    /// The most advanced shard clock: the latest time an admitted
    /// invocation, a housekeeping tick or a re-homing migration was
    /// given. Monotone.
    pub fn now(&self) -> SimTime {
        let clock = |s: &Shard| s.clock_us.load(Ordering::Acquire);
        SimTime::from_micros(self.inner.shards.iter().map(clock).max().unwrap_or(0))
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
    use proptest::prelude::*;

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
    fn outcomes_count_in_the_order_of_all() {
        for (i, outcome) in InvokeOutcome::ALL.into_iter().enumerate() {
            assert_eq!(
                outcome as usize, i,
                "{outcome:?} is out of declaration order"
            );
        }
        let mut counts = Outcomes::default();
        for (i, outcome) in InvokeOutcome::ALL.into_iter().enumerate() {
            for _ in 0..=i {
                counts.record(outcome);
            }
        }
        assert_eq!(counts, Outcomes::from([1, 2, 3, 4, 5]));
        assert_eq!((counts.served(), counts.total()), (3, 15));
        counts += Outcomes::from([1, 0, 0, 0, 1]);
        assert_eq!(
            counts.to_string(),
            "warm=2 cold=2 dropped=3 rejected=4 throttled=6"
        );
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
        assert_eq!(inv.stats().outcomes, Outcomes::from([16, 16, 0, 0, 0]));
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
        assert_eq!(inv.stats().outcomes, Outcomes::from([0, 2, 0, 0, 1]));
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
        assert_eq!(inv.stats().outcomes, Outcomes::from([1, 9, 0, 0, 0]));
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
        assert_eq!(inv.stats().outcomes, Outcomes::from([7, 1, 0, 0, 0]));
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
            assert_eq!(s.tally.cold, e, "shard {}", s.shard);
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
        assert_eq!(inv.stats().outcomes, Outcomes::from([0, 0, 0, 1, 0]));
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
        inv.begin_drain();
        assert!(inv.per_shard().iter().all(|s| s.in_flight == 0));
        assert_eq!(
            inv.invoke(spec, SimTime::from_secs(1)),
            InvokeOutcome::Rejected
        );
        assert_eq!(inv.stats().outcomes, Outcomes::from([0, 1, 0, 1, 0]));
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
        assert_eq!(inv.housekeep(&reg, SimTime::from_secs(30)), 0);
        assert_eq!(inv.housekeep(&reg, SimTime::from_mins(5)), 8);
        assert!(inv.per_shard().iter().all(|s| s.used_mem == MemMb::ZERO));
    }

    /// HIST pre-warms on a live shard, since `housekeep` is the tick the
    /// simulator runs: a function invoked every 30 minutes is warm again
    /// at its next arrival — unless its tenant is at its memory budget.
    #[test]
    fn housekeep_prewarms_for_hist_unless_the_tenant_is_at_budget() {
        use crate::tenant::TenantQuota;
        let mut reg = FunctionRegistry::new();
        let mut register = |name: &str| {
            reg.register_in(
                name,
                MemMb::new(64),
                SimDuration::from_millis(5),
                SimDuration::from_millis(50),
                "t",
            )
            .unwrap()
        };
        let periodic = register("periodic");
        let other = register("other");
        let run = |capped: bool| {
            let inv = ShardedInvoker::with_kind(
                ShardedConfig::split(MemMb::from_gb(1), 1),
                PolicyKind::Hist,
            );
            for mins in [0, 30, 60] {
                let at = SimTime::from_mins(mins);
                assert!(inv.invoke(reg.spec(periodic), at).is_served());
            }
            // Resident at the pre-warm point: one invocation keeps it
            // HIST's generic two hours.
            let at = SimTime::from_mins(70);
            assert_eq!(inv.invoke(reg.spec(other), at), InvokeOutcome::Cold);
            if capped {
                let quota = TenantQuota {
                    mem_mb: 64,
                    ..TenantQuota::UNLIMITED
                };
                assert!(inv.set_tenant_quota("t", quota));
            }
            // Due at 89.5 min: the last arrival, plus the 30.5-minute
            // head window, less the 1-minute margin. The periodic
            // function's container left at 61 min, released early.
            inv.housekeep(&reg, SimTime::from_secs(89 * 60 + 45));
            let next = inv.invoke(reg.spec(periodic), SimTime::from_mins(90));
            (inv.stats().prewarms, next)
        };
        assert_eq!(run(false), (1, InvokeOutcome::Warm));
        assert_eq!(run(true), (0, InvokeOutcome::Throttled));
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
        // The admission slot must have been given back on unwind, or the
        // shard's in-flight count would never read zero again.
        assert_eq!(
            inv.per_shard()[0].in_flight,
            0,
            "aborted handler leaked its slot"
        );
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
        let mut sent = 1; // the warm check below
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
            sent += 32 + 6;
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
        assert_eq!(inv.stats().migrations, 1);
        // The warm set moved, not died: the next invocation is warm, on
        // the destination shard.
        let before = inv.per_shard()[e.to].tally.warm;
        assert!(matches!(
            inv.invoke(hot, SimTime::from_millis(t + 1000)),
            InvokeOutcome::Warm
        ));
        let after = inv.per_shard()[e.to].tally.warm;
        assert_eq!(after, before + 1, "warm start landed on the new home");
        // Conservation: every request got exactly one outcome, and every
        // one was served.
        let outcomes = inv.stats().outcomes;
        assert_eq!(outcomes.total(), sent);
        assert_eq!(outcomes.served(), sent);
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
        assert_eq!(inv.stats().migrations, 0);
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

    /// Cases of the clock property: `FAASCACHE_CLOCK_CASES`, or 64.
    fn clock_cases() -> u32 {
        std::env::var("FAASCACHE_CLOCK_CASES").map_or(64, |v| {
            v.parse()
                .expect("FAASCACHE_CLOCK_CASES must be a case count")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(clock_cases()))]

        /// A shard's clock is the arrival clock: over any interleaving of
        /// invocations and housekeeping ticks at arbitrary times, on one
        /// shard and on four, `now()` is the largest time given so far. A
        /// request's run time never moves it, and an earlier time never
        /// moves it back.
        #[test]
        fn clock_is_the_latest_time_given(
            ops in prop::collection::vec((any::<bool>(), 0u32..6, 0u64..3_600_000_000), 1..64),
        ) {
            let reg = registry(6);
            for shards in [1, 4] {
                let config = ShardedConfig::split(MemMb::new(256 * shards as u64), shards);
                let inv = ShardedInvoker::with_kind(config, PolicyKind::Ttl);
                let mut latest = SimTime::ZERO;
                for &(tick, f, at_us) in &ops {
                    let at = SimTime::from_micros(at_us);
                    if tick {
                        inv.housekeep(&reg, at);
                    } else {
                        prop_assert!(inv.invoke(reg.spec(FunctionId::from_index(f)), at).is_served());
                    }
                    latest = latest.max(at);
                    prop_assert_eq!(inv.now(), latest, "{} shards", shards);
                }
            }
        }
    }

    #[test]
    fn memory_splits_across_shards() {
        let inv = ShardedInvoker::with_kind(
            ShardedConfig::split(MemMb::from_gb(4), 4),
            PolicyKind::GreedyDual,
        );
        assert_eq!(inv.capacity(), MemMb::from_gb(4));
        assert_eq!(inv.per_shard().len(), 4);
        assert!(inv.per_shard().iter().all(|s| s.used_mem == MemMb::ZERO));
    }
}
