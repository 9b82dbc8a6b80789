//! Per-tenant quota accounting and admission budgets.
//!
//! FaasCache's keep-alive pool is one shared cache, so a single hot tenant
//! can monopolize warm memory and in-flight capacity. This module adds the
//! isolation layer: a lock-free [`TenantTable`] tracks, per tenant,
//! in-flight requests (equal to admission-queue occupancy — service is
//! synchronous), resident container memory, served and throttled totals —
//! and enforces two budgets at admission, *before* the per-shard gates:
//!
//! - **In-flight budget** — at most `inflight` concurrently admitted
//!   requests per tenant; excess arrivals are throttled.
//! - **Memory budget** — while a tenant's resident container memory is at
//!   or above `mem_mb`, new arrivals (which could only grow it) are
//!   throttled, and the tenant's eviction weight is raised (see
//!   [`TenantWeights`]) so the greedy-dual policy prefers its containers
//!   as victims until it is back under budget.
//!
//! A throttled request gets [`InvokeOutcome::Throttled`] — distinct from
//! pool-pressure `Dropped` and backpressure `Rejected`, because the right
//! client reaction differs: back off *this tenant's* traffic, not the
//! server.
//!
//! Memory accounting is exact, not mirrored: the table implements
//! [`TenantLedger`] and is installed on every shard pool, which reports
//! each of its resident-memory changes (insert, adopt, extract, evict)
//! with the container's tenant tag.
//!
//! [`InvokeOutcome::Throttled`]: crate::sharded::InvokeOutcome::Throttled

use faascache_core::policy::TenantWeights;
use faascache_core::pool::TenantLedger;
use faascache_util::MemMb;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Capacity of the accounting table. Tenants are dense registry indices;
/// indices at or beyond the capacity share the final (overflow) slot —
/// their accounting stays conserved, merely merged.
pub const MAX_TENANTS: usize = 64;

/// Eviction weight applied to a tenant while it is over its memory
/// budget: its containers' greedy-dual value term is divided by this, so
/// they sort decisively earlier in eviction order without zeroing the
/// clock component that keeps the order stable.
pub const OVER_BUDGET_WEIGHT: f64 = 8.0;

/// Budget limits for one tenant. `u64::MAX` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum concurrently admitted requests.
    pub inflight: u64,
    /// Resident container memory (MB) at or above which new arrivals are
    /// throttled and the tenant's eviction weight is raised.
    pub mem_mb: u64,
}

impl TenantQuota {
    /// No limits.
    pub const UNLIMITED: TenantQuota = TenantQuota {
        inflight: u64::MAX,
        mem_mb: u64::MAX,
    };

    /// Parses a budget spec of the form `inflight=K,mem=MB` (both keys
    /// optional, omitted keys stay unlimited).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key or value.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut quota = TenantQuota::UNLIMITED;
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("quota knob `{part}` is not key=value"))?;
            let parsed: u64 = value
                .parse()
                .map_err(|_| format!("quota knob `{key}` has non-numeric value `{value}`"))?;
            match key {
                "inflight" => quota.inflight = parsed,
                "mem" => quota.mem_mb = parsed,
                other => return Err(format!("unknown quota knob `{other}`")),
            }
        }
        Ok(quota)
    }
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota::UNLIMITED
    }
}

/// Quota configuration: a default budget plus per-tenant overrides by
/// name.
#[derive(Debug, Clone, Default)]
pub struct TenantQuotas {
    /// Budget for tenants without a named override.
    pub default: TenantQuota,
    /// Named overrides, looked up by exact tenant name.
    pub named: Vec<(String, TenantQuota)>,
}

impl TenantQuotas {
    /// A configuration with no limits anywhere.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Adds (or replaces) a named override.
    pub fn set(&mut self, name: impl Into<String>, quota: TenantQuota) {
        let name = name.into();
        match self.named.iter_mut().find(|(n, _)| *n == name) {
            Some((_, q)) => *q = quota,
            None => self.named.push((name, quota)),
        }
    }

    /// The budget for `name`: its override, or the default quota for any
    /// unknown tenant.
    pub fn quota_for(&self, name: &str) -> TenantQuota {
        self.named
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, q)| q)
            .unwrap_or(self.default)
    }
}

/// One tenant's accounting slot. Limits are bound lazily on the tenant's
/// first admission (the name arrives with the function spec); until then
/// the slot is unlimited, which is indistinguishable from the tenant not
/// existing.
#[derive(Debug)]
struct TenantSlot {
    /// Tenant name, set exactly once when the slot binds.
    name: OnceLock<String>,
    inflight_limit: AtomicU64,
    mem_limit: AtomicU64,
    /// Admitted-but-unfinished requests (= admission-queue occupancy).
    in_flight: AtomicU64,
    /// Resident container memory in MB, maintained exactly via
    /// [`TenantLedger`].
    mem_mb: AtomicU64,
    /// Requests served (warm or cold).
    served: AtomicU64,
    /// Requests throttled by either budget.
    throttled: AtomicU64,
}

impl TenantSlot {
    fn new() -> Self {
        TenantSlot {
            name: OnceLock::new(),
            inflight_limit: AtomicU64::new(u64::MAX),
            mem_limit: AtomicU64::new(u64::MAX),
            in_flight: AtomicU64::new(0),
            mem_mb: AtomicU64::new(0),
            served: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
        }
    }
}

/// A point-in-time snapshot of one tenant's accounting slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// Raw tenant index (registry interning order; 0 = default tenant).
    pub index: u32,
    /// Tenant name.
    pub name: String,
    /// Admitted-but-unfinished requests.
    pub in_flight: u64,
    /// Resident container memory in MB.
    pub mem_mb: u64,
    /// Requests served (warm or cold).
    pub served: u64,
    /// Requests throttled by either budget.
    pub throttled: u64,
    /// Concurrency budget (`u64::MAX` = unlimited).
    pub inflight_limit: u64,
    /// Memory budget in MB (`u64::MAX` = unlimited).
    pub mem_limit_mb: u64,
}

/// Releases a tenant's in-flight slot on drop, however the invocation
/// ends — normal return or unwind (mirrors the shard `AdmissionSlot`).
#[derive(Debug)]
pub struct TenantAdmission<'a>(&'a AtomicU64);

impl Drop for TenantAdmission<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The lock-free per-tenant accounting and budget-enforcement table.
///
/// Indexed by the registry's dense tenant index; every counter is an
/// atomic, so the admission gate and the ledger hooks never take a lock.
#[derive(Debug)]
pub struct TenantTable {
    /// Quota configuration. Behind a mutex only because quotas are now
    /// updatable at runtime; the admission hot path touches it solely on
    /// a slot's *first* bind, never per-request.
    quotas: Mutex<TenantQuotas>,
    slots: Vec<TenantSlot>,
    weights: Arc<TenantWeights>,
}

impl TenantTable {
    /// Builds a table enforcing `quotas`, with [`MAX_TENANTS`] slots.
    pub fn new(quotas: TenantQuotas) -> Self {
        TenantTable {
            quotas: Mutex::new(quotas),
            slots: (0..MAX_TENANTS).map(|_| TenantSlot::new()).collect(),
            weights: Arc::new(TenantWeights::new(MAX_TENANTS)),
        }
    }

    /// The shared eviction-weight table, for installation on shard
    /// policies.
    pub fn weights(&self) -> Arc<TenantWeights> {
        Arc::clone(&self.weights)
    }

    fn slot_index(&self, tenant: u32) -> usize {
        (tenant as usize).min(self.slots.len() - 1)
    }

    fn slot(&self, tenant: u32) -> &TenantSlot {
        &self.slots[self.slot_index(tenant)]
    }

    /// Binds the slot's limits on first sight of the tenant. Racing binds
    /// are benign: the registry guarantees one name per index, so every
    /// racer computes identical limits.
    fn bind(&self, slot: &TenantSlot, name: &str) {
        if slot.name.get().is_some() {
            return;
        }
        if slot.name.set(name.to_string()).is_ok() {
            let quota = self
                .quotas
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .quota_for(name);
            slot.inflight_limit.store(quota.inflight, Ordering::Release);
            slot.mem_limit.store(quota.mem_mb, Ordering::Release);
        }
    }

    /// Updates `name`'s budget at runtime. The new quota is stored in the
    /// configuration (so a tenant not yet seen binds to it later) and, if
    /// the tenant already has a bound slot, applied to the live limits
    /// immediately — including re-deriving the eviction weight against
    /// the new memory budget, so a tenant pushed over (or pulled under)
    /// its budget by the update changes eviction order right away.
    ///
    /// Returns `true` when a live bound slot was updated, `false` when
    /// the quota was only stored for a future bind.
    pub fn set_quota(&self, name: &str, quota: TenantQuota) -> bool {
        self.quotas
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .set(name, quota);
        let Some((index, slot)) = self
            .slots
            .iter()
            .enumerate()
            .find(|(_, s)| s.name.get().is_some_and(|n| n == name))
        else {
            return false;
        };
        slot.inflight_limit.store(quota.inflight, Ordering::Release);
        slot.mem_limit.store(quota.mem_mb, Ordering::Release);
        let over = slot.mem_mb.load(Ordering::Acquire) >= quota.mem_mb;
        let w = if over { OVER_BUDGET_WEIGHT } else { 1.0 };
        self.weights.set(index as u32, w);
        true
    }

    /// The tenant-budget admission gate, consulted before the per-shard
    /// gates. On success the returned guard holds the tenant's in-flight
    /// slot until dropped; on failure the request must be answered
    /// `Throttled` (the table has already counted it).
    ///
    /// A tenant is throttled when its resident container memory is at or
    /// above its memory budget, or its in-flight count is at its
    /// concurrency budget. Both checks are budget decisions about *this
    /// tenant*, independent of pool pressure.
    ///
    /// Returns `None` when the tenant is over either budget.
    pub fn try_admit(&self, tenant: u32, name: &str) -> Option<TenantAdmission<'_>> {
        let slot = self.slot(tenant);
        self.bind(slot, name);
        if slot.mem_mb.load(Ordering::Acquire) >= slot.mem_limit.load(Ordering::Acquire) {
            slot.throttled.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let bound = slot.inflight_limit.load(Ordering::Acquire);
        let mut cur = slot.in_flight.load(Ordering::Acquire);
        loop {
            if cur >= bound {
                slot.throttled.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match slot.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(TenantAdmission(&slot.in_flight)),
                Err(observed) => cur = observed,
            }
        }
    }

    /// A point-in-time clone of the quota configuration (boot-time flags
    /// plus every runtime update), for durability snapshots.
    pub fn quotas_snapshot(&self) -> TenantQuotas {
        self.quotas
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Records a served (warm or cold) request for `tenant`.
    pub fn record_served(&self, tenant: u32) {
        self.slot(tenant).served.fetch_add(1, Ordering::Relaxed);
    }

    /// Total requests throttled across every tenant.
    pub fn total_throttled(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.throttled.load(Ordering::Acquire))
            .sum()
    }

    /// Snapshots of every *bound* slot (tenants that have been seen at
    /// least once), in index order.
    pub fn snapshots(&self) -> Vec<TenantSnapshot> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let name = s.name.get()?.clone();
                Some(TenantSnapshot {
                    index: i as u32,
                    name,
                    in_flight: s.in_flight.load(Ordering::Acquire),
                    mem_mb: s.mem_mb.load(Ordering::Acquire),
                    served: s.served.load(Ordering::Acquire),
                    throttled: s.throttled.load(Ordering::Acquire),
                    inflight_limit: s.inflight_limit.load(Ordering::Acquire),
                    mem_limit_mb: s.mem_limit.load(Ordering::Acquire),
                })
            })
            .collect()
    }

    /// Re-derives the tenant's eviction weight after a memory change
    /// crossed its budget boundary in either direction.
    fn reweigh(&self, index: usize, before: u64, after: u64) {
        let limit = self.slots[index].mem_limit.load(Ordering::Acquire);
        let over_before = before >= limit;
        let over_after = after >= limit;
        if over_before != over_after {
            let w = if over_after { OVER_BUDGET_WEIGHT } else { 1.0 };
            self.weights.set(index as u32, w);
        }
    }
}

impl TenantLedger for TenantTable {
    fn container_added(&self, tenant: u32, mem: MemMb) {
        let index = self.slot_index(tenant);
        let before = self.slots[index]
            .mem_mb
            .fetch_add(mem.as_mb(), Ordering::AcqRel);
        self.reweigh(index, before, before + mem.as_mb());
    }

    fn container_removed(&self, tenant: u32, mem: MemMb) {
        let index = self.slot_index(tenant);
        let before = self.slots[index]
            .mem_mb
            .fetch_sub(mem.as_mb(), Ordering::AcqRel);
        debug_assert!(before >= mem.as_mb(), "tenant memory underflow");
        self.reweigh(index, before, before.saturating_sub(mem.as_mb()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_spec_parses_and_rejects() {
        assert_eq!(TenantQuota::parse("").unwrap(), TenantQuota::UNLIMITED);
        let q = TenantQuota::parse("inflight=4,mem=512").unwrap();
        assert_eq!(q.inflight, 4);
        assert_eq!(q.mem_mb, 512);
        let q = TenantQuota::parse("mem=100").unwrap();
        assert_eq!(q.inflight, u64::MAX);
        assert_eq!(q.mem_mb, 100);
        assert!(TenantQuota::parse("mem").is_err());
        assert!(TenantQuota::parse("mem=abc").is_err());
        assert!(TenantQuota::parse("cpus=2").is_err());
    }

    #[test]
    fn quotas_fall_back_to_default_for_unknown_names() {
        let mut quotas = TenantQuotas::unlimited();
        quotas.default = TenantQuota::parse("inflight=8").unwrap();
        quotas.set("acme", TenantQuota::parse("mem=256").unwrap());
        assert_eq!(quotas.quota_for("acme").mem_mb, 256);
        assert_eq!(quotas.quota_for("acme").inflight, u64::MAX);
        assert_eq!(quotas.quota_for("never-seen").inflight, 8);
    }

    #[test]
    fn inflight_budget_throttles_and_releases() {
        let mut quotas = TenantQuotas::unlimited();
        quotas.set("t", TenantQuota::parse("inflight=2").unwrap());
        let table = TenantTable::new(quotas);
        let a = table.try_admit(1, "t").unwrap();
        let _b = table.try_admit(1, "t").unwrap();
        assert!(table.try_admit(1, "t").is_none(), "third concurrent admit");
        assert_eq!(table.total_throttled(), 1);
        drop(a);
        assert!(table.try_admit(1, "t").is_some(), "slot released on drop");
        // The default tenant is unaffected.
        assert!(table.try_admit(0, "default").is_some());
    }

    #[test]
    fn memory_budget_throttles_and_reweighs() {
        let mut quotas = TenantQuotas::unlimited();
        quotas.set("t", TenantQuota::parse("mem=100").unwrap());
        let table = TenantTable::new(quotas);
        // Bind the slot first so the limit is live.
        drop(table.try_admit(1, "t").unwrap());
        let weights = table.weights();
        assert_eq!(weights.get(1), 1.0);
        table.container_added(1, MemMb::new(64));
        assert!(table.try_admit(1, "t").is_some(), "under budget");
        table.container_added(1, MemMb::new(64));
        assert!(table.try_admit(1, "t").is_none(), "128 >= 100");
        assert_eq!(weights.get(1), OVER_BUDGET_WEIGHT, "weight raised");
        table.container_removed(1, MemMb::new(64));
        assert!(table.try_admit(1, "t").is_some(), "back under budget");
        assert_eq!(weights.get(1), 1.0, "weight restored");
    }

    #[test]
    fn runtime_quota_update_applies_to_bound_slot() {
        let table = TenantTable::new(TenantQuotas::unlimited());
        // Bind the slot under unlimited quotas.
        drop(table.try_admit(1, "t").unwrap());
        table.container_added(1, MemMb::new(64));
        assert!(table.try_admit(1, "t").is_some(), "unlimited admits");
        // Tighten at runtime: the live limits and the eviction weight
        // must both flip without any new admission traffic.
        assert!(table.set_quota("t", TenantQuota::parse("mem=50").unwrap()));
        assert!(table.try_admit(1, "t").is_none(), "64 >= 50 now throttles");
        assert_eq!(table.weights().get(1), OVER_BUDGET_WEIGHT);
        // Loosen again: weight restored, admissions resume.
        assert!(table.set_quota("t", TenantQuota::parse("mem=100").unwrap()));
        assert!(table.try_admit(1, "t").is_some());
        assert_eq!(table.weights().get(1), 1.0);
        // In-flight budget updates take effect on the next admit.
        assert!(table.set_quota("t", TenantQuota::parse("inflight=1").unwrap()));
        let held = table.try_admit(1, "t").unwrap();
        assert!(table.try_admit(1, "t").is_none(), "second concurrent admit");
        drop(held);
    }

    #[test]
    fn runtime_quota_update_before_bind_applies_on_first_sight() {
        let table = TenantTable::new(TenantQuotas::unlimited());
        // Not bound yet: stored for the future bind.
        assert!(!table.set_quota("late", TenantQuota::parse("inflight=1").unwrap()));
        let held = table.try_admit(3, "late").unwrap();
        assert!(
            table.try_admit(3, "late").is_none(),
            "bound to stored quota"
        );
        drop(held);
    }

    #[test]
    fn snapshots_cover_bound_slots_only() {
        let table = TenantTable::new(TenantQuotas::unlimited());
        assert!(table.snapshots().is_empty());
        drop(table.try_admit(0, "default").unwrap());
        table.record_served(0);
        let snaps = table.snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].name, "default");
        assert_eq!(snaps[0].served, 1);
        assert_eq!(snaps[0].in_flight, 0);
    }

    #[test]
    fn overflow_indices_share_the_last_slot() {
        let table = TenantTable::new(TenantQuotas::unlimited());
        table.container_added(MAX_TENANTS as u32 + 7, MemMb::new(10));
        table.container_added(MAX_TENANTS as u32 + 9, MemMb::new(10));
        drop(table.try_admit(MAX_TENANTS as u32 + 7, "overflow").unwrap());
        let snaps = table.snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].index, MAX_TENANTS as u32 - 1);
        assert_eq!(snaps[0].mem_mb, 20);
    }
}
