//! Container instances held by the keep-alive pool.
//!
//! A container is either *running* a function invocation or sitting *warm*
//! waiting for the next one (paper §3: "At any instant of time, each
//! container is either running a function, or is being kept alive/warm").
//! Only warm containers are eviction candidates.
//!
//! # What a [`ContainerId`] is made of
//!
//! One ordered `u64`, `sequence << SLOT_BITS | slot`:
//!
//! - the **sequence** (high bits) is the pool's mint counter, unique per
//!   pool and never reused, so ids compare in the order they were minted
//!   whatever their slots are: every `(key, last_used, id)` tie-break and
//!   every ascending-id order reads exactly as if the id were the counter;
//! - the **slot** (low [`SLOT_BITS`] bits) is a dense index the pool hands
//!   back to a free list when the container leaves and lets again to a
//!   later one. Every table keyed by container id — the pool's and each
//!   policy's — is a `SlotTable` indexed by it: a lookup is an index and
//!   one id comparison, never a hash.
//!
//! Both widths are limits the pool handles rather than assumes: with every
//! slot let it refuses a cold start as `NoCapacity`, and running out of
//! sequence numbers (2^40 mints: a million cold starts a second for twelve
//! days) is a stated panic, never a silently repeated id.

use crate::function::FunctionId;
use faascache_util::{MemMb, SimDuration, SimTime};
use std::fmt;

/// Width of the slot half of a [`ContainerId`]. Unit tests of this crate
/// build with a narrow slot so that a full slab is a few thousand
/// containers away.
pub(crate) const SLOT_BITS: u32 = if cfg!(test) { 12 } else { 24 };

/// The most containers one pool can hold at once.
pub(crate) const MAX_SLOTS: usize = 1 << SLOT_BITS;

/// Unique identifier of a container instance within one pool. Opaque and
/// ordered: ids minted by one pool compare in mint order (see the module
/// docs for what the two halves mean).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(u64);

impl ContainerId {
    /// Builds an id from a raw value (primarily for tests).
    pub const fn from_raw(raw: u64) -> Self {
        ContainerId(raw)
    }

    /// The raw value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// The id of the `sequence`-th container a pool mints, living in
    /// `slot` (below [`MAX_SLOTS`]: the pool checks before it mints).
    ///
    /// # Panics
    ///
    /// Panics when `sequence` does not fit the bits the slot leaves it.
    pub(crate) fn mint(sequence: u64, slot: usize) -> Self {
        debug_assert!(slot < MAX_SLOTS, "slot {slot} beyond the slab");
        let high = sequence
            .checked_mul(1 << SLOT_BITS)
            .expect("the pool ran out of container sequence numbers");
        ContainerId(high | slot as u64)
    }

    /// The slab cell this id names.
    pub(crate) fn slot(self) -> usize {
        (self.0 & (MAX_SLOTS as u64 - 1)) as usize
    }
}

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctr#{}", self.0)
    }
}

/// The lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Idle and initialized, ready to serve a warm start.
    Warm,
    /// Executing an invocation; will release at the recorded time.
    Running {
        /// When the current invocation completes.
        until: SimTime,
    },
}

impl ContainerState {
    /// Whether the container is idle.
    pub fn is_warm(&self) -> bool {
        matches!(self, ContainerState::Warm)
    }
}

/// A container instance: the unit the keep-alive cache caches.
///
/// Carries a snapshot of its function's static characteristics so policies
/// can compute priorities without a registry lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    id: ContainerId,
    function: FunctionId,
    mem: MemMb,
    warm_time: SimDuration,
    cold_time: SimDuration,
    state: ContainerState,
    created_at: SimTime,
    last_used: SimTime,
    uses: u64,
    tenant: u32,
}

impl Container {
    /// Creates a container (used by the pool; exposed for tests and for
    /// alternate pool implementations).
    pub fn new(
        id: ContainerId,
        function: FunctionId,
        mem: MemMb,
        warm_time: SimDuration,
        cold_time: SimDuration,
        now: SimTime,
    ) -> Self {
        Container {
            id,
            function,
            mem,
            warm_time,
            cold_time,
            state: ContainerState::Warm,
            created_at: now,
            last_used: now,
            uses: 0,
            tenant: 0,
        }
    }

    /// Tags the container with its function's tenant (builder-style, so the
    /// constructor's many tenant-free call sites stay unchanged).
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Raw tenant index of the owning function (0 = shared default tenant).
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// The container's id.
    pub fn id(&self) -> ContainerId {
        self.id
    }

    /// The function this container can execute.
    pub fn function(&self) -> FunctionId {
        self.function
    }

    /// Memory held while resident (warm or running).
    pub fn mem(&self) -> MemMb {
        self.mem
    }

    /// Warm execution time of the function.
    pub fn warm_time(&self) -> SimDuration {
        self.warm_time
    }

    /// Cold execution time of the function.
    pub fn cold_time(&self) -> SimDuration {
        self.cold_time
    }

    /// Initialization overhead (`cold − warm`) — the Greedy-Dual `Cost`.
    pub fn init_overhead(&self) -> SimDuration {
        self.cold_time - self.warm_time
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// When the container was created (its cold start).
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }

    /// Last time an invocation was assigned to this container.
    pub fn last_used(&self) -> SimTime {
        self.last_used
    }

    /// Number of invocations this container has served.
    pub fn uses(&self) -> u64 {
        self.uses
    }

    /// Marks the container as running an invocation until `until`.
    pub fn begin_invocation(&mut self, now: SimTime, until: SimTime) {
        debug_assert!(self.state.is_warm(), "container already running");
        self.state = ContainerState::Running { until };
        self.last_used = now;
        self.uses += 1;
    }

    /// Marks the invocation as finished; the container becomes warm.
    pub fn finish_invocation(&mut self) {
        debug_assert!(
            !self.state.is_warm(),
            "finishing a container that was not running"
        );
        self.state = ContainerState::Warm;
    }

    /// Whether the container is idle and evictable.
    pub fn is_idle(&self) -> bool {
        self.state.is_warm()
    }

    /// The same container under a new identity.
    ///
    /// Container ids are per-pool (each pool numbers its own), so a pool
    /// adopting a container migrated from another pool must re-id it.
    /// Everything the keep-alive policies price — memory, init overhead,
    /// `created_at`, `last_used`, `uses` — rides along unchanged, which is
    /// what lets warm-set re-homing preserve priority ordering.
    pub fn with_id(mut self, id: ContainerId) -> Self {
        self.id = id;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn container() -> Container {
        Container::new(
            ContainerId::from_raw(1),
            FunctionId::from_index(0),
            MemMb::new(128),
            SimDuration::from_millis(300),
            SimDuration::from_millis(2000),
            SimTime::from_secs(10),
        )
    }

    #[test]
    fn new_container_is_warm() {
        let c = container();
        assert!(c.is_idle());
        assert_eq!(c.uses(), 0);
        assert_eq!(c.created_at(), SimTime::from_secs(10));
        assert_eq!(c.last_used(), SimTime::from_secs(10));
        assert_eq!(c.init_overhead(), SimDuration::from_millis(1700));
    }

    #[test]
    fn invocation_lifecycle() {
        let mut c = container();
        let start = SimTime::from_secs(20);
        let end = SimTime::from_secs(21);
        c.begin_invocation(start, end);
        assert!(!c.is_idle());
        assert_eq!(c.state(), ContainerState::Running { until: end });
        assert_eq!(c.last_used(), start);
        assert_eq!(c.uses(), 1);
        c.finish_invocation();
        assert!(c.is_idle());
        assert_eq!(c.uses(), 1);
    }

    #[test]
    fn ids_compare_in_mint_order_across_slot_reuse() {
        // A later container in a lower, reused slot is still the greater id.
        let early = ContainerId::mint(5, MAX_SLOTS - 1);
        let late = ContainerId::mint(6, 0);
        assert!(early < late);
        assert_eq!((early.slot(), late.slot()), (MAX_SLOTS - 1, 0));
        // Within one sequence number (never minted twice) the slot orders.
        assert!(ContainerId::mint(6, 0) < ContainerId::mint(6, 1));
        // The counter alone is the id of slot 0, shifted.
        assert_eq!(ContainerId::mint(0, 7), ContainerId::from_raw(7));
        let last = (1u64 << (u64::BITS - SLOT_BITS)) - 1;
        assert_eq!(ContainerId::mint(last, MAX_SLOTS - 1).as_raw(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "ran out of container sequence numbers")]
    fn minting_past_the_last_sequence_number_panics() {
        ContainerId::mint(1 << (u64::BITS - SLOT_BITS), 0);
    }

    #[test]
    fn display_ids() {
        assert_eq!(ContainerId::from_raw(7).to_string(), "ctr#7");
        assert_eq!(FunctionId::from_index(3).to_string(), "fn#3");
    }
}
