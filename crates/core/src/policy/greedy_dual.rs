//! The Greedy-Dual-Size-Frequency keep-alive policy (paper §4.1).
//!
//! For every container the policy maintains
//!
//! ```text
//! Priority = Clock + Freq × Cost / Size
//! ```
//!
//! - **Clock** — a per-server logical clock, captured per container at each
//!   use. On every eviction the server clock advances to the maximum
//!   priority of the evicted set, so long-idle containers age out.
//! - **Freq** — invocations of the *function* across all its containers;
//!   reset to zero when the function's last container is terminated.
//! - **Cost** — the termination cost: the function's initialization
//!   overhead (cold − warm) in seconds.
//! - **Size** — the container's memory footprint (MB): "for ease of
//!   exposition and practicality, we consider only the container memory
//!   use".

use crate::container::{Container, ContainerId};
use crate::fn_table::FnTable;
use crate::function::FunctionId;
use crate::policy::index::{grows, Resident, TotalF64};
use crate::policy::{KeepAlivePolicy, TenantWeights};
use faascache_util::SimTime;
use std::sync::Arc;

/// What the policy keeps per resident container.
///
/// Cost and size are the *same* `f64` values the formula derives from the
/// container, cached at creation (both are fixed for a container's life)
/// so a heap pop can recompute the priority without a `&Container`.
#[derive(Debug, Clone, Copy)]
pub(super) struct GdEntry {
    /// Clock value captured at the container's last use.
    snapshot: f64,
    function: FunctionId,
    cost: f64,
    size: f64,
    tenant: u32,
}

impl GdEntry {
    /// A record for `c` touched at `clock`.
    fn new(c: &Container, clock: f64) -> Self {
        GdEntry {
            snapshot: clock,
            function: c.function(),
            cost: c.init_overhead().as_secs_f64(),
            // Strictly positive, so priorities stay finite.
            size: (c.mem().as_mb() as f64).max(f64::MIN_POSITIVE),
            tenant: c.tenant(),
        }
    }

    /// `Priority = Clock + Freq × Cost / Size`, the value term divided by
    /// the tenant weight. The one place the expression is written: the
    /// heap key, [`KeepAlivePolicy::priority_of`] and the clock an
    /// eviction advances to must agree on every bit of it.
    fn priority(&self, freq: &FnTable<u64>, weights: Option<&TenantWeights>) -> f64 {
        let freq = freq.value(self.function) as f64;
        let weight = weights.map_or(1.0, |w| w.get(self.tenant));
        self.snapshot + freq * self.cost / self.size / weight
    }
}

/// Greedy-Dual-Size-Frequency keep-alive (the paper's `GD` policy).
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{GreedyDual, KeepAlivePolicy};
/// let gd = GreedyDual::new();
/// assert_eq!(gd.name(), "GD");
/// assert_eq!(gd.clock(), 0.0);
/// ```
#[derive(Debug)]
pub struct GreedyDual {
    clock: f64,
    /// Invocations of each function since it last had zero resident
    /// containers (0 ≡ never seen or fully evicted).
    freq: FnTable<u64>,
    /// Every resident container, ordered by priority.
    ///
    /// A container's priority only grows while it is resident: the clock
    /// its snapshot is taken from is monotone, and frequency only grows
    /// while the function has resident containers (a sibling's warm start
    /// raises it for the idle ones too). So the heap entry of a resident
    /// container stays a lower bound across warm cycles (see
    /// [`crate::policy::index`]) — unless a tenant weight is raised.
    pub(super) resident: Resident<GdEntry, TotalF64>,
    /// Per-tenant eviction weights; `None` (and any unset slot) weighs 1.0.
    ///
    /// An over-budget tenant's weight `w > 1` divides the value term:
    /// `Priority = Clock + (Freq × Cost / Size) / w`, so its containers
    /// sort earlier in eviction order. A weight raised *while a container
    /// sits idle* lowers the key its heap entry is stored under — which a
    /// lazy heap cannot observe — so pops compare
    /// [`TenantWeights::generation`] against `weights_gen` and re-key the
    /// whole heap when weights moved.
    weights: Option<Arc<TenantWeights>>,
    /// [`TenantWeights::generation`] the heap keys were last computed at.
    weights_gen: u64,
}

impl GreedyDual {
    /// Creates the policy.
    pub fn new() -> Self {
        GreedyDual {
            clock: 0.0,
            freq: FnTable::default(),
            resident: Resident::new(),
            weights: None,
            weights_gen: 0,
        }
    }

    /// Current value of the server's logical clock.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Current frequency of a function (0 if never seen or fully evicted).
    pub fn frequency(&self, function: FunctionId) -> u64 {
        self.freq.value(function)
    }

    /// The priority of a container the policy may or may not have a
    /// record of (an unknown container counts as touched just now).
    fn priority(&self, c: &Container) -> f64 {
        let entry = match self.resident.get(c.id()) {
            Some(e) => *e,
            None => GdEntry::new(c, self.clock),
        };
        entry.priority(&self.freq, self.weights.as_deref())
    }

    /// Counts a use: frequency credit and a fresh clock snapshot. The
    /// container is running afterwards; the heap is not told.
    fn touch(&mut self, c: &Container) {
        *self.freq.slot(c.function()) += 1;
        let clock = self.clock;
        self.resident
            .running(c.id(), || GdEntry::new(c, clock))
            .snapshot = clock;
    }

    /// Files an idle container at its current priority, which has not
    /// decreased since it was last filed (`rekey_if_weights_changed` sees
    /// to a raised weight).
    fn enqueue(&mut self, c: &Container) {
        let clock = self.clock;
        let (freq, weights) = (&self.freq, self.weights.as_deref());
        self.resident.file(
            c.id(),
            c.last_used(),
            || GdEntry::new(c, clock),
            grows,
            |e| TotalF64(e.priority(freq, weights)),
        );
    }

    /// Re-keys the whole victim heap when the shared tenant weights have
    /// changed since it was last keyed (a raised weight *lowers* keys,
    /// which the lazy heap cannot observe entry-by-entry).
    fn rekey_if_weights_changed(&mut self) {
        let Some(weights) = self.weights.as_deref() else {
            return;
        };
        let current = weights.generation();
        if current != self.weights_gen {
            self.weights_gen = current;
            let freq = &self.freq;
            self.resident
                .refile_all(|e| TotalF64(e.priority(freq, Some(weights))));
        }
    }
}

impl Default for GreedyDual {
    fn default() -> Self {
        Self::new()
    }
}

impl KeepAlivePolicy for GreedyDual {
    fn name(&self) -> &'static str {
        "GD"
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        self.touch(container);
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
        if prewarm {
            // Speculative containers get the current clock but no frequency
            // credit until an actual invocation lands on them.
            self.enqueue(container);
        } else {
            self.touch(container);
        }
    }

    fn on_finish(&mut self, container: &Container, _now: SimTime) {
        self.enqueue(container);
    }

    fn on_evicted(&mut self, container: &Container, remaining_of_function: usize, _now: SimTime) {
        // Forgetting the record also retires its heap entry, if any.
        let entry = match self.resident.forget(container.id()) {
            Some(e) => e,
            None => GdEntry::new(container, self.clock),
        };
        // Clock = max over the evicted set of the victims' priorities; the
        // pool reports evictions one at a time, and taking a running max is
        // equivalent.
        let p = entry.priority(&self.freq, self.weights.as_deref());
        if p > self.clock {
            self.clock = p;
        }
        if remaining_of_function == 0 {
            if let Some(freq) = self.freq.get_mut(container.function()) {
                *freq = 0;
            }
        }
    }

    fn pop_victim(&mut self) -> Option<ContainerId> {
        self.rekey_if_weights_changed();
        let (freq, weights) = (&self.freq, self.weights.as_deref());
        // The record outlives the pop: the pool reports the eviction next,
        // and `on_evicted` prices the victim from its snapshot.
        self.resident.pop(|e| TotalF64(e.priority(freq, weights)))
    }

    fn priority_of(&self, container: &Container) -> Option<f64> {
        Some(self.priority(container))
    }

    fn set_tenant_weights(&mut self, weights: Arc<TenantWeights>) {
        self.weights = Some(weights);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_util::{MemMb, SimDuration};

    fn container(id: u64, fid: u32, mem: u64, init_ms: u64) -> Container {
        Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(fid),
            MemMb::new(mem),
            SimDuration::ZERO,
            SimDuration::from_millis(init_ms),
            SimTime::ZERO,
        )
    }

    #[test]
    fn priority_formula() {
        let mut gd = GreedyDual::new();
        // 100 MB container with 2 s init cost, invoked 3 times.
        let c = container(1, 0, 100, 2000);
        gd.on_container_created(&c, SimTime::ZERO, false);
        gd.on_warm_start(&c, SimTime::from_secs(1));
        gd.on_warm_start(&c, SimTime::from_secs(2));
        assert_eq!(gd.frequency(c.function()), 3);
        // Clock is still 0: no evictions yet.
        let expected = 0.0 + 3.0 * 2.0 / 100.0;
        assert!((gd.priority_of(&c).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn clock_advances_to_evicted_priority() {
        let mut gd = GreedyDual::new();
        let a = container(1, 0, 100, 1000);
        let b = container(2, 1, 100, 9000);
        gd.on_container_created(&a, SimTime::ZERO, false);
        gd.on_container_created(&b, SimTime::ZERO, false);
        let pa = gd.priority_of(&a).unwrap();
        gd.on_evicted(&a, 0, SimTime::ZERO);
        assert!(
            (gd.clock() - pa).abs() < 1e-12,
            "clock should jump to evicted priority"
        );
        // Subsequent uses incorporate the advanced clock.
        gd.on_warm_start(&b, SimTime::from_secs(1));
        assert!(gd.priority_of(&b).unwrap() > pa);
    }

    #[test]
    fn clock_is_monotone_under_evictions() {
        let mut gd = GreedyDual::new();
        let mut last = 0.0;
        for i in 0..20 {
            let c = container(i, i as u32, 50 + i, 100 * (i + 1));
            gd.on_container_created(&c, SimTime::ZERO, false);
            gd.on_evicted(&c, 0, SimTime::ZERO);
            assert!(gd.clock() >= last);
            last = gd.clock();
        }
    }

    #[test]
    fn frequency_resets_when_last_container_evicted() {
        let mut gd = GreedyDual::new();
        let c1 = container(1, 7, 100, 1000);
        let c2 = container(2, 7, 100, 1000);
        gd.on_container_created(&c1, SimTime::ZERO, false);
        gd.on_container_created(&c2, SimTime::ZERO, false);
        assert_eq!(gd.frequency(FunctionId::from_index(7)), 2);
        gd.on_evicted(&c1, 1, SimTime::ZERO);
        assert_eq!(
            gd.frequency(FunctionId::from_index(7)),
            2,
            "one container remains"
        );
        gd.on_evicted(&c2, 0, SimTime::ZERO);
        assert_eq!(
            gd.frequency(FunctionId::from_index(7)),
            0,
            "reset on last eviction"
        );
    }

    #[test]
    fn eviction_prefers_low_priority() {
        let mut gd = GreedyDual::new();
        // Small+costly+frequent should out-prioritize big+cheap+rare.
        let keep = container(1, 0, 64, 4000);
        let evict = container(2, 1, 1024, 100);
        gd.on_container_created(&keep, SimTime::ZERO, false);
        gd.on_container_created(&evict, SimTime::ZERO, false);
        for _ in 0..5 {
            gd.on_warm_start(&keep, SimTime::from_secs(1));
        }
        gd.on_finish(&keep, SimTime::from_secs(2));
        gd.on_finish(&evict, SimTime::from_secs(2));
        assert_eq!(gd.pop_victim(), Some(ContainerId::from_raw(2)));
    }

    #[test]
    fn eviction_takes_multiple_when_needed() {
        let mut gd = GreedyDual::new();
        let a = container(1, 0, 100, 100);
        let b = container(2, 1, 100, 200);
        let c = container(3, 2, 100, 50_000);
        for x in [&a, &b, &c] {
            gd.on_container_created(x, SimTime::ZERO, false);
        }
        for x in [&a, &b, &c] {
            gd.on_finish(x, SimTime::from_secs(1));
        }
        // Two 100 MB victims cover a 150 MB need.
        let victims = [gd.pop_victim().unwrap(), gd.pop_victim().unwrap()];
        assert!(
            !victims.contains(&ContainerId::from_raw(3)),
            "highest priority survives"
        );
    }

    #[test]
    fn prewarm_created_containers_get_no_frequency() {
        let mut gd = GreedyDual::new();
        let c = container(1, 3, 100, 1000);
        gd.on_container_created(&c, SimTime::ZERO, true);
        assert_eq!(gd.frequency(FunctionId::from_index(3)), 0);
        gd.on_warm_start(&c, SimTime::from_secs(1));
        assert_eq!(gd.frequency(FunctionId::from_index(3)), 1);
    }

    #[test]
    fn incremental_pop_matches_priority_order() {
        let mut gd = GreedyDual::new();
        let keep = container(1, 0, 64, 4000);
        let evict = container(2, 1, 1024, 100);
        gd.on_container_created(&keep, SimTime::ZERO, false);
        gd.on_container_created(&evict, SimTime::ZERO, false);
        for _ in 0..5 {
            gd.on_warm_start(&keep, SimTime::from_secs(1));
        }
        gd.on_finish(&keep, SimTime::from_secs(1));
        gd.on_finish(&evict, SimTime::from_secs(1));
        assert_eq!(gd.pop_victim(), Some(ContainerId::from_raw(2)));
        assert_eq!(gd.pop_victim(), Some(ContainerId::from_raw(1)));
        assert_eq!(gd.pop_victim(), None);
    }

    #[test]
    fn incremental_pop_sees_sibling_frequency_growth() {
        let mut gd = GreedyDual::new();
        // Two containers of function 0, one of function 1 with a higher
        // standalone priority than function 0 at creation time.
        let a = container(1, 0, 1000, 1000);
        let b = container(2, 0, 1000, 1000);
        let c = container(3, 1, 100, 1000);
        for x in [&a, &b, &c] {
            gd.on_container_created(x, SimTime::ZERO, false);
            gd.on_finish(x, SimTime::ZERO);
        }
        // At this point: f0 priority = 2*1/1000 = 0.002, f1 = 1*1/100 = 0.01.
        // Warm starts on `a` push f0's frequency past the point where `b`
        // outranks `c`; the heap key cached for `b` is stale and must be
        // recomputed on pop.
        for _ in 0..20 {
            gd.on_warm_start(&a, SimTime::from_secs(1));
        }
        gd.on_finish(&a, SimTime::from_secs(1));
        // f0 freq = 22 → priority 0.022 > f1's 0.01.
        assert_eq!(gd.pop_victim(), Some(ContainerId::from_raw(3)));
    }

    #[test]
    fn warm_cycles_without_evictions_do_not_grow_the_heap() {
        let mut gd = GreedyDual::new();
        let cs: Vec<Container> = (0..8).map(|i| container(i, i as u32, 100, 1000)).collect();
        for c in &cs {
            gd.on_container_created(c, SimTime::ZERO, false);
            gd.on_finish(c, SimTime::ZERO);
        }
        for round in 1..=5_000u64 {
            for c in &cs {
                gd.on_warm_start(c, SimTime::from_secs(round));
                gd.on_finish(c, SimTime::from_secs(round));
            }
        }
        assert_eq!(gd.resident.heap_len(), cs.len(), "one entry per container");
        // Every container is still evictable, exactly once.
        let mut popped: Vec<ContainerId> = std::iter::from_fn(|| gd.pop_victim()).collect();
        popped.sort();
        assert_eq!(popped, cs.iter().map(|c| c.id()).collect::<Vec<_>>());
    }

    #[test]
    fn running_container_keeps_the_priority_of_its_last_use() {
        let mut gd = GreedyDual::new();
        let a = container(1, 0, 100, 1000);
        let b = container(2, 1, 100, 2000);
        let c = container(3, 2, 100, 9000);
        for x in [&a, &b, &c] {
            gd.on_container_created(x, SimTime::ZERO, false);
            gd.on_finish(x, SimTime::ZERO);
        }
        // `a` runs again: snapshot at clock 0, frequency 2. Its heap entry
        // stays where its first release put it.
        gd.on_warm_start(&a, SimTime::from_secs(1));
        assert_eq!(gd.resident.heap_len(), 3);
        let running = gd.priority_of(&a).unwrap();
        assert_eq!(running.to_bits(), (2.0 * 1.0 / 100.0f64).to_bits());
        // An eviction elsewhere advances the clock — past `a`'s stale
        // entry, which surfaces first and is dropped, not evicted.
        assert_eq!(gd.pop_victim(), Some(b.id()));
        gd.on_evicted(&b, 0, SimTime::from_secs(2));
        assert_eq!(gd.resident.heap_len(), 1, "only `c` is left in the order");
        assert!(gd.clock() > 0.0);
        assert_eq!(gd.priority_of(&a).unwrap().to_bits(), running.to_bits());
        // Released, it is filed at that same priority (below `c`'s
        // 0 + 1 × 9 / 100) and is evictable again.
        gd.on_finish(&a, SimTime::from_secs(3));
        assert_eq!(gd.priority_of(&a).unwrap().to_bits(), running.to_bits());
        assert_eq!(gd.pop_victim(), Some(a.id()));
        assert_eq!(gd.pop_victim(), Some(c.id()));
        // The next use snapshots the advanced clock.
        gd.on_warm_start(&a, SimTime::from_secs(4));
        assert!(gd.priority_of(&a).unwrap() > gd.clock());
    }

    #[test]
    fn tenant_weight_prefers_over_budget_victims() {
        // Without weights the small+costly+frequent container of tenant 1
        // outranks tenant 0's big+cheap one; a large enough weight on
        // tenant 1 divides its value term until it sorts first.
        let mut gd = GreedyDual::new();
        let weights = Arc::new(TenantWeights::new(4));
        gd.set_tenant_weights(Arc::clone(&weights));
        let cheap = container(1, 0, 1024, 100);
        let hot = container(2, 1, 64, 4000).with_tenant(1);
        gd.on_container_created(&cheap, SimTime::ZERO, false);
        gd.on_container_created(&hot, SimTime::ZERO, false);
        for _ in 0..5 {
            gd.on_warm_start(&hot, SimTime::from_secs(1));
        }
        gd.on_finish(&cheap, SimTime::from_secs(1));
        gd.on_finish(&hot, SimTime::from_secs(1));
        assert_eq!(
            gd.pop_victim(),
            Some(ContainerId::from_raw(1)),
            "unweighted: cheap container evicts first"
        );
        // Not evicted after all: back in the order, still in front.
        gd.on_finish(&cheap, SimTime::from_secs(1));
        weights.set(1, 10_000.0);
        assert_eq!(
            gd.pop_victim(),
            Some(ContainerId::from_raw(2)),
            "over-budget tenant's container evicts first"
        );
    }

    #[test]
    fn lru_tiebreak_among_equal_priorities() {
        let mut gd = GreedyDual::new();
        // Same function → same freq/cost/size; distinct last_used.
        let mut c1 = container(1, 0, 100, 1000);
        let mut c2 = container(2, 0, 100, 1000);
        gd.on_container_created(&c1, SimTime::ZERO, false);
        gd.on_container_created(&c2, SimTime::ZERO, false);
        c1.begin_invocation(SimTime::from_secs(1), SimTime::from_secs(2));
        c1.finish_invocation();
        c2.begin_invocation(SimTime::from_secs(5), SimTime::from_secs(6));
        c2.finish_invocation();
        // Both snapshots equal, so the older last_used (c1) goes first.
        gd.on_finish(&c2, SimTime::from_secs(6));
        gd.on_finish(&c1, SimTime::from_secs(2));
        assert_eq!(gd.pop_victim(), Some(ContainerId::from_raw(1)));
    }
}
