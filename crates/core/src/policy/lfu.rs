//! Least-frequently-used keep-alive (the paper's `FREQ` variant, §4.2).
//!
//! Uses only invocation frequency as the Greedy-Dual priority; ties break
//! by recency. Like GD, a function's frequency resets when its last
//! container is terminated.

use crate::container::{Container, ContainerId};
use crate::fn_table::FnTable;
use crate::function::FunctionId;
use crate::policy::index::{Probe, Seat, VictimHeap};
use crate::policy::{take_until_freed, KeepAlivePolicy};
use faascache_util::idmap::IdMap;
use faascache_util::{MemMb, SimTime};

/// Incremental eviction order for LFU.
///
/// A container's key — its function's frequency — grows when *any*
/// container of the function serves a warm start, and never decreases
/// while the function has resident containers, so the heap entry of a
/// resident container stays a lower bound across warm cycles (see
/// [`crate::policy::index`]).
#[derive(Debug, Default)]
struct LfuIndex {
    heap: VictimHeap<u64>,
    /// Every container that has been idle at least once.
    members: IdMap<ContainerId, Member>,
}

/// What the index keeps per member.
#[derive(Debug, Clone, Copy)]
struct Member {
    /// For key recomputation on pop.
    function: FunctionId,
    last_used: SimTime,
    seat: Seat,
}

/// Least-frequently-used keep-alive policy.
///
/// # Examples
///
/// ```
/// use faascache_core::policy::{KeepAlivePolicy, Lfu};
/// assert_eq!(Lfu::new().name(), "FREQ");
/// ```
#[derive(Debug)]
pub struct Lfu {
    /// Invocations per function (0 ≡ never seen or fully evicted).
    freq: FnTable<u64>,
    index: Option<LfuIndex>,
}

impl Lfu {
    /// Creates the policy (incremental eviction index).
    pub fn new() -> Self {
        Lfu {
            freq: FnTable::default(),
            index: Some(LfuIndex::default()),
        }
    }

    /// Creates the policy with the naive sort-based eviction path.
    pub fn naive() -> Self {
        Lfu {
            freq: FnTable::default(),
            index: None,
        }
    }

    /// Current frequency of a function.
    pub fn frequency(&self, function: FunctionId) -> u64 {
        self.freq.value(function)
    }

    fn bump(&mut self, function: FunctionId) {
        *self.freq.slot(function) += 1;
    }

    /// The container is idle: files it at its function's frequency.
    fn index_insert(&mut self, container: &Container) {
        let Some(LfuIndex { heap, members }) = self.index.as_mut() else {
            return;
        };
        let (id, last_used) = (container.id(), container.last_used());
        let member = members.entry(id).or_insert(Member {
            function: container.function(),
            last_used,
            seat: Seat::running(),
        });
        // The frequency has not decreased since the container was filed.
        let moved_down = last_used < member.last_used;
        member.last_used = last_used;
        if member.seat.file(moved_down) {
            let key = self.freq.value(container.function());
            member.seat.entered(heap.push(id, key, last_used));
            heap.shed_stale_with(members.len(), |id, gen| {
                members.get(&id).is_some_and(|m| m.seat.holds(gen))
            });
        }
    }

    /// The heap's minimum under live frequencies, popped or only peeked.
    fn next_victim(&mut self, pop: bool) -> Option<ContainerId> {
        let freq = &self.freq;
        let LfuIndex { heap, members } = self.index.as_mut()?;
        let probe = |id: ContainerId, gen: u64| match members.get_mut(&id) {
            Some(m) => m.seat.probe(gen, freq.value(m.function), m.last_used),
            None => Probe::Gone,
        };
        if !pop {
            return heap.peek_min_with(probe);
        }
        let id = heap.pop_min_with(probe)?;
        // The pool reports the eviction next; nothing else reads the record.
        members.remove(&id);
        Some(id)
    }
}

impl Default for Lfu {
    fn default() -> Self {
        Self::new()
    }
}

impl KeepAlivePolicy for Lfu {
    fn name(&self) -> &'static str {
        "FREQ"
    }

    fn on_warm_start(&mut self, container: &Container, _now: SimTime) {
        self.bump(container.function());
        if let Some(member) = self
            .index
            .as_mut()
            .and_then(|index| index.members.get_mut(&container.id()))
        {
            member.seat.mark_busy();
        }
    }

    fn on_container_created(&mut self, container: &Container, _now: SimTime, prewarm: bool) {
        if !prewarm {
            self.bump(container.function());
        } else {
            self.index_insert(container);
        }
    }

    fn on_finish(&mut self, container: &Container, _now: SimTime) {
        self.index_insert(container);
    }

    fn select_victims(&mut self, idle: &[&Container], needed: MemMb) -> Vec<ContainerId> {
        let mut ranked: Vec<&Container> = idle.to_vec();
        ranked.sort_by(|a, b| {
            self.frequency(a.function())
                .cmp(&self.frequency(b.function()))
                .then(a.last_used().cmp(&b.last_used()))
        });
        take_until_freed(&ranked, needed)
    }

    fn on_evicted(&mut self, container: &Container, remaining_of_function: usize, _now: SimTime) {
        if remaining_of_function == 0 {
            if let Some(freq) = self.freq.get_mut(container.function()) {
                *freq = 0;
            }
        }
        if let Some(index) = self.index.as_mut() {
            // The heap entry is discarded when it surfaces.
            index.members.remove(&container.id());
        }
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
        Some(self.frequency(container.function()) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_util::SimDuration;

    impl Lfu {
        /// Heap entries held, stale ones included.
        pub(crate) fn heap_len(&self) -> usize {
            self.index.as_ref().map_or(0, |index| index.heap.len())
        }
    }

    fn container(id: u64, fid: u32) -> Container {
        Container::new(
            ContainerId::from_raw(id),
            FunctionId::from_index(fid),
            MemMb::new(100),
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
            None,
            SimTime::ZERO,
        )
    }

    #[test]
    fn evicts_least_frequent() {
        let mut lfu = Lfu::new();
        let hot = container(1, 0);
        let cold = container(2, 1);
        lfu.on_container_created(&hot, SimTime::ZERO, false);
        lfu.on_container_created(&cold, SimTime::ZERO, false);
        for _ in 0..9 {
            lfu.on_warm_start(&hot, SimTime::from_secs(1));
        }
        assert_eq!(lfu.frequency(hot.function()), 10);
        assert_eq!(lfu.frequency(cold.function()), 1);
        let victims = lfu.select_victims(&[&hot, &cold], MemMb::new(100));
        assert_eq!(victims, vec![ContainerId::from_raw(2)]);
    }

    #[test]
    fn frequency_resets_on_full_eviction() {
        let mut lfu = Lfu::new();
        let c = container(1, 5);
        lfu.on_container_created(&c, SimTime::ZERO, false);
        lfu.on_warm_start(&c, SimTime::from_secs(1));
        assert_eq!(lfu.frequency(c.function()), 2);
        lfu.on_evicted(&c, 0, SimTime::from_secs(2));
        assert_eq!(lfu.frequency(c.function()), 0);
    }

    #[test]
    fn recency_breaks_frequency_ties() {
        let mut lfu = Lfu::new();
        let mut a = container(1, 0);
        let mut b = container(2, 1);
        lfu.on_container_created(&a, SimTime::ZERO, false);
        lfu.on_container_created(&b, SimTime::ZERO, false);
        a.begin_invocation(SimTime::from_secs(10), SimTime::from_secs(11));
        a.finish_invocation();
        b.begin_invocation(SimTime::from_secs(5), SimTime::from_secs(6));
        b.finish_invocation();
        // Frequencies: a=1 (created) ... begin_invocation on the container does
        // not bump policy frequency by itself; both are tied at 1 → older b first.
        let victims = lfu.select_victims(&[&a, &b], MemMb::new(100));
        assert_eq!(victims, vec![ContainerId::from_raw(2)]);
    }

    #[test]
    fn prewarm_gets_no_credit() {
        let mut lfu = Lfu::new();
        let c = container(1, 2);
        lfu.on_container_created(&c, SimTime::ZERO, true);
        assert_eq!(lfu.frequency(c.function()), 0);
    }

    #[test]
    fn incremental_pop_tracks_sibling_frequency_growth() {
        let mut lfu = Lfu::new();
        // Two containers of function 0, one of function 1.
        let a = container(1, 0);
        let b = container(2, 0);
        let c = container(3, 1);
        for x in [&a, &b, &c] {
            lfu.on_container_created(x, SimTime::ZERO, false);
        }
        // All idle; function 0 at freq 2, function 1 at freq 1.
        for x in [&a, &b, &c] {
            lfu.on_finish(x, SimTime::ZERO);
        }
        // A warm start on `a` bumps function 0 to 3 *after* `b` was
        // indexed at freq 2: the heap must re-rank `b` behind `c`.
        lfu.on_warm_start(&a, SimTime::from_secs(1));
        assert_eq!(lfu.peek_victim(), Some(ContainerId::from_raw(3)));
        assert_eq!(lfu.pop_victim(), Some(ContainerId::from_raw(3)));
        assert_eq!(lfu.pop_victim(), Some(ContainerId::from_raw(2)));
        assert_eq!(lfu.pop_victim(), None);
    }
}
