//! Incremental eviction-order indexes shared by the keep-alive policies.
//!
//! The seed implementation re-derived the eviction order on every pool loop
//! iteration: collect all idle containers, sort them by policy priority,
//! take a prefix. These structures maintain the same order persistently so
//! that evicting k victims out of n idle containers costs O(k log n):
//!
//! - [`OrderedIdleSet`] — a `BTreeSet` keyed by an immutable-while-idle
//!   priority key plus the id → key map needed to take a container out
//!   again, for policies that keep no other per-container state (LRU, TTL,
//!   SIZE). Landlord and HIST, which do, hold bare `BTreeSet`s and file
//!   the key in their own per-container record instead.
//! - [`VictimHeap`] — a lazy-deletion binary min-heap with stale-entry
//!   versioning, for policies whose key can *grow* while the container sits
//!   idle (GreedyDual and LFU: another container of the same function can
//!   warm-start and raise the function frequency). Entries are validated
//!   against the live key on pop and re-pushed when outdated, which is
//!   sound exactly because keys never decrease while a container is idle.
//!   The heap keeps no membership table of its own: the policy's
//!   per-container record remembers the generation of its authoritative
//!   entry, and the heap asks the policy on pop.
//! - [`TotalF64`] — a totally ordered `f64` wrapper (via `total_cmp`) so
//!   finite priorities can be used as ordered keys. For finite values the
//!   order coincides with the `partial_cmp` the naive sort used.
//!
//! Every policy therefore owns **at most one** table keyed by
//! [`ContainerId`], and it is an [`IdMap`] (one multiplication per lookup;
//! container ids are the pool's own counter, never wire input).

use crate::container::ContainerId;
use faascache_util::idmap::IdMap;
use faascache_util::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

/// An `f64` ordered by [`f64::total_cmp`].
///
/// Policy priorities are always finite, and over finite values `total_cmp`
/// agrees with `partial_cmp` — so replacing the naive sort's comparator
/// with this key preserves the exact victim order.
#[derive(Debug, Clone, Copy, Default)]
pub struct TotalF64(pub f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// An ordered index over idle containers whose sort key does not change
/// while the container is idle.
///
/// Iteration (and [`Self::pop_first`]) yields containers in ascending
/// `(key, last_used, id)` order — the victim order every ordering-based
/// policy uses, with the container id as the final tie-break (see the
/// pool's tie-break contract).
#[derive(Debug, Clone, Default)]
pub struct OrderedIdleSet<K: Ord + Copy> {
    set: BTreeSet<(K, SimTime, ContainerId)>,
    keys: IdMap<ContainerId, (K, SimTime)>,
}

impl<K: Ord + Copy> OrderedIdleSet<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        OrderedIdleSet {
            set: BTreeSet::new(),
            keys: IdMap::default(),
        }
    }

    /// Number of indexed containers.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Whether `id` is indexed.
    pub fn contains(&self, id: ContainerId) -> bool {
        self.keys.contains_key(&id)
    }

    /// Inserts (or re-keys) a container.
    pub fn insert(&mut self, id: ContainerId, key: K, last_used: SimTime) {
        if let Some((old_key, old_used)) = self.keys.insert(id, (key, last_used)) {
            self.set.remove(&(old_key, old_used, id));
        }
        self.set.insert((key, last_used, id));
    }

    /// Removes a container; a no-op when it is not indexed.
    pub fn remove(&mut self, id: ContainerId) {
        if let Some((key, last_used)) = self.keys.remove(&id) {
            self.set.remove(&(key, last_used, id));
        }
    }

    /// The smallest entry without removing it.
    pub fn first(&self) -> Option<(K, SimTime, ContainerId)> {
        self.set.first().copied()
    }

    /// Removes and returns the smallest entry.
    pub fn pop_first(&mut self) -> Option<(K, SimTime, ContainerId)> {
        let entry = self.set.pop_first()?;
        self.keys.remove(&entry.2);
        Some(entry)
    }
}

type HeapEntry<K> = Reverse<(K, SimTime, ContainerId, u64)>;

/// A lazy-deletion min-heap over idle containers, for policies whose key
/// may *increase* while a container is idle.
///
/// The heap holds no membership table. [`Self::push`] returns a fresh
/// generation number that the policy files in its own per-container
/// record; that record names the container's one *authoritative* entry.
/// Removing a container, or pushing it again, is just the policy
/// forgetting or overwriting that generation — the superseded heap entry
/// is discarded when it surfaces. On pop, a live entry's stored key is
/// compared against the policy's current key: if the key has grown since
/// the entry was pushed, the entry is re-pushed at the current key (same
/// generation: the outdated copy has just left the heap). This settles in
/// at most one re-push per live entry per call *provided keys never
/// decrease while idle* — the invariant GreedyDual and LFU satisfy
/// (frequency only grows while a function has resident containers).
#[derive(Debug, Clone, Default)]
pub struct VictimHeap<K: Ord + Copy> {
    heap: BinaryHeap<HeapEntry<K>>,
    next_gen: u64,
}

impl<K: Ord + Copy> VictimHeap<K> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        VictimHeap {
            heap: BinaryHeap::new(),
            next_gen: 0,
        }
    }

    /// Pushes an entry for `id` at `key` and returns its generation. The
    /// caller records it as the authoritative one for `id`, which
    /// supersedes any earlier entry of the same container.
    pub fn push(&mut self, id: ContainerId, key: K, last_used: SimTime) -> u64 {
        let gen = self.next_gen;
        self.next_gen += 1;
        self.heap.push(Reverse((key, last_used, id, gen)));
        gen
    }

    /// Number of heap entries, authoritative and stale alike.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap holds no entry at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Sheds the stale entries once they outnumber the `live`
    /// authoritative ones; call before a push.
    ///
    /// Every warm cycle leaves one superseded entry behind and only an
    /// eviction ever pops them, so without this a pool under no memory
    /// pressure would grow the heap by one entry per request forever. The
    /// sweep runs at most once per `live` pushes: amortized O(1).
    /// `is_live(id, generation)` says whether that entry is still
    /// authoritative; which stale entries exist never changes what a pop
    /// returns.
    pub fn shed_stale_with<F>(&mut self, live: usize, mut is_live: F)
    where
        F: FnMut(ContainerId, u64) -> bool,
    {
        const SLACK: usize = 64;
        if self.heap.len() > 2 * live + SLACK {
            self.heap
                .retain(|&Reverse((_, _, id, gen))| is_live(id, gen));
        }
    }

    /// Drops every entry (the caller re-pushes its live members).
    ///
    /// Lazy re-pushing only corrects keys that have *grown*: an entry whose
    /// live key has shrunk below its stored key stays buried until the
    /// stale (too-high) key surfaces. When an external input to the key
    /// function changes in a way that may decrease keys — e.g. a tenant
    /// eviction weight is raised — callers clear and rebuild.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The container with the minimal `(current key, last_used, id)`,
    /// without removing it; `None` when no live entry remains. Settles
    /// stale heap entries as a side effect.
    ///
    /// `live_key(id, generation)` must return `None` when `generation` is
    /// not `id`'s authoritative entry (removed or superseded), and
    /// otherwise the policy's *live* key for `id`, which must be `>=` the
    /// key the entry was pushed with.
    pub fn peek_min_with<F>(&mut self, mut live_key: F) -> Option<ContainerId>
    where
        F: FnMut(ContainerId, u64) -> Option<K>,
    {
        loop {
            let Reverse((key, last_used, id, gen)) = *self.heap.peek()?;
            match live_key(id, gen) {
                Some(live) if live == key => return Some(id),
                Some(live) => {
                    // Outdated: re-push at the live key. The next time this
                    // entry surfaces (policy state unchanged within one
                    // call) the keys match.
                    self.heap.pop();
                    self.heap.push(Reverse((live, last_used, id, gen)));
                }
                None => {
                    self.heap.pop();
                }
            }
        }
    }

    /// Removes and returns what [`Self::peek_min_with`] would return. The
    /// caller must then forget the popped container's generation.
    pub fn pop_min_with<F>(&mut self, live_key: F) -> Option<ContainerId>
    where
        F: FnMut(ContainerId, u64) -> Option<K>,
    {
        let id = self.peek_min_with(live_key)?;
        self.heap.pop();
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ContainerId {
        ContainerId::from_raw(n)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn total_f64_orders_like_partial_cmp_on_finite() {
        let mut v = [TotalF64(3.5), TotalF64(-1.0), TotalF64(0.0), TotalF64(2.0)];
        v.sort();
        let raw: Vec<f64> = v.iter().map(|x| x.0).collect();
        assert_eq!(raw, vec![-1.0, 0.0, 2.0, 3.5]);
    }

    #[test]
    fn ordered_set_pops_in_key_then_recency_then_id_order() {
        let mut set = OrderedIdleSet::new();
        set.insert(id(3), 1u64, t(5));
        set.insert(id(1), 1, t(5));
        set.insert(id(2), 0, t(9));
        set.insert(id(4), 1, t(2));
        assert_eq!(set.pop_first().unwrap().2, id(2), "lowest key first");
        assert_eq!(set.pop_first().unwrap().2, id(4), "older last_used next");
        assert_eq!(set.pop_first().unwrap().2, id(1), "id breaks exact ties");
        assert_eq!(set.pop_first().unwrap().2, id(3));
        assert!(set.pop_first().is_none());
    }

    #[test]
    fn ordered_set_rekey_and_remove() {
        let mut set = OrderedIdleSet::new();
        set.insert(id(1), 5u64, t(0));
        set.insert(id(2), 1, t(0));
        set.insert(id(2), 9, t(0)); // re-key
        assert_eq!(set.len(), 2);
        assert_eq!(set.first().unwrap().2, id(1));
        set.remove(id(1));
        set.remove(id(1)); // idempotent
        assert_eq!(set.pop_first().unwrap().2, id(2));
        assert!(set.is_empty());
    }

    /// The membership record a policy keeps next to the heap: the
    /// authoritative generation of each member.
    type Members = std::collections::BTreeMap<ContainerId, u64>;

    fn push(heap: &mut VictimHeap<u64>, m: &mut Members, id: ContainerId, key: u64, at: SimTime) {
        m.insert(id, heap.push(id, key, at));
    }

    /// Pops against `m` with every live member at the key `key_of` says.
    fn pop(
        heap: &mut VictimHeap<u64>,
        m: &mut Members,
        key_of: impl Fn(ContainerId) -> u64,
    ) -> Option<ContainerId> {
        let id = heap.pop_min_with(|id, gen| (m.get(&id) == Some(&gen)).then(|| key_of(id)))?;
        m.remove(&id);
        Some(id)
    }

    #[test]
    fn victim_heap_lazy_removal_discards_stale_entries() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        push(&mut heap, &mut m, id(1), 1, t(0));
        push(&mut heap, &mut m, id(2), 2, t(0));
        m.remove(&id(1));
        assert_eq!(pop(&mut heap, &mut m, |_| 2), Some(id(2)));
        assert_eq!(pop(&mut heap, &mut m, |_| 0), None);
    }

    #[test]
    fn victim_heap_repushes_outdated_keys() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        // id 1 inserted with a low key that has since grown past id 2's.
        push(&mut heap, &mut m, id(1), 1, t(0));
        push(&mut heap, &mut m, id(2), 3, t(0));
        let live = |i: ContainerId| if i == id(1) { 5u64 } else { 3 };
        assert_eq!(
            heap.peek_min_with(|i, gen| (m.get(&i) == Some(&gen)).then(|| live(i))),
            Some(id(2))
        );
        assert_eq!(pop(&mut heap, &mut m, live), Some(id(2)));
        assert_eq!(pop(&mut heap, &mut m, live), Some(id(1)));
        assert_eq!(pop(&mut heap, &mut m, live), None);
    }

    #[test]
    fn victim_heap_ties_break_by_last_used_then_id() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        push(&mut heap, &mut m, id(7), 1, t(3));
        push(&mut heap, &mut m, id(4), 1, t(3));
        push(&mut heap, &mut m, id(9), 1, t(1));
        assert_eq!(pop(&mut heap, &mut m, |_| 1), Some(id(9)));
        assert_eq!(pop(&mut heap, &mut m, |_| 1), Some(id(4)));
        assert_eq!(pop(&mut heap, &mut m, |_| 1), Some(id(7)));
    }

    #[test]
    fn victim_heap_reinsert_supersedes_old_entry() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        push(&mut heap, &mut m, id(1), 10, t(0));
        push(&mut heap, &mut m, id(1), 2, t(5)); // became idle again with a new key
        assert_eq!(m.len(), 1);
        assert_eq!(pop(&mut heap, &mut m, |_| 2), Some(id(1)));
        assert!(pop(&mut heap, &mut m, |_| 2).is_none());
    }

    #[test]
    fn victim_heap_sheds_stale_entries_once_they_outnumber_the_live() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        // Ten members re-queued a thousand times each, never popped: the
        // pattern of a pool that serves warm hits and never evicts.
        for round in 0..1_000u64 {
            for i in 0..10 {
                heap.shed_stale_with(m.len(), |id, gen| m.get(&id) == Some(&gen));
                push(&mut heap, &mut m, id(i), round, t(round));
            }
        }
        assert!(heap.len() <= 2 * 10 + 64 + 1, "heap holds {}", heap.len());
        // Shedding changed nothing a pop can see.
        for i in 0..10 {
            assert_eq!(pop(&mut heap, &mut m, |_| 999), Some(id(i)));
        }
        assert_eq!(pop(&mut heap, &mut m, |_| 999), None);
        assert!(heap.is_empty());
    }

    #[test]
    fn victim_heap_clear_forgets_every_entry() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        push(&mut heap, &mut m, id(1), 10, t(0));
        heap.clear();
        assert!(pop(&mut heap, &mut m, |_| 10).is_none(), "entry is gone");
        // Rebuilt at a *lower* key than before: pops at that key.
        push(&mut heap, &mut m, id(1), 4, t(0));
        assert_eq!(pop(&mut heap, &mut m, |_| 4), Some(id(1)));
    }
}
