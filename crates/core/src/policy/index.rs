//! The one eviction-order structure shared by the keep-alive policies.
//!
//! The pool is "ranked only when an eviction is needed" (paper §6), so no
//! policy keeps its idle containers sorted. Every policy files them in a
//! [`VictimHeap`] — a lazy-deletion binary min-heap over
//! `(key, last_used, id)` with stale-entry versioning:
//!
//! - going idle, or being re-keyed, is one O(1)-amortized
//!   [`VictimHeap::push`] whose generation the policy records in its one
//!   per-container table; that record names the container's single
//!   *authoritative* entry;
//! - a warm start, an eviction or a migration just forgets (or overwrites)
//!   that generation — the superseded entry is discarded when it surfaces
//!   in [`VictimHeap::peek_min_with`]/[`VictimHeap::pop_min_with`], or by
//!   the [`VictimHeap::shed_stale_with`] sweep every push path runs first;
//! - the order is only materialized by a pop: O(log n) per victim.
//!
//! # Re-push eagerly, or rely on re-push-on-pop?
//!
//! On pop the heap compares an authoritative entry's stored key against
//! the policy's live key and re-pushes it when they differ. That repairs a
//! key that has **grown** since the push (the entry surfaces early, is
//! found outdated, and sinks to its place) and nothing else:
//!
//! - a key that is **fixed** while idle (LRU, TTL, SIZE: `last_used` or the
//!   size; Landlord: the constant `offset_at_insert + credit / size`) is
//!   trivially exact — stored and live keys never differ;
//! - a key that **only grows** while idle (GreedyDual, FREQ: a sibling's
//!   warm start raises the function's frequency) may rely on
//!   re-push-on-pop;
//! - a key that can **decrease** while idle (HIST: the release-early
//!   deadline once a pre-warm is scheduled; GreedyDual when a tenant
//!   weight is raised) stays buried under its too-high stored key, so the
//!   policy must re-push eagerly at the moment the key moves — a fresh
//!   `push` superseding the old generation — or [`VictimHeap::clear`] and
//!   rebuild.
//!
//! [`OrderedIdleSet`] is the thin id → `(key, last_used, generation)`
//! table over a `VictimHeap` for the policies that keep no other
//! per-container state (LRU, TTL, SIZE); Landlord, HIST, GreedyDual and
//! FREQ file the generation in their own per-container record. Every
//! policy therefore owns **at most one** table keyed by [`ContainerId`],
//! and it is an [`IdMap`] (one multiplication per lookup; container ids
//! are the pool's own counter, never wire input).
//!
//! [`TotalF64`] is a totally ordered `f64` wrapper (via `total_cmp`) so
//! finite priorities can be used as heap keys. For finite values the order
//! coincides with the `partial_cmp` the naive sort uses.

use crate::container::ContainerId;
use faascache_util::idmap::IdMap;
use faascache_util::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// The idle containers of a policy whose sort key does not change while
/// the container is idle, and that keeps nothing else per container: an
/// id → `(key, last_used, generation)` table over a [`VictimHeap`].
///
/// [`Self::first`] and [`Self::pop_first`] yield containers in ascending
/// `(key, last_used, id)` order — the victim order every ordering-based
/// policy uses, with the container id as the final tie-break (see the
/// pool's tie-break contract).
#[derive(Debug, Clone, Default)]
pub struct OrderedIdleSet<K: Ord + Copy> {
    heap: VictimHeap<K>,
    /// What each member is filed under, and the generation of its
    /// authoritative heap entry.
    filed: IdMap<ContainerId, (K, SimTime, u64)>,
}

impl<K: Ord + Copy> OrderedIdleSet<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        OrderedIdleSet {
            heap: VictimHeap::new(),
            filed: IdMap::default(),
        }
    }

    /// Inserts (or re-keys) a container.
    pub fn insert(&mut self, id: ContainerId, key: K, last_used: SimTime) {
        let filed = &self.filed;
        self.heap.shed_stale_with(filed.len(), |id, gen| {
            filed.get(&id).is_some_and(|&(_, _, live)| live == gen)
        });
        let gen = self.heap.push(id, key, last_used);
        self.filed.insert(id, (key, last_used, gen));
    }

    /// Removes a container; a no-op when it is not indexed. Its heap entry
    /// goes stale and is discarded when it surfaces.
    pub fn remove(&mut self, id: ContainerId) {
        self.filed.remove(&id);
    }

    /// The smallest entry without removing it.
    pub fn first(&mut self) -> Option<(K, SimTime, ContainerId)> {
        let id = self.head(false)?;
        let &(key, last_used, _) = self.filed.get(&id).expect("peeked a live member");
        Some((key, last_used, id))
    }

    /// Removes and returns the smallest entry.
    pub fn pop_first(&mut self) -> Option<(K, SimTime, ContainerId)> {
        let id = self.head(true)?;
        let (key, last_used, _) = self.filed.remove(&id).expect("popped a live member");
        Some((key, last_used, id))
    }

    /// The heap's minimum among the filed members, popped or only peeked.
    fn head(&mut self, pop: bool) -> Option<ContainerId> {
        let filed = &self.filed;
        let live_key = |id: ContainerId, gen: u64| match filed.get(&id) {
            Some(&(key, _, live)) if live == gen => Some(key),
            _ => None,
        };
        if pop {
            self.heap.pop_min_with(live_key)
        } else {
            self.heap.peek_min_with(live_key)
        }
    }
}

type HeapEntry<K> = Reverse<(K, SimTime, ContainerId, u64)>;

/// A lazy-deletion min-heap over idle containers: the eviction (and
/// expiry) order of every policy. See the module docs for which keys need
/// an eager re-push.
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
/// at most one re-push per live entry per call *provided the live key of
/// an authoritative entry is never below its stored key* — true of fixed
/// keys, of keys that only grow while idle (GreedyDual and LFU: frequency
/// only grows while a function has resident containers), and of any key
/// the policy re-pushes whenever it moves (HIST).
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
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    impl<K: Ord + Copy> OrderedIdleSet<K> {
        /// Heap entries held, stale ones included.
        pub(crate) fn heap_len(&self) -> usize {
            self.heap.len()
        }
    }

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
        set.insert(id(2), 9, t(0)); // re-key upwards
        assert_eq!(set.first(), Some((5, t(0), id(1))));
        set.insert(id(2), 3, t(0)); // and back down, below id 1
        assert_eq!(set.first(), Some((3, t(0), id(2))));
        set.insert(id(2), 9, t(0));
        set.remove(id(1));
        set.remove(id(1)); // idempotent
        assert_eq!(set.pop_first(), Some((9, t(0), id(2))), "one entry per id");
        assert_eq!(set.pop_first(), None);
    }

    /// The membership record a policy keeps next to the heap: the
    /// authoritative generation of each member.
    type Members = BTreeMap<ContainerId, u64>;

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

    /// One step of the model test below.
    #[derive(Debug, Clone, Copy)]
    enum HeapOp {
        /// (Re-)file the container at this key and `last_used`, the way a
        /// policy does when a container goes idle or its key moves — below,
        /// at or above the key it is filed under.
        File(u64, u64, u64),
        /// Raise the live key without telling the heap (a sibling's warm
        /// start under GreedyDual/FREQ): only re-push-on-pop repairs it.
        Grow(u64, u64),
        /// Warm start / eviction by someone else: forget the generation.
        Forget(u64),
        Peek,
        Pop,
    }

    /// What a policy's per-container table holds for the model test: id →
    /// (live key, `last_used`, authoritative generation).
    type Filed = BTreeMap<ContainerId, (u64, SimTime, u64)>;

    fn live_key(filed: &Filed, id: ContainerId, gen: u64) -> Option<u64> {
        let &(key, _, live) = filed.get(&id)?;
        (live == gen).then_some(key)
    }

    fn heap_op_strategy() -> impl Strategy<Value = HeapOp> {
        // Few distinct keys and times, so equal-key ties (broken by
        // `last_used`, then id) and equal-key re-files are common.
        (0u8..8, 0u64..32, 0u64..6, 0u64..4).prop_map(|(op, id, key, at)| match op {
            0..=2 => HeapOp::File(id, key, at),
            3 => HeapOp::Grow(id, 1 + key % 3),
            4 => HeapOp::Forget(id),
            5 => HeapOp::Peek,
            _ => HeapOp::Pop,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lazy heap against the eagerly sorted tree it replaced: a
        /// `BTreeSet<(key, last_used, id)>` holding exactly the live
        /// members at their live keys. Every peek and pop agrees.
        #[test]
        fn victim_heap_matches_a_tree_oracle(ops in prop::collection::vec(heap_op_strategy(), 1..400)) {
            let mut heap = VictimHeap::new();
            let mut members = Filed::new();
            let mut model: BTreeSet<(u64, SimTime, ContainerId)> = BTreeSet::new();
            for op in ops {
                match op {
                    HeapOp::File(i, key, at) => {
                        let (i, at) = (id(i), t(at));
                        if let Some((old_key, old_at, _)) = members.remove(&i) {
                            model.remove(&(old_key, old_at, i));
                        }
                        heap.shed_stale_with(members.len(), |i, gen| live_key(&members, i, gen).is_some());
                        members.insert(i, (key, at, heap.push(i, key, at)));
                        model.insert((key, at, i));
                        // Shedding before every push bounds the stale entries.
                        prop_assert!(heap.len() <= 2 * members.len() + 64 + 1, "heap holds {}", heap.len());
                    }
                    HeapOp::Grow(i, by) => {
                        if let Some((key, at, _)) = members.get_mut(&id(i)) {
                            model.remove(&(*key, *at, id(i)));
                            *key += by;
                            model.insert((*key, *at, id(i)));
                        }
                    }
                    HeapOp::Forget(i) => {
                        if let Some((key, at, _)) = members.remove(&id(i)) {
                            model.remove(&(key, at, id(i)));
                        }
                    }
                    HeapOp::Peek => {
                        let got = heap.peek_min_with(|i, gen| live_key(&members, i, gen));
                        prop_assert_eq!(got, model.first().map(|&(_, _, i)| i));
                    }
                    HeapOp::Pop => {
                        let got = heap.pop_min_with(|i, gen| live_key(&members, i, gen));
                        prop_assert_eq!(got, model.pop_first().map(|(_, _, i)| i));
                        if let Some(i) = got {
                            members.remove(&i);
                        }
                    }
                }
            }
            // Drains in exactly the tree's order.
            while let Some((_, _, want)) = model.pop_first() {
                let got = heap.pop_min_with(|i, gen| live_key(&members, i, gen));
                prop_assert_eq!(got, Some(want));
                members.remove(&want);
            }
            prop_assert_eq!(heap.pop_min_with(|i, gen| live_key(&members, i, gen)), None);
        }
    }
}
