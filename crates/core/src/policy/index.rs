//! The one eviction-order structure shared by the keep-alive policies.
//!
//! The pool is "ranked only when an eviction is needed" (paper §6), so no
//! policy keeps its idle containers sorted, and a warm start — a cache
//! *hit* — does not touch the order at all. Every policy files its
//! containers in a [`VictimHeap`], a binary min-heap over
//! `(key, last_used, id)` whose entries are **lower bounds**:
//!
//! - each resident container has at most one *authoritative* entry (the
//!   generation its [`Seat`] records), stored under a `(key, last_used)`
//!   pair that is `<=` the container's live pair, which the policy keeps
//!   in (or computes from) its own per-container record;
//! - a warm start only marks the seat busy; the release that follows
//!   overwrites the live pair in the record and leaves the heap alone,
//!   because the pair has not moved down;
//! - the order is materialized by an eviction (or an expiry sweep) only:
//!   [`VictimHeap::peek_min_with`] asks the policy about the entry on top
//!   ([`Probe`]) and drops it when the container is gone or busy, sinks it
//!   to its live pair when that has grown, and returns it when stored and
//!   live pair are equal. That one is the minimum of
//!   `(live key, last_used, id)` over the idle containers, since every
//!   other idle container's live pair is `>=` its stored pair `>=` the
//!   top's.
//!
//! # When does filing a container push?
//!
//! One rule, applied through [`Seat::file`] whenever a container goes idle
//! or an idle container's key moves: push a superseding entry **iff** the
//! container has no entry in the heap or its live pair *moved down*. A
//! pair that only ever moves up between pushes stays `>=` the pair of the
//! last push, which is the bound. What that means for a key depends only
//! on which way it can move between two filings:
//!
//! | the pair … | examples | on release / re-key |
//! |---|---|---|
//! | is **fixed** | SIZE's size | bound holds: no heap operation |
//! | only **grows** | `last_used` itself (LRU, TTL, every tie-break); FREQ's frequency while resident; Landlord's `offset + cost / size` (offset monotone); GreedyDual's `clock + freq × cost / size` (clock and frequency monotone); HIST's expiry deadline on a hit | bound holds: no heap operation |
//! | can **decrease** | HIST's victim key (predicted next use, *descending*, so a hit moves it down) and its release-early deadline once a pre-warm is scheduled; GreedyDual when a tenant weight is raised | superseding push (GreedyDual instead [`VictimHeap::clear`]s and refiles everything: a weight moves every key of a tenant at once) |
//!
//! So under LRU, TTL, SIZE, FREQ, Landlord and GreedyDual a warm cycle
//! performs no heap operation, and the heap holds at most one entry per
//! resident container; under HIST a release pushes once, for the victim
//! order. FREQ and GreedyDual do not even compute their key on a release:
//! it only grows, so comparing `last_used` settles `moved_down`. Entries
//! left behind by a superseding push, or by a container that was evicted
//! or migrated by id rather than popped, are dropped when they surface, or
//! by the [`VictimHeap::shed_stale_with`] sweep once they outnumber the
//! live ones.
//!
//! [`OrderedIdleSet`] is the thin id → `(key, last_used, seat)` table over
//! a `VictimHeap` for the policies that keep no other per-container state
//! (LRU, TTL, SIZE); Landlord, HIST, GreedyDual and FREQ keep the seat in
//! their own per-container record. Every policy therefore owns **at most
//! one** table keyed by [`ContainerId`], and it is an [`IdMap`] (one
//! multiplication per lookup; container ids are the pool's own counter,
//! never wire input).
//!
//! [`TotalF64`] is a totally ordered `f64` wrapper (via `total_cmp`) so
//! finite priorities can be used as heap keys. For finite values the order
//! coincides with the `partial_cmp` the naive sort uses.

use crate::container::ContainerId;
use faascache_util::idmap::IdMap;
use faascache_util::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;

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

/// What a policy answers when [`VictimHeap::peek_min_with`] asks about the
/// container behind the heap entry `(id, generation)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<K> {
    /// Evicted or migrated away, or the entry was superseded by a later
    /// push: the entry is dropped.
    Gone,
    /// Running an invocation: the entry is dropped, and the container's
    /// [`Seat`] has noted that it holds none, so its release pushes.
    Busy,
    /// Idle at this live `(key, last_used)`.
    Idle(K, SimTime),
}

/// A container's standing in one [`VictimHeap`], kept in the policy's
/// per-container record — next to the live `(key, last_used)` pair, or
/// what the policy computes it from — for as long as the container is
/// resident.
///
/// The policy funnels every event through it: [`Self::mark_busy`] on a
/// warm start, [`Self::file`] (and [`Self::entered`] if that says to
/// push) on a release or a re-key, [`Self::probe`] from the closure it
/// hands to the heap, [`Self::take`] for the popped victim. Dropping the
/// record with the container is all an eviction by id needs.
#[derive(Debug, Clone, Copy)]
pub struct Seat {
    /// One more than the generation of the container's authoritative heap
    /// entry, while that entry is still in the heap.
    entry: Option<NonZeroU64>,
    /// Running an invocation: not a victim, whatever the heap holds.
    busy: bool,
}

impl Seat {
    /// The seat of a running container that has never been filed.
    pub fn running() -> Self {
        Seat {
            entry: None,
            busy: true,
        }
    }

    /// Whether the container is running an invocation.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// A warm start: the container leaves the eviction order without the
    /// heap hearing of it.
    pub fn mark_busy(&mut self) {
        self.busy = true;
    }

    /// The container is idle — went idle just now, or was re-keyed while
    /// idle — at a live pair that `moved_down` since it was last filed, or
    /// did not. Returns whether it needs a fresh heap entry, which is only
    /// if it has none or the pair moved down: the caller then pushes one
    /// at the live pair, hands its generation to [`Self::entered`] and
    /// runs its [`VictimHeap::shed_stale_with`]. Otherwise the entry it
    /// has is still a lower bound and the heap is left alone.
    #[must_use = "true means: push an entry and call `entered`"]
    pub fn file(&mut self, moved_down: bool) -> bool {
        self.busy = false;
        moved_down || self.entry.is_none()
    }

    /// `generation` is the container's authoritative heap entry from now
    /// on (superseding the one it had, if any).
    pub fn entered(&mut self, generation: u64) {
        self.entry = NonZeroU64::new(generation + 1);
    }

    /// Whether heap entry `generation` is this seat's authoritative one.
    pub fn holds(&self, generation: u64) -> bool {
        self.entry == NonZeroU64::new(generation + 1)
    }

    /// The answer to the heap's question about entry `generation`, for a
    /// container whose live pair is `(key, last_used)`. The heap drops a
    /// busy container's entry, and the seat notes it.
    pub fn probe<K>(&mut self, generation: u64, key: K, last_used: SimTime) -> Probe<K> {
        if !self.holds(generation) {
            Probe::Gone
        } else if self.busy {
            self.entry = None;
            Probe::Busy
        } else {
            Probe::Idle(key, last_used)
        }
    }

    /// The container's entry has left the heap: it was popped as the
    /// victim, or the heap was cleared.
    pub fn take(&mut self) {
        self.entry = None;
    }
}

/// What [`OrderedIdleSet`] keeps per member.
#[derive(Debug, Clone, Copy)]
struct Member<K> {
    /// The live pair the member is ordered by.
    key: K,
    last_used: SimTime,
    seat: Seat,
}

/// The containers of a policy that orders them by a key it hands over on
/// every release, and that keeps nothing else per container: an
/// id → `(key, last_used, seat)` table over a [`VictimHeap`].
///
/// [`Self::first`] and [`Self::pop_first`] yield idle members in ascending
/// `(key, last_used, id)` order — the victim order every ordering-based
/// policy uses, with the container id as the final tie-break (see the
/// pool's tie-break contract).
#[derive(Debug, Clone, Default)]
pub struct OrderedIdleSet<K: Ord + Copy> {
    heap: VictimHeap<K>,
    filed: IdMap<ContainerId, Member<K>>,
}

impl<K: Ord + Copy> OrderedIdleSet<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        OrderedIdleSet {
            heap: VictimHeap::new(),
            filed: IdMap::default(),
        }
    }

    /// The container is idle at `(key, last_used)`: a new member, a busy
    /// one released, or an idle one re-keyed.
    pub fn insert(&mut self, id: ContainerId, key: K, last_used: SimTime) {
        let member = self.filed.entry(id).or_insert(Member {
            key,
            last_used,
            seat: Seat::running(),
        });
        let moved_down = (key, last_used) < (member.key, member.last_used);
        (member.key, member.last_used) = (key, last_used);
        if member.seat.file(moved_down) {
            member.seat.entered(self.heap.push(id, key, last_used));
            let filed = &self.filed;
            self.heap.shed_stale_with(filed.len(), |id, gen| {
                filed.get(&id).is_some_and(|m| m.seat.holds(gen))
            });
        }
    }

    /// The member started an invocation: it stays filed but is not
    /// yielded until it is inserted again. A no-op for a non-member.
    pub fn mark_busy(&mut self, id: ContainerId) {
        if let Some(member) = self.filed.get_mut(&id) {
            member.seat.mark_busy();
        }
    }

    /// Removes a container; a no-op when it is not indexed. Its heap entry
    /// is discarded when it surfaces.
    pub fn remove(&mut self, id: ContainerId) {
        self.filed.remove(&id);
    }

    /// The smallest idle entry without removing it.
    pub fn first(&mut self) -> Option<(K, SimTime, ContainerId)> {
        let id = self.head(false)?;
        let member = self.filed.get(&id).expect("peeked a live member");
        Some((member.key, member.last_used, id))
    }

    /// Removes and returns the smallest idle entry.
    pub fn pop_first(&mut self) -> Option<(K, SimTime, ContainerId)> {
        let id = self.head(true)?;
        let member = self.filed.remove(&id).expect("popped a live member");
        Some((member.key, member.last_used, id))
    }

    /// The heap's minimum among the idle members, popped or only peeked.
    fn head(&mut self, pop: bool) -> Option<ContainerId> {
        let filed = &mut self.filed;
        let probe = |id: ContainerId, gen: u64| match filed.get_mut(&id) {
            Some(m) => m.seat.probe(gen, m.key, m.last_used),
            None => Probe::Gone,
        };
        if pop {
            self.heap.pop_min_with(probe)
        } else {
            self.heap.peek_min_with(probe)
        }
    }
}

type HeapEntry<K> = Reverse<(K, SimTime, ContainerId, u64)>;

/// A min-heap of lower bounds over a policy's containers: the eviction
/// (and expiry) order of every policy. See the module docs for the one
/// rule that keeps it sound.
///
/// The heap holds no membership table. [`Self::push`] returns a fresh
/// generation number that the policy files in the container's [`Seat`];
/// that names the container's one *authoritative* entry. Evicting a
/// container by id, or pushing it again, is just the policy dropping or
/// overwriting that generation — the superseded heap entry is discarded
/// when it surfaces. A pop asks the policy about the top entry
/// ([`Probe`]) and settles it: dropped when gone or busy, moved to its
/// live pair (same generation: the outdated copy has just left the heap)
/// when that has grown, returned when stored and live pair agree. This
/// settles in at most one move per authoritative entry per call *provided
/// the live pair of an authoritative entry is never below its stored
/// pair*, which holds as long as every downward move of a live pair goes
/// through [`Seat::file`] and the push it asks for.
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

    /// Pushes an entry for `id` at `(key, last_used)` and returns its
    /// generation. The caller records it as the authoritative one for
    /// `id`, which supersedes any earlier entry of the same container.
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

    /// Sheds the stale entries once they outnumber the `live` resident
    /// containers; call after a push.
    ///
    /// A superseding push, and a container evicted or migrated by id,
    /// leave an entry behind that only an eviction would ever pop, so
    /// without this a pool under no memory pressure whose warm set is
    /// re-homed, or whose keys move down (HIST), would grow the heap
    /// forever. The sweep runs at most once per `live` pushes: amortized
    /// O(1). `is_live(id, generation)` says whether that entry is still
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

    /// Drops every entry (the caller refiles its idle members and tells
    /// every [`Seat`] that its entry is gone).
    ///
    /// When an external input to the key function changes in a way that
    /// may decrease many keys at once — a tenant eviction weight is
    /// raised — callers clear and refile instead of pushing one
    /// superseding entry per container.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The idle container with the minimal `(live key, last_used, id)`,
    /// without removing it; `None` when no idle container has an entry.
    /// Settles the entries above it as a side effect.
    ///
    /// `probe(id, generation)` is normally [`Seat::probe`] of the
    /// container's record, or [`Probe::Gone`] when there is none. A live
    /// pair it reports must be `>=` the pair the entry is stored under.
    pub fn peek_min_with<F>(&mut self, mut probe: F) -> Option<ContainerId>
    where
        F: FnMut(ContainerId, u64) -> Probe<K>,
    {
        loop {
            let mut top = self.heap.peek_mut()?;
            let Reverse((key, last_used, id, gen)) = *top;
            match probe(id, gen) {
                Probe::Idle(live, at) if (live, at) == (key, last_used) => return Some(id),
                Probe::Idle(live, at) => {
                    // Outdated: sinks to its live pair as `top` drops. The
                    // next time it surfaces (policy state unchanged within
                    // one call) the pairs match.
                    *top = Reverse((live, at, id, gen));
                }
                Probe::Gone | Probe::Busy => {
                    PeekMut::pop(top);
                }
            }
        }
    }

    /// Removes and returns what [`Self::peek_min_with`] would return. The
    /// caller must then [`Seat::take`] the popped container's entry (or
    /// drop its record).
    pub fn pop_min_with<F>(&mut self, probe: F) -> Option<ContainerId>
    where
        F: FnMut(ContainerId, u64) -> Probe<K>,
    {
        let id = self.peek_min_with(probe)?;
        self.heap.pop();
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_util::SimDuration;
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
        assert_eq!(set.heap_len(), 2, "a key that grows keeps its entry");
        assert_eq!(set.first(), Some((5, t(0), id(1))));
        set.insert(id(2), 3, t(0)); // and back down, below id 1
        assert_eq!(set.first(), Some((3, t(0), id(2))));
        set.insert(id(2), 9, t(0));
        set.remove(id(1));
        set.remove(id(1)); // idempotent
        assert_eq!(set.pop_first(), Some((9, t(0), id(2))), "one entry per id");
        assert_eq!(set.pop_first(), None);
    }

    #[test]
    fn ordered_set_warm_cycles_leave_the_heap_alone() {
        let mut set = OrderedIdleSet::new();
        for i in 0..4 {
            set.insert(id(i), t(i), t(i));
        }
        // A thousand LRU-style warm cycles: `last_used` is the key.
        for round in 1..=1_000u64 {
            for i in 0..4 {
                set.mark_busy(id(i));
                set.insert(id(i), t(10 * round + i), t(10 * round + i));
            }
            assert_eq!(set.heap_len(), 4, "zero pushes after each member's first");
        }
        // A busy member is not yielded; its release makes it the newest.
        set.mark_busy(id(0));
        assert_eq!(set.first(), Some((t(10_001), t(10_001), id(1))));
        assert_eq!(
            set.heap_len(),
            3,
            "the busy member's entry surfaced and left"
        );
        set.insert(id(0), t(20_000), t(20_000));
        assert_eq!(set.heap_len(), 4, "so its release pushed");
        let order: Vec<u64> = std::iter::from_fn(|| set.pop_first())
            .map(|(_, _, id)| id.as_raw())
            .collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    /// The record a policy keeps next to the heap: id → live `(key,
    /// last_used)` and the seat.
    type Members = BTreeMap<ContainerId, (u64, SimTime, Seat)>;

    /// A release or a re-key: the container is idle at `(key, at)`.
    fn file(heap: &mut VictimHeap<u64>, m: &mut Members, id: ContainerId, key: u64, at: SimTime) {
        let rec = m.entry(id).or_insert((key, at, Seat::running()));
        let moved_down = (key, at) < (rec.0, rec.1);
        (rec.0, rec.1) = (key, at);
        if rec.2.file(moved_down) {
            rec.2.entered(heap.push(id, key, at));
            heap.shed_stale_with(m.len(), |id, gen| {
                m.get(&id).is_some_and(|rec| rec.2.holds(gen))
            });
        }
    }

    fn probe(m: &mut Members, id: ContainerId, gen: u64) -> Probe<u64> {
        match m.get_mut(&id) {
            Some((key, at, seat)) => seat.probe(gen, *key, *at),
            None => Probe::Gone,
        }
    }

    fn peek(heap: &mut VictimHeap<u64>, m: &mut Members) -> Option<ContainerId> {
        heap.peek_min_with(|id, gen| probe(m, id, gen))
    }

    /// Pops the way a policy does: the victim's record goes with it.
    fn pop(heap: &mut VictimHeap<u64>, m: &mut Members) -> Option<ContainerId> {
        let id = heap.pop_min_with(|id, gen| probe(m, id, gen))?;
        m.remove(&id);
        Some(id)
    }

    #[test]
    fn victim_heap_lazy_removal_discards_stale_entries() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        file(&mut heap, &mut m, id(1), 1, t(0));
        file(&mut heap, &mut m, id(2), 2, t(0));
        m.remove(&id(1)); // evicted by id
        assert_eq!(pop(&mut heap, &mut m), Some(id(2)));
        assert_eq!(pop(&mut heap, &mut m), None);
        assert!(heap.is_empty());
    }

    #[test]
    fn victim_heap_repushes_outdated_keys() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        file(&mut heap, &mut m, id(1), 1, t(0));
        file(&mut heap, &mut m, id(2), 3, t(0));
        // id 1's key has since grown past id 2's without the heap hearing
        // of it (a sibling's warm start under GreedyDual/FREQ).
        m.get_mut(&id(1)).unwrap().0 = 5;
        assert_eq!(peek(&mut heap, &mut m), Some(id(2)));
        assert_eq!(heap.len(), 2, "sunk in place, not duplicated");
        assert_eq!(pop(&mut heap, &mut m), Some(id(2)));
        assert_eq!(pop(&mut heap, &mut m), Some(id(1)));
        assert_eq!(pop(&mut heap, &mut m), None);
    }

    #[test]
    fn victim_heap_ties_break_by_last_used_then_id() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        file(&mut heap, &mut m, id(7), 1, t(3));
        file(&mut heap, &mut m, id(4), 1, t(3));
        file(&mut heap, &mut m, id(9), 1, t(1));
        assert_eq!(pop(&mut heap, &mut m), Some(id(9)));
        assert_eq!(pop(&mut heap, &mut m), Some(id(4)));
        assert_eq!(pop(&mut heap, &mut m), Some(id(7)));
    }

    #[test]
    fn victim_heap_reinsert_supersedes_old_entry() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        file(&mut heap, &mut m, id(1), 10, t(0));
        file(&mut heap, &mut m, id(1), 2, t(5)); // re-keyed downwards
        assert_eq!((m.len(), heap.len()), (1, 2));
        assert_eq!(pop(&mut heap, &mut m), Some(id(1)));
        assert!(pop(&mut heap, &mut m).is_none(), "the old entry is gone");
    }

    #[test]
    fn seat_pushes_only_on_a_downward_move_or_without_an_entry() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        file(&mut heap, &mut m, id(1), 10, t(0));
        file(&mut heap, &mut m, id(2), 20, t(0));
        // Warm cycle at a grown pair: the heap is not touched.
        m.get_mut(&id(1)).unwrap().2.mark_busy();
        assert!(m[&id(1)].2.is_busy());
        file(&mut heap, &mut m, id(1), 10, t(5));
        assert_eq!(heap.len(), 2);
        // Equal key, older `last_used`: a downward move, superseding push.
        file(&mut heap, &mut m, id(1), 10, t(4));
        assert_eq!(heap.len(), 3);
        // A smaller key: likewise.
        file(&mut heap, &mut m, id(1), 2, t(9));
        assert_eq!(heap.len(), 4);
        assert_eq!(peek(&mut heap, &mut m), Some(id(1)));
        // Busy when its entry surfaces: the entry is consumed ...
        m.get_mut(&id(1)).unwrap().2.mark_busy();
        assert_eq!(peek(&mut heap, &mut m), Some(id(2)));
        assert_eq!(
            heap.len(),
            1,
            "two superseded entries and the busy one left"
        );
        // ... so the release pushes even at a grown pair.
        file(&mut heap, &mut m, id(1), 30, t(9));
        assert_eq!(heap.len(), 2);
        assert_eq!(pop(&mut heap, &mut m), Some(id(2)));
        assert_eq!(pop(&mut heap, &mut m), Some(id(1)));
        assert_eq!(pop(&mut heap, &mut m), None);
    }

    #[test]
    fn victim_heap_sheds_stale_entries_once_they_outnumber_the_live() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        // Ten members re-keyed *downwards* a thousand times each, never
        // popped: the pattern of HIST's victim order under warm hits in a
        // pool that never evicts.
        for round in 0..1_000u64 {
            for i in 0..10 {
                file(&mut heap, &mut m, id(i), 1_000 - round, t(0));
            }
        }
        assert!(heap.len() <= 2 * 10 + 64, "heap holds {}", heap.len());
        // Shedding changed nothing a pop can see.
        for i in 0..10 {
            assert_eq!(pop(&mut heap, &mut m), Some(id(i)));
        }
        assert_eq!(pop(&mut heap, &mut m), None);
        assert!(heap.is_empty());
    }

    #[test]
    fn victim_heap_clear_forgets_every_entry() {
        let (mut heap, mut m) = (VictimHeap::new(), Members::new());
        file(&mut heap, &mut m, id(1), 10, t(0));
        heap.clear();
        m.get_mut(&id(1)).unwrap().2.take();
        assert!(peek(&mut heap, &mut m).is_none(), "entry is gone");
        // Refiled at a *lower* key than before: pops at that key.
        file(&mut heap, &mut m, id(1), 4, t(0));
        assert_eq!(pop(&mut heap, &mut m), Some(id(1)));
    }

    /// One step of the model test below.
    #[derive(Debug, Clone, Copy)]
    enum HeapOp {
        /// The container is idle at this key and `last_used`: a first
        /// filing, a release (after `Start`, whether or not its entry
        /// surfaced meanwhile) or a re-key while idle — below, at or above
        /// the pair it was at.
        File(u64, u64, u64),
        /// A release the way the six monotone policies see it: idle again
        /// at a pair grown by this much.
        Finish(u64, u64),
        /// Raise an idle container's live key without telling the heap (a
        /// sibling's warm start under GreedyDual/FREQ).
        Grow(u64, u64),
        /// Warm start: busy, without telling the heap.
        Start(u64),
        /// Evicted or extracted by id, idle or running: the record goes.
        Forget(u64),
        Peek,
        Pop,
    }

    fn heap_op_strategy() -> impl Strategy<Value = HeapOp> {
        // Few distinct keys and times, so equal-key ties (broken by
        // `last_used`, then id) and equal-key re-files are common.
        (0u8..12, 0u64..32, 0u64..6, 0u64..4).prop_map(|(op, id, key, at)| match op {
            0..=2 => HeapOp::File(id, key, at),
            3 | 4 => HeapOp::Finish(id, key % 3),
            5 => HeapOp::Grow(id, 1 + key % 3),
            6 | 7 => HeapOp::Start(id),
            8 => HeapOp::Forget(id),
            9 => HeapOp::Peek,
            _ => HeapOp::Pop,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The heap of lower bounds against the eagerly sorted tree it
        /// replaced: a `BTreeSet` of the live `(key, last_used, id)`
        /// triples of exactly the idle members. Every peek and pop agrees.
        #[test]
        fn victim_heap_matches_a_tree_oracle(ops in prop::collection::vec(heap_op_strategy(), 1..400)) {
            let mut heap = VictimHeap::new();
            let mut members = Members::new();
            let mut model: BTreeSet<(u64, SimTime, ContainerId)> = BTreeSet::new();
            // Leaves the model: running, evicted, or about to be refiled.
            let unlist = |model: &mut BTreeSet<_>, members: &Members, i: ContainerId| {
                if let Some(&(key, at, _)) = members.get(&i) {
                    model.remove(&(key, at, i));
                }
            };
            for op in ops {
                match op {
                    HeapOp::File(i, key, at) => {
                        let (i, at) = (id(i), t(at));
                        unlist(&mut model, &members, i);
                        file(&mut heap, &mut members, i, key, at);
                        model.insert((key, at, i));
                        // Shedding after every push bounds the stale entries.
                        prop_assert!(heap.len() <= 2 * members.len() + 64, "heap holds {}", heap.len());
                    }
                    HeapOp::Finish(i, by) => {
                        let i = id(i);
                        if let Some(&(key, at, seat)) = members.get(&i) {
                            let held = heap.len();
                            let had_entry = seat.entry.is_some();
                            unlist(&mut model, &members, i);
                            let (key, at) = (key + by, at + SimDuration::from_secs(by));
                            file(&mut heap, &mut members, i, key, at);
                            model.insert((key, at, i));
                            // The mechanism: a pair that did not move down
                            // never pushes over an entry still in the heap.
                            prop_assert_eq!(heap.len(), held + usize::from(!had_entry));
                        }
                    }
                    HeapOp::Grow(i, by) => {
                        if let Some((key, at, seat)) = members.get_mut(&id(i)) {
                            if !seat.is_busy() {
                                model.remove(&(*key, *at, id(i)));
                                *key += by;
                                model.insert((*key, *at, id(i)));
                            }
                        }
                    }
                    HeapOp::Start(i) => {
                        unlist(&mut model, &members, id(i));
                        if let Some((_, _, seat)) = members.get_mut(&id(i)) {
                            seat.mark_busy();
                        }
                    }
                    HeapOp::Forget(i) => {
                        unlist(&mut model, &members, id(i));
                        members.remove(&id(i));
                    }
                    HeapOp::Peek => {
                        let got = peek(&mut heap, &mut members);
                        prop_assert_eq!(got, model.first().map(|&(_, _, i)| i));
                    }
                    HeapOp::Pop => {
                        let got = pop(&mut heap, &mut members);
                        prop_assert_eq!(got, model.pop_first().map(|(_, _, i)| i));
                    }
                }
            }
            // Drains in exactly the tree's order.
            while let Some((_, _, want)) = model.pop_first() {
                prop_assert_eq!(pop(&mut heap, &mut members), Some(want));
            }
            prop_assert_eq!(pop(&mut heap, &mut members), None);
        }
    }
}
