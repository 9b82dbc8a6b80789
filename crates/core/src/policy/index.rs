//! The one resident table and eviction order shared by the keep-alive
//! policies.
//!
//! The pool is "ranked only when an eviction is needed" (paper §6), so no
//! policy keeps its idle containers sorted, and a warm start — a cache
//! *hit* — does not touch the order at all. A policy is a per-container
//! record, a key function over it and whatever side state the key reads
//! (frequencies, a clock, an offset); [`Resident`] is everything else: the
//! table of records by [`ContainerId`] and, over it, a binary min-heap of
//! `(key, last_used, id)` whose entries are **lower bounds**:
//!
//! - each resident container has at most one *authoritative* entry (the
//!   generation its table seat records), stored under a `(key, last_used)`
//!   pair that is `<=` the container's live pair: the `last_used` in its
//!   seat, and the key the policy's key function computes from its record;
//! - a warm start only marks the seat busy; the release that follows
//!   overwrites the live pair and leaves the heap alone, because the pair
//!   has not moved down;
//! - the order is materialized by an eviction (or an expiry sweep) only:
//!   [`Resident::pop`] looks up the entry on top and drops it when the
//!   container is gone or busy, sinks it to its live pair when that has
//!   grown, and returns it when stored and live pair are equal. That one
//!   is the minimum of `(live key, last_used, id)` over the idle
//!   containers, since every other idle container's live pair is `>=` its
//!   stored pair `>=` the top's.
//!
//! # When does filing a container push?
//!
//! One rule, applied by [`Resident::file`] whenever a container goes idle
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
//! | can **decrease** | HIST's victim key (predicted next use, *descending*, so a hit moves it down) and its release-early deadline once a pre-warm is scheduled; GreedyDual when a tenant weight is raised | superseding push (GreedyDual instead [`Resident::refile_all`]s: a weight moves every key of a tenant at once) |
//!
//! So under LRU, TTL, SIZE, FREQ, Landlord and GreedyDual a warm cycle
//! performs no heap operation, and the heap holds at most one entry per
//! resident container; under HIST a release pushes once, for the victim
//! order. FREQ and GreedyDual do not even compute their key on a release:
//! it only grows ([`grows`]), so comparing `last_used` settles whether the
//! pair moved down. Entries left behind by a superseding push, or by a
//! container that was evicted or migrated by id rather than popped, are
//! dropped when they surface, or swept once they outnumber the live ones.
//!
//! Every policy owns one `Resident` and no other table keyed by
//! [`ContainerId`] (HIST, which ranks its containers two ways, owns one
//! per order); the table is a `SlotTable`, indexed by the slot the id
//! carries: a lookup is an index and one id comparison, and the table
//! holds one cell per container resident at once, re-let as the pool
//! re-lets the slot.
//!
//! The brute-force reference this structure is differentially tested
//! against — scan the idle set for the minimum `(key, last_used, id)` —
//! is test code: `crates/core/tests/differential.rs`.
//!
//! [`TotalF64`] is a totally ordered `f64` wrapper (via `total_cmp`) so
//! finite priorities can be used as heap keys. For finite values the order
//! coincides with `partial_cmp`.

use crate::container::ContainerId;
use crate::slot_table::SlotTable;
use faascache_util::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::num::NonZeroU64;

/// An `f64` ordered by [`f64::total_cmp`].
///
/// Policy priorities are always finite, and over finite values `total_cmp`
/// agrees with `partial_cmp` — so a reference that sorts priorities with
/// `partial_cmp` and a heap keyed by this type rank victims identically.
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

/// The `key_fell` argument of [`Resident::file`] for a key that is fixed
/// or only grows while its container is resident: it never fell, and the
/// record needs no update.
pub fn grows<R>(_record: &mut R) -> bool {
    false
}

/// What [`Resident`] keeps per container, for as long as it is resident.
#[derive(Debug, Clone)]
struct Seat<R> {
    record: R,
    /// The `last_used` the container was last filed at: with the key the
    /// policy computes from `record`, its live pair.
    last_used: SimTime,
    /// The generation of the container's authoritative heap entry, while
    /// that entry is still in the heap.
    entry: Option<NonZeroU64>,
    /// Running an invocation: not a victim, whatever the heap holds.
    busy: bool,
}

impl<R> Seat<R> {
    /// The seat of a running container that has never been filed.
    fn running(record: R) -> Self {
        Seat {
            record,
            last_used: SimTime::ZERO,
            entry: None,
            busy: true,
        }
    }
}

type HeapEntry<K> = Reverse<(K, SimTime, ContainerId, u64)>;

/// A policy's resident containers — one record `R` each — and their
/// eviction (or expiry) order by ascending `(key, last_used, id)`: the
/// victim order every policy uses, with the container id as the final
/// tie-break (see the pool's tie-break contract). See the module docs for
/// the one rule that keeps the order sound.
///
/// The policy funnels every event through the table: [`Self::running`] or
/// [`Self::mark_busy`] on a warm start, [`Self::file`] on a release or a
/// re-key, [`Self::pop`] for the next victim, [`Self::forget`] when the
/// pool reports the container gone. The key is not stored: `pop` takes
/// the policy's key function and computes it from the record, so a key
/// that depends on side state (a sibling's frequency, a tenant weight) is
/// always read live.
#[derive(Debug, Clone)]
pub struct Resident<R, K: Ord + Copy> {
    table: SlotTable<Seat<R>>,
    /// Lower bounds on the live pairs. An entry is authoritative while its
    /// generation is the one its container's seat records; evicting a
    /// container by id, or pushing it again, just drops or overwrites that
    /// generation, and the superseded entry is discarded when it surfaces.
    heap: BinaryHeap<HeapEntry<K>>,
    /// The generation of the last push (the first is 1).
    last_gen: u64,
}

impl<R, K: Ord + Copy> Default for Resident<R, K> {
    fn default() -> Self {
        Resident {
            table: SlotTable::default(),
            heap: BinaryHeap::new(),
            last_gen: 0,
        }
    }
}

impl<R, K: Ord + Copy> Resident<R, K> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The record of `id`, if it has one.
    pub fn get(&self, id: ContainerId) -> Option<&R> {
        self.table.get(id).map(|seat| &seat.record)
    }

    /// Whether `id` has a record and is not running an invocation.
    pub fn is_idle(&self, id: ContainerId) -> bool {
        self.table.get(id).is_some_and(|seat| !seat.busy)
    }

    /// Cells in the table's slab, occupied or vacant.
    #[cfg(test)]
    pub(crate) fn cells(&self) -> usize {
        self.table.cells()
    }

    /// Number of heap entries, authoritative and stale alike.
    pub fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// `id` is running an invocation — a cold or a warm start: it leaves
    /// the eviction order without the heap hearing of it. Returns its
    /// record, made by `admit` if the table has not seen the container.
    pub fn running(&mut self, id: ContainerId, admit: impl FnOnce() -> R) -> &mut R {
        let seat = self.table.get_or_insert_with(id, || Seat::running(admit()));
        seat.busy = true;
        &mut seat.record
    }

    /// [`Self::running`] for a policy that keeps nothing about a container
    /// before its first release: `None`, and nothing changes, when the
    /// table has not seen `id`.
    pub fn mark_busy(&mut self, id: ContainerId) -> Option<&mut R> {
        let seat = self.table.get_mut(id)?;
        seat.busy = true;
        Some(&mut seat.record)
    }

    /// `id` is idle at `last_used`: it went idle just now, or was re-keyed
    /// while idle. `admit` makes the record of a container the table has
    /// not seen; `key_fell` brings the record up to date and says whether
    /// the live key is now below what it was when the container was last
    /// filed ([`grows`] for a key that cannot be).
    ///
    /// Pushes a fresh entry at the live pair only if the container has
    /// none in the heap or the pair moved down — the key fell, or
    /// `last_used` did — and only then calls `key_of`. Otherwise the entry
    /// it has is still a lower bound and the heap is left alone.
    pub fn file(
        &mut self,
        id: ContainerId,
        last_used: SimTime,
        admit: impl FnOnce() -> R,
        key_fell: impl FnOnce(&mut R) -> bool,
        key_of: impl FnOnce(&R) -> K,
    ) {
        let seat = self.table.get_or_insert_with(id, || Seat::running(admit()));
        let moved_down = key_fell(&mut seat.record) || last_used < seat.last_used;
        seat.last_used = last_used;
        seat.busy = false;
        if moved_down || seat.entry.is_none() {
            self.last_gen += 1;
            seat.entry = NonZeroU64::new(self.last_gen);
            let key = key_of(&seat.record);
            self.heap.push(Reverse((key, last_used, id, self.last_gen)));
            self.shed_stale();
        }
    }

    /// Sheds the stale entries once they outnumber the resident
    /// containers; called after a push.
    ///
    /// A superseding push, and a container evicted or migrated by id,
    /// leave an entry behind that only an eviction would ever pop, so
    /// without this a pool under no memory pressure whose warm set is
    /// re-homed, or whose keys move down (HIST), would grow the heap
    /// forever. The sweep runs at most once per `table.len()` pushes:
    /// amortized O(1). Which stale entries exist never changes what a pop
    /// returns.
    fn shed_stale(&mut self) {
        const SLACK: usize = 64;
        if self.heap.len() > 2 * self.table.len() + SLACK {
            let table = &self.table;
            self.heap.retain(|&Reverse((_, _, id, gen))| {
                table
                    .get(id)
                    .is_some_and(|seat| seat.entry == NonZeroU64::new(gen))
            });
        }
    }

    /// Drops the record of `id` and returns it; `None` when there is
    /// none. Its heap entry is discarded when it surfaces.
    pub fn forget(&mut self, id: ContainerId) -> Option<R> {
        self.table.remove(id).map(|seat| seat.record)
    }

    /// Drops every heap entry and files every idle container afresh at the
    /// key `key_of` computes now.
    ///
    /// For when an external input to the key function changes in a way
    /// that may decrease many keys at once — a tenant eviction weight is
    /// raised — instead of one superseding push per container.
    pub fn refile_all(&mut self, key_of: impl Fn(&R) -> K) {
        // Generations only break ties between entries of one container, so
        // the table's iteration order cannot reach the eviction order.
        self.heap.clear();
        for (id, seat) in self.table.iter_mut() {
            seat.entry = None;
            if !seat.busy {
                self.last_gen += 1;
                seat.entry = NonZeroU64::new(self.last_gen);
                let key = key_of(&seat.record);
                self.heap
                    .push(Reverse((key, seat.last_used, id, self.last_gen)));
            }
        }
    }

    /// The idle container with the minimal `(live key, last_used, id)`,
    /// without removing it; `None` when no idle container has an entry.
    /// Settles the entries above it as a side effect.
    ///
    /// This settles in at most one move per authoritative entry per call
    /// *provided the live pair of an authoritative entry is never below
    /// its stored pair*, which holds as long as `key_of` is the function
    /// every [`Self::file`] of this table was given and every downward
    /// move of its value is reported there as `key_fell`.
    fn peek(&mut self, key_of: impl Fn(&R) -> K) -> Option<ContainerId> {
        loop {
            let mut top = self.heap.peek_mut()?;
            let Reverse((key, last_used, id, gen)) = *top;
            match self.table.get_mut(id) {
                Some(seat) if seat.entry == NonZeroU64::new(gen) => {
                    if seat.busy {
                        // Its release finds no entry and pushes.
                        seat.entry = None;
                        PeekMut::pop(top);
                        continue;
                    }
                    let live = (key_of(&seat.record), seat.last_used);
                    if live == (key, last_used) {
                        return Some(id);
                    }
                    // Outdated: sinks to its live pair as `top` drops (same
                    // generation: the outdated copy has just left the
                    // heap). The next time it surfaces (policy state
                    // unchanged within one call) the pairs match.
                    *top = Reverse((live.0, live.1, id, gen));
                }
                // Evicted or migrated away, or superseded by a later push.
                _ => {
                    PeekMut::pop(top);
                }
            }
        }
    }

    /// Removes the idle container with the minimal `(live key, last_used,
    /// id)` from the order and returns it; `None` when there is none. Its
    /// record stays — the pool reports the eviction next, and a policy may
    /// price the victim from it — until [`Self::forget`].
    pub fn pop(&mut self, key_of: impl Fn(&R) -> K) -> Option<ContainerId> {
        self.pop_if(key_of, |_, _| true)
    }

    /// [`Self::pop`], but only if `due` says so of that container's record
    /// and `last_used`: an expiry order pops its head once its lease has
    /// lapsed.
    pub fn pop_if(
        &mut self,
        key_of: impl Fn(&R) -> K,
        due: impl FnOnce(&R, SimTime) -> bool,
    ) -> Option<ContainerId> {
        let id = self.peek(key_of)?;
        let seat = self.table.get_mut(id).expect("peeked a resident");
        if !due(&seat.record, seat.last_used) {
            return None;
        }
        self.heap.pop();
        seat.entry = None;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_util::SimDuration;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A table whose record is the live key itself: the shape of a policy
    /// that is handed its key on every release.
    type Keyed = Resident<u64, u64>;

    fn id(n: u64) -> ContainerId {
        ContainerId::from_raw(n)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A release or a re-key: the container is idle at `(key, at)`.
    fn file(set: &mut Keyed, id: ContainerId, key: u64, at: SimTime) {
        set.file(
            id,
            at,
            || key,
            |live| {
                let fell = key < *live;
                *live = key;
                fell
            },
            |&live| live,
        );
    }

    /// Raises an idle container's live key without telling the heap (a
    /// sibling's warm start under GreedyDual/FREQ).
    fn grow(set: &mut Keyed, id: ContainerId, by: u64) {
        set.table.get_mut(id).unwrap().record += by;
    }

    fn has_entry(set: &Keyed, id: ContainerId) -> bool {
        set.table.get(id).unwrap().entry.is_some()
    }

    /// The live triple of an idle container.
    fn live(set: &Keyed, id: ContainerId) -> Option<(u64, SimTime, ContainerId)> {
        let seat = set.table.get(id).filter(|seat| !seat.busy)?;
        Some((seat.record, seat.last_used, id))
    }

    /// The smallest idle container's live triple, without removing it.
    fn first(set: &mut Keyed) -> Option<(u64, SimTime, ContainerId)> {
        let id = set.peek(|&live| live)?;
        live(set, id)
    }

    /// Pops the way the pool does: the eviction is reported next, and the
    /// victim's record goes with it.
    fn pop_first(set: &mut Keyed) -> Option<(u64, SimTime, ContainerId)> {
        let id = set.pop(|&live| live)?;
        let triple = live(set, id);
        set.forget(id);
        triple
    }

    fn pop(set: &mut Keyed) -> Option<ContainerId> {
        pop_first(set).map(|(_, _, id)| id)
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
        let mut set = Keyed::new();
        file(&mut set, id(3), 1, t(5));
        file(&mut set, id(1), 1, t(5));
        file(&mut set, id(2), 0, t(9));
        file(&mut set, id(4), 1, t(2));
        assert_eq!(pop(&mut set), Some(id(2)), "lowest key first");
        assert_eq!(pop(&mut set), Some(id(4)), "older last_used next");
        assert_eq!(pop(&mut set), Some(id(1)), "id breaks exact ties");
        assert_eq!(pop(&mut set), Some(id(3)));
        assert!(pop(&mut set).is_none());
    }

    #[test]
    fn ordered_set_rekey_and_remove() {
        let mut set = Keyed::new();
        file(&mut set, id(1), 5, t(0));
        file(&mut set, id(2), 1, t(0));
        file(&mut set, id(2), 9, t(0)); // re-key upwards
        assert_eq!(set.heap_len(), 2, "a key that grows keeps its entry");
        assert_eq!(first(&mut set), Some((5, t(0), id(1))));
        file(&mut set, id(2), 3, t(0)); // and back down, below id 1
        assert_eq!(first(&mut set), Some((3, t(0), id(2))));
        file(&mut set, id(2), 9, t(0));
        assert_eq!(set.forget(id(1)), Some(5));
        assert_eq!(set.forget(id(1)), None, "idempotent");
        assert_eq!(
            pop_first(&mut set),
            Some((9, t(0), id(2))),
            "one entry per id"
        );
        assert_eq!(pop_first(&mut set), None);
    }

    #[test]
    fn ordered_set_warm_cycles_leave_the_heap_alone() {
        let mut set = Keyed::new();
        for i in 0..4 {
            file(&mut set, id(i), i, t(i));
        }
        // A thousand LRU-style warm cycles: the key moves with `last_used`.
        for round in 1..=1_000u64 {
            for i in 0..4 {
                assert!(set.mark_busy(id(i)).is_some());
                file(&mut set, id(i), 10 * round + i, t(10 * round + i));
            }
            assert_eq!(set.heap_len(), 4, "zero pushes after each member's first");
        }
        assert!(set.mark_busy(id(9)).is_none(), "a no-op for a non-member");
        // A busy member is not yielded; its release makes it the newest.
        set.mark_busy(id(0));
        assert_eq!(first(&mut set), Some((10_001, t(10_001), id(1))));
        assert_eq!(
            set.heap_len(),
            3,
            "the busy member's entry surfaced and left"
        );
        file(&mut set, id(0), 20_000, t(20_000));
        assert_eq!(set.heap_len(), 4, "so its release pushed");
        let order: Vec<u64> = std::iter::from_fn(|| pop(&mut set))
            .map(ContainerId::as_raw)
            .collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn victim_heap_lazy_removal_discards_stale_entries() {
        let mut set = Keyed::new();
        file(&mut set, id(1), 1, t(0));
        file(&mut set, id(2), 2, t(0));
        set.forget(id(1)); // evicted by id
        assert_eq!(pop(&mut set), Some(id(2)));
        assert_eq!(pop(&mut set), None);
        assert_eq!(set.heap_len(), 0);
    }

    #[test]
    fn victim_heap_repushes_outdated_keys() {
        let mut set = Keyed::new();
        file(&mut set, id(1), 1, t(0));
        file(&mut set, id(2), 3, t(0));
        // id 1's key has since grown past id 2's without the heap hearing
        // of it.
        grow(&mut set, id(1), 4);
        assert_eq!(first(&mut set), Some((3, t(0), id(2))));
        assert_eq!(set.heap_len(), 2, "sunk in place, not duplicated");
        assert_eq!(pop(&mut set), Some(id(2)));
        assert_eq!(pop(&mut set), Some(id(1)));
        assert_eq!(pop(&mut set), None);
    }

    #[test]
    fn victim_heap_ties_break_by_last_used_then_id() {
        let mut set = Keyed::new();
        file(&mut set, id(7), 1, t(3));
        file(&mut set, id(4), 1, t(3));
        file(&mut set, id(9), 1, t(1));
        assert_eq!(pop(&mut set), Some(id(9)));
        assert_eq!(pop(&mut set), Some(id(4)));
        assert_eq!(pop(&mut set), Some(id(7)));
    }

    #[test]
    fn victim_heap_reinsert_supersedes_old_entry() {
        let mut set = Keyed::new();
        file(&mut set, id(1), 10, t(0));
        file(&mut set, id(1), 2, t(5)); // re-keyed downwards
        assert_eq!((set.table.len(), set.heap_len()), (1, 2));
        assert_eq!(pop(&mut set), Some(id(1)));
        assert!(pop(&mut set).is_none(), "the old entry is gone");
    }

    #[test]
    fn seat_pushes_only_on_a_downward_move_or_without_an_entry() {
        let mut set = Keyed::new();
        file(&mut set, id(1), 10, t(0));
        file(&mut set, id(2), 20, t(0));
        // Warm cycle at a grown pair: the heap is not touched.
        set.mark_busy(id(1));
        assert!(!set.is_idle(id(1)));
        file(&mut set, id(1), 10, t(5));
        assert!(set.is_idle(id(1)));
        assert_eq!(set.heap_len(), 2);
        // Equal key, older `last_used`: a downward move, superseding push.
        file(&mut set, id(1), 10, t(4));
        assert_eq!(set.heap_len(), 3);
        // A smaller key: likewise.
        file(&mut set, id(1), 2, t(9));
        assert_eq!(set.heap_len(), 4);
        assert_eq!(first(&mut set), Some((2, t(9), id(1))));
        // Busy when its entry surfaces: the entry is consumed ...
        set.mark_busy(id(1));
        assert_eq!(first(&mut set), Some((20, t(0), id(2))));
        assert_eq!(
            set.heap_len(),
            1,
            "two superseded entries and the busy one left"
        );
        // ... so the release pushes even at a grown pair.
        file(&mut set, id(1), 30, t(9));
        assert_eq!(set.heap_len(), 2);
        assert_eq!(pop(&mut set), Some(id(2)));
        assert_eq!(pop(&mut set), Some(id(1)));
        assert_eq!(pop(&mut set), None);
    }

    #[test]
    fn victim_heap_sheds_stale_entries_once_they_outnumber_the_live() {
        let mut set = Keyed::new();
        // Ten members re-keyed *downwards* a thousand times each, never
        // popped: the pattern of HIST's victim order under warm hits in a
        // pool that never evicts.
        for round in 0..1_000u64 {
            for i in 0..10 {
                file(&mut set, id(i), 1_000 - round, t(0));
            }
        }
        assert!(
            set.heap_len() <= 2 * 10 + 64,
            "heap holds {}",
            set.heap_len()
        );
        // Shedding changed nothing a pop can see.
        for i in 0..10 {
            assert_eq!(pop(&mut set), Some(id(i)));
        }
        assert_eq!(pop(&mut set), None);
        assert_eq!(set.heap_len(), 0);
    }

    #[test]
    fn victim_heap_clear_forgets_every_entry() {
        let mut set = Keyed::new();
        file(&mut set, id(1), 10, t(0));
        file(&mut set, id(2), 7, t(0));
        file(&mut set, id(3), 1, t(0));
        set.mark_busy(id(3));
        // An input of the key function moved id 1's key *down* behind the
        // heap's back (a raised tenant weight under GreedyDual).
        set.table.get_mut(id(1)).unwrap().record = 4;
        set.refile_all(|&live| live);
        assert_eq!(set.heap_len(), 2, "old entries gone, the idle refiled");
        assert!(!has_entry(&set, id(3)), "a running container is not");
        assert_eq!(pop(&mut set), Some(id(1)), "pops at the lowered key");
        assert_eq!(pop(&mut set), Some(id(2)));
        assert_eq!(pop(&mut set), None);
        // The running one's release files it as ever.
        file(&mut set, id(3), 1, t(1));
        assert_eq!(pop(&mut set), Some(id(3)));
    }

    /// One step of the model test below.
    #[derive(Debug, Clone, Copy)]
    enum Op {
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

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Few distinct keys and times, so equal-key ties (broken by
        // `last_used`, then id) and equal-key re-files are common.
        (0u8..12, 0u64..32, 0u64..6, 0u64..4).prop_map(|(op, id, key, at)| match op {
            0..=2 => Op::File(id, key, at),
            3 | 4 => Op::Finish(id, key % 3),
            5 => Op::Grow(id, 1 + key % 3),
            6 | 7 => Op::Start(id),
            8 => Op::Forget(id),
            9 => Op::Peek,
            _ => Op::Pop,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The heap of lower bounds against the eagerly sorted tree it
        /// replaced: a `BTreeSet` of the live `(key, last_used, id)`
        /// triples of exactly the idle members. Every peek and pop agrees.
        #[test]
        fn victim_heap_matches_a_tree_oracle(ops in prop::collection::vec(op_strategy(), 1..400)) {
            let mut set = Keyed::new();
            let mut model: BTreeSet<(u64, SimTime, ContainerId)> = BTreeSet::new();
            // Leaves the model: running, evicted, or about to be refiled.
            let unlist = |model: &mut BTreeSet<_>, set: &Keyed, i: ContainerId| {
                if let Some(triple) = live(set, i) {
                    model.remove(&triple);
                }
            };
            for op in ops {
                match op {
                    Op::File(i, key, at) => {
                        let (i, at) = (id(i), t(at));
                        unlist(&mut model, &set, i);
                        file(&mut set, i, key, at);
                        model.insert((key, at, i));
                        // Shedding after every push bounds the stale entries.
                        prop_assert!(set.heap_len() <= 2 * set.table.len() + 64, "heap holds {}", set.heap_len());
                    }
                    Op::Finish(i, by) => {
                        let i = id(i);
                        if let Some(seat) = set.table.get(i) {
                            let held = set.heap_len();
                            let had_entry = seat.entry.is_some();
                            let (key, at) = (seat.record + by, seat.last_used + SimDuration::from_secs(by));
                            unlist(&mut model, &set, i);
                            file(&mut set, i, key, at);
                            model.insert((key, at, i));
                            // The mechanism: a pair that did not move down
                            // never pushes over an entry still in the heap.
                            prop_assert_eq!(set.heap_len(), held + usize::from(!had_entry));
                        }
                    }
                    Op::Grow(i, by) => {
                        if let Some(triple) = live(&set, id(i)) {
                            model.remove(&triple);
                            grow(&mut set, id(i), by);
                            model.insert((triple.0 + by, triple.1, triple.2));
                        }
                    }
                    Op::Start(i) => {
                        unlist(&mut model, &set, id(i));
                        set.mark_busy(id(i));
                    }
                    Op::Forget(i) => {
                        unlist(&mut model, &set, id(i));
                        set.forget(id(i));
                    }
                    Op::Peek => {
                        let got = first(&mut set);
                        prop_assert_eq!(got, model.first().copied());
                    }
                    Op::Pop => {
                        let got = pop_first(&mut set);
                        prop_assert_eq!(got, model.pop_first());
                    }
                }
            }
            // Drains in exactly the tree's order.
            while let Some(want) = model.pop_first() {
                prop_assert_eq!(pop_first(&mut set), Some(want));
            }
            prop_assert_eq!(pop_first(&mut set), None);
        }
    }
}
