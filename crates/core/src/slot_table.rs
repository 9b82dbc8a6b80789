//! The one table keyed by [`ContainerId`]: a slab indexed by the id's slot.
//!
//! A container id carries the slab cell it lives in (see
//! [`crate::container`]), so the pool's container table and every policy's
//! resident table find a container with a bounds-checked index and one id
//! comparison. The comparison is what makes an id that is not in the table
//! answer `None` like a map would: an id whose container has left — its
//! cell vacant, or let again to a later container — an id of another pool,
//! or one nobody minted (a policy under test hands the pool
//! `u64::MAX`).
//!
//! The table does not choose slots: the pool does, from its free list, and
//! the policies' tables follow the ids the pool shows them. A table
//! therefore holds one cell per slot it has seen in use — the most
//! containers ever resident at once, not one per id ever minted.

use crate::container::ContainerId;

/// A map from [`ContainerId`] to `V`, indexed by the id's slot.
#[derive(Debug, Clone)]
pub(crate) struct SlotTable<V> {
    /// `cells[slot]` is the occupant of `slot` under its full id.
    cells: Vec<Option<(ContainerId, V)>>,
    /// Occupied cells.
    len: usize,
}

impl<V> Default for SlotTable<V> {
    fn default() -> Self {
        SlotTable {
            cells: Vec::new(),
            len: 0,
        }
    }
}

impl<V> SlotTable<V> {
    /// Number of ids in the table.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no id.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of cells, occupied or vacant: one more than the highest slot
    /// the table has held.
    pub(crate) fn cells(&self) -> usize {
        self.cells.len()
    }

    /// The value under `id`, if the table holds exactly that id.
    pub(crate) fn get(&self, id: ContainerId) -> Option<&V> {
        match self.cells.get(id.slot()) {
            Some(Some((held, value))) if *held == id => Some(value),
            _ => None,
        }
    }

    /// Mutable [`Self::get`].
    pub(crate) fn get_mut(&mut self, id: ContainerId) -> Option<&mut V> {
        match self.cells.get_mut(id.slot()) {
            Some(Some((held, value))) if *held == id => Some(value),
            _ => None,
        }
    }

    /// The cell of `id`'s slot, growing the slab to reach it.
    fn cell_mut(&mut self, id: ContainerId) -> &mut Option<(ContainerId, V)> {
        let slot = id.slot();
        if slot >= self.cells.len() {
            self.cells.resize_with(slot + 1, || None);
        }
        &mut self.cells[slot]
    }

    /// Puts `value` under `id`. An earlier occupant of the slot under
    /// another id is replaced: the pool lets a slot again only after its
    /// container left, so that occupant is gone whether or not this table
    /// was told.
    pub(crate) fn insert(&mut self, id: ContainerId, value: V) {
        if self.cell_mut(id).replace((id, value)).is_none() {
            self.len += 1;
        }
    }

    /// The value under `id`, [`Self::insert`]ed from `make` first if the
    /// table does not hold the id.
    pub(crate) fn get_or_insert_with(
        &mut self,
        id: ContainerId,
        make: impl FnOnce() -> V,
    ) -> &mut V {
        if self.get(id).is_none() {
            self.insert(id, make());
        }
        self.get_mut(id).expect("held or just inserted")
    }

    /// Removes `id` and returns its value; `None`, and nothing changes,
    /// when the table does not hold exactly that id.
    pub(crate) fn remove(&mut self, id: ContainerId) -> Option<V> {
        let cell = self.cells.get_mut(id.slot())?;
        if !matches!(cell, Some((held, _)) if *held == id) {
            return None;
        }
        self.len -= 1;
        cell.take().map(|(_, value)| value)
    }

    /// The values, in slot order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.cells.iter().flatten().map(|(_, value)| value)
    }

    /// Every id with its value, in slot order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (ContainerId, &mut V)> {
        self.cells
            .iter_mut()
            .flatten()
            .map(|(id, value)| (*id, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::MAX_SLOTS;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn a_stale_or_foreign_id_answers_none() {
        let mut table = SlotTable::default();
        let first = ContainerId::mint(0, 3);
        table.insert(first, "first");
        assert_eq!((table.len(), table.cells()), (1, 4));
        // Same slot, other sequence numbers; and ids nobody minted.
        let later = ContainerId::mint(9, 3);
        for absent in [
            later,
            ContainerId::mint(0, 2),
            ContainerId::from_raw(u64::MAX),
        ] {
            assert_eq!(table.get(absent), None);
            assert_eq!(table.get_mut(absent), None);
            assert_eq!(table.remove(absent), None);
        }
        assert_eq!(table.len(), 1, "a miss removes nothing");
        // The slot is let again: the first tenant's id goes stale.
        assert_eq!(table.remove(first), Some("first"));
        assert!(table.is_empty());
        table.insert(later, "later");
        assert_eq!(table.get(first), None);
        assert_eq!(table.get(later), Some(&"later"));
        assert_eq!((table.len(), table.cells()), (1, 4), "the cell is reused");
    }

    #[test]
    fn insert_over_an_unreported_departure_replaces_the_occupant() {
        let mut table = SlotTable::default();
        let (old, new) = (ContainerId::mint(1, 0), ContainerId::mint(2, 0));
        table.insert(old, 1);
        *table.get_or_insert_with(new, || 2) += 10;
        assert_eq!((table.get(old), table.get(new)), (None, Some(&12)));
        assert_eq!(table.len(), 1);
        assert_eq!(
            *table.get_or_insert_with(new, || 99),
            12,
            "held: not remade"
        );
    }

    /// One step against the table, phrased the way the pool uses it.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Mint an id — next sequence number, a freed slot if there is one
        /// (picked by this index), else a fresh one — and insert it.
        Mint(usize),
        /// Remove the `n`-th live id and free its slot.
        Remove(usize),
        /// Look up the `n`-th id ever minted, live or stale.
        Lookup(usize),
        /// Remove by an id ever minted, live or stale.
        RemoveAny(usize),
        /// Look up an id nobody minted.
        Bogus(u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..10, 0usize..64, any::<u64>()).prop_map(|(op, n, raw)| match op {
            0..=3 => Op::Mint(n),
            4 | 5 => Op::Remove(n),
            6 | 7 => Op::Lookup(n),
            8 => Op::RemoveAny(n),
            _ => Op::Bogus(raw),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slab against a `BTreeMap` keyed by the full id, over the
        /// sequences a pool produces: slots are reused, so most lookups of
        /// an old id find its slot let to somebody else.
        #[test]
        fn slot_table_matches_a_map(ops in prop::collection::vec(op_strategy(), 1..300)) {
            let mut table: SlotTable<u64> = SlotTable::default();
            let mut model: BTreeMap<ContainerId, u64> = BTreeMap::new();
            let mut minted: Vec<ContainerId> = Vec::new();
            let mut free: Vec<usize> = Vec::new();
            let mut fresh = 0;
            for op in ops {
                match op {
                    Op::Mint(pick) => {
                        let slot = if free.is_empty() {
                            fresh += 1;
                            fresh - 1
                        } else {
                            free.swap_remove(pick % free.len())
                        };
                        let sequence = minted.len() as u64;
                        let id = ContainerId::mint(sequence, slot);
                        if let Some(&last) = minted.last() {
                            prop_assert!(last < id, "mint order is id order");
                        }
                        minted.push(id);
                        table.insert(id, sequence);
                        model.insert(id, sequence);
                    }
                    Op::Remove(n) if !model.is_empty() => {
                        let id = *model.keys().nth(n % model.len()).unwrap();
                        prop_assert_eq!(table.remove(id), model.remove(&id));
                        free.push(id.slot());
                    }
                    Op::Lookup(n) if !minted.is_empty() => {
                        let id = minted[n % minted.len()];
                        prop_assert_eq!(table.get(id), model.get(&id));
                        if let Some(value) = table.get_mut(id) {
                            *value += 1;
                            *model.get_mut(&id).unwrap() += 1;
                        }
                    }
                    Op::RemoveAny(n) if !minted.is_empty() => {
                        let id = minted[n % minted.len()];
                        let removed = table.remove(id);
                        prop_assert_eq!(removed, model.remove(&id));
                        if removed.is_some() {
                            free.push(id.slot());
                        }
                    }
                    Op::Bogus(raw) => {
                        // `u64::MAX` is what a broken policy hands the pool.
                        for id in [ContainerId::from_raw(raw), ContainerId::from_raw(u64::MAX)] {
                            prop_assert_eq!(table.get(id), model.get(&id));
                            prop_assert_eq!(table.remove(id), model.remove(&id));
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                prop_assert!(table.cells() <= fresh && fresh <= MAX_SLOTS);
            }
            // What is left is the model's, value for value.
            let mut left: Vec<u64> = table.values().copied().collect();
            left.sort_unstable();
            let mut want: Vec<u64> = model.values().copied().collect();
            want.sort_unstable();
            prop_assert_eq!(left, want);
            let ids: Vec<ContainerId> = table.iter_mut().map(|(id, _)| id).collect();
            prop_assert!(ids.iter().all(|id| model.contains_key(id)));
        }
    }
}
