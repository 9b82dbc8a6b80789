//! Dense per-function state: a `Vec` indexed by [`FunctionId::index`].
//!
//! Function ids are minted densely by the
//! [`FunctionRegistry`](crate::function::FunctionRegistry) (the id *is* the
//! registry index), so per-function state the pool and the policies touch
//! on every invocation needs no hashing: it is one bounds-checked index.
//!
//! A slot holds `T::default()` until written, and that default *is* the
//! table's notion of "absent": there is no per-entry insert or remove, so
//! a function whose last container leaves resets its slot instead of
//! freeing it and the next warm cycle allocates nothing. Keep `T` small (a
//! counter, a `Vec` header, HIST's ~150-byte record of one function): the
//! table holds one slot for every id up to the largest it has been asked
//! to write.

use crate::function::FunctionId;

/// A grow-on-demand table of `T`, one slot per function id.
#[derive(Debug, Clone, Default)]
pub(crate) struct FnTable<T> {
    slots: Vec<T>,
}

impl<T: Default> FnTable<T> {
    /// The slot of `function`, or `None` beyond the highest id written
    /// (where every slot is implicitly the default).
    pub(crate) fn get(&self, function: FunctionId) -> Option<&T> {
        self.slots.get(function.index())
    }

    /// The slot's value, the default for an id never written: the
    /// "empty ≡ absent" reading of a counter.
    pub(crate) fn value(&self, function: FunctionId) -> T
    where
        T: Copy,
    {
        self.get(function).copied().unwrap_or_default()
    }

    /// Every slot written so far, by function index.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.slots
    }

    /// Mutable access without growing; `None` as for [`Self::get`].
    pub(crate) fn get_mut(&mut self, function: FunctionId) -> Option<&mut T> {
        self.slots.get_mut(function.index())
    }

    /// The slot of `function`, growing the table with defaults to reach it.
    pub(crate) fn slot(&mut self, function: FunctionId) -> &mut T {
        let idx = function.index();
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, T::default);
        }
        &mut self.slots[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u32) -> FunctionId {
        FunctionId::from_index(i)
    }

    #[test]
    fn unseen_ids_are_absent_and_reads_do_not_grow() {
        let mut table: FnTable<u64> = FnTable::default();
        assert_eq!(table.get(f(0)), None);
        assert_eq!(table.get(f(5_000)), None);
        assert_eq!(table.value(f(5_000)), 0);
        assert!(table.get_mut(f(5_000)).is_none());
        assert!(table.slots.is_empty(), "reads materialize nothing");
    }

    #[test]
    fn grows_on_demand_with_default_slots_between_sparse_ids() {
        let mut table: FnTable<u64> = FnTable::default();
        *table.slot(f(0)) += 3;
        *table.slot(f(5_000)) += 7;
        assert_eq!(table.get(f(0)), Some(&3));
        assert_eq!(table.get(f(5_000)), Some(&7));
        // Everything in between is a default slot: empty ≡ absent.
        assert_eq!(table.get(f(1)), Some(&0));
        assert_eq!(table.get(f(4_999)), Some(&0));
        assert_eq!(table.get(f(5_001)), None);
        // Resetting a slot is how an entry is "removed"; the table keeps
        // its size.
        *table.slot(f(5_000)) = 0;
        assert_eq!(table.slots.len(), 5_001);
        assert!(table.slots[1..].iter().all(|&v| v == 0));
    }
}
