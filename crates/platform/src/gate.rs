//! The in-flight gate both admission budgets use: a shard's queue bound
//! and a tenant's concurrency budget each take one of `bound` slots on
//! an atomic count and give it back when the invocation ends.

use std::sync::atomic::{AtomicU64, Ordering};

/// One held in-flight slot. Dropping it gives the slot back, however the
/// invocation ends — normal return or unwind — so no count can leak.
#[derive(Debug)]
pub struct InFlightSlot<'a>(&'a AtomicU64);

impl<'a> InFlightSlot<'a> {
    /// Takes one of `bound` slots on `count`, or `None` when all are held.
    /// The caller counts its own refusals.
    pub fn take(count: &'a AtomicU64, bound: u64) -> Option<Self> {
        let take = |cur: u64| (cur < bound).then_some(cur + 1);
        count
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, take)
            .ok()
            .map(|_| InFlightSlot(count))
    }
}

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}
