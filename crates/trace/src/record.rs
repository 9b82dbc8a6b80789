//! The replayable trace: a function registry plus time-ordered invocations.

use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_util::{SimDuration, SimTime};

/// One function invocation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Invocation {
    /// Arrival time.
    pub time: SimTime,
    /// The invoked function.
    pub function: FunctionId,
}

/// A replayable workload: function specs plus a time-sorted invocation
/// stream.
///
/// # Examples
///
/// ```
/// use faascache_core::function::FunctionRegistry;
/// use faascache_trace::record::{Invocation, Trace};
/// use faascache_util::{MemMb, SimDuration, SimTime};
///
/// let mut reg = FunctionRegistry::new();
/// let f = reg.register("f", MemMb::new(128), SimDuration::from_millis(10),
///                      SimDuration::from_millis(100))?;
/// let trace = Trace::new(reg, vec![
///     Invocation { time: SimTime::from_secs(1), function: f },
///     Invocation { time: SimTime::from_secs(5), function: f },
/// ]);
/// assert_eq!(trace.len(), 2);
/// # Ok::<(), faascache_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    registry: FunctionRegistry,
    invocations: Vec<Invocation>,
}

impl Trace {
    /// Builds a trace; invocations are sorted by time (stably, so
    /// same-instant invocations keep their relative order).
    pub fn new(registry: FunctionRegistry, mut invocations: Vec<Invocation>) -> Self {
        invocations.sort_by_key(|i| i.time);
        Trace {
            registry,
            invocations,
        }
    }

    /// The function registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The invocation stream, time-ordered.
    pub fn invocations(&self) -> &[Invocation] {
        &self.invocations
    }

    /// Number of invocations.
    pub fn len(&self) -> usize {
        self.invocations.len()
    }

    /// Whether the trace has no invocations.
    pub fn is_empty(&self) -> bool {
        self.invocations.is_empty()
    }

    /// Number of distinct functions in the registry.
    pub fn num_functions(&self) -> usize {
        self.registry.len()
    }

    /// Time span from the first to the last invocation (zero if < 2).
    pub fn duration(&self) -> SimDuration {
        match (self.invocations.first(), self.invocations.last()) {
            (Some(first), Some(last)) => last.time.since(first.time),
            _ => SimDuration::ZERO,
        }
    }

    /// End time of the trace (time of the last invocation).
    pub fn end_time(&self) -> SimTime {
        self.invocations.last().map_or(SimTime::ZERO, |i| i.time)
    }

    /// Truncates the trace to invocations arriving strictly before `cutoff`.
    pub fn truncated(&self, cutoff: SimTime) -> Trace {
        Trace {
            registry: self.registry.clone(),
            invocations: self
                .invocations
                .iter()
                .copied()
                .take_while(|i| i.time < cutoff)
                .collect(),
        }
    }

    /// Per-function invocation counts, indexed by [`FunctionId::index`].
    pub fn invocation_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.registry.len()];
        for inv in &self.invocations {
            counts[inv.function.index()] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_util::MemMb;

    fn trace() -> (Trace, FunctionId) {
        let mut reg = FunctionRegistry::new();
        let f = reg
            .register("f", MemMb::new(1), SimDuration::ZERO, SimDuration::ZERO)
            .unwrap();
        let invs = vec![
            Invocation {
                time: SimTime::from_secs(5),
                function: f,
            },
            Invocation {
                time: SimTime::from_secs(1),
                function: f,
            },
            Invocation {
                time: SimTime::from_secs(3),
                function: f,
            },
        ];
        (Trace::new(reg, invs), f)
    }

    #[test]
    fn invocations_are_sorted() {
        let (t, _) = trace();
        let times: Vec<u64> = t.invocations().iter().map(|i| i.time.as_micros()).collect();
        assert_eq!(times, vec![1_000_000, 3_000_000, 5_000_000]);
    }

    #[test]
    fn duration_and_end() {
        let (t, _) = trace();
        assert_eq!(t.duration(), SimDuration::from_secs(4));
        assert_eq!(t.end_time(), SimTime::from_secs(5));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.num_functions(), 1);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(FunctionRegistry::new(), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.duration(), SimDuration::ZERO);
        assert_eq!(t.end_time(), SimTime::ZERO);
    }

    #[test]
    fn truncation() {
        let (t, _) = trace();
        let cut = t.truncated(SimTime::from_secs(3));
        assert_eq!(cut.len(), 1);
        let cut_all = t.truncated(SimTime::from_secs(100));
        assert_eq!(cut_all.len(), 3);
    }

    #[test]
    fn counts_per_function() {
        let (t, f) = trace();
        let counts = t.invocation_counts();
        assert_eq!(counts[f.index()], 3);
    }
}
