//! Size-weighted reuse distances (paper §5.1).
//!
//! A function's reuse distance is "the total (memory) size of the unique
//! functions invoked between successive invocations of the same function."
//! A keep-alive cache larger than an invocation's reuse distance serves it
//! warm, so the CDF of reuse distances is the (idealized) hit-ratio curve.
//!
//! Two implementations are provided:
//!
//! - [`reuse_distances_naive`] — the paper's direct `O(N·M)` scan, kept as
//!   the oracle for tests,
//! - [`reuse_distances`] — a Fenwick-tree algorithm (`O(N log M)`),
//!   the practical choice for million-invocation traces.

use faascache_trace::record::Trace;
use std::collections::HashMap;

/// Reuse distances of a trace, one entry per invocation in trace order.
///
/// `None` marks a compulsory (first-ever) access with no prior invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseDistances {
    distances: Vec<Option<u64>>,
}

impl ReuseDistances {
    /// Per-invocation distances in MB (`None` = compulsory miss).
    pub fn per_invocation(&self) -> &[Option<u64>] {
        &self.distances
    }

    /// Number of invocations covered.
    pub fn len(&self) -> usize {
        self.distances.len()
    }

    /// Whether there are no invocations.
    pub fn is_empty(&self) -> bool {
        self.distances.is_empty()
    }

    /// Finite distances only, in MB.
    pub fn finite(&self) -> Vec<u64> {
        self.distances.iter().filter_map(|d| *d).collect()
    }

    /// Number of compulsory (first-access) misses.
    pub fn compulsory_misses(&self) -> usize {
        self.distances.iter().filter(|d| d.is_none()).count()
    }
}

/// Fenwick tree over invocation positions; each function contributes its
/// size at its most recent position.
#[derive(Debug)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Adds `delta` at 1-based position `i` (signed via wrapping u64 math
    /// avoided: use explicit add/sub entry points).
    fn add(&mut self, mut i: usize, delta: u64) {
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    fn sub(&mut self, mut i: usize, delta: u64) {
        while i < self.tree.len() {
            self.tree[i] -= delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Prefix sum over `1..=i`.
    fn prefix(&self, mut i: usize) -> u64 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Range sum over `lo..=hi` (1-based, inclusive).
    fn range(&self, lo: usize, hi: usize) -> u64 {
        if lo > hi {
            0
        } else {
            self.prefix(hi) - self.prefix(lo - 1)
        }
    }
}

/// Computes size-weighted reuse distances in `O(N log M)` with a Fenwick
/// tree.
///
/// # Examples
///
/// ```
/// use faascache_analysis::reuse::reuse_distances;
/// use faascache_core::function::FunctionRegistry;
/// use faascache_trace::record::{Invocation, Trace};
/// use faascache_util::{MemMb, SimDuration, SimTime};
///
/// // The paper's example: A B C B C A ⇒ rd(A) = size(B) + size(C).
/// let mut reg = FunctionRegistry::new();
/// let a = reg.register("A", MemMb::new(10), SimDuration::ZERO, SimDuration::ZERO)?;
/// let b = reg.register("B", MemMb::new(20), SimDuration::ZERO, SimDuration::ZERO)?;
/// let c = reg.register("C", MemMb::new(30), SimDuration::ZERO, SimDuration::ZERO)?;
/// let seq = [a, b, c, b, c, a];
/// let trace = Trace::new(reg, seq.iter().enumerate().map(|(i, &f)| Invocation {
///     time: SimTime::from_secs(i as u64), function: f,
/// }).collect());
/// let rd = reuse_distances(&trace);
/// assert_eq!(rd.per_invocation()[5], Some(50)); // the second A
/// # Ok::<(), faascache_core::CoreError>(())
/// ```
pub fn reuse_distances(trace: &Trace) -> ReuseDistances {
    let registry = trace.registry();
    // A function's registry index is its slot; `spec` refuses an index
    // past the registry, so the registry's length bounds every slot.
    let seq: Vec<(u32, u64)> = trace
        .invocations()
        .iter()
        .map(|inv| {
            let size = registry.spec(inv.function).mem().as_mb();
            (inv.function.index() as u32, size)
        })
        .collect();
    reuse_distances_of_slots(&seq, registry.len())
}

/// Computes size-weighted reuse distances over a raw access sequence of
/// `(function index, size in MB)` pairs — the core of
/// [`reuse_distances`], exposed for streaming/online estimators that do
/// not hold a full [`Trace`]. The indices may be any `u32`s: each is
/// given a dense slot at its first access.
pub fn reuse_distances_of_sequence(
    accesses: impl IntoIterator<Item = (u32, u64)>,
) -> ReuseDistances {
    let mut slots: HashMap<u32, u32> = HashMap::new();
    let seq: Vec<(u32, u64)> = accesses
        .into_iter()
        .map(|(fid, size)| {
            let next = slots.len() as u32;
            (*slots.entry(fid).or_insert(next), size)
        })
        .collect();
    reuse_distances_of_slots(&seq, slots.len())
}

/// The Fenwick-tree core over `(slot, size in MB)` accesses, every slot
/// below `slots`.
fn reuse_distances_of_slots(seq: &[(u32, u64)], slots: usize) -> ReuseDistances {
    let n = seq.len();
    let mut fenwick = Fenwick::new(n);
    // Slot → (last 1-based position, size contributed there); position 0
    // is "not seen yet". The size is remembered per occurrence: a raw
    // sequence may report a function with different sizes over time
    // (e.g. resized apps).
    let mut last = vec![(0usize, 0u64); slots];
    let mut distances = Vec::with_capacity(n);

    for (i0, &(slot, size)) in seq.iter().enumerate() {
        let pos = i0 + 1; // 1-based
        let (prev, prev_size) = last[slot as usize];
        if prev == 0 {
            distances.push(None);
        } else {
            // Unique functions accessed strictly between prev and pos:
            // each contributes at its latest position in (prev, pos).
            // Exclude the function itself (its latest position is prev).
            distances.push(Some(fenwick.range(prev + 1, pos - 1)));
            fenwick.sub(prev, prev_size);
        }
        fenwick.add(pos, size);
        last[slot as usize] = (pos, size);
    }

    ReuseDistances { distances }
}

/// The paper's direct `O(N·M)` reuse-distance computation, kept as a
/// reference oracle.
pub fn reuse_distances_naive(trace: &Trace) -> ReuseDistances {
    let invs = trace.invocations();
    let mut last: HashMap<u32, usize> = HashMap::new();
    let mut distances = Vec::with_capacity(invs.len());

    for (i, inv) in invs.iter().enumerate() {
        let fid = inv.function.index() as u32;
        match last.get(&fid) {
            None => distances.push(None),
            Some(&prev) => {
                let mut seen: HashMap<u32, ()> = HashMap::new();
                let mut total = 0u64;
                for between in &invs[prev + 1..i] {
                    let g = between.function.index() as u32;
                    if g != fid && seen.insert(g, ()).is_none() {
                        total += trace.registry().spec(between.function).mem().as_mb();
                    }
                }
                distances.push(Some(total));
            }
        }
        last.insert(fid, i);
    }

    ReuseDistances { distances }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_core::function::{FunctionId, FunctionRegistry};
    use faascache_trace::record::Invocation;
    use faascache_util::{MemMb, SimDuration, SimTime};

    fn trace_of(sizes: &[u64], seq: &[usize]) -> Trace {
        let mut reg = FunctionRegistry::new();
        let ids: Vec<FunctionId> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                reg.register(
                    format!("f{i}"),
                    MemMb::new(s),
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                )
                .unwrap()
            })
            .collect();
        Trace::new(
            reg,
            seq.iter()
                .enumerate()
                .map(|(i, &f)| Invocation {
                    time: SimTime::from_secs(i as u64),
                    function: ids[f],
                })
                .collect(),
        )
    }

    #[test]
    fn paper_example_abcbca() {
        // A=0 (10MB), B=1 (20MB), C=2 (30MB); sequence ABCBCA.
        let t = trace_of(&[10, 20, 30], &[0, 1, 2, 1, 2, 0]);
        let rd = reuse_distances(&t);
        assert_eq!(
            rd.per_invocation(),
            &[
                None,     // A first
                None,     // B first
                None,     // C first
                Some(30), // B: C in between
                Some(20), // C: B in between
                Some(50), // A: B + C (unique) in between
            ]
        );
        assert_eq!(rd.compulsory_misses(), 3);
        assert_eq!(rd.finite(), vec![30, 20, 50]);
    }

    #[test]
    fn immediate_reuse_is_zero_distance() {
        let t = trace_of(&[10], &[0, 0, 0]);
        let rd = reuse_distances(&t);
        assert_eq!(rd.per_invocation(), &[None, Some(0), Some(0)]);
    }

    #[test]
    fn repeated_interleaver_counted_once() {
        // A B B B A: B appears three times between the As but counts once.
        let t = trace_of(&[10, 20], &[0, 1, 1, 1, 0]);
        let rd = reuse_distances(&t);
        assert_eq!(rd.per_invocation()[4], Some(20));
    }

    #[test]
    fn naive_matches_fenwick_on_structured_sequences() {
        let cases: Vec<(Vec<u64>, Vec<usize>)> = vec![
            (vec![1, 2, 4, 8], vec![0, 1, 2, 3, 0, 1, 2, 3]),
            (vec![5, 5, 5], vec![0, 1, 0, 2, 1, 0, 2, 2, 1]),
            (vec![100], vec![0; 10]),
            (vec![7, 3], vec![0, 1, 1, 0, 0, 1]),
        ];
        for (sizes, seq) in cases {
            let t = trace_of(&sizes, &seq);
            assert_eq!(
                reuse_distances(&t),
                reuse_distances_naive(&t),
                "mismatch for {seq:?}"
            );
        }
    }

    #[test]
    fn naive_matches_fenwick_on_pseudorandom_sequence() {
        use faascache_util::rng::Pcg64;
        let mut rng = Pcg64::seed_from_u64(99);
        let sizes: Vec<u64> = (0..20).map(|_| rng.range_inclusive(1, 512)).collect();
        let seq: Vec<usize> = (0..500).map(|_| rng.next_below(20) as usize).collect();
        let t = trace_of(&sizes, &seq);
        assert_eq!(reuse_distances(&t), reuse_distances_naive(&t));
    }

    /// Raw ids are mapped to slots, so the largest id sizes nothing.
    #[test]
    fn raw_ids_need_not_be_dense() {
        let rd =
            reuse_distances_of_sequence([(u32::MAX, 10), (7, 5), (u32::MAX, 10), (7, 6), (7, 1)]);
        assert_eq!(
            rd.per_invocation(),
            &[None, None, Some(5), Some(10), Some(0)]
        );
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(FunctionRegistry::new(), vec![]);
        let rd = reuse_distances(&t);
        assert!(rd.is_empty());
        assert_eq!(rd.len(), 0);
        assert_eq!(rd.compulsory_misses(), 0);
    }
}
