//! The one invoker: a keep-alive pool and what it did for each function.
//!
//! The simulator's server, a simulated cluster's servers, the platform
//! emulator and every live shard are an [`Invoker`] plus what that node
//! adds. [`Invoker::start`] is the one place an acquire becomes an outcome
//! and a finish time; the caller applies its completion rule to the
//! [`Run`]: an engine node schedules the release at [`Run::finish`], a
//! live shard releases the container at once, stamped with that finish,
//! because its reply is known at acquire.
//!
//! Each invocation's outcome is counted once, here, by the node that
//! decides it: `start` counts what it started, a refused start counts
//! nothing (the emulator may retry it), and the node that gives a
//! request up says so with [`Invoker::drop_request`]. Every total is
//! [`Invoker::totals`], the sum of the per-function [`Tally`].

use faascache_core::container::ContainerId;
use faascache_core::function::{FunctionId, FunctionRegistry, FunctionSpec};
use faascache_core::pool::{Acquire, ContainerPool};
use faascache_util::SimTime;

/// What invocations did at one invoker: one function's, or a sum of
/// them ([`Invoker::totals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Served by a warm container.
    pub warm: u64,
    /// Served by a container created for them.
    pub cold: u64,
    /// Given up by the node: refused by the pool for lack of memory, or,
    /// in the emulator, lost from its buffer.
    pub dropped: u64,
}

impl Tally {
    /// Invocations served (warm + cold).
    pub fn served(&self) -> u64 {
        self.warm + self.cold
    }

    /// Every invocation counted (warm + cold + dropped).
    pub fn total(&self) -> u64 {
        self.served() + self.dropped
    }

    /// Warm-start (hit) ratio among all invocations; 0 for none.
    pub fn hit_ratio(&self) -> f64 {
        match self.total() {
            0 => 0.0,
            t => self.warm as f64 / t as f64,
        }
    }
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, t: Tally) {
        self.warm += t.warm;
        self.cold += t.cold;
        self.dropped += t.dropped;
    }
}

impl<'a> std::iter::Sum<&'a Tally> for Tally {
    fn sum<I: Iterator<Item = &'a Tally>>(iter: I) -> Tally {
        iter.fold(Tally::default(), |mut a, &t| {
            a += t;
            a
        })
    }
}

/// A started execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Its container, to be released at `finish`.
    pub container: ContainerId,
    /// The start plus the warm or the cold time.
    pub finish: SimTime,
    /// Whether the container was created for it.
    pub cold: bool,
}

/// A keep-alive pool and its per-function [`Tally`].
#[derive(Debug)]
pub struct Invoker {
    pool: ContainerPool,
    /// By function index; grows to the largest id started.
    tally: Vec<Tally>,
}

impl Invoker {
    /// Wraps `pool`, with room in the tally for `functions` functions.
    pub fn new(pool: ContainerPool, functions: usize) -> Self {
        Invoker {
            pool,
            tally: vec![Tally::default(); functions],
        }
    }

    /// Starts an invocation of `spec` at `now`: a warm container if one
    /// is idle, else a new one, and counts it; else `None` (the pool
    /// refused it), counting nothing: the caller decides whether the
    /// request is dropped ([`Self::drop_request`]) or waits.
    // Always inlined: this is the simulator's per-invocation step. Left to
    // the inliner it stayed a call from `engine::run`, and `sim_sweep`
    // throughput fell ~9 % (2-vCPU VM, 10 interleaved pairs).
    #[inline(always)]
    pub fn start(&mut self, spec: &FunctionSpec, now: SimTime) -> Option<Run> {
        let (container, cold, run) = match self.pool.acquire(spec, now) {
            Acquire::Warm { container } => (container, false, spec.warm_time()),
            Acquire::Cold { container, .. } => (container, true, spec.cold_time()),
            Acquire::NoCapacity => return None,
        };
        let tally = self.tally_mut(spec.id());
        if cold {
            tally.cold += 1;
        } else {
            tally.warm += 1;
        }
        Some(Run {
            container,
            finish: now + run,
            cold,
        })
    }

    /// Counts one invocation of `function` given up by its node.
    pub fn drop_request(&mut self, function: FunctionId) {
        self.tally_mut(function).dropped += 1;
    }

    /// `function`'s tally, grown to hold it.
    #[inline]
    fn tally_mut(&mut self, function: FunctionId) -> &mut Tally {
        let idx = function.index();
        if idx >= self.tally.len() {
            self.tally.resize(idx + 1, Tally::default());
        }
        &mut self.tally[idx]
    }

    /// Ends a [`Run`]'s execution: its container turns idle at `at`.
    pub fn release(&mut self, container: ContainerId, at: SimTime) {
        self.pool.release(container, at);
    }

    /// The housekeeping tick: TTL reaping, then the pre-warms the policy
    /// asks for. Returns the number of containers reaped.
    pub fn housekeep(&mut self, registry: &FunctionRegistry, now: SimTime) -> usize {
        let reaped = self.pool.reap(now).len();
        for fid in self.pool.prewarm_due(now) {
            self.pool.prewarm(registry.spec(fid), now);
        }
        reaped
    }

    /// The pool.
    pub fn pool(&self) -> &ContainerPool {
        &self.pool
    }

    /// The pool, for resizing and migration.
    pub fn pool_mut(&mut self) -> &mut ContainerPool {
        &mut self.pool
    }

    /// Per-function outcomes, by function index.
    pub fn tally(&self) -> &[Tally] {
        &self.tally
    }

    /// Every outcome counted: the per-function tally, summed.
    pub fn totals(&self) -> Tally {
        self.tally.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faascache_core::policy::PolicyKind;
    use faascache_util::{MemMb, SimDuration};

    /// An invoker with 256 MB and two functions: `small` fits, `big`
    /// never does.
    fn setup() -> (Invoker, FunctionRegistry, FunctionId, FunctionId) {
        let mut reg = FunctionRegistry::new();
        let (warm, cold) = (SimDuration::from_millis(5), SimDuration::from_millis(50));
        let small = reg.register("small", MemMb::new(128), warm, cold).unwrap();
        let big = reg.register("big", MemMb::new(512), warm, cold).unwrap();
        let pool = ContainerPool::new(MemMb::new(256), PolicyKind::GreedyDual.build());
        (Invoker::new(pool, 0), reg, small, big)
    }

    #[test]
    fn a_refused_start_counts_nothing() {
        let (mut inv, reg, _, big) = setup();
        assert_eq!(inv.start(reg.spec(big), SimTime::ZERO), None);
        assert_eq!(inv.totals(), Tally::default());
        assert!(inv.tally().iter().all(|t| *t == Tally::default()));
    }

    #[test]
    fn drop_request_counts_one_drop() {
        let (mut inv, _, small, big) = setup();
        inv.drop_request(big);
        let dropped = Tally {
            dropped: 1,
            ..Tally::default()
        };
        assert_eq!(inv.tally()[big.index()], dropped);
        assert_eq!(inv.tally()[small.index()], Tally::default());
        assert_eq!(inv.totals(), dropped);
    }

    #[test]
    fn totals_equal_the_per_function_sum() {
        let (mut inv, reg, small, big) = setup();
        let cold = inv.start(reg.spec(small), SimTime::ZERO).unwrap();
        assert!(cold.cold);
        inv.release(cold.container, cold.finish);
        let warm = inv.start(reg.spec(small), SimTime::from_secs(1)).unwrap();
        assert!(!warm.cold);
        if inv.start(reg.spec(big), SimTime::from_secs(2)).is_none() {
            inv.drop_request(big);
        }
        let want = Tally {
            warm: 1,
            cold: 1,
            dropped: 1,
        };
        assert_eq!(inv.totals(), want);
        assert_eq!(inv.tally().iter().sum::<Tally>(), want);
    }
}
