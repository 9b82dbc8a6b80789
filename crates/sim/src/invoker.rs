//! The one invoker: a keep-alive pool and what it did for each function.
//!
//! The simulator's server, a simulated cluster's servers, the platform
//! emulator and every live shard are an [`Invoker`] plus what that node
//! adds. [`Invoker::start`] is the one place an acquire becomes an outcome
//! and a finish time; the caller applies its completion rule to the
//! [`Run`]: an engine node schedules the release at [`Run::finish`], a
//! live shard releases the container at once, stamped with that finish,
//! because its reply is known at acquire.

use faascache_core::container::ContainerId;
use faascache_core::function::{FunctionRegistry, FunctionSpec};
use faascache_core::pool::{Acquire, ContainerPool};
use faascache_util::SimTime;

/// What one function's invocations did at one invoker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Served by a warm container.
    pub warm: u64,
    /// Served by a container created for them.
    pub cold: u64,
    /// Refused by the pool for lack of memory.
    pub dropped: u64,
}

impl Tally {
    /// Invocations served (warm + cold).
    pub fn served(&self) -> u64 {
        self.warm + self.cold
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
    /// is idle, else a new one, else `None` (the pool refused it).
    #[inline]
    pub fn start(&mut self, spec: &FunctionSpec, now: SimTime) -> Option<Run> {
        let acquired = self.pool.acquire(spec, now);
        let idx = spec.id().index();
        if idx >= self.tally.len() {
            self.tally.resize(idx + 1, Tally::default());
        }
        let tally = &mut self.tally[idx];
        let (container, cold, run) = match acquired {
            Acquire::Warm { container } => {
                tally.warm += 1;
                (container, false, spec.warm_time())
            }
            Acquire::Cold { container, .. } => {
                tally.cold += 1;
                (container, true, spec.cold_time())
            }
            Acquire::NoCapacity => {
                tally.dropped += 1;
                return None;
            }
        };
        Some(Run {
            container,
            finish: now + run,
            cold,
        })
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
}
