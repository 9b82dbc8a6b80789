//! # FaasCache
//!
//! A Rust reproduction of **"FaasCache: Keeping Serverless Computing Alive
//! with Greedy-Dual Caching"** (Fuerst & Sharma, ASPLOS '21).
//!
//! The paper's insight: *keeping a serverless function's container warm is
//! equivalent to caching an object*. This workspace implements the whole
//! system around that insight:
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | keep-alive container pool + the Greedy-Dual-Size-Frequency, Landlord, LRU, LFU, SIZE, TTL and HIST policies |
//! | [`trace`] | Azure-Functions-schema datasets, synthetic generation, samplers, replay |
//! | [`analysis`] | size-weighted reuse distances, hit-ratio curves, SHARDS sampling, online curve estimation |
//! | [`sim`] | trace-driven discrete-event simulator + parallel sweeps + elastic scaling |
//! | [`provision`] | static sizing and the proportional vertical-scaling controller |
//! | [`platform`] | virtual-time OpenWhisk-like platform emulator + the sharded invoker |
//! | [`server`] | `faascached` serving daemon and the `faas-load` trace-replay load generator |
//! | [`util`] | deterministic RNG, distributions, online statistics, virtual time |
//!
//! # Quick start
//!
//! ```
//! use faascache::core::policy::PolicyKind;
//! use faascache::sim::{SimConfig, Simulation};
//! use faascache::trace::workloads;
//! use faascache::util::{MemMb, SimDuration};
//!
//! // Replay the paper's skewed-frequency workload on a 4 GB server under
//! // the Greedy-Dual keep-alive policy.
//! let trace = workloads::skewed_frequency(SimDuration::from_mins(5))?;
//! let config = SimConfig::new(MemMb::from_gb(4), PolicyKind::GreedyDual);
//! let result = Simulation::run(&trace, &config);
//! println!("warm {} cold {} dropped {}", result.warm, result.cold, result.dropped);
//! # Ok::<(), faascache::core::CoreError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the harnesses that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use faascache_analysis as analysis;
pub use faascache_core as core;
pub use faascache_platform as platform;
pub use faascache_provision as provision;
pub use faascache_server as server;
pub use faascache_sim as sim;
pub use faascache_trace as trace;
pub use faascache_util as util;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use faascache_analysis::hitratio::HitRatioCurve;
    pub use faascache_analysis::reuse::reuse_distances;
    pub use faascache_core::function::{FunctionId, FunctionRegistry, FunctionSpec};
    pub use faascache_core::policy::{KeepAlivePolicy, PolicyKind};
    pub use faascache_core::pool::{Acquire, ContainerPool, PoolConfig};
    pub use faascache_platform::emulator::{Emulator, PlatformConfig};
    pub use faascache_platform::sharded::{InvokeOutcome, ShardedConfig, ShardedInvoker};
    pub use faascache_provision::controller::{Controller, ControllerConfig};
    pub use faascache_sim::sim::{SimConfig, Simulation};
    pub use faascache_trace::record::{Invocation, Trace};
    pub use faascache_util::{MemMb, Pcg64, SimDuration, SimTime};
}
