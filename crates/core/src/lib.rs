//! Caching-based function keep-alive for serverless platforms.
//!
//! This crate is the primary contribution of the FaasCache paper
//! (Fuerst & Sharma, ASPLOS '21) rendered as a reusable Rust library:
//! *keeping a function's container warm is equivalent to caching an object*,
//! so cache eviction algorithms become keep-alive policies.
//!
//! The centerpiece is the [`pool::ContainerPool`] — a memory-constrained
//! keep-alive cache of warm containers — parameterized by a
//! [`policy::KeepAlivePolicy`]:
//!
//! - [`policy::GreedyDual`] — the paper's GDSF policy:
//!   `Priority = Clock + Freq × Cost / Size` (§4.1),
//! - [`policy::Landlord`] — the rent-charging online algorithm (§4.2),
//! - [`policy::Lru`], [`policy::Lfu`], [`policy::SizeAware`] — degenerate
//!   Greedy-Dual family members (§4.2),
//! - [`policy::Ttl`] — the OpenWhisk default (10-minute TTL, LRU when full),
//! - [`policy::Hist`] — the histogram/prefetching policy of Shahrad et al.
//!   (ATC '20), the paper's state-of-the-art baseline.
//!
//! # Quick start
//!
//! ```
//! use faascache_core::function::FunctionRegistry;
//! use faascache_core::policy::GreedyDual;
//! use faascache_core::pool::{Acquire, ContainerPool};
//! use faascache_util::{MemMb, SimDuration, SimTime};
//!
//! let mut registry = FunctionRegistry::new();
//! let f = registry.register(
//!     "ml-inference",
//!     MemMb::new(512),
//!     SimDuration::from_secs(2),
//!     SimDuration::from_secs_f64(6.5),
//! )?;
//!
//! let mut pool = ContainerPool::new(MemMb::from_gb(4), Box::new(GreedyDual::new()));
//! let t0 = SimTime::ZERO;
//!
//! // First invocation: cold start.
//! let cold = pool.acquire(registry.spec(f), t0);
//! assert!(matches!(cold, Acquire::Cold { .. }));
//! # Ok::<(), faascache_core::error::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod container;
pub mod error;
mod fn_table;
pub mod function;
pub mod policy;
pub mod pool;
#[cfg(test)]
mod proptests;
mod slot_table;

pub use container::{Container, ContainerId, ContainerState};
pub use error::CoreError;
pub use function::{FunctionId, FunctionRegistry, FunctionSpec, TenantId, DEFAULT_TENANT};
pub use pool::{Acquire, ContainerPool, IdleView, PoolConfig, TenantLedger};
