//! Foundation utilities for the FaasCache reproduction.
//!
//! This crate provides the deterministic building blocks shared by every
//! other crate in the workspace:
//!
//! - [`rng`]: a small, seedable, splittable PCG-family random number
//!   generator so that every experiment is reproducible bit-for-bit,
//! - [`dist`]: the statistical distributions used to synthesize
//!   Azure-Functions-like workloads (Zipf, log-normal, exponential, Poisson),
//! - [`stats`]: online statistics (Welford mean/variance, EWMA, histograms,
//!   percentiles) used by keep-alive policies and the elastic controller,
//! - [`time`]: microsecond-resolution virtual time ([`SimTime`],
//!   [`SimDuration`]) used throughout the simulator and platform emulator,
//! - [`mem`]: strongly-typed memory quantities ([`MemMb`]),
//! - [`route`]: the stable function-affinity hash shared by the cluster
//!   simulator and the live sharded invoker,
//! - [`backoff`]: deterministic exponential backoff with full jitter,
//!   used by the serving client's retry path.
//!
//! # Examples
//!
//! ```
//! use faascache_util::rng::Pcg64;
//! use faascache_util::dist::Zipf;
//!
//! let mut rng = Pcg64::seed_from_u64(42);
//! let zipf = Zipf::new(1000, 0.9).unwrap();
//! let rank = zipf.sample(&mut rng);
//! assert!((1..=1000).contains(&rank));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod dist;
pub mod mem;
#[cfg(test)]
mod proptests;
pub mod rng;
pub mod route;
pub mod stats;
pub mod time;

pub use mem::MemMb;
pub use rng::Pcg64;
pub use time::{SimDuration, SimTime};
