//! Caching analytics for FaaS keep-alive provisioning (paper §5).
//!
//! The provisioning half of FaasCache treats the keep-alive pool as a
//! cache and sizes it with classic cache-modeling machinery:
//!
//! - [`reuse`] computes **size-weighted reuse distances**: the total memory
//!   of the unique functions invoked between successive invocations of the
//!   same function (for the request sequence `A B C B C A`, the reuse
//!   distance of `A` is `size(B) + size(C)`).
//! - [`hitratio`] turns the reuse-distance distribution into a **hit-ratio
//!   curve** — the CDF of reuse distances — with queries, inversion (for
//!   the elastic controller), and inflection-point detection (for static
//!   provisioning).
//! - [`shards`] implements **SHARDS**-style spatially hashed sampling so
//!   the curve can be estimated from a fraction of the trace (the paper
//!   cites SHARDS as the practical way to avoid the `O(N·M)` full scan).
//! - [`online`] implements epoch-based **online curve estimation** with a
//!   drift signal — the "online adjustments" the paper leaves as future
//!   work (§5.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hitratio;
pub mod online;
pub mod reuse;
pub mod shards;

pub use hitratio::HitRatioCurve;
pub use reuse::{reuse_distances, reuse_distances_naive, ReuseDistances};
