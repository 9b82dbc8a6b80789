//! Trace-driven discrete-event keep-alive simulator (paper §6, "Keep-alive
//! Simulator").
//!
//! The authors' artifact drives a ~2 kLoC Python simulator
//! (`LambdaScheduler`) over Azure trace samples to produce Figures 3, 5,
//! 6 and 9. This crate is that simulator in Rust:
//!
//! - [`engine`] is the one virtual-time event loop; the three simulations
//!   below and the platform emulator are its [`engine::Node`]s;
//! - [`invoker`] is the pool and per-function tally every node (and
//!   every live shard) wraps;
//! - [`sim`] replays a [`faascache_trace::Trace`] against a single
//!   memory-constrained server whose [`faascache_core::ContainerPool`] is
//!   driven by any keep-alive policy, producing cold/warm/dropped counts,
//!   the execution-time increase, per-function breakdowns, and timelines;
//! - [`mod@sweep`] runs policy × memory-size grids in parallel (each cell is
//!   an independent simulation — "embarrassingly parallel" per the
//!   artifact appendix);
//! - [`elastic`] puts the proportional controller (§5.2) in the loop,
//!   resizing the pool every control period (Figure 9);
//! - [`cluster`] extends the single-server model with the paper's §9
//!   discussion: load balancers with different temporal-locality
//!   behavior routing across a fleet of keep-alive servers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod controller;
pub mod elastic;
pub mod engine;
pub mod invoker;
pub mod metrics;
pub mod sim;
pub mod sweep;

pub use invoker::{Invoker, Run, Tally};
pub use metrics::SimResult;
pub use sim::{SimConfig, Simulation};
pub use sweep::{sweep, SweepPoint};
