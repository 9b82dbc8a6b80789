//! Workload traces for FaaS keep-alive experiments.
//!
//! The FaasCache paper evaluates its policies on the Azure Functions 2019
//! dataset (Shahrad et al., ATC '20). That dataset is not redistributable,
//! so this crate provides both halves of a faithful substitute:
//!
//! - [`azure`] models the *published schema* — per-function minute-bucketed
//!   invocation counts, duration statistics, and app-level memory — with a
//!   CSV parser/writer, so the real dataset drops in when available;
//! - [`synth`] generates synthetic datasets that reproduce the documented
//!   statistics (heavy-tailed Zipf popularity, log-normal memory/durations
//!   spanning three orders of magnitude, diurnal load, periodic and bursty
//!   arrival classes);
//! - [`adapt`] applies the paper's §7 adaptation rules (drop single-shot
//!   functions, split app memory evenly across functions, estimate
//!   cold-start overhead as `max − avg` runtime, expand minute buckets into
//!   timestamps) to turn a dataset into a replayable [`Trace`];
//! - [`replay`] rescales a trace to a target request rate for wall-clock
//!   open-loop replay against a live `faascached` daemon;
//! - [`sample`] implements the RARE / REPRESENTATIVE / RANDOM samplers;
//! - [`stats`] computes the Table-2 statistics;
//! - [`apps`] holds the Table-1 FunctionBench-style application profiles
//!   and [`workloads`] the skewed/cyclic workload builders for Figures 7–8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod apps;
pub mod azure;
pub mod record;
pub mod replay;
pub mod sample;
pub mod stats;
pub mod synth;
pub mod workloads;

pub use record::{Invocation, Trace};
pub use stats::TraceStats;
