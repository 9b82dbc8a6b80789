//! A virtual-time OpenWhisk-like FaaS platform emulator.
//!
//! The paper's §7.2 evaluation runs FaasCache (modified OpenWhisk) against
//! vanilla OpenWhisk on a real server with FunctionBench applications.
//! Docker and a 48-core testbed are out of scope for a library, so this
//! crate emulates the parts of the platform that produce Figures 1, 7 and
//! 8 (see DESIGN.md §1, *Substitutions*, for the argument):
//!
//! - [`lifecycle`] — the cold-start phase breakdown of Figure 1 (container
//!   pool check → Docker/Akka startup → runtime init → explicit init →
//!   execution);
//! - [`queue`] — OpenWhisk's request buffering: requests wait bounded time
//!   in a bounded buffer and are *dropped* under sustained overload;
//! - [`emulator`] — the invoker, a node of the simulator's event engine:
//!   the simulator's [`faascache_sim::Invoker`] over a keep-alive
//!   [`ContainerPool`] (TTL for vanilla OpenWhisk, Greedy-Dual for
//!   FaasCache) fed from the buffer, with per-function latency;
//! - [`sharded`] — a thread-safe invoker exercised by concurrent
//!   load-generator threads (as the artifact's LookBusy load tests
//!   exercise the modified OpenWhisk): N shards, each the simulator's
//!   invoker on the arrival clock, behind N locks —
//!   one, for a single pool behind a single lock — with
//!   function-affinity routing, bounded admission queues (explicit
//!   backpressure) and a drain switch — the in-process engine of the
//!   `faascached` serving daemon;
//! - [`tenant`] — per-tenant budgets checked at the same admission, whose
//!   concurrency budget takes the same [`gate`] a shard's queue bound
//!   does.
//!
//! [`ContainerPool`]: faascache_core::ContainerPool

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emulator;
pub mod gate;
pub mod lifecycle;
pub mod queue;
pub mod sharded;
pub mod tenant;

pub use emulator::{Emulator, PlatformConfig, PlatformResult};
pub use lifecycle::{ColdStartTimeline, Phase, PhaseModel};
pub use sharded::{InvokeOutcome, InvokerStats, Outcomes, ShardedConfig, ShardedInvoker};
pub use tenant::{TenantQuota, TenantQuotas, TenantSnapshot, TenantTable};
