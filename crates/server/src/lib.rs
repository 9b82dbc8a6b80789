//! `faascached`: the FaasCache keep-alive pool as a serving daemon.
//!
//! Everything below `faascache-platform` works in virtual time inside one
//! process; this crate puts the sharded invoker behind a socket so real
//! clients on real clocks can drive it, the way the paper's evaluation
//! drives a modified OpenWhisk invoker with live load:
//!
//! - [`proto`] — a length-prefixed binary wire protocol spoken over TCP
//!   and Unix domain sockets (`std::net` only; no external deps);
//! - [`http`] — the HTTP/1.1 gateway's codec: an incremental request
//!   parser and response encoder (keep-alive, pipelining,
//!   Content-Length bodies, 431/413 limits), the route table, the one
//!   outcome ↔ (status, label) table, and the client's request encoder
//!   and response decoder — so wrk/hey/curl can drive the cache;
//! - `service` — the one operation table: a frame or an HTTP request
//!   decodes into a protocol-neutral `Op`, a `Service` executes it into
//!   a `Reply`, and `respond` encodes the reply back into the wire
//!   format it came in by. A `Register` or quota update becomes
//!   `Op::Mutate` only once it passes [`JournalRecord::validate`].
//!   `Service` has exactly two implementations, the daemon and the
//!   router;
//! - `conn` — one connection's protocol core, shared by both drivers:
//!   the decoder, the pending queue and its `active` bracket,
//!   serve-then-close, the stall deadline, the drain grace, and the
//!   reply queue;
//! - `driver` — the blocking, thread-per-connection serving driver,
//!   generic over `Service`: listener binding, the accept loop, one
//!   read-answer-flush loop per connection, drain;
//! - [`reactor`] (linux) — the `--io-model epoll` driver: one reactor
//!   thread multiplexing every connection over raw `epoll`, each
//!   request served on the thread that read it — C10k connections, no
//!   new deps;
//! - [`daemon`] — the `faascached` daemon: N pool shards with
//!   function-affinity routing, bounded admission with explicit
//!   backpressure, an idempotency cache, a durable registry journal,
//!   one wall-clock housekeeping thread, and graceful drain on SIGTERM /
//!   protocol shutdown; served by either driver;
//! - [`router`] — `faas-router`: a cluster front door forwarding to N
//!   `faascached` backends with the same routing policies `sim::cluster`
//!   models (random, round-robin, least-loaded, affinity), live health
//!   checks with ejection/re-admission, pinned idempotency keys, and
//!   per-backend `/metrics`; served by the blocking driver (a forward
//!   is a blocking round-trip, which would stall the reactor);
//! - [`client`] — the one blocking client, over either protocol (chosen
//!   at connect time; every mutation checked before it is sent), and
//!   the open-loop trace-replay load generator behind the `faas-load`
//!   binary (retry/backoff and idempotency keys);
//! - [`fault`] — seeded deterministic fault injection: a
//!   [`FaultyStream`] transport wrapper that tears
//!   writes, shortens reads, flips bits, stalls, and resets connections
//!   per a replayable [`FaultPlan`];
//! - [`journal`] — the crash-safe control-plane journal behind
//!   `--state-dir`, and [`JournalRecord`], the one control-plane
//!   mutation type from the wire to the journal and the router's log,
//!   with the one check every mutation passes;
//! - [`cli`] — the three binaries' command lines, parsed once into
//!   configs whose types hold each flag's rule (e.g. [`Period`]);
//! - [`workload`] — the deterministic workload contract: daemon and load
//!   generator derive the identical function registry from shared
//!   `--functions`/`--seed` parameters;
//! - [`net`] — socket helpers: TCP and Unix-domain sockets behind one
//!   listener and one stream type, and the drain latch;
//! - [`signal`] — SIGTERM/SIGINT wiring (an atomic flag the drivers
//!   poll).
//!
//! The three binaries:
//!
//! ```text
//! faascached  --unix /tmp/faascache.sock --shards 8 --mem-mb 8192
//! faas-load   --unix /tmp/faascache.sock --requests 100000 --threads 4 \
//!             --rps 20000 --shutdown
//! faas-router --unix /tmp/router.sock \
//!             --backends unix:/tmp/b0.sock,unix:/tmp/b1.sock
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
mod conn;
pub mod daemon;
mod driver;
pub mod fault;
pub mod http;
pub mod journal;
pub mod net;
mod prom;
pub mod proto;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod router;
mod service;
pub mod signal;
pub mod workload;

pub use cli::Period;
pub use client::{run_load_with, Client, LoadOptions, LoadProto, LoadReport, RetryPolicy};
pub use daemon::{
    BoundAddr, Daemon, DaemonConfig, DaemonReport, Endpoint, IoModel, ShutdownHandle,
};
pub use fault::{FaultConfig, FaultPlan, FaultyStream};
pub use http::{HttpParseError, HttpParser, HttpRequest};
pub use journal::{Journal, JournalRecord, RecoveredState};
pub use proto::{FrameDecoder, FrameEncoder};
pub use router::{BackendSpec, Router, RouterConfig, RouterReport};
pub use workload::WorkloadConfig;
