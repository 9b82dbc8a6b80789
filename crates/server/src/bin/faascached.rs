//! `faascached` — the sharded keep-alive invoker daemon.
//!
//! `faascached --help` prints the synopsis. `faascache_server::cli`
//! parses the command line: `--shards`, `--queue-bound` and `--functions`
//! are counts above zero (`--shards` and `--functions` at most 65,536),
//! `--reap-ms` is 1 to `u32::MAX`, and any other value exits 2, naming
//! the flag. A listener or state dir that cannot be opened exits 1.
//!
//! Serves the wire protocol until SIGTERM/SIGINT or a protocol Shutdown
//! frame, drains, prints a final stats line, and exits 0.
//!
//! `--http-listen ADDR` additionally serves an HTTP/1.1 gateway on a
//! second TCP listener, concurrently with the binary listener and under
//! the same io model: `POST /invoke/<fn>`, `PUT /functions/<name>`,
//! `GET /healthz`, `GET /metrics` (Prometheus text exposition).
//!
//! `--io-model epoll` (Linux) serves every connection from one reactor
//! thread over raw epoll, each request on the thread that read it —
//! thousands of mostly-idle keep-alive connections instead of a thread
//! per socket. The default `threads` model is the original blocking core,
//! kept as a differential reference.
//!
//! Housekeeping: each `--reap-ms` (default 500) one background thread
//! reaps every shard and makes the pre-warms its policy asks for (HIST's).
//! `--rebalance` adds warm-set re-homing to that pass: a shard that
//! serves more than 1.5× the fleet mean for two passes running hands its
//! hottest function's idle warm containers to the coldest shard, and the
//! function's requests follow them.
//!
//! `--skew zipf:<s>` steepens the workload's per-function rate skew — it
//! is part of the workload contract and must match the load generator's
//! flag.
//!
//! Fault injection (chaos testing): `--faults` takes a compact spec like
//! `seed=42,reset=0.01,corrupt=0.005`. Knobs: `seed`, `reset`, `torn`,
//! `short-read`, `timeout`, `corrupt`, `stall`, `stall-ms`. Every accepted
//! connection gets a deterministic per-stream schedule derived from the
//! seed and the accept ordinal.
//!
//! Tenant isolation: `--tenants A,B,...` assigns the generated workload's
//! functions round-robin to the named tenants (function `i` goes to
//! tenant `i mod K`); without it every function belongs to the default
//! tenant. `--tenant-quota NAME:inflight=K,mem=MB` (repeatable) sets a
//! named tenant's admission budgets, and `--default-tenant-quota SPEC`
//! sets the budget every unnamed tenant gets. Over-budget tenants see
//! their requests *throttled* (HTTP 429 + `Retry-After`, binary outcome
//! code 4) rather than rejected, and their warm containers become
//! preferred eviction victims until they are back under budget.
//!
//! Tenant names follow the rule every runtime mutation follows
//! (`JournalRecord::validate`: 1 to 32 bytes of `[A-Za-z0-9._-]`); a
//! flag naming any other tenant exits 2.
//!
//! Durability: `--state-dir DIR` opens a CRC-framed append-only journal
//! in `DIR` (creating it if needed), replays every recorded registration
//! and tenant-quota update through the daemon's own apply step after
//! bind and before the first request is served, and journals each later
//! runtime mutation *before* it is acknowledged on the wire. A SIGKILLed
//! daemon restarted with the same `--state-dir` (and the same workload
//! flags) therefore serves the registry it last acknowledged; torn
//! journal tails from a mid-write crash are truncated to the longest
//! valid prefix on open.

use faascache_server::{cli, signal};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match cli::faascached(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(usage) => return usage.exit(),
    };
    signal::install();
    cli::serve("faascached", args.bind(), |d| d.run().summary_line())
}
