//! `faas-router` — a cluster front door for N `faascached` backends.
//!
//! `faas-router --help` prints the synopsis. `faascache_server::cli`
//! parses the command line: `--health-ms`, `--readmit-ms` and
//! `--backend-timeout-ms` are 1 to `u32::MAX`, and any other value exits
//! 2, naming the flag.
//!
//! Each backend SPEC is `HOST:PORT` or `unix:PATH`, optionally suffixed
//! `+http=HOST:PORT` naming the backend's HTTP gateway — with it the
//! health prober uses `GET /healthz` (which fails while the backend
//! drains); without it the prober sends a binary `Ping`. Least-loaded
//! routing reads the router's own in-flight forwards per backend.
//!
//! `--balancer` selects the routing policy — `random`, `round-robin`,
//! `least-loaded`, or `affinity` (default) — the *same* implementations
//! `sim::cluster` runs in virtual time, so measured locality can be
//! compared against the simulator directly. Affinity sends a function to
//! its hash home, and to a second candidate only while the home is
//! ejected.
//!
//! `--backend-faults SPEC` injects deterministic faults on router→backend
//! *data* connections only (probe and register traffic stays clean) —
//! the knob the chaos conformance suite drives. Keyed invokes are
//! retried across the hop (`--hop-retries`), landing on the pinned
//! backend's idempotency cache for exactly-once semantics.
//!
//! Serves until SIGTERM/SIGINT or a protocol Shutdown frame, drains
//! (its `/healthz` flips 503 immediately — before the backends'),
//! prints a final stats line, and exits 0.

use faascache_server::{cli, signal};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match cli::faas_router(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(usage) => return usage.exit(),
    };
    signal::install();
    cli::serve("faas-router", args.bind(), |r| r.run().summary_line())
}
