//! `faas-load` — open-loop trace-replay load generator for `faascached`.
//!
//! `faas-load --help` prints the synopsis. `faascache_server::cli` parses
//! the command line: `--requests`, `--threads` and `--functions` are
//! counts above zero, `--rps` is finite and positive, `--read-timeout-ms`
//! is 1 to `u32::MAX`, and any other value exits 2, naming the flag.
//!
//! Replays the shared synthetic trace against a running daemon and prints
//! throughput, outcome counts, and latency percentiles.
//! `--retries` turns on per-request retry with full-jitter exponential
//! backoff and idempotency keys (so the daemon deduplicates replays of a
//! request whose response was lost); `--faults` injects deterministic
//! client-side transport faults (same spec grammar as `faascached`).
//! `--proto http` replays the same schedule over the daemon's HTTP
//! gateway (`--tcp` must then name the `--http-listen` address; retries
//! carry `Idempotency-Key` headers).
//! `--tenant-mod K:R` keeps only the schedule events whose function index
//! is ≡ R (mod K), at their original offsets — the slice a daemon started
//! with `--tenants` and K tenant names assigns to tenant number R. Two
//! faas-load processes with complementary slices reproduce the full
//! arrival process while the daemon accounts them to different tenants.
//!
//! Cluster mode: point `--tcp`/`--unix` at a `faas-router` front instead
//! of a daemon — the wire protocol is identical, idempotency keys and
//! outcomes pass through untouched, and the same conservation invariant
//! (`warm+cold+dropped+rejected+throttled+errors == requests`) holds
//! across the whole router + backends ensemble. The daemon and every
//! backend must share the load generator's `--functions/--seed/--skew`
//! workload contract as usual.

use faascache_server::cli;
use faascache_server::client::{self, LoadProto};
use faascache_trace::replay::OpenLoopSchedule;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match cli::faas_load(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(usage) => return usage.exit(),
    };
    let (opts, addr) = (args.options, &args.target);
    let trace = args.workload.build();
    let mut schedule = OpenLoopSchedule::from_trace(&trace, opts.target_rps);
    if let Some((k, r)) = args.tenant_mod {
        schedule = schedule.filtered(|f| f.index() as u64 % k == r);
        if schedule.is_empty() {
            eprintln!("faas-load: --tenant-mod {k}:{r} leaves no functions to invoke");
            return ExitCode::from(2);
        }
        eprintln!(
            "faas-load: tenant slice {r} (mod {k}): {} of {} scheduled sends",
            schedule.len(),
            trace.len()
        );
    }
    let across = match opts.connections {
        0 => String::new(),
        n => format!(" across {n} connections"),
    };
    let retries = match opts.retry.max_attempts - 1 {
        0 => String::new(),
        n => format!(" (retries={n} keyed)"),
    };
    let faulted = opts
        .faults
        .map_or("", |_| " [client-side fault injection on]");
    eprintln!(
        "faas-load: replaying {} requests over {} threads at {} rps ({}){across}{retries}{faulted}",
        opts.requests, opts.threads, opts.target_rps, opts.proto
    );
    let report = client::run_load_with(addr, &schedule, opts);
    println!("{}", report.summary_line());

    if args.shutdown {
        // Shutdown is a binary-protocol verb; the HTTP gateway address is
        // a different listener, so over --proto http the caller must aim
        // --shutdown traffic at the binary endpoint (or SIGTERM).
        if opts.proto == LoadProto::Http {
            eprintln!(
                "faas-load: --shutdown is not available over --proto http; \
                 signal the daemon or use the binary endpoint"
            );
        } else {
            match client::Client::connect(addr, LoadProto::Binary).and_then(|mut c| c.shutdown()) {
                Ok(()) => eprintln!("faas-load: daemon shutdown requested"),
                Err(e) => eprintln!("faas-load: shutdown request failed: {e}"),
            }
        }
    }
    if report.lost() > 0 || report.errors > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
