//! `faas-load` — open-loop trace-replay load generator for `faascached`.
//!
//! ```text
//! faas-load [--tcp ADDR | --unix PATH] [--proto binary|http]
//!           [--requests N] [--threads T]
//!           [--rps R] [--functions N] [--seed S] [--skew zipf:S] [--shutdown]
//!           [--tenant-mod K:R]
//!           [--retries N] [--backoff-ms MS] [--backoff-cap-ms MS]
//!           [--read-timeout-ms MS] [--faults SPEC]
//! ```
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

use faascache_server::client::{self, LoadOptions, LoadProto, RetryPolicy};
use faascache_server::daemon::BoundAddr;
use faascache_server::fault::FaultConfig;
use faascache_server::WorkloadConfig;
use faascache_trace::replay::OpenLoopSchedule;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: faas-load [--tcp ADDR | --unix PATH] [--proto binary|http]\n\
         \x20                [--requests N] [--threads T]\n\
         \x20                [--rps R] [--functions N] [--seed S] [--skew zipf:S]\n\
         \x20                [--connections N] [--shutdown] [--tenant-mod K:R]\n\
         \x20                [--retries N] [--backoff-ms MS] [--backoff-cap-ms MS]\n\
         \x20                [--read-timeout-ms MS] [--faults SPEC]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("faas-load: bad or missing value for {flag}");
            usage()
        }
    }
}

struct Options {
    target: Option<BoundAddr>,
    requests: u64,
    threads: usize,
    connections: usize,
    rps: f64,
    workload: WorkloadConfig,
    shutdown: bool,
    retries: u32,
    backoff_ms: u64,
    backoff_cap_ms: u64,
    read_timeout_ms: Option<u64>,
    faults: FaultConfig,
    proto: LoadProto,
    tenant_mod: Option<(u64, u64)>,
}

fn main() -> ExitCode {
    let mut opts = Options {
        target: None,
        requests: 100_000,
        threads: 4,
        connections: 0,
        rps: 20_000.0,
        workload: WorkloadConfig::default(),
        shutdown: false,
        retries: 0,
        backoff_ms: 5,
        backoff_cap_ms: 250,
        read_timeout_ms: None,
        faults: FaultConfig::disabled(),
        proto: LoadProto::Binary,
        tenant_mod: None,
    };

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => {
                let addr: String = parse("--tcp", args.next());
                match addr.parse() {
                    Ok(sock) => opts.target = Some(BoundAddr::Tcp(sock)),
                    Err(_) => {
                        eprintln!("faas-load: bad tcp address {addr}");
                        return ExitCode::from(2);
                    }
                }
            }
            #[cfg(unix)]
            "--unix" => {
                opts.target = Some(BoundAddr::Unix(
                    parse::<String>("--unix", args.next()).into(),
                ))
            }
            "--proto" => opts.proto = parse("--proto", args.next()),
            "--requests" => opts.requests = parse("--requests", args.next()),
            "--threads" => opts.threads = parse("--threads", args.next()),
            "--connections" => opts.connections = parse("--connections", args.next()),
            "--rps" => opts.rps = parse("--rps", args.next()),
            "--functions" => opts.workload.functions = parse("--functions", args.next()),
            "--seed" => opts.workload.seed = parse("--seed", args.next()),
            "--skew" => {
                let spec: String = parse("--skew", args.next());
                match faascache_server::workload::parse_skew(&spec) {
                    Ok(s) => opts.workload.zipf_exponent = s,
                    Err(e) => {
                        eprintln!("faas-load: {e}");
                        usage()
                    }
                }
            }
            "--shutdown" => opts.shutdown = true,
            "--tenant-mod" => {
                let spec: String = parse("--tenant-mod", args.next());
                let parsed = spec.split_once(':').and_then(|(k, r)| {
                    let k: u64 = k.parse().ok()?;
                    let r: u64 = r.parse().ok()?;
                    (k > 0 && r < k).then_some((k, r))
                });
                match parsed {
                    Some(km) => opts.tenant_mod = Some(km),
                    None => {
                        eprintln!("faas-load: --tenant-mod wants K:R with R < K, got {spec}");
                        usage()
                    }
                }
            }
            "--retries" => opts.retries = parse("--retries", args.next()),
            "--backoff-ms" => opts.backoff_ms = parse("--backoff-ms", args.next()),
            "--backoff-cap-ms" => opts.backoff_cap_ms = parse("--backoff-cap-ms", args.next()),
            "--read-timeout-ms" => {
                opts.read_timeout_ms = Some(parse("--read-timeout-ms", args.next()))
            }
            "--faults" => {
                let spec: String = parse("--faults", args.next());
                match FaultConfig::parse_spec(&spec) {
                    Ok(cfg) => opts.faults = cfg,
                    Err(e) => {
                        eprintln!("faas-load: --faults: {e}");
                        usage()
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("faas-load: unknown flag {other}");
                usage()
            }
        }
    }
    if opts.threads == 0 || opts.requests == 0 || !opts.rps.is_finite() || opts.rps <= 0.0 {
        eprintln!("faas-load: --threads, --requests and --rps must be positive");
        return ExitCode::from(2);
    }

    let Some(addr) = opts.target.clone() else {
        eprintln!("faas-load: need --tcp or --unix");
        usage()
    };
    let trace = opts.workload.build();
    let mut schedule = OpenLoopSchedule::from_trace(&trace, opts.rps);
    if let Some((k, r)) = opts.tenant_mod {
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
    let retry = if opts.retries > 0 {
        RetryPolicy::retries(
            opts.retries,
            Duration::from_millis(opts.backoff_ms),
            Duration::from_millis(opts.backoff_cap_ms.max(opts.backoff_ms)),
        )
    } else {
        RetryPolicy::none()
    };
    // Faults and retries both demand a read timeout: a response lost to a
    // reset must become a retryable error, not a hang.
    let read_timeout_ms = opts
        .read_timeout_ms
        .or_else(|| (opts.retries > 0 || opts.faults.is_active()).then_some(500));
    let load = LoadOptions {
        target_rps: opts.rps,
        requests: opts.requests,
        threads: opts.threads,
        connections: opts.connections,
        retry,
        faults: opts.faults.is_active().then_some(opts.faults),
        read_timeout: read_timeout_ms.map(Duration::from_millis),
        seed: opts.workload.seed,
        proto: opts.proto,
    };
    eprintln!(
        "faas-load: replaying {} requests over {} threads at {} rps ({}){}\
         {}{}",
        opts.requests,
        opts.threads,
        opts.rps,
        opts.proto,
        if opts.connections > 0 {
            format!(" across {} connections", opts.connections)
        } else {
            String::new()
        },
        if retry.is_enabled() {
            format!(" (retries={} keyed)", opts.retries)
        } else {
            String::new()
        },
        if opts.faults.is_active() {
            " [client-side fault injection on]".to_string()
        } else {
            String::new()
        },
    );
    let report = client::run_load_with(&addr, &schedule, load);
    println!("{}", report.summary_line());

    if opts.shutdown {
        // Shutdown is a binary-protocol verb; the HTTP gateway address is
        // a different listener, so over --proto http the caller must aim
        // --shutdown traffic at the binary endpoint (or SIGTERM).
        if opts.proto == LoadProto::Http {
            eprintln!(
                "faas-load: --shutdown is not available over --proto http; \
                 signal the daemon or use the binary endpoint"
            );
        } else {
            match client::Client::connect(&addr).and_then(|mut c| c.shutdown()) {
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
