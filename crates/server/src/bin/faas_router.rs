//! `faas-router` — a cluster front door for N `faascached` backends.
//!
//! ```text
//! faas-router [--tcp ADDR | --unix PATH] [--http-listen ADDR]
//!             --backends SPEC[,SPEC...] [--balancer POLICY] [--seed S]
//!             [--health-ms MS] [--eject-after N] [--readmit-ms MS]
//!             [--hop-retries N] [--hop-backoff-ms MS]
//!             [--backend-timeout-ms MS]
//!             [--backend-faults SPEC] [--no-remote-shutdown]
//! ```
//!
//! Each backend SPEC is `HOST:PORT` or `unix:PATH`, optionally suffixed
//! `+http=HOST:PORT` naming the backend's HTTP gateway — with it the
//! health prober uses `GET /healthz` and scrapes the backend's in-flight
//! gauges from `/metrics` (feeding least-loaded routing); without it the
//! prober falls back to binary `Ping`.
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

use faascache_server::daemon::Endpoint;
use faascache_server::fault::FaultConfig;
use faascache_server::router::{BackendSpec, Router, RouterConfig};
use faascache_server::signal;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: faas-router [--tcp ADDR | --unix PATH] [--http-listen ADDR]\n\
         \x20                  --backends SPEC[,SPEC...]\n\
         \x20                  [--balancer random|round-robin|least-loaded|affinity]\n\
         \x20                  [--seed S] [--health-ms MS] [--eject-after N]\n\
         \x20                  [--readmit-ms MS] [--hop-retries N] [--hop-backoff-ms MS]\n\
         \x20                  [--backend-timeout-ms MS]\n\
         \x20                  [--backend-faults SPEC] [--no-remote-shutdown]\n\
         \n\
         backend SPEC: HOST:PORT | unix:PATH, optionally +http=HOST:PORT"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("faas-router: bad or missing value for {flag}");
            usage()
        }
    }
}

fn main() -> ExitCode {
    let mut endpoint = Endpoint::Tcp("127.0.0.1:7070".to_string());
    let mut http_listen: Option<String> = None;
    let mut config = RouterConfig::default();
    let mut backends: Vec<BackendSpec> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => endpoint = Endpoint::Tcp(parse("--tcp", args.next())),
            #[cfg(unix)]
            "--unix" => endpoint = Endpoint::Unix(parse::<String>("--unix", args.next()).into()),
            "--http-listen" => http_listen = Some(parse("--http-listen", args.next())),
            "--backends" => {
                let list: String = parse("--backends", args.next());
                for spec in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    match spec.parse() {
                        Ok(b) => backends.push(b),
                        Err(e) => {
                            eprintln!("faas-router: --backends: {e}");
                            usage()
                        }
                    }
                }
            }
            "--balancer" => config.balancer = parse("--balancer", args.next()),
            "--seed" => config.seed = parse("--seed", args.next()),
            "--health-ms" => {
                config.health_interval = Duration::from_millis(parse("--health-ms", args.next()))
            }
            "--eject-after" => config.eject_after = parse("--eject-after", args.next()),
            "--readmit-ms" => {
                config.readmit_backoff = Duration::from_millis(parse("--readmit-ms", args.next()))
            }
            "--hop-retries" => config.hop_retries = parse("--hop-retries", args.next()),
            "--hop-backoff-ms" => {
                config.hop_backoff = Duration::from_millis(parse("--hop-backoff-ms", args.next()))
            }
            "--backend-timeout-ms" => {
                config.backend_read_timeout =
                    Duration::from_millis(parse("--backend-timeout-ms", args.next()))
            }
            "--backend-faults" => {
                let spec: String = parse("--backend-faults", args.next());
                match FaultConfig::parse_spec(&spec) {
                    Ok(cfg) => config.backend_faults = Some(cfg),
                    Err(e) => {
                        eprintln!("faas-router: --backend-faults: {e}");
                        usage()
                    }
                }
            }
            "--no-remote-shutdown" => config.allow_remote_shutdown = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("faas-router: unknown flag {other}");
                usage()
            }
        }
    }
    if backends.is_empty() {
        eprintln!("faas-router: --backends is required");
        usage()
    }
    if let Some(faults) = config.backend_faults.filter(|f| f.is_active()) {
        eprintln!(
            "faas-router: CHAOS MODE: injecting faults on every backend data \
             connection (seed={:#x} reset={} torn={} short-read={} timeout={} \
             corrupt={} stall={}@{}ms)",
            faults.seed,
            faults.reset,
            faults.torn_write,
            faults.short_read,
            faults.timeout,
            faults.corrupt,
            faults.stall,
            faults.stall_ms,
        );
    }

    signal::install();
    let balancer = config.balancer;
    let backend_lines: Vec<String> = backends.iter().map(|b| b.to_string()).collect();
    let router = match Router::bind(&endpoint, http_listen.as_deref(), config, backends) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("faas-router: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "faas-router: listening on {:?} balancer={} backends={}",
        router.bound_addr(),
        balancer,
        backend_lines.join(",")
    );
    if let Some(http) = router.bound_http_addr() {
        eprintln!("faas-router: http front on {http:?}");
    }

    let report = router.run();
    println!("{}", report.summary_line());
    ExitCode::SUCCESS
}
