//! `faascached` — the sharded keep-alive invoker daemon.
//!
//! ```text
//! faascached [--tcp ADDR | --unix PATH] [--http-listen ADDR]
//!            [--io-model threads|epoll]
//!            [--shards N] [--mem-mb MB] [--queue-bound N] [--policy GD]
//!            [--functions N] [--seed S] [--skew zipf:S] [--reap-ms MS]
//!            [--rebalance]
//!            [--tenants A,B,...] [--tenant-quota NAME:SPEC]
//!            [--default-tenant-quota SPEC] [--state-dir DIR]
//!            [--faults SPEC] [--no-remote-shutdown]
//! ```
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
//! Housekeeping: one background thread reaps every shard each
//! `--reap-ms` (default 500). `--rebalance` adds warm-set re-homing to
//! that pass: a shard that serves more than 1.5× the fleet mean for two
//! passes running hands its hottest function's idle warm containers to
//! the coldest shard, and the function's requests follow them.
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

use faascache_platform::tenant::TenantQuota;
use faascache_server::daemon::{Daemon, DaemonConfig, Endpoint};
use faascache_server::fault::FaultConfig;
use faascache_server::journal::{Journal, JournalRecord};
use faascache_server::{signal, WorkloadConfig};
use faascache_util::MemMb;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: faascached [--tcp ADDR | --unix PATH] [--http-listen ADDR]\n\
         \x20                 [--shards N] [--mem-mb MB]\n\
         \x20                 [--io-model threads|epoll]\n\
         \x20                 [--queue-bound N] [--policy GD|TTL|LRU|FREQ|SIZE|LND|HIST]\n\
         \x20                 [--functions N] [--seed S] [--skew zipf:S] [--reap-ms MS]\n\
         \x20                 [--rebalance]\n\
         \x20                 [--tenants A,B,...] [--tenant-quota NAME:inflight=K,mem=MB]\n\
         \x20                 [--default-tenant-quota inflight=K,mem=MB]\n\
         \x20                 [--state-dir DIR]\n\
         \x20                 [--faults SPEC] [--no-remote-shutdown]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("faascached: bad or missing value for {flag}");
            usage()
        }
    }
}

/// Holds a tenant named on the command line to the rule a runtime
/// quota update for it is held to.
fn check_tenant(flag: &str, tenant: &str) {
    let record = JournalRecord::SetQuota {
        tenant: tenant.to_string(),
        inflight: u64::MAX,
        mem_mb: u64::MAX,
    };
    if let Err(e) = record.validate() {
        eprintln!("faascached: {flag}: {e}");
        usage()
    }
}

fn main() -> ExitCode {
    let mut endpoint = Endpoint::Tcp("127.0.0.1:7077".to_string());
    let mut http_listen: Option<String> = None;
    let mut config = DaemonConfig::default();
    let mut workload = WorkloadConfig::default();
    let mut tenants: Vec<String> = Vec::new();
    let mut state_dir: Option<std::path::PathBuf> = None;
    let mut faults = FaultConfig::disabled();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tcp" => endpoint = Endpoint::Tcp(parse("--tcp", args.next())),
            #[cfg(unix)]
            "--unix" => endpoint = Endpoint::Unix(parse::<String>("--unix", args.next()).into()),
            "--http-listen" => http_listen = Some(parse("--http-listen", args.next())),
            "--shards" => config.shards = parse("--shards", args.next()),
            "--io-model" => config.io_model = parse("--io-model", args.next()),
            "--mem-mb" => config.total_mem = MemMb::new(parse("--mem-mb", args.next())),
            "--queue-bound" => config.queue_bound = parse("--queue-bound", args.next()),
            "--policy" => config.policy = parse("--policy", args.next()),
            "--functions" => workload.functions = parse("--functions", args.next()),
            "--seed" => workload.seed = parse("--seed", args.next()),
            "--skew" => {
                let spec: String = parse("--skew", args.next());
                match faascache_server::workload::parse_skew(&spec) {
                    Ok(s) => workload.zipf_exponent = s,
                    Err(e) => {
                        eprintln!("faascached: {e}");
                        usage()
                    }
                }
            }
            "--tenants" => {
                let list: String = parse("--tenants", args.next());
                tenants = list
                    .split(',')
                    .map(str::trim)
                    .filter(|t| !t.is_empty())
                    .map(str::to_string)
                    .collect();
                if tenants.is_empty() {
                    eprintln!("faascached: --tenants needs at least one name");
                    usage()
                }
                for tenant in &tenants {
                    check_tenant("--tenants", tenant);
                }
            }
            "--tenant-quota" => {
                let spec: String = parse("--tenant-quota", args.next());
                let Some((name, quota_spec)) = spec.split_once(':') else {
                    eprintln!("faascached: --tenant-quota wants NAME:inflight=K,mem=MB");
                    usage()
                };
                match TenantQuota::parse(quota_spec) {
                    Ok(q) => {
                        check_tenant("--tenant-quota", name);
                        config.tenant_quotas.set(name, q)
                    }
                    Err(e) => {
                        eprintln!("faascached: --tenant-quota: {e}");
                        usage()
                    }
                }
            }
            "--default-tenant-quota" => {
                let spec: String = parse("--default-tenant-quota", args.next());
                match TenantQuota::parse(&spec) {
                    Ok(q) => config.tenant_quotas.default = q,
                    Err(e) => {
                        eprintln!("faascached: --default-tenant-quota: {e}");
                        usage()
                    }
                }
            }
            "--rebalance" => config.rebalance = Some(Default::default()),
            "--reap-ms" => {
                config.reap_interval = Duration::from_millis(parse("--reap-ms", args.next()))
            }
            "--faults" => {
                let spec: String = parse("--faults", args.next());
                match FaultConfig::parse_spec(&spec) {
                    Ok(cfg) => faults = cfg,
                    Err(e) => {
                        eprintln!("faascached: --faults: {e}");
                        usage()
                    }
                }
            }
            "--state-dir" => state_dir = Some(parse::<String>("--state-dir", args.next()).into()),
            "--no-remote-shutdown" => config.allow_remote_shutdown = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("faascached: unknown flag {other}");
                usage()
            }
        }
    }
    if faults.is_active() {
        eprintln!(
            "faascached: CHAOS MODE: injecting faults on every connection \
             (seed={:#x} reset={} torn={} short-read={} timeout={} corrupt={} \
             stall={}@{}ms)",
            faults.seed,
            faults.reset,
            faults.torn_write,
            faults.short_read,
            faults.timeout,
            faults.corrupt,
            faults.stall,
            faults.stall_ms,
        );
        config.faults = Some(faults);
    }

    // C10k serving needs one fd per connection; lift the soft limit to
    // the hard limit before the first accept.
    #[cfg(target_os = "linux")]
    if config.io_model == faascache_server::IoModel::Epoll {
        match faascache_server::reactor::raise_nofile_limit() {
            Ok(limit) => eprintln!("faascached: open-file limit {limit}"),
            Err(e) => eprintln!("faascached: could not raise open-file limit: {e}"),
        }
    }

    signal::install();
    let trace = workload.build();
    let mut registry = trace.registry().clone();
    // Round-robin tenant assignment over the generated workload, matching
    // `faas-load --tenant-mod K:R` slicing on the client side.
    if !tenants.is_empty() {
        let ids: Vec<_> = registry.iter().map(|spec| spec.id()).collect();
        for (i, id) in ids.into_iter().enumerate() {
            registry.set_tenant(id, &tenants[i % tenants.len()]);
        }
        eprintln!(
            "faascached: workload tenants: {} (round-robin by function index)",
            tenants.join(",")
        );
    }
    eprintln!(
        "faascached: workload functions={} seed={:#x} (registry: {} functions)",
        workload.functions,
        workload.seed,
        registry.len()
    );

    // Durable state: the journal goes to the daemon, so runtime
    // mutations are fsynced before their acks; what it recovered is
    // replayed once the daemon is bound.
    let recovered = match state_dir.as_deref().map(Journal::open).transpose() {
        Ok(opened) => opened.map(|(journal, recovered)| {
            config.journal = Some(Arc::new(Mutex::new(journal)));
            recovered
        }),
        Err(e) => {
            let dir = state_dir.unwrap_or_default();
            eprintln!("faascached: --state-dir {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };

    let daemon =
        match Daemon::bind_with_http(&endpoint, http_listen.as_deref(), config.clone(), registry) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("faascached: bind failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    eprintln!(
        "faascached: listening on {:?} with {} shards / {} MB / {:?} (io={})",
        daemon.bound_addr(),
        config.shards,
        config.total_mem.as_mb(),
        config.policy,
        config.io_model,
    );
    if let Some(http) = daemon.bound_http_addr() {
        eprintln!("faascached: http gateway on {http:?}");
    }
    if let (Some(dir), Some(recovered)) = (&state_dir, recovered) {
        let skipped = daemon.replay(&recovered.records);
        eprintln!(
            "faascached: state dir {}: replayed {} mutations ({} from snapshot), \
             skipped {skipped}, truncated {} torn bytes",
            dir.display(),
            recovered.records.len() - skipped,
            recovered.snapshot_records,
            recovered.truncated_bytes,
        );
    }

    let report = daemon.run();
    println!("{}", report.summary_line());
    ExitCode::SUCCESS
}
