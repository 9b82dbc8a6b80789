//! The three binaries' command lines, through `faascache_server::cli`,
//! the one parser `faascached`, `faas-router` and `faas-load` run.
//!
//! The property builds argv from every flag of the three usage texts,
//! each with a boundary value (0, 1, `u32::MAX`, `u64::MAX`, -1, empty,
//! `nan`, garbage) or a valid one, appended to a base command line that
//! binds (a later flag overrides an earlier one). It requires:
//! - parsing never panics, and returns a config or a usage error that
//!   names one of the argv's flags;
//! - a daemon config that parses binds (`Ok` or `InvalidInput`) within
//!   1 s and, bound, answers at least one of a 10-invoke session unless
//!   it injects faults, and drains, within 5 s;
//! - a router config does the same, in front of one in-process daemon.
//!
//! `FAASCACHE_ARGV_CASES=N` sets the case count per binary (default 256).
//!
//! Mutation check: a plain integer put back in place of a non-zero type
//! fails the property. With `DaemonConfig::shards` a `usize`, daemon
//! case 190 (`--tenants a,b --shards 0 --shards 0 --functions 8`) panics
//! in `Daemon::bind`. With `RouterConfig::backend_read_timeout` a
//! `Duration`, router case 210 (`--backend-timeout-ms 0`) fails every
//! forward, and the router answers none of its session. Both argv are
//! also pinned in `pinned_argv_cases_are_refused`.

use faascache_server::cli::{self, UsageError};
use faascache_server::client::Client;
use faascache_server::daemon::{BoundAddr, Daemon, DaemonConfig, Endpoint, ShutdownHandle};
use faascache_server::{IoModel, Period, WorkloadConfig};
use faascache_util::route::LoadBalancer;
use faascache_util::MemMb;
use proptest::prelude::*;
use std::io;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// A flag and a value it accepts (`None` for a switch). `@sock` and
/// `@dir` stand for a fresh relative path, `@backend` for the address
/// of the in-process daemon the routers front.
type Flag = (&'static str, Option<&'static str>);

const DAEMON_FLAGS: &[Flag] = &[
    ("--tcp", Some("127.0.0.1:0")),
    ("--unix", Some("@sock")),
    ("--http-listen", Some("127.0.0.1:0")),
    ("--shards", Some("3")),
    ("--mem-mb", Some("512")),
    ("--io-model", Some("epoll")),
    ("--queue-bound", Some("64")),
    ("--policy", Some("LRU")),
    ("--functions", Some("8")),
    ("--seed", Some("3")),
    ("--skew", Some("zipf:1.2")),
    ("--reap-ms", Some("20")),
    ("--rebalance", None),
    ("--tenants", Some("a,b")),
    ("--tenant-quota", Some("a:inflight=4,mem=256")),
    ("--default-tenant-quota", Some("inflight=8")),
    ("--state-dir", Some("@dir")),
    ("--faults", Some("seed=3,reset=0.01")),
    ("--no-remote-shutdown", None),
];

const ROUTER_FLAGS: &[Flag] = &[
    ("--tcp", Some("127.0.0.1:0")),
    ("--unix", Some("@sock")),
    ("--http-listen", Some("127.0.0.1:0")),
    ("--backends", Some("@backend")),
    ("--balancer", Some("least-loaded")),
    ("--seed", Some("3")),
    ("--health-ms", Some("20")),
    ("--eject-after", Some("2")),
    ("--readmit-ms", Some("20")),
    ("--hop-retries", Some("2")),
    ("--hop-backoff-ms", Some("1")),
    ("--backend-timeout-ms", Some("200")),
    ("--backend-faults", Some("seed=3,torn=0.01")),
    ("--no-remote-shutdown", None),
];

const LOAD_FLAGS: &[Flag] = &[
    ("--tcp", Some("127.0.0.1:7077")),
    ("--unix", Some("@sock")),
    ("--proto", Some("http")),
    ("--requests", Some("10")),
    ("--threads", Some("2")),
    ("--rps", Some("100")),
    ("--functions", Some("8")),
    ("--seed", Some("3")),
    ("--skew", Some("zipf:1.2")),
    ("--connections", Some("4")),
    ("--shutdown", None),
    ("--tenant-mod", Some("2:1")),
    ("--retries", Some("3")),
    ("--backoff-ms", Some("5")),
    ("--backoff-cap-ms", Some("50")),
    ("--read-timeout-ms", Some("200")),
    ("--faults", Some("seed=3,reset=0.01")),
];

const BOUNDARY: [&str; 8] = [
    "0",
    "1",
    "4294967295",
    "18446744073709551615",
    "-1",
    "",
    "nan",
    "x\"y z",
];

const BIND_LIMIT: Duration = Duration::from_secs(1);
const SESSION_LIMIT: Duration = Duration::from_secs(5);

fn cases() -> u32 {
    match std::env::var("FAASCACHE_ARGV_CASES") {
        Ok(v) => v
            .parse()
            .expect("FAASCACHE_ARGV_CASES must be a case count"),
        Err(_) => 256,
    }
}

/// Up to five (flag, value) draws; value `BOUNDARY.len()` is the
/// flag's valid value.
fn draws(flags: &'static [Flag]) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..flags.len(), 0..=BOUNDARY.len()), 0..6)
}

/// Relative paths land in one scratch directory, made the working
/// directory of this test binary. The daemon and router cases take
/// turns, or two of them given the same path would race for it.
fn scratch() -> MutexGuard<'static, ()> {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    static TURN: Mutex<()> = Mutex::new(());
    DIR.get_or_init(|| {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("argv");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::env::set_current_dir(&dir).expect("enter scratch dir");
        dir
    });
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn argv(base: &[&str], flags: &[Flag], draws: &[(usize, usize)]) -> Vec<String> {
    static FRESH: AtomicU64 = AtomicU64::new(0);
    let value = |v: &str| {
        let n = FRESH.fetch_add(1, Ordering::Relaxed);
        match v {
            "@sock" => format!("s{n}.sock"),
            "@dir" => format!("state{n}"),
            "@backend" => backend().to_string(),
            v => v.to_string(),
        }
    };
    let mut argv: Vec<String> = base.iter().map(|v| value(v)).collect();
    for &(flag, draw) in draws {
        let (name, valid) = flags[flag];
        argv.push(name.to_string());
        match (valid, BOUNDARY.get(draw)) {
            (None, _) => {}
            (Some(valid), None) => argv.push(value(valid)),
            // A path flag's boundary values name files of its own, so a
            // state dir never sits where a socket is asked for.
            (Some("@sock" | "@dir"), Some(&v)) if !v.is_empty() => {
                argv.push(format!("{}-{v}", &name[2..]))
            }
            (Some(_), Some(&v)) => argv.push(v.to_string()),
        }
    }
    argv
}

/// The usage error names a flag the argv carries.
fn assert_names_a_flag(argv: &[String], e: &UsageError) {
    let reason = e.reason.as_deref().unwrap_or_default();
    assert!(
        argv.iter()
            .any(|a| a.starts_with("--") && reason.contains(a.as_str())),
        "{argv:?}: {reason:?} names none of its flags"
    );
}

/// A call running on a thread of its own.
struct Running<T> {
    result: mpsc::Receiver<T>,
    thread: thread::JoinHandle<()>,
}

fn start<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Running<T> {
    let (tx, result) = mpsc::channel();
    let thread = thread::spawn(move || {
        let _ = tx.send(f());
    });
    Running { result, thread }
}

impl<T> Running<T> {
    /// The call's result, joined, if it returned within `limit`; `None`
    /// if it panicked, or if it still runs (its thread is then left).
    fn wait(self, limit: Duration) -> Option<T> {
        let result = self.result.recv_timeout(limit).ok()?;
        self.thread.join().ok()?;
        Some(result)
    }
}

/// What binding a parsed config came to: refused as `InvalidInput`, or
/// a server to run.
fn bound<S>(argv: &[String], bind: Option<io::Result<S>>) -> Option<S> {
    match bind.unwrap_or_else(|| panic!("{argv:?}: bind hung or panicked")) {
        Ok(server) => Some(server),
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{argv:?}: {e}");
            None
        }
    }
}

/// Ten invokes of function 0, reconnecting after an error, then a
/// drain: `run` must report drained within [`SESSION_LIMIT`], and a
/// server without injected faults must answer at least one invoke.
fn session(
    argv: &[String],
    addr: BoundAddr,
    shutdown: ShutdownHandle,
    run: impl FnOnce() -> bool + Send + 'static,
) {
    let started = Instant::now();
    let running = start(run);
    let mut answered = 0;
    let mut conn: Option<Client> = None;
    for _ in 0..10 {
        if conn.is_none() {
            conn = Client::connect(&addr).ok();
            if let Some(c) = &conn {
                c.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
            }
        }
        match conn.as_mut().map(|c| c.invoke(0)) {
            Some(Ok(_)) => answered += 1,
            Some(Err(_)) => conn = None,
            None => {}
        }
    }
    drop(conn);
    shutdown.request();
    let drained = running.wait(SESSION_LIMIT.saturating_sub(started.elapsed()));
    assert_eq!(drained, Some(true), "{argv:?}: no drain within 5 s");
    let faulted = argv.iter().any(|a| a.ends_with("faults"));
    assert!(
        faulted || answered > 0,
        "{argv:?}: answered none of 10 invokes"
    );
}

fn check_daemon(argv: Vec<String>) {
    let args = match cli::faascached(argv.clone()) {
        Ok(args) => args,
        Err(e) => return assert_names_a_flag(&argv, &e),
    };
    if let Some(daemon) = bound(&argv, start(move || args.bind()).wait(BIND_LIMIT)) {
        let (addr, shutdown) = (daemon.bound_addr(), daemon.shutdown_handle());
        session(&argv, addr, shutdown, move || daemon.run().drained);
    }
}

fn check_router(argv: Vec<String>) {
    let args = match cli::faas_router(argv.clone()) {
        Ok(args) => args,
        Err(e) => return assert_names_a_flag(&argv, &e),
    };
    if let Some(router) = bound(&argv, start(move || args.bind()).wait(BIND_LIMIT)) {
        let (addr, shutdown) = (router.bound_addr(), router.shutdown_handle());
        session(&argv, addr, shutdown, move || router.run().drained);
    }
}

fn check_load(argv: Vec<String>) {
    if let Err(e) = cli::faas_load(argv.clone()) {
        assert_names_a_flag(&argv, &e);
    }
}

/// The address of the daemon every router case forwards to, serving for
/// the life of the test binary.
fn backend() -> &'static str {
    static BACKEND: OnceLock<String> = OnceLock::new();
    BACKEND.get_or_init(|| {
        let workload = WorkloadConfig {
            functions: NonZeroUsize::new(8).unwrap(),
            ..WorkloadConfig::default()
        };
        let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
        let registry = workload.build().registry().clone();
        let daemon =
            Daemon::bind(&endpoint, None, DaemonConfig::default(), registry).expect("backend");
        let BoundAddr::Tcp(addr) = daemon.bound_addr() else {
            unreachable!("a tcp endpoint")
        };
        thread::spawn(move || daemon.run());
        addr.to_string()
    })
}

const DAEMON_BASE: &[&str] = &["--tcp", "127.0.0.1:0", "--functions", "8"];
const ROUTER_BASE: &[&str] = &["--tcp", "127.0.0.1:0", "--backends", "@backend"];
const LOAD_BASE: &[&str] = &["--tcp", "127.0.0.1:7077"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn a_daemon_command_line_parses_binds_and_serves(d in draws(DAEMON_FLAGS)) {
        let _turn = scratch();
        check_daemon(argv(DAEMON_BASE, DAEMON_FLAGS, &d));
    }

    #[test]
    fn a_router_command_line_parses_binds_and_serves(d in draws(ROUTER_FLAGS)) {
        let _turn = scratch();
        check_router(argv(ROUTER_BASE, ROUTER_FLAGS, &d));
    }

    #[test]
    fn a_load_command_line_parses_or_names_its_flag(d in draws(LOAD_FLAGS)) {
        check_load(argv(LOAD_BASE, LOAD_FLAGS, &d));
    }
}

fn line(base: &[&str], extra: &[&str]) -> Vec<String> {
    base.iter().chain(extra).map(|s| s.to_string()).collect()
}

/// Each case is refused at parse, naming the flag: the five values that
/// used to panic, spin or bind a server that cannot serve, the zeros
/// the configs' types now hold out, and the caps on sizes.
#[test]
fn pinned_argv_cases_are_refused() {
    for extra in [
        ["--shards", "0"],
        ["--shards", "65537"],
        ["--reap-ms", "0"],
        ["--queue-bound", "0"],
        ["--functions", "0"],
        ["--functions", "4294967295"],
    ] {
        let e = cli::faascached(line(DAEMON_BASE, &extra)).unwrap_err();
        assert_eq!(
            e.reason,
            Some(format!("bad or missing value for {}", extra[0]))
        );
    }
    let router = ["--tcp", "127.0.0.1:0", "--backends", "127.0.0.1:1"];
    for extra in [
        ["--health-ms", "0"],
        ["--readmit-ms", "0"],
        ["--backend-timeout-ms", "0"],
        ["--backend-timeout-ms", "4294967296"],
    ] {
        let e = cli::faas_router(line(&router, &extra)).unwrap_err();
        assert_eq!(
            e.reason,
            Some(format!("bad or missing value for {}", extra[0]))
        );
    }
    for extra in [
        ["--functions", "0"],
        ["--read-timeout-ms", "0"],
        ["--threads", "0"],
        ["--requests", "0"],
        ["--rps", "0"],
        ["--rps", "nan"],
        ["--rps", "-1"],
    ] {
        let e = cli::faas_load(line(LOAD_BASE, &extra)).unwrap_err();
        assert_eq!(
            e.reason,
            Some(format!("bad or missing value for {}", extra[0]))
        );
    }
}

/// Five of them exit 2 within 1 s from the binaries themselves, with the
/// flag named on stderr.
#[test]
fn the_binaries_exit_2_naming_the_flag() {
    let cases = [
        (env!("CARGO_BIN_EXE_faas-router"), ["--readmit-ms", "0"]),
        (env!("CARGO_BIN_EXE_faascached"), ["--functions", "0"]),
        (env!("CARGO_BIN_EXE_faas-load"), ["--functions", "0"]),
        (env!("CARGO_BIN_EXE_faas-load"), ["--read-timeout-ms", "0"]),
        (env!("CARGO_BIN_EXE_faascached"), ["--queue-bound", "0"]),
    ];
    for (bin, flag) in cases {
        let started = Instant::now();
        let out = std::process::Command::new(bin)
            .args(flag)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {flag:?}: {stderr}");
        assert!(
            stderr.contains(&format!("bad or missing value for {}", flag[0])),
            "{stderr}"
        );
        assert!(started.elapsed() < BIND_LIMIT, "{bin} {flag:?}");
    }
}

/// The command lines the benchmark harness passes
/// (`benchmark/src/serve.rs`: `daemon_args` for each workload, and the
/// router's in `set_up`) build the configs they built before.
#[test]
fn the_harness_command_lines_build_the_same_configs() {
    let daemon = |extra: &[&str]| {
        let base = [
            "--unix",
            "b0.sock",
            "--io-model",
            "threads",
            "--shards",
            "2",
            "--mem-mb",
            "16384",
            "--functions",
            "1",
            "--seed",
            "1",
        ];
        cli::faascached(line(&base, extra)).expect("harness daemon argv")
    };
    let churn = daemon(&[
        "--http-listen",
        "127.0.0.1:0",
        "--tenant-quota",
        "b:mem=4096",
    ]);
    assert_eq!(churn.listen.endpoint, Endpoint::Unix("b0.sock".into()));
    assert_eq!(churn.listen.http.as_deref(), Some("127.0.0.1:0"));
    assert_eq!(churn.config.io_model, IoModel::Threads);
    assert_eq!(churn.config.shards.get(), 2);
    assert_eq!(churn.config.total_mem, MemMb::new(16_384));
    let b = churn.config.tenant_quotas.quota_for("b");
    assert_eq!((b.inflight, b.mem_mb), (u64::MAX, 4096));
    assert_eq!(churn.workload.functions.get(), 1);
    assert_eq!(churn.workload.seed, 1);
    assert_eq!(churn.workload.zipf_exponent, 1.0);
    assert_eq!(churn.state_dir, None);
    // Everything the harness leaves out keeps its default.
    let defaults = DaemonConfig::default();
    assert_eq!(churn.config.queue_bound, defaults.queue_bound);
    assert_eq!(churn.config.reap_interval, Period::ms(500));
    assert_eq!(churn.config.read_timeout, Period::ms(50));
    assert_eq!(churn.config.policy, defaults.policy);
    assert!(churn.config.rebalance.is_none() && churn.config.faults.is_none());
    assert!(churn.config.allow_remote_shutdown && churn.tenants.is_empty());

    let cluster = daemon(&["--http-listen", "127.0.0.1:0", "--state-dir", "state0"]);
    assert_eq!(cluster.state_dir, Some(PathBuf::from("state0")));
    let warm = cli::faascached(line(
        &["--unix", "s.sock", "--io-model", "epoll", "--shards", "2"],
        &["--mem-mb", "4194304", "--functions", "1", "--seed", "1"],
    ))
    .expect("serve_warm argv");
    assert_eq!(warm.config.io_model, IoModel::Epoll);
    assert_eq!(warm.config.total_mem, MemMb::new(1 << 22));

    let backends = "unix:b0.sock+http=127.0.0.1:4001,unix:b1.sock+http=127.0.0.1:4002";
    let router = cli::faas_router(line(
        &["--unix", "r.sock", "--balancer", "affinity"],
        &["--backends", backends],
    ))
    .expect("harness router argv");
    assert_eq!(router.listen.endpoint, Endpoint::Unix("r.sock".into()));
    assert_eq!(router.config.balancer, LoadBalancer::FunctionAffinity);
    let specs: Vec<String> = router.backends.iter().map(|b| b.to_string()).collect();
    assert_eq!(specs.join(","), backends);
    assert_eq!(router.config.health_interval, Period::ms(100));
    assert_eq!(router.config.readmit_backoff, Period::ms(50));
    assert_eq!(router.config.backend_read_timeout, Period::ms(500));
    assert_eq!(router.config.read_timeout, Period::ms(50));
    assert_eq!(
        (router.config.eject_after, router.config.hop_retries),
        (3, 0)
    );
    assert!(router.config.backend_faults.is_none() && router.config.allow_remote_shutdown);
}
