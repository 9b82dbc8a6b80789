//! End-to-end tests: a real `faascached` daemon on a real socket, driven
//! by real protocol clients, with conservation checked on both sides.
//! Daemons start (and some drain) through `support/start.rs`; scrapes
//! read their series through `support/metrics.rs`.

#[path = "support/metrics.rs"]
mod metrics;
#[path = "support/start.rs"]
mod start;

use faascache_platform::sharded::{InvokeOutcome, Outcomes};
use faascache_server::client::{self, Client, LoadOptions, LoadProto, LoadReport, RetryPolicy};
use faascache_server::daemon::{
    BoundAddr, Daemon, DaemonConfig, DaemonReport, Endpoint, IoModel, ShutdownHandle, IDEM_CAPACITY,
};
use faascache_server::journal::Journal;
use faascache_server::proto::{self, Request, Response};
use faascache_server::{Period, WorkloadConfig};
use faascache_trace::replay::OpenLoopSchedule;
use faascache_util::MemMb;
use metrics::series;
use start::{Running, Start};
use std::io;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

fn small_workload() -> WorkloadConfig {
    WorkloadConfig {
        functions: NonZeroUsize::new(48).unwrap(),
        seed: 7,
        horizon_mins: 20,
        ..WorkloadConfig::default()
    }
}

fn test_config() -> DaemonConfig {
    DaemonConfig {
        shards: NonZeroUsize::new(4).unwrap(),
        total_mem: MemMb::new(4096),
        queue_bound: NonZeroUsize::new(512).unwrap(),
        read_timeout: Period::ms(20),
        drain_timeout: Duration::from_secs(5),
        ..DaemonConfig::default()
    }
}

/// Boots a daemon on `endpoint` and starts it.
fn boot(endpoint: Endpoint) -> Running<Daemon> {
    boot_model(endpoint, IoModel::Threads)
}

fn boot_model(endpoint: Endpoint, io: IoModel) -> Running<Daemon> {
    let config = DaemonConfig {
        io_model: io,
        ..test_config()
    };
    boot_config(endpoint, config)
}

fn boot_config(endpoint: Endpoint, config: DaemonConfig) -> Running<Daemon> {
    let trace = small_workload().build();
    let daemon =
        Daemon::bind(&endpoint, None, config, trace.registry().clone()).expect("bind daemon");
    daemon.start()
}

/// Boots a daemon with BOTH listeners (binary + `--http-listen`) under
/// the given io model and starts it; returns the gateway address too.
fn boot_http_model(io: IoModel) -> (BoundAddr, Running<Daemon>) {
    let trace = small_workload().build();
    let config = DaemonConfig {
        io_model: io,
        ..test_config()
    };
    let daemon = Daemon::bind(
        &tcp_endpoint(),
        Some("127.0.0.1:0"),
        config,
        trace.registry().clone(),
    )
    .expect("bind daemon with http");
    let http_addr = daemon.bound_http_addr().expect("http listener bound");
    (http_addr, daemon.start())
}

static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

#[cfg(unix)]
fn unix_endpoint() -> Endpoint {
    Endpoint::Unix(std::env::temp_dir().join(format!(
        "faascached-test-{}-{}.sock",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
    )))
}

fn tcp_endpoint() -> Endpoint {
    Endpoint::Tcp("127.0.0.1:0".to_string())
}

/// Boots a daemon on `endpoint` under `io`, with the HTTP gateway when
/// `proto` is HTTP, and runs [`exercise_protocol`] against the listener
/// that speaks `proto`.
fn session(endpoint: Endpoint, io: IoModel, proto: LoadProto) {
    let config = DaemonConfig {
        io_model: io,
        ..test_config()
    };
    let http = (proto == LoadProto::Http).then_some("127.0.0.1:0");
    let registry = small_workload().build().registry().clone();
    let daemon = Daemon::bind(&endpoint, http, config, registry).expect("bind daemon");
    let target = match proto {
        LoadProto::Binary => daemon.bound_addr(),
        LoadProto::Http => daemon.bound_http_addr().expect("http listener bound"),
    };
    let Running { handle, join, .. } = daemon.start();
    exercise_protocol(proto, &target, &handle, join);
}

/// What [`exercise_protocol`]'s script leaves in the daemon's tallies,
/// whichever protocol carried it: its outcomes (in
/// `InvokeOutcome::ALL`'s order) and its dedup hits. The 50 invokes over
/// 8 functions are 8 cold and 42 warm; the registered function runs cold
/// once and warm once, and its retried key executes nothing.
const SESSION_TALLIES: ([u64; 5], u64) = ([43, 9, 0, 0, 0], 1);

/// The {binary,http}×{threads,epoll} session matrix: one script over
/// either protocol — invokes by index, a registration made then
/// repeated, the new function run (by name where the protocol has
/// names), a keyed invoke and its retry, a quota update — with the same
/// outcomes and the same daemon tallies. Then each protocol's own
/// operations, and a clean drain.
fn exercise_protocol(
    proto: LoadProto,
    addr: &BoundAddr,
    handle: &ShutdownHandle,
    join: thread::JoinHandle<DaemonReport>,
) {
    let mut c = Client::connect(addr, proto).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    c.ping().expect("ping");
    let mut served = 0u64;
    for i in 0..50u32 {
        let outcome = c.invoke(i % 8).expect("invoke");
        assert!(
            outcome.is_served(),
            "tiny load on a big pool must be served, got {outcome:?}"
        );
        served += 1;
    }

    // Runtime registration: created once, idempotent on repeat.
    let (id, created) = c.register("e2e-fn", 128, 1_000, 100_000).expect("register");
    assert!(created, "first registration must create");
    let (id2, created2) = c
        .register("e2e-fn", 512, 9_999, 9_999_999)
        .expect("re-register");
    assert_eq!(id, id2, "duplicate registration must answer the same id");
    assert!(!created2, "duplicate registration must be idempotent");
    let by_name = match proto {
        LoadProto::Binary => c.invoke(id),
        LoadProto::Http => c.invoke_named("e2e-fn"),
    };
    assert!(
        by_name.expect("invoke the registered function").is_served(),
        "registered function must be invocable"
    );
    let first = c.invoke_keyed(id, 77).expect("keyed invoke");
    assert!(first.is_served());
    assert_eq!(
        c.invoke_keyed(id, 77).expect("keyed retry"),
        first,
        "a retried key is answered with its recorded outcome"
    );
    served += 2;
    assert!(
        !c.set_tenant_quota("acme", 4, 512).expect("quota update"),
        "no function of acme's is placed, so the quota is stored"
    );

    let unsupported =
        |r: io::Result<()>| assert_eq!(r.unwrap_err().kind(), io::ErrorKind::Unsupported);
    match proto {
        LoadProto::Binary => {
            unsupported(c.metrics().map(drop));
            unsupported(c.invoke_named("e2e-fn").map(drop));
            let stats = c.stats().expect("stats");
            assert_eq!(stats.outcomes.served(), served);
            c.shutdown().expect("shutdown ack");
        }
        LoadProto::Http => {
            unsupported(c.stats().map(drop));
            unsupported(c.shutdown());
            http_only_checks(&mut c, addr, served);
            drop(c);
            handle.request();
        }
    }
    let report = join.join().expect("daemon thread");
    assert!(report.drained, "nothing in flight, drain must succeed");
    assert_eq!(
        (report.stats.outcomes, report.dedup_hits),
        (Outcomes::from(SESSION_TALLIES.0), SESSION_TALLIES.1)
    );
    assert_eq!(report.stats.outcomes.served(), served);
    assert_eq!(report.protocol_errors, 0);
    match proto {
        // readiness ping + ping + 50 invokes + 2 registers + invoke + 2
        // keyed invokes + quota + stats + shutdown
        LoadProto::Binary => assert_eq!(report.frames, 60),
        LoadProto::Http => {
            // readiness ping only; the session rode the gateway.
            assert_eq!(report.frames, 1);
            assert!(
                report.http_requests >= served,
                "http_requests={} must count the {served} gateway invokes",
                report.http_requests
            );
        }
    }
}

/// The status a one-shot raw request to the gateway is answered with.
fn http_status(http_addr: &BoundAddr, method: &str, target: &str) -> u16 {
    use std::io::{Read, Write};
    let BoundAddr::Tcp(sock) = http_addr else {
        unreachable!("gateway is tcp")
    };
    let mut conn = std::net::TcpStream::connect(sock).expect("connect gateway");
    conn.write_all(format!("{method} {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    response
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|status| status.parse().ok())
        .unwrap_or_else(|| panic!("no status line: {response:?}"))
}

/// What only the gateway has: error statuses, names, and the scrape.
fn http_only_checks(c: &mut Client, http_addr: &BoundAddr, served: u64) {
    // Error statuses are replies, not connection teardowns.
    let err = c.invoke_named("no-such-fn").expect_err("unknown name");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(
        http_status(http_addr, "GET", "/invoke/1"),
        405,
        "known path with wrong method is 405"
    );
    assert_eq!(
        http_status(http_addr, "GET", "/nope"),
        404,
        "unknown path is 404"
    );

    // The Prometheus scrape must agree with what this sole client did.
    let metrics = c.metrics().expect("metrics");
    assert_eq!(
        series(&metrics, "faascache_requests_total{outcome=\"warm\"}")
            + series(&metrics, "faascache_requests_total{outcome=\"cold\"}"),
        served,
        "served outcome counters must match the client's tally"
    );
    // The untenanted outcome series: all five, in binary-code order.
    let outcomes: Vec<&str> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("faascache_requests_total{outcome=\""))
        .filter_map(|l| l.split_once("\"} ").map(|(label, _)| label))
        .filter(|label| !label.contains('"'))
        .collect();
    assert_eq!(
        outcomes,
        ["warm", "cold", "dropped", "rejected", "throttled"]
    );
    assert_eq!(
        series(&metrics, "faascache_shard_in_flight{shard=\"0\"}"),
        0
    );
    assert!(
        metrics.contains("faascache_shard_in_flight{shard=\"3\"}"),
        "per-shard gauges must cover all 4 shards:\n{metrics}"
    );
    assert_eq!(series(&metrics, "faascache_draining"), 0);
    assert!(
        series(&metrics, "faascache_http_requests_total") >= served,
        "the scrape must count the {served} gateway invokes"
    );
}

#[cfg(unix)]
fn unix_session(io: IoModel) {
    let endpoint = unix_endpoint();
    session(endpoint.clone(), io, LoadProto::Binary);
    if let Endpoint::Unix(path) = endpoint {
        assert!(!path.exists(), "socket file must be unlinked on exit");
    }
}

#[cfg(unix)]
#[test]
fn protocol_session_over_unix_socket() {
    unix_session(IoModel::Threads);
}

#[test]
fn protocol_session_over_tcp() {
    session(tcp_endpoint(), IoModel::Threads, LoadProto::Binary);
}

#[test]
fn bad_function_index_is_an_error_reply_not_a_crash() {
    let Running { addr, join, .. } = boot(tcp_endpoint());
    let mut c = Client::connect(&addr, LoadProto::Binary).expect("connect");
    let err = c.invoke(u32::MAX).expect_err("out-of-range index");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // A name outside `[A-Za-z0-9._-]`, sent as a raw frame past the
    // client's own check, is refused on the binary front as on HTTP.
    let BoundAddr::Tcp(sock) = &addr else {
        unreachable!("tcp endpoint")
    };
    let mut raw = std::net::TcpStream::connect(sock).expect("connect");
    let register = Request::Register {
        name: "a b".to_string(),
        mem_mb: 128,
        warm_us: 1_000,
        cold_us: 5_000,
        tenant: String::new(),
    };
    proto::write_frame(&mut raw, &register.encode()).expect("send");
    let reply = proto::read_frame(&mut raw).expect("read").expect("a reply");
    let reply = Response::decode(&reply).expect("a well-formed reply");
    assert!(matches!(reply, Response::Error(_)), "{reply:?}");
    // The client refuses what the daemon would, and sends nothing: a
    // 256-byte name would wrap the frame's one-byte name length.
    let err = c.register(&"n".repeat(256), 128, 1_000, 5_000);
    assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidInput);
    let err = c.set_tenant_quota("x\"y", 1, 64);
    assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidInput);
    // The connection and the daemon both survive the bad requests.
    c.ping().expect("daemon still alive");
    c.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert_eq!(
        report.protocol_errors, 0,
        "an Error reply is not a protocol error"
    );
    // Readiness ping, invoke, raw register, ping, shutdown.
    assert_eq!(report.frames, 5);
}

/// Regression: the HTTP client wrote the caller's names into its URL
/// unchecked, so a tenant of `a&mem_mb=4096` registered a 4,096 MB
/// function under tenant `a`. Over HTTP as over binary, a mutation that
/// fails the name rule is `InvalidInput` and reaches no daemon.
#[test]
fn the_http_client_refuses_a_name_that_would_rewrite_its_url() {
    let (http_addr, Running { handle, join, .. }) = boot_http_model(IoModel::Threads);
    let mut c = Client::connect(&http_addr, LoadProto::Http).expect("connect gateway");
    let epoch = series(&c.metrics().expect("metrics"), "faascache_registry_epoch");
    let err = c.register_in("f", 128, 1_000, 5_000, "a&mem_mb=4096");
    assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidInput);
    for tenant in ["a?inflight=0", "a/quota"] {
        let err = c.set_tenant_quota(tenant, 1, 64);
        assert_eq!(
            err.unwrap_err().kind(),
            io::ErrorKind::InvalidInput,
            "{tenant}"
        );
    }
    let metrics = c.metrics().expect("metrics");
    assert_eq!(series(&metrics, "faascache_registry_epoch"), epoch);
    assert!(!metrics.contains("tenant=\"a\""), "{metrics}");
    drop(c);
    handle.request();
    let report = join.join().expect("daemon thread");
    assert_eq!(report.protocol_errors, 0);
}

/// A tenant named on the command line is held to the rule a runtime one
/// is: `x"y` would break the `/metrics` exposition, so `faascached`
/// exits 2 on its flags, saying why. The `--reap-ms 0` after them is a
/// sentinel: a daemon that gets past the tenant flag exits 2 on it
/// instead, naming `--reap-ms`, so none is left serving.
#[test]
fn a_tenant_flag_outside_the_charset_exits_2() {
    for flag in [["--tenants", "x\"y"], ["--tenant-quota", "x\"y:inflight=1"]] {
        let started = Instant::now();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_faascached"))
            .args(["--tcp", "127.0.0.1:0", "--functions", "4"])
            .args(flag)
            .args(["--reap-ms", "0"])
            .output()
            .expect("run faascached");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag:?}: {stderr}");
        let rule = format!(
            "faascached: {}: tenant name has characters outside",
            flag[0]
        );
        assert!(stderr.starts_with(&rule), "{flag:?}: {stderr}");
        assert!(started.elapsed() < Duration::from_secs(1), "{flag:?}");
    }
}

/// A zero reap interval ran the housekeeping pass in a tight loop under
/// the shard locks. `--reap-ms 0` is refused at parse, naming the flag.
#[test]
fn zero_reap_interval_is_refused() {
    let argv = ["--tcp", "127.0.0.1:0", "--reap-ms", "0"];
    let err = faascache_server::cli::faascached(argv.map(String::from)).unwrap_err();
    let reason = err.reason.as_deref();
    assert_eq!(reason, Some("bad or missing value for --reap-ms"));
}

/// A daemon of no shards had nowhere to place a function. `--shards 0` is
/// refused at parse, naming the flag.
#[test]
fn zero_shards_is_refused() {
    let argv = ["--tcp", "127.0.0.1:0", "--shards", "0"];
    let err = faascache_server::cli::faascached(argv.map(String::from)).unwrap_err();
    let reason = err.reason.as_deref();
    assert_eq!(reason, Some("bad or missing value for --shards"));
}

/// The command line's cap on `--shards` holds for a library caller too:
/// a config of `1 << 20` shards is refused at bind, at once and naming
/// the field, instead of building a million shards.
#[test]
fn a_shard_count_past_the_cap_is_refused_at_bind() {
    let config = DaemonConfig {
        shards: NonZeroUsize::new(1 << 20).unwrap(),
        ..test_config()
    };
    let registry = small_workload().build().registry().clone();
    let started = Instant::now();
    let Err(err) = Daemon::bind(&unix_endpoint(), None, config, registry) else {
        panic!("bound a daemon of 1 << 20 shards");
    };
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    assert_eq!(
        err.to_string(),
        "DaemonConfig.shards is 1048576, at most 65536"
    );
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "{:?}",
        started.elapsed()
    );
}

/// A zero socket timeout failed every read on the accept path. The
/// daemon's read timeout has no flag, and its type holds no zero: a zero
/// [`Period`] does not construct.
#[test]
fn zero_read_timeout_is_refused() {
    let zero = std::panic::catch_unwind(|| Period::ms(0));
    assert!(zero.is_err());
    assert_eq!(test_config().read_timeout.get(), Duration::from_millis(20));
}

/// Regression: a keyed invoke of an index not registered yet claimed its
/// key, failed, and left the key queued in the dedup cache's eviction
/// order. The same key's later execution queued it a second time, so the
/// cache evicted the recorded outcome one key early and a retry executed
/// again.
#[test]
fn a_failed_keyed_invoke_does_not_shorten_its_keys_dedup_life() {
    let Running { addr, join, .. } = boot_config(unix_endpoint(), test_config());
    let mut c = Client::connect(&addr, LoadProto::Binary).expect("connect");
    let next = small_workload().functions.get() as u32;
    c.invoke_keyed(next, 0).expect_err("not registered yet");
    assert_eq!(c.register("late", 128, 1_000, 5_000).unwrap(), (next, true));
    assert!(c.invoke_keyed(next, 0).expect("executes").is_served());
    // Keys 1.. fill the cache to its capacity, whatever their outcomes.
    let filling = IDEM_CAPACITY as u64 - 1;
    for key in 1..=filling {
        c.invoke_keyed(0, key).expect("a filling key");
    }
    // A full cache still holds the key: the retry is answered from it.
    assert!(c.invoke_keyed(next, 0).expect("retry").is_served());
    c.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert_eq!(report.dedup_hits, 1);
    assert_eq!(
        report.stats.outcomes.total(),
        1 + filling,
        "the retry must not execute"
    );
}

/// A sole client's load lost nothing, and the daemon's counters equal
/// the client's tallies.
fn assert_sole_client_tallies(addr: &BoundAddr, report: &LoadReport, requests: u64) {
    assert_eq!(report.requests, requests);
    assert_eq!(report.errors, 0, "no transport errors expected");
    assert_eq!(report.lost(), 0, "every request must be accounted");
    let stats = Client::connect(addr, LoadProto::Binary)
        .and_then(|mut c| c.stats())
        .expect("stats");
    assert_eq!(stats.outcomes, report.outcomes);
    assert_eq!(stats.outcomes.total(), requests);
}

/// The binary load generator against a daemon on `io`.
fn concurrent_load_loses_nothing(io: IoModel) {
    let Running { addr, join, .. } = boot_model(tcp_endpoint(), io);
    let trace = small_workload().build();
    let schedule = OpenLoopSchedule::from_trace(&trace, 50_000.0);
    let requests = 20_000u64;
    let report = client::run_load_with(&addr, &schedule, LoadOptions::new(50_000.0, requests, 4));
    assert_sole_client_tallies(&addr, &report, requests);

    Client::connect(&addr, LoadProto::Binary)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    let daemon_report = join.join().expect("daemon thread");
    assert!(daemon_report.drained);
    assert_eq!(daemon_report.protocol_errors, 0);
    assert_eq!(daemon_report.accept_errors, 0);
}

#[test]
fn concurrent_clients_lose_nothing() {
    concurrent_load_loses_nothing(IoModel::Threads);
}

/// Latency runs from each request's intended send, so a generator that
/// falls behind its schedule reports the wait too: 1,000 requests all due
/// at the start, through one connection, queue behind each other, and
/// the median is near half the run rather than one round trip.
#[test]
fn load_latency_counts_the_wait_behind_a_late_schedule() {
    let Running { addr, join, .. } = boot(unix_endpoint());
    let trace = small_workload().build();
    assert!(trace.len() >= 1_000, "{} invocations", trace.len());
    let schedule = OpenLoopSchedule::from_trace(&trace, 1e9);
    let requests = 1_000u64;
    let report = client::run_load_with(&addr, &schedule, LoadOptions::new(1e9, requests, 1));
    assert_sole_client_tallies(&addr, &report, requests);
    let elapsed_ms = report.elapsed.as_secs_f64() * 1e3;
    assert!(
        report.latency.p50_ms >= 0.25 * elapsed_ms,
        "p50 {} ms over a {elapsed_ms} ms run",
        report.latency.p50_ms
    );

    Client::connect(&addr, LoadProto::Binary)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    assert!(join.join().expect("daemon thread").drained);
}

#[cfg(target_os = "linux")]
#[test]
fn protocol_session_over_unix_socket_epoll() {
    unix_session(IoModel::Epoll);
}

#[cfg(target_os = "linux")]
#[test]
fn protocol_session_over_tcp_epoll() {
    session(tcp_endpoint(), IoModel::Epoll, LoadProto::Binary);
}

#[cfg(target_os = "linux")]
#[test]
fn concurrent_clients_lose_nothing_epoll() {
    concurrent_load_loses_nothing(IoModel::Epoll);
}

/// A rebalancing daemon under a Zipf-skewed load: 4 shards and warm-set
/// re-homing on a 25 ms reap cadence, fed 2,000 requests over 24
/// functions at Zipf 1.2 and 2,000 rps with 8 retries. Nothing is lost,
/// the drain is clean, the housekeeping thread's tick re-homes at least
/// one warm set, and the served balance ratio (max/min across shards)
/// stays within 3.0.
#[cfg(unix)]
#[test]
fn a_rebalancing_daemon_keeps_a_zipf_load_balanced() {
    use faascache_platform::sharded::RebalanceConfig;

    let workload = WorkloadConfig {
        functions: NonZeroUsize::new(24).unwrap(),
        seed: 7,
        zipf_exponent: 1.2,
        ..WorkloadConfig::default()
    };
    let config = DaemonConfig {
        shards: NonZeroUsize::new(4).unwrap(),
        rebalance: Some(RebalanceConfig::default()),
        reap_interval: Period::ms(25),
        ..DaemonConfig::default()
    };
    let trace = workload.build();
    let daemon = Daemon::bind(&unix_endpoint(), None, config, trace.registry().clone())
        .expect("bind daemon");
    let Running { addr, join, .. } = daemon.start();

    let schedule = OpenLoopSchedule::from_trace(&trace, 2_000.0);
    let retry = RetryPolicy::retries(8, Duration::from_millis(5), Duration::from_millis(250));
    let report = client::run_load_with(
        &addr,
        &schedule,
        LoadOptions {
            retry,
            read_timeout: Some(Period::ms(500)),
            seed: workload.seed,
            ..LoadOptions::new(2_000.0, 2_000, 2)
        },
    );
    assert_eq!(
        (report.errors, report.lost()),
        (0, 0),
        "{}",
        report.summary_line()
    );

    Client::connect(&addr, LoadProto::Binary)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    let daemon_report = join.join().expect("daemon thread");
    assert!(daemon_report.drained);
    assert!(
        daemon_report.stats.migrations >= 1,
        "no warm set re-homed: {}",
        daemon_report.summary_line()
    );
    let balance = daemon_report.balance_ratio();
    assert!(
        balance <= 3.0,
        "served balance ratio {balance}: {}",
        daemon_report.summary_line()
    );
}

/// The reactor's reason for existing: hundreds of mostly-idle keep-alive
/// connections must cost nothing, stay open across a request burst, and
/// all be accounted in the peak-connection gauge.
#[cfg(target_os = "linux")]
#[test]
fn epoll_holds_an_idle_connection_herd() {
    let Running { addr, join, .. } = boot_model(unix_endpoint(), IoModel::Epoll);
    let herd = 512usize;
    let mut idle = Vec::with_capacity(herd);
    for _ in 0..herd {
        idle.push(Client::connect(&addr, LoadProto::Binary).expect("idle connect"));
    }

    // Requests flow normally while the herd sits idle.
    let mut c = Client::connect(&addr, LoadProto::Binary).expect("active connect");
    for i in 0..200u32 {
        assert!(c.invoke(i % 8).expect("invoke").is_served());
    }

    // Every idle connection is still live after the burst.
    for conn in idle.iter_mut() {
        conn.ping().expect("idle connection must still answer");
    }

    c.shutdown().expect("shutdown ack");
    // Drain closes the herd's sockets; dropping the clients is fine.
    drop(idle);
    let report = join.join().expect("daemon thread");
    assert!(report.drained, "idle connections must not block drain");
    assert_eq!(report.accept_errors, 0);
    assert!(
        report.peak_connections >= herd as u64,
        "peak gauge {} must count the {herd}-connection herd",
        report.peak_connections
    );
    assert_eq!(report.open_connections, 0, "all closed after drain");
}

/// Regression: a valid frame followed by an oversized length prefix in
/// one chunk used to strand the completed frame in the reactor's shared
/// decode queue, where the next connection to read would pop it and be
/// served someone else's request. The frame must be served to its own
/// connection (threads-model parity) and every other stream must stay
/// in sync.
#[cfg(target_os = "linux")]
#[test]
fn decode_error_does_not_leak_frames_across_connections_epoll() {
    use faascache_server::proto::{self, Request, Response};
    use std::io::{Read, Write};

    let Running { addr, join, .. } = boot_model(tcp_endpoint(), IoModel::Epoll);
    // An innocent session established before the poisoned one.
    let mut b = Client::connect(&addr, LoadProto::Binary).expect("connect b");
    b.ping().expect("ping b");

    let BoundAddr::Tcp(sock) = &addr else {
        unreachable!("tcp endpoint")
    };
    let mut a = std::net::TcpStream::connect(sock).expect("connect a");
    a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let ping = Request::Ping.encode();
    let mut chunk = Vec::new();
    chunk.extend_from_slice(&(ping.len() as u32).to_le_bytes());
    chunk.extend_from_slice(&ping);
    chunk.extend_from_slice(&u32::MAX.to_le_bytes()); // poisons the decoder
    a.write_all(&chunk).expect("write poisoned chunk");

    // The completed ping still gets its response, then the daemon
    // closes the connection with a protocol error.
    let pong = proto::read_frame(&mut a).expect("a's own pong");
    assert_eq!(pong, Some(Response::Pong.encode()));
    let mut rest = Vec::new();
    a.read_to_end(&mut rest).expect("eof after protocol error");
    assert!(rest.is_empty(), "nothing follows the final response");

    // The poisoned connection's frame must not have desynchronized b.
    for _ in 0..3 {
        b.ping().expect("b's stream must stay in sync");
    }

    b.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert!(report.drained);
    assert_eq!(report.protocol_errors, 1);
}

#[test]
fn http_session_over_tcp() {
    session(tcp_endpoint(), IoModel::Threads, LoadProto::Http);
}

#[cfg(target_os = "linux")]
#[test]
fn http_session_over_tcp_epoll() {
    session(tcp_endpoint(), IoModel::Epoll, LoadProto::Http);
}

/// The load-conservation half of the matrix over HTTP: the shared load
/// generator replays the schedule as keep-alive `POST /invoke/<fn>` and
/// the daemon-side counters must match the client's tallies exactly.
fn http_load_loses_nothing(io: IoModel) {
    let (http_addr, daemon) = boot_http_model(io);
    let trace = small_workload().build();
    let schedule = OpenLoopSchedule::from_trace(&trace, 50_000.0);
    let requests = 20_000u64;
    let report = client::run_load_with(
        &http_addr,
        &schedule,
        LoadOptions {
            proto: LoadProto::Http,
            retry: RetryPolicy::none(),
            ..LoadOptions::new(50_000.0, requests, 4)
        },
    );
    assert_sole_client_tallies(&daemon.addr, &report, requests);

    let daemon_report = daemon.drain();
    assert_eq!(daemon_report.protocol_errors, 0);
    assert!(daemon_report.http_requests >= requests);
}

#[test]
fn http_concurrent_clients_lose_nothing() {
    http_load_loses_nothing(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn http_concurrent_clients_lose_nothing_epoll() {
    http_load_loses_nothing(IoModel::Epoll);
}

/// The drain contract over HTTP: once shutdown is requested, `/healthz`
/// on an existing keep-alive connection flips to 503 (with
/// `Connection: close`), and a request already in flight — its head only
/// partially on the wire when the drain began — still completes with a
/// full, well-formed response before the connection is torn down. The
/// drain flipped admission before the probe was answered, so that
/// response is the draining 503 with outcome `rejected` on both io
/// models.
fn healthz_flips_and_in_flight_completes(io: IoModel) {
    use std::io::{Read, Write};

    let (http_addr, Running { handle, join, .. }) = boot_http_model(io);
    let BoundAddr::Tcp(http_sock) = &http_addr else {
        unreachable!("gateway is tcp")
    };

    // The in-flight connection: half a request head, then stop.
    let mut inflight = std::net::TcpStream::connect(http_sock).expect("connect inflight");
    inflight
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    inflight
        .write_all(b"POST /invoke/1 HTTP/1.1\r\nContent-Le")
        .expect("write partial head");

    // A healthy probe connection established before the drain.
    let mut probe = Client::connect(&http_addr, LoadProto::Http).expect("connect probe");
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    probe.ping().expect("healthz pre-drain");

    handle.request();
    let flipped = probe.ping().expect_err("healthz mid-drain");
    assert!(
        flipped.to_string().contains("503 draining"),
        "healthz must flip to 503 the moment the drain begins: {flipped}"
    );

    // Complete the in-flight request inside the drain grace window: it
    // must be served, not dropped on the floor.
    inflight
        .write_all(b"ngth: 0\r\n\r\n")
        .expect("complete the head");
    let mut response = Vec::new();
    inflight
        .read_to_end(&mut response)
        .expect("read final response");
    let text = String::from_utf8_lossy(&response);
    assert!(
        text.starts_with("HTTP/1.1 503"),
        "in-flight request must complete with a draining 503, got: {text:?}"
    );
    assert!(
        text.contains("\"outcome\":\"rejected\""),
        "in-flight response must carry a complete rejected body, got: {text:?}"
    );
    assert!(
        text.to_ascii_lowercase().contains("connection: close"),
        "drain responses must announce the close: {text:?}"
    );

    let report = join.join().expect("daemon thread");
    assert!(report.drained, "drain must complete");
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn healthz_flips_503_during_drain_while_in_flight_completes() {
    healthz_flips_and_in_flight_completes(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn healthz_flips_503_during_drain_while_in_flight_completes_epoll() {
    healthz_flips_and_in_flight_completes(IoModel::Epoll);
}

/// The median of 200 sequential round trips, each on a connection of its
/// own; the lowest of up to five such medians, because a loaded host can
/// only ever lengthen one. A sleep-paced accept loop cannot get under
/// its tick in any of them.
fn fresh_connection_median(mut round_trip: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let mut took: Vec<Duration> = (0..200)
            .map(|_| {
                let t = Instant::now();
                round_trip();
                t.elapsed()
            })
            .collect();
        took.sort();
        best = best.min(took[took.len() / 2]);
        if best < ACCEPT_BUDGET {
            break;
        }
    }
    best
}

/// What dial + one request + close may cost against an idle server:
/// ~0.1 ms when the accept loop wakes for the connection, 1 ms or more
/// when it finds it on the next tick of a sleep.
const ACCEPT_BUDGET: Duration = Duration::from_micros(500);

/// Guard for the accept path of the threads model: a fresh connection to
/// the binary listener or to the HTTP gateway (what every
/// `Connection: close` client is) is served when the kernel queues it.
#[test]
fn fresh_connections_are_accepted_as_they_arrive() {
    use std::io::{Read, Write};

    let (http_addr, daemon) = boot_http_model(IoModel::Threads);
    let binary = fresh_connection_median(|| {
        Client::connect(&daemon.addr, LoadProto::Binary)
            .expect("connect")
            .ping()
            .expect("ping");
    });
    assert!(
        binary < ACCEPT_BUDGET,
        "dial + Ping + close took a median {binary:?}"
    );

    let BoundAddr::Tcp(http_sock) = &http_addr else {
        unreachable!("gateway is tcp")
    };
    let http = fresh_connection_median(|| {
        let mut conn = std::net::TcpStream::connect(http_sock).expect("connect gateway");
        conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send probe");
        let mut response = Vec::new();
        conn.read_to_end(&mut response).expect("read to close");
        assert!(response.starts_with(b"HTTP/1.1 200"), "{response:?}");
    });
    assert!(
        http < ACCEPT_BUDGET,
        "dial + GET /healthz + close took a median {http:?}"
    );

    let report = daemon.drain();
    assert_eq!(report.protocol_errors, 0);
}

/// The other half of the guard, with no clock in the verdict: an idle
/// accept loop (or the idle epoll reactor) wakes once per read timeout
/// (to look at the signal flag), not 500 or 40 times a second, and a
/// drain after the idle stretch does not wait for the next of those.
fn an_idle_daemon_wakes_once_per_read_timeout(io: IoModel) {
    let (_, Running { handle, join, .. }) = boot_http_model(io);
    thread::sleep(Duration::from_secs(1));
    let asked = Instant::now();
    handle.request();
    let report = join.join().expect("daemon thread");
    let took = asked.elapsed();
    assert!(report.drained);
    assert!(
        took < test_config().drain_timeout,
        "draining an idle daemon took {took:?}"
    );

    // Per sleeping loop: one wake-up per read timeout of uptime, one for
    // the drain, one of slack. The threads model has a loop per listener
    // and wakes once per connection (the readiness ping); the reactor is
    // one loop and wakes for the connection's accept, request, and close.
    let timeouts = report.uptime.as_millis() / test_config().read_timeout.get().as_millis();
    let bound = match io {
        IoModel::Threads => 2 * (timeouts as u64 + 2) + report.connections,
        IoModel::Epoll => timeouts as u64 + 2 + 4 * report.connections,
    };
    assert!(
        (1..=bound).contains(&report.accept_wakeups),
        "{} wake-ups in {:?}, bound {bound}",
        report.accept_wakeups,
        report.uptime
    );
}

#[test]
fn an_idle_listener_wakes_once_per_read_timeout() {
    an_idle_daemon_wakes_once_per_read_timeout(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_reactor_wakes_once_per_read_timeout_epoll() {
    an_idle_daemon_wakes_once_per_read_timeout(IoModel::Epoll);
}

/// The reactor sleeps for the whole read timeout when nothing is due, and
/// a drain requested from another thread ends that sleep at once: with a
/// read timeout longer than the test, only the latch can have woken it.
#[cfg(target_os = "linux")]
#[test]
fn a_drain_request_wakes_the_sleeping_reactor_at_once_epoll() {
    let config = DaemonConfig {
        io_model: IoModel::Epoll,
        read_timeout: Period::ms(30_000),
        ..test_config()
    };
    let trace = small_workload().build();
    let daemon = Daemon::bind(&unix_endpoint(), None, config, trace.registry().clone())
        .expect("bind daemon");
    let Running { handle, join, .. } = daemon.start();

    thread::sleep(Duration::from_millis(300));
    let asked = Instant::now();
    handle.request();
    let report = join.join().expect("daemon thread");
    let took = asked.elapsed();
    assert!(report.drained);
    assert!(
        took < Duration::from_secs(5),
        "the reactor slept {took:?} through a drain request"
    );
    // The readiness ping's accept, request and close, and the drain.
    assert!(
        (1..=6).contains(&report.accept_wakeups),
        "{} wake-ups for one connection and one drain",
        report.accept_wakeups
    );
}

/// A request that arrives in two reads arms a stall deadline, and once
/// it is answered that deadline stays in the reactor's FIFO until it
/// comes due. Sleeping until an entry less than a millisecond away must
/// cost one wake-up, not a busy loop of zero-timeout `epoll_wait`s.
#[cfg(target_os = "linux")]
#[test]
fn outlived_stall_deadlines_cost_no_busy_wait_epoll() {
    use faascache_server::proto::{Request, Response};
    use std::io::Write;

    const PINGS: u64 = 50;
    let Running { addr, join, .. } = boot_model(unix_endpoint(), IoModel::Epoll);
    let mut conn = raw_unix(&addr);
    let ping = wire([Request::Ping]);
    for _ in 0..PINGS {
        conn.write_all(&ping[..2]).expect("first half");
        thread::sleep(Duration::from_millis(1));
        conn.write_all(&ping[2..]).expect("second half");
        assert!(matches!(read_response(&mut conn), Response::Pong));
    }
    // Quiet past the stall limit (ten read timeouts): every deadline the
    // pings armed comes due while nothing else wakes the reactor.
    thread::sleep(test_config().read_timeout.get() * 15);
    conn.write_all(&wire([Request::Shutdown]))
        .expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert!(report.drained);

    // One wake-up per read timeout of uptime; per ping its two halves,
    // its deadline and one of slack; per connection its accept, request
    // and close; and the drain.
    let timeouts = report.uptime.as_millis() / test_config().read_timeout.get().as_millis();
    let bound = timeouts as u64 + 4 * PINGS + 4 * report.connections + 2;
    assert!(
        report.accept_wakeups <= bound,
        "{} wake-ups for {PINGS} split pings in {:?}, bound {bound}",
        report.accept_wakeups,
        report.uptime
    );
}

/// Connects to a unix-socket daemon without the protocol client, for
/// tests that choose how their bytes are cut into segments.
#[cfg(target_os = "linux")]
fn raw_unix(addr: &BoundAddr) -> std::os::unix::net::UnixStream {
    let BoundAddr::Unix(path) = addr else {
        unreachable!("unix endpoint")
    };
    let conn = std::os::unix::net::UnixStream::connect(path).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    conn
}

#[cfg(target_os = "linux")]
fn wire(requests: impl IntoIterator<Item = faascache_server::proto::Request>) -> Vec<u8> {
    let mut bytes = Vec::new();
    for request in requests {
        faascache_server::proto::write_frame(&mut bytes, &request.encode()).expect("Vec write");
    }
    bytes
}

#[cfg(target_os = "linux")]
fn read_response(conn: &mut impl std::io::Read) -> faascache_server::proto::Response {
    let payload = faascache_server::proto::read_frame(conn)
        .expect("read a reply")
        .expect("a reply, not eof");
    faascache_server::proto::Response::decode(&payload).expect("a well-formed reply")
}

/// What the reactor does per request, as counts: a sequential round trip
/// is one `read` and one `write`, and nothing is handed to another
/// thread. The slack covers the readiness probe, its EOF, and the
/// `Shutdown` frame.
#[cfg(target_os = "linux")]
#[test]
fn a_round_trip_costs_one_read_and_one_write_epoll() {
    let Running { addr, join, .. } = boot_model(unix_endpoint(), IoModel::Epoll);
    let mut c = Client::connect(&addr, LoadProto::Binary).expect("connect");
    for _ in 0..1_000 {
        c.ping().expect("ping");
    }
    c.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert!(report.drained);
    assert!(
        (1_000..=1_008).contains(&report.reads),
        "{} reads for 1,000 sequential pings",
        report.reads
    );
    assert!(
        (1_000..=1_008).contains(&report.writes),
        "{} writes for 1,000 sequential pings",
        report.writes
    );
    assert_eq!(report.handoffs, 0, "a ping was handed to another thread");
}

/// The same counts under the threads model: it reads in chunks too, so a
/// frame costs one `read`, and both drivers count at the same place.
#[test]
fn the_blocking_driver_counts_its_reads_and_writes() {
    let Running { addr, join, .. } = boot(tcp_endpoint());
    let mut c = Client::connect(&addr, LoadProto::Binary).expect("connect");
    for _ in 0..100 {
        c.ping().expect("ping");
    }
    c.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert!(
        (100..=110).contains(&report.reads),
        "{} reads for 100 sequential pings",
        report.reads
    );
    assert!(
        (100..=110).contains(&report.writes),
        "{} writes for 100 sequential pings",
        report.writes
    );
    assert_eq!(report.handoffs, 0);
    assert_eq!(report.peak_out_bytes, 0);
}

/// A pipelined burst is answered in order and its replies leave
/// together: 64 invokes in one segment take the reactor two turns of 32
/// (the fairness bound), so two writes, and the blocking driver one.
#[cfg(target_os = "linux")]
fn pipelined_burst(io: IoModel) {
    use faascache_server::proto::{Request, Response};
    use std::io::Write;

    let Running { addr, join, .. } = boot_model(unix_endpoint(), io);
    let mut conn = raw_unix(&addr);
    // Odd positions name a function that does not exist; the error says
    // which, so a reply out of place cannot go unnoticed.
    let burst = wire((0..64u32).map(|i| Request::Invoke {
        function: if i % 2 == 0 { i % 8 } else { 1_000 + i },
    }));
    conn.write_all(&burst).expect("send the burst");
    for i in 0..64u32 {
        match read_response(&mut conn) {
            Response::Invoked(outcome) if i % 2 == 0 => assert!(outcome.is_served()),
            Response::Error(msg) if i % 2 == 1 => assert!(
                msg.contains(&format!("index {} ", 1_000 + i)),
                "reply {i} is {msg:?}"
            ),
            other => panic!("reply {i} is {other:?}"),
        }
    }
    drop(conn);

    let mut c = Client::connect(&addr, LoadProto::Binary).expect("connect");
    c.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert!(report.drained);
    // The burst, plus the readiness ping's reply and the shutdown's.
    assert!(
        report.writes <= 4 + 2,
        "{} writes for a 64-deep burst",
        report.writes
    );
    assert_eq!(report.handoffs, 0);
}

#[cfg(target_os = "linux")]
#[test]
fn a_pipelined_burst_is_answered_in_order_with_coalesced_writes() {
    pipelined_burst(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn a_pipelined_burst_is_answered_in_order_with_coalesced_writes_epoll() {
    pipelined_burst(IoModel::Epoll);
}

/// A fresh state dir, its journal (shared with the test), and a config
/// whose daemon journals into it.
fn journaled_config(io: IoModel) -> (PathBuf, Arc<Mutex<Journal>>, DaemonConfig) {
    let dir = std::env::temp_dir().join(format!(
        "faascached-test-journal-{}-{}",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (journal, _) = Journal::open(&dir).expect("open journal");
    let journal = Arc::new(Mutex::new(journal));
    let config = DaemonConfig {
        io_model: io,
        journal: Some(Arc::clone(&journal)),
        ..test_config()
    };
    (dir, journal, config)
}

/// Regression: the mutation whose append takes the journal tail over its
/// compaction threshold used to be snapshotted *before* it was applied,
/// so the snapshot lacked it and the truncated tail no longer had it: an
/// acknowledged registration that a restart forgot.
#[test]
fn the_mutation_that_triggers_a_compaction_survives_it() {
    use faascache_server::journal::{JournalRecord, COMPACT_RECORDS};

    let (dir, journal, config) = journaled_config(IoModel::Threads);
    let Running { addr, join, .. } = boot_config(tcp_endpoint(), config);
    let mut c = Client::connect(&addr, LoadProto::Binary).expect("connect");
    let total = COMPACT_RECORDS + 3;
    for i in 0..total {
        let (_, created) = c
            .register(&format!("late-fn-{i}"), 64, 1_000, 50_000)
            .expect("register");
        assert!(created, "late-fn-{i}");
    }
    c.shutdown().expect("shutdown");
    assert!(join.join().expect("daemon thread").drained);
    drop(journal);

    let (_, recovered) = Journal::open(&dir).expect("reopen the state dir");
    assert!(recovered.snapshot_records > 0, "no compaction ran");
    let names: std::collections::HashSet<&str> = recovered
        .records
        .iter()
        .filter_map(|record| match record {
            JournalRecord::Register { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    for i in 0..total {
        assert!(
            names.contains(format!("late-fn-{i}").as_str()),
            "acknowledged registration late-fn-{i} is not on disk"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: the tenant table clamped every tenant index past its last
/// slot onto that slot, so a 64th named tenant shared the 63rd's budget
/// and counts: with `t63` at `mem=1` and holding memory, an unbudgeted
/// `t64` was throttled, and its throttles were reported under `t63`. A
/// `Register` that would intern one tenant more than the table holds is
/// refused before it is journaled: an error reply over binary, a 400 over
/// HTTP, each naming the limit.
#[test]
fn a_tenant_past_the_tenant_table_is_refused_before_the_journal() {
    use faascache_platform::tenant::MAX_TENANTS;
    use faascache_server::journal::JournalRecord;

    let (dir, journal, config) = journaled_config(IoModel::Threads);
    let registry = small_workload().build().registry().clone();
    let daemon = Daemon::bind(&tcp_endpoint(), Some("127.0.0.1:0"), config, registry)
        .expect("bind daemon with http");
    let http_addr = daemon.bound_http_addr().expect("http listener bound");
    let Running { addr, join, .. } = daemon.start();
    let mut c = Client::connect(&addr, LoadProto::Binary).expect("connect");
    // The default tenant and these fill the table.
    let last = MAX_TENANTS - 1;
    let mut g = 0;
    for t in 1..=last {
        (g, _) = c
            .register_in(&format!("g{t}"), 64, 1_000, 5_000, &format!("t{t}"))
            .expect("register within the table");
    }
    // The last tenant gets a 1 MB budget, then holds a container.
    assert!(!c
        .set_tenant_quota(&format!("t{last}"), u64::MAX, 1)
        .expect("quota"));
    assert_eq!(c.invoke(g).expect("invoke"), InvokeOutcome::Cold);

    let err = c
        .register_in("g-next", 64, 1_000, 5_000, &format!("t{MAX_TENANTS}"))
        .expect_err("a tenant past the table");
    assert!(err.to_string().contains("at most 64 tenants"), "{err}");
    let target = format!("/functions/g-next?mem_mb=64&tenant=t{MAX_TENANTS}");
    assert_eq!(http_status(&http_addr, "PUT", &target), 400);
    // A tenant the table knows still registers.
    let (_, created) = c
        .register_in("g-more", 64, 1_000, 5_000, &format!("t{last}"))
        .expect("register under a known tenant");
    assert!(created);
    assert!(c
        .register("g-next", 64, 1_000, 5_000)
        .is_ok_and(|(_, created)| created));
    c.shutdown().expect("shutdown");
    assert!(join.join().expect("daemon thread").drained);
    drop(journal);

    let (_, recovered) = Journal::open(&dir).expect("reopen the state dir");
    let tenants: std::collections::HashSet<&str> = recovered
        .records
        .iter()
        .filter_map(|record| match record {
            JournalRecord::Register { tenant, .. } => Some(tenant.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(tenants.len(), last + 1, "{tenants:?}");
    assert!(!tenants.contains(format!("t{MAX_TENANTS}").as_str()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A library caller's registry is held to the same table: one holding a
/// tenant past it is refused at bind, naming the limit.
#[test]
fn a_registry_past_the_tenant_table_is_refused_at_bind() {
    use faascache_platform::tenant::MAX_TENANTS;
    let mut registry = small_workload().build().registry().clone();
    for t in 1..=MAX_TENANTS {
        registry.intern_tenant(&format!("t{t}"));
    }
    let Err(err) = Daemon::bind(&unix_endpoint(), None, test_config(), registry) else {
        panic!("bound a daemon of 65 tenants");
    };
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    assert_eq!(err.to_string(), "the registry holds 65 tenants, at most 64");
}

/// `--tenants` names at most one tenant fewer than the tenant table holds,
/// since the default tenant takes a slot; naming `default` costs none.
#[test]
fn more_tenants_than_the_table_holds_is_refused() {
    use faascache_platform::tenant::MAX_TENANTS;
    let names = |n: usize| (1..=n).map(|t| format!("t{t}")).collect::<Vec<_>>();
    let parse = |names: Vec<String>| {
        faascache_server::cli::faascached(["--tenants".to_string(), names.join(",")])
    };
    assert!(parse(names(MAX_TENANTS - 1)).is_ok());
    let mut with_default = names(MAX_TENANTS - 1);
    with_default.push("default".to_string());
    assert!(parse(with_default).is_ok());
    let err = parse(names(MAX_TENANTS)).unwrap_err();
    assert_eq!(
        err.reason.as_deref(),
        Some("--tenants: names 64 tenants; at most 63 fit beside the default tenant")
    );
}

/// The one op that leaves the reactor thread: a mutation on a journaled
/// daemon waits for its fsync on the blocking-op thread. The test holds
/// the journal, so the `Register` is "at the disk" for as long as it
/// likes: meanwhile the frames behind it on its connection wait their
/// turn (the third one invokes the function being registered, so it
/// cannot have run early), and other connections are served, invokes
/// included, which no registry lock held across the fsync would allow.
#[cfg(target_os = "linux")]
#[test]
fn a_journaled_mutation_waits_off_the_reactor_and_keeps_its_place_epoll() {
    use faascache_server::proto::{Request, Response};
    use std::io::Write;

    let (dir, journal, config) = journaled_config(IoModel::Epoll);
    let Running { addr, join, .. } = boot_config(unix_endpoint(), config);
    let functions = small_workload().functions.get() as u32;

    let at_the_disk = journal.lock().expect("journal mutex");
    let mut a = raw_unix(&addr);
    a.write_all(&wire([
        Request::Invoke { function: 0 },
        Request::Register {
            name: "late-fn".to_string(),
            mem_mb: 64,
            warm_us: 1_000,
            cold_us: 50_000,
            tenant: String::new(),
        },
        Request::Invoke {
            function: functions,
        },
    ]))
    .expect("send one segment");
    assert!(matches!(read_response(&mut a), Response::Invoked(o) if o.is_served()));

    let mut b = Client::connect(&addr, LoadProto::Binary).expect("connect b");
    b.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    for i in 0..100u32 {
        assert!(b.invoke(i % 8).expect("b's invoke").is_served());
    }
    let err = b.invoke(functions).expect_err("not registered yet");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    drop(at_the_disk);
    assert_eq!(
        read_response(&mut a),
        Response::Registered {
            function: functions,
            created: true
        }
    );
    assert!(matches!(read_response(&mut a), Response::Invoked(o) if o.is_served()));

    b.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert!(report.drained);
    assert_eq!(report.handoffs, 1, "only the Register leaves the thread");
    assert_eq!(report.protocol_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a peer that pipelines requests and never reads the replies
/// used to grow the epoll daemon without bound (1M pings: 200 MB of
/// queued pongs), because only the depth of the request queue, never the
/// size of the reply queue, took read interest away. Now the replies the
/// daemon holds for one connection stop at a high-water mark, the peer's
/// own `write` blocks as it does against the threads model, everyone
/// else is served meanwhile, and when the peer does read it gets every
/// reply, in order.
#[cfg(target_os = "linux")]
#[test]
fn a_peer_that_never_reads_cannot_grow_the_daemon_epoll() {
    use faascache_server::proto::{Request, Response};
    use std::io::Write;

    const FRAMES: u32 = 1_000_000;
    /// Every `MARK`th request is an invoke of a function that does not
    /// exist, whose error reply names it: the order check.
    const MARK: u32 = 1_000;

    let Running { addr, join, .. } = boot_model(unix_endpoint(), IoModel::Epoll);
    let mut slow = raw_unix(&addr);
    let mut sender = slow.try_clone().expect("clone the socket");
    let sent = Arc::new(AtomicU64::new(0));
    let progress = Arc::clone(&sent);
    let writer = thread::spawn(move || {
        for chunk in 0..FRAMES / MARK {
            let bytes = wire((0..MARK).map(|i| match i {
                0 => Request::Invoke {
                    function: FRAMES + chunk,
                },
                _ => Request::Ping,
            }));
            sender.write_all(&bytes).expect("send a chunk");
            progress.fetch_add(1, Ordering::SeqCst);
        }
    });

    // The writer runs until both socket buffers and the daemon's share
    // are full, then blocks: wait until it has stopped making progress.
    let mut seen = u64::MAX;
    loop {
        thread::sleep(Duration::from_millis(100));
        let now = sent.load(Ordering::SeqCst);
        if now == seen {
            break;
        }
        seen = now;
    }
    assert!(
        seen < u64::from(FRAMES / MARK),
        "the daemon swallowed every request of a peer that read nothing"
    );

    // Another connection is served as if the slow one were not there.
    let mut other = Client::connect(&addr, LoadProto::Binary).expect("connect");
    other
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    for i in 0..100u32 {
        other.ping().expect("ping beside a stuck peer");
        assert!(other.invoke(i % 8).expect("invoke").is_served());
    }

    // The slow peer reads at last: every reply, in order.
    for i in 0..FRAMES {
        let reply = read_response(&mut slow);
        if i % MARK == 0 {
            let expected = format!("index {} ", FRAMES + i / MARK);
            assert!(
                matches!(&reply, Response::Error(msg) if msg.contains(&expected)),
                "reply {i} is {reply:?}"
            );
        } else {
            assert_eq!(reply, Response::Pong, "reply {i}");
        }
    }
    writer.join().expect("writer thread");
    drop(slow);

    other.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert!(report.drained);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.frames, u64::from(FRAMES) + 200 + 2);
    // The high-water mark is 64 KiB, plus one turn's replies.
    assert!(
        (1..128 * 1024).contains(&report.peak_out_bytes),
        "the daemon held {} reply bytes for one connection",
        report.peak_out_bytes
    );
}

#[test]
fn shutdown_handle_drains_from_outside() {
    let Running { addr, join, .. } = boot(tcp_endpoint());
    let mut c = Client::connect(&addr, LoadProto::Binary).expect("connect");
    c.invoke(0).expect("invoke");

    // Request shutdown via the wire; afterwards new invokes are rejected
    // (drain backpressure) until the daemon closes the connection.
    c.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert!(report.drained);
    assert_eq!(report.stats.outcomes, Outcomes::from([0, 1, 0, 0, 0]));
}
