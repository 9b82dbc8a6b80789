//! End-to-end tests: a real `faascached` daemon on a real socket, driven
//! by real protocol clients, with conservation checked on both sides.

use faascache_core::function::FunctionRegistry;
use faascache_server::client::{self, Client, LoadOptions, LoadProto, RetryPolicy};
use faascache_server::daemon::{
    BoundAddr, Daemon, DaemonConfig, DaemonReport, Endpoint, IoModel, ShutdownHandle,
};
use faascache_server::http::HttpClient;
use faascache_server::WorkloadConfig;
use faascache_trace::replay::OpenLoopSchedule;
use faascache_util::MemMb;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

fn small_workload() -> WorkloadConfig {
    WorkloadConfig {
        functions: 48,
        seed: 7,
        horizon_mins: 20,
        ..WorkloadConfig::default()
    }
}

fn test_config() -> DaemonConfig {
    DaemonConfig {
        shards: 4,
        total_mem: MemMb::new(4096),
        queue_bound: 512,
        read_timeout: Duration::from_millis(20),
        drain_timeout: Duration::from_secs(5),
        ..DaemonConfig::default()
    }
}

/// Boots a daemon on `endpoint` and hands (addr, join-handle to the
/// report) to the test body.
fn boot(endpoint: Endpoint) -> (BoundAddr, thread::JoinHandle<DaemonReport>) {
    boot_model(endpoint, IoModel::Threads)
}

fn boot_model(endpoint: Endpoint, io: IoModel) -> (BoundAddr, thread::JoinHandle<DaemonReport>) {
    let config = DaemonConfig {
        io_model: io,
        ..test_config()
    };
    boot_config(endpoint, config)
}

fn boot_config(
    endpoint: Endpoint,
    config: DaemonConfig,
) -> (BoundAddr, thread::JoinHandle<DaemonReport>) {
    let trace = small_workload().build();
    let daemon = Daemon::bind(&endpoint, config, trace.registry().clone()).expect("bind daemon");
    let addr = daemon.bound_addr();
    let join = thread::spawn(move || daemon.run());
    client::await_ready(&addr, Duration::from_secs(5)).expect("daemon ready");
    (addr, join)
}

/// Boots a daemon with BOTH listeners (binary + `--http-listen`) under
/// the given io model; returns the binary address, the gateway address,
/// the shutdown handle, and the report join-handle.
fn boot_http_model(
    io: IoModel,
) -> (
    BoundAddr,
    BoundAddr,
    ShutdownHandle,
    thread::JoinHandle<DaemonReport>,
) {
    let trace = small_workload().build();
    let config = DaemonConfig {
        io_model: io,
        ..test_config()
    };
    let daemon = Daemon::bind_with_http(
        &tcp_endpoint(),
        Some("127.0.0.1:0"),
        config,
        trace.registry().clone(),
    )
    .expect("bind daemon with http");
    let addr = daemon.bound_addr();
    let http_addr = daemon.bound_http_addr().expect("http listener bound");
    let handle = daemon.shutdown_handle();
    let join = thread::spawn(move || daemon.run());
    client::await_ready(&addr, Duration::from_secs(5)).expect("daemon ready");
    (addr, http_addr, handle, join)
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

fn exercise_protocol(addr: &BoundAddr, join: thread::JoinHandle<DaemonReport>) {
    let mut c = Client::connect(addr).expect("connect");
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
    let stats = c.stats().expect("stats");
    assert_eq!(stats.served(), served);
    assert!(
        stats.warm > 0,
        "repeat invocations must hit warm containers"
    );

    c.shutdown().expect("shutdown ack");
    let report = join.join().expect("daemon thread");
    assert!(report.drained, "nothing in flight, drain must succeed");
    assert_eq!(report.stats.warm + report.stats.cold, served);
    assert_eq!(report.protocol_errors, 0);
    // readiness ping + ping + 50 invokes + stats + shutdown
    assert_eq!(report.frames, 54);
}

#[cfg(unix)]
#[test]
fn protocol_session_over_unix_socket() {
    let endpoint = unix_endpoint();
    let (addr, join) = boot(endpoint.clone());
    exercise_protocol(&addr, join);
    if let Endpoint::Unix(path) = endpoint {
        assert!(!path.exists(), "socket file must be unlinked on exit");
    }
}

#[test]
fn protocol_session_over_tcp() {
    let (addr, join) = boot(tcp_endpoint());
    exercise_protocol(&addr, join);
}

#[test]
fn bad_function_index_is_an_error_reply_not_a_crash() {
    let (addr, join) = boot(tcp_endpoint());
    let mut c = Client::connect(&addr).expect("connect");
    let err = c.invoke(u32::MAX).expect_err("out-of-range index");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // The connection and the daemon both survive the bad request.
    c.ping().expect("daemon still alive");
    c.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert_eq!(
        report.protocol_errors, 0,
        "an Error reply is not a protocol error"
    );
}

/// Regression: a keyed invoke of an index not registered yet claimed its
/// key, failed, and left the key queued in the dedup cache's eviction
/// order. The same key's later execution queued it a second time, so the
/// cache evicted the recorded outcome one key early and a retry executed
/// again.
#[test]
fn a_failed_keyed_invoke_does_not_shorten_its_keys_dedup_life() {
    let config = DaemonConfig {
        idem_capacity: 2,
        ..test_config()
    };
    let (addr, join) = boot_config(unix_endpoint(), config);
    let mut c = Client::connect(&addr).expect("connect");
    let next = small_workload().functions as u32;
    c.invoke_keyed(next, 100).expect_err("not registered yet");
    assert_eq!(c.register("late", 128, 1_000, 5_000).unwrap(), (next, true));
    assert!(c.invoke_keyed(next, 100).expect("executes").is_served());
    assert!(c.invoke_keyed(0, 200).expect("second key").is_served());
    // Two keys in a cache of two: the retry is answered from the cache.
    assert!(c.invoke_keyed(next, 100).expect("retry").is_served());
    c.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert_eq!(report.dedup_hits, 1);
    assert_eq!(report.stats.served(), 2, "the retry must not execute");
}

#[test]
fn concurrent_clients_lose_nothing() {
    let (addr, join) = boot(tcp_endpoint());
    let trace = small_workload().build();
    let schedule = OpenLoopSchedule::from_trace(&trace, 50_000.0);
    let requests = 20_000u64;
    let report = client::run_load(&addr, &schedule, 50_000.0, requests, 4);

    assert_eq!(report.requests, requests);
    assert_eq!(report.errors, 0, "no transport errors expected");
    assert_eq!(report.lost(), 0, "every request must be accounted");

    // Sole client: daemon-side stats must match the client tallies.
    let mut c = Client::connect(&addr).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(stats.warm, report.warm);
    assert_eq!(stats.cold, report.cold);
    assert_eq!(stats.dropped, report.dropped);
    assert_eq!(stats.rejected, report.rejected);
    assert_eq!(stats.accounted(), requests);

    c.shutdown().expect("shutdown");
    let daemon_report = join.join().expect("daemon thread");
    assert!(daemon_report.drained);
    assert_eq!(daemon_report.protocol_errors, 0);
}

#[cfg(target_os = "linux")]
#[test]
fn protocol_session_over_unix_socket_epoll() {
    let endpoint = unix_endpoint();
    let (addr, join) = boot_model(endpoint.clone(), IoModel::Epoll);
    exercise_protocol(&addr, join);
    if let Endpoint::Unix(path) = endpoint {
        assert!(!path.exists(), "socket file must be unlinked on exit");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn protocol_session_over_tcp_epoll() {
    let (addr, join) = boot_model(tcp_endpoint(), IoModel::Epoll);
    exercise_protocol(&addr, join);
}

#[cfg(target_os = "linux")]
#[test]
fn concurrent_clients_lose_nothing_epoll() {
    let (addr, join) = boot_model(tcp_endpoint(), IoModel::Epoll);
    let trace = small_workload().build();
    let schedule = OpenLoopSchedule::from_trace(&trace, 50_000.0);
    let requests = 20_000u64;
    let report = client::run_load(&addr, &schedule, 50_000.0, requests, 4);

    assert_eq!(report.requests, requests);
    assert_eq!(report.errors, 0, "no transport errors expected");
    assert_eq!(report.lost(), 0, "every request must be accounted");

    let mut c = Client::connect(&addr).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(stats.warm, report.warm);
    assert_eq!(stats.cold, report.cold);
    assert_eq!(stats.dropped, report.dropped);
    assert_eq!(stats.rejected, report.rejected);
    assert_eq!(stats.accounted(), requests);

    c.shutdown().expect("shutdown");
    let daemon_report = join.join().expect("daemon thread");
    assert!(daemon_report.drained);
    assert_eq!(daemon_report.protocol_errors, 0);
    assert_eq!(daemon_report.accept_errors, 0);
}

/// The reactor's reason for existing: hundreds of mostly-idle keep-alive
/// connections must cost nothing, stay open across a request burst, and
/// all be accounted in the peak-connection gauge.
#[cfg(target_os = "linux")]
#[test]
fn epoll_holds_an_idle_connection_herd() {
    let (addr, join) = boot_model(unix_endpoint(), IoModel::Epoll);
    let herd = 512usize;
    let mut idle = Vec::with_capacity(herd);
    for _ in 0..herd {
        idle.push(Client::connect(&addr).expect("idle connect"));
    }

    // Requests flow normally while the herd sits idle.
    let mut c = Client::connect(&addr).expect("active connect");
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

    let (addr, join) = boot_model(tcp_endpoint(), IoModel::Epoll);
    // An innocent session established before the poisoned one.
    let mut b = Client::connect(&addr).expect("connect b");
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

/// The HTTP half of the {binary,http}×{threads,epoll} session matrix:
/// everything `exercise_protocol` proves over the binary listener, over
/// the gateway instead — invoke routing, health, metrics, registration,
/// and the error statuses — then a clean drain.
fn exercise_http(
    http_addr: &BoundAddr,
    handle: &ShutdownHandle,
    join: thread::JoinHandle<DaemonReport>,
) {
    let mut c = HttpClient::connect(http_addr).expect("http connect");
    c.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    assert_eq!(c.healthz().expect("healthz"), 200);

    let mut served = 0u64;
    for i in 0..50u32 {
        let outcome = c.invoke(i % 8).expect("http invoke");
        assert!(
            outcome.is_served(),
            "tiny load on a big pool must be served, got {outcome:?}"
        );
        served += 1;
    }

    // Runtime registration: created once, idempotent on repeat, then
    // invocable by name.
    let (id, created) = c.register("e2e-fn", 128, 1_000, 100_000).expect("register");
    assert!(created, "first registration must create");
    let (id2, created2) = c
        .register("e2e-fn", 512, 9_999, 9_999_999)
        .expect("re-register");
    assert_eq!(id, id2, "duplicate registration must answer the same id");
    assert!(!created2, "duplicate registration must be idempotent");
    assert!(
        c.invoke_named("e2e-fn")
            .expect("invoke by name")
            .is_served(),
        "registered function must be invocable by name"
    );
    served += 1;

    // Error statuses are replies, not connection teardowns.
    let err = c.invoke_named("no-such-fn").expect_err("unknown name");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let (status, _) = c.request("GET", "/invoke/1", &[]).expect("wrong method");
    assert_eq!(status, 405, "known path with wrong method is 405");
    let (status, _) = c.request("GET", "/nope", &[]).expect("unknown path");
    assert_eq!(status, 404, "unknown path is 404");

    // The Prometheus scrape must agree with what this sole client did.
    let metrics = c.metrics().expect("metrics");
    let sample = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.trim().parse::<f64>().ok())
            .unwrap_or_else(|| panic!("metric {name} missing from scrape:\n{metrics}"))
            as u64
    };
    assert_eq!(
        sample("faascache_requests_total{outcome=\"warm\"}")
            + sample("faascache_requests_total{outcome=\"cold\"}"),
        served,
        "served outcome counters must match the client's tally"
    );
    assert_eq!(sample("faascache_shard_in_flight{shard=\"0\"}"), 0);
    assert!(
        metrics.contains("faascache_shard_in_flight{shard=\"3\"}"),
        "per-shard gauges must cover all 4 shards:\n{metrics}"
    );
    assert_eq!(sample("faascache_draining"), 0);
    assert!(
        sample("faascache_http_requests_total") >= served,
        "the scrape must count the {served} gateway invokes"
    );

    drop(c);
    handle.request();
    let report = join.join().expect("daemon thread");
    assert!(report.drained, "nothing in flight, drain must succeed");
    assert_eq!(report.stats.warm + report.stats.cold, served);
    assert_eq!(report.protocol_errors, 0);
    // readiness ping only; the session rode the gateway.
    assert_eq!(report.frames, 1);
    assert!(
        report.http_requests >= served,
        "http_requests={} must count the {served} gateway invokes",
        report.http_requests
    );
}

#[test]
fn http_session_over_tcp() {
    let (_, http_addr, handle, join) = boot_http_model(IoModel::Threads);
    exercise_http(&http_addr, &handle, join);
}

#[cfg(target_os = "linux")]
#[test]
fn http_session_over_tcp_epoll() {
    let (_, http_addr, handle, join) = boot_http_model(IoModel::Epoll);
    exercise_http(&http_addr, &handle, join);
}

/// The load-conservation half of the matrix over HTTP: the shared load
/// generator replays the schedule as keep-alive `POST /invoke/<fn>` and
/// the daemon-side counters must match the client's tallies exactly.
fn http_load_loses_nothing(io: IoModel) {
    let (addr, http_addr, handle, join) = boot_http_model(io);
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

    assert_eq!(report.requests, requests);
    assert_eq!(report.errors, 0, "no transport errors expected");
    assert_eq!(report.lost(), 0, "every request must be accounted");

    let mut c = Client::connect(&addr).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(stats.warm, report.warm);
    assert_eq!(stats.cold, report.cold);
    assert_eq!(stats.dropped, report.dropped);
    assert_eq!(stats.rejected, report.rejected);
    assert_eq!(stats.accounted(), requests);
    drop(c);

    handle.request();
    let daemon_report = join.join().expect("daemon thread");
    assert!(daemon_report.drained);
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
/// `Connection: close`), while a request already in flight — its head
/// only partially on the wire when the drain began — still completes
/// with a full, well-formed response before the connection is torn
/// down. Whether that response is a 200 or the draining 503 depends on
/// whether the request reached the admission gate before it flipped
/// (the epoll reactor flips it synchronously with the drain; the
/// threads core flips it when the accept loop notices) — either way
/// the bytes on the wire must be a complete response, never a reset.
fn healthz_flips_and_in_flight_completes(io: IoModel) {
    use std::io::{Read, Write};

    let (_, http_addr, handle, join) = boot_http_model(io);
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
    let mut probe = HttpClient::connect(&http_addr).expect("connect probe");
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    assert_eq!(probe.healthz().expect("healthz pre-drain"), 200);

    handle.request();
    assert_eq!(
        probe.healthz().expect("healthz mid-drain"),
        503,
        "healthz must flip to 503 the moment the drain begins"
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
        text.starts_with("HTTP/1.1 200") || text.starts_with("HTTP/1.1 503"),
        "in-flight request must complete with 200 or a draining 503, got: {text:?}"
    );
    assert!(
        text.contains("\"outcome\":"),
        "in-flight response must carry a complete JSON body, got: {text:?}"
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

    let (addr, http_addr, handle, join) = boot_http_model(IoModel::Threads);
    let binary = fresh_connection_median(|| {
        Client::connect(&addr)
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

    handle.request();
    let report = join.join().expect("daemon thread");
    assert!(report.drained);
    assert_eq!(report.protocol_errors, 0);
}

/// The other half of the guard, with no clock in the verdict: an idle
/// accept loop (or the idle epoll reactor) wakes once per read timeout
/// (to look at the signal flag), not 500 or 40 times a second, and a
/// drain after the idle stretch does not wait for the next of those.
fn an_idle_daemon_wakes_once_per_read_timeout(io: IoModel) {
    let (_, _, handle, join) = boot_http_model(io);
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
    let timeouts = report.uptime.as_millis() / test_config().read_timeout.as_millis();
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
        read_timeout: Duration::from_secs(30),
        ..test_config()
    };
    let trace = small_workload().build();
    let daemon =
        Daemon::bind(&unix_endpoint(), config, trace.registry().clone()).expect("bind daemon");
    let addr = daemon.bound_addr();
    let handle = daemon.shutdown_handle();
    let join = thread::spawn(move || daemon.run());
    client::await_ready(&addr, Duration::from_secs(5)).expect("daemon ready");

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
    let (addr, join) = boot_model(unix_endpoint(), IoModel::Epoll);
    let mut c = Client::connect(&addr).expect("connect");
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

/// The same counters under the threads model, which reads a frame's
/// length prefix and its payload separately: both drivers count at the
/// same place, so the two models can be compared.
#[test]
fn the_blocking_driver_counts_its_reads_and_writes() {
    let (addr, join) = boot(tcp_endpoint());
    let mut c = Client::connect(&addr).expect("connect");
    for _ in 0..100 {
        c.ping().expect("ping");
    }
    c.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert!(report.reads >= 200, "{} reads", report.reads);
    assert!(
        (100..=110).contains(&report.writes),
        "{} writes for 100 sequential pings",
        report.writes
    );
    assert_eq!(report.handoffs, 0);
    assert_eq!(report.peak_out_bytes, 0);
}

/// A pipelined burst is answered in order and its replies leave
/// together: 64 invokes in one segment take two turns of 32 (the
/// fairness bound), so two writes, where the worker pool wrote 64 times.
#[cfg(target_os = "linux")]
#[test]
fn a_pipelined_burst_is_answered_in_order_with_coalesced_writes_epoll() {
    use faascache_server::proto::{Request, Response};
    use std::io::Write;

    let (addr, join) = boot_model(unix_endpoint(), IoModel::Epoll);
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

    let mut c = Client::connect(&addr).expect("connect");
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

/// A fresh state dir, its journal (shared with the test), and a config
/// whose daemon journals into it.
fn journaled_config(
    io: IoModel,
) -> (
    std::path::PathBuf,
    std::sync::Arc<std::sync::Mutex<faascache_server::journal::Journal>>,
    DaemonConfig,
) {
    let dir = std::env::temp_dir().join(format!(
        "faascached-test-journal-{}-{}",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (journal, _) = faascache_server::journal::Journal::open(&dir).expect("open journal");
    let journal = std::sync::Arc::new(std::sync::Mutex::new(journal));
    let config = DaemonConfig {
        io_model: io,
        journal: Some(std::sync::Arc::clone(&journal)),
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
    use faascache_server::journal::{Journal, JournalRecord, COMPACT_RECORDS};

    let (dir, journal, config) = journaled_config(IoModel::Threads);
    let (addr, join) = boot_config(tcp_endpoint(), config);
    let mut c = Client::connect(&addr).expect("connect");
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
    let (addr, join) = boot_config(unix_endpoint(), config);
    let functions = small_workload().functions as u32;

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

    let mut b = Client::connect(&addr).expect("connect b");
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

    let (addr, join) = boot_model(unix_endpoint(), IoModel::Epoll);
    let mut slow = raw_unix(&addr);
    let mut sender = slow.try_clone().expect("clone the socket");
    let sent = std::sync::Arc::new(AtomicU64::new(0));
    let progress = std::sync::Arc::clone(&sent);
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
    let mut other = Client::connect(&addr).expect("connect");
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
    let (addr, join) = boot(tcp_endpoint());
    let mut c = Client::connect(&addr).expect("connect");
    c.invoke(0).expect("invoke");

    // Request shutdown via the wire; afterwards new invokes are rejected
    // (drain backpressure) until the daemon closes the connection.
    c.shutdown().expect("shutdown");
    let report = join.join().expect("daemon thread");
    assert!(report.drained);
    assert_eq!(report.stats.cold, 1);
}

/// Binding with `config` fails as `InvalidInput`.
fn assert_refused(config: DaemonConfig) {
    let err = Daemon::bind(&tcp_endpoint(), config, FunctionRegistry::new())
        .err()
        .expect("a zero duration binds");
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
}

#[test]
fn zero_reap_interval_is_refused() {
    // It would run every shard's reaper in a tight loop under its lock.
    assert_refused(DaemonConfig {
        reap_interval: Duration::ZERO,
        ..test_config()
    });
}

#[test]
fn zero_read_timeout_is_refused() {
    // A zero socket timeout fails every read on the accept path.
    assert_refused(DaemonConfig {
        read_timeout: Duration::ZERO,
        ..test_config()
    });
}
