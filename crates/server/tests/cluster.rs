//! Cluster-mode conformance: a live `faas-router` fronting N real
//! `faascached` daemons, checked end-to-end and differentially against
//! the virtual-time cluster simulator.
//!
//! Three layers of evidence:
//!
//! - **Multi-process e2e**: one in-process router in front of three
//!   `faascached` child processes on unix sockets (both io models),
//!   replaying the seeded conformance trace. Asserts exact client-side
//!   conservation (`warm + cold + dropped + rejected + throttled +
//!   errors == requests`), zero losses, and that three independent
//!   tallies agree exactly: the client's outcome counts, the router's
//!   own `Stats`, and the *sum* of the backends' `/metrics` counters.
//! - **Differential vs `sim::cluster`**: the identical deterministic
//!   trace is pushed through [`run_cluster`] and through a live router
//!   with sequential closed-loop arrivals
//!   ([`OpenLoopSchedule::functions`]). Because simulator and router
//!   share one picker (`faascache_util::route`), the per-server request
//!   distributions must match *bit for bit* for the load-independent
//!   policies (affinity, round-robin, random), and the locality ordering
//!   the paper's §9 predicts — affinity beats random on a skewed trace —
//!   must hold in both worlds.
//! - **Kill-one-backend**: SIGKILL a backend mid-replay and assert the
//!   router ejects it, re-routes its share to the survivors, and the
//!   keyed-retry path loses nothing.
//!
//! `FAASCACHE_DIFF_REQUESTS=N` widens the differential case count (CI
//! runs it elevated); the default keeps local `cargo test` fast.
//!
//! In-process routers and daemons start and drain through
//! `support/start.rs`; a backend process is `support/child.rs`'s
//! `Faascached` (stopped by SIGTERM, SIGKILLed when dropped); every
//! `/metrics` read goes through `support/metrics.rs`.

#[cfg(unix)]
#[path = "support/child.rs"]
mod child;
#[path = "support/metrics.rs"]
mod metrics;
#[path = "support/start.rs"]
mod start;
#[path = "support/workload.rs"]
mod workload;

#[cfg(unix)]
use child::{temp_path, Faascached};
use faascache_core::policy::PolicyKind;
use faascache_platform::sharded::{InvokeOutcome, Outcomes};
use faascache_server::client::{self, Client, LoadOptions, LoadProto, RetryPolicy};
use faascache_server::daemon::{BoundAddr, Daemon, DaemonConfig, Endpoint, IoModel};
use faascache_server::router::{BackendSpec, Router, RouterConfig};
use faascache_server::{Period, WorkloadConfig};
use faascache_sim::cluster::{run_cluster, ClusterConfig};
use faascache_sim::SimConfig;
use faascache_trace::record::Trace;
use faascache_trace::replay::OpenLoopSchedule;
use faascache_util::route::LoadBalancer;
use faascache_util::MemMb;
use metrics::series;
use start::{Running, Start};
use std::net::SocketAddr;
use std::num::NonZeroUsize;
use std::thread;
use std::time::{Duration, Instant};
use workload::shared_schedule;

/// Binds an in-process router over `backends` with both fronts and
/// starts it; returns its HTTP front too.
fn boot_router(backends: Vec<BackendSpec>, config: RouterConfig) -> (BoundAddr, Running<Router>) {
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let router =
        Router::bind(&endpoint, Some("127.0.0.1:0"), config, backends).expect("bind router");
    let http = router.bound_http_addr().expect("router http front bound");
    (http, router.start())
}

/// The `/metrics` body served at `http`.
fn exposition(http: &BoundAddr) -> String {
    let mut client = Client::connect(http, LoadProto::Http).expect("connect gateway");
    client.metrics().expect("scrape metrics")
}

/// Scrapes one series from the `/metrics` served at `http`.
fn scrape(http: &BoundAddr, name: &str) -> u64 {
    series(&exposition(http), name)
}

/// The five aggregate outcome series `family{outcome="..."}` of one
/// scrape at `http`. The per-tenant variants carry a second label and do
/// not match.
fn scrape_outcomes(http: &BoundAddr, family: &str) -> Outcomes {
    let body = exposition(http);
    Outcomes::from(InvokeOutcome::ALL.map(|outcome| {
        series(
            &body,
            &format!("{family}{{outcome=\"{}\"}}", outcome.label()),
        )
    }))
}

/// The `faascache_registry_digest` gauge of the gateway at `http`.
fn registry_digest(http: SocketAddr) -> u64 {
    scrape(&BoundAddr::Tcp(http), "faascache_registry_digest")
}

/// A `faascached` child serving the shared workload on `sock`, with two
/// shards; `extra` flags come last and override.
#[cfg(unix)]
fn backend(io: IoModel, sock: std::path::PathBuf, extra: &[&str]) -> Faascached {
    let (workload, _) = shared_schedule();
    let (io, functions, seed) = (
        io.to_string(),
        workload.functions.to_string(),
        workload.seed.to_string(),
    );
    let mut args = vec![
        "--io-model",
        &io,
        "--shards",
        "2",
        "--mem-mb",
        "2048",
        "--queue-bound",
        "256",
        "--functions",
        &functions,
        "--seed",
        &seed,
    ];
    args.extend_from_slice(extra);
    Faascached::spawn(sock, &args)
}

// ---------------------------------------------------------------------
// E2E: every balancer, both io models, three real backend processes.
// ---------------------------------------------------------------------

#[cfg(unix)]
fn e2e_case(io: IoModel, balancer: LoadBalancer) {
    let (_, schedule) = shared_schedule();
    let tag = format!("{io}-{}", balancer.label());
    let backends: Vec<Faascached> = (0..3).map(|_| backend(io, temp_path(&tag), &[])).collect();
    let specs = backends.iter().map(BackendSpec::from).collect();
    let config = RouterConfig {
        balancer,
        health_interval: Period::ms(25),
        ..RouterConfig::default()
    };
    let (http, router) = boot_router(specs, config);
    let addr = router.addr.clone();

    // No retries and a generous timeout: every request gets exactly one
    // attempt, so the three tallies below must agree *exactly*.
    let requests = 800;
    let opts = LoadOptions {
        target_rps: 10_000.0,
        requests,
        threads: 2,
        connections: 0,
        retry: RetryPolicy::none(),
        faults: None,
        read_timeout: Some(Period::ms(5000)),
        seed: 0xC0FFEE,
        proto: LoadProto::Binary,
    };
    let report = client::run_load_with(&addr, schedule, opts);

    assert_eq!(
        report.outcomes.total() + report.errors,
        report.requests,
        "{tag}: conservation violated: {}",
        report.summary_line()
    );
    assert_eq!(report.errors, 0, "{tag}: {}", report.summary_line());
    assert_eq!(report.lost(), 0, "{tag}: {}", report.summary_line());

    // The router's own tallies must equal the client's.
    let stats = Client::connect(&addr, LoadProto::Binary)
        .expect("connect router")
        .stats()
        .expect("router stats");
    assert_eq!(
        stats.outcomes,
        report.outcomes,
        "{tag}: router tallies diverge from client: {}",
        report.summary_line()
    );
    // ... as must its own `/metrics` front.
    assert_eq!(
        scrape_outcomes(&http, "faasrouter_requests_total"),
        stats.outcomes,
        "{tag}: router /metrics diverge from its stats"
    );
    let routed: u64 = (0..backends.len())
        .map(|i| {
            scrape(
                &http,
                &format!("faasrouter_backend_routed_total{{backend=\"{i}\"}}"),
            )
        })
        .sum();
    assert_eq!(routed, requests, "{tag}: routed series miss forwards");

    // ... and the *sum* of the backends' own /metrics counters must
    // equal the router's — every forward executed on exactly one backend.
    let mut summed = Outcomes::default();
    for b in &backends {
        summed += scrape_outcomes(&BoundAddr::Tcp(b.http), "faascache_requests_total");
    }
    assert_eq!(
        summed, stats.outcomes,
        "{tag}: summed backend /metrics diverge from router tallies"
    );

    // A `mem_mb` beyond the u32 wire range is refused at the router's
    // HTTP front exactly as a backend's gateway refuses it — 400 — and
    // never clamped into a broadcast.
    let digests =
        |bs: &[Faascached]| -> Vec<u64> { bs.iter().map(|b| registry_digest(b.http)).collect() };
    let before = digests(&backends);
    // The client holds `mem_mb` as a u32, so the request goes out raw.
    let refused = {
        use std::io::{Read, Write};
        let BoundAddr::Tcp(sock) = &http else {
            unreachable!("the router's gateway is tcp")
        };
        let mut conn = std::net::TcpStream::connect(sock).expect("connect router http");
        let target = format!(
            "/functions/too-big?mem_mb={}&warm_us=1000&cold_us=10000",
            u64::from(u32::MAX) + 1
        );
        conn.write_all(format!("PUT {target} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
            .expect("send register");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read the answer");
        response
    };
    assert!(
        refused.starts_with("HTTP/1.1 400"),
        "{tag}: router accepted an out-of-range mem_mb: {refused}"
    );
    assert_eq!(
        digests(&backends),
        before,
        "{tag}: a refused register reached a backend"
    );

    let rreport = router.drain();
    assert_eq!(
        rreport.local_rejects,
        0,
        "{tag}: {}",
        rreport.summary_line()
    );
    assert_eq!(
        rreport.per_backend.iter().map(|b| b.routed).sum::<u64>(),
        requests,
        "{tag}: {}",
        rreport.summary_line()
    );
    if balancer == LoadBalancer::RoundRobin {
        for b in &rreport.per_backend {
            assert!(b.routed > 0, "{tag}: round-robin starved {}", b.spec);
        }
    }
    for b in backends {
        b.terminate();
    }
}

#[cfg(unix)]
#[test]
fn router_serves_all_balancers_over_live_backends() {
    for balancer in LoadBalancer::ALL {
        e2e_case(IoModel::Threads, balancer);
    }
}

#[cfg(target_os = "linux")]
#[test]
fn router_serves_all_balancers_over_live_backends_epoll() {
    for balancer in LoadBalancer::ALL {
        e2e_case(IoModel::Epoll, balancer);
    }
}

// ---------------------------------------------------------------------
// Kill-one-backend: ejection, re-routing, nothing lost.
// ---------------------------------------------------------------------

#[cfg(unix)]
#[test]
fn killing_a_backend_mid_run_loses_nothing() {
    let (_, schedule) = shared_schedule();
    let mut backends: Vec<Faascached> = (0..3)
        .map(|_| backend(IoModel::Threads, temp_path("kill"), &[]))
        .collect();
    let specs = backends.iter().map(BackendSpec::from).collect();
    let config = RouterConfig {
        balancer: LoadBalancer::FunctionAffinity,
        health_interval: Period::ms(25),
        eject_after: 2,
        hop_retries: 6,
        ..RouterConfig::default()
    };
    let (_, router) = boot_router(specs, config);
    let addr = router.addr.clone();

    // Keyed retries: a request whose backend dies mid-flight is retried
    // (hop-side and client-side) until a survivor answers it.
    let requests = 1200;
    let opts = LoadOptions {
        target_rps: 10_000.0,
        requests,
        threads: 2,
        connections: 0,
        retry: RetryPolicy::retries(12, Duration::from_millis(1), Duration::from_millis(16)),
        faults: None,
        read_timeout: Some(Period::ms(500)),
        seed: 0xC0FFEE,
        proto: LoadProto::Binary,
    };
    let load = thread::spawn(move || client::run_load_with(&addr, schedule, opts));

    // SIGKILL a backend while the replay is in flight (the 1200-request
    // schedule spans ~120 ms at 10k rps).
    thread::sleep(Duration::from_millis(30));
    drop(backends.remove(2)); // SIGKILL

    let report = load.join().expect("load thread panicked");
    assert_eq!(
        report.outcomes.total() + report.errors,
        report.requests,
        "conservation violated: {}",
        report.summary_line()
    );
    assert_eq!(
        report.errors,
        0,
        "retries exhausted: {}",
        report.summary_line()
    );
    assert_eq!(report.lost(), 0, "lost requests: {}", report.summary_line());

    let rreport = router.drain();
    assert!(
        rreport.ejections() >= 1,
        "killed backend never ejected: {}",
        rreport.summary_line()
    );
    let dead = rreport
        .per_backend
        .iter()
        .find(|b| !b.healthy)
        .expect("one backend should be out of the routing set at exit");
    // The survivors absorbed the dead backend's share.
    for b in &rreport.per_backend {
        if b.spec != dead.spec {
            assert!(b.routed > 0, "survivor {} never routed", b.spec);
        }
    }
    // Router-internal consistency: every tallied outcome corresponds to
    // a per-backend forward or a local reject. (Tallies may exceed the
    // client's request count: a lost-response retry re-forwards.)
    assert_eq!(
        rreport.per_backend.iter().map(|b| b.routed).sum::<u64>() + rreport.local_rejects,
        rreport.outcomes.total(),
        "router counters inconsistent: {}",
        rreport.summary_line()
    );
    for b in backends {
        b.terminate();
    }
}

// ---------------------------------------------------------------------
// Restart-rejoin: SIGKILL, restart from --state-dir, reconcile, readmit.
// ---------------------------------------------------------------------

/// Polls the router until `series` reads `want` (health transitions are
/// prober-paced, so give them a real deadline).
#[cfg(unix)]
fn await_router_series(http: &BoundAddr, series: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if scrape(http, series) == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "router never reported {series} == {want}"
        );
        thread::sleep(Duration::from_millis(10));
    }
}

/// The full crash-recovery story, end to end: a journaling backend is
/// SIGKILLed mid-cluster, a registration lands while it is dead, and a
/// restart from the same `--state-dir` on the same endpoints must (a)
/// recover its own pre-crash registrations from the journal, (b) receive
/// the missed registration via the router's re-admission reconciliation,
/// (c) converge to the survivor's registry digest, and (d) serve a full
/// replay with zero errors and zero losses. Re-admission replays the
/// router's whole log each time, also into a backend whose registry
/// already matches: the second kill and restart checks that.
#[cfg(unix)]
#[test]
fn killed_backend_restarted_from_state_dir_rejoins_converged() {
    let (_, schedule) = shared_schedule();
    let state_dir = temp_path("rejoin-state");

    let survivor = backend(IoModel::Threads, temp_path("rejoin"), &[]);
    // Pin the journaling backend's endpoints so its restart is
    // indistinguishable to the router's prober.
    let sock = temp_path("rejoin");
    let http_port = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
        probe.local_addr().expect("local addr").port()
    };
    let http_listen = format!("127.0.0.1:{http_port}");
    let journaling = [
        "--http-listen",
        &http_listen,
        "--state-dir",
        state_dir.to_str().expect("state dir is utf-8"),
    ];
    let victim = backend(IoModel::Threads, sock.clone(), &journaling);

    let specs = vec![BackendSpec::from(&survivor), BackendSpec::from(&victim)];
    let config = RouterConfig {
        balancer: LoadBalancer::FunctionAffinity,
        health_interval: Period::ms(25),
        eject_after: 2,
        hop_retries: 6,
        ..RouterConfig::default()
    };
    let (http, router) = boot_router(specs, config);
    let addr = router.addr.clone();

    // A registration broadcast while both backends are healthy: the
    // victim journals it, so recovery alone must bring it back.
    let mut conn = Client::connect(&addr, LoadProto::Binary).expect("connect router");
    let (pre_kill_index, created) = conn
        .register_in("pre-kill-fn", 128, 1_000, 10_000, "rejoin")
        .expect("broadcast register");
    assert!(created);

    drop(victim); // SIGKILL
    await_router_series(&http, "faasrouter_backend_healthy{backend=\"1\"}", 0);

    // A registration while the victim is dead: only the survivor acks
    // it; the router records it for replay at re-admission.
    let (while_dead_index, created) = conn
        .register_in("while-dead-fn", 128, 1_000, 10_000, "rejoin")
        .expect("register while dead");
    assert!(created);
    conn.set_tenant_quota("rejoin", 10_000, u64::MAX)
        .expect("set quota while dead");

    // Restart from the same state dir on the same endpoints. The router
    // must reconcile before readmitting.
    let revived = backend(IoModel::Threads, sock.clone(), &journaling);
    assert_eq!(
        revived.http,
        http_listen.parse().expect("pinned gateway addr"),
        "restart did not reclaim the pinned gateway address"
    );
    await_router_series(&http, "faasrouter_backend_healthy{backend=\"1\"}", 1);
    // The log: pre-kill-fn, while-dead-fn and the quota.
    const LOG_LEN: u64 = 3;
    let reconciled = || scrape(&http, "faasrouter_backend_reconciled_total{backend=\"1\"}");
    assert_eq!(
        reconciled(),
        LOG_LEN,
        "router readmitted the backend without replaying its whole log"
    );

    // Registries converged: journal recovery restored pre-kill-fn,
    // reconciliation delivered while-dead-fn.
    assert_eq!(
        registry_digest(survivor.http),
        registry_digest(revived.http),
        "registry digests diverge after rejoin"
    );
    let mut direct =
        Client::connect(&revived.addr(), LoadProto::Binary).expect("connect revived backend");
    let (idx, created) = direct
        .register_in("pre-kill-fn", 128, 1_000, 10_000, "rejoin")
        .expect("lookup pre-kill-fn");
    assert!(!created, "journaled registration lost in the crash");
    assert_eq!(idx, pre_kill_index);
    let (idx, created) = direct
        .register_in("while-dead-fn", 128, 1_000, 10_000, "rejoin")
        .expect("lookup while-dead-fn");
    assert!(
        !created,
        "reconciliation never replayed the missed register"
    );
    assert_eq!(idx, while_dead_index);
    drop(direct);
    drop(conn);

    // Again: its journal now holds every mutation the router logged, so
    // the restarted registry already matches the survivor's, and the
    // whole log is replayed all the same.
    drop(revived); // SIGKILL
    await_router_series(&http, "faasrouter_backend_healthy{backend=\"1\"}", 0);
    let revived = backend(IoModel::Threads, sock.clone(), &journaling);
    assert_eq!(
        registry_digest(survivor.http),
        registry_digest(revived.http),
        "journal recovery lost a replayed mutation"
    );
    await_router_series(&http, "faasrouter_backend_healthy{backend=\"1\"}", 1);
    assert_eq!(
        reconciled(),
        2 * LOG_LEN,
        "the second re-admission did not replay the whole log"
    );

    // The converged pair serves a full replay losslessly.
    let opts = LoadOptions {
        target_rps: 10_000.0,
        requests: 800,
        threads: 2,
        connections: 0,
        retry: RetryPolicy::retries(12, Duration::from_millis(1), Duration::from_millis(16)),
        faults: None,
        read_timeout: Some(Period::ms(500)),
        seed: 0xC0FFEE,
        proto: LoadProto::Binary,
    };
    let report = client::run_load_with(&addr, schedule, opts);
    assert_eq!(
        report.errors,
        0,
        "errors after rejoin: {}",
        report.summary_line()
    );
    assert_eq!(
        report.lost(),
        0,
        "lost after rejoin: {}",
        report.summary_line()
    );

    let rreport = router.drain();
    assert!(
        rreport.ejections() >= 1,
        "victim was never ejected: {}",
        rreport.summary_line()
    );
    assert!(
        rreport.per_backend.iter().all(|b| b.healthy),
        "rejoined backend not healthy at exit: {}",
        rreport.summary_line()
    );
    survivor.terminate();
    revived.terminate();
    let _ = std::fs::remove_dir_all(&state_dir);
}

// ---------------------------------------------------------------------
// Control plane: one order of mutations, none lost to a replay, and a
// front door that accepts as connections arrive.
// ---------------------------------------------------------------------

/// Boots an in-process threads-model backend with an empty registry and
/// an HTTP gateway (for the digest scrape).
fn boot_empty_backend() -> (BackendSpec, Running<Daemon>) {
    let config = DaemonConfig {
        shards: NonZeroUsize::new(1).unwrap(),
        read_timeout: Period::ms(10),
        drain_timeout: Duration::from_secs(5),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        Some("127.0.0.1:0"),
        config,
        faascache_core::function::FunctionRegistry::new(),
    )
    .expect("bind backend");
    let Some(BoundAddr::Tcp(http)) = daemon.bound_http_addr() else {
        unreachable!("gateway is tcp")
    };
    let daemon = daemon.start();
    let spec = BackendSpec {
        addr: daemon.addr.clone(),
        http: Some(http),
    };
    (spec, daemon)
}

/// Regression: broadcasts used to take no lock, so two front connections
/// registering different names at once could reach backend 0 as (f, g)
/// and backend 1 as (g, f). Indices are minted in arrival order and the
/// first answer speaks for all, so the router then routed g's index to a
/// backend where it meant f.
#[test]
fn concurrent_registrations_mint_one_index_per_name_everywhere() {
    const THREADS: usize = 8;
    const NAMES_EACH: usize = 16;

    let (spec0, daemon0) = boot_empty_backend();
    let (spec1, daemon1) = boot_empty_backend();
    let specs = vec![spec0, spec1];
    let (_, router) = boot_router(specs.clone(), RouterConfig::default());
    let addr = router.addr.clone();

    let minted: Vec<(String, u32)> = thread::scope(|scope| {
        let registering: Vec<_> = (0..THREADS)
            .map(|t| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut conn =
                        Client::connect(addr, LoadProto::Binary).expect("connect router");
                    (0..NAMES_EACH)
                        .map(|i| {
                            let name = format!("fn-{t}-{i}");
                            let (index, created) = conn
                                .register(&name, 128, 1_000, 10_000)
                                .expect("broadcast register");
                            assert!(created, "{name} registered twice");
                            (name, index)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        registering
            .into_iter()
            .flat_map(|t| t.join().expect("registering thread"))
            .collect()
    });
    assert_eq!(minted.len(), THREADS * NAMES_EACH);

    for spec in &specs {
        let mut direct = Client::connect(&spec.addr, LoadProto::Binary).expect("connect backend");
        for (name, index) in &minted {
            let (on_backend, created) = direct
                .register(name, 128, 1_000, 10_000)
                .expect("look the name up");
            assert!(!created, "{name} never reached backend {spec}");
            assert_eq!(
                on_backend, *index,
                "{name}: the router answered index {index}, backend {spec} holds {on_backend}"
            );
        }
    }
    let digest = |spec: &BackendSpec| registry_digest(spec.http.expect("backend has a gateway"));
    assert_eq!(
        digest(&specs[0]),
        digest(&specs[1]),
        "registry digests diverge"
    );

    router.drain();
    daemon0.drain();
    daemon1.drain();
}

/// A stand-in backend that speaks just enough of the binary protocol to
/// be probed, ejected and re-admitted, and that can hold its reply to
/// the first `Register` of a replay for as long as the test likes.
#[cfg(unix)]
mod fake {
    use super::*;
    use faascache_server::proto::{self, Request, Response};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{self, Receiver, Sender};
    use std::sync::{Arc, Mutex};

    #[derive(Default)]
    pub struct State {
        /// Whether `Ping` is answered (else the connection is dropped).
        pub alive: AtomicBool,
        /// Whether the next `Register` is held until the gate opens.
        pub hold_next_register: AtomicBool,
        /// Whether a connection is closed after each `Register` reply,
        /// as a restarted or draining backend closes a standing one.
        pub hang_up_after_reply: AtomicBool,
        /// Whether a `Register` is answered by closing the connection.
        pub refuse_registers: AtomicBool,
        /// Names registered so far, in arrival order.
        pub names: Mutex<Vec<String>>,
    }

    pub struct FakeBackend {
        pub addr: BoundAddr,
        pub state: Arc<State>,
        /// Fires when a `Register` is being held.
        pub held: Receiver<()>,
        /// Opens the gate for the held `Register`.
        pub release: Sender<()>,
    }

    /// Binds the fake and serves it from detached threads: they end with
    /// the test process.
    pub fn spawn() -> FakeBackend {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
        let addr = BoundAddr::Tcp(listener.local_addr().expect("local addr"));
        let state = Arc::new(State::default());
        let (held_tx, held) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        let gate = Arc::new(Mutex::new(gate));
        let serving = Arc::clone(&state);
        thread::spawn(move || {
            for conn in listener.incoming().flatten() {
                let (state, held_tx, gate) =
                    (Arc::clone(&serving), held_tx.clone(), Arc::clone(&gate));
                thread::spawn(move || serve(conn, &state, &held_tx, &gate));
            }
        });
        FakeBackend {
            addr,
            state,
            held,
            release,
        }
    }

    fn serve(mut conn: TcpStream, state: &State, held_tx: &Sender<()>, gate: &Mutex<Receiver<()>>) {
        while let Ok(Some(payload)) = proto::read_frame(&mut conn) {
            let response = match Request::decode(&payload) {
                Ok(Request::Ping) if state.alive.load(Ordering::SeqCst) => Response::Pong,
                Ok(Request::Ping) => return,
                Ok(Request::Register { .. }) if state.refuse_registers.load(Ordering::SeqCst) => {
                    return
                }
                Ok(Request::Register { name, .. }) => {
                    if state.hold_next_register.swap(false, Ordering::SeqCst) {
                        // Detached thread: a test that has gone away
                        // ends the connection, not the process.
                        let released = held_tx.send(()).is_ok()
                            && gate.lock().is_ok_and(|gate| gate.recv().is_ok());
                        if !released {
                            return;
                        }
                    }
                    let mut names = state.names.lock().unwrap();
                    let known = names.iter().position(|n| *n == name);
                    if known.is_none() {
                        names.push(name);
                    }
                    Response::Registered {
                        function: known.unwrap_or(names.len() - 1) as u32,
                        created: known.is_none(),
                    }
                }
                Ok(Request::SetTenantQuota { .. }) => Response::QuotaSet { live: false },
                other => Response::Error(format!("the fake does not serve {other:?}")),
            };
            if proto::write_frame(&mut conn, &response.encode()).is_err() {
                return;
            }
            let registered = matches!(response, Response::Registered { .. });
            if registered && state.hang_up_after_reply.load(Ordering::SeqCst) {
                return;
            }
        }
    }
}

/// Regression: re-admission used to snapshot the mutation log, replay it
/// and only then have the prober flip `healthy`, all without a lock. A
/// `Register` acknowledged in between skipped the (still unhealthy)
/// backend *and* missed the snapshot, so the backend rejoined one
/// mutation short until its next ejection.
#[cfg(unix)]
#[test]
fn a_register_acknowledged_during_a_replay_reaches_the_rejoining_backend() {
    use std::sync::atomic::Ordering;

    let (survivor, daemon) = boot_empty_backend();
    let rejoining = fake::spawn();
    let specs = vec![
        survivor,
        BackendSpec {
            addr: rejoining.addr.clone(),
            http: None,
        },
    ];
    let config = RouterConfig {
        health_interval: Period::ms(10),
        eject_after: 1,
        readmit_backoff: Period::ms(10),
        readmit_cap: Duration::from_millis(20),
        ..RouterConfig::default()
    };
    let (http, router) = boot_router(specs, config);
    let addr = router.addr.clone();

    // The fake drops its probes: ejected. A registration meanwhile is
    // acknowledged by the survivor alone and logged for the replay.
    await_router_series(&http, "faasrouter_backend_healthy{backend=\"1\"}", 0);
    let mut conn = Client::connect(&addr, LoadProto::Binary).expect("connect router");
    let (before, created) = conn
        .register("before-replay", 128, 1_000, 10_000)
        .expect("register while ejected");
    assert!(created);
    assert!(rejoining.state.names.lock().unwrap().is_empty());

    // The fake comes back and holds the replay's first reply: the
    // backend is now *in* reconciliation, not yet healthy.
    rejoining
        .state
        .hold_next_register
        .store(true, Ordering::SeqCst);
    rejoining.state.alive.store(true, Ordering::SeqCst);
    rejoining
        .held
        .recv_timeout(Duration::from_secs(10))
        .expect("the replay never reached the rejoining backend");

    // A second registration arrives while the replay is held, and gets a
    // good while to slip through before the gate opens.
    let during = thread::scope(|scope| {
        let registering = scope.spawn(|| {
            conn.register("during-replay", 128, 1_000, 10_000)
                .expect("register during the replay")
        });
        thread::sleep(Duration::from_millis(100));
        rejoining.release.send(()).expect("open the gate");
        registering.join().expect("registering thread")
    });
    assert!(during.1, "during-replay registered twice");
    assert_ne!(during.0, before);

    await_router_series(&http, "faasrouter_backend_healthy{backend=\"1\"}", 1);
    assert_eq!(
        *rejoining.state.names.lock().unwrap(),
        ["before-replay", "during-replay"],
        "the backend rejoined without a mutation acknowledged during its replay"
    );

    drop(conn);
    router.drain();
    daemon.drain();
}

/// The redial-once rule of the control plane's standing connections: one
/// that died since its last use (here the backend hangs up after every
/// reply) costs the mutation a redial, not an error; a failure on the
/// fresh connection is the backend's answer and reaches the client.
#[cfg(unix)]
#[test]
fn a_dead_standing_connection_is_redialed_once() {
    use std::sync::atomic::Ordering;

    let backend = fake::spawn();
    backend.state.alive.store(true, Ordering::SeqCst);
    backend
        .state
        .hang_up_after_reply
        .store(true, Ordering::SeqCst);
    let spec = BackendSpec {
        addr: backend.addr.clone(),
        http: None,
    };
    let (_, router) = boot_router(vec![spec], RouterConfig::default());
    let addr = router.addr.clone();

    let mut conn = Client::connect(&addr, LoadProto::Binary).expect("connect router");
    for (i, name) in ["first", "second", "third"].into_iter().enumerate() {
        let (index, created) = conn
            .register(name, 128, 1_000, 10_000)
            .unwrap_or_else(|e| panic!("{name} over a hung-up standing connection: {e}"));
        assert_eq!((index, created), (i as u32, true), "{name}");
    }
    assert_eq!(
        *backend.state.names.lock().unwrap(),
        ["first", "second", "third"]
    );

    // The standing connection is dead again, and now so is every fresh
    // one: the redial's failure is reported, and nothing is logged.
    backend.state.refuse_registers.store(true, Ordering::SeqCst);
    let refused = conn
        .register("fourth", 128, 1_000, 10_000)
        .expect_err("a refused register was acknowledged");
    assert!(
        refused
            .to_string()
            .contains("register did not reach every healthy backend"),
        "{refused}"
    );
    assert_eq!(backend.state.names.lock().unwrap().len(), 3);

    drop(conn);
    router.drain();
}

/// Guard for the router's accept path (the daemon's is in `daemon.rs`):
/// a fresh front connection is served when the kernel queues it, and an
/// idle front wakes once per read timeout, not 500 times a second.
#[test]
fn the_router_accepts_as_connections_arrive_and_idles_in_the_kernel() {
    const BUDGET: Duration = Duration::from_micros(500);

    let (spec, daemon) = boot_empty_backend();
    let config = RouterConfig::default();
    let read_timeout = config.read_timeout;
    let (_, router) = boot_router(vec![spec], config);
    let addr = router.addr.clone();

    // Lowest of up to five medians over 200 dial + Ping + close round
    // trips: load on the host only lengthens one, and a sleep-paced
    // accept loop cannot get under its tick in any.
    let mut median = Duration::MAX;
    for _ in 0..5 {
        let mut took: Vec<Duration> = (0..200)
            .map(|_| {
                let t = Instant::now();
                Client::connect(&addr, LoadProto::Binary)
                    .expect("connect router")
                    .ping()
                    .expect("ping");
                t.elapsed()
            })
            .collect();
        took.sort();
        median = median.min(took[took.len() / 2]);
        if median < BUDGET {
            break;
        }
    }
    assert!(
        median < BUDGET,
        "dial + Ping + close took a median {median:?}"
    );

    thread::sleep(Duration::from_secs(1));
    let report = router.drain();
    // Per listener: one wake-up per read timeout of uptime, one for the
    // drain, one of slack; and one per connection accepted.
    let timeouts = report.uptime.as_millis() / read_timeout.get().as_millis();
    let bound = 2 * (timeouts as u64 + 2) + report.connections;
    assert!(
        (1..=bound).contains(&report.accept_wakeups),
        "{} accept-loop wake-ups in {:?}, bound {bound}",
        report.accept_wakeups,
        report.uptime
    );
    daemon.drain();
}

// ---------------------------------------------------------------------
// Differential vs sim::cluster.
// ---------------------------------------------------------------------

fn diff_requests() -> usize {
    match std::env::var("FAASCACHE_DIFF_REQUESTS") {
        Ok(v) => v.parse().expect("FAASCACHE_DIFF_REQUESTS must be a count"),
        Err(_) => 400,
    }
}

/// The skewed differential workload: a hot head makes locality matter,
/// so affinity visibly beats random in both worlds.
fn diff_trace() -> Trace {
    let workload = WorkloadConfig {
        functions: NonZeroUsize::new(32).unwrap(),
        seed: 11,
        horizon_mins: 10,
        zipf_exponent: 1.5,
    };
    let full = workload.build();
    let n = diff_requests().min(full.len());
    Trace::new(full.registry().clone(), full.invocations()[..n].to_vec())
}

const DIFF_SERVERS: usize = 3;
/// Per-server memory. Sized so locality, not raw capacity, decides the
/// hit ratio: much tighter and the zipf head saturates its affinity home
/// (drops drown the warm hits); much looser and random stops paying for
/// its scattered cold starts.
const DIFF_MEM: MemMb = MemMb::new(4096);
const DIFF_SEED: u64 = 1;

/// Replays `trace` through a live router over `DIFF_SERVERS` in-process
/// daemons with sequential closed-loop arrivals, returning the
/// per-backend routed counts and the client-observed (warm, cold) tally.
fn live_cluster_run(trace: &Trace, balancer: LoadBalancer) -> (Vec<u64>, (u64, u64)) {
    let dconfig = DaemonConfig {
        shards: NonZeroUsize::new(1).unwrap(),
        total_mem: DIFF_MEM,
        queue_bound: NonZeroUsize::new(1024).unwrap(),
        read_timeout: Period::ms(10),
        drain_timeout: Duration::from_secs(5),
        allow_remote_shutdown: false,
        io_model: IoModel::Threads,
        ..DaemonConfig::default()
    };
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let daemons: Vec<Running<Daemon>> = (0..DIFF_SERVERS)
        .map(|_| {
            Daemon::bind(&endpoint, None, dconfig.clone(), trace.registry().clone())
                .expect("bind daemon")
                .start()
        })
        .collect();
    let specs = daemons
        .iter()
        .map(|d| BackendSpec {
            addr: d.addr.clone(),
            http: None,
        })
        .collect();
    let config = RouterConfig {
        balancer,
        seed: DIFF_SEED,
        ..RouterConfig::default()
    };
    let (_, router) = boot_router(specs, config);
    let addr = router.addr.clone();

    // Closed loop: one connection, next request only after the previous
    // response — live routing decisions line up 1:1 with the simulator's
    // virtual-time arrival order.
    let schedule = OpenLoopSchedule::from_trace(trace, 10_000.0);
    let mut conn = Client::connect(&addr, LoadProto::Binary).expect("connect router");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let (mut warm, mut cold) = (0u64, 0u64);
    for function in schedule.functions() {
        match conn
            .invoke(function.index() as u32)
            .expect("closed-loop invoke")
        {
            InvokeOutcome::Warm => warm += 1,
            InvokeOutcome::Cold => cold += 1,
            other => panic!("unexpected outcome {other:?} on an unloaded cluster"),
        }
    }
    drop(conn);

    let rreport = router.drain();
    let routed = rreport.per_backend.iter().map(|b| b.routed).collect();
    for daemon in daemons {
        daemon.drain();
    }
    (routed, (warm, cold))
}

fn sim_cluster_run(trace: &Trace, balancer: LoadBalancer) -> faascache_sim::cluster::ClusterResult {
    run_cluster(
        trace,
        &ClusterConfig {
            servers: DIFF_SERVERS,
            per_server: SimConfig::new(DIFF_MEM, PolicyKind::GreedyDual),
            balancer,
            seed: DIFF_SEED,
        },
    )
}

/// Load-independent policies must route identically in the simulator and
/// on the live cluster: same picker, same seed, same arrival order ⇒ the
/// per-server request distributions match exactly.
#[test]
fn live_routing_matches_simulator_distributions() {
    let trace = diff_trace();
    for balancer in [
        LoadBalancer::FunctionAffinity,
        LoadBalancer::RoundRobin,
        LoadBalancer::Random,
    ] {
        let (live, _) = live_cluster_run(&trace, balancer);
        let sim = sim_cluster_run(&trace, balancer);
        let sim_routed: Vec<u64> = sim.per_server.iter().map(|t| t.total()).collect();
        assert_eq!(
            live, sim_routed,
            "{balancer:?}: live per-backend distribution diverges from simulator"
        );
        assert_eq!(
            live.iter().sum::<u64>(),
            trace.len() as u64,
            "{balancer:?}: requests unaccounted for"
        );
    }
}

/// FaasCache §9's locality claim, live: hash-affinity routing keeps a
/// function's warm containers on one server, so its warm-hit ratio beats
/// random scatter on a skewed trace — and the simulator predicts the
/// same ordering.
#[test]
fn live_affinity_beats_random_like_the_simulator_says() {
    let trace = diff_trace();
    let (_, (aff_warm, aff_cold)) = live_cluster_run(&trace, LoadBalancer::FunctionAffinity);
    let (_, (rand_warm, rand_cold)) = live_cluster_run(&trace, LoadBalancer::Random);
    let live_aff = aff_warm as f64 / (aff_warm + aff_cold) as f64;
    let live_rand = rand_warm as f64 / (rand_warm + rand_cold) as f64;

    let sim_aff = sim_cluster_run(&trace, LoadBalancer::FunctionAffinity).hit_ratio();
    let sim_rand = sim_cluster_run(&trace, LoadBalancer::Random).hit_ratio();

    eprintln!(
        "hit ratios: live affinity={live_aff:.3} random={live_rand:.3} | \
         sim affinity={sim_aff:.3} random={sim_rand:.3}"
    );
    assert!(
        live_aff >= live_rand,
        "live affinity ({live_aff:.3}) lost to random ({live_rand:.3})"
    );
    assert!(
        sim_aff >= sim_rand,
        "sim affinity ({sim_aff:.3}) lost to random ({sim_rand:.3})"
    );
}
