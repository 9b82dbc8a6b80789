//! Protocol conformance under deterministic chaos.
//!
//! Each test boots a real daemon on a real socket and drives it through
//! scripted fault schedules — injected resets, torn writes, short reads,
//! spurious timeouts, bit flips, and stalls on both sides of the wire —
//! asserting the serving path's safety contracts hold for every seed:
//!
//! - **No panics**: daemon and load threads all join cleanly.
//! - **Conservation**: the client accounts for every request exactly,
//!   `warm + cold + dropped + rejected + throttled + errors == requests`,
//!   no matter what the fault mix did to individual connections.
//!   (`throttled` can appear even without tenant quotas: a corrupted
//!   response byte may decode to any valid outcome code, including 4.)
//! - **Exactly-once under resets**: with retries + idempotency keys, a
//!   pure connection-reset regime loses nothing and the daemon's own
//!   outcome counters match the client's tallies exactly.
//! - **Bounded drain**: shutdown completes within the drain timeout even
//!   while faults are actively corrupting and resetting connections.
//!
//! Every fault decision derives from a seed, so a failure prints the seed
//! that reproduces it bit-for-bit. `FAASCACHE_CHAOS_SEEDS=N` widens the
//! sweep (CI runs 100); the default keeps local `cargo test` fast.
//!
//! Every contract is checked against **both serving cores**: each test
//! body is parameterized over [`IoModel`] and instantiated once for the
//! thread-per-connection model and once (on Linux) for the epoll
//! reactor, so the whole chaos matrix — including the 100-seed CI sweep —
//! runs against `--io-model epoll` too.

use faascache_platform::sharded::RebalanceConfig;
use faascache_platform::tenant::{TenantQuota, TenantQuotas};
use faascache_server::client::{self, Client, LoadOptions, LoadProto, RetryPolicy};
use faascache_server::daemon::{
    BoundAddr, Daemon, DaemonConfig, DaemonReport, Endpoint, IoModel, ShutdownHandle,
};
use faascache_server::fault::FaultConfig;
use faascache_server::WorkloadConfig;
use faascache_trace::replay::OpenLoopSchedule;
use faascache_util::MemMb;
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Slack for thread joins and socket teardown on top of the daemon's own
/// drain window.
const DRAIN_SLACK: Duration = Duration::from_secs(3);

fn chaos_seeds() -> Vec<u64> {
    let n: u64 = match std::env::var("FAASCACHE_CHAOS_SEEDS") {
        Ok(v) => v
            .parse()
            .expect("FAASCACHE_CHAOS_SEEDS must be a seed count"),
        Err(_) => 6,
    };
    (1..=n).collect()
}

/// The workload and schedule are identical across seeds; build them once.
fn shared_schedule() -> &'static (WorkloadConfig, OpenLoopSchedule) {
    static SCHED: OnceLock<(WorkloadConfig, OpenLoopSchedule)> = OnceLock::new();
    SCHED.get_or_init(|| {
        let workload = WorkloadConfig {
            functions: 32,
            seed: 11,
            horizon_mins: 10,
            ..WorkloadConfig::default()
        };
        let trace = workload.build();
        (workload, OpenLoopSchedule::from_trace(&trace, 10_000.0))
    })
}

fn chaos_daemon_config(io: IoModel, faults: Option<FaultConfig>) -> DaemonConfig {
    DaemonConfig {
        shards: 2,
        total_mem: MemMb::new(2048),
        queue_bound: 256,
        read_timeout: Duration::from_millis(10),
        drain_timeout: DRAIN_TIMEOUT,
        faults,
        // A corrupted opcode must not be able to decode into Shutdown
        // and kill the daemon mid-schedule.
        allow_remote_shutdown: false,
        io_model: io,
        ..DaemonConfig::default()
    }
}

fn boot(config: DaemonConfig) -> (BoundAddr, ShutdownHandle, thread::JoinHandle<DaemonReport>) {
    let (workload, _) = shared_schedule();
    boot_with(workload, config)
}

fn boot_with(
    workload: &WorkloadConfig,
    config: DaemonConfig,
) -> (BoundAddr, ShutdownHandle, thread::JoinHandle<DaemonReport>) {
    let trace = workload.build();
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let daemon = Daemon::bind(&endpoint, config, trace.registry().clone()).expect("bind daemon");
    let addr = daemon.bound_addr();
    let handle = daemon.shutdown_handle();
    let join = thread::spawn(move || daemon.run());
    client::await_ready(&addr, Duration::from_secs(5)).expect("daemon ready");
    (addr, handle, join)
}

fn retrying_load(requests: u64, retries: u32, faults: Option<FaultConfig>) -> LoadOptions {
    LoadOptions {
        target_rps: 10_000.0,
        requests,
        threads: 2,
        connections: 0,
        retry: RetryPolicy::retries(retries, Duration::from_millis(1), Duration::from_millis(16)),
        faults,
        read_timeout: Some(Duration::from_millis(250)),
        seed: 0xC0FFEE,
        proto: LoadProto::Binary,
    }
}

/// Boots a daemon serving BOTH listeners (binary + HTTP gateway) and
/// returns both addresses: HTTP chaos drives the gateway while the
/// binary address keeps `await_ready`/stats probes available.
fn boot_http(
    config: DaemonConfig,
) -> (
    BoundAddr,
    BoundAddr,
    ShutdownHandle,
    thread::JoinHandle<DaemonReport>,
) {
    let (workload, _) = shared_schedule();
    let trace = workload.build();
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let daemon = Daemon::bind_with_http(
        &endpoint,
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

/// Drains the daemon via its handle and asserts the drain is clean and
/// completes within the configured window (plus join slack).
fn drain_bounded(
    handle: &ShutdownHandle,
    join: thread::JoinHandle<DaemonReport>,
    seed: u64,
) -> DaemonReport {
    let asked = Instant::now();
    handle.request();
    let report = join.join().unwrap_or_else(|_| {
        panic!("daemon panicked under chaos seed {seed}");
    });
    let took = asked.elapsed();
    assert!(
        took < DRAIN_TIMEOUT + DRAIN_SLACK,
        "seed {seed}: drain took {took:?}, exceeding the {DRAIN_TIMEOUT:?} window"
    );
    assert!(report.drained, "seed {seed}: daemon reported drained=false");
    report
}

/// The main sweep: for every seed, a full chaos mix on the server side of
/// every connection AND the client side of every connection, with
/// retries. Asserts no panics anywhere, exact client-side conservation,
/// and clean bounded drain.
fn chaos_sweep(io: IoModel) {
    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds() {
        let server_faults = FaultConfig::chaos(seed);
        // Independent client-side schedule: derive from a distinct seed
        // space so the two sides' faults are uncorrelated.
        let client_faults = FaultConfig::chaos(seed ^ 0x5EED_5EED_5EED_5EED);
        let (addr, handle, join) = boot(chaos_daemon_config(io, Some(server_faults)));

        let opts = retrying_load(200, 8, Some(client_faults));
        let report = client::run_load_with(&addr, schedule, opts);

        assert_eq!(
            report.warm
                + report.cold
                + report.dropped
                + report.rejected
                + report.throttled
                + report.errors,
            report.requests,
            "seed {seed}: conservation violated: {}",
            report.summary_line()
        );
        assert_eq!(
            report.lost(),
            0,
            "seed {seed}: lost requests: {}",
            report.summary_line()
        );

        let daemon_report = drain_bounded(&handle, join, seed);
        eprintln!(
            "chaos seed {seed} ({io}): client[{}] daemon[{}]",
            report.summary_line(),
            daemon_report.summary_line()
        );
    }
}

#[test]
fn chaos_schedules_conserve_requests_and_drain_cleanly() {
    chaos_sweep(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn chaos_schedules_conserve_requests_and_drain_cleanly_epoll() {
    chaos_sweep(IoModel::Epoll);
}

/// Acceptance criterion: under a pure 5% connection-reset regime with
/// retries and idempotency keys, nothing is lost, nothing errors, and the
/// daemon's outcome counters match the client's tallies exactly — the
/// retry path is exactly-once end to end.
fn resets_exactly_once(io: IoModel) {
    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds() {
        let resets_only = FaultConfig {
            seed,
            reset: 0.05,
            ..FaultConfig::disabled()
        };
        let (addr, handle, join) = boot(chaos_daemon_config(io, Some(resets_only)));

        let opts = retrying_load(200, 12, None);
        let report = client::run_load_with(&addr, schedule, opts);

        assert_eq!(
            report.errors,
            0,
            "seed {seed}: retries exhausted: {}",
            report.summary_line()
        );
        assert_eq!(report.lost(), 0, "seed {seed}: lost requests");

        // Sole client, reset-only faults, dedup on: the daemon executed
        // each logical request exactly once, so its counters must equal
        // the client's tallies. The probe's own connection is faulted
        // too, so give it a few attempts of its own.
        let stats = (0..32)
            .find_map(|_| Client::connect(&addr).ok()?.stats().ok())
            .unwrap_or_else(|| panic!("seed {seed}: stats probe never survived the resets"));
        assert_eq!(
            (
                stats.warm,
                stats.cold,
                stats.dropped,
                stats.rejected,
                stats.throttled
            ),
            (
                report.warm,
                report.cold,
                report.dropped,
                report.rejected,
                report.throttled,
            ),
            "seed {seed}: daemon counters diverge from client tallies \
             (exactly-once violated): client[{}]",
            report.summary_line()
        );

        let daemon_report = drain_bounded(&handle, join, seed);
        assert!(
            report.retried == 0 || daemon_report.dedup_hits > 0 || daemon_report.frames > 0,
            "seed {seed}: inconsistent retry accounting"
        );
        eprintln!(
            "reset seed {seed} ({io}): retried={} dedup_hits={}",
            report.retried, daemon_report.dedup_hits
        );
    }
}

#[test]
fn retries_make_resets_lossless_and_exactly_once() {
    resets_exactly_once(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn retries_make_resets_lossless_and_exactly_once_epoll() {
    resets_exactly_once(IoModel::Epoll);
}

/// The chaos sweep with a journal attached: journaling must change no
/// wire semantics — the exact conservation, zero-loss, and bounded-drain
/// contracts of [`chaos_sweep`] hold unchanged — and every registration
/// the faulted wire acked must be durable in the journal afterwards.
fn journaled_chaos_sweep(io: IoModel) {
    use faascache_server::journal::Journal;
    use std::sync::{Arc, Mutex};

    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds() {
        let dir = std::env::temp_dir().join(format!(
            "faascache-chaos-journal-{}-{io}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) = Journal::open(&dir).expect("open journal");
        let mut config = chaos_daemon_config(io, Some(FaultConfig::chaos(seed)));
        config.journal = Some(Arc::new(Mutex::new(journal)));
        let (addr, handle, join) = boot(config);

        // Control-plane mutations ride the same faulted wire as the
        // load; retry each until the daemon acks it.
        let mut acked = Vec::new();
        for i in 0..4 {
            let name = format!("chaos-journal-fn-{i}");
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let result = Client::connect(&addr).and_then(|mut c| {
                    c.set_read_timeout(Some(Duration::from_millis(250)))?;
                    c.register_in(&name, 64, 500, 5_000, "chaos")
                });
                match result {
                    Ok(_) => {
                        acked.push(name);
                        break;
                    }
                    Err(e) => assert!(
                        Instant::now() < deadline,
                        "seed {seed}: register never acked: {e}"
                    ),
                }
            }
        }

        let client_faults = FaultConfig::chaos(seed ^ 0x5EED_5EED_5EED_5EED);
        let opts = retrying_load(200, 8, Some(client_faults));
        let report = client::run_load_with(&addr, schedule, opts);

        assert_eq!(
            report.warm
                + report.cold
                + report.dropped
                + report.rejected
                + report.throttled
                + report.errors,
            report.requests,
            "seed {seed}: conservation violated with journaling on: {}",
            report.summary_line()
        );
        assert_eq!(
            report.lost(),
            0,
            "seed {seed}: lost requests with journaling on: {}",
            report.summary_line()
        );
        drain_bounded(&handle, join, seed);

        // The journal survives whatever the chaos did: it reopens
        // cleanly with no torn tail (every append was fsynced whole).
        // Note: a *corrupted* response byte can forge a register ack, so
        // acked ⇒ journaled is only asserted under the reset-only regime
        // below — same reasoning as the exactly-once sweeps.
        let (_, recovered) = Journal::open(&dir).expect("reopen journal");
        assert_eq!(
            recovered.truncated_bytes, 0,
            "seed {seed}: journal has a torn tail after a clean drain"
        );
        assert!(
            !recovered.records.is_empty(),
            "seed {seed}: none of the {} acked registrations reached the journal",
            acked.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Reset-only faults cannot forge acks, so here the durability contract
/// is exact: every registration the client saw acked must be in the
/// journal after the drain.
fn journaled_resets_acked_means_durable(io: IoModel) {
    use faascache_server::journal::{Journal, JournalRecord};
    use std::sync::{Arc, Mutex};

    for seed in chaos_seeds() {
        let dir = std::env::temp_dir().join(format!(
            "faascache-reset-journal-{}-{io}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) = Journal::open(&dir).expect("open journal");
        let resets_only = FaultConfig {
            seed,
            reset: 0.05,
            ..FaultConfig::disabled()
        };
        let mut config = chaos_daemon_config(io, Some(resets_only));
        config.journal = Some(Arc::new(Mutex::new(journal)));
        let (addr, handle, join) = boot(config);

        let mut acked = Vec::new();
        for i in 0..16 {
            let name = format!("reset-journal-fn-{i}");
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let result = Client::connect(&addr).and_then(|mut c| {
                    c.set_read_timeout(Some(Duration::from_millis(250)))?;
                    c.register_in(&name, 64, 500, 5_000, "chaos")
                });
                match result {
                    Ok(_) => {
                        acked.push(name);
                        break;
                    }
                    Err(e) => assert!(
                        Instant::now() < deadline,
                        "seed {seed}: register never acked: {e}"
                    ),
                }
            }
        }
        drain_bounded(&handle, join, seed);

        let (_, recovered) = Journal::open(&dir).expect("reopen journal");
        for name in &acked {
            assert!(
                recovered
                    .records
                    .iter()
                    .any(|r| matches!(r, JournalRecord::Register { name: n, .. } if n == name)),
                "seed {seed}: acked registration {name} missing from the journal"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn journaled_chaos_conserves_requests_and_drains_cleanly() {
    journaled_chaos_sweep(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn journaled_chaos_conserves_requests_and_drains_cleanly_epoll() {
    journaled_chaos_sweep(IoModel::Epoll);
}

#[test]
fn journaled_resets_every_acked_register_is_durable() {
    journaled_resets_acked_means_durable(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn journaled_resets_every_acked_register_is_durable_epoll() {
    journaled_resets_acked_means_durable(IoModel::Epoll);
}

/// The chaos sweep over the HTTP gateway: server-side AND client-side
/// fault schedules mangle the HTTP connections (resets, torn writes,
/// short reads, stalls) while retrying load replays the shared schedule
/// as `POST /invoke/<fn>` with `Idempotency-Key` headers. The same
/// safety contracts as the binary sweep must hold: no panics anywhere,
/// exact conservation (`warm+cold+dropped+rejected+throttled+errors ==
/// requests` — 429/503 responses and short-read-induced transport errors
/// each land in exactly one bucket), zero losses, bounded drain.
fn http_chaos_sweep(io: IoModel) {
    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds() {
        let server_faults = FaultConfig::chaos(seed);
        let client_faults = FaultConfig::chaos(seed ^ 0x5EED_5EED_5EED_5EED);
        let (_, http_addr, handle, join) = boot_http(chaos_daemon_config(io, Some(server_faults)));

        let opts = LoadOptions {
            proto: LoadProto::Http,
            ..retrying_load(200, 8, Some(client_faults))
        };
        let report = client::run_load_with(&http_addr, schedule, opts);

        assert_eq!(
            report.warm
                + report.cold
                + report.dropped
                + report.rejected
                + report.throttled
                + report.errors,
            report.requests,
            "seed {seed}: HTTP conservation violated: {}",
            report.summary_line()
        );
        assert_eq!(
            report.lost(),
            0,
            "seed {seed}: HTTP lost requests: {}",
            report.summary_line()
        );

        let daemon_report = drain_bounded(&handle, join, seed);
        eprintln!(
            "http chaos seed {seed} ({io}): client[{}] daemon[{}]",
            report.summary_line(),
            daemon_report.summary_line()
        );
    }
}

#[test]
fn http_chaos_conserves_requests_and_drains_cleanly() {
    http_chaos_sweep(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn http_chaos_conserves_requests_and_drains_cleanly_epoll() {
    http_chaos_sweep(IoModel::Epoll);
}

/// Exactly-once over HTTP: under a pure reset regime, retried requests
/// carry `Idempotency-Key` headers into the same daemon-side cache the
/// binary protocol uses, so the daemon's outcome counters must match the
/// client's tallies exactly — a replayed invoke is answered from the
/// cache, never re-executed.
fn http_resets_exactly_once(io: IoModel) {
    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds() {
        let resets_only = FaultConfig {
            seed,
            reset: 0.05,
            ..FaultConfig::disabled()
        };
        let (addr, http_addr, handle, join) = boot_http(chaos_daemon_config(io, Some(resets_only)));

        let opts = LoadOptions {
            proto: LoadProto::Http,
            ..retrying_load(200, 12, None)
        };
        let report = client::run_load_with(&http_addr, schedule, opts);

        assert_eq!(
            report.errors,
            0,
            "seed {seed}: HTTP retries exhausted: {}",
            report.summary_line()
        );
        assert_eq!(report.lost(), 0, "seed {seed}: HTTP lost requests");

        let stats = (0..32)
            .find_map(|_| Client::connect(&addr).ok()?.stats().ok())
            .unwrap_or_else(|| panic!("seed {seed}: stats probe never survived the resets"));
        assert_eq!(
            (
                stats.warm,
                stats.cold,
                stats.dropped,
                stats.rejected,
                stats.throttled
            ),
            (
                report.warm,
                report.cold,
                report.dropped,
                report.rejected,
                report.throttled,
            ),
            "seed {seed}: daemon counters diverge from HTTP client tallies \
             (exactly-once violated): client[{}]",
            report.summary_line()
        );

        let daemon_report = drain_bounded(&handle, join, seed);
        eprintln!(
            "http reset seed {seed} ({io}): retried={} dedup_hits={}",
            report.retried, daemon_report.dedup_hits
        );
    }
}

#[test]
fn http_retries_make_resets_lossless_and_exactly_once() {
    http_resets_exactly_once(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn http_retries_make_resets_lossless_and_exactly_once_epoll() {
    http_resets_exactly_once(IoModel::Epoll);
}

/// A Zipf-skewed variant of the shared schedule: the hot head gives the
/// rebalancer something to migrate while faults fly.
fn skewed_schedule() -> &'static (WorkloadConfig, OpenLoopSchedule) {
    static SCHED: OnceLock<(WorkloadConfig, OpenLoopSchedule)> = OnceLock::new();
    SCHED.get_or_init(|| {
        let workload = WorkloadConfig {
            functions: 32,
            seed: 11,
            horizon_mins: 10,
            zipf_exponent: 1.5,
        };
        let trace = workload.build();
        (workload, OpenLoopSchedule::from_trace(&trace, 10_000.0))
    })
}

/// The chaos daemon config with load-aware routing fully enabled: p2c
/// admission plus warm-set re-homing on an aggressive tick cadence, so
/// migrations actually race the faulted serving path during these short
/// runs.
fn rebalancing_daemon_config(io: IoModel, faults: Option<FaultConfig>) -> DaemonConfig {
    DaemonConfig {
        p2c: Some(1),
        rebalance: Some(RebalanceConfig {
            factor: 1.2,
            ticks: 1,
        }),
        reap_interval: Duration::from_millis(2),
        ..chaos_daemon_config(io, faults)
    }
}

/// The full chaos sweep re-run with p2c + re-homing enabled on a skewed
/// workload: every safety contract of the affinity-only sweep must
/// survive warm sets migrating between shards mid-fault — conservation,
/// zero losses, bounded drain.
fn rebalancing_chaos_sweep(io: IoModel) {
    let (workload, schedule) = skewed_schedule();
    for seed in chaos_seeds() {
        let server_faults = FaultConfig::chaos(seed);
        let client_faults = FaultConfig::chaos(seed ^ 0x5EED_5EED_5EED_5EED);
        let (addr, handle, join) =
            boot_with(workload, rebalancing_daemon_config(io, Some(server_faults)));

        let opts = retrying_load(200, 8, Some(client_faults));
        let report = client::run_load_with(&addr, schedule, opts);

        assert_eq!(
            report.warm
                + report.cold
                + report.dropped
                + report.rejected
                + report.throttled
                + report.errors,
            report.requests,
            "seed {seed}: conservation violated with rebalancing on: {}",
            report.summary_line()
        );
        assert_eq!(
            report.lost(),
            0,
            "seed {seed}: lost requests with rebalancing on: {}",
            report.summary_line()
        );

        // Counter cross-checks against the daemon are only sound without
        // bit flips (a corrupted frame can fabricate a "served" response
        // the daemon never executed) — the reset-only test below does
        // that; here the client-side ledger and the bounded drain are
        // the contract.
        let daemon_report = drain_bounded(&handle, join, seed);
        eprintln!(
            "rebalancing chaos seed {seed} ({io}): migrations={} client[{}] daemon[{}]",
            daemon_report.stats.migrations,
            report.summary_line(),
            daemon_report.summary_line()
        );
    }
}

#[test]
fn chaos_with_rebalancing_conserves_requests_and_drains_cleanly() {
    rebalancing_chaos_sweep(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn chaos_with_rebalancing_conserves_requests_and_drains_cleanly_epoll() {
    rebalancing_chaos_sweep(IoModel::Epoll);
}

/// Exactly-once must survive re-homing: under a pure reset regime with
/// retries + idempotency keys AND the rebalancer migrating the skewed
/// workload's warm sets, nothing is lost and the daemon's counters still
/// match the client's tallies exactly. A retry routed to a different
/// shard than its first attempt (the override flipped between them) must
/// still dedup, not double-execute.
fn rebalancing_resets_exactly_once(io: IoModel) {
    let (workload, schedule) = skewed_schedule();
    for seed in chaos_seeds() {
        let resets_only = FaultConfig {
            seed,
            reset: 0.05,
            ..FaultConfig::disabled()
        };
        let (addr, handle, join) =
            boot_with(workload, rebalancing_daemon_config(io, Some(resets_only)));

        let opts = retrying_load(200, 12, None);
        let report = client::run_load_with(&addr, schedule, opts);

        assert_eq!(
            report.errors,
            0,
            "seed {seed}: retries exhausted: {}",
            report.summary_line()
        );
        assert_eq!(report.lost(), 0, "seed {seed}: lost requests");

        let stats = (0..32)
            .find_map(|_| Client::connect(&addr).ok()?.stats().ok())
            .unwrap_or_else(|| panic!("seed {seed}: stats probe never survived the resets"));
        assert_eq!(
            (
                stats.warm,
                stats.cold,
                stats.dropped,
                stats.rejected,
                stats.throttled
            ),
            (
                report.warm,
                report.cold,
                report.dropped,
                report.rejected,
                report.throttled,
            ),
            "seed {seed}: daemon counters diverge from client tallies with \
             rebalancing on (exactly-once violated): client[{}]",
            report.summary_line()
        );

        let daemon_report = drain_bounded(&handle, join, seed);
        eprintln!(
            "rebalancing reset seed {seed} ({io}): migrations={} retried={} dedup_hits={}",
            daemon_report.stats.migrations, report.retried, daemon_report.dedup_hits
        );
    }
}

#[test]
fn rebalancing_preserves_exactly_once_under_resets() {
    rebalancing_resets_exactly_once(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn rebalancing_preserves_exactly_once_under_resets_epoll() {
    rebalancing_resets_exactly_once(IoModel::Epoll);
}

/// Boots the chaos daemon with the shared workload's functions split
/// between two tenants — even registry indices belong to `alpha`, odd to
/// `beta` — under the given quota table.
fn boot_tenants(
    io: IoModel,
    faults: Option<FaultConfig>,
    quotas: TenantQuotas,
) -> (BoundAddr, ShutdownHandle, thread::JoinHandle<DaemonReport>) {
    let (workload, _) = shared_schedule();
    let trace = workload.build();
    let mut registry = trace.registry().clone();
    let ids: Vec<_> = registry.iter().map(|spec| spec.id()).collect();
    for (i, id) in ids.into_iter().enumerate() {
        registry.set_tenant(id, if i % 2 == 0 { "alpha" } else { "beta" });
    }
    let config = DaemonConfig {
        tenant_quotas: quotas,
        ..chaos_daemon_config(io, faults)
    };
    let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
    let daemon = Daemon::bind(&endpoint, config, registry).expect("bind tenant daemon");
    let addr = daemon.bound_addr();
    let handle = daemon.shutdown_handle();
    let join = thread::spawn(move || daemon.run());
    client::await_ready(&addr, Duration::from_secs(5)).expect("daemon ready");
    (addr, handle, join)
}

/// A fault mix with every chaos ingredient EXCEPT corruption: bit flips
/// can rewrite a response's outcome code in flight, which would fabricate
/// throttles for a tenant whose quota is unlimited and make per-tenant
/// assertions meaningless. Resets, torn writes, short reads, timeouts,
/// and stalls keep the transport hostile while leaving every decoded
/// outcome genuine.
fn uncorrupted_chaos(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        reset: 0.02,
        torn_write: 0.05,
        short_read: 0.05,
        timeout: 0.02,
        stall: 0.01,
        stall_ms: 2,
        ..FaultConfig::disabled()
    }
}

/// Multi-tenant chaos: the shared schedule is split into per-tenant
/// slices driven by two concurrent retrying clients while fault schedules
/// mangle the transport. `alpha` runs under a tight in-flight budget,
/// `beta` is unlimited. Contracts, per tenant:
///
/// - conservation: `warm+cold+dropped+rejected+throttled+errors ==
///   requests` for each tenant's client independently, zero losses;
/// - isolation: the unlimited tenant is never throttled, no matter how
///   hard the budgeted one slams into its quota;
/// - bounded drain with both tenants' connections still faulting.
fn multi_tenant_chaos_conserves_per_tenant(io: IoModel) {
    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds() {
        let mut quotas = TenantQuotas::unlimited();
        quotas.set(
            "alpha",
            TenantQuota {
                inflight: 2,
                mem_mb: u64::MAX,
            },
        );
        let (addr, handle, join) = boot_tenants(io, Some(uncorrupted_chaos(seed)), quotas);

        let alpha_sched = schedule.filtered(|f| f.index() % 2 == 0);
        let beta_sched = schedule.filtered(|f| f.index() % 2 == 1);
        // Distinct client fault schedules AND distinct idempotency-key
        // seeds: a shared key space would let one tenant's retry dedup
        // against the other tenant's cached outcome.
        let alpha_opts = LoadOptions {
            seed: 0xA1FA,
            ..retrying_load(150, 8, Some(uncorrupted_chaos(seed ^ 0x5EED)))
        };
        let beta_opts = LoadOptions {
            seed: 0xBE7A,
            ..retrying_load(150, 8, Some(uncorrupted_chaos(seed ^ 0xBEEF)))
        };

        let (alpha, beta) = thread::scope(|scope| {
            let addr2 = addr.clone();
            let alpha =
                scope.spawn(move || client::run_load_with(&addr2, &alpha_sched, alpha_opts));
            let beta = client::run_load_with(&addr, &beta_sched, beta_opts);
            (alpha.join().expect("alpha load thread panicked"), beta)
        });

        for (tenant, report) in [("alpha", &alpha), ("beta", &beta)] {
            assert_eq!(
                report.warm
                    + report.cold
                    + report.dropped
                    + report.rejected
                    + report.throttled
                    + report.errors,
                report.requests,
                "seed {seed}: tenant {tenant} conservation violated: {}",
                report.summary_line()
            );
            assert_eq!(
                report.lost(),
                0,
                "seed {seed}: tenant {tenant} lost requests: {}",
                report.summary_line()
            );
        }
        assert_eq!(
            beta.throttled,
            0,
            "seed {seed}: unlimited tenant beta was throttled: {}",
            beta.summary_line()
        );

        let daemon_report = drain_bounded(&handle, join, seed);
        eprintln!(
            "tenant chaos seed {seed} ({io}): alpha[{}] beta[{}] daemon[{}]",
            alpha.summary_line(),
            beta.summary_line(),
            daemon_report.summary_line()
        );
    }
}

#[test]
fn multi_tenant_chaos_conserves_each_tenants_requests() {
    multi_tenant_chaos_conserves_per_tenant(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn multi_tenant_chaos_conserves_each_tenants_requests_epoll() {
    multi_tenant_chaos_conserves_per_tenant(IoModel::Epoll);
}

/// Exactly-once with tenants: under a pure reset regime with retries and
/// idempotency keys, a throttled request whose response was lost must
/// dedup on retry like any other outcome — the tenant's throttle counter
/// ticks once per logical request, never once per attempt. The daemon's
/// aggregate counters (including `throttled`) must equal the sum of both
/// tenants' client tallies.
fn multi_tenant_resets_exactly_once(io: IoModel) {
    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds() {
        let resets_only = FaultConfig {
            seed,
            reset: 0.05,
            ..FaultConfig::disabled()
        };
        let mut quotas = TenantQuotas::unlimited();
        quotas.set(
            "alpha",
            TenantQuota {
                inflight: 2,
                mem_mb: u64::MAX,
            },
        );
        let (addr, handle, join) = boot_tenants(io, Some(resets_only), quotas);

        let alpha_sched = schedule.filtered(|f| f.index() % 2 == 0);
        let beta_sched = schedule.filtered(|f| f.index() % 2 == 1);
        let alpha_opts = LoadOptions {
            seed: 0xA1FA,
            ..retrying_load(150, 12, None)
        };
        let beta_opts = LoadOptions {
            seed: 0xBE7A,
            ..retrying_load(150, 12, None)
        };

        let (alpha, beta) = thread::scope(|scope| {
            let addr2 = addr.clone();
            let alpha =
                scope.spawn(move || client::run_load_with(&addr2, &alpha_sched, alpha_opts));
            let beta = client::run_load_with(&addr, &beta_sched, beta_opts);
            (alpha.join().expect("alpha load thread panicked"), beta)
        });

        for (tenant, report) in [("alpha", &alpha), ("beta", &beta)] {
            assert_eq!(
                report.errors,
                0,
                "seed {seed}: tenant {tenant} retries exhausted: {}",
                report.summary_line()
            );
            assert_eq!(
                report.lost(),
                0,
                "seed {seed}: tenant {tenant} lost requests"
            );
        }
        assert_eq!(beta.throttled, 0, "seed {seed}: unlimited tenant throttled");

        // Reset-only faults and dedup on: each logical request executed
        // (or throttled) exactly once daemon-side, so the aggregate
        // counters must equal the two clients' tallies summed.
        let stats = (0..32)
            .find_map(|_| Client::connect(&addr).ok()?.stats().ok())
            .unwrap_or_else(|| panic!("seed {seed}: stats probe never survived the resets"));
        assert_eq!(
            (
                stats.warm,
                stats.cold,
                stats.dropped,
                stats.rejected,
                stats.throttled,
            ),
            (
                alpha.warm + beta.warm,
                alpha.cold + beta.cold,
                alpha.dropped + beta.dropped,
                alpha.rejected + beta.rejected,
                alpha.throttled + beta.throttled,
            ),
            "seed {seed}: daemon counters diverge from summed tenant tallies \
             (exactly-once violated): alpha[{}] beta[{}]",
            alpha.summary_line(),
            beta.summary_line()
        );

        let daemon_report = drain_bounded(&handle, join, seed);
        eprintln!(
            "tenant reset seed {seed} ({io}): alpha throttled={} retried={} \
             beta retried={} dedup_hits={}",
            alpha.throttled, alpha.retried, beta.retried, daemon_report.dedup_hits
        );
    }
}

#[test]
fn multi_tenant_retries_stay_exactly_once_under_resets() {
    multi_tenant_resets_exactly_once(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn multi_tenant_retries_stay_exactly_once_under_resets_epoll() {
    multi_tenant_resets_exactly_once(IoModel::Epoll);
}

/// Shutdown mid-run while faults are actively mangling connections: the
/// drain must still complete within its window and the client must still
/// account for every request (stragglers become rejections or errors,
/// never silent losses).
fn drain_under_faults(io: IoModel) {
    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds().into_iter().take(3) {
        let (addr, handle, join) = boot(chaos_daemon_config(io, Some(FaultConfig::chaos(seed))));

        let opts = retrying_load(400, 3, None);
        let load = {
            let addr = addr.clone();
            thread::spawn(move || client::run_load_with(&addr, schedule, opts))
        };
        // Let the run get going, then yank the daemon out from under it.
        thread::sleep(Duration::from_millis(30));
        let daemon_report = drain_bounded(&handle, join, seed);

        let report = load.join().expect("load thread panicked");
        assert_eq!(
            report.lost(),
            0,
            "seed {seed}: requests lost during faulty drain: {}",
            report.summary_line()
        );
        assert!(daemon_report.drained, "seed {seed}: drain failed");
    }
}

#[test]
fn drain_under_active_faults_is_bounded_and_conserving() {
    drain_under_faults(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn drain_under_active_faults_is_bounded_and_conserving_epoll() {
    drain_under_faults(IoModel::Epoll);
}

/// With remote shutdown disabled, a wire Shutdown frame (which fault
/// corruption could fabricate) is answered with an error and the daemon
/// keeps serving; only the handle (or a signal) drains it.
fn shutdown_gate(io: IoModel) {
    let (addr, handle, join) = boot(chaos_daemon_config(io, None));
    let mut c = Client::connect(&addr).expect("connect");
    let err = c.shutdown().expect_err("gated shutdown must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    c.ping()
        .expect("daemon must survive a gated shutdown request");
    drop(c);
    let report = drain_bounded(&handle, join, 0);
    assert_eq!(report.protocol_errors, 0);
}

#[test]
fn shutdown_gate_blocks_wire_shutdown() {
    shutdown_gate(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn shutdown_gate_blocks_wire_shutdown_epoll() {
    shutdown_gate(IoModel::Epoll);
}

/// One meaning of `protocol_errors` under both drivers (ROADMAP 4(f)):
/// malformed or stalled input. A connection reset is weather on the
/// transport, whichever side of a frame it strikes, and is not counted —
/// here under a 5 % injected-reset regime that the client's retries must
/// visibly have worked through.
fn resets_are_not_protocol_errors(io: IoModel) {
    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds() {
        let resets_only = FaultConfig {
            seed,
            reset: 0.05,
            ..FaultConfig::disabled()
        };
        let (addr, handle, join) = boot(chaos_daemon_config(io, Some(resets_only)));
        let report = client::run_load_with(&addr, schedule, retrying_load(200, 12, None));
        assert!(report.retried > 0, "seed {seed}: no reset ever struck");
        let daemon_report = drain_bounded(&handle, join, seed);
        assert_eq!(
            daemon_report.protocol_errors,
            0,
            "seed {seed} ({io}): resets counted as protocol errors: {}",
            daemon_report.summary_line()
        );
    }
}

#[test]
fn resets_are_not_counted_as_protocol_errors() {
    resets_are_not_protocol_errors(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn resets_are_not_counted_as_protocol_errors_epoll() {
    resets_are_not_protocol_errors(IoModel::Epoll);
}

/// The same meaning on a clean daemon, with a real RST from a real peer:
/// the reset is not a protocol error, a frame cut short by EOF is one,
/// and so is an HTTP request cut short by EOF — under both drivers.
#[cfg(target_os = "linux")]
fn only_malformed_input_is_a_protocol_error(io: IoModel) {
    use faascache_server::proto::{self, Request};
    use std::io::Write;
    use std::net::TcpStream;

    let (addr, http_addr, handle, join) = boot_http(chaos_daemon_config(io, None));
    let (BoundAddr::Tcp(sock), BoundAddr::Tcp(http_sock)) = (&addr, &http_addr) else {
        unreachable!("tcp endpoints")
    };
    let mut scraper = faascache_server::HttpClient::connect(&http_addr).expect("connect gateway");
    let mut gauge = |name: &str| -> u64 {
        let body = scraper.metrics().expect("scrape metrics");
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("metrics missing {name}:\n{body}"))
    };
    // Waits until the daemon has accepted `more` connections since the
    // scraper's and reaped every one of them, then reads the
    // protocol-error count.
    let accepted_before = gauge("faascache_connections_total ");
    let mut errors_once_reaped = |more: u64| -> u64 {
        let deadline = Instant::now() + Duration::from_secs(5);
        while gauge("faascache_connections_total ") != accepted_before + more
            || gauge("faascache_open_connections ") != 1
        {
            assert!(Instant::now() < deadline, "connection {more} never reaped");
            thread::sleep(Duration::from_millis(5));
        }
        gauge("faascache_protocol_errors_total ")
    };

    // A real reset: closing a socket with an unread reply in its
    // receive buffer makes the kernel send RST instead of FIN.
    let mut ping = Vec::new();
    proto::write_frame(&mut ping, &Request::Ping.encode()).expect("Vec write");
    let mut resetting = TcpStream::connect(sock).expect("connect");
    resetting.write_all(&ping).expect("send ping");
    thread::sleep(Duration::from_millis(50)); // the Pong lands unread
    drop(resetting);
    assert_eq!(errors_once_reaped(1), 0, "{io}: a reset was counted");

    // A frame cut short, then EOF.
    let mut truncated = TcpStream::connect(sock).expect("connect");
    truncated
        .write_all(&ping[..ping.len() - 1])
        .expect("send a frame short of its last byte");
    drop(truncated);
    assert_eq!(errors_once_reaped(2), 1, "{io}: EOF inside a frame");

    // Half an HTTP request, then EOF.
    let mut truncated = TcpStream::connect(http_sock).expect("connect gateway");
    truncated
        .write_all(b"POST /invoke/1 HT")
        .expect("send half a request");
    drop(truncated);
    assert_eq!(errors_once_reaped(3), 2, "{io}: EOF inside an HTTP request");

    drop(scraper);
    let report = drain_bounded(&handle, join, 0);
    assert_eq!(report.protocol_errors, 2, "{io}: {}", report.summary_line());
}

#[cfg(target_os = "linux")]
#[test]
fn only_malformed_input_counts_as_a_protocol_error() {
    only_malformed_input_is_a_protocol_error(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn only_malformed_input_counts_as_a_protocol_error_epoll() {
    only_malformed_input_is_a_protocol_error(IoModel::Epoll);
}

/// Serving on the reading thread must not let one peer hold the loop.
/// Three hostile peers at once — one stalled mid-frame, one that floods
/// requests and never reads a reply, one that trickles its frames a byte
/// at a time — and a fourth, well-behaved connection still gets its
/// sequential pings answered in a normal round-trip time, while the
/// stalled peer is cut at the stall limit, not before and not never.
#[cfg(target_os = "linux")]
#[test]
fn stalled_peers_cannot_hold_the_loop_epoll() {
    use faascache_server::proto::{self, Request};
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const READ_TIMEOUT: Duration = Duration::from_millis(50);
    const STALL_LIMIT: Duration = Duration::from_millis(500);
    const PING_BUDGET: Duration = Duration::from_micros(200);

    let config = DaemonConfig {
        read_timeout: READ_TIMEOUT,
        ..chaos_daemon_config(IoModel::Epoll, None)
    };
    let (addr, handle, join) = boot(config);
    let BoundAddr::Tcp(sock) = &addr else {
        unreachable!("tcp endpoint")
    };
    let mut ping = Vec::new();
    proto::write_frame(&mut ping, &Request::Ping.encode()).expect("Vec write");

    // Floods pings and never reads: writes until the daemon stops taking
    // them (and then blocks) or the test hangs up on it.
    let flood = TcpStream::connect(sock).expect("connect flood");
    let mut flooding = flood.try_clone().expect("clone");
    let burst = ping.repeat(8 * 1024);
    let bursts = Arc::new(AtomicU64::new(0));
    let flooder = {
        let bursts = Arc::clone(&bursts);
        thread::spawn(move || {
            while flooding.write_all(&burst).is_ok() {
                bursts.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    // Both kernel buffers and the daemon's share fill up, then the
    // flooder's `write` blocks: wait until it has stopped getting on.
    let mut seen = u64::MAX;
    while seen != bursts.load(Ordering::SeqCst) {
        seen = bursts.load(Ordering::SeqCst);
        thread::sleep(Duration::from_millis(100));
    }

    // Trickles whole pings one byte per write.
    let stop = Arc::new(AtomicBool::new(false));
    let trickled = Arc::new(AtomicU64::new(0));
    let mut trickle = TcpStream::connect(sock).expect("connect trickle");
    trickle.set_nodelay(true).expect("nodelay");
    trickle
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let trickler = {
        let (stop, trickled, ping) = (Arc::clone(&stop), Arc::clone(&trickled), ping.clone());
        thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                for byte in &ping {
                    trickle
                        .write_all(std::slice::from_ref(byte))
                        .expect("trickle");
                    thread::sleep(Duration::from_micros(100));
                }
                proto::read_frame(&mut trickle)
                    .expect("trickled ping answered")
                    .expect("a pong, not eof");
                trickled.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    // Starts a frame and goes quiet.
    let mut stalled = TcpStream::connect(sock).expect("connect stalled");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stalled.write_all(&ping[..3]).expect("send half a frame");
    let stalled_at = Instant::now();

    // The fourth connection. The lowest of up to five medians: a loaded
    // host can only lengthen one.
    let mut c = Client::connect(&addr).expect("connect");
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let mut took: Vec<Duration> = (0..1_000)
            .map(|_| {
                let t = Instant::now();
                c.ping().expect("ping beside hostile peers");
                t.elapsed()
            })
            .collect();
        took.sort();
        best = best.min(took[took.len() / 2]);
        if best < PING_BUDGET {
            break;
        }
    }
    assert!(
        best < PING_BUDGET,
        "median ping beside three hostile peers took {best:?}"
    );

    // The stalled peer is hung up on at the stall limit.
    let mut rest = Vec::new();
    let _ = stalled.read_to_end(&mut rest);
    let cut_after = stalled_at.elapsed();
    assert!(rest.is_empty(), "half a frame was answered: {rest:?}");
    assert!(
        cut_after >= STALL_LIMIT && cut_after < STALL_LIMIT + Duration::from_secs(3),
        "stalled peer cut after {cut_after:?}, stall limit {STALL_LIMIT:?}"
    );

    stop.store(true, Ordering::SeqCst);
    trickler.join().expect("trickler");
    assert!(
        trickled.load(Ordering::SeqCst) > 0,
        "no trickled ping made it"
    );
    // Unblock the flooder's `write`, then close the socket for real: a
    // peer that stays connected without reading would hold its replies'
    // place in the drain until the drain window closes, by design.
    flood.shutdown(Shutdown::Both).expect("hang up the flood");
    flooder.join().expect("flooder");
    drop(flood);
    drop(c);

    let report = drain_bounded(&handle, join, 0);
    eprintln!(
        "hostile peers: median ping {best:?}, stalled peer cut after {cut_after:?}, \
         {} trickled pings, daemon[{}]",
        trickled.load(Ordering::SeqCst),
        report.summary_line()
    );
    assert_eq!(
        report.protocol_errors,
        1,
        "only the stalled peer is a protocol error: {}",
        report.summary_line()
    );
    assert_eq!(report.handoffs, 0);
    assert!(
        (1..128 * 1024).contains(&report.peak_out_bytes),
        "the daemon held {} reply bytes for the flooding peer",
        report.peak_out_bytes
    );
}

/// Real SIGTERM against the real binary while server-side faults are
/// active: the process must drain and exit zero, reporting drained=true
/// on its summary line. Runs the daemon as a child process so the global
/// signal flag of this test process stays untouched.
#[cfg(unix)]
fn sigterm_drains_child(io: IoModel) {
    use std::process::{Command, Stdio};

    let sock = std::env::temp_dir().join(format!(
        "faascached-sigterm-{}-{}.sock",
        std::process::id(),
        io
    ));
    let _ = std::fs::remove_file(&sock);
    let mut child = Command::new(env!("CARGO_BIN_EXE_faascached"))
        .args([
            "--unix",
            sock.to_str().expect("utf8 path"),
            "--io-model",
            &io.to_string(),
            "--shards",
            "2",
            "--functions",
            "32",
            "--seed",
            "11",
            "--faults",
            "seed=3,reset=0.01,torn=0.05,short-read=0.05,timeout=0.02,stall=0.01,stall-ms=2",
            "--no-remote-shutdown",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn faascached");

    let addr = BoundAddr::Unix(sock.clone());
    client::await_ready(&addr, Duration::from_secs(10)).expect("child daemon ready");

    // Put some faulty traffic through it so the drain has work to bound.
    let (_, schedule) = shared_schedule();
    let report = client::run_load_with(&addr, schedule, retrying_load(100, 8, None));
    assert_eq!(report.lost(), 0, "lost requests against child daemon");

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success(), "kill -TERM failed");

    let deadline = Instant::now() + DRAIN_TIMEOUT + DRAIN_SLACK;
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("faascached did not exit within the drain window after SIGTERM");
            }
            None => thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(status.success(), "faascached exited nonzero: {status:?}");

    let mut stdout = String::new();
    use std::io::Read as _;
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout)
        .expect("read child stdout");
    assert!(
        stdout.contains("drained=true"),
        "summary line must report a clean drain, got: {stdout:?}"
    );
    assert!(!sock.exists(), "socket file must be unlinked on exit");
}

#[cfg(unix)]
#[test]
fn sigterm_drains_the_faulted_daemon_process() {
    sigterm_drains_child(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn sigterm_drains_the_faulted_daemon_process_epoll() {
    sigterm_drains_child(IoModel::Epoll);
}

// ---------------------------------------------------------------------
// Cluster hop chaos: a faas-router between the client and N daemons,
// with the FaultyStream matrix applied to the router→backend hop.
// ---------------------------------------------------------------------

use faascache_server::router::{BackendSpec, Router, RouterConfig, RouterReport};

type DaemonHandles = Vec<(BoundAddr, ShutdownHandle, thread::JoinHandle<DaemonReport>)>;

/// Boots three clean in-process daemons behind an in-process router
/// whose *backend data connections* carry `hop_faults`. The client→
/// router leg stays clean so the hop is the only thing under test, and
/// probe/register traffic is control-plane (never faulted) by design.
fn boot_cluster(
    io: IoModel,
    hop_faults: Option<FaultConfig>,
) -> (
    BoundAddr,
    DaemonHandles,
    ShutdownHandle,
    thread::JoinHandle<RouterReport>,
) {
    let (workload, _) = shared_schedule();
    let trace = workload.build();
    let mut daemons = Vec::new();
    let mut specs = Vec::new();
    for _ in 0..3 {
        let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
        let daemon = Daemon::bind(
            &endpoint,
            chaos_daemon_config(io, None),
            trace.registry().clone(),
        )
        .expect("bind daemon");
        let addr = daemon.bound_addr();
        let handle = daemon.shutdown_handle();
        let join = thread::spawn(move || daemon.run());
        client::await_ready(&addr, Duration::from_secs(5)).expect("daemon ready");
        specs.push(BackendSpec {
            addr: addr.clone(),
            http: None,
        });
        daemons.push((addr, handle, join));
    }
    let config = RouterConfig {
        backend_faults: hop_faults,
        hop_retries: 8,
        backend_read_timeout: Duration::from_millis(250),
        health_interval: Duration::from_millis(50),
        drain_timeout: DRAIN_TIMEOUT,
        ..RouterConfig::default()
    };
    let router = Router::bind(
        &Endpoint::Tcp("127.0.0.1:0".to_string()),
        None,
        config,
        specs,
    )
    .expect("bind router");
    let addr = router.bound_addr();
    let handle = router.shutdown_handle();
    let join = thread::spawn(move || router.run());
    client::await_ready(&addr, Duration::from_secs(5)).expect("router ready");
    (addr, daemons, handle, join)
}

/// Drains the router within its window, then every daemon within theirs.
fn drain_cluster_bounded(
    daemons: DaemonHandles,
    handle: ShutdownHandle,
    join: thread::JoinHandle<RouterReport>,
    seed: u64,
) -> RouterReport {
    let asked = Instant::now();
    handle.request();
    let report = join
        .join()
        .unwrap_or_else(|_| panic!("router panicked under hop chaos seed {seed}"));
    let took = asked.elapsed();
    assert!(
        took < DRAIN_TIMEOUT + DRAIN_SLACK,
        "seed {seed}: router drain took {took:?}, exceeding the {DRAIN_TIMEOUT:?} window"
    );
    assert!(report.drained, "seed {seed}: router reported drained=false");
    for (_, handle, join) in daemons {
        drain_bounded(&handle, join, seed);
    }
    report
}

/// The chaos matrix on the router→backend hop: resets, torn writes,
/// short reads, spurious timeouts, bit flips, and stalls mangle every
/// forward, while keyed client-side retries replay the shared schedule
/// through the clean front. Conservation, zero losses, and bounded
/// cluster-wide drain must all survive — a hop failure surfaces as an
/// explicit error frame the client retries, never as a hang or a
/// silently dropped request.
fn router_hop_chaos_sweep(io: IoModel) {
    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds() {
        let hop_faults = FaultConfig::chaos(seed);
        let (addr, daemons, handle, join) = boot_cluster(io, Some(hop_faults));

        let opts = retrying_load(200, 10, None);
        let report = client::run_load_with(&addr, schedule, opts);

        assert_eq!(
            report.warm
                + report.cold
                + report.dropped
                + report.rejected
                + report.throttled
                + report.errors,
            report.requests,
            "seed {seed}: hop conservation violated: {}",
            report.summary_line()
        );
        assert_eq!(
            report.lost(),
            0,
            "seed {seed}: hop lost requests: {}",
            report.summary_line()
        );

        let rreport = drain_cluster_bounded(daemons, handle, join, seed);
        // Hop faults must never eject a backend: ejection is reserved
        // for connect-refused (a dead process), not a flaky wire.
        assert_eq!(
            rreport.ejections(),
            0,
            "seed {seed}: wire faults ejected a live backend: {}",
            rreport.summary_line()
        );
        eprintln!(
            "hop chaos seed {seed} ({io}): client[{}] router[{}]",
            report.summary_line(),
            rreport.summary_line()
        );
    }
}

#[test]
fn router_hop_chaos_conserves_requests_and_drains_cleanly() {
    router_hop_chaos_sweep(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn router_hop_chaos_conserves_requests_and_drains_cleanly_epoll() {
    router_hop_chaos_sweep(IoModel::Epoll);
}

/// Exactly-once across the hop: under a pure connection-reset regime on
/// router→backend connections, keyed retries (client-side and hop-side)
/// pin each key to one backend whose idempotency cache deduplicates
/// re-forwards — so the *sum* of the daemons' outcome counters equals
/// the client's tallies exactly. Nothing executed twice, nothing lost.
fn router_hop_resets_exactly_once(io: IoModel) {
    let (_, schedule) = shared_schedule();
    for seed in chaos_seeds() {
        let resets_only = FaultConfig {
            seed,
            reset: 0.05,
            ..FaultConfig::disabled()
        };
        let (addr, daemons, handle, join) = boot_cluster(io, Some(resets_only));

        let opts = retrying_load(200, 12, None);
        let report = client::run_load_with(&addr, schedule, opts);

        assert_eq!(
            report.errors,
            0,
            "seed {seed}: hop retries exhausted: {}",
            report.summary_line()
        );
        assert_eq!(report.lost(), 0, "seed {seed}: hop lost requests");

        // Clean connections to the daemons themselves: sum their counters.
        let mut summed = (0u64, 0u64, 0u64, 0u64, 0u64);
        for (daddr, _, _) in &daemons {
            let stats = Client::connect(daddr)
                .expect("connect daemon")
                .stats()
                .expect("daemon stats");
            summed = (
                summed.0 + stats.warm,
                summed.1 + stats.cold,
                summed.2 + stats.dropped,
                summed.3 + stats.rejected,
                summed.4 + stats.throttled,
            );
        }
        assert_eq!(
            summed,
            (
                report.warm,
                report.cold,
                report.dropped,
                report.rejected,
                report.throttled,
            ),
            "seed {seed}: summed daemon counters diverge from client tallies \
             (hop exactly-once violated): client[{}]",
            report.summary_line()
        );

        let rreport = drain_cluster_bounded(daemons, handle, join, seed);
        eprintln!(
            "hop reset seed {seed} ({io}): retried={} forward_errors={}",
            report.retried,
            rreport.forward_errors()
        );
    }
}

#[test]
fn router_hop_retries_stay_exactly_once_under_resets() {
    router_hop_resets_exactly_once(IoModel::Threads);
}

#[cfg(target_os = "linux")]
#[test]
fn router_hop_retries_stay_exactly_once_under_resets_epoll() {
    router_hop_resets_exactly_once(IoModel::Epoll);
}
