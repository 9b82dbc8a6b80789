//! Protocol client and the open-loop load generator behind `faas-load`.
//!
//! [`Client`] is a blocking single-connection protocol client, optionally
//! wrapped in deterministic fault injection
//! ([`connect_with_faults`](Client::connect_with_faults)). [`run_load`]
//! replays an [`OpenLoopSchedule`] against a daemon from several threads —
//! each thread owns its own connection and sends its slice of the
//! schedule at the scheduled wall-clock offsets (open loop: a slow
//! response never delays later sends; the generator just falls behind and
//! the attained rate shows it).
//!
//! [`run_load_with`] adds the resilience knobs: a [`RetryPolicy`]
//! (exponential backoff with full jitter, per-request idempotency keys so
//! retries are exactly-once on the daemon side) and client-side fault
//! injection. The report accounts for every request under both entry
//! points: `warm + cold + dropped + rejected + errors == requests`,
//! exactly, even when injected resets kill connections mid-frame —
//! retries are counted separately and never double-book a request.

use crate::cli::Period;
use crate::daemon::BoundAddr;
use crate::fault::{FaultConfig, FaultPlan, FaultyStream};
use crate::http::HttpClient;
use crate::journal::JournalRecord;
use crate::net::Stream;
use crate::proto::{self, Request, Response};
use faascache_platform::sharded::{InvokeOutcome, InvokerStats};
use faascache_trace::replay::OpenLoopSchedule;
use faascache_util::backoff::ExpBackoff;
use faascache_util::rng::Pcg64;
use faascache_util::stats::LatencySummary;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// A blocking client over one daemon connection.
pub struct Client {
    stream: FaultyStream<Stream>,
}

impl Client {
    /// Connects to a daemon at the given bound address (clean transport).
    pub fn connect(addr: &BoundAddr) -> io::Result<Client> {
        Self::connect_with_faults(addr, FaultPlan::disabled())
    }

    /// Connects with client-side fault injection: every read and write on
    /// the connection is subject to `plan`'s deterministic schedule.
    pub fn connect_with_faults(addr: &BoundAddr, plan: FaultPlan) -> io::Result<Client> {
        Ok(Client {
            stream: FaultyStream::new(Stream::connect(addr)?, plan),
        })
    }

    /// Sets the socket read timeout. Under fault injection a lost
    /// response must surface as a retryable error instead of a hang, so
    /// the retrying load generator always sets one.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)
    }

    /// Writes one request frame without waiting for its reply, so a
    /// caller holding several connections can put the same request on
    /// all of them before collecting any answer.
    pub(crate) fn send(&mut self, request: &Request) -> io::Result<()> {
        proto::write_frame(&mut self.stream, &request.encode())
    }

    /// Reads the reply to the oldest unanswered [`Self::send`].
    pub(crate) fn recv(&mut self) -> io::Result<Response> {
        match proto::read_frame(&mut self.stream)? {
            Some(payload) => Response::decode(&payload),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
        }
    }

    fn call(&mut self, request: Request) -> io::Result<Response> {
        self.send(&request)?;
        self.recv()
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Invokes function `function` and returns its outcome.
    pub fn invoke(&mut self, function: u32) -> io::Result<InvokeOutcome> {
        match self.call(Request::Invoke { function })? {
            Response::Invoked(outcome) => Ok(outcome),
            other => Err(unexpected(other)),
        }
    }

    /// Invokes function `function` under idempotency key `key`: if the
    /// daemon already executed this key (a retry whose response was
    /// lost), the recorded outcome is returned instead of re-executing.
    pub fn invoke_keyed(&mut self, function: u32, key: u64) -> io::Result<InvokeOutcome> {
        match self.call(Request::InvokeKeyed { function, key })? {
            Response::Invoked(outcome) => Ok(outcome),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the daemon's aggregate invoker statistics.
    pub fn stats(&mut self) -> io::Result<InvokerStats> {
        match self.call(Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(Request::Shutdown)? {
            Response::ShutdownStarted => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Registers (or looks up) a function by name under the default
    /// tenant. Returns the function's index and whether this call created
    /// it; re-registering an existing name is idempotent and returns
    /// `created == false`.
    pub fn register(
        &mut self,
        name: &str,
        mem_mb: u32,
        warm_us: u64,
        cold_us: u64,
    ) -> io::Result<(u32, bool)> {
        self.register_in(name, mem_mb, warm_us, cold_us, "")
    }

    /// [`Self::register`] with an owning tenant name (`""` = default
    /// tenant). The tenant binds on creation only: re-registering an
    /// existing function name never re-homes it.
    pub fn register_in(
        &mut self,
        name: &str,
        mem_mb: u32,
        warm_us: u64,
        cold_us: u64,
        tenant: &str,
    ) -> io::Result<(u32, bool)> {
        let record = JournalRecord::Register {
            name: name.to_string(),
            mem_mb,
            warm_us,
            cold_us,
            tenant: tenant.to_string(),
        };
        match self.mutate(&record)? {
            Response::Registered { function, created } => Ok((function, created)),
            other => Err(unexpected(other)),
        }
    }

    /// Updates a tenant's admission budget at runtime (`u64::MAX` =
    /// unlimited for either knob). Returns whether the daemon applied it
    /// to a live accounting slot (`false` = stored for the tenant's
    /// first sight).
    pub fn set_tenant_quota(
        &mut self,
        tenant: &str,
        inflight: u64,
        mem_mb: u64,
    ) -> io::Result<bool> {
        let record = JournalRecord::SetQuota {
            tenant: tenant.to_string(),
            inflight,
            mem_mb,
        };
        match self.mutate(&record)? {
            Response::QuotaSet { live } => Ok(live),
            other => Err(unexpected(other)),
        }
    }

    /// Sends one mutation and returns the daemon's answer. A record that
    /// fails [`JournalRecord::validate`] is `InvalidInput`, and nothing
    /// is sent.
    fn mutate(&mut self, record: &JournalRecord) -> io::Result<Response> {
        record
            .validate()
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        self.call(record.to_request())
    }
}

pub(crate) fn unexpected(response: Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response {response:?}"),
    )
}

/// Wait for a daemon to accept connections (it binds before `run`, but a
/// test may race the spawn). Retries for up to `timeout`.
///
/// Each probe waits a bounded time for its pong: against a
/// fault-injecting daemon the reply can arrive with a corrupted length
/// prefix, and a probe that waited for the rest of that frame would wait
/// for ever.
pub fn await_ready(addr: &BoundAddr, timeout: Duration) -> io::Result<()> {
    const PROBE_TIMEOUT: Duration = Duration::from_millis(250);
    let deadline = Instant::now() + timeout;
    loop {
        let probe = Client::connect(addr).and_then(|mut c| {
            c.set_read_timeout(Some(PROBE_TIMEOUT))?;
            c.ping()
        });
        match probe {
            Ok(()) => return Ok(()),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Retry discipline of the load generator: how many attempts a request
/// gets and how they are spaced.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Jittered exponential delay before attempt `k+1` after attempt `k`
    /// fails.
    pub backoff: ExpBackoff,
}

impl RetryPolicy {
    /// No retries: each request gets exactly one attempt.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: ExpBackoff::new(Duration::ZERO, Duration::ZERO),
        }
    }

    /// Up to `retries` retries after the first attempt, backed off
    /// exponentially from `base` up to `cap` with full jitter.
    pub fn retries(retries: u32, base: Duration, cap: Duration) -> Self {
        RetryPolicy {
            max_attempts: retries.saturating_add(1),
            backoff: ExpBackoff::new(base, cap),
        }
    }

    /// Whether any request may be retried. Retrying requests are sent
    /// with idempotency keys so the daemon deduplicates re-executions.
    pub fn is_enabled(&self) -> bool {
        self.max_attempts > 1
    }
}

/// Which wire protocol the load generator speaks to the daemon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LoadProto {
    /// The length-prefixed binary protocol (the daemon's main listener).
    #[default]
    Binary,
    /// HTTP/1.1 keep-alive against the daemon's `--http-listen` gateway
    /// (`POST /invoke/<fn>`; retries carry an `Idempotency-Key` header).
    Http,
}

impl std::str::FromStr for LoadProto {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "binary" => Ok(LoadProto::Binary),
            "http" => Ok(LoadProto::Http),
            other => Err(format!("unknown protocol {other:?} (binary|http)")),
        }
    }
}

impl std::fmt::Display for LoadProto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LoadProto::Binary => "binary",
            LoadProto::Http => "http",
        })
    }
}

/// One load-generator connection, over either protocol. Both arms expose
/// the same invoke/invoke_keyed surface, so the replay loop is
/// protocol-agnostic.
enum LoadConn {
    Bin(Client),
    Http(HttpClient),
}

impl LoadConn {
    fn invoke(&mut self, function: u32) -> io::Result<InvokeOutcome> {
        match self {
            LoadConn::Bin(c) => c.invoke(function),
            LoadConn::Http(c) => c.invoke(function),
        }
    }

    fn invoke_keyed(&mut self, function: u32, key: u64) -> io::Result<InvokeOutcome> {
        match self {
            LoadConn::Bin(c) => c.invoke_keyed(function, key),
            LoadConn::Http(c) => c.invoke_keyed(function, key),
        }
    }
}

/// Everything [`run_load_with`] needs beyond the address and schedule.
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// The rate the schedule was built for (reported, not enforced here).
    pub target_rps: f64,
    /// Total requests to submit across all threads.
    pub requests: u64,
    /// Number of load threads, each owning its own connection.
    pub threads: usize,
    /// Total persistent connections to multiplex requests across
    /// (`faas-load --connections N`). `0` keeps the legacy
    /// connection-per-thread shape; otherwise each thread round-robins
    /// its slice of the schedule over `connections / threads` (at least
    /// one) private connections — realistic closed-loop pressure on a
    /// reactor that must juggle many mostly-idle sockets.
    pub connections: usize,
    /// Retry discipline for failed requests.
    pub retry: RetryPolicy,
    /// Client-side fault injection applied to every outbound connection
    /// (each connection gets its own deterministic plan).
    pub faults: Option<FaultConfig>,
    /// Socket read timeout. Required in practice whenever faults or
    /// retries are on: a response lost to a server-side reset must turn
    /// into a retryable error, not a hang.
    pub read_timeout: Option<Period>,
    /// Seed for backoff jitter (split per thread).
    pub seed: u64,
    /// Wire protocol to speak (`faas-load --proto`). [`LoadProto::Http`]
    /// requires `addr` to be the daemon's HTTP listener address.
    pub proto: LoadProto,
}

impl LoadOptions {
    /// Plain options: no retries, no faults, no read timeout.
    pub fn new(target_rps: f64, requests: u64, threads: usize) -> Self {
        LoadOptions {
            target_rps,
            requests,
            threads,
            connections: 0,
            retry: RetryPolicy::none(),
            faults: None,
            read_timeout: None,
            seed: 0,
            proto: LoadProto::Binary,
        }
    }
}

/// Outcome tallies and latency of one load run; every submitted request
/// lands in exactly one bucket.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests submitted across all threads.
    pub requests: u64,
    /// Served from a warm container.
    pub warm: u64,
    /// Served with a cold start.
    pub cold: u64,
    /// Dropped by a pool (no capacity).
    pub dropped: u64,
    /// Rejected at admission (backpressure or drain).
    pub rejected: u64,
    /// Throttled by the function's tenant budget (HTTP 429 with
    /// `Retry-After`, binary outcome code 4).
    pub throttled: u64,
    /// Extra attempts made beyond each request's first (a request retried
    /// twice counts 2 here but still lands in exactly one outcome
    /// bucket).
    pub retried: u64,
    /// Connections opened over the run (initial pool plus reconnects
    /// after transport errors).
    pub connections: u64,
    /// Requests whose every attempt failed (transport/protocol).
    pub errors: u64,
    /// Wall-clock span from first send to last response.
    pub elapsed: Duration,
    /// The rate the schedule asked for.
    pub target_rps: f64,
    /// `requests / elapsed`.
    pub attained_rps: f64,
    /// Client-observed request→response latency (includes retry time).
    pub latency: LatencySummary,
}

impl LoadReport {
    /// Requests that got any reply
    /// (`warm+cold+dropped+rejected+throttled`).
    pub fn answered(&self) -> u64 {
        self.warm + self.cold + self.dropped + self.rejected + self.throttled
    }

    /// Requests unaccounted for: zero means nothing was lost.
    pub fn lost(&self) -> u64 {
        self.requests - self.answered() - self.errors
    }

    /// The one-line summary `faas-load` prints.
    pub fn summary_line(&self) -> String {
        format!(
            "faas-load: requests={} warm={} cold={} dropped={} rejected={} \
             throttled={} connections={} retried={} errors={} lost={} \
             attained_rps={:.0} (target {:.0}) \
             p50={:.3}ms p95={:.3}ms p99={:.3}ms",
            self.requests,
            self.warm,
            self.cold,
            self.dropped,
            self.rejected,
            self.throttled,
            self.connections,
            self.retried,
            self.errors,
            self.lost(),
            self.attained_rps,
            self.target_rps,
            self.latency.p50_ms,
            self.latency.p95_ms,
            self.latency.p99_ms,
        )
    }
}

/// A per-run idempotency-key prefix: the low 32 bits are left for the
/// request index, the high 32 come from a mix of a process-local sequence
/// and the wall clock, so keys from different runs (or different load
/// processes against one daemon) almost surely never collide.
fn run_key_prefix() -> u64 {
    static RUN_SEQ: AtomicU64 = AtomicU64::new(1);
    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mixed = (nanos ^ seq.rotate_left(48)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    mixed & 0xFFFF_FFFF_0000_0000
}

/// Replays `requests` sends of `schedule` (cycling it as needed) against
/// the daemon at `addr` from `opts.threads` connections, with the retry
/// and fault-injection behavior described by `opts`.
///
/// The schedule is split round-robin: thread `t` sends events
/// `t, t+threads, t+2*threads, …` at their scheduled offsets from a
/// common start instant, so the aggregate arrival process is exactly the
/// schedule's.
///
/// Failure semantics: an attempt that errors tears down the thread's
/// connection; the next attempt reconnects (under a fresh fault plan when
/// client faults are on). With retries enabled, requests are sent as
/// [`Request::InvokeKeyed`] so a retry whose predecessor's response was
/// lost is answered from the daemon's idempotency cache instead of
/// re-executing. A request whose every attempt fails counts one error;
/// conservation `warm+cold+dropped+rejected+errors == requests` holds
/// exactly regardless of the injected fault mix.
///
/// # Panics
///
/// Panics if `opts.threads == 0`, `opts.retry.max_attempts == 0`, or the
/// schedule is empty.
pub fn run_load_with(
    addr: &BoundAddr,
    schedule: &OpenLoopSchedule,
    opts: LoadOptions,
) -> LoadReport {
    assert!(opts.threads > 0, "need at least one load thread");
    assert!(opts.retry.max_attempts > 0, "need at least one attempt");
    let threads = opts.threads;
    let requests = opts.requests;
    let warm = AtomicU64::new(0);
    let cold = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let throttled = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    // Connection ordinal across all threads: each (re)connect under
    // faults gets a distinct stream id, hence a distinct fault plan.
    let conn_seq = AtomicU64::new(0);
    let conns_made = AtomicU64::new(0);
    let key_prefix = run_key_prefix();
    let keyed = opts.retry.is_enabled();
    let start = Instant::now() + Duration::from_millis(20);
    let mut lat_per_thread: Vec<Vec<f64>> = Vec::new();

    thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..threads {
            let warm = &warm;
            let cold = &cold;
            let dropped = &dropped;
            let rejected = &rejected;
            let throttled = &throttled;
            let retried = &retried;
            let errors = &errors;
            let conn_seq = &conn_seq;
            let conns_made = &conns_made;
            let opts = &opts;
            joins.push(scope.spawn(move || {
                let mut latencies = Vec::new();
                // Jitter RNG: deterministic per (seed, thread).
                let mut rng = Pcg64::seed_from_u64(opts.seed).split(t as u64 + 1);
                let connect = |conn_seq: &AtomicU64| -> io::Result<LoadConn> {
                    let plan = match opts.faults {
                        Some(cfg) if cfg.is_active() => {
                            cfg.plan(conn_seq.fetch_add(1, Ordering::Relaxed))
                        }
                        _ => FaultPlan::disabled(),
                    };
                    let conn = match opts.proto {
                        LoadProto::Binary => {
                            let client = Client::connect_with_faults(addr, plan)?;
                            client.set_read_timeout(opts.read_timeout.map(Period::get))?;
                            LoadConn::Bin(client)
                        }
                        LoadProto::Http => {
                            let client = HttpClient::connect_with_faults(addr, plan)?;
                            client.set_read_timeout(opts.read_timeout.map(Period::get))?;
                            LoadConn::Http(client)
                        }
                    };
                    conns_made.fetch_add(1, Ordering::Relaxed);
                    Ok(conn)
                };
                // This thread's slice of the connection pool: requests
                // rotate across the slots, so every connection carries
                // traffic while the rest sit idle on the daemon — the
                // access pattern a reactor must multiplex.
                let per_thread = if opts.connections == 0 {
                    1
                } else {
                    opts.connections.div_ceil(threads)
                };
                let mut pool: Vec<Option<LoadConn>> = (0..per_thread).map(|_| None).collect();
                for (i, event) in schedule.cycle().take(requests as usize).enumerate() {
                    if i % threads != t {
                        continue;
                    }
                    let slot = (i / threads) % per_thread;
                    let due = start + event.offset;
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    let function = event.function.index() as u32;
                    let key = key_prefix | (i as u64 & 0xFFFF_FFFF);
                    let issued = Instant::now();
                    let mut attempt = 0u32;
                    loop {
                        let result = (|| -> io::Result<InvokeOutcome> {
                            if pool[slot].is_none() {
                                pool[slot] = Some(connect(conn_seq)?);
                            }
                            let c = pool[slot].as_mut().expect("just connected");
                            if keyed {
                                c.invoke_keyed(function, key)
                            } else {
                                c.invoke(function)
                            }
                        })();
                        match result {
                            Ok(outcome) => {
                                latencies.push(issued.elapsed().as_secs_f64() * 1e3);
                                match outcome {
                                    InvokeOutcome::Warm => warm.fetch_add(1, Ordering::Relaxed),
                                    InvokeOutcome::Cold => cold.fetch_add(1, Ordering::Relaxed),
                                    InvokeOutcome::Dropped => {
                                        dropped.fetch_add(1, Ordering::Relaxed)
                                    }
                                    InvokeOutcome::Rejected => {
                                        rejected.fetch_add(1, Ordering::Relaxed)
                                    }
                                    InvokeOutcome::Throttled => {
                                        throttled.fetch_add(1, Ordering::Relaxed)
                                    }
                                };
                                break;
                            }
                            Err(_) => {
                                // The connection is suspect (reset, torn
                                // frame, timeout): drop it so the next
                                // attempt starts clean.
                                pool[slot] = None;
                                attempt += 1;
                                if attempt >= opts.retry.max_attempts {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                retried.fetch_add(1, Ordering::Relaxed);
                                thread::sleep(opts.retry.backoff.delay(attempt - 1, &mut rng));
                            }
                        }
                    }
                }
                latencies
            }));
        }
        for join in joins {
            lat_per_thread.push(join.join().expect("load thread panicked"));
        }
    });

    let elapsed = start.elapsed();
    let all_latencies: Vec<f64> = lat_per_thread.into_iter().flatten().collect();
    let report = LoadReport {
        requests,
        warm: warm.into_inner(),
        cold: cold.into_inner(),
        dropped: dropped.into_inner(),
        rejected: rejected.into_inner(),
        throttled: throttled.into_inner(),
        retried: retried.into_inner(),
        connections: conns_made.into_inner(),
        errors: errors.into_inner(),
        elapsed,
        target_rps: opts.target_rps,
        attained_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        latency: LatencySummary::from_samples_ms(&all_latencies),
    };
    debug_assert_eq!(report.lost(), 0, "conservation bug in run_load_with");
    report
}

/// [`run_load_with`] with no retries, no faults, and no read timeout —
/// the original plain entry point.
///
/// # Panics
///
/// Panics if `threads == 0` or the schedule is empty.
pub fn run_load(
    addr: &BoundAddr,
    schedule: &OpenLoopSchedule,
    target_rps: f64,
    requests: u64,
    threads: usize,
) -> LoadReport {
    run_load_with(
        addr,
        schedule,
        LoadOptions::new(target_rps, requests, threads),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_policy_attempt_math() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
        assert!(!RetryPolicy::none().is_enabled());
        let p = RetryPolicy::retries(3, Duration::from_millis(1), Duration::from_millis(8));
        assert_eq!(p.max_attempts, 4);
        assert!(p.is_enabled());
        let saturated =
            RetryPolicy::retries(u32::MAX, Duration::from_millis(1), Duration::from_millis(8));
        assert_eq!(saturated.max_attempts, u32::MAX);
    }

    #[test]
    fn run_key_prefixes_leave_the_low_32_bits_clear() {
        let a = run_key_prefix();
        let b = run_key_prefix();
        assert_eq!(a & 0xFFFF_FFFF, 0);
        assert_eq!(b & 0xFFFF_FFFF, 0);
        assert_ne!(a, b, "consecutive runs must use distinct key spaces");
    }
}
