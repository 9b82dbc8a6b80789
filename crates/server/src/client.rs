//! Protocol client and the open-loop load generator behind `faas-load`.
//!
//! [`Client`] is a blocking single-connection client that speaks either
//! wire protocol, chosen at connect time by [`LoadProto`], optionally
//! wrapped in deterministic fault injection
//! ([`connect_with_faults`](Client::connect_with_faults)). Every
//! operation is written once, over one seam: a request goes out through
//! the binary frame codec or the HTTP codec of [`crate::http`], and the
//! reply comes back as the same [`Response`] either way. Every mutation
//! passes [`JournalRecord::validate`] before either codec builds a byte.
//!
//! [`run_load_with`] replays an [`OpenLoopSchedule`] against a daemon
//! from several threads — each thread owns its own connections and
//! sends its slice of the schedule at the scheduled wall-clock offsets
//! (open loop: a slow response never delays later sends; the generator
//! just falls behind and the attained rate shows it). Its options add
//! the resilience knobs: a [`RetryPolicy`] (exponential backoff with
//! full jitter, per-request idempotency keys so retries are
//! exactly-once on the daemon side) and client-side fault injection.
//! The report accounts for every request:
//! `outcomes.total() + errors == requests`, exactly,
//! even when injected resets kill connections mid-frame — retries are
//! counted separately and never double-book a request.

use crate::cli::Period;
use crate::daemon::BoundAddr;
use crate::fault::{FaultConfig, FaultPlan, FaultyStream};
use crate::http;
use crate::journal::{self, JournalRecord};
use crate::net::Stream;
use crate::proto::{self, Request, Response};
use faascache_platform::sharded::{InvokeOutcome, InvokerStats, Outcomes};
use faascache_trace::replay::OpenLoopSchedule;
use faascache_util::backoff::ExpBackoff;
use faascache_util::rng::Pcg64;
use faascache_util::stats::LatencySummary;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// A blocking client over one connection, in either wire protocol.
///
/// [`stats`](Self::stats) and [`shutdown`](Self::shutdown) exist on the
/// binary protocol only, [`metrics`](Self::metrics) and
/// [`invoke_named`](Self::invoke_named) on HTTP only; on the other
/// protocol they are `Unsupported` and send nothing.
pub struct Client {
    stream: FaultyStream<Stream>,
    proto: LoadProto,
    /// HTTP bytes read past the previous response.
    rbuf: Vec<u8>,
    /// The gateway answered `Connection: close`: later requests fail
    /// instead of writing to a connection the server has ended.
    closed: bool,
}

impl Client {
    /// Connects to a daemon or router at `addr`, speaking `proto`
    /// (clean transport). The HTTP gateway listens on TCP only, so HTTP
    /// to a Unix-domain address is `Unsupported`.
    pub fn connect(addr: &BoundAddr, proto: LoadProto) -> io::Result<Client> {
        Self::connect_with_faults(addr, proto, FaultPlan::disabled(), None)
    }

    /// Connects with client-side fault injection: every read and write on
    /// the connection is subject to `plan`'s deterministic schedule. A
    /// `connect_timeout` bounds the connect, a Unix-socket one on Linux
    /// only (`None` waits as long as the kernel retries, or until a full
    /// Unix accept queue takes the connection).
    pub fn connect_with_faults(
        addr: &BoundAddr,
        proto: LoadProto,
        plan: FaultPlan,
        connect_timeout: Option<Duration>,
    ) -> io::Result<Client> {
        #[cfg(unix)]
        if proto == LoadProto::Http && matches!(addr, BoundAddr::Unix(_)) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the http gateway listens on tcp only",
            ));
        }
        Ok(Client {
            stream: FaultyStream::new(Stream::connect(addr, connect_timeout)?, plan),
            proto,
            rbuf: Vec::new(),
            closed: false,
        })
    }

    /// Sets the socket read timeout. Under fault injection a lost
    /// response must surface as a retryable error instead of a hang, so
    /// the retrying load generator always sets one.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)
    }

    /// Writes one request without waiting for its reply. A mutation
    /// goes through [`Self::send_mutation`] instead, which checks it
    /// first.
    fn send(&mut self, request: &Request) -> io::Result<()> {
        match self.proto {
            LoadProto::Binary => proto::write_frame(&mut self.stream, &request.encode()),
            LoadProto::Http => self.write_http(&http::encode_request(request)?),
        }
    }

    /// Reads the reply to the oldest unanswered send.
    pub(crate) fn recv(&mut self) -> io::Result<Response> {
        match self.proto {
            LoadProto::Binary => match proto::read_frame(&mut self.stream)? {
                Some(payload) => Response::decode(&payload),
                None => Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                )),
            },
            LoadProto::Http => {
                let (status, body) = self.read_http()?;
                http::decode_response(status, &body)
            }
        }
    }

    /// Writes one mutation without waiting for its answer (read it with
    /// [`Self::recv`]), so a caller holding several connections can put
    /// the same mutation on all of them before collecting any answer.
    /// Every mutation this client sends comes through here: a record
    /// that fails [`JournalRecord::validate`] is `InvalidInput`, and
    /// neither codec builds a byte of it.
    pub(crate) fn send_mutation(&mut self, record: &JournalRecord) -> io::Result<()> {
        record
            .validate()
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        self.send(&record.to_request())
    }

    fn write_http(&mut self, head: &[u8]) -> io::Result<()> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "server closed the connection (Connection: close)",
            ));
        }
        self.stream.write_all(head)
    }

    fn read_http(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let (status, body, close) = http::read_response(&mut self.stream, &mut self.rbuf)?;
        self.closed |= close;
        Ok((status, body))
    }

    /// One round trip of a route that has no binary request, answered
    /// with its status and body; `Unsupported` on the binary protocol.
    fn http_call(&mut self, what: &str, method: &str, target: &str) -> io::Result<(u16, Vec<u8>)> {
        if self.proto != LoadProto::Http {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("{what} is served over http only"),
            ));
        }
        self.write_http(&http::request_head(method, target, None))?;
        self.read_http()
    }

    fn call(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Liveness probe: binary `Ping`, or `GET /healthz` (a draining
    /// gateway's 503 is an error).
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Invokes function `function` and returns its outcome.
    pub fn invoke(&mut self, function: u32) -> io::Result<InvokeOutcome> {
        invoked(self.call(&Request::Invoke { function })?)
    }

    /// Invokes function `function` under idempotency key `key`: if the
    /// daemon already executed this key (a retry whose response was
    /// lost), the recorded outcome is returned instead of re-executing.
    pub fn invoke_keyed(&mut self, function: u32, key: u64) -> io::Result<InvokeOutcome> {
        invoked(self.call(&Request::InvokeKeyed { function, key })?)
    }

    /// `POST /invoke/<name>`: invokes a registered function by name
    /// (HTTP only). A name outside the registry's rule is
    /// `InvalidInput`, and nothing is sent.
    pub fn invoke_named(&mut self, name: &str) -> io::Result<InvokeOutcome> {
        journal::check_function_name(name)
            .map_err(|msg| io::Error::new(io::ErrorKind::InvalidInput, msg))?;
        let (status, body) =
            self.http_call("invoke by name", "POST", &format!("/invoke/{name}"))?;
        invoked(http::decode_response(status, &body)?)
    }

    /// Fetches the daemon's aggregate invoker statistics (binary only).
    pub fn stats(&mut self) -> io::Result<InvokerStats> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to drain and exit (binary only).
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownStarted => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// `GET /metrics`: the Prometheus text exposition (HTTP only).
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.http_call("metrics", "GET", "/metrics")? {
            (200, body) => Ok(String::from_utf8_lossy(&body).into_owned()),
            (status, _) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("metrics returned {status}"),
            )),
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
        self.send_mutation(&JournalRecord::Register {
            name: name.to_string(),
            mem_mb,
            warm_us,
            cold_us,
            tenant: tenant.to_string(),
        })?;
        match self.recv()? {
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
        self.send_mutation(&JournalRecord::SetQuota {
            tenant: tenant.to_string(),
            inflight,
            mem_mb,
        })?;
        match self.recv()? {
            Response::QuotaSet { live } => Ok(live),
            other => Err(unexpected(other)),
        }
    }
}

fn invoked(response: Response) -> io::Result<InvokeOutcome> {
    match response {
        Response::Invoked(outcome) => Ok(outcome),
        other => Err(unexpected(other)),
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
        let probe = Client::connect(addr, LoadProto::Binary).and_then(|mut c| {
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

/// Which wire protocol a [`Client`] speaks, chosen at connect time
/// (`faas-load --proto`).
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
    /// Wire protocol every connection of the run speaks
    /// (`faas-load --proto`). [`LoadProto::Http`] requires `addr` to be
    /// the HTTP listener address of a daemon or router.
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
    /// The outcome each answered request got.
    pub outcomes: Outcomes,
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
    /// Client-observed latency of each answered request, from the time
    /// the schedule meant it to be sent to its response: a generator that
    /// falls behind schedule counts the wait to send too, not only the
    /// round trip (no coordinated omission). Includes retry time.
    pub latency: LatencySummary,
}

impl LoadReport {
    /// Requests that got any reply, whatever its outcome.
    pub fn answered(&self) -> u64 {
        self.outcomes.total()
    }

    /// Requests unaccounted for: zero means nothing was lost.
    pub fn lost(&self) -> u64 {
        self.requests - self.answered() - self.errors
    }

    /// The one-line summary `faas-load` prints.
    pub fn summary_line(&self) -> String {
        format!(
            "faas-load: requests={} {} connections={} retried={} errors={} \
             lost={} attained_rps={:.0} (target {:.0}) \
             p50={:.3}ms p95={:.3}ms p99={:.3}ms",
            self.requests,
            self.outcomes,
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
/// the daemon or router at `addr` from `opts.threads` threads, each
/// holding its slots' [`Client`]s in `opts.proto`, with the retry and
/// fault-injection behavior described by `opts`.
/// [`LoadOptions::new`] is the plain run: no retries, no faults, no read
/// timeout, the binary protocol.
///
/// The schedule is split round-robin: thread `t` sends events
/// `t, t+threads, t+2*threads, …` at their scheduled offsets from a
/// common start instant, so the aggregate arrival process is exactly the
/// schedule's.
///
/// Failure semantics: an attempt that errors tears down the thread's
/// connection; the next attempt reconnects (under a fresh fault plan when
/// client faults are on). With retries enabled, requests are sent as
/// [`Request::InvokeKeyed`] (an `Idempotency-Key` header over HTTP) so a
/// retry whose predecessor's response was
/// lost is answered from the daemon's idempotency cache instead of
/// re-executing. A request whose every attempt fails counts one error;
/// conservation `outcomes.total() + errors == requests` holds exactly
/// regardless of the injected fault mix.
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
    let mut outcomes = Outcomes::default();

    thread::scope(|scope| {
        let mut joins = Vec::new();
        for t in 0..threads {
            let retried = &retried;
            let errors = &errors;
            let conn_seq = &conn_seq;
            let conns_made = &conns_made;
            let opts = &opts;
            joins.push(scope.spawn(move || {
                let mut latencies = Vec::new();
                let mut outcomes = Outcomes::default();
                // Jitter RNG: deterministic per (seed, thread).
                let mut rng = Pcg64::seed_from_u64(opts.seed).split(t as u64 + 1);
                let connect = |conn_seq: &AtomicU64| -> io::Result<Client> {
                    let plan = match opts.faults {
                        Some(cfg) if cfg.is_active() => {
                            cfg.plan(conn_seq.fetch_add(1, Ordering::Relaxed))
                        }
                        _ => FaultPlan::disabled(),
                    };
                    let client = Client::connect_with_faults(addr, opts.proto, plan, None)?;
                    client.set_read_timeout(opts.read_timeout.map(Period::get))?;
                    conns_made.fetch_add(1, Ordering::Relaxed);
                    Ok(client)
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
                let mut pool: Vec<Option<Client>> = (0..per_thread).map(|_| None).collect();
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
                                latencies.push(due.elapsed().as_secs_f64() * 1e3);
                                outcomes.record(outcome);
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
                (latencies, outcomes)
            }));
        }
        for join in joins {
            let (latencies, counted) = join.join().expect("load thread panicked");
            lat_per_thread.push(latencies);
            outcomes += counted;
        }
    });

    let elapsed = start.elapsed();
    let all_latencies: Vec<f64> = lat_per_thread.into_iter().flatten().collect();
    let report = LoadReport {
        requests,
        outcomes,
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

    /// `faas-load`'s stdout line, pinned: the harness parses its keys.
    #[test]
    fn summary_line_is_pinned() {
        let report = LoadReport {
            requests: 100,
            outcomes: Outcomes::from([60, 20, 5, 4, 3]),
            retried: 7,
            connections: 2,
            errors: 6,
            elapsed: Duration::from_secs(1),
            target_rps: 100.0,
            attained_rps: 97.2,
            latency: LatencySummary {
                count: 92,
                mean_ms: 0.5,
                p50_ms: 0.25,
                p95_ms: 1.5,
                p99_ms: 2.125,
                max_ms: 3.0,
            },
        };
        assert_eq!(
            report.summary_line(),
            "faas-load: requests=100 warm=60 cold=20 dropped=5 rejected=4 \
             throttled=3 connections=2 retried=7 errors=6 lost=2 \
             attained_rps=97 (target 100) p50=0.250ms p95=1.500ms p99=2.125ms"
        );
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
