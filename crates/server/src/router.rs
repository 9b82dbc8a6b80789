//! `faas-router`: a cluster front door for N `faascached` backends.
//!
//! The paper's §9 cluster-level analysis argues that a stateful,
//! locality-preserving load balancer keeps greedy-dual keep-alive
//! effective at cluster scale. `sim::cluster` models that claim in
//! virtual time; this module serves it live: a standalone process that
//! speaks both the binary protocol and the HTTP gateway protocol on the
//! front, forwards invocations to backends over the binary protocol,
//! and routes with the *exact same* [`route::pick`] the simulator uses
//! — the policy enum is shared, so the simulator and the router cannot
//! drift.
//!
//! Design points:
//!
//! - **Routing** — [`LoadBalancer`] selected by `--balancer`. The
//!   least-loaded signal is `in_flight` (requests this router currently
//!   has outstanding against the backend) plus `polled_in_flight` (the
//!   backend's own shard gauges, scraped from `/metrics` by the health
//!   prober when the backend exposes a gateway). Affinity uses the same
//!   [`route::shard_candidates`] hash-home + power-of-two spill as the
//!   daemon's internal shard router.
//! - **Health** — a prober thread pings every backend on a short
//!   cadence (binary `Ping`, or `GET /healthz` + `/metrics` when an
//!   HTTP address is configured). After `eject_after` consecutive
//!   failures the backend is ejected from routing; re-admission is
//!   probed with exponential backoff and succeeds on the first clean
//!   probe. The forward path also ejects immediately on
//!   connect-refused, so a killed backend stops receiving traffic
//!   before the prober notices.
//! - **Exactly-once** — idempotency keys are forwarded untouched, and a
//!   keyed request is *pinned* to the backend that first received it
//!   (bounded FIFO, like the daemon's idempotency cache) so router-hop
//!   retries and client retries land on the same backend's dedup cache.
//!   If the pinned backend is ejected the key is re-pinned to a healthy
//!   backend; the old pin's execution (if any) is stranded — the same
//!   at-least-once-on-failover caveat every replicated-cache fronting
//!   proxy has. Tenant tags ride `Register` frames untouched, so quota
//!   accounting stays per-backend exact.
//! - **Control plane** — `Register` and quota updates are broadcast to
//!   every healthy backend under one lock (`Control`): written to all
//!   of them over standing clean connections first, answers collected
//!   second, so the backends' fsyncs overlap and every backend sees
//!   mutations in one order. Re-admission replays the acknowledged log
//!   and flips `healthy` under the same lock.
//! - **Drain** — the router's `/healthz` flips to 503 the instant drain
//!   begins, *before* any backend starts draining, so a cluster
//!   operator's LB health checks fail over while the backends are still
//!   serving in-flight work.
//!
//! Forward failures are answered as explicit errors (binary
//! `Response::Error`, HTTP 502) rather than masquerading as backend
//! outcomes: a 503/`Rejected` from this router always means "no healthy
//! backend or admission refused", never "the hop broke".

use crate::client::{self, Client};
use crate::daemon::{BoundAddr, Endpoint, ShutdownHandle};
use crate::driver::{self, Front};
use crate::fault::{FaultConfig, FaultPlan};
use crate::net::DrainLatch;
use crate::prom::PromText;
use crate::proto::{Request, Response};
use crate::service::{FnTarget, FrontCounters, KeyCache, Op, Reply, Service};
use faascache_platform::sharded::{InvokeOutcome, InvokerStats};
use faascache_util::backoff::ExpBackoff;
use faascache_util::rng::Pcg64;
use faascache_util::route::{self, BalancerState, LoadBalancer};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// One backend a router forwards to: the binary endpoint it invokes
/// over, plus an optional HTTP gateway address used for richer health
/// probes (`/healthz` + in-flight gauge scraping from `/metrics`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSpec {
    /// Binary protocol endpoint (the forward path).
    pub addr: BoundAddr,
    /// Optional HTTP gateway address (the probe path). Without it the
    /// prober falls back to binary `Ping` and the backend contributes
    /// no polled in-flight gauge to least-loaded routing.
    pub http: Option<SocketAddr>,
}

impl std::str::FromStr for BackendSpec {
    type Err = String;

    /// Parses `HOST:PORT`, `unix:PATH`, either with an optional
    /// `+http=HOST:PORT` suffix: `127.0.0.1:7077+http=127.0.0.1:8077`,
    /// `unix:/tmp/be0.sock+http=127.0.0.1:8080`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (main, http) = match s.split_once("+http=") {
            Some((m, h)) => {
                let sock: SocketAddr = h
                    .parse()
                    .map_err(|e| format!("bad http address {h:?}: {e}"))?;
                (m, Some(sock))
            }
            None => (s, None),
        };
        let addr = if let Some(path) = main.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                BoundAddr::Unix(std::path::PathBuf::from(path))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("unix sockets unsupported on this platform".to_string());
            }
        } else {
            let sock: SocketAddr = main
                .parse()
                .map_err(|e| format!("bad backend address {main:?}: {e}"))?;
            BoundAddr::Tcp(sock)
        };
        Ok(BackendSpec { addr, http })
    }
}

impl std::fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.addr {
            BoundAddr::Tcp(sock) => write!(f, "{sock}")?,
            #[cfg(unix)]
            BoundAddr::Unix(path) => write!(f, "unix:{}", path.display())?,
        }
        if let Some(http) = self.http {
            write!(f, "+http={http}")?;
        }
        Ok(())
    }
}

/// Tuning knobs of a router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Routing policy (shared with `sim::cluster`).
    pub balancer: LoadBalancer,
    /// Seed for the randomized balancer and hop-retry jitter.
    pub seed: u64,
    /// Front-socket read timeout; bounds how long a handler takes to
    /// notice the shutdown flag (same contract as the daemon's).
    pub read_timeout: Duration,
    /// Read timeout on backend connections, so a lost backend response
    /// errors instead of hanging a front request forever.
    pub backend_read_timeout: Duration,
    /// Cadence of health probes against each backend.
    pub health_interval: Duration,
    /// Consecutive probe failures before a backend is ejected.
    pub eject_after: u32,
    /// Base/cap of the re-admission probe backoff for ejected backends.
    pub readmit_backoff: Duration,
    /// Cap for [`RouterConfig::readmit_backoff`].
    pub readmit_cap: Duration,
    /// Hop retries for *keyed* forwards (safe: the backend's
    /// idempotency cache deduplicates). Unkeyed forwards are never
    /// retried mid-stream — the router cannot know whether the backend
    /// executed.
    pub hop_retries: u32,
    /// Base delay of the hop-retry backoff.
    pub hop_backoff: Duration,
    /// Deterministic fault injection on router→backend *data*
    /// connections (chaos testing the interconnect). Probe and register
    /// connections stay clean — control plane.
    pub backend_faults: Option<FaultConfig>,
    /// Affinity spill watermark: `Some(w)` spills a function to its
    /// alternate candidate when the home backend has more than `w`
    /// requests in flight (power-of-two-choices, mirroring the daemon's
    /// `--p2c`). `None` pins strictly to the home backend.
    pub spill_watermark: Option<u64>,
    /// Capacity of the keyed-request pin cache.
    pub pin_capacity: usize,
    /// How long `run` waits for in-flight forwards during drain.
    pub drain_timeout: Duration,
    /// Whether a wire `Shutdown` frame may drain the router.
    pub allow_remote_shutdown: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            balancer: LoadBalancer::FunctionAffinity,
            seed: 1,
            read_timeout: Duration::from_millis(50),
            backend_read_timeout: Duration::from_millis(500),
            health_interval: Duration::from_millis(100),
            eject_after: 3,
            readmit_backoff: Duration::from_millis(50),
            readmit_cap: Duration::from_secs(1),
            hop_retries: 0,
            hop_backoff: Duration::from_millis(1),
            backend_faults: None,
            spill_watermark: None,
            pin_capacity: 65_536,
            drain_timeout: Duration::from_secs(10),
            allow_remote_shutdown: true,
        }
    }
}

/// Live state of one backend.
struct Backend {
    spec: BackendSpec,
    /// In the routing set. Starts true; cleared by the prober and by
    /// connect-refused on the forward path, set again by [`readmit`].
    healthy: AtomicBool,
    /// Requests this router currently has outstanding on the backend.
    in_flight: AtomicU64,
    /// The backend's own in-flight gauge (summed shard gauges), scraped
    /// from `/metrics` by the prober; 0 without an HTTP probe address.
    polled_in_flight: AtomicU64,
    /// Forwards that reached a backend outcome.
    routed: AtomicU64,
    /// Forwards that died on the hop (after any retries).
    forward_errors: AtomicU64,
    /// Times this backend was ejected from the routing set.
    ejections: AtomicU64,
    /// Control-plane mutations replayed into this backend during
    /// re-admission reconciliation.
    reconciled: AtomicU64,
}

impl Backend {
    fn new(spec: BackendSpec) -> Self {
        Backend {
            spec,
            healthy: AtomicBool::new(true),
            in_flight: AtomicU64::new(0),
            polled_in_flight: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            forward_errors: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            reconciled: AtomicU64::new(0),
        }
    }

    fn load(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed) + self.polled_in_flight.load(Ordering::Relaxed)
    }

    fn eject(&self) {
        if self.healthy.swap(false, Ordering::SeqCst) {
            self.ejections.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// State shared between the accept loops, handler threads, and the
/// health prober.
struct RouterShared {
    backends: Vec<Backend>,
    config: RouterConfig,
    balancer: Mutex<BalancerState>,
    /// Idempotency key → backend index, so keyed retries (hop-level and
    /// client-level) land on the same backend's dedup cache.
    pins: Mutex<KeyCache<usize>>,
    shutdown: Arc<DrainLatch>,
    front: FrontCounters,
    /// Outcome tallies over successfully forwarded invokes.
    warm: AtomicU64,
    cold: AtomicU64,
    dropped: AtomicU64,
    rejected: AtomicU64,
    throttled: AtomicU64,
    /// Invokes refused locally because no backend was healthy (a subset
    /// of `rejected`).
    local_rejects: AtomicU64,
    /// Ordinal for backend data connections; seeds per-stream fault
    /// plans exactly like the daemon's accept ordinal.
    backend_conn_seq: AtomicU64,
    control: Mutex<Control>,
}

/// The control plane's state, under the one lock that orders it. A
/// broadcast holds the lock from its first write to its log entry, and a
/// re-admission from its log snapshot to the `healthy` flip, so every
/// backend receives mutations in one order (indices are minted in
/// arrival order and the first answer speaks for all) and no mutation
/// can be acknowledged between a replay and the flip that follows it.
/// Backends serialise mutations on their registry lock across the fsync
/// anyway, so the lock costs no throughput.
struct Control {
    /// Every acknowledged mutation (`Register` and `SetTenantQuota`
    /// requests, as broadcast), in order. Replayed to a backend being
    /// re-admitted after ejection, so one that crashed and restarted
    /// (possibly from a `--state-dir` missing the newest mutations)
    /// rejoins with a converged registry; replay is idempotent on the
    /// backend (duplicate registers answer `created = false`, quota
    /// sets are last-wins). Registrations are deduplicated by name and
    /// quota sets are last-wins per tenant, so the log is bounded by the
    /// number of distinct functions + tenants.
    log: Vec<Request>,
    /// One standing connection per backend, dialed on first use. Always
    /// clean: `backend_faults` aims at the data hop only.
    conns: Vec<Option<Client>>,
}

impl Control {
    /// Records an acknowledged mutation: a `Register` once per function
    /// name (re-registrations carry no new state), a quota update in
    /// place of the tenant's earlier one (last wins, and replay order
    /// relative to registrations is preserved).
    fn record(&mut self, request: Request) {
        let same_subject = |logged: &Request| match (logged, &request) {
            (Request::Register { name: a, .. }, Request::Register { name: b, .. }) => a == b,
            (
                Request::SetTenantQuota { tenant: a, .. },
                Request::SetTenantQuota { tenant: b, .. },
            ) => a == b,
            _ => false,
        };
        match self.log.iter_mut().find(|logged| same_subject(logged)) {
            Some(Request::Register { .. }) => {}
            Some(quota) => *quota = request,
            None => self.log.push(request),
        }
    }

    /// Writes `request` to backend `b`: on its standing connection, or
    /// on a fresh one if there is none or the standing one will not take
    /// the write. Returns whether the standing connection carried it.
    fn send(&mut self, shared: &RouterShared, b: usize, request: &Request) -> io::Result<bool> {
        if let Some(standing) = &mut self.conns[b] {
            if standing.send(request).is_ok() {
                return Ok(true);
            }
        }
        self.conns[b] = None;
        let mut fresh = shared.dial_control(b)?;
        fresh.send(request)?;
        self.conns[b] = Some(fresh);
        Ok(false)
    }

    /// Reads backend `b`'s reply to the last [`Self::send`]. A
    /// connection that fails to deliver one is dropped.
    fn recv(&mut self, b: usize) -> io::Result<Response> {
        let reply = match &mut self.conns[b] {
            Some(conn) => conn.recv(),
            None => Err(io::ErrorKind::NotConnected.into()),
        };
        if reply.is_err() {
            self.conns[b] = None;
        }
        reply
    }
}

impl RouterShared {
    fn new(backends: Vec<BackendSpec>, config: RouterConfig) -> Self {
        RouterShared {
            control: Mutex::new(Control {
                log: Vec::new(),
                conns: backends.iter().map(|_| None).collect(),
            }),
            backends: backends.into_iter().map(Backend::new).collect(),
            balancer: Mutex::new(BalancerState::new(config.seed)),
            pins: Mutex::new(KeyCache::new(config.pin_capacity)),
            config,
            shutdown: Arc::default(),
            front: FrontCounters::default(),
            warm: AtomicU64::new(0),
            cold: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
            local_rejects: AtomicU64::new(0),
            backend_conn_seq: AtomicU64::new(0),
        }
    }

    fn tally(&self, outcome: InvokeOutcome) {
        let counter = match outcome {
            InvokeOutcome::Warm => &self.warm,
            InvokeOutcome::Cold => &self.cold,
            InvokeOutcome::Dropped => &self.dropped,
            InvokeOutcome::Rejected => &self.rejected,
            InvokeOutcome::Throttled => &self.throttled,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> InvokerStats {
        InvokerStats {
            warm: self.warm.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            throttled: self.throttled.load(Ordering::Relaxed),
            evictions: 0,
            prewarms: 0,
            migrations: 0,
        }
    }

    /// Picks a backend for `function` with the shared policy picker.
    /// `None` means no backend is currently healthy.
    fn pick_backend(&self, function: u32) -> Option<usize> {
        let mut state = self.balancer.lock().unwrap_or_else(|e| e.into_inner());
        route::pick(
            self.config.balancer,
            &mut state,
            self.backends.len(),
            function as u64,
            |i| self.backends[i].load(),
            |i| self.backends[i].healthy.load(Ordering::SeqCst),
            self.config.spill_watermark,
        )
    }

    /// Resolves the backend for a keyed invoke: reuse the pin while the
    /// pinned backend is healthy, else pick fresh and (re-)pin.
    fn pick_pinned(&self, function: u32, key: u64) -> Option<usize> {
        let pinned = {
            let pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
            pins.get(key)
        };
        if let Some(b) = pinned {
            if self.backends[b].healthy.load(Ordering::SeqCst) {
                return Some(b);
            }
        }
        let b = self.pick_backend(function)?;
        let mut pins = self.pins.lock().unwrap_or_else(|e| e.into_inner());
        pins.insert(key, b);
        Some(b)
    }

    fn control(&self) -> MutexGuard<'_, Control> {
        self.control.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Dials backend `b` for the control plane (mutations, replays,
    /// `Ping` probes): never fault-planned, and with the backend read
    /// timeout so a lost reply errors instead of hanging.
    fn dial_control(&self, b: usize) -> io::Result<Client> {
        let client = Client::connect(&self.backends[b].spec.addr)?;
        client.set_read_timeout(Some(self.config.backend_read_timeout))?;
        Ok(client)
    }

    /// A fault plan for the next backend data connection.
    fn next_backend_plan(&self) -> FaultPlan {
        let ordinal = self.backend_conn_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.config
            .backend_faults
            .filter(|f| f.is_active())
            .map(|f| f.plan(ordinal))
            .unwrap_or_else(FaultPlan::disabled)
    }
}

/// What one front connection keeps between its requests: its backend
/// connections and the jitter source of its hop-retry backoff.
struct HopCtx {
    cache: ConnCache,
    rng: Pcg64,
}

/// Per-front-connection cache of backend connections: one lazily-opened
/// binary client per backend, dropped and reopened after any IO error.
struct ConnCache {
    conns: Vec<Option<Client>>,
}

impl ConnCache {
    fn new(n: usize) -> Self {
        ConnCache {
            conns: (0..n).map(|_| None).collect(),
        }
    }

    fn get(&mut self, shared: &RouterShared, b: usize) -> io::Result<&mut Client> {
        if self.conns[b].is_none() {
            let client = Client::connect_with_faults(
                &shared.backends[b].spec.addr,
                shared.next_backend_plan(),
            )?;
            client.set_read_timeout(Some(shared.config.backend_read_timeout))?;
            self.conns[b] = Some(client);
        }
        Ok(self.conns[b].as_mut().expect("just inserted"))
    }

    fn drop_conn(&mut self, b: usize) {
        self.conns[b] = None;
    }
}

/// Whether an IO error means "nothing is listening there" — the only
/// class that ejects a backend from the forward path. Mid-stream
/// errors (resets, timeouts, torn frames) are hop weather, not backend
/// death; the prober decides those.
fn is_connect_refused(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotFound
            | io::ErrorKind::AddrNotAvailable
    )
}

/// The result of one forward: a backend outcome, or a hop failure
/// (answered as an explicit error to the client).
enum Forwarded {
    Outcome(InvokeOutcome),
    NoBackend,
    HopFailed(io::Error),
}

/// Forwards one invoke, retrying keyed requests per config. Tallies
/// outcomes and per-backend counters.
fn forward_invoke(
    shared: &RouterShared,
    ctx: &mut HopCtx,
    function: u32,
    key: Option<u64>,
) -> Forwarded {
    let HopCtx { cache, rng } = ctx;
    let backoff = ExpBackoff::new(shared.config.hop_backoff, shared.config.hop_backoff * 64);
    // Keyed requests may retry the hop (dedup makes it safe); unkeyed
    // get exactly one send attempt but may re-pick if the *connect*
    // fails (nothing was sent, so re-picking cannot double-execute).
    let max_attempts = if key.is_some() {
        1 + shared.config.hop_retries
    } else {
        1
    };
    let mut attempt = 0u32;
    let mut last_err: Option<io::Error> = None;
    loop {
        let picked = match key {
            Some(k) => shared.pick_pinned(function, k),
            None => shared.pick_backend(function),
        };
        let Some(b) = picked else {
            return match last_err {
                // All retries died on the hop and now nothing is
                // healthy: report the hop failure, not a local reject.
                Some(e) => Forwarded::HopFailed(e),
                None => Forwarded::NoBackend,
            };
        };
        let backend = &shared.backends[b];
        backend.in_flight.fetch_add(1, Ordering::SeqCst);
        let sent = match cache.get(shared, b) {
            Ok(client) => match key {
                Some(k) => client.invoke_keyed(function, k),
                None => client.invoke(function),
            },
            Err(e) => {
                backend.in_flight.fetch_sub(1, Ordering::SeqCst);
                if is_connect_refused(&e) {
                    backend.eject();
                    // Connect failed — nothing sent; safe to re-pick
                    // immediately even for unkeyed requests.
                    last_err = Some(e);
                    continue;
                }
                backend.forward_errors.fetch_add(1, Ordering::Relaxed);
                cache.drop_conn(b);
                last_err = Some(e);
                attempt += 1;
                if attempt >= max_attempts {
                    return Forwarded::HopFailed(last_err.expect("recorded"));
                }
                thread::sleep(backoff.delay(attempt, rng));
                continue;
            }
        };
        backend.in_flight.fetch_sub(1, Ordering::SeqCst);
        match sent {
            Ok(outcome) => {
                backend.routed.fetch_add(1, Ordering::Relaxed);
                shared.tally(outcome);
                return Forwarded::Outcome(outcome);
            }
            Err(e) => {
                backend.forward_errors.fetch_add(1, Ordering::Relaxed);
                cache.drop_conn(b);
                last_err = Some(e);
                attempt += 1;
                if attempt >= max_attempts {
                    return Forwarded::HopFailed(last_err.expect("recorded"));
                }
                thread::sleep(backoff.delay(attempt, rng));
            }
        }
    }
}

/// Sends one control-plane mutation (`what`, for the error message) to
/// every healthy backend and folds their answers with `merge`: written
/// to all of them first, answers collected second, so the backends'
/// fsyncs overlap instead of queueing behind each other. Succeeds if
/// every *healthy* backend accepted; an ejected backend is skipped (and
/// its standing connection dropped) — the caller records the
/// acknowledged mutation in the log, which [`readmit`] replays, so it
/// still converges.
///
/// A standing connection may have died since its last use (the backend
/// restarted, or cut it while draining), which only shows when it is
/// used. So a failure on a *reused* connection redials once and resends:
/// safe because mutations are idempotent on the backend, at the price
/// that a `Register` applied just before the old connection died is
/// answered `created = false` the second time. A failure on a fresh
/// connection is the backend's answer and is reported.
fn broadcast<T>(
    shared: &RouterShared,
    control: &mut Control,
    what: &str,
    request: &Request,
    decode: impl Fn(Response) -> io::Result<T>,
    merge: impl Fn(T, T) -> T,
) -> Result<T, String> {
    let mut failures = Vec::new();
    let mut sent = Vec::new();
    for (b, backend) in shared.backends.iter().enumerate() {
        if !backend.healthy.load(Ordering::SeqCst) {
            control.conns[b] = None;
            continue;
        }
        match control.send(shared, b, request) {
            Ok(reused) => sent.push((b, reused)),
            Err(e) => failures.push(format!("backend {b}: {e}")),
        }
    }
    let mut result: Option<T> = None;
    for (b, reused) in sent {
        let mut reply = control.recv(b);
        if reply.is_err() && reused {
            reply = control
                .send(shared, b, request)
                .and_then(|_| control.recv(b));
        }
        match reply.and_then(&decode) {
            Ok(r) => {
                result = Some(match result {
                    Some(prev) => merge(prev, r),
                    None => r,
                })
            }
            Err(e) => failures.push(format!("backend {b}: {e}")),
        }
    }
    match result {
        Some(r) if failures.is_empty() => Ok(r),
        _ => Err(format!(
            "{what} did not reach every healthy backend: {}",
            if failures.is_empty() {
                "no healthy backends".to_string()
            } else {
                failures.join("; ")
            }
        )),
    }
}

impl Service for RouterShared {
    type Ctx = HopCtx;

    /// Every connection draws its backoff jitter from its own split of
    /// the seed (the way `fault.rs` derives per-stream plans), so
    /// connections retrying a failed hop do not sleep in lock-step.
    fn conn_ctx(&self, ordinal: u64) -> HopCtx {
        let mut parent = Pcg64::seed_from_u64(self.config.seed ^ 0x6F72_7574_6572_0001);
        HopCtx {
            cache: ConnCache::new(self.backends.len()),
            rng: parent.split(ordinal),
        }
    }

    fn call(&self, ctx: &mut HopCtx, op: Op) -> Reply {
        match op {
            Op::Invoke {
                function: FnTarget::Index(function),
                key,
            } => {
                // Refused locally once the *router's* drain begins,
                // before any backend drains. Counted into `rejected` so
                // conservation holds: a local reject is an explicit
                // outcome, not a lost request.
                let forwarded = if self.draining() {
                    Forwarded::NoBackend
                } else {
                    forward_invoke(self, ctx, function, key)
                };
                match forwarded {
                    Forwarded::Outcome(outcome) => Reply::Invoked { function, outcome },
                    Forwarded::NoBackend => {
                        self.rejected.fetch_add(1, Ordering::Relaxed);
                        self.local_rejects.fetch_add(1, Ordering::Relaxed);
                        Reply::Invoked {
                            function,
                            outcome: InvokeOutcome::Rejected,
                        }
                    }
                    // 502, not 503: a hop failure must read as an error
                    // at the client, never as a backend Rejected outcome
                    // — otherwise chaos on the interconnect would
                    // corrupt conservation tallies.
                    Forwarded::HopFailed(e) => Reply::Error {
                        status: 502,
                        msg: format!("forward failed: {e}"),
                        close: true,
                    },
                }
            }
            // The binary forward protocol addresses functions by index
            // only; resolve names client-side (register returns the
            // index).
            Op::Invoke {
                function: FnTarget::Name(name),
                ..
            } => Reply::error(
                404,
                format!("the router forwards by index; register {name:?} to learn its index"),
            ),
            Op::Register {
                name,
                mem_mb,
                warm_us,
                cold_us,
                tenant,
            } => {
                let request = Request::Register {
                    name: name.clone(),
                    mem_mb,
                    warm_us,
                    cold_us,
                    tenant,
                };
                // Every backend must agree on the name → index mapping;
                // the first answer speaks for all.
                let mut control = self.control();
                let sent = broadcast(
                    self,
                    &mut control,
                    "register",
                    &request,
                    client::registered,
                    |first, _| first,
                );
                match sent {
                    Ok((function, created)) => {
                        control.record(request);
                        Reply::Registered {
                            function,
                            name,
                            created,
                        }
                    }
                    Err(msg) => Reply::error(502, msg),
                }
            }
            Op::SetQuota {
                tenant,
                inflight,
                mem_mb,
            } => {
                let request = Request::SetTenantQuota {
                    tenant: tenant.clone(),
                    inflight,
                    mem_mb,
                };
                // Live if any backend applied it to a bound tenant slot.
                let mut control = self.control();
                let sent = broadcast(
                    self,
                    &mut control,
                    "quota update",
                    &request,
                    client::quota_set,
                    |a, b| a | b,
                );
                match sent {
                    Ok(live) => {
                        control.record(request);
                        Reply::QuotaSet { tenant, live }
                    }
                    Err(msg) => Reply::error(502, msg),
                }
            }
            Op::Stats => Reply::Stats(self.stats()),
            Op::Ping | Op::Healthz => Reply::Alive,
            Op::Metrics => Reply::Metrics(self.render_metrics()),
            Op::Shutdown => Reply::shutdown(&self.shutdown, self.config.allow_remote_shutdown),
            Op::Fail { status, msg } => Reply::error(status, msg),
        }
    }

    fn drain_latch(&self) -> &DrainLatch {
        &self.shutdown
    }

    fn counters(&self) -> &FrontCounters {
        &self.front
    }
}

impl RouterShared {
    /// Renders the router's counters in Prometheus text exposition
    /// format: cluster-wide outcome tallies plus per-backend routed /
    /// forward-error / health / in-flight / ejection series.
    fn render_metrics(&self) -> String {
        let mut m = PromText::new();
        m.family(
            "faasrouter_requests_total",
            "counter",
            "Invocation outcomes forwarded by the router.",
        );
        for (label, counter) in [
            ("warm", &self.warm),
            ("cold", &self.cold),
            ("dropped", &self.dropped),
            ("rejected", &self.rejected),
            ("throttled", &self.throttled),
        ] {
            m.sample(&[("outcome", &label)], counter.load(Ordering::Relaxed));
        }
        m.single(
            "faasrouter_local_rejects_total",
            "counter",
            "Invokes refused locally: draining, or no healthy backend.",
            self.local_rejects.load(Ordering::Relaxed),
        );
        type Series = (
            &'static str,
            &'static str,
            &'static str,
            fn(&Backend) -> u64,
        );
        let per_backend: [Series; 6] = [
            (
                "faasrouter_backend_healthy",
                "gauge",
                "Whether the backend is in the routing set.",
                |b| u64::from(b.healthy.load(Ordering::SeqCst)),
            ),
            (
                "faasrouter_backend_routed_total",
                "counter",
                "Forwards that reached a backend outcome.",
                |b| b.routed.load(Ordering::Relaxed),
            ),
            (
                "faasrouter_backend_forward_errors_total",
                "counter",
                "Forwards that died on the hop, after any retries.",
                |b| b.forward_errors.load(Ordering::Relaxed),
            ),
            (
                "faasrouter_backend_ejections_total",
                "counter",
                "Times the backend was ejected from the routing set.",
                |b| b.ejections.load(Ordering::Relaxed),
            ),
            (
                "faasrouter_backend_reconciled_total",
                "counter",
                "Mutations replayed into the backend at re-admission.",
                |b| b.reconciled.load(Ordering::Relaxed),
            ),
            (
                "faasrouter_backend_in_flight",
                "gauge",
                "Requests outstanding on the backend: the router's plus its own gauge.",
                Backend::load,
            ),
        ];
        for (name, kind, help, read) in per_backend {
            m.family(name, kind, help);
            for (i, b) in self.backends.iter().enumerate() {
                m.sample(&[("backend", &i)], read(b));
            }
        }
        m.single(
            "faasrouter_connections_total",
            "counter",
            "Front connections accepted over the router's lifetime.",
            self.front.conns_total.load(Ordering::Relaxed),
        );
        m.single(
            "faasrouter_draining",
            "gauge",
            "Whether the router is draining (1) or serving (0).",
            u64::from(self.draining()),
        );
        m.finish()
    }
}

/// The health prober: one thread sweeping every backend on
/// `health_interval`, ejecting after `eject_after` consecutive failures
/// and re-admitting ejected backends on a backed-off probe cadence.
///
/// Probes ride *clean* connections (control plane): chaos on the data
/// hop must not flap routing membership, or fault injection would turn
/// into spurious migrations that break exactly-once pinning.
fn probe_loop(shared: &RouterShared) {
    struct ProbeState {
        next: Instant,
        consecutive_fails: u32,
        /// Backoff exponent while ejected.
        readmit_attempt: u32,
    }
    let mut rng = Pcg64::seed_from_u64(shared.config.seed ^ 0x6865_616C_7468_0003);
    let backoff = ExpBackoff::new(shared.config.readmit_backoff, shared.config.readmit_cap);
    let mut states: Vec<ProbeState> = shared
        .backends
        .iter()
        .map(|_| ProbeState {
            next: Instant::now(),
            consecutive_fails: 0,
            readmit_attempt: 0,
        })
        .collect();
    while !shared.draining() {
        let now = Instant::now();
        for (i, backend) in shared.backends.iter().enumerate() {
            let state = &mut states[i];
            if now < state.next {
                continue;
            }
            let ok = probe_backend(shared, i);
            let healthy = backend.healthy.load(Ordering::SeqCst);
            if ok {
                state.consecutive_fails = 0;
                if !healthy && !readmit(shared, i) {
                    // The backend answers probes but could not absorb
                    // the mutation-log replay; keep it out of routing
                    // and retry reconciliation on the readmit backoff.
                    state.readmit_attempt = state.readmit_attempt.saturating_add(1);
                    state.next = now + backoff.delay(state.readmit_attempt, &mut rng);
                    continue;
                }
                state.readmit_attempt = 0;
                state.next = now + shared.config.health_interval;
            } else {
                state.consecutive_fails += 1;
                if healthy && state.consecutive_fails >= shared.config.eject_after {
                    backend.eject();
                }
                if backend.healthy.load(Ordering::SeqCst) {
                    state.next = now + shared.config.health_interval;
                } else {
                    state.readmit_attempt = state.readmit_attempt.saturating_add(1);
                    state.next = now + backoff.delay(state.readmit_attempt, &mut rng);
                }
            }
        }
        // Short fixed tick so shutdown is noticed promptly even with a
        // long health interval.
        thread::sleep(Duration::from_millis(5).min(shared.config.health_interval));
    }
}

/// One probe: HTTP `/healthz` + `/metrics` gauge scrape when the spec
/// has a gateway address, else binary `Ping`. Dials per probe, never a
/// standing connection: connect-refused is the liveness signal.
fn probe_backend(shared: &RouterShared, b: usize) -> bool {
    let backend = &shared.backends[b];
    let timeout = shared.config.backend_read_timeout;
    match backend.spec.http {
        Some(http_addr) => {
            let probe = || -> io::Result<bool> {
                let mut client = crate::http::HttpClient::connect(&BoundAddr::Tcp(http_addr))?;
                client.set_read_timeout(Some(timeout))?;
                if client.healthz()? != 200 {
                    return Ok(false);
                }
                let body = client.metrics()?;
                backend
                    .polled_in_flight
                    .store(sum_shard_in_flight(&body), Ordering::Relaxed);
                Ok(true)
            };
            probe().unwrap_or(false)
        }
        None => shared.dial_control(b).and_then(|mut c| c.ping()).is_ok(),
    }
}

/// Sums `faascache_shard_in_flight{shard="i"} N` gauge lines from a
/// backend `/metrics` body — the backend's live in-flight total, which
/// feeds least-loaded routing alongside the router's own gauge.
///
/// Tolerant by construction: a malformed or truncated exposition body
/// contributes nothing (lines that don't parse are skipped), it never
/// panics, and it never fails the probe — scrape quality must not be
/// able to eject a healthy backend.
fn sum_shard_in_flight(metrics: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with("faascache_shard_in_flight{"))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(_, v)| v.trim().parse::<u64>().ok())
        .sum()
}

/// Extracts the `faascache_registry_digest` gauge from a backend
/// `/metrics` body. `None` when absent or malformed — digest comparison
/// then degrades to an unconditional (still idempotent) replay.
fn scrape_registry_digest(metrics: &str) -> Option<u64> {
    metrics
        .lines()
        .filter(|l| l.starts_with("faascache_registry_digest "))
        .find_map(|l| l.rsplit_once(' ')?.1.trim().parse::<u64>().ok())
}

/// The registry digest a backend currently reports, when it exposes an
/// HTTP gateway.
fn backend_registry_digest(backend: &Backend, timeout: Duration) -> Option<u64> {
    let http_addr = backend.spec.http?;
    let scrape = || -> io::Result<String> {
        let mut client = crate::http::HttpClient::connect(&BoundAddr::Tcp(http_addr))?;
        client.set_read_timeout(Some(timeout))?;
        client.metrics()
    };
    scrape_registry_digest(&scrape().ok()?)
}

/// Re-admission: before ejected backend `b` rejoins the routing set,
/// replay the router's acknowledged mutation log into it so a backend
/// that crashed and restarted (from an empty or stale `--state-dir`)
/// converges with the cluster's registry and quotas, then flip it
/// healthy. All under the control lock, so a mutation is either in the
/// log this replays or broadcast to `b` as a healthy backend; none is
/// acknowledged in between.
///
/// Digest fast path: when the rejoining backend already reports the
/// same `faascache_registry_digest` as a healthy peer and no quota
/// mutations are logged, there is nothing to replay. Otherwise the full
/// log is replayed — idempotent on the backend, so over-replaying is
/// always safe. Returns `false` (keep ejected, retry on backoff) if any
/// replayed mutation failed.
fn readmit(shared: &RouterShared, b: usize) -> bool {
    let backend = &shared.backends[b];
    let mut control = shared.control();
    // Whatever stood before the ejection is stale.
    control.conns[b] = None;
    let timeout = shared.config.backend_read_timeout;
    let registrations_converged = !control.log.is_empty()
        && match backend_registry_digest(backend, timeout) {
            Some(digest) => shared
                .backends
                .iter()
                .filter(|peer| !std::ptr::eq(*peer, backend))
                .filter(|peer| peer.healthy.load(Ordering::SeqCst))
                .any(|peer| backend_registry_digest(peer, timeout) == Some(digest)),
            None => false,
        };
    let replay = || -> io::Result<(Client, u64)> {
        let mut client = shared.dial_control(b)?;
        let mut replayed = 0u64;
        for request in &control.log {
            let is_register = matches!(request, Request::Register { .. });
            if is_register && registrations_converged {
                continue;
            }
            client.send(request)?;
            let reply = client.recv()?;
            if is_register {
                client::registered(reply)?;
            } else {
                client::quota_set(reply)?;
            }
            replayed += 1;
        }
        Ok((client, replayed))
    };
    match replay() {
        Ok((client, replayed)) => {
            backend.reconciled.fetch_add(replayed, Ordering::Relaxed);
            control.conns[b] = Some(client);
            backend.healthy.store(true, Ordering::SeqCst);
            true
        }
        Err(_) => false,
    }
}

/// Per-backend slice of the final [`RouterReport`].
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// The backend's spec, as configured.
    pub spec: String,
    /// Forwards that reached a backend outcome.
    pub routed: u64,
    /// Forwards that died on the hop (after retries).
    pub forward_errors: u64,
    /// Times the backend was ejected from the routing set.
    pub ejections: u64,
    /// Whether the backend was in the routing set at exit.
    pub healthy: bool,
}

/// Final accounting returned by [`Router::run`].
#[derive(Debug, Clone)]
pub struct RouterReport {
    /// Routing policy label.
    pub balancer: String,
    /// Cluster-wide outcome tallies over forwarded invokes.
    pub stats: InvokerStats,
    /// Invokes refused locally because no backend was healthy.
    pub local_rejects: u64,
    /// Per-backend routed/forward-error/ejection counters.
    pub per_backend: Vec<BackendReport>,
    /// Front connections accepted over the router's lifetime.
    pub connections: u64,
    /// Binary request frames served.
    pub frames: u64,
    /// HTTP requests served.
    pub http_requests: u64,
    /// Front connections torn down due to malformed input.
    pub protocol_errors: u64,
    /// Times a front accept loop woke from its park in the kernel: per
    /// burst of connections, per read timeout while idle, for the drain.
    pub accept_wakeups: u64,
    /// Whether every admitted request completed within the drain window.
    pub drained: bool,
    /// Wall-clock lifetime.
    pub uptime: Duration,
}

impl RouterReport {
    /// Total forward errors across backends.
    pub fn forward_errors(&self) -> u64 {
        self.per_backend.iter().map(|b| b.forward_errors).sum()
    }

    /// Total ejections across backends.
    pub fn ejections(&self) -> u64 {
        self.per_backend.iter().map(|b| b.ejections).sum()
    }

    /// The one-line summary `faas-router` prints on exit.
    pub fn summary_line(&self) -> String {
        format!(
            "faas-router: balancer={} uptime={:.1}s conns={} frames={} \
             http_requests={} warm={} cold={} dropped={} rejected={} \
             throttled={} local_rejects={} forward_errors={} ejections={} \
             proto_errors={} drained={}",
            self.balancer,
            self.uptime.as_secs_f64(),
            self.connections,
            self.frames,
            self.http_requests,
            self.stats.warm,
            self.stats.cold,
            self.stats.dropped,
            self.stats.rejected,
            self.stats.throttled,
            self.local_rejects,
            self.forward_errors(),
            self.ejections(),
            self.protocol_errors,
            self.drained,
        )
    }
}

/// A bound, not-yet-running router.
pub struct Router {
    front: Front,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Binds the front endpoints; call [`Router::run`] to start serving.
    /// `backends` must be non-empty, and the read timeouts and the health
    /// interval above zero.
    pub fn bind(
        endpoint: &Endpoint,
        http_addr: Option<&str>,
        config: RouterConfig,
        backends: Vec<BackendSpec>,
    ) -> io::Result<Router> {
        if backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "faas-router needs at least one --backend",
            ));
        }
        driver::require_nonzero(&[
            ("read_timeout", config.read_timeout),
            ("backend_read_timeout", config.backend_read_timeout),
            ("health_interval", config.health_interval),
        ])?;
        // Front connections are always clean; fault injection applies to
        // the router→backend hop (`backend_faults`), where the chaos
        // conformance suite aims it.
        let front = Front::bind(endpoint, http_addr, config.read_timeout, None)?;
        Ok(Router {
            front,
            shared: Arc::new(RouterShared::new(backends, config)),
        })
    }

    /// The binary front address actually bound.
    pub fn bound_addr(&self) -> BoundAddr {
        self.front.bound_addr()
    }

    /// The HTTP front's bound address, when one was requested.
    pub fn bound_http_addr(&self) -> Option<BoundAddr> {
        self.front.bound_http_addr()
    }

    /// A handle that requests graceful shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            latch: Arc::clone(&self.shared.shutdown),
        }
    }

    /// Serves until shutdown is requested, then drains and returns the
    /// final report. The router runs on the blocking driver only: every
    /// request is a blocking round-trip to a backend, which on the epoll
    /// reactor would stall every other connection; putting the router
    /// on epoll needs non-blocking backend I/O first.
    pub fn run(self) -> RouterReport {
        let started = Instant::now();
        let shared = &self.shared;
        let handlers = thread::scope(|scope| {
            scope.spawn(|| probe_loop(shared));
            self.front.serve(shared)
        });
        let drained = driver::drain(&**shared, handlers, shared.config.drain_timeout);
        self.front.unlink();

        let per_backend = shared
            .backends
            .iter()
            .map(|b| BackendReport {
                spec: b.spec.to_string(),
                routed: b.routed.load(Ordering::Relaxed),
                forward_errors: b.forward_errors.load(Ordering::Relaxed),
                ejections: b.ejections.load(Ordering::Relaxed),
                healthy: b.healthy.load(Ordering::SeqCst),
            })
            .collect();
        RouterReport {
            balancer: shared.config.balancer.label().to_string(),
            stats: shared.stats(),
            local_rejects: shared.local_rejects.load(Ordering::Relaxed),
            per_backend,
            connections: shared.front.conns_total.load(Ordering::Relaxed),
            frames: shared.front.frames.load(Ordering::Relaxed),
            http_requests: shared.front.http_requests.load(Ordering::Relaxed),
            protocol_errors: shared.front.protocol_errors.load(Ordering::Relaxed),
            accept_wakeups: shared.front.accept_wakeups.load(Ordering::Relaxed),
            drained,
            uptime: started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_spec_parses_and_round_trips() {
        let spec: BackendSpec = "127.0.0.1:7077".parse().unwrap();
        assert_eq!(spec.addr, BoundAddr::Tcp("127.0.0.1:7077".parse().unwrap()));
        assert_eq!(spec.http, None);
        assert_eq!(spec.to_string(), "127.0.0.1:7077");

        let spec: BackendSpec = "127.0.0.1:7077+http=127.0.0.1:8077".parse().unwrap();
        assert_eq!(
            spec.http,
            Some("127.0.0.1:8077".parse::<SocketAddr>().unwrap())
        );
        assert_eq!(spec.to_string(), "127.0.0.1:7077+http=127.0.0.1:8077");

        #[cfg(unix)]
        {
            let spec: BackendSpec = "unix:/tmp/be0.sock+http=127.0.0.1:9000".parse().unwrap();
            assert_eq!(
                spec.addr,
                BoundAddr::Unix(std::path::PathBuf::from("/tmp/be0.sock"))
            );
            assert_eq!(spec.to_string(), "unix:/tmp/be0.sock+http=127.0.0.1:9000");
        }

        assert!("not-an-addr".parse::<BackendSpec>().is_err());
        assert!("127.0.0.1:1+http=nope".parse::<BackendSpec>().is_err());
    }

    /// Binds a router on a free port in front of one backend that is
    /// never dialled: binding alone must judge `config`.
    fn bind_with(config: RouterConfig) -> io::Result<Router> {
        let backend = "127.0.0.1:1".parse().unwrap();
        let endpoint = Endpoint::Tcp("127.0.0.1:0".into());
        Router::bind(&endpoint, None, config, vec![backend])
    }

    fn assert_refused(config: RouterConfig) {
        let err = bind_with(config).err().expect("a zero duration binds");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn zero_read_timeout_is_refused() {
        assert_refused(RouterConfig {
            read_timeout: Duration::ZERO,
            ..RouterConfig::default()
        });
    }

    #[test]
    fn zero_backend_read_timeout_is_refused() {
        assert_refused(RouterConfig {
            backend_read_timeout: Duration::ZERO,
            ..RouterConfig::default()
        });
    }

    #[test]
    fn zero_health_interval_is_refused() {
        assert_refused(RouterConfig {
            health_interval: Duration::ZERO,
            ..RouterConfig::default()
        });
    }

    #[test]
    fn pin_cache_is_bounded_fifo() {
        // `KeyCache` is also the daemon's dedup cache; this is its test.
        let mut pins = KeyCache::new(2);
        pins.insert(1, 0);
        pins.insert(2, 1);
        assert_eq!(pins.get(1), Some(0));
        pins.insert(3, 2);
        assert_eq!(pins.get(1), None, "oldest pin evicted");
        assert_eq!(pins.get(2), Some(1));
        assert_eq!(pins.get(3), Some(2));
        // Re-pinning an existing key moves the backend, not the order.
        pins.insert(2, 0);
        assert_eq!(pins.get(2), Some(0));
    }

    #[test]
    fn shard_in_flight_sum_parses_metrics() {
        let body = "faascache_requests_total{outcome=\"warm\"} 5\n\
                    faascache_shard_in_flight{shard=\"0\"} 3\n\
                    faascache_shard_in_flight{shard=\"1\"} 4\n\
                    faasrouter_draining 0\n";
        assert_eq!(sum_shard_in_flight(body), 7);
        assert_eq!(sum_shard_in_flight(""), 0);
    }

    #[test]
    fn shard_in_flight_sum_survives_malformed_exposition() {
        // Malformed or truncated Prometheus text must not panic and
        // must not poison the sum: unparseable lines contribute zero.
        let cases: &[(&str, u64)] = &[
            // Value is not a number.
            ("faascache_shard_in_flight{shard=\"0\"} NaN\n", 0),
            // Negative gauge (not a u64).
            ("faascache_shard_in_flight{shard=\"0\"} -3\n", 0),
            // Truncated mid-line: no space separator at all.
            ("faascache_shard_in_flight{shard=\"0\"}", 0),
            // Truncated after the separator.
            ("faascache_shard_in_flight{shard=\"0\"} ", 0),
            // One good line among garbage keeps its value.
            (
                "faascache_shard_in_flight{shard=\"0\"} 5\n\
                 faascache_shard_in_flight{shard=\"1\"} oops\n\
                 faascache_shard_in_flight{shard=\"2\"",
                5,
            ),
            // Binary junk.
            ("\u{0}\u{1}\u{2}garbage without structure", 0),
            // A different metric that merely shares the prefix word.
            ("faascache_shard_in_flight_total 9\n", 0),
        ];
        for (body, want) in cases {
            assert_eq!(sum_shard_in_flight(body), *want, "body {body:?}");
        }
    }

    #[test]
    fn registry_digest_scrape_parses_and_tolerates_garbage() {
        let body = "# TYPE faascache_registry_digest gauge\n\
                    faascache_registry_digest 12345678901234567890\n";
        assert_eq!(scrape_registry_digest(body), Some(12345678901234567890));
        assert_eq!(scrape_registry_digest(""), None);
        assert_eq!(
            scrape_registry_digest("faascache_registry_digest x\n"),
            None
        );
        assert_eq!(scrape_registry_digest("faascache_registry_digest\n"), None);
        // The HELP line must not shadow the sample line.
        let with_help = "# HELP faascache_registry_digest FNV-1a fingerprint\n\
                         faascache_registry_digest 7\n";
        assert_eq!(scrape_registry_digest(with_help), Some(7));
    }

    #[test]
    fn mutation_log_dedupes_registers_and_last_wins_quotas() {
        let shared = test_shared(2, LoadBalancer::RoundRobin);
        let register = |name: &str, mem_mb, warm_us, cold_us, tenant: &str| Request::Register {
            name: name.to_string(),
            mem_mb,
            warm_us,
            cold_us,
            tenant: tenant.to_string(),
        };
        let quota = |tenant: &str, inflight, mem_mb| Request::SetTenantQuota {
            tenant: tenant.to_string(),
            inflight,
            mem_mb,
        };
        let mut control = shared.control();
        control.record(register("f1", 128, 1_000, 25_000, ""));
        control.record(register("f1", 256, 9, 9, "other"));
        control.record(register("f2", 64, 1, 2, "acme"));
        control.record(quota("acme", 8, 1024));
        control.record(quota("acme", 4, 512));
        control.record(quota("beta", 2, u64::MAX));
        let log = &control.log;
        assert_eq!(log.len(), 4, "f1 deduped, acme quota replaced in place");
        match &log[0] {
            Request::Register { name, mem_mb, .. } => {
                assert_eq!(name, "f1");
                assert_eq!(*mem_mb, 128, "first registration owns the function");
            }
            other => panic!("expected register, got {other:?}"),
        }
        match &log[2] {
            Request::SetTenantQuota {
                tenant,
                inflight,
                mem_mb,
            } => {
                assert_eq!(tenant, "acme");
                assert_eq!((*inflight, *mem_mb), (4, 512), "last quota wins");
            }
            other => panic!("expected quota, got {other:?}"),
        }
    }

    fn test_shared(backends: usize, balancer: LoadBalancer) -> RouterShared {
        let specs = (0..backends)
            .map(|i| BackendSpec {
                addr: BoundAddr::Tcp(format!("127.0.0.1:{}", 1000 + i).parse().unwrap()),
                http: None,
            })
            .collect();
        let config = RouterConfig {
            balancer,
            seed: 7,
            pin_capacity: 8,
            ..RouterConfig::default()
        };
        RouterShared::new(specs, config)
    }

    #[test]
    fn pick_pinned_reuses_backend_until_ejected() {
        let shared = test_shared(4, LoadBalancer::RoundRobin);
        let first = shared.pick_pinned(9, 0xABCD).unwrap();
        for _ in 0..8 {
            assert_eq!(shared.pick_pinned(9, 0xABCD), Some(first));
        }
        // Unpinned keys keep rotating.
        let other = shared.pick_pinned(9, 0xBEEF).unwrap();
        let _ = other;
        // Eject the pinned backend: the key re-pins elsewhere and
        // sticks there.
        shared.backends[first].eject();
        let moved = shared.pick_pinned(9, 0xABCD).unwrap();
        assert_ne!(moved, first);
        assert_eq!(shared.pick_pinned(9, 0xABCD), Some(moved));
        assert_eq!(shared.backends[first].ejections.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pick_backend_skips_unhealthy_and_exhausts_to_none() {
        let shared = test_shared(3, LoadBalancer::FunctionAffinity);
        for b in &shared.backends {
            b.eject();
        }
        assert_eq!(shared.pick_backend(3), None);
        shared.backends[1].healthy.store(true, Ordering::SeqCst);
        assert_eq!(shared.pick_backend(3), Some(1));
    }

    #[test]
    fn router_metrics_render_expected_series() {
        let shared = test_shared(2, LoadBalancer::Random);
        shared.warm.fetch_add(3, Ordering::Relaxed);
        shared.backends[0].routed.fetch_add(2, Ordering::Relaxed);
        shared.backends[1].eject();
        let body = shared.render_metrics();
        assert!(body.contains("faasrouter_requests_total{outcome=\"warm\"} 3"));
        assert!(body.contains("faasrouter_backend_routed_total{backend=\"0\"} 2"));
        assert!(body.contains("faasrouter_backend_healthy{backend=\"1\"} 0"));
        assert!(body.contains("faasrouter_backend_ejections_total{backend=\"1\"} 1"));
        assert!(body.contains("faasrouter_draining 0"));
        shared.shutdown.request();
        assert!(shared.render_metrics().contains("faasrouter_draining 1"));
    }

    #[test]
    fn connections_draw_their_own_backoff_jitter() {
        let shared = test_shared(1, LoadBalancer::Random);
        let backoff = ExpBackoff::new(Duration::from_millis(1), Duration::from_millis(64));
        let delays = |ordinal| {
            let mut ctx = shared.conn_ctx(ordinal);
            (1..=6)
                .map(|attempt| backoff.delay(attempt, &mut ctx.rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(delays(1), delays(1), "a connection's schedule replays");
        assert_ne!(delays(1), delays(2), "connections retry in lock-step");
    }

    #[test]
    fn oversized_mem_mb_is_refused_before_any_broadcast() {
        use crate::service::{respond, ConnKind};
        // The backends are unreachable, so a broadcast attempt would
        // answer 502; 400 means the request never got that far.
        let shared = test_shared(2, LoadBalancer::RoundRobin);
        let req = crate::http::HttpRequest {
            method: "PUT".to_string(),
            target: format!("/functions/big?mem_mb={}", u64::from(u32::MAX) + 1),
            close: false,
            idem_key: None,
            body: Vec::new(),
        };
        let mut out = Vec::new();
        let op = crate::http::route(&req);
        respond(
            &shared,
            &mut shared.conn_ctx(1),
            ConnKind::Http,
            op,
            false,
            &mut out,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
        assert!(text.contains("exceeds the u32 wire range"), "{text}");
        assert!(shared.control().log.is_empty());
    }

    #[test]
    fn eject_is_idempotent() {
        let shared = test_shared(1, LoadBalancer::Random);
        shared.backends[0].eject();
        shared.backends[0].eject();
        assert_eq!(shared.backends[0].ejections.load(Ordering::Relaxed), 1);
    }
}
