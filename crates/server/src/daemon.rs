//! The `faascached` daemon: the sharded invoker behind a socket.
//!
//! One daemon process owns a [`ShardedInvoker`] — N container-pool shards
//! with function-affinity routing and bounded admission — and serves it
//! over TCP or a Unix domain socket, plus an optional HTTP gateway. This
//! module holds what is the daemon's own: the shared state, its
//! `Service` implementation (how each operation executes against the
//! invoker, the registry and the journal), and the process lifecycle.
//! Moving bytes is the drivers' job: the blocking `driver` or, with
//! `--io-model epoll`, [`crate::reactor`].
//!
//! The structure mirrors what the FaasCache paper does to OpenWhisk's
//! invoker, minus Docker: requests carry a function identity, the pool
//! decides warm/cold/dropped, and keep-alive containers are reaped by a
//! background thread per shard on a wall-clock interval.
//!
//! Shutdown is graceful by construction: a SIGTERM, a protocol
//! [`Shutdown`](crate::proto::Request::Shutdown) frame, or a
//! [`ShutdownHandle`] all set one flag. The driver stops taking new
//! connections, the invoker's admission gates flip to draining (new
//! invokes are *rejected*, visibly, not silently), the responses of
//! everything already admitted are written, and `run` returns a
//! [`DaemonReport`] whose counters account for every request that was
//! ever read off a socket.

use crate::driver::{self, Front};
use crate::fault::FaultConfig;
use crate::journal::{registry_digest, Journal, JournalRecord};
use crate::net::DrainLatch;
use crate::prom::PromText;
use crate::service::{FnTarget, FrontCounters, KeyCache, Op, Reply, Service};
use faascache_core::function::{FunctionId, FunctionRegistry};
use faascache_core::policy::PolicyKind;
use faascache_platform::sharded::{
    InvokeOutcome, InvokerStats, RebalanceConfig, ShardedConfig, ShardedInvoker,
};
use faascache_platform::tenant::{TenantQuota, TenantQuotas};
use faascache_util::{stats::balance_ratio, MemMb, SimDuration, SimTime};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address like `127.0.0.1:7077` (port 0 picks a free port).
    Tcp(String),
    /// A Unix domain socket path. The daemon unlinks the path on exit.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// The concrete address a daemon bound, usable to connect a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundAddr {
    /// Bound TCP socket address (with the real port even if 0 was asked).
    Tcp(SocketAddr),
    /// Bound Unix socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Which serving core multiplexes connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoModel {
    /// One blocking handler thread per connection — the driver the
    /// router also runs, and the only one off Linux. Simple, portable,
    /// capped at a few hundred connections by per-thread stacks.
    #[default]
    Threads,
    /// A single epoll reactor thread that multiplexes every connection
    /// and serves each request where it read it — see
    /// [`crate::reactor`]. Linux only; lifts the connection ceiling to
    /// tens of thousands.
    Epoll,
}

impl std::str::FromStr for IoModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(IoModel::Threads),
            "epoll" => Ok(IoModel::Epoll),
            other => Err(format!("unknown io model {other:?} (threads|epoll)")),
        }
    }
}

impl std::fmt::Display for IoModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoModel::Threads => "threads",
            IoModel::Epoll => "epoll",
        })
    }
}

/// Tuning knobs of a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Number of invoker shards.
    pub shards: usize,
    /// Total keep-alive memory, split evenly across shards.
    pub total_mem: MemMb,
    /// Per-shard bound on admitted-but-unfinished invocations.
    pub queue_bound: usize,
    /// Keep-alive policy instantiated on every shard.
    pub policy: PolicyKind,
    /// Wall-clock interval between background reaps of each shard.
    pub reap_interval: Duration,
    /// Socket read timeout; bounds how long a handler takes to notice
    /// the shutdown flag.
    pub read_timeout: Duration,
    /// How long `run` waits for in-flight requests during drain before
    /// giving up and reporting `drained: false`.
    pub drain_timeout: Duration,
    /// Deterministic fault injection applied to every accepted
    /// connection (chaos testing). `None` — or an all-zero config —
    /// serves clean streams.
    pub faults: Option<FaultConfig>,
    /// Whether a wire [`Shutdown`](crate::proto::Request::Shutdown)
    /// frame may drain the daemon. Disable when untrusted (or
    /// fault-injected: a corrupted opcode must not be able to kill the
    /// daemon) peers share the socket; the [`ShutdownHandle`] and
    /// SIGTERM always work.
    pub allow_remote_shutdown: bool,
    /// Capacity of the idempotency-key cache backing
    /// [`InvokeKeyed`](crate::proto::Request::InvokeKeyed). Oldest keys
    /// are evicted first.
    pub idem_capacity: usize,
    /// Power-of-two-choices admission: `Some(watermark)` spills requests
    /// to a function's alternate candidate shard when the preferred
    /// shard has more than `watermark` requests in flight.
    pub p2c: Option<u64>,
    /// Background warm-set re-homing, run on the reaper cadence.
    pub rebalance: Option<RebalanceConfig>,
    /// Which serving core multiplexes connections.
    pub io_model: IoModel,
    /// Per-tenant isolation budgets (`--tenant-quota`); unlimited by
    /// default, which disables throttling entirely.
    pub tenant_quotas: TenantQuotas,
    /// Durable control-plane journal (`--state-dir`). When set, every
    /// runtime `Register` and tenant-quota update is fsynced into the
    /// journal *before* it is acknowledged on the wire, so a SIGKILLed
    /// daemon restarted from the same state dir recovers every acked
    /// mutation. `None` (the default) serves purely in-memory.
    pub journal: Option<Arc<Mutex<Journal>>>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            shards: thread::available_parallelism().map_or(4, |n| n.get().min(16)),
            total_mem: MemMb::new(8192),
            queue_bound: 1024,
            policy: PolicyKind::GreedyDual,
            reap_interval: Duration::from_millis(500),
            read_timeout: Duration::from_millis(50),
            drain_timeout: Duration::from_secs(10),
            faults: None,
            allow_remote_shutdown: true,
            idem_capacity: 65_536,
            p2c: None,
            rebalance: None,
            io_model: IoModel::Threads,
            tenant_quotas: TenantQuotas::unlimited(),
            journal: None,
        }
    }
}

/// Final accounting returned by [`Daemon::run`].
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// Aggregate invoker statistics at exit.
    pub stats: InvokerStats,
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Connections still open when the daemon exited (a graceful drain
    /// closes the daemon side, so this is usually 0 unless peers held
    /// idle connections through SIGTERM).
    pub open_connections: u64,
    /// High-water mark of simultaneously open connections.
    pub peak_connections: u64,
    /// Accept-loop failures other than `WouldBlock` (fd exhaustion and
    /// kin). The listener survives these; the connection does not.
    pub accept_errors: u64,
    /// Times a threads-model accept loop woke from its park in the
    /// kernel (per burst of connections, per read timeout while idle,
    /// and for the drain), or the epoll reactor from `epoll_wait` (per
    /// batch of ready sockets, and per read timeout while idle).
    pub accept_wakeups: u64,
    /// `read` calls made on accepted connections.
    pub reads: u64,
    /// `write` calls made on accepted connections.
    pub writes: u64,
    /// Ops the epoll reactor handed to its blocking-op thread (journaled
    /// mutations); 0 under the threads model.
    pub handoffs: u64,
    /// Most reply bytes the epoll reactor ever held for one connection;
    /// 0 under the threads model, which blocks in `write` instead.
    pub peak_out_bytes: u64,
    /// Request frames read off sockets over the daemon's lifetime.
    pub frames: u64,
    /// HTTP requests served by the gateway (counted separately from
    /// binary `frames` so each front-end's accounting stands alone).
    pub http_requests: u64,
    /// Connections torn down due to malformed frames.
    pub protocol_errors: u64,
    /// Keyed invokes answered from the idempotency cache (a client
    /// retried a request whose response was lost).
    pub dedup_hits: u64,
    /// Whether every admitted request completed within the drain window.
    pub drained: bool,
    /// Wall-clock lifetime of the daemon.
    pub uptime: Duration,
    /// Requests served (warm + cold) per shard, in shard order.
    pub per_shard_served: Vec<u64>,
}

impl DaemonReport {
    /// Max/min served-load ratio across shards (1.0 = perfectly
    /// balanced; see [`faascache_util::stats::balance_ratio`]).
    pub fn balance_ratio(&self) -> f64 {
        balance_ratio(&self.per_shard_served)
    }

    /// The one-line summary `faascached` prints on exit.
    pub fn summary_line(&self) -> String {
        format!(
            "faascached: uptime={:.1}s conns={} connections={}/{} \
             accept_errors={} frames={} http_requests={} reads={} writes={} \
             handoffs={} warm={} cold={} dropped={} rejected={} throttled={} \
             evictions={} migrations={} proto_errors={} dedup_hits={} \
             balance={:.2} drained={}",
            self.uptime.as_secs_f64(),
            self.connections,
            self.open_connections,
            self.peak_connections,
            self.accept_errors,
            self.frames,
            self.http_requests,
            self.reads,
            self.writes,
            self.handoffs,
            self.stats.warm,
            self.stats.cold,
            self.stats.dropped,
            self.stats.rejected,
            self.stats.throttled,
            self.stats.evictions,
            self.stats.migrations,
            self.protocol_errors,
            self.dedup_hits,
            self.balance_ratio(),
            self.drained,
        )
    }
}

/// A clonable handle that asks a running daemon to drain and exit.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    pub(crate) latch: Arc<DrainLatch>,
}

impl ShutdownHandle {
    /// Requests a graceful shutdown; idempotent.
    pub fn request(&self) {
        self.latch.request();
    }

    /// Whether shutdown has been requested.
    pub fn is_requested(&self) -> bool {
        self.latch.is_requested()
    }
}

/// Maps wall-clock time onto the invoker's virtual [`SimTime`] axis.
#[derive(Debug, Clone, Copy)]
struct WallClock {
    start: Instant,
}

impl WallClock {
    fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }
}

/// State of one idempotency key in the daemon's dedup cache.
///
/// A key is claimed (`Pending`) *before* its invocation executes and
/// completed (`Done`) before the response frame is written, so a retry
/// of the same key — whether it arrives after the response was lost to
/// a reset, or concurrently while the first execution is still in
/// flight — observes exactly one recorded outcome instead of
/// re-executing the invocation. Exactly-once accounting on both sides.
#[derive(Debug, Clone, Copy)]
enum IdemEntry {
    /// The key's first invocation is still executing; a concurrent
    /// retry of the same key must wait for its outcome rather than
    /// execute a duplicate.
    Pending,
    /// The recorded outcome; retries answer from here.
    Done(InvokeOutcome),
}

/// State shared between the accept loop, handler threads (or the
/// reactor and its blocking-op thread), and reapers.
pub(crate) struct Shared {
    pub(crate) invoker: ShardedInvoker,
    /// Function registry behind a read-write lock: the invoke hot path
    /// takes uncontended read locks; registrations take the write lock
    /// to grow it at runtime.
    registry: RwLock<FunctionRegistry>,
    /// Durable control-plane journal; mutations are appended (and
    /// fsynced) under its mutex, before they are applied and acked.
    journal: Option<Arc<Mutex<Journal>>>,
    clock: WallClock,
    shutdown: Arc<DrainLatch>,
    pub(crate) front: FrontCounters,
    dedup_hits: AtomicU64,
    idem: Mutex<KeyCache<IdemEntry>>,
    /// Wakes keyed invokes parked on a [`IdemEntry::Pending`] entry
    /// once its outcome is recorded (or its executor failed).
    idem_cv: Condvar,
    allow_remote_shutdown: bool,
}

impl Shared {
    fn registry_read(&self) -> std::sync::RwLockReadGuard<'_, FunctionRegistry> {
        self.registry.read().unwrap_or_else(|e| e.into_inner())
    }

    fn journal_lock(&self) -> Option<std::sync::MutexGuard<'_, Journal>> {
        self.journal
            .as_ref()
            .map(|journal| journal.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Whether executing `op` waits for the disk: a control-plane
    /// mutation on a journaled daemon is fsynced before it is answered.
    /// Nothing else an [`Op`] does sleeps.
    pub(crate) fn blocks_on(&self, op: &Op) -> bool {
        self.journal.is_some() && op.is_mutation()
    }

    /// Invokes by registry index, optionally through the idempotency
    /// cache (`key`). Both front-ends route here, so a keyed HTTP retry
    /// and a keyed binary retry hit the same exactly-once accounting.
    fn invoke_indexed(&self, function: u32, key: Option<u64>) -> Result<InvokeOutcome, String> {
        // Checked before the key is claimed, so a claim is always
        // completed. Indices only grow: in range now is in range below.
        let registered = self.registry_read().len();
        if (function as usize) >= registered {
            return Err(format!(
                "function index {function} out of range (registry has {registered})"
            ));
        }
        if let Some(key) = key {
            // Claim the key before executing. A retry that arrives
            // while the first execution is still in flight (a hop retry
            // after a reset can race the original by microseconds)
            // parks on the Pending entry instead of executing a
            // duplicate — the outcome counters stay exactly-once.
            let mut cache = self.idem.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match cache.get(key) {
                    Some(IdemEntry::Done(prev)) => {
                        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(prev);
                    }
                    Some(IdemEntry::Pending) => {
                        // Threads model only. The epoll reactor runs
                        // every invoke on its one thread, from claim to
                        // `Done`, so it can never find a claim pending
                        // and never sleeps here.
                        cache = self.idem_cv.wait(cache).unwrap_or_else(|e| e.into_inner());
                        // Re-check: the executor recorded Done, or the
                        // entry was evicted under cache pressure (we
                        // take over).
                    }
                    None => {
                        cache.insert(key, IdemEntry::Pending);
                        break;
                    }
                }
            }
        }
        let outcome = {
            let registry = self.registry_read();
            let spec = registry.spec(FunctionId::from_index(function));
            self.invoker.invoke(spec, self.clock.now())
        };
        if let Some(key) = key {
            let mut cache = self.idem.lock().unwrap_or_else(|e| e.into_inner());
            // Re-insert handles the claim having been evicted mid-flight.
            cache.insert(key, IdemEntry::Done(outcome));
            self.idem_cv.notify_all();
        }
        Ok(outcome)
    }

    /// Resolves a function name to its registry index.
    fn lookup_function(&self, name: &str) -> Option<u32> {
        self.registry_read()
            .find(name)
            .map(|spec| spec.id().index() as u32)
    }

    /// Registers a function at runtime, idempotently: re-registering an
    /// existing name answers with its index and `created = false`
    /// regardless of the parameters (including the tenant — the first
    /// registration owns the function), so retried registrations never
    /// fail or fork the registry. An empty tenant means the default
    /// tenant; any other tenant name must pass [`validate_tenant_name`].
    fn register_function(
        &self,
        name: &str,
        mem_mb: u32,
        warm_us: u64,
        cold_us: u64,
        tenant: &str,
    ) -> Result<(u32, bool), String> {
        validate_tenant_name(tenant)?;
        if name.len() > u8::MAX as usize {
            return Err(format!("function name too long ({} > 255)", name.len()));
        }
        // Journaled mutations are serialised by the journal mutex, taken
        // before any registry lock, so records reach the disk in the
        // order they are applied — and the fsync is waited for with no
        // registry lock held: invokes (the epoll reactor thread runs
        // them inline) never queue behind the disk.
        let mut journal = self.journal_lock();
        if let Some(spec) = self.registry_read().find(name) {
            return Ok((spec.id().index() as u32, false));
        }
        // Journal-first: an acked `created = true` implies the record is
        // fsynced. A crash after the append but before the in-memory
        // apply merely replays an un-acked registration on restart,
        // which is harmless; a record whose apply below fails validation
        // is skipped on replay.
        if let Some(journal) = &mut journal {
            let record = JournalRecord::Register {
                name: name.to_string(),
                mem_mb,
                warm_us,
                cold_us,
                tenant: tenant.to_string(),
            };
            journal
                .append(&record)
                .map_err(|e| format!("journal append failed: {e}"))?;
        }
        let mut registry = self.registry.write().unwrap_or_else(|e| e.into_inner());
        // Without a journal nothing above excludes a concurrent
        // registration of the same name.
        if let Some(spec) = registry.find(name) {
            return Ok((spec.id().index() as u32, false));
        }
        let registered = registry
            .register_in(
                name,
                MemMb::new(u64::from(mem_mb)),
                SimDuration::from_micros(warm_us),
                SimDuration::from_micros(cold_us),
                tenant,
            )
            .map(|id| (id.index() as u32, true))
            .map_err(|e| e.to_string());
        if let Some(journal) = &mut journal {
            self.compact_if_needed(journal, &registry);
        }
        registered
    }

    /// Updates a tenant's isolation budget at runtime: journaled (when a
    /// state dir is configured), then applied live through the invoker's
    /// tenant table. Returns whether the tenant was already bound to a
    /// live slot (`false` means the quota is stored and will apply on
    /// the tenant's first request).
    fn set_tenant_quota(&self, tenant: &str, inflight: u64, mem_mb: u64) -> Result<bool, String> {
        if tenant.is_empty() {
            return Err("tenant name must be non-empty".to_string());
        }
        validate_tenant_name(tenant)?;
        // Same journal-first, ack-after-fsync ordering as
        // `register_function`, applied under the journal mutex so two
        // updates of one tenant land in the order they were journaled.
        let mut journal = self.journal_lock();
        if let Some(journal) = &mut journal {
            let record = JournalRecord::SetQuota {
                tenant: tenant.to_string(),
                inflight,
                mem_mb,
            };
            journal
                .append(&record)
                .map_err(|e| format!("journal append failed: {e}"))?;
        }
        let live = self
            .invoker
            .set_tenant_quota(tenant, TenantQuota { inflight, mem_mb });
        if let Some(journal) = &mut journal {
            self.compact_if_needed(journal, &self.registry_read());
        }
        Ok(live)
    }

    /// Folds the full control-plane state — which must already hold the
    /// mutation just journaled, since the tail that recorded it is
    /// truncated — into the snapshot when the journal tail has grown
    /// past its thresholds. Compaction failure is
    /// non-fatal (the tail keeps growing and stays authoritative).
    fn compact_if_needed(&self, journal: &mut Journal, registry: &FunctionRegistry) {
        if !journal.should_compact() {
            return;
        }
        let mut state: Vec<JournalRecord> = registry
            .iter()
            .map(|spec| JournalRecord::Register {
                name: spec.name().to_string(),
                mem_mb: spec.mem().as_mb() as u32,
                warm_us: spec.warm_time().as_micros(),
                cold_us: spec.cold_time().as_micros(),
                tenant: spec.tenant_name().to_string(),
            })
            .collect();
        for (tenant, quota) in self.invoker.tenant_quotas().named {
            state.push(JournalRecord::SetQuota {
                tenant,
                inflight: quota.inflight,
                mem_mb: quota.mem_mb,
            });
        }
        if let Err(e) = journal.compact(&state) {
            eprintln!("faascached: journal compaction failed: {e}");
        }
    }

    /// The registry's replication fingerprint: `(epoch, digest)`. The
    /// epoch is the function count (registrations are append-only, so it
    /// is monotonic); the digest fingerprints every spec's
    /// identity-relevant fields. Exported in `/metrics` so the router
    /// can detect a re-admitted backend whose registry diverged.
    fn registry_fingerprint(&self) -> (u64, u64) {
        let registry = self.registry_read();
        (registry.len() as u64, registry_digest(&registry))
    }

    /// Renders the daemon's counters in Prometheus text exposition
    /// format — the same numbers the summary line prints, plus per-shard
    /// in-flight gauges.
    fn render_metrics(&self) -> String {
        let stats = self.invoker.stats();
        let tenants = self.invoker.tenant_snapshots();
        let mut m = PromText::new();
        m.family(
            "faascache_requests_total",
            "counter",
            "Invocation outcomes observed by the daemon.",
        );
        for (label, v) in [
            ("warm", stats.warm),
            ("cold", stats.cold),
            ("dropped", stats.dropped),
            ("rejected", stats.rejected),
            ("throttled", stats.throttled),
        ] {
            m.sample(&[("outcome", &label)], v);
        }
        // Per-tenant accounting: throttle counts per tenant ride the same
        // requests_total family (extra `tenant` label), budget occupancy
        // gets its own gauges.
        for t in &tenants {
            m.sample(
                &[("outcome", &"throttled"), ("tenant", &t.name)],
                t.throttled,
            );
        }
        m.family(
            "faascache_tenant_warm_bytes",
            "gauge",
            "Resident container memory per tenant.",
        );
        for t in &tenants {
            m.sample(&[("tenant", &t.name)], t.mem_mb * 1024 * 1024);
        }
        m.family(
            "faascache_tenant_in_flight",
            "gauge",
            "Admitted-but-unfinished invocations per tenant.",
        );
        for t in &tenants {
            m.sample(&[("tenant", &t.name)], t.in_flight);
        }
        m.family(
            "faascache_tenant_served_total",
            "counter",
            "Requests served (warm or cold) per tenant.",
        );
        for t in &tenants {
            m.sample(&[("tenant", &t.name)], t.served);
        }
        let front = &self.front;
        for (name, help, v) in [
            (
                "faascache_evictions_total",
                "Keep-alive containers evicted.",
                stats.evictions,
            ),
            (
                "faascache_migrations_total",
                "Warm containers re-homed across shards.",
                stats.migrations,
            ),
            (
                "faascache_dedup_hits_total",
                "Keyed invokes answered from the idempotency cache.",
                self.dedup_hits.load(Ordering::Relaxed),
            ),
            (
                "faascache_connections_total",
                "Connections accepted over the daemon's lifetime.",
                front.conns_total.load(Ordering::Relaxed),
            ),
            (
                "faascache_http_requests_total",
                "HTTP requests served by the gateway.",
                front.http_requests.load(Ordering::Relaxed),
            ),
            (
                "faascache_frames_total",
                "Binary protocol request frames read.",
                front.frames.load(Ordering::Relaxed),
            ),
            (
                "faascache_protocol_errors_total",
                "Connections torn down due to malformed input.",
                front.protocol_errors.load(Ordering::Relaxed),
            ),
            (
                "faascache_front_reads_total",
                "read calls made on accepted connections.",
                front.reads.load(Ordering::Relaxed),
            ),
            (
                "faascache_front_writes_total",
                "write calls made on accepted connections.",
                front.writes.load(Ordering::Relaxed),
            ),
            (
                "faascache_front_handoffs_total",
                "Ops the epoll reactor handed to its blocking-op thread.",
                front.handoffs.load(Ordering::Relaxed),
            ),
        ] {
            m.single(name, "counter", help, v);
        }
        m.single(
            "faascache_open_connections",
            "gauge",
            "Connections currently open.",
            front.conns_current.load(Ordering::Relaxed),
        );
        m.family(
            "faascache_shard_in_flight",
            "gauge",
            "Admitted-but-unfinished invocations per shard.",
        );
        for load in self.invoker.loads() {
            m.sample(&[("shard", &load.shard)], load.in_flight);
        }
        // Registry replication fingerprint: the router compares these to
        // decide whether a re-admitted backend's registry diverged, and
        // the recovery harness compares them across a crash/restart.
        let (epoch, digest) = self.registry_fingerprint();
        m.single(
            "faascache_registry_epoch",
            "gauge",
            "Number of registered functions (monotonic).",
            epoch,
        );
        m.single(
            "faascache_registry_digest",
            "gauge",
            "FNV-1a fingerprint of the function registry.",
            digest,
        );
        m.single(
            "faascache_draining",
            "gauge",
            "Whether the daemon is draining (1) or serving (0).",
            u64::from(self.draining()),
        );
        m.finish()
    }
}

impl Service for Shared {
    /// The daemon executes locally; a connection carries no state.
    type Ctx = ();

    fn conn_ctx(&self, _ordinal: u64) {}

    fn call(&self, _ctx: &mut (), op: Op) -> Reply {
        match op {
            Op::Invoke { function, key } => {
                let resolved = match function {
                    FnTarget::Index(idx) => Ok(idx),
                    FnTarget::Name(name) => self
                        .lookup_function(&name)
                        .ok_or_else(|| format!("unknown function {name:?}")),
                };
                match resolved.and_then(|idx| Ok((idx, self.invoke_indexed(idx, key)?))) {
                    Ok((function, outcome)) => Reply::Invoked { function, outcome },
                    Err(msg) => Reply::error(404, msg),
                }
            }
            Op::Register {
                name,
                mem_mb,
                warm_us,
                cold_us,
                tenant,
            } => match self.register_function(&name, mem_mb, warm_us, cold_us, &tenant) {
                Ok((function, created)) => Reply::Registered {
                    function,
                    name,
                    created,
                },
                Err(msg) => Reply::error(400, msg),
            },
            Op::SetQuota {
                tenant,
                inflight,
                mem_mb,
            } => match self.set_tenant_quota(&tenant, inflight, mem_mb) {
                Ok(live) => Reply::QuotaSet { tenant, live },
                Err(msg) => Reply::error(400, msg),
            },
            Op::Stats => Reply::Stats(self.invoker.stats()),
            Op::Ping | Op::Healthz => Reply::Alive,
            Op::Metrics => Reply::Metrics(self.render_metrics()),
            Op::Shutdown => Reply::shutdown(&self.shutdown, self.allow_remote_shutdown),
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

/// Validates a tenant name from the wire: empty (= default tenant) or up
/// to 32 characters of `[A-Za-z0-9._-]`. The charset keeps tenant names
/// safe to embed verbatim in metrics labels and summary lines.
pub(crate) fn validate_tenant_name(tenant: &str) -> Result<(), String> {
    if tenant.len() > 32 {
        return Err(format!("tenant name too long ({} > 32)", tenant.len()));
    }
    if tenant
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        Ok(())
    } else {
        Err("tenant name has characters outside [A-Za-z0-9._-]".to_string())
    }
}

/// A bound, not-yet-running daemon.
pub struct Daemon {
    front: Front,
    shared: Arc<Shared>,
    config: DaemonConfig,
}

impl Daemon {
    /// Binds the endpoint and builds the invoker; call [`Daemon::run`]
    /// to start serving.
    ///
    /// The `registry` must be the same one the load generator derives —
    /// see [`crate::workload`]. A zero `reap_interval` or `read_timeout`
    /// is refused as `InvalidInput`.
    pub fn bind(
        endpoint: &Endpoint,
        config: DaemonConfig,
        registry: FunctionRegistry,
    ) -> io::Result<Daemon> {
        Self::bind_with_http(endpoint, None, config, registry)
    }

    /// [`Daemon::bind`] plus an optional HTTP/1.1 gateway listener
    /// (`--http-listen`). The gateway is TCP-only and serves
    /// concurrently with the binary endpoint on whichever io model the
    /// config selects.
    pub fn bind_with_http(
        endpoint: &Endpoint,
        http_addr: Option<&str>,
        config: DaemonConfig,
        registry: FunctionRegistry,
    ) -> io::Result<Daemon> {
        #[cfg(not(target_os = "linux"))]
        if config.io_model == IoModel::Epoll {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "--io-model epoll requires linux",
            ));
        }
        driver::require_nonzero(&[
            ("reap_interval", config.reap_interval),
            ("read_timeout", config.read_timeout),
        ])?;
        let front = Front::bind(endpoint, http_addr, config.read_timeout, config.faults)?;

        let mut sharded = ShardedConfig::split(config.total_mem, config.shards)
            .with_queue_bound(config.queue_bound)
            .with_tenant_quotas(config.tenant_quotas.clone());
        if let Some(watermark) = config.p2c {
            sharded = sharded.with_p2c(watermark);
        }
        if let Some(rebalance) = config.rebalance {
            sharded = sharded.with_rebalance(rebalance);
        }
        let invoker = ShardedInvoker::with_kind(sharded, config.policy);
        let shared = Arc::new(Shared {
            invoker,
            registry: RwLock::new(registry),
            journal: config.journal.clone(),
            clock: WallClock::new(),
            shutdown: Arc::default(),
            front: FrontCounters::default(),
            dedup_hits: AtomicU64::new(0),
            idem: Mutex::new(KeyCache::new(config.idem_capacity)),
            idem_cv: Condvar::new(),
            allow_remote_shutdown: config.allow_remote_shutdown,
        });
        Ok(Daemon {
            front,
            shared,
            config,
        })
    }

    /// The address actually bound (the real port when TCP port 0 was
    /// requested).
    pub fn bound_addr(&self) -> BoundAddr {
        self.front.bound_addr()
    }

    /// The HTTP gateway's bound address, when `--http-listen` was given.
    pub fn bound_http_addr(&self) -> Option<BoundAddr> {
        self.front.bound_http_addr()
    }

    /// A handle that requests graceful shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            latch: Arc::clone(&self.shared.shutdown),
        }
    }

    /// Serves until shutdown is requested (signal, protocol frame, or
    /// [`ShutdownHandle`]), then drains and returns the final report.
    pub fn run(self) -> DaemonReport {
        let started = Instant::now();

        // One background reaper per shard: expiry is driven by wall
        // time, exactly like OpenWhisk's keep-alive TTL sweeps.
        let reapers: Vec<_> = (0..self.shared.invoker.num_shards())
            .map(|shard| {
                let shared = Arc::clone(&self.shared);
                let interval = self.config.reap_interval;
                thread::spawn(move || {
                    while !shared.draining() {
                        sleep_interruptibly(&shared, interval);
                        shared.invoker.reap_shard(shard, shared.clock.now());
                    }
                })
            })
            .collect();

        // The rebalancer shares the reaper cadence: each wakeup closes
        // one observation window and may re-home one hot warm set.
        let rebalancer = self.config.rebalance.map(|_| {
            let shared = Arc::clone(&self.shared);
            let interval = self.config.reap_interval;
            thread::spawn(move || {
                while !shared.draining() {
                    sleep_interruptibly(&shared, interval);
                    if let Some(event) = shared.invoker.rebalance_tick(shared.clock.now()) {
                        eprintln!(
                            "faascached: re-homed {} shard {} -> {} ({} warm moved, {} left)",
                            event.function, event.from, event.to, event.moved, event.left_behind
                        );
                    }
                }
            })
        });

        let drained = match self.config.io_model {
            IoModel::Threads => {
                let handlers = self.front.serve(&self.shared);
                // Drain: flip every admission gate so stragglers get an
                // explicit Rejected, then wait for in-flight responses
                // to flush.
                self.shared.invoker.begin_drain();
                driver::drain(&*self.shared, handlers, self.config.drain_timeout)
            }
            // The epoll core owns the sockets, so it drains internally
            // and reports whether every admitted request's response
            // made it to the wire.
            IoModel::Epoll => self.serve_epoll(),
        };
        // Stops the reapers even when serving ended on a reactor error
        // rather than a shutdown request.
        self.shared.shutdown.request();
        for r in reapers {
            let _ = r.join();
        }
        if let Some(r) = rebalancer {
            let _ = r.join();
        }
        self.front.unlink();

        let per_shard_served = self
            .shared
            .invoker
            .per_shard()
            .iter()
            .map(|s| s.counters.warm_starts + s.counters.cold_starts)
            .collect();
        let front = &self.shared.front;
        DaemonReport {
            stats: self.shared.invoker.stats(),
            connections: front.conns_total.load(Ordering::Relaxed),
            open_connections: front.conns_current.load(Ordering::Relaxed),
            peak_connections: front.conns_peak.load(Ordering::Relaxed),
            accept_errors: front.accept_errors.load(Ordering::Relaxed),
            accept_wakeups: front.accept_wakeups.load(Ordering::Relaxed),
            reads: front.reads.load(Ordering::Relaxed),
            writes: front.writes.load(Ordering::Relaxed),
            handoffs: front.handoffs.load(Ordering::Relaxed),
            peak_out_bytes: front.peak_out_bytes.load(Ordering::Relaxed),
            frames: front.frames.load(Ordering::Relaxed),
            http_requests: front.http_requests.load(Ordering::Relaxed),
            protocol_errors: front.protocol_errors.load(Ordering::Relaxed),
            dedup_hits: self.shared.dedup_hits.load(Ordering::Relaxed),
            drained,
            uptime: started.elapsed(),
            per_shard_served,
        }
    }

    /// Epoll serving loop; returns whether the reactor's internal drain
    /// flushed every admitted frame.
    #[cfg(target_os = "linux")]
    fn serve_epoll(&self) -> bool {
        match crate::reactor::serve(&self.front, &self.shared, &self.config) {
            Ok(drained) => drained,
            Err(e) => {
                eprintln!("faascached: epoll reactor failed: {e}");
                false
            }
        }
    }

    /// Unreachable: [`Daemon::bind`] rejects `IoModel::Epoll` off-linux.
    #[cfg(not(target_os = "linux"))]
    fn serve_epoll(&self) -> bool {
        false
    }
}

/// Sleeps up to `total`, waking early if shutdown is requested.
fn sleep_interruptibly(shared: &Shared, total: Duration) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shared.draining() {
        thread::sleep(Duration::from_millis(20).min(total));
    }
}
