//! The one operation table both front doors and both servers share.
//!
//! A request arrives as a binary frame or an HTTP request; either way it
//! is decoded into a protocol-neutral [`Op`] ([`Op::from_frame`] over
//! [`Request::decode`], or [`crate::http::route`]), executed by a
//! [`Service`] into a [`Reply`], and the reply is encoded back into the
//! wire format it came in by. [`respond`] is that whole
//! `Op -> Reply -> bytes` step, and it is the only one: the blocking
//! driver ([`crate::driver`]) and the epoll reactor
//! ([`crate::reactor`]) both call it, so a status code, an outcome
//! label or a drain rule is written exactly once.
//!
//! [`Service`] has two implementations: the daemon's `Shared` (executes
//! against the local sharded invoker) and the router's `RouterShared`
//! (forwards to backends).

use crate::http;
use crate::net::DrainLatch;
use crate::proto::{Request, Response};
use crate::signal;
use faascache_platform::sharded::{InvokeOutcome, InvokerStats};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Which front-end protocol an accepted connection speaks, decided by
/// the listener it arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnKind {
    /// The length-prefixed binary protocol of [`crate::proto`].
    Binary,
    /// The HTTP/1.1 gateway of [`crate::http`].
    Http,
}

/// How an invoke names its target.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FnTarget {
    /// A registry index (binary `Invoke`, `POST /invoke/7`).
    Index(u32),
    /// A registered name (`POST /invoke/img-resize`); looked up at
    /// execute time so functions registered after the route parse hit.
    Name(String),
}

/// One decoded request, independent of the protocol that carried it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// Invoke a function, optionally through the idempotency cache.
    Invoke {
        function: FnTarget,
        key: Option<u64>,
    },
    /// Register a function at runtime. `mem_mb` is already range-checked
    /// to the `u32` the binary protocol and the journal carry.
    Register {
        name: String,
        mem_mb: u32,
        warm_us: u64,
        cold_us: u64,
        /// Owning tenant; empty = default tenant.
        tenant: String,
    },
    /// Update a tenant's budgets (`u64::MAX` = unlimited).
    SetQuota {
        tenant: String,
        inflight: u64,
        mem_mb: u64,
    },
    /// Aggregate outcome statistics (binary `Stats`).
    Stats,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// Binary liveness probe.
    Ping,
    /// Binary request to drain and exit.
    Shutdown,
    /// Decoding or routing failed; answer with `status` and `msg`.
    Fail { status: u16, msg: String },
}

impl Op {
    /// Decodes one binary request frame. An undecodable frame becomes
    /// [`Op::Fail`], so it is answered like any other request.
    pub(crate) fn from_frame(payload: &[u8]) -> Op {
        match Request::decode(payload) {
            Ok(Request::Invoke { function }) => Op::Invoke {
                function: FnTarget::Index(function),
                key: None,
            },
            Ok(Request::InvokeKeyed { function, key }) => Op::Invoke {
                function: FnTarget::Index(function),
                key: Some(key),
            },
            Ok(Request::Register {
                name,
                mem_mb,
                warm_us,
                cold_us,
                tenant,
            }) => Op::Register {
                name,
                mem_mb,
                warm_us,
                cold_us,
                tenant,
            },
            Ok(Request::SetTenantQuota {
                tenant,
                inflight,
                mem_mb,
            }) => Op::SetQuota {
                tenant,
                inflight,
                mem_mb,
            },
            Ok(Request::Stats) => Op::Stats,
            Ok(Request::Shutdown) => Op::Shutdown,
            Ok(Request::Ping) => Op::Ping,
            Err(e) => Op::Fail {
                status: 400,
                msg: e.to_string(),
            },
        }
    }

    /// Whether the op changes control-plane state. The HTTP front
    /// refuses these with 503 once drain has begun, and on a journaled
    /// daemon they are the ops that wait for an fsync.
    pub(crate) fn is_mutation(&self) -> bool {
        matches!(self, Op::Register { .. } | Op::SetQuota { .. })
    }
}

/// The protocol-neutral result of executing an [`Op`].
#[derive(Debug)]
pub(crate) enum Reply {
    Invoked {
        function: u32,
        outcome: InvokeOutcome,
    },
    Registered {
        function: u32,
        name: String,
        created: bool,
    },
    QuotaSet {
        tenant: String,
        live: bool,
    },
    Stats(InvokerStats),
    /// Liveness: `Pong` on the binary protocol; on HTTP 200 `ok`, or
    /// 503 `draining` once drain has begun.
    Alive,
    /// Prometheus text exposition body.
    Metrics(String),
    ShutdownStarted,
    /// `status` is the HTTP status; the binary protocol carries `msg`
    /// alone. `close` ends an HTTP connection after the response even
    /// when neither the peer nor a drain asked for it.
    Error {
        status: u16,
        msg: String,
        close: bool,
    },
}

impl Reply {
    /// An error reply that leaves the connection open.
    pub(crate) fn error(status: u16, msg: impl Into<String>) -> Reply {
        Reply::Error {
            status,
            msg: msg.into(),
            close: false,
        }
    }

    /// Answers [`Op::Shutdown`]: trips `latch` when remote shutdown is
    /// `allowed`, refuses otherwise.
    pub(crate) fn shutdown(latch: &DrainLatch, allowed: bool) -> Reply {
        if !allowed {
            return Reply::error(400, "remote shutdown disabled");
        }
        latch.request();
        Reply::ShutdownStarted
    }

    fn into_response(self) -> Response {
        match self {
            Reply::Invoked { outcome, .. } => Response::Invoked(outcome),
            Reply::Registered {
                function, created, ..
            } => Response::Registered { function, created },
            Reply::QuotaSet { live, .. } => Response::QuotaSet { live },
            Reply::Stats(stats) => Response::Stats(stats),
            Reply::Alive => Response::Pong,
            Reply::ShutdownStarted => Response::ShutdownStarted,
            Reply::Error { msg, .. } => Response::Error(msg),
            // No opcode asks for the exposition text (`Op::from_frame`
            // never yields `Op::Metrics`), so no frame carries it.
            Reply::Metrics(_) => Response::Error("metrics are served over http".to_string()),
        }
    }

    /// Appends the HTTP response to `out` and returns whether the
    /// connection closes after it. While draining every response closes
    /// and `/healthz` answers 503.
    ///
    /// Both Dropped and Throttled answer 429, but only a tenant throttle
    /// carries Retry-After: a drop means the *pool* is out of memory
    /// right now, a throttle means *this tenant* must back off. Clients
    /// disambiguate by the outcome label.
    fn write_http(self, draining: bool, req_close: bool, out: &mut Vec<u8>) -> bool {
        const JSON: &str = "application/json";
        let mut close = draining || req_close;
        let mut retry_after = None;
        let (status, content_type, body) = match self {
            Reply::Invoked { function, outcome } => {
                let (status, label) = match outcome {
                    InvokeOutcome::Warm => (200, "warm"),
                    InvokeOutcome::Cold => (200, "cold"),
                    InvokeOutcome::Dropped => (429, "dropped"),
                    InvokeOutcome::Rejected => (503, "rejected"),
                    InvokeOutcome::Throttled => (429, "throttled"),
                };
                if outcome == InvokeOutcome::Throttled {
                    retry_after = Some(http::THROTTLE_RETRY_AFTER_SECS);
                }
                let body = format!("{{\"function\":{function},\"outcome\":\"{label}\"}}\n");
                (status, JSON, body)
            }
            Reply::Registered {
                function,
                name,
                created,
            } => {
                let body = format!(
                    "{{\"function\":{function},\"name\":\"{name}\",\"created\":{created}}}\n"
                );
                (200, JSON, body)
            }
            Reply::QuotaSet { tenant, live } => {
                let body = format!("{{\"tenant\":\"{tenant}\",\"live\":{live}}}\n");
                (200, JSON, body)
            }
            Reply::Alive if draining => (503, "text/plain", "draining\n".to_string()),
            Reply::Alive => (200, "text/plain", "ok\n".to_string()),
            Reply::Metrics(body) => (200, "text/plain; version=0.0.4", body),
            Reply::Error {
                status,
                msg,
                close: force,
            } => {
                close |= force;
                (status, JSON, error_json(&msg))
            }
            // No route asks for these (`http::route` never yields
            // `Op::Stats` or `Op::Shutdown`).
            Reply::Stats(_) | Reply::ShutdownStarted => {
                (404, JSON, error_json("served on the binary protocol only"))
            }
        };
        http::write_response_with(
            out,
            status,
            content_type,
            body.as_bytes(),
            close,
            retry_after,
        );
        close
    }
}

fn error_json(msg: &str) -> String {
    format!("{{\"error\":\"{}\"}}\n", msg.replace(['"', '\\'], "'"))
}

/// Bounded FIFO map keyed by idempotency key: the daemon's dedup cache
/// (key → recorded outcome) and the router's pin cache (key → backend).
/// Overwriting a key keeps its place in the queue; inserting a new one
/// past the capacity evicts the oldest. There is no removal, so the
/// queue and the map always hold the same keys, each once.
pub(crate) struct KeyCache<V> {
    cap: usize,
    map: HashMap<u64, V>,
    order: VecDeque<u64>,
}

impl<V: Copy> KeyCache<V> {
    pub(crate) fn new(cap: usize) -> Self {
        KeyCache {
            cap: cap.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    pub(crate) fn get(&self, key: u64) -> Option<V> {
        self.map.get(&key).copied()
    }

    pub(crate) fn insert(&mut self, key: u64, value: V) {
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.cap {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
        }
    }
}

/// The connection and request counters every front keeps, whichever
/// server sits behind it.
#[derive(Debug, Default)]
pub(crate) struct FrontCounters {
    /// Requests read off a socket whose response is not yet written;
    /// drain waits for this to reach zero.
    pub(crate) active: AtomicU64,
    /// Binary request frames read.
    pub(crate) frames: AtomicU64,
    /// HTTP requests served (counted apart from `frames` so each
    /// front-end's accounting stands alone).
    pub(crate) http_requests: AtomicU64,
    /// Connections torn down due to malformed or stalled input.
    pub(crate) protocol_errors: AtomicU64,
    /// Connections accepted over the process lifetime; doubles as the
    /// accept ordinal that seeds per-connection state.
    pub(crate) conns_total: AtomicU64,
    /// Connections currently open.
    pub(crate) conns_current: AtomicU64,
    /// High-water mark of `conns_current`.
    pub(crate) conns_peak: AtomicU64,
    /// Accept failures other than `WouldBlock`/`Interrupted`.
    pub(crate) accept_errors: AtomicU64,
    /// Times a blocking-driver accept loop came back from its park in
    /// the kernel (once per burst of connections, once per read timeout
    /// while idle, once for the drain), or the epoll reactor from
    /// `epoll_wait`.
    pub(crate) accept_wakeups: AtomicU64,
    /// `read` calls made on accepted connections (see [`Counted`]).
    pub(crate) reads: AtomicU64,
    /// `write` calls made on accepted connections.
    pub(crate) writes: AtomicU64,
    /// Ops the epoll reactor sent to its blocking-op thread.
    pub(crate) handoffs: AtomicU64,
    /// Most reply bytes any one epoll connection ever had queued.
    pub(crate) peak_out_bytes: AtomicU64,
}

impl FrontCounters {
    /// Counts one accepted connection and returns its accept ordinal
    /// (1-based). Both listeners and both drivers draw from this one
    /// sequence, so the ordinal is a process-wide stream id: a fault
    /// seed replays the same per-stream schedule under either io model.
    pub(crate) fn connection_opened(&self) -> u64 {
        let ordinal = self.conns_total.fetch_add(1, Ordering::Relaxed) + 1;
        let current = self.conns_current.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(current, Ordering::Relaxed);
        ordinal
    }

    /// Counts one connection closed.
    pub(crate) fn connection_closed(&self) {
        self.conns_current.fetch_sub(1, Ordering::Relaxed);
    }

    /// Wraps an accepted connection so that every `read` and `write`
    /// made on it is counted.
    pub(crate) fn counted<T>(&self, stream: T) -> Counted<'_, T> {
        Counted {
            stream,
            counters: self,
        }
    }
}

/// A connection whose `read` and `write` calls are counted in
/// [`FrontCounters`]: both drivers do their socket I/O through one, so
/// syscalls per request is a count either of them can be held to.
pub(crate) struct Counted<'a, T> {
    stream: T,
    counters: &'a FrontCounters,
}

impl<T: Read> Read for Counted<'_, T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.counters.reads.fetch_add(1, Ordering::Relaxed);
        self.stream.read(buf)
    }
}

impl<T: Write> Write for Counted<'_, T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// What sits behind a front door: something that executes [`Op`]s.
pub(crate) trait Service: Send + Sync + 'static {
    /// State one connection keeps between its requests.
    type Ctx;

    /// Builds the state for the connection with accept ordinal `ordinal`.
    fn conn_ctx(&self, ordinal: u64) -> Self::Ctx;

    /// Executes one operation.
    fn call(&self, ctx: &mut Self::Ctx, op: Op) -> Reply;

    /// The latch a wire shutdown, a handle or the end of `run` trips.
    fn drain_latch(&self) -> &DrainLatch;

    /// Whether drain has begun (signal, wire shutdown, or handle).
    fn draining(&self) -> bool {
        self.drain_latch().is_requested() || signal::requested()
    }

    /// The front's connection and request counters.
    fn counters(&self) -> &FrontCounters;
}

/// Executes `op` against `svc` and appends the encoded reply to `out` in
/// `kind`'s wire format: a length-prefixed frame, or a complete HTTP
/// response. Returns whether the connection must close once the reply is
/// written (`req_close` is the peer's own `Connection: close`).
pub(crate) fn respond<S: Service>(
    svc: &S,
    ctx: &mut S::Ctx,
    kind: ConnKind,
    op: Op,
    req_close: bool,
    out: &mut Vec<u8>,
) -> bool {
    match kind {
        ConnKind::Binary => {
            let payload = svc.call(ctx, op).into_response().encode();
            let len = u32::try_from(payload.len()).expect("response frames are tiny");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&payload);
            false
        }
        ConnKind::Http => {
            // One sample decides the mutation gate, the healthz flip and
            // the close flag, so a response never contradicts itself.
            let draining = svc.draining();
            let reply = if draining && op.is_mutation() {
                Reply::error(503, "draining")
            } else {
                svc.call(ctx, op)
            };
            reply.write_http(draining, req_close, out)
        }
    }
}
