//! The one operation table both front doors and both servers share.
//!
//! A request arrives as a binary frame or an HTTP request; either way it
//! is decoded into a protocol-neutral [`Op`] ([`Op::from_frame`] over
//! [`Request::decode`], or [`crate::http::route`]), executed by a
//! [`Service`] into a [`Reply`], and the reply is encoded back into the
//! wire format it came in by. [`respond`] is that whole
//! `Op -> Reply -> bytes` step, and it is the only one: the connection
//! core ([`crate::conn`]) that both drivers run calls it (and so does the
//! reactor's blocking-op thread), so a status code, an outcome label or
//! a drain rule is written exactly once.
//!
//! [`Service`] has two implementations: the daemon's `Shared` (executes
//! against the local sharded invoker) and the router's `RouterShared`
//! (forwards to backends).

use crate::client::LoadProto;
use crate::http;
use crate::journal::JournalRecord;
use crate::net::DrainLatch;
use crate::proto::{Request, Response};
use crate::signal;
use faascache_platform::sharded::{InvokeOutcome, InvokerStats};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Register a function or set a tenant's budgets. Built only by
    /// [`Op::mutation`], so the record has passed
    /// [`JournalRecord::validate`].
    Mutate(JournalRecord),
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
        match Request::decode(payload).map(JournalRecord::from_request) {
            Ok(Ok(record)) => Op::mutation(record),
            Ok(Err(Request::Invoke { function })) => Op::Invoke {
                function: FnTarget::Index(function),
                key: None,
            },
            Ok(Err(Request::InvokeKeyed { function, key })) => Op::Invoke {
                function: FnTarget::Index(function),
                key: Some(key),
            },
            Ok(Err(Request::Stats)) => Op::Stats,
            Ok(Err(Request::Shutdown)) => Op::Shutdown,
            Ok(Err(Request::Ping)) => Op::Ping,
            // `from_request` takes both mutations, so this arm is never
            // taken; it answers rather than panics.
            Ok(Err(other @ (Request::Register { .. } | Request::SetTenantQuota { .. }))) => {
                Op::Fail {
                    status: 400,
                    msg: format!("unmapped mutation {other:?}"),
                }
            }
            Err(e) => Op::Fail {
                status: 400,
                msg: e.to_string(),
            },
        }
    }

    /// The op a decoded mutation becomes: [`Op::Mutate`] if `record`
    /// passes [`JournalRecord::validate`], else a 400. Both front doors
    /// build their mutations here, so a daemon and a router refuse the
    /// same input with the same answer, before anything is journaled or
    /// broadcast.
    pub(crate) fn mutation(record: JournalRecord) -> Op {
        match record.validate() {
            Ok(()) => Op::Mutate(record),
            Err(msg) => Op::Fail { status: 400, msg },
        }
    }

    /// Whether the op changes control-plane state. The HTTP front
    /// refuses these with 503 once drain has begun, and on a journaled
    /// daemon they are the ops that wait for an fsync.
    pub(crate) fn is_mutation(&self) -> bool {
        matches!(self, Op::Mutate(_))
    }
}

/// The protocol-neutral result of executing an [`Op`].
#[derive(Debug)]
pub(crate) enum Reply {
    Invoked {
        function: u32,
        outcome: InvokeOutcome,
    },
    /// An applied mutation and the binary protocol's answer to it
    /// (`Registered` or `QuotaSet`).
    Acked(JournalRecord, Response),
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
            Reply::Acked(_, ack) => ack,
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
    /// and `/healthz` answers 503. An outcome's status and label come
    /// from the table the client decodes with
    /// ([`http::outcome_status`]).
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
                let (status, label) = http::outcome_status(outcome);
                if outcome == InvokeOutcome::Throttled {
                    retry_after = Some(http::THROTTLE_RETRY_AFTER_SECS);
                }
                let body = format!("{{\"function\":{function},\"outcome\":\"{label}\"}}\n");
                (status, JSON, body)
            }
            Reply::Acked(record, ack) => match (record, ack) {
                (
                    JournalRecord::Register { name, .. },
                    Response::Registered { function, created },
                ) => {
                    let body = format!(
                        "{{\"function\":{function},\"name\":\"{name}\",\"created\":{created}}}\n"
                    );
                    (200, JSON, body)
                }
                (JournalRecord::SetQuota { tenant, .. }, Response::QuotaSet { live }) => {
                    let body = format!("{{\"tenant\":\"{tenant}\",\"live\":{live}}}\n");
                    (200, JSON, body)
                }
                // The daemon and the router build an ack in kind.
                (_, ack) => (
                    502,
                    JSON,
                    error_json(&format!("unexpected response {ack:?}")),
                ),
            },
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

    /// Called by a driver the moment it notices drain, before it answers
    /// another request; it may be called more than once.
    fn on_drain(&self) {}

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
    kind: LoadProto,
    op: Op,
    req_close: bool,
    out: &mut Vec<u8>,
) -> bool {
    match kind {
        LoadProto::Binary => {
            let payload = svc.call(ctx, op).into_response().encode();
            let len = u32::try_from(payload.len()).expect("response frames are tiny");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&payload);
            false
        }
        LoadProto::Http => {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every outcome crosses the HTTP table both ways: the response the
    /// server writes for it decodes, in the client, to the same outcome.
    #[test]
    fn every_outcome_round_trips_through_the_http_table() {
        use InvokeOutcome::{Cold, Dropped, Rejected, Throttled, Warm};
        for outcome in [Warm, Cold, Dropped, Rejected, Throttled] {
            let mut wire = Vec::new();
            let reply = Reply::Invoked {
                function: 3,
                outcome,
            };
            assert!(!reply.write_http(false, false, &mut wire));
            let (status, body, close) =
                http::read_response(&mut wire.as_slice(), &mut Vec::new()).expect("a response");
            assert_eq!((status, close), (http::outcome_status(outcome).0, false));
            let decoded = http::decode_response(status, &body).expect("decodes");
            assert_eq!(decoded, Response::Invoked(outcome));
        }
    }
}
