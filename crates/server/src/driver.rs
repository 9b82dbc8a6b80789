//! The blocking serving driver: thread-per-connection, generic over
//! [`Service`].
//!
//! A [`Front`] owns the bound listeners (the binary endpoint and the
//! optional HTTP gateway). [`Front::serve`] runs one accept loop per
//! listener and one handler thread per connection until the service
//! starts draining; [`drain`] then waits for every admitted request's
//! response to reach the wire. Keep-alive, pipelining, serve-then-close
//! on poisoned input, the per-request stall deadline, the HTTP drain
//! grace window and the `active` bracket are written here once, for the
//! daemon and the router alike.
//!
//! The daemon's `--io-model epoll` swaps this driver for
//! [`crate::reactor`], which serves the same listeners and executes
//! requests through the same [`respond`].

use crate::daemon::{BoundAddr, Endpoint};
use crate::fault::{FaultConfig, FaultPlan, FaultyStream};
use crate::http::{self, HttpParser};
use crate::net::{Listener, Stream};
use crate::proto::{self, Poll};
use crate::service::{respond, ConnKind, Op, Service};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Wraps an accepted connection in its fault plan. Stream id = accept
/// ordinal, so a `(seed, connection)` pair replays the exact same fault
/// schedule under either driver.
pub(crate) fn faulty(
    stream: Stream,
    faults: Option<FaultConfig>,
    ordinal: u64,
) -> FaultyStream<Stream> {
    let plan = match faults.filter(|f| f.is_active()) {
        Some(cfg) => cfg.plan(ordinal),
        None => FaultPlan::disabled(),
    };
    FaultyStream::new(stream, plan)
}

/// Refuses the first zero among `durations`, each named as its config
/// field: a zero interval makes its loop spin, and a zero socket timeout
/// fails every read with `InvalidInput`.
pub(crate) fn require_nonzero(durations: &[(&str, Duration)]) -> io::Result<()> {
    match durations.iter().find(|(_, d)| d.is_zero()) {
        Some((name, _)) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{name} must be above zero"),
        )),
        None => Ok(()),
    }
}

/// The bound front door of a server: its listeners and the per-socket
/// settings every accepted connection gets.
pub(crate) struct Front {
    pub(crate) binary: Listener,
    bound: BoundAddr,
    /// Optional HTTP/1.1 gateway listener (TCP only), served
    /// concurrently with the binary listener.
    pub(crate) http: Option<Listener>,
    bound_http: Option<BoundAddr>,
    /// Socket read timeout of the blocking driver.
    read_timeout: Duration,
    /// Deterministic fault injection applied to every accepted
    /// connection; `None` serves clean streams.
    pub(crate) faults: Option<FaultConfig>,
}

impl Front {
    /// Binds `endpoint` and, when given, the HTTP gateway address.
    pub(crate) fn bind(
        endpoint: &Endpoint,
        http_addr: Option<&str>,
        read_timeout: Duration,
        faults: Option<FaultConfig>,
    ) -> io::Result<Front> {
        let (binary, bound) = match endpoint {
            Endpoint::Tcp(addr) => Listener::tcp(addr)?,
            #[cfg(unix)]
            Endpoint::Unix(path) => Listener::unix(path)?,
        };
        let (http, bound_http) = match http_addr.map(Listener::tcp).transpose()? {
            Some((l, bound)) => (Some(l), Some(bound)),
            None => (None, None),
        };
        Ok(Front {
            binary,
            bound,
            http,
            bound_http,
            read_timeout,
            faults,
        })
    }

    /// The binary address actually bound (the real port when TCP port 0
    /// was requested).
    pub(crate) fn bound_addr(&self) -> BoundAddr {
        self.bound.clone()
    }

    /// The HTTP gateway's bound address, when one was requested.
    pub(crate) fn bound_http_addr(&self) -> Option<BoundAddr> {
        self.bound_http.clone()
    }

    /// Ten read-timeout grace periods: how long a peer gets to finish a
    /// request it started, and how long an HTTP connection is still
    /// served after drain begins.
    pub(crate) fn stall_limit(&self) -> Duration {
        self.read_timeout * 10
    }

    /// Removes the Unix socket file, if the binary endpoint is one.
    pub(crate) fn unlink(&self) {
        #[cfg(unix)]
        if let BoundAddr::Unix(path) = &self.bound {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Accepts and serves connections on both listeners until `svc`
    /// starts draining. HTTP handlers are joined before this returns
    /// (they linger at most one grace window); the binary handlers still
    /// running are returned for [`drain`] to collect.
    pub(crate) fn serve<S: Service>(&self, svc: &Arc<S>) -> Vec<JoinHandle<()>> {
        thread::scope(|scope| {
            if let Some(http) = &self.http {
                scope.spawn(move || {
                    for handler in self.accept_loop(svc, http, ConnKind::Http) {
                        let _ = handler.join();
                    }
                });
            }
            self.accept_loop(svc, &self.binary, ConnKind::Binary)
        })
    }

    /// Accepts connections off `listener` until drain begins, spawning
    /// one handler thread per connection speaking `kind`. Returns the
    /// handlers not yet seen to finish.
    ///
    /// Between bursts the loop parks in the kernel on the listener and
    /// the drain latch, so a connection is accepted when it is queued,
    /// not on the next tick of a sleep; the park's timeout is the read
    /// timeout, the same bound a handler has for noticing a signal.
    fn accept_loop<S: Service>(
        &self,
        svc: &Arc<S>,
        listener: &Listener,
        kind: ConnKind,
    ) -> Vec<JoinHandle<()>> {
        let counters = svc.counters();
        let stall_limit = self.stall_limit();
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !svc.draining() {
            let err = match listener.accept() {
                Ok(stream) => {
                    let ordinal = counters.connection_opened();
                    // The read timeout bounds how long a handler
                    // takes to notice drain.
                    let configured = stream
                        .set_nodelay()
                        .and_then(|()| stream.set_read_timeout(Some(self.read_timeout)));
                    if configured.is_err() {
                        // Connection dies; peer sees EOF.
                        counters.connection_closed();
                        continue;
                    }
                    let stream = faulty(stream, self.faults, ordinal);
                    let svc = Arc::clone(svc);
                    handlers.push(thread::spawn(move || {
                        let mut ctx = svc.conn_ctx(ordinal);
                        let stream = svc.counters().counted(stream);
                        match kind {
                            ConnKind::Binary => {
                                serve_binary(&*svc, &mut ctx, stream, stall_limit);
                            }
                            ConnKind::Http => serve_http(&*svc, &mut ctx, stream, stall_limit),
                        }
                        svc.counters().connection_closed();
                    }));
                    continue;
                }
                Err(e) => e,
            };
            // The backlog is empty (or unusable). Forget handlers that
            // already returned, so connection churn over a long uptime
            // cannot grow the list, then park.
            handlers.retain(|h| !h.is_finished());
            let wake_on = match err.kind() {
                io::ErrorKind::WouldBlock => Some(listener),
                io::ErrorKind::Interrupted => continue,
                _ => {
                    // Fd exhaustion and kin: the listener survives.
                    // Count it and sit out one read timeout off the
                    // listener (its pending connection would end the
                    // park at once) while handlers close and free fds.
                    counters.accept_errors.fetch_add(1, Ordering::Relaxed);
                    None
                }
            };
            svc.drain_latch().park(wake_on, self.read_timeout);
            counters.accept_wakeups.fetch_add(1, Ordering::Relaxed);
        }
        handlers
    }
}

/// Waits up to `timeout` for every admitted request's response to be
/// written, then joins `handlers`. Returns whether the wait finished in
/// time.
pub(crate) fn drain<S: Service>(svc: &S, handlers: Vec<JoinHandle<()>>, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let mut drained = true;
    while svc.counters().active.load(Ordering::SeqCst) > 0 {
        if Instant::now() >= deadline {
            drained = false;
            break;
        }
        thread::sleep(Duration::from_millis(1));
    }
    for handler in handlers {
        let _ = handler.join();
    }
    drained
}

/// Executes one op and writes its reply, inside the `active` bracket:
/// admit → response written, so drain cannot declare victory while a
/// reply is unflushed. Returns whether the connection closes after it.
fn answer<S: Service, T: Write>(
    svc: &S,
    ctx: &mut S::Ctx,
    stream: &mut T,
    kind: ConnKind,
    op: Op,
    req_close: bool,
    out: &mut Vec<u8>,
) -> io::Result<bool> {
    let active = &svc.counters().active;
    active.fetch_add(1, Ordering::SeqCst);
    out.clear();
    let close = respond(svc, ctx, kind, op, req_close, out);
    let wrote = stream.write_all(out);
    active.fetch_sub(1, Ordering::SeqCst);
    wrote.map(|()| close)
}

/// One binary connection's serve loop: frames in, responses out, until
/// EOF, drain, or a protocol error. Frames pipelined ahead of a poisoned
/// length prefix are answered before the close, because each frame is
/// answered before the next is read.
///
/// Generic over the transport so tests can slot a scripted stream in
/// place of a socket.
fn serve_binary<S: Service, T: Read + Write>(
    svc: &S,
    ctx: &mut S::Ctx,
    mut stream: T,
    stall_limit: Duration,
) {
    let counters = svc.counters();
    let mut out = Vec::new();
    while !svc.draining() {
        match proto::poll_frame(&mut stream, stall_limit) {
            Ok(Poll::Idle) => {}
            Ok(Poll::Eof) => break,
            Ok(Poll::Frame(payload)) => {
                counters.frames.fetch_add(1, Ordering::Relaxed);
                let op = Op::from_frame(&payload);
                if answer(svc, ctx, &mut stream, ConnKind::Binary, op, false, &mut out).is_err() {
                    break;
                }
            }
            // Malformed or stalled input (an oversized prefix, EOF or a
            // stall inside a frame) is a protocol error; a reset or any
            // other transport failure is not — the reactor's split.
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData {
                    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
        }
    }
}

/// One HTTP connection's serve loop: requests in, responses out, until
/// EOF, a parse error, `Connection: close`, or the drain grace window
/// ends. The blocking twin of the reactor's HTTP path.
///
/// Drain semantics: once drain begins the loop keeps serving for one
/// stall-limit grace window — already-pipelined requests complete and
/// health probes observe the 503 flip — then closes. A parse error is
/// answered *after* every request that completed before the poison
/// (serve-then-close, the same contract the binary path keeps), with
/// 431/413/400 + `Connection: close`.
fn serve_http<S: Service, T: Read + Write>(
    svc: &S,
    ctx: &mut S::Ctx,
    mut stream: T,
    stall_limit: Duration,
) {
    let counters = svc.counters();
    let mut parser = HttpParser::new();
    let mut requests = VecDeque::new();
    let mut chunk = [0u8; 8192];
    let mut out = Vec::new();
    let mut parse_error = None;
    let mut drain_seen: Option<Instant> = None;
    let mut started: Option<Instant> = None;
    loop {
        if svc.draining() {
            let since = drain_seen.get_or_insert_with(Instant::now);
            if since.elapsed() > stall_limit {
                return;
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF inside a request is malformed input, as on the
                // binary path; at a request boundary it is a clean close.
                if parser.is_mid_request() {
                    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Ok(n) => {
                if let Err(e) = parser.feed(&chunk[..n], &mut requests) {
                    // Requests completed before the poison are already
                    // on the queue; serve them, then answer the error.
                    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    parse_error = Some(e);
                }
            }
            Err(ref e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                // Idle tick — unless the peer stalled mid-request, in
                // which case the per-request deadline applies exactly
                // like the binary path's per-frame deadline.
                if parser.is_mid_request() && started.is_some_and(|s| s.elapsed() > stall_limit) {
                    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
            Err(_) => return,
        }
        started = if parser.is_mid_request() {
            Some(started.unwrap_or_else(Instant::now))
        } else {
            None
        };

        // Serve the whole parsed queue before honoring any close flag:
        // pipelined requests already read off the socket must complete.
        let mut close_after = false;
        while let Some(req) = requests.pop_front() {
            counters.http_requests.fetch_add(1, Ordering::Relaxed);
            let op = http::route(&req);
            match answer(
                svc,
                ctx,
                &mut stream,
                ConnKind::Http,
                op,
                req.close,
                &mut out,
            ) {
                Ok(close) => close_after |= close,
                Err(_) => return,
            }
        }
        if let Some(err) = parse_error {
            let _ = answer(
                svc,
                ctx,
                &mut stream,
                ConnKind::Http,
                err.into(),
                true,
                &mut out,
            );
            return;
        }
        if close_after {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::DrainLatch;
    use crate::proto::{Request, Response};
    use crate::service::{FnTarget, FrontCounters, Reply};
    use faascache_platform::sharded::InvokeOutcome;

    /// Answers every invoke warm; drains when told to.
    #[derive(Default)]
    struct Toy {
        counters: FrontCounters,
        latch: DrainLatch,
    }

    impl Service for Toy {
        type Ctx = ();

        fn conn_ctx(&self, _ordinal: u64) {}

        fn call(&self, _ctx: &mut (), op: Op) -> Reply {
            match op {
                Op::Invoke {
                    function: FnTarget::Index(function),
                    ..
                } => Reply::Invoked {
                    function,
                    outcome: InvokeOutcome::Warm,
                },
                Op::Fail { status, msg } => Reply::error(status, msg),
                _ => Reply::Alive,
            }
        }

        fn drain_latch(&self) -> &DrainLatch {
            &self.latch
        }

        fn counters(&self) -> &FrontCounters {
            &self.counters
        }
    }

    enum Step {
        /// The peer sends these bytes.
        Bytes(Vec<u8>),
        /// One read timeout passes with nothing to read.
        Timeout,
        /// Drain begins during an idle read timeout.
        BeginDrain,
        /// The peer goes silent: every further read times out.
        Stall,
    }

    /// A scripted peer: reads follow `steps` (then EOF), writes are kept.
    struct Script<'a> {
        toy: &'a Toy,
        steps: VecDeque<Step>,
        written: Vec<u8>,
    }

    impl<'a> Script<'a> {
        fn new(toy: &'a Toy, steps: Vec<Step>) -> Self {
            Script {
                toy,
                steps: steps.into(),
                written: Vec::new(),
            }
        }

        /// Status codes of the HTTP responses written so far, in order.
        fn statuses(&self) -> Vec<u16> {
            let text = String::from_utf8_lossy(&self.written);
            text.split("HTTP/1.1 ")
                .skip(1)
                .map(|r| r[..3].parse().expect("status code"))
                .collect()
        }

        /// Binary responses written so far, in order.
        fn responses(&self) -> Vec<Response> {
            let mut wire = &self.written[..];
            let mut out = Vec::new();
            while let Some(payload) = proto::read_frame(&mut wire).expect("whole frames") {
                out.push(Response::decode(&payload).expect("a response"));
            }
            out
        }
    }

    impl Read for Script<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                None => Ok(0),
                Some(Step::Bytes(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(Step::Bytes(bytes.split_off(n)));
                    }
                    Ok(n)
                }
                Some(step) => {
                    match step {
                        Step::BeginDrain => self.toy.latch.request(),
                        Step::Stall => self.steps.push_front(Step::Stall),
                        _ => {}
                    }
                    thread::sleep(READ_TIMEOUT);
                    Err(io::ErrorKind::TimedOut.into())
                }
            }
        }
    }

    impl Write for Script<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const READ_TIMEOUT: Duration = Duration::from_millis(1);
    const STALL_LIMIT: Duration = Duration::from_millis(10);

    fn frame(request: Request) -> Vec<u8> {
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, &request.encode()).expect("Vec write");
        wire
    }

    fn invoke_http(function: u32) -> Vec<u8> {
        format!("POST /invoke/{function} HTTP/1.1\r\nHost: x\r\n\r\n").into_bytes()
    }

    const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\n\r\n";

    const WARM: Response = Response::Invoked(InvokeOutcome::Warm);

    #[test]
    fn binary_pipeline_is_answered_before_the_poison_closes() {
        let toy = Toy::default();
        let mut wire = frame(Request::Invoke { function: 1 });
        wire.extend(frame(Request::InvokeKeyed {
            function: 2,
            key: 9,
        }));
        wire.extend(u32::MAX.to_le_bytes()); // length prefix over MAX_FRAME
        wire.extend(frame(Request::Ping)); // never reached
        let mut peer = Script::new(&toy, vec![Step::Bytes(wire)]);
        serve_binary(&toy, &mut (), &mut peer, STALL_LIMIT);
        assert_eq!(peer.responses(), vec![WARM, WARM]);
        assert_eq!(toy.counters.frames.load(Ordering::Relaxed), 2);
        assert_eq!(toy.counters.protocol_errors.load(Ordering::Relaxed), 1);
        assert_eq!(toy.counters.active.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn http_pipeline_is_answered_before_the_poison_status() {
        let oversized_body = format!(
            "POST /invoke/3 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            http::MAX_BODY_BYTES + 1
        );
        let oversized_head = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n",
            "a".repeat(http::MAX_HEADER_BYTES)
        );
        for (poison, status) in [
            ("BOGUS LINE\r\n\r\n", 400),
            (oversized_body.as_str(), 413),
            (oversized_head.as_str(), 431),
        ] {
            let toy = Toy::default();
            let mut wire = invoke_http(1);
            wire.extend(invoke_http(2));
            wire.extend(poison.as_bytes());
            wire.extend(invoke_http(4)); // never reached
            let mut peer = Script::new(&toy, vec![Step::Bytes(wire)]);
            serve_http(&toy, &mut (), &mut peer, STALL_LIMIT);
            assert_eq!(peer.statuses(), vec![200, 200, status]);
            let text = String::from_utf8_lossy(&peer.written);
            let last = text.rsplit("HTTP/1.1 ").next().expect("a last response");
            assert!(last.contains("Connection: close"), "{status}: {last}");
            assert_eq!(toy.counters.http_requests.load(Ordering::Relaxed), 2);
            assert_eq!(toy.counters.protocol_errors.load(Ordering::Relaxed), 1);
            assert_eq!(toy.counters.active.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn a_peer_stalled_mid_request_is_cut_at_the_stall_limit() {
        let half_frame = frame(Request::Invoke { function: 1 })[..6].to_vec();
        let half_request = b"POST /invoke/1 HT".to_vec();
        for (kind, partial) in [
            (ConnKind::Binary, half_frame),
            (ConnKind::Http, half_request),
        ] {
            let toy = Toy::default();
            let mut peer = Script::new(&toy, vec![Step::Bytes(partial), Step::Stall]);
            let started = Instant::now();
            match kind {
                ConnKind::Binary => serve_binary(&toy, &mut (), &mut peer, STALL_LIMIT),
                ConnKind::Http => serve_http(&toy, &mut (), &mut peer, STALL_LIMIT),
            }
            assert!(started.elapsed() >= STALL_LIMIT, "{kind:?} cut early");
            assert!(peer.written.is_empty(), "{kind:?} answered half a request");
            assert_eq!(
                toy.counters.protocol_errors.load(Ordering::Relaxed),
                1,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn an_idle_peer_is_never_cut() {
        // Timeouts at a request boundary are idle ticks, not stalls.
        let toy = Toy::default();
        let idle = || (0..30).map(|_| Step::Timeout);
        let mut steps: Vec<Step> = idle().collect();
        steps.push(Step::Bytes(frame(Request::Ping)));
        let mut peer = Script::new(&toy, steps);
        serve_binary(&toy, &mut (), &mut peer, STALL_LIMIT);
        assert_eq!(peer.responses(), vec![Response::Pong]);

        let mut steps: Vec<Step> = idle().collect();
        steps.push(Step::Bytes(HEALTHZ.to_vec()));
        let mut peer = Script::new(&toy, steps);
        serve_http(&toy, &mut (), &mut peer, STALL_LIMIT);
        assert_eq!(peer.statuses(), vec![200]);
        assert_eq!(toy.counters.protocol_errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drain_closes_binary_and_gives_http_one_grace_window() {
        // Binary: the frame in hand is answered, the next is never read.
        let toy = Toy::default();
        let mut peer = Script::new(
            &toy,
            vec![
                Step::Bytes(frame(Request::Invoke { function: 1 })),
                Step::BeginDrain,
                Step::Bytes(frame(Request::Invoke { function: 2 })),
            ],
        );
        serve_binary(&toy, &mut (), &mut peer, STALL_LIMIT);
        assert_eq!(peer.responses(), vec![WARM]);

        // HTTP: idle ticks inside the grace window keep the connection;
        // the probe that arrives sees 503 + close, and nothing after it
        // is served.
        let toy = Toy::default();
        let mut peer = Script::new(
            &toy,
            vec![
                Step::Bytes(HEALTHZ.to_vec()),
                Step::BeginDrain,
                Step::Timeout,
                Step::Timeout,
                Step::Bytes(HEALTHZ.to_vec()),
                Step::Bytes(HEALTHZ.to_vec()),
            ],
        );
        serve_http(&toy, &mut (), &mut peer, STALL_LIMIT);
        assert_eq!(peer.statuses(), vec![200, 503]);
        let text = String::from_utf8_lossy(&peer.written);
        let (first, second) = text.split_at(text.rfind("HTTP/1.1 ").expect("two responses"));
        assert!(!first.contains("Connection: close"), "{first}");
        assert!(second.contains("Connection: close"), "{second}");
        assert!(second.ends_with("draining\n"), "{second}");

        // HTTP: a silent connection is closed when the window ends.
        let toy = Toy::default();
        let mut peer = Script::new(&toy, vec![Step::BeginDrain, Step::Stall]);
        let started = Instant::now();
        serve_http(&toy, &mut (), &mut peer, STALL_LIMIT);
        assert!(started.elapsed() >= STALL_LIMIT);
        assert!(peer.written.is_empty());
        assert_eq!(toy.counters.protocol_errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn finished_handlers_are_forgotten_under_connection_churn() {
        const CONNECTIONS: usize = 300;
        let toy = Arc::new(Toy::default());
        let endpoint = Endpoint::Tcp("127.0.0.1:0".to_string());
        let front = Front::bind(&endpoint, None, READ_TIMEOUT, None).expect("bind");
        let addr = front.bound_addr();
        let retained = thread::scope(|scope| {
            let accepting =
                scope.spawn(|| front.accept_loop(&toy, &front.binary, ConnKind::Binary));
            for _ in 0..CONNECTIONS {
                let mut conn = Stream::connect(&addr).expect("connect");
                conn.write_all(&frame(Request::Ping)).expect("send");
                let reply = proto::read_frame(&mut conn)
                    .expect("read")
                    .expect("a frame");
                assert_eq!(Response::decode(&reply).expect("decode"), Response::Pong);
            }
            toy.latch.request();
            accepting.join().expect("accept loop")
        });
        assert_eq!(
            toy.counters.conns_total.load(Ordering::Relaxed),
            CONNECTIONS as u64
        );
        // Each connection is opened after the previous one closed, so
        // idle ticks interleave with the churn and reap as it goes.
        assert!(
            retained.len() < CONNECTIONS / 4,
            "{} of {CONNECTIONS} handler threads still held at drain",
            retained.len()
        );
        for handler in retained {
            handler.join().expect("handler");
        }
    }
}
