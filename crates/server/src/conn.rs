//! One connection's protocol state, whichever io model moves its bytes.
//!
//! Both drivers keep a [`Conn`] per accepted socket and move bytes
//! through it the same way: [`Conn::read_from`] reads one chunk and
//! decodes every request it completes onto `pending`, [`Conn::answer`]
//! executes one through [`respond`] into the output buffer, and
//! [`Conn::flush`] writes what is queued. The rules of a connection live
//! here once:
//!
//! - **The `active` bracket.** A request counts into
//!   `FrontCounters::active` when it is decoded and out when its reply
//!   is fully written, or when the connection closes without writing it
//!   ([`Conn::close`]). Drain waits for the count to reach zero.
//! - **Serve-then-close.** Requests decoded ahead of poisoned input (an
//!   oversized length prefix, a malformed HTTP head, EOF inside a
//!   request) are answered before the connection closes, and HTTP's owed
//!   400/413/431 is queued behind them. A reply that ends the connection
//!   stops input, not service: what is already pending is answered.
//! - **The stall deadline.** A request must arrive whole within
//!   `stall_limit` of its first byte, however its bytes trickle in
//!   ([`Conn::arm_deadline`]); a peer that misses it is a protocol error.
//! - **The drain grace.** Once drain begins a binary connection takes no
//!   more input, and an HTTP one takes input for one more `stall_limit`,
//!   so pipelined requests complete and health probes see the 503 flip
//!   ([`Conn::reads`]).
//!
//! A driver decides only when to read and write: the blocking driver
//! loops on the connection's own thread; the reactor adds readiness
//! interest, backpressure, a deadline queue and the blocking-op hand-off.

use crate::client::LoadProto;
use crate::http::{self, HttpParser, HttpRequest};
use crate::proto::{FrameDecoder, FrameEncoder, WriteProgress};
use crate::service::{respond, FrontCounters, Op, Service};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Bytes one [`Conn::read_from`] asks the transport for.
pub(crate) const CHUNK: usize = 16 * 1024;

/// One decoded request, not yet answered.
pub(crate) struct Pending {
    pub(crate) op: Op,
    /// The request asked to close the connection after its reply.
    pub(crate) close: bool,
}

/// Buffers a reader reuses across the connections it feeds: the read
/// chunk and the decoders' output queues.
pub(crate) struct Scratch {
    chunk: Vec<u8>,
    frames: VecDeque<Vec<u8>>,
    requests: VecDeque<HttpRequest>,
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch {
            chunk: vec![0; CHUNK],
            frames: VecDeque::new(),
            requests: VecDeque::new(),
        }
    }
}

/// Which protocol state machine decodes a connection's bytes.
enum Decoder {
    Binary(FrameDecoder),
    Http(HttpParser),
}

/// One connection's decoder, request queue and reply queue. Every request
/// on `pending` and every reply on `out` holds one `active` bracket; a
/// driver that takes a request off `pending` owes its bracket until the
/// reply is queued on `out`.
pub(crate) struct Conn {
    decoder: Decoder,
    /// Decoded requests not yet answered, in arrival order.
    pub(crate) pending: VecDeque<Pending>,
    /// Replies not yet fully written.
    pub(crate) out: FrameEncoder,
    /// No more input is taken (EOF, poisoned input, or a reply that ends
    /// the connection); the connection closes once what it owes is
    /// written.
    pub(crate) closing: bool,
    /// When the request being read must be complete, if one has begun.
    pub(crate) deadline: Option<Instant>,
}

impl Conn {
    /// A connection speaking `kind`.
    pub(crate) fn new(kind: LoadProto) -> Conn {
        let decoder = match kind {
            LoadProto::Binary => Decoder::Binary(FrameDecoder::new()),
            LoadProto::Http => Decoder::Http(HttpParser::new()),
        };
        Conn {
            decoder,
            pending: VecDeque::new(),
            out: FrameEncoder::new(),
            closing: false,
            deadline: None,
        }
    }

    pub(crate) fn kind(&self) -> LoadProto {
        match self.decoder {
            Decoder::Binary(_) => LoadProto::Binary,
            Decoder::Http(_) => LoadProto::Http,
        }
    }

    /// Whether any byte of an unfinished request has been read.
    fn mid_input(&self) -> bool {
        match &self.decoder {
            Decoder::Binary(decoder) => decoder.is_mid_frame(),
            Decoder::Http(parser) => parser.is_mid_request(),
        }
    }

    /// Reads once from `stream` and decodes every request the bytes
    /// complete onto `pending`, each opening its `active` bracket.
    /// Returns how many bytes arrived: 0 when the read would block or
    /// timed out (a socket timeout, or an injected one), and at EOF, which
    /// also ends input. An error is a transport failure (a reset, say),
    /// which is not a protocol error.
    pub(crate) fn read_from(
        &mut self,
        stream: &mut impl Read,
        scratch: &mut Scratch,
        counters: &FrontCounters,
    ) -> io::Result<usize> {
        let n = match stream.read(&mut scratch.chunk) {
            Ok(0) => {
                // EOF inside a request tore it in half.
                if self.mid_input() {
                    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                }
                self.closing = true;
                return Ok(0);
            }
            Ok(n) => n,
            Err(e) => {
                return match e.kind() {
                    io::ErrorKind::WouldBlock
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::Interrupted => Ok(0),
                    _ => Err(e),
                }
            }
        };
        let bytes = &scratch.chunk[..n];
        let fed = match &mut self.decoder {
            Decoder::Binary(decoder) => decoder
                .feed(bytes, &mut scratch.frames)
                .map(drop)
                .map_err(|_| None),
            Decoder::Http(parser) => parser.feed(bytes, &mut scratch.requests).map_err(Some),
        };
        // A poisoned decoder has already queued the requests that
        // completed ahead of the poison: they are admitted, and so
        // answered, before the connection closes.
        for frame in scratch.frames.drain(..) {
            counters.frames.fetch_add(1, Ordering::Relaxed);
            self.admit(counters, Op::from_frame(&frame), false);
        }
        for request in scratch.requests.drain(..) {
            counters.http_requests.fetch_add(1, Ordering::Relaxed);
            self.admit(counters, http::route(&request), request.close);
        }
        if let Err(owed) = fed {
            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
            self.closing = true;
            // HTTP answers its 400/413/431 behind the requests ahead.
            if let Some(err) = owed {
                self.admit(counters, err.into(), true);
            }
        }
        Ok(n)
    }

    fn admit(&mut self, counters: &FrontCounters, op: Op, close: bool) {
        counters.active.fetch_add(1, Ordering::SeqCst);
        self.pending.push_back(Pending { op, close });
    }

    /// Starts the stall clock at a request's first byte and stops it at a
    /// request boundary; progress alone does not stop it, so a peer that
    /// trickles a request is cut like one that goes silent. Returns the
    /// deadline when this call armed it. Input that ended (EOF, poison)
    /// has no deadline.
    pub(crate) fn arm_deadline(&mut self, stall_limit: Duration) -> Option<Instant> {
        if self.closing || !self.mid_input() {
            self.deadline = None;
        } else if self.deadline.is_none() {
            self.deadline = Some(Instant::now() + stall_limit);
            return self.deadline;
        }
        None
    }

    /// Whether the connection takes more input, given when drain began:
    /// not once it is closing, and during a drain only an HTTP connection
    /// inside its `stall_limit` grace window.
    pub(crate) fn reads(&self, drain_began: Option<Instant>, stall_limit: Duration) -> bool {
        !self.closing
            && drain_began
                .is_none_or(|t| self.kind() == LoadProto::Http && t.elapsed() < stall_limit)
    }

    /// Executes `request` and queues its reply. A reply that ends the
    /// connection ends its input.
    pub(crate) fn answer<S: Service>(&mut self, svc: &S, ctx: &mut S::Ctx, request: Pending) {
        let kind = self.kind();
        let Pending { op, close } = request;
        self.closing |= self
            .out
            .push_with(|out| respond(svc, ctx, kind, op, close, out));
    }

    /// Writes queued replies until none are left or the transport
    /// blocks; each reply fully written ends its bracket.
    pub(crate) fn flush(&mut self, w: &mut impl Write, counters: &FrontCounters) -> WriteProgress {
        if self.out.is_empty() {
            return WriteProgress::Flushed;
        }
        let (completed, progress) = self.out.write_to(w);
        counters
            .active
            .fetch_sub(completed as u64, Ordering::SeqCst);
        progress
    }

    /// Ends the bracket of every request the peer will never be answered:
    /// the ones pending and the replies not fully written.
    pub(crate) fn close(mut self, counters: &FrontCounters) {
        let orphaned = (self.pending.len() + self.out.abandon()) as u64;
        counters.active.fetch_sub(orphaned, Ordering::SeqCst);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::net::DrainLatch;
    use crate::proto::{self, Request};
    use crate::service::{FnTarget, Reply};
    use faascache_platform::sharded::InvokeOutcome;
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Answers every invoke warm and keeps the ops it executed; drains
    /// when its latch is tripped.
    #[derive(Default)]
    pub(crate) struct Toy {
        pub(crate) counters: FrontCounters,
        pub(crate) latch: DrainLatch,
        ops: Mutex<Vec<Op>>,
    }

    impl Service for Toy {
        type Ctx = ();

        fn conn_ctx(&self, _ordinal: u64) {}

        fn call(&self, _ctx: &mut (), op: Op) -> Reply {
            let reply = match &op {
                Op::Invoke {
                    function: FnTarget::Index(function),
                    ..
                } => Reply::Invoked {
                    function: *function,
                    outcome: InvokeOutcome::Warm,
                },
                Op::Fail { status, msg } => Reply::error(*status, msg.clone()),
                _ => Reply::Alive,
            };
            self.ops.lock().expect("ops").push(op);
            reply
        }

        fn drain_latch(&self) -> &DrainLatch {
            &self.latch
        }

        fn counters(&self) -> &FrontCounters {
            &self.counters
        }
    }

    /// The `i`th request of a small vocabulary: well-formed requests,
    /// requests answered with an error reply, and (last) input that
    /// poisons the stream.
    fn piece(kind: LoadProto, i: usize) -> Vec<u8> {
        let text = match (kind, i) {
            (LoadProto::Binary, _) => {
                let payload = match i {
                    0 => Request::Ping.encode(),
                    1 => Request::Invoke { function: 7 }.encode(),
                    2 => Request::InvokeKeyed {
                        function: 3,
                        key: 9,
                    }
                    .encode(),
                    3 => Request::Stats.encode(),
                    4 => vec![0x60],                             // unknown opcode
                    5 => Vec::new(),                             // empty frame
                    _ => return u32::MAX.to_le_bytes().to_vec(), // oversized prefix
                };
                let mut frame = Vec::new();
                proto::write_frame(&mut frame, &payload).expect("Vec write");
                return frame;
            }
            (LoadProto::Http, 0) => "GET /healthz HTTP/1.1\r\n\r\n",
            (LoadProto::Http, 1) => "POST /invoke/7 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
            (LoadProto::Http, 2) => "POST /invoke/f HTTP/1.1\r\nIdempotency-Key: 9\r\n\r\n",
            (LoadProto::Http, 3) => "GET /metrics HTTP/1.1\r\n\r\n",
            (LoadProto::Http, 4) => "GET /nope HTTP/1.1\r\n\r\n",
            (LoadProto::Http, 5) => "PUT /functions/g?mem_mb=64 HTTP/1.1\r\n\r\n",
            (LoadProto::Http, _) => "BOGUS\r\n\r\n",
        };
        text.as_bytes().to_vec()
    }

    /// A peer that sends `wire` cut at `cuts` (cycled), then EOF.
    struct Cut<'a> {
        wire: &'a [u8],
        cuts: &'a [usize],
        turn: usize,
    }

    impl Read for Cut<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let cut = self.cuts[self.turn % self.cuts.len()];
            self.turn += 1;
            let n = cut.min(buf.len()).min(self.wire.len());
            buf[..n].copy_from_slice(&self.wire[..n]);
            self.wire = &self.wire[n..];
            Ok(n)
        }
    }

    /// A peer reading its replies: at most `take` bytes per write, every
    /// third write refused with `WouldBlock`, a reset once `fail_after`
    /// bytes are in.
    struct Sink {
        got: Vec<u8>,
        take: usize,
        calls: usize,
        fail_after: usize,
    }

    impl Sink {
        fn new(take: usize, fail_after: usize) -> Sink {
            Sink {
                got: Vec::new(),
                take,
                calls: 0,
                fail_after,
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.got.len() >= self.fail_after {
                return Err(io::ErrorKind::ConnectionReset.into());
            }
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf
                .len()
                .min(self.take)
                .min(self.fail_after - self.got.len());
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Moves `wire` through a connection the way a driver does (read,
    /// answer, flush) until input ends or the sink fails, then closes it.
    /// Returns the ops executed.
    fn drive(kind: LoadProto, wire: &[u8], cuts: &[usize], sink: &mut Sink) -> Vec<Op> {
        let toy = Toy::default();
        let mut scratch = Scratch::default();
        let mut conn = Conn::new(kind);
        let mut peer = Cut {
            wire,
            cuts,
            turn: 0,
        };
        let mut alive = true;
        while alive && conn.reads(None, Duration::MAX) {
            conn.read_from(&mut peer, &mut scratch, &toy.counters)
                .expect("a script cannot fail");
            while let Some(request) = conn.pending.pop_front() {
                conn.answer(&toy, &mut (), request);
            }
            alive = !matches!(conn.flush(sink, &toy.counters), WriteProgress::Closed(_));
        }
        while alive && !conn.out.is_empty() {
            alive = !matches!(conn.flush(sink, &toy.counters), WriteProgress::Closed(_));
        }
        conn.close(&toy.counters);
        assert_eq!(
            toy.counters.active.load(Ordering::SeqCst),
            0,
            "a bracket outlived its connection"
        );
        toy.ops.into_inner().expect("ops")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Drain correctness rests on `active`: whatever the cut points
        /// and however the writes go, every bracket a request opens is
        /// closed by its reply or by the close, and the cut points change
        /// neither the ops executed nor the bytes answered.
        #[test]
        fn any_cuts_yield_the_same_ops_and_close_ends_every_bracket(
            http in any::<bool>(),
            pieces in collection::vec(0usize..7, 0..12),
            garbage in collection::vec(any::<u8>(), 0..48),
            cuts in collection::vec(1usize..40, 1..8),
            (take, fail_at) in (1usize..64, any::<usize>()),
        ) {
            let kind = if http { LoadProto::Http } else { LoadProto::Binary };
            let mut wire: Vec<u8> = pieces.iter().flat_map(|&i| piece(kind, i)).collect();
            wire.extend_from_slice(&garbage);

            let mut whole_sink = Sink::new(usize::MAX, usize::MAX);
            let whole = drive(kind, &wire, &[wire.len().max(1)], &mut whole_sink);
            let mut cut_sink = Sink::new(take, usize::MAX);
            prop_assert_eq!(&drive(kind, &wire, &cuts, &mut cut_sink), &whole);
            prop_assert_eq!(&cut_sink.got, &whole_sink.got);

            let fail_after = fail_at % (whole_sink.got.len() + 1);
            let cut_off = drive(kind, &wire, &cuts, &mut Sink::new(take, fail_after));
            prop_assert!(whole.starts_with(&cut_off));
        }
    }
}
