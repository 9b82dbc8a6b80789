//! Epoll-driven readiness serving core: C10k connections without deps.
//!
//! The blocking, thread-per-connection driver pins a kernel thread and a
//! ~2 MiB stack per connection — every *idle* keep-alive client costs as
//! much as an active one, capping the daemon at a few hundred
//! connections. This module is the daemon's other driver: a single
//! reactor thread multiplexing every connection over raw `epoll`,
//! lifting the ceiling to tens of thousands:
//!
//! - [`Epoll`] wraps the three `epoll` syscalls behind direct
//!   `extern "C"` declarations (`std` already links the platform C
//!   library — the same trick [`crate::signal`] uses; no `libc` crate,
//!   no new dependencies). Registration supports level- and
//!   edge-triggered interest; the daemon uses level-triggered so
//!   backpressure (dropping read interest when a connection's pipeline
//!   fills) can never lose a wakeup.
//! - Per-connection **state machines** own an incremental
//!   [`FrameDecoder`] and [`FrameEncoder`]:
//!   reads consume whatever bytes are ready and resume mid-frame; writes
//!   resume mid-response on the next writability event. Decoded payload
//!   buffers come from a [`BufPool`] so steady-state serving does not
//!   allocate per request.
//! - **A request is served on the thread that read it.** One wake-up for
//!   a connection is one `read` (a read that does not fill the scratch
//!   buffer took all the socket had; level-triggered epoll re-fires if
//!   more arrives), a decode of every frame in it, one call of `respond`
//!   per frame — the same `Op -> Reply -> bytes` step the blocking
//!   driver runs — appending to the connection's one output buffer, and
//!   one `write` of whatever that produced: the replies of a pipelined
//!   burst leave together. Nothing is handed to another thread, so a
//!   request costs no futex and no context switch beyond the reactor's
//!   own sleep. A connection gets at most `PENDING_CAP` frames served per
//!   turn; what is left stays on its `pending` queue and it takes
//!   another turn before the reactor sleeps, so a deep pipeline cannot
//!   hold the loop.
//! - **Only an op that waits for the disk leaves the thread**: a
//!   `Register` or `SetQuota` on a daemon with a `--state-dir` is fsynced
//!   into the journal before it is answered (`Shared::blocks_on`). It
//!   goes to the single *blocking-op thread*; its connection is marked
//!   `busy` and the frames behind it wait in `pending`, so replies stay
//!   in request order, while every other connection is served as usual.
//!   The reply comes back over a channel plus a self-wake socketpair.
//!   The registry lock and the journal mutex serialise such mutations
//!   anyway, so one thread loses nothing. Everything else an `Op` does —
//!   invokes, stats, metrics, pings, unjournaled mutations — takes
//!   short uncontended locks and returns.
//! - **The reactor never waits on a condvar.** The one in the serving
//!   path, the idempotency cache's wait for a key whose first execution
//!   is still in flight, cannot be reached here: every invoke runs on
//!   this one thread from claim to recorded outcome, so no invoke can
//!   ever observe another's claim pending.
//! - **A peer that does not read its replies is not read from.** Above
//!   `OUT_HIGH_WATER` queued reply bytes a connection loses read
//!   interest and is served nothing more until a flush brings it back
//!   under, so what the daemon holds for it is bounded by that mark plus
//!   one turn's replies; the kernel socket buffers, then the peer's own
//!   blocked `write`, absorb the rest — the threads model's behaviour,
//!   which blocks in `write`.
//! - A **deadline queue** bounds every started frame: a peer that
//!   trickles or stalls mid-frame is cut off after the same
//!   `read_timeout × 10` budget the blocking path enforces, without
//!   parking a thread per peer. (All deadlines share one duration, so a
//!   FIFO is a degenerate — and exact — timer wheel.)
//! - The reactor **sleeps in `epoll_wait`** until a socket is ready, the
//!   next deadline, or one read timeout, the same bound the blocking
//!   driver's accept loops have for noticing a signal; the drain latch's
//!   pollable end is registered too, so a drain requested from another
//!   thread wakes it at once. An idle daemon wakes `1 s / read_timeout`
//!   times a second.
//! - **Drain** keeps PR 2's semantics: on shutdown the listener is
//!   deregistered, read interest is dropped everywhere, admission gates
//!   flip so stragglers get an explicit `Rejected`, and the reactor
//!   keeps flushing until every admitted frame's response is on the wire
//!   (or the drain window closes). The `active` counter brackets
//!   frame-read → response-written exactly as in the threads model, and
//!   connections that die mid-drain surrender their bracket at close.
//!
//! Fault injection composes unchanged: each accepted connection is
//! wrapped in the same [`FaultyStream`] with the same accept-ordinal
//! stream id (`driver::faulty`), so a chaos seed replays the identical
//! schedule under either `--io-model`.

#![allow(unsafe_code)]

use crate::daemon::{DaemonConfig, Shared};
use crate::driver::{self, Front};
use crate::fault::{FaultConfig, FaultyStream};
use crate::http::{self, HttpParseError, HttpParser, HttpRequest};
use crate::net::{Listener, Stream};
use crate::proto::{BufPool, FrameDecoder, FrameEncoder, WriteProgress};
use crate::service::{respond, ConnKind, Op, Service};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Raw syscall surface. `std` links the platform C library, so declaring
/// the prototypes directly is enough — the same pattern `signal.rs`
/// established for SIGTERM handling.
mod ffi {
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    /// `struct epoll_event`. The kernel ABI packs it on x86_64 (glibc's
    /// `__EPOLL_PACKED`); other architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_pointer_width = "64")]
    pub const RLIMIT_NOFILE: c_int = 7;

    /// `struct rlimit` with 64-bit fields matches `rlim_t` only on
    /// 64-bit targets; 32-bit glibc needs the separate `getrlimit64`
    /// entry points, so the rlimit surface is gated off there.
    #[cfg(target_pointer_width = "64")]
    #[repr(C)]
    pub struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }

    #[cfg(target_pointer_width = "64")]
    extern "C" {
        pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }
}

/// Raises the process's open-file soft limit to its hard limit and
/// returns the resulting soft limit. C10k serving needs one fd per
/// connection; the default soft limit (often 1024) would cap the daemon
/// long before the reactor does. Errors are non-fatal — the caller keeps
/// whatever limit it had.
#[cfg(target_pointer_width = "64")]
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut rl = ffi::RLimit { cur: 0, max: 0 };
    // SAFETY: plain struct out-parameter syscall wrappers.
    if unsafe { ffi::getrlimit(ffi::RLIMIT_NOFILE, &mut rl) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if rl.cur < rl.max {
        let want = ffi::RLimit {
            cur: rl.max,
            max: rl.max,
        };
        if unsafe { ffi::setrlimit(ffi::RLIMIT_NOFILE, &want) } != 0 {
            return Err(io::Error::last_os_error());
        }
        rl.cur = rl.max;
    }
    Ok(rl.cur)
}

/// On 32-bit targets the u64 `RLimit` layout would be wrong (see
/// `ffi::RLimit`); keep whatever limit the process already has. Callers
/// treat a failed raise as non-fatal.
#[cfg(not(target_pointer_width = "64"))]
pub fn raise_nofile_limit() -> io::Result<u64> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "rlimit raise requires a 64-bit target",
    ))
}

/// What a registration wants to be notified about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
    /// Edge-triggered delivery (`EPOLLET`): one wakeup per readiness
    /// transition. The daemon's serving path uses level-triggered
    /// registration, which tolerates partial consumption; edge mode is
    /// exposed for callers that always drain to `WouldBlock`.
    pub edge: bool,
}

impl Interest {
    /// Level-triggered read interest.
    pub fn readable() -> Self {
        Interest {
            readable: true,
            writable: false,
            edge: false,
        }
    }

    /// Level-triggered read + write interest.
    pub fn both() -> Self {
        Interest {
            readable: true,
            writable: true,
            edge: false,
        }
    }

    /// No interest (error/hangup events still fire).
    pub fn none() -> Self {
        Interest {
            readable: false,
            writable: false,
            edge: false,
        }
    }

    fn bits(self) -> u32 {
        // EPOLLRDHUP rides with read interest only: a registration that
        // has parked reads (backpressure, drain, post-EOF flush) must
        // not be re-woken level-triggered by a half-closed peer it is
        // not going to read from.
        let mut bits = 0;
        if self.readable {
            bits |= ffi::EPOLLIN | ffi::EPOLLRDHUP;
        }
        if self.writable {
            bits |= ffi::EPOLLOUT;
        }
        if self.edge {
            bits |= ffi::EPOLLET;
        }
        bits
    }
}

/// One readiness notification out of [`Epoll::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (includes peer half-close via `EPOLLRDHUP`).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup condition; the next read will surface it.
    pub error: bool,
}

/// A minimal safe wrapper over the `epoll` syscalls.
///
/// Fds are registered with a caller-chosen `u64` token that comes back
/// verbatim in events. The wrapper owns the epoll fd and closes it on
/// drop; registered fds are *not* owned.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 has no memory arguments.
        let fd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = ffi::EpollEvent {
            events: interest.bits(),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        if unsafe { ffi::epoll_ctl(self.fd, op, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of a registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_DEL, fd, 0, Interest::none())
    }

    /// Waits up to `timeout` for readiness, appending into `out` (which
    /// is cleared first). Returns the number of events. `None` blocks
    /// indefinitely.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        const MAX_EVENTS: usize = 1024;
        let mut raw = [ffi::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        // SAFETY: `raw` is a valid out-buffer of MAX_EVENTS entries.
        let n =
            unsafe { ffi::epoll_wait(self.fd, raw.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                out.clear();
                return Ok(0);
            }
            return Err(err);
        }
        out.clear();
        for ev in raw.iter().take(n as usize) {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (ffi::EPOLLIN | ffi::EPOLLRDHUP) != 0,
                writable: bits & ffi::EPOLLOUT != 0,
                error: bits & (ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe {
            ffi::close(self.fd);
        }
    }
}

/// Per-frame deadlines for the reactor. Every deadline is `now +
/// stall_limit` with one shared `stall_limit`, so insertion order is
/// deadline order and a FIFO is an exact timer wheel. Entries are
/// validated lazily against the connection's current deadline on expiry,
/// so completed frames cost nothing to cancel.
#[derive(Debug, Default)]
struct DeadlineQueue {
    queue: VecDeque<(Instant, u64)>,
}

impl DeadlineQueue {
    fn push(&mut self, when: Instant, token: u64) {
        debug_assert!(self.queue.back().is_none_or(|(w, _)| *w <= when));
        self.queue.push_back((when, token));
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.queue.front().map(|(w, _)| *w)
    }

    /// Pops every entry due at `now`, invoking `expire(token, when)`.
    fn expire(&mut self, now: Instant, mut expired: impl FnMut(u64, Instant)) {
        while let Some((when, token)) = self.queue.front().copied() {
            if when > now {
                break;
            }
            self.queue.pop_front();
            expired(token, when);
        }
    }
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;
const TOKEN_HTTP_LISTENER: u64 = u64::MAX - 2;
const TOKEN_DRAIN: u64 = u64::MAX - 3;
/// Frames one connection gets served per visit, so a deep pipeline
/// cannot hold the loop; also the number of decoded-but-unserved frames
/// at which the reactor stops reading from a connection.
const PENDING_CAP: usize = 32;
/// Reply bytes a connection may have queued for a peer that is not
/// reading them. Above this the connection is neither read nor served
/// until a flush brings it back under: what the threads model gets from
/// blocking in `write`.
const OUT_HIGH_WATER: usize = 64 * 1024;
/// Reads per connection per readiness round, when each one fills the
/// scratch buffer; level-triggered registration re-fires if more bytes
/// remain.
const READ_ROUNDS: usize = 16;

/// One admitted request, decoded but not yet executed.
struct Pending {
    op: Op,
    /// The request asked to close the connection after its response.
    close: bool,
}

/// A [`Pending`] request on its way to the blocking-op thread.
struct Job {
    token: u64,
    kind: ConnKind,
    request: Pending,
}

/// What the blocking-op thread hands back.
struct Completion {
    token: u64,
    /// Wire bytes of the reply: a length-prefixed binary frame, or a
    /// complete HTTP response.
    frame: Vec<u8>,
    /// Close the connection once every owed response is flushed.
    close_after: bool,
}

/// Which protocol state machine decodes a connection's bytes.
enum ConnProto {
    Binary(FrameDecoder),
    Http(HttpParser),
}

/// One connection's readiness state machine.
struct Conn {
    stream: FaultyStream<Stream>,
    fd: RawFd,
    gen: u32,
    proto: ConnProto,
    /// Decoded requests not yet served, in arrival order.
    pending: VecDeque<Pending>,
    /// The request at the head of the line is on the blocking-op thread;
    /// nothing behind it is served until its reply is queued, so replies
    /// stay in request order.
    busy: bool,
    /// On the reactor's revisit list.
    queued: bool,
    out: FrameEncoder,
    /// Hard deadline for the frame currently being read, if mid-frame.
    deadline: Option<Instant>,
    /// Peer sent EOF at a frame boundary (or a response demanded
    /// close); close once quiesced.
    closing: bool,
    /// Interest currently registered with epoll.
    registered: Interest,
}

impl Conn {
    fn token(&self, idx: usize) -> u64 {
        ((self.gen as u64) << 32) | idx as u64
    }

    fn quiesced(&self) -> bool {
        !self.busy && self.pending.is_empty() && self.out.is_empty()
    }

    /// Whether the next pending request may be served now: none is at
    /// the disk, and the peer is taking its replies.
    fn servable(&self) -> bool {
        !self.busy && self.out.pending_bytes() <= OUT_HIGH_WATER
    }

    /// Whether any byte of an unfinished request has been consumed —
    /// the deadline-arming condition for both protocols.
    fn mid_input(&self) -> bool {
        match &self.proto {
            ConnProto::Binary(decoder) => decoder.is_mid_frame(),
            ConnProto::Http(parser) => parser.is_mid_request(),
        }
    }

    fn kind(&self) -> ConnKind {
        match self.proto {
            ConnProto::Binary(_) => ConnKind::Binary,
            ConnProto::Http(_) => ConnKind::Http,
        }
    }

    fn is_http(&self) -> bool {
        self.kind() == ConnKind::Http
    }
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

/// Connection table: slot reuse with generation counters so a completion
/// for a closed connection can never be delivered to its slot's next
/// tenant.
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
}

impl Slab {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, mut conn: Conn) -> u64 {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                self.slots.len() - 1
            }
        };
        conn.gen = self.gens[idx];
        let token = conn.token(idx);
        self.slots[idx] = Some(conn);
        token
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut Conn> {
        let (idx, gen) = split_token(token);
        match self.slots.get_mut(idx) {
            Some(Some(conn)) if conn.gen == gen => Some(conn),
            _ => None,
        }
    }

    fn remove(&mut self, token: u64) -> Option<Conn> {
        let (idx, gen) = split_token(token);
        match self.slots.get_mut(idx) {
            Some(slot @ Some(_)) if slot.as_ref().is_some_and(|c| c.gen == gen) => {
                let conn = slot.take();
                self.gens[idx] = self.gens[idx].wrapping_add(1);
                self.free.push(idx);
                conn
            }
            _ => None,
        }
    }

    fn tokens(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_ref().map(|c| c.token(idx)))
            .collect()
    }
}

/// Runs the epoll serving core until shutdown, then drains. Returns
/// whether every admitted frame's response reached the wire within the
/// drain window.
pub(crate) fn serve(
    front: &Front,
    shared: &Arc<Shared>,
    config: &DaemonConfig,
) -> io::Result<bool> {
    let listener = &front.binary;
    let http_listener = front.http.as_ref();
    let epoll = Epoll::new()?;
    epoll.add(listener.raw_fd(), TOKEN_LISTENER, Interest::readable())?;
    if let Some(http) = http_listener {
        epoll.add(http.raw_fd(), TOKEN_HTTP_LISTENER, Interest::readable())?;
    }
    // A drain requested from another thread (or by a wire `Shutdown`)
    // ends the sleep in `epoll_wait` at once; a signal interrupts it or
    // is noticed when it times out.
    if let Some(fd) = shared.drain_latch().wake_fd() {
        epoll.add(fd, TOKEN_DRAIN, Interest::readable())?;
    }

    // Self-wake channel: the blocking-op thread nudges the reactor out
    // of epoll_wait when a reply is ready. A socketpair needs no extra
    // FFI.
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    epoll.add(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::readable())?;

    // The one thread that may sleep on behalf of a request. A connection
    // has at most one job out, so neither channel can hold more entries
    // than there are connections.
    let (jobs, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let blocking = {
        let shared = Arc::clone(shared);
        thread::Builder::new()
            .name("faascached-blocking-ops".to_string())
            .spawn(move || {
                for job in job_rx {
                    let Pending { op, close } = job.request;
                    let mut frame = Vec::new();
                    let close_after = respond(&*shared, &mut (), job.kind, op, close, &mut frame);
                    let done = Completion {
                        token: job.token,
                        frame,
                        close_after,
                    };
                    if done_tx.send(done).is_err() {
                        break;
                    }
                    // A full wake pipe already guarantees a pending
                    // wakeup; WouldBlock is success here.
                    let _ = (&wake_tx).write(&[1u8]);
                }
            })?
    };

    let mut reactor = Reactor {
        epoll,
        slab: Slab::new(),
        deadlines: DeadlineQueue::default(),
        ready: VecDeque::new(),
        pool: BufPool::serving_default(),
        jobs,
        shared: Arc::clone(shared),
        faults: front.faults,
        stall_limit: front.stall_limit(),
        scratch: vec![0u8; 16 * 1024],
        frames_scratch: VecDeque::new(),
        http_scratch: VecDeque::new(),
        draining: false,
        drain_grace_until: None,
    };

    let mut events: Vec<Event> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    let drained = loop {
        // Sleep until a socket is ready, the next frame deadline, or one
        // read timeout (the bound on noticing a signal, as in the
        // blocking driver) — unless connections are waiting their turn.
        let mut timeout = config.read_timeout;
        if let Some(next) = reactor.deadlines.next_deadline() {
            timeout = timeout.min(next.saturating_duration_since(Instant::now()));
        }
        if !reactor.ready.is_empty() {
            timeout = Duration::ZERO;
        }
        reactor.epoll.wait(&mut events, Some(timeout))?;
        shared.front.accept_wakeups.fetch_add(1, Ordering::Relaxed);

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => reactor.accept_burst(listener, ConnKind::Binary),
                TOKEN_HTTP_LISTENER => {
                    if let Some(http) = http_listener {
                        reactor.accept_burst(http, ConnKind::Http);
                    }
                }
                TOKEN_WAKE => drain_wake(&wake_rx),
                TOKEN_DRAIN => {} // begin_drain below stops watching it
                token => reactor.handle_conn_event(*ev, token),
            }
        }

        reactor.finish_blocking(&done_rx);
        reactor.revisit();
        reactor.expire_deadlines(Instant::now());

        if !reactor.draining && shared.draining() {
            reactor.begin_drain(listener, http_listener);
            drain_deadline = Some(Instant::now() + config.drain_timeout);
        }
        if reactor.draining {
            // HTTP connections get one grace window after drain starts:
            // already-connected clients finish their pipelines and
            // health probes observe the 503 flip (threads-model parity).
            if shared.front.active.load(Ordering::SeqCst) == 0 && !reactor.http_grace_holds() {
                break true;
            }
            if drain_deadline.is_some_and(|d| Instant::now() >= d) {
                break false;
            }
        }
    };

    // Reclaim every connection (any frame still bracketed surrenders its
    // `active` count at close), then hang up on the blocking-op thread
    // and wait for it: a job it was still running belongs to a
    // connection that is gone, so its bracket is surrendered here.
    for token in reactor.slab.tokens() {
        reactor.close(token);
    }
    drop(reactor);
    let joined = blocking.join();
    let stranded = done_rx.try_iter().count() as u64;
    shared.front.active.fetch_sub(stranded, Ordering::SeqCst);
    if joined.is_err() {
        return Err(io::Error::other("blocking-op thread panicked"));
    }
    Ok(drained)
}

fn drain_wake(wake_rx: &UnixStream) {
    let mut buf = [0u8; 256];
    loop {
        match (&*wake_rx).read(&mut buf) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

struct Reactor {
    epoll: Epoll,
    slab: Slab,
    deadlines: DeadlineQueue,
    /// Connections with requests still pending after their turn; they
    /// are revisited before the reactor sleeps again.
    ready: VecDeque<u64>,
    /// Recycles the decoders' frame payload buffers.
    pool: BufPool,
    jobs: mpsc::Sender<Job>,
    shared: Arc<Shared>,
    faults: Option<FaultConfig>,
    stall_limit: Duration,
    scratch: Vec<u8>,
    frames_scratch: VecDeque<Vec<u8>>,
    http_scratch: VecDeque<HttpRequest>,
    draining: bool,
    /// End of the HTTP drain grace window (armed by `begin_drain` when
    /// any HTTP connection could still owe responses).
    drain_grace_until: Option<Instant>,
}

impl Reactor {
    /// Whether the HTTP drain grace window is still open.
    fn http_grace_active(&self) -> bool {
        self.drain_grace_until
            .is_some_and(|until| Instant::now() < until)
    }

    /// Whether the drain loop must stay alive for HTTP connections that
    /// may still submit requests inside the grace window.
    fn http_grace_holds(&self) -> bool {
        self.http_grace_active()
            && self
                .slab
                .slots
                .iter()
                .flatten()
                .any(|conn| conn.is_http() && !conn.closing)
    }

    fn accept_burst(&mut self, listener: &Listener, kind: ConnKind) {
        if self.draining {
            return; // an event from before the listeners were dropped
        }
        // Burst-accept until WouldBlock: under load the backlog holds
        // more than one pending connection per readiness event.
        for _ in 0..1024 {
            match listener.accept() {
                Ok(stream) => {
                    let ordinal = self.shared.front.connection_opened();
                    let configured = stream.set_nodelay().and_then(|()| stream.set_nonblocking());
                    if configured.is_err() {
                        self.shared.front.connection_closed();
                        continue; // connection dies; peer sees EOF
                    }
                    let fd = stream.raw_fd();
                    let conn = Conn {
                        stream: driver::faulty(stream, self.faults, ordinal),
                        fd,
                        gen: 0,
                        proto: match kind {
                            ConnKind::Binary => {
                                ConnProto::Binary(FrameDecoder::with_pool(self.pool.clone()))
                            }
                            ConnKind::Http => ConnProto::Http(HttpParser::new()),
                        },
                        pending: VecDeque::new(),
                        busy: false,
                        queued: false,
                        out: FrameEncoder::new(),
                        deadline: None,
                        closing: false,
                        registered: Interest::readable(),
                    };
                    let token = self.slab.insert(conn);
                    if self.epoll.add(fd, token, Interest::readable()).is_err() {
                        // Nothing was admitted yet, so only the
                        // connection counters roll back.
                        let front = &self.shared.front;
                        front.accept_errors.fetch_add(1, Ordering::Relaxed);
                        self.slab.remove(token);
                        front.connection_closed();
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // EMFILE and friends: count it and yield; the
                    // level-triggered listener retries next round.
                    self.shared
                        .front
                        .accept_errors
                        .fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
    }

    fn handle_conn_event(&mut self, ev: Event, token: u64) {
        let Some(conn) = self.slab.get_mut(token) else {
            return; // already closed this round
        };
        if ev.error && (self.draining || conn.closing) {
            // EPOLLERR/EPOLLHUP fire regardless of the interest mask,
            // level-triggered on every wait. With reads parked we will
            // never consume the condition, so reap the connection
            // instead of spinning on it: flush what the dead socket
            // still accepts (usually nothing), then close — close()
            // surrenders any brackets the peer will never collect.
            self.flush(token);
            self.close(token);
            return;
        }
        if ev.writable {
            // Room for replies that were held back; making it first may
            // bring the connection back under its high-water mark.
            self.flush(token);
        }
        if ev.readable || ev.error {
            self.readable(token);
        }
        self.pump(token);
    }

    /// Reads what the socket has and decodes it onto `pending`.
    fn readable(&mut self, token: u64) {
        let draining = self.draining;
        let grace = self.http_grace_active();
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        // Draining parks reads — except HTTP connections inside the
        // grace window, which may still submit their final requests.
        if conn.closing || (draining && !(grace && conn.is_http())) {
            return;
        }
        let front = &self.shared.front;
        let mut close_reason: Option<CloseReason> = None;
        for _ in 0..READ_ROUNDS {
            match front.counted(&mut conn.stream).read(&mut self.scratch) {
                Ok(0) => {
                    if conn.mid_input() {
                        close_reason = Some(CloseReason::Protocol(None));
                    } else {
                        // Clean EOF: finish writing what we owe, then
                        // close.
                        conn.closing = true;
                    }
                    break;
                }
                Ok(n) => {
                    let fed = match &mut conn.proto {
                        ConnProto::Binary(decoder) => {
                            let fed = decoder.feed(&self.scratch[..n], &mut self.frames_scratch);
                            // Drain the scratch queue even when feed()
                            // errored: a bad length prefix can follow a
                            // completed frame in the same chunk, and
                            // frames left here would be popped by the
                            // next connection's read and served under
                            // *its* token.
                            while let Some(frame) = self.frames_scratch.pop_front() {
                                // `active` brackets read → response
                                // written, exactly like the blocking
                                // driver's `answer`.
                                front.active.fetch_add(1, Ordering::SeqCst);
                                front.frames.fetch_add(1, Ordering::Relaxed);
                                conn.pending.push_back(Pending {
                                    op: Op::from_frame(&frame),
                                    close: false,
                                });
                                self.pool.put(frame);
                            }
                            fed.map(|_| ()).map_err(|_| None)
                        }
                        ConnProto::Http(parser) => {
                            let fed = parser.feed(&self.scratch[..n], &mut self.http_scratch);
                            // Same serve-then-close contract: requests
                            // completed ahead of a parse error are on the
                            // scratch queue and must be served under this
                            // connection's token.
                            while let Some(req) = self.http_scratch.pop_front() {
                                front.active.fetch_add(1, Ordering::SeqCst);
                                front.http_requests.fetch_add(1, Ordering::Relaxed);
                                conn.pending.push_back(Pending {
                                    op: http::route(&req),
                                    close: req.close,
                                });
                            }
                            fed.map_err(Some)
                        }
                    };
                    if let Err(http_err) = fed {
                        close_reason = Some(CloseReason::Protocol(http_err));
                        break;
                    }
                    // A read that did not fill the buffer took all the
                    // socket had: level-triggered registration re-fires
                    // if more arrives, so asking again only to be told
                    // EAGAIN is a wasted syscall. A full pipeline is
                    // backpressure: stop reading.
                    if n < self.scratch.len() || conn.pending.len() >= PENDING_CAP {
                        break;
                    }
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(ref e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // WouldBlock: drained the socket. TimedOut: an
                    // injected spurious timeout — level-triggered
                    // registration re-fires if bytes remain.
                    break;
                }
                Err(_) => {
                    close_reason = Some(CloseReason::Transport);
                    break;
                }
            }
        }

        // Per-request deadline: arm when a frame/request starts, clear
        // when the read position is back at a boundary. A poisoned or
        // EOF'd parser's mid-input state is meaningless — don't arm.
        if close_reason.is_none() && conn.mid_input() {
            if conn.deadline.is_none() {
                let when = Instant::now() + self.stall_limit;
                conn.deadline = Some(when);
                self.deadlines.push(when, token);
            }
        } else {
            conn.deadline = None;
        }

        match close_reason {
            Some(CloseReason::Protocol(http_err)) => {
                front.protocol_errors.fetch_add(1, Ordering::Relaxed);
                // The threads model serves each request before reading
                // the next, so requests completed ahead of the error
                // still get their responses there. Match it: stop
                // reading (closing connections are never fed again) and
                // close once the owed responses are flushed; after_io
                // reaps when quiesced, and close() surrenders any
                // bracket the peer never collects.
                conn.closing = true;
                if let Some(err) = http_err {
                    // HTTP owes a 431/413/400 before closing. It rides
                    // the pending queue as a routed Fail op — with its
                    // own `active` bracket like every pending request —
                    // so it is written *after* the pipelined requests
                    // that completed ahead of the poison.
                    front.active.fetch_add(1, Ordering::SeqCst);
                    conn.pending.push_back(Pending {
                        op: err.into(),
                        close: true,
                    });
                }
            }
            Some(CloseReason::Transport) => self.close(token),
            None => {}
        }
    }

    /// Gives the connection its turn: serves what is pending, writes
    /// what that produced, and settles its epoll interest.
    fn pump(&mut self, token: u64) {
        self.serve_pending(token);
        self.flush(token);
        self.after_io(token);
    }

    /// Executes up to [`PENDING_CAP`] pending requests, in order, on this
    /// thread, appending each reply to the connection's output. A
    /// request that would wait for the disk goes to the blocking-op
    /// thread instead, and the ones behind it wait for its reply.
    fn serve_pending(&mut self, token: u64) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        let front = &self.shared.front;
        let kind = conn.kind();
        for _ in 0..PENDING_CAP {
            if !conn.servable() {
                break;
            }
            let Some(request) = conn.pending.pop_front() else {
                break;
            };
            if self.shared.blocks_on(&request.op) {
                front.handoffs.fetch_add(1, Ordering::Relaxed);
                let job = Job {
                    token,
                    kind,
                    request,
                };
                conn.busy = self.jobs.send(job).is_ok();
                if !conn.busy {
                    // The thread is gone (it panicked), the request can
                    // never be answered: surrender its bracket and hang
                    // up once the replies ahead of it are out.
                    front.active.fetch_sub(1, Ordering::SeqCst);
                    conn.closing = true;
                }
                break;
            }
            let Pending { op, close } = request;
            let close_after = conn
                .out
                .push_with(|out| respond(&*self.shared, &mut (), kind, op, close, out));
            if close_after {
                // Stop reading, but keep serving: requests already
                // pipelined must still complete before the quiesced
                // close.
                conn.closing = true;
            }
        }
        // Only this thread writes the gauge, so load-then-store is exact
        // and the common case (no new peak) costs a plain load.
        let queued = conn.out.pending_bytes() as u64;
        if queued > front.peak_out_bytes.load(Ordering::Relaxed) {
            front.peak_out_bytes.store(queued, Ordering::Relaxed);
        }
    }

    /// Takes the blocking-op thread's replies and resumes the
    /// connections that were waiting for them.
    fn finish_blocking(&mut self, done: &mpsc::Receiver<Completion>) {
        for done in done.try_iter() {
            match self.slab.get_mut(done.token) {
                Some(conn) => {
                    conn.out.push_with(|out| out.extend_from_slice(&done.frame));
                    conn.busy = false;
                    conn.closing |= done.close_after;
                    self.pump(done.token);
                }
                // The connection died while its job executed: the
                // response is undeliverable, surrender its bracket.
                None => {
                    self.shared.front.active.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }

    /// Gives every connection that had requests left over another turn.
    fn revisit(&mut self) {
        for _ in 0..self.ready.len() {
            let Some(token) = self.ready.pop_front() else {
                break;
            };
            if let Some(conn) = self.slab.get_mut(token) {
                conn.queued = false;
                self.pump(token);
            }
        }
    }

    fn flush(&mut self, token: u64) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        if conn.out.is_empty() {
            return;
        }
        let front = &self.shared.front;
        let (completed, progress) = conn.out.write_to(&mut front.counted(&mut conn.stream));
        if completed > 0 {
            front.active.fetch_sub(completed as u64, Ordering::SeqCst);
        }
        if let WriteProgress::Closed(_) = progress {
            self.close(token);
        }
    }

    /// Reconciles epoll interest with the connection's state, books it
    /// another turn if requests are left over, and closes quiesced EOF'd
    /// connections. Call after any activity on the connection.
    fn after_io(&mut self, token: u64) {
        let draining = self.draining;
        let grace = self.http_grace_active();
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        if conn.closing && conn.quiesced() {
            self.close(token);
            return;
        }
        if !conn.pending.is_empty() && conn.servable() && !conn.queued {
            conn.queued = true;
            self.ready.push_back(token);
        }
        let want = Interest {
            readable: (!draining || (grace && conn.is_http()))
                && !conn.closing
                && conn.pending.len() < PENDING_CAP
                && conn.out.pending_bytes() <= OUT_HIGH_WATER,
            writable: !conn.out.is_empty(),
            edge: false,
        };
        if want != conn.registered {
            let fd = conn.fd;
            conn.registered = want;
            if self.epoll.modify(fd, token, want).is_err() {
                self.close(token);
            }
        }
    }

    fn expire_deadlines(&mut self, now: Instant) {
        let mut due = Vec::new();
        self.deadlines
            .expire(now, |token, when| due.push((token, when)));
        for (token, when) in due {
            // Lazy validation: only the entry matching the armed
            // deadline counts; stale entries (frame completed, maybe a
            // newer frame armed a later deadline) are no-ops.
            let Some(conn) = self.slab.get_mut(token) else {
                continue;
            };
            if conn.deadline != Some(when) {
                continue;
            }
            if conn.registered.readable {
                // Same contract as poll_frame's stall handling: a started
                // frame that outlives read_timeout × 10 is a protocol
                // error.
                self.shared
                    .front
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                self.close(token);
            } else {
                // The rest of the frame may be sitting in the socket
                // buffer: it is the reactor that is not reading
                // (backpressure, drain). The blocking driver's clock
                // does not run while it is blocked in `write` either, so
                // start the peer's over.
                let again = now + self.stall_limit;
                conn.deadline = Some(again);
                self.deadlines.push(again, token);
            }
        }
    }

    fn begin_drain(&mut self, listener: &Listener, http_listener: Option<&Listener>) {
        self.draining = true;
        let _ = self.epoll.delete(listener.raw_fd());
        if let Some(http) = http_listener {
            let _ = self.epoll.delete(http.raw_fd());
        }
        // The latch stays readable for good; it has done its job.
        if let Some(fd) = self.shared.drain_latch().wake_fd() {
            let _ = self.epoll.delete(fd);
        }
        // HTTP connections get one stall-limit grace window to finish
        // pipelines and observe healthz's 503 flip (the threads model's
        // handlers linger the same way). Armed only when HTTP
        // connections exist: binary-only deployments drain instantly.
        if self.slab.slots.iter().flatten().any(|c| c.is_http()) {
            self.drain_grace_until = Some(Instant::now() + self.stall_limit);
        }
        // Flip admission now so any frame still waiting its turn gets an
        // explicit Rejected, mirroring the threads model's
        // post-accept-loop begin_drain.
        self.shared.invoker.begin_drain();
        for token in self.slab.tokens() {
            self.after_io(token);
        }
    }

    fn close(&mut self, token: u64) {
        let Some(mut conn) = self.slab.remove(token) else {
            return;
        };
        // Every admitted frame ends its bracket exactly once: frames
        // never served and responses never written surrender theirs
        // here; a frame on the blocking-op thread surrenders when its
        // stale-token completion lands.
        let orphaned = (conn.pending.len() + conn.out.abandon()) as u64;
        if orphaned > 0 {
            self.shared
                .front
                .active
                .fetch_sub(orphaned, Ordering::SeqCst);
        }
        let _ = self.epoll.delete(conn.fd);
        self.shared.front.connection_closed();
        // Dropping `conn` closes the socket.
    }
}

enum CloseReason {
    /// Malformed input, oversized prefix/header, mid-request EOF, or a
    /// stalled request. HTTP parse errors carry the error so the owed
    /// 431/413/400 response can be queued before the close.
    Protocol(Option<HttpParseError>),
    /// Reset or other transport failure — not a protocol error.
    Transport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_reports_readability_with_token() {
        let epoll = Epoll::new().expect("epoll_create1");
        let (a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        epoll
            .add(a.as_raw_fd(), 0xBEEF, Interest::readable())
            .unwrap();

        let mut events = Vec::new();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0, "nothing written yet");

        (&b).write_all(&[1, 2, 3]).unwrap();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(500)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 0xBEEF);
        assert!(events[0].readable);
        assert!(!events[0].writable);
    }

    #[test]
    fn epoll_modify_and_delete_change_the_interest_set() {
        let epoll = Epoll::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        epoll.add(a.as_raw_fd(), 7, Interest::readable()).unwrap();
        (&b).write_all(&[9]).unwrap();

        // Writable-only interest must not report the pending byte.
        epoll
            .modify(
                a.as_raw_fd(),
                7,
                Interest {
                    readable: false,
                    writable: true,
                    edge: false,
                },
            )
            .unwrap();
        let mut events = Vec::new();
        epoll
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(events.iter().all(|e| !e.readable || e.error));

        epoll.delete(a.as_raw_fd()).unwrap();
        let n = epoll
            .wait(&mut events, Some(Duration::from_millis(5)))
            .unwrap();
        assert_eq!(n, 0, "deleted fd must not report");
    }

    #[test]
    fn edge_triggered_registration_fires_once_per_transition() {
        let epoll = Epoll::new().unwrap();
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        epoll
            .add(
                a.as_raw_fd(),
                1,
                Interest {
                    readable: true,
                    writable: false,
                    edge: true,
                },
            )
            .unwrap();
        (&b).write_all(&[1]).unwrap();
        let mut events = Vec::new();
        assert_eq!(
            epoll
                .wait(&mut events, Some(Duration::from_millis(500)))
                .unwrap(),
            1
        );
        // Without consuming the byte, an edge registration stays silent.
        assert_eq!(
            epoll
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap(),
            0,
            "edge mode must not re-report an unconsumed buffer"
        );
    }

    #[test]
    fn deadline_queue_expires_in_order_with_lazy_validation() {
        let mut dq = DeadlineQueue::default();
        let base = Instant::now();
        dq.push(base + Duration::from_millis(1), 10);
        dq.push(base + Duration::from_millis(2), 20);
        dq.push(base + Duration::from_millis(30), 30);
        assert_eq!(dq.next_deadline(), Some(base + Duration::from_millis(1)));

        let mut fired = Vec::new();
        dq.expire(base + Duration::from_millis(5), |t, _| fired.push(t));
        assert_eq!(fired, vec![10, 20]);
        assert_eq!(dq.next_deadline(), Some(base + Duration::from_millis(30)));
    }

    #[test]
    fn slab_generations_invalidate_stale_tokens() {
        // Exercised through split_token: a recycled slot bumps the
        // generation, so the old token must miss.
        let (idx, gen) = split_token((5u64 << 32) | 3);
        assert_eq!((idx, gen), (3, 5));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn nofile_limit_can_be_raised_to_hard() {
        let got = raise_nofile_limit().expect("rlimit");
        assert!(got >= 1024, "soft limit unexpectedly tiny: {got}");
    }
}
