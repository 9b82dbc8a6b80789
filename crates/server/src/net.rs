//! Socket helpers for the serving cores and the clients.
//!
//! `Listener` and `Stream` fold TCP and Unix-domain sockets into one
//! type each, so everything above them (the blocking driver, the epoll
//! reactor, the protocol client) is written once for both transports.
//!
//! A daemon restarted from its `--state-dir` must rebind the *exact*
//! listen addresses its dead predecessor served, or the router's health
//! prober never finds it again; connections the kernel closed on the old
//! process's behalf linger in TIME_WAIT. std's `TcpListener::bind` sets
//! `SO_REUSEADDR` before it binds on every Unix target, so the rebind
//! succeeds at once (`rebinding_a_just_closed_port_succeeds`). Its
//! listen backlog is only 128, so the Linux path calls `listen(2)` once
//! more to raise it to `BACKLOG` (1024).
//!
//! A Unix-socket connect has no timeout in `std`, and a blocking one to
//! a listener whose accept queue is full waits until it is accepted. On
//! Linux a bounded dial makes the socket itself and sets `SO_SNDTIMEO`
//! before `connect(2)`, which then gives up with `EAGAIN` (reported as
//! `TimedOut`). A non-blocking connect would not help: to a full queue
//! it fails `EAGAIN` at once, with nothing to wait on.
//!
//! `DrainLatch` is the third FFI user: the blocking driver's accept loops
//! park in `poll(2)` on their listener instead of pacing a non-blocking
//! `accept` with a sleep, so a fresh connection is picked up when the
//! kernel queues it, and the latch's socketpair pulls them (and the
//! epoll reactor, which registers the same fd) out of the kernel the
//! moment a drain is requested.

use crate::daemon::BoundAddr;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

impl Listener {
    /// Binds a nonblocking TCP listener (port 0 picks a free port) and
    /// reports the address actually bound.
    pub(crate) fn tcp(addr: &str) -> io::Result<(Listener, BoundAddr)> {
        let l = bind_tcp(addr)?;
        l.set_nonblocking(true)?;
        let actual = l.local_addr()?;
        Ok((Listener::Tcp(l), BoundAddr::Tcp(actual)))
    }

    /// Binds a nonblocking Unix-domain listener at `path`.
    #[cfg(unix)]
    pub(crate) fn unix(path: &std::path::Path) -> io::Result<(Listener, BoundAddr)> {
        // A previous unclean exit may have left the socket file.
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path)?;
        l.set_nonblocking(true)?;
        Ok((Listener::Unix(l), BoundAddr::Unix(path.to_path_buf())))
    }

    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }

    /// Raw fd for readiness registration with the reactor.
    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }
}

impl Stream {
    /// Connects to `addr`, with Nagle off on TCP. A `timeout` bounds the
    /// connect on either transport (a Unix-socket one on Linux only:
    /// `std` has no timeout for it, so [`sys::connect_unix`] makes one)
    /// and fails `TimedOut` when it runs out.
    pub(crate) fn connect(addr: &BoundAddr, timeout: Option<Duration>) -> io::Result<Stream> {
        let stream = match (addr, timeout) {
            (BoundAddr::Tcp(sock), Some(timeout)) => {
                Stream::Tcp(TcpStream::connect_timeout(sock, timeout)?)
            }
            (BoundAddr::Tcp(sock), None) => Stream::Tcp(TcpStream::connect(sock)?),
            #[cfg(target_os = "linux")]
            (BoundAddr::Unix(path), Some(timeout)) => {
                Stream::Unix(sys::connect_unix(path, timeout)?)
            }
            #[cfg(unix)]
            (BoundAddr::Unix(path), _) => Stream::Unix(UnixStream::connect(path)?),
        };
        stream.set_nodelay()?;
        Ok(stream)
    }

    /// Raw fd for readiness registration with the reactor.
    #[cfg(unix)]
    pub(crate) fn raw_fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Turns Nagle off; nothing to do on a Unix-domain socket.
    pub(crate) fn set_nodelay(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nodelay(true),
            #[cfg(unix)]
            Stream::Unix(_) => Ok(()),
        }
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Nonblocking mode for the reactor: a nonblocking socket never
    /// parks a thread, so it gets no read timeout — request deadlines
    /// come from the reactor's deadline queue instead.
    pub(crate) fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(true),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }
}

/// One server's drain flag, and what wakes the loops parked on it. A
/// wire `Shutdown`, a [`ShutdownHandle`](crate::daemon::ShutdownHandle)
/// and the end of `run` all go through [`DrainLatch::request`]; a signal
/// only sets [`crate::signal`]'s flag, which a parked loop notices when
/// its park times out.
#[derive(Debug)]
pub(crate) struct DrainLatch {
    flag: AtomicBool,
    /// `(polled end, written end)`. One byte is written per request and
    /// never read, so once drain is requested every park returns at
    /// once. `None` if the pair could not be made: parks then end on
    /// their timeout alone.
    #[cfg(target_os = "linux")]
    wake: Option<(UnixStream, UnixStream)>,
}

impl Default for DrainLatch {
    fn default() -> Self {
        DrainLatch {
            flag: AtomicBool::new(false),
            #[cfg(target_os = "linux")]
            wake: UnixStream::pair()
                .and_then(|(rx, tx)| tx.set_nonblocking(true).map(|()| (rx, tx)))
                .ok(),
        }
    }
}

impl DrainLatch {
    /// Requests the drain and wakes every parked accept loop; idempotent.
    pub(crate) fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        if let Some((_, tx)) = &self.wake {
            // A full pipe already holds a pending wake-up.
            let _ = (&*tx).write(&[1u8]);
        }
    }

    pub(crate) fn is_requested(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Parks the calling accept loop in the kernel until `listener`
    /// (when given) has a connection pending, drain is requested, or
    /// `timeout` passes — whichever is first. Errors end the park early;
    /// the caller re-checks its conditions either way.
    #[cfg(target_os = "linux")]
    pub(crate) fn park(&self, listener: Option<&Listener>, timeout: Duration) {
        sys::until_readable([listener.map(Listener::raw_fd), self.wake_fd()], timeout);
    }

    /// The fd that turns readable, and stays so, once drain is requested:
    /// what a loop that sleeps in the kernel watches to be woken by it.
    #[cfg(target_os = "linux")]
    pub(crate) fn wake_fd(&self) -> Option<std::os::unix::io::RawFd> {
        use std::os::unix::io::AsRawFd;
        self.wake.as_ref().map(|(rx, _)| rx.as_raw_fd())
    }

    /// Without `poll(2)`: the old 2 ms pacing of a non-blocking accept.
    #[cfg(not(target_os = "linux"))]
    pub(crate) fn park(&self, _listener: Option<&Listener>, timeout: Duration) {
        std::thread::sleep(timeout.min(Duration::from_millis(2)));
    }
}

/// Connections the kernel queues on a TCP listener before they are
/// accepted.
#[cfg(target_os = "linux")]
const BACKLOG: i32 = 1024;

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd, RawFd};
    use std::os::raw::c_ulong;
    use std::os::unix::ffi::OsStrExt;
    use std::os::unix::net::UnixStream;
    use std::path::Path;
    use std::time::Duration;

    mod ffi {
        use std::os::raw::{c_char, c_int, c_short, c_ulong};

        pub const POLLIN: c_short = 0x001;
        // As on x86_64 and aarch64; mips and sparc differ.
        pub const AF_UNIX: c_int = 1;
        pub const SOCK_STREAM: c_int = 1;
        pub const SOCK_CLOEXEC: c_int = 0x80000;

        /// `struct pollfd`.
        #[repr(C)]
        pub struct PollFd {
            pub fd: c_int,
            pub events: c_short,
            pub revents: c_short,
        }

        /// `struct sockaddr_un`.
        #[repr(C)]
        pub struct SockAddrUn {
            pub sun_family: u16,
            pub sun_path: [c_char; 108],
        }

        extern "C" {
            pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
            pub fn listen(fd: c_int, backlog: c_int) -> c_int;
            pub fn socket(domain: c_int, kind: c_int, protocol: c_int) -> c_int;
            pub fn connect(fd: c_int, addr: *const SockAddrUn, len: u32) -> c_int;
        }
    }

    /// A blocking `connect(2)` to the Unix socket at `path` that gives up
    /// after `timeout` with `TimedOut`. `SO_SNDTIMEO` (std's write
    /// timeout) bounds the connect, then is cleared, so writes on the
    /// stream block as on one from `UnixStream::connect`. Refusals keep
    /// their kinds (`NotFound`, `ConnectionRefused`); a path too long
    /// for `sun_path` is `InvalidInput`.
    pub fn connect_unix(path: &Path, timeout: Duration) -> io::Result<UnixStream> {
        let bytes = path.as_os_str().as_bytes();
        let mut addr = ffi::SockAddrUn {
            sun_family: ffi::AF_UNIX as u16,
            sun_path: [0; 108],
        };
        // One byte stays for the terminating NUL.
        if bytes.len() >= addr.sun_path.len() || bytes.contains(&0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a unix socket path must be under 108 bytes, without NUL",
            ));
        }
        for (dst, &src) in addr.sun_path.iter_mut().zip(bytes) {
            *dst = src as _;
        }
        // SAFETY: plain syscall; a non-negative result is a new fd that
        // nothing else owns.
        let fd =
            check(unsafe { ffi::socket(ffi::AF_UNIX, ffi::SOCK_STREAM | ffi::SOCK_CLOEXEC, 0) })?;
        // SAFETY: `fd` was just returned by `socket` and is owned here.
        // Until `connect` succeeds the stream only carries the option.
        let stream = UnixStream::from(unsafe { OwnedFd::from_raw_fd(fd) });
        // std refuses a zero timeout; a microsecond is the least bound.
        stream.set_write_timeout(Some(timeout.max(Duration::from_micros(1))))?;
        let len = (std::mem::size_of::<u16>() + bytes.len() + 1) as u32;
        // SAFETY: `addr` is a valid sockaddr_un and `len` is within it.
        check(unsafe { ffi::connect(fd, &addr, len) }).map_err(|e| {
            if e.kind() == io::ErrorKind::WouldBlock {
                io::Error::new(io::ErrorKind::TimedOut, "unix socket connect timed out")
            } else {
                e
            }
        })?;
        stream.set_write_timeout(None)?;
        Ok(stream)
    }

    /// A syscall's result, or the error its `errno` names.
    fn check(result: i32) -> io::Result<i32> {
        if result < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(result)
        }
    }

    /// `poll(2)` for readability on the fds given.
    pub fn until_readable(fds: [Option<RawFd>; 2], timeout: Duration) {
        // poll(2) skips an entry whose fd is negative.
        let mut set = fds.map(|fd| ffi::PollFd {
            fd: fd.unwrap_or(-1),
            events: ffi::POLLIN,
            revents: 0,
        });
        let ms = super::timeout_ms(timeout);
        // SAFETY: `set` is a valid array of `set.len()` pollfd entries.
        // The result is not needed: readiness, timeout and EINTR all
        // send the caller back to its own checks.
        let _ = unsafe { ffi::poll(set.as_mut_ptr(), set.len() as c_ulong, ms) };
    }

    /// `listen(2)` again on a listening socket, which resizes its
    /// accept queue.
    pub fn listen(fd: RawFd, backlog: i32) -> io::Result<()> {
        // SAFETY: plain syscall on an fd the caller owns.
        check(unsafe { ffi::listen(fd, backlog) }).map(drop)
    }
}

/// A `poll(2)` or `epoll_wait` timeout argument. Zero stays zero, a look
/// that does not sleep; anything else rounds up to whole milliseconds,
/// so a deadline less than one away is slept through, not spun on.
#[cfg(target_os = "linux")]
pub(crate) fn timeout_ms(timeout: Duration) -> i32 {
    timeout.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
}

/// Binds a TCP listener with a `BACKLOG`-deep accept queue. std sets
/// `SO_REUSEADDR` before the bind, so a restarted daemon reclaims its
/// predecessor's addresses through TIME_WAIT.
fn bind_tcp(addr: &str) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::io::AsRawFd;
        sys::listen(listener.as_raw_fd(), BACKLOG)?;
    }
    Ok(listener)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn a_park_ends_on_a_connection_a_drain_request_or_its_timeout() {
        use std::time::Instant;
        const LONG: Duration = Duration::from_secs(30);
        let latch = DrainLatch::default();
        let (listener, addr) = Listener::tcp("127.0.0.1:0").expect("bind");

        // Nothing pending: the timeout, and not before it.
        let parked = Instant::now();
        latch.park(Some(&listener), Duration::from_millis(20));
        assert!(parked.elapsed() >= Duration::from_millis(20));
        assert!(matches!(
            listener.accept(),
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock
        ));

        // A connection queued by the kernel ends the park; it stays
        // pending (level-triggered) until accepted.
        let _conn = Stream::connect(&addr, None).expect("connect");
        let parked = Instant::now();
        latch.park(Some(&listener), LONG);
        latch.park(Some(&listener), LONG);
        listener.accept().expect("the pending connection");

        // A drain request ends a park in progress, and every later one.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                latch.request();
            });
            latch.park(Some(&listener), LONG);
        });
        assert!(latch.is_requested());
        latch.park(None, LONG);
        assert!(parked.elapsed() < LONG, "a park sat out its timeout");
    }

    #[test]
    fn rebinding_a_just_closed_port_succeeds() {
        // The crash-restart scenario in miniature: bind, take traffic
        // whose active close lands on the listener's side, drop the
        // listener, and immediately rebind the same port.
        let listener = bind_tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let join = std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            // Server closes first: the TIME_WAIT lands on this side.
            drop(conn);
            listener
        });
        let conn = TcpStream::connect(addr).expect("connect");
        let mut buf = Vec::new();
        let _ = (&conn).read_to_end(&mut buf);
        drop(conn);
        let listener = join.join().expect("server thread");
        drop(listener);

        let rebound = bind_tcp(&addr.to_string()).expect("rebind same port");
        assert_eq!(
            rebound.local_addr().expect("local addr").port(),
            addr.port()
        );
    }
}
