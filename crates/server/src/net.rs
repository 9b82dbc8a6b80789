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
//! `DrainLatch` is the other FFI user: the blocking driver's accept loops
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
    /// Connects to `addr`, with Nagle off on TCP. A `timeout` bounds a
    /// TCP connect; a Unix-socket connect has no timeout in `std` and
    /// ignores it.
    pub(crate) fn connect(addr: &BoundAddr, timeout: Option<Duration>) -> io::Result<Stream> {
        let stream = match (addr, timeout) {
            (BoundAddr::Tcp(sock), Some(timeout)) => {
                Stream::Tcp(TcpStream::connect_timeout(sock, timeout)?)
            }
            (BoundAddr::Tcp(sock), None) => Stream::Tcp(TcpStream::connect(sock)?),
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
    use std::os::fd::RawFd;
    use std::os::raw::c_ulong;
    use std::time::Duration;

    mod ffi {
        use std::os::raw::{c_int, c_short, c_ulong};

        pub const POLLIN: c_short = 0x001;

        /// `struct pollfd`.
        #[repr(C)]
        pub struct PollFd {
            pub fd: c_int,
            pub events: c_short,
            pub revents: c_short,
        }

        extern "C" {
            pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
            pub fn listen(fd: c_int, backlog: c_int) -> c_int;
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
        if unsafe { ffi::listen(fd, backlog) } == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
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
