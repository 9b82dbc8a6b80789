//! One way to start a server in-process: bind it, run it on a thread of
//! its own, wait until it answers a ping, and drain it at the end.

use faascache_server::client;
use faascache_server::daemon::{BoundAddr, Daemon, DaemonReport, ShutdownHandle};
use faascache_server::router::{Router, RouterReport};
use std::thread;
use std::time::Duration;

/// A server running on a thread of its own.
pub struct Running<S: Start> {
    /// Its binary listener.
    pub addr: BoundAddr,
    /// Asks it to drain.
    pub handle: ShutdownHandle,
    /// Its thread, which returns its report.
    pub join: thread::JoinHandle<S::Report>,
}

/// A bound server, [`Daemon`] or [`Router`].
pub trait Start: Sized + 'static {
    /// What its `run` returns.
    type Report: Send + 'static;
    /// What failure messages call it.
    const NAME: &'static str;
    /// Runs it on a thread of its own and waits until it answers a ping.
    fn start(self) -> Running<Self>;
    /// Whether its report says the drain completed.
    fn drained(report: &Self::Report) -> bool;
}

impl Start for Daemon {
    type Report = DaemonReport;
    const NAME: &'static str = "daemon";

    fn start(self) -> Running<Self> {
        let (addr, handle) = (self.bound_addr(), self.shutdown_handle());
        running(addr, handle, move || self.run())
    }

    fn drained(report: &DaemonReport) -> bool {
        report.drained
    }
}

impl Start for Router {
    type Report = RouterReport;
    const NAME: &'static str = "router";

    fn start(self) -> Running<Self> {
        let (addr, handle) = (self.bound_addr(), self.shutdown_handle());
        running(addr, handle, move || self.run())
    }

    fn drained(report: &RouterReport) -> bool {
        report.drained
    }
}

fn running<S: Start>(
    addr: BoundAddr,
    handle: ShutdownHandle,
    run: impl FnOnce() -> S::Report + Send + 'static,
) -> Running<S> {
    let join = thread::spawn(run);
    client::await_ready(&addr, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("the {} never answered a ping: {e}", S::NAME));
    Running { addr, handle, join }
}

impl<S: Start> Running<S> {
    /// Asks the server to drain, waits for its report, and asserts that
    /// it drained.
    pub fn drain(self) -> S::Report {
        self.handle.request();
        let report = self
            .join
            .join()
            .unwrap_or_else(|_| panic!("the {} panicked", S::NAME));
        assert!(
            S::drained(&report),
            "the {} reported drained=false",
            S::NAME
        );
        report
    }
}
