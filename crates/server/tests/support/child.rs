//! One `faascached` child process: the real binary on a Unix socket, with
//! an HTTP gateway, stopped by SIGTERM as an operator stops it or killed
//! by SIGKILL when dropped.

use faascache_server::client;
use faascache_server::daemon::BoundAddr;
use faascache_server::router::BackendSpec;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// How long a child gets to announce its gateway and answer a ping.
const READY_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a child gets to exit after SIGTERM: five seconds of drain
/// and three of slack.
const EXIT_TIMEOUT: Duration = Duration::from_secs(8);

/// A path under the temp dir that no other caller in this process gets.
pub fn temp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("faascache-{}-{tag}-{seq}", std::process::id()))
}

/// A running `faascached`. Dropping it SIGKILLs the process (a no-op if
/// it has exited) and reaps it.
pub struct Faascached {
    child: Child,
    sock: PathBuf,
    /// The HTTP gateway, at the address the child announced.
    pub http: SocketAddr,
    stderr_drain: Option<thread::JoinHandle<()>>,
}

impl Faascached {
    /// Runs `faascached --unix SOCK --http-listen 127.0.0.1:0 ARGS`, a
    /// later flag overriding an earlier one, and waits until it answers
    /// a ping.
    pub fn spawn(sock: PathBuf, args: &[&str]) -> Faascached {
        let mut child = Command::new(env!("CARGO_BIN_EXE_faascached"))
            .arg("--unix")
            .arg(&sock)
            .args(["--http-listen", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn faascached");

        // The child announces its gateway on stderr; read lines until it
        // shows up, then keep draining in the background so a full pipe
        // can never block the child.
        let mut lines = BufReader::new(child.stderr.take().expect("stderr piped"));
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut line = String::new();
        let http = loop {
            assert!(
                Instant::now() < deadline,
                "faascached never announced its http gateway"
            );
            line.clear();
            let n = lines.read_line(&mut line).expect("read child stderr");
            assert!(n > 0, "faascached exited before announcing its gateway");
            if let Some(rest) = line.trim().strip_prefix("faascached: http gateway on Tcp(") {
                break rest
                    .trim_end_matches(')')
                    .parse()
                    .expect("parse gateway addr");
            }
        };
        let stderr_drain = Some(thread::spawn(move || {
            let _ = std::io::copy(&mut lines, &mut std::io::sink());
        }));
        let daemon = Faascached {
            child,
            sock,
            http,
            stderr_drain,
        };
        client::await_ready(&daemon.addr(), READY_TIMEOUT).expect("faascached ready");
        daemon
    }

    /// Its binary listener.
    pub fn addr(&self) -> BoundAddr {
        BoundAddr::Unix(self.sock.clone())
    }

    /// SIGTERM: the child must exit 0 within [`EXIT_TIMEOUT`], report
    /// `drained=true` on its summary line and unlink its socket.
    pub fn terminate(mut self) {
        let kill = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(kill.success(), "kill -TERM failed");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let status = loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "faascached did not exit within {EXIT_TIMEOUT:?} of SIGTERM"
            );
            thread::sleep(Duration::from_millis(20));
        };
        assert!(status.success(), "faascached exited with {status}");
        let mut summary = String::new();
        self.child
            .stdout
            .take()
            .expect("stdout piped")
            .read_to_string(&mut summary)
            .expect("read child stdout");
        assert!(
            summary.contains("drained=true"),
            "the summary line must report a clean drain, got: {summary:?}"
        );
        assert!(!self.sock.exists(), "socket file must be unlinked on exit");
    }
}

impl Drop for Faascached {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// The child as a router backend: its socket, probed at its gateway.
impl From<&Faascached> for BackendSpec {
    fn from(daemon: &Faascached) -> BackendSpec {
        BackendSpec {
            addr: daemon.addr(),
            http: Some(daemon.http),
        }
    }
}
