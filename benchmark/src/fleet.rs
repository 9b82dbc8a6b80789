//! Server processes under test and the directory they run in.
//!
//! Everything a run leaves on disk lives in one work directory under the
//! build's target directory, and the harness and its children *chdir*
//! into it: unix sockets and state dirs are then short relative paths,
//! whatever the depth of the checkout (a unix socket path must fit in
//! about 100 bytes). Children are stopped and the directory is removed on
//! every exit path: normal return, error, panic (via `Drop`), and the
//! wall-clock watchdog. A run that was SIGKILLed cannot clean up, so the
//! next run does it: each work directory lists its children in `pids`.

use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a child may take to accept connections or to drain.
const CHILD_DEADLINE: Duration = Duration::from_secs(15);

/// Sends SIGKILL. `std` can only signal a `Child` it still owns; stale
/// children of an earlier run and the watchdog path have just a pid.
fn kill9(pid: u32) {
    let _ = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .stderr(Stdio::null())
        .status();
}

/// Removes work directories whose harness is gone, first killing any
/// server it left running there.
pub fn sweep_stale(work_root: &Path) {
    let Ok(entries) = fs::read_dir(work_root) else {
        return;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        let owner: Option<u32> = entry
            .file_name()
            .to_str()
            .and_then(|n| n.split('-').next()?.parse().ok());
        let Some(owner) = owner else { continue };
        if Path::new(&format!("/proc/{owner}")).exists() {
            continue;
        }
        if let Ok(pids) = fs::read_to_string(dir.join("pids")) {
            for pid in pids.lines().filter_map(|l| l.trim().parse::<u32>().ok()) {
                // Only a process still running *in that directory* is
                // ours; the pid may have been reused since.
                let cwd = fs::read_link(format!("/proc/{pid}/cwd")).ok();
                if cwd.as_deref() == Some(dir.as_path()) {
                    kill9(pid);
                }
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Final accounting parsed from a child's exit summary line
/// (`key=value` tokens on stdout).
#[derive(Debug, Clone)]
pub struct ExitSummary {
    pub name: String,
    pub exit_ok: bool,
    pub line: String,
}

impl ExitSummary {
    pub fn field(&self, key: &str) -> Option<&str> {
        self.line
            .split_ascii_whitespace()
            .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
    }

    pub fn count(&self, key: &str) -> u64 {
        self.field(key).and_then(|v| v.parse().ok()).unwrap_or(0)
    }

    pub fn drained(&self) -> bool {
        self.exit_ok && self.field("drained") == Some("true")
    }
}

struct Server {
    name: String,
    child: Child,
    stderr: Arc<Mutex<Vec<String>>>,
    stderr_reader: Option<thread::JoinHandle<()>>,
}

/// The servers of one set-up, their work directory, and the watchdog.
pub struct Fleet {
    dir: PathBuf,
    servers: Vec<Server>,
    live_pids: Arc<Mutex<Vec<u32>>>,
}

impl Fleet {
    /// Creates `<work_root>/<harness pid>-<tag>` and makes it the current
    /// directory. A watchdog thread kills the fleet and exits the process
    /// with code 3 if the run is still going at `deadline`.
    pub fn create(work_root: &Path, tag: &str, deadline: Instant) -> Result<Fleet, String> {
        let dir = work_root.join(format!("{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let dir = dir
            .canonicalize()
            .map_err(|e| format!("resolve {}: {e}", dir.display()))?;
        std::env::set_current_dir(&dir).map_err(|e| format!("chdir {}: {e}", dir.display()))?;
        let live_pids = Arc::new(Mutex::new(Vec::new()));
        let watched = Arc::downgrade(&live_pids);
        let watched_dir = dir.clone();
        thread::spawn(move || {
            while Instant::now() < deadline {
                thread::sleep(Duration::from_millis(200));
                if watched.strong_count() == 0 {
                    return;
                }
            }
            if let Some(pids) = watched.upgrade() {
                eprintln!("faas-bench: wall-clock deadline passed; killing servers");
                for &pid in pids.lock().unwrap_or_else(|e| e.into_inner()).iter() {
                    kill9(pid);
                }
                let _ = std::env::set_current_dir("/");
                let _ = fs::remove_dir_all(&watched_dir);
                std::process::exit(3);
            }
        });
        Ok(Fleet {
            dir,
            servers: Vec::new(),
            live_pids,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Starts `bin` in the work directory. Stderr is drained by a thread
    /// (a full pipe would block the child) and kept for
    /// [`Self::http_addr`] and for error reports.
    pub fn spawn(&mut self, name: &str, bin: &Path, args: &[String]) -> Result<(), String> {
        let mut child = Command::new(bin)
            .args(args)
            .current_dir(&self.dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let pid = child.id();
        self.live_pids
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(pid);
        self.write_pids();
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = lines.clone();
        let pipe = child.stderr.take().expect("stderr was piped");
        let reader = thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                sink.lock().unwrap_or_else(|e| e.into_inner()).push(line);
            }
        });
        self.servers.push(Server {
            name: name.to_string(),
            child,
            stderr: lines,
            stderr_reader: Some(reader),
        });
        Ok(())
    }

    fn write_pids(&self) {
        let pids = self.live_pids.lock().unwrap_or_else(|e| e.into_inner());
        let text: String = pids.iter().map(|p| format!("{p}\n")).collect();
        let _ = fs::write(self.dir.join("pids"), text);
    }

    pub fn pids(&self) -> Vec<u32> {
        self.servers.iter().map(|s| s.child.id()).collect()
    }

    fn stderr_of(&self, name: &str) -> Vec<String> {
        self.servers
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.stderr.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .unwrap_or_default()
    }

    /// The ephemeral HTTP address `name` announced on stderr
    /// (`… http gateway on Tcp(127.0.0.1:PORT)` for a daemon, `… http
    /// front on Tcp(…)` for the router), polled until the deadline.
    pub fn http_addr(&mut self, name: &str) -> Result<SocketAddr, String> {
        let deadline = Instant::now() + CHILD_DEADLINE;
        loop {
            let announced = self.stderr_of(name).iter().find_map(|line| {
                let at = line.find("http gateway on Tcp(").map(|i| i + 20);
                let at = at.or_else(|| line.find("http front on Tcp(").map(|i| i + 18))?;
                line[at..].split(')').next()?.parse().ok()
            });
            if let Some(addr) = announced {
                return Ok(addr);
            }
            self.fail_if_exited(name)?;
            if Instant::now() >= deadline {
                return Err(format!("{name} never announced its http address"));
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Errors out early when `name` has already exited, with its stderr.
    pub fn fail_if_exited(&mut self, name: &str) -> Result<(), String> {
        let Some(server) = self.servers.iter_mut().find(|s| s.name == name) else {
            return Err(format!("no server named {name}"));
        };
        match server.child.try_wait() {
            Ok(None) => Ok(()),
            Ok(Some(status)) => Err(format!(
                "{name} exited early ({status}): {}",
                self.stderr_of(name).join(" | ")
            )),
            Err(e) => Err(format!("{name}: wait failed: {e}")),
        }
    }

    /// Polls `probe` (a connect-and-ping) until it succeeds, the server
    /// exits, or the deadline passes.
    pub fn await_ready(
        &mut self,
        name: &str,
        mut probe: impl FnMut() -> bool,
    ) -> Result<(), String> {
        let deadline = Instant::now() + CHILD_DEADLINE;
        while !probe() {
            self.fail_if_exited(name)?;
            if Instant::now() >= deadline {
                return Err(format!("{name} never became ready"));
            }
            thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Waits for every server to exit after the caller asked it to drain
    /// and returns their exit summaries in spawn order. A server still
    /// running at the deadline is killed and reported as not drained.
    pub fn collect_exits(&mut self) -> Vec<ExitSummary> {
        let deadline = Instant::now() + CHILD_DEADLINE;
        let mut out = Vec::new();
        for mut server in std::mem::take(&mut self.servers) {
            let status = loop {
                match server.child.try_wait() {
                    Ok(Some(status)) => break Some(status),
                    Ok(None) if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(1));
                    }
                    _ => {
                        let _ = server.child.kill();
                        let _ = server.child.wait();
                        break None;
                    }
                }
            };
            let mut stdout = String::new();
            if let Some(mut pipe) = server.child.stdout.take() {
                let _ = pipe.read_to_string(&mut stdout);
            }
            if let Some(reader) = server.stderr_reader.take() {
                let _ = reader.join();
            }
            out.push(ExitSummary {
                name: server.name.clone(),
                exit_ok: status.is_some_and(|s| s.success()),
                line: stdout.lines().last().unwrap_or("").to_string(),
            });
        }
        self.live_pids
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.write_pids();
        out
    }

    /// Removes everything in the work directory except `pids`, so the
    /// next set-up of the same run starts from nothing.
    pub fn clear_dir(&self) {
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    let _ = fs::remove_dir_all(&path);
                } else if entry.file_name() != "pids" {
                    let _ = fs::remove_file(&path);
                }
            }
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for server in &mut self.servers {
            let _ = server.child.kill();
            let _ = server.child.wait();
        }
        let _ = std::env::set_current_dir("/");
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_summary_reads_key_value_tokens() {
        let s = ExitSummary {
            name: "d".to_string(),
            exit_ok: true,
            line: "faascached: uptime=1.0s warm=10 cold=2 drained=true".to_string(),
        };
        assert_eq!(s.count("warm"), 10);
        assert_eq!(s.count("cold"), 2);
        assert_eq!(s.count("missing"), 0);
        assert!(s.drained());
        let failed = ExitSummary {
            exit_ok: false,
            ..s.clone()
        };
        assert!(!failed.drained());
    }

    #[test]
    fn stale_work_dirs_of_dead_harnesses_are_removed() {
        let root = std::env::temp_dir().join(format!("faas-bench-sweep-{}", std::process::id()));
        // No process can have pid u32::MAX; ours is alive.
        let stale = root.join(format!("{}-x", u32::MAX));
        let live = root.join(format!("{}-x", std::process::id()));
        fs::create_dir_all(&stale).unwrap();
        fs::create_dir_all(&live).unwrap();
        fs::write(stale.join("pids"), "4294967295\n").unwrap();
        sweep_stale(&root);
        assert!(!stale.exists());
        assert!(live.exists());
        fs::remove_dir_all(&root).unwrap();
    }
}
