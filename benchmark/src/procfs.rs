//! What `/proc` says about a process, read from outside it.

use std::fs;
use std::path::Path;

/// Microseconds per clock tick of `/proc/<pid>/stat` times. `USER_HZ` is
/// 100 on every Linux ABI, whatever the kernel's own tick rate.
const US_PER_TICK: f64 = 10_000.0;

/// One reading of a process's cumulative CPU time, memory and context
/// switches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    pub user_us: f64,
    pub sys_us: f64,
    /// Peak resident set (`VmHWM`), MB.
    pub hwm_mb: f64,
    /// Current resident set (`VmRSS`), MB.
    pub rss_mb: f64,
    /// Voluntary plus involuntary context switches, summed over the
    /// process's live threads.
    pub ctx_switches: u64,
}

impl ProcSample {
    pub fn cpu_us(&self) -> f64 {
        self.user_us + self.sys_us
    }

    /// Field-wise sum, for a fleet of server processes.
    pub fn plus(self, other: ProcSample) -> ProcSample {
        ProcSample {
            user_us: self.user_us + other.user_us,
            sys_us: self.sys_us + other.sys_us,
            hwm_mb: self.hwm_mb + other.hwm_mb,
            rss_mb: self.rss_mb + other.rss_mb,
            ctx_switches: self.ctx_switches + other.ctx_switches,
        }
    }
}

/// Reads `pid`'s counters; `None` once the process is gone.
pub fn sample(pid: u32) -> Option<ProcSample> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let (user_us, sys_us) = parse_stat_times(&stat)?;
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let mut ctx_switches = 0;
    if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
        for task in tasks.flatten() {
            if let Ok(text) = fs::read_to_string(task.path().join("status")) {
                ctx_switches += status_field(&text, "voluntary_ctxt_switches:").unwrap_or(0.0)
                    as u64
                    + status_field(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0.0) as u64;
            }
        }
    }
    Some(ProcSample {
        user_us,
        sys_us,
        hwm_mb: status_field(&status, "VmHWM:").unwrap_or(0.0) / 1024.0,
        rss_mb: status_field(&status, "VmRSS:").unwrap_or(0.0) / 1024.0,
        ctx_switches,
    })
}

/// Hands the calling process's freed heap pages back to the kernel
/// (glibc's `malloc_trim`; a no-op elsewhere), so that its resident set
/// holds what is live and not what an earlier phase left behind.
pub fn release_free_heap() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes an integer, only returns free heap
        // memory to the system, and may be called at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Sum of [`sample`] over `pids`, skipping any that have exited.
pub fn sample_all(pids: &[u32]) -> ProcSample {
    pids.iter()
        .filter_map(|&pid| sample(pid))
        .fold(ProcSample::default(), ProcSample::plus)
}

/// `(utime, stime)` in microseconds from a `/proc/<pid>/stat` line. The
/// command name may contain spaces and parentheses, so fields are counted
/// from the last `)`.
fn parse_stat_times(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3; utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime * US_PER_TICK, stime * US_PER_TICK))
}

/// First number after `key` in a `/proc/<pid>/status` text.
fn status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// One-minute load average, read before a run starts.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn kernel_release() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`), so a result records whether journal
/// fsyncs hit a disk or tmpfs.
pub fn fs_type(path: &Path) -> String {
    let Ok(info) = fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    fs_type_from(&info, path)
}

fn fs_type_from(mountinfo: &str, path: &Path) -> String {
    let mut best: Option<(usize, &str)> = None;
    for line in mountinfo.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (
            left.split_ascii_whitespace().nth(4),
            right.split_ascii_whitespace().next(),
        ) else {
            continue;
        };
        if path.starts_with(mount) && best.is_none_or(|(len, _)| mount.len() >= len) {
            best = Some((mount.len(), fstype));
        }
    }
    best.map_or("unknown", |(_, t)| t).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_times_survive_hostile_command_names() {
        let line = "123 (a b) c) S 1 123 123 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 999 1 2";
        assert_eq!(parse_stat_times(line), Some((2_500_000.0, 500_000.0)));
        assert_eq!(parse_stat_times("garbage"), None);
    }

    #[test]
    fn status_fields_parse_with_units() {
        let status = "Name:\tx\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(20480.0));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(12.0));
        assert_eq!(status_field(status, "VmRSS:"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let me = sample(std::process::id()).expect("own /proc entry");
        assert!(me.hwm_mb > 0.0);
        assert!(sample(u32::MAX).is_none());
    }

    #[test]
    fn fs_type_takes_the_longest_mount_prefix() {
        let info = "22 1 8:1 / / rw - ext4 /dev/sda1 rw\n\
                    23 22 0:5 / /tmp rw - tmpfs tmpfs rw\n";
        assert_eq!(fs_type_from(info, Path::new("/tmp/x/y")), "tmpfs");
        assert_eq!(fs_type_from(info, Path::new("/home/x")), "ext4");
    }
}
