//! The few `/proc` readings the report needs, taken by each process about
//! itself (the server ships its own over the control pipe).

use std::fs;

/// `utime`/`stime` ticks per second (`USER_HZ`, 100 on every Linux ABI).
pub const TICKS_PER_S: f64 = 100.0;

/// CPU, memory and scheduling counters of the calling process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// On-CPU time of every live thread, from `schedstat` (nanoseconds).
    pub cpu_ns: u64,
    /// User-mode ticks of the process (`stat` field 14).
    pub utime_ticks: u64,
    /// Kernel-mode ticks of the process (`stat` field 15).
    pub stime_ticks: u64,
    /// Resident set size, KiB.
    pub rss_kb: u64,
    /// Peak resident set size, KiB.
    pub hwm_kb: u64,
    /// Voluntary plus involuntary context switches of every live thread.
    pub ctx_switches: u64,
}

impl ProcSample {
    /// User plus kernel ticks: the whole process, exited threads included.
    pub fn cpu_ticks(&self) -> u64 {
        self.utime_ticks + self.stime_ticks
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Sample the calling process.
pub fn sample_self() -> ProcSample {
    let mut s = ProcSample::default();
    if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name, which may itself
        // hold spaces: state is field 3, utime 14, stime 15.
        if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
            let f: Vec<&str> = rest.split_whitespace().collect();
            s.utime_ticks = f.get(11).and_then(|v| v.parse().ok()).unwrap_or(0);
            s.stime_ticks = f.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
        }
    }
    if let Ok(status) = fs::read_to_string("/proc/self/status") {
        s.rss_kb = status_field(&status, "VmRSS:");
        s.hwm_kb = status_field(&status, "VmHWM:");
    }
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let dir = task.path();
            if let Ok(sched) = fs::read_to_string(dir.join("schedstat")) {
                s.cpu_ns += sched
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
            if let Ok(status) = fs::read_to_string(dir.join("status")) {
                s.ctx_switches += status_field(&status, "voluntary_ctxt_switches:")
                    + status_field(&status, "nonvoluntary_ctxt_switches:");
            }
        }
    }
    s
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`.
pub fn machine_steal() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted inside user and nice.
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// Soft `RLIMIT_NOFILE` of the calling process.
pub fn nofile_limit() -> u64 {
    fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|l| {
            l.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}
