//! What `/proc` says about this process and host (Linux only; a missing
//! file reads as zero, so the run still completes elsewhere).

use std::fs;

/// CPU time of one class of threads, from `/proc/self/task/*/schedstat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    /// Nanoseconds on a core.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a core.
    pub wait_ns: u64,
}

impl Cpu {
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// Scheduler and tick counters of the live threads, at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// Threads named `netsvc-session`.
    pub server: Cpu,
    /// Threads named [`LOAD_THREAD`].
    pub load: Cpu,
    /// Every thread of the process.
    pub all: Cpu,
    /// `utime` and `stime` of `/proc/self/stat`, in clock ticks.
    pub user_ticks: u64,
    pub sys_ticks: u64,
}

/// The name given to every load thread.
pub const LOAD_THREAD: &str = "bench-load";

/// Read the counters of every live thread. Threads that have exited are
/// gone from `/proc`, so take snapshots while the threads of interest run.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    if let Ok(tasks) = fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let dir = task.path();
            let Ok(stat) = fs::read_to_string(dir.join("schedstat")) else {
                continue;
            };
            let mut fields = stat
                .split_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            let cpu = Cpu {
                run_ns: fields.next().unwrap_or(0),
                wait_ns: fields.next().unwrap_or(0),
            };
            let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
            let class = match comm.trim() {
                "netsvc-session" => Some(&mut snap.server),
                LOAD_THREAD => Some(&mut snap.load),
                _ => None,
            };
            for c in class.into_iter().chain([&mut snap.all]) {
                c.run_ns += cpu.run_ns;
                c.wait_ns += cpu.wait_ns;
            }
        }
    }
    if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th of the line, so the 12th and 13th here.
        if let Some((_, rest)) = stat.rsplit_once(')') {
            let mut fields = rest.split_whitespace().skip(11);
            snap.user_ticks = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
            snap.sys_ticks = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
        }
    }
    snap
}

/// Peak resident set (`VmHWM`) in MB.
pub fn rss_peak_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's 1-minute load average.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sees_this_thread_run() {
        let before = snapshot();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let after = snapshot();
        if after.all.run_ns == 0 {
            return; // no schedstat on this kernel: reads as zero by design
        }
        assert!(after.all.since(before.all).run_ns > 0);
        assert!(rss_peak_mb() > 0.0);
    }
}
