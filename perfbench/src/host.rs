//! What every result records about the machine and build it came from.

use std::path::Path;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub git_rev: String,
    pub profile: &'static str,
}

impl Host {
    pub fn probe() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            git_rev: git_rev(Path::new(".")).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `None` outside a git checkout.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// CPU time this process has used, all threads (`utime + stime` of
/// `/proc/self/stat`), and CPU time the hypervisor stole from this machine,
/// all CPUs (`/proc/stat`), both in seconds at clock-tick resolution.
pub fn cpu_and_steal_s() -> (f64, f64) {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    let fields: Vec<&str> = stat[stat.rfind(')').expect("comm field") + 2..]
        .split_whitespace()
        .collect();
    let tick = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    let cpu = (tick(11) + tick(12)) / TICKS_PER_S;
    let all = std::fs::read_to_string("/proc/stat").expect("/proc/stat");
    let steal = all
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("steal column of /proc/stat");
    (cpu, steal / TICKS_PER_S)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
