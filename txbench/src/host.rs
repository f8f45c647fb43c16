//! Host readings: process CPU and memory from `/proc`, steal time, and the
//! record of what ran where.

use safetx_metrics::Json;
use std::process::Command;

/// Linux reports `/proc` CPU times in USER_HZ ticks, fixed at 100 per
/// second for user space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used so far.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line; `rest`
    // starts at field 3.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / USER_HZ
}

/// Peak resident set size of this process, in megabytes (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal ticks summed over every CPU since boot (`/proc/stat`).
#[must_use]
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unavailable".to_string())
}

/// What ran where: processor count, source revision, compiler, seed and
/// the steal time the host took from this run.
#[must_use]
pub fn record(seed: u64, steal_before: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Json::object()
        .with("nproc", nproc)
        .with("git_rev", command_line("git", &["rev-parse", "HEAD"]))
        .with("rustc", command_line("rustc", &["-V"]))
        .with("seed", seed)
        .with("steal_ticks", steal_ticks().saturating_sub(steal_before))
}
