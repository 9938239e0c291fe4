//! The machine and build a result was measured on, and the two `/proc`
//! readings the metrics need.

use std::process::Command;

use crate::json::{obj, Json};

/// Peak resident set size of this process so far (`VmHWM`), in MiB. One
/// workload per process — how the harness runs it — gives that workload's
/// own peak; later workloads of a multi-workload run inherit earlier peaks.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User + system CPU seconds this process has used (all threads), so a
/// "gain" bought with more threads is visible next to the wall time.
pub fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the `(comm)`
    // field, in clock ticks of 1/100 s.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, kernel, compiler and commit, for the run document.
pub fn provenance() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]);
    obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu_model", Json::from(cpu_model)),
        ("kernel", Json::from(command_line("uname", &["-sr"]))),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        ("git_commit", Json::from(commit)),
        (
            "git_dirty",
            Json::from(!(dirty.is_empty() || dirty == "unknown")),
        ),
    ])
}
