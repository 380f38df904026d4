//! Process-level measurements read from `/proc/self` and the host
//! provenance every result carries.

use std::process::Command;

/// User plus system CPU seconds consumed by this process so far, over
/// all of its threads (live and exited).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // Linux reports these in USER_HZ, which is 100 on every supported
    // architecture.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Bytes this process has passed to `write`-family system calls so far
/// (`wchar` in `/proc/self/io`).
pub fn bytes_written() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Cores the scheduler lets this process use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails. The child is always waited for.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V` of the toolchain on `PATH` (the one that built this
/// benchmark).
pub fn rustc_version() -> String {
    first_line_of("rustc", &["-V"])
}

/// Git revision of the working directory, `"unknown"` outside a git
/// checkout.
pub fn git_revision() -> String {
    first_line_of("git", &["rev-parse", "HEAD"])
}
