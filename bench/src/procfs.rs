//! Process-level counters from `/proc/self` (Linux only, like the
//! sandbox): CPU time, voluntary context switches, peak resident set.

use std::fs;

/// User + system CPU time of the whole process, in microseconds.
/// `/proc/self/stat` counts in clock ticks (100 Hz on Linux), so a
/// difference is good to 10 ms — measure over a second or more.
pub fn cpu_time_us() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the name.
    let rest = stat.rsplit_once(") ").expect("stat format").1;
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks * 10_000.0
}

/// Voluntary context switches summed over every live thread of the
/// process. Read it while the threads of interest still exist.
pub fn voluntary_switches() -> u64 {
    let mut total = 0;
    for task in fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .flatten()
    {
        // A thread may exit between the listing and the read.
        if let Ok(status) = fs::read_to_string(task.path().join("status")) {
            total += status_field(&status, "voluntary_ctxt_switches:");
        }
    }
    total
}

/// Peak resident set size (`VmHWM`) of the process, in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status_field(&status, "VmHWM:") as f64 / 1024.0
}

fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
