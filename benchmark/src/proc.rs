//! Process accounting from procfs.

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every mainstream architecture.
const TICK_US: f64 = 10_000.0;

/// User + system CPU time of this process (all threads), microseconds.
pub fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) * TICK_US
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart `VmHWM` from the current resident set size.
pub fn reset_rss_peak() {
    // Where the kernel refuses, later readings are peaks since the start
    // of the process, which is still a peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
