//! Process peak resident set size, scoped to one workload.
//!
//! Each benchmark process runs exactly one workload, and the peak is reset
//! once the harness's own set-up (oracle results, sample buffers) is done,
//! so the reported peak covers the workload's inputs and the calls under
//! test, not what ran before in the same process.

use std::fs;

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Current resident set size (`VmRSS`) in MiB.
pub fn current_rss_mb() -> Option<f64> {
    status_kb("VmRSS:").map(|kb| kb as f64 / 1024.0)
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Reset the peak to the current resident size (Linux `clear_refs` value
/// 5). Returns false where the kernel does not allow it; the peak then
/// covers the whole process.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}
