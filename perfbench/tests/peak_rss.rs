//! Peak RSS is scoped to one workload. Kept alone in its own test
//! binary: resident size is process-wide, so a test allocating on another
//! thread would disturb it.

use perfbench::rss::{current_rss_mb, peak_rss_mb, reset_peak_rss};

#[test]
fn reset_scopes_the_peak_to_what_follows() {
    let before = peak_rss_mb().expect("VmHWM readable");
    // An earlier workload's 64 MiB working set, touched and released.
    let big = vec![1u8; 64 << 20];
    std::hint::black_box(&big);
    drop(big);
    let with_big = peak_rss_mb().expect("VmHWM readable");
    assert!(with_big >= before + 60.0, "{before} -> {with_big}");

    assert!(reset_peak_rss(), "clear_refs must be writable");
    let small = vec![1u8; 4 << 20];
    std::hint::black_box(&small);
    let after = peak_rss_mb().expect("VmHWM readable");
    let current = current_rss_mb().expect("VmRSS readable");
    assert!(
        after < with_big - 40.0,
        "peak kept the earlier 64 MiB: {after}"
    );
    assert!(after >= current);
}
