//! What the host is and what it can measure.

use std::os::raw::{c_int, c_long};

/// Online processors as `/proc/cpuinfo` lists them (what `nproc`
/// reports without an affinity mask), or 0 if unreadable.
pub fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Threads the process may run at once (affinity and quota aware).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0.
pub fn self_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long` counters starting with `ru_maxrss`.
#[repr(C)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    counters: [c_long; 14],
}

const RUSAGE_CHILDREN: c_int = -1;

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// Peak resident set size of the largest child this process has waited
/// for, in MiB (`getrusage(RUSAGE_CHILDREN).ru_maxrss`), or 0.
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // 64-bit layout declared above; getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.counters[0] as f64 / 1024.0
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug (not fit for measurement)"
    } else {
        "release"
    }
}
