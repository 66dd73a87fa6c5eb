//! CPU and memory readings from Linux procfs.
//!
//! Per-thread on-CPU time comes from `/proc/self/task/<tid>/schedstat`
//! (field 1, nanoseconds), which excludes run-queue waits and so stays
//! steady on a shared machine. A thread's schedstat disappears when the
//! thread exits, so process-wide CPU (which must include the corpus
//! workers and daemon threads the library spawns and joins) comes from
//! `getrusage`, which keeps the time of exited threads.

use std::collections::BTreeMap;

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| first_field(&s))
        .unwrap_or(0)
}

fn first_field(s: &str) -> Option<u64> {
    s.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds of the whole process, exited threads included, at
/// microsecond resolution (`getrusage(RUSAGE_SELF)`); 0 if unavailable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
pub fn process_cpu_ns() -> u64 {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long` counters this function does not read.
    #[repr(C)]
    #[derive(Default)]
    struct RUsage {
        utime: TimeVal,
        stime: TimeVal,
        counters: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this target, which is all `getrusage` writes.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return 0;
    }
    let ns = |t: &TimeVal| t.sec.max(0) as u64 * 1_000_000_000 + t.usec.max(0) as u64 * 1_000;
    ns(&usage.utime) + ns(&usage.stime)
}

/// On-CPU nanoseconds of the whole process: not read on this target.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> u64 {
    0
}

/// One live thread's name and on-CPU time.
#[derive(Debug)]
pub struct ThreadCpu {
    /// `comm`, e.g. `kcc-reactor-0`.
    pub comm: String,
    /// On-CPU nanoseconds since the thread started.
    pub cpu_ns: u64,
}

/// Every live thread of this process, by tid.
pub fn threads() -> BTreeMap<u32, ThreadCpu> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let path = entry.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let cpu_ns = std::fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|s| first_field(&s))
            .unwrap_or(0);
        out.insert(tid, ThreadCpu { comm: comm.trim_end().to_owned(), cpu_ns });
    }
    out
}

/// CPU the threads whose `comm` starts with `prefix` spent between two
/// [`threads`] snapshots (threads born in between count from zero).
pub fn cpu_delta_by_prefix(
    before: &BTreeMap<u32, ThreadCpu>,
    after: &BTreeMap<u32, ThreadCpu>,
    prefix: &str,
) -> u64 {
    after
        .iter()
        .filter(|(_, t)| t.comm.starts_with(prefix))
        .map(|(tid, t)| t.cpu_ns.saturating_sub(before.get(tid).map_or(0, |b| b.cpu_ns)))
        .sum()
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
