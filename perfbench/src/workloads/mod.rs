//! The four workloads and the pass loop they share.

pub mod corpus_watch;
pub mod day_tables;
pub mod live_ingest;
pub mod sim_internet;

use std::time::{Duration, Instant};

use crate::metrics::{median, ratio, Outcome};
use crate::procfs;

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["day_tables", "corpus_watch", "sim_internet", "live_ingest"];

/// How one run is asked to measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Seed every generator takes.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end passes.
    pub trace: bool,
}

impl RunSpec {
    /// The measurement deadline, from now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Runs the named workload; `None` for an unknown name.
pub fn run(name: &str, spec: RunSpec) -> Option<Outcome> {
    Some(match name {
        "day_tables" => day_tables::run(spec),
        "corpus_watch" => corpus_watch::run(spec),
        "sim_internet" => sim_internet::run(spec),
        "live_ingest" => live_ingest::run(spec),
        _ => return None,
    })
}

/// Minimum passes per run, whatever `--seconds` says, so every median
/// has something to stand on.
pub const MIN_PASSES: usize = 3;

/// One measured pass: items it moved and how long it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Items processed.
    pub items: u64,
    /// Wall seconds of the measured stretch.
    pub seconds: f64,
}

/// Untraced passes over a window, and what the window cost in CPU.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Every pass, in order.
    pub passes: Vec<Pass>,
    /// Process on-CPU nanoseconds over the whole window.
    pub cpu_ns: u64,
}

impl Window {
    /// Runs `pass` until the deadline (at least [`MIN_PASSES`] times).
    pub fn measure(spec: &RunSpec, mut pass: impl FnMut() -> Pass) -> Window {
        let deadline = spec.deadline();
        let cpu_before = procfs::process_cpu_ns();
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || Instant::now() < deadline {
            let p = pass();
            eprintln!("pass {}: {} items in {:.6} s", passes.len(), p.items, p.seconds);
            passes.push(p);
        }
        let cpu_ns = procfs::process_cpu_ns().saturating_sub(cpu_before);
        Window { passes, cpu_ns }
    }

    /// Items over all passes.
    pub fn items(&self) -> u64 {
        self.passes.iter().map(|p| p.items).sum()
    }

    /// Median per-pass items per second.
    pub fn items_per_s(&self) -> f64 {
        let rates: Vec<f64> =
            self.passes.iter().map(|p| ratio(p.items as f64, p.seconds)).collect();
        median(&rates)
    }

    /// Records the end-to-end metrics every workload shares.
    pub fn report(&self, out: &mut Outcome, setup_s: f64) {
        out.set("items_per_s", self.items_per_s());
        out.set("cpu_ns_per_item", ratio(self.cpu_ns as f64, self.items() as f64));
        out.set("peak_rss_mib", procfs::peak_rss_mib());
        out.set("setup_s", setup_s);
    }
}

/// Times `f` `repeats` times; returns the last result and the median
/// seconds.
pub fn timed_setup<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one repeat"), median(&times))
}

/// Overhead of tracing: the share of untraced throughput the traced
/// passes lose, in percent.
pub fn overhead_pct(untraced_items_per_s: f64, traced_items_per_s: f64) -> f64 {
    ratio(untraced_items_per_s - traced_items_per_s, untraced_items_per_s) * 100.0
}
