//! The metric catalog, the result line, and the statistics the workloads
//! report with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "items/s"),
    ("cpu_ns_per_item", "ns"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. Every
/// workload prints all of them; a layer the workload does not exercise
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mrt.decode_ns_per_record", "ns"),
    ("collector.source_ns_per_item", "ns"),
    ("core.clean.ns_per_item", "ns"),
    ("core.clean.kept_ratio", "ratio"),
    ("core.classify.ns_per_item", "ns"),
    ("core.classify.peak_state_bytes", "bytes"),
    ("core.sink.overview.ns_per_item", "ns"),
    ("core.sink.counts.ns_per_item", "ns"),
    ("core.sink.watch.ns_per_item", "ns"),
    ("core.sink.watch.alerts", "count"),
    ("core.corpus.worker_busy_ratio", "ratio"),
    ("core.corpus.skew", "ratio"),
    ("core.corpus.merge_s", "s"),
    ("peer.reactor.cpu_ns_per_item", "ns"),
    ("peer.reactor.wakeups_per_frame", "ratio"),
    ("peer.reactor.write_overflows", "count"),
    ("peer.rig.cpu_ns_per_item", "ns"),
    ("peer.live.pipeline_cpu_ns_per_item", "ns"),
    ("peer.live.wait_ns_per_item", "ns"),
    ("peer.live.drain_lag_s", "s"),
    ("sim.step_ns.p50", "ns"),
    ("sim.step_ns.p99", "ns"),
    ("sim.events", "count"),
    ("sim.updates_sent", "count"),
    ("sim.duplicates_suppressed", "count"),
    ("sim.phase.converge_s", "s"),
    ("sim.phase.flap_s", "s"),
    ("sim.classify_s", "s"),
    ("types.attr_store.bytes", "bytes"),
    ("types.attr_store.entries", "count"),
    ("tracegen.generate_s", "s"),
    ("topology.generate_s", "s"),
    ("sim.build_s", "s"),
    ("peer.establish_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("failed_ratio", "ratio"),
];

/// What a run measured and whether its outputs were right.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted: items pulled or ingested plus checks run.
    pub attempted: u64,
    /// Operations that failed: source errors, items sent but not
    /// ingested, failed checks.
    pub failed: u64,
    /// Descriptions of failed checks, for standard error.
    pub failures: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and the catalog's
    /// metrics (unset ones read 0) with their units.
    pub fn to_json(&self, catalog: &[(&str, &str)]) -> String {
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        json
    }
}

/// The median (0 for no values).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by linear interpolation between closest ranks (0 for
/// no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
