//! `sim_internet`: a 25k-AS power-law internet running the beacon flap
//! protocol of `InternetCell` (converge → flap → heal → reflap) with a
//! collector on the first two transits. The simulator's event queue,
//! decision process, policies and `AttrStore` do the work; the analysis
//! pipeline classifies only a handful of collector messages.
//!
//! `scenario::build` is set-up and is timed into `setup_s`; a pass is the
//! benchmark's own `Network::step` loop over the phases.

use std::time::Instant;

use kcc_bench::sweep::{run_internet_cell, InternetCell, COLLECTOR_ASN};
use kcc_bgp_sim::scenario::{
    self, BuiltScenario, CounterSnapshot, ScenarioAction, ScenarioSpec, TopologyTemplate,
};
use kcc_bgp_sim::{Capture, Network, SimDuration, SimTime, VendorProfile};
use kcc_core::{classify_archive, TypeCounts};
use kcc_topology::{generate_internet, RouterId};
use keep_communities_clean::adapter::capture_to_archive;

use super::{overhead_pct, Pass, RunSpec, Window};
use crate::metrics::{median, quantile, ratio, Outcome};
use crate::trace::{Ledger, Tracer, PASS};

/// ASes in the generated internet.
pub const N_ASES: usize = 25_000;
/// Topology generations timed for `topology.generate_s`.
const GENERATE_REPEATS: usize = 3;

/// The measured cell.
pub fn cell() -> InternetCell {
    // Zero MRAI: the measured quantity is event throughput, not timer
    // waiting.
    InternetCell { vendor: VendorProfile::BIRD_2, mrai: SimDuration::ZERO, n_ases: N_ASES }
}

/// What one pass produced; passes of one seed must agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Collector stream announcement types.
    pub counts: TypeCounts,
    /// Collector messages captured.
    pub collector_messages: usize,
    /// Events processed by the phases.
    pub events: u64,
    /// Network-wide counter deltas over the phases.
    pub counters: CounterSnapshot,
    /// `AttrStore` bytes and entries at the end.
    pub attr_store: (usize, usize),
}

/// Timings of one pass.
#[derive(Debug, Clone, Default)]
pub struct SimTimes {
    /// `scenario::build`.
    pub build_s: f64,
    /// Each phase's step loop.
    pub phase_s: Vec<f64>,
    /// All phases, scheduling and capture copies included.
    pub phases_s: f64,
    /// Collector-stream classification.
    pub classify_s: f64,
}

fn schedule(net: &mut Network, at: SimTime, action: &ScenarioAction) -> Result<(), String> {
    match action {
        ScenarioAction::Announce { router, prefix } => net.schedule_announce(at, *router, *prefix),
        ScenarioAction::InterAsLinkDown { a, b } | ScenarioAction::InterAsLinkUp { a, b } => {
            let sids = net.find_ebgp_sessions(*a, *b);
            if sids.is_empty() {
                return Err(format!("no eBGP session between AS{a} and AS{b}"));
            }
            let down = matches!(action, ScenarioAction::InterAsLinkDown { .. });
            for sid in sids {
                if down {
                    net.schedule_link_down(at, sid);
                } else {
                    net.schedule_link_up(at, sid);
                }
            }
        }
        other => return Err(format!("action outside the flap protocol: {other:?}")),
    }
    Ok(())
}

/// One pass: build (set-up), then the phases driven by a `Network::step`
/// loop, then classification. With a tracer, every `step` call is a
/// span on track 0 under one pass span.
pub fn pass(spec: &ScenarioSpec, tracer: Option<&Tracer>) -> Result<(SimResult, SimTimes), String> {
    let mut times = SimTimes::default();
    let start = Instant::now();
    let BuiltScenario { mut net, .. } = scenario::build(spec);
    times.build_s = start.elapsed().as_secs_f64();

    let collector = RouterId { asn: COLLECTOR_ASN, index: 0 };
    let counters_before = CounterSnapshot::of(&net);
    let events_before = net.stats.events_processed;
    let mut capture = Capture::new();
    let mut buf = tracer.map(|t| t.buf(0));
    let phases_start = Instant::now();
    let pass_start = buf.as_ref().map_or(0, |b| b.now());
    for phase in &spec.phases {
        let started = net.now();
        for ev in &phase.events {
            schedule(&mut net, started + ev.after, &ev.action)?;
        }
        let phase_start = Instant::now();
        let phase_events = net.stats.events_processed;
        match &mut buf {
            None => while net.step() {},
            Some(b) => loop {
                let t = b.now();
                let more = net.step();
                b.close("sim.step", t);
                if !more {
                    break;
                }
            },
        }
        times.phase_s.push(phase_start.elapsed().as_secs_f64());
        if net.stats.events_processed - phase_events > spec.sim.max_events {
            return Err(format!("phase {} exceeded the event budget", phase.name));
        }
        if let Some(c) = net.capture(collector) {
            for entry in c.entries() {
                capture.record(entry.clone());
            }
        }
        net.clear_captures();
    }
    if let Some(b) = &mut buf {
        b.close(PASS, pass_start);
    }
    times.phases_s = phases_start.elapsed().as_secs_f64();

    let start = Instant::now();
    let archive = capture_to_archive(&net, "sim", &capture, 0);
    let counts = classify_archive(&archive).counts;
    times.classify_s = start.elapsed().as_secs_f64();

    let result = SimResult {
        counts,
        collector_messages: capture.len(),
        events: net.stats.events_processed - events_before,
        counters: CounterSnapshot::of(&net).delta(&counters_before),
        attr_store: (net.attr_store().bytes(), net.attr_store().len()),
    };
    Ok((result, times))
}

/// One traced pass: its result, timings, ledger and every step's
/// duration.
struct TracedSim {
    result: SimResult,
    times: SimTimes,
    ledger: Ledger,
    steps: Vec<f64>,
}

/// Runs the workload.
pub fn run(spec: RunSpec) -> Outcome {
    let cell = cell();
    let scenario = cell.spec(spec.seed);
    let mut out = Outcome::default();
    let mut first: Option<SimResult> = None;
    let mut builds = Vec::new();
    let mut check_pass = |out: &mut Outcome, result: &SimResult| match &first {
        None => first = Some(result.clone()),
        Some(f) => out.check(f == result, || "a pass gave different counts or events".into()),
    };

    if !spec.trace {
        let window = Window::measure(&spec, || match pass(&scenario, None) {
            Ok((result, times)) => {
                check_pass(&mut out, &result);
                out.attempted += result.events;
                builds.push(times.build_s);
                Pass { items: result.events, seconds: times.phases_s }
            }
            Err(e) => {
                out.check(false, || format!("pass failed: {e}"));
                Pass { items: 0, seconds: 0.0 }
            }
        });
        window.report(&mut out, median(&builds));
    } else {
        let mut untraced = Vec::new();
        let mut traced: Vec<TracedSim> = Vec::new();
        let deadline = spec.deadline();
        while traced.len() < super::MIN_PASSES || Instant::now() < deadline {
            match pass(&scenario, None) {
                Ok((result, times)) => {
                    check_pass(&mut out, &result);
                    out.attempted += result.events;
                    builds.push(times.build_s);
                    untraced.push(ratio(result.events as f64, times.phases_s));
                }
                Err(e) => out.check(false, || format!("pass failed: {e}")),
            }
            let tracer = Tracer::default();
            match pass(&scenario, Some(&tracer)) {
                Ok((result, times)) => {
                    check_pass(&mut out, &result);
                    out.attempted += result.events;
                    builds.push(times.build_s);
                    let spans = tracer.take();
                    let steps: Vec<f64> = spans
                        .iter()
                        .filter(|s| s.layer == "sim.step")
                        .map(|s| s.duration_ns() as f64)
                        .collect();
                    traced.push(TracedSim {
                        result,
                        times,
                        ledger: Ledger::from_spans(spans),
                        steps,
                    });
                }
                Err(e) => out.check(false, || format!("traced pass failed: {e}")),
            }
        }
        let of = |f: &dyn Fn(&TracedSim) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        out.set("sim.step_ns.p50", of(&|t| quantile(&t.steps, 0.5)));
        out.set("sim.step_ns.p99", of(&|t| quantile(&t.steps, 0.99)));
        out.set("sim.phase.converge_s", of(&|t| t.times.phase_s.first().copied().unwrap_or(0.0)));
        out.set("sim.phase.flap_s", of(&|t| t.times.phase_s.iter().skip(1).sum()));
        out.set("sim.classify_s", of(&|t| t.times.classify_s));
        out.set("trace.coverage", of(&|t| t.ledger.coverage()));
        let traced_rate = of(&|t| ratio(t.result.events as f64, t.times.phases_s));
        out.set("trace.overhead_pct", overhead_pct(median(&untraced), traced_rate));
        if let Some(f) = &first {
            out.set("sim.events", f.events as f64);
            out.set("sim.updates_sent", f.counters.updates_sent as f64);
            out.set("sim.duplicates_suppressed", f.counters.duplicates_suppressed as f64);
            out.set("types.attr_store.bytes", f.attr_store.0 as f64);
            out.set("types.attr_store.entries", f.attr_store.1 as f64);
        }
        out.set("sim.build_s", median(&builds));
        if let TopologyTemplate::GeneratedInternet { config, .. } = &scenario.topology {
            let mut gen = Vec::new();
            for _ in 0..GENERATE_REPEATS {
                let start = Instant::now();
                std::hint::black_box(generate_internet(config));
                gen.push(start.elapsed().as_secs_f64());
            }
            out.set("topology.generate_s", median(&gen));
        }
    }

    // The library's own scenario driver must agree with the benchmark's
    // step loop.
    let library = run_internet_cell(&cell, spec.seed);
    match &first {
        Some(f) => out.check(
            library.counts == f.counts
                && library.events_processed == f.events
                && library.collector_messages == f.collector_messages,
            || "the step loop disagrees with the library's scenario run".into(),
        ),
        None => out.check(false, || "no pass completed".into()),
    }
    out
}
