//! `live_ingest`: two loopback BGP sessions into an in-process collector
//! daemon with one reactor worker, flooded by one `FloodRig` thread — a
//! closed-loop saturating load: the rig writes as fast as the sockets
//! accept. The pipeline runs `run_live`'s shape (`PipelineBuilder` with
//! the live source's shutdown flag) into a `CountsSink`. This is the only
//! workload that exercises `kcc_peer` framing, FSM and reactor.
//!
//! Set-up is generating the input plus, for every pass, daemon bind and
//! session establishment (`setup_s` adds the median of the latter to the
//! former); a pass is the stretch from the first UPDATE to the pipeline
//! having drained the feed.

use std::net::{IpAddr, Ipv4Addr};
use std::time::{Duration, Instant};

use kcc_bgp_types::Asn;
use kcc_collector::{
    LiveSource, SessionKey, ShutdownFlag, SourceError, UpdateArchive, UpdateSource,
};
use kcc_core::{classify_archive, CountsSink, Pipeline, PipelineBuilder, TypeCounts};
use kcc_peer::{
    offline_reference, Collector, CollectorConfig, FloodOptions, FloodPlan, FloodReport, FloodRig,
    StampMode,
};
use kcc_tracegen::{generate_mar20, Mar20Config};

use super::{overhead_pct, timed_setup, Pass, RunSpec, Window};
use crate::metrics::{median, ratio, Outcome};
use crate::procfs;
use crate::trace::{Ledger, SpanBuf, TracedSink, TracedSource, Tracer, SAMPLE_EVERY};

/// Concurrent BGP sessions.
pub const SESSIONS: usize = 2;
/// Reactor worker threads (`ReactorConfig.workers`).
pub const WORKERS: usize = 1;
/// UPDATEs streamed per pass.
pub const UPDATES: u64 = 100_000;
/// Workload generations timed for `tracegen.generate_s` and `setup_s`.
const GENERATE_REPEATS: usize = 2;

/// The daemon's configuration.
pub fn collector_config() -> CollectorConfig {
    CollectorConfig::new("bench", Asn(3333), Ipv4Addr::new(198, 51, 100, 1))
        .with_stamp(StampMode::logical(1_000))
        .with_workers(WORKERS)
}

/// A generated day's first [`UPDATES`] updates, dealt round-robin onto
/// [`SESSIONS`] sessions.
pub fn workload(seed: u64) -> UpdateArchive {
    let mut cfg =
        Mar20Config { seed, target_announcements: UPDATES + UPDATES / 4, ..Default::default() };
    cfg.universe.seed = seed;
    let day = generate_mar20(&cfg);
    let mut workload = UpdateArchive::new(0);
    for (i, (_, update)) in day.archive.all_updates().into_iter().take(UPDATES as usize).enumerate()
    {
        let p = i % SESSIONS;
        let key = SessionKey::new(
            "bench",
            Asn(64_512 + p as u32),
            IpAddr::V4(Ipv4Addr::new(10, 99, 0, p as u8)),
        );
        workload.record(&key, update);
    }
    workload
}

/// A daemon with every planned session Established, ready to stream.
struct Armed {
    collector: Collector,
    source: LiveSource,
    rig: FloodRig,
}

fn arm(plan: FloodPlan) -> Result<Armed, String> {
    let mut collector =
        Collector::bind("127.0.0.1:0", collector_config()).map_err(|e| format!("bind: {e}"))?;
    let source = collector.take_source();
    let rig = FloodRig::connect(collector.local_addr(), plan, FloodOptions::default())
        .map_err(|e| format!("establish: {e}"))?;
    // The rig counts a session at its own Established, half a round trip
    // before the daemon does; wait for the daemon's gauge.
    if !collector.gauges().wait_for_established(SESSIONS as u64, Duration::from_secs(60)) {
        return Err(format!("daemon never reported {SESSIONS} sessions"));
    }
    Ok(Armed { collector, source, rig })
}

/// What one streamed pass observed.
struct Streamed {
    counts: TypeCounts,
    sent: u64,
    ingested: u64,
    seconds: f64,
    drain_lag_s: f64,
    rig_cpu_ns: u64,
    reactor_cpu_ns: u64,
    pipeline_cpu_ns: u64,
    frames: u64,
    wakeups: u64,
    overflows: u64,
    ledger: Option<Ledger>,
}

/// What the rig thread hands back.
struct RigSide {
    report: std::io::Result<FloodReport>,
    stream_end: Instant,
    rig_cpu_ns: u64,
    reactor_cpu_ns: u64,
    ingested: u64,
}

/// `PipelineBuilder::run`'s shutdown loop, driven by the benchmark so
/// `Pipeline::feed` can be timed ("core.classify": classifier and session
/// lookup).
fn traced_loop(
    mut source: TracedSource<LiveSource>,
    sink: TracedSink<CountsSink>,
    stop: &ShutdownFlag,
    mut driver: SpanBuf,
) -> Result<TypeCounts, SourceError> {
    let mut pipeline = Pipeline::new((), sink);
    loop {
        if stop.is_triggered() {
            while let Some(item) = source.next_item()? {
                driver.time("core.classify", || pipeline.feed(item));
            }
            break;
        }
        match source.next_item()? {
            Some(item) => driver.time("core.classify", || pipeline.feed(item)),
            None => break,
        }
    }
    Ok(pipeline.finish().sink.into_inner().finish())
}

fn stream(armed: Armed, tracer: Option<&Tracer>) -> Result<Streamed, String> {
    let Armed { collector, source, rig } = armed;
    let metrics = collector.metrics();
    let stop = source.shutdown_flag();
    let threads_before = procfs::threads();
    let start = Instant::now();
    let rig_thread = std::thread::Builder::new()
        .name("flood-rig".into())
        .spawn(move || {
            let cpu_start = procfs::thread_cpu_ns();
            let report = rig.stream();
            let stream_end = Instant::now();
            let rig_cpu_ns = procfs::thread_cpu_ns().saturating_sub(cpu_start);
            // The reactor threads end at shutdown; read them first.
            let reactor_cpu_ns =
                procfs::cpu_delta_by_prefix(&threads_before, &procfs::threads(), "kcc-reactor");
            collector.shutdown();
            let ingested = collector.join().updates;
            RigSide { report, stream_end, rig_cpu_ns, reactor_cpu_ns, ingested }
        })
        .map_err(|e| format!("spawn rig thread: {e}"))?;

    let pipeline_cpu_start = procfs::thread_cpu_ns();
    let (result, ledger) = match tracer {
        None => (
            PipelineBuilder::new(source)
                .sink(CountsSink::default())
                .shutdown(&stop)
                .run()
                .map(|out| out.sink.finish()),
            None,
        ),
        Some(tracer) => {
            let source = TracedSource::new(source, "peer.live.source", tracer.buf(0), SAMPLE_EVERY);
            let sink = TracedSink::new(CountsSink::default(), "core.sink.counts", tracer.buf(0));
            let result = traced_loop(source, sink, &stop, tracer.buf(0));
            (result, Some(Ledger::from_spans(tracer.take())))
        }
    };
    let end = Instant::now();
    let pipeline_cpu_ns = procfs::thread_cpu_ns().saturating_sub(pipeline_cpu_start);
    let rig = rig_thread.join().map_err(|_| "rig thread panicked".to_string())?;
    let counts = result.map_err(|e| format!("live pipeline: {e}"))?;
    let report = rig.report.map_err(|e| format!("flood: {e}"))?;
    Ok(Streamed {
        counts,
        sent: report.updates_sent,
        ingested: rig.ingested,
        seconds: end.duration_since(start).as_secs_f64(),
        drain_lag_s: end.saturating_duration_since(rig.stream_end).as_secs_f64(),
        rig_cpu_ns: rig.rig_cpu_ns,
        reactor_cpu_ns: rig.reactor_cpu_ns,
        pipeline_cpu_ns,
        frames: metrics.counter_value("kcc_reactor_frames_decoded_total", &[]),
        wakeups: metrics.counter_value("kcc_reactor_poll_wakeups_total", &[("shard", "0")]),
        overflows: metrics.counter_value("kcc_reactor_write_queue_overflows_total", &[]),
        ledger,
    })
}

/// Runs the workload.
pub fn run(spec: RunSpec) -> Outcome {
    let mut out = Outcome::default();
    let (workload, generate_s) = timed_setup(GENERATE_REPEATS, || workload(spec.seed));
    let dealt = workload.update_count() as u64;
    let plan = FloodPlan::from_archive(&workload, 90);
    let reference = classify_archive(&offline_reference(&workload, &collector_config())).counts;

    let mut setups = Vec::new();
    let mut one_pass = |out: &mut Outcome, tracer: Option<&Tracer>| -> Option<Streamed> {
        let start = Instant::now();
        let armed = match arm(plan.clone()) {
            Ok(a) => a,
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                return None;
            }
        };
        setups.push(start.elapsed().as_secs_f64());
        match stream(armed, tracer) {
            Ok(s) => {
                out.attempted += s.sent;
                out.failed += s.sent.saturating_sub(s.ingested);
                out.check(s.sent == dealt, || format!("rig sent {} of {dealt}", s.sent));
                out.check(s.counts == reference, || "live classification != offline".into());
                Some(s)
            }
            Err(e) => {
                out.check(false, || format!("pass failed: {e}"));
                None
            }
        }
    };

    if !spec.trace {
        let window = Window::measure(&spec, || match one_pass(&mut out, None) {
            Some(s) => Pass { items: s.ingested, seconds: s.seconds },
            None => Pass { items: 0, seconds: 0.0 },
        });
        window.report(&mut out, generate_s + median(&setups));
    } else {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let deadline = spec.deadline();
        while traced.len() < super::MIN_PASSES || Instant::now() < deadline {
            if let Some(s) = one_pass(&mut out, None) {
                untraced.push(ratio(s.ingested as f64, s.seconds));
            }
            let tracer = Tracer::default();
            if let Some(s) = one_pass(&mut out, Some(&tracer)) {
                traced.push(s);
            }
        }
        let of = |f: &dyn Fn(&Streamed) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let per_item =
            |ns: &dyn Fn(&Streamed) -> u64| of(&|s| ratio(ns(s) as f64, s.ingested as f64));
        out.set("peer.reactor.cpu_ns_per_item", per_item(&|s| s.reactor_cpu_ns));
        out.set("peer.rig.cpu_ns_per_item", per_item(&|s| s.rig_cpu_ns));
        out.set("peer.live.pipeline_cpu_ns_per_item", per_item(&|s| s.pipeline_cpu_ns));
        out.set(
            "peer.reactor.wakeups_per_frame",
            of(&|s| ratio(s.wakeups as f64, s.frames as f64)),
        );
        out.set("peer.reactor.write_overflows", of(&|s| s.overflows as f64));
        out.set("peer.live.drain_lag_s", of(&|s| s.drain_lag_s));
        let layer =
            |s: &Streamed, name: &str| s.ledger.as_ref().map_or(0.0, |l| l.per_item_ns(name));
        out.set("peer.live.wait_ns_per_item", of(&|s| layer(s, "peer.live.source")));
        out.set("core.classify.ns_per_item", of(&|s| layer(s, "core.classify")));
        out.set("core.sink.counts.ns_per_item", of(&|s| layer(s, "core.sink.counts")));
        out.set("trace.coverage", of(&|s| s.ledger.as_ref().map_or(0.0, Ledger::coverage)));
        let traced_rate = of(&|s| ratio(s.ingested as f64, s.seconds));
        out.set("trace.overhead_pct", overhead_pct(median(&untraced), traced_rate));
        out.set("peer.establish_s", median(&setups));
        out.set("tracegen.generate_s", generate_s);
    }
    out
}
