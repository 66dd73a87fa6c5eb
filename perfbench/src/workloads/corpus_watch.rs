//! `corpus_watch`: a 4-vantage day, one MRT byte stream per collector,
//! run through `PipelineBuilder::collectors(..).threads(2)` with a
//! `WatchSink` per member — the shape `kcc-watch` runs. `WatchSink` does
//! most of the work; the corpus fan-out, its skew and its merge are
//! exercised.

use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use kcc_bench::mrtgen::generate_vantage_mrt;
use kcc_bgp_types::Asn;
use kcc_collector::{SourceError, SourceItem, UpdateSource};
use kcc_core::{Corpus, MrtSource, PipelineBuilder, WatchConfig, WatchReport, WatchSink};
use kcc_tracegen::universe::UniverseConfig;
use kcc_tracegen::{vantage_names, Mar20Config, MultiVantageConfig};

use super::{overhead_pct, timed_setup, Pass, RunSpec, Window};
use crate::metrics::{median, ratio, Outcome};
use crate::procfs;
use crate::trace::{Ledger, TracedSink, TracedSource, Tracer, SAMPLE_EVERY};

/// Vantages (collectors) in the corpus.
pub const VANTAGES: usize = 4;
/// Worker threads of the measured shape.
pub const THREADS: usize = 2;
/// Background announcements of the whole day, split over the vantages.
pub const TARGET_ANNOUNCEMENTS: u64 = 100_000;
/// Generations timed for `setup_s`.
const SETUP_REPEATS: usize = 2;

/// One collector's published day.
#[derive(Debug)]
pub struct Vantage {
    /// Collector name.
    pub name: String,
    /// Its MRT bytes.
    pub bytes: Vec<u8>,
    /// Route-server endpoints (metadata MRT cannot carry).
    pub route_servers: Vec<(Asn, std::net::IpAddr)>,
}

/// The generator configuration for `seed`.
pub fn config(seed: u64) -> MultiVantageConfig {
    MultiVantageConfig {
        base: Mar20Config {
            seed,
            target_announcements: TARGET_ANNOUNCEMENTS,
            universe: UniverseConfig {
                seed,
                n_collectors: VANTAGES,
                n_sessions: VANTAGES * 24,
                n_peers: VANTAGES * 10,
                ..Default::default()
            },
            ..Default::default()
        },
        force_second_granularity: Vec::new(),
    }
}

/// Generates every vantage's bytes.
pub fn generate(cfg: &MultiVantageConfig) -> Vec<Vantage> {
    vantage_names(&cfg.base)
        .into_iter()
        .map(|name| {
            let (bytes, _, route_servers) = generate_vantage_mrt(cfg, &name);
            Vantage { name, bytes, route_servers }
        })
        .collect()
}

/// The comparable content of a watch report: alert lines, per-kind
/// counts, and the report's totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alerts {
    /// Every alert's canonical line, in report order.
    pub lines: Vec<String>,
    /// Alerts per kind.
    pub kinds: Vec<(&'static str, usize)>,
    /// `(updates, streams, windows)`.
    pub totals: (u64, u64, u64),
    /// `(communities, unanimous, disputed)`.
    pub agreement: (usize, usize, usize),
}

impl Alerts {
    fn of(report: &WatchReport) -> Alerts {
        Alerts {
            lines: report.alerts.iter().map(|a| a.to_line()).collect(),
            kinds: report.kind_counts(),
            totals: (report.updates, report.streams, report.windows),
            agreement: report.agreement_summary(),
        }
    }
}

fn open(v: &Vantage, epoch: u32) -> MrtSource<&[u8]> {
    MrtSource::new(&v.bytes[..], &v.name, epoch).with_route_servers(v.route_servers.clone())
}

/// One untraced pass, as `kcc-watch` runs it: (report, items pulled, wall
/// seconds of the run and the report's finish).
pub fn pass(
    vantages: &[Vantage],
    epoch: u32,
    threads: usize,
    reversed: bool,
) -> Result<(WatchReport, u64, f64), String> {
    let start = Instant::now();
    let mut order: Vec<&Vantage> = vantages.iter().collect();
    if reversed {
        order.reverse();
    }
    let mut corpus = Corpus::new();
    for v in order {
        corpus.push(&v.name, open(v, epoch)).map_err(|e| e.to_string())?;
    }
    let out = PipelineBuilder::collectors(corpus)
        .threads(threads)
        .stages_for(|_: &str| ())
        .sinks_for(|_: &str| WatchSink::new(WatchConfig::default()))
        .run()
        .map_err(|e| e.to_string())?;
    let report = out.combined.finish();
    Ok((report, out.stats.updates, start.elapsed().as_secs_f64()))
}

/// What one corpus member's run cost on its worker thread.
#[derive(Debug, Clone, Copy)]
struct MemberRun {
    thread: ThreadId,
    cpu_ns: u64,
    items: u64,
    end: Instant,
}

/// Notes which worker thread pulled a member, how many updates, and the
/// thread's on-CPU time from the first pull to the end of the feed.
struct WorkerProbe<S> {
    inner: S,
    start: Option<(ThreadId, u64)>,
    items: u64,
    runs: Arc<Mutex<Vec<MemberRun>>>,
}

impl<S: UpdateSource> UpdateSource for WorkerProbe<S> {
    fn next_item(&mut self) -> Result<Option<SourceItem>, SourceError> {
        let (thread, cpu_start) = *self
            .start
            .get_or_insert_with(|| (std::thread::current().id(), procfs::thread_cpu_ns()));
        let item = self.inner.next_item();
        match &item {
            Ok(Some(SourceItem::Update(..))) => self.items += 1,
            Ok(None) => {
                let run = MemberRun {
                    thread,
                    cpu_ns: procfs::thread_cpu_ns().saturating_sub(cpu_start),
                    items: self.items,
                    end: Instant::now(),
                };
                self.runs.lock().expect("member runs poisoned").push(run);
            }
            _ => {}
        }
        item
    }
}

/// Ledger-level results of one traced pass.
struct Traced {
    alerts: Alerts,
    items: u64,
    seconds: f64,
    ledger: Ledger,
    busy_ratio: f64,
    skew: f64,
    merge_s: f64,
}

fn traced_pass(vantages: &[Vantage], epoch: u32) -> Result<Traced, String> {
    let tracer = Tracer::default();
    let runs = Arc::new(Mutex::new(Vec::new()));
    let start = Instant::now();
    let mut corpus = Corpus::new();
    for (track, v) in vantages.iter().enumerate() {
        let probe =
            WorkerProbe { inner: open(v, epoch), start: None, items: 0, runs: Arc::clone(&runs) };
        let buf = tracer.buf(track as u32);
        corpus
            .push(&v.name, TracedSource::new(probe, "collector.source", buf, SAMPLE_EVERY))
            .map_err(|e| e.to_string())?;
    }
    let track_of = |name: &str| vantages.iter().position(|v| v.name == name).unwrap_or(0) as u32;
    let out = PipelineBuilder::collectors(corpus)
        .threads(THREADS)
        .stages_for(|_: &str| ())
        .sinks_for(|name: &str| {
            let sink = WatchSink::new(WatchConfig::default());
            TracedSink::new(sink, "core.sink.watch", tracer.buf(track_of(name)))
        })
        .run()
        .map_err(|e| e.to_string())?;
    let returned = Instant::now();
    let report = out.combined.into_inner().finish();
    let finished = Instant::now();
    let seconds = finished.duration_since(start).as_secs_f64();
    let items = out.stats.updates;
    drop(out.per_collector);

    let runs = runs.lock().expect("member runs poisoned").clone();
    let last_end = runs.iter().map(|r| r.end).max().unwrap_or(returned).min(returned);
    let workers = THREADS.min(vantages.len()).max(1);
    let busy_ns: u64 = runs.iter().map(|r| r.cpu_ns).sum();
    let mut per_worker: Vec<(ThreadId, u64)> = Vec::new();
    for r in &runs {
        match per_worker.iter_mut().find(|(t, _)| *t == r.thread) {
            Some((_, n)) => *n += r.items,
            None => per_worker.push((r.thread, r.items)),
        }
    }
    let max = per_worker.iter().map(|(_, n)| *n).max().unwrap_or(0);
    Ok(Traced {
        alerts: Alerts::of(&report),
        items,
        seconds,
        ledger: Ledger::from_spans(tracer.take()),
        busy_ratio: ratio(busy_ns as f64, workers as f64 * seconds * 1e9),
        skew: ratio(max as f64, items as f64 / workers as f64),
        merge_s: (finished - last_end).as_secs_f64(),
    })
}

/// Runs the workload.
pub fn run(spec: RunSpec) -> Outcome {
    let cfg = config(spec.seed);
    let epoch = cfg.base.epoch_seconds;
    let mut out = Outcome::default();
    let (vantages, setup_s) = timed_setup(SETUP_REPEATS, || generate(&cfg));

    let mut first: Option<Alerts> = None;
    let mut check = |out: &mut Outcome, alerts: Alerts| match &first {
        None => first = Some(alerts),
        Some(f) => out.check(*f == alerts, || "a pass differed from the first".into()),
    };
    let mut untraced_pass = |out: &mut Outcome| match pass(&vantages, epoch, THREADS, false) {
        Ok((report, items, seconds)) => {
            out.attempted += items;
            check(out, Alerts::of(&report));
            Pass { items, seconds }
        }
        Err(e) => {
            out.check(false, || format!("pass failed: {e}"));
            Pass { items: 0, seconds: 0.0 }
        }
    };

    if !spec.trace {
        let window = Window::measure(&spec, || untraced_pass(&mut out));
        window.report(&mut out, setup_s);
    } else {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let deadline = spec.deadline();
        while traced.len() < super::MIN_PASSES || Instant::now() < deadline {
            let p = untraced_pass(&mut out);
            untraced.push(ratio(p.items as f64, p.seconds));
            match traced_pass(&vantages, epoch) {
                Ok(t) => {
                    out.attempted += t.items;
                    traced.push(t);
                }
                Err(e) => out.check(false, || format!("traced pass failed: {e}")),
            }
        }
        for t in &traced {
            out.check(Some(&t.alerts) == first.as_ref(), || {
                "a traced pass differed from the untraced output".into()
            });
        }
        let of = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        out.set("collector.source_ns_per_item", of(&|t| t.ledger.per_item_ns("collector.source")));
        out.set("core.sink.watch.ns_per_item", of(&|t| t.ledger.per_item_ns("core.sink.watch")));
        out.set("core.sink.watch.alerts", first.as_ref().map_or(0.0, |a| a.lines.len() as f64));
        out.set("core.corpus.worker_busy_ratio", of(&|t| t.busy_ratio));
        out.set("core.corpus.skew", of(&|t| t.skew));
        out.set("core.corpus.merge_s", of(&|t| t.merge_s));
        out.set("trace.coverage", of(&|t| t.ledger.coverage()));
        let traced_rate = of(&|t| ratio(t.items as f64, t.seconds));
        out.set("trace.overhead_pct", overhead_pct(median(&untraced), traced_rate));
        out.set("tracegen.generate_s", setup_s);
    }

    // The alert list and counts must not depend on the thread count or
    // the collector order.
    for (threads, reversed) in [(1, false), (THREADS, true)] {
        match (pass(&vantages, epoch, threads, reversed), &first) {
            (Ok((report, _, _)), Some(f)) => out.check(Alerts::of(&report) == *f, || {
                format!("alerts at {threads} thread(s), reversed={reversed} differ")
            }),
            (Err(e), _) => out.check(false, || format!("check pass failed: {e}")),
            (_, None) => out.check(false, || "no pass completed".into()),
        }
    }
    out
}
