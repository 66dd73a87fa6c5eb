//! `day_tables`: one collector's d_mar20-shaped day as MRT bytes, run
//! serially through `MrtSource → CleaningStage → (OverviewSink,
//! CountsSink)` — the paper's Table 1/2 job and the single-threaded
//! baseline. Source decode and the classifier do most of the work.

use std::time::Instant;

use kcc_bench::mrtgen::{generate_mrt_day, MrtDay};
use kcc_collector::{UpdateArchive, UpdateSource};
use kcc_core::table::{overview, OverviewSink, OverviewStats};
use kcc_core::{
    classify_archive, clean_archive, CleaningConfig, CleaningStage, CountsSink, MrtSource,
    Pipeline, PipelineBuilder, PipelineStats, TypeCounts,
};
use kcc_mrt::UpdateStream;
use kcc_tracegen::Mar20Config;

use super::{overhead_pct, timed_setup, Pass, RunSpec, Window};
use crate::metrics::{median, ratio, Outcome};
use crate::trace::{Ledger, TracedSink, TracedSource, TracedStage, Tracer, SAMPLE_EVERY};

/// Background announcements generated (≈ 116k updates, 11 MiB of MRT).
pub const TARGET_ANNOUNCEMENTS: u64 = 100_000;
/// Generations timed for `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Decode-only passes timed for `mrt.decode_ns_per_record`.
const DECODE_REPEATS: usize = 3;

/// The generator configuration for `seed`.
pub fn config(seed: u64) -> Mar20Config {
    let mut cfg =
        Mar20Config { seed, target_announcements: TARGET_ANNOUNCEMENTS, ..Default::default() };
    cfg.universe.seed = seed;
    cfg
}

/// What the tables job produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Tables {
    /// Table 1.
    pub overview: OverviewStats,
    /// Table 2's announcement-type counts.
    pub counts: TypeCounts,
    /// Run statistics.
    pub stats: PipelineStats,
}

fn open(day: &MrtDay, epoch: u32) -> MrtSource<&[u8]> {
    MrtSource::new(&day.bytes[..], "rrc00", epoch).with_route_servers(day.route_servers.clone())
}

fn stage(day: &MrtDay) -> CleaningStage<'_> {
    CleaningStage::new(&day.registry, CleaningConfig::default())
}

/// One untraced pass, as a user runs it.
pub fn pass(day: &MrtDay, epoch: u32) -> Result<Tables, String> {
    let out = PipelineBuilder::new(open(day, epoch))
        .stages(stage(day))
        .sink((OverviewSink::default(), CountsSink::default()))
        .run()
        .map_err(|e| e.to_string())?;
    let (overview, counts) = out.sink;
    Ok(Tables { overview: overview.finish(), counts: counts.finish(), stats: out.stats })
}

/// One traced pass: the benchmark drives `Pipeline::new` +
/// `next_item`/`feed` itself, so `feed`'s self time is the classifier.
/// Returns the output, the pass's wall seconds and its spans' ledger.
pub fn traced_pass(day: &MrtDay, epoch: u32) -> Result<(Tables, f64, Ledger), String> {
    let tracer = Tracer::default();
    let mut driver = tracer.buf(0);
    let mut source =
        TracedSource::new(open(day, epoch), "collector.source", tracer.buf(0), SAMPLE_EVERY);
    let sink = (
        TracedSink::new(OverviewSink::default(), "core.sink.overview", tracer.buf(0)),
        TracedSink::new(CountsSink::default(), "core.sink.counts", tracer.buf(0)),
    );
    let mut pipeline =
        Pipeline::new(TracedStage::new(stage(day), "core.clean", tracer.buf(0)), sink);
    let start = Instant::now();
    while let Some(item) = source.next_item().map_err(|e| e.to_string())? {
        driver.time("core.classify", || pipeline.feed(item));
    }
    let seconds = start.elapsed().as_secs_f64();
    let out = pipeline.finish();
    let (overview, counts) = out.sink;
    let tables = Tables {
        overview: overview.into_inner().finish(),
        counts: counts.into_inner().finish(),
        stats: out.stats,
    };
    drop((source, driver, out.stages));
    Ok((tables, seconds, Ledger::from_spans(tracer.take())))
}

/// The batch reference on the same bytes: materialize, `clean_archive`,
/// `overview`, `classify_archive`.
pub fn reference(day: &MrtDay, epoch: u32) -> Result<(OverviewStats, TypeCounts), String> {
    let mut archive =
        UpdateArchive::from_source(&mut open(day, epoch), epoch).map_err(|e| e.to_string())?;
    clean_archive(&mut archive, &day.registry, &CleaningConfig::default());
    Ok((overview(&archive), classify_archive(&archive).counts))
}

/// A decode-only drain of `UpdateStream::next_message`: (records,
/// seconds).
fn decode_pass(day: &MrtDay, epoch: u32) -> Result<(u64, f64), String> {
    let start = Instant::now();
    let mut stream = UpdateStream::new(&day.bytes[..], epoch);
    while let Some(msg) = stream.next_message().map_err(|e| e.to_string())? {
        std::hint::black_box(msg);
    }
    Ok((stream.records_read(), start.elapsed().as_secs_f64()))
}

/// Runs the workload.
pub fn run(spec: RunSpec) -> Outcome {
    let cfg = config(spec.seed);
    let epoch = cfg.epoch_seconds;
    let mut out = Outcome::default();
    let (day, setup_s) = timed_setup(SETUP_REPEATS, || generate_mrt_day(&cfg));

    let mut first: Option<Tables> = None;
    let mut check_pass = |out: &mut Outcome, result: Result<Tables, String>| -> u64 {
        match result {
            Ok(tables) => {
                let items = tables.stats.updates;
                match &first {
                    None => first = Some(tables),
                    Some(f) => out.check(*f == tables, || "a pass differed from the first".into()),
                }
                items
            }
            Err(e) => {
                out.check(false, || format!("pass failed: {e}"));
                0
            }
        }
    };

    if !spec.trace {
        let window = Window::measure(&spec, || {
            let start = Instant::now();
            let result = pass(&day, epoch);
            let seconds = start.elapsed().as_secs_f64();
            let items = check_pass(&mut out, result);
            out.attempted += items;
            Pass { items, seconds }
        });
        window.report(&mut out, setup_s);
    } else {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        let deadline = spec.deadline();
        while traced.len() < super::MIN_PASSES || Instant::now() < deadline {
            let start = Instant::now();
            let result = pass(&day, epoch);
            let seconds = start.elapsed().as_secs_f64();
            let items = check_pass(&mut out, result);
            out.attempted += items;
            untraced.push(ratio(items as f64, seconds));
            match traced_pass(&day, epoch) {
                Ok((tables, seconds, ledger)) => {
                    let items = tables.stats.updates;
                    out.attempted += items;
                    traced.push((tables, seconds, ledger));
                }
                Err(e) => out.check(false, || format!("traced pass failed: {e}")),
            }
        }
        for (tables, _, _) in &traced {
            out.check(Some(tables) == first.as_ref(), || {
                "a traced pass differed from the untraced output".into()
            });
        }
        report_layers(&mut out, &traced, median(&untraced));
        let mut decode = Vec::new();
        for _ in 0..DECODE_REPEATS {
            match decode_pass(&day, epoch) {
                Ok((records, seconds)) => decode.push(ratio(seconds * 1e9, records as f64)),
                Err(e) => out.check(false, || format!("decode pass failed: {e}")),
            }
        }
        out.set("mrt.decode_ns_per_record", median(&decode));
        out.set("tracegen.generate_s", setup_s);
    }

    match (reference(&day, epoch), &first) {
        (Ok((overview, counts)), Some(f)) => {
            out.check(overview == f.overview, || "Table 1 differs from the batch reference".into());
            out.check(counts == f.counts, || "TypeCounts differ from the batch reference".into());
        }
        (Err(e), _) => out.check(false, || format!("batch reference failed: {e}")),
        (_, None) => out.check(false, || "no pass completed".into()),
    }
    out
}

/// Per-layer metrics over the traced passes (medians across passes).
fn report_layers(out: &mut Outcome, traced: &[(Tables, f64, Ledger)], untraced_rate: f64) {
    let per_item = |layer: &str| -> f64 {
        median(&traced.iter().map(|(_, _, l)| l.per_item_ns(layer)).collect::<Vec<_>>())
    };
    out.set("collector.source_ns_per_item", per_item("collector.source"));
    out.set("core.clean.ns_per_item", per_item("core.clean"));
    out.set("core.classify.ns_per_item", per_item("core.classify"));
    out.set("core.sink.overview.ns_per_item", per_item("core.sink.overview"));
    out.set("core.sink.counts.ns_per_item", per_item("core.sink.counts"));
    let of = |f: &dyn Fn(&(Tables, f64, Ledger)) -> f64| -> f64 {
        median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    out.set(
        "core.clean.kept_ratio",
        of(&|(t, _, _)| ratio(t.stats.kept as f64, t.stats.updates as f64)),
    );
    out.set("core.classify.peak_state_bytes", of(&|(t, _, _)| t.stats.peak_state_bytes as f64));
    out.set("trace.coverage", of(&|(_, _, l)| l.coverage()));
    let traced_rate = of(&|(t, s, _)| ratio(t.stats.updates as f64, *s));
    out.set("trace.overhead_pct", overhead_pct(untraced_rate, traced_rate));
}
