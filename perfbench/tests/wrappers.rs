//! Wrapper transparency: a pipeline whose source, stage and sink members
//! are wrapped in spans produces output byte-identical to the unwrapped
//! one, serially and across a corpus.

use kcc_bench::mrtgen::{generate_mrt_day, MrtDay};
use kcc_core::table::OverviewSink;
use kcc_core::{
    CleaningConfig, CleaningStage, Corpus, CountsSink, MrtSource, Pipeline, PipelineBuilder,
    UpdateSource, WatchConfig, WatchSink,
};
use kcc_tracegen::universe::UniverseConfig;
use kcc_tracegen::Mar20Config;
use perfbench::trace::{Ledger, TracedSink, TracedSource, TracedStage, Tracer, ITEM};

fn small_day(seed: u64, collectors: usize) -> MrtDay {
    generate_mrt_day(&Mar20Config {
        seed,
        target_announcements: 4_000,
        universe: UniverseConfig {
            seed,
            n_collectors: collectors,
            n_peers: 8,
            n_sessions: 12,
            n_prefixes_v4: 150,
            n_prefixes_v6: 15,
            ..Default::default()
        },
        ..Default::default()
    })
}

fn open(day: &MrtDay) -> MrtSource<&[u8]> {
    MrtSource::new(&day.bytes[..], "rrc00", Mar20Config::default().epoch_seconds)
        .with_route_servers(day.route_servers.clone())
}

/// Everything the tables pipeline produces, rendered.
fn unwrapped(day: &MrtDay) -> String {
    let out = PipelineBuilder::new(open(day))
        .stages(CleaningStage::new(&day.registry, CleaningConfig::default()))
        .sink((OverviewSink::default(), CountsSink::default()))
        .run()
        .expect("in-memory MRT");
    let (overview, counts) = out.sink;
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        overview.finish(),
        counts.finish(),
        out.stats,
        out.stages.report()
    )
}

fn wrapped(day: &MrtDay, every: u64) -> (String, Ledger) {
    let tracer = Tracer::default();
    let mut driver = tracer.buf(0);
    let mut source = TracedSource::new(open(day), "source", tracer.buf(0), every);
    let stage = TracedStage::new(
        CleaningStage::new(&day.registry, CleaningConfig::default()),
        "clean",
        tracer.buf(0),
    );
    let sink = (
        TracedSink::new(OverviewSink::default(), "overview", tracer.buf(0)),
        TracedSink::new(CountsSink::default(), "counts", tracer.buf(0)),
    );
    let mut pipeline = Pipeline::new(stage, sink);
    while let Some(item) = source.next_item().expect("in-memory MRT") {
        driver.time("feed", || pipeline.feed(item));
    }
    let out = pipeline.finish();
    let (overview, counts) = out.sink;
    let rendered = format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        overview.into_inner().finish(),
        counts.into_inner().finish(),
        out.stats,
        out.stages.into_inner().report()
    );
    drop((source, driver));
    (rendered, Ledger::from_spans(tracer.take()))
}

#[test]
fn wrapped_serial_pipeline_is_byte_identical() {
    let day = small_day(7, 1);
    let reference = unwrapped(&day);
    for every in [1, 3, 16] {
        let (out, ledger) = wrapped(&day, every);
        assert_eq!(out, reference, "sampling 1 in {every} changed the output");
        assert!(ledger.get(ITEM).calls > 0, "sampled items recorded");
        for layer in ["source", "clean", "overview", "counts", "feed"] {
            assert!(ledger.get(layer).calls > 0, "{layer} recorded spans");
        }
        assert!(ledger.coverage() > 0.0 && ledger.coverage() <= 1.0);
    }
    // Tracing every item records one item span per item pulled.
    let (_, ledger) = wrapped(&day, 1);
    let updates: u64 = reference.lines().nth(2).map_or(0, |stats| {
        let field = stats.split("updates: ").nth(1).expect("stats list updates");
        field[..field.find(',').expect("field ends")].parse().expect("a count")
    });
    assert!(ledger.get(ITEM).calls >= updates);
}

fn watch_corpus(day: &[(String, Vec<u8>)], traced: Option<&Tracer>) -> Vec<String> {
    let epoch = Mar20Config::default().epoch_seconds;
    let mut corpus = Corpus::new();
    for (i, (name, bytes)) in day.iter().enumerate() {
        let source = MrtSource::new(&bytes[..], name, epoch);
        match traced {
            None => corpus.push(name, source),
            Some(t) => corpus.push(name, TracedSource::new(source, "source", t.buf(i as u32), 2)),
        }
        .expect("unique names");
    }
    let lines = |report: kcc_core::WatchReport| {
        let mut lines: Vec<String> = report.alerts.iter().map(|a| a.to_line()).collect();
        lines.push(format!("{} {} {}", report.updates, report.streams, report.windows));
        lines
    };
    let builder = PipelineBuilder::collectors(corpus).threads(2).stages_for(|_: &str| ());
    match traced {
        None => lines(
            builder
                .sinks_for(|_: &str| WatchSink::new(WatchConfig::default()))
                .run()
                .expect("in-memory corpus")
                .combined
                .finish(),
        ),
        Some(t) => lines(
            builder
                .sinks_for(|_: &str| {
                    TracedSink::new(WatchSink::new(WatchConfig::default()), "watch", t.buf(9))
                })
                .run()
                .expect("in-memory corpus")
                .combined
                .into_inner()
                .finish(),
        ),
    }
}

#[test]
fn wrapped_corpus_members_are_byte_identical() {
    let cfg = kcc_tracegen::MultiVantageConfig {
        base: Mar20Config {
            seed: 11,
            target_announcements: 4_000,
            universe: UniverseConfig {
                seed: 11,
                n_collectors: 3,
                n_peers: 9,
                n_sessions: 12,
                n_prefixes_v4: 150,
                n_prefixes_v6: 15,
                ..Default::default()
            },
            ..Default::default()
        },
        force_second_granularity: Vec::new(),
    };
    let day: Vec<(String, Vec<u8>)> = kcc_tracegen::vantage_names(&cfg.base)
        .into_iter()
        .map(|name| {
            let (bytes, _, _) = kcc_bench::mrtgen::generate_vantage_mrt(&cfg, &name);
            (name, bytes)
        })
        .collect();
    let tracer = Tracer::default();
    let traced = watch_corpus(&day, Some(&tracer));
    assert_eq!(traced, watch_corpus(&day, None));
    let ledger = Ledger::from_spans(tracer.take());
    assert!(ledger.get("source").calls > 0 && ledger.get("watch").calls > 0);
}
