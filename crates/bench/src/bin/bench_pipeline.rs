//! Pipeline throughput measurement with machine-readable output — the
//! perf-trajectory anchor for the streaming redesign.
//!
//! Measures, per workload size: streaming one-pass analysis (cleaning +
//! classification + Table 1/2 sinks) over MRT bytes, the sharded variant,
//! and the batch path (materialize → clean → classify) for comparison.
//! Emits `BENCH_pipeline.json` (or `--out <path>`) so CI can archive the
//! numbers run over run.
//!
//! ```sh
//! cargo run --release -p kcc_bench --bin bench_pipeline -- \
//!     --sizes 10000,100000 --threads 4 --out BENCH_pipeline.json
//! ```
//!
//! Batch runs are skipped above `--batch-cap` updates (default 200k):
//! materializing the day at 1M+ is exactly what the streaming path
//! exists to avoid.

use kcc_bench::args::{flag, list};
use kcc_bench::mrtgen::{generate_mrt_day, MrtDay};
use kcc_bench::report::{self, cpu_seconds, measure, object, Json, Measurement};
use kcc_collector::UpdateArchive;
use kcc_core::pipeline::PipelineBuilder;
use kcc_core::table::{overview, OverviewSink};
use kcc_core::{
    classify_archive, clean_archive, CleaningConfig, CleaningStage, CountsSink, MrtSource,
};
use kcc_tracegen::Mar20Config;

/// Sampling interval for the instrumented run: every N-th update is
/// wall-clocked through each pipeline phase (the `--profile-every`
/// default the daemon also uses).
const PROFILE_EVERY: u64 = 64;
/// Interleaved plain/instrumented pass pairs for the overhead figure.
/// Adjacent-in-time passes see the most similar machine conditions, so
/// each pair's on-CPU ratio is one (noisy) estimate of the true cost.
/// The pairs split into [`OVERHEAD_BLOCKS`] time-separated blocks; each
/// block yields an interquartile-trimmed mean, and the figure is the
/// *minimum* block estimate: ambient load spikes pollute whole blocks
/// (the noise is correlated over seconds, so averaging across a spike
/// cannot remove it) and only ever inflate them, while a real
/// instrumentation regression inflates every block. The minimum is the
/// least-polluted look at the true cost — biased slightly low, which is
/// the right tradeoff for a gate meant to catch cost *regressions*.
const OVERHEAD_REPEATS: usize = 48;
/// Time-separated estimate blocks for the overhead figure (see
/// [`OVERHEAD_REPEATS`]).
const OVERHEAD_BLOCKS: usize = 3;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sizes: Vec<u64> = list(&argv, "--sizes").unwrap_or_else(|| vec![10_000, 100_000]);
    let out_path: String = flag(&argv, "--out").unwrap_or_else(|| "BENCH_pipeline.json".into());
    let threads: usize = flag(&argv, "--threads").unwrap_or(4);
    let batch_cap: u64 = flag(&argv, "--batch-cap").unwrap_or(200_000);

    let mut rows = Vec::new();
    for &target in &sizes {
        let cfg = Mar20Config { target_announcements: target, ..Default::default() };
        println!("== generating ~{target} announcements to MRT bytes ==");
        let MrtDay { bytes, updates, registry, route_servers } = generate_mrt_day(&cfg);
        println!("   {} updates, {:.1} MiB", updates, bytes.len() as f64 / (1024.0 * 1024.0));
        let open = || {
            MrtSource::new(&bytes[..], "rrc00", cfg.epoch_seconds)
                .with_route_servers(route_servers.clone())
        };

        let streaming = measure(|| {
            let stage = CleaningStage::new(&registry, CleaningConfig::default());
            let out = PipelineBuilder::new(open())
                .stages(stage)
                .sink((OverviewSink::default(), CountsSink::default()))
                .run()
                .expect("in-memory MRT cannot fail");
            out.stats.updates
        });
        println!(
            "   streaming: {:.3}s  ({:.0} updates/s)",
            streaming.seconds, streaming.updates_per_sec
        );

        let sharded = measure(|| {
            let out = PipelineBuilder::new(open())
                .sink((OverviewSink::default(), CountsSink::default()))
                .shards(threads)
                .stages_with(|| CleaningStage::new(&registry, CleaningConfig::default()))
                .run()
                .expect("in-memory MRT cannot fail");
            out.stats.updates
        });
        println!(
            "   sharded×{threads}: {:.3}s  ({:.0} updates/s)",
            sharded.seconds, sharded.updates_per_sec
        );

        // Metrics overhead: the identical builder chain with and without
        // sampled per-phase profiling. Both halves of a pair run
        // back-to-back (the most similar machine conditions available)
        // and are compared on on-CPU time, so each pair's ratio is one
        // noisy estimate of the true cost; the trimmed mean over all
        // pairs is the gated figure. Measured on the largest size only —
        // the cost is a property of the instrumentation, and sub-50ms
        // runs cannot resolve the sub-2% difference CI gates on.
        let measure_overhead = Some(target) == sizes.iter().copied().max();
        let overhead = measure_overhead.then(|| {
            let mut instrumented = None;
            let mut best_instr = f64::MAX;
            let mut ratios = Vec::with_capacity(OVERHEAD_REPEATS);
            let run_plain = || {
                measure(|| {
                    let out = PipelineBuilder::new(open())
                        .stages(CleaningStage::new(&registry, CleaningConfig::default()))
                        .sink((OverviewSink::default(), CountsSink::default()))
                        .run()
                        .expect("in-memory MRT cannot fail");
                    out.stats.updates
                })
            };
            let run_instr = || {
                measure(|| {
                    let out = PipelineBuilder::new(open())
                        .stages(CleaningStage::new(&registry, CleaningConfig::default()))
                        .sink((OverviewSink::default(), CountsSink::default()))
                        .profile(PROFILE_EVERY)
                        .run()
                        .expect("in-memory MRT cannot fail");
                    assert!(out.profile.is_some(), "profiling was enabled");
                    out.stats.updates
                })
            };
            for i in 0..OVERHEAD_REPEATS {
                // Shift the heap layout between pairs: allocation-address
                // luck (page/cache-set collisions in the classifier maps)
                // can bias either variant by several percent for an
                // entire process lifetime. Holding a varying-size pad
                // during the pair moves subsequent allocations, turning
                // that per-process bias into per-pair noise the trimmed
                // mean cancels.
                let pad_len = (i % 61) * 4096 + (i % 13) * 64 + 1;
                let mut pad = vec![0u8; pad_len];
                for b in pad.iter_mut().step_by(4096) {
                    *b = 1;
                }
                std::hint::black_box(&mut pad);
                // Alternate which variant goes first so that any load
                // ramping across the measurement window biases half the
                // pairs one way and half the other.
                // Pairs compare on-CPU time (see [`cpu_seconds`]).
                let (plain, instr) = if i % 2 == 0 {
                    let p = cpu_seconds(run_plain);
                    (p, cpu_seconds(run_instr))
                } else {
                    let q = cpu_seconds(run_instr);
                    (cpu_seconds(run_plain), q)
                };
                ratios.push(instr.1 / plain.1);
                if instr.1 < best_instr {
                    best_instr = instr.1;
                    instrumented = Some(instr.0);
                }
            }
            let instrumented = instrumented.expect("at least one repeat");
            // Per block: drop the top and bottom quarter of pair ratios
            // (where noise hit only one half), average the rest. Figure:
            // minimum across blocks (see OVERHEAD_REPEATS).
            let block_estimate = |block: &[f64]| {
                let mut sorted = block.to_vec();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let trim = sorted.len() / 4;
                let kept = &sorted[trim..sorted.len() - trim];
                kept.iter().sum::<f64>() / kept.len() as f64
            };
            let overhead_percent = (ratios
                .chunks(OVERHEAD_REPEATS / OVERHEAD_BLOCKS)
                .map(block_estimate)
                .fold(f64::MAX, f64::min)
                - 1.0)
                * 100.0;
            println!(
                "   instrumented (1/{PROFILE_EVERY} sampling): {:.3}s  ({:.0} updates/s, \
             {overhead_percent:+.2}% overhead)",
                instrumented.seconds, instrumented.updates_per_sec
            );
            (instrumented, overhead_percent)
        });

        let batch = if updates <= batch_cap {
            let m = measure(|| {
                let mut archive = UpdateArchive::from_source(&mut open(), cfg.epoch_seconds)
                    .expect("in-memory MRT cannot fail");
                clean_archive(&mut archive, &registry, &CleaningConfig::default());
                let _ = overview(&archive);
                let _ = classify_archive(&archive).counts;
                archive.update_count() as u64
            });
            println!("   batch:     {:.3}s  ({:.0} updates/s)", m.seconds, m.updates_per_sec);
            Some(m)
        } else {
            println!("   batch:     skipped (> {batch_cap} updates; see --batch-cap)");
            None
        };

        let mut row = vec![
            ("target_announcements", target.into()),
            ("updates", updates.into()),
            ("mrt_bytes", bytes.len().into()),
            ("streaming", streaming.to_json()),
            ("sharded", object([("threads", threads.into()), ("result", sharded.to_json())])),
        ];
        if let Some((instrumented, overhead_percent)) = &overhead {
            row.push((
                "instrumented",
                object([
                    ("profile_every", PROFILE_EVERY.into()),
                    ("result", instrumented.to_json()),
                    ("overhead_percent", (*overhead_percent).into()),
                ]),
            ));
        }
        row.push(("batch", batch.as_ref().map_or(Json::Null, Measurement::to_json)));
        rows.push(object(row));
    }

    let json = report::write(&object([("bench", "pipeline".into()), ("results", rows.into())]));
    std::fs::write(&out_path, json).expect("write BENCH_pipeline.json");
    println!("wrote {out_path}");
}
