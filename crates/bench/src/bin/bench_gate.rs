//! Throughput regression gate: compares a freshly measured `BENCH_*.json`
//! against the committed baseline and fails on drift beyond a tolerance.
//!
//! Both files are read through [`kcc_bench::report`]: every leaf is
//! addressed by its path (`results[0].streaming.updates_per_sec`), so a
//! renamed, moved or dropped key is a hard failure, not a silently
//! re-paired comparison. Rates are matched baseline-path → fresh-path;
//! any baseline key absent from the fresh run fails the gate.
//!
//! Both runs must also have measured the same workload: every baseline
//! leaf that is not a measured figure (`bench`, `threads`, `updates`,
//! `mrt_bytes`, `n_ases`, `counts.*`, …) must reproduce exactly in the
//! fresh run, or the gate fails naming the path and both values.
//!
//! Each `updates_per_sec` pair is printed as a per-figure delta row
//! (baseline, fresh, % change, verdict); `--summary FILE` additionally
//! writes the table as markdown for CI artifacts.
//!
//! ```sh
//! bench_gate BENCH_pipeline.json /tmp/fresh/BENCH_pipeline.json
//! bench_gate --tolerance 0.25 --summary deltas.md baseline.json measured.json
//! ```

use std::fmt::Write as _;
use std::process::ExitCode;

use kcc_bench::args::flag;
use kcc_bench::report::{flatten, is_measured, parse, Json};

/// One compared throughput figure.
struct Delta {
    path: String,
    baseline: f64,
    measured: f64,
}

impl Delta {
    fn ratio(&self) -> f64 {
        self.measured / self.baseline
    }

    fn percent(&self) -> f64 {
        (self.ratio() - 1.0) * 100.0
    }
}

/// The gate's verdict over two parsed files.
struct Comparison {
    deltas: Vec<Delta>,
    /// `overhead_percent` figures, gated absolutely against the cap (a
    /// cost ceiling, not a drift band — the committed baseline being
    /// small must not excuse a fresh run that blows the budget).
    overheads: Vec<Delta>,
    /// Baseline leaf paths with no counterpart in the fresh run.
    missing: Vec<String>,
    /// Workload (non-[`is_measured`]) leaves whose fresh value differs
    /// from the baseline's, as `(path, baseline, fresh)`.
    mismatched: Vec<(String, Json, Json)>,
}

fn compare(baseline: &Json, measured: &Json) -> Comparison {
    let mut base_leaves = Vec::new();
    let mut meas_leaves = Vec::new();
    flatten(baseline, "", &mut base_leaves);
    flatten(measured, "", &mut meas_leaves);

    let mut missing = Vec::new();
    let mut mismatched = Vec::new();
    let mut deltas = Vec::new();
    let mut overheads = Vec::new();
    for (path, value) in &base_leaves {
        let Some((_, fresh)) = meas_leaves.iter().find(|(p, _)| p == path) else {
            missing.push(path.clone());
            continue;
        };
        if !is_measured(path) && fresh != value {
            mismatched.push((path.clone(), value.clone(), fresh.clone()));
        }
        if let (true, Json::Number(b), Json::Number(m)) =
            (path.ends_with("updates_per_sec"), value, fresh)
        {
            deltas.push(Delta { path: path.clone(), baseline: *b, measured: *m });
        }
        if let (true, Json::Number(b), Json::Number(m)) =
            (path.ends_with("overhead_percent"), value, fresh)
        {
            overheads.push(Delta { path: path.clone(), baseline: *b, measured: *m });
        }
    }
    Comparison { deltas, overheads, missing, mismatched }
}

/// Renders the per-figure delta table (markdown — readable in job logs
/// and as an uploaded artifact).
fn render_summary(deltas: &[Delta], tolerance: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| figure | baseline /s | fresh /s | delta | verdict |");
    let _ = writeln!(out, "|---|---:|---:|---:|---|");
    for d in deltas {
        let within = (d.ratio() - 1.0).abs() <= tolerance;
        let _ = writeln!(
            out,
            "| {} | {:.0} | {:.0} | {:+.1}% | {} |",
            d.path.trim_end_matches(".updates_per_sec"),
            d.baseline,
            d.measured,
            d.percent(),
            if within { "ok" } else { "OUT OF RANGE" }
        );
    }
    out
}

/// Renders the overhead-cap table: each `overhead_percent` figure's
/// fresh value against the absolute cap.
fn render_overheads(overheads: &[Delta], cap: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| figure | baseline % | fresh % | cap % | verdict |");
    let _ = writeln!(out, "|---|---:|---:|---:|---|");
    for d in overheads {
        let _ = writeln!(
            out,
            "| {} | {:+.2} | {:+.2} | {:.2} | {} |",
            d.path.trim_end_matches(".overhead_percent"),
            d.baseline,
            d.measured,
            cap,
            if d.measured <= cap { "ok" } else { "OVER CAP" }
        );
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: bench_gate [--tolerance FRACTION] [--overhead-cap PERCENT] \
             [--summary FILE] <baseline.json> <measured.json>"
        );
        return ExitCode::SUCCESS;
    }
    let tolerance: f64 = flag(&args, "--tolerance").unwrap_or(0.25);
    let overhead_cap: f64 = flag(&args, "--overhead-cap").unwrap_or(2.0);
    let summary_path: Option<String> = flag(&args, "--summary");
    // Every gate flag takes a value; the rest are the two files.
    let files: Vec<&String> = (0..args.len())
        .filter(|&i| !args[i].starts_with("--") && (i == 0 || !args[i - 1].starts_with("--")))
        .map(|i| &args[i])
        .collect();
    let [baseline_path, measured_path] = files.as_slice() else {
        eprintln!("bench_gate: expected exactly two files (baseline, measured); see --help");
        return ExitCode::FAILURE;
    };

    let read_parse = |path: &str| -> Option<Json> {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| parse(&text).map_err(|e| format!("parse {path}: {e}")))
            .map_err(|e| eprintln!("bench_gate: {e}"))
            .ok()
    };
    let (Some(baseline), Some(measured)) = (read_parse(baseline_path), read_parse(measured_path))
    else {
        return ExitCode::FAILURE;
    };

    let cmp = compare(&baseline, &measured);
    if !cmp.missing.is_empty() {
        for path in &cmp.missing {
            eprintln!("bench_gate: baseline key `{path}` missing from {measured_path}");
        }
        eprintln!(
            "bench_gate: {} baseline key(s) absent from the fresh run — the bench shape \
             changed; regenerate the committed baseline",
            cmp.missing.len()
        );
        return ExitCode::FAILURE;
    }
    if !cmp.mismatched.is_empty() {
        for (path, base, fresh) in &cmp.mismatched {
            eprintln!(
                "bench_gate: `{path}` is {base} in {baseline_path} but {fresh} in {measured_path}"
            );
        }
        eprintln!(
            "bench_gate: {} workload key(s) differ — the fresh run measured a different \
             workload; rerun it with the baseline's parameters",
            cmp.mismatched.len()
        );
        return ExitCode::FAILURE;
    }
    if cmp.deltas.is_empty() {
        eprintln!("bench_gate: no updates_per_sec figures in {baseline_path}");
        return ExitCode::FAILURE;
    }

    let mut summary = render_summary(&cmp.deltas, tolerance);
    if !cmp.overheads.is_empty() {
        summary.push('\n');
        summary.push_str(&render_overheads(&cmp.overheads, overhead_cap));
    }
    print!("{summary}");
    if let Some(path) = summary_path {
        if let Err(e) = std::fs::write(&path, &summary) {
            eprintln!("bench_gate: write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let rates_ok = cmp.deltas.iter().all(|d| (d.ratio() - 1.0).abs() <= tolerance);
    let overheads_ok = cmp.overheads.iter().all(|d| d.measured <= overhead_cap);
    if !rates_ok {
        eprintln!(
            "bench_gate: throughput drifted beyond ±{:.0}% — investigate, or regenerate the \
             committed baseline if the change is intended",
            tolerance * 100.0
        );
    }
    if !overheads_ok {
        eprintln!(
            "bench_gate: metrics instrumentation overhead exceeds the {overhead_cap:.1}% cap — \
             the sampled-profiling cost regressed"
        );
    }
    if rates_ok && overheads_ok {
        println!(
            "bench_gate: {} figures within ±{:.0}% of {baseline_path}{}",
            cmp.deltas.len(),
            tolerance * 100.0,
            if cmp.overheads.is_empty() {
                String::new()
            } else {
                format!(
                    ", {} overhead figure(s) under the {overhead_cap:.1}% cap",
                    cmp.overheads.len()
                )
            }
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matched_rates_compare_by_path() {
        let base = parse(
            r#"{"results":[{"streaming":{"updates_per_sec":100}},
                           {"streaming":{"updates_per_sec":200}}]}"#,
        )
        .unwrap();
        let meas = parse(
            r#"{"results":[{"streaming":{"updates_per_sec":110}},
                           {"streaming":{"updates_per_sec":150}}]}"#,
        )
        .unwrap();
        let cmp = compare(&base, &meas);
        assert!(cmp.missing.is_empty());
        assert_eq!(cmp.deltas.len(), 2);
        assert!((cmp.deltas[0].ratio() - 1.1).abs() < 1e-9);
        assert!((cmp.deltas[1].ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn renamed_key_is_reported_missing() {
        // The old string-scanning gate paired these two rates silently;
        // structurally, the rename is a missing baseline key.
        let base = parse(r#"{"streaming":{"updates_per_sec":100},"batch":{"updates_per_sec":90}}"#)
            .unwrap();
        let meas =
            parse(r#"{"serial":{"updates_per_sec":100},"batch":{"updates_per_sec":90}}"#).unwrap();
        let cmp = compare(&base, &meas);
        assert_eq!(cmp.missing, vec!["streaming.updates_per_sec".to_string()]);
        assert_eq!(cmp.deltas.len(), 1, "the surviving key still compares");
    }

    #[test]
    fn dropped_array_entry_is_reported_missing() {
        let base =
            parse(r#"{"results":[{"updates_per_sec":100},{"updates_per_sec":200}]}"#).unwrap();
        let meas = parse(r#"{"results":[{"updates_per_sec":100}]}"#).unwrap();
        let cmp = compare(&base, &meas);
        assert_eq!(cmp.missing, vec!["results[1].updates_per_sec".to_string()]);
    }

    #[test]
    fn live_scaling_sweep_shape_gates_every_point() {
        // The exact shape bench_live emits: one array entry per peer
        // count. Every point's rate must pair by path, and a vanished
        // point (say the 5000-session one regressing out of the sweep)
        // must fail the gate as a missing key, not pass silently.
        let base = parse(
            r#"{"bench":"live","results":[
                {"peers":4,"updates":100000,"seconds":0.9,"updates_per_sec":110000},
                {"peers":64,"updates":100000,"seconds":0.8,"updates_per_sec":126000},
                {"peers":1000,"updates":100000,"seconds":0.9,"updates_per_sec":111000},
                {"peers":5000,"updates":100000,"seconds":1.2,"updates_per_sec":80000}]}"#,
        )
        .unwrap();
        let full = compare(&base, &base);
        assert!(full.missing.is_empty());
        assert_eq!(full.deltas.len(), 4, "one gated rate per sweep point");
        assert!(full.deltas.iter().all(|d| d.path.starts_with("results[")));

        let truncated = parse(
            r#"{"bench":"live","results":[
                {"peers":4,"updates":100000,"seconds":0.9,"updates_per_sec":110000}]}"#,
        )
        .unwrap();
        let cmp = compare(&base, &truncated);
        for point in 1..4 {
            let key = format!("results[{point}].updates_per_sec");
            assert!(cmp.missing.contains(&key), "{key} must fail the gate: {:?}", cmp.missing);
        }
    }

    #[test]
    fn overhead_figures_are_collected_and_capped_absolutely() {
        let base = parse(
            r#"{"results":[{"instrumented":{"profile_every":64,
                "result":{"updates_per_sec":100000},"overhead_percent":0.40}}]}"#,
        )
        .unwrap();
        let meas = parse(
            r#"{"results":[{"instrumented":{"profile_every":64,
                "result":{"updates_per_sec":99000},"overhead_percent":3.10}}]}"#,
        )
        .unwrap();
        let cmp = compare(&base, &meas);
        assert_eq!(cmp.overheads.len(), 1);
        let d = &cmp.overheads[0];
        assert_eq!(d.path, "results[0].instrumented.overhead_percent");
        // A small baseline never excuses a fresh run over the cap.
        assert!(d.measured > 2.0, "fresh overhead must be gated, not its drift");
        let table = render_overheads(&cmp.overheads, 2.0);
        assert!(table.contains("OVER CAP"), "{table}");
        let ok = render_overheads(
            &[Delta { path: "x.overhead_percent".into(), baseline: 0.4, measured: 1.9 }],
            2.0,
        );
        assert!(ok.contains("| ok |"), "{ok}");
    }

    #[test]
    fn summary_marks_out_of_range_rows() {
        let deltas = vec![
            Delta { path: "a.updates_per_sec".into(), baseline: 100.0, measured: 120.0 },
            Delta { path: "b.updates_per_sec".into(), baseline: 100.0, measured: 60.0 },
        ];
        let text = render_summary(&deltas, 0.25);
        assert!(text.contains("| a | 100 | 120 | +20.0% | ok |"), "{text}");
        assert!(text.contains("| b | 100 | 60 | -40.0% | OUT OF RANGE |"), "{text}");
    }

    /// The pipeline shape, trimmed: a 10k-target day, four shards.
    const PIPELINE: &str = r#"{"bench":"pipeline","results":[{"target_announcements":10000,
        "updates":32130,"streaming":{"seconds":0.030717,"updates_per_sec":1046010},
        "sharded":{"threads":4,"result":{"seconds":0.063407,"updates_per_sec":506723}}}]}"#;

    /// Workload mismatches gating `PIPELINE` against it with `from` → `to`.
    fn mismatched_after(from: &str, to: &str) -> Vec<String> {
        let cmp = compare(&parse(PIPELINE).unwrap(), &parse(&PIPELINE.replace(from, to)).unwrap());
        assert!(cmp.missing.is_empty());
        cmp.mismatched.into_iter().map(|(path, _, _)| path).collect()
    }

    #[test]
    fn thread_count_mismatch_fails_the_gate() {
        let paths = mismatched_after("\"threads\":4", "\"threads\":2");
        assert_eq!(paths, ["results[0].sharded.threads"]);
    }

    #[test]
    fn update_count_mismatch_fails_the_gate() {
        // bench_corpus at --target 25000 against a 40000 baseline, say.
        let paths = mismatched_after("\"updates\":32130", "\"updates\":31968");
        assert_eq!(paths, ["results[0].updates"]);
    }

    #[test]
    fn drifting_rates_on_the_same_workload_still_pass() {
        assert!(mismatched_after("1046010", "900000").is_empty());
        assert!(mismatched_after("0.063407", "0.070000").is_empty());
    }
}
