//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its result as the last line of standard
//! output: one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). Exits non-zero when any correctness check failed.

use std::process::ExitCode;

use perfbench::metrics::{ratio, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, RunSpec, NAMES};

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        NAMES.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, RunSpec), String> {
    let mut workload = None;
    let mut spec = RunSpec { seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: not {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => spec.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                spec.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(spec.seconds.is_finite() && spec.seconds >= 0.0) {
                    return Err(bad("a duration"));
                }
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, spec))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, spec) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut outcome = workloads::run(&workload, spec).expect("workload name was validated");
    outcome.set("failed_ratio", ratio(outcome.failed as f64, outcome.attempted as f64));
    for failure in &outcome.failures {
        eprintln!("perfbench: {workload}: check failed: {failure}");
    }
    let catalog = if spec.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.to_json(catalog));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
