//! The README's prose, held to the repository. Its Rust blocks run as
//! doctests of the umbrella crate (`src/lib.rs` includes `README.md`);
//! these tests check what a doctest cannot: the committed-figure tables
//! equal the `BENCH_*.json` baselines (read through `kcc_bench::report`,
//! as `bench_gate` reads them), the documented reproduction commands
//! name the gate CI runs, and every path and binary the README cites
//! exists. Re-pinning a baseline, or deleting a cited file, without
//! updating the README fails here.

use std::fs;

use kcc_bench::report::{flatten, parse, Json};
use keep_communities_clean::analysis::report::group_thousands;

fn readme() -> String {
    fs::read_to_string("README.md").unwrap()
}

/// The README section under `## {heading}`, up to the next `## `.
fn section(heading: &str) -> String {
    readme()
        .split(&format!("## {heading}"))
        .nth(1)
        .unwrap_or_else(|| panic!("README has a {heading} section"))
        .split("\n## ")
        .next()
        .unwrap()
        .to_string()
}

/// The number at `results[i].{field}` of the committed baseline `file`,
/// for every row `i` in order.
fn column(file: &str, field: &str) -> Vec<u64> {
    let mut leaves = Vec::new();
    flatten(&parse(&fs::read_to_string(file).unwrap()).unwrap(), "", &mut leaves);
    (0..)
        .map_while(|i| leaves.iter().find(|(p, _)| *p == format!("results[{i}].{field}")))
        .map(|(path, value)| match value {
            Json::Number(n) => *n as u64,
            other => panic!("{file}: `{path}` is not a number: {other:?}"),
        })
        .collect()
}

#[test]
fn readme_performance_table_matches_committed_baseline() {
    let section = section("Performance");
    let rates = column("BENCH_pipeline.json", "streaming.updates_per_sec");
    assert_eq!(rates.len(), 2, "baseline pins two day sizes");
    for rate in rates {
        let figure = format!("{} upd/s", group_thousands(rate));
        assert!(
            section.contains(&figure),
            "README Performance table is stale: missing \"{figure}\" \
             from the committed BENCH_pipeline.json"
        );
    }
}

#[test]
fn readme_live_scaling_table_matches_committed_baseline() {
    let section = section("Performance");
    let peers = column("BENCH_live.json", "peers");
    let rates = column("BENCH_live.json", "updates_per_sec");
    assert_eq!((peers.len(), rates.len()), (4, 4), "baseline pins four sweep points");
    assert_eq!(peers.last(), Some(&5_000), "sweep tops out at 5k sessions");
    for (peers, rate) in peers.into_iter().zip(rates) {
        let row = format!("| {} | {} upd/s |", group_thousands(peers), group_thousands(rate));
        assert!(
            section.contains(&row),
            "README live scaling table is stale: missing \"{row}\" \
             from the committed BENCH_live.json"
        );
    }
}

#[test]
fn readme_scaling_table_matches_committed_baseline() {
    let section = section("Internet-scale simulation");
    let columns: Vec<Vec<u64>> = ["n_ases", "routers", "sessions", "events", "updates_per_sec"]
        .iter()
        .map(|field| column("BENCH_sim.json", field))
        .collect();
    assert!(columns.iter().all(|c| c.len() == 3), "baseline pins three internet sizes");
    assert_eq!(columns[0].last(), Some(&75_000), "sweep tops out at 75k ASes");
    for i in 0..3 {
        let cells: Vec<String> = columns.iter().map(|c| group_thousands(c[i])).collect();
        let row = format!("| {} ev/s |", cells.join(" | "));
        assert!(
            section.contains(&row),
            "README internet scaling table is stale: missing \"{row}\" \
             from the committed BENCH_sim.json"
        );
    }
}

#[test]
fn readme_reproduction_commands_match_ci_gate() {
    let section = section("Performance");
    let ci = fs::read_to_string(".github/workflows/ci.yml").unwrap();

    // The README documents the exact gate CI enforces.
    assert!(section.contains("--tolerance 0.25"), "README must state the gate tolerance");
    assert!(
        section.contains("--overhead-cap 2"),
        "README must state the absolute instrumentation-overhead cap"
    );
    assert!(
        ci.contains("--tolerance 0.25 --overhead-cap 2 --summary"),
        "CI bench-smoke must gate at the documented tolerance and overhead cap \
         and publish delta tables"
    );
    assert!(
        ci.contains("for b in pipeline live corpus watch sim"),
        "CI bench-smoke must gate all five committed baselines"
    );
    // And the commands name binaries that exist in the bench crate.
    for bin in ["bench_pipeline", "bench_gate"] {
        assert!(section.contains(bin), "README reproduction commands mention {bin}");
        assert!(
            fs::metadata(format!("crates/bench/src/bin/{bin}.rs")).is_ok(),
            "{bin} binary exists"
        );
    }
}

#[test]
fn readme_reproduction_commands_match_ci() {
    let section = section("Internet-scale simulation");
    let ci = fs::read_to_string(".github/workflows/ci.yml").unwrap();

    // The README documents the exact gate CI enforces, over the same
    // sizes as the committed baseline (bench_gate treats a missing
    // baseline key as a hard failure, so the sizes must agree).
    assert!(section.contains("--tolerance 0.25"), "README must state the gate tolerance");
    assert!(section.contains("--sizes 10000,25000,75000"), "README names the baseline sizes");
    assert!(
        ci.contains("bench_sim -- --sizes 10000,25000,75000"),
        "CI bench-smoke must measure the documented sizes"
    );
    // The documented memory ceiling is the one sim-scale enforces.
    assert!(section.contains("1 GiB"), "README states the sim-scale memory ceiling");
    assert!(
        ci.contains("sim-scale") && ci.contains("ulimit -v 1048576"),
        "CI has a sim-scale job with a 1 GiB address-space cap"
    );
    // And the commands name binaries that exist in the bench crate.
    for bin in ["bench_sim", "bench_gate"] {
        assert!(section.contains(bin), "README reproduction commands mention {bin}");
        assert!(
            fs::metadata(format!("crates/bench/src/bin/{bin}.rs")).is_ok(),
            "{bin} binary exists"
        );
    }
    // The section names the tests that pin the refactor.
    for t in ["sim_invariance", "golden_lab"] {
        assert!(section.contains(t), "README names tests/{t}.rs");
        assert!(fs::metadata(format!("tests/{t}.rs")).is_ok(), "tests/{t}.rs exists");
    }
}

/// The Observability section names the real scrape surfaces and the
/// determinism tests it cites.
#[test]
fn readme_observability_section_names_real_surfaces() {
    let section = section("Observability");
    for needle in
        ["`metrics` command", "--profile-every", "--metrics-out", "daemon-soak", "bench_gate"]
    {
        assert!(section.contains(needle), "Observability section lost {needle:?}");
    }
    for path in ["crates/obs/tests/render_props.rs", "tests/obs_determinism.rs"] {
        assert!(section.contains(path), "Observability section must cite {path}");
    }
}

/// Every `tests/`, `crates/` and `examples/` path and every `--bin NAME`
/// the README names exists.
#[test]
fn readme_cites_only_paths_and_binaries_that_exist() {
    let readme = readme();
    let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let mut paths = Vec::new();
    for root in ["tests/", "crates/", "examples/"] {
        for (at, _) in readme.match_indices(root) {
            if readme[..at].chars().next_back().is_some_and(is_path_char) {
                continue; // inside a longer path, e.g. `crates/obs/tests/…`
            }
            let rest = &readme[at..];
            let end = rest.find(|c: char| !is_path_char(c)).unwrap_or(rest.len());
            paths.push(rest[..end].trim_end_matches(['.', '/']).to_string());
        }
    }
    assert!(paths.iter().any(|p| p == "tests/live_e2e.rs"), "path scan found {paths:?}");
    for path in &paths {
        assert!(fs::metadata(path).is_ok(), "README cites {path}, which does not exist");
    }

    let manifest = fs::read_to_string("crates/bench/Cargo.toml").unwrap();
    let bins: Vec<&str> = readme
        .split("--bin ")
        .skip(1)
        .map(|rest| rest.split(|c: char| c.is_whitespace() || c == '`').next().unwrap())
        .collect();
    assert!(bins.contains(&"kcc-corpus"), "binary scan found {bins:?}");
    for bin in bins {
        let declared = manifest.contains(&format!("name = \"{bin}\""));
        let by_file = fs::metadata(format!("crates/bench/src/bin/{bin}.rs")).is_ok();
        assert!(declared || by_file, "README runs --bin {bin}, which kcc_bench does not build");
    }
}
