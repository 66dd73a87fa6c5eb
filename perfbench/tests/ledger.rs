//! Span self-time and coverage arithmetic, and the metric catalog against
//! `BENCHMARK.json`.

use perfbench::metrics::{median, quantile, Outcome, END_TO_END, PER_LAYER};
use perfbench::trace::{Ledger, Span, ITEM, PASS};

fn span(layer: &'static str, track: u32, start_ns: u64, end_ns: u64) -> Span {
    Span { layer, track, start_ns, end_ns }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // item [0,100] ⊃ source [10,40] ⊃ decode [15,25]; item ⊃ sink [50,90].
    let ledger = Ledger::from_spans(vec![
        span("sink", 0, 50, 90),
        span("decode", 0, 15, 25),
        span(ITEM, 0, 0, 100),
        span("source", 0, 10, 40),
    ]);
    assert_eq!(ledger.get(ITEM).self_ns, 100 - 30 - 40);
    assert_eq!(ledger.get("source").self_ns, 30 - 10);
    assert_eq!(ledger.get("source").total_ns, 30);
    assert_eq!(ledger.get("decode").self_ns, 10);
    assert_eq!(ledger.get("sink").self_ns, 40);
    assert_eq!(ledger.get("sink").calls, 1);
    // Non-root self time (20 + 10 + 40) over root time (100).
    assert!((ledger.coverage() - 0.7).abs() < 1e-12);
    assert!((ledger.per_item_ns("sink") - 40.0).abs() < 1e-12);
}

#[test]
fn tracks_do_not_nest_into_each_other() {
    // Overlapping intervals on different threads are unrelated.
    let ledger = Ledger::from_spans(vec![
        span(PASS, 0, 0, 100),
        span("a", 0, 0, 60),
        span(PASS, 1, 10, 50),
        span("b", 1, 20, 50),
    ]);
    assert_eq!(ledger.get(PASS).self_ns, 40 + 10);
    assert_eq!(ledger.get(PASS).total_ns, 140);
    assert_eq!(ledger.get("a").self_ns, 60);
    assert_eq!(ledger.get("b").self_ns, 30);
    assert!((ledger.coverage() - 90.0 / 140.0).abs() < 1e-12);
}

#[test]
fn siblings_and_equal_starts_nest_by_containment() {
    // The longer of two spans starting together is the parent; a span
    // starting where its sibling ended is not that sibling's child.
    let ledger = Ledger::from_spans(vec![
        span("child", 0, 0, 10),
        span(ITEM, 0, 0, 30),
        span("next", 0, 10, 30),
    ]);
    assert_eq!(ledger.get(ITEM).self_ns, 0);
    assert_eq!(ledger.get("child").self_ns, 10);
    assert_eq!(ledger.get("next").self_ns, 20);
    assert!((ledger.coverage() - 1.0).abs() < 1e-12);
}

#[test]
fn empty_ledger_reads_zero() {
    let ledger = Ledger::from_spans(Vec::new());
    assert_eq!(ledger.coverage(), 0.0);
    assert_eq!(ledger.per_item_ns("anything"), 0.0);
    assert_eq!(ledger.get("anything").calls, 0);
}

#[test]
fn quantiles_interpolate_between_ranks() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
}

#[test]
fn result_line_lists_the_catalog_with_units() {
    let mut out = Outcome { attempted: 10, ..Default::default() };
    out.set("items_per_s", 1.5);
    let line = out.to_json(END_TO_END);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
    assert!(line.contains("\"items_per_s\": {\"value\": 1.5, \"unit\": \"items/s\"}"));
    assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    out.check(false, || "broken".into());
    assert!(!out.correct());
    assert!(out.to_json(END_TO_END).contains("\"failed\": 1"));
}

/// `BENCHMARK.json` (at the repository root) must declare exactly the
/// catalog's metrics, with the same units and in the same order.
#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').expect("name closes")].to_owned();
                let unit = entry.split("\"unit\": \"").nth(1).expect("unit present");
                (name, unit[..unit.find('"').expect("unit closes")].to_owned())
            })
            .collect()
    };
    let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(section("end_to_end"), owned(END_TO_END));
    assert_eq!(section("per_layer"), owned(PER_LAYER));
}
