//! Parallel scenario sweep: vendor profile × cleaning placement × MRAI ×
//! topology size, fanned across worker threads.
//!
//! Each cell builds an independent simulated Internet (seeded, so the
//! topology dimension is held constant across the other dimensions), runs
//! the converge → flap → heal → reflap timeline, and classifies the
//! collector stream into the paper's announcement types. One table
//! compares all cells; the thread count changes only the wall clock.
//!
//! ```sh
//! sweep [--threads N] [--seed S] [--quick] [--speedup]
//! ```
//!
//! * `--threads N` — worker threads (default: 4, capped by the host).
//! * `--quick` — the ≤8-cell CI smoke matrix instead of the 36-cell one.
//! * `--speedup` — rerun the same matrix single-threaded afterwards,
//!   verify the results agree, and print the speedup.

use std::time::Instant;

use kcc_bench::args::flag;
use kcc_bench::sweep::{run_sweep, SweepConfig};
use kcc_bench::Args;
use kcc_core::report::render_table;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(argv.clone());
    let threads = flag(&argv, "--threads").unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get().min(4)).unwrap_or(1)
    });
    let want_speedup = argv.iter().any(|a| a == "--speedup");

    let cfg = if args.quick {
        SweepConfig::smoke(args.seed)
    } else {
        SweepConfig::paper_matrix(args.seed)
    };
    let cells = cfg.matrix();
    println!(
        "== Scenario sweep: {} cells, {} threads, seed {} ==\n",
        cells.len(),
        threads,
        cfg.seed
    );

    let t0 = Instant::now();
    let results = run_sweep(&cells, cfg.seed, threads);
    let wall = t0.elapsed();

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.cell.vendor.name.to_string(),
                r.cell.cleaning.label().to_string(),
                format!("{}s", r.cell.mrai.as_micros() / 1_000_000),
                r.cell.n_ases.to_string(),
                r.collector_messages.to_string(),
                r.counts.initial.to_string(),
                r.counts.pc.to_string(),
                r.counts.pn.to_string(),
                r.counts.nc.to_string(),
                r.counts.nn.to_string(),
                r.counts.xc.to_string(),
                r.counts.xn.to_string(),
                r.counts.withdrawals.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "vendor", "cleaning", "mrai", "ASes", "msgs", "initial", "pc", "pn", "nc", "nn",
                "xc", "xn", "wd"
            ],
            &rows
        )
    );
    println!(
        "wall clock: {:.3}s ({} cells / {} threads)",
        wall.as_secs_f64(),
        cells.len(),
        threads
    );

    if want_speedup {
        let t1 = Instant::now();
        let serial = run_sweep(&cells, cfg.seed, 1);
        let serial_wall = t1.elapsed();
        assert_eq!(serial, results, "parallel and serial sweeps must produce identical results");
        println!(
            "serial wall clock: {:.3}s — speedup at {} threads: {:.2}x",
            serial_wall.as_secs_f64(),
            threads,
            serial_wall.as_secs_f64() / wall.as_secs_f64().max(1e-9),
        );
    }
}
