//! The repository benchmark: four user-shaped workloads, their end-to-end
//! metrics, and a traced per-layer ledger measured from outside the
//! program.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload day_tables --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload makes its input from `--seed`, measures untraced passes
//! for `--seconds`, checks its outputs against a reference, and prints one
//! JSON object as its last line of output. With `--trace 1` it alternates
//! untraced and traced passes instead and prints the per-layer metrics.
//! See `perfbench/README.md` for what each metric means.

pub mod metrics;
pub mod procfs;
pub mod trace;
pub mod workloads;
