//! Minimal command-line argument parsing for the harness binaries.

use std::str::FromStr;

/// Parsed common arguments: `--seed N`, `--scale F`, `--quick`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// RNG seed (default 42).
    pub seed: u64,
    /// Scale multiplier on default workload sizes (default 1.0).
    pub scale: f64,
    /// Quick mode: shrink workloads for smoke runs.
    pub quick: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args { seed: 42, scale: 1.0, quick: false }
    }
}

impl Args {
    /// Parses from an iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Args {
        let argv: Vec<String> = args.into_iter().collect();
        let d = Args::default();
        Args {
            seed: flag(&argv, "--seed").unwrap_or(d.seed),
            scale: flag(&argv, "--scale").unwrap_or(d.scale),
            quick: argv.iter().any(|a| a == "--quick"),
        }
    }

    /// Parses from the process environment.
    pub fn from_env() -> Args {
        Self::parse(std::env::args().skip(1))
    }

    /// A workload size scaled by `--scale` (and `/10` under `--quick`).
    pub fn sized(&self, base: u64) -> u64 {
        let scaled = (base as f64 * self.scale) as u64;
        if self.quick {
            (scaled / 10).max(1)
        } else {
            scaled.max(1)
        }
    }
}

/// The value after the last `name` in `argv` that parses as `T`; `None`
/// when the flag is absent or none of its values parse. Lenient like every
/// harness flag: unknown flags and bad values are ignored.
pub fn flag<T: FromStr>(argv: &[String], name: &str) -> Option<T> {
    argv.windows(2).rev().filter(|w| w[0] == name).find_map(|w| w[1].parse().ok())
}

/// The comma-separated list after the last `name` in `argv`, keeping the
/// items that parse as `T`; `None` when the flag is absent.
pub fn list<T: FromStr>(argv: &[String], name: &str) -> Option<Vec<T>> {
    let value = &argv.windows(2).rev().find(|w| w[0] == name)?[1];
    Some(value.split(',').filter_map(|s| s.trim().parse().ok()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a, Args::default());
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&["--seed", "7", "--scale", "0.5", "--quick"]);
        assert_eq!(a.seed, 7);
        assert!((a.scale - 0.5).abs() < 1e-12);
        assert!(a.quick);
    }

    #[test]
    fn ignores_unknown_and_bad_values() {
        let a = parse(&["--bogus", "--seed", "notanumber"]);
        assert_eq!(a.seed, 42);
    }

    #[test]
    fn sized_scaling() {
        let a = parse(&["--scale", "2"]);
        assert_eq!(a.sized(100), 200);
        let q = parse(&["--quick"]);
        assert_eq!(q.sized(100), 10);
        assert_eq!(q.sized(1), 1);
    }

    #[test]
    fn flag_and_list_take_the_last_parseable_value() {
        let argv = ["--threads", "2", "--sizes", "10, x,20", "--threads", "bad"].map(String::from);
        assert_eq!(flag::<usize>(&argv, "--threads"), Some(2));
        assert_eq!(flag::<String>(&argv, "--out"), None);
        assert_eq!(list::<u64>(&argv, "--sizes"), Some(vec![10, 20]));
        assert_eq!(list::<u64>(&argv, "--peers"), None);
    }
}
