//! The `BENCH_*.json` report format. The `bench_*` binaries build a
//! [`Json`] tree and [`write`] it as one line, members in insertion
//! order; `bench_gate` and the README-table tests [`parse`] it back and
//! address each leaf by its path (`results[0].streaming.updates_per_sec`,
//! see [`flatten`]). Leaves under a [`MEASURED`] key drift run over run
//! and are written at that key's precision; every other leaf (`threads`,
//! `updates`, `counts.pc`, …) describes the workload and must reproduce
//! exactly for two reports to be comparable.

use std::fmt::{self, Write as _};
use std::time::Instant;

/// The measured keys and the decimals each is written with: seconds to
/// the µs, whole-number rates and byte counts, overhead to 0.01 %.
pub const MEASURED: [(&str, usize); 4] =
    [("seconds", 6), ("updates_per_sec", 0), ("overhead_percent", 2), ("peak_rss_bytes", 0)];

/// Whether the leaf at `path` is a measured figure (its last key is one
/// of [`MEASURED`]) rather than a workload descriptor.
pub fn is_measured(path: &str) -> bool {
    decimals(path.rsplit('.').next().unwrap_or(path)).is_some()
}

fn decimals(key: &str) -> Option<usize> {
    MEASURED.iter().find(|(k, _)| *k == key).map(|&(_, d)| d)
}

/// A parsed JSON value. Object member order is preserved so report rows
/// come out in file order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Members in file (or insertion) order.
    Object(Vec<(String, Json)>),
    /// Items in order.
    Array(Vec<Json>),
    /// Any JSON number.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// An object from `(key, value)` members, kept in the given order.
pub fn object<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Object(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

macro_rules! number_from {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Number(v as f64)
            }
        }
    )*};
}
number_from!(f64, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_owned())
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing data after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `lit`, or fails naming it.
    fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        let mut members = Vec::new();
        self.parse_seq("{", b'}', |p| {
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(":")?;
            p.skip_ws();
            members.push((key, p.parse_value()?));
            Ok(())
        })?;
        Ok(Json::Object(members))
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.parse_seq("[", b']', |p| {
            items.push(p.parse_value()?);
            Ok(())
        })?;
        Ok(Json::Array(items))
    }

    /// Parses `open [item (',' item)*] close`, calling `item` per item.
    fn parse_seq(
        &mut self,
        open: &str,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Bench files are ASCII; surrogate pairs are out
                            // of scope — map unpaired surrogates to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                        self.pos += 1;
                    }
                    s.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.error("invalid UTF-8 in string"))?,
                    );
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or_else(|| self.error("invalid number"))
    }
}

/// Flattens a JSON tree into `(path, leaf)` pairs in file order, with
/// paths like `results[0].streaming.updates_per_sec`.
pub fn flatten(value: &Json, prefix: &str, out: &mut Vec<(String, Json)>) {
    match value {
        Json::Object(members) => {
            for (key, v) in members {
                let path = if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                flatten(v, &path, out);
            }
        }
        Json::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(v, &format!("{prefix}[{i}]"), out);
            }
        }
        leaf => out.push((prefix.to_owned(), leaf.clone())),
    }
}

/// Renders `report` as one line of JSON plus a trailing newline: object
/// members in insertion order, numbers under a [`MEASURED`] key at that
/// key's precision, every other number in its shortest exact form.
pub fn write(report: &Json) -> String {
    format!("{report}\n")
}

impl fmt::Display for Json {
    /// The compact form [`write`] produces, without the newline.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, None)
    }
}

fn write_value(f: &mut fmt::Formatter<'_>, value: &Json, key: Option<&str>) -> fmt::Result {
    match value {
        Json::Object(members) => {
            f.write_char('{')?;
            for (i, (k, v)) in members.iter().enumerate() {
                f.write_str(if i > 0 { "," } else { "" })?;
                write_string(f, k)?;
                f.write_char(':')?;
                write_value(f, v, Some(k))?;
            }
            f.write_char('}')
        }
        Json::Array(items) => {
            f.write_char('[')?;
            for (i, v) in items.iter().enumerate() {
                f.write_str(if i > 0 { "," } else { "" })?;
                write_value(f, v, None)?;
            }
            f.write_char(']')
        }
        Json::Number(n) => match key.and_then(decimals) {
            Some(d) => write!(f, "{n:.d$}"),
            None => write!(f, "{n}"),
        },
        Json::String(s) => write_string(f, s),
        Json::Bool(b) => write!(f, "{b}"),
        Json::Null => f.write_str("null"),
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// One measured run: wall seconds and the update rate they give.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Wall-clock seconds (at least 1 ns).
    pub seconds: f64,
    /// Updates per wall-clock second.
    pub updates_per_sec: f64,
}

impl Measurement {
    /// `{"seconds":…,"updates_per_sec":…}`.
    pub fn to_json(&self) -> Json {
        object([("seconds", self.seconds.into()), ("updates_per_sec", self.updates_per_sec.into())])
    }
}

/// Wall-clocks `f`, which returns the number of updates it processed.
pub fn measure<F: FnOnce() -> u64>(f: F) -> Measurement {
    let start = Instant::now();
    let updates = f();
    let seconds = start.elapsed().as_secs_f64().max(1e-9);
    Measurement { seconds, updates_per_sec: updates as f64 / seconds }
}

/// Runs `f` and returns its result with the seconds the calling thread
/// spent on-CPU in it, or wall seconds where that is unavailable. On a
/// contended machine wall time includes run-queue waits the workload
/// never executed through, which drowns a sub-2% comparison; on-CPU time
/// excludes preemption noise entirely. The single-threaded streaming
/// pipeline and the simulator run on the calling thread, so this
/// captures exactly the measured work.
pub fn cpu_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = thread_cpu_ns();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    match (before, thread_cpu_ns()) {
        (Some(b), Some(a)) if a > b => (out, (a - b) as f64 * 1e-9),
        _ => (out, wall),
    }
}

/// Nanoseconds the calling thread has spent on-CPU (field 1 of
/// `/proc/thread-self/schedstat`); `None` where the file is unavailable
/// (non-Linux).
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat")
        .or_else(|_| std::fs::read_to_string("/proc/self/schedstat"))
        .ok()?;
    s.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(v: &Json) -> Vec<(String, Json)> {
        let mut out = Vec::new();
        flatten(v, "", &mut out);
        out
    }

    #[test]
    fn parses_bench_shaped_json() {
        let text = r#"{"bench":"pipeline","results":[{"updates":32130,
            "streaming":{"seconds":0.06,"updates_per_sec":508458},
            "ok":true,"note":null,"name":"a\nb"}]}"#;
        let leaves = leaves(&parse(text).unwrap());
        let find = |p: &str| leaves.iter().find(|(q, _)| q == p).map(|(_, v)| v.clone());
        assert_eq!(find("bench"), Some(Json::String("pipeline".into())));
        assert_eq!(find("results[0].streaming.updates_per_sec"), Some(Json::Number(508458.0)));
        assert_eq!(find("results[0].ok"), Some(Json::Bool(true)));
        assert_eq!(find("results[0].note"), Some(Json::Null));
        assert_eq!(find("results[0].name"), Some(Json::String("a\nb".into())));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn writes_nesting_and_null_in_insertion_order() {
        let row = object([
            ("updates", 32130u64.into()),
            ("sharded", object([("threads", 4usize.into()), ("result", object([]))])),
            ("batch", Json::Null),
        ]);
        let report = object([("bench", "pipeline".into()), ("results", vec![row].into())]);
        assert_eq!(
            write(&report),
            "{\"bench\":\"pipeline\",\"results\":[{\"updates\":32130,\
             \"sharded\":{\"threads\":4,\"result\":{}},\"batch\":null}]}\n"
        );
    }

    #[test]
    fn escapes_strings_so_they_parse_back() {
        let s = "quote\" back\\ nl\n tab\t cr\r bell\u{7} é";
        let text = write(&Json::String(s.into()));
        assert_eq!(text, "\"quote\\\" back\\\\ nl\\n tab\\t cr\\r bell\\u0007 é\"\n");
        assert_eq!(parse(&text).unwrap(), Json::String(s.into()));
    }

    #[test]
    fn measured_keys_are_written_at_their_precision() {
        let m = Measurement { seconds: 0.1474801, updates_per_sec: 508458.4 };
        let report = object([
            ("result", m.to_json()),
            ("overhead_percent", 0.356.into()),
            ("peak_rss_bytes", 35012608u64.into()),
            ("ratio", 0.25.into()),
        ]);
        assert_eq!(
            write(&report),
            "{\"result\":{\"seconds\":0.147480,\"updates_per_sec\":508458},\
             \"overhead_percent\":0.36,\"peak_rss_bytes\":35012608,\"ratio\":0.25}\n"
        );
    }

    /// Every committed baseline survives parse → write → parse
    /// unchanged, down to the bytes: the binaries that write through this
    /// module reproduce the committed format.
    #[test]
    fn committed_reports_round_trip() {
        for bench in ["pipeline", "live", "corpus", "watch", "sim"] {
            let file = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&file).unwrap();
            let tree = parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            let written = write(&tree);
            let again = parse(&written).unwrap();
            assert_eq!(again, tree, "{file}: tree changed in the round trip");
            let paths = |v: &Json| leaves(v).into_iter().map(|(p, _)| p).collect::<Vec<_>>();
            assert_eq!(paths(&again), paths(&tree), "{file}: leaf paths changed");
            assert_eq!(written, text, "{file}: writer does not reproduce the committed bytes");
        }
    }
}
