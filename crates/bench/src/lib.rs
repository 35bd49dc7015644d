//! Shared plumbing for the experiment harness binaries.
//!
//! Each binary under `src/bin/` regenerates one figure or table of the
//! paper's evaluation (see `DESIGN.md` §3 for the index and
//! `EXPERIMENTS.md` for paper-vs-measured records).

pub mod emit;
pub mod scenario;

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// A harness binary's command line: `--json` plus the valued flags the
/// binary names. An unknown flag, a flag without its value and a value
/// that does not parse each panic with a message naming the flag.
pub struct Args {
    /// `--json` was given: print one JSON object instead of the table.
    pub json: bool,
    values: HashMap<String, String>,
}

impl Args {
    /// Parses the process's arguments; `valued` lists the flags that
    /// take a value (`--files`, ...). A repeated flag keeps its last value.
    pub fn parse(valued: &[&str]) -> Args {
        Args::parse_from(std::env::args().skip(1), valued)
    }

    /// [`Args::parse`] over `args` (the program name already skipped).
    fn parse_from(args: impl IntoIterator<Item = String>, valued: &[&str]) -> Args {
        let mut out = Args { json: false, values: HashMap::new() };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--json" {
                out.json = true;
            } else if valued.contains(&arg.as_str()) {
                let value = args.next().unwrap_or_else(|| panic!("{arg} takes a value"));
                out.values.insert(arg, value);
            } else {
                panic!("unknown flag {arg:?} (supported: --json {})", valued.join(" "));
            }
        }
        out
    }

    /// `flag`'s value, if it was given.
    pub fn opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.values.get(flag).map(|v| parse_value(flag, v))
    }

    /// `flag`'s value, or `default` when it was not given.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.opt(flag).unwrap_or(default)
    }

    /// `flag`'s comma-separated values (`--clients 2,8`), or `default`.
    pub fn list<T: FromStr>(&self, flag: &str, default: Vec<T>) -> Vec<T> {
        match self.values.get(flag) {
            Some(v) => v.split(',').map(|s| parse_value(flag, s.trim())).collect(),
            None => default,
        }
    }
}

fn parse_value<T: FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| panic!("{flag}: cannot parse {v:?}"))
}

/// Prints a table header row.
pub fn header(cols: &[&str]) {
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>16}")).collect();
    println!("{}", row.join(" "));
    println!("{}", "-".repeat(17 * cols.len()));
}

/// Prints one table row.
pub fn row(cells: &[&dyn Display]) {
    let row: Vec<String> = cells.iter().map(|c| format!("{c:>16}")).collect();
    println!("{}", row.join(" "));
}

/// Formats a float with two decimals for table cells.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as `N.Nx`.
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.1}x", a / b.max(1e-9))
}

/// Minimal JSON validation for the bench smoke stage (`verify.sh`).
///
/// The harness binaries emit machine-readable results under `--json`;
/// this module checks the output actually parses, with no external
/// dependencies. It validates structure only — no value model is built.
pub mod json {
    /// Validates that `input` is exactly one well-formed JSON value
    /// (trailing whitespace allowed), and that whatever sits under a
    /// `"witnesses"` key anywhere in it is a witness list: at most 16
    /// objects of exactly the shape `scenario::Witness` renders. Returns
    /// the byte offset and a message on failure.
    pub fn validate(input: &str) -> Result<(), String> {
        let b = input.as_bytes();
        let mut p = Parser { b, i: 0 };
        p.skip_ws();
        p.value()?;
        p.skip_ws();
        if p.i != b.len() {
            return Err(p.err("trailing data after JSON value"));
        }
        Ok(())
    }

    struct Parser<'a> {
        b: &'a [u8],
        i: usize,
    }

    /// The keys of one witness, in order.
    const WITNESS: [&[u8]; 5] = [b"client", b"op", b"fid", b"expected_tag", b"observed_tag"];

    impl<'a> Parser<'a> {
        fn err(&self, msg: &str) -> String {
            format!("byte {}: {}", self.i, msg)
        }

        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.i += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected '{}'", c as char)))
            }
        }

        fn lit(&mut self, s: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(s.as_bytes()) {
                self.i += s.len();
                Ok(())
            } else {
                Err(self.err(&format!("expected literal '{s}'")))
            }
        }

        fn value(&mut self) -> Result<(), String> {
            match self.peek() {
                Some(b'{') => self.object().map(drop),
                Some(b'[') => self.array_of(Self::value).map(drop),
                Some(b'"') => self.string(),
                Some(b't') => self.lit("true"),
                Some(b'f') => self.lit("false"),
                Some(b'n') => self.lit("null"),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(self.err("expected a JSON value")),
            }
        }

        /// Parses an object; returns its keys (raw, between the quotes).
        fn object(&mut self) -> Result<Vec<&'a [u8]>, String> {
            let mut keys = Vec::new();
            self.eat(b'{')?;
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.i += 1;
                return Ok(keys);
            }
            loop {
                self.skip_ws();
                let start = self.i;
                self.string()?;
                let key = &self.b[start + 1..self.i - 1];
                keys.push(key);
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                if key == b"witnesses" {
                    if self.array_of(Self::witness)? > 16 {
                        return Err(self.err("more than 16 witnesses"));
                    }
                } else {
                    self.value()?;
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b'}') => {
                        self.i += 1;
                        return Ok(keys);
                    }
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }

        fn witness(&mut self) -> Result<(), String> {
            if self.peek() != Some(b'{') || self.object()? != WITNESS {
                return Err(self.err(
                    "a witness is {client, op, fid, expected_tag, observed_tag}, in that order",
                ));
            }
            Ok(())
        }

        /// Parses an array whose elements `elem` parses; returns how
        /// many there were.
        fn array_of(&mut self, elem: fn(&mut Self) -> Result<(), String>) -> Result<usize, String> {
            self.eat(b'[')?;
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.i += 1;
                return Ok(0);
            }
            let mut n = 0;
            loop {
                self.skip_ws();
                elem(self)?;
                n += 1;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(b']') => {
                        self.i += 1;
                        return Ok(n);
                    }
                    _ => return Err(self.err("expected ',' or ']' in array")),
                }
            }
        }

        fn string(&mut self) -> Result<(), String> {
            self.eat(b'"')?;
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.i += 1;
                        return Ok(());
                    }
                    Some(b'\\') => {
                        self.i += 1;
                        match self.peek() {
                            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                                self.i += 1
                            }
                            Some(b'u') => {
                                self.i += 1;
                                for _ in 0..4 {
                                    match self.peek() {
                                        Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                        _ => return Err(self.err("bad \\u escape")),
                                    }
                                }
                            }
                            _ => return Err(self.err("bad escape")),
                        }
                    }
                    Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                    Some(_) => self.i += 1,
                }
            }
        }

        fn number(&mut self) -> Result<(), String> {
            if self.peek() == Some(b'-') {
                self.i += 1;
            }
            let digits = |p: &mut Self| -> Result<(), String> {
                let start = p.i;
                while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                    p.i += 1;
                }
                if p.i == start {
                    Err(p.err("expected digits"))
                } else {
                    Ok(())
                }
            };
            digits(self)?;
            if self.peek() == Some(b'.') {
                self.i += 1;
                digits(self)?;
            }
            if matches!(self.peek(), Some(b'e' | b'E')) {
                self.i += 1;
                if matches!(self.peek(), Some(b'+' | b'-')) {
                    self.i += 1;
                }
                digits(self)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(ratio(10.0, 2.0), "5.0x");
    }

    #[test]
    fn json_accepts_well_formed_values() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-1.5e10",
            r#""esc \" \\ ÿ""#,
            r#"{"a": [1, 2, {"b": null}], "c": "x"}"#,
            "  {\"k\": 1}\n",
        ] {
            assert!(json::validate(ok).is_ok(), "rejected {ok:?}");
        }
    }

    #[test]
    fn json_holds_witness_lists_to_their_shape() {
        use dfs_types::{Fid, VnodeId, VolumeId};
        use scenario::Witness;
        let mut list = Vec::new();
        let fid = Fid::new(VolumeId(1), VnodeId(7), 3);
        Witness::note(&mut list, 2, "lost_update", fid, 0xabc, Some(&0xdefu64.to_le_bytes()));
        Witness::note(&mut list, 3, "agreement", fid, 0xabc, None);
        let report = |witnesses: &str| format!(r#"{{"ok": false, "sweep": [{{"witnesses": {witnesses}}}]}}"#);
        assert_eq!(json::validate(&report(&Witness::json(&list))), Ok(()));
        assert!(Witness::json(&list).contains(r#""observed_tag": "0x0000000000000def""#));
        assert!(Witness::json(&list).contains(r#""observed_tag": null"#));
        assert_eq!(json::validate(&report("[]")), Ok(()));
        for bad in [
            "3",
            "[3]",
            r#"[{"client": 1}]"#,
            r#"[{"op": "r", "client": 1, "fid": "f", "expected_tag": "1", "observed_tag": null}]"#,
        ] {
            assert!(json::validate(&report(bad)).is_err(), "accepted witnesses {bad}");
        }
        let w = Witness::json(&list[..1]);
        let seventeen = format!("[{}]", vec![&w[1..w.len() - 1]; 17].join(", "));
        assert!(json::validate(&report(&seventeen)).is_err(), "accepted 17 witnesses");
        // The cap: a report never carries more than 16.
        for _ in 0..40 {
            Witness::note(&mut list, 1, "lost_update", fid, 1, None);
        }
        assert_eq!(list.len(), scenario::MAX_WITNESSES);
    }

    #[test]
    fn json_rejects_malformed_values() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} extra",
            "\"unterminated",
            "01e",
            "nul",
            "{\"a\": \"\x01\"}",
        ] {
            assert!(json::validate(bad).is_err(), "accepted {bad:?}");
        }
    }

    fn args(line: &str, valued: &[&str]) -> Args {
        Args::parse_from(line.split_whitespace().map(String::from), valued)
    }

    #[test]
    fn args_read_json_values_and_lists_with_defaults() {
        let a = args("--files 8 --json --clients 2,4,16", &["--files", "--clients", "--ops"]);
        assert!(a.json);
        assert_eq!(a.get("--files", 64u32), 8);
        assert_eq!(a.get("--ops", 400u64), 400, "an absent flag keeps its default");
        assert_eq!(a.opt::<u32>("--ops"), None);
        assert_eq!(a.list("--clients", vec![2u32, 8]), vec![2, 4, 16]);
        let none = args("", &["--clients"]);
        assert!(!none.json);
        assert_eq!(none.list("--clients", vec![2u32, 8]), vec![2, 8]);
    }

    #[test]
    #[should_panic(expected = "unknown flag \"--fast\"")]
    fn args_panic_on_an_unknown_flag() {
        args("--json --fast", &["--files"]);
    }

    #[test]
    #[should_panic(expected = "--files takes a value")]
    fn args_panic_on_a_missing_value() {
        args("--files", &["--files"]);
    }

    #[test]
    #[should_panic(expected = "--files: cannot parse")]
    fn args_panic_on_an_unparsable_value() {
        args("--files many", &["--files"]).get("--files", 1u32);
    }
}
