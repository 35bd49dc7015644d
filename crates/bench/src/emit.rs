//! The one report type of the harness binaries.
//!
//! A binary builds its result once, as an [`Obj`] tree, and hands it to
//! [`crate::Args::print`], which renders it as [`Obj::json`] under
//! `--json` and as [`Obj::text`] otherwise — so the two forms cannot
//! drift apart. The JSON rendering is guaranteed to satisfy
//! [`crate::json::validate`], which `verify.sh` runs over every binary's
//! output.
//!
//! ```
//! use dfs_bench::emit::Obj;
//! let report = Obj::new()
//!     .field("bench", "t0_example")
//!     .field("ops", 128u64)
//!     .field("ratio", 1.5f64)
//!     .field_arr("sweep", [1u64, 2, 4]);
//! let s = report.json();
//! assert_eq!(s, r#"{"bench": "t0_example", "ops": 128, "ratio": 1.5, "sweep": [1, 2, 4]}"#);
//! assert!(dfs_bench::json::validate(&s).is_ok());
//! assert_eq!(report.text(), "bench: t0_example\nops: 128\nratio: 1.50\nsweep: [1, 2, 4]\n");
//! ```

use std::fmt::Write as _;

/// One value of a report: a scalar, an array or an object.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null` (an absent optional value).
    Null,
    /// A boolean.
    Bool(bool),
    /// Any integer the benches report.
    Int(i128),
    /// A float; NaN and infinities render as JSON `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// A nested object.
    Obj(Obj),
}

macro_rules! int_value {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Int(v as i128)
            }
        }
    )*};
}
int_value!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<Obj> for Value {
    fn from(v: Obj) -> Value {
        Value::Obj(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // Rust's shortest-roundtrip `Display` is always valid JSON;
            // `null` is the only honest JSON spelling of "not a number".
            Value::Float(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Float(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write_json(out);
                }
                out.push(']');
            }
            Value::Obj(o) => o.write_json(out),
        }
    }

    /// The value as JSON.
    pub fn json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// The value as one line of text: strings bare, floats with two
    /// decimals, an array or object as its JSON.
    fn cell(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Float(x) => format!("{x:.2}"),
            v => v.json(),
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A report object. Keys render in insertion order, so the same field
/// sequence always produces byte-identical output — the property the
/// scenario replay check (`EXPERIMENTS.md` T17) leans on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Obj {
    fields: Vec<(String, Value)>,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends `key: value`.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Appends `key: [values…]`.
    pub fn field_arr<T: Into<Value>>(self, key: &str, values: impl IntoIterator<Item = T>) -> Self {
        self.field(key, arr(values))
    }

    /// The object as one line of JSON: `", "` between items, `": "`
    /// after keys.
    pub fn json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_str(out, key);
            out.push_str(": ");
            value.write_json(out);
        }
        out.push('}');
    }

    /// The object for a reader: a scalar prints as `key: value`, a
    /// nested object indented under its key, and an array of objects as
    /// one aligned table whose header is the objects' keys. Floats print
    /// with two decimals; an array or object inside a table cell, or an
    /// array of scalars, prints as its JSON.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out, 0);
        out
    }

    fn write_text(&self, out: &mut String, indent: usize) {
        let pad = " ".repeat(indent);
        for (key, value) in &self.fields {
            match value {
                Value::Obj(o) if !o.fields.is_empty() => {
                    let _ = writeln!(out, "{pad}{key}:");
                    o.write_text(out, indent + 2);
                }
                Value::Arr(rows)
                    if !rows.is_empty() && rows.iter().all(|r| matches!(r, Value::Obj(_))) =>
                {
                    let _ = writeln!(out, "{pad}{key}:");
                    table(out, indent + 2, rows);
                }
                v => {
                    let _ = writeln!(out, "{pad}{key}: {}", v.cell());
                }
            }
        }
    }
}

/// Prints `rows` (all objects) as a table: one column per key, in the
/// order the keys first appear, every column right-aligned to its
/// widest cell.
fn table(out: &mut String, indent: usize, rows: &[Value]) {
    let rows: Vec<&[(String, Value)]> =
        rows.iter().map(|r| if let Value::Obj(o) = r { &o.fields[..] } else { &[] }).collect();
    let mut cols: Vec<&str> = Vec::new();
    for (key, _) in rows.iter().copied().flatten() {
        if !cols.contains(&key.as_str()) {
            cols.push(key);
        }
    }
    let cell = |row: &[(String, Value)], col: &str| {
        row.iter().find(|(k, _)| k == col).map_or(String::new(), |(_, v)| v.cell())
    };
    let mut lines = vec![cols.iter().map(|c| c.to_string()).collect::<Vec<_>>()];
    lines.extend(rows.iter().map(|&r| cols.iter().map(|c| cell(r, c)).collect()));
    let width = |i: usize| lines.iter().map(|l| l[i].chars().count()).max().unwrap_or(0);
    let widths: Vec<usize> = (0..cols.len()).map(width).collect();
    let pad = " ".repeat(indent);
    for (n, line) in lines.iter().enumerate() {
        let cells: Vec<String> =
            line.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        let _ = writeln!(out, "{pad}{}", cells.join("  "));
        if n == 0 {
            let rule = widths.iter().sum::<usize>() + 2 * cols.len().saturating_sub(1);
            let _ = writeln!(out, "{pad}{}", "-".repeat(rule));
        }
    }
}

/// An array value from an iterator.
pub fn arr<T: Into<Value>>(values: impl IntoIterator<Item = T>) -> Value {
    Value::Arr(values.into_iter().map(Into::into).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_render_valid_json_in_field_order() {
        let s = Obj::new()
            .field("bench", "demo")
            .field("n", 42u64)
            .field("neg", -3i64)
            .field("ok", true)
            .field("x", 1.5f64)
            .field("nan", f64::NAN)
            .field("none", Option::<u64>::None)
            .field("nested", Obj::new().field("k", "v"))
            .field_arr("seq", [1u64, 2, 3])
            .json();
        crate::json::validate(&s).expect("emitter output must parse");
        assert_eq!(
            s,
            "{\"bench\": \"demo\", \"n\": 42, \"neg\": -3, \"ok\": true, \"x\": 1.5, \
             \"nan\": null, \"none\": null, \"nested\": {\"k\": \"v\"}, \"seq\": [1, 2, 3]}"
        );
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let s = Obj::new().field("k", "a\"b\\c\nd\u{1}").json();
        crate::json::validate(&s).expect("escaped output must parse");
        assert_eq!(s, "{\"k\": \"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn arrays_of_objects_compose() {
        let rows = arr((0..2u64).map(|i| Obj::new().field("i", i))).json();
        assert_eq!(rows, "[{\"i\": 0}, {\"i\": 1}]");
        crate::json::validate(&rows).unwrap();
    }

    /// A report shaped like the binaries': top-level scalars, an array
    /// of row objects, a witness list and a non-finite float.
    fn nested_report() -> Obj {
        let witness = Obj::new()
            .field("client", 2u32)
            .field("op", "read")
            .field("fid", "1.7.3")
            .field("expected_tag", "0x0000000000000abc")
            .field("observed_tag", Option::<String>::None);
        Obj::new()
            .field("bench", "t0_demo")
            .field("handoffs", 100u64)
            .field("rpcs_per_handoff", 5.03f64)
            .field("ratio", f64::INFINITY)
            .field_arr(
                "sweep",
                (0..2u64).map(|i| {
                    Obj::new()
                        .field("clients", 2 + 6 * i)
                        .field("sim_net_ms", 0.25 * i as f64)
                        .field("ok", i == 0)
                        .field_arr("class_ops", [48u64, 30 * i])
                }),
            )
            .field_arr("witnesses", [witness])
            .field("run", Obj::new().field("seed", 17u64).field_arr("events", Vec::<Obj>::new()))
    }

    #[test]
    fn json_of_a_nested_report_keeps_the_eager_format() {
        let s = nested_report().json();
        assert_eq!(
            s,
            "{\"bench\": \"t0_demo\", \"handoffs\": 100, \"rpcs_per_handoff\": 5.03, \"ratio\": null, \
             \"sweep\": [{\"clients\": 2, \"sim_net_ms\": 0, \"ok\": true, \"class_ops\": [48, 0]}, \
             {\"clients\": 8, \"sim_net_ms\": 0.25, \"ok\": false, \"class_ops\": [48, 30]}], \
             \"witnesses\": [{\"client\": 2, \"op\": \"read\", \"fid\": \"1.7.3\", \
             \"expected_tag\": \"0x0000000000000abc\", \"observed_tag\": null}], \
             \"run\": {\"seed\": 17, \"events\": []}}"
        );
        assert_eq!(crate::json::validate(&s), Ok(()));
    }

    #[test]
    fn text_prints_rows_as_one_aligned_table() {
        let text = nested_report().text();
        let expected = "\
bench: t0_demo
handoffs: 100
rpcs_per_handoff: 5.03
ratio: inf
sweep:
  clients  sim_net_ms     ok  class_ops
  -------------------------------------
        2        0.00   true    [48, 0]
        8        0.25  false   [48, 30]
witnesses:
  client    op    fid        expected_tag  observed_tag
  -----------------------------------------------------
       2  read  1.7.3  0x0000000000000abc          null
run:
  seed: 17
  events: []
";
        assert_eq!(text, expected);
    }

    #[test]
    fn a_nested_array_in_a_row_prints_as_its_json() {
        let row = Obj::new().field("open", "read").field_arr("compatible_with", [true, false]);
        let text = Obj::new().field_arr("matrix", [row.clone()]).text();
        assert!(text.lines().nth(3).unwrap().ends_with("[true, false]"), "{text}");
        let nested = Obj::new().field_arr("rows", [Obj::new().field("inner", row)]).json();
        assert_eq!(crate::json::validate(&nested), Ok(()));
    }
}
