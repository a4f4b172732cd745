//! The common bench-artifact schema.
//!
//! Every bench target that exports machine-readable results writes one
//! `BENCH_<name>.json` file with the same four top-level keys:
//!
//! ```json
//! {
//!   "name": "gates",
//!   "config": {},
//!   "rows": [{"gate": "op_allocs_exact", "host_s": 0.01, "home_store": 3}],
//!   "asserts": [{"name": "op_allocs_exact", "pass": true, "detail": "..."}]
//! }
//! ```
//!
//! `config` records the knobs the run used, `rows` the measurement table
//! (one object per table row, bench-specific columns), and `asserts` the
//! acceptance checks with their verdicts — recorded *before* the process
//! panics on a failure, so a red CI job still uploads the numbers that
//! explain it. CI points `C4H_BENCH_DIR` at one directory and uploads the
//! whole set as a single artifact.

use std::fmt::{self, Write as _};
use std::path::PathBuf;

use c4h_telemetry::escape_into;

/// One JSON scalar in a report row or config entry.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// Unsigned integer.
    U(u64),
    /// Signed integer.
    I(i64),
    /// Float (non-finite values serialize as `null`).
    F(f64),
    /// String (escaped on write).
    S(String),
    /// Boolean.
    B(bool),
}

impl From<u64> for JsonVal {
    fn from(v: u64) -> Self {
        JsonVal::U(v)
    }
}

impl From<usize> for JsonVal {
    fn from(v: usize) -> Self {
        JsonVal::U(v as u64)
    }
}

impl From<u32> for JsonVal {
    fn from(v: u32) -> Self {
        JsonVal::U(u64::from(v))
    }
}

impl From<i64> for JsonVal {
    fn from(v: i64) -> Self {
        JsonVal::I(v)
    }
}

impl From<f64> for JsonVal {
    fn from(v: f64) -> Self {
        JsonVal::F(v)
    }
}

impl From<bool> for JsonVal {
    fn from(v: bool) -> Self {
        JsonVal::B(v)
    }
}

impl From<&str> for JsonVal {
    fn from(v: &str) -> Self {
        JsonVal::S(v.to_owned())
    }
}

impl From<String> for JsonVal {
    fn from(v: String) -> Self {
        JsonVal::S(v)
    }
}

/// Human-readable, as the bench targets print a column: integers whole,
/// floats to two places, strings bare.
impl fmt::Display for JsonVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonVal::U(v) => write!(f, "{v}"),
            JsonVal::I(v) => write!(f, "{v}"),
            JsonVal::F(v) => write!(f, "{v:.2}"),
            JsonVal::S(s) => f.write_str(s),
            JsonVal::B(v) => write!(f, "{v}"),
        }
    }
}

impl JsonVal {
    fn write_into(&self, out: &mut String) {
        match self {
            JsonVal::U(v) => {
                let _ = write!(out, "{v}");
            }
            JsonVal::I(v) => {
                let _ = write!(out, "{v}");
            }
            JsonVal::F(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            JsonVal::F(_) => out.push_str("null"),
            JsonVal::S(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            JsonVal::B(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
}

fn write_object(out: &mut String, fields: &[(String, JsonVal)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\": ");
        v.write_into(out);
    }
    out.push('}');
}

/// One acceptance check's recorded verdict.
#[derive(Debug, Clone)]
struct AssertRow {
    name: String,
    pass: bool,
    detail: String,
}

/// Accumulates one bench run's config, measurement rows, and acceptance
/// checks, then writes them as `BENCH_<name>.json` (see the module docs
/// for the schema).
///
/// The intended shape of a bench `main`:
///
/// ```no_run
/// let mut report = c4h_bench::BenchReport::new("gates");
/// report.push_row(vec![("gate", "recorder_zero_alloc".into()), ("allocs", 0u64.into())]);
/// report.check("recorder_zero_alloc", true, "allocs 0 (at most 32)");
/// report.finish(); // writes the JSON, then panics if any check failed
/// ```
#[derive(Debug)]
pub struct BenchReport {
    name: String,
    config: Vec<(String, JsonVal)>,
    rows: Vec<Vec<(String, JsonVal)>>,
    asserts: Vec<AssertRow>,
}

impl BenchReport {
    /// Starts a report for the bench named `name` (the file becomes
    /// `BENCH_<name>.json`).
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_owned(),
            config: Vec::new(),
            rows: Vec::new(),
            asserts: Vec::new(),
        }
    }

    /// Records one config knob the run used.
    pub fn config(&mut self, key: &str, value: impl Into<JsonVal>) {
        self.config.push((key.to_owned(), value.into()));
    }

    /// Appends one measurement row (bench-specific columns).
    pub fn push_row(&mut self, fields: Vec<(&str, JsonVal)>) {
        self.rows
            .push(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect());
    }

    /// Records one acceptance check's verdict (without panicking — failures
    /// surface when [`BenchReport::finish`] runs, after the JSON is
    /// written, so the artifact for a red run still carries its numbers).
    /// Returns `pass` so call sites can chain.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) -> bool {
        self.asserts.push(AssertRow {
            name: name.to_owned(),
            pass,
            detail: detail.into(),
        });
        pass
    }

    /// Renders the report as its canonical JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.rows.len() * 128);
        out.push_str("{\n  \"name\": \"");
        escape_into(&mut out, &self.name);
        out.push_str("\",\n  \"config\": ");
        write_object(&mut out, &self.config);
        out.push_str(",\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            write_object(&mut out, row);
        }
        out.push_str("\n  ],\n  \"asserts\": [");
        for (i, a) in self.asserts.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            let mut fields = vec![
                ("name".to_owned(), JsonVal::S(a.name.clone())),
                ("pass".to_owned(), JsonVal::B(a.pass)),
            ];
            if !a.detail.is_empty() {
                fields.push(("detail".to_owned(), JsonVal::S(a.detail.clone())));
            }
            write_object(&mut out, &fields);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into `C4H_BENCH_DIR` (creating the
    /// directory), or does nothing when the variable is unset. Returns the
    /// written path.
    pub fn write(&self) -> Option<PathBuf> {
        let dir = PathBuf::from(std::env::var_os("C4H_BENCH_DIR")?);
        std::fs::create_dir_all(&dir).expect("create bench artifact dir");
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json()).expect("write bench report");
        println!("wrote {}", path.display());
        Some(path)
    }

    /// Writes the artifact, then panics if any recorded check failed —
    /// call last, so a red CI job still uploads the numbers behind it.
    ///
    /// # Panics
    ///
    /// Panics when at least one [`BenchReport::check`] recorded `false`.
    pub fn finish(self) {
        self.write();
        let failed: Vec<&AssertRow> = self.asserts.iter().filter(|a| !a.pass).collect();
        assert!(
            failed.is_empty(),
            "bench `{}` failed {} acceptance check(s): {}",
            self.name,
            failed.len(),
            failed
                .iter()
                .map(|a| format!("{} ({})", a.name, a.detail))
                .collect::<Vec<_>>()
                .join("; "),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_the_four_keys() {
        let mut r = BenchReport::new("demo");
        r.config("smoke", true);
        r.config("label", "a \"quoted\" knob");
        r.push_row(vec![
            ("n", 1000u64.into()),
            ("rate", 123.5f64.into()),
            ("nan", f64::NAN.into()),
        ]);
        r.check("always", true, "fine");
        let json = r.to_json();
        assert!(json.contains("\"name\": \"demo\""));
        assert!(
            json.contains("\"config\": {\"smoke\": true, \"label\": \"a \\\"quoted\\\" knob\"}")
        );
        assert!(json.contains("{\"n\": 1000, \"rate\": 123.5, \"nan\": null}"));
        assert!(json.contains("{\"name\": \"always\", \"pass\": true, \"detail\": \"fine\"}"));
    }

    #[test]
    #[should_panic(expected = "failed 1 acceptance check")]
    fn finish_panics_on_failed_check() {
        let mut r = BenchReport::new("demo");
        r.check("bar", false, "too slow");
        r.finish();
    }
}
