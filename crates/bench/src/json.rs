//! Machine-readable benchmark records (`BENCH_repro.json`).
//!
//! The figure reproductions print human-oriented tables; CI and the
//! committed baseline need numbers a script can diff. With `repro --json`
//! every per-task timing the overhead figures produce is also pushed
//! here as a [`Record`] and written to `BENCH_repro.json` on exit, one
//! JSON object per measurement:
//!
//! ```json
//! {"figure": "fig7", "workload": "independent-private/tpw=8192",
//!  "runtime": "rio_compiled", "threads": 4, "tasks": 32768,
//!  "ns_per_task": 132.4, "schema": 2, "commit": "3448856",
//!  "timestamp": "2026-08-08T12:34:56Z"}
//! ```
//!
//! Overhead ratios are derived by pairing records: same
//! `(figure, workload, threads, tasks)`, different `runtime` (e.g.
//! `rio / seq`, `rio_compiled / rio`).
//!
//! Since schema 2 every record also carries run provenance: the
//! [`SCHEMA_VERSION`], the abbreviated git commit the binary was run
//! from (`"unknown"` outside a git checkout), and the UTC wall-clock
//! time of the write in ISO 8601. The regress parser matches fields by
//! key, so baselines written before schema 2 and records written after
//! both parse — provenance never participates in row identity.
//!
//! The sink is disabled by default so library users and the figure tests
//! see no global state; [`enable`] (called by the binary when `--json`
//! is passed) turns it on for the rest of the process.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// One measurement: the per-task wall time of `runtime` on `workload`.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Which reproduction produced this (`fig6`, `fig7`, `compiled`, …).
    pub figure: String,
    /// Workload identity, including the parameters that shaped it.
    pub workload: String,
    /// Execution path (`seq`, `rio` — the one-shot, compile included —
    /// `rio_compiled`, `central`).
    pub runtime: String,
    /// Thread/worker count the measurement ran with.
    pub threads: usize,
    /// Total tasks in the flow.
    pub tasks: usize,
    /// Minimum-over-reps wall time divided by `tasks`, in nanoseconds.
    pub ns_per_task: f64,
}

/// Version of the record schema. History:
///
/// * 1 — the original six fields (implicit: schema-1 records carry no
///   `schema` key).
/// * 2 — added `schema`, `commit` and `timestamp` provenance.
pub const SCHEMA_VERSION: u32 = 2;

/// Run provenance stamped onto every record of one `to_json` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// The record [`SCHEMA_VERSION`].
    pub schema: u32,
    /// Abbreviated git commit of the working tree, or `"unknown"`.
    pub commit: String,
    /// UTC timestamp of the write, ISO 8601 (`2026-08-08T12:34:56Z`).
    pub timestamp: String,
}

impl RunMeta {
    /// Provenance for a write happening now, in this checkout.
    pub fn current() -> RunMeta {
        RunMeta {
            schema: SCHEMA_VERSION,
            commit: commit_hash(),
            timestamp: iso8601_utc(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0),
            ),
        }
    }
}

/// The abbreviated commit of the enclosing checkout (cached; `"unknown"`
/// when git is unavailable or the cwd is not a repository).
fn commit_hash() -> String {
    static COMMIT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    COMMIT
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

/// Seconds since the Unix epoch → `YYYY-MM-DDThh:mm:ssZ`, hand-rolled
/// (no chrono in the tree). Days-to-civil via the standard
/// era-of-400-years arithmetic.
fn iso8601_utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem / 60) % 60, rem % 60);
    // civil_from_days, epoch 1970-01-01.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11], March-based
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    format!("{year:04}-{month:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

static SINK: Mutex<Option<Vec<Record>>> = Mutex::new(None);

/// Turns the process-wide sink on (idempotent; keeps existing records).
pub fn enable() {
    let mut sink = SINK.lock().unwrap();
    if sink.is_none() {
        *sink = Some(Vec::new());
    }
}

/// Whether [`enable`] has been called.
pub fn enabled() -> bool {
    SINK.lock().unwrap().is_some()
}

/// Pushes a record; a no-op while the sink is disabled.
pub fn record(r: Record) {
    if let Some(records) = SINK.lock().unwrap().as_mut() {
        records.push(r);
    }
}

/// Drains and returns everything recorded so far (sink stays enabled).
pub fn take() -> Vec<Record> {
    SINK.lock()
        .unwrap()
        .as_mut()
        .map(std::mem::take)
        .unwrap_or_default()
}

/// Serializes records as a JSON array, one object per line, stamped with
/// the current run's provenance ([`RunMeta::current`]).
pub fn to_json(records: &[Record]) -> String {
    to_json_with(records, &RunMeta::current())
}

/// [`to_json`] with explicit provenance (tests pin it to fixed values).
pub fn to_json_with(records: &[Record], meta: &RunMeta) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"figure\": {}, \"workload\": {}, \"runtime\": {}, \
             \"threads\": {}, \"tasks\": {}, \"ns_per_task\": {:.3}, \
             \"schema\": {}, \"commit\": {}, \"timestamp\": {}}}{sep}",
            escape(&r.figure),
            escape(&r.workload),
            escape(&r.runtime),
            r.threads,
            r.tasks,
            r.ns_per_task,
            meta.schema,
            escape(&meta.commit),
            escape(&meta.timestamp),
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]\n");
    out
}

/// Drains the sink and writes the records to `path` as JSON. Returns how
/// many records were written. An empty sink leaves `path` untouched — a
/// `--json` run of a subcommand that records nothing (e.g. `repro
/// doctor`, which writes its own report file) must not clobber a
/// previously written or committed `BENCH_repro.json`.
///
/// # Errors
/// Propagates the I/O error if `path` cannot be written.
pub fn write(path: &Path) -> std::io::Result<usize> {
    let records = take();
    if records.is_empty() {
        return Ok(0);
    }
    std::fs::write(path, to_json(&records))?;
    Ok(records.len())
}

/// JSON string literal with the minimal required escapes.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(runtime: &str, ns: f64) -> Record {
        Record {
            figure: "fig7".into(),
            workload: "independent-private/tpw=64".into(),
            runtime: runtime.into(),
            threads: 4,
            tasks: 256,
            ns_per_task: ns,
        }
    }

    fn meta() -> RunMeta {
        RunMeta {
            schema: SCHEMA_VERSION,
            commit: "abc1234".into(),
            timestamp: "2026-08-08T12:34:56Z".into(),
        }
    }

    #[test]
    fn serialization_matches_the_schema() {
        let json = to_json_with(&[rec("rio", 123.456), rec("rio_compiled", 61.5)], &meta());
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains(
            "{\"figure\": \"fig7\", \"workload\": \"independent-private/tpw=64\", \
             \"runtime\": \"rio\", \"threads\": 4, \"tasks\": 256, \"ns_per_task\": 123.456, \
             \"schema\": 2, \"commit\": \"abc1234\", \"timestamp\": \"2026-08-08T12:34:56Z\"}"
        ));
        assert!(json.contains("\"runtime\": \"rio_compiled\""));
        // Exactly one separator between the two objects.
        assert_eq!(json.matches("},").count(), 1);
    }

    #[test]
    fn current_meta_is_well_formed() {
        let m = RunMeta::current();
        assert_eq!(m.schema, SCHEMA_VERSION);
        assert!(!m.commit.is_empty());
        // 2026-08-08T12:34:56Z shape: 20 chars, T at 10, trailing Z.
        assert_eq!(m.timestamp.len(), 20, "timestamp {:?}", m.timestamp);
        assert_eq!(&m.timestamp[10..11], "T");
        assert!(m.timestamp.ends_with('Z'));
    }

    #[test]
    fn iso8601_conversion_handles_known_instants() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso8601_utc(1_786_147_200), "2026-08-08T00:00:00Z");
        assert_eq!(iso8601_utc(1_786_190_096), "2026-08-08T11:54:56Z");
    }

    #[test]
    fn empty_record_set_is_an_empty_array() {
        assert_eq!(to_json(&[]), "[\n]\n");
    }

    #[test]
    fn strings_are_escaped() {
        let mut r = rec("rio", 1.0);
        r.workload = "quote\" slash\\ newline\n tab\t".into();
        let json = to_json(&[r]);
        assert!(json.contains("quote\\\" slash\\\\ newline\\n tab\\u0009"));
    }

    #[test]
    fn sink_collects_only_when_enabled() {
        // The one test touching the global sink (process-wide state).
        record(rec("dropped", 1.0));
        enable();
        assert!(enabled());
        record(rec("kept", 2.0));
        let records = take();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].runtime, "kept");
        assert!(take().is_empty(), "take drains");
    }
}
