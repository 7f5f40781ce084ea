//! `repro regress` — compare a `BENCH_repro.json` run against a committed
//! baseline and fail on slowdowns.
//!
//! Rows are matched on `(figure, workload, runtime, threads, tasks)`; a
//! matched row regresses when its `ns_per_task` exceeds the baseline by
//! more than the threshold (percent, default 10, overridable with the
//! `RIO_REGRESS_THRESHOLD` environment variable). Rows present on only
//! one side are reported but never fail the gate — adding a figure to the
//! suite must not break CI until its baseline is committed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Record;

/// Default slowdown tolerance, percent.
pub const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

/// Environment variable overriding the tolerance.
pub const THRESHOLD_ENV: &str = "RIO_REGRESS_THRESHOLD";

/// The tolerance to gate with: `RIO_REGRESS_THRESHOLD` or the default.
pub fn threshold_from_env() -> f64 {
    std::env::var(THRESHOLD_ENV)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD_PCT)
}

/// Parses the exact record schema [`crate::json::to_json`] writes: a JSON
/// array with one `{"figure": ..., "ns_per_task": ...}` object per line.
/// Lines that are not record objects (brackets, blanks) are skipped;
/// a record missing a field is dropped rather than guessed at.
pub fn parse(text: &str) -> Vec<Record> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with('{') || !line.ends_with('}') {
                return None;
            }
            Some(Record {
                figure: str_field(line, "figure")?,
                workload: str_field(line, "workload")?,
                runtime: str_field(line, "runtime")?,
                threads: num_field(line, "threads")? as usize,
                tasks: num_field(line, "tasks")? as usize,
                ns_per_task: num_field(line, "ns_per_task")?,
            })
        })
        .collect()
}

/// Extracts a string field from one record line, undoing the escapes
/// [`crate::json::to_json`] applies.
fn str_field(line: &str, key: &str) -> Option<String> {
    let rest = after_key(line, key)?;
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                esc => out.push(esc),
            },
            c => out.push(c),
        }
    }
    None
}

/// Extracts a numeric field from one record line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let rest = after_key(line, key)?;
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn after_key<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)?;
    Some(&line[at + pat.len()..])
}

/// One matched row's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct RowDelta {
    /// `figure/workload/runtime @ threads x tasks`.
    pub key: String,
    /// Baseline ns/task.
    pub baseline: f64,
    /// Current ns/task.
    pub current: f64,
    /// Percent change (positive = slower).
    pub pct: f64,
    /// Did this row exceed the threshold?
    pub regressed: bool,
}

/// The full comparison: every matched row plus the unmatched counts.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Matched rows, in key order.
    pub rows: Vec<RowDelta>,
    /// Baseline rows with no current counterpart.
    pub baseline_only: usize,
    /// Current rows with no baseline counterpart.
    pub current_only: usize,
}

impl Comparison {
    /// Rows that exceeded the threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &RowDelta> {
        self.rows.iter().filter(|r| r.regressed)
    }

    /// True when at least one row matched and none regressed: a baseline
    /// whose keys all drifted from the current run's compares nothing, and
    /// that must not pass in silence.
    pub fn passed(&self) -> bool {
        !self.rows.is_empty() && self.regressions().next().is_none()
    }

    /// Renders the verdict table plus a pass/fail summary line.
    pub fn render(&self, threshold_pct: f64) -> String {
        let mut t = rio_metrics::Table::new(["row", "baseline", "current", "delta", "verdict"]);
        for r in &self.rows {
            t.row([
                r.key.clone(),
                format!("{:.1}ns", r.baseline),
                format!("{:.1}ns", r.current),
                format!("{:+.1}%", r.pct),
                if r.regressed { "REGRESSED" } else { "ok" }.to_string(),
            ]);
        }
        let mut out = t.render();
        let _ = writeln!(
            out,
            "{} rows matched, {} regressed (threshold {:.1}%); \
             {} baseline-only, {} new",
            self.rows.len(),
            self.regressions().count(),
            threshold_pct,
            self.baseline_only,
            self.current_only,
        );
        out
    }
}

fn key_of(r: &Record) -> String {
    format!(
        "{}/{}/{} @{}x{}",
        r.figure, r.workload, r.runtime, r.threads, r.tasks
    )
}

/// Compares `current` against `baseline` with the given tolerance.
///
/// Duplicate keys keep the *fastest* record on each side (re-runs append;
/// the minimum is the honest number for throughput rows).
pub fn compare(baseline: &[Record], current: &[Record], threshold_pct: f64) -> Comparison {
    let fold = |records: &[Record]| -> BTreeMap<String, f64> {
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        for r in records {
            let e = m.entry(key_of(r)).or_insert(f64::INFINITY);
            *e = e.min(r.ns_per_task);
        }
        m
    };
    let base = fold(baseline);
    let cur = fold(current);

    let mut rows = Vec::new();
    for (key, &b) in &base {
        let Some(&c) = cur.get(key) else { continue };
        let pct = if b > 0.0 { (c - b) * 100.0 / b } else { 0.0 };
        rows.push(RowDelta {
            key: key.clone(),
            baseline: b,
            current: c,
            pct,
            regressed: pct > threshold_pct,
        });
    }
    Comparison {
        rows,
        baseline_only: base.keys().filter(|k| !cur.contains_key(*k)).count(),
        current_only: cur.keys().filter(|k| !base.contains_key(*k)).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn rec(figure: &str, runtime: &str, ns: f64) -> Record {
        Record {
            figure: figure.into(),
            workload: "independent-private/tpw=64".into(),
            runtime: runtime.into(),
            threads: 4,
            tasks: 256,
            ns_per_task: ns,
        }
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let records = vec![
            rec("fig7", "rio", 123.456),
            rec("compiled", "rio_compiled", 61.5),
        ];
        let parsed = parse(&json::to_json(&records));
        assert_eq!(parsed, records);
    }

    #[test]
    fn parse_round_trips_escaped_strings() {
        let mut r = rec("fig7", "rio", 1.0);
        r.workload = "quote\" slash\\ newline\n tab\t".into();
        let parsed = parse(&json::to_json(&[r.clone()]));
        assert_eq!(parsed, vec![r]);
    }

    #[test]
    fn parse_tolerates_schema_1_rows_without_provenance() {
        // A baseline written before schema 2 has no schema/commit/
        // timestamp keys; it must keep parsing to the same Record.
        let old = "  {\"figure\": \"fig7\", \"workload\": \"independent-private/tpw=64\", \
                   \"runtime\": \"rio\", \"threads\": 4, \"tasks\": 256, \
                   \"ns_per_task\": 123.456},";
        let parsed = parse(old);
        assert_eq!(parsed, vec![rec("fig7", "rio", 123.456)]);
    }

    #[test]
    fn parse_tolerates_schema_2_provenance_fields() {
        // And a schema-2 row's provenance is carried but ignored: field
        // lookup is by key, and row identity never includes it — so an
        // old baseline compares cleanly against a new run.
        let new = "  {\"figure\": \"fig7\", \"workload\": \"independent-private/tpw=64\", \
                   \"runtime\": \"rio\", \"threads\": 4, \"tasks\": 256, \
                   \"ns_per_task\": 123.456, \"schema\": 2, \"commit\": \"abc1234\", \
                   \"timestamp\": \"2026-08-08T12:34:56Z\"}";
        let parsed = parse(new);
        assert_eq!(parsed, vec![rec("fig7", "rio", 123.456)]);
        // Mixed-schema comparison: identical numbers pass the gate.
        let cmp = compare(&parse(new), &parsed, DEFAULT_THRESHOLD_PCT);
        assert!(cmp.passed());
        assert_eq!(cmp.rows.len(), 1);
    }

    #[test]
    fn parse_skips_garbage_lines() {
        assert!(parse("[\n]\n").is_empty());
        assert!(parse("not json at all").is_empty());
        // A record missing ns_per_task is dropped, not zeroed.
        assert!(parse(
            "  {\"figure\": \"x\", \"workload\": \"w\", \"runtime\": \"r\", \
                       \"threads\": 1, \"tasks\": 2},"
        )
        .is_empty());
    }

    #[test]
    fn identical_runs_pass() {
        let base = vec![rec("fig7", "rio", 100.0), rec("fig7", "central", 200.0)];
        let cmp = compare(&base, &base, DEFAULT_THRESHOLD_PCT);
        assert!(cmp.passed());
        assert_eq!(cmp.rows.len(), 2);
        assert_eq!(cmp.baseline_only, 0);
        assert_eq!(cmp.current_only, 0);
    }

    #[test]
    fn a_doctored_slow_row_fails_the_gate() {
        let base = vec![rec("fig7", "rio", 100.0)];
        let slow = vec![rec("fig7", "rio", 111.0)]; // +11% > 10%
        let cmp = compare(&base, &slow, DEFAULT_THRESHOLD_PCT);
        assert!(!cmp.passed());
        let reg: Vec<_> = cmp.regressions().collect();
        assert_eq!(reg.len(), 1);
        assert!((reg[0].pct - 11.0).abs() < 1e-9);
        assert!(cmp.render(DEFAULT_THRESHOLD_PCT).contains("REGRESSED"));
    }

    #[test]
    fn within_threshold_noise_passes() {
        let base = vec![rec("fig7", "rio", 100.0)];
        let noisy = vec![rec("fig7", "rio", 109.9)];
        assert!(compare(&base, &noisy, DEFAULT_THRESHOLD_PCT).passed());
        // A tighter custom threshold catches it.
        assert!(!compare(&base, &noisy, 5.0).passed());
    }

    #[test]
    fn speedups_never_fail() {
        let base = vec![rec("fig7", "rio", 100.0)];
        let fast = vec![rec("fig7", "rio", 10.0)];
        assert!(compare(&base, &fast, DEFAULT_THRESHOLD_PCT).passed());
    }

    #[test]
    fn unmatched_rows_are_counted_not_failed() {
        let base = vec![rec("fig7", "rio", 100.0), rec("fig6", "rio", 50.0)];
        let cur = vec![rec("fig7", "rio", 100.0), rec("park", "rio", 9.0)];
        let cmp = compare(&base, &cur, DEFAULT_THRESHOLD_PCT);
        assert!(cmp.passed());
        assert_eq!(cmp.rows.len(), 1);
        assert_eq!(cmp.baseline_only, 1);
        assert_eq!(cmp.current_only, 1);
    }

    #[test]
    fn no_matched_row_fails_the_gate() {
        let base = vec![rec("fig7", "rio", 100.0)];
        let cur = vec![rec("park", "rio", 100.0)];
        let cmp = compare(&base, &cur, DEFAULT_THRESHOLD_PCT);
        assert!(cmp.rows.is_empty());
        assert!(!cmp.passed());
        assert!(!compare(&[], &[], DEFAULT_THRESHOLD_PCT).passed());
    }

    #[test]
    fn duplicate_keys_keep_the_fastest() {
        let base = vec![rec("fig7", "rio", 100.0)];
        let cur = vec![rec("fig7", "rio", 150.0), rec("fig7", "rio", 101.0)];
        let cmp = compare(&base, &cur, DEFAULT_THRESHOLD_PCT);
        assert!(cmp.passed());
        assert!((cmp.rows[0].current - 101.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_folding_never_crosses_thread_counts() {
        // The fastest-duplicate fold must key on the full
        // (figure, workload, runtime, threads, tasks) tuple: a fast
        // 8-thread rerun must never mask a slow 4-thread row.
        let mut base4 = rec("fig7", "rio", 100.0);
        base4.threads = 4;
        let mut base8 = rec("fig7", "rio", 40.0);
        base8.threads = 8;
        let mut cur4 = rec("fig7", "rio", 150.0); // 4-thread regression
        cur4.threads = 4;
        let mut cur8 = rec("fig7", "rio", 39.0); // 8-thread fine (and fast)
        cur8.threads = 8;
        let cmp = compare(&[base4, base8], &[cur4, cur8], DEFAULT_THRESHOLD_PCT);
        assert_eq!(cmp.rows.len(), 2, "thread counts stay separate rows");
        assert!(
            !cmp.passed(),
            "the 4-thread regression must not be folded away by the 8-thread row"
        );
        let reg: Vec<_> = cmp.regressions().collect();
        assert_eq!(reg.len(), 1);
        assert!(
            reg[0].key.contains("@4x"),
            "the regressed row is the 4-thread one"
        );
    }

    #[test]
    fn committed_baseline_parses_and_self_compares() {
        // The repo ships BENCH_repro.json; the gate must at minimum accept
        // a file against itself.
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_repro.json"),
        )
        .expect("committed baseline exists");
        let records = parse(&text);
        assert!(!records.is_empty(), "baseline has records");
        assert!(compare(&records, &records, DEFAULT_THRESHOLD_PCT).passed());
    }
}
