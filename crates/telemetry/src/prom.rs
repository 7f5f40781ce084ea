//! Prometheus text-format (exposition format version `0.0.4`) rendering
//! and validation.
//!
//! The exporter side is [`PromBuffer`]: an append-only exposition builder
//! that emits each family's `# HELP`/`# TYPE` header exactly once and
//! knows how to render RIO's three metric sources — counter snapshots
//! ([`render_counters`]), trace wait histograms ([`render_wait_histogram`],
//! mapping [`rio_trace::Histogram`]'s power-of-two buckets onto native
//! Prometheus `le` edges) and the doctor's mapping-quality gauges
//! ([`render_quality`]).
//!
//! The consumer side is [`parse_exposition`] / [`validate_exposition`]: a
//! strict parser for the subset this crate emits, used by the unit tests,
//! the scrape-under-load tests and the `repro telemetry --check` CI gate.
//! Validation checks the invariants a real Prometheus server relies on:
//! escaped label values, `le`-ordered monotone non-decreasing histogram
//! buckets, and `+Inf` bucket == `_count`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use rio_core::CountersSnapshot;
use rio_trace::Histogram;

/// The Content-Type a `0.0.4` text-format scrape endpoint must serve.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Escapes a label value for the text format: `\` → `\\`, `"` → `\"`,
/// newline → `\n`. Inverse of [`unescape_label_value`].
pub fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Un-escapes a label value previously escaped by [`escape_label_value`].
/// A trailing lone backslash or unknown escape is preserved literally
/// (matching how Prometheus itself de-escapes leniently).
pub fn unescape_label_value(escaped: &str) -> String {
    let mut out = String::with_capacity(escaped.len());
    let mut chars = escaped.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// An exposition under construction. Families (`# HELP` + `# TYPE`) are
/// emitted once, on their first sample; callers keep one family's samples
/// consecutive by emitting them together (the renderers below iterate
/// family-major for exactly that reason).
#[derive(Debug, Default)]
pub struct PromBuffer {
    out: String,
    seen: BTreeSet<String>,
}

impl PromBuffer {
    /// An empty exposition.
    pub fn new() -> PromBuffer {
        PromBuffer::default()
    }

    fn family(&mut self, name: &str, help: &str, kind: &str) {
        if self.seen.insert(name.to_string()) {
            let _ = writeln!(self.out, "# HELP {name} {help}");
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
        }
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: &str) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label_value(v));
            }
            self.out.push('}');
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// Appends one counter sample (family headers on first use).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.family(name, help, "counter");
        self.sample(name, labels, &value.to_string());
    }

    /// Appends one gauge sample (family headers on first use).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.family(name, help, "gauge");
        self.sample(name, labels, &format_value(value));
    }

    /// Appends a native Prometheus histogram from a [`rio_trace::Histogram`].
    ///
    /// RIO's trace histograms bucket by power of two: bucket `b` covers
    /// `[2^b, 2^(b+1))` ns, so the cumulative `le` edge of bucket `b` is
    /// `2^(b+1)`. Only the occupied prefix of the 64 buckets is emitted;
    /// `+Inf` always equals `_count` and `_sum` is the histogram's total.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], hist: &Histogram) {
        self.family(name, help, "histogram");
        let bucket = format!("{name}_bucket");
        let top = hist
            .buckets()
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |b| b + 1);
        let mut cum = 0u64;
        for b in 0..top {
            cum += hist.buckets()[b];
            let le = format_value(2f64.powi(b as i32 + 1));
            let mut with_le = labels.to_vec();
            with_le.push(("le", &le));
            self.sample(&bucket, &with_le, &cum.to_string());
        }
        let mut inf = labels.to_vec();
        inf.push(("le", "+Inf"));
        self.sample(&bucket, &inf, &hist.count().to_string());
        self.sample(&format!("{name}_sum"), labels, &hist.total_ns().to_string());
        self.sample(&format!("{name}_count"), labels, &hist.count().to_string());
    }

    /// The finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }

    /// The exposition so far, without consuming the buffer.
    pub fn as_str(&self) -> &str {
        &self.out
    }
}

fn format_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a counters snapshot: one `rio_<counter>_total` family per
/// [`rio_core::CounterRow`] field, one sample per worker, labelled
/// `worker` (and `node` when the snapshot was taken on a multi-node run),
/// plus whatever base labels the caller supplies (`run_id`, `workload`).
///
/// Built on [`rio_core::CounterRow::fields`], so a counter added to the
/// runtime shows up here without a matching code change.
pub fn render_counters(buf: &mut PromBuffer, snap: &CountersSnapshot, base: &[(&str, &str)]) {
    render_counters_multi(buf, &[(snap, base)]);
}

/// Renders several counter snapshots (e.g. every run in a
/// `RunRegistry`) field-major: all snapshots' samples of one family are
/// emitted consecutively, as the text format requires, before moving to
/// the next counter.
pub fn render_counters_multi(buf: &mut PromBuffer, snaps: &[(&CountersSnapshot, &[(&str, &str)])]) {
    let names: Vec<&'static str> = rio_core::CounterRow::default()
        .fields()
        .iter()
        .map(|&(n, _)| n)
        .collect();
    for (fi, fname) in names.iter().enumerate() {
        let family = format!("rio_{fname}_total");
        let help = format!("RIO per-worker `{fname}` counter (single-writer, sampled live).");
        for (snap, base) in snaps {
            for (w, row) in snap.workers.iter().enumerate() {
                let (_, value) = row.fields()[fi];
                let worker = w.to_string();
                let node;
                let mut labels = base.to_vec();
                labels.push(("worker", &worker));
                if let Some(nodes) = &snap.nodes {
                    node = nodes[w].to_string();
                    labels.push(("node", &node));
                }
                buf.counter(&family, &help, &labels, value);
            }
        }
    }
}

/// Renders a trace wait-time histogram as `<name>` (a native Prometheus
/// histogram in nanoseconds). See [`PromBuffer::histogram`] for the
/// bucket-edge mapping.
pub fn render_wait_histogram(
    buf: &mut PromBuffer,
    name: &str,
    hist: &Histogram,
    base: &[(&str, &str)],
) {
    buf.histogram(
        name,
        "Dependency-wait durations in nanoseconds, from the run's trace.",
        base,
        hist,
    );
}

/// Renders the doctor's mapping-quality verdict as two gauges:
/// `rio_imbalance_factor` (max over mean per-worker load; `1.0` is
/// perfectly balanced) and `rio_weighted_locality_cost` (the mapping's
/// NUMA-weighted communication cost).
pub fn render_quality(
    buf: &mut PromBuffer,
    quality: &rio_doctor::MappingQuality,
    base: &[(&str, &str)],
) {
    buf.gauge(
        "rio_imbalance_factor",
        "Per-worker load imbalance: max over mean busy time (1.0 = balanced).",
        base,
        quality.imbalance,
    );
    buf.gauge(
        "rio_weighted_locality_cost",
        "NUMA-weighted communication cost of the task mapping.",
        base,
        quality.weighted_cost as f64,
    );
}

/// Renders what the compiler did to a flow
/// ([`rio_core::CompiledFlow::stats`]) as `rio_compile_*` gauges: every
/// value is static — a function of the flow, the mapping and the
/// configuration — so a scrape of a compiled run says how much of its
/// synchronisation was left to perform at all.
pub fn render_compile_stats(
    buf: &mut PromBuffer,
    stats: &rio_core::CompileStats,
    base: &[(&str, &str)],
) {
    let gauges = [
        (
            "rio_compile_instructions",
            "Run instructions across all worker programs (one per mapped task).",
            stats.instructions() as f64,
        ),
        (
            "rio_compile_irrelevant_declares",
            "Per-access declares of foreign tasks compiled away, summed over workers.",
            stats.irrelevant_declares as f64,
        ),
        (
            "rio_compile_elided_gets",
            "Own accesses whose guard only waits for their own worker: decided at compile time.",
            stats.elided_gets as f64,
        ),
        (
            "rio_compile_elided_publishes",
            "Own accesses whose publication no kept guard compares against.",
            stats.elided_publishes as f64,
        ),
        (
            "rio_compile_shared_objects",
            "Data objects with a kept guard or publication: the length of a run's shared table.",
            stats.shared_objects as f64,
        ),
    ];
    for (name, help, value) in gauges {
        buf.gauge(name, help, base, value);
    }
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs, in written order, values un-escaped.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf` parses to infinity).
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The labels minus `le`, serialized — the identity of a histogram
    /// series.
    fn series_key(&self) -> String {
        let mut key = String::new();
        for (k, v) in &self.labels {
            if k != "le" {
                let _ = write!(key, "{k}=\"{}\",", escape_label_value(v));
            }
        }
        key
    }
}

fn is_name_char(c: char, first: bool) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':' || (!first && c.is_ascii_digit())
}

fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}: {line:?}");
    let mut chars = line.char_indices().peekable();
    let mut name_end = 0;
    while let Some(&(i, c)) = chars.peek() {
        if is_name_char(c, i == 0) {
            chars.next();
            name_end = i + c.len_utf8();
        } else {
            break;
        }
    }
    if name_end == 0 {
        return Err(err("missing metric name"));
    }
    let name = line[..name_end].to_string();
    let mut labels = Vec::new();
    let rest = &line[name_end..];
    let rest = if let Some(body) = rest.strip_prefix('{') {
        // Scan the label section, honoring escapes inside quoted values.
        let mut pos = 0;
        let bytes = body.as_bytes();
        loop {
            if pos >= bytes.len() {
                return Err(err("unterminated label set"));
            }
            if bytes[pos] == b'}' {
                pos += 1;
                break;
            }
            let key_start = pos;
            while pos < bytes.len() && bytes[pos] != b'=' {
                pos += 1;
            }
            let key = &body[key_start..pos];
            if key.is_empty()
                || !key
                    .chars()
                    .enumerate()
                    .all(|(i, c)| is_name_char(c, i == 0))
            {
                return Err(err("bad label name"));
            }
            pos += 1; // '='
            if pos >= bytes.len() || bytes[pos] != b'"' {
                return Err(err("label value must be quoted"));
            }
            pos += 1;
            let val_start = pos;
            loop {
                if pos >= bytes.len() {
                    return Err(err("unterminated label value"));
                }
                match bytes[pos] {
                    b'"' => break,
                    b'\\' => {
                        if pos + 1 >= bytes.len() {
                            return Err(err("dangling escape in label value"));
                        }
                        if !matches!(bytes[pos + 1], b'\\' | b'"' | b'n') {
                            return Err(err("invalid escape in label value"));
                        }
                        pos += 2;
                    }
                    _ => pos += 1,
                }
            }
            labels.push((key.to_string(), unescape_label_value(&body[val_start..pos])));
            pos += 1; // closing '"'
            if pos < bytes.len() && bytes[pos] == b',' {
                pos += 1;
            }
        }
        &body[pos..]
    } else {
        rest
    };
    let value_str = rest.trim();
    if value_str.is_empty() {
        return Err(err("missing sample value"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| err("unparseable sample value"))?,
    };
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Parses an exposition into its samples, checking line-level syntax and
/// that every sample's family was announced by a preceding `# TYPE`.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            if parts.next() == Some("TYPE") {
                let name = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a metric name"))?;
                let kind = parts
                    .next()
                    .ok_or_else(|| format!("line {lineno}: TYPE without a kind"))?;
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    return Err(format!("line {lineno}: duplicate TYPE for {name}"));
                }
            }
            continue;
        }
        let sample = parse_sample(line, lineno)?;
        let family = family_of(&sample.name, &types);
        if !types.contains_key(&family) {
            return Err(format!(
                "line {lineno}: sample for {} before its # TYPE",
                sample.name
            ));
        }
        samples.push(sample);
    }
    Ok(samples)
}

/// The family a sample belongs to: itself, unless it carries a histogram
/// suffix whose base name was declared `histogram`.
fn family_of(name: &str, types: &BTreeMap<String, String>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base.to_string();
            }
        }
    }
    name.to_string()
}

/// Validates an exposition end to end: syntax (via [`parse_exposition`])
/// plus the histogram invariants — per series, `le` edges strictly
/// increasing, cumulative bucket counts non-decreasing, the last bucket is
/// `+Inf`, and its count equals the series' `_count` sample.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            if let (Some(name), Some(kind)) = (parts.next(), parts.next()) {
                types.insert(name.to_string(), kind.to_string());
            }
        }
    }
    let samples = parse_exposition(text)?;

    // Group histogram series: family + non-le labels → (buckets, count).
    #[derive(Default)]
    struct Series {
        buckets: Vec<(f64, f64)>,
        count: Option<f64>,
    }
    let mut series: BTreeMap<(String, String), Series> = BTreeMap::new();
    for s in &samples {
        let family = family_of(&s.name, &types);
        if types.get(&family).map(String::as_str) != Some("histogram") {
            continue;
        }
        let entry = series.entry((family.clone(), s.series_key())).or_default();
        if s.name.ends_with("_bucket") {
            let le = s
                .label("le")
                .ok_or_else(|| format!("{}: bucket sample without le label", s.name))?;
            let le = match le {
                "+Inf" => f64::INFINITY,
                v => v
                    .parse::<f64>()
                    .map_err(|_| format!("{}: unparseable le {v:?}", s.name))?,
            };
            entry.buckets.push((le, s.value));
        } else if s.name.ends_with("_count") {
            entry.count = Some(s.value);
        }
    }
    for ((family, labels), s) in &series {
        let at = || format!("histogram {family}{{{labels}}}");
        for pair in s.buckets.windows(2) {
            let ((le_a, cum_a), (le_b, cum_b)) = (pair[0], pair[1]);
            if le_b <= le_a {
                return Err(format!("{}: le edges not increasing", at()));
            }
            if cum_b < cum_a {
                return Err(format!("{}: bucket counts decrease", at()));
            }
        }
        match s.buckets.last() {
            None => return Err(format!("{}: no buckets", at())),
            Some(&(le, cum)) => {
                if !le.is_infinite() {
                    return Err(format!("{}: missing +Inf bucket", at()));
                }
                if Some(cum) != s.count {
                    return Err(format!(
                        "{}: +Inf bucket {} != _count {:?}",
                        at(),
                        cum,
                        s.count
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Writes an exposition for node-exporter textfile collection: the text
/// goes to `<path>.tmp` first and is renamed into place, so a collector
/// never reads a half-written file.
pub fn write_textfile(path: &Path, text: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Satellite: label-escaping round-trip over the characters that need
    /// escaping (`"`, `\`, newline) mixed with plain text.
    const PALETTE: &[char] = &[
        'a', 'Z', '0', '_', '-', ' ', '/', '"', '\\', '\n', 'µ', '{', '}', ',',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn label_escaping_round_trips(idx in collection::vec(0usize..PALETTE.len(), 0..32)) {
            let raw: String = idx.iter().map(|&i| PALETTE[i]).collect();
            let escaped = escape_label_value(&raw);
            prop_assert!(!escaped.contains('\n'), "escaped value must be one line");
            prop_assert_eq!(unescape_label_value(&escaped), raw);
        }

        #[test]
        fn escaped_labels_survive_a_render_parse_cycle(idx in collection::vec(0usize..PALETTE.len(), 0..24)) {
            let raw: String = idx.iter().map(|&i| PALETTE[i]).collect();
            let mut buf = PromBuffer::new();
            buf.counter("rio_tasks_total", "help", &[("workload", &raw)], 7);
            let text = buf.finish();
            validate_exposition(&text).unwrap();
            let samples = parse_exposition(&text).unwrap();
            prop_assert_eq!(samples.len(), 1);
            prop_assert_eq!(samples[0].label("workload"), Some(raw.as_str()));
            prop_assert_eq!(samples[0].value, 7.0);
        }

        /// Satellite: histogram buckets are cumulative-monotone with
        /// strictly increasing `le` edges and `+Inf` == `_count`, for any
        /// recorded distribution.
        #[test]
        fn histogram_render_is_monotone_with_inf_equal_count(
            ns in collection::vec(0u64..(1u64 << 44), 0..200),
        ) {
            let mut h = Histogram::new();
            for &v in &ns {
                h.record(v);
            }
            let mut buf = PromBuffer::new();
            buf.histogram("rio_wait_ns", "help", &[("worker", "0")], &h);
            let text = buf.finish();
            validate_exposition(&text).unwrap();
            let samples = parse_exposition(&text).unwrap();
            let count = samples
                .iter()
                .find(|s| s.name == "rio_wait_ns_count")
                .unwrap()
                .value;
            prop_assert_eq!(count, ns.len() as f64);
            let inf = samples
                .iter()
                .find(|s| s.name == "rio_wait_ns_bucket" && s.label("le") == Some("+Inf"))
                .unwrap()
                .value;
            prop_assert_eq!(inf, count);
        }
    }

    #[test]
    fn families_are_announced_once() {
        let mut buf = PromBuffer::new();
        buf.counter("rio_tasks_total", "h", &[("worker", "0")], 1);
        buf.counter("rio_tasks_total", "h", &[("worker", "1")], 2);
        let text = buf.finish();
        assert_eq!(text.matches("# TYPE rio_tasks_total counter").count(), 1);
        assert_eq!(text.matches("# HELP rio_tasks_total").count(), 1);
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn render_counters_covers_every_field_and_worker() {
        let snap = CountersSnapshot {
            workers: vec![
                rio_core::CounterRow {
                    tasks: 3,
                    parks: 1,
                    ..Default::default()
                },
                rio_core::CounterRow {
                    tasks: 4,
                    retries: 2,
                    ..Default::default()
                },
            ],
            nodes: Some(vec![0, 1]),
        };
        let mut buf = PromBuffer::new();
        render_counters(&mut buf, &snap, &[("run_id", "7"), ("workload", "lu")]);
        let text = buf.finish();
        validate_exposition(&text).unwrap();
        let samples = parse_exposition(&text).unwrap();
        // 7 families × 2 workers.
        assert_eq!(samples.len(), 14);
        assert!(samples.iter().all(|s| s.name != "rio_syncs_total"));
        let retries = samples
            .iter()
            .find(|s| s.name == "rio_retries_total" && s.label("worker") == Some("1"))
            .unwrap();
        assert_eq!(retries.value, 2.0);
        assert_eq!(retries.label("node"), Some("1"));
        assert_eq!(retries.label("run_id"), Some("7"));
        assert_eq!(retries.label("workload"), Some("lu"));
    }

    #[test]
    fn quality_gauges_render() {
        let mut buf = PromBuffer::new();
        let quality = rio_doctor::MappingQuality {
            imbalance: 1.25,
            weighted_cost: 42,
            ..Default::default()
        };
        render_quality(&mut buf, &quality, &[("run_id", "1")]);
        let text = buf.finish();
        validate_exposition(&text).unwrap();
        let samples = parse_exposition(&text).unwrap();
        assert_eq!(samples[0].name, "rio_imbalance_factor");
        assert_eq!(samples[0].value, 1.25);
        assert_eq!(samples[1].name, "rio_weighted_locality_cost");
        assert_eq!(samples[1].value, 42.0);
    }

    #[test]
    fn compile_gauges_render() {
        use rio_core::prelude::*;
        // D0 goes back and forth between two workers; D1 stays on W1.
        let mut b = TaskGraph::builder(2);
        for _ in 0..2 {
            b.task(&[Access::read_write(DataId(0))], 1, "t");
            b.task(
                &[Access::read_write(DataId(0)), Access::read_write(DataId(1))],
                1,
                "t",
            );
        }
        let g = b.build();
        let flow = Executor::new(RioConfig::with_workers(2))
            .mapping(&RoundRobin)
            .compile(&g);
        let mut buf = PromBuffer::new();
        render_compile_stats(&mut buf, flow.stats(), &[("workload", "demo")]);
        let text = buf.finish();
        validate_exposition(&text).unwrap();
        let samples = parse_exposition(&text).unwrap();
        let value = |name: &str| samples.iter().find(|s| s.name == name).unwrap().value;
        assert_eq!(value("rio_compile_instructions"), 4.0);
        assert_eq!(
            value("rio_compile_elided_gets"),
            flow.stats().elided_gets as f64
        );
        assert_eq!(
            value("rio_compile_elided_publishes"),
            flow.stats().elided_publishes as f64
        );
        assert_eq!(value("rio_compile_shared_objects"), 1.0);
        assert!(samples.iter().all(|s| s.label("workload") == Some("demo")));
    }

    #[test]
    fn empty_histogram_still_has_inf_and_count() {
        let mut buf = PromBuffer::new();
        buf.histogram("rio_wait_ns", "h", &[], &Histogram::new());
        let text = buf.finish();
        validate_exposition(&text).unwrap();
        assert!(text.contains("rio_wait_ns_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("rio_wait_ns_count 0"));
    }

    #[test]
    fn histogram_le_edges_match_power_of_two_buckets() {
        let mut h = Histogram::new();
        h.record(1); // bucket 0 → le 2
        h.record(5); // bucket 2 → le 8
        let mut buf = PromBuffer::new();
        buf.histogram("rio_wait_ns", "h", &[], &h);
        let text = buf.finish();
        assert!(text.contains("rio_wait_ns_bucket{le=\"2\"} 1"));
        assert!(text.contains("rio_wait_ns_bucket{le=\"8\"} 2"));
        assert!(text.contains("rio_wait_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("rio_wait_ns_sum 6"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn validation_rejects_broken_expositions() {
        // Sample before TYPE.
        assert!(validate_exposition("rio_x_total 1\n").is_err());
        // Decreasing buckets.
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\n\
                   h_bucket{le=\"2\"} 3\n\
                   h_bucket{le=\"+Inf\"} 3\n\
                   h_sum 0\nh_count 3\n";
        assert!(validate_exposition(bad).unwrap_err().contains("decrease"));
        // +Inf != _count.
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"+Inf\"} 3\n\
                   h_sum 0\nh_count 4\n";
        assert!(validate_exposition(bad).unwrap_err().contains("_count"));
        // Missing +Inf.
        let bad = "# TYPE h histogram\n\
                   h_bucket{le=\"8\"} 3\n\
                   h_sum 0\nh_count 3\n";
        assert!(validate_exposition(bad).unwrap_err().contains("+Inf"));
        // Raw newline can't appear in a value, but an invalid escape can.
        assert!(validate_exposition("# TYPE x counter\nx{l=\"a\\q\"} 1\n").is_err());
    }

    #[test]
    fn textfile_write_is_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("rio-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rio.prom");
        write_textfile(&path, "# TYPE a counter\na 1\n").unwrap();
        write_textfile(&path, "# TYPE a counter\na 2\n").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("a 2"));
        assert!(!path.with_extension("prom.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
