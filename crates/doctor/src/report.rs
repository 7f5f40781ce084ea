//! The assembled [`DoctorReport`]: text rendering and JSON export, and
//! the terminal rendering of a run's counters snapshot.

use std::fmt::Write as _;

use rio_core::{CounterRow, CountersSnapshot};
use rio_metrics::Table;
use rio_stf::{TableMapping, TaskId, WorkerId};

use crate::quality::MappingQuality;
use crate::waits::BlockedObject;

/// Everything [`crate::diagnose`] learned about one run.
#[derive(Debug, Clone)]
pub struct DoctorReport {
    /// Tasks in the flow.
    pub tasks: usize,
    /// Workers of the run.
    pub workers: usize,
    /// Measured wall-clock time, ns.
    pub wall_ns: u64,
    /// Sum of per-task durations (total work), ns.
    pub total_work_ns: u64,
    /// Tasks whose duration was measured (vs estimated from cost hints).
    pub measured_tasks: usize,
    /// Length of the duration-weighted critical path, ns.
    pub critical_path_ns: u64,
    /// One longest chain, in flow order.
    pub critical_path: Vec<TaskId>,
    /// Kind tags of the critical-path tasks, aligned with
    /// [`DoctorReport::critical_path`].
    pub critical_path_kinds: Vec<String>,
    /// Tasks with zero slack (on *some* longest chain).
    pub zero_slack_tasks: usize,
    /// `total_work / critical_path`: the DAG's speedup ceiling.
    pub achievable_speedup: f64,
    /// `total_work / wall`: what the run actually achieved.
    pub measured_speedup: f64,
    /// Blocking objects, ranked by total wait time.
    pub blocking: Vec<BlockedObject>,
    /// Mapping-quality numbers.
    pub quality: MappingQuality,
    /// Greedy suggested remap, one worker per flow index.
    pub suggested: Vec<WorkerId>,
    /// Tasks whose worker changes under the suggested remap.
    pub moves: usize,
    /// Recovery attribution (`None` when the run neither retried nor
    /// degraded); see [`DoctorReport::with_recovery`].
    pub recovery: Option<RecoverySummary>,
}

/// What graceful degradation cost one run: how much wall time went into
/// failed attempts and backoff, and how big the poisoned cone grew.
///
/// Built by [`DoctorReport::with_recovery`] from the run's
/// `rio_stf::PartialReport` (if it degraded) and its `retries` counter
/// total.
#[derive(Debug, Clone, Default)]
pub struct RecoverySummary {
    /// Tasks that permanently failed after exhausting their retries.
    pub failed: usize,
    /// Downstream tasks skipped-but-synced because an input was poisoned.
    pub skipped: usize,
    /// Data objects in the poisoned cone.
    pub poisoned: usize,
    /// Kernel attempts that were retried (from the `retries` counter).
    pub retries: u64,
    /// Wall time spent in failed attempts and backoff sleeps, ns.
    pub retry_time_ns: u64,
}

impl DoctorReport {
    /// The suggested remap as a runnable [`TableMapping`].
    pub fn suggested_mapping(&self) -> TableMapping {
        TableMapping::new(self.suggested.clone())
    }

    /// Attributes the run's recovery activity: `partial` is the
    /// `PartialReport` of a degraded run (from
    /// `rio_core::RunOutcome::partial`), `retries` the run's `retries`
    /// counter total. A run that neither retried nor degraded keeps
    /// `recovery` at `None` so the report renders unchanged.
    pub fn with_recovery(
        mut self,
        partial: Option<&rio_stf::PartialReport>,
        retries: u64,
    ) -> DoctorReport {
        self.recovery = match partial {
            None if retries == 0 => None,
            None => Some(RecoverySummary {
                retries,
                ..RecoverySummary::default()
            }),
            Some(p) => Some(RecoverySummary {
                failed: p.failed.len(),
                skipped: p.skipped.len(),
                poisoned: p.poisoned.len(),
                retries,
                retry_time_ns: p.retry_time.as_nanos() as u64,
            }),
        };
        self
    }

    /// Renders the report as aligned text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rio-doctor: {} tasks on {} workers",
            self.tasks, self.workers
        );

        let mut s = Table::new(["metric", "value"]);
        s.row(["wall".to_string(), fmt_ns(self.wall_ns)]);
        s.row(["total work".to_string(), fmt_ns(self.total_work_ns)]);
        s.row(["critical path".to_string(), fmt_ns(self.critical_path_ns)]);
        s.row([
            "critical path tasks".to_string(),
            format!(
                "{} ({} zero-slack)",
                self.critical_path.len(),
                self.zero_slack_tasks
            ),
        ]);
        s.row([
            "achievable speedup".to_string(),
            format!("{:.2}x", self.achievable_speedup),
        ]);
        s.row([
            "measured speedup".to_string(),
            format!("{:.2}x", self.measured_speedup),
        ]);
        s.row([
            "load imbalance".to_string(),
            format!("{:.2}", self.quality.imbalance),
        ]);
        s.row([
            "cross-worker edges".to_string(),
            format!(
                "{} / {}",
                self.quality.cross_edges, self.quality.total_edges
            ),
        ]);
        s.row([
            "measured durations".to_string(),
            format!("{} / {} tasks", self.measured_tasks, self.tasks),
        ]);
        out.push_str(&s.render());

        out.push_str("\ncritical path (head):\n");
        let head: Vec<String> = self
            .critical_path
            .iter()
            .zip(&self.critical_path_kinds)
            .take(12)
            .map(|(t, k)| format!("{t}:{k}"))
            .collect();
        let ellipsis = if self.critical_path.len() > 12 {
            " -> ..."
        } else {
            ""
        };
        let _ = writeln!(out, "  {}{}", head.join(" -> "), ellipsis);

        if !self.blocking.is_empty() {
            out.push_str("\ntop blocking objects:\n");
            let mut t = Table::new(["data", "waits", "wait", "top writer", "on", "writer wait"]);
            for b in self.blocking.iter().take(10) {
                t.row([
                    b.data.to_string(),
                    b.waits.to_string(),
                    fmt_ns(b.wait_ns),
                    b.writer.to_string(),
                    b.writer_worker.to_string(),
                    fmt_ns(b.writer_ns),
                ]);
            }
            out.push_str(&t.render());
        }

        out.push_str("\nper-worker load:\n");
        let mut t = Table::new(["worker", "tasks", "busy", "wait", "park"]);
        for w in &self.quality.per_worker {
            t.row([
                format!("W{}", w.worker),
                w.tasks.to_string(),
                fmt_ns(w.busy_ns),
                fmt_ns(w.wait_ns),
                fmt_ns(w.park_ns),
            ]);
        }
        out.push_str(&t.render());

        if let Some(rec) = &self.recovery {
            out.push_str("\nrecovery:\n");
            let mut t = Table::new(["metric", "value"]);
            t.row(["failed tasks".to_string(), rec.failed.to_string()]);
            t.row(["skipped (cone)".to_string(), rec.skipped.to_string()]);
            t.row(["poisoned data".to_string(), rec.poisoned.to_string()]);
            t.row(["retries".to_string(), rec.retries.to_string()]);
            t.row(["retry time".to_string(), fmt_ns(rec.retry_time_ns)]);
            out.push_str(&t.render());
        }

        let _ = writeln!(
            out,
            "\nsuggested remap: {} of {} tasks move (greedy earliest-finish)",
            self.moves, self.tasks
        );
        out
    }

    /// The report as a JSON object (hand-rolled, like the rest of the
    /// workspace's exports).
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(1024);
        o.push_str("{\n");
        let _ = writeln!(o, "  \"tasks\": {},", self.tasks);
        let _ = writeln!(o, "  \"workers\": {},", self.workers);
        let _ = writeln!(o, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(o, "  \"total_work_ns\": {},", self.total_work_ns);
        let _ = writeln!(o, "  \"measured_tasks\": {},", self.measured_tasks);
        let _ = writeln!(o, "  \"critical_path_ns\": {},", self.critical_path_ns);
        let path: Vec<String> = self.critical_path.iter().map(|t| t.0.to_string()).collect();
        let _ = writeln!(o, "  \"critical_path\": [{}],", path.join(", "));
        let _ = writeln!(o, "  \"zero_slack_tasks\": {},", self.zero_slack_tasks);
        let _ = writeln!(
            o,
            "  \"achievable_speedup\": {:.3},",
            self.achievable_speedup
        );
        let _ = writeln!(o, "  \"measured_speedup\": {:.3},", self.measured_speedup);
        o.push_str("  \"blocking\": [\n");
        for (i, b) in self.blocking.iter().enumerate() {
            let comma = if i + 1 == self.blocking.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                o,
                "    {{\"data\": {}, \"waits\": {}, \"wait_ns\": {}, \
                 \"writer\": {}, \"writer_worker\": {}, \"writer_ns\": {}}}{}",
                b.data.0, b.waits, b.wait_ns, b.writer.0, b.writer_worker.0, b.writer_ns, comma
            );
        }
        o.push_str("  ],\n");
        let _ = writeln!(o, "  \"imbalance\": {:.3},", self.quality.imbalance);
        let _ = writeln!(o, "  \"cross_edges\": {},", self.quality.cross_edges);
        let _ = writeln!(o, "  \"total_edges\": {},", self.quality.total_edges);
        o.push_str("  \"per_worker\": [\n");
        for (i, w) in self.quality.per_worker.iter().enumerate() {
            let comma = if i + 1 == self.quality.per_worker.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                o,
                "    {{\"worker\": {}, \"tasks\": {}, \"busy_ns\": {}, \
                 \"wait_ns\": {}, \"park_ns\": {}}}{}",
                w.worker, w.tasks, w.busy_ns, w.wait_ns, w.park_ns, comma
            );
        }
        o.push_str("  ],\n");
        match &self.recovery {
            None => o.push_str("  \"recovery\": null,\n"),
            Some(rec) => {
                let _ = writeln!(
                    o,
                    "  \"recovery\": {{\"failed\": {}, \"skipped\": {}, \
                     \"poisoned\": {}, \"retries\": {}, \"retry_time_ns\": {}}},",
                    rec.failed, rec.skipped, rec.poisoned, rec.retries, rec.retry_time_ns
                );
            }
        }
        let _ = writeln!(o, "  \"remap_moves\": {},", self.moves);
        let table: Vec<String> = self.suggested.iter().map(|w| w.0.to_string()).collect();
        let _ = writeln!(o, "  \"remap\": [{}]", table.join(", "));
        o.push_str("}\n");
        o
    }
}

/// Renders `snap` as a [`Table`]: one row per worker plus a total row.
///
/// Numeric columns right-align (the table layer's numeric heuristic);
/// the recovery counters — `retries`, `poisoned` — render as `-` when
/// zero, so a healthy run's table stays scannable instead of ending in a
/// wall of zeros.
pub fn counters_table(snap: &CountersSnapshot) -> Table {
    let mut t = Table::new([
        "worker",
        "tasks",
        "spins",
        "parks",
        "wakes_elided",
        "aborts",
        "retries",
        "poisoned",
    ]);
    // Zero is the steady state for the opt-in layers' counters; a dash
    // reads as "feature idle" where a 0 reads as "measured nothing".
    let dash = |n: u64| {
        if n == 0 {
            "-".to_string()
        } else {
            n.to_string()
        }
    };
    let row = |label: String, r: &CounterRow| {
        vec![
            label,
            r.tasks.to_string(),
            r.spins.to_string(),
            r.parks.to_string(),
            r.wakes_elided.to_string(),
            r.aborts.to_string(),
            dash(r.retries),
            dash(r.poisoned),
        ]
    };
    for (w, r) in snap.workers.iter().enumerate() {
        t.row(row(format!("W{w}"), r));
    }
    t.row(row("total".to_string(), &snap.total()));
    t
}

/// Human-readable nanoseconds (µs/ms/s above the relevant thresholds).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose;
    use rio_stf::{Access, DataId, RoundRobin, TaskGraph};
    use rio_trace::{Trace, TraceConfig, WorkerTracer};
    use std::time::{Duration, Instant};

    fn sample_report() -> DoctorReport {
        let mut b = TaskGraph::builder(1);
        let t1 = b.task(&[Access::write(DataId(0))], 1, "w");
        let t2 = b.task(&[Access::read(DataId(0))], 1, "r");
        let g = b.build();
        let epoch = Instant::now();
        let at = |n: u64| epoch + Duration::from_nanos(n);
        let cfg = TraceConfig::new();
        let mut w0 = WorkerTracer::new(&cfg, 0, epoch);
        w0.task(t1, at(0), at(1_500));
        let mut w1 = WorkerTracer::new(&cfg, 1, epoch);
        w1.wait(t2, DataId(0), false, at(0), at(1_500), 9, 1);
        w1.task(t2, at(1_500), at(2_500));
        let trace = Trace {
            wall_ns: 2_500,
            workers: vec![w0.finish(), w1.finish()],
            extra_threads: 0,
        };
        diagnose(&g, &RoundRobin, 2, &trace)
    }

    #[test]
    fn render_contains_every_section() {
        let r = sample_report().render();
        assert!(r.contains("rio-doctor: 2 tasks on 2 workers"));
        assert!(r.contains("critical path"));
        assert!(r.contains("achievable speedup"));
        assert!(r.contains("top blocking objects"));
        assert!(r.contains("per-worker load"));
        assert!(r.contains("suggested remap"));
        assert!(r.contains("T1:w -> T2:r"));
    }

    #[test]
    fn json_has_the_expected_fields() {
        let j = sample_report().to_json();
        for key in [
            "\"wall_ns\"",
            "\"critical_path_ns\"",
            "\"critical_path\": [1, 2]",
            "\"achievable_speedup\"",
            "\"blocking\"",
            "\"per_worker\"",
            "\"remap\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        // Balanced braces/brackets as a cheap structural check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn recovery_attribution_is_opt_in_and_rendered() {
        // No recovery activity: the report is unchanged.
        let clean = sample_report().with_recovery(None, 0);
        assert!(clean.recovery.is_none());
        assert!(!clean.render().contains("recovery:"));
        assert!(clean.to_json().contains("\"recovery\": null"));

        // Retries without degradation: only the retry count is attributed.
        let retried = sample_report().with_recovery(None, 4);
        let rec = retried.recovery.as_ref().unwrap();
        assert_eq!((rec.failed, rec.retries), (0, 4));

        // A degraded run: failed/skipped/poisoned and retry time carry
        // over from the partial report.
        let partial = rio_stf::PartialReport {
            failed: vec![rio_stf::FailedTask {
                task: rio_stf::TaskId(1),
                worker: rio_stf::WorkerId(0),
                retries: 3,
                detail: rio_stf::FailureDetail::TaskFailed {
                    payload: Box::new("boom"),
                },
            }],
            poisoned: vec![DataId(0)],
            skipped: vec![rio_stf::TaskId(2)],
            retry_time: Duration::from_micros(7),
            flight: Default::default(),
        };
        let degraded = sample_report().with_recovery(Some(&partial), 3);
        let rec = degraded.recovery.as_ref().unwrap();
        assert_eq!(rec.failed, 1);
        assert_eq!(rec.skipped, 1);
        assert_eq!(rec.poisoned, 1);
        assert_eq!(rec.retries, 3);
        assert_eq!(rec.retry_time_ns, 7_000);
        let text = degraded.render();
        assert!(text.contains("recovery:"));
        assert!(text.contains("poisoned data"));
        assert!(text.contains("7.00 µs"));
        let json = degraded.to_json();
        assert!(json.contains("\"recovery\": {\"failed\": 1, \"skipped\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn ns_formatting_picks_sensible_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(1_500), "1.50 µs");
        assert_eq!(fmt_ns(2_000_000), "2.00 ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00 s");
    }

    #[test]
    fn snapshot_renders_as_a_table() {
        let reg = rio_core::CounterRegistry::new(2);
        reg.worker(0).inc_tasks();
        reg.worker(1).add_spins(7);
        let text = counters_table(&reg.snapshot()).render();
        assert!(text.contains("wakes_elided"));
        assert!(text.contains("retries"));
        assert!(text.contains("poisoned"));
        assert!(text.contains("W0"));
        assert!(text.contains("total"));
        assert!(text.contains('7'));
    }

    #[test]
    fn idle_opt_in_counters_render_as_dashes() {
        let reg = rio_core::CounterRegistry::new(1);
        reg.worker(0).inc_tasks();
        let text = counters_table(&reg.snapshot()).render();
        // Recovery layer idle: dashes, not zeros.
        assert!(text.contains('-'), "zero retries render as dashes");
        // Core protocol counters keep their zeros (0 parks is a real
        // measurement, not an idle feature).
        assert!(text.contains('0'));

        let reg = rio_core::CounterRegistry::new(1);
        reg.worker(0).inc_retries();
        let text = counters_table(&reg.snapshot()).render();
        let retries_line = text.lines().find(|l| l.contains("W0")).unwrap();
        assert!(
            retries_line.contains('1'),
            "active recovery counters render numerically: {retries_line}"
        );
    }
}
