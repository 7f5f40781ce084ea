//! The assembled run trace: aggregation and export.

use std::io;
use std::path::Path;
use std::time::Duration;

use rio_metrics::CumulativeTimes;
use rio_stf::validate::{validate_spans, ScheduleViolation, Span};
use rio_stf::{TaskGraph, TaskId};

use crate::chrome;
use crate::event::EventKind;
use crate::tracer::WorkerTrace;

/// A whole run's trace: one [`WorkerTrace`] per worker plus the wall time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Wall-clock time of the run, ns.
    pub wall_ns: u64,
    /// Per-worker traces, in worker order.
    pub workers: Vec<WorkerTrace>,
    /// Runtime threads beyond the traced workers (1 for the centralized
    /// baseline's dedicated master, 0 for the decentralized runtimes).
    /// Counted in `p` so [`Trace::quadruple`] charges their time to
    /// runtime management, matching the paper's accounting.
    pub extra_threads: usize,
}

impl Trace {
    /// The `(p, t_p, τ_{p,t}, τ_{p,i})` quadruple of this run, ready for
    /// [`rio_metrics::decompose`].
    ///
    /// `p` counts only workers that executed at least one task (plus
    /// [`Trace::extra_threads`]). A worker that recorded park events but
    /// ran zero tasks — e.g. a thread the mapping never targets — would
    /// otherwise inflate the decomposition denominator `p · t_p`, charging
    /// the run for capacity the mapping never intended to use
    /// (double-charging: the idle thread's whole lifetime would land in
    /// runtime-management time).
    pub fn quadruple(&self) -> CumulativeTimes {
        let task: u64 = self.workers.iter().map(|w| w.task_ns).sum();
        let idle: u64 = self.workers.iter().map(|w| w.idle_ns()).sum();
        let active = self.workers.iter().filter(|w| w.tasks > 0).count();
        CumulativeTimes {
            threads: active + self.extra_threads,
            wall: Duration::from_nanos(self.wall_ns),
            task: Duration::from_nanos(task),
            idle: Duration::from_nanos(idle),
        }
    }

    /// Total events surviving across all workers.
    pub fn num_events(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// Total events overwritten across all workers.
    pub fn dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// One `(task, start, end)` span per surviving task event, across
    /// workers (unordered), in nanoseconds since the run began.
    pub fn spans(&self) -> Vec<Span> {
        let events = self.workers.iter().flat_map(|w| &w.events);
        events
            .filter(|e| e.kind == EventKind::Task)
            .map(|e| Span {
                task: TaskId(u64::from(e.id)),
                start: e.start_ns,
                end: e.end_ns,
            })
            .collect()
    }

    /// Audits the run's [`Trace::spans`] against the STF semantics of
    /// `graph`: every dependency completed before its dependent started,
    /// and no conflicting tasks overlapped.
    ///
    /// # Errors
    /// [`ScheduleViolation::NotAPermutation`] when a task has no span —
    /// the ring dropped its event ([`Trace::dropped`]; see
    /// `TraceConfig::capacity`) or the run did not execute it; otherwise
    /// the first violation found.
    pub fn audit(&self, graph: &TaskGraph) -> Result<(), ScheduleViolation> {
        validate_spans(graph, &self.spans())
    }

    /// The trace as Chrome-trace (`chrome://tracing` / Perfetto) JSON.
    pub fn chrome_json(&self) -> String {
        chrome::to_json(self)
    }

    /// Writes [`Trace::chrome_json`] to `path`.
    pub fn write_chrome(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use rio_stf::{DataId, TaskId};

    fn worker(id: u32, task_ns: u64, wait_ns: u64, park_ns: u64) -> WorkerTrace {
        WorkerTrace {
            worker: id,
            // Helpers model active workers; quadruple() only counts
            // workers with tasks > 0.
            tasks: 1,
            task_ns,
            wait_ns,
            park_ns,
            ..WorkerTrace::default()
        }
    }

    #[test]
    fn quadruple_sums_workers_and_counts_extra_threads() {
        let t = Trace {
            wall_ns: 1_000,
            workers: vec![worker(0, 600, 100, 0), worker(1, 500, 150, 50)],
            extra_threads: 1,
        };
        let q = t.quadruple();
        assert_eq!(q.threads, 3);
        assert_eq!(q.wall, Duration::from_nanos(1_000));
        assert_eq!(q.task, Duration::from_nanos(1_100));
        assert_eq!(q.idle, Duration::from_nanos(300));
        // total = p * wall; runtime = total - task - idle.
        assert_eq!(q.total(), Duration::from_nanos(3_000));
        assert_eq!(q.runtime(), Duration::from_nanos(1_600));
    }

    #[test]
    fn quadruple_excludes_workers_that_ran_no_tasks() {
        // A park-only worker (zero tasks) must not inflate `p`: its park
        // time still lands in idle, but the denominator counts only the
        // two workers the mapping actually used.
        let mut idle_worker = worker(2, 0, 0, 400);
        idle_worker.tasks = 0;
        let t = Trace {
            wall_ns: 1_000,
            workers: vec![worker(0, 600, 100, 0), worker(1, 500, 150, 50), idle_worker],
            extra_threads: 0,
        };
        let q = t.quadruple();
        assert_eq!(q.threads, 2, "zero-task workers are not charged to p");
        assert_eq!(q.idle, Duration::from_nanos(700));
    }

    #[test]
    fn quadruple_feeds_decompose() {
        let t = Trace {
            wall_ns: 1_000,
            workers: vec![worker(0, 900, 100, 0), worker(1, 900, 100, 0)],
            extra_threads: 0,
        };
        let q = t.quadruple();
        let seq = Duration::from_nanos(1_800);
        let d = rio_metrics::decompose(seq, seq, &q);
        assert!((d.e_g - 1.0).abs() < 1e-12);
        assert!((d.e_l - 1.0).abs() < 1e-12);
        assert!((d.e_p - 0.9).abs() < 1e-12);
        assert!((d.e_r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn task_events_are_the_spans_the_audit_checks() {
        use rio_stf::Access;
        // T1 writes D0, T2 reads it: T2 may start only once T1 has ended.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w");
        b.task(&[Access::read(DataId(0))], 1, "r");
        let g = b.build();
        let trace = |t2_start: u64| {
            let mut w0 = worker(0, 0, 0, 0);
            w0.events = vec![
                TraceEvent::task(TaskId(1), 0, 10),
                TraceEvent::wait(TaskId(2), DataId(0), false, 0, 10, 1, 0),
            ];
            let mut w1 = worker(1, 0, 0, 0);
            w1.events = vec![TraceEvent::task(TaskId(2), t2_start, t2_start + 5)];
            Trace {
                wall_ns: 20,
                workers: vec![w0, w1],
                extra_threads: 0,
            }
        };
        assert_eq!(trace(10).spans().len(), 2, "waits are not spans");
        assert_eq!(trace(10).num_events(), 3);
        assert_eq!(trace(10).audit(&g), Ok(()));
        assert_eq!(
            trace(9).audit(&g),
            Err(ScheduleViolation::DependencyOrder {
                task: TaskId(2),
                dependency: TaskId(1)
            })
        );
        let mut lost = trace(10);
        lost.workers[1].events.clear();
        assert!(matches!(
            lost.audit(&g),
            Err(ScheduleViolation::NotAPermutation { missing: 1, .. })
        ));
    }
}
