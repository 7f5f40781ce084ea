//! The entry point: one builder, one engine.
//!
//! Configure a [`RioConfig`], choose a mapping (total, or partial with
//! [`Executor::hybrid`]), optionally trace, and [`Executor::run`]. A run
//! is [`Executor::compile`] followed by [`CompiledFlow::run`]: the flow
//! is lowered once, on the calling thread, into one program per worker
//! ([`crate::compile`]), and the workers run their programs. A flow that
//! executes more than once keeps the [`CompiledFlow`] and skips the first
//! half.
//!
//! ```
//! use rio_core::prelude::*;
//!
//! let mut b = TaskGraph::builder(1);
//! for _ in 0..100 {
//!     b.task(&[Access::read_write(DataId(0))], 1, "inc");
//! }
//! let g = b.build();
//! let store = DataStore::from_vec(vec![0u64]);
//!
//! let run = Executor::new(RioConfig::with_workers(2))
//!     .mapping(&RoundRobin)
//!     .run(&g, |_, _| *store.write(DataId(0)) += 1);
//!
//! assert_eq!(run.report.tasks_executed(), 100);
//! assert!(run.outcome.is_complete());
//! assert_eq!(store.into_vec(), vec![100]);
//! ```

use std::sync::Arc;
use std::time::Duration;

use rio_stf::{ExecError, Mapping, RoundRobin, TaskDesc, TaskGraph, WorkerId};

use crate::compile::CompiledFlow;
use crate::config::RioConfig;
use crate::counters::CountersSnapshot;
use crate::hybrid::{HybridStats, PartialMapping};
use crate::pool::WorkerSet;
use crate::report::ExecReport;
use rio_trace::{Trace, TraceConfig};

/// Builder for a RIO execution. See the [module docs](self).
///
/// The mapping is either total — [`Executor::mapping`], [`RoundRobin`] if
/// none is set — or partial: [`Executor::hybrid`] replaces the total
/// mapping, the tasks it leaves unmapped are claimed at run time, and
/// [`Execution::hybrid`] reports the claims.
///
/// A clone shares the worker set: `ex.clone().mapping(&other)` runs on
/// the same threads.
#[derive(Clone)]
#[must_use = "an Executor does nothing until `.run()` is called"]
pub struct Executor<'a> {
    cfg: RioConfig,
    /// The worker threads, started by the first run and shared with every
    /// flow this executor compiles and every executor derived from it.
    set: Arc<WorkerSet>,
    mapping: Option<&'a dyn Mapping>,
    partial: Option<&'a dyn PartialMapping>,
}

/// How an [`Execution`] finished: cleanly, or degraded by permanent task
/// failures that the installed [`crate::RecoveryPolicy`] contained.
#[derive(Debug, Default)]
pub enum RunOutcome {
    /// Every task executed successfully (always the case when no
    /// recovery policy is installed — failures surface as [`ExecError`]).
    #[default]
    Complete,
    /// At least one task exhausted its retries: the
    /// [`PartialReport`](rio_stf::PartialReport) lists the failed tasks
    /// (with captured payloads and retry counts), the poisoned data cone
    /// and the transitively skipped dependents. Every task outside the
    /// cone executed normally and its results are valid.
    Degraded(rio_stf::PartialReport),
}

impl RunOutcome {
    /// `true` when every task executed successfully.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunOutcome::Complete)
    }

    /// The degraded run's partial report, if any.
    pub fn partial(&self) -> Option<&rio_stf::PartialReport> {
        match self {
            RunOutcome::Complete => None,
            RunOutcome::Degraded(p) => Some(p),
        }
    }
}

impl From<Option<rio_stf::PartialReport>> for RunOutcome {
    fn from(partial: Option<rio_stf::PartialReport>) -> RunOutcome {
        partial.map_or(RunOutcome::Complete, RunOutcome::Degraded)
    }
}

/// Result of an [`Executor::run`] or [`CompiledFlow::run`]: the report
/// plus what tracing and a partial mapping additionally produce.
#[derive(Debug, Default)]
pub struct Execution {
    /// The execution report (wall time, per-worker times, op counts).
    pub report: ExecReport,
    /// Whether the run completed cleanly or degraded under the
    /// [`crate::RecoveryPolicy`] (always [`RunOutcome::Complete`] without
    /// one).
    pub outcome: RunOutcome,
    /// The run's always-on counters snapshot (empty only when
    /// [`RioConfig::counters`] was disabled): what `rio_doctor::tune`
    /// diagnoses when there is no trace.
    pub counters: CountersSnapshot,
    /// Dynamic-claim statistics (`Some` iff the mapping was a partial
    /// one).
    pub hybrid: Option<HybridStats>,
    /// The event trace (`Some` iff tracing was enabled).
    pub trace: Option<Trace>,
}

impl<'a> Executor<'a> {
    /// An executor with the given configuration and defaults elsewhere:
    /// [`RoundRobin`] mapping, no tracing.
    ///
    /// # Panics
    /// If the configuration is invalid.
    pub fn new(cfg: RioConfig) -> Executor<'a> {
        cfg.validate();
        Executor {
            set: Arc::default(),
            cfg,
            mapping: None,
            partial: None,
        }
    }

    /// Sets the total task mapping (default: [`RoundRobin`]). Ignored if a
    /// partial mapping is set with [`Executor::hybrid`].
    pub fn mapping(mut self, mapping: &'a dyn Mapping) -> Executor<'a> {
        self.mapping = Some(mapping);
        self
    }

    /// Switches to the hybrid model: tasks `partial` maps run on their
    /// fixed worker, the rest are claimed dynamically. Takes precedence
    /// over [`Executor::mapping`].
    pub fn hybrid(mut self, partial: &'a dyn PartialMapping) -> Executor<'a> {
        self.partial = Some(partial);
        self
    }

    /// Enables event tracing for this run (shorthand for setting
    /// [`RioConfig::trace`]). The run returns the trace
    /// ([`Execution::trace`]); it writes no file.
    pub fn trace(mut self, trace: TraceConfig) -> Executor<'a> {
        self.cfg.trace = Some(trace);
        self
    }

    /// Arms the stall watchdog (shorthand for [`RioConfig::watchdog`]): a
    /// worker blocked in a dependency wait for longer than `deadline`
    /// aborts the run with [`ExecError::Stalled`] instead of hanging it.
    pub fn watchdog(mut self, deadline: Duration) -> Executor<'a> {
        self.cfg.watchdog = Some(deadline);
        self
    }

    /// The configuration this executor will run with.
    pub fn config(&self) -> &RioConfig {
        &self.cfg
    }

    /// The total mapping this executor runs under — [`RoundRobin`] if none
    /// was set — or `None` under [`Executor::hybrid`], which has none.
    pub fn total_mapping(&self) -> Option<&'a dyn Mapping> {
        match self.partial {
            Some(_) => None,
            None => Some(self.mapping.unwrap_or(&RoundRobin)),
        }
    }

    /// Compiles `graph` into one program per worker holding that worker's
    /// own tasks only (see [`crate::compile`]): mapping evaluation and
    /// validation are paid once, in one pass over the flow, and
    /// the epoch word every access waits for is precomputed, so non-local
    /// tasks leave nothing behind to replay. Under a partial mapping
    /// ([`Executor::hybrid`]) the unmapped tasks are in every program,
    /// claim-marked. The returned [`CompiledFlow`] can be
    /// [run](CompiledFlow::run) any number of times and borrows only
    /// `graph` (the configuration is captured).
    ///
    /// # Panics
    /// If the mapping is not total, not deterministic or names a worker
    /// that does not exist. Use [`Executor::try_compile`] to handle that
    /// structurally.
    pub fn compile<'g>(&self, graph: &'g TaskGraph) -> CompiledFlow<'g> {
        self.try_compile(graph).unwrap_or_else(|e| e.resume())
    }

    /// Like [`Executor::compile`], but a mapping failing validation is
    /// returned as [`ExecError::InvalidMapping`] instead of a panic.
    ///
    /// # Errors
    /// [`ExecError::InvalidMapping`] from the mapping check;
    /// [`ExecError::InvalidGraph`] for a flow the packed epoch word cannot
    /// represent.
    pub fn try_compile<'g>(&self, graph: &'g TaskGraph) -> Result<CompiledFlow<'g>, ExecError> {
        match self.partial {
            Some(partial) => crate::compile::try_compile(&self.cfg, &self.set, graph, partial),
            None => {
                let mapping = self.mapping.unwrap_or(&RoundRobin);
                crate::compile::try_compile(&self.cfg, &self.set, graph, mapping)
            }
        }
    }

    /// Executes `graph`, invoking `kernel(worker, task)` exactly once per
    /// task on the worker the mapping designates (or, for a task a
    /// partial mapping leaves unmapped, on whichever worker claims it):
    /// [`Executor::compile`], then one [`CompiledFlow::run`].
    ///
    /// # Panics
    /// Propagates task-body panics (with their original payload); panics
    /// with the diagnostic rendering of any other [`ExecError`] (invalid
    /// mapping, watchdog stall). Use [`Executor::try_run`] to handle
    /// failures structurally.
    pub fn run<K>(&self, graph: &TaskGraph, kernel: K) -> Execution
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        self.try_run(graph, kernel).unwrap_or_else(|e| e.resume())
    }

    /// Like [`Executor::run`], but a contained failure is returned as a
    /// structured [`ExecError`] instead of a panic:
    ///
    /// * a task-body panic on any worker ⇒ [`ExecError::TaskPanicked`]
    ///   carrying the task, the worker and the original payload — the
    ///   remaining workers are woken and drained, never left hanging;
    /// * a dependency wait exceeding the [`Executor::watchdog`] deadline ⇒
    ///   [`ExecError::Stalled`] with a dump of the blocked data object's
    ///   counters and every worker's progress;
    /// * a mapping that is not total, not deterministic or names a worker
    ///   that does not exist ⇒ [`ExecError::InvalidMapping`] at compile
    ///   time, before any worker starts.
    ///
    /// # Errors
    /// See [`ExecError`] for the exact post-abort state guarantees.
    pub fn try_run<K>(&self, graph: &TaskGraph, kernel: K) -> Result<Execution, ExecError>
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        self.try_compile(graph)?.try_run(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::{PartialFn, Total, Unmapped};
    use crate::wait::WaitStrategy;
    use rio_stf::{DataId, DataStore};
    use std::sync::atomic::{AtomicU64, Ordering};

    use crate::testing::chain as chain_graph;

    #[test]
    fn default_mapping_is_round_robin() {
        let g = chain_graph(100);
        let store = DataStore::from_vec(vec![0u64]);
        let run = Executor::new(RioConfig::with_workers(2)).run(&g, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(run.report.tasks_executed(), 100);
        // Round-robin over 2 workers: both executed half.
        assert_eq!(run.report.workers[0].tasks_executed, 50);
        assert!(run.hybrid.is_none());
        assert!(run.trace.is_none());
        assert_eq!(store.into_vec(), vec![100]);
    }

    #[test]
    fn hybrid_reports_stats_and_replaces_the_total_mapping() {
        let g = chain_graph(200);
        let store = DataStore::from_vec(vec![0u64]);
        // Everything on W2 — had the partial mapping not taken precedence.
        let all_on_2 = rio_stf::TableMapping::from_fn(200, |_| WorkerId(2));
        let run = Executor::new(RioConfig::with_workers(3))
            .mapping(&all_on_2)
            .hybrid(&Unmapped)
            .run(&g, |_, _| {
                *store.write(DataId(0)) += 1;
            });
        assert_eq!(store.into_vec(), vec![200]);
        let stats = run.hybrid.expect("hybrid stats present");
        assert_eq!(stats.claimed_per_worker.iter().sum::<u64>(), 200);
        // Every program held all 200 claim-marked tasks, and each worker
        // either won or lost each of them.
        for w in 0..3 {
            assert_eq!(run.report.workers[w].tasks_visited, 200);
            assert_eq!(
                stats.claimed_per_worker[w] + stats.lost_races_per_worker[w],
                200
            );
        }
    }

    #[test]
    fn all_variants_agree_on_results() {
        let g = chain_graph(300);
        let run_with = |ex: Executor<'_>| {
            let store = DataStore::from_vec(vec![0u64]);
            let run = ex.run(&g, |_, _| *store.write(DataId(0)) += 1);
            (store.into_vec()[0], run.report.tasks_executed())
        };
        let cfg = || RioConfig::with_workers(3).wait(WaitStrategy::Park);
        let odd = PartialFn(|t: rio_stf::TaskId, _| (t.0 % 2 == 1).then_some(WorkerId(1)));
        assert_eq!(run_with(Executor::new(cfg())), (300, 300));
        assert_eq!(run_with(Executor::new(cfg()).hybrid(&Unmapped)), (300, 300));
        assert_eq!(run_with(Executor::new(cfg()).hybrid(&odd)), (300, 300));
        assert_eq!(
            run_with(Executor::new(cfg()).hybrid(&Total(RoundRobin))),
            (300, 300)
        );
    }

    #[test]
    fn every_variant_carries_the_counters_snapshot() {
        // Tuner input is uniform: one-shot, hybrid and reused-flow runs all
        // surface the same always-on counters on the Execution.
        let g = chain_graph(60);
        let base = || RioConfig::with_workers(2).wait(WaitStrategy::Park);
        let plain = Executor::new(base()).run(&g, |_, _| {});
        let hybrid = Executor::new(base()).hybrid(&Unmapped).run(&g, |_, _| {});
        let flow = Executor::new(base()).compile(&g);
        flow.run(|_, _| {});
        let reused = flow.run(|_, _| {});
        for run in [&plain, &hybrid, &reused] {
            assert_eq!(run.counters.total().tasks, 60);
            assert_eq!(
                run.counters, run.report.counters,
                "snapshot mirrors the report"
            );
        }
        // Counters off: the snapshot is present but empty.
        let off = Executor::new(base().counters(false)).run(&g, |_, _| {});
        assert!(off.counters.is_empty());
    }

    #[test]
    fn try_run_surfaces_a_task_panic_as_a_structured_error() {
        let g = chain_graph(40);
        let err = Executor::new(RioConfig::with_workers(2).wait(WaitStrategy::Park))
            .try_run(&g, |_, t| {
                if t.id == rio_stf::TaskId(7) {
                    panic!("kernel exploded");
                }
            })
            .expect_err("the injected panic must abort the run");
        match err {
            ExecError::TaskPanicked {
                task,
                worker,
                payload,
                ..
            } => {
                assert_eq!(task, rio_stf::TaskId(7));
                // Round-robin over 2 workers: T7 is flow index 6 → worker 0.
                assert_eq!(worker, WorkerId(0));
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"kernel exploded"));
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn try_run_rejects_a_short_table_mapping_before_any_kernel_runs() {
        let g = chain_graph(10);
        let ran = AtomicU64::new(0);
        // A table mapping covering only 5 of the 10 tasks: not total.
        let table = rio_stf::TableMapping::from_fn(5, |_| WorkerId(0));
        let err = Executor::new(RioConfig::with_workers(2))
            .mapping(&table)
            .try_run(&g, |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .expect_err("a partial table must fail pre-flight validation");
        assert_eq!(err.kind(), "invalid-mapping");
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no kernel invocation");
    }

    #[test]
    fn try_run_rejects_an_out_of_range_mapping_for_every_variant() {
        struct Bad;
        impl Mapping for Bad {
            fn worker_of(&self, _: rio_stf::TaskId, workers: usize) -> WorkerId {
                WorkerId(workers as u32) // one past the end
            }
        }
        let g = chain_graph(4);
        let as_partial = Total(Bad);
        let exec = || Executor::new(RioConfig::with_workers(2));
        for exec in [exec().mapping(&Bad), exec().hybrid(&as_partial)] {
            let err = exec
                .try_run(&g, |_, _| {})
                .expect_err("out-of-range mapping must be rejected");
            match err {
                ExecError::InvalidMapping(rio_stf::MappingError::OutOfRange {
                    worker,
                    workers,
                    ..
                }) => {
                    assert_eq!(worker, WorkerId(2));
                    assert_eq!(workers, 2);
                }
                other => panic!("expected OutOfRange, got {other:?}"),
            }
        }
    }

    #[test]
    fn watchdog_converts_an_overlong_wait_into_a_stall_error() {
        // Worker 1 waits on D0 while worker 0's body holds the chain head
        // far past the deadline. (The dropped-task reproducer — a mapping
        // that lies at run time — lives in the `rio-faults` test suite.)
        let g = chain_graph(2); // T1 -> T2 through D0
        let err = Executor::new(
            RioConfig::with_workers(2)
                .wait(WaitStrategy::Park)
                .spin_limit(4),
        )
        .watchdog(Duration::from_millis(50))
        .try_run(&g, |_, t| {
            if t.id == rio_stf::TaskId(1) {
                // Hold the chain head long past the sibling's deadline.
                std::thread::sleep(Duration::from_millis(400));
            }
        })
        .expect_err("the sibling's wait must trip the watchdog");
        match err {
            ExecError::Stalled(diag) => {
                assert_eq!(diag.worker, WorkerId(1), "worker 1 waited on T2's D0");
                assert!(diag.waited >= Duration::from_millis(50));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn traced_run_returns_a_trace() {
        let g = chain_graph(120);
        let store = DataStore::from_vec(vec![0u64]);
        let run = Executor::new(RioConfig::with_workers(2).wait(WaitStrategy::Park))
            .trace(TraceConfig::new())
            .run(&g, |_, _| {
                *store.write(DataId(0)) += 1;
            });
        assert_eq!(store.into_vec(), vec![120]);
        let trace = run.trace.expect("trace present");
        assert_eq!(trace.workers.len(), 2);
        assert_eq!(trace.extra_threads, 0);
        // Every executed task produced a task event (no ring overflow
        // at the default capacity).
        assert_eq!(
            trace.workers.iter().map(|w| w.tasks).sum::<u64>(),
            120,
            "one task record per executed task"
        );
        // Counters the runtime filled in.
        let ops = run.report.total_ops();
        assert_eq!(trace.workers.iter().map(|w| w.gets).sum::<u64>(), ops.gets);
        assert_eq!(
            trace.workers.iter().map(|w| w.declares).sum::<u64>(),
            ops.declares
        );
        // The quadruple is internally consistent.
        let q = trace.quadruple();
        assert_eq!(q.threads, 2);
        assert!(q.task + q.idle <= q.total() + q.wall); // sanity, not exact
    }
}
