//! Structured execution errors — the failure model shared by every runtime.
//!
//! The STF model itself has no failure story: a task body is a total
//! function and a mapping is a total, deterministic assignment. Real
//! programs break both assumptions — a kernel panics, a user-supplied
//! mapping drops a task or answers differently on two probes — and in a
//! blocking protocol any of those silently deadlocks the whole pool.
//! [`ExecError`] is the contract both runtimes honor instead: a run either
//! completes, or returns one of these within a bounded delay, never hangs.
//!
//! What is (and is not) guaranteed after an `ExecError`:
//!
//! * **No task body is started** after the abort is observed; bodies
//!   already running finish (or unwind) before the runtime returns.
//! * **The data store is left consistent at the granularity of task
//!   bodies**: every body either ran to completion or never started, so no
//!   object holds a half-written value from an interrupted body — but the
//!   *set* of executed tasks is a dependency-closed prefix-like subset of
//!   the flow, not the whole flow. Treat the data as scratch after an
//!   error.
//! * **Worker threads are joined** before the error is returned: no
//!   detached thread keeps touching the store.

use std::fmt;
use std::time::Duration;

use crate::flight::FlightLog;
use crate::graph::GraphError;
use crate::ids::{DataId, TaskId, WorkerId};

/// Why a run aborted instead of completing.
///
/// Carries everything a post-mortem needs; see the module docs for the
/// state guarantees that hold when one of these is returned.
pub enum ExecError {
    /// A task body panicked. The payload is the original panic payload,
    /// suitable for [`std::panic::resume_unwind`].
    TaskPanicked {
        /// The task whose body panicked.
        task: TaskId,
        /// The worker that was executing it.
        worker: WorkerId,
        /// The panic payload, unmodified.
        payload: Box<dyn std::any::Any + Send>,
        /// Flight-recorder bundle: the last protocol events of every
        /// worker, dumped after they all stopped (empty when the recorder
        /// was disabled, or the runtime has none). The panicking worker's
        /// history ends with the body's `start` and the `abort`.
        flight: FlightLog,
    },
    /// A worker waited past the configured watchdog deadline. The boxed
    /// diagnostic names the blocked task and data object and snapshots the
    /// protocol counters of everyone involved.
    Stalled(Box<StallDiagnostic>),
    /// The mapping failed pre-flight validation; no worker was spawned.
    InvalidMapping(MappingError),
    /// The graph failed pre-flight validation (e.g. a task id overflows
    /// the packed epoch word); no worker was spawned.
    InvalidGraph(GraphError),
}

impl ExecError {
    /// Short machine-friendly tag (`task-panicked`, `stalled`,
    /// `invalid-mapping`).
    pub fn kind(&self) -> &'static str {
        match self {
            ExecError::TaskPanicked { .. } => "task-panicked",
            ExecError::Stalled(_) => "stalled",
            ExecError::InvalidMapping(_) => "invalid-mapping",
            ExecError::InvalidGraph(_) => "invalid-graph",
        }
    }

    /// Converts the error back into a panic, for the panicking `run`-style
    /// wrappers: a task panic is re-thrown with its original payload, the
    /// other variants panic with their diagnostic rendering.
    pub fn resume(self) -> ! {
        match self {
            ExecError::TaskPanicked { payload, .. } => std::panic::resume_unwind(payload),
            other => panic!("{other}"),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::TaskPanicked {
                task,
                worker,
                payload,
                ..
            } => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .map(str::to_owned)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string payload>".to_owned());
                write!(f, "task {task} panicked on {worker}: {msg}")
            }
            ExecError::Stalled(d) => write!(f, "{d}"),
            ExecError::InvalidMapping(e) => write!(f, "invalid mapping: {e}"),
            ExecError::InvalidGraph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl fmt::Debug for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::TaskPanicked { task, worker, .. } => f
                .debug_struct("TaskPanicked")
                .field("task", task)
                .field("worker", worker)
                .finish_non_exhaustive(),
            ExecError::Stalled(d) => f.debug_tuple("Stalled").field(d).finish(),
            ExecError::InvalidMapping(e) => f.debug_tuple("InvalidMapping").field(e).finish(),
            ExecError::InvalidGraph(e) => f.debug_tuple("InvalidGraph").field(e).finish(),
        }
    }
}

impl std::error::Error for ExecError {}

/// Why a task failed permanently under a recovery policy.
///
/// Produced by the recovery layer after the retry budget is exhausted;
/// carried inside [`FailedTask`] within a [`PartialReport`].
pub enum FailureDetail {
    /// Every attempt panicked. The payload is from the *last* attempt,
    /// unmodified, suitable for [`std::panic::resume_unwind`].
    TaskFailed {
        /// The final panic payload.
        payload: Box<dyn std::any::Any + Send>,
    },
    /// The per-task retry deadline expired before any attempt succeeded
    /// (the payload of the last attempt, if one panicked, is dropped —
    /// the deadline, not the panic, is what ended the task).
    TaskTimedOut {
        /// How long the task spent across all attempts (bodies plus
        /// backoff sleeps) before the deadline cut it off.
        spent: Duration,
        /// The configured per-task deadline.
        deadline: Duration,
    },
}

impl FailureDetail {
    /// Short machine-friendly tag (`task-failed`, `task-timed-out`).
    pub fn kind(&self) -> &'static str {
        match self {
            FailureDetail::TaskFailed { .. } => "task-failed",
            FailureDetail::TaskTimedOut { .. } => "task-timed-out",
        }
    }
}

impl fmt::Display for FailureDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureDetail::TaskFailed { payload } => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .map(str::to_owned)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string payload>".to_owned());
                write!(f, "failed every attempt: {msg}")
            }
            FailureDetail::TaskTimedOut { spent, deadline } => {
                write!(f, "timed out after {spent:?} (deadline {deadline:?})")
            }
        }
    }
}

impl fmt::Debug for FailureDetail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureDetail::TaskFailed { .. } => {
                f.debug_struct("TaskFailed").finish_non_exhaustive()
            }
            FailureDetail::TaskTimedOut { spent, deadline } => f
                .debug_struct("TaskTimedOut")
                .field("spent", spent)
                .field("deadline", deadline)
                .finish(),
        }
    }
}

/// One permanently-failed task in a degraded run.
#[derive(Debug)]
pub struct FailedTask {
    /// The task that exhausted its retry budget.
    pub task: TaskId,
    /// The worker that owned it.
    pub worker: WorkerId,
    /// How many *re*-attempts ran (0 means the first attempt was also the
    /// last — the policy allowed no retries or the deadline was already
    /// past).
    pub retries: u32,
    /// Why the task was finally given up on.
    pub detail: FailureDetail,
}

impl fmt::Display for FailedTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} on {} ({} retries): {}",
            self.task, self.worker, self.retries, self.detail
        )
    }
}

/// What survived a degraded run: the failure set, the poisoned cone, and
/// the dependents that were skipped to keep the flow in-order.
///
/// Every datum *not* listed in [`poisoned`](PartialReport::poisoned)
/// holds exactly the value a fault-free run would have produced — the
/// protocol kept advancing (skip-but-sync), so the healthy part of the
/// flow ran to completion.
#[derive(Debug, Default)]
pub struct PartialReport {
    /// Tasks that exhausted their retry budget, in task order.
    pub failed: Vec<FailedTask>,
    /// Data objects whose final value is untrustworthy: everything
    /// written by a failed task or by a skipped dependent, in id order.
    pub poisoned: Vec<DataId>,
    /// Dependents whose kernels were skipped because they accessed a
    /// poisoned datum, in task order. Disjoint from the failed set.
    pub skipped: Vec<TaskId>,
    /// Wall-clock time spent inside retry backoff sleeps and failed
    /// attempts, summed over all workers (for doctor attribution).
    pub retry_time: Duration,
    /// Flight-recorder dump: the last protocol events of every worker at
    /// the moment the run finished degraded. Empty when the recorder was
    /// disabled.
    pub flight: FlightLog,
}

impl PartialReport {
    /// `true` when nothing failed (the run was not actually degraded).
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty() && self.poisoned.is_empty() && self.skipped.is_empty()
    }

    /// Is `data` inside the poisoned cone?
    pub fn is_poisoned(&self, data: DataId) -> bool {
        self.poisoned.binary_search(&data).is_ok()
    }
}

impl fmt::Display for PartialReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degraded: {} failed, {} skipped, {} poisoned data",
            self.failed.len(),
            self.skipped.len(),
            self.poisoned.len()
        )?;
        for ft in &self.failed {
            write!(f, "\n  {ft}")?;
        }
        if !self.flight.is_empty() {
            write!(f, "\n{}", self.flight)?;
        }
        Ok(())
    }
}

/// Where a stalled worker was blocked when the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StallSite {
    /// A decentralized `get_read`/`get_write` that never became ready: the
    /// private (registered) view vs. the shared (performed) counters of
    /// the blocked data object.
    DataWait {
        /// The task whose acquisition stalled.
        task: TaskId,
        /// The blocked data object.
        data: DataId,
        /// `true` for a `get_write`, `false` for a `get_read`.
        write: bool,
        /// The stalled worker's private `nb_reads_since_write`.
        local_reads_since_write: u64,
        /// The stalled worker's private `last_registered_write`.
        local_last_registered_write: TaskId,
        /// The shared `nb_reads_since_write` at the time of the dump.
        shared_reads_since_write: u64,
        /// The shared `last_executed_write` at the time of the dump.
        shared_last_executed_write: TaskId,
        /// The raw packed epoch word the two shared fields were decoded
        /// from — one coherent atomic load, rendered in hex for
        /// cross-checking against the runtime's packed representation.
        shared_epoch_word: u64,
    },
    /// A centralized pool worker found no ready task for the whole
    /// deadline while the run was not finished.
    IdleWorker,
    /// The centralized master was blocked on the submission window: the
    /// in-flight count never dropped below `window`.
    MasterThrottle {
        /// Submitted-but-unexecuted tasks at the time of the dump.
        in_flight: usize,
        /// The configured submission window.
        window: usize,
    },
}

impl fmt::Display for StallSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallSite::DataWait {
                task,
                data,
                write,
                local_reads_since_write,
                local_last_registered_write,
                shared_reads_since_write,
                shared_last_executed_write,
                shared_epoch_word,
            } => write!(
                f,
                "{} of {data} for {task}: registered (reads={local_reads_since_write}, \
                 write={local_last_registered_write}) vs performed \
                 (reads={shared_reads_since_write}, write={shared_last_executed_write}, \
                 epoch word {shared_epoch_word:#018x})",
                if *write { "get_write" } else { "get_read" },
            ),
            StallSite::IdleWorker => write!(f, "idle with no ready task"),
            StallSite::MasterThrottle { in_flight, window } => write!(
                f,
                "master throttled: {in_flight} in-flight tasks never dropped below window {window}"
            ),
        }
    }
}

/// One worker's progress at the moment a stall was diagnosed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The worker.
    pub worker: WorkerId,
    /// The last task whose body this worker completed ([`TaskId::NONE`]
    /// if it completed none).
    pub last_completed: TaskId,
    /// How many task bodies this worker completed.
    pub tasks_executed: u64,
    /// The data object this worker was blocked on, if it was blocked.
    pub waiting_on: Option<DataId>,
    /// Steals this worker performed since its last progress tick
    /// (0 when the runtime does not track counters). A stall report with
    /// large deltas here shows a worker that kept *doing* things without
    /// completing its own tasks — a steal storm, not a dead wait.
    pub steals_since_tick: u64,
    /// Retry attempts since the last progress tick — distinguishes a
    /// retry storm (recovery churning on a failing task) from a worker
    /// that is simply blocked.
    pub retries_since_tick: u64,
}

impl fmt::Display for WorkerSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} done (last {})",
            self.worker, self.tasks_executed, self.last_completed
        )?;
        if let Some(d) = self.waiting_on {
            write!(f, ", blocked on {d}")?;
        }
        if self.steals_since_tick > 0 || self.retries_since_tick > 0 {
            write!(
                f,
                ", since tick: +{} steals, +{} retries",
                self.steals_since_tick, self.retries_since_tick
            )?;
        }
        Ok(())
    }
}

/// The diagnostic dump produced when a watchdog deadline expires: who was
/// blocked, on what, and what every worker had achieved by then.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnostic {
    /// The worker whose wait exceeded the deadline.
    pub worker: WorkerId,
    /// How long it had been waiting.
    pub waited: Duration,
    /// What it was blocked on.
    pub site: StallSite,
    /// Snapshot of every worker's progress (may be empty when the runtime
    /// does not track per-worker progress).
    pub workers: Vec<WorkerSnapshot>,
    /// Flight-recorder dump: the last protocol events of every worker at
    /// the moment the watchdog fired. Empty when the recorder was
    /// disabled.
    pub flight: FlightLog,
}

impl fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stalled: {} waited {:?} in {}",
            self.worker, self.waited, self.site
        )?;
        for w in &self.workers {
            write!(f, "\n  {w}")?;
        }
        if !self.flight.is_empty() {
            write!(f, "\n{}", self.flight)?;
        }
        Ok(())
    }
}

/// Pre-flight mapping rejection: the classic user bugs that would
/// otherwise deadlock the decentralized protocol at run time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// The mapping designated a worker outside `0..workers`.
    OutOfRange {
        /// The offending task.
        task: TaskId,
        /// The out-of-range answer.
        worker: WorkerId,
        /// The configured worker count.
        workers: usize,
    },
    /// Two probes of the same task returned different workers: with a
    /// non-deterministic mapping, workers replaying the flow disagree on
    /// ownership — a task may be executed twice, or by no one (deadlock).
    NonDeterministic {
        /// The offending task.
        task: TaskId,
        /// The first probe's answer.
        first: WorkerId,
        /// The second probe's answer.
        second: WorkerId,
    },
    /// Probing the mapping panicked: it is not total over the flow
    /// (e.g. a [`crate::TableMapping`] shorter than the task count).
    NotTotal {
        /// The first task the mapping is undefined on.
        task: TaskId,
    },
    /// Two probes of a *partial* mapping disagreed on whether `task` is
    /// statically mapped or dynamically claimed — workers replaying the
    /// flow would disagree on ownership just like with
    /// [`MappingError::NonDeterministic`].
    NonDeterministicClaim {
        /// The offending task.
        task: TaskId,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::OutOfRange {
                task,
                worker,
                workers,
            } => write!(
                f,
                "{task} mapped to {worker}, but only workers 0..{workers} exist"
            ),
            MappingError::NonDeterministic {
                task,
                first,
                second,
            } => write!(
                f,
                "mapping is non-deterministic on {task}: probed {first} then {second}"
            ),
            MappingError::NotTotal { task } => {
                write!(f, "mapping is undefined on {task} (probe panicked)")
            }
            MappingError::NonDeterministicClaim { task } => write!(
                f,
                "mapping is non-deterministic on {task}: probes disagree on \
                 whether it is statically mapped or dynamically claimed"
            ),
        }
    }
}

impl std::error::Error for MappingError {}

impl From<MappingError> for ExecError {
    fn from(e: MappingError) -> ExecError {
        ExecError::InvalidMapping(e)
    }
}

impl From<GraphError> for ExecError {
    fn from(e: GraphError) -> ExecError {
        ExecError::InvalidGraph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_blocked_data_object() {
        let d = StallDiagnostic {
            worker: WorkerId(2),
            waited: Duration::from_millis(250),
            site: StallSite::DataWait {
                task: TaskId(9),
                data: DataId(4),
                write: true,
                local_reads_since_write: 2,
                local_last_registered_write: TaskId(7),
                shared_reads_since_write: 1,
                shared_last_executed_write: TaskId(7),
                shared_epoch_word: (7u64 << 32) | 1,
            },
            workers: vec![WorkerSnapshot {
                worker: WorkerId(0),
                last_completed: TaskId(7),
                tasks_executed: 4,
                waiting_on: Some(DataId(4)),
                steals_since_tick: 0,
                retries_since_tick: 3,
            }],
            flight: FlightLog {
                workers: vec![crate::flight::WorkerFlight {
                    worker: WorkerId(0),
                    events: vec![crate::flight::FlightEvent {
                        seq: 11,
                        kind: crate::flight::FlightEventKind::Park,
                        task: TaskId(9),
                        data: Some(DataId(4)),
                    }],
                }],
            },
        };
        let text = ExecError::Stalled(Box::new(d)).to_string();
        assert!(
            text.contains("D4"),
            "diagnostic names the data object: {text}"
        );
        assert!(
            text.contains("0x0000000700000001"),
            "diagnostic dumps the packed epoch word: {text}"
        );
        assert!(text.contains("T9"), "diagnostic names the task: {text}");
        assert!(text.contains("W2"), "diagnostic names the worker: {text}");
        assert!(
            text.contains("blocked on D4"),
            "snapshot is rendered: {text}"
        );
        assert!(
            text.contains("+3 retries"),
            "per-worker counter deltas since the last tick are rendered: {text}"
        );
        assert!(
            text.contains("#11 park T9 D4"),
            "the flight bundle is rendered: {text}"
        );
    }

    #[test]
    fn panic_payloads_render_for_str_and_string() {
        let e = ExecError::TaskPanicked {
            task: TaskId(3),
            worker: WorkerId(1),
            payload: Box::new("boom"),
            flight: FlightLog::default(),
        };
        assert!(e.to_string().contains("boom"));
        let e = ExecError::TaskPanicked {
            task: TaskId(3),
            worker: WorkerId(1),
            payload: Box::new(String::from("heap boom")),
            flight: FlightLog::default(),
        };
        assert!(e.to_string().contains("heap boom"));
        assert_eq!(e.kind(), "task-panicked");
    }

    #[test]
    fn mapping_errors_render() {
        let e = MappingError::OutOfRange {
            task: TaskId(5),
            worker: WorkerId(9),
            workers: 4,
        };
        assert!(e.to_string().contains("0..4"));
        let e: ExecError = MappingError::NonDeterministic {
            task: TaskId(5),
            first: WorkerId(0),
            second: WorkerId(1),
        }
        .into();
        assert_eq!(e.kind(), "invalid-mapping");
        assert!(e.to_string().contains("non-deterministic"));
        assert!(MappingError::NotTotal { task: TaskId(11) }
            .to_string()
            .contains("T11"));
        let e = MappingError::NonDeterministicClaim { task: TaskId(7) };
        assert!(e.to_string().contains("T7"));
        assert!(e.to_string().contains("claimed"));
    }

    #[test]
    fn invalid_graph_wraps_a_graph_error() {
        let e: ExecError = GraphError::TaskIdOverflow {
            task: TaskId(5_000_000_000),
            max: u32::MAX as u64,
        }
        .into();
        assert_eq!(e.kind(), "invalid-graph");
        assert!(e.to_string().starts_with("invalid graph:"));
        assert!(format!("{e:?}").contains("InvalidGraph"));
    }

    #[test]
    fn partial_report_renders_and_queries() {
        let r = PartialReport {
            failed: vec![FailedTask {
                task: TaskId(3),
                worker: WorkerId(1),
                retries: 2,
                detail: FailureDetail::TaskFailed {
                    payload: Box::new("boom"),
                },
            }],
            poisoned: vec![DataId(0), DataId(4)],
            skipped: vec![TaskId(5)],
            retry_time: Duration::from_millis(1),
            flight: FlightLog::default(),
        };
        assert!(!r.is_empty());
        assert!(r.is_poisoned(DataId(4)));
        assert!(!r.is_poisoned(DataId(2)));
        let text = r.to_string();
        assert!(text.contains("1 failed"), "{text}");
        assert!(text.contains("T3"), "{text}");
        assert!(text.contains("W1"), "{text}");
        assert!(text.contains("boom"), "{text}");
        assert!(PartialReport::default().is_empty());
        // Debug never dumps the payload.
        let dbg = format!("{r:?}");
        assert!(dbg.contains("TaskFailed"));
        assert!(dbg.contains(".."), "payload elided: {dbg}");
    }

    #[test]
    fn timed_out_detail_renders_both_durations() {
        let d = FailureDetail::TaskTimedOut {
            spent: Duration::from_millis(35),
            deadline: Duration::from_millis(30),
        };
        assert_eq!(d.kind(), "task-timed-out");
        let text = d.to_string();
        assert!(text.contains("35ms"), "{text}");
        assert!(text.contains("30ms"), "{text}");
    }

    #[test]
    fn debug_omits_the_payload() {
        let e = ExecError::TaskPanicked {
            task: TaskId(1),
            worker: WorkerId(0),
            payload: Box::new(42u32),
            flight: FlightLog::default(),
        };
        let dbg = format!("{e:?}");
        assert!(dbg.contains("TaskPanicked"));
        assert!(dbg.contains(".."), "payload elided: {dbg}");
    }
}
