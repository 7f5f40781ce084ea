//! # rio-core — the RIO runtime
//!
//! Implementation of the paper's contribution: a **decentralized,
//! in-order** execution model for Sequential Task Flow (STF) programs on
//! shared-memory multicore machines, optimized for *fine-grained* tasks.
//!
//! ## Execution model (paper §3)
//!
//! * **No master thread.** Every worker independently unrolls the *entire*
//!   task flow (same tasks, same ids, same order — §3.4 assumptions 1–2)
//!   but executes only the tasks assigned to it by a deterministic, static
//!   [`Mapping`] supplied by the programmer (§3.2).
//! * **In-order.** Each worker executes its own tasks in flow order. There
//!   is no scheduler and no pending-task storage: per-task management for a
//!   task mapped elsewhere boils down to one or two *private* memory writes
//!   per dependency ([`protocol`]).
//! * **Decentralized data synchronization** (Algorithms 1–2). Each data
//!   object carries two shared counters (`nb_reads_since_write`,
//!   `last_executed_write`) — packed into a single 64-bit epoch word — and
//!   two private integers per worker. `get_*` operations wait until the
//!   private view matches the shared state (one atomic load against one
//!   expected word); `terminate_*` operations publish completions (one
//!   atomic store or add).
//!
//! ## Entry points
//!
//! * [`Executor`] — **the** entry point: one builder covering plain,
//!   pruned and hybrid execution of a recorded [`TaskGraph`], with
//!   optional event tracing ([`executor`] module docs have an example).
//! * [`flow::Rio`] — the ergonomic typed API: a *flow closure* replayed by
//!   every worker, with dynamically-checked access to a
//!   [`rio_stf::DataStore`].
//! * [`redux`] — a data-versioning-inspired extension (§3.4's discussion of
//!   SuperGlue): commutative *accumulation* accesses that relax in-order
//!   execution for reductions.
//!
//! [`Executor`] is the only run entry point — the historical free
//! functions (`execute_graph`, `execute_graph_pruned`,
//! `execute_graph_hybrid`) have been removed. The variant modules
//! ([`pruning`] §3.5, [`hybrid`] partial mappings with CAS-based claiming)
//! still expose their statistics types and pre-pass helpers, and
//! [`tune`] closes the loop: a finished run's counters (and optional
//! trace) feed a [`tune::Tuner`] whose [`tune::TuningPlan`] — a remap
//! plus per-object wait policies — recompiles into a faster next run
//! ([`Executor::tuned_run`]).
//!
//! ## Observability
//!
//! With the (default) `trace` feature, [`Executor::trace`] turns on the
//! worker-local event recorder from `rio-trace`: per-worker ring buffers
//! of task / wait / park spans, wait-time histograms per data object, a
//! Chrome-trace JSON exporter, and the `(p, t_p, τ_{p,t}, τ_{p,i})`
//! quadruple consumed by `rio_metrics::decompose`. Recording touches no
//! shared state on the hot path; with the feature disabled the hooks
//! compile to nothing (see [`trace_api`]).
//!
//! ```
//! use rio_core::{Rio, RioConfig};
//! use rio_stf::{Access, DataId, DataStore, RoundRobin};
//!
//! // Two counters, incremented by interleaved tasks.
//! let store = DataStore::from_vec(vec![0u64, 0u64]);
//! let rio = Rio::new(RioConfig::with_workers(2));
//! rio.run(&store, &RoundRobin, |ctx| {
//!     for i in 0..100u32 {
//!         let d = DataId(i % 2);
//!         ctx.task(&[Access::read_write(d)], |view| {
//!             *view.write(d) += 1;
//!         });
//!     }
//! });
//! assert_eq!(store.into_vec(), vec![50, 50]);
//! ```

pub mod compile;
pub mod config;
pub mod counters;
pub mod executor;
pub mod flight;
pub mod flow;
pub mod graph;
pub mod hybrid;
mod park;
pub mod protocol;
pub mod pruning;
pub mod redux;
pub mod report;
pub mod status;
pub mod steal;
pub mod topo;
pub mod trace_api;
pub mod tune;
pub mod wait;

pub use compile::{CompileStats, CompiledFlow, CompiledTask};
pub use config::{RecoveryPolicy, RioConfig};
pub use counters::{CounterRegistry, CounterRow, CountersSnapshot, WorkerCounters};
pub use executor::{Execution, Executor, RunOutcome};
pub use flight::{FlightRecorder, FlightRing};
pub use flow::{FlowCtx, Rio, TaskView};
pub use hybrid::{validate_partial_mapping, HybridStats, PartialMapping};
pub use pruning::PruneStats;
pub use report::{ExecReport, OpCounts, WorkerReport};
pub use status::StatusTable;
pub use steal::StealPolicy;
pub use topo::{NodeId, Topology};
pub use trace_api::{Trace, TraceConfig, WorkerTrace};
pub use tune::{TuneIteration, TuneOptions, TunedRun, Tuner, TuningPlan};
pub use wait::{WaitPolicy, WaitStrategy};

/// Everything a typical RIO program needs, in one `use`.
///
/// Re-exports the runtime surface ([`Executor`], [`Rio`], configuration,
/// reports, tracing) together with the `rio-stf` substrate types (graphs,
/// accesses, mappings, the data store) so call sites no longer reach into
/// `rio_stf` — or pick names off the `rio_core` root ad hoc — one by one:
///
/// ```
/// use rio_core::prelude::*;
///
/// let mut b = TaskGraph::builder(1);
/// b.task(&[Access::write(DataId(0))], 1, "init");
/// let g = b.build();
/// let run = Executor::new(RioConfig::with_workers(1)).run(&g, |_, _| {});
/// assert_eq!(run.report.tasks_executed(), 1);
/// ```
pub mod prelude {
    pub use crate::compile::{CompileStats, CompiledFlow};
    pub use crate::config::{RecoveryPolicy, RioConfig};
    pub use crate::counters::{CounterRegistry, CounterRow, CountersSnapshot, WorkerCounters};
    pub use crate::executor::{Execution, Executor, RunOutcome};
    pub use crate::flight::{FlightRecorder, FlightRing};
    pub use crate::flow::{FlowCtx, Rio, TaskView};
    pub use crate::hybrid::{
        validate_partial_mapping, HybridStats, PartialFn, PartialMapping, Total, Unmapped,
    };
    pub use crate::pruning::PruneStats;
    pub use crate::report::{ExecReport, OpCounts, WorkerReport};
    pub use crate::status::StatusTable;
    pub use crate::steal::StealPolicy;
    pub use crate::topo::{NodeId, Topology};
    pub use crate::trace_api::{Trace, TraceConfig, WorkerTrace};
    pub use crate::tune::{TuneIteration, TuneOptions, TunedRun, Tuner, TuningPlan};
    pub use crate::wait::{WaitPolicy, WaitStrategy};
    pub use rio_stf::{
        validate_mapping, Access, AccessMode, DataId, DataStore, ExecError, FailedTask,
        FailureDetail, FlightEvent, FlightEventKind, FlightLog, Mapping, MappingError,
        PartialReport, RoundRobin, StallDiagnostic, StallSite, TableMapping, TaskDesc, TaskGraph,
        TaskId, WorkerFlight, WorkerId, WorkerSnapshot,
    };
}

// The substrate types remain re-exported at the root for backward
// compatibility; `prelude` is the intended import path.
pub use rio_stf::{
    Access, AccessMode, DataId, DataStore, ExecError, FailedTask, FailureDetail, Mapping,
    MappingError, PartialReport, StallDiagnostic, TaskGraph, TaskId, WorkerId,
};
