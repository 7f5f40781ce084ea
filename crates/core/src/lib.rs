//! # rio-core — the RIO runtime
//!
//! Implementation of the paper's contribution: a **decentralized,
//! in-order** execution model for Sequential Task Flow (STF) programs on
//! shared-memory multicore machines, optimized for *fine-grained* tasks.
//!
//! ## Execution model (paper §3)
//!
//! * **No master thread.** Every worker executes only the tasks assigned
//!   to it by a deterministic, static [`Mapping`] supplied by the
//!   programmer (§3.2). In the paper every worker independently unrolls
//!   the *entire* task flow to find them (same tasks, same ids, same
//!   order — §3.4 assumptions 1–2); for a recorded [`TaskGraph`] those
//!   assumptions make every worker's unrolling the same computation, so
//!   it is done once, ahead of the run ([`compile`]), and a worker's
//!   program holds its own tasks only.
//! * **In-order.** Each worker executes its own tasks in flow order. There
//!   is no scheduler and no pending-task storage.
//! * **Decentralized data synchronization** (Algorithms 1–2,
//!   [`protocol`]). Each data object carries two shared counters
//!   (`nb_reads_since_write`, `last_executed_write`) — packed into a
//!   single 64-bit epoch word — and, per worker, a private view of them.
//!   `get_*` operations wait until the private view matches the shared
//!   state (one atomic load against one expected word); `terminate_*`
//!   operations publish completions (one atomic store or add).
//!
//! ## Entry points
//!
//! * [`Executor`] — **the** entry point for a recorded [`TaskGraph`]:
//!   [`Executor::run`] is [`Executor::compile`] + [`CompiledFlow::run`],
//!   under a total mapping or a partial one ([`hybrid`]: unmapped tasks
//!   are claimed at run time), with optional event tracing ([`executor`]
//!   module docs have an example).
//! * [`flow::Rio`] — the ergonomic typed API: a *flow closure* replayed by
//!   every worker, with dynamically-checked access to a
//!   [`rio_stf::DataStore`]. Closure flows are not recorded, so here each
//!   worker does unroll the whole flow, on the protocol's private views.
//! * [`redux`] — a data-versioning-inspired extension (§3.4's discussion of
//!   SuperGlue): commutative *accumulation* accesses that relax in-order
//!   execution for reductions.
//!
//! Choosing the mapping is the programmer's business, or the doctor's:
//! `rio_doctor::tune` closes the loop run → diagnose → remap → recompile
//! over this crate's public API.
//!
//! ## Observability
//!
//! [`Executor::trace`] turns on the worker-local event recorder from
//! [`rio_trace`]: per-worker ring buffers of task / wait / park spans and
//! the `(p, t_p, τ_{p,t}, τ_{p,i})` quadruple consumed by
//! `rio_metrics::decompose`. The returned [`Trace`] is the run's record;
//! its holder exports it ([`Trace::write_chrome`]). Recording touches no
//! shared state on the hot path, and an untraced run never calls the
//! recorder.
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

// The flow validator under `tests/` names this crate; so do its unit tests.
#[cfg(test)]
extern crate self as rio_core;
mod affinity;
pub mod compile;
pub mod config;
pub mod counters;
pub mod executor;
pub mod flight;
pub mod flow;
mod futex;
pub mod graph;
pub mod hybrid;
mod pool;
pub mod protocol;
pub mod redux;
pub mod report;
pub mod status;
pub mod steal;
pub mod wait;

pub use compile::{CompileStats, CompiledFlow, CompiledTask};
pub use config::{RecoveryPolicy, RioConfig};
pub use counters::{CounterRegistry, CounterRow, CountersSnapshot, WorkerCounters};
pub use executor::{Execution, Executor, RunOutcome};
pub use flight::{FlightRecorder, FlightRing};
pub use flow::{FlowCtx, Rio, TaskView};
pub use hybrid::{validate_partial_mapping, HybridStats, PartialMapping};
pub use report::{ExecReport, OpCounts, WorkerReport};
pub use rio_trace::{Trace, TraceConfig, WorkerTrace};
pub use status::StatusTable;
pub use wait::WaitStrategy;

/// The flows the unit tests keep building.
#[cfg(test)]
pub(crate) mod testing {
    use crate::wait::WaitStrategy::{self, Park, Spin};
    use rio_stf::{Access, DataId, TaskGraph};

    pub(crate) const WAITS: [WaitStrategy; 2] = [Spin, Park];

    fn flow(n: usize, data: usize, accesses: impl Fn(u32) -> Vec<Access>) -> TaskGraph {
        let mut b = TaskGraph::builder(data);
        for i in 0..n as u32 {
            b.task(&accesses(i), 1, "t");
        }
        b.build()
    }

    /// `n` tasks that access nothing.
    pub(crate) fn bare(n: usize) -> TaskGraph {
        flow(n, 0, |_| Vec::new())
    }

    /// `n` tasks, task `i` writing its own `D_i`.
    pub(crate) fn independent(n: usize) -> TaskGraph {
        flow(n, n, |i| vec![Access::write(DataId(i))])
    }

    /// `n` read-write tasks over `data` objects, task `i` on `D_(i % data)`:
    /// `data` interleaved chains.
    pub(crate) fn chains(n: usize, data: u32) -> TaskGraph {
        flow(n, data as usize, |i| {
            vec![Access::read_write(DataId(i % data))]
        })
    }

    /// `n` read-write tasks chained on `D0`.
    pub(crate) fn chain(n: usize) -> TaskGraph {
        chains(n, 1)
    }

    /// A dependency mesh over 4 objects: task `i` reads `D_(i % 4)` and
    /// writes `D_((i / 2) % 4)`.
    pub(crate) fn mesh(n: usize) -> TaskGraph {
        flow(n, 4, |i| match (DataId(i % 4), DataId((i / 2) % 4)) {
            (r, w) if r == w => vec![Access::read_write(w)],
            (r, w) => vec![Access::read(r), Access::write(w)],
        })
    }

    /// On `D0`: a write (kind "w"), `readers` reads ("r"), a write ("w2").
    pub(crate) fn fanout(readers: usize) -> TaskGraph {
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w");
        for _ in 0..readers {
            b.task(&[Access::read(DataId(0))], 1, "r");
        }
        b.task(&[Access::write(DataId(0))], 1, "w2");
        b.build()
    }
}

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
    pub use crate::report::{ExecReport, OpCounts, WorkerReport};
    pub use crate::status::StatusTable;
    pub use crate::wait::WaitStrategy;
    pub use rio_stf::{
        validate_mapping, Access, AccessMode, DataId, DataStore, ExecError, FailedTask,
        FailureDetail, FlightEvent, FlightEventKind, FlightLog, Mapping, MappingError,
        PartialReport, RoundRobin, StallDiagnostic, StallSite, TableMapping, TaskDesc, TaskGraph,
        TaskId, WorkerFlight, WorkerId, WorkerSnapshot,
    };
    pub use rio_trace::{Trace, TraceConfig, WorkerTrace};
}

// The substrate types remain re-exported at the root for backward
// compatibility; `prelude` is the intended import path.
pub use rio_stf::{
    Access, AccessMode, DataId, DataStore, ExecError, FailedTask, FailureDetail, Mapping,
    MappingError, PartialReport, StallDiagnostic, TaskGraph, TaskId, WorkerId,
};
