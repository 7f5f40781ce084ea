//! # rio-stf — the Sequential Task Flow (STF) programming-model substrate
//!
//! This crate defines the *programming model* shared by every runtime in the
//! workspace, strictly separated from any *execution model* (see the paper's
//! §2: the programming model defines program semantics; the execution model
//! decides how a conforming run is actually produced).
//!
//! In the STF model a program is a sequence of **tasks** — pure functions
//! over **data objects** managed by the runtime — submitted in a sequential
//! order called the **task flow**. Each task declares an [`AccessMode`] for
//! every data object it touches. The model guarantees *sequential
//! consistency*: any valid parallel execution produces the same result as
//! executing the tasks one by one in flow order.
//!
//! What lives here:
//!
//! * [`ids`] — strongly-typed identifiers ([`TaskId`], [`DataId`],
//!   [`WorkerId`]).
//! * [`access`] — the [`AccessMode`] lattice and conflict predicate.
//! * [`task`] — task descriptors ([`TaskDesc`]) with their access lists
//!   ([`Accesses`], held in place).
//! * [`graph`] — recorded task flows ([`TaskGraph`]) and their builder.
//! * [`deps`] — derivation of the implicit dependency DAG (read-after-write,
//!   write-after-read, write-after-write) from the access sequence.
//! * [`store`] — [`DataStore`], a `Sync` typed store with *dynamic borrow
//!   checking*: it hands out shared/exclusive references protected by atomic
//!   borrow flags, so a buggy runtime panics instead of racing.
//! * [`mapping`] — the static `TaskId -> WorkerId` mapping abstraction that
//!   the paper's enriched STF model adds ([`Mapping`]).
//! * [`sequential`] — the reference executor: runs a flow in submission
//!   order on the calling thread (the correctness oracle for every runtime).
//! * [`validate`] — checks that an *observed* execution order is sequentially
//!   consistent with respect to a task graph.
//! * [`error`] — the structured failure model shared by the runtimes
//!   ([`ExecError`]: task panics, stalls, invalid mappings) and the
//!   pre-flight [`validate_mapping`] check.
//! * [`flight`] — flight-recorder event types ([`FlightLog`]): the
//!   postmortem bundle of recent per-worker protocol events carried by
//!   [`StallDiagnostic`] and [`PartialReport`].
//! * [`fault`] — fault-injection hook points ([`FaultHook`]) consumed by
//!   the runtimes' `fault-inject` features and driven by `rio-faults`.
//!
//! Runtimes built on this substrate:
//!
//! * `rio-core` — the paper's contribution: decentralized in-order execution.
//! * `rio-centralized` — the baseline: centralized out-of-order execution.

pub mod access;
pub mod deps;
pub mod error;
pub mod fault;
pub mod flight;
pub mod graph;
pub mod ids;
pub mod mapping;
pub mod sequential;
pub mod store;
pub mod task;
pub mod validate;

pub use access::AccessMode;
pub use error::{
    ExecError, FailedTask, FailureDetail, MappingError, PartialReport, StallDiagnostic, StallSite,
    WorkerSnapshot,
};
pub use fault::{FaultHook, HookHandle};
pub use flight::{FlightEvent, FlightEventKind, FlightLog, WorkerFlight};
pub use graph::{GraphBuilder, GraphError, GraphStats, TaskGraph};
pub use ids::{DataId, TaskId, WorkerId};
pub use mapping::{validate_mapping, BlockMapping, Mapping, RoundRobin, TableMapping};
pub use store::{DataStore, ReadGuard, WriteGuard};
pub use task::{Access, Accesses, TaskDesc};
