//! # rio-mc — explicit-state model checking of the STF and Run-In-Order
//! specifications
//!
//! The paper formalizes both its programming model (STF) and its execution
//! model (Run-In-Order) in TLA⁺ and checks them with TLC on tiled-LU task
//! flows (§4, Appendix B, Table 1). This crate is the Rust stand-in: the
//! same two transition systems, explored exhaustively by breadth-first
//! search with hashed state deduplication, checking the same properties:
//!
//! * **Data-race freedom** (invariant): no two concurrently-active tasks
//!   conflict on a data object.
//! * **Termination** (liveness under weak fairness): every reachable state
//!   can make progress until the terminal state — since both systems'
//!   transition relations strictly increase the number of started/finished
//!   tasks, the state graphs are acyclic and termination is equivalent to
//!   *deadlock freedom*, which the explorer checks directly.
//! * **Refinement** (`RIO ⊆ STF`): every `ExecuteTask` transition the
//!   Run-In-Order system can take is also permitted by the STF system in
//!   the corresponding state — checked on *every* reachable RIO transition.
//!
//! Like TLC, the explorer reports *generated* states (every successor
//! computed, duplicates included) and *distinct* states. Absolute numbers
//! differ from Table 1 (TLC counts its own state encoding), but the
//! verdicts and the explosive growth with the LU grid size reproduce.
//!
//! ```
//! use rio_mc::{explore_stf, explore_rio, lu_model};
//!
//! let graph = lu_model::graph(2, 2);
//! let stf = explore_stf(&graph, 2);
//! assert!(stf.ok(), "STF model: no violations");
//! let rio = explore_rio(&graph, 2);
//! assert!(rio.ok(), "Run-In-Order refines STF");
//! ```

pub mod eventcount_spec;
pub mod explorer;
pub mod lu_model;
pub mod protocol_spec;
pub mod rio_spec;
pub mod stf_spec;
pub mod walk;
pub mod workerset_spec;

pub use eventcount_spec::{explore_eventcount, EventCountSpec, Mutant};
pub use explorer::{explore, ExploreReport, TransitionSystem};
pub use protocol_spec::{
    explore_compiled_protocol_with, explore_protocol, explore_protocol_with, ProtocolSpec,
};
pub use rio_spec::{explore_rio, RioSpec};
pub use stf_spec::{explore_stf, StfSpec};
pub use walk::{random_walks, WalkReport};
pub use workerset_spec::{explore_workerset, WorkerSetSpec};
