//! # rio-centralized — the baseline centralized out-of-order STF runtime
//!
//! A from-scratch implementation of the execution-model class the paper
//! compares against (§2.2): the model used, on shared memory, by StarPU,
//! PaRSEC-DTD, Quark, OmpSs and OpenMP tasks.
//!
//! * **Centralized**: a dedicated *master* thread unrolls the task flow,
//!   discovers dependencies incrementally (last-writer / readers-since
//!   tracking, exactly the information the implicit STF hazards need), and
//!   dispatches *ready* tasks to a pool of workers. With a dedicated master
//!   the best possible runtime efficiency is `(p-1)/p` on `p` threads —
//!   the cap the paper observes for StarPU.
//! * **Out-of-order**: workers execute whichever ready task the scheduler
//!   hands them, regardless of submission order; completing a task releases
//!   its successors. Local work stealing balances load dynamically
//!   (one scheduler; see [`CentralConfig`]).
//!
//! This runtime intentionally carries the structural costs the paper
//! attributes to the class: per-task node allocation and bookkeeping
//! (storage linear in in-flight tasks), centralized consistency management
//! in the master, and scheduler/queue traffic per task — while remaining a
//! competent implementation (lock-free deques, incremental dependency
//! derivation, submission throttling).
//!
//! ```
//! use rio_centralized::{execute_graph, CentralConfig};
//! use rio_stf::{Access, DataId, DataStore, TaskGraph};
//!
//! let mut b = TaskGraph::builder(1);
//! for _ in 0..100 {
//!     b.task(&[Access::read_write(DataId(0))], 1, "inc");
//! }
//! let g = b.build();
//! let store = DataStore::from_vec(vec![0u64]);
//! execute_graph(&CentralConfig::with_threads(3), &g, |_, t| {
//!     let d = t.accesses[0].data;
//!     *store.write(d) += 1;
//! });
//! assert_eq!(store.into_vec(), vec![100]);
//! ```

pub mod config;
pub mod doorbell;
pub mod node;
pub mod report;
pub mod runtime;
pub mod tracker;

pub use config::CentralConfig;
pub use report::{CentralReport, MasterReport, PoolWorkerReport};
pub use runtime::{execute_graph, try_execute_graph};

pub use rio_stf::{
    Access, AccessMode, DataId, DataStore, ExecError, StallDiagnostic, StallSite, TaskGraph,
    TaskId, WorkerId,
};
