//! # rio — decentralized in-order execution of sequential task-based codes
//!
//! Umbrella crate re-exporting the whole workspace. See the individual
//! crates for details:
//!
//! * [`stf`] — the Sequential Task Flow programming-model substrate.
//! * [`core`] — the RIO runtime (the paper's contribution): decentralized,
//!   in-order execution driven by a static task mapping.
//! * [`centralized`] — the baseline centralized out-of-order runtime
//!   (StarPU-class execution model).
//! * [`dense`] — dense linear-algebra substrate (blocked GEMM, tiled LU).
//! * [`workloads`] — the paper's synthetic workload generators.
//! * [`metrics`] — the efficiency-decomposition methodology
//!   (`e = e_g · e_l · e_p · e_r`).
//! * [`mc`] — explicit-state model checker for the STF and Run-In-Order
//!   specifications.
//! * [`trace`] — worker-local tracing and wait-time observability.
//! * [`doctor`] — post-mortem trace analysis: critical path, wait
//!   attribution, mapping quality and remap suggestions.

pub use rio_centralized as centralized;
pub use rio_core as core;
pub use rio_dense as dense;
pub use rio_doctor as doctor;
pub use rio_mc as mc;
pub use rio_metrics as metrics;
pub use rio_stf as stf;
pub use rio_trace as trace;
pub use rio_workloads as workloads;
