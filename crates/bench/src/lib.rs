//! # rio-bench — harness reproducing the paper's evaluation
//!
//! One module per paper artifact; the `repro` binary exposes each as a
//! subcommand. See `EXPERIMENTS.md` at the workspace root for the
//! paper-vs-measured record.
//!
//! | Subcommand | Paper artifact |
//! |---|---|
//! | `repro fig2` | Fig. 2 — execution time vs tile size, tiled DGEMM, centralized runtime |
//! | `repro fig3` | Fig. 3 — sequential DGEMM kernel efficiency vs tile size |
//! | `repro fig4` | Fig. 4 — efficiency decomposition, matmul, centralized runtime |
//! | `repro fig6` | Fig. 6 — time vs task size, independent counter tasks, both runtimes |
//! | `repro fig7` | Fig. 7 — total time of 2¹⁵ independent tasks per worker vs worker count |
//! | `repro fig8 --exp N` | Fig. 8 rows 1–4 — efficiency decomposition vs task size |
//! | `repro table1` | Table 1 — model-checking state counts for STF and Run-In-Order |
//! | `repro costmodel` | §3.3 — validation of cost models (1) and (2) |
//! | `repro compiled` | Extension — one-shot (compile + run) vs reused-flow per-task management cost |
//! | `repro counters` | Extension — always-on counters and flight-recorder overhead gate ([`figures::counters_overhead`]) |
//! | `repro doctor` | Extension — critical-path / mapping-quality diagnosis + remap ([`doctor`]) |
//! | `repro tune` | Extension — closed-loop trace → diagnose → remap → recompile ([`tune`]) |
//! | `repro regress` | Extension — perf-regression gate against a committed baseline ([`regress`]) |
//!
//! With `--json`, the overhead figures additionally write their per-task
//! timings to `BENCH_repro.json` (see [`json`]); CI's bench-smoke job
//! diffs these records with `repro regress` and gates on
//! `repro compiled --assert-faster`, `repro park --assert-faster`,
//! `repro counters --assert-overhead`, `repro faults --assert-overhead`
//! and `repro tune --assert-improves`.

pub mod doctor;
pub mod figures;
pub mod harness;
pub mod json;
pub mod regress;
pub mod tune;

pub use harness::{measure_centralized, measure_rio, measure_sequential, RunSpec};
