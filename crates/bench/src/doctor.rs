//! `repro doctor` — diagnose a run and measure the suggested remap.
//!
//! The demonstration workload is tiled Cholesky under a deliberately
//! DAG-oblivious round-robin mapping: the factorization's dependency
//! chains (potrf → trsm → syrk/gemm on each panel) get sliced across all
//! workers, so every chain hop crosses a worker boundary and the doctor
//! has something real to find. The flow is:
//!
//! 1. run Cholesky with round-robin, tracing on;
//! 2. feed the trace to [`rio_doctor::diagnose`] and print the report
//!    (critical path, top blocking objects, per-worker load, remap);
//! 3. re-run with the suggested [`rio_stf::TableMapping`] and report the
//!    wall-clock delta.

use std::fmt::Write as _;
use std::time::Duration;

use rio_core::{Executor, RioConfig, WaitStrategy};
use rio_doctor::DoctorReport;
use rio_stf::{Mapping, RoundRobin, TaskGraph};
use rio_trace::{Trace, TraceConfig};
use rio_workloads::cholesky;
use rio_workloads::counter::counter_kernel;

use crate::figures::Options;
use crate::harness::fmt_dur;

/// Everything one `repro doctor` invocation produced.
#[derive(Debug)]
pub struct DoctorOutcome {
    /// The diagnosis of the round-robin run.
    pub report: DoctorReport,
    /// Best-of-reps wall time under round-robin, ns.
    pub baseline_wall_ns: u64,
    /// Best-of-reps wall time under the suggested remap, ns.
    pub remapped_wall_ns: u64,
    /// Tile grid of the Cholesky workload.
    pub grid: usize,
    /// Worker count.
    pub workers: usize,
}

impl DoctorOutcome {
    /// Wall-clock change of the remap, percent (negative = faster).
    pub fn delta_pct(&self) -> f64 {
        if self.baseline_wall_ns == 0 {
            return 0.0;
        }
        (self.remapped_wall_ns as f64 - self.baseline_wall_ns as f64) * 100.0
            / self.baseline_wall_ns as f64
    }

    /// The outcome as a JSON object (`DOCTOR_repro.json`).
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        let _ = writeln!(o, "\"workload\": \"cholesky/grid={}\",", self.grid);
        let _ = writeln!(o, "\"threads\": {},", self.workers);
        let _ = writeln!(o, "\"baseline_wall_ns\": {},", self.baseline_wall_ns);
        let _ = writeln!(o, "\"remapped_wall_ns\": {},", self.remapped_wall_ns);
        let _ = writeln!(o, "\"remap_delta_pct\": {:.3},", self.delta_pct());
        let _ = write!(o, "\"report\": {}", self.report.to_json());
        o.push_str("}\n");
        o
    }
}

/// Best-of-reps traced run of `graph` under `mapping`; returns the wall
/// time and the trace of the fastest rep.
fn traced_run(
    opt: &Options,
    graph: &TaskGraph,
    mapping: &dyn Mapping,
    workers: usize,
) -> (Duration, Trace) {
    let cfg = RioConfig::with_workers(workers).wait(WaitStrategy::Park);
    let mut best: Option<(Duration, Trace)> = None;
    for _ in 0..opt.reps.max(1) {
        let run = Executor::new(cfg.clone())
            .mapping(mapping)
            .trace(TraceConfig::new())
            .run(graph, |_, t| counter_kernel(t.cost));
        let wall = run.report.wall;
        let trace = run.trace.expect("tracing was enabled");
        if best.as_ref().is_none_or(|(w, _)| wall < *w) {
            best = Some((wall, trace));
        }
    }
    best.expect("reps >= 1")
}

/// Runs the full diagnose-remap-rerun loop. `cost` is the gemm cost hint
/// in kernel iterations (the other Cholesky kernels scale off it).
pub fn doctor(opt: &Options, grid: usize, cost: u64) -> (String, DoctorOutcome) {
    let workers = opt.threads.max(1);
    let graph = cholesky::graph(grid, cost);

    let (base_wall, trace) = traced_run(opt, &graph, &RoundRobin, workers);
    let report = rio_doctor::diagnose(&graph, &RoundRobin, workers, &trace);

    let remap = report.suggested_mapping();
    let (remap_wall, _) = traced_run(opt, &graph, &remap, workers);

    let outcome = DoctorOutcome {
        report,
        baseline_wall_ns: base_wall.as_nanos() as u64,
        remapped_wall_ns: remap_wall.as_nanos() as u64,
        grid,
        workers,
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "doctor — cholesky grid {grid} ({} tasks), {} workers, round-robin\n",
        graph.len(),
        workers
    );
    out.push_str(&outcome.report.render());
    let _ = writeln!(
        out,
        "\nwall round-robin {} -> remapped {} ({:+.1}%)",
        fmt_dur(base_wall),
        fmt_dur(remap_wall),
        outcome.delta_pct()
    );
    print!("{out}");
    (out, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opt() -> Options {
        Options {
            threads: 2,
            tasks: 64,
            reps: 1,
            csv: false,
            quick: true,
        }
    }

    #[test]
    fn doctor_reports_on_a_real_run() {
        let (text, outcome) = doctor(&quick_opt(), 4, 256);
        assert!(text.contains("top blocking objects") || outcome.report.blocking.is_empty());
        assert!(text.contains("suggested remap"));
        // The critical path of Cholesky grows with the grid and must be
        // non-trivial here.
        assert!(outcome.report.critical_path.len() >= 4);
        assert!(outcome.report.critical_path_ns > 0);
        assert!(outcome.baseline_wall_ns > 0);
        assert!(outcome.remapped_wall_ns > 0);
        // The remap must be a total, valid mapping.
        let m = outcome.report.suggested_mapping();
        assert_eq!(m.len(), cholesky::task_count(4));
        assert!(m.validate(2));
    }

    #[test]
    fn outcome_json_is_structurally_sound() {
        let (_, outcome) = doctor(&quick_opt(), 3, 64);
        let j = outcome.to_json();
        assert!(j.contains("\"workload\": \"cholesky/grid=3\""));
        assert!(j.contains("\"baseline_wall_ns\""));
        assert!(j.contains("\"report\": {"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
