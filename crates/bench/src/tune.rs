//! `repro tune` — closed-loop self-optimizing execution, measured.
//!
//! Same demonstration workload as `repro doctor` (tiled Cholesky under a
//! deliberately DAG-oblivious round-robin mapping), but instead of the
//! manual diagnose → remap → re-run sequence the whole loop runs inside
//! the process: [`rio_doctor::tune::Tune::tuned_run_with`] traces each
//! round, diagnoses it, applies the suggested remap, recompiles, and
//! stops when the remap runs out of moves or the wall time stalls. The harness then re-measures the
//! untuned baseline and the final plan best-of-reps, for a wall-clock
//! delta robust against scheduling noise.

use std::fmt::Write as _;
use std::time::Duration;

use rio_core::{Executor, RioConfig, WaitStrategy};
use rio_doctor::tune::{Tune, TuneIteration, TuneOptions};
use rio_stf::RoundRobin;
use rio_trace::TraceConfig;
use rio_workloads::cholesky;
use rio_workloads::counter::counter_kernel;

use crate::figures::Options;
use crate::harness::fmt_dur;

/// Everything one `repro tune` invocation produced.
#[derive(Debug)]
pub struct TuneOutcome {
    /// Per-round record of the closed loop (round 0 = untuned baseline).
    pub iterations: Vec<TuneIteration>,
    /// Did the loop stop by convergence (not by exhausting the cap)?
    pub converged: bool,
    /// Remap moves of the applied plan (0 when no plan was applied).
    pub moves: usize,
    /// Best-of-reps wall time under untuned round-robin, ns.
    pub baseline_wall_ns: u64,
    /// Best-of-reps wall time under the final plan, ns.
    pub tuned_wall_ns: u64,
    /// Tile grid of the Cholesky workload.
    pub grid: usize,
    /// Worker count.
    pub workers: usize,
}

impl TuneOutcome {
    /// Wall-clock change of the final plan, percent (negative = faster).
    pub fn delta_pct(&self) -> f64 {
        if self.baseline_wall_ns == 0 {
            return 0.0;
        }
        (self.tuned_wall_ns as f64 - self.baseline_wall_ns as f64) * 100.0
            / self.baseline_wall_ns as f64
    }

    /// The outcome as a JSON object (`TUNE_repro.json`).
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        let _ = writeln!(o, "\"workload\": \"cholesky/grid={}\",", self.grid);
        let _ = writeln!(o, "\"threads\": {},", self.workers);
        let _ = writeln!(o, "\"converged\": {},", self.converged);
        o.push_str("\"iterations\": [\n");
        for (i, it) in self.iterations.iter().enumerate() {
            let _ = write!(
                o,
                "{{\"iter\": {}, \"wall_ns\": {}, \"imbalance\": {:.4}, \"moves\": {}}}",
                it.iter,
                it.wall.as_nanos(),
                it.imbalance,
                it.moves
            );
            o.push_str(if i + 1 < self.iterations.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        o.push_str("],\n");
        let _ = writeln!(o, "\"moves\": {},", self.moves);
        let _ = writeln!(o, "\"baseline_wall_ns\": {},", self.baseline_wall_ns);
        let _ = writeln!(o, "\"tuned_wall_ns\": {},", self.tuned_wall_ns);
        let _ = writeln!(o, "\"tune_delta_pct\": {:.3}", self.delta_pct());
        o.push_str("}\n");
        o
    }
}

/// Runs the closed loop and the robust before/after measurement. `cost`
/// is the gemm cost hint in kernel iterations (the other Cholesky
/// kernels scale off it).
pub fn tune(opt: &Options, grid: usize, cost: u64) -> (String, TuneOutcome) {
    let workers = opt.threads.max(1);
    let graph = cholesky::graph(grid, cost);
    let cfg = RioConfig::with_workers(workers).wait(WaitStrategy::Park);

    // The closed loop itself: traced rounds, so each diagnosis sees
    // measured durations. The cap is wider
    // than the library default: at low worker counts the remap keeps
    // finding real (>tolerance) wall improvements for a round or two
    // longer before it stalls, and the CI gate requires convergence,
    // not cap exhaustion.
    let opts = TuneOptions {
        max_iters: 5,
        ..TuneOptions::default()
    };
    let tuned = Executor::new(cfg.clone())
        .mapping(&RoundRobin)
        .trace(TraceConfig::new())
        .tuned_run_with(&graph, |_, t| counter_kernel(t.cost), opts);

    // Robust re-measure, untraced: best of `reps` for both the untuned
    // baseline and the plan the loop settled on.
    let measure = |ex: &Executor<'_>| -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..opt.reps.max(1) {
            best = best.min(ex.run(&graph, |_, t| counter_kernel(t.cost)).report.wall);
        }
        best
    };
    let base_ex = Executor::new(cfg).mapping(&RoundRobin);
    let base_wall = measure(&base_ex);
    let (tuned_wall, moves) = match tuned.plan.as_ref() {
        Some(plan) => (measure(&base_ex.apply(plan)), plan.moves),
        None => (base_wall, 0),
    };

    let outcome = TuneOutcome {
        iterations: tuned.iterations,
        converged: tuned.converged,
        moves,
        baseline_wall_ns: base_wall.as_nanos() as u64,
        tuned_wall_ns: tuned_wall.as_nanos() as u64,
        grid,
        workers,
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "tune — cholesky grid {grid} ({} tasks), {} workers, round-robin seed\n",
        graph.len(),
        workers
    );
    let _ = writeln!(
        out,
        "{:>4}  {:>10}  {:>9}  {:>6}",
        "iter", "wall", "imbal", "moves"
    );
    for it in &outcome.iterations {
        let _ = writeln!(
            out,
            "{:>4}  {:>10}  {:>9.3}  {:>6}",
            it.iter,
            fmt_dur(it.wall),
            it.imbalance,
            it.moves
        );
    }
    let _ = writeln!(
        out,
        "{} after {} iteration{} (applied plan: {} moves)",
        if outcome.converged {
            "converged"
        } else {
            "cap hit"
        },
        outcome.iterations.len(),
        if outcome.iterations.len() == 1 {
            ""
        } else {
            "s"
        },
        outcome.moves
    );
    let _ = writeln!(
        out,
        "\nwall untuned {} -> tuned {} ({:+.1}%)",
        fmt_dur(base_wall),
        fmt_dur(tuned_wall),
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
    fn tune_closes_the_loop_on_a_real_run() {
        let (text, outcome) = tune(&quick_opt(), 4, 256);
        assert!(text.contains("wall untuned"));
        assert!(!outcome.iterations.is_empty());
        assert!(
            outcome.iterations.len() <= 5,
            "the harness caps at 5 rounds"
        );
        assert!(outcome.baseline_wall_ns > 0);
        assert!(outcome.tuned_wall_ns > 0);
        // Round-robin fights the Cholesky DAG, so the first diagnosis
        // must want to move something.
        assert!(outcome.iterations[0].moves > 0);
        assert!(outcome.iterations[0].imbalance >= 1.0);
    }

    #[test]
    fn outcome_json_is_structurally_sound() {
        let (_, outcome) = tune(&quick_opt(), 3, 64);
        let j = outcome.to_json();
        assert!(j.contains("\"workload\": \"cholesky/grid=3\""));
        assert!(j.contains("\"iterations\": ["));
        assert!(j.contains("\"tune_delta_pct\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
