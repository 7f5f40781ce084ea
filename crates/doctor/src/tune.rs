//! Closed-loop self-optimizing execution: run → diagnose → remap →
//! recompile, in process, with zero manual steps.
//!
//! The offline loop already works: the doctor reads a finished run's
//! trace, reconstructs the DAG the epoch protocol enforced, and suggests
//! a remap (`repro doctor` measures a ~23% wall-time cut on
//! Cholesky/round-robin). This module closes that loop over an
//! [`Executor`]'s public API: a run's [`Execution`] — its always-on
//! counters snapshot plus, when tracing was enabled, its event trace —
//! feeds a [`Tuner`] that produces a [`TuningPlan`]: a **remap** — the
//! doctor's greedy earliest-finish [`TableMapping`], keeping dependency
//! chains on one worker and balancing the rest — and the two numbers that
//! justified it. (How to wait is not part of a plan: with the default spin
//! phase sized to what a park costs, per-object strategies and budgets
//! bought nothing over the remap alone — EXPERIMENTS.md "PR 18".)
//!
//! Because the paper's mapping is **static**, applying a plan is just a
//! recompile: [`Tune::apply`] yields a clone of the executor — same
//! configuration, same worker set — under the remap, and its next run
//! bakes the remap into fresh per-worker instruction streams.
//! [`Tune::tuned_run`] iterates the whole loop until it converges —
//! nothing left to move, or the measured wall time stops improving — or
//! the iteration cap hits.
//!
//! ```
//! use rio_core::prelude::*;
//! use rio_doctor::tune::Tune;
//!
//! let mut b = TaskGraph::builder(1);
//! for _ in 0..100 {
//!     b.task(&[Access::read_write(DataId(0))], 1, "inc");
//! }
//! let g = b.build();
//!
//! // One call: run, diagnose, remap, recompile, re-run — until the
//! // imbalance factor stops improving or the cap hits.
//! let tuned = Executor::new(RioConfig::with_workers(2))
//!     .mapping(&RoundRobin)
//!     .tuned_run(&g, |_, _| {});
//! assert!(!tuned.iterations.is_empty());
//! assert_eq!(tuned.execution.report.tasks_executed(), 100);
//! ```

use std::time::Duration;

use rio_core::{CountersSnapshot, Execution, Executor};
use rio_stf::{Mapping, TableMapping, TaskDesc, TaskGraph, WorkerId};
use rio_trace::Trace;

/// Knobs of the closed tuning loop.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Iteration cap of [`Tune::tuned_run_with`]: at most this many run →
    /// diagnose → remap → recompile rounds. Must be ≥ 1. Default: 3.
    pub max_iters: usize,
    /// Convergence tolerance, a wall-time fraction: a round that fails
    /// to beat the previous round's wall time by more than `tolerance`
    /// (e.g. `0.05` = 5% faster) stalls the loop, which then stops as
    /// converged. Deliberately *not* an imbalance threshold — a mapping
    /// can be perfectly load-balanced yet slow because every dependency
    /// chain hops workers, and the remap fixes exactly that.
    /// Default: 0.05.
    pub tolerance: f64,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            max_iters: 3,
            tolerance: 0.05,
        }
    }
}

impl TuneOptions {
    /// Panics on nonsensical options.
    pub fn validate(&self) {
        assert!(self.max_iters >= 1, "tuning needs at least one iteration");
        assert!(
            self.tolerance >= 0.0 && self.tolerance.is_finite(),
            "tolerance must be finite and non-negative"
        );
    }
}

/// What one diagnosis round decided: the remap to compile the next run
/// with, plus the numbers the decision was based on. Produced by
/// [`Tuner::plan`] / [`Tune::plan`]; consumed by [`Tune::apply`].
#[derive(Debug, Clone)]
pub struct TuningPlan {
    /// The suggested remap (greedy earliest-finish over the diagnosed
    /// durations), one worker per flow index. Any total mapping is
    /// deadlock-free under the RIO protocol, so applying it is always
    /// safe.
    pub mapping: TableMapping,
    /// Imbalance factor of the diagnosed run (max busy / mean busy;
    /// 1.0 = perfect balance).
    pub imbalance: f64,
    /// Tasks whose worker changes under [`TuningPlan::mapping`].
    pub moves: usize,
}

/// One round of a [tuned run](Tune::tuned_run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneIteration {
    /// Round index, 0-based (round 0 runs the untuned baseline).
    pub iter: usize,
    /// Wall-clock time of this round's run.
    pub wall: Duration,
    /// Imbalance factor diagnosed from this round's run.
    pub imbalance: f64,
    /// Remap moves the diagnosis of this round suggested.
    pub moves: usize,
}

/// Outcome of [`Tune::tuned_run`]: the final run plus the loop's
/// per-iteration record.
#[derive(Debug)]
pub struct TunedRun {
    /// The final (best-plan) run.
    pub execution: Execution,
    /// One row per round, in order; `iterations[0]` is the untuned
    /// baseline.
    pub iterations: Vec<TuneIteration>,
    /// `true` when the loop stopped because it converged — nothing left
    /// to move, or a round's wall time stopped improving by more than
    /// the tolerance fraction — rather than by exhausting the iteration
    /// cap.
    pub converged: bool,
    /// The plan the final run executed under (`None` when the very first
    /// diagnosis already reported convergence, so no plan was applied).
    pub plan: Option<TuningPlan>,
}

impl TunedRun {
    /// Final-vs-baseline wall-time delta in percent (negative = the
    /// tuned run is faster).
    pub fn delta_pct(&self) -> f64 {
        let wall = |i: Option<&TuneIteration>| i.map_or(0.0, |i| i.wall.as_nanos() as f64);
        let (base, last) = (wall(self.iterations.first()), wall(self.iterations.last()));
        if base == 0.0 {
            return 0.0;
        }
        (last - base) / base * 100.0
    }
}

/// Derives a [`TuningPlan`] from one finished run.
///
/// Prefers the run's event trace (measured task durations weight the
/// remap); falls back to the always-on counters snapshot — hint-weighted
/// remap via [`crate::diagnose_counters`] — when no trace was recorded.
#[derive(Debug)]
pub struct Tuner<'g> {
    graph: &'g TaskGraph,
    workers: usize,
}

impl<'g> Tuner<'g> {
    /// A tuner for runs of `graph` on `workers` workers.
    pub fn new(graph: &'g TaskGraph, workers: usize) -> Tuner<'g> {
        Tuner { graph, workers }
    }

    /// Diagnoses `run` (executed under `mapping`) into a [`TuningPlan`].
    pub fn plan(&self, mapping: &dyn Mapping, run: &Execution) -> TuningPlan {
        match run.trace.as_ref() {
            Some(trace) => self.plan_from_trace(mapping, trace),
            None => self.plan_from_counters(mapping, &run.counters),
        }
    }

    /// Trace-fed path: measured durations weight the remap.
    fn plan_from_trace(&self, mapping: &dyn Mapping, trace: &Trace) -> TuningPlan {
        let report = crate::diagnose(self.graph, mapping, self.workers, trace);
        TuningPlan {
            mapping: report.suggested_mapping(),
            imbalance: report.quality.imbalance,
            moves: report.moves,
        }
    }

    /// Counters-only path: the remap comes from the doctor's trace-free
    /// fast path (cost hints weight the schedule, the counters supply the
    /// per-worker task counts). Coarser than the trace path, but requires
    /// nothing beyond the always-on counters.
    fn plan_from_counters(&self, mapping: &dyn Mapping, counters: &CountersSnapshot) -> TuningPlan {
        let tasks = counters.tasks_per_worker();
        let report = crate::diagnose_counters(self.graph, mapping, self.workers, &tasks);
        TuningPlan {
            mapping: report.suggested_mapping(),
            imbalance: report.quality.imbalance,
            moves: report.moves,
        }
    }
}

/// The tuning loop as methods of an [`Executor`]: `use
/// rio_doctor::tune::Tune` and call them on it.
pub trait Tune<'a> {
    /// Diagnoses a finished `run` of `graph` into a [`TuningPlan`]:
    /// shorthand for [`Tuner::plan`] with this executor's worker count and
    /// its mapping. Feed the plan to [`Tune::apply`] to get an executor
    /// that runs under it — or let [`Tune::tuned_run`] drive the whole
    /// loop.
    ///
    /// # Panics
    /// If the executor runs a partial mapping (`Executor::hybrid`).
    fn plan(&self, graph: &TaskGraph, run: &Execution) -> TuningPlan;

    /// This executor with `plan`'s remap as its mapping: everything else —
    /// worker count, wait strategy, tracing, watchdog, the worker set —
    /// carries over.
    ///
    /// # Panics
    /// If the executor runs a partial mapping (`Executor::hybrid`).
    fn apply<'p>(&self, plan: &'p TuningPlan) -> Executor<'p>
    where
        'a: 'p;

    /// Closed-loop self-optimizing execution with default
    /// [`TuneOptions`]. See [`Tune::tuned_run_with`].
    fn tuned_run<K>(&self, graph: &TaskGraph, kernel: K) -> TunedRun
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        self.tuned_run_with(graph, kernel, TuneOptions::default())
    }

    /// Closed-loop self-optimizing execution (see the [module docs](self)).
    ///
    /// Each round compiles the current plan (round 0: this executor's
    /// own mapping) into per-worker instruction streams, runs it, and
    /// diagnoses the run into the next [`TuningPlan`] — from its trace
    /// when tracing is enabled (`Executor::trace`), else from its
    /// always-on counters. The loop stops when the diagnosis would move
    /// nothing, or a round's wall time failed to improve on the previous
    /// round's by more than the [`TuneOptions::tolerance`] fraction
    /// ([`TunedRun::converged`] — note wall time, not the imbalance
    /// factor: a mapping can be perfectly load-balanced yet slow because
    /// every dependency chain hops workers, and the remap fixes exactly
    /// that), or after [`TuneOptions::max_iters`] rounds.
    ///
    /// The kernel runs once per task per round — `max_iters` full
    /// executions in the worst case — so every round mutating shared
    /// data must either be idempotent across runs or reset by the
    /// caller.
    ///
    /// # Panics
    /// As `Executor::run`; additionally if the executor runs a partial
    /// mapping or the options are invalid.
    fn tuned_run_with<K>(&self, graph: &TaskGraph, kernel: K, opts: TuneOptions) -> TunedRun
    where
        K: Fn(WorkerId, &TaskDesc) + Sync;
}

/// The mapping tuning remaps.
fn remapped<'a>(ex: &Executor<'a>) -> &'a dyn Mapping {
    ex.total_mapping().expect(
        "tuning requires a static total mapping: a hybrid executor claims \
         its unmapped tasks at run time, so there is no mapping to remap",
    )
}

impl<'a> Tune<'a> for Executor<'a> {
    fn plan(&self, graph: &TaskGraph, run: &Execution) -> TuningPlan {
        Tuner::new(graph, self.config().workers).plan(remapped(self), run)
    }

    fn apply<'p>(&self, plan: &'p TuningPlan) -> Executor<'p>
    where
        'a: 'p,
    {
        remapped(self);
        let ex: Executor<'p> = self.clone();
        ex.mapping(&plan.mapping)
    }

    fn tuned_run_with<K>(&self, graph: &TaskGraph, kernel: K, opts: TuneOptions) -> TunedRun
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        opts.validate();
        let mapping = remapped(self);
        let tuner = Tuner::new(graph, self.config().workers);
        let mut iterations = Vec::new();
        let mut applied: Option<TuningPlan> = None;
        let mut converged = false;
        let mut last: Option<Execution> = None;
        let mut prev_wall: Option<Duration> = None;
        for iter in 0..opts.max_iters {
            let (run, next) = match &applied {
                None => {
                    let run = self.run(graph, &kernel);
                    let next = tuner.plan(mapping, &run);
                    (run, next)
                }
                Some(plan) => {
                    let run = self.apply(plan).run(graph, &kernel);
                    let next = tuner.plan(&plan.mapping, &run);
                    (run, next)
                }
            };
            let wall = run.report.wall;
            iterations.push(TuneIteration {
                iter,
                wall,
                imbalance: next.imbalance,
                moves: next.moves,
            });
            last = Some(run);
            let stalled = prev_wall.is_some_and(|prev| {
                wall.as_secs_f64() >= prev.as_secs_f64() * (1.0 - opts.tolerance)
            });
            if next.moves == 0 || stalled {
                converged = true;
                break;
            }
            prev_wall = Some(wall);
            applied = Some(next);
        }
        TunedRun {
            execution: last.expect("max_iters >= 1 ensures at least one run"),
            iterations,
            converged,
            plan: applied,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::{RioConfig, TraceConfig};
    use rio_stf::{Access, DataId, RoundRobin, TaskGraph, WorkerId};

    /// Two independent unit-cost chains, submitted one after the other
    /// (flow indices `0..len` on D0, `len..2len` on D1); round-robin
    /// over two workers cuts every edge of both, the tuner should put
    /// each chain on one worker.
    fn two_chains(len: usize) -> TaskGraph {
        let mut b = TaskGraph::builder(2);
        for i in 0..2 * len {
            b.task(&[Access::read_write(DataId((i / len) as u32))], 1, "inc");
        }
        b.build()
    }

    #[test]
    fn counters_only_plan_consolidates_chains() {
        let g = two_chains(20);
        let ex = Executor::new(RioConfig::with_workers(2)).mapping(&RoundRobin);
        let run = ex.run(&g, |_, _| {});
        let plan = ex.plan(&g, &run);
        // Each chain lands entirely on one worker.
        let w_of = |i: usize| plan.mapping.worker_of(rio_stf::TaskId::from_index(i), 2);
        for i in 0..20 {
            assert_eq!(w_of(i), w_of(0), "chain A stays together");
            assert_eq!(w_of(20 + i), w_of(20), "chain B stays together");
        }
        assert_ne!(w_of(0), w_of(20), "chains on different workers");
        assert!(plan.moves > 0);
    }

    #[test]
    fn apply_bakes_the_plan_into_a_new_executor() {
        let g = two_chains(15);
        let ex = Executor::new(RioConfig::with_workers(2)).mapping(&RoundRobin);
        let run = ex.run(&g, |_, _| {});
        let plan = ex.plan(&g, &run);
        let tuned = ex.apply(&plan);
        let rerun = tuned.run(&g, |_, _| {});
        assert_eq!(rerun.report.tasks_executed(), 30);
        // The remap really is in effect: per-worker executed counts match
        // the plan's table.
        let mut per_worker = [0u64; 2];
        for i in 0..30 {
            per_worker[plan
                .mapping
                .worker_of(rio_stf::TaskId::from_index(i), 2)
                .index()] += 1;
        }
        for (w, r) in rerun.report.workers.iter().enumerate() {
            assert_eq!(r.tasks_executed, per_worker[w]);
        }
    }

    #[test]
    fn tuned_run_converges_within_the_cap() {
        let g = two_chains(25);
        // A huge tolerance makes the stall check immune to wall-clock
        // noise: round 1 would have to run 20× faster than round 0 to
        // keep the loop going, so it must stop as converged right after
        // applying the consolidation plan.
        let opts = TuneOptions {
            tolerance: 0.95,
            ..TuneOptions::default()
        };
        let tuned = Executor::new(RioConfig::with_workers(2))
            .mapping(&RoundRobin)
            .tuned_run_with(&g, |_, _| {}, opts.clone());
        assert!(!tuned.iterations.is_empty());
        assert!(tuned.iterations.len() <= opts.max_iters);
        assert_eq!(tuned.execution.report.tasks_executed(), 50);
        for (i, it) in tuned.iterations.iter().enumerate() {
            assert_eq!(it.iter, i);
            assert!(it.imbalance >= 1.0 - 1e-9);
        }
        assert!(tuned.converged, "stall must end the loop before the cap");
        // Round 0 diagnosed the round-robin chain-cutting, so a plan was
        // applied and the final run executed under it.
        let plan = tuned.plan.expect("consolidation plan applied");
        assert!(plan.moves > 0);
    }

    #[test]
    fn tuned_run_with_cap_one_only_baselines() {
        let g = two_chains(5);
        let tuned = Executor::new(RioConfig::with_workers(2))
            .mapping(&RoundRobin)
            .tuned_run_with(
                &g,
                |_, _| {},
                TuneOptions {
                    max_iters: 1,
                    ..TuneOptions::default()
                },
            );
        assert_eq!(tuned.iterations.len(), 1);
        assert_eq!(tuned.execution.report.tasks_executed(), 10);
    }

    #[test]
    fn traced_run_plans_from_its_trace() {
        // D0 carries a cross-worker chain; D1 is written by one worker
        // only. The trace-fed path must yield a total remap of the same
        // flow that an executor can run under.
        let mut b = TaskGraph::builder(2);
        for i in 0..60u32 {
            if i % 3 == 2 {
                b.task(&[Access::write(DataId(1))], 1, "solo");
            } else {
                b.task(&[Access::read_write(DataId(0))], 1, "chain");
            }
        }
        let g = b.build();
        let m = rio_stf::TableMapping::from_fn(60, |i| WorkerId::from_index((i % 3 == 1) as usize));
        let ex = Executor::new(RioConfig::with_workers(2))
            .mapping(&m)
            .trace(TraceConfig::new());
        let run = ex.run(&g, |_, _| {});
        assert!(run.trace.is_some());
        let plan = ex.plan(&g, &run);
        assert!(plan.imbalance >= 1.0 - 1e-9);
        rio_stf::validate_mapping(&plan.mapping, 60, 2).expect("a plan is a total mapping");
        let rerun = ex.apply(&plan).run(&g, |_, _| {});
        assert_eq!(rerun.report.tasks_executed(), 60);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iteration_caps_are_rejected() {
        TuneOptions {
            max_iters: 0,
            ..TuneOptions::default()
        }
        .validate();
    }
}

/// Property: tuning never changes results. For random small flows, a
/// plan-applied run — remapped, recompiled — produces byte-identical per-datum stores and the
/// identical per-datum *writer* order as the untuned baseline, under
/// every wait strategy. (Only writers are compared: readers within one
/// epoch are legitimately unordered even between two identical baseline
/// runs. Since every writer mutates its object deterministically from
/// the previous value, identical stores ⟺ identical writer order — the
/// two assertions cross-check each other.)
#[cfg(test)]
mod equivalence {
    use super::Tune;
    use proptest::prelude::*;
    use rio_core::{Executor, RioConfig, WaitStrategy};
    use rio_stf::{Access, DataId, DataStore, RoundRobin, TaskGraph};
    use std::sync::Mutex;

    const NUM_DATA: usize = 5;

    /// Decodes one task per seed: 1–3 distinct objects, each accessed
    /// read / write / read-write, with a small random cost hint.
    fn graph_from(seeds: &[u64]) -> TaskGraph {
        let mut b = TaskGraph::builder(NUM_DATA);
        for &s in seeds {
            let mut acc: Vec<Access> = Vec::new();
            let n = 1 + (s % 3) as usize;
            let mut x = s / 3;
            for _ in 0..n {
                let d = DataId((x % NUM_DATA as u64) as u32);
                x /= NUM_DATA as u64;
                if acc.iter().any(|a| a.data == d) {
                    continue;
                }
                acc.push(match x % 3 {
                    0 => Access::read(d),
                    1 => Access::write(d),
                    _ => Access::read_write(d),
                });
                x /= 3;
            }
            b.task(&acc, 1 + s % 7, "p");
        }
        b.build()
    }

    /// Runs `ex` over `g` with a kernel that mutates every written
    /// object deterministically from its previous value and the writer's
    /// id, recording the per-datum writer order. Returns (stores, order).
    fn observe(ex: &Executor<'_>, g: &TaskGraph) -> (Vec<u64>, Vec<Vec<u64>>) {
        let store = DataStore::new_with(NUM_DATA, |i| i as u64);
        let order: Vec<Mutex<Vec<u64>>> = (0..NUM_DATA).map(|_| Mutex::new(Vec::new())).collect();
        ex.run(g, |_, t| {
            for d in t.writes() {
                let mut w = store.write(d);
                *w = (*w ^ t.id.0)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(t.id.0);
                order[d.index()].lock().unwrap().push(t.id.0);
            }
        });
        (
            store.into_vec(),
            order.into_iter().map(|m| m.into_inner().unwrap()).collect(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn tuned_runs_replay_the_baseline_exactly(
            seeds in proptest::collection::vec(0u64..u64::MAX, 1..40),
            workers in 2usize..5,
        ) {
            let g = graph_from(&seeds);
            for wait in [WaitStrategy::Spin, WaitStrategy::Park] {
                let ex = Executor::new(RioConfig::with_workers(workers).wait(wait))
                    .mapping(&RoundRobin);
                let (base_store, base_order) = observe(&ex, &g);
                // Diagnose a throwaway run into a plan, apply it, re-observe.
                let probe = ex.run(&g, |_, _| {});
                let plan = ex.plan(&g, &probe);
                let tuned = ex.apply(&plan);
                let (tuned_store, tuned_order) = observe(&tuned, &g);
                prop_assert_eq!(&tuned_store, &base_store, "stores diverge under {}", wait);
                prop_assert_eq!(&tuned_order, &base_order, "writer order diverges under {}", wait);
            }
        }
    }
}
