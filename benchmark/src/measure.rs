//! Setting a workload up, timing it end to end, and the traced run.
//!
//! Everything here drives the runtime through its public functions and times
//! those calls from outside. The end-to-end run records no spans and turns
//! no tracing on; the traced run is where every per-layer number comes from.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rio_centralized::{try_execute_graph, CentralConfig};
use rio_core::{CompiledFlow, Execution, Executor, RioConfig, TraceConfig};
use rio_stf::sequential::run_graph;
use rio_stf::{ExecError, Mapping, TaskDesc, TaskGraph, WorkerId};

use crate::floors::Floor;
use crate::heap;
use crate::oracle;
use crate::spans::Spans;
use crate::stats::{iqr_share, median, tail};
use crate::workloads::{counter_kernel, Fingerprint, Spec};

/// Fewest set-ups per end-to-end run; `setup_s` is the fastest of them all.
pub const SETUPS: usize = 7;
/// A run makes as many set-ups as fit into this many seconds, at least
/// [`SETUPS`] and at most [`MAX_SETUPS`]: a 20 ms set-up needs more than
/// seven samples for a number that repeats.
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 64;
/// `Executor::compile` samples per rep: compiling is cheap next to the runs
/// of a rep, and a slow workload has few reps.
pub const COMPILES_PER_REP: usize = 3;
/// Warm-up runs per mode in every set-up.
pub const WARMUPS: usize = 5;
/// Fewest samples per timed mode of an end-to-end run, whatever `--seconds`.
pub const MIN_SAMPLES: usize = 30;
/// Fewest rounds of the traced run, whatever `--seconds`.
pub const MIN_ROUNDS: usize = 20;
/// Samples of each per-workload floor (generation, 64-worker compile).
const FLOOR_SAMPLES: usize = 5;
/// `compile.breakeven_runs` when compiling never pays off. JSON has no
/// infinity, so this is what "inf" is written as.
pub const BREAKEVEN_NEVER: f64 = 1e9;
/// Largest share of `workers x wall` the layer budget may leave unexplained.
const MAX_BUDGET_RESIDUAL: f64 = 0.05;

/// The machine, as far as a run depends on it.
pub struct Env {
    pub nproc: usize,
    /// `clamp(nproc, 2, 4)`: never more threads than that.
    pub workers: usize,
    /// Fewer hardware threads than workers: timings say little.
    pub oversubscribed: bool,
}

impl Env {
    pub fn detect() -> Env {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = nproc.clamp(2, 4);
        Env {
            nproc,
            workers,
            oversubscribed: nproc < workers,
        }
    }
}

/// Runs attempted and failed. A run fails if it returns `Err`, is degraded,
/// executes another number of tasks than the graph has, or — for a verified
/// run — leaves another store than the sequential oracle.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why the first few failures failed.
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Counts one RIO run; `None` if it failed.
    fn rio(
        &mut self,
        mode: &str,
        tasks: usize,
        result: Result<Execution, ExecError>,
    ) -> Option<Execution> {
        self.attempted += 1;
        match result {
            Err(e) => self.fail(format!("{mode}: {}", e.kind())),
            Ok(x) if !x.outcome.is_complete() => self.fail(format!("{mode}: degraded")),
            Ok(x) if x.report.tasks_executed() != tasks as u64 => self.fail(format!(
                "{mode}: executed {} of {tasks} tasks",
                x.report.tasks_executed()
            )),
            Ok(x) => return Some(x),
        }
        None
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One measured number. `samples` is how many timed runs (or calls, for a
/// floor) are behind it; 1 for an exact count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
    /// Where `value` is not the median of the per-run samples: their median.
    pub median: Option<f64>,
    /// For a number taken from per-run samples: their interquartile range as
    /// a share of their median — the spread inside this run, not between runs.
    pub iqr_share: Option<f64>,
}

/// A prediction or invariant the run checks.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub pass: bool,
    /// A failed fatal check fails the run; the others are printed PASS/FAIL.
    pub fatal: bool,
    pub detail: String,
}

/// What one workload produced in one mode.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub checks: Vec<Check>,
    pub fingerprint: Fingerprint,
    /// `(percentile, ns/task)`: the highest percentile of the untraced
    /// `steady` samples with at least ten samples beyond it.
    pub steady_tail: Option<(f64, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.checks.iter().all(|c| c.pass || !c.fatal)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

fn time_ns<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_nanos() as f64, out)
}

/// The median of per-run samples: how the traced run reports its layers.
fn timed(name: &'static str, samples: &[f64]) -> Metric {
    let value = median(samples);
    Metric {
        name,
        value,
        samples: samples.len() as u64,
        median: None,
        iqr_share: (samples.len() >= 2 && value != 0.0).then(|| iqr_share(samples)),
    }
}

/// The fastest of per-run samples: how the end-to-end run reports a timing.
///
/// Interference on this kind of machine only ever adds time, in episodes
/// that last seconds and can cover most of a run, so of all the statistics
/// of a run's samples the minimum is the one that repeats between runs
/// (README, "Why the fastest run"). The median is kept beside it.
fn fastest(name: &'static str, samples: &[f64]) -> Metric {
    Metric {
        value: min_of(samples),
        median: Some(median(samples)),
        ..timed(name, samples)
    }
}

fn min_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// A number derived from `samples` samples rather than a median of them.
fn derived(name: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name,
        value,
        samples,
        median: None,
        iqr_share: None,
    }
}

fn count(name: &'static str, value: f64) -> Metric {
    derived(name, value, 1)
}

/// A workload set up and ready to run: what `setup` hands to its body.
struct Ctx<'a> {
    spec: &'a Spec,
    workers: usize,
    graph: &'a TaskGraph,
    mapping: &'a dyn Mapping,
    oracle: &'a [u64],
    /// Default `RioConfig`: only the worker count and the mapping are set.
    exec: &'a Executor<'a>,
    flow: &'a CompiledFlow<'a>,
    central: CentralConfig,
    /// What the set-up's own `Executor::compile` took.
    compile_ns: f64,
    /// What the whole set-up took, in seconds.
    setup_s: f64,
}

impl Ctx<'_> {
    fn kernel(&self) -> impl Fn(WorkerId, &TaskDesc) + Sync + Copy {
        let iters = self.spec.iters;
        move |_, _| counter_kernel(iters)
    }

    /// `sequential::run_graph` with the workload's kernel: the paper's `t_seq`.
    fn seq(&self) -> f64 {
        let iters = self.spec.iters;
        time_ns(|| black_box(run_graph(self.graph, |_| counter_kernel(iters)))).0
    }

    fn oneshot(&self, exec: &Executor<'_>, tally: &mut Tally) -> (f64, Option<Execution>) {
        let (ns, result) = time_ns(|| exec.try_run(self.graph, self.kernel()));
        (ns, tally.rio("oneshot", self.graph.len(), result))
    }

    fn steady(&self, flow: &CompiledFlow<'_>, tally: &mut Tally) -> (f64, Option<Execution>) {
        let (ns, result) = time_ns(|| flow.try_run(self.kernel()));
        (ns, tally.rio("steady", self.graph.len(), result))
    }

    fn central_run(&self, tally: &mut Tally, kernel: impl Fn(WorkerId, &TaskDesc) + Sync) -> f64 {
        let (ns, result) = time_ns(|| try_execute_graph(&self.central, self.graph, kernel));
        tally.attempted += 1;
        match result {
            Err(e) => tally.fail(format!("central: {}", e.kind())),
            Ok(r) if r.tasks_executed() != self.graph.len() as u64 => tally.fail(format!(
                "central: executed {} of {} tasks",
                r.tasks_executed(),
                self.graph.len()
            )),
            Ok(_) => {}
        }
        ns
    }

    /// One untimed verified run per mode: the final store must equal the
    /// sequential oracle's.
    fn verify(&self, central: bool, tally: &mut Tally) {
        let modes: &[&str] = if central {
            &["oneshot", "steady", "central"]
        } else {
            &["oneshot", "steady"]
        };
        for &mode in modes {
            let store = oracle::fresh_store(self.graph);
            let kernel = |_: WorkerId, t: &TaskDesc| oracle::verify_task(&store, t);
            let failed_before = tally.failed;
            match mode {
                "oneshot" => {
                    let r = self.exec.try_run(self.graph, kernel);
                    tally.rio("verified oneshot", self.graph.len(), r);
                }
                "steady" => {
                    let r = self.flow.try_run(kernel);
                    tally.rio("verified steady", self.graph.len(), r);
                }
                _ => {
                    self.central_run(tally, kernel);
                }
            }
            if tally.failed == failed_before {
                if let Some(d) = oracle::first_mismatch(self.oracle, &store.into_vec()) {
                    tally.fail(format!(
                        "verified {mode}: {d} differs from the sequential oracle"
                    ));
                }
            }
        }
    }
}

/// Sets `spec` up — generate, map, oracle, compile, [`WARMUPS`] runs per mode
/// — and hands the result, with the seconds it took, to `body`. Returns what
/// `body` returned. `central` adds the centralized baseline to the modes.
///
/// # Errors
/// When the generated load differs from its pinned fingerprint, or the
/// mapping fails the runtime's pre-flight check: nothing can be measured.
fn setup<R>(
    spec: &Spec,
    seed: u64,
    env: &Env,
    central: bool,
    tally: &mut Tally,
    spans: &mut Spans,
    body: impl FnOnce(&Ctx<'_>, Fingerprint, &mut Tally, &mut Spans) -> R,
) -> Result<R, String> {
    let start = Instant::now();
    let graph = spans.scope("generate", |_| spec.generate(seed));
    let mapping = spans.scope("map", |_| spec.mapping(env.workers));
    let oracle = spans.scope("oracle", |_| oracle::sequential(&graph));
    let exec = Executor::new(RioConfig::with_workers(env.workers)).mapping(&*mapping);
    let (compile_ns, flow) = spans.scope("compile", |_| time_ns(|| exec.try_compile(&graph)));
    let flow = flow.map_err(|e| format!("{}: compile failed: {}", spec.name, e.kind()))?;
    let mut ctx = Ctx {
        spec,
        workers: env.workers,
        graph: &graph,
        mapping: &*mapping,
        oracle: &oracle,
        exec: &exec,
        flow: &flow,
        central: CentralConfig::with_threads(env.workers),
        compile_ns,
        setup_s: 0.0,
    };
    spans.scope("warmup", |_| {
        for _ in 0..WARMUPS {
            ctx.seq();
            ctx.oneshot(ctx.exec, tally);
            ctx.steady(ctx.flow, tally);
            if central {
                ctx.central_run(tally, ctx.kernel());
            }
        }
    });
    ctx.setup_s = start.elapsed().as_secs_f64();
    spec.check_fingerprint(&graph, seed)?;
    let fingerprint = spec.fingerprint(&graph);
    Ok(body(&ctx, fingerprint, tally, spans))
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end run: `seconds` of interleaved
/// `seq -> oneshot -> steady -> compile x 3` reps (so drift hits all alike),
/// tracing off, default `RioConfig`; then one verified run per mode.
///
/// The memory peaks are read after the first `MIN_SAMPLES` reps. After that
/// the run's further set-ups — [`SETUPS`] or more in all — are spread evenly
/// over the reps (their time is not counted against `seconds`): a set-up is
/// short against this host's noisy phases, and set-ups made back to back
/// would all land inside one.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, env: &Env) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut spans = Spans::off();
    let (fingerprint, metrics, steady_tail) = setup(
        spec,
        seed,
        env,
        false,
        &mut tally,
        &mut spans,
        |ctx, fingerprint, tally, spans| -> Result<_, String> {
            let tasks = ctx.graph.len() as f64;
            let (mut seq, mut oneshot, mut steady, mut compile) = (vec![], vec![], vec![], vec![]);
            let mut setups = vec![ctx.setup_s];
            let more_setups =
                ((SETUP_SECONDS / ctx.setup_s) as usize).clamp(SETUPS, MAX_SETUPS) - 1;
            let mut setup_seconds = 0.0;
            let mut memory = None;
            let start = Instant::now();
            loop {
                let measured = start.elapsed().as_secs_f64() - setup_seconds;
                if measured >= seconds && steady.len() >= MIN_SAMPLES {
                    break;
                }
                seq.push(ctx.seq() / tasks);
                oneshot.push(ctx.oneshot(ctx.exec, tally).0 / tasks);
                steady.push(ctx.steady(ctx.flow, tally).0 / tasks);
                for _ in 0..COMPILES_PER_REP {
                    let (ns, flow) = time_ns(|| ctx.exec.try_compile(ctx.graph));
                    compile.push(ns / tasks);
                    tally.attempted += 1;
                    if let Err(e) = flow {
                        tally.fail(format!("compile: {}", e.kind()));
                    }
                }
                // After a fixed amount of work, not at the end: how many reps
                // fit into `seconds` must not decide the peak. And before any
                // further set-up, which would hold a second graph beside this.
                if steady.len() == MIN_SAMPLES {
                    memory = Some((heap::peak_mb(), peak_rss_mb()));
                }
                let due = (measured / seconds * more_setups as f64).ceil() as usize;
                if memory.is_some() && setups.len() <= due.min(more_setups) {
                    let (ns, s) = time_ns(|| {
                        setup(spec, seed, env, false, tally, spans, |c, _, _, _| c.setup_s)
                    });
                    setups.push(s?);
                    setup_seconds += ns / 1e9;
                }
            }
            ctx.verify(false, tally);
            let steady_m = fastest("steady_ns_per_task", &steady);
            // The paper's e = t_seq / (workers x t_p), from the same statistic
            // of both.
            let efficiency = min_of(&seq) / (ctx.workers as f64 * steady_m.value);
            let (heap, rss) = memory.expect("the loop runs at least MIN_SAMPLES reps");
            let mut metrics = vec![
                fastest("setup_s", &setups),
                steady_m,
                fastest("oneshot_ns_per_task", &oneshot),
                fastest("compile_ns_per_task", &compile),
                derived("parallel_efficiency", efficiency, steady.len() as u64),
                count("peak_heap_mb", heap),
            ];
            // Informational: see `heap` for why the resident set is not bounded.
            metrics.extend(rss.map(|rss| count("peak_rss_mb", rss)));
            Ok((fingerprint, metrics, tail(&steady)))
        },
    )??;
    Ok(Outcome {
        workload: spec.name,
        traced: false,
        metrics,
        tally,
        checks: Vec::new(),
        fingerprint,
        steady_tail,
    })
}

/// Per-rep samples of the traced run, all in ns/task unless named otherwise.
#[derive(Default)]
struct Rounds {
    seq: Vec<f64>,
    oneshot_traced: Vec<f64>,
    steady_traced: Vec<f64>,
    oneshot: Vec<f64>,
    steady: Vec<f64>,
    bare: Vec<f64>,
    central: Vec<f64>,
    // The layer budget of each traced `steady` rep, cumulative over workers.
    task: Vec<f64>,
    idle: Vec<f64>,
    runtime: Vec<f64>,
    launch: Vec<f64>,
    residual_share: Vec<f64>,
    e_p: Vec<f64>,
    e_r: Vec<f64>,
    // Protocol behaviour of each traced `steady` rep.
    wait_share: Vec<f64>,
    polls_per_wait: Vec<f64>,
    parks: Vec<f64>,
    wakes_elided_share: Vec<f64>,
    steals: Vec<f64>,
    /// Did `gets` and `terminates` equal the graph's access count every rep?
    ops_reconcile: bool,
    last_steady: Option<Execution>,
    last_oneshot: Option<Execution>,
}

impl Rounds {
    /// Books one traced `steady` rep: `wall_ns` is the wall time measured
    /// from outside, the rest comes from the run's own report and trace.
    fn book(&mut self, ctx: &Ctx<'_>, wall_ns: f64, seq_ns: f64, x: Execution) {
        let tasks = ctx.graph.len() as f64;
        let r = &x.report;
        let total = ctx.workers as f64 * wall_ns;
        let task = r.cumulative_task_time().as_nanos() as f64;
        let idle = r.cumulative_idle_time().as_nanos() as f64;
        let runtime = r.cumulative_runtime_time().as_nanos() as f64;
        // What no worker loop covers: the run's table allocation and drop,
        // thread spawn and join. The report says nothing about it, so it is
        // the rest of `workers x wall` — which leaves the residual to catch
        // a report whose parts exceed its loops, or loops that exceed the wall.
        let loops: f64 = r
            .workers
            .iter()
            .map(|w| w.loop_time.as_nanos() as f64)
            .sum();
        let launch = (total - loops).max(0.0);
        self.task.push(task / tasks);
        self.idle.push(idle / tasks);
        self.runtime.push(runtime / tasks);
        self.launch.push(launch / tasks);
        self.residual_share
            .push((task + idle + runtime + launch - total).abs() / total);
        if let Some(trace) = &x.trace {
            let seq = Duration::from_nanos(seq_ns as u64);
            let d = rio_metrics::decompose(seq, seq, &trace.quadruple());
            self.e_p.push(d.e_p);
            self.e_r.push(d.e_r);
        }
        let ops = r.total_ops();
        let accesses = ctx.graph.total_accesses() as u64;
        self.ops_reconcile &= ops.gets == accesses && ops.terminates == accesses;
        self.wait_share
            .push(ops.waits as f64 / ops.gets.max(1) as f64);
        self.polls_per_wait
            .push(ops.poll_loops as f64 / ops.waits.max(1) as f64);
        let c = x.counters.total();
        self.parks.push(c.parks as f64);
        self.wakes_elided_share
            .push(c.wakes_elided as f64 / ops.terminates.max(1) as f64);
        self.steals.push(c.steals as f64);
        self.last_steady = Some(x);
    }
}

/// Median over rounds of `a[i] / b[i] - 1`: paired, so drift cancels.
fn paired_overhead(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).map(|(a, b)| a / b - 1.0).collect();
    median(&ratios)
}

/// The traced run: every per-layer metric of one workload. Records the
/// benchmark's own spans under one root named after the workload.
pub fn traced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    env: &Env,
    floors: &[Floor],
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (fingerprint, metrics, checks, steady_tail) = spans.scope(spec.name, |spans| {
        setup(
            spec,
            seed,
            env,
            true,
            &mut tally,
            spans,
            |ctx, fingerprint, tally, spans| {
                let (metrics, checks, steady_tail) =
                    traced_body(ctx, seed, seconds, floors, tally, spans);
                (fingerprint, metrics, checks, steady_tail)
            },
        )
    })?;
    Ok(Outcome {
        workload: spec.name,
        traced: true,
        metrics,
        tally,
        checks,
        fingerprint,
        steady_tail,
    })
}

fn traced_body(
    ctx: &Ctx<'_>,
    seed: u64,
    seconds: f64,
    floors: &[Floor],
    tally: &mut Tally,
    spans: &mut Spans,
) -> (Vec<Metric>, Vec<Check>, Option<(f64, f64)>) {
    let (graph, spec, w) = (ctx.graph, ctx.spec, ctx.workers);
    let tasks = graph.len() as f64;

    // The traced flow, and the one with the always-on extras switched off.
    let traced_exec = Executor::new(RioConfig::with_workers(w).measure_time(true))
        .mapping(ctx.mapping)
        .trace(TraceConfig::new());
    let bare_exec = Executor::new(RioConfig::with_workers(w).counters(false).flight(false))
        .mapping(ctx.mapping);
    let ((traced_ns, traced_flow), (bare_ns, bare_flow)) = spans.scope("compile", |_| {
        (
            time_ns(|| traced_exec.compile(graph)),
            time_ns(|| bare_exec.compile(graph)),
        )
    });
    let compile: Vec<f64> = [ctx.compile_ns, traced_ns, bare_ns]
        .iter()
        .map(|ns| ns / tasks)
        .collect();

    // Floors that depend on the workload's graph.
    let (seq_walk, gen, w64) = spans.scope("floors", |_| {
        let walks = ((1e6 / tasks).ceil() as usize).max(FLOOR_SAMPLES);
        let seq_walk: Vec<f64> = (0..walks)
            .map(|_| {
                time_ns(|| {
                    black_box(run_graph(graph, |id| {
                        black_box(id);
                    }))
                })
                .0 / tasks
            })
            .collect();
        let gen: Vec<f64> = (0..FLOOR_SAMPLES)
            .map(|_| time_ns(|| black_box(spec.generate(seed))).0 / tasks)
            .collect();
        // Compiling is single-threaded, so the w-scaling of unrolling is
        // measured at 64 workers without running 64 threads.
        let mapping64 = spec.mapping(64);
        let exec64 = Executor::new(RioConfig::with_workers(64)).mapping(&*mapping64);
        let w64: Vec<f64> = (0..FLOOR_SAMPLES)
            .map(|_| time_ns(|| black_box(exec64.compile(graph))).0 / tasks)
            .collect();
        (seq_walk, gen, w64)
    });

    // Rounds: modes interleaved so drift hits all alike.
    let mut r = Rounds {
        ops_reconcile: true,
        ..Rounds::default()
    };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || r.steady.len() < MIN_ROUNDS {
        let seq_ns = spans.scope("seq", |_| ctx.seq());
        r.seq.push(seq_ns / tasks);
        let (ns, x) = spans.scope("oneshot traced", |_| ctx.oneshot(&traced_exec, tally));
        r.oneshot_traced.push(ns / tasks);
        r.last_oneshot = x.or(r.last_oneshot.take());
        let (ns, x) = spans.scope("steady traced", |_| ctx.steady(&traced_flow, tally));
        r.steady_traced.push(ns / tasks);
        if let Some(x) = x {
            r.book(ctx, ns, seq_ns, x);
        }
        let (ns, _) = spans.scope("oneshot", |_| ctx.oneshot(ctx.exec, tally));
        r.oneshot.push(ns / tasks);
        let (ns, _) = spans.scope("steady", |_| ctx.steady(ctx.flow, tally));
        r.steady.push(ns / tasks);
        let (ns, _) = spans.scope("steady bare", |_| ctx.steady(&bare_flow, tally));
        r.bare.push(ns / tasks);
        let ns = spans.scope("central", |_| ctx.central_run(tally, ctx.kernel()));
        r.central.push(ns / tasks);
    }
    spans.scope("verify", |_| ctx.verify(true, tally));

    let mut metrics: Vec<Metric> = floors
        .iter()
        .map(|f| derived(f.name, f.ns_per_op, f.calls))
        .collect();
    metrics.extend([
        timed("stf.seq_walk_ns_per_task", &seq_walk),
        timed("workloads.gen_ns_per_task", &gen),
        timed("compile.w64_ns_per_task", &w64),
    ]);

    let stats = ctx.flow.stats();
    metrics.extend([
        count("compile.instructions", stats.instructions() as f64),
        count("compile.folded_declares", stats.folded_declares as f64),
        count(
            "compile.irrelevant_declares",
            stats.irrelevant_declares as f64,
        ),
        count("compile.coalesce_factor", stats.coalesce_factor()),
    ]);
    let mut checks = Vec::new();
    let (Some(steady_run), Some(oneshot_run)) = (&r.last_steady, &r.last_oneshot) else {
        // Every traced run failed: the tally already says so, and there is
        // nothing to derive the remaining metrics from.
        return (metrics, checks, None);
    };
    let ops = steady_run.report.total_ops();
    metrics.extend([
        count(
            "protocol.declares",
            oneshot_run.report.total_ops().declares as f64,
        ),
        count("protocol.syncs", ops.syncs as f64),
        count("protocol.gets", ops.gets as f64),
        count("protocol.terminates", ops.terminates as f64),
    ]);

    let steady_tail = tail(&r.steady);
    let steady_med = median(&r.steady);
    let breakeven = {
        let saved = median(&r.oneshot) - steady_med;
        if saved > 0.0 {
            (median(&compile) / saved).min(BREAKEVEN_NEVER)
        } else {
            BREAKEVEN_NEVER
        }
    };
    let doctor = spans.scope("diagnose", |_| {
        steady_run
            .trace
            .as_ref()
            .map(|t| rio_doctor::diagnose(graph, ctx.mapping, w, t))
    });
    let (critical_path_share, imbalance) = doctor.map_or((f64::NAN, f64::NAN), |d| {
        (
            d.critical_path_ns as f64 / d.wall_ns.max(1) as f64,
            d.quality.imbalance,
        )
    });
    let n = r.task.len() as u64;
    metrics.extend([
        timed("executor.task_ns_per_task", &r.task),
        timed("executor.idle_ns_per_task", &r.idle),
        timed("executor.runtime_ns_per_task", &r.runtime),
        timed("executor.launch_ns_per_task", &r.launch),
        timed("executor.budget_residual_share", &r.residual_share),
        derived(
            "executor.steady_tail_ns_per_task",
            steady_tail.map_or(f64::NAN, |(_, v)| v),
            r.steady.len() as u64,
        ),
        timed("protocol.wait_share", &r.wait_share),
        timed("protocol.polls_per_wait", &r.polls_per_wait),
        timed("park.parks", &r.parks),
        timed("park.wakes_elided_share", &r.wakes_elided_share),
        timed("steal.steals", &r.steals),
        timed("metrics.e_p", &r.e_p),
        timed("metrics.e_r", &r.e_r),
        count("doctor.critical_path_share", critical_path_share),
        count("doctor.imbalance_factor", imbalance),
        derived(
            "trace.overhead_share",
            paired_overhead(&r.steady_traced, &r.steady),
            n,
        ),
        derived(
            "extras.observe_share",
            paired_overhead(&r.steady, &r.bare),
            n,
        ),
        derived("compile.breakeven_runs", breakeven, compile.len() as u64),
        timed("centralized.ns_per_task", &r.central),
        timed("stf.seq_ns_per_task", &r.seq),
    ]);

    // The layers must sum to the end-to-end number.
    let residual = median(&r.residual_share);
    checks.push(Check {
        name: "budget reconciles".into(),
        pass: residual <= MAX_BUDGET_RESIDUAL,
        fatal: true,
        detail: format!(
            "|task + idle + runtime + launch - workers x wall| / (workers x wall) = {residual:.4} (limit {MAX_BUDGET_RESIDUAL})"
        ),
    });
    checks.push(Check {
        name: "protocol counts reconcile".into(),
        pass: r.ops_reconcile,
        fatal: true,
        detail: format!(
            "gets {} and terminates {} against {} accesses in the graph",
            ops.gets,
            ops.terminates,
            graph.total_accesses()
        ),
    });
    // Workload-separation predictions.
    let (task, idle, runtime, launch) = (
        median(&r.task),
        median(&r.idle),
        median(&r.runtime),
        median(&r.launch),
    );
    let waiting_outweighs_management = Check {
        name: "waiting outweighs management".into(),
        pass: idle > runtime,
        fatal: false,
        detail: format!(
            "executor.idle_ns_per_task {idle:.1} against executor.runtime_ns_per_task {runtime:.1}"
        ),
    };
    match spec.name {
        "indep-fine" => checks.push(Check {
            name: "no task ever waits".into(),
            pass: r.parks.iter().chain(&r.wait_share).all(|v| *v == 0.0),
            fatal: true,
            detail: format!(
                "park.parks max {} and protocol.wait_share max {} over {n} traced reps",
                r.parks.iter().fold(0.0f64, |a, b| a.max(*b)),
                r.wait_share.iter().fold(0.0f64, |a, b| a.max(*b)),
            ),
        }),
        "cholesky-coarse" => {
            let wall = w as f64 * median(&r.steady_traced);
            checks.push(Check {
                name: "the kernel does nearly all the work".into(),
                pass: task >= 0.8 * w as f64 * steady_med,
                fatal: false,
                detail: format!(
                    "executor.task_ns_per_task {task:.1} against 0.8 x {w} x steady_ns_per_task {steady_med:.1}"
                ),
            });
            checks.push(Check {
                name: "every other layer is under 5 % of wall".into(),
                pass: [idle, runtime, launch].iter().all(|l| *l < 0.05 * wall),
                fatal: false,
                detail: format!(
                    "idle {idle:.1}, runtime {runtime:.1}, launch {launch:.1} against 5 % of {w} x {:.1} ns/task",
                    wall / w as f64
                ),
            });
        }
        // Where the issue predicted it, and where it holds on two workers
        // (README, "Predictions").
        "cholesky-fine" | "randdeps-fine" => checks.push(waiting_outweighs_management),
        _ => {}
    }
    (metrics, checks, steady_tail)
}
