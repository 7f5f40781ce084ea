//! One reproduction function per paper figure/table.
//!
//! Each function prints a text table (CSV with `csv = true`) and returns
//! it, so integration tests can assert on the series. Default problem
//! sizes are laptop-scale; the paper's exact sizes are noted per function
//! and reachable through the options.

use std::time::{Duration, Instant};

use rio_centralized::CentralConfig;
use rio_core::{RioConfig, WaitStrategy};
use rio_dense::{dgemm, gemm_flops, tiled_gemm_flow, Matrix};
use rio_metrics::{
    centralized_time, decentralized_time, decompose, fit_runtime_cost, CumulativeTimes, Table,
};
use rio_stf::{RoundRobin, TaskGraph, WorkerId};
use rio_workloads::counter::counter_kernel;
use rio_workloads::{independent, lu, matmul, random_deps};

use crate::harness::{fmt_dur, measure_centralized, measure_rio, measure_sequential, RunSpec};
use crate::json;

/// Common options for the figure reproductions.
#[derive(Debug, Clone)]
pub struct Options {
    /// Thread count `p` (RIO workers; centralized total incl. master).
    pub threads: usize,
    /// Task count for the synthetic experiments.
    pub tasks: usize,
    /// Repetitions per point.
    pub reps: usize,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Shrink sweeps for smoke runs.
    pub quick: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            threads: 4,
            tasks: 2048,
            reps: 3,
            csv: false,
            quick: false,
        }
    }
}

impl Options {
    fn spec(&self, task_size: u64) -> RunSpec {
        RunSpec {
            threads: self.threads,
            task_size,
            reps: self.reps,
        }
    }

    fn sizes(&self) -> Vec<u64> {
        if self.quick {
            vec![1 << 6, 1 << 10, 1 << 14]
        } else {
            (4..=16).step_by(2).map(|b| 1u64 << b).collect()
        }
    }

    fn emit(&self, title: &str, t: &Table) -> String {
        let body = if self.csv { t.to_csv() } else { t.render() };
        let out = format!("# {title}\n{body}");
        println!("{out}");
        out
    }
}

// ---------------------------------------------------------------------
// Fig. 2 / Fig. 3 / Fig. 4 — tiled DGEMM (kernel-level experiments)
// ---------------------------------------------------------------------

fn gemm_tile_sweep(n: usize, quick: bool) -> Vec<usize> {
    let all: &[usize] = if quick {
        &[16, 64, 192]
    } else {
        &[8, 16, 32, 48, 96, 192, 384]
    };
    all.iter()
        .copied()
        .filter(|t| n.is_multiple_of(*t) && *t <= n)
        .collect()
}

/// Fig. 2: execution time against tile size for a tiled matrix
/// multiplication on the centralized runtime (paper: 4096², MKL DGEMM,
/// StarPU, 24 cores; here: `n`², our blocked kernel, our centralized
/// runtime).
pub fn fig2(opt: &Options, n: usize) -> String {
    let mut table = Table::new(["tile", "tasks", "central_wall", "rio_wall", "seq_tiled"]);
    for tile in gemm_tile_sweep(n, opt.quick) {
        let grid = n / tile;
        let flow = tiled_gemm_flow(grid, tile);
        let a = Matrix::random(n, n, 11);
        let b = Matrix::random(n, n, 12);

        // Sequential tiled reference.
        let store = flow.make_store(&a, &b);
        let kernel = flow.kernel(&store);
        let t0 = Instant::now();
        rio_stf::sequential::run_graph(&flow.graph, |t| kernel(WorkerId(0), flow.graph.task(t)));
        let seq = t0.elapsed();
        drop(kernel);

        // Centralized runtime with real kernels.
        let store = flow.make_store(&a, &b);
        let kernel = flow.kernel(&store);
        let cfg = CentralConfig::with_threads(opt.threads.max(2));
        let t0 = Instant::now();
        rio_centralized::execute_graph(&cfg, &flow.graph, &kernel);
        let central = t0.elapsed();
        drop(kernel);

        // RIO with the owner-computes mapping.
        let store = flow.make_store(&a, &b);
        let kernel = flow.kernel(&store);
        let mapping = flow.owner_mapping(opt.threads);
        let rcfg = RioConfig::with_workers(opt.threads).wait(WaitStrategy::Park);
        let t0 = Instant::now();
        rio_core::Executor::new(rcfg)
            .mapping(&mapping)
            .run(&flow.graph, &kernel);
        let rio = t0.elapsed();

        table.row([
            tile.to_string(),
            flow.graph.len().to_string(),
            fmt_dur(central),
            fmt_dur(rio),
            fmt_dur(seq),
        ]);
    }
    opt.emit(
        &format!(
            "Fig. 2 — {n}x{n} tiled DGEMM: execution time vs tile size ({} threads)",
            opt.threads
        ),
        &table,
    )
}

/// Fig. 3: sequential kernel efficiency against tile size
/// (`e_g = t / t(g)` with `t` the monolithic DGEMM).
pub fn fig3(opt: &Options, n: usize) -> String {
    // Monolithic reference.
    let a = Matrix::random(n, n, 11);
    let b = Matrix::random(n, n, 12);
    let mut c = Matrix::zeros(n, n);
    let t0 = Instant::now();
    dgemm(1.0, &a, &b, 0.0, &mut c);
    let mono = t0.elapsed();
    let flops = gemm_flops(n, n, n);

    let mut table = Table::new(["tile", "t(g)", "e_g", "gflops"]);
    for tile in gemm_tile_sweep(n, opt.quick) {
        let grid = n / tile;
        let flow = tiled_gemm_flow(grid, tile);
        let store = flow.make_store(&a, &b);
        let kernel = flow.kernel(&store);
        let t0 = Instant::now();
        rio_stf::sequential::run_graph(&flow.graph, |t| kernel(WorkerId(0), flow.graph.task(t)));
        let tg = t0.elapsed();
        let e_g = mono.as_secs_f64() / tg.as_secs_f64();
        let gflops = flops as f64 / tg.as_secs_f64() / 1e9;
        table.row([
            tile.to_string(),
            fmt_dur(tg),
            format!("{e_g:.3}"),
            format!("{gflops:.2}"),
        ]);
    }
    opt.emit(
        &format!(
            "Fig. 3 — sequential DGEMM kernel efficiency vs tile size (monolithic {} = {})",
            n,
            fmt_dur(mono)
        ),
        &table,
    )
}

/// Fig. 4: efficiency decomposition of the tiled matmul on the
/// centralized runtime (real kernels).
pub fn fig4(opt: &Options, n: usize) -> String {
    let a = Matrix::random(n, n, 11);
    let b = Matrix::random(n, n, 12);
    let mut c = Matrix::zeros(n, n);
    let t0 = Instant::now();
    dgemm(1.0, &a, &b, 0.0, &mut c);
    let mono = t0.elapsed();

    let mut table = Table::new(["tile", "e_g", "e_l", "e_p", "e_r", "e"]);
    for tile in gemm_tile_sweep(n, opt.quick) {
        let grid = n / tile;
        let flow = tiled_gemm_flow(grid, tile);

        let store = flow.make_store(&a, &b);
        let kernel = flow.kernel(&store);
        let t0 = Instant::now();
        rio_stf::sequential::run_graph(&flow.graph, |t| kernel(WorkerId(0), flow.graph.task(t)));
        let tg = t0.elapsed();
        drop(kernel);

        let store = flow.make_store(&a, &b);
        let kernel = flow.kernel(&store);
        let cfg = CentralConfig::with_threads(opt.threads.max(2)).measure_time(true);
        let report = rio_centralized::execute_graph(&cfg, &flow.graph, &kernel);
        let times = CumulativeTimes {
            threads: report.num_threads(),
            wall: report.wall,
            task: report.cumulative_task_time(),
            idle: report.cumulative_idle_time(),
        };
        let d = decompose(mono, tg, &times);
        table.row([
            tile.to_string(),
            format!("{:.3}", d.e_g),
            format!("{:.3}", d.e_l),
            format!("{:.3}", d.e_p),
            format!("{:.3}", d.e_r),
            format!("{:.3}", d.parallel_efficiency()),
        ]);
    }
    opt.emit(
        &format!(
            "Fig. 4 — efficiency decomposition, {n}x{n} matmul, centralized ({} threads)",
            opt.threads
        ),
        &table,
    )
}

// ---------------------------------------------------------------------
// Fig. 6 — per-task overhead vs task size, both runtimes
// ---------------------------------------------------------------------

/// Fig. 6: execution time of `opt.tasks` independent counter tasks vs
/// task size, centralized vs RIO.
pub fn fig6(opt: &Options) -> String {
    let graph = independent::graph(opt.tasks);
    let mut table = Table::new([
        "task_size",
        "seq",
        "rio",
        "central",
        "rio/seq",
        "central/seq",
    ]);
    for size in opt.sizes() {
        let spec = opt.spec(size);
        let seq = measure_sequential(&spec, &graph);
        let rio = measure_rio(&spec, &graph, &RoundRobin);
        let cen = measure_centralized(&spec, &graph);
        let per_task = |d: Duration| d.as_nanos() as f64 / opt.tasks.max(1) as f64;
        for (runtime, wall) in [("seq", seq), ("rio", rio.wall), ("central", cen.wall)] {
            json::record(json::Record {
                figure: "fig6".into(),
                workload: format!("independent-counter/size={size}"),
                runtime: runtime.into(),
                threads: opt.threads,
                tasks: opt.tasks,
                ns_per_task: per_task(wall),
            });
        }
        table.row([
            size.to_string(),
            fmt_dur(seq),
            fmt_dur(rio.wall),
            fmt_dur(cen.wall),
            format!(
                "{:.2}",
                rio.wall.as_secs_f64() / seq.as_secs_f64().max(1e-9)
            ),
            format!(
                "{:.2}",
                cen.wall.as_secs_f64() / seq.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    opt.emit(
        &format!(
            "Fig. 6 — {} independent counter tasks: wall time vs task size ({} threads)",
            opt.tasks, opt.threads
        ),
        &table,
    )
}

// ---------------------------------------------------------------------
// Fig. 7 — scaling tasks with workers
// ---------------------------------------------------------------------

/// Fig. 7: total execution time of `tasks_per_worker` independent tasks
/// *per worker* against the worker count (paper: 2¹⁵ per worker on a
/// 64-core EPYC). The `rio` column is the one-shot: compile included,
/// which is where the unrolling term went (serial, once) — §3.5's pruning
/// is subsumed by own-task-only programs.
pub fn fig7(opt: &Options, tasks_per_worker: usize, worker_counts: &[usize]) -> String {
    let task_size = 1u64 << 8;
    let mut table = Table::new(["workers", "total_tasks", "rio", "central"]);
    for &w in worker_counts {
        let n = independent::tasks_for_workers(tasks_per_worker, w);
        let graph = independent::graph_private_data(n);

        let rio_cfg = RioConfig::with_workers(w).wait(WaitStrategy::Park);
        let run_plain = || {
            let t0 = Instant::now();
            rio_core::Executor::new(rio_cfg.clone())
                .mapping(&RoundRobin)
                .run(&graph, |_, _| counter_kernel(task_size));
            t0.elapsed()
        };
        let cen_cfg = CentralConfig::with_threads(w + 1);
        let run_central = || {
            let t0 = Instant::now();
            rio_centralized::execute_graph(&cen_cfg, &graph, |_, _| counter_kernel(task_size));
            t0.elapsed()
        };

        let mut rio = Duration::MAX;
        let mut central = Duration::MAX;
        for _ in 0..opt.reps {
            rio = rio.min(run_plain());
            central = central.min(run_central());
        }
        let per_task = |d: Duration| d.as_nanos() as f64 / n.max(1) as f64;
        for (runtime, wall) in [("rio", rio), ("central", central)] {
            json::record(json::Record {
                figure: "fig7".into(),
                workload: format!("independent-private/tpw={tasks_per_worker}"),
                runtime: runtime.into(),
                threads: w,
                tasks: n,
                ns_per_task: per_task(wall),
            });
        }
        table.row([w.to_string(), n.to_string(), fmt_dur(rio), fmt_dur(central)]);
    }
    opt.emit(
        &format!("Fig. 7 — {tasks_per_worker} independent tasks per worker vs workers (task size {task_size})"),
        &table,
    )
}

// ---------------------------------------------------------------------
// Compiled-flow ablation — one-shot vs reused flow
// ---------------------------------------------------------------------

/// One row of the compiled-flow ablation: per-task management cost of
/// a one-shot and of a reused flow at one worker count.
#[derive(Debug, Clone)]
pub struct CompiledRow {
    /// Worker count.
    pub workers: usize,
    /// Total tasks in the flow.
    pub tasks: usize,
    /// One-shot `Executor::run`: compile, then run the fresh flow.
    pub oneshot_ns: f64,
    /// A run of a flow compiled beforehand (`Executor::compile`).
    pub compiled_ns: f64,
}

/// Ablation: per-task management cost of a one-shot (compile included)
/// and of a steady run of a reused flow on the Fig. 7 independent-task
/// workload, with an **empty kernel** so the measurement is pure runtime
/// management. The gap is what compiling once buys every later run.
pub fn compiled(
    opt: &Options,
    tasks_per_worker: usize,
    worker_counts: &[usize],
) -> (String, Vec<CompiledRow>) {
    let mut table = Table::new([
        "workers",
        "total_tasks",
        "oneshot",
        "compiled",
        "oneshot/comp",
        "elided gets/publishes",
        "shared objects",
    ]);
    let mut rows = Vec::with_capacity(worker_counts.len());
    for &w in worker_counts {
        let n = independent::tasks_for_workers(tasks_per_worker, w);
        let graph = independent::graph_private_data(n);
        let cfg = RioConfig::with_workers(w)
            .wait(WaitStrategy::Park)
            .measure_time(false);

        let run_oneshot = || {
            let t0 = Instant::now();
            rio_core::Executor::new(cfg.clone())
                .mapping(&RoundRobin)
                .run(&graph, |_, _| {});
            t0.elapsed()
        };
        let flow = rio_core::Executor::new(cfg.clone())
            .mapping(&RoundRobin)
            .compile(&graph);
        let run_compiled = || {
            let t0 = Instant::now();
            flow.run(|_, _| {});
            t0.elapsed()
        };

        let mut oneshot = Duration::MAX;
        let mut comp = Duration::MAX;
        for _ in 0..opt.reps.max(1) {
            oneshot = oneshot.min(run_oneshot());
            comp = comp.min(run_compiled());
        }
        let per_task = |d: Duration| d.as_nanos() as f64 / n.max(1) as f64;
        let row = CompiledRow {
            workers: w,
            tasks: n,
            oneshot_ns: per_task(oneshot),
            compiled_ns: per_task(comp),
        };
        for (runtime, ns) in [("rio", row.oneshot_ns), ("rio_compiled", row.compiled_ns)] {
            json::record(json::Record {
                figure: "compiled".into(),
                workload: format!("independent-private/tpw={tasks_per_worker}"),
                runtime: runtime.into(),
                threads: w,
                tasks: n,
                ns_per_task: ns,
            });
        }
        table.row([
            w.to_string(),
            n.to_string(),
            format!("{:.1}ns", row.oneshot_ns),
            format!("{:.1}ns", row.compiled_ns),
            format!("{:.2}", row.oneshot_ns / row.compiled_ns.max(1e-9)),
            // Static: what the compiler left of the synchronisation.
            format!(
                "{}/{} of {}",
                flow.stats().elided_gets,
                flow.stats().elided_publishes,
                graph.total_accesses()
            ),
            format!("{} of {}", flow.stats().shared_objects, graph.num_data()),
        ]);
        rows.push(row);
    }
    let out = opt.emit(
        &format!(
            "Compiled-flow ablation — {tasks_per_worker} independent tasks per worker, empty kernel (per-task management cost)"
        ),
        &table,
    );
    (out, rows)
}

// ---------------------------------------------------------------------
// Park microbench — waiter-aware wake elision on the terminate path
// ---------------------------------------------------------------------

/// One row of the park microbench: per-operation cost of an uncontended
/// Park-mode get+terminate cycle with wake elision, against an emulation
/// of the pre-elision behaviour (unconditional lock + notify per
/// terminate).
#[derive(Debug, Clone)]
pub struct ParkRow {
    /// Which protocol operation the row measures (`write` or `read`).
    pub op: &'static str,
    /// ns/op with waiter-aware elision (the shipped path).
    pub elided_ns: f64,
    /// ns/op with an unconditional wake after every terminate.
    pub always_wake_ns: f64,
}

/// `repro park`: the terminate-side cost of [`WaitStrategy::Park`]
/// without waiters. With wake elision, an uncontended terminate is one
/// atomic store (or `fetch_add`) plus one relaxed-cost waiters check; the
/// pre-elision protocol took a mutex and notified a condvar on **every**
/// terminate. The always-wake column emulates that old behaviour by
/// pairing each elided terminate with exactly the lock + `notify_all`
/// the old `SharedDataState` performed.
pub fn park(opt: &Options) -> (String, Vec<ParkRow>) {
    use rio_core::protocol::{
        expected_read_word, expected_write_word, get_read_word_cx, get_write_word_cx,
        terminate_read, terminate_write, AbortFlag, LocalDataState, SharedDataState, WaitCx,
    };
    use rio_stf::TaskId;
    use std::sync::{Condvar, Mutex};

    let iters: u64 = if opt.quick { 200_000 } else { 2_000_000 };
    let wait = WaitStrategy::Park;
    // Stand-in for the per-object `Mutex<()> + Condvar` the pre-elision
    // shared state carried: its wake path was `drop(lock()); notify_all()`.
    let old_lock = Mutex::new(());
    let old_cond = Condvar::new();
    let always_wake = || {
        drop(old_lock.lock().expect("bench mutex never poisoned"));
        old_cond.notify_all();
    };

    let time_min = |f: &dyn Fn() -> Duration| {
        let mut best = Duration::MAX;
        for _ in 0..opt.reps.max(1) {
            best = best.min(f());
        }
        best.as_nanos() as f64 / iters as f64
    };

    // Shared state is created inside each timed run: the private view
    // starts fresh every rep, so the shared word must too — reusing one
    // object across reps would leave the second rep's first `get` waiting
    // on an epoch it never registered.
    let write_elided = || {
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();
        let abort = AbortFlag::new();
        let t0 = Instant::now();
        for id in 1..=iters {
            get_write_word_cx(
                &shared,
                expected_write_word(&local),
                &WaitCx::new(wait, &abort),
            );
            terminate_write(&shared, &mut local, TaskId(id), wait);
        }
        t0.elapsed()
    };
    let read_elided = || {
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();
        let abort = AbortFlag::new();
        let t0 = Instant::now();
        for _ in 0..iters {
            get_read_word_cx(
                &shared,
                expected_read_word(&local),
                &WaitCx::new(wait, &abort),
            );
            terminate_read(&shared, &mut local, wait);
        }
        t0.elapsed()
    };
    let write_always = || {
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();
        let abort = AbortFlag::new();
        let t0 = Instant::now();
        for id in 1..=iters {
            get_write_word_cx(
                &shared,
                expected_write_word(&local),
                &WaitCx::new(wait, &abort),
            );
            terminate_write(&shared, &mut local, TaskId(id), wait);
            always_wake();
        }
        t0.elapsed()
    };
    let read_always = || {
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();
        let abort = AbortFlag::new();
        let t0 = Instant::now();
        for _ in 0..iters {
            get_read_word_cx(
                &shared,
                expected_read_word(&local),
                &WaitCx::new(wait, &abort),
            );
            terminate_read(&shared, &mut local, wait);
            always_wake();
        }
        t0.elapsed()
    };

    let mut table = Table::new(["op", "elided", "always_wake", "speedup"]);
    let mut rows = Vec::with_capacity(2);
    let mut measure =
        |op: &'static str, elided: &dyn Fn() -> Duration, always: &dyn Fn() -> Duration| {
            let elided_ns = time_min(elided);
            let always_wake_ns = time_min(always);
            for (runtime, ns) in [
                ("rio_elided", elided_ns),
                ("rio_always_wake", always_wake_ns),
            ] {
                json::record(json::Record {
                    figure: "park".into(),
                    workload: format!("terminate-uncontended/op={op}"),
                    runtime: runtime.into(),
                    threads: 1,
                    tasks: iters as usize,
                    ns_per_task: ns,
                });
            }
            table.row([
                op.to_string(),
                format!("{elided_ns:.1}ns"),
                format!("{always_wake_ns:.1}ns"),
                format!("{:.2}", always_wake_ns / elided_ns.max(1e-9)),
            ]);
            rows.push(ParkRow {
                op,
                elided_ns,
                always_wake_ns,
            });
        };
    measure("write", &write_elided, &write_always);
    measure("read", &read_elided, &read_always);
    let out = opt.emit(
        "Park microbench — uncontended get+terminate cycle, wake elision vs unconditional wake",
        &table,
    );
    (out, rows)
}

// ---------------------------------------------------------------------
// Counters overhead — always-on counters vs counters disabled
// ---------------------------------------------------------------------

/// One row of the counters-overhead measurement.
#[derive(Debug, Clone)]
pub struct CountersRow {
    /// Worker count of the row.
    pub workers: usize,
    /// Total tasks.
    pub tasks: usize,
    /// ns/task with the always-on counters (the shipped default).
    pub on_ns: f64,
    /// ns/task with counters disabled.
    pub off_ns: f64,
}

impl CountersRow {
    /// Overhead of the counters in percent (positive = counters slower).
    pub fn overhead_pct(&self) -> f64 {
        if self.off_ns <= 0.0 {
            return 0.0;
        }
        (self.on_ns - self.off_ns) * 100.0 / self.off_ns
    }
}

/// `repro counters`: the cost of the always-on counters registry on the
/// fig7 `rio` row — same workload, same mapping, counters on
/// (default) vs off. A handful of relaxed single-writer increments per
/// task must stay in the measurement noise; `repro counters
/// --assert-overhead` gates CI on it (threshold `RIO_COUNTERS_THRESHOLD`
/// percent, default 1).
///
/// Also prints the per-worker counter table of the measured run, the
/// same snapshot `ExecReport::counters` exposes to every caller.
pub fn counters_overhead(opt: &Options, tasks_per_worker: usize) -> (String, Vec<CountersRow>) {
    let task_size = 1u64 << 8;
    let w = opt.threads.max(1);
    let n = independent::tasks_for_workers(tasks_per_worker, w);
    let graph = independent::graph_private_data(n);

    let run_with = |counters: bool| {
        let cfg = RioConfig::with_workers(w)
            .wait(WaitStrategy::Park)
            .counters(counters);
        let t0 = Instant::now();
        let run = rio_core::Executor::new(cfg)
            .mapping(&RoundRobin)
            .run(&graph, |_, _| counter_kernel(task_size));
        (t0.elapsed(), run.report.counters)
    };

    let mut on = Duration::MAX;
    let mut off = Duration::MAX;
    let mut snapshot = None;
    for _ in 0..opt.reps.max(1) {
        let (d_off, _) = run_with(false);
        off = off.min(d_off);
        let (d_on, counters) = run_with(true);
        if d_on < on {
            on = d_on;
            snapshot = Some(counters);
        }
    }
    let per_task = |d: Duration| d.as_nanos() as f64 / n.max(1) as f64;
    let row = CountersRow {
        workers: w,
        tasks: n,
        on_ns: per_task(on),
        off_ns: per_task(off),
    };
    for (runtime, ns) in [
        ("rio_counters_on", row.on_ns),
        ("rio_counters_off", row.off_ns),
    ] {
        json::record(json::Record {
            figure: "counters".into(),
            workload: format!("independent-private/tpw={tasks_per_worker}"),
            runtime: runtime.into(),
            threads: w,
            tasks: n,
            ns_per_task: ns,
        });
    }

    let mut table = Table::new([
        "workers",
        "tasks",
        "counters_on",
        "counters_off",
        "overhead",
    ]);
    table.row([
        row.workers.to_string(),
        row.tasks.to_string(),
        format!("{:.1}ns", row.on_ns),
        format!("{:.1}ns", row.off_ns),
        format!("{:+.2}%", row.overhead_pct()),
    ]);
    let mut out = opt.emit(
        &format!(
            "Counters overhead — {tasks_per_worker} independent tasks per worker, \
             task size {task_size}, one-shot runs"
        ),
        &table,
    );
    if let Some(s) = snapshot {
        let rendered = rio_telemetry::counters::table(&s).render();
        println!("{rendered}");
        out.push_str(&rendered);
    }
    (out, vec![row])
}

/// One row of the `repro faults` recovery-overhead ablation.
#[derive(Debug, Clone)]
pub struct FaultsRow {
    /// Worker count of the row.
    pub workers: usize,
    /// Total tasks.
    pub tasks: usize,
    /// ns/task with no `RecoveryPolicy` installed, on the per-task path.
    pub off_ns: f64,
    /// ns/task with a retrying `RecoveryPolicy` armed on a fault-free run.
    pub on_ns: f64,
    /// ns/task of the shipped default: no policy, every task mapped, the
    /// flow's quiet tasks compiled into ranges and run as blocks.
    pub blocks_ns: f64,
}

impl FaultsRow {
    /// Overhead of arming recovery in percent (positive = armed slower).
    pub fn overhead_pct(&self) -> f64 {
        if self.off_ns <= 0.0 {
            return 0.0;
        }
        (self.on_ns - self.off_ns) * 100.0 / self.off_ns
    }
}

/// `repro faults`: the cost of the graceful-degradation layer on the
/// fig7 `rio` row — same workload, recovery disabled vs a retrying
/// `RecoveryPolicy` armed on a fault-free run.
///
/// Arming recovery routes every task through the retrying body wrapper
/// (one `catch_unwind` it already paid, plus one poison-bitmap load per
/// access); the disabled row takes the abort-on-panic path. Both must
/// coincide within the noise: `repro faults --assert-overhead` gates CI
/// on it (threshold `RIO_RECOVERY_THRESHOLD` percent, default 1), and the
/// disabled row doubles as the recovery-disabled regression row `repro
/// regress` tracks against the committed baseline.
///
/// Like for like means both on the per-task path. A policy is one of the
/// things that keep quiet tasks out of ranges (independent tasks are all
/// quiet: a default run takes them 1024 to a containment frame), so the
/// two rows leave the flow's last task unmapped — a claim table exists,
/// one task is claimed, and every task goes through the per-task
/// sequence with or without a policy. The `blocks` column is the default
/// run, every task mapped: the difference to it is what *any* per-task
/// hook forgoes on a quiet task, not what the policy costs.
pub fn faults(opt: &Options, tasks_per_worker: usize) -> (String, Vec<FaultsRow>) {
    let task_size = 1u64 << 8;
    let w = opt.threads.max(1);
    let n = independent::tasks_for_workers(tasks_per_worker, w);
    let graph = independent::graph_private_data(n);
    let last = rio_stf::TaskId::from_index(n.saturating_sub(1));
    let but_last = rio_core::hybrid::PartialFn(move |t: rio_stf::TaskId, workers: usize| {
        (t != last).then(|| rio_stf::Mapping::worker_of(&RoundRobin, t, workers))
    });

    let run_with = |recovery: bool, per_task: bool| {
        let mut cfg = RioConfig::with_workers(w).wait(WaitStrategy::Park);
        if recovery {
            cfg = cfg.recovery(rio_core::RecoveryPolicy::default());
        }
        let exec = rio_core::Executor::new(cfg);
        let exec = if per_task {
            exec.hybrid(&but_last)
        } else {
            exec.mapping(&RoundRobin)
        };
        let t0 = Instant::now();
        let run = exec
            .try_run(&graph, |_, _| counter_kernel(task_size))
            .expect("fault-free ablation run failed");
        assert!(
            run.outcome.is_complete(),
            "fault-free run reported degradation"
        );
        t0.elapsed()
    };

    let mut on = Duration::MAX;
    let mut off = Duration::MAX;
    let mut blocks = Duration::MAX;
    for _ in 0..opt.reps.max(1) {
        off = off.min(run_with(false, true));
        on = on.min(run_with(true, true));
        blocks = blocks.min(run_with(false, false));
    }
    let per_task = |d: Duration| d.as_nanos() as f64 / n.max(1) as f64;
    let row = FaultsRow {
        workers: w,
        tasks: n,
        off_ns: per_task(off),
        on_ns: per_task(on),
        blocks_ns: per_task(blocks),
    };
    for (runtime, ns) in [
        ("rio_recovery_off", row.off_ns),
        ("rio_recovery_on", row.on_ns),
    ] {
        json::record(json::Record {
            figure: "faults".into(),
            workload: format!("independent-private/tpw={tasks_per_worker}"),
            runtime: runtime.into(),
            threads: w,
            tasks: n,
            ns_per_task: ns,
        });
    }

    let mut table = Table::new([
        "workers",
        "tasks",
        "recovery_off",
        "recovery_on",
        "overhead",
        "blocks",
    ]);
    table.row([
        row.workers.to_string(),
        row.tasks.to_string(),
        format!("{:.1} ns/task", row.off_ns),
        format!("{:.1} ns/task", row.on_ns),
        format!("{:+.2}%", row.overhead_pct()),
        format!("{:.1} ns/task", row.blocks_ns),
    ]);
    let out = opt.emit(
        &format!(
            "Recovery overhead — {tasks_per_worker} independent tasks per worker, \
             task size {task_size}, one-shot runs on the per-task path, zero faults \
             (blocks: the default run)"
        ),
        &table,
    );
    (out, vec![row])
}

// ---------------------------------------------------------------------
// NUMA placement — locality-weighted remap vs topology-blind mappings
// ---------------------------------------------------------------------

/// One `repro numa` row: a mapping of the Cholesky flow evaluated
/// against the run's worker→node table.
#[derive(Debug, Clone)]
pub struct NumaRow {
    /// Mapping under evaluation.
    pub mapping: String,
    /// Worker count.
    pub workers: usize,
    /// Node count of the (detected or mocked) topology.
    pub nodes: usize,
    /// Tasks in the flow.
    pub tasks: usize,
    /// Cross-worker dependency edges staying within one node.
    pub intra_node_edges: u64,
    /// Cross-worker dependency edges crossing a node boundary.
    pub cross_node_edges: u64,
    /// `intra + DEFAULT_CROSS_NODE_COST × cross` — the deterministic
    /// metric the CI gate compares.
    pub weighted_cost: u64,
    /// Wall time of one real run under the mapping (context, not gated).
    pub wall_ns: f64,
}

/// `repro numa`: what the locality-weighted remap buys on a NUMA
/// machine.
///
/// Three mappings of the same tiled-Cholesky flow — round-robin, the
/// doctor's topology-blind remap, and the locality-weighted remap that
/// penalizes cross-node dependency hops — are each scored with the
/// node-aware mapping quality: cross-worker edges split into intra- vs
/// cross-node, and the weighted cost
/// `intra + DEFAULT_CROSS_NODE_COST × cross`. The score is a pure
/// function of flow + mapping + node table (no clocks), so the
/// `--assert-no-regress` CI gate is deterministic; one real run per
/// mapping supplies wall-time context.
///
/// Runs against the detected topology when the host really is
/// multi-node; otherwise a mocked two-node split of the worker count, so
/// the figure stays meaningful on single-node hosts and in CI
/// (`RIO_TOPO_MOCK=NxC` overrides detection either way, see
/// `rio_doctor::topo::Topology`).
pub fn numa(opt: &Options, grid: usize, cost: u64) -> (String, Vec<NumaRow>) {
    use rio_workloads::cholesky;
    let w = opt.threads.max(2);
    let detected = rio_doctor::topo::Topology::detected().clone();
    let topo = if detected.num_nodes() > 1 {
        detected
    } else {
        std::sync::Arc::new(rio_doctor::topo::Topology::mock(2, w.div_ceil(2)))
    };
    let node_table = topo.node_assignment(w);
    let graph = cholesky::graph(grid, cost);

    // Hint-weighted diagnoses of the round-robin placement (trace-free —
    // the remaps depend only on flow + cost hints + node table).
    let counts = vec![0u64; w];
    let plain = rio_doctor::diagnose_counters(&graph, &RoundRobin, w, &counts);
    let weighted = rio_doctor::diagnose_counters_with_nodes(
        &graph,
        &RoundRobin,
        w,
        &counts,
        Some(&node_table),
    );

    let empty = rio_trace::Trace::default();
    let eval = |name: &str, mapping: &dyn rio_stf::Mapping| -> NumaRow {
        let q = rio_doctor::quality::mapping_quality_with_nodes(
            &graph,
            mapping,
            w,
            &empty,
            Some(&node_table),
            rio_doctor::DEFAULT_CROSS_NODE_COST,
        );
        let mut wall = Duration::MAX;
        for _ in 0..opt.reps.max(1) {
            let cfg = RioConfig::with_workers(w).wait(WaitStrategy::Park);
            let t0 = Instant::now();
            rio_core::Executor::new(cfg)
                .mapping(mapping)
                .run(&graph, |_, t| counter_kernel(t.cost));
            wall = wall.min(t0.elapsed());
        }
        NumaRow {
            mapping: name.to_string(),
            workers: w,
            nodes: topo.num_nodes(),
            tasks: graph.len(),
            intra_node_edges: q.intra_node_edges,
            cross_node_edges: q.cross_node_edges,
            weighted_cost: q.weighted_cost,
            wall_ns: wall.as_nanos() as f64,
        }
    };

    let rows = vec![
        eval("round-robin", &RoundRobin),
        eval("remap-unweighted", &plain.suggested_mapping()),
        eval("remap-weighted", &weighted.suggested_mapping()),
    ];

    for r in &rows {
        json::record(json::Record {
            figure: "numa".into(),
            workload: format!("cholesky/grid={grid}/nodes={}", r.nodes),
            runtime: r.mapping.clone(),
            threads: r.workers,
            tasks: r.tasks,
            // The deterministic locality metric, not a clock: regress
            // comparisons of this figure never flake on host noise.
            ns_per_task: r.weighted_cost as f64 / r.tasks.max(1) as f64,
        });
    }

    let mut table = Table::new([
        "mapping",
        "nodes",
        "intra-node",
        "cross-node",
        "weighted cost",
        "wall",
    ]);
    for r in &rows {
        table.row([
            r.mapping.clone(),
            r.nodes.to_string(),
            r.intra_node_edges.to_string(),
            r.cross_node_edges.to_string(),
            r.weighted_cost.to_string(),
            fmt_dur(Duration::from_nanos(r.wall_ns as u64)),
        ]);
    }
    let out = opt.emit(
        &format!(
            "NUMA placement — cholesky grid {grid} (cost {cost}), {w} workers on {} node(s)",
            topo.num_nodes()
        ),
        &table,
    );
    (out, rows)
}

// ---------------------------------------------------------------------
// Fig. 8 — efficiency decomposition per experiment
// ---------------------------------------------------------------------

/// Builds the graph + mapping of one of the four §5.1 experiments, sized
/// to roughly `tasks` tasks.
pub fn experiment_graph(
    exp: usize,
    tasks: usize,
    workers: usize,
) -> (TaskGraph, Box<dyn rio_stf::Mapping>, String) {
    match exp {
        1 => (
            independent::graph(tasks),
            Box::new(RoundRobin),
            format!("experiment 1: {tasks} independent tasks"),
        ),
        2 => (
            random_deps::graph(&random_deps::RandomDepsConfig::paper(tasks, 42)),
            Box::new(RoundRobin),
            format!("experiment 2: {tasks} tasks, 128 data, 2R+1W random"),
        ),
        3 => {
            let grid = matmul::grid_for_tasks(tasks);
            (
                matmul::graph(grid, 1),
                Box::new(matmul::mapping(grid, workers)),
                format!(
                    "experiment 3: matmul DAG, grid {grid} ({} tasks)",
                    grid * grid * grid
                ),
            )
        }
        4 => {
            let grid = lu::grid_for_tasks(tasks);
            (
                lu::graph(grid, 1),
                Box::new(lu::mapping(grid, workers)),
                format!(
                    "experiment 4: LU DAG, grid {grid} ({} tasks)",
                    lu::task_count(grid)
                ),
            )
        }
        _ => panic!("experiments are numbered 1..=4"),
    }
}

/// Fig. 8, one row: efficiency decomposition against task size for RIO
/// and the centralized runtime on experiment `exp`.
pub fn fig8(opt: &Options, exp: usize) -> String {
    let (graph, mapping, label) = experiment_graph(exp, opt.tasks, opt.threads);
    let mut table = Table::new(["task_size", "runtime", "wall", "e_l", "e_p", "e_r", "e"]);
    for size in opt.sizes() {
        let spec = opt.spec(size);
        let seq = measure_sequential(&spec, &graph);

        let rio = measure_rio(&spec, &graph, &mapping);
        let d = decompose(seq, seq, &rio);
        table.row([
            size.to_string(),
            "rio".into(),
            fmt_dur(rio.wall),
            format!("{:.3}", d.e_l),
            format!("{:.3}", d.e_p),
            format!("{:.3}", d.e_r),
            format!("{:.3}", d.parallel_efficiency()),
        ]);

        let cen = measure_centralized(&spec, &graph);
        let d = decompose(seq, seq, &cen);
        table.row([
            size.to_string(),
            "central".into(),
            fmt_dur(cen.wall),
            format!("{:.3}", d.e_l),
            format!("{:.3}", d.e_p),
            format!("{:.3}", d.e_r),
            format!("{:.3}", d.parallel_efficiency()),
        ]);
    }
    opt.emit(
        &format!(
            "Fig. 8 row {exp} — decomposition vs task size ({label}, {} threads)",
            opt.threads
        ),
        &table,
    )
}

// ---------------------------------------------------------------------
// Table 1 — model checking
// ---------------------------------------------------------------------

/// One Table 1 reference row:
/// `(size, stf_generated, stf_distinct, rio_generated, rio_distinct)`.
type TlcRow = (&'static str, u64, u64, Option<u64>, Option<u64>);

/// TLC's numbers from the paper's Table 1, for side-by-side printing.
/// The 3×3 Run-In-Order row timed out after 48h in the paper (`-`).
const TLC_REFERENCE: [TlcRow; 3] = [
    ("2x2", 445, 23, Some(2322), Some(11)),
    ("3x2", 54_481, 94, Some(1_847_877), Some(29)),
    ("3x3", 542_753_065, 655, None, None),
];

/// Table 1: state counts and times for checking the STF and Run-In-Order
/// models on the LU flows (2 workers), alongside the paper's TLC numbers.
pub fn table1(opt: &Options) -> String {
    let mut table = Table::new([
        "size",
        "model",
        "generated",
        "distinct",
        "time",
        "ok",
        "tlc_generated",
        "tlc_distinct",
    ]);
    for (idx, &(rows, cols)) in rio_mc::lu_model::TABLE1_SIZES.iter().enumerate() {
        let g = rio_mc::lu_model::graph(rows, cols);
        let (label, tlc_sg, tlc_sd, tlc_rg, tlc_rd) = TLC_REFERENCE[idx];

        let stf = rio_mc::explore_stf(&g, 2);
        table.row([
            label.to_string(),
            "STF".into(),
            stf.generated.to_string(),
            stf.distinct.to_string(),
            fmt_dur(stf.elapsed),
            stf.ok().to_string(),
            tlc_sg.to_string(),
            tlc_sd.to_string(),
        ]);

        let mapping = rio_mc::lu_model::mapping(rows, cols, 2);
        let rio = rio_mc::rio_spec::explore_rio_with(&g, 2, &mapping);
        let refinement = rio_mc::rio_spec::check_refinement(&g, 2, &mapping);
        table.row([
            label.to_string(),
            "Run-In-Order".into(),
            rio.generated.to_string(),
            rio.distinct.to_string(),
            fmt_dur(rio.elapsed),
            (rio.ok() && refinement.ok()).to_string(),
            tlc_rg.map_or("-".into(), |v| v.to_string()),
            tlc_rd.map_or("-".into(), |v| v.to_string()),
        ]);
    }
    opt.emit(
        "Table 1 — model checking the STF and Run-In-Order specs on LU flows (2 workers; refinement RIO⊆STF included in 'ok')",
        &table,
    )
}

/// Extension beyond Table 1: model checking the *implementation
/// algorithm* (per-access get/terminate micro-steps) on LU flows, at
/// sizes and worker counts TLC could not reach.
pub fn protocol_table(opt: &Options) -> String {
    let mut table = Table::new([
        "size",
        "workers",
        "model",
        "generated",
        "distinct",
        "time",
        "ok",
    ]);
    let sizes: &[(usize, usize)] = &[(2, 2), (3, 2), (3, 3), (4, 4)];
    for &(rows, cols) in sizes {
        let g = rio_mc::lu_model::graph(rows, cols);
        for workers in [2usize, 3] {
            let m = rio_mc::lu_model::mapping(rows, cols, workers);
            let abstract_r = rio_mc::rio_spec::explore_rio_with(&g, workers, &m);
            table.row([
                format!("{rows}x{cols}"),
                workers.to_string(),
                "abstract (task-atomic)".into(),
                abstract_r.generated.to_string(),
                abstract_r.distinct.to_string(),
                fmt_dur(abstract_r.elapsed),
                abstract_r.ok().to_string(),
            ]);
            let proto = rio_mc::protocol_spec::explore_protocol_with(&g, workers, &m);
            table.row([
                format!("{rows}x{cols}"),
                workers.to_string(),
                "protocol (micro-step)".into(),
                proto.generated.to_string(),
                proto.distinct.to_string(),
                fmt_dur(proto.elapsed),
                proto.ok().to_string(),
            ]);
            // What a CompiledFlow runs: own tasks only, and none of the
            // guards and publications the compiler elided for this mapping.
            let compiled = rio_mc::explore_compiled_protocol_with(&g, workers, &m);
            table.row([
                format!("{rows}x{cols}"),
                workers.to_string(),
                "compiled (elided micro-steps)".into(),
                compiled.generated.to_string(),
                compiled.distinct.to_string(),
                fmt_dur(compiled.elapsed),
                compiled.ok().to_string(),
            ]);
        }
    }
    // Past exhaustive reach: random walks of the compiled protocol.
    let (grid, workers) = (12, 4);
    let g = rio_mc::lu_model::graph(grid, grid);
    let m = rio_mc::lu_model::mapping(grid, grid, workers);
    let n_walks = if opt.quick { 5 } else { 20 };
    let start = std::time::Instant::now();
    let walks = rio_mc::random_walks(
        &rio_mc::ProtocolSpec::compiled(&g, workers, &m),
        n_walks,
        5_000_000,
        2026,
    );
    table.row([
        format!("{grid}x{grid}"),
        workers.to_string(),
        format!("compiled, {}/{n_walks} random walks", walks.completed),
        walks.steps.to_string(),
        "-".into(),
        fmt_dur(start.elapsed()),
        walks.ok().to_string(),
    ]);
    opt.emit(
        "Extension — model checking Algorithm 1/2 micro-steps (hold races, body-start consistency, termination)",
        &table,
    )
}

/// Extension: Task-Bench-style dependence-pattern sweep (the survey the
/// paper's motivation builds on). Fixed task size, one row per pattern
/// and runtime.
pub fn patterns(opt: &Options) -> String {
    use rio_workloads::taskbench::{self, Pattern};
    let width = 32;
    let steps = (opt.tasks / width).max(4);
    let task_size = 1u64 << 10;
    let mut table = Table::new(["pattern", "tasks", "runtime", "wall", "e_p", "e_r"]);
    for pat in Pattern::ALL {
        let graph = taskbench::graph(pat, width, steps, task_size, 42);
        let mapping = taskbench::mapping(width, steps, opt.threads);
        let spec = opt.spec(task_size);
        let seq = measure_sequential(&spec, &graph);

        let rio = if pat == Pattern::Trivial {
            measure_rio(&spec, &graph, &RoundRobin)
        } else {
            measure_rio(&spec, &graph, &mapping)
        };
        let d = decompose(seq, seq, &rio);
        table.row([
            pat.label().to_string(),
            graph.len().to_string(),
            "rio".into(),
            fmt_dur(rio.wall),
            format!("{:.3}", d.e_p),
            format!("{:.3}", d.e_r),
        ]);

        let cen = measure_centralized(&spec, &graph);
        let d = decompose(seq, seq, &cen);
        table.row([
            pat.label().to_string(),
            graph.len().to_string(),
            "central".into(),
            fmt_dur(cen.wall),
            format!("{:.3}", d.e_p),
            format!("{:.3}", d.e_r),
        ]);
    }
    opt.emit(
        &format!(
            "Extension — Task-Bench dependence patterns ({width} points, {steps} steps, task size {task_size}, {} threads)",
            opt.threads
        ),
        &table,
    )
}

/// Extension: Monte-Carlo protocol checking at scale — random walks over
/// the Algorithm-1/2 micro-step model on flows far beyond exhaustive
/// reach (TLC simulation-mode analogue).
pub fn walks(opt: &Options) -> String {
    use rio_workloads::random_deps::{self, RandomDepsConfig};
    let mut table = Table::new(["model", "tasks", "workers", "walks", "steps", "ok"]);
    let cases: Vec<(String, rio_stf::TaskGraph, usize)> = vec![
        ("LU 8x8".into(), rio_mc::lu_model::graph(8, 8), 3),
        ("LU 12x12".into(), rio_mc::lu_model::graph(12, 12), 4),
        (
            "random 2R+1W".into(),
            random_deps::graph(&RandomDepsConfig {
                tasks: 2000,
                num_data: 64,
                reads_per_task: 2,
                writes_per_task: 1,
                seed: 42,
            }),
            3,
        ),
    ];
    for (label, graph, workers) in cases {
        let spec = rio_mc::ProtocolSpec::new(&graph, workers, &rio_stf::RoundRobin);
        let n_walks = if opt.quick { 5 } else { 20 };
        let r = rio_mc::random_walks(&spec, n_walks, 5_000_000, 2026);
        table.row([
            label,
            graph.len().to_string(),
            workers.to_string(),
            format!("{}/{} completed", r.completed, n_walks),
            r.steps.to_string(),
            r.ok().to_string(),
        ]);
    }
    opt.emit(
        "Extension — randomized-walk checking of the implementation protocol at scale",
        &table,
    )
}

/// Extension: mapping-quality table on the LU DAG — the paper's "under
/// the condition of a proper task mapping" quantified.
pub fn mapping_quality(opt: &Options) -> String {
    let grid = lu::grid_for_tasks(opt.tasks);
    let graph = lu::graph(grid, 1);
    let task_size = 1u64 << 12;
    let spec = opt.spec(task_size);
    let seq = measure_sequential(&spec, &graph);

    let mut table = Table::new(["mapping", "wall", "e_p", "e_r", "e"]);
    let mut row = |name: &str, times: CumulativeTimes| {
        let d = decompose(seq, seq, &times);
        table.row([
            name.to_string(),
            fmt_dur(times.wall),
            format!("{:.3}", d.e_p),
            format!("{:.3}", d.e_r),
            format!("{:.3}", d.parallel_efficiency()),
        ]);
    };
    row(
        "block-cyclic-owner",
        measure_rio(&spec, &graph, &lu::mapping(grid, opt.threads)),
    );
    row("round-robin", measure_rio(&spec, &graph, &RoundRobin));
    let degenerate = rio_stf::TableMapping::new(vec![rio_stf::WorkerId(0); graph.len()]);
    row("all-on-one-worker", measure_rio(&spec, &graph, &degenerate));
    opt.emit(
        &format!(
            "Extension — mapping quality on the LU DAG (grid {grid}, task size {task_size}, {} workers)",
            opt.threads
        ),
        &table,
    )
}

// ---------------------------------------------------------------------
// Cost models (§3.3, eqs. 1–2)
// ---------------------------------------------------------------------

/// Fits per-task runtime costs in the management-bound regime and checks
/// the two analytic models against measured wall times.
pub fn costmodel(opt: &Options) -> String {
    let n = opt.tasks.max(1024);
    let graph = independent::graph(n);

    // Management-bound fits (task size 0).
    let spec0 = opt.spec(0);
    let rio0 = measure_rio(&spec0, &graph, &RoundRobin);
    let cen0 = measure_centralized(&spec0, &graph);
    let t_r_rio = fit_runtime_cost(rio0.wall, n as u64);
    let t_r_cen = fit_runtime_cost(cen0.wall, n as u64);

    // Kernel calibration: seconds per counter iteration.
    let calib_iters = 1u64 << 22;
    let t0 = Instant::now();
    counter_kernel(calib_iters);
    let per_iter = t0.elapsed().as_secs_f64() / calib_iters as f64;

    let workers = opt.threads as u64;
    let mut table = Table::new([
        "task_size",
        "rio_meas",
        "rio_pred",
        "central_meas",
        "central_pred",
    ]);
    for size in opt.sizes() {
        let t_t = Duration::from_secs_f64(per_iter * size as f64);
        let spec = opt.spec(size);
        let rio = measure_rio(&spec, &graph, &RoundRobin);
        let cen = measure_centralized(&spec, &graph);
        let rio_pred = decentralized_time(n as u64, t_r_rio, t_t, workers);
        let cen_pred = centralized_time(n as u64, t_r_cen, t_t, (workers - 1).max(1));
        table.row([
            size.to_string(),
            fmt_dur(rio.wall),
            fmt_dur(rio_pred),
            fmt_dur(cen.wall),
            fmt_dur(cen_pred),
        ]);
    }
    opt.emit(
        &format!(
            "Cost models (eqs. 1–2) — n={n}, fitted t_r: rio={}, central={}",
            fmt_dur(t_r_rio),
            fmt_dur(t_r_cen)
        ),
        &table,
    )
}

// ---------------------------------------------------------------------
// Telemetry overhead — armed-but-idle live telemetry vs all-off
// ---------------------------------------------------------------------

/// One row of the `repro telemetry` overhead measurement.
#[derive(Debug, Clone)]
pub struct TelemetryRow {
    /// Worker count of the row.
    pub workers: usize,
    /// Total tasks.
    pub tasks: usize,
    /// ns/task with live telemetry armed: flight recorder on, an external
    /// counter registry, the run registered in a `RunRegistry` behind a
    /// bound (idle) scrape listener.
    pub armed_ns: f64,
    /// ns/task with telemetry off: counters and flight recorder disabled,
    /// nothing registered.
    pub off_ns: f64,
}

impl TelemetryRow {
    /// Overhead of arming telemetry in percent (positive = armed slower).
    pub fn overhead_pct(&self) -> f64 {
        if self.off_ns <= 0.0 {
            return 0.0;
        }
        (self.armed_ns - self.off_ns) * 100.0 / self.off_ns
    }
}

/// What `repro telemetry` produced beyond its table.
#[derive(Debug, Clone)]
pub struct TelemetryOutcome {
    /// The measured overhead rows (one per configuration).
    pub rows: Vec<TelemetryRow>,
    /// With `check = true`: the last mid-run scrape body, already
    /// validated — the binary writes it to `TELEMETRY_scrape.txt` as the
    /// CI artifact.
    pub scrape: Option<String>,
}

/// `repro telemetry`: the cost of the full live-telemetry stack, armed
/// but idle, on the fig7 `rio` row — flight recorder + external
/// counter registry + run registry + bound scrape listener, vs
/// everything off. Nobody scrapes during the timed reps (that is the
/// steady state: a Prometheus server polls every few seconds, not every
/// task), so the gate prices exactly what arming costs every run.
/// `repro telemetry --assert-overhead` gates CI on
/// `RIO_TELEMETRY_THRESHOLD` percent (default 2).
///
/// With `check = true` a second, untimed run is scraped *while it
/// executes*: each scrape must parse as a valid `0.0.4` exposition and
/// the summed `rio_tasks_total` across scrapes must be monotone — the
/// end-to-end proof that mid-run sampling of single-writer counters
/// works through the HTTP layer (DESIGN.md §16).
pub fn telemetry(
    opt: &Options,
    tasks_per_worker: usize,
    check: bool,
) -> (String, TelemetryOutcome) {
    use rio_telemetry::registry::RunRegistry;
    use rio_telemetry::server::{scrape, ScrapeServer};
    use rio_telemetry::{parse_exposition, validate_exposition};
    use std::sync::Arc;

    let task_size = 1u64 << 8;
    let w = opt.threads.max(1);
    let n = independent::tasks_for_workers(tasks_per_worker, w);
    let graph = independent::graph_private_data(n);

    let run_off = || {
        let cfg = RioConfig::with_workers(w)
            .wait(WaitStrategy::Park)
            .counters(false)
            .flight(false);
        let t0 = Instant::now();
        rio_core::Executor::new(cfg)
            .mapping(&RoundRobin)
            .run(&graph, |_, _| counter_kernel(task_size));
        t0.elapsed()
    };

    // The armed environment outlives the reps: registry, listener and
    // registration are per-process costs, the per-run cost is the flight
    // ring + shared counters the config carries.
    let runs = Arc::new(RunRegistry::new());
    let server = ScrapeServer::serve(Arc::clone(&runs)).expect("bind loopback listener");
    let counters = Arc::new(rio_core::CounterRegistry::new(w));
    let _guard = runs.register(
        &format!("independent-private/tpw={tasks_per_worker}"),
        Arc::clone(&counters),
    );
    let run_armed = || {
        let cfg = RioConfig::with_workers(w)
            .wait(WaitStrategy::Park)
            .counter_registry(Arc::clone(&counters))
            .flight(true);
        let t0 = Instant::now();
        rio_core::Executor::new(cfg)
            .mapping(&RoundRobin)
            .run(&graph, |_, _| counter_kernel(task_size));
        t0.elapsed()
    };

    let mut armed = Duration::MAX;
    let mut off = Duration::MAX;
    for _ in 0..opt.reps.max(1) {
        off = off.min(run_off());
        armed = armed.min(run_armed());
    }
    let per_task = |d: Duration| d.as_nanos() as f64 / n.max(1) as f64;
    let row = TelemetryRow {
        workers: w,
        tasks: n,
        armed_ns: per_task(armed),
        off_ns: per_task(off),
    };
    for (runtime, ns) in [
        ("rio_telemetry_armed", row.armed_ns),
        ("rio_telemetry_off", row.off_ns),
    ] {
        json::record(json::Record {
            figure: "telemetry".into(),
            workload: format!("independent-private/tpw={tasks_per_worker}"),
            runtime: runtime.into(),
            threads: w,
            tasks: n,
            ns_per_task: ns,
        });
    }

    // The --check pass: scrape the live endpoint while a run executes.
    let scrape_body = check.then(|| {
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done_flag = Arc::clone(&done);
        let cfg = RioConfig::with_workers(w)
            .wait(WaitStrategy::Park)
            .counter_registry(Arc::clone(&counters))
            .flight(true);
        let graph = independent::graph_private_data(n);
        let runner = std::thread::spawn(move || {
            rio_core::Executor::new(cfg)
                .mapping(&RoundRobin)
                .run(&graph, |_, _| counter_kernel(task_size));
            done_flag.store(true, std::sync::atomic::Ordering::Release);
        });
        let mut last = -1.0f64;
        let mut scrapes = 0u32;
        let body = loop {
            let finished = done.load(std::sync::atomic::Ordering::Acquire);
            let body = scrape(server.addr()).expect("mid-run scrape");
            validate_exposition(&body).expect("mid-run exposition is valid");
            let tasks: f64 = parse_exposition(&body)
                .expect("mid-run exposition parses")
                .iter()
                .filter(|s| s.name == "rio_tasks_total")
                .map(|s| s.value)
                .sum();
            assert!(
                tasks >= last,
                "scraped counters regressed under load: {tasks} < {last}"
            );
            last = tasks;
            scrapes += 1;
            // At least two scrapes even when the run outpaces the first
            // one, so monotonicity is always exercised.
            if finished && scrapes >= 2 {
                break body;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        runner.join().expect("checked run");
        eprintln!("telemetry --check: {scrapes} live scrapes, all valid and monotone");
        body
    });

    let mut table = Table::new([
        "workers",
        "tasks",
        "telemetry_armed",
        "telemetry_off",
        "overhead",
    ]);
    table.row([
        row.workers.to_string(),
        row.tasks.to_string(),
        format!("{:.1}ns", row.armed_ns),
        format!("{:.1}ns", row.off_ns),
        format!("{:+.2}%", row.overhead_pct()),
    ]);
    let out = opt.emit(
        &format!(
            "Telemetry overhead — {tasks_per_worker} independent tasks per worker, \
             task size {task_size}, armed-but-idle live telemetry vs all-off"
        ),
        &table,
    );
    (
        out,
        TelemetryOutcome {
            rows: vec![row],
            scrape: scrape_body,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opt() -> Options {
        Options {
            threads: 2,
            tasks: 128,
            reps: 1,
            csv: true,
            quick: true,
        }
    }

    #[test]
    fn experiment_graphs_build_for_all_four() {
        for exp in 1..=4 {
            let (g, m, label) = experiment_graph(exp, 100, 2);
            assert!(g.len() >= 100 || exp == 1, "{label}");
            assert!(!g.is_empty());
            // Mapping valid over the whole flow.
            for t in g.tasks() {
                assert!(m.worker_of(t.id, 2).index() < 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "numbered 1..=4")]
    fn experiment_zero_rejected() {
        experiment_graph(0, 10, 2);
    }

    #[test]
    fn table1_reports_all_sizes() {
        let out = table1(&quick_opt());
        assert!(out.contains("2x2"));
        assert!(out.contains("3x3"));
        assert!(out.contains("Run-In-Order"));
        // Every 'ok' column entry is true.
        assert!(!out.contains("false"));
    }

    #[test]
    fn fig6_produces_one_row_per_size() {
        let opt = quick_opt();
        let out = fig6(&opt);
        // Header + 3 quick sizes.
        assert_eq!(out.lines().filter(|l| l.contains(',')).count(), 1 + 3);
    }

    #[test]
    fn compiled_ablation_reports_all_three_paths() {
        let opt = quick_opt();
        let (out, rows) = compiled(&opt, 64, &[2]);
        assert!(out.contains("oneshot"));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].workers, 2);
        assert_eq!(rows[0].tasks, 128);
        assert!(rows[0].oneshot_ns > 0.0);
        assert!(rows[0].compiled_ns > 0.0);
    }

    #[test]
    fn telemetry_figure_measures_and_checks() {
        let opt = quick_opt();
        let (out, outcome) = telemetry(&opt, 64, true);
        assert!(out.contains("telemetry_armed"));
        assert_eq!(outcome.rows.len(), 1);
        assert_eq!(outcome.rows[0].workers, 2);
        assert_eq!(outcome.rows[0].tasks, 128);
        assert!(outcome.rows[0].armed_ns > 0.0);
        assert!(outcome.rows[0].off_ns > 0.0);
        let scrape = outcome.scrape.expect("check=true keeps the last scrape");
        assert!(scrape.contains("rio_tasks_total"));
        assert!(scrape.contains("workload=\"independent-private/tpw=64\""));
    }

    #[test]
    fn fig8_covers_both_runtimes() {
        let opt = quick_opt();
        let out = fig8(&opt, 1);
        assert!(out.contains("rio"));
        assert!(out.contains("central"));
    }

    #[test]
    fn gemm_sweep_respects_divisibility() {
        for t in gemm_tile_sweep(384, false) {
            assert_eq!(384 % t, 0);
        }
        assert!(!gemm_tile_sweep(48, true).is_empty());
    }
}
