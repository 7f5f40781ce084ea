//! Side-by-side efficiency decomposition of the two execution models on
//! one workload (the paper's §5 methodology in miniature).
//!
//! Run with: `cargo run --release --example compare_runtimes [exp] [tasks] [task_size]`
//!
//! `exp` is the paper experiment number (1 = independent, 2 = random
//! dependencies, 3 = matmul DAG, 4 = LU DAG).

use rio::metrics::{decompose, CumulativeTimes, Table};
use rio::workloads::counter::counter_kernel;

fn main() {
    let mut args = std::env::args().skip(1);
    let exp: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let tasks: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1024);
    let task_size: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(4096);
    let threads = 4;

    let (graph, mapping, label) = rio_bench_experiment(exp, tasks, threads);
    println!("workload: {label}, task size {task_size}, {threads} threads\n");

    // Sequential reference t(g).
    let t0 = std::time::Instant::now();
    rio::stf::sequential::run_graph(&graph, |_| counter_kernel(task_size));
    let seq = t0.elapsed();

    let mut table = Table::new(["runtime", "wall", "e_l", "e_p", "e_r", "e"]);

    // RIO — with the event tracer on; its quadruple feeds `decompose`
    // directly (the report-based times remain available as a fallback).
    // Both runtimes leave task/idle timing off unless asked.
    let cfg = rio::core::RioConfig::with_workers(threads).measure_time(true);
    let run = rio::core::Executor::new(cfg)
        .mapping(mapping.as_ref())
        .trace(rio::core::TraceConfig::new())
        .run(&graph, |_, _| counter_kernel(task_size));
    let report = &run.report;
    let rio_times = run
        .trace
        .as_ref()
        .map(|t| t.quadruple())
        .unwrap_or(CumulativeTimes {
            threads,
            wall: report.wall,
            task: report.cumulative_task_time(),
            idle: report.cumulative_idle_time(),
        });
    let d = decompose(seq, seq, &rio_times);
    table.row([
        "rio (decentralized in-order)".to_string(),
        format!("{:?}", rio_times.wall),
        format!("{:.3}", d.e_l),
        format!("{:.3}", d.e_p),
        format!("{:.3}", d.e_r),
        format!("{:.3}", d.parallel_efficiency()),
    ]);

    // Centralized.
    let cfg = rio::centralized::CentralConfig::with_threads(threads).measure_time(true);
    let report = rio::centralized::execute_graph(&cfg, &graph, |_, _| counter_kernel(task_size));
    let cen_times = CumulativeTimes {
        threads: report.num_threads(),
        wall: report.wall,
        task: report.cumulative_task_time(),
        idle: report.cumulative_idle_time(),
    };
    let d = decompose(seq, seq, &cen_times);
    table.row([
        "centralized out-of-order".to_string(),
        format!("{:?}", cen_times.wall),
        format!("{:.3}", d.e_l),
        format!("{:.3}", d.e_p),
        format!("{:.3}", d.e_r),
        format!("{:.3}", d.parallel_efficiency()),
    ]);

    println!("sequential t(g) = {seq:?}\n{table}");
    println!("(e_g = 1 by construction for the synthetic counter kernel; on this");
    println!(" machine core counts may make absolute efficiencies small — the");
    println!(" comparison between the two rows is the point.)");
}

/// Builds one of the four §5.1 experiment workloads.
fn rio_bench_experiment(
    exp: usize,
    tasks: usize,
    workers: usize,
) -> (rio::stf::TaskGraph, Box<dyn rio::stf::Mapping>, String) {
    use rio::workloads::{independent, lu, matmul, random_deps};
    match exp {
        1 => (
            independent::graph(tasks),
            Box::new(rio::stf::RoundRobin),
            format!("experiment 1: {tasks} independent tasks"),
        ),
        2 => (
            random_deps::graph(&random_deps::RandomDepsConfig::paper(tasks, 42)),
            Box::new(rio::stf::RoundRobin),
            format!("experiment 2: {tasks} tasks with random dependencies"),
        ),
        3 => {
            let grid = matmul::grid_for_tasks(tasks);
            (
                matmul::graph(grid, 1),
                Box::new(matmul::mapping(grid, workers)),
                format!("experiment 3: matmul DAG grid {grid}"),
            )
        }
        4 => {
            let grid = lu::grid_for_tasks(tasks);
            (
                lu::graph(grid, 1),
                Box::new(lu::mapping(grid, workers)),
                format!("experiment 4: LU DAG grid {grid}"),
            )
        }
        _ => panic!("exp must be 1..=4"),
    }
}
