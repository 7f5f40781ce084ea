//! Heap allocations per steady run: how many blocks one run of a kept
//! `CompiledFlow` requests, across every thread, under the default
//! configuration at 2 workers, on the benchmark's three fine flows. The
//! counts are exact; a change that moves one must say so here. The aim is
//! none: a run's tables, counters and flight rings would then live in the
//! flow and be reset between runs.
//!
//! The binary holds this one test, so no other test allocates while it
//! counts.

use std::sync::atomic::Ordering;

use rio::core::{Executor, RioConfig};
use rio::stf::{Mapping, RoundRobin, TaskGraph};
use rio::workloads::random_deps::RandomDepsConfig;
use rio::workloads::{cholesky, independent, random_deps};

mod counting;
use counting::BLOCKS;

/// Blocks requested by one run of `g` compiled for 2 workers, after a first
/// run has started the executor's worker set.
fn blocks_per_run(g: &TaskGraph, m: &dyn Mapping) -> usize {
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(m)
        .compile(g);
    drop(flow.run(|_, _| {}));
    let before = BLOCKS.load(Ordering::Relaxed);
    let run = flow.run(|_, _| {});
    let blocks = BLOCKS.load(Ordering::Relaxed) - before;
    assert_eq!(run.report.tasks_executed(), g.len() as u64);
    blocks
}

#[test]
fn a_steady_run_allocates_a_fixed_number_of_blocks() {
    let indep = independent::graph_private_data(65536);
    let chol = cholesky::graph(24, 1);
    let rand = random_deps::graph(&RandomDepsConfig::paper(16384, 1));
    let got = [
        blocks_per_run(&indep, &RoundRobin),
        blocks_per_run(&chol, &cholesky::mapping(24, 2)),
        blocks_per_run(&rand, &RoundRobin),
    ];
    assert_eq!(got, [11, 12, 12], "indep-fine, cholesky-24, randdeps-fine");
}
