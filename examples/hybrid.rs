//! Hybrid partial-mapping execution (the paper's §6 future-work
//! direction): pin the structured part of a flow, let the irregular part
//! be claimed dynamically.
//!
//! Run with: `cargo run --release --example hybrid`
//!
//! The workload alternates a *regular* phase (per-worker private chains,
//! perfectly mappable) with an *irregular* phase (tasks of wildly varying
//! cost, where any static mapping leaves workers idle). The partial
//! mapping pins the regular tasks owner-computes and leaves the irregular
//! ones unmapped: those are compiled into every worker's program, and
//! whichever worker reaches one first claims it with one CAS. The flow is
//! compiled once per mapping and run twice — a partial mapping is a kind
//! of mapping, not a separate runtime.

use std::time::Instant;

use rio::core::hybrid::{PartialFn, Total, Unmapped};
use rio::core::{Executor, RioConfig};
use rio::stf::{Access, DataId, DataStore, RoundRobin, TaskDesc, TaskGraph, TaskId, WorkerId};
use rio::workloads::counter::counter_kernel;

const WORKERS: usize = 4;
const ROUNDS: usize = 24;
const REGULAR_PER_ROUND: usize = 8; // one chain step per private counter
const IRREGULAR_PER_ROUND: usize = 8;

/// Builds the mixed flow; returns the graph and which tasks are regular.
fn build() -> (TaskGraph, Vec<bool>) {
    let mut b = TaskGraph::builder(REGULAR_PER_ROUND);
    let mut regular = Vec::new();
    for _ in 0..ROUNDS {
        for c in 0..REGULAR_PER_ROUND {
            b.task(&[Access::read_write(DataId::from_index(c))], 256, "regular");
            regular.push(true);
        }
        for i in 0..IRREGULAR_PER_ROUND {
            // Irregular: every 8th task is 64x heavier.
            let cost = if i % 8 == 0 { 32_768 } else { 512 };
            b.task(&[], cost, "irregular");
            regular.push(false);
        }
    }
    (b.build(), regular)
}

fn run(
    label: &str,
    graph: &TaskGraph,
    body: impl Fn(WorkerId, &TaskDesc) + Sync,
    pmap_kind: u8,
    regular: &[bool],
) {
    let exec = |partial: &dyn rio::core::PartialMapping| {
        let flow = Executor::new(RioConfig::with_workers(WORKERS))
            .hybrid(partial)
            .compile(graph);
        flow.run(&body); // warm-up; claims start afresh on every run
        let t0 = Instant::now();
        (flow.run(&body), t0.elapsed())
    };
    let (run, elapsed) = match pmap_kind {
        0 => exec(&Total(RoundRobin)),
        1 => exec(&Unmapped),
        _ => {
            let regular = regular.to_vec();
            let pmap = PartialFn(move |t: TaskId, _w: usize| {
                if regular[t.index()] {
                    // Owner-computes on the private counter.
                    Some(WorkerId::from_index(
                        t.index() % REGULAR_PER_ROUND % WORKERS,
                    ))
                } else {
                    None // irregular: claimed dynamically
                }
            });
            exec(&pmap)
        }
    };
    let (report, stats) = (run.report, run.hybrid.expect("hybrid stats"));
    println!(
        "{label:<28} {elapsed:>10?}  claims per worker {:?}",
        stats.claimed_per_worker
    );
    assert_eq!(report.tasks_executed() as usize, graph.len());
}

fn main() {
    let (graph, regular) = build();
    println!(
        "mixed flow: {} tasks ({} regular chain steps, {} irregular)\n",
        graph.len(),
        regular.iter().filter(|r| **r).count(),
        regular.iter().filter(|r| !**r).count()
    );

    let store = DataStore::filled(REGULAR_PER_ROUND, 0u64);
    let body = |_: WorkerId, t: &TaskDesc| {
        if t.kind == "regular" {
            *store.write(t.accesses[0].data) += 1;
        }
        counter_kernel(t.cost);
    };

    run("static round-robin", &graph, body, 0, &regular);
    run("fully dynamic (claiming)", &graph, body, 1, &regular);
    run("hybrid (pin regular only)", &graph, body, 2, &regular);

    let totals = store.into_vec();
    assert!(totals.iter().all(|&v| v == 6 * ROUNDS as u64));
    println!("\nall three mappings executed every task exactly once per run (chains verified)");
}
