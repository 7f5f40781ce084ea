//! Quickstart: a sequential task-based program on the RIO runtime.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The program below is written as an ordinary *sequential* loop of tasks
//! (the STF model); dependencies are inferred from the declared accesses.
//! RIO executes it with decentralized in-order workers: every worker
//! replays the flow, each task's body runs only on the worker the mapping
//! assigns, and the per-data protocol enforces sequential consistency.

use rio::core::{Rio, RioConfig};
use rio::stf::{Access, DataId, DataStore, RoundRobin};

fn main() {
    // Three runtime-managed data objects: two inputs and an accumulator.
    let store = DataStore::from_vec(vec![0i64, 0, 0]);
    let (a, b, acc) = (DataId(0), DataId(1), DataId(2));

    // Timing is opt-in: the per-worker task/idle/runtime split printed
    // below costs two clock reads per task body and per blocked wait.
    let rio = Rio::new(RioConfig::with_workers(4).measure_time(true));
    let report = rio.run(&store, &RoundRobin, |ctx| {
        for i in 1..=100i64 {
            // Producer tasks: overwrite A and B.
            ctx.task(&[Access::write(a)], move |v| *v.write(a) = i);
            ctx.task(&[Access::write(b)], move |v| *v.write(b) = 2 * i);
            // Consumer task: reads both, updates the accumulator. The
            // runtime guarantees it sees exactly this iteration's writes.
            ctx.task(
                &[Access::read(a), Access::read(b), Access::read_write(acc)],
                |v| {
                    let sum = *v.read(a) + *v.read(b);
                    *v.write(acc) += sum;
                },
            );
        }
    });

    let values = store.into_vec();
    // acc = sum of 3i for i in 1..=100 = 3 * 5050.
    assert_eq!(values[2], 3 * 5050);
    println!("accumulator = {} (expected {})", values[2], 3 * 5050);
    println!(
        "executed {} tasks on {} workers in {:?}",
        report.tasks_executed(),
        report.num_workers(),
        report.wall
    );
    for w in &report.workers {
        println!(
            "  {:>3}: {} tasks, task {:?}, idle {:?}, runtime {:?}",
            format!("{}", w.worker),
            w.tasks_executed,
            w.task_time,
            w.idle_time,
            w.runtime_time()
        );
    }
}
