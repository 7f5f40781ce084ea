//! Flow compilation: compile once, run repeatedly.
//!
//! Run with: `cargo run --release --example compiled_flow`
//!
//! `Executor::run` is `Executor::compile` + `CompiledFlow::run`: the
//! `(graph, mapping, workers)` triple is lowered, in one pass over the
//! flow — split among the executor's workers when the flow is long
//! enough, on the calling thread otherwise — into one flat program per
//! worker that
//! holds that worker's own tasks and nothing else — the epoch word every
//! access waits for is precomputed, so foreign tasks leave no instruction
//! behind and a run keeps no private state. A solver that replays the
//! same task flow every iteration (time stepping, iterative refinement,
//! …) keeps the `CompiledFlow` and pays for that pass — two mapping
//! probes (evaluation and validation in one) and one declare per access,
//! for every task — once instead of per run. The same pass knows who waits
//! for whom: a guard that only waits for its own worker's earlier tasks, and
//! a publication nobody on another worker compares against, are not
//! performed at all, and objects nobody can wait on get no shared word.

use std::time::Instant;

use rio::core::{Executor, RioConfig, WaitStrategy};
use rio::stf::{Access, DataId, DataStore, TableMapping, TaskGraph, WorkerId};

const NUM_DATA: u32 = 16;
const CHAIN: u32 = 32; // updates per datum per sweep
const SWEEPS: u32 = 8;

fn main() {
    // Sweeps of per-datum update chains plus one reduction per sweep —
    // the shape of a time-stepping solver. Owner-computes mapping: the
    // chain on datum d runs on worker d % workers, so between two of a
    // worker's own chains the flow registers long runs of *foreign*
    // updates — which the compile pass replays once, and no worker ever
    // sees.
    let workers = 16;
    let acc = DataId(NUM_DATA);
    let mut b = TaskGraph::builder(NUM_DATA as usize + 1);
    for _ in 0..SWEEPS {
        for d in 0..NUM_DATA {
            for _ in 0..CHAIN {
                b.task(&[Access::read_write(DataId(d))], 1, "update");
            }
        }
        let mut accesses: Vec<Access> = (0..NUM_DATA).map(|d| Access::read(DataId(d))).collect();
        accesses.push(Access::read_write(acc));
        b.task(&accesses, 4, "reduce");
    }
    let graph = b.build();
    let mapping = TableMapping::from_fn(graph.len(), |i| {
        let t = graph.task(rio::stf::TaskId::from_index(i));
        match t.kind {
            "update" => WorkerId(t.accesses[0].data.0 % workers as u32),
            _ => WorkerId(0),
        }
    });

    let cfg = RioConfig::with_workers(workers).wait(WaitStrategy::Park);
    let store = DataStore::filled(NUM_DATA as usize + 1, 0u64);
    let kernel = |_: WorkerId, t: &rio::stf::TaskDesc| match t.kind {
        "update" => *store.write(t.accesses[0].data) += 1,
        _ => {
            let total: u64 = (0..NUM_DATA).map(|d| *store.read(DataId(d))).sum();
            *store.write(acc) += total;
        }
    };

    // Compile once: mapping evaluated and validated, every expected
    // epoch word precomputed — all before the first run.
    let flow = Executor::new(cfg.clone()).mapping(&mapping).compile(&graph);
    let stats = flow.stats();
    println!(
        "flow: {} tasks -> {} in the programs of {} workers",
        stats.flow_len,
        stats.instructions(),
        flow.config().workers,
    );
    println!("  own tasks per worker: {:?}", stats.runs_per_worker);
    println!(
        "  {} foreign declares compiled away (what unrolling the flow on every worker would pay)",
        stats.irrelevant_declares,
    );
    // An update chain lives on one worker: only its ends — the reduce
    // before it, the reduce after it — synchronise with anyone.
    let accesses = graph.total_accesses() as u64;
    println!(
        "  {} of {} guards and {} of {} publications are worker-local: elided",
        stats.elided_gets, accesses, stats.elided_publishes, accesses,
    );
    println!(
        "  {} of {} data objects get a shared word per run",
        stats.shared_objects,
        graph.num_data(),
    );
    // Inside a chain nothing is shared: those tasks are quiet, and a run
    // takes them as ranges, with no instruction and no entry of their own.
    let (quiet, kept): (Vec<_>, Vec<_>) = flow.own_tasks(WorkerId(1)).partition(|t| t.quiet());
    // Only a kept guard has a word to wait for.
    let (first, word) = (kept.iter())
        .find_map(|t| (0..t.task.accesses.len()).find_map(|i| Some((t, t.expected(i)?))))
        .expect("W1's chains end in a kept guard");
    println!(
        "  W1: {} of its tasks quiet; its first guard kept is {}'s, which waits for epoch word {word:#x}",
        quiet.len(),
        first.task.id,
    );

    // Steady state: run the same program many times (fresh protocol
    // state per run, so results are identical every time).
    let reps = 100;
    let t0 = Instant::now();
    for _ in 0..reps {
        flow.run(kernel);
    }
    let reused = t0.elapsed();

    let t0 = Instant::now();
    for _ in 0..reps {
        Executor::new(cfg.clone())
            .mapping(&mapping)
            .run(&graph, kernel);
    }
    let oneshot = t0.elapsed();

    println!("{reps} runs of one flow:  {reused:?}");
    println!("{reps} one-shot runs:     {oneshot:?}");
    println!(
        "compiling once is worth {:.2}x here (controlled measurement: `repro compiled --json`)",
        oneshot.as_secs_f64() / reused.as_secs_f64().max(1e-12)
    );

    // Both loops executed the identical schedule `reps` times.
    let values = store.into_vec();
    let per_datum = u64::from(CHAIN * SWEEPS);
    assert!(values[..NUM_DATA as usize]
        .iter()
        .all(|&v| v == 2 * reps * per_datum));
    println!("store verified: {} updates per datum", values[0]);
}
