//! Steal-layer equivalence: an armed [`StealPolicy`] may move task
//! bodies onto different workers, but it must never move the program.
//! On random flows, mappings, worker counts and wait strategies:
//!
//! * the final store is the sequential oracle's, steal-on and steal-off —
//!   on a fresh and on a reused flow, under `Spin` and `Park`;
//! * per-datum writer order is exactly the sequential order of the flow
//!   even under steal storms (claims hand a task to one executor, and
//!   its guards still serialize on write epochs);
//! * with a [`RecoveryPolicy`] installed and a deterministic permanent
//!   failure, the degradation fingerprint (failed task, poisoned cone,
//!   skipped set) is identical whether the victim — or anything in its
//!   cone — was stolen or not.
//!
//! The policy under test uses a zero pre-steal wait and a flow-sized
//! window, which maximizes claim traffic: every guard wait immediately
//! becomes a scan, so steals (and claim races) happen as often as the
//! flow allows.

use proptest::prelude::*;
use rio::core::{Executor, RecoveryPolicy, RioConfig, StealPolicy, WaitStrategy};
use rio::stf::{
    Access, AccessMode, DataId, DataStore, PartialReport, TableMapping, TaskDesc, TaskGraph,
    TaskId, WorkerId,
};
use std::sync::Mutex;
use std::time::Duration;

/// Strategy: a random well-formed task flow over `num_data` objects.
fn arb_graph(max_tasks: usize, num_data: usize) -> impl Strategy<Value = TaskGraph> {
    let access = (0..num_data as u32, 0..3u8).prop_map(|(d, m)| {
        let mode = match m {
            0 => AccessMode::Read,
            1 => AccessMode::Write,
            _ => AccessMode::ReadWrite,
        };
        Access::new(DataId(d), mode)
    });
    let task_accesses = proptest::collection::vec(access, 0..4).prop_map(move |mut accesses| {
        // Deduplicate data objects within a task (writes win over reads).
        accesses.sort_by_key(|a| (a.data, a.mode.writes()));
        accesses.reverse();
        accesses.dedup_by_key(|a| a.data);
        accesses
    });
    proptest::collection::vec(task_accesses, 1..=max_tasks).prop_map(move |tasks| {
        let mut b = TaskGraph::builder(num_data);
        for accesses in tasks {
            b.task(&accesses, 1, "prop");
        }
        b.build()
    })
}

/// A deterministic pseudo-random total mapping derived from `seed`.
fn arb_table_mapping(len: usize, workers: usize, seed: u64) -> TableMapping {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let table = (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            WorkerId((s % workers as u64) as u32)
        })
        .collect();
    TableMapping::new(table)
}

/// The state-hashing kernel: final store contents identify the
/// schedule's observable semantics.
fn hash_kernel(store: &DataStore<u64>, t: &TaskDesc) {
    let mut h = t.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for d in t.reads() {
        h = (h ^ *store.read(d)).wrapping_mul(0x100_0000_01b3);
    }
    for d in t.writes() {
        *store.write(d) = h;
    }
}

const WAITS: [WaitStrategy; 2] = [WaitStrategy::Spin, WaitStrategy::Park];

/// The storm policy: scan on the first blocked poll, search the whole
/// flow, steal without budget pressure.
fn storm() -> StealPolicy {
    StealPolicy::new()
        .min_wait_before_steal(Duration::ZERO)
        .window(1 << 16)
        .max_steals(1 << 16)
}

fn cfg(workers: usize, wait: WaitStrategy, stealing: bool) -> RioConfig {
    let mut cfg = RioConfig::with_workers(workers).wait(wait);
    if stealing {
        cfg = cfg.stealing(storm());
    }
    cfg
}

/// Runs `kernel` over `graph` — as a one-shot, or (`reused`) as the second
/// run of a flow compiled once.
fn run(
    graph: &TaskGraph,
    cfg: RioConfig,
    mapping: &TableMapping,
    reused: bool,
    kernel: impl Fn(WorkerId, &TaskDesc) + Sync,
) {
    let exec = Executor::new(cfg).mapping(mapping);
    if reused {
        let flow = exec.compile(graph);
        flow.run(|_, _| {});
        flow.run(kernel);
    } else {
        exec.run(graph, kernel);
    }
}

/// [`run`] with the state-hashing kernel; returns the final store.
fn observe(graph: &TaskGraph, cfg: &RioConfig, mapping: &TableMapping, reused: bool) -> Vec<u64> {
    let store = DataStore::filled(graph.num_data(), 0u64);
    run(graph, cfg.clone(), mapping, reused, |_, t| {
        hash_kernel(&store, t)
    });
    store.into_vec()
}

fn run_sequential(graph: &TaskGraph) -> Vec<u64> {
    let store = DataStore::filled(graph.num_data(), 0u64);
    rio::stf::sequential::run_graph(graph, |tid| hash_kernel(&store, graph.task(tid)));
    store.into_vec()
}

/// The sequential per-datum writer lists — ground truth for write order.
fn sequential_writers(graph: &TaskGraph) -> Vec<Vec<TaskId>> {
    let mut order = vec![Vec::new(); graph.num_data()];
    for t in graph.tasks() {
        for d in t.writes() {
            order[d.index()].push(t.id);
        }
    }
    order
}

type Fingerprint = (Vec<(TaskId, u32)>, Vec<DataId>, Vec<TaskId>);

fn fingerprint(p: &PartialReport) -> Fingerprint {
    (
        p.failed.iter().map(|f| (f.task, f.retries)).collect(),
        p.poisoned.clone(),
        p.skipped.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole pin: arming the steal layer changes *which worker* runs a
    /// body, never *what the program computes*: the sequential oracle's
    /// store, steal-on and steal-off, fresh and reused flow, all
    /// strategies.
    #[test]
    fn stealing_never_changes_the_store(
        graph in arb_graph(30, 5),
        workers in 2usize..5,
        map_seed in 0u64..1000,
    ) {
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let oracle = run_sequential(&graph);
        for wait in WAITS {
            for reused in [false, true] {
                for stealing in [false, true] {
                    let store = observe(&graph, &cfg(workers, wait, stealing), &mapping, reused);
                    prop_assert_eq!(
                        &store, &oracle,
                        "diverged from the oracle ({:?}, reused={}, stealing={})",
                        wait, reused, stealing
                    );
                }
            }
        }
    }

    /// In-order pin: even under a steal storm, each datum sees its writes
    /// in exactly the sequential order of the flow. (The thief publishes
    /// the same terminates the owner would have, and every write still
    /// waits on the same expected epoch word.)
    #[test]
    fn per_datum_writer_order_is_sequential_under_steal_storms(
        graph in arb_graph(30, 4),
        workers in 2usize..5,
        map_seed in 0u64..1000,
        wait_idx in 0usize..2,
        reused_idx in 0usize..2,
    ) {
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let observed: Vec<Mutex<Vec<TaskId>>> =
            (0..graph.num_data()).map(|_| Mutex::new(Vec::new())).collect();
        let kernel = |_: WorkerId, t: &TaskDesc| {
            for d in t.writes() {
                observed[d.index()].lock().unwrap().push(t.id);
            }
        };
        run(&graph, cfg(workers, WAITS[wait_idx], true), &mapping, reused_idx == 1, kernel);
        let expected = sequential_writers(&graph);
        for (d, seq) in expected.iter().enumerate() {
            let got = observed[d].lock().unwrap();
            prop_assert_eq!(
                &*got, seq,
                "datum D{} saw writers out of sequential order under stealing", d
            );
        }
    }

    /// Recovery interaction: a deterministic permanent failure degrades
    /// to the same fingerprint and the same store whether the steal layer
    /// is armed or not — a stolen victim panics on the thief, which
    /// aborts/poisons exactly as the owner would have.
    #[test]
    fn degradation_is_identical_with_and_without_stealing(
        graph in arb_graph(30, 4),
        workers in 2usize..5,
        map_seed in 0u64..1000,
        victim_seed in 0usize..1000,
        wait_idx in 0usize..2,
    ) {
        let victim = TaskId::from_index(victim_seed % graph.len());
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let observe_degraded = |stealing: bool| {
            let c = cfg(workers, WAITS[wait_idx], stealing)
                .recovery(RecoveryPolicy::no_retries());
            let store = DataStore::filled(graph.num_data(), 0u64);
            let kernel = |_: WorkerId, t: &TaskDesc| {
                if t.id == victim {
                    panic!("injected permanent failure");
                }
                hash_kernel(&store, t);
            };
            let run = Executor::new(c)
                .mapping(&mapping)
                .try_run(&graph, kernel)
                .expect("a recovered run must degrade, not abort");
            let fp = fingerprint(
                run.outcome
                    .partial()
                    .expect("the victim fails permanently, so the run must be degraded"),
            );
            (store.into_vec(), fp)
        };
        let (store_off, fp_off) = observe_degraded(false);
        let (store_on, fp_on) = observe_degraded(true);
        prop_assert_eq!(&fp_on, &fp_off, "stealing changed the degradation fingerprint");
        prop_assert_eq!(&store_on, &store_off, "stealing changed the degraded store");
    }
}
