//! Recovery-mode equivalence: with a permanently failing task and a
//! `RecoveryPolicy` installed, a run degrades instead of aborting — and
//! degrades *deterministically*. On random flows, mappings, worker
//! counts and wait strategies:
//!
//! * every store value **outside the poisoned cone** is byte-identical
//!   to the fault-free run (executed tasks read only healthy data, so
//!   they compute exactly the fault-free values);
//! * the partial report (failed task, poisoned data, skipped cone) and
//!   the store are those of the **sequential oracle** — the flow run in
//!   order with the skip-on-poison rule — across `Spin`/`Park`, total
//!   and partial mappings, fresh and reused flows: poison
//!   is decided at serialized write epochs, never by scheduling races.
//!
//! The failure is injected by the kernel itself (an unconditional panic
//! at the victim task) rather than through `rio-faults`: the umbrella
//! crate deliberately does not depend on the fault-injection crate, and
//! a kernel panic exercises the identical retry/poison machinery.

use proptest::prelude::*;
use rio::core::hybrid::{Total, Unmapped};
use rio::core::{Executor, RecoveryPolicy, Rio, RioConfig, WaitStrategy};
use rio::stf::{
    Access, AccessMode, DataId, DataStore, FlightEventKind, PartialReport, TableMapping, TaskDesc,
    TaskGraph, TaskId, WorkerId,
};

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

/// The ways to run a flow that must agree on degradation.
#[derive(Clone, Copy, Debug)]
enum Path {
    /// `Executor::run` under the total mapping.
    Fresh,
    /// The second run of a flow compiled once under the total mapping.
    Reused,
    /// The total mapping as a partial one: nothing is claim-marked.
    HybridTotal,
    /// Every task claim-marked, on a fresh and on a reused flow.
    Unmapped,
    UnmappedReused,
}

const PATHS: [Path; 5] = [
    Path::Fresh,
    Path::Reused,
    Path::HybridTotal,
    Path::Unmapped,
    Path::UnmappedReused,
];

/// The stable fingerprint of a degraded run: the worker that happened to
/// own the victim is scheduling-dependent under hybrid claiming (and the
/// panic payload is not comparable), so both are excluded; everything
/// else must be bit-stable.
type Fingerprint = (Vec<(TaskId, u32)>, Vec<DataId>, Vec<TaskId>);

fn fingerprint(p: &PartialReport) -> Fingerprint {
    (
        p.failed.iter().map(|f| (f.task, f.retries)).collect(),
        p.poisoned.clone(),
        p.skipped.clone(),
    )
}

/// Runs `graph` under `path`.
fn run_on(
    graph: &TaskGraph,
    cfg: &RioConfig,
    mapping: &TableMapping,
    path: Path,
    kernel: impl Fn(WorkerId, &TaskDesc) + Sync,
) -> rio::core::Execution {
    let as_partial = Total(mapping);
    let exec = Executor::new(cfg.clone());
    let (exec, reused) = match path {
        Path::Fresh => (exec.mapping(mapping), false),
        Path::Reused => (exec.mapping(mapping), true),
        Path::HybridTotal => (exec.hybrid(&as_partial), false),
        Path::Unmapped => (exec.hybrid(&Unmapped), false),
        Path::UnmappedReused => (exec.hybrid(&Unmapped), true),
    };
    let flow = exec.compile(graph);
    if reused {
        flow.run(|_, _| {});
    }
    flow.try_run(kernel)
        .expect("a recovered run must degrade, not abort")
}

/// Runs `graph` with a kernel that permanently fails at `victim`; returns
/// the final store and the degradation fingerprint.
fn observe_degraded(
    graph: &TaskGraph,
    cfg: &RioConfig,
    mapping: &TableMapping,
    victim: TaskId,
    path: Path,
) -> (Vec<u64>, Fingerprint) {
    let store = DataStore::filled(graph.num_data(), 0u64);
    let run = run_on(graph, cfg, mapping, path, |_, t| {
        if t.id == victim {
            panic!("injected permanent failure");
        }
        hash_kernel(&store, t);
    });
    let partial = run
        .outcome
        .partial()
        .expect("the victim fails permanently, so the run must be degraded");
    (store.into_vec(), fingerprint(partial))
}

/// The same flow unrolled as a closure by every worker (`Rio`): the other
/// front-end of the one engine. Its bodies are `FnOnce`, so whatever
/// retry budget `cfg` grants, the victim gets one attempt.
fn observe_degraded_closure_flow(
    graph: &TaskGraph,
    cfg: &RioConfig,
    mapping: &TableMapping,
    victim: TaskId,
) -> (Vec<u64>, rio::core::ExecReport, PartialReport) {
    let store = DataStore::filled(graph.num_data(), 0u64);
    let (report, outcome) = Rio::new(cfg.clone())
        .try_run_with_outcome(&store, mapping, |ctx| {
            for t in graph.tasks() {
                ctx.task(&t.accesses, |_| {
                    if t.id == victim {
                        panic!("injected permanent failure");
                    }
                    hash_kernel(&store, t);
                });
            }
        })
        .expect("a recovered run must degrade, not abort");
    let rio::core::RunOutcome::Degraded(partial) = outcome else {
        panic!("the victim fails permanently, so the run must be degraded");
    };
    (store.into_vec(), report, partial)
}

/// The oracle: the flow in order on one thread, `victim` failing without
/// a retry, and every task one of whose data is poisoned skipped — both
/// poisoning what they write.
fn sequential_degraded(graph: &TaskGraph, victim: TaskId) -> (Vec<u64>, Fingerprint) {
    let store = DataStore::filled(graph.num_data(), 0u64);
    let mut poisoned = std::collections::BTreeSet::new();
    let mut skipped = Vec::new();
    rio::stf::sequential::run_graph(graph, |id| {
        let t = graph.task(id);
        let skip = t.accesses.iter().any(|a| poisoned.contains(&a.data));
        if skip {
            skipped.push(id);
        }
        if skip || id == victim {
            poisoned.extend(t.writes());
        } else {
            hash_kernel(&store, t);
        }
    });
    let fp = (vec![(victim, 0)], poisoned.into_iter().collect(), skipped);
    (store.into_vec(), fp)
}

/// The fault-free baseline under the same configuration.
fn observe_healthy(graph: &TaskGraph, cfg: &RioConfig, mapping: &TableMapping) -> Vec<u64> {
    let store = DataStore::filled(graph.num_data(), 0u64);
    Executor::new(cfg.clone())
        .mapping(mapping)
        .run(graph, |_: WorkerId, t: &TaskDesc| hash_kernel(&store, t));
    store.into_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ISSUE satellite: equivalence outside the cone. With a permanent
    /// failure at a random task, every datum *not* in the poisoned cone
    /// holds exactly the fault-free value, on all three wait strategies —
    /// and the degradation fingerprint does not depend on the strategy.
    #[test]
    fn stores_outside_the_poisoned_cone_match_the_fault_free_run(
        graph in arb_graph(30, 5),
        workers in 1usize..4,
        map_seed in 0u64..1000,
        victim_seed in 0usize..1000,
    ) {
        let victim = TaskId::from_index(victim_seed % graph.len());
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let mut fingerprints = Vec::new();
        for wait in WAITS {
            let cfg = RioConfig::with_workers(workers)
                .wait(wait)
                .recovery(RecoveryPolicy::no_retries());
            let baseline = observe_healthy(&graph, &cfg, &mapping);
            let (store, fp) =
                observe_degraded(&graph, &cfg, &mapping, victim, Path::Fresh);
            prop_assert_eq!(fp.0.len(), 1);
            prop_assert_eq!(fp.0[0].0, victim);
            for d in 0..graph.num_data() {
                if fp.1.binary_search(&DataId::from_index(d)).is_ok() {
                    continue;
                }
                prop_assert_eq!(
                    store[d], baseline[d],
                    "datum D{} is outside the poisoned cone of {} but diverged \
                     from the fault-free run under {:?}",
                    d, victim, wait
                );
            }
            fingerprints.push(fp);
        }
        prop_assert_eq!(&fingerprints[1], &fingerprints[0],
            "Park degraded differently from Spin");
    }

    /// Tentpole pin: fresh and reused flows, under the total mapping, the
    /// same mapping as a partial one and no mapping at all, degrade as
    /// the sequential oracle does — same failed task, same poisoned cone,
    /// same skipped set, same store — because poison is decided at
    /// serialized write epochs, not by who noticed it first.
    #[test]
    fn every_execution_path_degrades_identically(
        graph in arb_graph(30, 4),
        workers in 1usize..4,
        map_seed in 0u64..1000,
        victim_seed in 0usize..1000,
        wait_idx in 0usize..2,
    ) {
        let victim = TaskId::from_index(victim_seed % graph.len());
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let cfg = RioConfig::with_workers(workers)
            .wait(WAITS[wait_idx])
            .recovery(RecoveryPolicy::no_retries());
        let (ref_store, ref_fp) = sequential_degraded(&graph, victim);
        for path in PATHS {
            let (store, fp) = observe_degraded(&graph, &cfg, &mapping, victim, path);
            prop_assert_eq!(&fp, &ref_fp,
                "{:?} degraded differently from the oracle", path);
            prop_assert_eq!(&store, &ref_store,
                "{:?} left a different store from the oracle", path);
        }
        // The closure flow goes through the same body block: one attempt
        // (`retries: 0`) even with retries granted, the same cone, and
        // every task outside it finished.
        let retrying = cfg.recovery(RecoveryPolicy::default());
        let (store, report, partial) =
            observe_degraded_closure_flow(&graph, &retrying, &mapping, victim);
        prop_assert_eq!(&fingerprint(&partial), &ref_fp);
        prop_assert_eq!(&store, &ref_store);
        let lost = 1 + ref_fp.2.len() as u64;
        prop_assert_eq!(report.tasks_executed(), graph.len() as u64 - lost);
        prop_assert_eq!(report.counters.total().retries, 0);
    }

    /// A `RecoveryPolicy` with zero faults is invisible: the run
    /// completes, the outcome is `Complete`, and the store matches a run
    /// without the policy — on every path.
    #[test]
    fn recovery_is_invisible_on_healthy_runs(
        graph in arb_graph(30, 4),
        workers in 1usize..4,
        map_seed in 0u64..1000,
    ) {
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let plain = RioConfig::with_workers(workers).wait(WaitStrategy::Park);
        let recovering = plain.clone().recovery(RecoveryPolicy::default());
        let baseline = observe_healthy(&graph, &plain, &mapping);
        for path in PATHS {
            let store = DataStore::filled(graph.num_data(), 0u64);
            let run = run_on(&graph, &recovering, &mapping, path, |_, t| hash_kernel(&store, t));
            prop_assert!(run.outcome.is_complete(), "{:?} reported degradation", path);
            prop_assert_eq!(run.report.tasks_executed(), graph.len() as u64);
            prop_assert_eq!(&store.into_vec(), &baseline, "{:?} store mismatch", path);
        }
    }
}

/// One instrumentation point per protocol event: the same Cholesky flow,
/// the same mapping and the same failing task through the compiled
/// `Executor` and through the closure-flow `Rio` leave the same `get` and
/// `terminate` totals, the same `tasks` / `poisoned` counters and —
/// worker by worker, event by event — the same flight log. (A spinning
/// wait, so that no timing-dependent `Park` event is recorded; 20 tasks
/// on 2 workers, so that no ring wraps.) Timing is on, so the compiled
/// run's quiet tasks go body by body, as every closure-flow task does.
/// Untimed, the compiled run takes them in blocks, which mark their
/// bodies with one `TaskEnd` (DESIGN.md §16): everything else — every
/// other event, the partial report, the counters and the books — is the
/// timed run's.
#[test]
fn closure_flow_and_compiled_runs_record_the_same_events() {
    let graph = rio::workloads::cholesky::graph(4, 1);
    let mapping = rio::workloads::cholesky::mapping(4, 2);
    let victim = TaskId(3);
    let untimed = RioConfig::with_workers(2)
        .wait(WaitStrategy::Spin)
        .recovery(RecoveryPolicy::no_retries());
    let cfg = untimed.clone().measure_time(true);
    let compiled_with = |cfg: &RioConfig| {
        let store = DataStore::filled(graph.num_data(), 0u64);
        let run = run_on(&graph, cfg, &mapping, Path::Fresh, |_, t| {
            if t.id == victim {
                panic!("injected permanent failure");
            }
            hash_kernel(&store, t);
        });
        (store.into_vec(), run)
    };
    let (store, compiled) = compiled_with(&cfg);
    let compiled_partial = compiled.outcome.partial().expect("degraded");
    let (flow_store, flow, flow_partial) =
        observe_degraded_closure_flow(&graph, &cfg, &mapping, victim);

    assert_eq!(flow_store, store);
    let accesses: u64 = graph.tasks().iter().map(|t| t.accesses.len() as u64).sum();
    for ops in [compiled.report.total_ops(), flow.total_ops()] {
        assert_eq!((ops.gets, ops.terminates), (accesses, accesses));
    }
    let books = |c: rio::core::CounterRow| (c.tasks, c.poisoned, c.retries);
    let (c, f) = (compiled.counters.total(), flow.counters.total());
    assert_eq!(books(c), books(f));
    assert_eq!(c.tasks, flow.tasks_executed());
    assert!(!flow_partial.flight.is_empty());
    assert_eq!(flow_partial.flight, compiled_partial.flight);

    let (blocks_store, blocks) = compiled_with(&untimed);
    assert_eq!(blocks_store, store);
    let blocks_partial = blocks.outcome.partial().expect("degraded");
    assert_eq!(fingerprint(blocks_partial), fingerprint(compiled_partial));
    assert_eq!(books(blocks.counters.total()), books(c));
    let ops = blocks.report.total_ops();
    assert_eq!((ops.gets, ops.terminates), (accesses, accesses));
    let beside_bodies = |log: &rio::stf::FlightLog| -> Vec<Vec<_>> {
        let body = |k| matches!(k, FlightEventKind::TaskStart | FlightEventKind::TaskEnd);
        let events = |w: &rio::stf::WorkerFlight| {
            let kept = w.events.iter().filter(|e| !body(e.kind));
            kept.map(|e| (e.kind, e.task, e.data)).collect()
        };
        log.workers.iter().map(events).collect()
    };
    assert_eq!(
        beside_bodies(&blocks_partial.flight),
        beside_bodies(&compiled_partial.flight)
    );
}

// ---------------------------------------------------------------------
// Fixed cases (from rio-core's unit tests, where they needed nothing
// private): what one body panic does without a policy, under a retry
// policy, and under one that gives up at once.
// ---------------------------------------------------------------------

/// `n` read-write tasks chained on `D0`.
fn chain(n: usize) -> TaskGraph {
    let mut b = TaskGraph::builder(1);
    for _ in 0..n {
        b.task(&[Access::read_write(DataId(0))], 1, "t");
    }
    b.build()
}

/// A panicking task body must propagate without stranding workers that
/// are blocked waiting on its (now never-published) completion.
#[test]
fn task_panic_propagates_and_unblocks_waiters() {
    let g = chain(20);
    for wait in [WaitStrategy::Spin, WaitStrategy::Park] {
        let exec = Executor::new(RioConfig::with_workers(3).wait(wait));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.run(&g, |_, t| {
                if t.id.0 == 5 {
                    panic!("task 5 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 5 exploded", "strategy {wait}");
    }
}

/// A flaky task (two failing attempts, then success) recovers under
/// the retry policy: the run completes cleanly — no partial report —
/// with the sequential result and two retries on the counters.
#[test]
fn retry_policy_recovers_flaky_tasks() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let g = chain(20);
    let store = DataStore::from_vec(vec![0u64]);
    let failures_left = AtomicU64::new(2);
    let cfg = RioConfig::with_workers(2)
        .wait(WaitStrategy::Park)
        .recovery(RecoveryPolicy::default().backoff(std::time::Duration::from_micros(1)));
    let run = Executor::new(cfg)
        .try_run(&g, |_, t| {
            if t.id.0 == 5
                && failures_left
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
                    .is_ok()
            {
                panic!("flaky");
            }
            *store.write(DataId(0)) += 1;
        })
        .expect("recovered run must not abort");
    assert!(run.outcome.is_complete(), "a recovered run is not degraded");
    assert_eq!(store.into_vec(), vec![20]);
    assert_eq!(run.report.tasks_executed(), 20);
    assert_eq!(run.counters.total().retries, 2);
    assert_eq!(run.counters.total().poisoned, 0);
}

/// A permanently-failing task degrades the run instead of aborting
/// it: the failure is recorded, its written datum poisoned, every
/// dependent on the chain skipped — and the independent chain (and
/// the run itself) completes, because skipped tasks still sync.
#[test]
fn permanent_failure_degrades_and_poisons_the_cone() {
    let mut b = TaskGraph::builder(2);
    for _ in 0..10 {
        b.task(&[Access::read_write(DataId(0))], 1, "a");
    }
    for _ in 0..10 {
        b.task(&[Access::read_write(DataId(1))], 1, "b");
    }
    let g = b.build();
    let store = DataStore::from_vec(vec![0u64, 0]);
    let cfg = RioConfig::with_workers(2)
        .wait(WaitStrategy::Park)
        .recovery(RecoveryPolicy::no_retries());
    let run = Executor::new(cfg)
        .try_run(&g, |_, t| {
            if t.id.0 == 5 {
                panic!("T5 is beyond saving");
            }
            *store.write(t.accesses[0].data) += 1;
        })
        .expect("degraded run must not abort");
    let report = &run.report;
    let partial = run
        .outcome
        .partial()
        .expect("a permanent failure degrades the run");
    assert_eq!(partial.failed.len(), 1);
    assert_eq!(partial.failed[0].task, TaskId(5));
    assert_eq!(partial.failed[0].retries, 0);
    assert_eq!(partial.failed[0].detail.kind(), "task-failed");
    assert_eq!(partial.poisoned, vec![DataId(0)]);
    let skipped: Vec<_> = (6..=10).map(TaskId).collect();
    assert_eq!(partial.skipped, skipped, "the rest of the D0 chain skips");
    // 20 tasks minus 1 failed minus 5 skipped executed; the healthy
    // D1 chain is untouched by the poison.
    assert_eq!(report.tasks_executed(), 14);
    assert_eq!(store.into_vec(), vec![4, 10]);
    assert_eq!(report.counters.total().poisoned, 1);
    assert_eq!(report.counters.total().retries, 0);
}
