//! Equivalence of compiled execution and the flow's two interpretations:
//! on random flows, mappings, worker counts and wait strategies, a run —
//! the one-shot `Executor::run`, or a later run of a reused
//! `CompiledFlow` — must invoke the kernels in the per-worker order the
//! mapping dictates (each worker's own tasks, in flow order) and leave the
//! store `sequential::run_graph` leaves. A compiled program holds a
//! worker's own tasks only and keeps no private state; what replaces the
//! private view is pinned here too: the precomputed word of every own
//! access is exactly what that worker would have packed at that point of
//! the flow had it unrolled all of it through the protocol's primitives
//! (Algorithms 1–2, replayed here). So is what it leaves out: the guards
//! and publications the compiler elides are checked against the flow's
//! dependencies, derived here from the graph alone.

use proptest::prelude::*;
use rio::core::hybrid::{PartialFn, Unmapped};
use rio::core::protocol::{
    declare_batch, expected_read_word, expected_write_word, terminate_read, terminate_write,
    LocalDataState, SharedDataState, READ_EPOCH_MASK,
};
use rio::core::{CompiledFlow, CounterRegistry, Executor, RecoveryPolicy, RioConfig, WaitStrategy};
use rio::stf::{
    Access, AccessMode, DataId, DataStore, ExecError, Mapping, RoundRobin, StallSite, TableMapping,
    TaskDesc, TaskGraph, TaskId, WorkerId,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
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

fn run_sequential(graph: &TaskGraph) -> Vec<u64> {
    let store = DataStore::filled(graph.num_data(), 0u64);
    rio::stf::sequential::run_graph(graph, |tid| hash_kernel(&store, graph.task(tid)));
    store.into_vec()
}

const WAITS: [WaitStrategy; 2] = [WaitStrategy::Spin, WaitStrategy::Park];

/// Runs `graph` under `cfg`/`mapping` — as a one-shot, or (`reused`) as
/// the second run of a flow compiled once — and returns `(final store,
/// per-worker kernel invocation orders)`.
fn observe(
    graph: &TaskGraph,
    cfg: &RioConfig,
    mapping: &TableMapping,
    reused: bool,
) -> (Vec<u64>, Vec<Vec<TaskId>>) {
    let store = DataStore::filled(graph.num_data(), 0u64);
    let orders: Vec<Mutex<Vec<TaskId>>> =
        (0..cfg.workers).map(|_| Mutex::new(Vec::new())).collect();
    let kernel = |w: WorkerId, t: &TaskDesc| {
        orders[w.index()].lock().unwrap().push(t.id);
        hash_kernel(&store, t);
    };
    let exec = Executor::new(cfg.clone()).mapping(mapping);
    if reused {
        let flow = exec.compile(graph);
        flow.run(|_, _| {});
        flow.run(kernel);
    } else {
        exec.run(graph, kernel);
    }
    (
        store.into_vec(),
        orders
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect(),
    )
}

/// The per-worker kernel orders the mapping dictates: each worker's own
/// tasks, in flow order.
fn mapped_orders(graph: &TaskGraph, mapping: &TableMapping, workers: usize) -> Vec<Vec<TaskId>> {
    let mut orders = vec![Vec::new(); workers];
    for t in graph.tasks() {
        orders[mapping.worker_of(t.id, workers).index()].push(t.id);
    }
    orders
}

/// Replays `worker` unrolling all of `graph` as the paper's Algorithm 1
/// has it — the real protocol calls on a private table: declares for
/// foreign tasks, terminates for its own — and checks every own access of
/// a task that keeps a half against the compiled program: the precomputed
/// word must be the private view the walk holds at that access, which is
/// what both of its guards compare. A quiet task — of a range, in every
/// configuration checked here — has no word at all.
fn check_program_against_interpreted_view(
    graph: &TaskGraph,
    cfg: &RioConfig,
    mapping: &TableMapping,
    worker: WorkerId,
) {
    let flow = Executor::new(cfg.clone()).mapping(mapping).compile(graph);
    let mut program = flow.own_tasks(worker);
    let shared = SharedDataState::new_table(graph.num_data());
    let mut view = vec![LocalDataState::default(); graph.num_data()];
    for t in graph.tasks() {
        if mapping.worker_of(t.id, cfg.workers) != worker {
            declare_batch(&mut view, t.id, &t.accesses);
            continue;
        }
        let compiled = program
            .next()
            .expect("an own task is missing from the program");
        assert_eq!(compiled.task.id, t.id, "own tasks out of flow order");
        let words = if compiled.quiet() {
            0
        } else {
            t.accesses.len()
        };
        assert_eq!(compiled.expected.len(), words, "{}", t.id);
        for (a, &word) in t.accesses.iter().zip(compiled.expected) {
            let l = &view[a.data.index()];
            assert_eq!(word, expected_write_word(l), "{} on {}", t.id, a.data);
            assert_eq!(word & READ_EPOCH_MASK, expected_read_word(l));
        }
        for a in &t.accesses {
            let (s, l) = (&shared[a.data.index()], &mut view[a.data.index()]);
            if a.mode.writes() {
                terminate_write(s, l, t.id, WaitStrategy::Spin);
            } else {
                terminate_read(s, l, WaitStrategy::Spin);
            }
        }
    }
    assert!(program.next().is_none(), "a foreign task is in the program");
}

/// One own access as compiled, and who runs it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Mark {
    /// A claim-marked task's is a worker of its own: whoever ends up
    /// running it, the compiler could count on nobody.
    worker: usize,
    guard: bool,
    publish: bool,
}

/// `cfg` with every setting a run can hook a task with armed: a recovery
/// policy, timing, a watchdog, and spinning waits.
fn with_every_hook(cfg: RioConfig) -> RioConfig {
    cfg.wait(WaitStrategy::Spin)
        .recovery(RecoveryPolicy::no_retries())
        .measure_time(true)
        .watchdog(Duration::from_secs(10))
}

/// `marks[task][access]` over the whole flow, read back from every
/// worker's program.
fn marks_of(flow: &CompiledFlow<'_>) -> (Vec<Vec<Mark>>, usize) {
    let graph = flow.graph();
    let mut marks = vec![Vec::new(); graph.len()];
    for worker in 0..flow.config().workers {
        for ct in flow.own_tasks(WorkerId::from_index(worker)) {
            let task = ct.task.id.index();
            marks[task] = (0..ct.task.accesses.len())
                .map(|i| Mark {
                    worker: if ct.claim_marked() {
                        usize::MAX - task
                    } else {
                        worker
                    },
                    guard: ct.keeps_guard(i),
                    publish: ct.keeps_publication(i),
                })
                .collect();
        }
    }
    let stats = flow.stats();
    let (mut kept_guards, mut kept_publishes) = (0, 0);
    for m in marks.iter().flatten() {
        kept_guards += u64::from(m.guard);
        kept_publishes += u64::from(m.publish);
    }
    let accesses = graph.total_accesses() as u64;
    assert_eq!(stats.elided_gets, accesses - kept_guards);
    assert_eq!(stats.elided_publishes, accesses - kept_publishes);
    (marks, stats.shared_objects)
}

/// Checks the marks against the flow's dependencies, recomputed here per
/// object as epochs — a writer, the reads that follow it, the next writer
/// — from the graph and the mapping alone.
fn check_marks_against_the_flow(graph: &TaskGraph, marks: &[Vec<Mark>], shared_objects: usize) {
    let mut shared = 0;
    for d in 0..graph.num_data() {
        let data = DataId::from_index(d);
        // (task, access) of the open epoch's writer and reads.
        let mut writer: Option<(usize, usize)> = None;
        let mut reads: Vec<(usize, usize)> = Vec::new();
        let mut any_kept = false;
        let mark = |&(t, a): &(usize, usize)| marks[t][a];
        // What the end of an epoch decides: `closing` is the next writer.
        let close = |writer: Option<(usize, usize)>,
                     reads: &[(usize, usize)],
                     closing: Option<Mark>| {
            let waited_on = closing.is_some_and(|c| c.guard);
            for r in reads {
                assert_eq!(
                    mark(r).publish,
                    waited_on,
                    "a read publishes exactly for a next writer that keeps its guard: {r:?} on {data}"
                );
            }
            if let Some(w) = writer {
                let consumed = waited_on || reads.iter().any(|r| mark(r).guard);
                assert_eq!(
                    mark(&w).publish,
                    consumed,
                    "a write publishes exactly for consumers that keep a guard: {w:?} on {data}"
                );
                if !mark(&w).publish {
                    assert!(reads.iter().all(|r| !mark(r).publish));
                }
            }
        };
        for (t, task) in graph.tasks().iter().enumerate() {
            let Some(a) = task.accesses.iter().position(|a| a.data == data) else {
                continue;
            };
            let me = marks[t][a];
            any_kept |= me.guard | me.publish;
            let producers: Vec<Mark> = if task.accesses[a].mode.writes() {
                writer.iter().chain(&reads).map(mark).collect()
            } else {
                writer.iter().map(mark).collect()
            };
            let local = producers.iter().all(|p| p.worker == me.worker);
            assert_eq!(
                me.guard,
                !local,
                "a guard is elided exactly when every producer is absent or on its worker: \
                 T{} on {data}",
                t + 1
            );
            if me.guard {
                assert!(
                    producers.iter().all(|p| p.publish),
                    "a kept guard compares against an elided publication: T{} on {data}",
                    t + 1
                );
            }
            if task.accesses[a].mode.writes() {
                close(writer, &reads, Some(me));
                writer = Some((t, a));
                reads.clear();
            } else {
                reads.push((t, a));
            }
        }
        close(writer, &reads, None);
        shared += usize::from(any_kept);
    }
    assert_eq!(shared_objects, shared, "objects with a kept half");
}

/// Runs `graph` on two workers to its watchdog stall — a "slow" task
/// outlasts the deadline, so whoever depends on it gives up — and returns
/// where that worker was blocked. `reused`: on a flow that already ran.
fn stall_site(graph: &TaskGraph, mapping: &TableMapping, reused: bool) -> StallSite {
    let exec = Executor::new(RioConfig::with_workers(2).wait(WaitStrategy::Park))
        .mapping(mapping)
        .watchdog(Duration::from_millis(100));
    let kernel = |_: WorkerId, t: &TaskDesc| {
        if t.kind == "slow" {
            std::thread::sleep(Duration::from_millis(500));
        }
    };
    let err = if reused {
        let flow = exec.compile(graph);
        flow.run(|_, _| {});
        flow.try_run(kernel)
    } else {
        exec.try_run(graph, kernel)
    }
    .expect_err("the slow task must stall its dependents past the deadline");
    match err {
        ExecError::Stalled(diag) => diag.site,
        other => panic!("expected Stalled, got {other}"),
    }
}

/// A compiled worker keeps no private view, yet its stall diagnostic
/// shows the private/shared pair of a worker that unrolled the whole flow
/// under the same mapping (spelled out below): the view is unpacked from
/// the expected word. A flow that ran before stalls the same way.
#[test]
fn compiled_stall_renders_the_interpreted_private_view() {
    let d0 = DataId(0);
    let on_w1 = |tasks: usize, w1: &[usize]| {
        TableMapping::from_fn(tasks, |i| WorkerId(u32::from(w1.contains(&(i + 1)))))
    };

    // Stalled in get_write: T1 writes; T2, T3 (slow, on W0), T4 read; T5
    // (W1) writes — its view registers three reads, and while T3 is still
    // in its body only two have been performed.
    let mut b = TaskGraph::builder(1);
    b.task(&[Access::write(d0)], 1, "w");
    b.task(&[Access::read(d0)], 1, "r");
    b.task(&[Access::read(d0)], 1, "slow");
    b.task(&[Access::read(d0)], 1, "r");
    b.task(&[Access::write(d0)], 1, "w");
    let g = b.build();
    let m = on_w1(5, &[2, 4, 5]);
    let interpreted = StallSite::DataWait {
        task: TaskId(5),
        data: d0,
        write: true,
        local_reads_since_write: 3,
        local_last_registered_write: TaskId(1),
        shared_reads_since_write: 2,
        shared_last_executed_write: TaskId(1),
        shared_epoch_word: (1 << 32) | 2,
    };
    assert_eq!(stall_site(&g, &m, false), interpreted);
    assert_eq!(stall_site(&g, &m, true), interpreted);

    // Stalled in get_read, with a read count the guard itself ignores:
    // T1 (slow, W1) writes, T2 (W1, behind it) and T3 (W0) read. W0 gives
    // up with one foreign read registered since the unperformed write.
    let mut b = TaskGraph::builder(1);
    b.task(&[Access::write(d0)], 1, "slow");
    b.task(&[Access::read(d0)], 1, "r");
    b.task(&[Access::read(d0)], 1, "r");
    let g = b.build();
    let m = on_w1(3, &[1, 2]);
    let interpreted = StallSite::DataWait {
        task: TaskId(3),
        data: d0,
        write: false,
        local_reads_since_write: 1,
        local_last_registered_write: TaskId(1),
        shared_reads_since_write: 0,
        shared_last_executed_write: TaskId::NONE,
        shared_epoch_word: 0,
    };
    assert_eq!(stall_site(&g, &m, false), interpreted);
    assert_eq!(stall_site(&g, &m, true), interpreted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// What the compiler leaves out: for random graphs and mappings, at
    /// 1, 2, 3, 4 and 64 workers, a guard is
    /// elided exactly when every producer it would wait for is absent or
    /// on its own worker, every kept guard finds all its producers'
    /// publications kept, publications are kept exactly for the consumers
    /// that keep a guard, and the run's table holds exactly the objects
    /// with a kept half. No setting disables elision: with every per-task
    /// hook armed, the marks and the counts are the default config's.
    #[test]
    fn elided_synchronisation_is_exactly_the_worker_local_part(
        graph in arb_graph(40, 5),
        map_seed in 0u64..1000,
    ) {
        let configs = [
            RioConfig::with_workers(1),
            RioConfig::with_workers(2),
            RioConfig::with_workers(3),
            RioConfig::with_workers(64),
            RioConfig::with_workers(4),
        ];
        for cfg in configs {
            let mapping = arb_table_mapping(graph.len(), cfg.workers, map_seed);
            let flow = Executor::new(cfg.clone()).mapping(&mapping).compile(&graph);
            let (marks, shared_objects) = marks_of(&flow);
            check_marks_against_the_flow(&graph, &marks, shared_objects);
            if cfg.workers == 1 {
                prop_assert!(marks.iter().flatten().all(|m| !m.guard && !m.publish));
                prop_assert_eq!(shared_objects, 0);
            }
            let hooked = Executor::new(with_every_hook(cfg)).mapping(&mapping).compile(&graph);
            let counts = |f: &CompiledFlow<'_>| {
                let s = f.stats();
                (s.elided_gets, s.elided_publishes, s.shared_objects)
            };
            prop_assert_eq!(counts(&hooked), counts(&flow));
            prop_assert_eq!(marks_of(&hooked), (marks, shared_objects));
        }
    }

    /// What replaced the private view: for random graphs and mappings, at
    /// 1, 2, 4 and 64 workers, every worker's program is exactly its own
    /// tasks and every precomputed word is that worker's interpreted view.
    #[test]
    fn compiled_words_are_each_workers_interpreted_view(
        graph in arb_graph(40, 5),
        map_seed in 0u64..1000,
        probe in 0usize..64,
    ) {
        let configs = [
            RioConfig::with_workers(1),
            RioConfig::with_workers(2),
            RioConfig::with_workers(64),
            RioConfig::with_workers(4),
        ];
        for cfg in configs {
            let mapping = arb_table_mapping(graph.len(), cfg.workers, map_seed);
            let flow = Executor::new(cfg.clone()).mapping(&mapping).compile(&graph);
            prop_assert_eq!(flow.stats().instructions(), graph.len());
            prop_assert_eq!(flow.stats().folded_declares, 0);
            let foreign = (cfg.workers as u64 - 1) * graph.total_accesses() as u64;
            prop_assert_eq!(flow.stats().irrelevant_declares, foreign);
            // Every worker up to four, and one more picked at random.
            let few = (0..cfg.workers.min(4)).chain([probe % cfg.workers]);
            for w in few {
                check_program_against_interpreted_view(
                    &graph, &cfg, &mapping, WorkerId::from_index(w),
                );
            }
        }
    }

    /// The tentpole equivalence: a run — fresh or of a reused flow —
    /// invokes the kernels in the per-worker orders the mapping dictates
    /// and leaves the store the sequentially interpreted flow leaves, and
    /// every worker's program is what its protocol-primitive walk of the
    /// flow would hold — for random graphs, random table mappings, any
    /// worker count and every wait strategy.
    #[test]
    fn compiled_matches_interpreted(
        graph in arb_graph(40, 5),
        workers in 1usize..5,
        map_seed in 0u64..1000,
        wait_idx in 0usize..2,
    ) {
        let cfg = RioConfig::with_workers(workers).wait(WAITS[wait_idx]);
        let mapping = arb_table_mapping(graph.len(), workers, map_seed);
        let (orders, oracle) = (mapped_orders(&graph, &mapping, workers), run_sequential(&graph));
        for reused in [false, true] {
            let (store, ran) = observe(&graph, &cfg, &mapping, reused);
            prop_assert_eq!(&ran, &orders,
                "per-worker kernel invocation orders diverged (reused: {})", reused);
            prop_assert_eq!(&store, &oracle, "oracle mismatch (reused: {})", reused);
        }
        for w in 0..workers {
            check_program_against_interpreted_view(&graph, &cfg, &mapping, WorkerId::from_index(w));
        }
    }

    /// Compiled state is per-run: after a run aborts with
    /// `TaskPanicked`, a fresh `CompiledFlow::run` of the *same* program
    /// completes and still matches the sequential oracle.
    #[test]
    fn compiled_flow_survives_an_aborted_run(
        graph in arb_graph(30, 4),
        workers in 1usize..4,
        victim_seed in 0usize..1000,
    ) {
        let victim = TaskId::from_index(victim_seed % graph.len());
        let cfg = RioConfig::with_workers(workers).wait(WaitStrategy::Park);
        let flow = Executor::new(cfg).mapping(&RoundRobin).compile(&graph);

        let err = flow
            .try_run(|_, t: &TaskDesc| {
                if t.id == victim {
                    panic!("injected kernel panic");
                }
            })
            .expect_err("the injected panic must abort the run");
        match err {
            ExecError::TaskPanicked { task, .. } => prop_assert_eq!(task, victim),
            other => prop_assert!(false, "expected TaskPanicked, got {}", other),
        }

        // Same program, fresh run: complete and correct.
        let store = DataStore::filled(graph.num_data(), 0u64);
        let run = flow.run(|_, t: &TaskDesc| hash_kernel(&store, t));
        prop_assert_eq!(run.report.tasks_executed(), graph.len() as u64);
        prop_assert_eq!(store.into_vec(), run_sequential(&graph));
    }
}

proptest! {
    // Fifteen pairs of runs per case, three of them on 64 threads.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// What the compiler leaves out is not missed: at the same worker
    /// counts and under every wait strategy, a run — fresh or reused —
    /// invokes the kernels in the per-worker order the mapping dictates,
    /// which is the order a worker interpreting the whole flow runs its
    /// own tasks in, and leaves the sequential oracle's store.
    #[test]
    fn elided_runs_match_interpreted_runs_and_the_oracle(
        graph in arb_graph(30, 4),
        map_seed in 0u64..1000,
    ) {
        let oracle = run_sequential(&graph);
        let configs = [
            RioConfig::with_workers(1),
            RioConfig::with_workers(2),
            RioConfig::with_workers(3),
            RioConfig::with_workers(64),
            RioConfig::with_workers(4),
        ];
        for cfg in configs {
            let mapping = arb_table_mapping(graph.len(), cfg.workers, map_seed);
            let orders = mapped_orders(&graph, &mapping, cfg.workers);
            for wait in WAITS {
                let cfg = cfg.clone().wait(wait);
                for reused in [false, true] {
                    let (store, ran) = observe(&graph, &cfg, &mapping, reused);
                    prop_assert_eq!(&ran, &orders,
                        "per-worker kernel orders diverged at {} workers, {}", cfg.workers, wait);
                    prop_assert_eq!(&store, &oracle);
                }
            }
        }
    }
}

proptest! {
    // Thirty-six runs per case.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Partial mappings on the one engine: for random flows and a random
    /// total mapping of which nothing, some or everything is left
    /// unmapped, under every wait strategy, with a recovery policy off and
    /// on (quiet tasks as ranges, and on the per-task path), on a fresh
    /// flow and a reused one — every task runs exactly once (mapped ones
    /// where they are mapped), the store is the sequential oracle's, the
    /// claims add up, and nothing is elided on an epoch a claim-marked task
    /// touches while the rest of the flow elides as it does under the total
    /// mapping.
    #[test]
    fn partial_mappings_run_every_task_exactly_once(
        graph in arb_graph(30, 4),
        workers in 1usize..5,
        map_seed in 0u64..1000,
    ) {
        let oracle = run_sequential(&graph);
        let total = arb_table_mapping(graph.len(), workers, map_seed);
        for unmapped_share in [0u64, 2, 5] {
            let claimable = |t: TaskId| left_unmapped(t, map_seed, unmapped_share);
            let partial = PartialFn(|t: TaskId, w: usize| {
                (!claimable(t)).then(|| total.worker_of(t, w))
            });
            let unmapped = graph.tasks().iter().filter(|t| claimable(t.id)).count() as u64;

            let cfg = RioConfig::with_workers(workers);
            let flow = Executor::new(cfg.clone()).hybrid(&partial).compile(&graph);
            let (marks, shared_objects) = marks_of(&flow);
            check_marks_against_the_flow(&graph, &marks, shared_objects);
            if unmapped == 0 {
                let mapped = Executor::new(cfg).mapping(&total).compile(&graph);
                let (partial, mapped) = (flow.stats(), mapped.stats());
                prop_assert_eq!(
                    (partial.elided_gets, partial.elided_publishes, partial.shared_objects),
                    (mapped.elided_gets, mapped.elided_publishes, mapped.shared_objects)
                );
            }

            for wait in WAITS {
                for hooked in [false, true] {
                    let mut cfg = RioConfig::with_workers(workers).wait(wait);
                    if hooked {
                        cfg = cfg.recovery(RecoveryPolicy::no_retries());
                    }
                    let flow = Executor::new(cfg).hybrid(&partial).compile(&graph);
                    for reused in [false, true] {
                        let store = DataStore::filled(graph.num_data(), 0u64);
                        let ran: Vec<AtomicU32> =
                            graph.tasks().iter().map(|_| AtomicU32::new(0)).collect();
                        let run = flow.run(|w: WorkerId, t: &TaskDesc| {
                            ran[t.id.index()].fetch_add(1, Ordering::Relaxed);
                            if !claimable(t.id) {
                                assert_eq!(w, total.worker_of(t.id, workers), "{} strayed", t.id);
                            }
                            hash_kernel(&store, t);
                        });
                        let how = format!(
                            "{unmapped} unmapped, {wait}, hooked={hooked}, reused={reused}"
                        );
                        prop_assert!(
                            ran.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                            "a task ran twice or never ({})", how
                        );
                        prop_assert_eq!(&store.into_vec(), &oracle, "{}", how);
                        let stats = run.hybrid.expect("a partial mapping reports its claims");
                        prop_assert_eq!(
                            stats.claimed_per_worker.iter().sum::<u64>(), unmapped,
                            "{}", how
                        );
                        let races = stats.claimed_per_worker.iter().zip(&stats.lost_races_per_worker);
                        for (won, lost) in races {
                            // Every program holds every claim-marked task.
                            prop_assert_eq!(won + lost, unmapped, "{}", how);
                        }
                    }
                }
            }
        }
    }
}

/// Which tasks a partial mapping leaves to be claimed: `share` of every
/// five, scattered by the seed.
fn left_unmapped(t: TaskId, map_seed: u64, share: u64) -> bool {
    (t.0 ^ map_seed).wrapping_mul(0x9E37_79B9) % 5 < share
}

/// The tasks a worker's program holds, as the quiet verdict must have
/// them: quiet exactly when not claim-marked and no access keeps a half.
fn check_quiet_verdicts(flow: &CompiledFlow<'_>) {
    for worker in 0..flow.config().workers {
        for ct in flow.own_tasks(WorkerId::from_index(worker)) {
            let kept =
                (0..ct.task.accesses.len()).any(|i| ct.keeps_guard(i) || ct.keeps_publication(i));
            assert_eq!(
                ct.quiet(),
                !ct.claim_marked() && !kept,
                "{} in W{worker}'s program",
                ct.task.id
            );
        }
    }
}

proptest! {
    // Sixteen flows per case, four of them on 64 threads.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Blocks change no verdict and no count: for random flows and
    /// mappings — total, and with two tasks in five left to be claimed —
    /// at 1, 2, 3 and 64 workers, a recovery policy off and on, every task
    /// is quiet exactly when it is its worker's own and keeps no half; a
    /// run — whose quiet ranges go a block at a time, unless the policy or
    /// a claim-marked task keeps them instructions — leaves the
    /// sequential oracle's store and the per-task path's books (every
    /// task executed and counted once, a get and a terminate per access);
    /// and what a block skips is safe to skip: the model checker, fed the
    /// same verdicts, walks the compiled protocol without a violation.
    #[test]
    fn quiet_verdicts_and_block_accounting_match_the_per_task_path(
        graph in arb_graph(40, 5),
        map_seed in 0u64..1000,
    ) {
        let oracle = run_sequential(&graph);
        let (tasks, accesses) = (graph.len() as u64, graph.total_accesses() as u64);
        for workers in [1usize, 2, 3, 64] {
            let total = arb_table_mapping(graph.len(), workers, map_seed);
            for unmapped_share in [0u64, 2] {
                let partial = PartialFn(|t: TaskId, w: usize| {
                    (!left_unmapped(t, map_seed, unmapped_share)).then(|| total.worker_of(t, w))
                });
                for hooked in [false, true] {
                    let mut cfg = RioConfig::with_workers(workers);
                    if hooked {
                        cfg = cfg.recovery(RecoveryPolicy::no_retries());
                    }
                    // (The watchdog takes no task off the block path; it
                    // turns a publication wrongly skipped into an error.)
                    let flow = Executor::new(cfg)
                        .hybrid(&partial)
                        .watchdog(Duration::from_secs(10))
                        .compile(&graph);
                    check_quiet_verdicts(&flow);
                    let store = DataStore::filled(graph.num_data(), 0u64);
                    let run = flow.run(|_: WorkerId, t: &TaskDesc| hash_kernel(&store, t));
                    let how = format!("{workers} workers, {unmapped_share}/5 unmapped, hooked={hooked}");
                    prop_assert_eq!(&store.into_vec(), &oracle, "{}", how);
                    prop_assert_eq!(run.report.tasks_executed(), tasks, "{}", how);
                    prop_assert_eq!(run.counters.total().tasks, tasks, "{}", how);
                    let ops = run.report.total_ops();
                    prop_assert_eq!(ops.terminates, accesses, "{}", how);
                    prop_assert_eq!(ops.gets, accesses, "{}", how);
                }
            }
            if (2..=3).contains(&workers) {
                let spec = rio::mc::ProtocolSpec::compiled(&graph, workers, &total);
                let walks = rio::mc::random_walks(&spec, 2, 100_000, map_seed);
                prop_assert!(walks.ok(), "{:?}", walks.violations);
                prop_assert_eq!((walks.completed, walks.truncated), (2, 0));
            }
        }
    }
}

/// How stale a live observer's picture of a worker inside a quiet range
/// can get: a block flushes its counters at every 1024th task, so a sample
/// taken from the body of task 5 000 of a 10 000-task range sees all but
/// the chunk in progress — and after the run, all of them.
#[test]
fn live_counters_lag_a_quiet_stretch_by_less_than_one_block() {
    const BLOCK: u64 = 1024;
    let n = 10_000;
    let g = rio::workloads::independent::graph_private_data(n);
    let registry = Arc::new(CounterRegistry::new(1));
    let cfg = RioConfig::with_workers(1).counter_registry(Arc::clone(&registry));
    let flow = Executor::new(cfg).mapping(&RoundRobin).compile(&g);
    assert!(flow.own_tasks(WorkerId(0)).all(|t| t.quiet()));
    let seen = AtomicU32::new(u32::MAX);
    let run = flow.run(|_, t: &TaskDesc| {
        if t.id == TaskId(5_000) {
            seen.store(registry.snapshot().total().tasks as u32, Ordering::Relaxed);
        }
    });
    let seen = u64::from(seen.load(Ordering::Relaxed));
    assert!(
        (5_000 - BLOCK..5_000).contains(&seen),
        "{seen} tasks counted while the 5 000th ran"
    );
    assert_eq!(seen % BLOCK, 0, "flushed a whole block at a time");
    assert_eq!(registry.snapshot().total().tasks, n as u64);
    assert_eq!(run.counters.total().tasks, n as u64);

    // After an abort inside a block, the bodies that finished are counted
    // and the one that panicked is not.
    registry.reset();
    let err = flow
        .try_run(|_, t: &TaskDesc| {
            if t.id == TaskId(5_000) {
                panic!("boom");
            }
        })
        .expect_err("the panic aborts the run");
    assert_eq!(err.kind(), "task-panicked");
    let total = registry.snapshot().total();
    assert_eq!((total.tasks, total.aborts), (4_999, 1));
}

/// Where the workers run: worker 0 on the thread that called `run` — a run
/// starts one thread fewer than it has workers, and on a machine with as
/// many cores as workers no thread is left over for the scheduler to place
/// — and every other worker on a thread of its own. Workers that are to be
/// pinned all get their own thread: the caller's affinity stays as it was.
/// Either way each worker stays on one thread and the store is the
/// sequential one.
#[test]
fn worker_zero_runs_on_the_calling_thread_unless_workers_are_pinned() {
    let g = rio::workloads::cholesky::graph(4, 1);
    let oracle = run_sequential(&g);
    let caller = std::thread::current().id();
    for (workers, pinned) in [(1, false), (3, false), (3, true)] {
        let cfg = RioConfig::with_workers(workers).pin_workers(pinned);
        let flow = Executor::new(cfg).mapping(&RoundRobin).compile(&g);
        let threads = Mutex::new(vec![Vec::new(); workers]);
        let store = DataStore::filled(g.num_data(), 0u64);
        flow.run(|w, t: &TaskDesc| {
            threads.lock().unwrap()[w.index()].push(std::thread::current().id());
            hash_kernel(&store, t);
        });
        assert_eq!(store.into_vec(), oracle);
        let threads = threads.into_inner().unwrap();
        for (w, ids) in threads.iter().enumerate() {
            assert!(ids.iter().all(|id| *id == ids[0]), "W{w} changed threads");
            assert_eq!(
                ids[0] == caller,
                w == 0 && !pinned,
                "W{w}, pinned: {pinned}"
            );
        }
    }
}

/// The worker set (`rio_core`'s `pool.rs`): one run of `flow` under the
/// hashing kernel, checked against `oracle`; returns the thread each
/// worker ran on. `first` additionally runs before worker 0's first task.
fn threads_of_a_run(
    flow: &CompiledFlow<'_>,
    oracle: &[u64],
    first: impl Fn() + Sync,
) -> Vec<std::thread::ThreadId> {
    let g = flow.graph();
    let threads = Mutex::new(vec![None; flow.config().workers]);
    let store = DataStore::filled(g.num_data(), 0u64);
    flow.run(|w, t: &TaskDesc| {
        let me = std::thread::current().id();
        if threads.lock().unwrap()[w.index()].replace(me).is_none() && w.index() == 0 {
            first();
        }
        hash_kernel(&store, t);
    });
    assert_eq!(store.into_vec(), oracle);
    let threads = threads.into_inner().unwrap();
    threads
        .into_iter()
        .map(|t| t.expect("ran a task"))
        .collect()
}

/// A set thread is the same OS thread run after run, for every flow of
/// its executor — and for a flow that outlives the executor.
#[test]
fn worker_set_threads_outlive_the_run_and_the_executor() {
    let g = rio::workloads::cholesky::graph(4, 1);
    let oracle = run_sequential(&g);
    let caller = std::thread::current().id();
    let exec = Executor::new(RioConfig::with_workers(3)).mapping(&RoundRobin);
    let (flow, sibling) = (exec.compile(&g), exec.compile(&g));
    let first = threads_of_a_run(&flow, &oracle, || {});
    assert_eq!(first[0], caller);
    assert!(first[1] != caller && first[2] != caller && first[1] != first[2]);
    drop(exec);
    for flow in [&flow, &sibling, &flow] {
        assert_eq!(threads_of_a_run(flow, &oracle, || {}), first);
    }
}

/// Two runs in flight on one executor — one flow from two threads, then
/// two flows — both finish with the oracle's store: one on the set, the
/// other on threads of its own rather than behind it. (Each run's worker
/// 0 waits for the other's before its first task, so a run that queued
/// behind the other would hang here.) Two runs of one flow in which
/// every task is claim-marked each run every task exactly once: each
/// claims through a table of its own.
#[test]
fn worker_set_busy_means_a_transient_set_not_a_queue() {
    let g = rio::workloads::cholesky::graph(4, 1);
    let oracle = run_sequential(&g);
    let exec = Executor::new(RioConfig::with_workers(2)).mapping(&RoundRobin);
    let (a, b) = (exec.compile(&g), exec.compile(&g));
    let resident = threads_of_a_run(&a, &oracle, || {})[1];
    for pair in [[&a, &a], [&a, &b]] {
        let gate = std::sync::Barrier::new(2);
        let on_w1: Vec<_> = std::thread::scope(|s| {
            let runs = pair.map(|flow| {
                s.spawn(|| {
                    threads_of_a_run(flow, &oracle, || {
                        gate.wait();
                    })[1]
                })
            });
            runs.map(|r| r.join().unwrap()).into()
        });
        assert_ne!(on_w1[0], on_w1[1]);
        assert_eq!(on_w1.iter().filter(|t| **t == resident).count(), 1);
    }
    // Whoever claims T1 waits there for the other run to claim its own.
    let claimed = exec.clone().hybrid(&Unmapped).compile(&g);
    let gate = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let ran: Vec<AtomicU32> = g.tasks().iter().map(|_| AtomicU32::new(0)).collect();
                let store = DataStore::filled(g.num_data(), 0u64);
                claimed.run(|_, t: &TaskDesc| {
                    if t.id == TaskId(1) {
                        gate.wait();
                    }
                    ran[t.id.index()].fetch_add(1, Ordering::Relaxed);
                    hash_kernel(&store, t);
                });
                assert!(ran.iter().all(|n| n.load(Ordering::Relaxed) == 1));
                assert_eq!(store.into_vec(), oracle);
            });
        }
    });
    // The set is whole again.
    assert_eq!(threads_of_a_run(&b, &oracle, || {})[1], resident);
}

/// A kernel that runs a flow of its own executor — on the calling thread
/// (worker 0) and on a set thread (worker 1) — completes.
#[test]
fn worker_set_runs_nest() {
    let g = rio::workloads::cholesky::graph(4, 1);
    let oracle = run_sequential(&g);
    let exec = Executor::new(RioConfig::with_workers(2)).mapping(&RoundRobin);
    let (outer, inner) = (exec.compile(&g), exec.compile(&g));
    let store = DataStore::filled(g.num_data(), 0u64);
    let nested = AtomicU32::new(0);
    outer.run(|_, t: &TaskDesc| {
        if t.id.0 <= 2 {
            threads_of_a_run(&inner, &oracle, || {});
            nested.fetch_add(1, Ordering::Relaxed);
        }
        hash_kernel(&store, t);
    });
    assert_eq!(store.into_vec(), oracle);
    assert_eq!(nested.load(Ordering::Relaxed), 2);
}

/// Counts its drops: planted in a thread-local, it fires when the thread
/// exits.
struct Planted(Arc<AtomicU32>);

impl Drop for Planted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

thread_local! {
    static PLANTED: std::cell::RefCell<Option<Planted>> = const { std::cell::RefCell::new(None) };
}

/// Threads start with the first run, not with the executor, and have
/// exited by the time the last owner's drop returns.
#[test]
fn worker_set_starts_lazily_and_is_joined_by_its_last_owner() {
    let g = rio::workloads::cholesky::graph(4, 1);
    // No other test of this binary runs a hundred workers.
    #[cfg(target_os = "linux")]
    {
        let named = |name: &str| {
            let tasks = std::fs::read_dir("/proc/self/task").unwrap();
            let comm = |t: std::io::Result<std::fs::DirEntry>| {
                std::fs::read_to_string(t.ok()?.path().join("comm")).ok()
            };
            tasks.filter_map(comm).any(|c| c.trim() == name)
        };
        let exec = Executor::new(RioConfig::with_workers(100));
        let flow = exec.compile(&g);
        assert!(!named("rio-w99"), "compiling starts no thread");
        flow.run(|_, _| {});
        assert!(named("rio-w99"), "the first run starts them, by name");
        drop((exec, flow));
        assert!(!named("rio-w99"));
    }
    let fired = Arc::new(AtomicU32::new(0));
    let exec = Executor::new(RioConfig::with_workers(3)).mapping(&RoundRobin);
    let flow = exec.compile(&g);
    flow.run(|w, _| {
        if w.index() > 0 {
            PLANTED.with(|p| {
                p.borrow_mut()
                    .get_or_insert_with(|| Planted(Arc::clone(&fired)));
            });
        }
    });
    drop(exec);
    assert_eq!(fired.load(Ordering::SeqCst), 0, "the flow owns the set too");
    drop(flow);
    assert_eq!(fired.load(Ordering::SeqCst), 2, "both threads have exited");
}

/// With no spin budget an idle set thread goes to sleep at once — and the
/// next launch wakes it: the futex path, which a budgeted spin only takes
/// when the gap between two runs is long enough.
#[cfg(target_os = "linux")]
#[test]
fn worker_set_sleeps_between_runs_and_wakes_for_the_next() {
    let g = rio::workloads::cholesky::graph(4, 1);
    let oracle = run_sequential(&g);
    let cfg = RioConfig::with_workers(2).spin_limit(0);
    let flow = Executor::new(cfg).mapping(&RoundRobin).compile(&g);
    let stat = Mutex::new(None);
    flow.run(|w, _| {
        if w.index() == 1 {
            let me = std::fs::read_link("/proc/thread-self").unwrap();
            *stat.lock().unwrap() = Some(std::path::Path::new("/proc").join(me).join("stat"));
        }
    });
    let stat = stat.into_inner().unwrap().expect("worker 1 ran a task");
    let asleep = || {
        let line = std::fs::read_to_string(&stat).unwrap();
        line.rsplit(')')
            .next()
            .unwrap()
            .trim_start()
            .starts_with('S')
    };
    let resident = threads_of_a_run(&flow, &oracle, || {})[1];
    for _ in 0..3 {
        let patience = std::time::Instant::now();
        while !asleep() {
            assert!(patience.elapsed() < Duration::from_secs(10), "still awake");
            std::thread::yield_now();
        }
        assert_eq!(threads_of_a_run(&flow, &oracle, || {})[1], resident);
    }
}

/// A set thread that finds itself on its launcher's CPU steps off it — a
/// placement, not a pin: whatever it did, it may still run wherever the
/// caller may. (No spin budget, so every launch is a wake-up: the case in
/// which Linux stacks the woken thread on its waker's CPU.)
#[cfg(target_os = "linux")]
#[test]
fn worker_set_threads_keep_the_callers_affinity_mask() {
    let allowed = || {
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("Cpus_allowed_list:"));
        line.expect("the kernel reports the mask").to_string()
    };
    let g = rio::workloads::cholesky::graph(4, 1);
    let cfg = RioConfig::with_workers(2).spin_limit(0);
    let flow = Executor::new(cfg).mapping(&RoundRobin).compile(&g);
    let mine = allowed();
    for _ in 0..20 {
        let seen = Mutex::new(None);
        flow.run(|w, _| {
            if w.index() == 1 {
                seen.lock().unwrap().get_or_insert_with(allowed);
            }
        });
        assert_eq!(seen.into_inner().unwrap(), Some(mine.clone()));
        std::thread::sleep(Duration::from_micros(300));
    }
}
