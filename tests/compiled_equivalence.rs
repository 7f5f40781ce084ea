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
//! dependencies, derived here from the graph alone, and every flow a
//! proptest compiles passes the static validator (`validator`), as compiled
//! and reduced by its covered guards where its mapping is total.

mod validator;

use proptest::prelude::*;
use rio::core::hybrid::{PartialFn, Total, Unmapped};
use rio::core::protocol::{
    declare_batch, expected_read_word, expected_write_word, terminate_read, terminate_write,
    LocalDataState, SharedDataState, READ_EPOCH_MASK,
};
use rio::core::{
    CompiledFlow, CompiledTask, CounterRegistry, Executor, RecoveryPolicy, RioConfig, TraceConfig,
    WaitStrategy,
};
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
/// a task against the compiled program: a kept guard's precomputed word
/// must be the private view the walk holds at that access, which is what
/// both of its guards compare, and an elided guard — every one of a quiet
/// task, of a range — has no word at all.
fn check_program_against_interpreted_view(
    graph: &TaskGraph,
    cfg: &RioConfig,
    mapping: &TableMapping,
    worker: WorkerId,
) {
    let flow = Executor::new(cfg.clone()).mapping(mapping).compile(graph);
    validated(&flow);
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
        for (i, a) in t.accesses.iter().enumerate() {
            let kept = compiled.keeps_guard(i);
            assert!(!kept || !compiled.quiet(), "{}", t.id);
            let Some(word) = compiled.expected(i) else {
                assert!(!kept, "{} on {}: a kept guard has no word", t.id, a.data);
                continue;
            };
            assert!(
                kept,
                "{} on {}: a word behind an elided guard",
                t.id, a.data
            );
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

/// Runs the validator on `flow` — and, for a total mapping, the oracle's
/// checks ([`validator::check`]): the local rule exactly, the flow reduced
/// by its covered guards valid too.
fn validated(flow: &CompiledFlow<'_>) {
    let total = validator::Marks::of(flow).owner.iter().all(Option::is_some);
    if total {
        validator::check(flow);
    } else {
        validator::assert_valid(flow, "a partial mapping");
    }
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
    /// with a kept half, and the validator accepts the flow (reduced by its
    /// covered guards too). No setting disables elision or ranges: with every
    /// per-task hook armed, tracing included, the program — its ranges,
    /// words, marks and counts — is the default config's, and so is the
    /// program of the same mapping handed over as a partial one.
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
            validated(&flow);
            if cfg.workers == 1 {
                prop_assert!(marks.iter().flatten().all(|m| !m.guard && !m.publish));
                prop_assert_eq!(shared_objects, 0);
            }
            let hooked = with_every_hook(cfg.clone()).trace(TraceConfig::new());
            let hooked = Executor::new(hooked).mapping(&mapping).compile(&graph);
            let counts = |f: &CompiledFlow<'_>| {
                let s = f.stats();
                (s.elided_gets, s.elided_publishes, s.shared_objects)
            };
            prop_assert_eq!(counts(&hooked), counts(&flow));
            prop_assert_eq!(marks_of(&hooked), (marks, shared_objects));
            // One program, whatever a run arms, and whatever kind of
            // mapping puts every task on the same worker.
            prop_assert_eq!(compiled_shape(&hooked), compiled_shape(&flow));
            let dressed = Executor::new(cfg).hybrid(&Total(&mapping)).compile(&graph);
            prop_assert_eq!(compiled_shape(&dressed), compiled_shape(&flow));
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
        validated(&flow);

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
            validated(&Executor::new(cfg.clone()).mapping(&mapping).compile(&graph));
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
    /// on (quiet tasks run as ranges either way: a policy keeps the
    /// blocks), on a fresh flow and a reused one — every task runs exactly once (mapped ones
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
            validated(&flow);
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
    /// run — whose quiet ranges go a block at a time with the policy or
    /// without it, and whose claim-marked tasks, never quiet, stay
    /// instructions — leaves the
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
                    validated(&flow);
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
/// — and every other worker on a thread of its own. Each worker stays on
/// one thread and the store is the sequential one.
#[test]
fn worker_zero_runs_on_the_calling_thread() {
    let g = rio::workloads::cholesky::graph(4, 1);
    let oracle = run_sequential(&g);
    let caller = std::thread::current().id();
    for workers in [1, 3] {
        let cfg = RioConfig::with_workers(workers);
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
            assert_eq!(ids[0] == caller, w == 0, "W{w} of {workers}");
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

/// `Executor::try_run` nudges its set before it compiles: a set thread
/// asleep since the last run wakes without a launch and waits anew. With no
/// spin budget it sleeps again at once — and still takes the next launch,
/// on the same thread, even after a nudge whose compile failed and so
/// launched nothing; and the nudged set shuts down with its last owner.
#[cfg(target_os = "linux")]
#[test]
fn worker_set_nudged_threads_take_the_next_launch_and_shut_down() {
    let g = rio::workloads::cholesky::graph(4, 1);
    let oracle = run_sequential(&g);
    let exec = Executor::new(RioConfig::with_workers(2).spin_limit(0)).mapping(&RoundRobin);
    let (fired, resident) = (Arc::new(AtomicU32::new(0)), Mutex::new(None));
    let run = |exec: &Executor<'_>| {
        let store = DataStore::filled(g.num_data(), 0u64);
        let run = exec.try_run(&g, |w, t: &TaskDesc| {
            if w.index() == 1 {
                let me = std::thread::current().id();
                assert_eq!(*resident.lock().unwrap().get_or_insert(me), me);
                PLANTED.with(|p| {
                    p.borrow_mut()
                        .get_or_insert_with(|| Planted(Arc::clone(&fired)));
                });
            }
            hash_kernel(&store, t);
        });
        run.expect("a run");
        assert_eq!(store.into_vec(), oracle);
    };
    let short = rio::stf::TableMapping::from_fn(1, |_| WorkerId(0));
    for _ in 0..3 {
        run(&exec);
        std::thread::sleep(Duration::from_millis(2));
        // Nudged, then no launch: the compile rejects the mapping.
        let err = exec.clone().mapping(&short).try_run(&g, |_, _| {});
        assert_eq!(err.expect_err("a short table").kind(), "invalid-mapping");
    }
    run(&exec);
    assert!(
        resident.into_inner().unwrap().is_some(),
        "worker 1 ran tasks"
    );
    drop(exec);
    assert_eq!(
        fired.load(Ordering::SeqCst),
        1,
        "worker 1's thread has exited"
    );
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

/// Two members of a would-be range of worker 0 keep a half: task 10 writes
/// `D0`, which worker 1 reads next; task `n − 100` reads `D1`, which worker
/// 1 wrote first — in a later segment than the read, where the compile
/// splits (8 200 tasks at 2 workers, on a host with two CPUs). Each is an
/// instruction — the first keeping its publication and no guard, the second
/// its guard, whose word is `D1`'s first write — and every other task of
/// worker 0, each rewriting `D2`, is quiet.
#[test]
fn a_quiet_range_is_cut_exactly_at_the_members_that_keep_a_half() {
    let n = 8200;
    let access = |i: usize| match i {
        1 => Access::write(DataId(1)),
        10 => Access::write(DataId(0)),
        13 => Access::read(DataId(0)),
        _ if i == n - 100 => Access::read(DataId(1)),
        _ => Access::write(DataId(2 + i as u32 % 2)),
    };
    let mut b = TaskGraph::builder(4);
    for i in 0..n {
        b.task(&[access(i)], 1, "t");
    }
    let g = b.build();
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&RoundRobin)
        .compile(&g);
    validator::assert_valid(&flow, "a range cut twice");
    let first_write_of_d1 = rio::core::protocol::pack_epoch(TaskId(2), 0);
    for t in flow.own_tasks(WorkerId(0)) {
        let (i, kept) = (
            t.task.id.index(),
            (t.keeps_guard(0), t.keeps_publication(0)),
        );
        match i {
            10 => assert_eq!(
                (t.quiet(), kept, t.expected(0)),
                (false, (false, true), None)
            ),
            _ if i == n - 100 => {
                let word = Some(first_write_of_d1);
                assert_eq!((t.quiet(), kept.0, t.expected(0)), (false, true, word));
            }
            _ => assert!(t.quiet(), "task {i} is quiet"),
        }
    }
}

/// What a compile produced, as far as the public surface shows it.
fn compiled_shape(flow: &CompiledFlow<'_>) -> String {
    let programs: Vec<Vec<_>> = (0..flow.config().workers)
        .map(|w| {
            let own = flow.own_tasks(WorkerId::from_index(w));
            let words = |t: &CompiledTask<'_>| {
                (0..t.task.accesses.len())
                    .map(|i| t.expected(i))
                    .collect::<Vec<_>>()
            };
            own.map(|t| (t.task.id, words(&t), t.quiet())).collect()
        })
        .collect();
    format!("{:?} {programs:?}", flow.stats())
}

/// A compile that splits its walk walks on its executor's own set — the
/// threads its runs use, started by the first compile that splits. One
/// that cannot split (a partial mapping; or a set busy with the very run
/// whose kernel compiles) walks on the calling thread alone, never on
/// threads of its own. Either way the flow is the same.
#[test]
fn segmented_compile_walks_on_the_set_its_runs_use_or_on_the_caller() {
    use std::collections::BTreeSet;
    let g = rio::workloads::cholesky::graph(40, 1);
    assert!(g.len() >= 2 * 4096, "long enough to split two ways");
    let roomy = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    let me = || {
        let t = std::thread::current();
        (t.id(), t.name().map(str::to_owned))
    };
    let probed = Mutex::new(BTreeSet::new());
    let walked = || std::mem::take(&mut *probed.lock().unwrap());
    let m = rio::stf::mapping::FnMapping(|t: TaskId, w: usize| {
        probed.lock().unwrap().insert(format!("{:?}", me()));
        WorkerId::from_index(t.index() % w)
    });
    let mut shapes = BTreeSet::new();
    let exec = Executor::new(RioConfig::with_workers(2)).mapping(&m);
    let flow = exec.compile(&g);
    let on = walked();
    let ran = Mutex::new(BTreeSet::new());
    flow.run(|_, _| {
        ran.lock().unwrap().insert(format!("{:?}", me()));
    });
    let ran = ran.into_inner().unwrap();
    if roomy {
        assert_eq!(on, ran);
        assert!(on.iter().any(|t| t.contains("rio-w1")), "{on:?}");
    } else {
        assert_eq!(on, BTreeSet::from([format!("{:?}", me())]));
    }
    shapes.insert(compiled_shape(&flow));
    // Inside a run of the set, a compile on the same set walks alone.
    let nested = Mutex::new(None);
    let small = rio::workloads::cholesky::graph(2, 1);
    let outer = exec.compile(&small);
    walked();
    outer.run(|w, _| {
        if w.index() == 0 && nested.lock().unwrap().is_none() {
            let flow = exec.compile(&g);
            *nested.lock().unwrap() = Some((walked(), me(), compiled_shape(&flow)));
        }
    });
    let (on, kernel, shape) = nested.into_inner().unwrap().expect("worker 0 ran a task");
    assert_eq!(on, BTreeSet::from([format!("{kernel:?}")]));
    shapes.insert(shape);
    // A partial mapping is walked whole, on the caller.
    let partial = PartialFn(|t: TaskId, w: usize| {
        probed.lock().unwrap().insert(format!("{:?}", me()));
        (!t.0.is_multiple_of(5)).then(|| WorkerId::from_index(t.index() % w))
    });
    let _ = Executor::new(RioConfig::with_workers(2))
        .hybrid(&partial)
        .compile(&g);
    assert_eq!(walked(), BTreeSet::from([format!("{:?}", me())]));
    assert_eq!(shapes.len(), 1, "one flow, however it was walked");
}

/// A flow of single-access tasks on one object, per `(mode, worker)`.
fn one_object(accesses: &[(char, u32)]) -> (TaskGraph, TableMapping) {
    let mut b = TaskGraph::builder(1);
    for &(mode, _) in accesses {
        let a = if mode == 'r' {
            Access::read(DataId(0))
        } else {
            Access::write(DataId(0))
        };
        b.task(&[a], 1, "t");
    }
    (
        b.build(),
        TableMapping::new(accesses.iter().map(|&(_, w)| WorkerId(w)).collect()),
    )
}

#[test]
fn kept_and_elided_epochs_of_one_object_mix() {
    // D0: two epochs on W0 alone, one that W1 reads, a remote
    // overwrite, and W1 alone again — stale words in between are
    // overwritten by the next kept write before anyone compares.
    let plan = [
        ('w', 0),
        ('r', 0),
        ('w', 0),
        ('r', 0), // W0 only
        ('w', 0),
        ('r', 1),
        ('r', 0), // T5 publishes for T6
        ('w', 1), // waits for T5, T6, T7
        ('r', 1),
        ('w', 1),
        ('r', 1), // W1 only
    ];
    let (g, m) = one_object(&plan);
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .compile(&g);
    // `(guard kept, publication kept)` per task.
    let mut marks = vec![(false, false); g.len()];
    for w in 0..2 {
        for t in flow.own_tasks(WorkerId(w)) {
            marks[t.task.id.index()] = (t.keeps_guard(0), t.keeps_publication(0));
        }
    }
    let (elided, guard, publish, kept) =
        ((false, false), (true, false), (false, true), (true, true));
    let expect = [
        elided, elided, elided, elided, publish, kept, publish, guard, elided, elided, elided,
    ];
    assert_eq!(marks, expect);
    for wait in [WaitStrategy::Spin, WaitStrategy::Park] {
        let flow = Executor::new(RioConfig::with_workers(2).wait(wait))
            .mapping(&m)
            .compile(&g);
        let store = DataStore::from_vec(vec![0u64]);
        let sums = std::sync::atomic::AtomicU64::new(0);
        flow.run(|_, t| {
            if t.accesses[0].mode.writes() {
                *store.write(DataId(0)) = t.id.0;
            } else {
                sums.fetch_add(*store.read(DataId(0)), Ordering::Relaxed);
            }
        });
        // Each read saw its epoch's writer: T2→1, T4→3, T6/T7→5, T9→8, T11→10.
        assert_eq!(
            sums.load(Ordering::Relaxed),
            1 + 3 + 5 + 5 + 8 + 10,
            "{wait}"
        );
        assert_eq!(store.into_vec(), vec![10]);
    }
}

#[test]
fn compiled_run_matches_interpreted_results() {
    // Mixed mesh over 4 data objects — task `i` reads `D_(i % 4)` and
    // writes `D_((i / 2) % 4)`: a one-shot, and a reused flow's second
    // run, must leave the store the flow leaves when interpreted task by
    // task in flow order.
    let mut b = TaskGraph::builder(4);
    for i in 0..200u32 {
        match (DataId(i % 4), DataId((i / 2) % 4)) {
            (r, w) if r == w => b.task(&[Access::read_write(w)], 1, "t"),
            (r, w) => b.task(&[Access::read(r), Access::write(w)], 1, "t"),
        };
    }
    let g = b.build();
    let cfg = RioConfig::with_workers(3).wait(WaitStrategy::Park);
    // 0: sequential; 1: one-shot; 2: reused flow.
    let run_store = |how: u8| {
        let store = DataStore::filled(4, 0u64);
        let body = |t: &TaskDesc| {
            let seen: u64 = t.reads().map(|d| *store.read(d)).sum();
            for d in t.writes() {
                *store.write(d) = seen.wrapping_mul(31) + u64::from(d.0) + t.id.0;
            }
        };
        let kernel = |_: WorkerId, t: &TaskDesc| body(t);
        match how {
            0 => drop(rio::stf::sequential::run_graph(&g, |id| body(g.task(id)))),
            1 => drop(
                Executor::new(cfg.clone())
                    .mapping(&RoundRobin)
                    .run(&g, kernel),
            ),
            _ => {
                let flow = Executor::new(cfg.clone()).mapping(&RoundRobin).compile(&g);
                flow.run(|_, _| {});
                flow.run(kernel);
            }
        }
        store.into_vec()
    };
    assert_eq!(run_store(1), run_store(0));
    assert_eq!(run_store(2), run_store(0));
}

/// `(guard kept, publication kept)` of every own access, per task in flow
/// order.
fn pairs(flow: &CompiledFlow<'_>) -> Vec<Vec<(bool, bool)>> {
    let (marks, _) = marks_of(flow);
    marks
        .iter()
        .map(|m| m.iter().map(|m| (m.guard, m.publish)).collect())
        .collect()
}

const KEPT: (bool, bool) = (true, true);
const GUARD: (bool, bool) = (true, false);
const PUBLISH: (bool, bool) = (false, true);
const ELIDED: (bool, bool) = (false, false);

#[test]
fn private_objects_share_nothing() {
    // Every object is touched once: a first write of an untouched
    // object waits for nobody, and nobody waits for it — whatever the
    // mapping. The run allocates no word at all.
    let n = 40;
    let g = rio::workloads::independent::graph_private_data(n);
    let flow = Executor::new(RioConfig::with_workers(4))
        .mapping(&RoundRobin)
        .compile(&g);
    let stats = flow.stats();
    assert_eq!((stats.elided_gets, stats.elided_publishes), (40, 40));
    assert_eq!(stats.shared_objects, 0);
    let store = DataStore::filled(n, 0u64);
    let run = flow.run(|_, t| *store.write(t.accesses[0].data) = t.id.0);
    assert_eq!(store.into_vec(), (1..=n as u64).collect::<Vec<_>>());
    // The books still count every access, and no terminate ran a wake.
    let ops = run.report.total_ops();
    assert_eq!((ops.gets, ops.terminates, ops.waits), (40, 40, 0));
    assert_eq!(run.counters.total().wakes_elided, 40);
}

#[test]
fn one_workers_chain_is_all_program_order() {
    // Reads and writes of one object, all on W1 of two.
    let (g, m) = one_object(&[('w', 1), ('r', 1), ('r', 1), ('w', 1), ('r', 1)]);
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .compile(&g);
    assert_eq!(pairs(&flow), vec![vec![ELIDED]; 5]);
    assert_eq!(flow.stats().shared_objects, 0);
    // So all five are one quiet range, with no word left to compare.
    assert!(flow.own_tasks(WorkerId(1)).all(|t| t.quiet()));
    assert_eq!(flow.stats().program_len, 1);
}

#[test]
fn initial_epoch_reads_publish_once_a_remote_writer_waits_for_them() {
    // No writer to wait for: both reads elide their guard, wherever
    // they run. T3 (W1) must wait for T1 (W0), and its guard compares
    // the whole word — so T2, on its own worker, publishes too.
    let (g, m) = one_object(&[('r', 0), ('r', 1), ('w', 1)]);
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .compile(&g);
    assert_eq!(pairs(&flow), [[PUBLISH], [PUBLISH], [GUARD]]);
    assert_eq!(flow.stats().shared_objects, 1);
    assert_eq!(
        (flow.stats().elided_gets, flow.stats().elided_publishes),
        (2, 1)
    );
    // With the first writer on the readers' worker instead, nothing
    // of the epoch is shared.
    let (g, m) = one_object(&[('r', 0), ('r', 0), ('w', 0)]);
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .compile(&g);
    assert_eq!(pairs(&flow), vec![vec![ELIDED]; 3]);
}

#[test]
fn readers_split_across_the_next_writers_worker_and_another() {
    // T3 (W1) waits for T1; T4 (W0) waits for T3 — and thereby for
    // the count T2, its own worker's read, must add to.
    let (g, m) = one_object(&[('w', 0), ('r', 0), ('r', 1), ('w', 0)]);
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .compile(&g);
    assert_eq!(pairs(&flow), [[PUBLISH], [PUBLISH], [KEPT], [GUARD]]);
    let store = DataStore::from_vec(vec![0u64]);
    flow.run(|_, t| match t.id.0 {
        1 => *store.write(DataId(0)) = 5,
        4 => *store.write(DataId(0)) += 1,
        _ => assert_eq!(*store.read(DataId(0)), 5),
    });
    assert_eq!(store.into_vec(), vec![6]);
}

#[test]
fn the_last_epochs_reads_publish_for_nobody() {
    // T3 (W1) keeps its guard, so T1 publishes; no writer follows.
    let (g, m) = one_object(&[('w', 0), ('r', 0), ('r', 1)]);
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .compile(&g);
    assert_eq!(pairs(&flow), [[PUBLISH], [ELIDED], [GUARD]]);
    assert_eq!(flow.stats().shared_objects, 1);
    // The open epoch's words were restored when the flow ended.
    let t3 = flow.own_tasks(WorkerId(1)).next().unwrap();
    assert_eq!(
        t3.expected(0),
        Some(rio::core::protocol::pack_epoch(TaskId(1), 1))
    );
}

/// `n` read-write tasks over `data` objects, task `i` on `D_(i % data)`.
fn rw_chain(n: usize, data: u32) -> TaskGraph {
    let mut b = TaskGraph::builder(data as usize);
    for i in 0..n as u32 {
        b.task(&[Access::read_write(DataId(i % data))], 1, "t");
    }
    b.build()
}

#[test]
fn programs_hold_own_tasks_only() {
    // Whatever the dependency shape, a worker's program is its own
    // tasks in flow order: independent data or one shared chain give
    // the same instruction counts.
    let n = 40;
    let independent = rio::workloads::independent::graph_private_data(n);
    for g in [independent, rw_chain(n, 1)] {
        let flow = Executor::new(RioConfig::with_workers(4)).compile(&g);
        let stats = flow.stats();
        assert_eq!(stats.runs_per_worker, vec![10; 4]);
        assert_eq!(stats.instructions(), g.len());
        assert_eq!(stats.folded_declares, 0);
        assert_eq!(stats.coalesce_factor(), 0.0);
        // 4 workers × 30 foreign single-access tasks each: what
        // unrolling the whole flow on every worker would pay in
        // private declares.
        assert_eq!(stats.irrelevant_declares, 120);
        for w in 0..4 {
            let mine: Vec<usize> = (0..n).filter(|i| i % 4 == w).collect();
            let prog = flow.own_tasks(WorkerId::from_index(w));
            assert_eq!(prog.map(|t| t.task.id.index()).collect::<Vec<_>>(), mine);
        }
    }
}

#[test]
fn long_foreign_stretches_cost_the_owner_nothing() {
    // W0 owns only the first and last task; the 98 tasks between are
    // W1's, all on the same datum. W0's program is two instructions,
    // and its last task's expected word already accounts for all 98.
    let n = 100;
    let g = rw_chain(n, 1);
    let m = TableMapping::from_fn(n, |i| WorkerId(u32::from(!(i == 0 || i == n - 1))));
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .compile(&g);
    assert_eq!(flow.stats().runs_per_worker, vec![2, 98]);
    assert_eq!(flow.stats().irrelevant_declares, 98 + 2);
    let last = flow.own_tasks(WorkerId(0)).last().unwrap();
    assert_eq!(last.task.id, TaskId(100));
    let want = rio::core::protocol::pack_epoch(TaskId(99), 0);
    assert_eq!(last.expected(0), Some(want));
    // And the run is correct.
    let store = DataStore::from_vec(vec![0u64]);
    let run = flow.run(|_, _| *store.write(DataId(0)) += 1);
    assert_eq!(store.into_vec(), vec![n as u64]);
    assert_eq!(run.report.workers[0].tasks_visited, 2);
}

#[test]
fn foreign_reads_land_in_the_next_writers_expected_word() {
    // T1 (W0) writes; T2..T9 (W1) read; T10 (W0) writes again. W0's
    // program: Run(T1), Run(T10) — the 8 reads are in T10's word.
    let mut b = TaskGraph::builder(1);
    b.task(&[Access::write(DataId(0))], 1, "w");
    for _ in 0..8 {
        b.task(&[Access::read(DataId(0))], 1, "r");
    }
    b.task(&[Access::write(DataId(0))], 1, "w2");
    let g = b.build();
    let m = TableMapping::from_fn(10, |i| WorkerId(u32::from(!(i == 0 || i == 9))));
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .compile(&g);
    let last = flow.own_tasks(WorkerId(0)).last().unwrap();
    let want = rio::core::protocol::pack_epoch(TaskId(1), 8);
    assert_eq!(last.expected(0), Some(want));
    let store = DataStore::from_vec(vec![0u64]);
    let seen = AtomicU32::new(0);
    flow.run(|_, t| match t.kind {
        "w" => *store.write(DataId(0)) = 42,
        "r" => {
            assert_eq!(*store.read(DataId(0)), 42);
            seen.fetch_add(1, Ordering::Relaxed);
        }
        "w2" => *store.write(DataId(0)) = 7,
        _ => unreachable!(),
    });
    assert_eq!(seen.load(Ordering::Relaxed), 8);
    assert_eq!(store.into_vec(), vec![7]);
}

#[test]
fn hybrid_executors_compile_once_and_rerun() {
    // Two RW chains; compile once, run three times, under a fully
    // dynamic mapping and a mixed one (every third task pinned to W1).
    let g = rw_chain(90, 2);
    let mixed = PartialFn(|t: TaskId, _| t.0.is_multiple_of(3).then_some(WorkerId(1)));
    let partials: [(&dyn rio::core::PartialMapping, usize); 2] = [(&Unmapped, 90), (&mixed, 60)];
    for (partial, unmapped) in partials {
        let flow = Executor::new(RioConfig::with_workers(3))
            .hybrid(partial)
            .compile(&g);
        // A claim-marked task is in every program, a pinned one in
        // its worker's.
        let pinned = 90 - unmapped;
        assert_eq!(
            flow.stats().runs_per_worker,
            [unmapped, unmapped + pinned, unmapped]
        );
        let claim_marked = flow.own_tasks(WorkerId(0)).filter(|t| t.claim_marked());
        assert_eq!(claim_marked.count(), unmapped);
        let store = DataStore::from_vec(vec![0u64, 0]);
        for _ in 0..3 {
            let run = flow.run(|_, t| *store.write(t.accesses[0].data) += 1);
            assert_eq!(run.report.tasks_executed(), 90);
            let stats = run.hybrid.expect("a partial mapping reports claims");
            assert_eq!(
                stats.claimed_per_worker.iter().sum::<u64>(),
                unmapped as u64
            );
            assert_eq!(
                stats.lost_races_per_worker.iter().sum::<u64>(),
                2 * unmapped as u64,
                "two of three workers lose every race"
            );
        }
        assert_eq!(store.into_vec(), vec![135, 135]);
    }
}

#[test]
fn unmapped_tasks_keep_the_synchronisation_of_the_epochs_they_touch() {
    // D0: T1 (W0) writes, T2 (unmapped) reads, T3 (W0) writes. D1: a
    // chain on W0 alone. Nothing of D1 is shared; on D0, T2 keeps its
    // guard, so T1 publishes, and T3 — which waits for a read it
    // cannot place — keeps its guard, so T2 publishes.
    let mut b = TaskGraph::builder(2);
    b.task(&[Access::write(DataId(0))], 1, "w");
    b.task(&[Access::read(DataId(0))], 1, "r");
    b.task(&[Access::write(DataId(0))], 1, "w");
    b.task(&[Access::read_write(DataId(1))], 1, "rw");
    b.task(&[Access::read_write(DataId(1))], 1, "rw");
    let g = b.build();
    let pm = PartialFn(|t: TaskId, _| (t != TaskId(2)).then_some(WorkerId(0)));
    let flow = Executor::new(RioConfig::with_workers(2))
        .hybrid(&pm)
        .compile(&g);
    assert_eq!(
        pairs(&flow),
        [[PUBLISH], [KEPT], [GUARD], [ELIDED], [ELIDED]]
    );
    assert_eq!(flow.stats().shared_objects, 1);
    assert_eq!(
        (flow.stats().elided_gets, flow.stats().elided_publishes),
        (3, 3)
    );
    let claim_marked: Vec<bool> = flow
        .own_tasks(WorkerId(1))
        .map(|t| t.claim_marked())
        .collect();
    assert_eq!(claim_marked, [true], "W1's program is T2 alone");
    // No claim-marked instruction, no claim table: a total mapping
    // dressed as a partial one runs like the total one.
    let all = Total(RoundRobin);
    let flow = Executor::new(RioConfig::with_workers(2))
        .hybrid(&all)
        .compile(&g);
    assert!((0..2).all(|w| !flow.own_tasks(WorkerId(w)).any(|t| t.claim_marked())));
    let run = flow.run(|_, _| {});
    let stats = run.hybrid.expect("still a hybrid run");
    assert_eq!(stats.claimed_per_worker, [0, 0]);
    assert_eq!(stats.lost_races_per_worker, [0, 0]);
}

#[test]
fn failed_run_leaves_the_program_reusable() {
    let g = rw_chain(30, 1);
    let flow = Executor::new(RioConfig::with_workers(2)).compile(&g);
    let err = flow
        .try_run(|_, t| {
            if t.id == TaskId(7) {
                panic!("kernel exploded");
            }
        })
        .expect_err("the injected panic must abort the run");
    assert_eq!(err.kind(), "task-panicked");
    // Same program, fresh run: everything works.
    let store = DataStore::from_vec(vec![0u64]);
    let run = flow.run(|_, _| *store.write(DataId(0)) += 1);
    assert_eq!(run.report.tasks_executed(), 30);
    assert_eq!(store.into_vec(), vec![30]);
}

#[test]
fn compile_rejects_an_invalid_mapping() {
    struct Bad;
    impl Mapping for Bad {
        fn worker_of(&self, _: TaskId, workers: usize) -> WorkerId {
            WorkerId(workers as u32)
        }
    }
    let err = Executor::new(RioConfig::with_workers(2))
        .mapping(&Bad)
        .try_compile(&rw_chain(1, 1))
        .expect_err("out-of-range mapping must fail at compile time");
    assert_eq!(err.kind(), "invalid-mapping");
}

/// The compile numbers workers in 16 bits, a few values kept for its own
/// marks. More workers than that is refused before anything is walked or
/// started: a compile starts no thread for an executor's workers.
#[test]
#[should_panic(expected = "over 65 533 workers")]
fn compile_rejects_more_workers_than_it_can_number() {
    let _ = Executor::new(RioConfig::with_workers(65_534)).compile(&rw_chain(1, 1));
}

#[test]
fn compiled_report_counts_own_tasks_only() {
    let g = rw_chain(10, 1);
    let flow = Executor::new(RioConfig::with_workers(2)).compile(&g);
    let run = flow.run(|_, _| {});
    assert_eq!(run.report.tasks_executed(), 10);
    for w in &run.report.workers {
        assert_eq!(w.tasks_executed, 5);
        assert_eq!(w.tasks_visited, 5, "visited == own Run instructions");
        assert_eq!(w.ops.gets, 5);
        assert_eq!(w.ops.terminates, 5);
        assert_eq!(w.ops.declares, 0, "a run declares nothing");
        assert_eq!(w.ops.syncs, 0);
    }
}

#[test]
fn all_wait_strategies_agree_under_compilation() {
    for wait in WAITS {
        let g = rw_chain(100, 2);
        let store = DataStore::from_vec(vec![0u64, 0]);
        let flow = Executor::new(RioConfig::with_workers(2).wait(wait)).compile(&g);
        flow.run(|_, t| {
            let d = t.accesses[0].data;
            *store.write(d) += 1;
        });
        assert_eq!(store.into_vec(), vec![50, 50], "strategy {wait}");
    }
}

#[test]
fn compiled_runs_can_be_traced() {
    let g = rw_chain(40, 1);
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&RoundRobin)
        .trace(TraceConfig::new())
        .compile(&g);
    let run = flow.run(|_, _| {});
    let trace = run.trace.expect("trace present");
    assert_eq!(trace.workers.len(), 2);
    assert_eq!(trace.workers.iter().map(|w| w.tasks).sum::<u64>(), 40);
}
