//! Fault-containment integration tests: the acceptance suite for the
//! robustness layer.
//!
//! Every test here would *hang* (not fail) on a runtime without
//! containment, so each arms the stall watchdog as a backstop: a bug in
//! abort propagation surfaces as `ExecError::Stalled` and a failed
//! assertion instead of a wedged CI job. The CI harness additionally
//! wraps the whole suite in a hard `timeout`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rio_centralized::CentralConfig;
use rio_core::prelude::*;
use rio_faults::FaultPlan;
use rio_stf::Mapping;

mod common;

/// A serial RW chain over `D0`: `T1 -> T2 -> ... -> Tn`, the schedule
/// where one contained failure must stop every downstream task.
fn chain_graph(n: usize) -> TaskGraph {
    let mut b = TaskGraph::builder(1);
    for _ in 0..n {
        b.task(&[Access::read_write(DataId(0))], 1, "inc");
    }
    b.build()
}

/// The deadline after which a "contained" failure counts as a hang.
const BACKSTOP: Duration = Duration::from_secs(5);

/// ISSUE acceptance: on ≥100 seeds, an 8-worker run with one injected
/// panic (plus seed-chosen delays and wake-up storms) returns
/// `ExecError::TaskPanicked` naming the planned task — within the
/// deadline, with zero hangs.
#[test]
fn a_seeded_panic_is_contained_on_every_seed() {
    const SEEDS: u64 = 100;
    const TASKS: usize = 64;
    const WORKERS: usize = 8;
    for seed in 0..SEEDS {
        let plan = FaultPlan::seeded(seed, TASKS, WORKERS);
        let planned = plan.panic_tasks()[0];
        let g = chain_graph(TASKS);
        let store = DataStore::from_vec(vec![0u64]);
        let t0 = Instant::now();
        let err = Executor::new(
            RioConfig::with_workers(WORKERS)
                .wait(WaitStrategy::Park)
                .fault_hook(plan.handle()),
        )
        .watchdog(BACKSTOP)
        .try_run(&g, |_, t| {
            let d = t.accesses[0].data;
            *store.write(d) += 1;
        })
        .unwrap_err();
        let elapsed = t0.elapsed();
        assert!(
            elapsed < BACKSTOP,
            "seed {seed}: abort took {elapsed:?} — not contained"
        );
        match err {
            ExecError::TaskPanicked { task, payload, .. } => {
                assert_eq!(task, planned, "seed {seed}: wrong task blamed");
                let msg = payload.downcast_ref::<String>().expect("string payload");
                assert_eq!(msg, &format!("injected fault: panic at {planned}"));
            }
            other => panic!("seed {seed}: expected TaskPanicked, got {other}"),
        }
        // In-order containment: the RW chain ran exactly up to the panic.
        assert_eq!(
            store.into_vec(),
            vec![planned.index() as u64],
            "seed {seed}: store shows writes past the aborted task"
        );
    }
}

/// ISSUE acceptance: a mapping that drops a task — every worker believes
/// somebody else owns it — yields a structured error naming the blocked
/// data object, never a hang.
///
/// The mapping answers through a thread-local that the task bodies set to
/// the executing worker's id: worker `i` computes owner `(i + 1) %
/// workers` for the victim, so where every worker evaluates the mapping
/// itself nobody executes it and the victim's datum is never written.
///
/// That is the closure-flow `Rio`, whose workers each replay the flow. A
/// recorded graph is mapped once, by the thread that compiles it — which
/// sees the unset sentinel and one consistent owner — so the same mapping
/// can no longer drop a graph task: the `Executor` run completes.
#[test]
fn a_dropped_task_is_diagnosed_as_a_stall_not_a_hang() {
    use std::cell::Cell;
    thread_local! {
        static SELF: Cell<u32> = const { Cell::new(u32::MAX) };
    }

    const WORKERS: usize = 4;
    // Flow: one "tag" write per worker (so each worker's kernel runs and
    // sets SELF before the victim is mapped), then the dropped victim
    // writing D4, then a reader of D4 on worker 0.
    let victim = TaskId::from_index(WORKERS);
    let reader = TaskId::from_index(WORKERS + 1);
    let victim_data = DataId::from_index(WORKERS);
    let mut b = TaskGraph::builder(WORKERS + 1);
    for i in 0..WORKERS {
        b.task(&[Access::write(DataId::from_index(i))], 1, "tag");
    }
    b.task(&[Access::write(victim_data)], 1, "victim");
    b.task(&[Access::read(victim_data)], 1, "reader");
    let g = b.build();

    struct Lying;
    impl Mapping for Lying {
        fn worker_of(&self, task: TaskId, workers: usize) -> WorkerId {
            match task.index() {
                // One tag task per worker, then the victim, then the reader.
                i if i < workers => WorkerId::from_index(i),
                i if i == workers => {
                    // The dropped task: "my neighbour owns it".
                    let me = SELF.with(Cell::get);
                    WorkerId::from_index(me.wrapping_add(1) as usize % workers)
                }
                _ => WorkerId(0),
            }
        }
    }

    let cfg = RioConfig::with_workers(WORKERS)
        .wait(WaitStrategy::Park)
        .spin_limit(16)
        .watchdog(Duration::from_millis(100));

    // One evaluation, on this thread: every task has one owner.
    let ran: Vec<_> = (0..g.len()).map(|_| AtomicU64::new(0)).collect();
    let run = Executor::new(cfg.clone())
        .mapping(&Lying)
        .try_run(&g, |me, t| {
            SELF.set(me.0);
            ran[t.id.index()].fetch_add(1, Ordering::Relaxed);
        })
        .expect("mapped once, the flow drops nothing");
    assert_eq!(run.report.tasks_executed(), g.len() as u64);
    assert!(ran.iter().all(|n| n.load(Ordering::Relaxed) == 1));

    // One evaluation per worker: the same flow as a closure.
    let store = DataStore::filled(WORKERS + 1, 0u64);
    let err = Rio::new(cfg)
        .try_run(&store, &Lying, |ctx| {
            let me = ctx.worker().0;
            for t in g.tasks() {
                ctx.task(&t.accesses, |_| SELF.set(me));
            }
        })
        .unwrap_err();

    let diag = match err {
        ExecError::Stalled(diag) => diag,
        other => panic!("expected Stalled, got {other}"),
    };
    assert_eq!(diag.worker, WorkerId(0), "the reader's owner was blocked");
    assert!(diag.waited >= Duration::from_millis(100));
    match diag.site {
        StallSite::DataWait {
            task,
            data,
            write,
            local_last_registered_write,
            shared_last_executed_write,
            ..
        } => {
            assert_eq!(task, reader);
            assert_eq!(data, victim_data, "the dump names the blocked datum");
            assert!(!write, "the reader stalled in get_read");
            // The smoking gun: the worker registered the victim's write
            // but nobody ever performed it.
            assert_eq!(local_last_registered_write, victim);
            assert_eq!(shared_last_executed_write, TaskId::NONE);
        }
        other => panic!("expected DataWait, got {other}"),
    }
}

/// The reduction front-end shares the containment of the other two: a
/// body that panics while a sibling is asleep on the publication it will
/// now never make must end the run — `run` re-raises the original payload
/// — under a parking and a spinning wait alike. (Before `ReduxRio` ran on
/// the shared engine this was a hang: nothing caught the panic, nothing
/// woke the reader.) The watchdog is the backstop: a regression surfaces
/// as a stall diagnostic in place of the payload.
#[test]
fn a_redux_body_panic_ends_the_run_instead_of_stranding_the_reader() {
    use rio_core::redux::{RAccess, ReduxRio};
    for wait in [WaitStrategy::Park, WaitStrategy::Spin] {
        let store = DataStore::from_vec(vec![0u64]);
        let cfg = RioConfig::with_workers(2)
            .wait(wait)
            .spin_limit(0) // under Park, the reader is asleep when the abort comes
            .watchdog(BACKSTOP);
        let t0 = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ReduxRio::new(cfg).run(&store, &RoundRobin, |ctx| {
                // T1 on W0 writes D0 — and panics; T2 on W1 reads it.
                ctx.task(&[RAccess::write(DataId(0))], |v| {
                    *v.write(DataId(0)) = 1;
                    std::thread::sleep(Duration::from_millis(20));
                    panic!("redux writer exploded");
                });
                ctx.task(&[RAccess::read(DataId(0))], |v| {
                    let _ = *v.read(DataId(0));
                    unreachable!("the write it waits for was never published");
                });
            });
        }));
        let payload = result.expect_err("the panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "redux writer exploded", "strategy {wait}");
        assert!(t0.elapsed() < BACKSTOP, "strategy {wait}: not contained");
    }
}

/// The same inside an accumulation group: an accumulator that panics
/// holds the object's body lock at that moment. It must release it — the
/// other accumulators are not wedged behind it — and the reader waiting
/// for the whole group must be woken by the abort.
#[test]
fn a_panicking_accumulator_releases_its_body_locks() {
    use rio_core::redux::{RAccess, ReduxRio};
    let store = DataStore::from_vec(vec![0u64, 0]);
    let cfg = RioConfig::with_workers(3)
        .wait(WaitStrategy::Park)
        .spin_limit(0)
        .watchdog(BACKSTOP);
    let t0 = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ReduxRio::new(cfg).run(&store, &RoundRobin, |ctx| {
            for i in 1..=6u64 {
                let both = [
                    RAccess::accumulate(DataId(0)),
                    RAccess::accumulate(DataId(1)),
                ];
                ctx.task(&both, move |v| {
                    *v.accumulate(DataId(0)) += 1;
                    if i == 2 {
                        panic!("accumulator exploded");
                    }
                    *v.accumulate(DataId(1)) += 1;
                });
            }
            ctx.task(&[RAccess::read(DataId(0))], |v| {
                let _ = *v.read(DataId(0));
            });
        });
    }));
    let payload = result.expect_err("the panic must propagate");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "accumulator exploded");
    assert!(t0.elapsed() < BACKSTOP, "not contained");
    // No lock outlived the run, and no store guard either.
    let _ = (store.write(DataId(0)), store.write(DataId(1)));
}

/// A reduction flow whose producer every worker believes somebody else
/// owns: with the watchdog armed the reader's wait ends in the rendered
/// stall diagnostic (`ReduxRio::run` panics with it, as `Rio::run` does),
/// not in an unbounded wait.
#[test]
fn a_redux_dropped_producer_trips_the_watchdog() {
    use rio_core::redux::{RAccess, ReduxRio};
    use std::cell::Cell;
    thread_local! {
        static SELF: Cell<usize> = const { Cell::new(0) };
    }
    struct Lying;
    impl Mapping for Lying {
        fn worker_of(&self, task: TaskId, workers: usize) -> WorkerId {
            match task {
                // The producer: "my neighbour owns it".
                TaskId(1) => WorkerId::from_index((SELF.with(Cell::get) + 1) % workers),
                _ => WorkerId(0),
            }
        }
    }
    let store = DataStore::from_vec(vec![0u64]);
    let cfg = RioConfig::with_workers(2)
        .wait(WaitStrategy::Park)
        .spin_limit(16)
        .watchdog(Duration::from_millis(100));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        ReduxRio::new(cfg).run(&store, &Lying, |ctx| {
            SELF.set(ctx.worker().index());
            ctx.task(&[RAccess::write(DataId(0))], |v| *v.write(DataId(0)) = 1);
            ctx.task(&[RAccess::read(DataId(0))], |v| {
                let _ = *v.read(DataId(0));
            });
        });
    }));
    let payload = result.expect_err("the stall must end the run");
    let text = payload
        .downcast_ref::<String>()
        .expect("a rendered diagnostic");
    assert!(text.starts_with("stalled: W0 waited"), "{text}");
    // The smoking gun: T1's write was registered and never performed.
    let site = "get_read of D0 for T2: registered (reads=0, write=T1) vs performed \
                (reads=0, write=T(none)";
    assert!(text.contains(site), "{text}");
}

/// Post-abort store containment, exactly: a panic at `Tk` in an RW chain
/// leaves the store at `k - 1` — `Tk`'s write is never observed and no
/// later task runs.
#[test]
fn an_aborted_run_never_publishes_writes_past_the_panic() {
    let k = TaskId(10);
    let plan = FaultPlan::new().panic_at(k);
    let g = chain_graph(32);
    let store = DataStore::from_vec(vec![0u64]);
    let err = Executor::new(
        RioConfig::with_workers(4)
            .wait(WaitStrategy::Park)
            .fault_hook(plan.handle()),
    )
    .watchdog(BACKSTOP)
    .try_run(&g, |_, _| *store.write(DataId(0)) += 1)
    .unwrap_err();
    assert_eq!(err.kind(), "task-panicked");
    assert_eq!(store.into_vec(), vec![k.0 - 1]);
}

/// Abort latency is bounded by in-flight work, not by the remaining flow:
/// a panic early in a chain of slow tasks returns long before the chain
/// would have finished.
#[test]
fn abort_latency_is_bounded_by_in_flight_work() {
    const TASKS: usize = 40;
    const BODY: Duration = Duration::from_millis(50); // full run: ≥ 2 s
    let plan = FaultPlan::new().panic_at(TaskId(4));
    let g = chain_graph(TASKS);
    let t0 = Instant::now();
    let err = Executor::new(
        RioConfig::with_workers(4)
            .wait(WaitStrategy::Park)
            .fault_hook(plan.handle()),
    )
    .watchdog(BACKSTOP)
    .try_run(&g, |_, _| std::thread::sleep(BODY))
    .unwrap_err();
    let elapsed = t0.elapsed();
    assert_eq!(err.kind(), "task-panicked");
    assert!(
        elapsed < Duration::from_secs(1),
        "abort took {elapsed:?}; the full chain is {:?} — workers kept \
         draining after the abort",
        BODY * TASKS as u32
    );
}

/// Spurious wake-up storms against parked waiters are absorbed: every
/// wait loop re-checks its predicate, so the run completes exactly.
#[test]
fn spurious_wakeup_storms_are_absorbed_under_park() {
    const TASKS: usize = 64;
    let mut plan = FaultPlan::new();
    for i in 0..TASKS {
        plan = plan.wake_storm_after(TaskId::from_index(i));
    }
    let g = chain_graph(TASKS);
    let store = DataStore::from_vec(vec![0u64]);
    let run = Executor::new(
        RioConfig::with_workers(4)
            .wait(WaitStrategy::Park)
            .spin_limit(0) // park immediately: every wait is stormable
            .fault_hook(plan.handle()),
    )
    .watchdog(BACKSTOP)
    .try_run(&g, |_, _| *store.write(DataId(0)) += 1)
    .expect("storms must not corrupt a healthy run");
    assert_eq!(run.report.tasks_executed(), TASKS as u64);
    assert_eq!(store.into_vec(), vec![TASKS as u64]);
}

/// ISSUE acceptance (recovery): on ≥100 seeds, an 8-worker run with a
/// retrying `RecoveryPolicy` absorbs the seeded transient failure (plus
/// delays and wake-up storms) and — when the seed also plants a permanent
/// failure — degrades *exactly*: the partial report names the failed
/// task, its poisoned datum and the skipped downstream cone, the store
/// stops at the failure, and the run returns within the deadline. Zero
/// hangs, zero lost wakeups.
#[test]
fn the_seeded_recovery_corpus_degrades_instead_of_hanging() {
    const SEEDS: u64 = 100;
    const TASKS: usize = 64;
    const WORKERS: usize = 8;
    let policy = RecoveryPolicy::default()
        .backoff(Duration::from_micros(10))
        .max_backoff(Duration::from_micros(100));
    for seed in 0..SEEDS {
        let plan = FaultPlan::seeded_recovery(seed, TASKS, WORKERS);
        let permanent = plan.always_failing_tasks();
        let g = chain_graph(TASKS);
        let store = DataStore::from_vec(vec![0u64]);
        let t0 = Instant::now();
        let run = Executor::new(
            RioConfig::with_workers(WORKERS)
                .wait(WaitStrategy::Park)
                .fault_hook(plan.handle())
                .recovery(policy.clone()),
        )
        .watchdog(BACKSTOP)
        .try_run(&g, |_, t| {
            let d = t.accesses[0].data;
            *store.write(d) += 1;
        })
        .unwrap_or_else(|e| panic!("seed {seed}: recovery run errored: {e}"));
        let elapsed = t0.elapsed();
        assert!(
            elapsed < BACKSTOP,
            "seed {seed}: run took {elapsed:?} — possible lost wakeup"
        );
        match run.outcome.partial() {
            None => {
                // Only the recoverable transient failure was planted: the
                // retry loop must absorb it and the run completes exactly.
                assert!(
                    permanent.is_empty(),
                    "seed {seed}: permanent failure at {} vanished",
                    permanent[0]
                );
                assert_eq!(
                    store.into_vec(),
                    vec![TASKS as u64],
                    "seed {seed}: recovered run lost writes"
                );
                assert!(
                    run.outcome.is_complete(),
                    "seed {seed}: complete run reported degradation"
                );
                let total = run.counters.total();
                assert!(
                    total.retries >= 1,
                    "seed {seed}: the transient failure retried zero times"
                );
                assert_eq!(total.poisoned, 0, "seed {seed}: spurious poisoning");
            }
            Some(partial) => {
                assert_eq!(permanent.len(), 1, "seed {seed}: unplanned degradation");
                let failed = permanent[0];
                assert_eq!(partial.failed.len(), 1, "seed {seed}");
                assert_eq!(
                    partial.failed[0].task, failed,
                    "seed {seed}: wrong task blamed"
                );
                assert_eq!(
                    partial.failed[0].retries, 3,
                    "seed {seed}: retry budget not exhausted before giving up"
                );
                assert_eq!(
                    partial.failed[0].detail.kind(),
                    "task-failed",
                    "seed {seed}"
                );
                assert_eq!(
                    partial.poisoned,
                    vec![DataId(0)],
                    "seed {seed}: the chain datum must be poisoned"
                );
                let cone: Vec<TaskId> = (failed.0 + 1..=TASKS as u64).map(TaskId).collect();
                assert_eq!(
                    partial.skipped, cone,
                    "seed {seed}: skip-but-sync cone mismatch"
                );
                // Skip-but-sync containment: every task before the failure
                // ran (the transient one after retrying), none after.
                assert_eq!(
                    store.into_vec(),
                    vec![failed.index() as u64],
                    "seed {seed}: store shows writes inside the poisoned cone"
                );
            }
        }
    }
}

/// ISSUE satellite: multi-tenant isolation. Two independent `Executor`s
/// run concurrently on separate stores; one tenant suffers a seeded
/// panic storm (half the rounds aborting, half degrading under a
/// `RecoveryPolicy`), the other is fault-free. The healthy tenant must
/// keep completing *exactly* — identical store every round, within the
/// backstop — while its neighbour fails.
#[test]
fn a_tenants_panic_storm_never_leaks_into_its_neighbour() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const TASKS: usize = 64;
    const ROUNDS: u64 = 16;
    let storm_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Faulty tenant: alternate between the abort path (no recovery:
        // the seeded panic must surface as `TaskPanicked`) and the
        // degrade path (recovery + a permanent failure).
        s.spawn(|| {
            for seed in 0..ROUNDS {
                let g = chain_graph(TASKS);
                let store = DataStore::from_vec(vec![0u64]);
                if seed % 2 == 0 {
                    let plan = FaultPlan::seeded(seed, TASKS, 4);
                    let err = Executor::new(
                        RioConfig::with_workers(4)
                            .wait(WaitStrategy::Park)
                            .fault_hook(plan.handle()),
                    )
                    .watchdog(BACKSTOP)
                    .try_run(&g, |_, _| *store.write(DataId(0)) += 1)
                    .unwrap_err();
                    assert_eq!(err.kind(), "task-panicked", "round {seed}");
                } else {
                    let failed = TaskId(1 + seed % TASKS as u64);
                    let plan = FaultPlan::new().always_fail(failed);
                    let run = Executor::new(
                        RioConfig::with_workers(4)
                            .wait(WaitStrategy::Park)
                            .fault_hook(plan.handle())
                            .recovery(RecoveryPolicy::no_retries()),
                    )
                    .watchdog(BACKSTOP)
                    .try_run(&g, |_, _| *store.write(DataId(0)) += 1)
                    .unwrap_or_else(|e| panic!("round {seed}: degrade path errored: {e}"));
                    let partial = run.outcome.partial().expect("must degrade");
                    assert_eq!(partial.failed[0].task, failed, "round {seed}");
                }
            }
            storm_done.store(true, Ordering::Release);
        });
        // Healthy tenant: loop until the storm subsides; every run must
        // complete with the exact store and no stall.
        s.spawn(|| {
            let g = chain_graph(TASKS);
            let mut rounds = 0u64;
            while !storm_done.load(Ordering::Acquire) || rounds == 0 {
                let store = DataStore::from_vec(vec![0u64]);
                let t0 = Instant::now();
                let run = Executor::new(RioConfig::with_workers(4).wait(WaitStrategy::Park))
                    .watchdog(BACKSTOP)
                    .try_run(&g, |_, _| *store.write(DataId(0)) += 1)
                    .expect("healthy tenant must not observe the neighbour's storm");
                assert!(
                    t0.elapsed() < BACKSTOP,
                    "healthy tenant stalled during the storm"
                );
                assert!(run.outcome.is_complete());
                assert_eq!(run.report.tasks_executed(), TASKS as u64);
                assert_eq!(store.into_vec(), vec![TASKS as u64]);
                rounds += 1;
            }
        });
    });
}

/// Centralized runtime: a hook-injected panic mid-drain, with the master
/// throttled on a small submission window, still comes back as a
/// structured error (the master is unblocked, the pool is drained).
#[test]
fn centralized_contains_an_injected_panic_under_throttling() {
    const TASKS: usize = 400;
    let planned = TaskId(11);
    let plan = FaultPlan::new().panic_at(planned);
    let g = chain_graph(TASKS);
    let t0 = Instant::now();
    let err = rio_centralized::try_execute_graph(
        &CentralConfig::with_threads(3)
            .window(Some(2))
            .watchdog(BACKSTOP)
            .fault_hook(plan.handle()),
        &g,
        |_, _| {},
    )
    .unwrap_err();
    assert!(
        t0.elapsed() < BACKSTOP,
        "master stayed throttled after abort"
    );
    match err {
        ExecError::TaskPanicked { task, .. } => assert_eq!(task, planned),
        other => panic!("expected TaskPanicked, got {other}"),
    }
}

/// Centralized runtime: doorbell storms (spurious rings with no new
/// ready task) are absorbed by the epoch re-check.
#[test]
fn centralized_absorbs_doorbell_storms() {
    const TASKS: usize = 200;
    let mut plan = FaultPlan::new();
    for i in (0..TASKS).step_by(3) {
        plan = plan.wake_storm_after(TaskId::from_index(i));
    }
    let g = chain_graph(TASKS);
    let store = DataStore::from_vec(vec![0u64]);
    let report = rio_centralized::try_execute_graph(
        &CentralConfig::with_threads(3)
            .watchdog(BACKSTOP)
            .fault_hook(plan.handle()),
        &g,
        |_, _| *store.write(DataId(0)) += 1,
    )
    .expect("storms must not corrupt a healthy run");
    assert_eq!(report.tasks_executed(), TASKS as u64);
    assert_eq!(store.into_vec(), vec![TASKS as u64]);
}

/// Centralized seeds: a smaller sweep of the same seeded-panic corpus
/// through the centralized runtime — same structured error, zero hangs.
#[test]
fn centralized_contains_the_seeded_corpus() {
    const SEEDS: u64 = 32;
    const TASKS: usize = 64;
    for seed in 0..SEEDS {
        let plan = FaultPlan::seeded(seed, TASKS, 3);
        let planned = plan.panic_tasks()[0];
        let g = chain_graph(TASKS);
        let t0 = Instant::now();
        let err = rio_centralized::try_execute_graph(
            &CentralConfig::with_threads(4)
                .watchdog(BACKSTOP)
                .fault_hook(plan.handle()),
            &g,
            |_, _| {},
        )
        .unwrap_err();
        assert!(t0.elapsed() < BACKSTOP, "seed {seed}: not contained");
        match err {
            ExecError::TaskPanicked { task, .. } => {
                assert_eq!(task, planned, "seed {seed}: wrong task blamed")
            }
            other => panic!("seed {seed}: expected TaskPanicked, got {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Containment inside a block. Under the default configuration a
// program's quiet tasks — those that keep no guard and no publication —
// are ranges, which a run takes a block at a time: one containment frame,
// one counter flush and one flight mark per 1024 tasks at most. A flow
// with a fault hook has no ranges, so none of the tests above ever sees a
// block; these use none, and inject the panic from the kernel.
// ---------------------------------------------------------------------

/// A flow of private writes: task `i` writes object `i` and nothing else,
/// so under any mapping every task is quiet.
fn private_graph(n: usize) -> TaskGraph {
    let mut b = TaskGraph::builder(n);
    for d in 0..n {
        b.task(&[Access::write(DataId::from_index(d))], 1, "own");
    }
    b.build()
}

/// One worker's dumped ring as `(kind, task)` pairs, oldest first.
fn ring_of(flight: &FlightLog, worker: WorkerId) -> Vec<(FlightEventKind, TaskId)> {
    let ring = flight.worker(worker).expect("the worker has a ring");
    ring.events.iter().map(|e| (e.kind, e.task)).collect()
}

/// A panic at the first, a middle and the last task of a 1024-chunk of a
/// quiet range: the error names exactly the task and the worker; every
/// own task of that worker before it ran once and none after it ran; the
/// worker's ring holds the chunks' progress marks, the start of the
/// blamed body and the abort — no end for it, and not a start/end pair
/// per task; and the flow re-runs clean.
#[test]
fn a_panic_inside_a_block_blames_exactly_the_running_task() {
    panic_inside_a_quiet_range(2, WorkerId(0));
}

/// The same at a stride of three, on the middle worker of three: its range
/// starts at flow index 1, and the blamed task is `first + stride ·
/// finished` wherever in a chunk it panics.
#[test]
fn a_panic_inside_a_strided_quiet_range_blames_exactly_the_running_task() {
    panic_inside_a_quiet_range(3, WorkerId(1));
}

/// Panics in `w`'s one quiet range — 3000 private writes, chunks
/// 0..1024, 1024..2048, 2048..3000 — under round-robin over `workers`.
fn panic_inside_a_quiet_range(workers: usize, w: WorkerId) {
    const OWN: usize = 3000;
    let g = private_graph(workers * OWN);
    let flow = Executor::new(RioConfig::with_workers(workers))
        .mapping(&RoundRobin)
        .watchdog(BACKSTOP)
        .compile(&g);
    assert!(flow.own_tasks(w).all(|t| t.quiet()), "one quiet range");
    // The worker's `i`-th task is at flow position `workers * i + w`.
    let own = |i: usize| TaskId::from_index(workers * i + w.index());
    for at in [1024, 1536, 2047] {
        let k = own(at);
        let started: Vec<AtomicU64> = (0..g.len()).map(|_| AtomicU64::new(0)).collect();
        let err = flow
            .try_run(|_, t| {
                started[t.id.index()].fetch_add(1, Ordering::Relaxed);
                if t.id == k {
                    panic!("boom at {k}");
                }
            })
            .unwrap_err();
        let ExecError::TaskPanicked {
            task,
            worker,
            flight,
            ..
        } = err
        else {
            panic!("expected TaskPanicked, got {err}");
        };
        assert_eq!((task, worker), (k, w), "panic at {w}'s task #{at}");
        for i in 0..OWN {
            let runs = started[own(i).index()].load(Ordering::Relaxed);
            assert_eq!(runs, u64::from(i <= at), "{w}'s task #{i}, panic at #{at}");
        }
        // One mark per finished chunk, one for the finished part of the
        // chunk that panicked, then the blamed body's start and the abort.
        let mut expected = vec![(FlightEventKind::TaskEnd, own(1023))];
        if at > 1024 {
            expected.push((FlightEventKind::TaskEnd, own(at - 1)));
        }
        expected.extend([(FlightEventKind::TaskStart, k), (FlightEventKind::Abort, k)]);
        assert_eq!(ring_of(&flight, w), expected, "panic at {w}'s task #{at}");
        common::assert_flight_consistent(&flight, "panic inside a block");

        let run = flow.run(|_, _| {});
        assert_eq!(run.report.tasks_executed(), g.len() as u64, "re-run");
    }
}

/// A kept task between two quiet ranges panics: it runs on the
/// per-task path, and what the blocks beside it did is exact all the same
/// — the range before it ran, the one after it did not.
#[test]
fn a_panic_in_a_kept_task_beside_a_quiet_stretch_is_blamed_exactly() {
    const STRETCH: usize = 10;
    // T1..T10 (W0) are private writes, T11 (W1) writes D0, T12 (W0) reads
    // it — across workers, so it keeps its guard — and T13..T22 (W0) are
    // private writes again.
    let mut b = TaskGraph::builder(1 + 2 * STRETCH);
    let private = |b: &mut rio_stf::GraphBuilder, d: usize| {
        b.task(&[Access::write(DataId::from_index(d))], 1, "own");
    };
    (1..=STRETCH).for_each(|d| private(&mut b, d));
    b.task(&[Access::write(DataId(0))], 1, "produce");
    b.task(&[Access::read(DataId(0))], 1, "consume");
    (STRETCH + 1..=2 * STRETCH).for_each(|d| private(&mut b, d));
    let g = b.build();
    let (w0, k) = (WorkerId(0), TaskId::from_index(STRETCH + 1));
    let m = TableMapping::from_fn(g.len(), |i| WorkerId(u32::from(i == STRETCH)));
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .watchdog(BACKSTOP)
        .compile(&g);
    let quiet: Vec<bool> = flow.own_tasks(w0).map(|t| t.quiet()).collect();
    let expected: Vec<bool> = (0..=2 * STRETCH).map(|i| i != STRETCH).collect();
    assert_eq!(quiet, expected, "W0: a range, the consumer, a range");

    let started: Vec<AtomicU64> = (0..g.len()).map(|_| AtomicU64::new(0)).collect();
    let err = flow
        .try_run(|_, t| {
            started[t.id.index()].fetch_add(1, Ordering::Relaxed);
            if t.id == k {
                panic!("boom at {k}");
            }
        })
        .unwrap_err();
    let ExecError::TaskPanicked {
        task,
        worker,
        flight,
        ..
    } = err
    else {
        panic!("expected TaskPanicked, got {err}");
    };
    assert_eq!((task, worker), (k, w0));
    let runs: Vec<u64> = started.iter().map(|n| n.load(Ordering::Relaxed)).collect();
    let expected: Vec<u64> = (0..g.len()).map(|i| u64::from(i <= k.index())).collect();
    assert_eq!(
        runs, expected,
        "everything up to the consumer, nothing after"
    );
    // (The consumer may have parked on its guard first: W1 races it.)
    let mut ring = ring_of(&flight, w0);
    ring.retain(|e| e.0 != FlightEventKind::Park);
    assert_eq!(
        ring,
        [
            (FlightEventKind::TaskEnd, TaskId::from_index(STRETCH - 1)),
            (FlightEventKind::TaskStart, k),
            (FlightEventKind::Abort, k),
        ]
    );
    common::assert_flight_consistent(&flight, "panic beside a block");
    let run = flow.run(|_, _| {});
    assert_eq!(run.report.tasks_executed(), g.len() as u64, "re-run");
}

/// The abort is polled before every body of a block, not once per block:
/// a worker inside a 1000-task chunk of slow bodies stops at its next
/// body once a sibling's panic arms the abort, instead of finishing the
/// chunk.
#[test]
fn a_block_starts_no_body_once_the_abort_is_observed() {
    const CHUNK: usize = 1000;
    const BODY: Duration = Duration::from_millis(1); // the chunk: ≥ 1 s
    const AHEAD: u64 = 10;
    // T1 is W0's only task; T2.. are W1's, one quiet range.
    let g = private_graph(1 + CHUNK);
    let m = TableMapping::from_fn(g.len(), |i| WorkerId(u32::from(i > 0)));
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .watchdog(BACKSTOP)
        .compile(&g);
    let progress = AtomicU64::new(0);
    let t0 = Instant::now();
    let err = flow
        .try_run(|w, _| {
            if w == WorkerId(0) {
                // Panic once W1 is well inside its chunk.
                while progress.load(Ordering::Acquire) < AHEAD {
                    std::thread::yield_now();
                }
                panic!("boom");
            }
            progress.fetch_add(1, Ordering::Release);
            std::thread::sleep(BODY);
        })
        .unwrap_err();
    let elapsed = t0.elapsed();
    assert_eq!(err.kind(), "task-panicked");
    let ran = progress.load(Ordering::Relaxed);
    assert!(
        (AHEAD..AHEAD + 100).contains(&ran) && elapsed < BODY * CHUNK as u32 / 2,
        "W1 ran {ran} of its {CHUNK} bodies in {elapsed:?}: the abort must stop \
         a block at its next body"
    );
}

// ---------------------------------------------------------------------
// The worker set outlives a run that failed: a panic or a stall tears
// the run down, not the threads. Whatever ended the run, the same flow
// and a sibling flow of the same executor re-run clean — the oracle's
// store — on the very OS threads of the run before.
// ---------------------------------------------------------------------

/// A kernel whose final store identifies the schedule's semantics.
fn fold_kernel(store: &DataStore<u64>, t: &TaskDesc) {
    let mut h = t.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for d in t.reads() {
        h = (h ^ *store.read(d)).wrapping_mul(0x100_0000_01b3);
    }
    for d in t.writes() {
        *store.write(d) = h;
    }
}

/// One clean run of `flow`: the store is the sequential oracle's. Returns
/// the thread each worker ran on.
fn clean_run(flow: &CompiledFlow<'_>) -> Vec<std::thread::ThreadId> {
    let g = flow.graph();
    let oracle = DataStore::filled(g.num_data(), 0u64);
    rio_stf::sequential::run_graph(g, |id| fold_kernel(&oracle, g.task(id)));
    let store = DataStore::filled(g.num_data(), 0u64);
    let threads = std::sync::Mutex::new(vec![None; flow.config().workers]);
    let run = flow.run(|w, t| {
        threads.lock().unwrap()[w.index()] = Some(std::thread::current().id());
        fold_kernel(&store, t);
    });
    assert_eq!(run.report.tasks_executed(), g.len() as u64);
    assert_eq!(store.into_vec(), oracle.into_vec());
    let threads = threads.into_inner().unwrap();
    threads
        .into_iter()
        .map(|t| t.expect("ran a task"))
        .collect()
}

/// Runs `fail` — which must end a run of the flow it is handed badly —
/// between clean runs of that flow and of a sibling.
fn assert_the_set_survives(cfg: RioConfig, g: &TaskGraph, fail: impl Fn(&CompiledFlow<'_>)) {
    let exec = Executor::new(cfg).mapping(&RoundRobin);
    let (flow, sibling) = (exec.compile(g), exec.compile(g));
    let threads = clean_run(&flow);
    assert_eq!(threads[0], std::thread::current().id(), "W0 is the caller");
    for _ in 0..2 {
        fail(&flow);
        assert_eq!(clean_run(&flow), threads, "the same flow, the same threads");
        assert_eq!(clean_run(&sibling), threads, "a sibling flow too");
    }
}

/// The task and worker a failed run blamed.
fn blamed(err: ExecError) -> (TaskId, WorkerId) {
    match err {
        ExecError::TaskPanicked { task, worker, .. } => (task, worker),
        other => panic!("expected TaskPanicked, got {other}"),
    }
}

#[test]
fn the_set_survives_a_panic_in_a_block_and_in_a_kept_task_on_either_worker() {
    let cfg = || RioConfig::with_workers(2).watchdog(BACKSTOP);
    // Private writes run as blocks; a chain across two workers keeps
    // every guard. Round-robin: T(2i+1) is W0's, T(2i+2) is W1's.
    for g in [private_graph(4000), chain_graph(64)] {
        for victim in [TaskId(41), TaskId(42)] {
            assert_the_set_survives(cfg(), &g, |flow| {
                let err = flow
                    .try_run(|_, t| assert!(t.id != victim, "boom at {victim}"))
                    .unwrap_err();
                let worker = WorkerId::from_index(victim.index() % 2);
                assert_eq!(blamed(err), (victim, worker));
            });
        }
    }
}

#[test]
fn the_set_survives_a_watchdog_stall() {
    // W1's T2 waits on T1, which W0 holds far past the deadline.
    let cfg = RioConfig::with_workers(2)
        .spin_limit(4)
        .watchdog(Duration::from_millis(50));
    assert_the_set_survives(cfg, &chain_graph(8), |flow| {
        let err = flow
            .try_run(|_, t| {
                if t.id == TaskId(1) {
                    std::thread::sleep(Duration::from_millis(300));
                }
            })
            .unwrap_err();
        assert_eq!(err.kind(), "stalled");
    });
}

/// Panics once, outside any body: after a worker's last task has
/// published, where no containment frame is open.
struct PanicAfter(TaskId, std::sync::atomic::AtomicBool);

impl rio_stf::FaultHook for PanicAfter {
    fn spurious_wake_after(&self, _: WorkerId, task: TaskId) -> bool {
        let armed = task == self.0 && self.1.swap(false, Ordering::SeqCst);
        assert!(!armed, "worker lost after {task}");
        false
    }
}

#[test]
fn the_set_survives_a_worker_panic_outside_any_body() {
    let g = chain_graph(8);
    // The last task of W0 (on the caller) and of W1 (on a set thread):
    // nobody waits for anything the lost worker still owed.
    for last in [TaskId(7), TaskId(8)] {
        let hook = std::sync::Arc::new(PanicAfter(last, false.into()));
        let cfg = RioConfig::with_workers(2)
            .watchdog(BACKSTOP)
            .fault_hook(rio_stf::HookHandle(hook.clone()));
        assert_the_set_survives(cfg, &g, |flow| {
            hook.1.store(true, Ordering::SeqCst);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                flow.run(|_, _| {});
            }));
            let payload = unwound.expect_err("re-raised on the caller");
            let msg = payload
                .downcast_ref::<String>()
                .expect("the hook's message");
            assert_eq!(msg, &format!("worker lost after {last}"));
        });
    }
}
