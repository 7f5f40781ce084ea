//! Flight-recorder acceptance: every failure diagnostic ships a usable
//! bundle.
//!
//! ISSUE acceptance (telemetry): on a ≥100-seed fault corpus, every
//! outcome that degrades carries a non-empty flight bundle whose event
//! order is consistent with the epoch protocol; a watchdog stall carries
//! one too, ending in the aborting worker's `abort` event. "Consistent"
//! is checked per worker (sequence numbers are per-worker by design —
//! there is no global clock):
//!
//! * `seq` strictly increasing, oldest first;
//! * a `end` event always matches the most recent `start` (task bodies
//!   are serial per worker; skipped or failed bodies legitimately leave
//!   a `start` unmatched, but an `end` can never name a different task);
//! * `retry` events only ever name the task whose body is open;
//! * `park` and `poison` always name the data object involved.

use std::time::{Duration, Instant};

use rio_core::prelude::*;
use rio_faults::FaultPlan;

mod common;
use common::assert_flight_consistent;

/// A serial RW chain over `D0` (same schedule as the containment suite).
fn chain_graph(n: usize) -> TaskGraph {
    let mut b = TaskGraph::builder(1);
    for _ in 0..n {
        b.task(&[Access::read_write(DataId(0))], 1, "inc");
    }
    b.build()
}

const BACKSTOP: Duration = Duration::from_secs(5);

/// ISSUE acceptance: across the 100-seed recovery corpus, every degraded
/// outcome's `PartialReport` carries a non-empty, protocol-consistent
/// flight bundle that names the blamed task — its retries, its body
/// start, and the poisoning of the chain datum.
#[test]
fn every_degraded_outcome_carries_a_consistent_flight_bundle() {
    const SEEDS: u64 = 100;
    const TASKS: usize = 64;
    const WORKERS: usize = 8;
    let policy = RecoveryPolicy::default()
        .backoff(Duration::from_micros(10))
        .max_backoff(Duration::from_micros(100));
    let mut degraded = 0u32;
    for seed in 0..SEEDS {
        let plan = FaultPlan::seeded_recovery(seed, TASKS, WORKERS);
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
        assert!(t0.elapsed() < BACKSTOP, "seed {seed}: possible lost wakeup");

        let Some(partial) = run.outcome.partial() else {
            continue;
        };
        degraded += 1;
        let ctx = format!("seed {seed}");
        assert_flight_consistent(&partial.flight, &ctx);

        // The bundle names the blamed task: its body started, the retry
        // budget (3) is visible, and somebody recorded poisoning D0.
        let failed = partial.failed[0].task;
        let all: Vec<&FlightEvent> = partial
            .flight
            .workers
            .iter()
            .flat_map(|w| w.events.iter())
            .collect();
        assert!(
            all.iter()
                .any(|e| e.kind == FlightEventKind::TaskStart && e.task == failed),
            "{ctx}: no start event for blamed task {failed}"
        );
        assert_eq!(
            all.iter()
                .filter(|e| e.kind == FlightEventKind::Retry && e.task == failed)
                .count(),
            3,
            "{ctx}: the exhausted retry budget must be visible in the bundle"
        );
        assert!(
            all.iter().any(|e| e.kind == FlightEventKind::Poison
                && e.task == failed
                && e.data == Some(DataId(0))),
            "{ctx}: the poisoning of D0 by {failed} must be recorded"
        );
        // And no end event for it: the body never succeeded.
        assert!(
            !all.iter()
                .any(|e| e.kind == FlightEventKind::TaskEnd && e.task == failed),
            "{ctx}: failed task has a TaskEnd event"
        );
    }
    // seeded_recovery plants a permanent failure on roughly half the
    // seeds; the corpus is meaningless if almost none degraded.
    assert!(
        degraded >= 20,
        "only {degraded}/{SEEDS} seeds degraded — corpus lost its teeth"
    );
}

/// ISSUE acceptance: a watchdog stall ships a flight bundle too, and the
/// aborting worker's history ends with its own `abort` event for the
/// stalled task.
#[test]
fn a_stalled_outcome_carries_the_aborting_workers_history() {
    const TASKS: usize = 16;
    const WORKERS: usize = 4;
    // Delay one mid-chain task far past the watchdog deadline: its
    // successor's owner stalls in the data wait and raises the abort.
    let delayed = TaskId::from_index(7);
    let plan = FaultPlan::new().delay_task(delayed, Duration::from_millis(400));
    let g = chain_graph(TASKS);
    let err = Executor::new(
        RioConfig::with_workers(WORKERS)
            .wait(WaitStrategy::Park)
            .spin_limit(16)
            .fault_hook(plan.handle()),
    )
    .watchdog(Duration::from_millis(50))
    .try_run(&g, |_, _| {})
    .unwrap_err();
    let diag = match err {
        ExecError::Stalled(diag) => diag,
        other => panic!("expected Stalled, got {other}"),
    };
    assert_flight_consistent(&diag.flight, "stall");
    let history = diag
        .flight
        .worker(diag.worker)
        .expect("the aborting worker has a history");
    let last = history.events.last().expect("non-empty history");
    assert_eq!(
        last.kind,
        FlightEventKind::Abort,
        "the aborting worker's last recorded event is its abort"
    );
    let stalled_task = match diag.site {
        StallSite::DataWait { task, .. } => task,
        ref other => panic!("expected DataWait, got {other}"),
    };
    assert_eq!(last.task, stalled_task, "the abort names the stalled task");
}
