//! Delayed producers against compiled-away synchronisation.
//!
//! A compiled flow performs only the guards and publications that cross
//! workers; what stays on one worker rests on its program order. A run in
//! which nothing is ever late cannot tell a sound elision from a lucky
//! one, so every task in turn is held back by a `rio-faults` delay plan
//! long enough for any consumer that does not really wait for it to run
//! ahead — on a flow whose one hot object goes through elided and kept
//! epochs alike.

use std::time::Duration;

use rio_core::prelude::*;
use rio_faults::FaultPlan;

/// `(writes, worker)` per task on `D0`; every task also appends to its
/// own worker's log object, so a reordering shows in the store.
const PLAN: [(bool, u32); 14] = [
    (true, 0),  // T1   W0 alone: guards and publications elided ...
    (false, 0), // T2
    (true, 0),  // T3
    (false, 0), // T4
    (true, 0),  // T5   ... until W1 reads: T5 publishes for T6,
    (false, 1), // T6   which keeps its guard,
    (false, 0), // T7   and T7 publishes for the count T8 compares.
    (true, 1),  // T8   Waits for T5, T6 and T7; publishes for T10.
    (false, 1), // T9   W1's own read of its own write: elided.
    (false, 0), // T10  W0 waits for T8.
    (true, 0),  // T11  Waits for T9's publication, not for T10's.
    (false, 0), // T12  W0 alone again.
    (true, 0),  // T13
    (false, 0), // T14
];

fn flow() -> (TaskGraph, TableMapping) {
    let mut b = TaskGraph::builder(3);
    for (writes, worker) in PLAN {
        let hot = if writes {
            Access::read_write(DataId(0))
        } else {
            Access::read(DataId(0))
        };
        b.task(&[hot, Access::read_write(DataId(1 + worker))], 1, "t");
    }
    let owners = PLAN.iter().map(|&(_, w)| WorkerId(w)).collect();
    (b.build(), TableMapping::new(owners))
}

/// Folds what a task reads into what it writes.
fn kernel(store: &DataStore<u64>, t: &TaskDesc) {
    let mut h = t.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for d in t.reads() {
        h = (h ^ *store.read(d)).wrapping_mul(0x100_0000_01b3);
    }
    for d in t.writes() {
        *store.write(d) = h;
    }
}

#[test]
fn the_flow_mixes_elided_and_kept_epochs_of_one_object() {
    let (g, m) = flow();
    let flow = Executor::new(RioConfig::with_workers(2))
        .mapping(&m)
        .compile(&g);
    let hot: Vec<(bool, bool)> = (0..2)
        .flat_map(|w| flow.own_tasks(WorkerId(w)).collect::<Vec<_>>())
        .map(|ct| (ct.task.id, ct.keeps_guard(0), ct.keeps_publication(0)))
        .fold(vec![(false, false); PLAN.len()], |mut v, (id, g, p)| {
            v[id.index()] = (g, p);
            v
        });
    let kept_guards: Vec<usize> = (1..=PLAN.len()).filter(|t| hot[t - 1].0).collect();
    let kept_publications: Vec<usize> = (1..=PLAN.len()).filter(|t| hot[t - 1].1).collect();
    assert_eq!(kept_guards, [6, 8, 10, 11]);
    assert_eq!(kept_publications, [5, 6, 7, 8, 9, 10]);
    // The per-worker log objects never leave their worker.
    assert_eq!(flow.stats().shared_objects, 1);
}

#[test]
fn a_late_producer_is_waited_for_whether_by_guard_or_by_program_order() {
    let (g, m) = flow();
    let oracle = {
        let store = DataStore::filled(3, 0u64);
        rio_stf::sequential::run_graph(&g, |id| kernel(&store, g.task(id)));
        store.into_vec()
    };
    for wait in [WaitStrategy::Spin, WaitStrategy::Park] {
        for late in 1..=PLAN.len() as u64 {
            let plan = FaultPlan::new().delay_task(TaskId(late), Duration::from_millis(3));
            let store = DataStore::filled(3, 0u64);
            let run = Executor::new(
                RioConfig::with_workers(2)
                    .wait(wait)
                    .fault_hook(plan.handle()),
            )
            .mapping(&m)
            .watchdog(Duration::from_secs(5))
            .compile(&g)
            .try_run(|_, t| kernel(&store, t))
            .unwrap_or_else(|e| panic!("{wait}, T{late} late: {e}"));
            assert_eq!(run.report.tasks_executed(), PLAN.len() as u64);
            assert_eq!(store.into_vec(), oracle, "{wait}, T{late} late");
        }
    }
}
