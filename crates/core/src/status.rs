//! Per-worker progress table feeding the watchdog's stall diagnostics.
//!
//! Each worker owns one cache-line-padded slot of relaxed atomics: the
//! last task whose body it completed, how many bodies it completed, and —
//! while blocked inside a `get_*` — the data object it is waiting on.
//! Workers only ever *store* to their own slot, so the table adds no
//! contention; the watchdog path *loads* every slot once to assemble the
//! [`WorkerSnapshot`]s of a [`rio_stf::StallDiagnostic`].
//!
//! The runtimes update the table only when a watchdog deadline is
//! configured — without one, no diagnostic can ever be produced and the
//! stores would be dead weight on the per-task hot path. Even then the
//! `waiting_on` mark is written only by a `get_*` whose first probe
//! failed ([`WaitWatch`]): a ready get stores nothing.

use std::sync::atomic::{AtomicU64, Ordering};

use rio_stf::{DataId, TaskId, WorkerId, WorkerSnapshot};

use crate::counters::CounterRegistry;

/// `waiting_on` sentinel: not blocked on any data object.
const NO_DATA: u64 = u64::MAX;

#[repr(align(128))]
#[derive(Debug)]
struct WorkerStatus {
    /// `TaskId.0` of the last completed body (`TaskId::NONE.0` initially).
    last_completed: AtomicU64,
    /// Bodies completed so far.
    executed: AtomicU64,
    /// `DataId.0` of the object currently waited on, or [`NO_DATA`].
    waiting_on: AtomicU64,
    /// The worker's steal counter at its last progress tick — a stall
    /// diagnostic subtracts this from the live counter to show activity
    /// *since* the worker last completed anything.
    steals_at_tick: AtomicU64,
    /// The worker's retry counter at its last progress tick.
    retries_at_tick: AtomicU64,
}

impl Default for WorkerStatus {
    fn default() -> Self {
        WorkerStatus {
            last_completed: AtomicU64::new(TaskId::NONE.0),
            executed: AtomicU64::new(0),
            waiting_on: AtomicU64::new(NO_DATA),
            steals_at_tick: AtomicU64::new(0),
            retries_at_tick: AtomicU64::new(0),
        }
    }
}

/// One padded progress slot per worker. See the module docs.
#[derive(Debug)]
pub struct StatusTable {
    slots: Box<[WorkerStatus]>,
}

/// What a blocked wait marks in the [`StatusTable`]: `worker` is waiting
/// on `data`. Carried by [`crate::protocol::WaitCx::watch`]; the wait
/// stores the mark only once its first probe has failed, and clears it
/// when it returns.
#[derive(Debug, Clone, Copy)]
pub struct WaitWatch<'a> {
    /// The run's progress table.
    pub status: &'a StatusTable,
    /// The waiting worker (its own slot is the only one written).
    pub worker: WorkerId,
    /// The data object waited on.
    pub data: DataId,
}

impl StatusTable {
    /// A table for `workers` workers, all slots pristine.
    pub fn new(workers: usize) -> StatusTable {
        StatusTable {
            slots: (0..workers).map(|_| WorkerStatus::default()).collect(),
        }
    }

    /// Records that `worker` completed the body of `task`, its
    /// `executed`-th so far. `steals`/`retries` are the worker's live
    /// counter values at this tick (pass 0 without counters): a later
    /// stall diagnostic renders the *delta* since this tick, so a report
    /// distinguishes "stuck waiting" from a steal/retry storm.
    #[inline]
    pub fn completed(
        &self,
        worker: WorkerId,
        task: TaskId,
        executed: u64,
        steals: u64,
        retries: u64,
    ) {
        let slot = &self.slots[worker.index()];
        slot.last_completed.store(task.0, Ordering::Relaxed);
        slot.executed.store(executed, Ordering::Relaxed);
        slot.steals_at_tick.store(steals, Ordering::Relaxed);
        slot.retries_at_tick.store(retries, Ordering::Relaxed);
    }

    /// Marks `worker` as blocked on `data`.
    #[inline]
    pub fn begin_wait(&self, worker: WorkerId, data: DataId) {
        self.slots[worker.index()]
            .waiting_on
            .store(u64::from(data.0), Ordering::Relaxed);
    }

    /// Clears `worker`'s blocked marker.
    #[inline]
    pub fn end_wait(&self, worker: WorkerId) {
        self.slots[worker.index()]
            .waiting_on
            .store(NO_DATA, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of every worker's progress, for a stall
    /// diagnostic. Relaxed loads: the dump is advisory, not a fence.
    pub fn snapshot(&self) -> Vec<WorkerSnapshot> {
        self.snapshot_with(None)
    }

    /// Like [`StatusTable::snapshot`], but with the run's counter
    /// registry: each worker's row also carries its steal/retry counter
    /// deltas since its last progress tick. Saturating — a tick stored
    /// after the live counters were sampled must read as "no activity",
    /// never wrap.
    pub fn snapshot_with(&self, registry: Option<&CounterRegistry>) -> Vec<WorkerSnapshot> {
        self.slots
            .iter()
            .enumerate()
            .map(|(w, slot)| {
                let waiting = slot.waiting_on.load(Ordering::Relaxed);
                let ctr = registry.filter(|r| w < r.len()).map(|r| r.worker(w));
                let since = |live: u64, at_tick: &AtomicU64| {
                    live.saturating_sub(at_tick.load(Ordering::Relaxed))
                };
                WorkerSnapshot {
                    worker: WorkerId::from_index(w),
                    last_completed: TaskId(slot.last_completed.load(Ordering::Relaxed)),
                    tasks_executed: slot.executed.load(Ordering::Relaxed),
                    waiting_on: (waiting != NO_DATA).then_some(DataId(waiting as u32)),
                    steals_since_tick: ctr.map_or(0, |c| since(c.steals(), &slot.steals_at_tick)),
                    retries_since_tick: ctr
                        .map_or(0, |c| since(c.retries(), &slot.retries_at_tick)),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_reports_no_progress() {
        let t = StatusTable::new(3);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 3);
        for (i, s) in snap.iter().enumerate() {
            assert_eq!(s.worker, WorkerId::from_index(i));
            assert_eq!(s.last_completed, TaskId::NONE);
            assert_eq!(s.tasks_executed, 0);
            assert_eq!(s.waiting_on, None);
        }
    }

    #[test]
    fn updates_are_visible_in_the_snapshot() {
        let t = StatusTable::new(2);
        t.completed(WorkerId(0), TaskId(7), 4, 0, 0);
        t.begin_wait(WorkerId(1), DataId(3));
        let snap = t.snapshot();
        assert_eq!(snap[0].last_completed, TaskId(7));
        assert_eq!(snap[0].tasks_executed, 4);
        assert_eq!(snap[1].waiting_on, Some(DataId(3)));
        t.end_wait(WorkerId(1));
        assert_eq!(t.snapshot()[1].waiting_on, None);
    }

    #[test]
    fn counter_deltas_measure_activity_since_the_last_tick() {
        let reg = CounterRegistry::new(2);
        let t = StatusTable::new(2);
        // W0 ticks with 2 steals / 1 retry recorded, then keeps stealing
        // and retrying without completing anything: the snapshot shows
        // the storm as a delta.
        reg.worker(0).inc_steals();
        reg.worker(0).inc_steals();
        reg.worker(0).inc_retries();
        t.completed(
            WorkerId(0),
            TaskId(3),
            1,
            reg.worker(0).steals(),
            reg.worker(0).retries(),
        );
        for _ in 0..5 {
            reg.worker(0).inc_steals();
        }
        reg.worker(0).inc_retries();
        let snap = t.snapshot_with(Some(&reg));
        assert_eq!(snap[0].steals_since_tick, 5);
        assert_eq!(snap[0].retries_since_tick, 1);
        // W1 never ticked: its whole history counts as "since tick".
        reg.worker(1).inc_retries();
        let snap = t.snapshot_with(Some(&reg));
        assert_eq!(snap[1].retries_since_tick, 1);
        // Without a registry the deltas stay zero.
        let plain = t.snapshot();
        assert_eq!(plain[0].steals_since_tick, 0);
        assert_eq!(plain[0].retries_since_tick, 0);
    }

    #[test]
    fn slots_are_cache_line_padded() {
        assert!(std::mem::align_of::<WorkerStatus>() >= 128);
    }
}
