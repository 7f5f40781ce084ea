//! Always-on, per-worker protocol counters.
//!
//! Tracing ([`rio_trace`]) records *events* and costs two clock
//! reads per span — too heavy to leave enabled in production. This module
//! is the complementary layer: seven monotonic counters per worker, each a
//! plain `Relaxed` increment on a cache line owned by that worker, cheap
//! enough to stay on under full traffic (the `repro counters` gate bounds
//! the overhead to <1% on the fig7 row). A
//! [`CounterRegistry`] can be handed to the runtime through
//! [`crate::RioConfig::counter_registry`] and sampled from any thread
//! *while the run executes* ([`CounterRegistry::snapshot`]); without an
//! external registry every run allocates its own and attaches the final
//! snapshot to the [`crate::ExecReport`].
//!
//! The counters deliberately mirror the protocol's cost model rather than
//! the trace's time model: tasks run, epoch-guard spins
//! (condition re-checks in `get_*`), parks, wakes elided by the
//! waiter-aware terminate, aborts detected, and kernel retries and poison
//! bits set under a recovery policy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::config::RioConfig;

/// One worker's always-on counters: a single padded cache line of
/// `Relaxed` atomics. The owning worker is the only writer on the hot
/// path; any thread may read a (monotonic, eventually consistent) sample.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct WorkerCounters {
    tasks: AtomicU64,
    spins: AtomicU64,
    parks: AtomicU64,
    wakes_elided: AtomicU64,
    aborts: AtomicU64,
    retries: AtomicU64,
    poisoned: AtomicU64,
}

/// Single-writer increment: the owning worker is the only incrementer,
/// so a `Relaxed` load + store (a plain `add`, no `lock` prefix) replaces
/// the read-modify-write. A locked `fetch_add` costs ~20 cycles even
/// uncontended — two per task is enough to blow the <1% overhead budget
/// on fig7-sized tasks.
#[inline]
fn bump(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
}

impl WorkerCounters {
    /// One task body executed.
    #[inline]
    pub fn inc_tasks(&self) {
        bump(&self.tasks, 1);
    }

    /// `n` task bodies executed: a block's worth, in one bump.
    #[inline]
    pub fn add_tasks(&self, n: u64) {
        bump(&self.tasks, n);
    }

    /// `n` epoch-guard condition re-checks performed while blocked in a
    /// `get_read`/`get_write`.
    #[inline]
    pub fn add_spins(&self, n: u64) {
        if n != 0 {
            bump(&self.spins, n);
        }
    }

    /// `n` park/wake transitions.
    #[inline]
    pub fn add_parks(&self, n: u64) {
        if n != 0 {
            bump(&self.parks, n);
        }
    }

    /// `n` `terminate_*` that skipped their wake because no waiter was
    /// advertised (Park strategy only): a task's worth, in one bump.
    #[inline]
    pub fn add_wakes_elided(&self, n: u64) {
        if n != 0 {
            bump(&self.wakes_elided, n);
        }
    }

    /// One abort detected by this worker (body panic or watchdog stall).
    #[inline]
    pub fn inc_aborts(&self) {
        bump(&self.aborts, 1);
    }

    /// One kernel re-attempt under a recovery policy.
    #[inline]
    pub fn inc_retries(&self) {
        bump(&self.retries, 1);
    }

    /// `n` poison bits newly set by this worker (a failed or skipped
    /// task marking its written data).
    #[inline]
    pub fn add_poisoned(&self, n: u64) {
        if n != 0 {
            bump(&self.poisoned, n);
        }
    }

    /// Current retry count (cheap `Relaxed` load; any thread may sample).
    /// The progress watchdog records this at every completion tick so a
    /// stall report can show the delta since the worker last progressed.
    #[inline]
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// A point-in-time sample of this worker's counters.
    pub fn row(&self) -> CounterRow {
        CounterRow {
            tasks: self.tasks.load(Ordering::Relaxed),
            spins: self.spins.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            wakes_elided: self.wakes_elided.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            steals: 0,
        }
    }

    /// Resets every counter to zero (not atomic across counters; call
    /// between runs, not during one).
    pub fn reset(&self) {
        self.tasks.store(0, Ordering::Relaxed);
        self.spins.store(0, Ordering::Relaxed);
        self.parks.store(0, Ordering::Relaxed);
        self.wakes_elided.store(0, Ordering::Relaxed);
        self.aborts.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.poisoned.store(0, Ordering::Relaxed);
    }
}

/// The always-on counters of one run (or, when supplied through
/// [`crate::RioConfig::counter_registry`], of every run sharing it): one
/// padded [`WorkerCounters`] line per worker.
#[derive(Debug)]
pub struct CounterRegistry {
    workers: Box<[WorkerCounters]>,
}

impl CounterRegistry {
    /// A registry for `workers` workers, all counters zero.
    pub fn new(workers: usize) -> CounterRegistry {
        CounterRegistry {
            workers: (0..workers).map(|_| WorkerCounters::default()).collect(),
        }
    }

    /// Number of worker slots.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The counter line of worker `w`.
    ///
    /// # Panics
    /// If `w` is out of range.
    pub fn worker(&self, w: usize) -> &WorkerCounters {
        &self.workers[w]
    }

    /// A point-in-time sample of every worker's counters. Safe to call
    /// from any thread mid-run: each row is read with `Relaxed` loads, so
    /// the sample is per-counter monotonic but not a global cut.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            workers: self.workers.iter().map(WorkerCounters::row).collect(),
        }
    }

    /// Resets every worker's counters (between runs).
    pub fn reset(&self) {
        for w in self.workers.iter() {
            w.reset();
        }
    }

    /// The registry a run should publish into: the externally supplied
    /// one when the config names it, a fresh per-run allocation otherwise,
    /// `None` when counters are disabled.
    ///
    /// # Panics
    /// If a supplied registry has fewer slots than `cfg.workers`.
    pub(crate) fn for_run(cfg: &RioConfig) -> Option<Arc<CounterRegistry>> {
        if !cfg.counters {
            return None;
        }
        match &cfg.counter_registry {
            Some(reg) => {
                assert!(
                    reg.len() >= cfg.workers,
                    "counter registry has {} slots but the run uses {} workers",
                    reg.len(),
                    cfg.workers
                );
                Some(Arc::clone(reg))
            }
            None => Some(Arc::new(CounterRegistry::new(cfg.workers))),
        }
    }
}

/// One worker's sampled counter values (plain integers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterRow {
    /// Task bodies executed.
    pub tasks: u64,
    /// Epoch-guard condition re-checks while blocked in `get_*`.
    pub spins: u64,
    /// Park/wake transitions.
    pub parks: u64,
    /// Terminates that elided their wake (no waiter advertised).
    pub wakes_elided: u64,
    /// Aborts detected (body panics, watchdog stalls).
    pub aborts: u64,
    /// Kernel re-attempts under a recovery policy.
    pub retries: u64,
    /// Poison bits set (data marked untrustworthy by failed/skipped
    /// tasks).
    pub poisoned: u64,
    /// Always 0: the runtime no longer steals. The field stays because
    /// the `benchmark/` package reads it for its `steal.steals` layer;
    /// it leaves with that layer at the next benchmark-contract bump.
    pub steals: u64,
}

impl CounterRow {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &CounterRow) {
        self.tasks += other.tasks;
        self.spins += other.spins;
        self.parks += other.parks;
        self.wakes_elided += other.wakes_elided;
        self.aborts += other.aborts;
        self.retries += other.retries;
        self.poisoned += other.poisoned;
    }
}

/// A sampled [`CounterRegistry`]: one [`CounterRow`] per worker. Attached
/// to every [`crate::ExecReport`] (empty when counters were disabled).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Per-worker rows, in worker order.
    pub workers: Vec<CounterRow>,
}

impl CountersSnapshot {
    /// Sum of every worker's row.
    pub fn total(&self) -> CounterRow {
        let mut t = CounterRow::default();
        for w in &self.workers {
            t.merge(w);
        }
        t
    }

    /// Were counters recorded at all?
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// Per-worker executed-task counts, in worker order — the
    /// counters-only stand-in for a trace's per-worker load split,
    /// consumed by the doctor's trace-free fast path
    /// (`rio_doctor::diagnose_counters`).
    pub fn tasks_per_worker(&self) -> Vec<u64> {
        self.workers.iter().map(|w| w.tasks).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = CounterRegistry::new(2);
        reg.worker(0).inc_tasks();
        reg.worker(0).inc_tasks();
        reg.worker(0).add_spins(5);
        reg.worker(1).add_parks(3);
        reg.worker(1).add_wakes_elided(1);
        reg.worker(1).inc_aborts();
        reg.worker(0).inc_retries();
        reg.worker(0).add_poisoned(2);
        let snap = reg.snapshot();
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].tasks, 2);
        assert_eq!(snap.workers[0].spins, 5);
        assert_eq!(snap.workers[0].retries, 1);
        assert_eq!(snap.workers[0].poisoned, 2);
        assert_eq!(snap.workers[1].parks, 3);
        assert_eq!(snap.workers[1].wakes_elided, 1);
        assert_eq!(snap.workers[1].aborts, 1);
        let total = snap.total();
        assert_eq!(total.tasks, 2);
        assert_eq!(total.spins, 5);
        assert_eq!(total.parks, 3);
        assert_eq!(total.retries, 1);
        assert_eq!(total.poisoned, 2);
    }

    #[test]
    fn heuristic_inputs_derive_from_the_rows() {
        let snap = CountersSnapshot {
            workers: vec![
                CounterRow {
                    tasks: 7,
                    ..CounterRow::default()
                },
                CounterRow {
                    tasks: 3,
                    ..CounterRow::default()
                },
            ],
        };
        assert_eq!(snap.tasks_per_worker(), vec![7, 3]);
    }

    #[test]
    fn zero_adds_do_not_touch_memory_semantics() {
        let c = WorkerCounters::default();
        c.add_spins(0);
        c.add_parks(0);
        c.add_poisoned(0);
        assert_eq!(c.row(), CounterRow::default());
    }

    #[test]
    fn reset_clears_everything() {
        let reg = CounterRegistry::new(1);
        reg.worker(0).inc_tasks();
        reg.worker(0).add_spins(9);
        reg.reset();
        assert_eq!(reg.snapshot().total(), CounterRow::default());
    }

    #[test]
    fn registry_resolution_follows_the_config() {
        let cfg = RioConfig::with_workers(2);
        let fresh = CounterRegistry::for_run(&cfg).expect("counters default on");
        assert_eq!(fresh.len(), 2);

        let off = RioConfig::with_workers(2).counters(false);
        assert!(CounterRegistry::for_run(&off).is_none());

        let ext = Arc::new(CounterRegistry::new(4));
        let cfg = RioConfig::with_workers(2).counter_registry(Arc::clone(&ext));
        let reg = CounterRegistry::for_run(&cfg).expect("registry supplied");
        assert!(Arc::ptr_eq(&reg, &ext), "the supplied registry is used");
    }

    #[test]
    #[should_panic(expected = "counter registry has 1 slots")]
    fn short_registry_is_rejected() {
        let cfg = RioConfig::with_workers(2).counter_registry(Arc::new(CounterRegistry::new(1)));
        let _ = CounterRegistry::for_run(&cfg);
    }

    #[test]
    fn padded_to_a_cache_line() {
        assert!(std::mem::align_of::<WorkerCounters>() >= 128);
        assert!(std::mem::size_of::<WorkerCounters>() <= 128);
    }
}
