//! Reduction (accumulation) extension — data-versioning-inspired relaxation
//! of strict STF ordering.
//!
//! The paper notes (§3.4) that an extended variant of its protocol is used
//! by SuperGlue, whose *data versioning* lets programs express constructs
//! beyond strict sequential consistency, such as **reductions**. This
//! module implements that idea on top of the decentralized in-order model:
//! a fourth access mode, [`RMode::Accumulate`], declares a *commutative*
//! update. Consecutive accumulations into the same data object may execute
//! in **any order across workers** (they are mutually excluded, not
//! ordered), while reads and writes keep their sequential-consistency
//! position relative to the whole accumulation group.
//!
//! Protocol extension: the shared state gains a third counter,
//! `nb_accs_since_write`, and each worker's private state mirrors it.
//!
//! | operation    | waits for                                             |
//! |--------------|-------------------------------------------------------|
//! | read         | last write performed **and** all prior accs performed |
//! | accumulate   | last write performed **and** all prior reads performed|
//! | write        | last write, all prior reads **and** accs performed    |
//!
//! Accumulations never wait for each other; their bodies are serialized by
//! a per-object mutex. Blocked waits use the same spin budget and the same
//! waiter-aware wake elision as the base protocol (see [`crate::wait`],
//! `crate::futex`): a terminator only enters the kernel when a waiter
//! has advertised itself first. A panicking body aborts the run, waking
//! its siblings, exactly as in the other front-ends (DESIGN.md §8).
//!
//! ```
//! use rio_core::redux::{RAccess, ReduxRio};
//! use rio_core::RioConfig;
//! use rio_stf::{DataId, DataStore, RoundRobin};
//!
//! // Parallel sum reduction into D0: the accumulation order is free.
//! let store = DataStore::from_vec(vec![0u64]);
//! let rio = ReduxRio::new(RioConfig::with_workers(4));
//! rio.run(&store, &RoundRobin, |ctx| {
//!     for i in 1..=100u64 {
//!         ctx.task(&[RAccess::accumulate(DataId(0))], move |v| {
//!             *v.accumulate(DataId(0)) += i;
//!         });
//!     }
//!     ctx.task(&[RAccess::read(DataId(0))], |v| {
//!         assert_eq!(*v.read(DataId(0)), 5050);
//!     });
//! });
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rio_stf::store::{ReadGuard, WriteGuard};
use rio_stf::{Access, DataId, DataStore, Mapping, TaskId, WorkerId};

use crate::config::RioConfig;
use crate::futex::EventCount;
use crate::graph::{unwind_aborted, RunShell, WorkerCtx};
use crate::pool::WorkerSet;
use crate::protocol::{pack_epoch, unpoisoned, wait_until};
use crate::report::ExecReport;
use crate::wait::WaitStrategy;

/// Access modes of the reduction-extended model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RMode {
    /// Shared read (as in plain STF).
    Read,
    /// Exclusive write (as in plain STF).
    Write,
    /// Exclusive read-write (as in plain STF).
    ReadWrite,
    /// Commutative update: unordered w.r.t. other accumulations, ordered
    /// w.r.t. reads and writes.
    Accumulate,
}

/// One declared access of a reduction-extended task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RAccess {
    /// The data object accessed.
    pub data: DataId,
    /// How it is accessed.
    pub mode: RMode,
}

impl RAccess {
    /// Read access.
    pub fn read(data: DataId) -> RAccess {
        RAccess {
            data,
            mode: RMode::Read,
        }
    }
    /// Write access.
    pub fn write(data: DataId) -> RAccess {
        RAccess {
            data,
            mode: RMode::Write,
        }
    }
    /// Read-write access.
    pub fn read_write(data: DataId) -> RAccess {
        RAccess {
            data,
            mode: RMode::ReadWrite,
        }
    }
    /// Accumulate (commutative update) access.
    pub fn accumulate(data: DataId) -> RAccess {
        RAccess {
            data,
            mode: RMode::Accumulate,
        }
    }
}

/// Private per-worker view of one data object (three integers).
#[derive(Debug, Clone, Copy, Default)]
struct RLocal {
    nb_reads_since_write: u64,
    nb_accs_since_write: u64,
    last_registered_write: u64,
}

impl RLocal {
    /// Registers an access of `task` in `mode`, on every worker alike.
    fn declare(&mut self, mode: RMode, task: TaskId) {
        match mode {
            RMode::Read => self.nb_reads_since_write += 1,
            RMode::Accumulate => self.nb_accs_since_write += 1,
            RMode::Write | RMode::ReadWrite => {
                *self = RLocal {
                    last_registered_write: task.0,
                    ..RLocal::default()
                }
            }
        }
    }
}

/// Shared state of one data object in the extended protocol.
///
/// Like [`crate::protocol::SharedDataState`] this carries no mutex or
/// condvar for *waiting*: blocked waiters sleep on the object's own
/// event-count, which also lets terminators elide the wake entirely when
/// nobody sleeps. (The `body_lock` is unrelated: it serializes
/// accumulation *bodies*, not protocol waits.)
#[derive(Default)]
#[repr(align(128))]
struct RShared {
    nb_reads_since_write: AtomicU64,
    nb_accs_since_write: AtomicU64,
    /// Starts at `TaskId::NONE`, which is 0.
    last_executed_write: AtomicU64,
    /// Who sleeps on this object, and the word they sleep on.
    event: EventCount,
    /// Serializes accumulation bodies.
    body_lock: Mutex<()>,
}

impl RShared {
    /// Publishes a performed access of `task` in `mode`. Returns whether a
    /// `Park`-mode wake was elided.
    fn publish(&self, mode: RMode, task: TaskId, strategy: WaitStrategy) -> bool {
        // Under Park the publish is `S` (`crate::futex`): SeqCst, before
        // `L`, so it pairs with the waiter's SeqCst `I`-then-`R` re-check.
        let park = strategy == WaitStrategy::Park;
        let publish = if park {
            Ordering::SeqCst
        } else {
            Ordering::Release
        };
        match mode {
            RMode::Read => {
                self.nb_reads_since_write.fetch_add(1, publish);
            }
            RMode::Accumulate => {
                self.nb_accs_since_write.fetch_add(1, publish);
            }
            RMode::Write | RMode::ReadWrite => {
                self.nb_reads_since_write.store(0, Ordering::Relaxed);
                self.nb_accs_since_write.store(0, Ordering::Relaxed);
                self.last_executed_write.store(task.0, publish);
            }
        }
        park && !self.event.notify_if_waiters()
    }
}

/// Runtime handle for the reduction-extended flow API. It owns the
/// three-counter guard, the private views and the accumulation body
/// locks; the run shell and everything around a body — containment,
/// recovery (one attempt: a body is `FnOnce`), watchdog, accounting — are
/// the ones every front-end shares (`crate::graph`).
#[derive(Debug, Clone)]
pub struct ReduxRio {
    cfg: RioConfig,
    /// The worker threads, started by the first run (clones share them).
    set: Arc<WorkerSet>,
}

impl ReduxRio {
    /// Creates a runtime with the given configuration.
    pub fn new(mut cfg: RioConfig) -> ReduxRio {
        cfg.validate();
        cfg.recovery = cfg.recovery.map(|p| p.max_retries(0));
        let set = Arc::default();
        ReduxRio { cfg, set }
    }

    /// Replays `flow` on every worker (see [`crate::Rio::run`]); tasks may
    /// additionally declare [`RMode::Accumulate`] accesses.
    ///
    /// # Panics
    /// Propagates a task-body panic (original payload) once every worker
    /// has left the flow; panics with the rendered diagnostic of a
    /// watchdog stall ([`RioConfig::watchdog`]), and if workers disagree
    /// on the flow.
    pub fn run<T, M, F>(&self, store: &DataStore<T>, mapping: &M, flow: F) -> ExecReport
    where
        T: Send,
        M: Mapping,
        F: Fn(&mut ReduxCtx<'_, T>) + Sync,
    {
        let mapping: &dyn Mapping = mapping;
        let shared: Box<[RShared]> = (0..store.len()).map(|_| RShared::default()).collect();
        let shared = &shared[..];
        let wake = || shared.iter().for_each(|s| s.event.notify_all());
        // No word table: the engine performs no get or publication here.
        let run = RunShell::new(&self.cfg, store.len()).run_flow(&self.set, &[], &wake, |wk| {
            let mut ctx = ReduxCtx {
                wk,
                mapping,
                shared,
                locals: vec![RLocal::default(); store.len()],
                store,
                declared: Vec::new(),
            };
            let loop_start = Instant::now();
            flow(&mut ctx);
            let sum = ctx.wk.flow_sum;
            (ctx.wk.finish(loop_start), sum)
        });
        run.unwrap_or_else(|e| e.resume()).0
    }
}

/// Per-worker replay context of the reduction-extended model.
pub struct ReduxCtx<'a, T> {
    wk: WorkerCtx<'a>,
    mapping: &'a (dyn Mapping + 'a),
    shared: &'a [RShared],
    locals: Vec<RLocal>,
    store: &'a DataStore<T>,
    /// Scratch: an own task's accesses as the engine's body block reads them.
    declared: Vec<Access>,
}

impl<'a, T> ReduxCtx<'a, T> {
    /// The worker replaying this flow instance.
    pub fn worker(&self) -> WorkerId {
        self.wk.me
    }

    /// Total number of workers.
    pub fn num_workers(&self) -> usize {
        self.wk.cfg.workers
    }

    /// Submits the next task. Semantics as [`crate::FlowCtx::task`], with
    /// accumulate accesses relaxed as described in the module docs.
    pub fn task(&mut self, accesses: &[RAccess], body: impl FnOnce(&ReduxView<'_, T>)) -> TaskId {
        let shape = accesses.iter().map(|a| (a.data, a.mode as u64));
        let (id, own) = self.wk.next_flow_task(self.mapping, shape);
        if own {
            self.run_own(id, accesses, body);
        } else {
            self.wk.ops.declares += accesses.len() as u64;
        }
        for a in accesses {
            self.locals[a.data.index()].declare(a.mode, id);
        }
        id
    }

    /// `get_* → body → terminate_*` of a task of this worker's own.
    fn run_own(&mut self, id: TaskId, accesses: &[RAccess], body: impl FnOnce(&ReduxView<'_, T>)) {
        self.wk.ops.gets += accesses.len() as u64;
        self.declared.clear();
        for a in accesses {
            let s = &self.shared[a.data.index()];
            let l = self.locals[a.data.index()];
            let writes = a.mode != RMode::Read;
            let declared = if writes {
                Access::read_write
            } else {
                Access::read
            };
            self.declared.push(declared(a.data));
            let written = |o| s.last_executed_write.load(o) == l.last_registered_write;
            let read = |o| s.nb_reads_since_write.load(o) == l.nb_reads_since_write;
            let accumulated = |o| s.nb_accs_since_write.load(o) == l.nb_accs_since_write;
            let cx = self.wk.wait_cx(a.data);
            let wr = match a.mode {
                RMode::Read => wait_until(&s.event, &cx, |o| written(o) && accumulated(o)),
                RMode::Accumulate => wait_until(&s.event, &cx, |o| written(o) && read(o)),
                RMode::Write | RMode::ReadWrite => {
                    wait_until(&s.event, &cx, |o| written(o) && read(o) && accumulated(o))
                }
            };
            // What a stall diagnostic has fields for: writes and reads.
            let views = || {
                let write = s.last_executed_write.load(Ordering::Acquire);
                let reads = s.nb_reads_since_write.load(Ordering::Acquire);
                let registered =
                    pack_epoch(TaskId(l.last_registered_write), l.nb_reads_since_write);
                (registered, pack_epoch(TaskId(write), reads))
            };
            if !self.wk.settle_wait(id, a.data, writes, wr, views) {
                unwind_aborted();
            }
        }

        // Serialize accumulation bodies: take the body locks of every
        // accumulated object in ascending DataId order (global order =>
        // no deadlock among concurrent accumulators). They are released
        // however the body ends: the engine contains its panic.
        let mut acc_targets: Vec<DataId> = accesses
            .iter()
            .filter(|a| a.mode == RMode::Accumulate)
            .map(|a| a.data)
            .collect();
        acc_targets.sort_unstable();
        let body_guards: Vec<_> = acc_targets
            .iter()
            .map(|d| unpoisoned(self.shared[d.index()].body_lock.lock()))
            .collect();
        let view = ReduxView {
            accesses,
            store: self.store,
        };
        let mut body = Some(body);
        let once = || (body.take().expect("a flow body gets one attempt"))(&view);
        let alive = self.wk.run_body(id, &self.declared, once);
        drop(body_guards);
        if !alive {
            unwind_aborted();
        }
        self.wk.tick(id);

        // Skip-but-sync: whether or not the body ran.
        self.wk.ops.terminates += accesses.len() as u64;
        let strategy = self.wk.cfg.wait;
        let elided = accesses
            .iter()
            .filter(|a| self.shared[a.data.index()].publish(a.mode, id, strategy))
            .count();
        self.wk.add_wakes_elided(elided as u64);
    }
}

/// Access-checked view inside a reduction-extended task body.
pub struct ReduxView<'a, T> {
    accesses: &'a [RAccess],
    store: &'a DataStore<T>,
}

impl<'a, T> ReduxView<'a, T> {
    fn declared_mode(&self, data: DataId) -> RMode {
        self.accesses
            .iter()
            .find(|a| a.data == data)
            .unwrap_or_else(|| panic!("task body accessed undeclared {data}"))
            .mode
    }

    /// Shared access to a `Read`/`ReadWrite` object.
    pub fn read(&self, data: DataId) -> ReadGuard<'a, T> {
        let mode = self.declared_mode(data);
        assert!(
            matches!(mode, RMode::Read | RMode::ReadWrite),
            "task body read {data} declared as {mode:?}"
        );
        self.store.read(data)
    }

    /// Exclusive access to a `Write`/`ReadWrite` object.
    pub fn write(&self, data: DataId) -> WriteGuard<'a, T> {
        let mode = self.declared_mode(data);
        assert!(
            matches!(mode, RMode::Write | RMode::ReadWrite),
            "task body wrote {data} declared as {mode:?}"
        );
        self.store.write(data)
    }

    /// Exclusive access to an `Accumulate` object (the body lock is already
    /// held by the runtime for the duration of the task body).
    pub fn accumulate(&self, data: DataId) -> WriteGuard<'a, T> {
        let mode = self.declared_mode(data);
        assert!(
            mode == RMode::Accumulate,
            "task body accumulated into {data} declared as {mode:?}"
        );
        self.store.write(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::RoundRobin;

    fn rio(workers: usize) -> ReduxRio {
        ReduxRio::new(RioConfig::with_workers(workers))
    }

    #[test]
    fn sum_reduction_is_exact() {
        let store = DataStore::from_vec(vec![0u64]);
        rio(4).run(&store, &RoundRobin, |ctx| {
            for i in 1..=1000u64 {
                ctx.task(&[RAccess::accumulate(DataId(0))], move |v| {
                    *v.accumulate(DataId(0)) += i;
                });
            }
        });
        assert_eq!(store.into_vec(), vec![500_500]);
    }

    #[test]
    fn read_after_accumulations_sees_all_of_them() {
        let store = DataStore::from_vec(vec![0u64, 0]);
        rio(3).run(&store, &RoundRobin, |ctx| {
            for _ in 0..60 {
                ctx.task(&[RAccess::accumulate(DataId(0))], |v| {
                    *v.accumulate(DataId(0)) += 1;
                });
            }
            // The read is ordered after the whole accumulation group.
            ctx.task(
                &[RAccess::read(DataId(0)), RAccess::write(DataId(1))],
                |v| {
                    let sum = *v.read(DataId(0));
                    *v.write(DataId(1)) = sum;
                },
            );
        });
        assert_eq!(store.into_vec(), vec![60, 60]);
    }

    #[test]
    fn write_resets_the_accumulation_group() {
        let store = DataStore::from_vec(vec![0u64]);
        rio(2).run(&store, &RoundRobin, |ctx| {
            for _ in 0..10 {
                ctx.task(&[RAccess::accumulate(DataId(0))], |v| {
                    *v.accumulate(DataId(0)) += 1;
                });
            }
            ctx.task(&[RAccess::write(DataId(0))], |v| {
                *v.write(DataId(0)) = 100; // discards the accumulations
            });
            for _ in 0..5 {
                ctx.task(&[RAccess::accumulate(DataId(0))], |v| {
                    *v.accumulate(DataId(0)) += 1;
                });
            }
        });
        assert_eq!(store.into_vec(), vec![105]);
    }

    #[test]
    fn accumulations_wait_for_prior_reads() {
        // W(42), R checks 42, A doubles; if A overtook R, R would see 84.
        let store = DataStore::from_vec(vec![0u64, 0]);
        rio(3).run(&store, &RoundRobin, |ctx| {
            for _ in 0..20 {
                ctx.task(&[RAccess::write(DataId(0))], |v| {
                    *v.write(DataId(0)) = 42;
                });
                ctx.task(
                    &[RAccess::read(DataId(0)), RAccess::accumulate(DataId(1))],
                    |v| {
                        assert_eq!(*v.read(DataId(0)), 42);
                        *v.accumulate(DataId(1)) += 1;
                    },
                );
                ctx.task(&[RAccess::accumulate(DataId(0))], |v| {
                    *v.accumulate(DataId(0)) *= 2;
                });
                ctx.task(&[RAccess::read(DataId(0))], |v| {
                    assert_eq!(*v.read(DataId(0)), 84);
                });
            }
        });
        assert_eq!(store.into_vec(), vec![84, 20]);
    }

    #[test]
    fn mixed_reads_and_reductions_interleave_correctly() {
        let store = DataStore::from_vec(vec![1u64]);
        rio(4).run(&store, &RoundRobin, |ctx| {
            // (((1 + 3 accs) written back thrice)) with validation reads.
            for round in 1..=3u64 {
                for _ in 0..3 {
                    ctx.task(&[RAccess::accumulate(DataId(0))], |v| {
                        *v.accumulate(DataId(0)) += 1;
                    });
                }
                ctx.task(&[RAccess::read_write(DataId(0))], move |v| {
                    let x = *v.read(DataId(0));
                    assert_eq!(x, 1 + 3 * round + (round - 1));
                    *v.write(DataId(0)) = x + 1;
                });
            }
        });
        assert_eq!(store.into_vec(), vec![1 + 3 * 3 + 3]);
    }

    #[test]
    #[should_panic(expected = "non-deterministic flow")]
    fn non_deterministic_flow_is_detected() {
        let store = DataStore::from_vec(Vec::<u64>::new());
        rio(2).run(&store, &RoundRobin, |ctx| {
            // Worker 0 submits one access-free task fewer: forbidden.
            let n = if ctx.worker() == WorkerId(0) { 3 } else { 4 };
            for _ in 0..n {
                ctx.task(&[], |_| {});
            }
        });
    }

    #[test]
    #[should_panic(expected = "accumulated into")]
    fn accumulate_requires_declaration() {
        let store = DataStore::from_vec(vec![0u64]);
        rio(1).run(&store, &RoundRobin, |ctx| {
            ctx.task(&[RAccess::read(DataId(0))], |v| {
                let _ = v.accumulate(DataId(0));
            });
        });
    }

    #[test]
    fn multi_target_accumulation_does_not_deadlock() {
        let store = DataStore::from_vec(vec![0u64, 0]);
        rio(4).run(&store, &RoundRobin, |ctx| {
            for i in 0..100u32 {
                // Alternate declaration order; lock order stays canonical.
                let (a, b) = if i % 2 == 0 {
                    (DataId(0), DataId(1))
                } else {
                    (DataId(1), DataId(0))
                };
                ctx.task(
                    &[RAccess::accumulate(a), RAccess::accumulate(b)],
                    move |v| {
                        *v.accumulate(a) += 1;
                        *v.accumulate(b) += 1;
                    },
                );
            }
        });
        assert_eq!(store.into_vec(), vec![100, 100]);
    }
}
