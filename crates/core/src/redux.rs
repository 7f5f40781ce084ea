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
//! has advertised itself first.
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
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rio_stf::store::{ReadGuard, WriteGuard};
use rio_stf::{DataId, DataStore, Mapping, TaskId, WorkerId};

use crate::config::RioConfig;
use crate::futex::EventCount;
use crate::protocol::{unpoisoned, wait_blocked, AbortFlag, WaitCx};
use crate::report::{ExecReport, OpCounts, WorkerReport};
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
    /// Waits until `cond` holds. The closure receives the memory ordering
    /// it must use for its loads (see [`wait_blocked`]). Returns the polls
    /// spent and — with `cx.timed`, and only when the first probe failed —
    /// how long the wait was blocked: a ready get reads no clock.
    #[inline]
    fn wait_until(&self, cx: &WaitCx<'_>, cond: impl Fn(Ordering) -> bool) -> (u64, Duration) {
        if cond(Ordering::Acquire) {
            return (0, Duration::ZERO);
        }
        let r = wait_blocked(&self.event, cx, cond);
        let blocked = r.blocked_at.map_or(Duration::ZERO, |t0| t0.elapsed());
        (r.outcome.polls, blocked)
    }
}

/// Runtime handle for the reduction-extended flow API.
#[derive(Debug, Clone)]
pub struct ReduxRio {
    cfg: RioConfig,
}

impl ReduxRio {
    /// Creates a runtime with the given configuration.
    pub fn new(cfg: RioConfig) -> ReduxRio {
        cfg.validate();
        ReduxRio { cfg }
    }

    /// Replays `flow` on every worker (see [`crate::Rio::run`]); tasks may
    /// additionally declare [`RMode::Accumulate`] accesses.
    pub fn run<T, M, F>(&self, store: &DataStore<T>, mapping: &M, flow: F) -> ExecReport
    where
        T: Send,
        M: Mapping,
        F: Fn(&mut ReduxCtx<'_, T>) + Sync,
    {
        let cfg = &self.cfg;
        let mapping: &dyn Mapping = mapping;
        let shared: Box<[RShared]> = (0..store.len()).map(|_| RShared::default()).collect();
        let shared = &shared;
        let flow = &flow;
        let registry = crate::counters::CounterRegistry::for_run(cfg);
        let registry = registry.as_deref();
        // Nothing aborts a reduction run; the shared wait loop wants a flag.
        let abort = &AbortFlag::new();

        let start = Instant::now();
        let workers: Vec<WorkerReport> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.workers)
                .map(|w| {
                    s.spawn(move || {
                        let me = WorkerId::from_index(w);
                        let mut ctx = ReduxCtx {
                            me,
                            num_workers: cfg.workers,
                            cx: WaitCx {
                                spin_limit: cfg.spin_polls(),
                                timed: cfg.measure_time,
                                ..WaitCx::new(cfg.wait, abort)
                            },
                            mapping,
                            shared,
                            locals: vec![RLocal::default(); store.len()],
                            store,
                            next_task: TaskId::FIRST,
                            ops: OpCounts::default(),
                            task_time: Duration::ZERO,
                            idle_time: Duration::ZERO,
                            tasks_executed: 0,
                            ctr: registry.map(|r| r.worker(w)),
                        };
                        let loop_start = Instant::now();
                        flow(&mut ctx);
                        WorkerReport {
                            worker: me,
                            tasks_executed: ctx.tasks_executed,
                            tasks_visited: ctx.next_task.0 - 1,
                            task_time: ctx.task_time,
                            idle_time: ctx.idle_time,
                            loop_time: loop_start.elapsed(),
                            ops: ctx.ops,
                            spans: Vec::new(),
                            trace: None,
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        ExecReport {
            wall: start.elapsed(),
            workers,
            counters: registry
                .map(|r| r.snapshot().with_topology(cfg))
                .unwrap_or_default(),
        }
    }
}

/// Per-worker replay context of the reduction-extended model.
pub struct ReduxCtx<'a, T> {
    me: WorkerId,
    num_workers: usize,
    cx: WaitCx<'a>,
    mapping: &'a (dyn Mapping + 'a),
    shared: &'a [RShared],
    locals: Vec<RLocal>,
    store: &'a DataStore<T>,
    next_task: TaskId,
    ops: OpCounts,
    task_time: Duration,
    idle_time: Duration,
    tasks_executed: u64,
    /// Always-on counter line (`None` when disabled). Redux's `wait_until`
    /// reports polls only, so its parks counter stays zero.
    ctr: Option<&'a crate::counters::WorkerCounters>,
}

impl<'a, T> ReduxCtx<'a, T> {
    /// The worker replaying this flow instance.
    pub fn worker(&self) -> WorkerId {
        self.me
    }

    /// Total number of workers.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Submits the next task. Semantics as [`crate::FlowCtx::task`], with
    /// accumulate accesses relaxed as described in the module docs.
    pub fn task(&mut self, accesses: &[RAccess], body: impl FnOnce(&ReduxView<'_, T>)) -> TaskId {
        let id = self.next_task;
        self.next_task = id.next();
        let executor = self.mapping.worker_of(id, self.num_workers);
        assert!(executor.index() < self.num_workers);

        if executor == self.me {
            for a in accesses {
                self.ops.gets += 1;
                let s = &self.shared[a.data.index()];
                let l = &self.locals[a.data.index()];
                let expected_write = l.last_registered_write;
                let expected_reads = l.nb_reads_since_write;
                let expected_accs = l.nb_accs_since_write;
                let cx = &self.cx;
                let (polls, blocked) = match a.mode {
                    RMode::Read => s.wait_until(cx, |o| {
                        s.last_executed_write.load(o) == expected_write
                            && s.nb_accs_since_write.load(o) == expected_accs
                    }),
                    RMode::Accumulate => s.wait_until(cx, |o| {
                        s.last_executed_write.load(o) == expected_write
                            && s.nb_reads_since_write.load(o) == expected_reads
                    }),
                    RMode::Write | RMode::ReadWrite => s.wait_until(cx, |o| {
                        s.last_executed_write.load(o) == expected_write
                            && s.nb_reads_since_write.load(o) == expected_reads
                            && s.nb_accs_since_write.load(o) == expected_accs
                    }),
                };
                self.idle_time += blocked;
                if polls > 0 {
                    self.ops.waits += 1;
                    self.ops.poll_loops += polls;
                    if let Some(c) = self.ctr {
                        c.add_spins(polls);
                    }
                }
            }

            // Serialize accumulation bodies: take the body locks of every
            // accumulated object in ascending DataId order (global order =>
            // no deadlock among concurrent accumulators).
            let mut acc_targets: Vec<DataId> = accesses
                .iter()
                .filter(|a| a.mode == RMode::Accumulate)
                .map(|a| a.data)
                .collect();
            acc_targets.sort_unstable();
            let _body_guards: Vec<_> = acc_targets
                .iter()
                .map(|d| unpoisoned(self.shared[d.index()].body_lock.lock()))
                .collect();

            let view = ReduxView {
                accesses,
                store: self.store,
            };
            if self.cx.timed {
                let t0 = Instant::now();
                body(&view);
                self.task_time += t0.elapsed();
            } else {
                body(&view);
            }
            self.tasks_executed += 1;
            if let Some(c) = self.ctr {
                c.inc_tasks();
            }
            drop(_body_guards);

            for a in accesses {
                self.ops.terminates += 1;
                let s = &self.shared[a.data.index()];
                let l = &mut self.locals[a.data.index()];
                // Under Park the publishing store is SeqCst so it takes a
                // place in the total order against the waiter's SeqCst
                // increment-then-re-check (see `crate::futex`).
                let park = self.cx.strategy == WaitStrategy::Park;
                let publish = if park {
                    Ordering::SeqCst
                } else {
                    Ordering::Release
                };
                match a.mode {
                    RMode::Read => {
                        s.nb_reads_since_write.fetch_add(1, publish);
                        l.nb_reads_since_write += 1;
                    }
                    RMode::Accumulate => {
                        s.nb_accs_since_write.fetch_add(1, publish);
                        l.nb_accs_since_write += 1;
                    }
                    RMode::Write | RMode::ReadWrite => {
                        s.nb_reads_since_write.store(0, Ordering::Relaxed);
                        s.nb_accs_since_write.store(0, Ordering::Relaxed);
                        s.last_executed_write.store(id.0, publish);
                        l.nb_reads_since_write = 0;
                        l.nb_accs_since_write = 0;
                        l.last_registered_write = id.0;
                    }
                }
                if park && !s.event.notify_if_waiters() {
                    if let Some(c) = self.ctr {
                        c.inc_wakes_elided();
                    }
                }
            }
        } else {
            for a in accesses {
                self.ops.declares += 1;
                let l = &mut self.locals[a.data.index()];
                match a.mode {
                    RMode::Read => l.nb_reads_since_write += 1,
                    RMode::Accumulate => l.nb_accs_since_write += 1,
                    RMode::Write | RMode::ReadWrite => {
                        l.nb_reads_since_write = 0;
                        l.nb_accs_since_write = 0;
                        l.last_registered_write = id.0;
                    }
                }
            }
        }
        id
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
