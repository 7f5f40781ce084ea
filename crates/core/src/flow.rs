//! The typed *flow API*: write the STF program once, let every worker
//! replay it.
//!
//! This is the programming interface the paper's model implies: the
//! sequential program itself (the *flow closure*) is executed by **all**
//! workers — that is how each of them discovers the same task sequence
//! (§3.4, assumption 2) — while task *bodies* only run on the worker the
//! mapping designates.
//!
//! ```
//! use rio_core::{Rio, RioConfig};
//! use rio_stf::{Access, DataId, DataStore, RoundRobin};
//!
//! let store = DataStore::from_vec(vec![0i64; 4]);
//! let rio = Rio::new(RioConfig::with_workers(2));
//! rio.run(&store, &RoundRobin, |ctx| {
//!     // An ordinary sequential program: dependencies are implicit.
//!     for i in 0..4u32 {
//!         ctx.task(&[Access::write(DataId(i))], |view| {
//!             *view.write(DataId(i)) = i as i64;
//!         });
//!     }
//!     for i in 1..4u32 {
//!         // Fold everything into D0.
//!         ctx.task(
//!             &[Access::read(DataId(i)), Access::read_write(DataId(0))],
//!             |view| {
//!                 let v = *view.read(DataId(i));
//!                 *view.write(DataId(0)) += v;
//!             },
//!         );
//!     }
//! });
//! assert_eq!(store.into_vec()[0], 6);
//! ```
//!
//! Task bodies receive a [`TaskView`] that only grants access to the data
//! objects the task *declared*, in the declared mode — mis-declarations
//! panic immediately instead of racing. The closure runs once per worker;
//! it must be deterministic (same tasks, same accesses, same order on every
//! replay), which the runtime verifies by comparing per-worker flow
//! checksums at join time.
//!
//! This front-end owns what is particular to unrolling a flow at run time
//! — each worker's private view of every data object ([`LocalDataState`]),
//! the access-checked [`TaskView`]. The rest it borrows (`crate::graph`):
//! a run goes through the shell — flow checksum included — and a worker's
//! own task through the engine, that compiled programs use, on expected
//! words packed from the private view instead of precomputed.

use std::sync::Arc;
use std::time::Instant;

use rio_stf::store::{ReadGuard, WriteGuard};
use rio_stf::{Access, DataId, DataStore, ExecError, Mapping, TaskId, WorkerId};

use crate::compile::{AccessPlan, TaskAccesses};
use crate::config::RioConfig;
use crate::executor::RunOutcome;
use crate::graph::{unwind_aborted, RunShell, WorkerCtx};
use crate::pool::WorkerSet;
use crate::protocol::{
    declare_batch, expected_write_word, spurious_wake_all, LocalDataState, SharedDataState,
};
use crate::report::ExecReport;

/// The RIO runtime handle for the typed flow API.
#[derive(Debug, Clone)]
pub struct Rio {
    cfg: RioConfig,
    /// The worker threads, started by the first run (clones share them).
    set: Arc<WorkerSet>,
}

impl Rio {
    /// Creates a runtime with the given configuration. A dynamic task
    /// body is `FnOnce` and cannot be replayed, so an installed
    /// [`crate::RecoveryPolicy`] is held to one attempt
    /// ([`Rio::try_run_with_outcome`]).
    ///
    /// # Panics
    /// If the configuration is invalid.
    pub fn new(mut cfg: RioConfig) -> Rio {
        cfg.validate();
        cfg.recovery = cfg.recovery.map(|p| p.max_retries(0));
        let set = Arc::default();
        Rio { cfg, set }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RioConfig {
        &self.cfg
    }

    /// Replays `flow` on every worker, executing each task on the worker
    /// `mapping` designates, with data accesses synchronized by the
    /// decentralized protocol.
    ///
    /// `store` is the set of runtime-managed data objects the flow may
    /// declare accesses on.
    ///
    /// # Panics
    /// * if a task declares a data object outside the store;
    /// * if a body accesses an undeclared object or uses the wrong mode;
    /// * if workers disagree on the flow;
    /// * if a worker panics (the panic is propagated).
    pub fn run<T, M, F>(&self, store: &DataStore<T>, mapping: &M, flow: F) -> ExecReport
    where
        T: Send,
        M: Mapping,
        F: Fn(&mut FlowCtx<'_, T>) + Sync,
    {
        self.try_run(store, mapping, flow)
            .unwrap_or_else(|e| e.resume())
    }

    /// Like [`Rio::run`], but converts contained failures into a
    /// structured [`ExecError`] instead of panicking: a task-body panic
    /// becomes [`ExecError::TaskPanicked`] (original payload attached) and
    /// a watchdog timeout ([`RioConfig::watchdog`]) becomes
    /// [`ExecError::Stalled`]. Panics outside task bodies — in the flow
    /// closure itself, or the determinism check — still propagate.
    ///
    /// # Errors
    /// See [`ExecError`] for the post-abort state guarantees.
    ///
    /// With a [`crate::RecoveryPolicy`] installed
    /// ([`RioConfig::recovery`]), permanent task failures degrade the run
    /// instead of failing it; this method returns the report alone — use
    /// [`Rio::try_run_with_outcome`] to observe the partial report.
    pub fn try_run<T, M, F>(
        &self,
        store: &DataStore<T>,
        mapping: &M,
        flow: F,
    ) -> Result<ExecReport, ExecError>
    where
        T: Send,
        M: Mapping,
        F: Fn(&mut FlowCtx<'_, T>) + Sync,
    {
        self.try_run_with_outcome(store, mapping, flow)
            .map(|(report, _)| report)
    }

    /// Like [`Rio::try_run`], additionally reporting how the run finished
    /// under the installed [`crate::RecoveryPolicy`]. One caveat is
    /// specific to the flow API: a dynamic task body is `FnOnce` and
    /// cannot be replayed, so the policy's retry budget does not apply
    /// here — a body panic permanently fails its task on the first
    /// attempt (recorded with `retries: 0`), poisons its written data and
    /// skips the downstream cone, exactly like an exhausted retry budget
    /// in the graph runtimes.
    ///
    /// # Errors
    /// See [`ExecError`] for the post-abort state guarantees.
    pub fn try_run_with_outcome<T, M, F>(
        &self,
        store: &DataStore<T>,
        mapping: &M,
        flow: F,
    ) -> Result<(ExecReport, RunOutcome), ExecError>
    where
        T: Send,
        M: Mapping,
        F: Fn(&mut FlowCtx<'_, T>) + Sync,
    {
        let mapping: &dyn Mapping = mapping;
        let shared = SharedDataState::new_table(store.len());
        let shared = &shared[..];
        RunShell::new(&self.cfg, store.len()).run_flow(
            &self.set,
            shared,
            &|| spurious_wake_all(shared),
            |wk| {
                let mut ctx = FlowCtx {
                    wk,
                    mapping,
                    locals: vec![LocalDataState::default(); store.len()],
                    store,
                    plans: Vec::new(),
                    words: Vec::new(),
                };
                let loop_start = Instant::now();
                flow(&mut ctx);
                let sum = ctx.wk.flow_sum;
                (ctx.wk.finish(loop_start), sum)
            },
        )
    }
}

/// Per-worker replay context handed to the flow closure.
///
/// All workers hold one; calling [`FlowCtx::task`] *submits* the task on
/// every worker but *executes* it only on the mapped one.
pub struct FlowCtx<'a, T> {
    wk: WorkerCtx<'a>,
    mapping: &'a (dyn Mapping + 'a),
    /// This worker's private view of every data object.
    locals: Vec<LocalDataState>,
    store: &'a DataStore<T>,
    /// Scratch, reused from task to task: an own task's accesses as the
    /// engine takes them, and the word each waits for.
    plans: Vec<AccessPlan>,
    words: Vec<u64>,
}

impl<'a, T> FlowCtx<'a, T> {
    /// The worker replaying this flow instance.
    pub fn worker(&self) -> WorkerId {
        self.wk.me
    }

    /// Total number of workers.
    pub fn num_workers(&self) -> usize {
        self.wk.cfg.workers
    }

    /// Id the *next* submitted task will receive.
    pub fn next_task_id(&self) -> TaskId {
        TaskId(self.wk.tasks_visited + 1)
    }

    /// Submits the next task of the flow.
    ///
    /// `accesses` declares every data object the body touches; `body` runs
    /// only on the worker the mapping assigns, after all dependencies are
    /// satisfied, and may access declared objects through the [`TaskView`].
    ///
    /// Returns the task's id (identical on every worker).
    pub fn task(&mut self, accesses: &[Access], body: impl FnOnce(&TaskView<'_, T>)) -> TaskId {
        let shape = accesses.iter().map(|a| (a.data, a.mode as u64));
        let (id, own) = self.wk.next_flow_task(self.mapping, shape);

        if own {
            // The engine's view of an own task: every guard and every
            // publication kept, each get on the word this worker's private
            // view packs to (a read ignores the read half).
            self.plans.clear();
            self.words.clear();
            for a in accesses {
                self.plans.push(AccessPlan::kept(a.data, a.mode.writes()));
                self.words
                    .push(expected_write_word(&self.locals[a.data.index()]));
            }
            let kept = TaskAccesses {
                plans: &self.plans,
                words: &self.words,
                unmapped: false,
            };
            let view = TaskView {
                accesses,
                store: self.store,
            };
            let mut body = Some(body);
            let once = || (body.take().expect("a flow body gets one attempt"))(&view);
            if !self.wk.exec_task(id, accesses, kept, once) {
                unwind_aborted();
            }
        } else {
            self.wk.ops.declares += accesses.len() as u64;
        }
        // A `terminate_*` is the shared publication, which the engine ran,
        // plus the `declare_*` every worker runs for every task.
        declare_batch(&mut self.locals, id, accesses);
        id
    }
}

/// Scoped, access-checked view of the data store inside a task body.
///
/// Grants access only to the objects the surrounding task declared, in the
/// declared mode. The returned guards additionally perform the store's
/// dynamic borrow check, so even a hypothetically broken protocol cannot
/// produce a silent data race.
pub struct TaskView<'a, T> {
    accesses: &'a [Access],
    store: &'a DataStore<T>,
}

impl<'a, T> TaskView<'a, T> {
    fn declared_mode(&self, data: DataId) -> rio_stf::AccessMode {
        self.accesses
            .iter()
            .find(|a| a.data == data)
            .unwrap_or_else(|| panic!("task body accessed undeclared {data}"))
            .mode
    }

    /// Shared access to a declared `Read` or `ReadWrite` object.
    ///
    /// # Panics
    /// If the task did not declare `data`, or declared it write-only.
    pub fn read(&self, data: DataId) -> ReadGuard<'a, T> {
        let mode = self.declared_mode(data);
        assert!(
            mode.reads(),
            "task body read {data} declared as {mode} (write-only)"
        );
        self.store.read(data)
    }

    /// Exclusive access to a declared `Write` or `ReadWrite` object.
    ///
    /// # Panics
    /// If the task did not declare `data`, or declared it read-only.
    pub fn write(&self, data: DataId) -> WriteGuard<'a, T> {
        let mode = self.declared_mode(data);
        assert!(
            mode.writes(),
            "task body wrote {data} declared as {mode} (read-only)"
        );
        self.store.write(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::WaitStrategy;
    use rio_stf::RoundRobin;

    fn rio(workers: usize) -> Rio {
        Rio::new(RioConfig::with_workers(workers).wait(WaitStrategy::Park))
    }

    #[test]
    fn counter_chain_is_exact() {
        let store = DataStore::from_vec(vec![0u64]);
        let report = rio(4).run(&store, &RoundRobin, |ctx| {
            for _ in 0..500 {
                ctx.task(&[Access::read_write(DataId(0))], |v| {
                    *v.write(DataId(0)) += 1;
                });
            }
        });
        assert_eq!(report.tasks_executed(), 500);
        assert_eq!(store.into_vec(), vec![500]);
    }

    #[test]
    fn producer_consumer_pipeline() {
        // D0 -> D1 -> D2 pipeline repeated; the final value is a function
        // of strict ordering.
        let store = DataStore::from_vec(vec![0i64; 3]);
        rio(3).run(&store, &RoundRobin, |ctx| {
            for _ in 0..50 {
                ctx.task(&[Access::read_write(DataId(0))], |v| {
                    *v.write(DataId(0)) += 1;
                });
                ctx.task(
                    &[Access::read(DataId(0)), Access::read_write(DataId(1))],
                    |v| {
                        let x = *v.read(DataId(0));
                        *v.write(DataId(1)) += x;
                    },
                );
                ctx.task(
                    &[Access::read(DataId(1)), Access::read_write(DataId(2))],
                    |v| {
                        let x = *v.read(DataId(1));
                        *v.write(DataId(2)) += x;
                    },
                );
            }
        });
        let out = store.into_vec();
        assert_eq!(out[0], 50);
        // D1 = 1 + 2 + ... + 50.
        assert_eq!(out[1], 50 * 51 / 2);
        // D2 = sum of prefix sums.
        let mut d1 = 0;
        let mut d2 = 0;
        for i in 1..=50 {
            d1 += i;
            d2 += d1;
        }
        assert_eq!(out[2], d2);
    }

    #[test]
    fn task_ids_are_flow_positions_on_every_worker() {
        let store = DataStore::from_vec(vec![0u8]);
        rio(2).run(&store, &RoundRobin, |ctx| {
            assert_eq!(ctx.next_task_id(), TaskId(1));
            let id1 = ctx.task(&[], |_| {});
            let id2 = ctx.task(&[], |_| {});
            assert_eq!(id1, TaskId(1));
            assert_eq!(id2, TaskId(2));
        });
    }

    #[test]
    fn worker_identity_is_visible() {
        let store = DataStore::from_vec(Vec::<u8>::new());
        let seen = std::sync::Mutex::new(std::collections::HashSet::new());
        rio(3).run(&store, &RoundRobin, |ctx| {
            assert!(ctx.num_workers() == 3);
            seen.lock().unwrap().insert(ctx.worker());
        });
        assert_eq!(seen.into_inner().unwrap().len(), 3);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_access_panics() {
        let store = DataStore::from_vec(vec![0u64, 0]);
        rio(1).run(&store, &RoundRobin, |ctx| {
            ctx.task(&[Access::read(DataId(0))], |v| {
                let _ = v.read(DataId(1));
            });
        });
    }

    #[test]
    #[should_panic(expected = "read-only")]
    fn writing_a_read_declared_object_panics() {
        let store = DataStore::from_vec(vec![0u64]);
        rio(1).run(&store, &RoundRobin, |ctx| {
            ctx.task(&[Access::read(DataId(0))], |v| {
                *v.write(DataId(0)) = 1;
            });
        });
    }

    #[test]
    #[should_panic(expected = "write-only")]
    fn reading_a_write_only_object_panics() {
        let store = DataStore::from_vec(vec![0u64]);
        rio(1).run(&store, &RoundRobin, |ctx| {
            ctx.task(&[Access::write(DataId(0))], |v| {
                let _ = v.read(DataId(0));
            });
        });
    }

    #[test]
    #[should_panic(expected = "non-deterministic flow")]
    fn non_deterministic_flow_is_detected() {
        let store = DataStore::from_vec(vec![0u64]);
        rio(2).run(&store, &RoundRobin, |ctx| {
            // Worker-dependent flow: forbidden.
            let n = if ctx.worker() == WorkerId(0) { 3 } else { 4 };
            for _ in 0..n {
                ctx.task(&[], |_| {});
            }
        });
    }

    #[test]
    fn read_write_access_allows_both_directions() {
        let store = DataStore::from_vec(vec![10i64]);
        rio(1).run(&store, &RoundRobin, |ctx| {
            ctx.task(&[Access::read_write(DataId(0))], |v| {
                let x = *v.read(DataId(0));
                *v.write(DataId(0)) = x * 2;
            });
        });
        assert_eq!(store.into_vec(), vec![20]);
    }

    #[test]
    fn report_counts_declares_vs_gets() {
        let store = DataStore::from_vec(vec![0u64]);
        let report = rio(2).run(&store, &RoundRobin, |ctx| {
            for _ in 0..10 {
                ctx.task(&[Access::read_write(DataId(0))], |v| {
                    *v.write(DataId(0)) += 1;
                });
            }
        });
        let ops = report.total_ops();
        assert_eq!(ops.gets, 10, "each access acquired once in total");
        assert_eq!(ops.terminates, 10);
        assert_eq!(ops.declares, 10, "each worker declares the other's 5");
    }

    #[test]
    fn many_workers_more_than_tasks() {
        let store = DataStore::from_vec(vec![0u64]);
        rio(8).run(&store, &RoundRobin, |ctx| {
            for _ in 0..3 {
                ctx.task(&[Access::read_write(DataId(0))], |v| {
                    *v.write(DataId(0)) += 1;
                });
            }
        });
        assert_eq!(store.into_vec(), vec![3]);
    }
}

#[cfg(test)]
mod poison_tests {
    use super::*;
    use rio_stf::RoundRobin;

    /// Flow-API panic in a task body: the original payload surfaces, and
    /// workers blocked on the broken dependency chain unwind instead of
    /// hanging.
    #[test]
    fn body_panic_propagates_original_payload() {
        let store = DataStore::from_vec(vec![0u64]);
        let rio = Rio::new(RioConfig::with_workers(3));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rio.run(&store, &RoundRobin, |ctx| {
                for i in 0..30u64 {
                    ctx.task(&[Access::read_write(DataId(0))], |v| {
                        if i == 4 {
                            panic!("flow body exploded");
                        }
                        *v.write(DataId(0)) += 1;
                    });
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "flow body exploded");
    }

    /// After a poisoned run the store is still usable (no guard leaked in a
    /// locked state for completed accesses).
    #[test]
    fn store_remains_usable_after_poisoned_run() {
        let store = DataStore::from_vec(vec![0u64]);
        let rio = Rio::new(RioConfig::with_workers(2));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rio.run(&store, &RoundRobin, |ctx| {
                for i in 0..10u64 {
                    ctx.task(&[Access::read_write(DataId(0))], |v| {
                        let mut g = v.write(DataId(0));
                        *g += 1;
                        drop(g);
                        if i == 3 {
                            panic!("late boom");
                        }
                    });
                }
            });
        }));
        // Guards released before the panic: the slot must be free.
        let _w = store.write(DataId(0));
    }
}
