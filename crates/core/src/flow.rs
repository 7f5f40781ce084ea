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
//! replay). With [`RioConfig::check_determinism`] enabled the runtime
//! verifies this by comparing per-worker flow checksums at join time.

use std::time::{Duration, Instant};

use rio_stf::store::{ReadGuard, WriteGuard};
use rio_stf::{Access, DataId, DataStore, ExecError, FlightEventKind, Mapping, TaskId, WorkerId};

use crate::config::RioConfig;
use crate::executor::RunOutcome;
use crate::graph::stall_diagnostic;
use crate::protocol::{
    declare_read, declare_write, expected_write_word, get_read_cx, get_write_cx, terminate_read,
    terminate_write, AbortCause, AbortFlag, LocalDataState, RecoveryCtx, SharedDataState, WaitCx,
    WaitVerdict,
};
use crate::report::{ExecReport, OpCounts, WorkerReport};
use crate::status::{StatusTable, WaitWatch};
use crate::trace_api::WorkerTracer;

/// The RIO runtime handle for the typed flow API.
#[derive(Debug, Clone)]
pub struct Rio {
    cfg: RioConfig,
}

impl Rio {
    /// Creates a runtime with the given configuration.
    ///
    /// # Panics
    /// If the configuration is invalid.
    pub fn new(cfg: RioConfig) -> Rio {
        cfg.validate();
        Rio { cfg }
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
    /// * if determinism checking is enabled and workers disagree on the
    ///   flow;
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
        let cfg = &self.cfg;
        let mapping: &dyn Mapping = mapping;
        let shared = SharedDataState::new_table(store.len());
        let shared = &shared;
        let flow = &flow;
        let abort = &AbortFlag::new();
        let status = &StatusTable::new(cfg.workers);
        let registry = crate::counters::CounterRegistry::for_run(cfg);
        let registry = registry.as_deref();
        let flight = crate::flight::FlightRecorder::for_run(cfg);
        let flight = flight.as_ref();
        let recovery = cfg
            .recovery
            .clone()
            .map(|p| RecoveryCtx::new(p, store.len()));
        let rec = recovery.as_ref();

        let start = Instant::now();
        let joined: Vec<std::thread::Result<(WorkerReport, u64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.workers)
                .map(|w| {
                    s.spawn(move || {
                        let me = WorkerId::from_index(w);
                        let mut ctx = FlowCtx {
                            me,
                            num_workers: cfg.workers,
                            cx: WaitCx {
                                spin_limit: cfg.spin_polls(),
                                deadline: cfg.watchdog,
                                timed: cfg.measure_time || cfg.trace.is_some(),
                                ..WaitCx::new(cfg.wait, abort)
                            },
                            measure: cfg.measure_time,
                            record_spans: cfg.record_spans,
                            mapping,
                            shared,
                            locals: vec![LocalDataState::default(); store.len()],
                            store,
                            next_task: TaskId::FIRST,
                            ops: OpCounts::default(),
                            task_time: Duration::ZERO,
                            idle_time: Duration::ZERO,
                            tasks_executed: 0,
                            checksum: FNV_OFFSET,
                            status,
                            epoch: start,
                            spans: Vec::new(),
                            tracer: cfg
                                .trace
                                .as_ref()
                                .map(|tc| WorkerTracer::new(tc, w as u32, start)),
                            ctr: registry.map(|r| r.worker(w)),
                            registry,
                            ring: flight.map(|f| f.ring(w)),
                            flight,
                            rec,
                        };
                        let loop_start = Instant::now();
                        flow(&mut ctx);
                        let loop_time = loop_start.elapsed();
                        let trace = ctx.tracer.map(|tr| {
                            let mut wt = tr.finish();
                            wt.declares = ctx.ops.declares;
                            wt.gets = ctx.ops.gets;
                            wt.terminates = ctx.ops.terminates;
                            wt.loop_ns = loop_time.as_nanos() as u64;
                            wt
                        });
                        let report = WorkerReport {
                            worker: me,
                            tasks_executed: ctx.tasks_executed,
                            tasks_visited: ctx.next_task.0 - 1,
                            task_time: ctx.task_time,
                            idle_time: ctx.idle_time,
                            loop_time,
                            ops: ctx.ops,
                            spans: ctx.spans,
                            trace,
                        };
                        (report, ctx.checksum)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let wall = start.elapsed();

        // A contained failure (task-body panic, watchdog stall) aborts the
        // whole run: surface the recorded first cause as a structured error
        // and discard the secondary "poisoned" unwinds of the workers.
        if let Some(cause) = abort.take_cause() {
            return Err(cause.into_error());
        }
        let workers: Vec<(WorkerReport, u64)> = joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();

        if cfg.check_determinism {
            let (first_report, first_sum) = &workers[0];
            for (r, sum) in &workers[1..] {
                assert!(
                    r.tasks_visited == first_report.tasks_visited && sum == first_sum,
                    "non-deterministic flow: {} visited {} tasks (checksum {:#x}), \
                     {} visited {} (checksum {:#x}); every worker must unroll the \
                     same task sequence",
                    first_report.worker,
                    first_report.tasks_visited,
                    first_sum,
                    r.worker,
                    r.tasks_visited,
                    sum,
                );
            }
        }

        Ok((
            ExecReport {
                wall,
                workers: workers.into_iter().map(|(r, _)| r).collect(),
                counters: registry
                    .map(|r| r.snapshot().with_topology(cfg))
                    .unwrap_or_default(),
            },
            recovery
                .and_then(RecoveryCtx::into_report)
                .map(|mut p| {
                    // Workers joined: the dump is exact recording order.
                    if let Some(f) = flight {
                        p.flight = f.dump();
                    }
                    p
                })
                .into(),
        ))
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

#[inline]
fn fnv_fold(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(FNV_PRIME)
}

/// Per-worker replay context handed to the flow closure.
///
/// All workers hold one; calling [`FlowCtx::task`] *submits* the task on
/// every worker but *executes* it only on the mapped one.
pub struct FlowCtx<'a, T> {
    me: WorkerId,
    num_workers: usize,
    /// The run-wide wait context (each wait adds its own watch mark).
    cx: WaitCx<'a>,
    measure: bool,
    record_spans: bool,
    mapping: &'a (dyn Mapping + 'a),
    shared: &'a [SharedDataState],
    locals: Vec<LocalDataState>,
    store: &'a DataStore<T>,
    next_task: TaskId,
    ops: OpCounts,
    task_time: Duration,
    idle_time: Duration,
    tasks_executed: u64,
    checksum: u64,
    status: &'a StatusTable,
    epoch: Instant,
    spans: Vec<rio_stf::validate::Span>,
    tracer: Option<WorkerTracer>,
    ctr: Option<&'a crate::counters::WorkerCounters>,
    registry: Option<&'a crate::counters::CounterRegistry>,
    ring: Option<&'a crate::flight::FlightRing>,
    flight: Option<&'a crate::flight::FlightRecorder>,
    rec: Option<&'a RecoveryCtx>,
}

impl<'a, T> FlowCtx<'a, T> {
    /// The worker replaying this flow instance.
    pub fn worker(&self) -> WorkerId {
        self.me
    }

    /// Total number of workers.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Id the *next* submitted task will receive.
    pub fn next_task_id(&self) -> TaskId {
        self.next_task
    }

    /// Appends one event to this worker's flight ring (no-op with the
    /// recorder disabled).
    #[inline]
    fn flight_event(&self, kind: FlightEventKind, task: TaskId, data: Option<DataId>) {
        if let Some(r) = self.ring {
            r.record(kind, task, data);
        }
    }

    /// Submits the next task of the flow.
    ///
    /// `accesses` declares every data object the body touches; `body` runs
    /// only on the worker the mapping assigns, after all dependencies are
    /// satisfied, and may access declared objects through the [`TaskView`].
    ///
    /// Returns the task's id (identical on every worker).
    pub fn task(&mut self, accesses: &[Access], body: impl FnOnce(&TaskView<'_, T>)) -> TaskId {
        let id = self.next_task;
        // The packed epoch word stores task ids in 32 bits. Dynamic flows
        // have no graph-build validation, so the limit is enforced here
        // (one perfectly-predicted compare; reads-per-epoch is bounded by
        // the task count, so this check covers the read half too).
        assert!(
            id.0 <= u64::from(u32::MAX),
            "flow exceeds the u32 task-id limit of the packed epoch protocol"
        );
        self.next_task = id.next();

        // Fold the task shape into the determinism checksum.
        let mut sum = fnv_fold(self.checksum, id.0);
        for a in accesses {
            sum = fnv_fold(sum, (u64::from(a.data.0) << 2) | mode_tag(a.mode));
        }
        self.checksum = sum;

        let executor = self.mapping.worker_of(id, self.num_workers);
        assert!(
            executor.index() < self.num_workers,
            "mapping sent {id} to non-existent {executor}"
        );
        if self.cx.abort.armed() {
            panic!("RIO run poisoned: a sibling worker's task body panicked");
        }

        if executor == self.me {
            let traced = self.tracer.is_some();
            let (cx, wd) = (self.cx, self.cx.deadline.is_some());
            for a in accesses {
                self.ops.gets += 1;
                let s = &self.shared[a.data.index()];
                let l = &self.locals[a.data.index()];
                let cx = WaitCx {
                    watch: wd.then_some(WaitWatch {
                        status: self.status,
                        worker: self.me,
                        data: a.data,
                    }),
                    ..cx
                };
                let wr = if a.mode.writes() {
                    get_write_cx(s, l, &cx)
                } else {
                    get_read_cx(s, l, &cx)
                };
                let wo = wr.outcome;
                if wo.polls > 0 {
                    self.ops.waits += 1;
                    self.ops.poll_loops += wo.polls;
                    if let Some(c) = self.ctr {
                        c.add_spins(wo.polls);
                        c.add_parks(wo.parks);
                    }
                    if wo.parks > 0 {
                        self.flight_event(FlightEventKind::Park, id, Some(a.data));
                    }
                }
                if let (true, Some(t0)) = (cx.timed, wr.blocked_at) {
                    let t1 = Instant::now();
                    if self.measure {
                        self.idle_time += t1.duration_since(t0);
                    }
                    if let Some(tr) = self.tracer.as_mut() {
                        tr.wait(id, a.data, a.mode.writes(), t0, t1, wo.polls, wo.parks);
                    }
                }
                match wr.verdict {
                    WaitVerdict::Ready => {}
                    WaitVerdict::Aborted => {
                        panic!("RIO run poisoned: a sibling worker's task body panicked")
                    }
                    WaitVerdict::DeadlineExceeded => {
                        let waited = wr.blocked_at.map_or(Duration::ZERO, |t0| t0.elapsed());
                        self.flight_event(FlightEventKind::Abort, id, Some(a.data));
                        let diag = stall_diagnostic(
                            self.me,
                            id,
                            a.data,
                            a.mode.writes(),
                            expected_write_word(l),
                            s,
                            waited,
                            self.status,
                            self.registry,
                            self.flight,
                        );
                        if let Some(c) = self.ctr {
                            c.inc_aborts();
                        }
                        self.cx.abort.abort(AbortCause::Stall(diag), self.shared);
                        panic!(
                            "RIO run stalled: {id} waited past the watchdog deadline on {}",
                            a.data
                        );
                    }
                }
            }

            // Degraded mode: a poisoned input means the body is skipped
            // outright (the gets above admitted every access, so upstream
            // poison is visible here).
            self.flight_event(FlightEventKind::TaskStart, id, None);
            let skip = self
                .rec
                .is_some_and(|rec| accesses.iter().any(|a| rec.is_poisoned(a.data)));
            let ran = if skip {
                let rec = self.rec.unwrap();
                rec.record_skipped(id);
                crate::graph::poison_writes(rec, id, accesses, self.ctr, self.ring);
                false
            } else {
                let view = TaskView {
                    accesses,
                    store: self.store,
                };
                let run = std::panic::AssertUnwindSafe(|| body(&view));
                // The same opt-in rule as the graph engine: no clock
                // around the body unless something asked for the span.
                let body_start = (self.measure || self.record_spans || traced).then(Instant::now);
                let outcome = std::panic::catch_unwind(run);
                let span = body_start.map(|t0| (t0, Instant::now()));
                match outcome {
                    Err(payload) => match self.rec {
                        Some(rec) => {
                            // A dynamic body is `FnOnce` — it cannot be
                            // replayed, so the retry budget does not apply
                            // here: the first panic fails the task
                            // permanently (see `try_run_with_outcome`).
                            rec.record_failed(rio_stf::FailedTask {
                                task: id,
                                worker: self.me,
                                retries: 0,
                                detail: rio_stf::FailureDetail::TaskFailed { payload },
                            });
                            crate::graph::poison_writes(rec, id, accesses, self.ctr, self.ring);
                            false
                        }
                        None => {
                            self.flight_event(FlightEventKind::Abort, id, None);
                            if let Some(c) = self.ctr {
                                c.inc_aborts();
                            }
                            self.cx.abort.abort(
                                AbortCause::Panic {
                                    task: id,
                                    worker: self.me,
                                    payload,
                                },
                                self.shared,
                            );
                            panic!("RIO run poisoned: this worker's task body panicked");
                        }
                    },
                    Ok(()) => {
                        if let Some((t0, t1)) = span {
                            if self.measure {
                                self.task_time += t1.duration_since(t0);
                            }
                            if self.record_spans {
                                self.spans.push(rio_stf::validate::Span {
                                    task: id,
                                    start: t0.duration_since(self.epoch).as_nanos() as u64,
                                    end: t1.duration_since(self.epoch).as_nanos() as u64,
                                });
                            }
                            if let Some(tr) = self.tracer.as_mut() {
                                tr.task(id, t0, t1);
                            }
                        }
                        true
                    }
                }
            };
            if ran {
                self.tasks_executed += 1;
                if let Some(c) = self.ctr {
                    c.inc_tasks();
                }
                self.flight_event(FlightEventKind::TaskEnd, id, None);
            }
            if wd {
                let (steals, retries) = self.ctr.map_or((0, 0), |c| (c.steals(), c.retries()));
                self.status
                    .completed(self.me, id, self.tasks_executed, steals, retries);
            }

            // Skip-but-sync: terminates run regardless of `ran`.
            for a in accesses {
                self.ops.terminates += 1;
                let s = &self.shared[a.data.index()];
                let l = &mut self.locals[a.data.index()];
                let elided = if a.mode.writes() {
                    terminate_write(s, l, id, self.cx.strategy)
                } else {
                    terminate_read(s, l, self.cx.strategy)
                };
                if elided {
                    if let Some(c) = self.ctr {
                        c.inc_wakes_elided();
                    }
                }
            }
        } else {
            for a in accesses {
                self.ops.declares += 1;
                let l = &mut self.locals[a.data.index()];
                if a.mode.writes() {
                    declare_write(l, id);
                } else {
                    declare_read(l);
                }
            }
        }
        id
    }
}

#[inline]
fn mode_tag(mode: rio_stf::AccessMode) -> u64 {
    match mode {
        rio_stf::AccessMode::Read => 0,
        rio_stf::AccessMode::Write => 1,
        rio_stf::AccessMode::ReadWrite => 2,
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
        Rio::new(
            RioConfig::with_workers(workers)
                .wait(WaitStrategy::Park)
                .check_determinism(true),
        )
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
        let rio = Rio::new(RioConfig::with_workers(3).check_determinism(false));
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
        let rio = Rio::new(RioConfig::with_workers(2).check_determinism(false));
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
