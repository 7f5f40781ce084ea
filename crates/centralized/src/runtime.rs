//! The centralized out-of-order engine: master unrolling + worker pool.
//!
//! Thread roles (Fig. 1 of the paper):
//!
//! * the **master** (the calling thread) unrolls the flow, derives each
//!   task's dependencies with the [`crate::tracker::DepTracker`],
//!   wires predecessor/successor links into [`TaskNode`]s and dispatches
//!   ready tasks;
//! * **workers** pull ready tasks — own deque first, then the central
//!   queue, then stealing from peers — execute them out of submission
//!   order, and release successors on completion.
//!
//! The master executes no tasks: the model's runtime efficiency is capped
//! at `(p-1)/p`, as the paper observes for StarPU.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::deque::{Injector, Stealer, Worker};
use parking_lot::Mutex;
use rio_stf::{
    ExecError, StallDiagnostic, StallSite, TaskDesc, TaskGraph, TaskId, WorkerId, WorkerSnapshot,
};
use rio_trace::WorkerTracer;

use crate::config::CentralConfig;
use crate::doorbell::Doorbell;
use crate::node::TaskNode;
use crate::report::{CentralReport, MasterReport, PoolWorkerReport};
use crate::tracker::DepTracker;

/// One pool worker's progress slot for the watchdog's stall diagnostics,
/// padded to its own cache line. Updated (relaxed, owner-only) when a
/// watchdog deadline is configured; otherwise left pristine.
#[repr(align(128))]
struct ProgressSlot {
    /// `TaskId.0` of the last completed body (`TaskId::NONE.0` initially).
    last_completed: AtomicU64,
    /// Bodies completed so far.
    executed: AtomicU64,
}

impl Default for ProgressSlot {
    fn default() -> Self {
        ProgressSlot {
            last_completed: AtomicU64::new(TaskId::NONE.0),
            executed: AtomicU64::new(0),
        }
    }
}

/// Engine state shared between the master and the pool.
struct Engine<'g> {
    graph: &'g TaskGraph,
    nodes: Box<[TaskNode]>,
    injector: Injector<u32>,
    stealers: Vec<Stealer<u32>>,
    executed: AtomicUsize,
    total: usize,
    done: AtomicBool,
    bell: Doorbell,
    /// Common epoch for trace timestamps.
    epoch: Instant,
    /// Abort latch, distinct from [`Engine::done`]: `done` means every
    /// task executed; `aborted` means the run is being torn down early
    /// (task panic or watchdog stall). Workers stop pulling work and the
    /// master stops submitting as soon as this is observed.
    aborted: AtomicBool,
    /// The first failure, returned from [`try_execute_graph`] at join.
    abort_cause: Mutex<Option<ExecError>>,
    /// Per-worker progress for stall diagnostics (watchdog runs only).
    progress: Box<[ProgressSlot]>,
}

impl<'g> Engine<'g> {
    /// Marks completion of one task; sets the done flag on the last one.
    fn task_finished(&self) {
        if self.executed.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.done.store(true, Ordering::Release);
        }
        self.bell.ring();
    }

    /// Has the run been aborted (task panic or watchdog stall)?
    #[inline]
    fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Aborts the run: record the first failure, latch the abort flag and
    /// release every waiter (master and pool alike). Later failures of an
    /// already-aborting run are dropped — first failure wins.
    #[cold]
    fn abort(&self, err: ExecError) {
        let mut slot = self.abort_cause.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
        drop(slot);
        self.aborted.store(true, Ordering::Release);
        self.bell.ring();
    }

    /// Every worker's progress, for a [`StallDiagnostic`]. Meaningful only
    /// on watchdog runs (the slots are pristine otherwise).
    fn progress_snapshot(&self) -> Vec<WorkerSnapshot> {
        self.progress
            .iter()
            .enumerate()
            .map(|(w, slot)| WorkerSnapshot {
                worker: WorkerId::from_index(w),
                last_completed: TaskId(slot.last_completed.load(Ordering::Relaxed)),
                tasks_executed: slot.executed.load(Ordering::Relaxed),
                waiting_on: None,
                retries_since_tick: 0,
            })
            .collect()
    }
}

/// Executes `graph` under the centralized out-of-order model.
///
/// `kernel(worker, task)` runs on pool workers (ids `0..threads-1`), out of
/// submission order but never violating the STF dependencies.
///
/// # Panics
/// Propagates the first panicking task body (original payload); panics
/// with the diagnostic rendering of a watchdog stall; also panics on an
/// invalid configuration. Use [`try_execute_graph`] to handle failures
/// structurally.
pub fn execute_graph<K>(cfg: &CentralConfig, graph: &TaskGraph, kernel: K) -> CentralReport
where
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    try_execute_graph(cfg, graph, kernel).unwrap_or_else(|e| e.resume())
}

/// Like [`execute_graph`], but a contained failure is returned as the same
/// structured [`ExecError`] the decentralized runtime produces:
///
/// * a task-body panic ⇒ [`ExecError::TaskPanicked`] with the pool worker,
///   the task and the original payload. The master stops submitting (even
///   when blocked on the submission window mid-drain), workers stop
///   pulling queued tasks, and every thread is joined before returning;
/// * with [`CentralConfig::watchdog`] armed, a pool worker idle past the
///   deadline while the run is unfinished ⇒ [`ExecError::Stalled`] at
///   [`StallSite::IdleWorker`], and a master throttled past the deadline ⇒
///   [`StallSite::MasterThrottle`].
///
/// # Errors
/// See [`ExecError`] for the post-abort state guarantees.
pub fn try_execute_graph<K>(
    cfg: &CentralConfig,
    graph: &TaskGraph,
    kernel: K,
) -> Result<CentralReport, ExecError>
where
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    cfg.validate();
    let num_workers = cfg.num_workers();

    let mut deques: Vec<Worker<u32>> = (0..num_workers).map(|_| Worker::new_lifo()).collect();
    let engine = Engine {
        graph,
        nodes: TaskNode::new_table(graph.len()),
        injector: Injector::new(),
        stealers: deques.iter().map(Worker::stealer).collect(),
        executed: AtomicUsize::new(0),
        total: graph.len(),
        done: AtomicBool::new(graph.is_empty()),
        bell: Doorbell::new(),
        epoch: Instant::now(),
        aborted: AtomicBool::new(false),
        abort_cause: Mutex::new(None),
        progress: (0..num_workers).map(|_| ProgressSlot::default()).collect(),
    };
    let engine = &engine;
    let kernel = &kernel;

    let start = Instant::now();
    let (master, workers) = std::thread::scope(|s| {
        let handles: Vec<_> = deques
            .drain(..)
            .enumerate()
            .map(|(wi, deque)| s.spawn(move || worker_loop(cfg, engine, kernel, wi, deque)))
            .collect();

        let master = master_loop(cfg, engine);

        let workers: Vec<PoolWorkerReport> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (master, workers)
    });

    if let Some(err) = engine.abort_cause.lock().take() {
        return Err(err);
    }

    Ok(CentralReport {
        wall: start.elapsed(),
        master,
        workers,
    })
}

/// Unrolls the flow: dependency discovery, node wiring, ready dispatch,
/// submission throttling.
fn master_loop(cfg: &CentralConfig, engine: &Engine<'_>) -> MasterReport {
    let loop_start = Instant::now();
    let mut tracker = DepTracker::new(engine.graph.num_data());
    let mut throttle_time = Duration::ZERO;
    let mut submitted = 0u64;

    for t in engine.graph.tasks() {
        if engine.aborted() {
            break; // the run is being torn down; stop feeding the pool
        }
        // Submission window: bound in-flight tasks (task storage).
        if let Some(window) = cfg.window {
            let t0 = Instant::now();
            let mut waited = false;
            loop {
                let in_flight = submitted as usize - engine.executed.load(Ordering::Acquire);
                if in_flight < window {
                    break;
                }
                waited = true;
                let epoch = engine.bell.epoch();
                // A worker panic mid-drain stops the executed counter for
                // good: without this check the master would park forever
                // on a window that can no longer close.
                if engine.aborted() {
                    break;
                }
                let in_flight = submitted as usize - engine.executed.load(Ordering::Acquire);
                if in_flight < window {
                    break;
                }
                match cfg.watchdog {
                    None => engine.bell.wait(epoch),
                    Some(d) => {
                        if !engine.bell.wait_for(epoch, d) && !engine.aborted() {
                            let in_flight =
                                submitted as usize - engine.executed.load(Ordering::Acquire);
                            engine.abort(ExecError::Stalled(Box::new(StallDiagnostic {
                                // The master is the extra thread after the
                                // pool (cf. trace numbering).
                                worker: WorkerId::from_index(engine.progress.len()),
                                waited: t0.elapsed(),
                                site: StallSite::MasterThrottle { in_flight, window },
                                workers: engine.progress_snapshot(),
                                flight: Default::default(),
                            })));
                            break;
                        }
                    }
                }
            }
            if waited {
                throttle_time += t0.elapsed();
            }
        }
        if engine.aborted() {
            break;
        }

        let i = t.id.index() as u32;
        let node = &engine.nodes[i as usize];
        for &p in tracker.predecessors_of(t) {
            let mut links = engine.nodes[p as usize].links.lock();
            if !links.done {
                node.add_pending();
                links.succs.push(i);
            }
        }
        submitted += 1;
        // Drop the submission sentinel; dispatch if that made it ready.
        if node.release_one() {
            engine.injector.push(i);
            engine.bell.ring();
        }
    }

    MasterReport {
        tasks_submitted: submitted,
        edges: tracker.edges(),
        loop_time: loop_start.elapsed(),
        throttle_time,
    }
}

/// One pool worker: find-execute-release until the run is done.
fn worker_loop<K>(
    cfg: &CentralConfig,
    engine: &Engine<'_>,
    kernel: &K,
    wi: usize,
    deque: Worker<u32>,
) -> PoolWorkerReport
where
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    let me = WorkerId::from_index(wi);
    let measure = cfg.measure_time;
    let mut report = PoolWorkerReport::default();
    let mut tracer = cfg
        .trace
        .as_ref()
        .map(|tc| WorkerTracer::new(tc, wi as u32, engine.epoch));
    let traced = tracer.is_some();
    let loop_start = Instant::now();

    loop {
        // Once the run is aborting, stop pulling work: tasks already
        // queued as "ready" must not start after the failure is observed.
        if engine.aborted() {
            break;
        }
        match find_task(engine, wi, &deque, &mut report) {
            Some(i) => {
                execute_task(cfg, engine, kernel, me, &deque, i, &mut report, &mut tracer);
            }
            None => {
                if engine.done.load(Ordering::Acquire) {
                    break;
                }
                let epoch = engine.bell.epoch();
                // Re-scan after the snapshot so a ring between our failed
                // scan and the park cannot strand us.
                if let Some(i) = find_task(engine, wi, &deque, &mut report) {
                    if engine.aborted() {
                        break;
                    }
                    execute_task(cfg, engine, kernel, me, &deque, i, &mut report, &mut tracer);
                    continue;
                }
                if engine.done.load(Ordering::Acquire) || engine.aborted() {
                    break;
                }
                // A ring since the snapshot means the park would return at
                // once: rescan without reading the clock for it.
                if engine.bell.epoch() != epoch {
                    continue;
                }
                let t0 = if measure || traced {
                    Some(Instant::now())
                } else {
                    None
                };
                let woken = match cfg.watchdog {
                    None => {
                        engine.bell.wait(epoch);
                        true
                    }
                    Some(d) => engine.bell.wait_for(epoch, d),
                };
                if let Some(t0) = t0 {
                    let t1 = Instant::now();
                    if measure {
                        report.idle_time += t1.duration_since(t0);
                    }
                    if let Some(tr) = tracer.as_mut() {
                        tr.park(t0, t1, 1);
                    }
                }
                if !woken && !engine.done.load(Ordering::Acquire) && !engine.aborted() {
                    // Idle for the whole deadline with the run unfinished
                    // and not a single completion ring: diagnose a stall.
                    engine.abort(ExecError::Stalled(Box::new(StallDiagnostic {
                        worker: me,
                        waited: cfg.watchdog.unwrap_or_default(),
                        site: StallSite::IdleWorker,
                        workers: engine.progress_snapshot(),
                        flight: Default::default(),
                    })));
                    break;
                }
            }
        }
    }

    report.loop_time = loop_start.elapsed();
    report.trace = tracer.map(|tr| {
        let mut wt = tr.finish();
        wt.loop_ns = report.loop_time.as_nanos() as u64;
        wt
    });
    report
}

/// Pop own deque, else take from the central queue, else steal from peers.
fn find_task(
    engine: &Engine<'_>,
    wi: usize,
    deque: &Worker<u32>,
    report: &mut PoolWorkerReport,
) -> Option<u32> {
    if let Some(i) = deque.pop() {
        return Some(i);
    }
    loop {
        let steal = engine.injector.steal_batch_and_pop(deque);
        if steal.is_retry() {
            continue;
        }
        if let Some(i) = steal.success() {
            report.steals += 1;
            return Some(i);
        }
        break;
    }
    for (peer, stealer) in engine.stealers.iter().enumerate() {
        if peer == wi {
            continue;
        }
        loop {
            let steal = stealer.steal();
            if steal.is_retry() {
                continue;
            }
            if let Some(i) = steal.success() {
                report.steals += 1;
                return Some(i);
            }
            break;
        }
    }
    None
}

/// Runs one task body and releases its successors.
#[allow(clippy::too_many_arguments)]
fn execute_task<K>(
    cfg: &CentralConfig,
    engine: &Engine<'_>,
    kernel: &K,
    me: WorkerId,
    deque: &Worker<u32>,
    i: u32,
    report: &mut PoolWorkerReport,
    tracer: &mut Option<WorkerTracer>,
) where
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    let task = &engine.graph.tasks()[i as usize];

    let run = AssertUnwindSafe(|| {
        #[cfg(feature = "fault-inject")]
        if let Some(hook) = cfg.fault_hook.as_ref() {
            // Inside the containment scope: an injected panic is
            // attributed to the task exactly like a kernel panic.
            hook.before_task(me, task.id);
        }
        kernel(me, task)
    });
    let body_start = if cfg.measure_time || tracer.is_some() {
        Some(Instant::now())
    } else {
        None
    };
    let outcome = std::panic::catch_unwind(run);
    let body_span = body_start.map(|t0| {
        let t1 = Instant::now();
        if cfg.measure_time {
            report.task_time += t1.duration_since(t0);
        }
        (t0, t1)
    });
    if let Err(payload) = outcome {
        engine.abort(ExecError::TaskPanicked {
            task: task.id,
            worker: me,
            payload,
            flight: rio_stf::FlightLog::default(),
        });
        return;
    }
    if let (Some((t0, t1)), Some(tr)) = (body_span, tracer.as_mut()) {
        tr.task(task.id, t0, t1);
    }
    report.tasks_executed += 1;
    if cfg.watchdog.is_some() {
        let slot = &engine.progress[me.index()];
        slot.last_completed.store(task.id.0, Ordering::Relaxed);
        slot.executed
            .store(report.tasks_executed, Ordering::Relaxed);
    }

    // Publish completion and collect registered successors; a released
    // successor goes to this worker's own deque (it likely touches the
    // data just produced), where idle peers can steal it.
    let succs = {
        let mut links = engine.nodes[i as usize].links.lock();
        links.done = true;
        std::mem::take(&mut links.succs)
    };
    for s in succs {
        if engine.nodes[s as usize].release_one() {
            deque.push(s);
        }
    }
    engine.task_finished();

    #[cfg(feature = "fault-inject")]
    if let Some(hook) = cfg.fault_hook.as_ref() {
        if hook.spurious_wake_after(me, task.id) {
            // A ring with no state change: every parked waiter wakes,
            // re-scans, finds nothing new, and must park again.
            engine.bell.ring();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::validate::{validate_spans, Span};
    use rio_stf::{Access, DataId, DataStore};
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex as StdMutex;

    fn cfg(threads: usize) -> CentralConfig {
        CentralConfig::with_threads(threads)
    }

    fn chain_graph(n: usize) -> TaskGraph {
        let mut b = TaskGraph::builder(1);
        for _ in 0..n {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        b.build()
    }

    #[test]
    fn executes_every_task_exactly_once() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..200 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let count = AtomicU64::new(0);
        let report = execute_graph(&cfg(4), &g, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 200);
        assert_eq!(report.tasks_executed(), 200);
        assert_eq!(report.master.tasks_submitted, 200);
        assert_eq!(report.num_threads(), 4);
    }

    #[test]
    fn dependent_chain_is_serialized_correctly() {
        let g = chain_graph(500);
        let store = DataStore::from_vec(vec![0u64]);
        execute_graph(&cfg(4), &g, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(store.into_vec(), vec![500]);
    }

    #[test]
    fn out_of_order_execution_is_sequentially_consistent() {
        // A mesh of dependencies, audited with span validation.
        let mut b = TaskGraph::builder(6);
        for i in 0..300u32 {
            let r = DataId(i % 6);
            let w = DataId((i / 3) % 6);
            if r == w {
                b.task(&[Access::read_write(w)], 1, "rw");
            } else {
                b.task(&[Access::read(r), Access::write(w)], 1, "mix");
            }
        }
        let g = b.build();
        let spans = StdMutex::new(Vec::new());
        let epoch = Instant::now();
        execute_graph(&cfg(3), &g, |_, t| {
            let start = epoch.elapsed().as_nanos() as u64;
            std::hint::black_box(0u64);
            let end = epoch.elapsed().as_nanos() as u64 + 1;
            spans.lock().unwrap().push(Span {
                task: t.id,
                start,
                end,
            });
        });
        let spans = spans.into_inner().unwrap();
        assert_eq!(spans.len(), 300);
        validate_spans(&g, &spans).expect("centralized execution violated STF semantics");
    }

    #[test]
    fn independent_tasks_can_reorder() {
        // With independent tasks nothing constrains order; just verify
        // totals and that multiple workers participated when possible.
        let mut b = TaskGraph::builder(0);
        for _ in 0..1000 {
            b.task(&[], 1, "ind");
        }
        let g = b.build();
        let report = execute_graph(&cfg(3), &g, |_, _| {});
        assert_eq!(report.tasks_executed(), 1000);
    }

    #[test]
    fn cost_hints_do_not_change_a_chains_result() {
        let mut b = TaskGraph::builder(1);
        for i in 0..200u64 {
            // Wildly varying cost hints.
            let _ = b.task(&[Access::read_write(DataId(0))], (i * 37) % 101, "t");
        }
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64]);
        execute_graph(&cfg(3), &g, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(store.into_vec(), vec![200]);
    }

    #[test]
    fn traced_interleaved_chains_pass_the_span_audit() {
        let g = {
            let mut b = TaskGraph::builder(4);
            for i in 0..100u32 {
                b.task(&[Access::read_write(DataId(i % 4))], u64::from(i % 7), "t");
            }
            b.build()
        };
        let cfg = cfg(3).trace(rio_trace::TraceConfig::new());
        let mut report = execute_graph(&cfg, &g, |_, _| {});
        let trace = report.take_trace().expect("a traced run has a trace");
        trace.audit(&g).expect("the run must stay consistent");
    }

    #[test]
    fn submission_window_bounds_in_flight_tasks() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..500 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let c = cfg(2).window(Some(8));
        let report = execute_graph(&c, &g, |_, _| {});
        assert_eq!(report.tasks_executed(), 500);
        // With a tiny window and instant tasks the master usually throttles
        // at least once; we only assert the run completed and recorded a
        // sane report (throttle_time is environment-dependent).
        assert_eq!(report.master.tasks_submitted, 500);
    }

    #[test]
    fn empty_graph_terminates() {
        let g = TaskGraph::builder(0).build();
        let report = execute_graph(&cfg(2), &g, |_, _| unreachable!());
        assert_eq!(report.tasks_executed(), 0);
    }

    #[test]
    fn wide_fork_join() {
        // 1 source, 64 middles, 1 sink.
        let mut b = TaskGraph::builder(65);
        b.task(&[Access::write(DataId(0))], 1, "src");
        for i in 1..=64u32 {
            b.task(
                &[Access::read(DataId(0)), Access::write(DataId(i))],
                1,
                "mid",
            );
        }
        let sink_reads: Vec<Access> = (1..=64u32).map(|i| Access::read(DataId(i))).collect();
        b.task(&sink_reads, 1, "sink");
        let g = b.build();

        let store = DataStore::filled(65, 0u64);
        execute_graph(&cfg(4), &g, |_, t| match t.kind {
            "src" => *store.write(DataId(0)) = 7,
            "mid" => {
                let v = *store.read(DataId(0));
                let out = t.accesses[1].data;
                *store.write(out) = v + 1;
            }
            "sink" => {
                for a in &t.accesses {
                    assert_eq!(*store.read(a.data), 8);
                }
            }
            _ => unreachable!(),
        });
    }

    #[test]
    fn task_panic_propagates_and_does_not_hang() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..50 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let result = std::panic::catch_unwind(|| {
            execute_graph(&cfg(3), &g, |_, t| {
                if t.id.index() == 25 {
                    panic!("boom in task body");
                }
            });
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom in task body");
    }

    #[test]
    fn try_execute_returns_a_structured_task_panic() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..50 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let err = try_execute_graph(&cfg(3), &g, |_, t| {
            if t.id.index() == 25 {
                panic!("boom in task body");
            }
        })
        .expect_err("the panic must abort the run");
        match err {
            ExecError::TaskPanicked { task, payload, .. } => {
                assert_eq!(task.index(), 25);
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in task body"));
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn panic_mid_drain_unblocks_a_throttled_master() {
        // Regression: with a small submission window, a worker panic used
        // to leave the master parked forever on a window that could no
        // longer close (executed stops advancing). The master must observe
        // the abort and stop submitting.
        let g = chain_graph(400);
        let c = cfg(2).window(Some(2)); // 1 worker, tiny window
        let err = try_execute_graph(&c, &g, |_, t| {
            if t.id.index() == 10 {
                panic!("mid-drain boom");
            }
        })
        .expect_err("the panic must abort, not hang, the drain");
        assert_eq!(err.kind(), "task-panicked");
    }

    #[test]
    fn workers_stop_pulling_queued_tasks_after_an_abort() {
        // 1 worker, everything ready up front: after the panic at the
        // first task, the remaining queued tasks must not run.
        let mut b = TaskGraph::builder(0);
        for _ in 0..100 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let ran = AtomicU64::new(0);
        let first = AtomicBool::new(true);
        let err = try_execute_graph(&cfg(2), &g, |_, _| {
            if first.swap(false, Ordering::Relaxed) {
                panic!("first task boom");
            }
            ran.fetch_add(1, Ordering::Relaxed);
        })
        .expect_err("must abort");
        assert_eq!(err.kind(), "task-panicked");
        assert_eq!(
            ran.load(Ordering::Relaxed),
            0,
            "the single worker saw the abort before pulling the next task"
        );
    }

    #[test]
    fn watchdog_diagnoses_an_idle_pool_as_stalled() {
        // Worker A runs a body far longer than the deadline; worker B has
        // nothing to do the whole time (RW chain: only one ready task) and
        // must convert its idleness into a structured stall.
        let g = chain_graph(4);
        let c = cfg(3).watchdog(Duration::from_millis(40));
        let err = try_execute_graph(&c, &g, |_, t| {
            if t.id.index() == 0 {
                std::thread::sleep(Duration::from_millis(400));
            }
        })
        .expect_err("the idle sibling must trip the watchdog");
        match err {
            ExecError::Stalled(diag) => {
                assert_eq!(diag.site, StallSite::IdleWorker);
                assert_eq!(diag.workers.len(), 2, "one snapshot per pool worker");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_diagnoses_a_throttled_master_as_stalled() {
        // 1 worker stuck in a long body with a window of 1: only the
        // master is waiting, so the diagnostic must name the throttle.
        let g = chain_graph(3);
        let c = cfg(2).window(Some(1)).watchdog(Duration::from_millis(40));
        let err = try_execute_graph(&c, &g, |_, t| {
            if t.id.index() == 0 {
                std::thread::sleep(Duration::from_millis(400));
            }
        })
        .expect_err("the throttled master must trip the watchdog");
        match err {
            ExecError::Stalled(diag) => {
                assert_eq!(
                    diag.site,
                    StallSite::MasterThrottle {
                        in_flight: 1,
                        window: 1
                    }
                );
                assert_eq!(diag.worker, WorkerId(1), "the master is thread 1 of 2");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_does_not_fire_on_a_healthy_run() {
        let g = chain_graph(300);
        let c = cfg(3).watchdog(Duration::from_secs(5));
        let store = DataStore::from_vec(vec![0u64]);
        let report = try_execute_graph(&c, &g, |_, _| {
            *store.write(DataId(0)) += 1;
        })
        .expect("a healthy run must complete under the watchdog");
        assert_eq!(report.tasks_executed(), 300);
        assert_eq!(store.into_vec(), vec![300]);
    }

    #[test]
    fn traced_run_records_tasks_and_quadruple() {
        let g = chain_graph(80);
        let store = DataStore::from_vec(vec![0u64]);
        let mut report = execute_graph(&cfg(3).trace(rio_trace::TraceConfig::new()), &g, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(store.into_vec(), vec![80]);
        let trace = report.take_trace().expect("trace present");
        assert_eq!(trace.workers.len(), 2, "pool workers only record events");
        assert_eq!(trace.extra_threads, 1, "the master counts as a thread");
        assert_eq!(trace.workers.iter().map(|w| w.tasks).sum::<u64>(), 80);
        // quadruple() counts only workers that executed tasks (a strict
        // chain may land entirely on one stealing worker) plus the master.
        let active = trace.workers.iter().filter(|w| w.tasks > 0).count();
        assert!((1..=2).contains(&active));
        assert_eq!(trace.quadruple().threads, active + 1);
        assert!(report.take_trace().is_none(), "trace is taken exactly once");
    }

    #[test]
    fn edges_are_reported() {
        let g = chain_graph(10);
        let report = execute_graph(&cfg(2), &g, |_, _| {});
        // A RW chain has 1 edge per non-first task... each task depends on
        // previous writer only (readers_since cleared by each write).
        assert_eq!(report.master.edges, 9);
    }

    #[test]
    fn worker_ids_are_pool_indices() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..100 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let seen = StdMutex::new(std::collections::HashSet::new());
        let c = cfg(4);
        execute_graph(&c, &g, |w, _| {
            assert!(w.index() < 3, "worker ids are 0..threads-1");
            seen.lock().unwrap().insert(w);
        });
        assert!(!seen.into_inner().unwrap().is_empty());
    }
}
