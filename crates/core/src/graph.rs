//! The one run shell and the one per-worker engine behind every front-end
//! — compiled programs ([`crate::compile`]), the closure flow
//! ([`crate::flow`]) and its reduction extension ([`crate::redux`]).
//!
//! `RunShell` is the only place a run is set up and torn down: abort
//! flag, progress table, counters, flight recorder and recovery state in;
//! one launch of the owner's worker set (`pool.rs`: worker 0 on the
//! calling thread, the others on threads that outlive the run); the first
//! recorded abort cause, or the reports, out. `WorkerCtx` is the
//! only place the paper's per-task sequence `get_* → body → terminate_*`
//! (Algorithm 2, generalized from one access per task to access lists) is
//! instrumented: it acquires the accesses whose guard is kept and accounts
//! for the wait, runs the body under fault containment, recovery and
//! timing, ticks the watchdog and publishes the completions somebody can
//! wait on. A front-end supplies what to wait for — words precomputed by
//! the compiler, or packed from a private view it keeps — and the body.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rio_stf::{
    DataId, ExecError, FlightEventKind, Mapping, StallDiagnostic, StallSite, TaskId, WorkerId,
};

use crate::compile::{AccessPlan, TaskAccesses};
use crate::config::RioConfig;
use crate::counters::{CounterRegistry, WorkerCounters};
use crate::executor::RunOutcome;
use crate::flight::{FlightRecorder, FlightRing};
use crate::pool::WorkerSet;
use crate::protocol::{
    get_read_word_cx, get_write_word_cx, publish_read, publish_write, unpack_epoch, unpoisoned,
    AbortCause, AbortFlag, RecoveryCtx, SharedDataState, WaitCx, WaitResult, WaitVerdict,
};
use crate::report::{ExecReport, OpCounts, WorkerReport};
use crate::status::{StatusTable, WaitWatch};
use crate::steal::Claims;
use crate::wait::WaitStrategy;
use rio_trace::WorkerTracer;

/// How a worker's share of a run ended: its report, or what it unwound
/// with outside any task body.
type Ended<R> = std::thread::Result<(WorkerReport, R)>;

/// The state of one run that its workers share, whichever front-end
/// started it.
pub(crate) struct RunShell<'c> {
    cfg: &'c RioConfig,
    abort: AbortFlag,
    status: StatusTable,
    registry: Option<Arc<CounterRegistry>>,
    flight: Option<FlightRecorder>,
    recovery: Option<RecoveryCtx>,
}

impl<'c> RunShell<'c> {
    /// Fresh state for a run under `cfg` over `num_data` data objects.
    pub(crate) fn new(cfg: &'c RioConfig, num_data: usize) -> RunShell<'c> {
        RunShell {
            cfg,
            abort: AbortFlag::new(),
            status: StatusTable::new(cfg.workers),
            registry: CounterRegistry::for_run(cfg),
            flight: FlightRecorder::for_run(cfg),
            recovery: cfg.recovery.clone().map(|p| RecoveryCtx::new(p, num_data)),
        }
    }

    /// Runs `worker` once per worker on `set` — worker 0 on the calling
    /// thread unless workers are pinned — with a fresh [`WorkerCtx`] over
    /// `shared`. `wake` must wake every sleeper of this run (an abort
    /// calls it). Returns the assembled report, how the run finished under
    /// the recovery policy, and what each worker returned beside its
    /// report.
    ///
    /// # Errors
    /// The first recorded abort cause — a contained body panic, a watchdog
    /// stall. It wins over whatever the workers unwound with afterwards; a
    /// worker panic with no cause recorded (outside any task body) is
    /// propagated.
    pub(crate) fn run<'a, R: Send>(
        &'a self,
        set: &WorkerSet,
        shared: &'a [SharedDataState],
        wake: &'a (dyn Fn() + Sync),
        worker: impl Fn(WorkerCtx<'a>) -> (WorkerReport, R) + Sync,
    ) -> Result<(ExecReport, RunOutcome, Vec<R>), ExecError> {
        let start = Instant::now();
        // A slot per worker for what its share came to: the set's threads
        // outlive the run, so nothing is handed back by a join.
        let slots: Vec<Mutex<Option<Ended<R>>>> =
            (0..self.cfg.workers).map(|_| Mutex::new(None)).collect();
        set.run(self.cfg, &|w| {
            let me = WorkerId::from_index(w);
            let share = || worker(WorkerCtx::new(self, shared, wake, me, start));
            let ended = catch_unwind(AssertUnwindSafe(share));
            *unpoisoned(slots[w].lock()) = Some(ended);
        });
        let wall = start.elapsed();
        if let Some(cause) = self.abort.take_cause() {
            let flight = self.flight.as_ref().map(FlightRecorder::dump);
            return Err(cause.into_error(flight.unwrap_or_default()));
        }
        let resume = |slot: Mutex<Option<Ended<R>>>| {
            let ended = unpoisoned(slot.into_inner()).expect("every worker ran its share");
            ended.unwrap_or_else(|p| resume_unwind(p))
        };
        let (workers, extras) = slots.into_iter().map(resume).unzip();
        let recovery = self.recovery.as_ref();
        let outcome = recovery.and_then(|r| r.take_report(self.flight.as_ref()));
        let counters = self.registry.as_deref().map(CounterRegistry::snapshot);
        let counters = counters.unwrap_or_default();
        let report = ExecReport {
            wall,
            workers,
            counters,
        };
        Ok((report, outcome.into(), extras))
    }

    /// [`RunShell::run`] for a front-end whose workers each unroll the
    /// flow and return their `flow_sum`, then §3.4's assumption 2: panics
    /// unless every worker unrolled the same flow — as many tasks, and
    /// the same flow checksum.
    pub(crate) fn run_flow<'a>(
        &'a self,
        set: &WorkerSet,
        shared: &'a [SharedDataState],
        wake: &'a (dyn Fn() + Sync),
        worker: impl Fn(WorkerCtx<'a>) -> (WorkerReport, u64) + Sync,
    ) -> Result<(ExecReport, RunOutcome), ExecError> {
        let (report, outcome, sums) = self.run(set, shared, wake, worker)?;
        let visited = report.workers.iter().map(|w| w.tasks_visited);
        let seen: Vec<(u64, u64)> = visited.zip(sums).collect();
        assert!(
            seen.iter().all(|w| *w == seen[0]),
            "non-deterministic flow: per worker, (tasks visited, flow checksum) = {seen:x?}; \
             every worker must unroll the same task sequence"
        );
        Ok((report, outcome))
    }
}

/// The most tasks in a block of a quiet range: its staleness (DESIGN.md §16).
const BLOCK: usize = 1024;

/// FNV-1a, folding a flow's task shapes into its checksum.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// What a worker of an aborted run leaves the user's flow closure with.
/// The shell discards it for the recorded cause.
#[cold]
pub(crate) fn unwind_aborted() -> ! {
    panic!("RIO run aborted: a task body panicked or a wait stalled on a sibling worker")
}

/// The `get_*` guard on a packed private view: a write compares the whole
/// word, a read only the write half.
#[inline]
fn get_word_cx(s: &SharedDataState, expected: u64, writes: bool, cx: &WaitCx<'_>) -> WaitResult {
    if writes {
        get_write_word_cx(s, expected, cx)
    } else {
        get_read_word_cx(s, expected, cx)
    }
}

/// Per-worker execution context: the counters, timers and tracing of one
/// worker in one run, and the `get → body → terminate` sequence with its
/// fault containment, watchdog, claims and recovery. It keeps no private
/// protocol state: every word a get waits for is handed to it.
pub(crate) struct WorkerCtx<'a> {
    /// The whole run, for diagnostics that look at *every* worker.
    run: &'a RunShell<'a>,
    pub cfg: &'a RioConfig,
    shared: &'a [SharedDataState],
    /// Wakes every sleeper of the run: what an abort calls.
    wake: &'a (dyn Fn() + Sync),
    pub me: WorkerId,
    abort: &'a AbortFlag,
    epoch: Instant,
    /// The run-wide wait context; `cx.timed` is also the rule for reading
    /// the clock at the *end* of a blocked get.
    cx: WaitCx<'a>,
    pub ops: OpCounts,
    pub tasks_executed: u64,
    pub tasks_visited: u64,
    task_time: Duration,
    idle_time: Duration,
    /// Checksum of the flow unrolled so far (flow front-ends only).
    pub(crate) flow_sum: u64,
    tracer: Option<WorkerTracer>,
    /// Always-on counter line of this worker (`None` when disabled).
    ctr: Option<&'a WorkerCounters>,
    /// This worker's flight-recorder ring (`None` when disabled): the
    /// single-writer event log the hot path appends to.
    ring: Option<&'a FlightRing>,
    /// Recovery state shared by every worker of the run (`None` when no
    /// [`crate::config::RecoveryPolicy`] is installed — the abort-on-panic
    /// fast path costs exactly one branch per executed task).
    rec: Option<&'a RecoveryCtx>,
    /// The run's claim slots (`None` when no instruction of the flow is
    /// claim-marked). Installed by the front-end after construction.
    pub(crate) claims: Option<Claims<'a>>,
    /// Claims of unmapped tasks this worker `(won, lost)`: what
    /// [`crate::hybrid::HybridStats`] reports.
    pub(crate) unmapped_claims: (u64, u64),
}

impl<'a> WorkerCtx<'a> {
    fn new(
        run: &'a RunShell<'a>,
        shared: &'a [SharedDataState],
        wake: &'a (dyn Fn() + Sync),
        me: WorkerId,
        epoch: Instant,
    ) -> WorkerCtx<'a> {
        let (cfg, abort) = (run.cfg, &run.abort);
        let tracer = cfg
            .trace
            .as_ref()
            .map(|tc| WorkerTracer::new(tc, me.index() as u32, epoch));
        WorkerCtx {
            run,
            cfg,
            shared,
            wake,
            me,
            abort,
            epoch,
            cx: WaitCx {
                strategy: cfg.wait,
                spin_limit: cfg.spin_polls(),
                deadline: cfg.watchdog,
                abort,
                timed: cfg.measure_time || tracer.is_some(),
                watch: None,
            },
            ops: OpCounts::default(),
            tasks_executed: 0,
            tasks_visited: 0,
            task_time: Duration::ZERO,
            idle_time: Duration::ZERO,
            flow_sum: FNV_OFFSET,
            tracer,
            ctr: run.registry.as_ref().map(|r| r.worker(me.index())),
            ring: run.flight.as_ref().map(|f| f.ring(me.index())),
            rec: run.recovery.as_ref(),
            claims: None,
            unmapped_claims: (0, 0),
        }
    }

    /// The next task of a flow that every worker unrolls for itself: its
    /// id — its position in the flow, from 1 — and whether `mapping` gives
    /// it to this worker. `shape` — per access, the object and a tag of
    /// its mode below 4 — goes into the flow checksum
    /// [`RunShell::run_flow`] compares. Unwinds out of the caller, which
    /// is the user's flow closure, once the run has aborted.
    pub(crate) fn next_flow_task(
        &mut self,
        mapping: &dyn Mapping,
        shape: impl IntoIterator<Item = (DataId, u64)>,
    ) -> (TaskId, bool) {
        self.tasks_visited += 1;
        let id = TaskId(self.tasks_visited);
        let fold = |sum: u64, value: u64| (sum ^ value).wrapping_mul(FNV_PRIME);
        let tagged = shape
            .into_iter()
            .map(|(d, mode)| (u64::from(d.0) << 2) | mode);
        self.flow_sum = tagged.fold(fold(self.flow_sum, id.0), fold);
        // The packed epoch word stores task ids in 32 bits (and so do the
        // flight ring and a stall diagnostic). Dynamic flows have no
        // graph-build validation, so the limit is enforced here (one
        // perfectly-predicted compare; reads-per-epoch is bounded by the
        // task count, so this check covers the read half too).
        assert!(
            id.0 <= u64::from(u32::MAX),
            "flow exceeds the u32 task-id limit of the packed epoch protocol"
        );
        let workers = self.cfg.workers;
        let executor = mapping.worker_of(id, workers);
        assert!(
            executor.index() < workers,
            "mapping sent {id} to non-existent {executor}"
        );
        if self.abort.armed() {
            unwind_aborted();
        }
        (id, executor == self.me)
    }

    /// The wait context of a get on `data`: the run-wide one and, with a
    /// watchdog armed, the progress mark a blocked wait leaves.
    #[inline]
    pub(crate) fn wait_cx(&self, data: DataId) -> WaitCx<'a> {
        let mut cx = self.cx;
        if self.cx.deadline.is_some() {
            cx.watch = Some(WaitWatch {
                status: &self.run.status,
                worker: self.me,
                data,
            });
        }
        cx
    }

    /// Appends one event to this worker's flight ring (no-op with the
    /// recorder disabled). Single-writer: only `self` ever records here.
    #[inline]
    fn flight_event(&self, kind: FlightEventKind, task: TaskId, data: Option<DataId>) {
        if let Some(r) = self.ring {
            r.record(kind, task, data);
        }
    }

    /// Reports watchdog progress: the worker is alive and the flow is
    /// advancing past `task`. The retry counter rides along so a later
    /// stall diagnostic can show activity since this tick.
    #[inline]
    pub(crate) fn tick(&self, task: TaskId) {
        if self.cx.deadline.is_some() {
            let retries = self.ctr.map_or(0, |c| c.retries());
            self.run
                .status
                .completed(self.me, task, self.tasks_executed, retries);
        }
    }

    /// Executes one task of this worker: claim it if it is claim-marked,
    /// acquire every access of `accesses` (in declaration order) whose
    /// guard is kept, run `body` under fault containment, publish the
    /// completions somebody can wait on. Returns `false` when the run
    /// aborted and the worker must abandon the flow.
    pub(crate) fn exec_task(
        &mut self,
        task: TaskId,
        accesses: TaskAccesses<'_>,
        body: impl FnMut(),
    ) -> bool {
        // Containment guarantee: no body starts once the abort is observed.
        if self.abort.armed() {
            return false;
        }
        // A task a partial mapping left unmapped sits in every program and
        // is CAS-claimed *before* waiting on any guard: the first worker to
        // get there wins. Losing the CAS means somebody else holds the body
        // and will publish its terminates; this worker has nothing left to
        // do. See DESIGN.md §9.1.
        if let Some(c) = self.claims.filter(|_| accesses.unmapped) {
            let won = c
                .table
                .try_claim(task.index(), c.epoch, self.me.index() as u32);
            self.unmapped_claims.0 += u64::from(won);
            self.unmapped_claims.1 += u64::from(!won);
            if !won {
                self.tick(task);
                return true;
            }
        }
        // Acquire every declared access, in declaration order. The waits
        // are pure condition polls (no resource is held), so no order can
        // deadlock. An elided guard is a get all the same: one decided at
        // compile time.
        self.ops.gets += accesses.plans.len() as u64;
        for (&a, &expected) in accesses.plans.iter().zip(accesses.expected) {
            if !a.guard() {
                continue;
            }
            let s = &self.shared[a.slot()];
            let writes = a.writes();
            let wr = get_word_cx(s, expected, writes, &self.wait_cx(a.data));
            if !self.settle_wait(task, a.data, writes, wr, || (expected, s.epoch_word())) {
                return false;
            }
        }

        if !self.run_body(task, accesses.plans, body) {
            return false;
        }
        // Skipped and permanently-failed tasks still report watchdog
        // progress: the worker is alive and the flow is advancing.
        self.tick(task);
        self.publish_task(task, accesses);

        #[cfg(feature = "fault-inject")]
        if let Some(hook) = self.cfg.fault_hook.as_ref() {
            if hook.spurious_wake_after(self.me, task) {
                (self.wake)();
            }
        }
        true
    }

    /// Books one finished guard wait of `task` on `data` — counters,
    /// flight ring, idle time, tracer — and acts on its verdict. Returns
    /// `false` when the run is aborting, which on an expired watchdog
    /// deadline this call itself sees to: `views` then supplies the packed
    /// private view the get compared and the shared word it compared it
    /// against, for the stall diagnostic.
    #[inline]
    pub(crate) fn settle_wait(
        &mut self,
        task: TaskId,
        data: DataId,
        writes: bool,
        wr: WaitResult,
        views: impl FnOnce() -> (u64, u64),
    ) -> bool {
        let wo = wr.outcome;
        if wo.polls > 0 {
            self.ops.waits += 1;
            self.ops.poll_loops += wo.polls;
            if let Some(c) = self.ctr {
                c.add_spins(wo.polls);
                c.add_parks(wo.parks);
            }
            if wo.parks > 0 {
                self.flight_event(FlightEventKind::Park, task, Some(data));
            }
        }
        if let (true, Some(t0)) = (self.cx.timed, wr.blocked_at) {
            let t1 = Instant::now();
            if self.cfg.measure_time {
                self.idle_time += t1.duration_since(t0);
            }
            if let Some(tr) = self.tracer.as_mut() {
                tr.wait(task, data, writes, t0, t1, wo.polls, wo.parks);
            }
        }
        match wr.verdict {
            WaitVerdict::Ready => true,
            WaitVerdict::Aborted => false,
            WaitVerdict::DeadlineExceeded => {
                let waited = wr.blocked_at.map_or(Duration::ZERO, |t0| t0.elapsed());
                self.stalled(task, data, writes, waited, views());
                false
            }
        }
    }

    /// Aborts the run with the diagnostic of a get whose watchdog
    /// deadline expired: the blocked worker, the private-vs-shared
    /// counters of the blocked data object (both decoded from one packed
    /// word each, so the dump can never pair a new write id with a stale
    /// read count), every worker's progress snapshot (with retry deltas
    /// since its last tick when counters are on), and the
    /// flight-recorder bundle — the last protocol events of every worker
    /// leading up to the stall.
    #[cold]
    fn stalled(
        &self,
        task: TaskId,
        data: DataId,
        write: bool,
        waited: Duration,
        views: (u64, u64),
    ) {
        // Record the abort *before* dumping, so the stalling worker's own
        // ring shows it as the final event.
        self.flight_event(FlightEventKind::Abort, task, Some(data));
        let (private, word) = views;
        let (local_reads, local_write) = unpack_epoch(private);
        let (shared_reads, shared_write) = unpack_epoch(word);
        let diag = Box::new(StallDiagnostic {
            worker: self.me,
            waited,
            site: StallSite::DataWait {
                task,
                data,
                write,
                local_reads_since_write: local_reads,
                local_last_registered_write: local_write,
                shared_reads_since_write: shared_reads,
                shared_last_executed_write: shared_write,
                shared_epoch_word: word,
            },
            workers: self.run.status.snapshot_with(self.run.registry.as_deref()),
            flight: (self.run.flight.as_ref())
                .map(FlightRecorder::dump)
                .unwrap_or_default(),
        });
        if let Some(c) = self.ctr {
            c.inc_aborts();
        }
        self.abort.abort(AbortCause::Stall(diag), self.wake);
    }

    /// Aborts the run because the body of `task` panicked. The first
    /// panic records its cause and ends the whole run; the abort wakes
    /// every waiter the missing terminates would have.
    #[cold]
    fn body_panicked(&self, task: TaskId, payload: Box<dyn std::any::Any + Send>) {
        self.flight_event(FlightEventKind::Abort, task, None);
        if let Some(c) = self.ctr {
            c.inc_aborts();
        }
        let cause = AbortCause::Panic {
            task,
            worker: self.me,
            payload,
        };
        self.abort.abort(cause, self.wake);
    }

    /// Runs the quiet range `(first, stride, count)` — `body(i)` per flow
    /// index `i`, each task declaring `accesses` — a block of at most
    /// [`BLOCK`] at a time: one containment frame and one keeping of the
    /// books per block (counters, a flight record of its last body's end,
    /// a watchdog tick). Per body remain the abort poll and the count that
    /// names the running body should it panic. `false`: the run aborts.
    pub(crate) fn exec_range(
        &mut self,
        (first, stride, count): (usize, usize, usize),
        accesses: usize,
        mut body: impl FnMut(usize),
    ) -> bool {
        let abort = self.abort;
        for done in (0..count).step_by(BLOCK) {
            let (len, finished) = (BLOCK.min(count - done), std::cell::Cell::new(0));
            let start = first + stride * done;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut i = start;
                for _ in 0..len {
                    if abort.armed() {
                        break;
                    }
                    body(i);
                    i += stride;
                    finished.set(finished.get() + 1);
                }
            }));
            let ran = finished.get();
            let id = |k: usize| TaskId::from_index(start + stride * k);
            if ran > 0 {
                // Elided gets and terminates count all the same; no wake ran.
                let entries = (ran * accesses) as u64;
                self.tasks_visited += ran as u64;
                self.tasks_executed += ran as u64;
                self.ops.gets += entries;
                self.ops.terminates += entries;
                if let Some(c) = self.ctr {
                    c.add_tasks(ran as u64);
                    if self.cfg.wait == WaitStrategy::Park {
                        c.add_wakes_elided(entries);
                    }
                }
                self.flight_event(FlightEventKind::TaskEnd, id(ran - 1), None);
                self.tick(id(ran - 1));
            }
            if let Err(payload) = outcome {
                self.flight_event(FlightEventKind::TaskStart, id(ran), None);
                self.body_panicked(id(ran), payload);
                return false;
            }
            if ran < len {
                return false;
            }
        }
        true
    }

    /// The one body-execution block, behind every task of every front-end
    /// alike: `body` under fault containment —
    /// abort-on-panic without a recovery policy; with one, skip on a
    /// poisoned input (the failure already happened upstream and this
    /// task's outputs would be garbage), otherwise retry — and the timing
    /// rule: the clock is read around the body only when `measure_time`,
    /// the tracer or a policy's deadline asked for it.
    /// `plans` is what the task declared (object and mode are all that is
    /// read here). Skipped and permanently-failed tasks are not counted as
    /// executed, but the caller publishes their terminates all the same.
    /// Returns `false` when the run is aborting: no terminate may follow.
    pub(crate) fn run_body(
        &mut self,
        task: TaskId,
        plans: &[AccessPlan],
        mut body: impl FnMut(),
    ) -> bool {
        self.flight_event(FlightEventKind::TaskStart, task, None);
        // `None`: skipped or permanently failed. `Some(span)`: ran.
        let ran = match self.rec {
            // The gets already admitted every access, so any poison a
            // producer published before its terminate is visible here
            // (the bit rides the protocol's own Release/Acquire edge —
            // or, behind an elided guard, this worker's program order).
            // Recovery is keyed on the task, not the worker: a claimed
            // task retries, fails, poisons and skips wherever it runs.
            Some(rec) if plans.iter().any(|a| rec.is_poisoned(a.data)) => {
                rec.record_skipped(task);
                self.poison_writes(rec, task, plans);
                None
            }
            // Attempt 0 is one `catch_unwind` whatever the policy: an
            // armed-but-unused one costs nothing measurable per task (the
            // deadline clock is what a policy that sets one opts into).
            rec => {
                let first_start = rec.and_then(|r| r.policy.deadline).map(|_| Instant::now());
                let attempt = AssertUnwindSafe(|| {
                    #[cfg(feature = "fault-inject")]
                    if let Some(hook) = self.cfg.fault_hook.as_ref() {
                        hook.before_attempt(self.me, task, 0);
                    }
                    body()
                });
                let t0 = (self.cx.timed || first_start.is_some()).then(Instant::now);
                match (catch_unwind(attempt), rec) {
                    (Ok(()), _) => Some(t0.map(|t0| (t0, Instant::now()))),
                    (Err(payload), None) => {
                        self.body_panicked(task, payload);
                        return false;
                    }
                    (Err(payload), Some(rec)) => {
                        self.retry(rec, &mut body, task, plans, payload, first_start, t0)
                    }
                }
            }
        };
        if let Some(span) = ran {
            if let Some((t0, t1)) = span {
                if self.cfg.measure_time {
                    self.task_time += t1.duration_since(t0);
                }
                if let Some(tr) = self.tracer.as_mut() {
                    tr.task(task, t0, t1);
                }
            }
            self.tasks_executed += 1;
            if let Some(c) = self.ctr {
                c.inc_tasks();
            }
            self.flight_event(FlightEventKind::TaskEnd, task, None);
        }
        true
    }

    /// Poisons every datum `plans` writes, crediting newly-set bits to the
    /// worker's `poisoned` counter (re-poisoning an already-poisoned datum
    /// is counted once, by whoever set the bit first). Each newly-set bit
    /// is also recorded in the worker's flight ring, attributed to `task`
    /// — the producer whose failure (or poisoned input) spread it.
    fn poison_writes(&self, rec: &RecoveryCtx, task: TaskId, plans: &[AccessPlan]) {
        let mut newly = 0u64;
        for a in plans {
            if a.writes() && rec.poison(a.data) {
                newly += 1;
                self.flight_event(FlightEventKind::Poison, task, Some(a.data));
            }
        }
        if let Some(c) = self.ctr {
            c.add_poisoned(newly);
        }
    }

    /// The retry loop of [`WorkerCtx::run_body`] under `rec`'s policy,
    /// entered only after attempt 0 has panicked with `payload` (so its
    /// cost is irrelevant to the fault-free path). Panicking attempts are
    /// retried with capped exponential backoff until the policy's
    /// `max_retries` or per-task `deadline` is exhausted; a permanent
    /// failure is recorded in `rec` and the task's written data poisoned.
    /// Returns `None` on permanent failure (the caller still terminates
    /// every access — skip-but-sync), `Some(span)` of the winning attempt
    /// on success. Attempts `1..` are always timed: `retry_time` covers
    /// every retried body and backoff sleep, missing only attempt 0's body
    /// when the run took no clock for it (`first_t0`).
    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn retry(
        &self,
        rec: &RecoveryCtx,
        body: &mut impl FnMut(),
        task: TaskId,
        plans: &[AccessPlan],
        mut payload: Box<dyn std::any::Any + Send>,
        first_start: Option<Instant>,
        first_t0: Option<Instant>,
    ) -> Option<Option<(Instant, Instant)>> {
        let policy = &rec.policy;
        let mut attempt = 0u32;
        // Time this task spent failing: failed attempt bodies plus backoff
        // sleeps. Successful retries report it too — recovery that
        // eventually worked still cost wall-clock the doctor should see.
        let mut recover_ns = first_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        loop {
            let spent = first_start.map_or(Duration::ZERO, |s| s.elapsed());
            let timed_out = policy.deadline.is_some_and(|d| spent >= d);
            if attempt >= policy.max_retries || timed_out {
                // Retries exhausted (or the deadline passed first): record
                // the permanent failure — keeping the panic payload when
                // both bounds tripped at once — and poison the writes
                // *before* the caller's terminates publish the epoch
                // advances, so every admitted dependent sees the bits.
                let detail = match policy.deadline {
                    Some(deadline) if timed_out && attempt < policy.max_retries => {
                        rio_stf::FailureDetail::TaskTimedOut { spent, deadline }
                    }
                    _ => rio_stf::FailureDetail::TaskFailed { payload },
                };
                rec.record_failed(rio_stf::FailedTask {
                    task,
                    worker: self.me,
                    retries: attempt,
                    detail,
                });
                rec.add_retry_ns(recover_ns);
                self.poison_writes(rec, task, plans);
                return None;
            }
            attempt += 1;
            if let Some(c) = self.ctr {
                c.inc_retries();
            }
            self.flight_event(FlightEventKind::Retry, task, None);
            let backoff = policy.backoff_for(attempt);
            if !backoff.is_zero() {
                let s0 = Instant::now();
                std::thread::sleep(backoff);
                recover_ns += s0.elapsed().as_nanos() as u64;
            }
            let retry = AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                if let Some(hook) = self.cfg.fault_hook.as_ref() {
                    hook.before_attempt(self.me, task, attempt);
                }
                body()
            });
            let t0 = Instant::now();
            match catch_unwind(retry) {
                Ok(()) => {
                    let t1 = Instant::now();
                    rec.add_retry_ns(recover_ns);
                    return Some(Some((t0, t1)));
                }
                Err(p) => {
                    recover_ns += t0.elapsed().as_nanos() as u64;
                    payload = p;
                }
            }
        }
    }

    /// Credits `n` terminates that ran no wake to the worker's counter
    /// line.
    #[inline]
    pub(crate) fn add_wakes_elided(&self, n: u64) {
        if let Some(c) = self.ctr {
            c.add_wakes_elided(n);
        }
    }

    /// Publishes every epoch advance `task` owes anyone, so §10 wake
    /// elision behaves the same whoever ran the body. Skip-but-sync: this
    /// runs whether or not the body did. A skipped or permanently-failed
    /// task still publishes, so no downstream worker ever stalls on a
    /// failure — they observe the poison bits instead (set before these
    /// stores, so the Release edge of each publication carries them). A
    /// publication the compiler elided has no waiter to stall: it stays a
    /// counted terminate that, like any other that found no waiter, ran
    /// no wake.
    fn publish_task(&mut self, task: TaskId, accesses: TaskAccesses<'_>) {
        self.ops.terminates += accesses.plans.len() as u64;
        let strategy = self.cfg.wait;
        let mut wakes_elided = 0;
        for a in accesses.plans {
            let elided = if !a.publish() {
                strategy == WaitStrategy::Park
            } else if a.writes() {
                publish_write(&self.shared[a.slot()], task, strategy)
            } else {
                publish_read(&self.shared[a.slot()], strategy)
            };
            wakes_elided += u64::from(elided);
        }
        self.add_wakes_elided(wakes_elided);
    }

    /// Consumes the context into the worker's report, at the end of the
    /// loop that began at `loop_start`.
    pub(crate) fn finish(self, loop_start: Instant) -> WorkerReport {
        let loop_time = loop_start.elapsed();
        let ops = self.ops;
        let trace = self.tracer.map(|tr| {
            let mut wt = tr.finish();
            wt.declares = ops.declares;
            wt.gets = ops.gets;
            wt.terminates = ops.terminates;
            wt.loop_ns = loop_time.as_nanos() as u64;
            wt
        });
        WorkerReport {
            worker: self.me,
            tasks_executed: self.tasks_executed,
            tasks_visited: self.tasks_visited,
            task_time: self.task_time,
            idle_time: self.idle_time,
            loop_time,
            launch_delay: loop_start.duration_since(self.epoch),
            ops,
            trace,
        }
    }
}

/// How this module's tests drive the engine: the one-shot
/// [`crate::Executor::run`] — compile, then run the fresh flow once.
#[cfg(test)]
fn execute_graph(
    cfg: &RioConfig,
    graph: &rio_stf::TaskGraph,
    mapping: &dyn rio_stf::Mapping,
    kernel: impl Fn(WorkerId, &rio_stf::TaskDesc) + Sync,
) -> crate::report::ExecReport {
    crate::executor::Executor::new(cfg.clone())
        .mapping(mapping)
        .run(graph, kernel)
        .report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ExecReport;
    use crate::wait::WaitStrategy;
    use rio_stf::validate::{validate_spans, Span};
    use rio_stf::{Access, DataId, DataStore, RoundRobin, TableMapping, TaskGraph, TaskId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn cfg(workers: usize) -> RioConfig {
        RioConfig::with_workers(workers).wait(WaitStrategy::Park)
    }

    #[test]
    fn executes_every_task_exactly_once() {
        let g = crate::testing::bare(100);
        let count = AtomicU64::new(0);
        let report = execute_graph(&cfg(3), &g, &RoundRobin, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(report.tasks_executed(), 100);
        assert_eq!(report.num_workers(), 3);
        // Every worker visited its own tasks and nothing else.
        for w in &report.workers {
            assert_eq!(w.tasks_visited, w.tasks_executed);
        }
    }

    #[test]
    fn respects_the_mapping() {
        let g = crate::testing::bare(10);
        let m = TableMapping::from_fn(10, |i| WorkerId::from_index(usize::from(i >= 7)));
        let report = execute_graph(&cfg(2), &g, &m, |_, _| {});
        assert_eq!(report.workers[0].tasks_executed, 7);
        assert_eq!(report.workers[1].tasks_executed, 3);
    }

    #[test]
    fn chain_across_workers_produces_sequential_result() {
        // A single counter incremented by 1000 tasks alternating workers:
        // any missed synchronization loses increments.
        let n = 1000u64;
        let g = crate::testing::chain(n as usize);
        let store = DataStore::from_vec(vec![0u64]);
        execute_graph(&cfg(4), &g, &RoundRobin, |_, t| {
            let mut v = store.write(DataId(0));
            *v += 1;
            let _ = t;
        });
        assert_eq!(store.into_vec(), vec![n]);
    }

    #[test]
    fn reader_fanout_sees_the_written_value() {
        // T1 writes 42; T2..T9 read and check; T10 overwrites.
        let g = crate::testing::fanout(8);
        let store = DataStore::from_vec(vec![0u64]);
        let seen = AtomicU64::new(0);
        execute_graph(&cfg(3), &g, &RoundRobin, |_, t| match t.kind {
            "w" => *store.write(DataId(0)) = 42,
            "r" => {
                assert_eq!(*store.read(DataId(0)), 42);
                seen.fetch_add(1, Ordering::Relaxed);
            }
            "w2" => *store.write(DataId(0)) = 7,
            _ => unreachable!(),
        });
        assert_eq!(seen.load(Ordering::Relaxed), 8);
        assert_eq!(store.into_vec(), vec![7]);
    }

    #[test]
    fn recorded_spans_are_sequentially_consistent() {
        // Random-ish dependency mesh over 4 data objects, spans audited by
        // the STF validator.
        let g = crate::testing::mesh(200);
        let spans = Mutex::new(Vec::new());
        let epoch = Instant::now();
        execute_graph(&cfg(3), &g, &RoundRobin, |_, t| {
            let start = epoch.elapsed().as_nanos() as u64;
            // A tiny body so spans have width.
            std::hint::black_box(0u64);
            let end = epoch.elapsed().as_nanos() as u64 + 1;
            spans.lock().unwrap().push(Span {
                task: t.id,
                start,
                end,
            });
        });
        let spans = spans.into_inner().unwrap();
        assert_eq!(spans.len(), 200);
        validate_spans(&g, &spans).expect("RIO execution violated STF semantics");
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let g = crate::testing::chain(50);
        let order = Mutex::new(Vec::new());
        let report = execute_graph(&cfg(1), &g, &RoundRobin, |_, t| {
            order.lock().unwrap().push(t.id);
        });
        let order = order.into_inner().unwrap();
        let expected: Vec<_> = (0..50).map(TaskId::from_index).collect();
        assert_eq!(order, expected, "one worker executes in flow order");
        // A single worker never waits on anyone.
        assert_eq!(report.total_ops().waits, 0);
        assert_eq!(report.total_ops().declares, 0);
    }

    #[test]
    fn measure_time_accumulates_task_time() {
        let g = crate::testing::bare(4);
        let c = RioConfig::with_workers(1).measure_time(true);
        let report = execute_graph(&c, &g, &RoundRobin, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(report.cumulative_task_time() >= Duration::from_millis(8));
        assert!(report.workers[0].loop_time >= report.workers[0].task_time);
    }

    /// Runs `g` on two round-robin workers with `measure_time` on, once
    /// as a one-shot and once as the second run of a reused flow.
    fn timed_reports(
        g: &TaskGraph,
        kernel: impl Fn(WorkerId, &rio_stf::TaskDesc) + Sync,
    ) -> [ExecReport; 2] {
        let c = cfg(2).measure_time(true);
        let flow = crate::executor::Executor::new(c.clone())
            .mapping(&RoundRobin)
            .compile(g);
        flow.run(&kernel);
        [
            execute_graph(&c, g, &RoundRobin, &kernel),
            flow.run(&kernel).report,
        ]
    }

    #[test]
    fn measured_independent_tasks_never_wait_or_idle() {
        // Every guard is open at its first probe: timing on, yet no wait
        // is counted and no idle time booked (nor any clock read for it).
        let g = crate::testing::independent(64);
        for report in timed_reports(&g, |_, _| {
            std::hint::black_box(0u64);
        }) {
            assert_eq!(report.total_ops().waits, 0);
            assert_eq!(report.cumulative_idle_time(), Duration::ZERO);
            assert!(report.cumulative_task_time() > Duration::ZERO);
        }
    }

    #[test]
    fn measured_cross_worker_chain_books_idle_time_inside_the_loop() {
        // A read-write chain alternating between two workers: while one
        // sleeps in a body the other is blocked on its guard.
        let g = crate::testing::chain(10);
        for report in timed_reports(&g, |_, _| std::thread::sleep(Duration::from_millis(1))) {
            assert!(report.total_ops().waits > 0);
            assert!(report.cumulative_idle_time() > Duration::ZERO);
            for w in &report.workers {
                assert!(w.task_time >= Duration::from_millis(5));
                assert!(w.task_time + w.idle_time <= w.loop_time, "{w:?}");
            }
        }
    }

    #[test]
    fn timing_is_off_by_default() {
        let g = crate::testing::chain(10);
        let report = execute_graph(&cfg(2), &g, &RoundRobin, |_, _| {});
        assert_eq!(report.cumulative_task_time(), Duration::ZERO);
        assert_eq!(report.cumulative_idle_time(), Duration::ZERO);
        assert!(report.workers.iter().all(|w| w.loop_time > Duration::ZERO));
    }

    #[test]
    fn always_on_counters_ride_along() {
        // A serialized RW chain over two Park workers: tasks are counted
        // exactly, and at least some terminates elide their wake.
        let g = crate::testing::chain(100);
        let report = execute_graph(&cfg(2), &g, &RoundRobin, |_, _| {});
        let total = report.counters.total();
        assert_eq!(total.tasks, 100);
        assert_eq!(report.counters.workers.len(), 2);
        assert!(
            total.wakes_elided + total.parks > 0,
            "a Park-mode chain either parks or elides wakes"
        );

        // With counters disabled the snapshot is empty.
        let report = execute_graph(&cfg(2).counters(false), &g, &RoundRobin, |_, _| {});
        assert!(report.counters.is_empty());
    }

    #[test]
    fn external_registry_is_shared_across_runs() {
        use crate::counters::CounterRegistry;
        use std::sync::Arc;
        let reg = Arc::new(CounterRegistry::new(2));
        let g = crate::testing::bare(10);
        let c = cfg(2).counter_registry(Arc::clone(&reg));
        execute_graph(&c, &g, &RoundRobin, |_, _| {});
        execute_graph(&c, &g, &RoundRobin, |_, _| {});
        assert_eq!(reg.snapshot().total().tasks, 20, "counters accumulate");
    }

    #[test]
    fn write_only_access_is_exclusive() {
        // Writers on the same datum from different workers must serialize;
        // the DataStore guard would panic otherwise.
        let mut b = TaskGraph::builder(1);
        for _ in 0..100 {
            b.task(&[Access::write(DataId(0))], 1, "w");
        }
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64]);
        execute_graph(&cfg(4), &g, &RoundRobin, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(store.into_vec(), vec![100]);
    }
}

#[cfg(test)]
mod poison_tests {
    use super::*;
    use crate::wait::WaitStrategy;
    use rio_stf::RoundRobin;

    /// The first panic wins; tasks after it on the panicking chain never
    /// execute.
    #[test]
    fn tasks_after_the_panic_point_do_not_run() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let g = crate::testing::chain(50);
        let highest = AtomicU64::new(0);
        let cfg = RioConfig::with_workers(2).wait(WaitStrategy::Park);
        let _ = catch_unwind(|| {
            execute_graph(&cfg, &g, &RoundRobin, |_, t| {
                if t.id.0 == 10 {
                    panic!("boom");
                }
                highest.fetch_max(t.id.0, Ordering::Relaxed);
            });
        });
        // The RW chain serializes execution, so nothing past T10 ran.
        assert!(highest.load(Ordering::Relaxed) < 10);
    }
}
