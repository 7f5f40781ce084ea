//! The decentralized data-synchronization protocol (paper §3.4,
//! Algorithms 1 & 2).
//!
//! Each runtime-managed data object is a pair of states:
//!
//! * a **shared** state ([`SharedDataState`]), written only by workers that
//!   *execute* tasks on the object. Both counters of Algorithm 1 —
//!   `nb_reads_since_write` (reads *performed* since the last performed
//!   write) and `last_executed_write` (id of the last write *performed*) —
//!   live packed in a **single 64-bit epoch word**
//!   (`last_executed_write << 32 | nb_reads_since_write`);
//! * a **private** state per worker ([`LocalDataState`]): `nb_reads_since_write`
//!   (reads *encountered* in the flow since the last encountered write) and
//!   `last_registered_write` (id of the last write *encountered*).
//!
//! Every worker unrolls the whole flow. For a task mapped elsewhere it only
//! calls [`declare_read`]/[`declare_write`] — one or two private writes, the
//! entire per-task overhead of a non-local task. For its own tasks it calls
//! [`get_read_word_cx`]/[`get_write_word_cx`] on its packed private view
//! (blocking until it matches the shared state), runs the body, then
//! [`terminate_read`]/[`terminate_write`]
//! (which publish to the shared state *and* update the private view, per
//! Algorithm 2 lines 26 and 32).
//!
//! A compiled program ([`crate::compile`]) keeps no private state: the
//! mapping is static, so the private view at each of a worker's own
//! accesses is known before the run and precomputed as the packed word
//! the `get_*` compares against ([`expected_write_word`]); its terminates
//! are the shared publications alone ([`publish_read`]/[`publish_write`]).
//!
//! ## Why this is correct (informally)
//!
//! A read is safe once every flow-earlier write has been performed:
//! `local.last_registered_write == shared.last_executed_write`. A write
//! additionally needs every flow-earlier read since that write to be
//! performed: `local.nb_reads_since_write == shared.nb_reads_since_write`.
//! The shared `last_executed_write` can never "skip past" the value a
//! waiter expects: a later write W₂ itself waits for all accesses
//! registered before it, including the waiter's task. The formal version of
//! this argument is checked by `rio-mc` (refinement of the STF spec, on the
//! same packed-word encoding).
//!
//! ## The packed epoch word
//!
//! ```text
//!  63                              32 31                               0
//! ┌───────────────────────────────────┬───────────────────────────────────┐
//! │      last_executed_write (u32)    │     nb_reads_since_write (u32)    │
//! └───────────────────────────────────┴───────────────────────────────────┘
//! ```
//!
//! Packing turns both `get_*` guards into **one atomic load compared
//! against one precomputed expected word** ([`expected_read_word`] /
//! [`expected_write_word`]; a read ignores the low half via
//! [`READ_EPOCH_MASK`]), `terminate_write` into **one store** of
//! `pack(task, 0)` and `terminate_read` into **one `fetch_add(1)`** (the
//! low half increments; graph validation caps per-epoch read counts at
//! `u32::MAX`, so the increment can never carry into the write id).
//! There is no two-load window: a write id and its epoch's read count are
//! observed together, by construction.
//!
//! ## Memory ordering & wake elision
//!
//! Publications use `Release` stores and `get_*` uses `Acquire` loads, so
//! observing an expected epoch word also makes the task body's data writes
//! visible. Under [`WaitStrategy::Park`] both sides upgrade to `SeqCst`
//! to support **waiter-aware wake elision**: a worker that exhausted its
//! spin budget ([`crate::wait`] sizes it) sleeps on the object's own
//! futex event-count (`crate::futex`, next to the epoch word in the
//! same cache line), and a terminate only wakes anyone if that
//! event-count advertises a waiter — so the uncontended completion path
//! is the `SeqCst` publication plus one load, with no lock, no table and
//! no syscall. The lost-wakeup argument (four `SeqCst` accesses — the
//! terminator's word store then waiters load, the waiter's waiters
//! increment then word re-check — plus the futex's compare of the wake
//! sequence) is stated in `crate::futex` and explored exhaustively by
//! `rio-mc`.
//!
//! Abort broadcast and spurious-wake storms bypass the waiters check and
//! wake every object of the table they are given — cold paths whose job
//! is to guarantee that every wait of *that run* terminates (abort,
//! watchdog deadline) no matter what; waiters of other runs in the
//! process are not disturbed.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{LockResult, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rio_stf::{DataId, ExecError, FailedTask, PartialReport, StallDiagnostic, TaskId, WorkerId};

use crate::flight::FlightRecorder;
use crate::futex::EventCount;
use crate::status::WaitWatch;
use crate::wait::{WaitStrategy, PARK_COST};

/// Mask selecting the `last_executed_write` half of an epoch word — the
/// part a `get_read` compares ([`expected_read_word`]).
pub const READ_EPOCH_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// Mask selecting the whole epoch word — what a `get_write` compares.
pub const WRITE_EPOCH_MASK: u64 = u64::MAX;

/// Packs `(last_executed_write, nb_reads_since_write)` into one epoch
/// word. Both halves must fit in `u32` — graph validation
/// ([`rio_stf::TaskGraph::validate`]) enforces this for every flow the
/// runtime accepts.
#[inline]
pub const fn pack_epoch(write: TaskId, reads: u64) -> u64 {
    debug_assert!(
        write.0 <= u32::MAX as u64,
        "task id overflows the epoch word"
    );
    debug_assert!(
        reads <= u32::MAX as u64,
        "read count overflows the epoch word"
    );
    (write.0 << 32) | reads
}

/// Unpacks an epoch word into `(nb_reads_since_write, last_executed_write)`
/// — the order [`SharedDataState::snapshot`] reports.
#[inline]
pub const fn unpack_epoch(word: u64) -> (u64, TaskId) {
    (word & 0xFFFF_FFFF, TaskId(word >> 32))
}

/// The epoch word a `get_read` of this private view waits for: the
/// registered write in the high half, the low half ignored via
/// [`READ_EPOCH_MASK`].
#[inline]
pub fn expected_read_word(local: &LocalDataState) -> u64 {
    pack_epoch(local.last_registered_write, 0)
}

/// The epoch word a `get_write` of this private view waits for: the
/// registered write *and* the registered reader count, compared whole.
#[inline]
pub fn expected_write_word(local: &LocalDataState) -> u64 {
    pack_epoch(local.last_registered_write, local.nb_reads_since_write)
}

/// Why a run is being aborted — recorded (first failure wins) in the
/// [`AbortFlag`] by the worker that detected it, converted into an
/// [`ExecError`] by the runtime after joining.
pub enum AbortCause {
    /// A task body (or an injected fault hook inside its containment
    /// scope) panicked.
    Panic {
        /// The task whose body panicked.
        task: TaskId,
        /// The worker that was executing it.
        worker: WorkerId,
        /// The original panic payload.
        payload: Box<dyn std::any::Any + Send>,
    },
    /// A worker's wait exceeded the watchdog deadline.
    Stall(Box<StallDiagnostic>),
}

impl AbortCause {
    /// Converts the cause into the error the runtime returns. A panic's
    /// carries `flight`, dumped once every worker has stopped.
    pub fn into_error(self, flight: rio_stf::FlightLog) -> ExecError {
        match self {
            AbortCause::Panic {
                task,
                worker,
                payload,
            } => ExecError::TaskPanicked {
                task,
                worker,
                payload,
                flight,
            },
            AbortCause::Stall(d) => ExecError::Stalled(d),
        }
    }
}

impl std::fmt::Debug for AbortCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortCause::Panic { task, worker, .. } => f
                .debug_struct("Panic")
                .field("task", task)
                .field("worker", worker)
                .finish_non_exhaustive(),
            AbortCause::Stall(d) => f.debug_tuple("Stall").field(d).finish(),
        }
    }
}

/// What a failure-path lock guards, poisoned or not: a panic while one is
/// held (an allocation failure inside `push`) leaves a valid `Vec` /
/// `Option` behind.
pub(crate) fn unpoisoned<T>(locked: LockResult<T>) -> T {
    locked.unwrap_or_else(PoisonError::into_inner)
}

/// Run-wide abort flag. When a task body panics (or a watchdog deadline
/// expires), the detecting worker records the [`AbortCause`], *arms* the
/// flag and wakes every parked waiter; other workers observe it inside
/// their `get_*` waits (and before starting their own tasks) and abandon
/// the flow instead of blocking forever on dependencies that will never be
/// satisfied. The runtime converts the recorded cause into an
/// [`ExecError`] after joining.
///
/// The armed bit is one `AcqRel`-style atomic (Release on arm, Acquire on
/// check); the cause slot is a mutex touched only on the failure path.
#[derive(Debug, Default)]
pub struct AbortFlag {
    armed: AtomicBool,
    cause: Mutex<Option<AbortCause>>,
}

impl AbortFlag {
    /// A fresh, un-armed abort flag.
    pub fn new() -> AbortFlag {
        AbortFlag::default()
    }

    /// Arms the flag without recording a cause. Idempotent.
    #[cold]
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Has a sibling worker failed?
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Arms the flag and wakes every worker asleep on a data object of
    /// `table` so it can observe it — that run's waiters and nobody
    /// else's. O(objects), on a path taken once per failed run.
    ///
    /// No sleeper misses the abort, on `Release`/`Acquire` alone: the arm
    /// is sequenced before each object's sequence bump (a `SeqCst` RMW),
    /// and a waiter loads the sequence before it checks the flag
    /// (`crate::futex::EventCount::sleep_until`). A waiter that read
    /// the bumped sequence therefore sees the flag armed and leaves; one
    /// that read the old sequence either fails the futex compare or is
    /// already queued when the wake that follows the bump runs.
    #[cold]
    pub fn arm_and_wake(&self, table: &[SharedDataState]) {
        self.arm();
        spurious_wake_all(table);
    }

    /// Records `cause` (first failure wins), arms the flag, then calls
    /// `wake`, which must wake every worker asleep in the run —
    /// [`spurious_wake_all`] on its table, or whatever else its waiters
    /// sleep on — in that order ([`AbortFlag::arm_and_wake`] has the
    /// argument). Returns `true` if this call's cause was recorded.
    #[cold]
    pub fn abort(&self, cause: AbortCause, wake: impl FnOnce()) -> bool {
        let mut slot = unpoisoned(self.cause.lock());
        let won = slot.is_none();
        if won {
            *slot = Some(cause);
        }
        drop(slot);
        self.arm();
        wake();
        won
    }

    /// Takes the recorded cause, if any. Called once by the runtime after
    /// joining the workers.
    pub fn take_cause(&self) -> Option<AbortCause> {
        unpoisoned(self.cause.lock()).take()
    }
}

/// Sideband recovery state of one run under a
/// [`RecoveryPolicy`](crate::config::RecoveryPolicy): the per-datum
/// atomic poison bitmap plus the failure/skip records assembled into a
/// [`PartialReport`] after joining.
///
/// ## Why the bitmap never reorders the protocol
///
/// A failed (or skipped) task sets its written data's poison bits
/// *before* running its `terminate_*` calls. A terminate publishes with
/// a `Release` (or `SeqCst`) store/add on the epoch word, and a
/// dependent's `get_*` admits the access with an `Acquire` (or `SeqCst`)
/// load of that same word — so the moment a dependent's guard passes, the
/// poison bit set by the producer is visible too (it is sequenced before
/// the release publication). The bits therefore ride the protocol's
/// existing happens-before edges; the bitmap itself needs only the `Or`
/// to be atomic (concurrent writers poison *different* conclusions of
/// the same serialized history, never racing on correctness).
///
/// Poison is monotonic (set, never cleared) and only changes at write
/// epochs — data writes are serialized by the protocol — so whether a
/// task observes a poisoned input is a pure function of the flow, the
/// mapping and the failure set: the poisoned cone is deterministic
/// across wait strategies and across fresh and reused flows.
pub(crate) struct RecoveryCtx {
    /// The installed policy.
    pub(crate) policy: crate::config::RecoveryPolicy,
    /// One bit per data object; set = final value untrustworthy.
    poison: Box<[AtomicU64]>,
    /// Permanently-failed tasks, appended by their owning workers.
    failed: Mutex<Vec<FailedTask>>,
    /// Kernels skipped because an accessed datum was poisoned.
    skipped: Mutex<Vec<TaskId>>,
    /// Nanoseconds spent in failed attempts and backoff sleeps.
    retry_ns: AtomicU64,
}

impl RecoveryCtx {
    /// Fresh recovery state for a run over `num_data` data objects.
    pub(crate) fn new(policy: crate::config::RecoveryPolicy, num_data: usize) -> RecoveryCtx {
        RecoveryCtx {
            policy,
            poison: (0..num_data.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            failed: Mutex::new(Vec::new()),
            skipped: Mutex::new(Vec::new()),
            retry_ns: AtomicU64::new(0),
        }
    }

    /// Marks `data` poisoned. Returns `true` when the bit was newly set.
    /// Must be called *before* the caller's `terminate_*` on the same
    /// datum (see the type docs for the visibility argument).
    #[cold]
    pub(crate) fn poison(&self, data: DataId) -> bool {
        let bit = 1u64 << (data.index() % 64);
        self.poison[data.index() / 64].fetch_or(bit, Ordering::Release) & bit == 0
    }

    /// Is `data` inside the poisoned cone? Safe to answer right after a
    /// `get_*` on `data` succeeded: the guard's acquire load made any
    /// producer-set bit visible.
    #[inline]
    pub(crate) fn is_poisoned(&self, data: DataId) -> bool {
        self.poison[data.index() / 64].load(Ordering::Acquire) & (1 << (data.index() % 64)) != 0
    }

    /// Records one permanently-failed task.
    #[cold]
    pub(crate) fn record_failed(&self, ft: FailedTask) {
        unpoisoned(self.failed.lock()).push(ft);
    }

    /// Records one dependent whose kernel was skipped.
    #[cold]
    pub(crate) fn record_skipped(&self, task: TaskId) {
        unpoisoned(self.skipped.lock()).push(task);
    }

    /// Accumulates time spent in failed attempts and backoff sleeps.
    #[cold]
    pub(crate) fn add_retry_ns(&self, ns: u64) {
        self.retry_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Assembles the partial report after every worker joined, draining
    /// the records; `flight` is the run's recorder, whose dump is then
    /// exact recording order. `None` when nothing failed (the run completed
    /// cleanly despite the policy being installed).
    pub(crate) fn take_report(&self, flight: Option<&FlightRecorder>) -> Option<PartialReport> {
        let mut failed = std::mem::take(&mut *unpoisoned(self.failed.lock()));
        let mut skipped = std::mem::take(&mut *unpoisoned(self.skipped.lock()));
        if failed.is_empty() && skipped.is_empty() {
            return None;
        }
        failed.sort_by_key(|f| f.task);
        skipped.sort();
        let mut poisoned = Vec::new();
        for (w, word) in self.poison.iter().enumerate() {
            let mut bits = word.load(Ordering::Acquire);
            while bits != 0 {
                poisoned.push(DataId::from_index(w * 64 + bits.trailing_zeros() as usize));
                bits &= bits - 1;
            }
        }
        Some(PartialReport {
            failed,
            poisoned,
            skipped,
            retry_time: Duration::from_nanos(self.retry_ns.load(Ordering::Relaxed)),
            flight: flight.map(FlightRecorder::dump).unwrap_or_default(),
        })
    }
}

/// What one blocking `get_*` cost.
///
/// `polls` counts condition re-checks (0 = fast path, condition already
/// true). Under [`WaitStrategy::Park`], every poll past the initial
/// spin phase is one park/wake transition, reported separately in
/// `parks`; [`WaitStrategy::Spin`] never parks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitOutcome {
    /// Condition re-checks performed while blocked.
    pub polls: u64,
    /// Park/wake transitions (Park strategy only; 0 otherwise).
    pub parks: u64,
}

impl WaitOutcome {
    /// Did the call block at all?
    #[inline]
    pub fn waited(&self) -> bool {
        self.polls > 0
    }
}

/// How a wait ([`get_read_word_cx`]/[`get_write_word_cx`]) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitVerdict {
    /// The protocol condition became true: the access may proceed.
    Ready,
    /// The run's [`AbortFlag`] was armed while waiting; the worker must
    /// abandon the flow.
    Aborted,
    /// The watchdog deadline expired with the condition still false; the
    /// caller should diagnose the stall and abort the run.
    DeadlineExceeded,
}

/// Outcome and verdict of one context-aware wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitResult {
    /// Poll and park counts.
    pub outcome: WaitOutcome,
    /// How the wait ended.
    pub verdict: WaitVerdict,
    /// When the wait's first probe failed — the start of the blocked
    /// interval, for idle accounting, the tracer and the watchdog alike.
    /// `None` when the first probe succeeded (a ready get reads no clock)
    /// or when the context asked for no stamp ([`WaitCx::timed`] off and
    /// no deadline).
    pub blocked_at: Option<Instant>,
}

impl WaitResult {
    /// The first probe succeeded: nothing polled, no clock read.
    pub const READY: WaitResult = WaitResult {
        outcome: WaitOutcome { polls: 0, parks: 0 },
        verdict: WaitVerdict::Ready,
        blocked_at: None,
    };
}

/// Everything a blocking wait needs to know beyond the protocol condition:
/// the strategy, the (configurable) pure-spin budget, an optional watchdog
/// deadline, and the run's abort flag.
///
/// Nothing here costs a wait whose first probe succeeds: the clock is
/// read, and the watchdog's progress slot written, only once that probe
/// has failed. The deadline clock starts at that same stamp.
#[derive(Debug, Clone, Copy)]
pub struct WaitCx<'a> {
    /// How to wait once the spin budget is exhausted.
    pub strategy: WaitStrategy,
    /// Pure-spin polls before a `Park` wait sleeps.
    pub spin_limit: u32,
    /// `Some(d)`: give up (verdict [`WaitVerdict::DeadlineExceeded`]) after
    /// being blocked for `d`. `None`: wait forever.
    pub deadline: Option<Duration>,
    /// The run's abort flag, re-checked on every poll.
    pub abort: &'a AbortFlag,
    /// Stamp the clock when the first probe fails and hand the instant
    /// back as [`WaitResult::blocked_at`] (a deadline implies the stamp).
    pub timed: bool,
    /// The progress slot to mark for as long as the wait is blocked, so a
    /// sibling's stall diagnostic can name what this worker waits on.
    pub watch: Option<WaitWatch<'a>>,
}

impl<'a> WaitCx<'a> {
    /// A context with the default spin budget, no deadline, no clock and
    /// no progress mark.
    pub fn new(strategy: WaitStrategy, abort: &'a AbortFlag) -> WaitCx<'a> {
        WaitCx {
            strategy,
            spin_limit: WaitStrategy::DEFAULT_SPIN_LIMIT,
            deadline: None,
            abort,
            timed: false,
            watch: None,
        }
    }
}

/// Private, per-worker view of one data object. Two plain integers — the
/// "one or two writes in private memory per dependency" of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalDataState {
    /// Reads encountered in the flow since the last encountered write.
    pub nb_reads_since_write: u64,
    /// Id of the last write operation encountered in the flow.
    pub last_registered_write: TaskId,
}

impl Default for LocalDataState {
    fn default() -> Self {
        LocalDataState {
            nb_reads_since_write: 0,
            last_registered_write: TaskId::NONE,
        }
    }
}

/// Shared, synchronized state of one data object: the packed epoch word
/// plus the waiter indicator that lets `terminate_*` elide wakes. One
/// padded cache line — this is the only memory the protocol contends on.
///
/// The initial state packs to word `0`: no write performed
/// (`TaskId::NONE = 0`), no reads in the current epoch.
#[derive(Default)]
#[repr(align(128))]
pub struct SharedDataState {
    /// `last_executed_write << 32 | nb_reads_since_write` (see the module
    /// docs for the layout and ordering arguments).
    word: AtomicU64,
    /// Who sleeps on this object, and the word they sleep on. A
    /// terminate only wakes when it advertises a waiter.
    event: EventCount,
}

impl std::fmt::Debug for SharedDataState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let word = self.word.load(Ordering::Relaxed);
        let (reads, write) = unpack_epoch(word);
        f.debug_struct("SharedDataState")
            .field("nb_reads_since_write", &reads)
            .field("last_executed_write", &write.0)
            .field("epoch_word", &format_args!("{word:#018x}"))
            .field("event", &self.event)
            .finish()
    }
}

impl SharedDataState {
    /// Allocates shared states for `n` data objects.
    pub fn new_table(n: usize) -> Box<[SharedDataState]> {
        (0..n).map(|_| SharedDataState::default()).collect()
    }

    /// Coherent snapshot of `(nb_reads_since_write, last_executed_write)`
    /// for tests and diagnostics — one atomic load of the epoch word, so
    /// the pair can never mix a new write id with a stale read count.
    pub fn snapshot(&self) -> (u64, TaskId) {
        unpack_epoch(self.word.load(Ordering::Acquire))
    }

    /// The raw packed epoch word (diagnostics).
    pub fn epoch_word(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    /// Is the epoch guard satisfied *right now* — does the epoch word
    /// agree with `expected` on every bit of `mask`? One masked
    /// acquire-load — the probe every `get_*` starts with and the steal
    /// layer ([`crate::steal`]) prices foreign tasks with. `expected`'s
    /// bits outside `mask` are ignored, so a read guard may be handed the
    /// whole packed private view ([`expected_write_word`]) as well as
    /// [`expected_read_word`]. Satisfaction is monotonic until the guarded
    /// task's own `terminate_*` calls run, so a `true` stays `true` for
    /// whoever claims the task.
    #[inline]
    pub fn satisfied(&self, expected: u64, mask: u64) -> bool {
        self.ready(expected, mask, Ordering::Acquire)
    }

    #[inline]
    fn ready(&self, expected: u64, mask: u64, order: Ordering) -> bool {
        (self.word.load(order) ^ expected) & mask == 0
    }

    /// Waits until the epoch word agrees with `expected` under `mask`
    /// ([`SharedDataState::satisfied`]), the run aborts, or the deadline
    /// (if any) expires, according to `cx`.
    #[inline]
    fn wait_until_cx(&self, cx: &WaitCx<'_>, expected: u64, mask: u64) -> WaitResult {
        wait_until(&self.event, cx, |order| self.ready(expected, mask, order))
    }
}

/// Every wait — [`SharedDataState`]'s and the reduction extension's
/// ([`crate::redux`]) alike: until `ready` holds, the run aborts or the
/// deadline expires. `ready` is handed the ordering its loads must use.
///
/// A first probe that succeeds is the whole cost of a ready get: no
/// clock read, no progress-slot store. Everything else — the stamp
/// that serves idle accounting, the tracer and the watchdog, and the
/// [`WaitWatch`] marks — lives behind the failed probe.
#[inline]
pub(crate) fn wait_until(
    event: &EventCount,
    cx: &WaitCx<'_>,
    ready: impl Fn(Ordering) -> bool,
) -> WaitResult {
    if ready(Ordering::Acquire) {
        return WaitResult::READY;
    }
    wait_blocked(event, cx, ready)
}

/// The blocked half of [`wait_until`]. The abort flag is re-checked on
/// every poll.
///
/// Spurious wake-ups are harmless by construction: a `Park` wait's futex
/// sleep may return without a matching wake (a signal, an abort or storm
/// aimed at the table), and it loops back to re-check before concluding
/// anything; only a *timed* wait can yield
/// [`WaitVerdict::DeadlineExceeded`] (after the full deadline, never on a
/// stray wake).
///
/// Ordering: the spin phase loads with `Acquire` (enough to synchronize
/// with the `Release`/`SeqCst` publication it matches); a wait about to
/// sleep re-checks with `SeqCst` after announcing itself in `event`,
/// which the elision argument requires (`crate::futex`).
#[cold]
fn wait_blocked(
    event: &EventCount,
    cx: &WaitCx<'_>,
    ready: impl Fn(Ordering) -> bool,
) -> WaitResult {
    let blocked_at = (cx.timed || cx.deadline.is_some()).then(Instant::now);
    if let Some(w) = cx.watch {
        w.status.begin_wait(w.worker, w.data);
    }
    let (outcome, verdict) = wait_loop(event, cx, ready, blocked_at);
    if let Some(w) = cx.watch {
        w.status.end_wait(w.worker);
    }
    WaitResult {
        outcome,
        verdict,
        blocked_at,
    }
}

fn wait_loop(
    event: &EventCount,
    cx: &WaitCx<'_>,
    ready: impl Fn(Ordering) -> bool,
    blocked_at: Option<Instant>,
) -> (WaitOutcome, WaitVerdict) {
    let done = |polls, parks, verdict| (WaitOutcome { polls, parks }, verdict);
    // The watchdog runs on the stamp taken when the first probe failed (a
    // deadline always takes one).
    let timer = cx.deadline.zip(blocked_at);
    let left = || timer.map(|(d, start)| d.saturating_sub(start.elapsed()));
    // One poll: the condition, the flag and — when asked — the clock.
    let poll = |order, clock: bool| {
        if ready(order) {
            Some(WaitVerdict::Ready)
        } else if cx.abort.armed() {
            Some(WaitVerdict::Aborted)
        } else if clock && left() == Some(Duration::ZERO) {
            Some(WaitVerdict::DeadlineExceeded)
        } else {
            None
        }
    };
    // The pure-spin phase: all there is to `Spin`, a `Park` wait's first
    // `spin_limit` polls. It honours the deadline too: a budget sized to
    // a park (`crate::wait`) would otherwise swallow the steal layer's
    // short slices whole. The clock read is amortized over `CLOCK_EVERY`
    // polls, about a microsecond of spinning.
    const CLOCK_EVERY: u64 = 64;
    let mut polls: u64 = 0;
    while cx.strategy == WaitStrategy::Spin || polls < u64::from(cx.spin_limit) {
        std::hint::spin_loop();
        polls += 1;
        if let Some(verdict) = poll(Ordering::Acquire, polls.is_multiple_of(CLOCK_EVERY)) {
            return done(polls, 0, verdict);
        }
    }
    // A deadline's rest shorter than a park is not slept — its timer
    // wake-up would preempt the producer waited for (measured on steal
    // slices) — but probed with the core yielded in between; the clock on
    // every probe, as one yield can swallow a whole scheduling quantum.
    while left().is_some_and(|rest| rest < PARK_COST) {
        std::thread::yield_now();
        polls += 1;
        if let Some(verdict) = poll(Ordering::Acquire, true) {
            return done(polls, 0, verdict);
        }
    }
    // Announce, re-check with `SeqCst`, sleep on the object's own
    // event-count for what is left of the deadline. Timed out or woken,
    // the re-check runs either way.
    let (verdict, parks) = event.sleep_until(|| match poll(Ordering::SeqCst, true) {
        Some(verdict) => ControlFlow::Break(verdict),
        None => ControlFlow::Continue(left()),
    });
    done(polls + parks, parks, verdict)
}

/// Wakes every waiter asleep on a data object of `table` **without any
/// state change** — a spurious-wakeup storm. A correct `Park` wait absorbs
/// it by re-checking its condition; the `fault-inject` runtimes call it
/// when a [`rio_stf::FaultHook`] requests a storm, and tests may hammer it
/// directly.
pub fn spurious_wake_all(table: &[SharedDataState]) {
    for s in table {
        s.event.notify_all();
    }
}

/// Declares (without executing) a read encountered in the flow
/// (Algorithm 2, `declare_read`). One private write.
#[inline]
pub fn declare_read(local: &mut LocalDataState) {
    local.nb_reads_since_write += 1;
}

/// Declares (without executing) a write encountered in the flow
/// (Algorithm 2, `declare_write`). Two private writes.
#[inline]
pub fn declare_write(local: &mut LocalDataState, task: TaskId) {
    local.nb_reads_since_write = 0;
    local.last_registered_write = task;
}

/// Net private-state effect, on **one** data object, of a batch of
/// consecutive `declare_read`/`declare_write` calls.
///
/// Declares compose per data object: a run of declares collapses to
/// "the last write in the batch (if any), plus the number of reads after
/// it". Folding every declare of a batch into a delta and then applying
/// it with [`apply_sync`] leaves the [`LocalDataState`] bit-for-bit
/// identical to issuing the declares one by one.
///
/// Nothing in the runtime folds declares any more: compiled programs,
/// which used to replay foreign tasks as such deltas, hold their own
/// tasks only ([`crate::compile`]). The type stays because the
/// repository's benchmark measures [`apply_sync`] as a floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncDelta {
    /// Reads declared after the batch's last write (or since the batch
    /// started, when the batch contains no write).
    pub reads_delta: u64,
    /// Id of the last write in the batch; [`TaskId::NONE`] when the batch
    /// contains no write.
    pub new_last_write: TaskId,
}

impl SyncDelta {
    /// The delta of an empty batch: applying it changes nothing.
    pub const EMPTY: SyncDelta = SyncDelta {
        reads_delta: 0,
        new_last_write: TaskId::NONE,
    };

    /// Folds one declared read into the delta.
    #[inline]
    pub fn fold_read(&mut self) {
        self.reads_delta += 1;
    }

    /// Folds one declared write into the delta.
    #[inline]
    pub fn fold_write(&mut self, task: TaskId) {
        self.reads_delta = 0;
        self.new_last_write = task;
    }
}

/// Applies the net effect of a coalesced declare batch to one private
/// state — the batch entry point matching [`declare_read`]/
/// [`declare_write`]. Equivalent to replaying the batch's declares in
/// order: a write in the batch supersedes everything before it, so only
/// the last write id and the reads after it survive.
#[inline]
pub fn apply_sync(local: &mut LocalDataState, delta: SyncDelta) {
    if delta.new_last_write != TaskId::NONE {
        local.last_registered_write = delta.new_last_write;
        local.nb_reads_since_write = delta.reads_delta;
    } else {
        local.nb_reads_since_write += delta.reads_delta;
    }
}

/// Declares every access of one non-local task in a single call
/// (Algorithm 2's per-access declares, batched over the access list).
/// Semantically identical to the per-access loop a worker unrolling the
/// flow runs; exists so callers holding an access slice don't repeat it.
#[inline]
pub fn declare_batch(locals: &mut [LocalDataState], task: TaskId, accesses: &[rio_stf::Access]) {
    for a in accesses {
        let l = &mut locals[a.data.index()];
        if a.mode.writes() {
            declare_write(l, task);
        } else {
            declare_read(l);
        }
    }
}

/// Blocks until the epoch word's write half equals the precomputed
/// `expected` word ([`expected_read_word`]) — the `get_read` guard with
/// the expected-word computation hoisted out (the compiled path computes
/// it once, at compile time).
#[inline]
pub fn get_read_word_cx(shared: &SharedDataState, expected: u64, cx: &WaitCx<'_>) -> WaitResult {
    shared.wait_until_cx(cx, expected, READ_EPOCH_MASK)
}

/// Blocks until the whole epoch word equals the precomputed `expected`
/// word ([`expected_write_word`]) — the `get_write` guard with the
/// expected-word computation hoisted out.
#[inline]
pub fn get_write_word_cx(shared: &SharedDataState, expected: u64, cx: &WaitCx<'_>) -> WaitResult {
    shared.wait_until_cx(cx, expected, WRITE_EPOCH_MASK)
}

/// Publishes a performed read (Algorithm 2, `terminate_read`) and updates
/// the executing worker's private view. One `fetch_add(1)` on the epoch
/// word: the low (reader-count) half increments; validation caps per-epoch
/// reads at `u32::MAX`, so the add can never carry into the write id.
///
/// Returns `true` when a Park-mode wake was *elided* (no waiter was
/// advertised, so no syscall ran) — the always-on counters' signal.
/// Non-Park strategies never wake, hence never elide: always `false`.
#[inline]
pub fn terminate_read(
    shared: &SharedDataState,
    local: &mut LocalDataState,
    strategy: WaitStrategy,
) -> bool {
    let elided = publish_read(shared, strategy);
    declare_read(local);
    elided
}

/// The shared half of [`terminate_read`] alone: publish the performed
/// read without touching any private view. What a compiled program's
/// terminate is (it keeps no private view), for every task — owned,
/// claimed or stolen. Wake-elision behaviour is identical to
/// [`terminate_read`]'s: the strategy is the data object's (shared by
/// every worker of the run), not the caller's.
#[inline]
pub fn publish_read(shared: &SharedDataState, strategy: WaitStrategy) -> bool {
    if strategy == WaitStrategy::Park {
        shared.word.fetch_add(1, Ordering::SeqCst);
        !shared.event.notify_if_waiters()
    } else {
        shared.word.fetch_add(1, Ordering::Release);
        false
    }
}

/// Publishes a performed write (Algorithm 2, `terminate_write`) and updates
/// the executing worker's private view. One store of the new epoch word
/// `pack(task, 0)` — the reader-count reset and the write-id publication
/// are indivisible by construction.
///
/// Returns `true` when a Park-mode wake was elided (see
/// [`terminate_read`]); always `false` for non-Park strategies.
#[inline]
pub fn terminate_write(
    shared: &SharedDataState,
    local: &mut LocalDataState,
    task: TaskId,
    strategy: WaitStrategy,
) -> bool {
    let elided = publish_write(shared, task, strategy);
    declare_write(local, task);
    elided
}

/// The shared half of [`terminate_write`] alone: publish the performed
/// write without touching any private view (see [`publish_read`] for who
/// needs the split).
#[inline]
pub fn publish_write(shared: &SharedDataState, task: TaskId, strategy: WaitStrategy) -> bool {
    let word = pack_epoch(task, 0);
    if strategy == WaitStrategy::Park {
        shared.word.store(word, Ordering::SeqCst);
        !shared.event.notify_if_waiters()
    } else {
        shared.word.store(word, Ordering::Release);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const S: WaitStrategy = WaitStrategy::Spin;

    fn ok() -> AbortFlag {
        AbortFlag::new()
    }

    /// The `get_*` of a worker that unrolls the flow: the guard on the
    /// word its private view packs to, under a bare context.
    fn get_read(s: &SharedDataState, l: &LocalDataState, strategy: WaitStrategy) -> WaitResult {
        get_read_word_cx(s, expected_read_word(l), &WaitCx::new(strategy, &ok()))
    }

    fn get_write(s: &SharedDataState, l: &LocalDataState, strategy: WaitStrategy) -> WaitResult {
        get_write_word_cx(s, expected_write_word(l), &WaitCx::new(strategy, &ok()))
    }

    #[test]
    fn pack_unpack_round_trips() {
        for (write, reads) in [
            (TaskId::NONE, 0),
            (TaskId(1), 0),
            (TaskId(1), 1),
            (TaskId(u32::MAX as u64), u32::MAX as u64),
            (TaskId(12345), 678),
        ] {
            let word = pack_epoch(write, reads);
            assert_eq!(unpack_epoch(word), (reads, write), "({write:?}, {reads})");
        }
        // The initial state is word zero.
        assert_eq!(pack_epoch(TaskId::NONE, 0), 0);
    }

    #[test]
    fn expected_words_match_the_guards() {
        let local = LocalDataState {
            nb_reads_since_write: 3,
            last_registered_write: TaskId(9),
        };
        assert_eq!(
            expected_write_word(&local),
            pack_epoch(TaskId(9), 3),
            "a write compares the whole word"
        );
        assert_eq!(
            expected_read_word(&local) & READ_EPOCH_MASK,
            pack_epoch(TaskId(9), 7) & READ_EPOCH_MASK,
            "a read ignores the reader count"
        );
    }

    #[test]
    fn initial_states_agree() {
        let shared = SharedDataState::default();
        let local = LocalDataState::default();
        assert_eq!(shared.snapshot(), (0, TaskId::NONE));
        assert_eq!(local.last_registered_write, TaskId::NONE);
        // A read of never-written data is immediately ready.
        assert_eq!(get_read(&shared, &local, S), WaitResult::READY);
        // So is a write.
        assert_eq!(get_write(&shared, &local, S), WaitResult::READY);
    }

    #[test]
    fn declare_read_counts_and_write_resets() {
        let mut local = LocalDataState::default();
        declare_read(&mut local);
        declare_read(&mut local);
        assert_eq!(local.nb_reads_since_write, 2);
        declare_write(&mut local, TaskId(7));
        assert_eq!(local.nb_reads_since_write, 0);
        assert_eq!(local.last_registered_write, TaskId(7));
    }

    #[test]
    fn sync_delta_fold_matches_per_access_declares() {
        // Deterministic pseudo-random batches: folding into a SyncDelta
        // then applying must leave the private state bit-identical to
        // replaying the declares one by one.
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..200 {
            let start = LocalDataState {
                nb_reads_since_write: next() % 5,
                last_registered_write: TaskId(next() % 4),
            };
            let mut replayed = start;
            let mut delta = SyncDelta::EMPTY;
            for step in 0..(next() % 12) {
                let task = TaskId(100 + step);
                if next() % 3 == 0 {
                    declare_write(&mut replayed, task);
                    delta.fold_write(task);
                } else {
                    declare_read(&mut replayed);
                    delta.fold_read();
                }
            }
            let mut batched = start;
            apply_sync(&mut batched, delta);
            assert_eq!(batched, replayed);
        }
    }

    #[test]
    fn declare_batch_matches_per_access_declares() {
        use rio_stf::{Access, DataId};
        let accesses = [
            Access::read(DataId(0)),
            Access::write(DataId(1)),
            Access::read_write(DataId(2)),
        ];
        let mut batched = vec![LocalDataState::default(); 3];
        declare_batch(&mut batched, TaskId(5), &accesses);
        let mut replayed = vec![LocalDataState::default(); 3];
        for a in &accesses {
            let l = &mut replayed[a.data.index()];
            if a.mode.writes() {
                declare_write(l, TaskId(5));
            } else {
                declare_read(l);
            }
        }
        assert_eq!(batched, replayed);
        assert_eq!(batched[0].nb_reads_since_write, 1);
        assert_eq!(batched[1].last_registered_write, TaskId(5));
        assert_eq!(batched[2].last_registered_write, TaskId(5));
    }

    #[test]
    fn terminate_updates_both_shared_and_local() {
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();

        terminate_write(&shared, &mut local, TaskId(1), S);
        assert_eq!(shared.snapshot(), (0, TaskId(1)));
        assert_eq!(local.last_registered_write, TaskId(1));

        terminate_read(&shared, &mut local, S);
        assert_eq!(shared.snapshot(), (1, TaskId(1)));
        assert_eq!(local.nb_reads_since_write, 1);
    }

    #[test]
    fn snapshot_is_one_coherent_word() {
        // A snapshot decodes one load: after terminate_write(T2) the pair
        // is exactly (0, T2) — it can never pair T2 with the old epoch's
        // read count, because both live in the same word.
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();
        terminate_read(&shared, &mut local, S);
        terminate_read(&shared, &mut local, S);
        terminate_write(&shared, &mut local, TaskId(2), S);
        assert_eq!(shared.snapshot(), (0, TaskId(2)));
        assert_eq!(shared.epoch_word(), pack_epoch(TaskId(2), 0));
        let dbg = format!("{shared:?}");
        assert!(dbg.contains("epoch_word"), "{dbg}");
    }

    #[test]
    fn single_worker_wrw_sequence_never_waits() {
        // One worker owning every task never waits: its private view always
        // matches the shared state it itself produced.
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();

        assert_eq!(get_write(&shared, &local, S), WaitResult::READY);
        terminate_write(&shared, &mut local, TaskId(1), S);

        assert_eq!(get_read(&shared, &local, S), WaitResult::READY);
        terminate_read(&shared, &mut local, S);

        assert_eq!(get_write(&shared, &local, S), WaitResult::READY);
        terminate_write(&shared, &mut local, TaskId(3), S);

        assert_eq!(shared.snapshot(), (0, TaskId(3)));
    }

    #[test]
    fn read_waits_for_the_registered_write() {
        // Worker B registered A's write T1, then owns a read T2.
        let shared = Arc::new(SharedDataState::default());

        let mut local_b = LocalDataState::default();
        declare_write(&mut local_b, TaskId(1)); // B registers A's write

        let s = Arc::clone(&shared);
        let a = std::thread::spawn(move || {
            let mut local_a = LocalDataState::default();
            // A owns T1: ready immediately (no prior accesses).
            assert_eq!(get_write(&s, &local_a, S), WaitResult::READY);
            std::thread::sleep(std::time::Duration::from_millis(10));
            terminate_write(&s, &mut local_a, TaskId(1), S);
        });

        // B's get_read must block until A terminates.
        get_read(&shared, &local_b, S);
        assert_eq!(shared.snapshot().1, TaskId(1));
        a.join().unwrap();
    }

    #[test]
    fn write_waits_for_all_registered_reads() {
        // Flow: T1 = A reads, T2 = B reads, T3 = C writes.
        // C registered both reads; its get_write must see both terminate.
        let shared = Arc::new(SharedDataState::default());

        let mut local_c = LocalDataState::default();
        declare_read(&mut local_c);
        declare_read(&mut local_c);

        let mut readers = Vec::new();
        for _ in 0..2 {
            let s = Arc::clone(&shared);
            readers.push(std::thread::spawn(move || {
                let mut local = LocalDataState::default();
                assert_eq!(get_read(&s, &local, S), WaitResult::READY);
                std::thread::sleep(std::time::Duration::from_millis(5));
                terminate_read(&s, &mut local, S);
            }));
        }

        get_write(&shared, &local_c, S);
        assert_eq!(shared.snapshot().0, 2, "both reads were performed");
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn park_strategy_blocks_and_wakes() {
        let shared = Arc::new(SharedDataState::default());
        let mut local_b = LocalDataState::default();
        declare_write(&mut local_b, TaskId(1));

        let s = Arc::clone(&shared);
        let waiter = std::thread::spawn(move || {
            get_read(&s, &local_b, WaitStrategy::Park);
            s.snapshot().1
        });

        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut local_a = LocalDataState::default();
        terminate_write(&shared, &mut local_a, TaskId(1), WaitStrategy::Park);
        assert_eq!(waiter.join().unwrap(), TaskId(1));
    }

    #[test]
    fn waiters_counter_returns_to_zero() {
        let shared = Arc::new(SharedDataState::default());
        let mut local_b = LocalDataState::default();
        declare_write(&mut local_b, TaskId(1));

        let s = Arc::clone(&shared);
        let waiter = std::thread::spawn(move || {
            get_read(&s, &local_b, WaitStrategy::Park);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut local_a = LocalDataState::default();
        terminate_write(&shared, &mut local_a, TaskId(1), WaitStrategy::Park);
        waiter.join().unwrap();
        assert_eq!(shared.event.waiters(), 0, "every wait exit deregisters");
    }

    #[test]
    fn elided_wake_never_loses_a_parked_waiter() {
        // Stress the elision race: a waiter parks on an object while the
        // terminator publishes. Whatever the interleaving — terminator
        // sees no waiter (the waiter must then see the new word and not
        // park) or sees one (and unparks it) — the wait must complete.
        for round in 0..200 {
            let shared = Arc::new(SharedDataState::default());
            let mut local_b = LocalDataState::default();
            declare_write(&mut local_b, TaskId(1));
            let s = Arc::clone(&shared);
            let waiter = std::thread::spawn(move || {
                // Tiny spin budget maximizes the chance of actually parking.
                let flag = AbortFlag::new();
                let cx = WaitCx {
                    spin_limit: 0,
                    ..WaitCx::new(WaitStrategy::Park, &flag)
                };
                get_write_word_cx(&s, expected_write_word(&local_b), &cx).verdict
            });
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            let mut local_a = LocalDataState::default();
            terminate_write(&shared, &mut local_a, TaskId(1), WaitStrategy::Park);
            assert_eq!(waiter.join().unwrap(), WaitVerdict::Ready, "round {round}");
        }
    }

    #[test]
    fn wait_outcome_counts_parks_only_under_park() {
        // Fast path: no polls, no parks.
        let shared = SharedDataState::default();
        let local = LocalDataState::default();
        let out = get_read(&shared, &local, S).outcome;
        assert_eq!(out, WaitOutcome::default());
        assert!(!out.waited());

        // A parked waiter records at least one park/wake transition, and
        // every park is also a poll.
        let shared = Arc::new(SharedDataState::default());
        let mut local_b = LocalDataState::default();
        declare_write(&mut local_b, TaskId(1));
        let s = Arc::clone(&shared);
        let waiter = std::thread::spawn(move || get_read(&s, &local_b, WaitStrategy::Park).outcome);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut local_a = LocalDataState::default();
        terminate_write(&shared, &mut local_a, TaskId(1), WaitStrategy::Park);
        let out = waiter.join().unwrap();
        assert!(out.waited());
        assert!(out.parks >= 1, "Park waiter must have parked");
        assert!(out.polls >= out.parks);

        // Spinning never parks.
        let shared = Arc::new(SharedDataState::default());
        let mut local_b = LocalDataState::default();
        declare_write(&mut local_b, TaskId(1));
        let s = Arc::clone(&shared);
        let waiter = std::thread::spawn(move || get_write(&s, &local_b, S).outcome);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut local_a = LocalDataState::default();
        terminate_write(&shared, &mut local_a, TaskId(1), S);
        let out = waiter.join().unwrap();
        assert!(out.waited());
        assert_eq!(out.parks, 0, "spinning never parks");
    }

    #[test]
    fn spin_strategy_also_completes() {
        let shared = Arc::new(SharedDataState::default());
        let mut local_b = LocalDataState::default();
        declare_write(&mut local_b, TaskId(1));

        let s = Arc::clone(&shared);
        let waiter = std::thread::spawn(move || {
            get_read(&s, &local_b, WaitStrategy::Spin);
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut local_a = LocalDataState::default();
        terminate_write(&shared, &mut local_a, TaskId(1), WaitStrategy::Spin);
        waiter.join().unwrap();
    }

    #[test]
    fn reader_count_epoch_cannot_be_confused() {
        // Epoch 1: two reads performed. A write resets. Epoch 2: two more
        // reads. A writer expecting (write=T4, reads=2) must not be fooled
        // by the epoch-1 count.
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();

        // Epoch 1 (performed by this same worker for simplicity).
        terminate_read(&shared, &mut local, S);
        terminate_read(&shared, &mut local, S);
        terminate_write(&shared, &mut local, TaskId(4), S);
        assert_eq!(shared.snapshot(), (0, TaskId(4)));

        // Epoch 2.
        terminate_read(&shared, &mut local, S);
        terminate_read(&shared, &mut local, S);
        assert_eq!(get_write(&shared, &local, S), WaitResult::READY);
        assert_eq!(shared.snapshot(), (2, TaskId(4)));
    }

    #[test]
    fn shared_state_is_cache_line_padded() {
        assert_eq!(std::mem::align_of::<SharedDataState>(), 128);
        assert_eq!(std::mem::size_of::<SharedDataState>(), 128, "one line");
    }

    #[test]
    fn abort_records_the_first_cause_only() {
        let flag = AbortFlag::new();
        let table = SharedDataState::new_table(2);
        assert!(!flag.armed());
        let won = flag.abort(
            AbortCause::Panic {
                task: TaskId(3),
                worker: WorkerId(1),
                payload: Box::new("first"),
            },
            || spurious_wake_all(&table),
        );
        assert!(won);
        assert!(flag.armed());
        let lost = flag.abort(
            AbortCause::Panic {
                task: TaskId(9),
                worker: WorkerId(0),
                payload: Box::new("second"),
            },
            || spurious_wake_all(&table),
        );
        assert!(!lost, "first failure wins");
        match flag.take_cause() {
            Some(AbortCause::Panic { task, worker, .. }) => {
                assert_eq!(task, TaskId(3));
                assert_eq!(worker, WorkerId(1));
            }
            other => panic!("unexpected cause: {other:?}"),
        }
        assert!(flag.take_cause().is_none(), "cause is taken once");
    }

    #[test]
    fn aborting_unblocks_a_parked_waiter_with_aborted_verdict() {
        let shared = Arc::new(SharedDataState::default());
        let flag = Arc::new(AbortFlag::new());
        let mut local = LocalDataState::default();
        declare_write(&mut local, TaskId(1)); // never performed

        let (s, f) = (Arc::clone(&shared), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || {
            let cx = WaitCx::new(WaitStrategy::Park, &f);
            get_read_word_cx(&s, expected_read_word(&local), &cx).verdict
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        flag.arm_and_wake(std::slice::from_ref(&shared));
        assert_eq!(waiter.join().unwrap(), WaitVerdict::Aborted);
    }

    #[test]
    fn deadline_expires_into_deadline_exceeded_for_every_strategy() {
        for strategy in [WaitStrategy::Spin, WaitStrategy::Park] {
            let shared = SharedDataState::default();
            let flag = AbortFlag::new();
            let mut local = LocalDataState::default();
            declare_write(&mut local, TaskId(1)); // never performed
            let cx = WaitCx {
                spin_limit: 4,
                deadline: Some(Duration::from_millis(10)),
                ..WaitCx::new(strategy, &flag)
            };
            let r = get_write_word_cx(&shared, expected_write_word(&local), &cx);
            assert_eq!(
                r.verdict,
                WaitVerdict::DeadlineExceeded,
                "strategy {strategy}"
            );
            assert!(r.outcome.waited());
            // The deadline ran on the stamp the failed probe took.
            assert!(r.blocked_at.unwrap().elapsed() >= Duration::from_millis(10));
        }
    }

    /// A `Park` wait for T1 under `spin_limit`, published once the waiter
    /// is blocked — and, with `asleep`, registered to sleep. Returns the
    /// wait's outcome and whether the publication's wake was elided.
    fn blocked_wait(spin_limit: u32, asleep: bool) -> (WaitOutcome, bool) {
        use crate::status::{StatusTable, WaitWatch};
        let (shared, flag, status) = (SharedDataState::default(), ok(), StatusTable::new(1));
        let cx = WaitCx {
            spin_limit,
            watch: Some(WaitWatch {
                status: &status,
                worker: WorkerId(0),
                data: DataId(0),
            }),
            ..WaitCx::new(WaitStrategy::Park, &flag)
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| get_read_word_cx(&shared, pack_epoch(TaskId(1), 0), &cx));
            while status.snapshot()[0].waiting_on.is_none()
                || (asleep && shared.event.waiters() == 0)
            {
                std::thread::yield_now();
            }
            if asleep {
                // Registered is not yet asleep: give the syscall time.
                std::thread::sleep(Duration::from_millis(1));
            }
            let elided = publish_write(&shared, TaskId(1), WaitStrategy::Park);
            let r = waiter.join().unwrap();
            assert_eq!(r.verdict, WaitVerdict::Ready);
            (r.outcome, elided)
        })
    }

    #[test]
    fn a_publication_within_the_spin_budget_costs_no_park() {
        // The budget outlasts any scheduling delay of this test, so the
        // waiter must pick the publication up spinning.
        let (outcome, elided) = blocked_wait(u32::MAX, false);
        assert!(outcome.polls > 0 && outcome.parks == 0, "{outcome:?}");
        assert!(elided, "nobody sleeps, nobody is woken");
    }

    #[test]
    fn a_zero_spin_budget_sleeps_at_once() {
        // A registered waiter may still catch the publication on its last
        // re-check, so sleeping is observed over a few tries; that no poll
        // is ever a spin holds on every one of them.
        let slept = (0..20).any(|_| {
            let (outcome, _) = blocked_wait(0, true);
            assert_eq!(outcome.polls, outcome.parks, "every poll was a sleep");
            outcome.parks >= 1
        });
        assert!(slept, "no spin phase to resolve in");
    }

    #[test]
    fn the_spin_phase_honours_a_short_deadline() {
        // The steal layer's slices: a deadline far shorter than the spin
        // budget must end the wait on time, for every strategy — and so
        // must one the budget ends before (an oversubscribed run's), with
        // no sleep: a rest shorter than a park is yielded. Timing on a
        // shared host is noisy, so the fastest of a few tries counts.
        let slice = Duration::from_micros(20);
        let (shared, flag) = (SharedDataState::default(), ok());
        for (strategy, spin_limit) in [
            (WaitStrategy::Spin, 4096),
            (WaitStrategy::Park, 4096),
            (WaitStrategy::Park, u32::MAX),
            (WaitStrategy::Park, 0),
        ] {
            let cx = WaitCx {
                spin_limit,
                deadline: Some(slice),
                ..WaitCx::new(strategy, &flag)
            };
            let try_once = |_| {
                let r = get_read_word_cx(&shared, pack_epoch(TaskId(1), 0), &cx);
                assert_eq!(r.verdict, WaitVerdict::DeadlineExceeded);
                assert_eq!(r.outcome.parks, 0, "{strategy}/{spin_limit} slept");
                r.blocked_at.expect("a deadline stamps").elapsed()
            };
            let took = (0..50).map(try_once).min().expect("fifty tries");
            assert!(
                slice <= took && took <= 2 * slice,
                "{strategy}/{spin_limit}: {took:?}"
            );
        }
    }

    #[test]
    fn arm_and_wake_reaches_every_waiter_of_its_table_and_no_other() {
        // Two runs in one process: aborting one wakes its sleepers — on
        // whichever object they sleep — and leaves the other's asleep.
        let (ours, theirs) = (SharedDataState::new_table(3), SharedDataState::new_table(1));
        let (our_flag, their_flag) = (ok(), ok());
        let wait_on = |s, flag| {
            let cx = WaitCx {
                spin_limit: 0,
                ..WaitCx::new(WaitStrategy::Park, flag)
            };
            get_read_word_cx(s, pack_epoch(TaskId(1), 0), &cx)
        };
        std::thread::scope(|s| {
            let aborted: Vec<_> = ours
                .iter()
                .map(|o| s.spawn(|| wait_on(o, &our_flag)))
                .collect();
            let bystander = s.spawn(|| wait_on(&theirs[0], &their_flag));
            let asleep = |t: &[SharedDataState]| t.iter().all(|o| o.event.waiters() == 1);
            while !(asleep(&ours) && asleep(&theirs)) {
                std::thread::yield_now();
            }
            our_flag.arm_and_wake(&ours);
            for w in aborted {
                assert_eq!(w.join().unwrap().verdict, WaitVerdict::Aborted);
            }
            assert!(!bystander.is_finished());
            publish_write(&theirs[0], TaskId(1), WaitStrategy::Park);
            let r = bystander.join().unwrap();
            assert_eq!(r.verdict, WaitVerdict::Ready);
            assert!(r.outcome.parks <= 1, "slept through the other run's abort");
        });
    }

    #[test]
    fn a_ready_get_reads_no_clock_and_marks_no_slot() {
        use crate::status::{StatusTable, WaitWatch};
        let shared = SharedDataState::default();
        let flag = AbortFlag::new();
        let status = StatusTable::new(1);
        let mut local = LocalDataState::default();
        let watch = WaitWatch {
            status: &status,
            worker: WorkerId(0),
            data: DataId(7),
        };
        let cx = WaitCx {
            timed: true,
            watch: Some(watch),
            ..WaitCx::new(WaitStrategy::Park, &flag)
        };
        // Guard open: the probe is the whole get.
        assert_eq!(
            get_write_word_cx(&shared, expected_write_word(&local), &cx),
            WaitResult::READY
        );
        assert_eq!(
            get_read_word_cx(&shared, expected_read_word(&local), &cx),
            WaitResult::READY
        );
        assert_eq!(status.snapshot()[0].waiting_on, None);
        // Guard closed: the wait is stamped, and the slot names the datum
        // for exactly as long as it blocks — the waiter cannot return
        // before the publication below, which waits for the mark.
        declare_write(&mut local, TaskId(1));
        std::thread::scope(|s| {
            let blocked = s.spawn(|| get_write_word_cx(&shared, expected_write_word(&local), &cx));
            let patience = Instant::now();
            while status.snapshot()[0].waiting_on != Some(DataId(7)) {
                assert!(patience.elapsed() < Duration::from_secs(30), "never marked");
                std::thread::yield_now();
            }
            publish_write(&shared, TaskId(1), WaitStrategy::Park);
            let r = blocked.join().unwrap();
            assert_eq!(r.verdict, WaitVerdict::Ready);
            assert!(r
                .blocked_at
                .is_some_and(|t0| t0 >= patience - Duration::from_secs(1)));
        });
        assert_eq!(status.snapshot()[0].waiting_on, None, "cleared on return");
    }

    #[test]
    fn a_read_guard_ignores_the_read_half_of_the_private_view() {
        // T1 wrote, two reads registered since: a read may be handed the
        // whole packed view and still compares the write half only.
        let shared = SharedDataState::default();
        publish_write(&shared, TaskId(1), WaitStrategy::Spin);
        let view = pack_epoch(TaskId(1), 2);
        assert!(shared.satisfied(view, READ_EPOCH_MASK));
        assert!(!shared.satisfied(view, WRITE_EPOCH_MASK));
        publish_read(&shared, WaitStrategy::Spin);
        publish_read(&shared, WaitStrategy::Spin);
        assert!(shared.satisfied(view, READ_EPOCH_MASK));
        assert!(shared.satisfied(view, WRITE_EPOCH_MASK));
    }

    #[test]
    fn spurious_wake_storm_does_not_fool_a_parked_waiter() {
        let shared = Arc::new(SharedDataState::default());
        let flag = Arc::new(AbortFlag::new());
        let mut local = LocalDataState::default();
        declare_write(&mut local, TaskId(1));

        let (s, f) = (Arc::clone(&shared), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || {
            let cx = WaitCx::new(WaitStrategy::Park, &f);
            get_read_word_cx(&s, expected_read_word(&local), &cx)
        });
        // Hammer the waiter with wake-ups that change nothing.
        for _ in 0..100 {
            spurious_wake_all(std::slice::from_ref(&*shared));
            std::thread::yield_now();
        }
        // Only the real publication may complete the wait.
        let mut local_a = LocalDataState::default();
        terminate_write(&shared, &mut local_a, TaskId(1), WaitStrategy::Park);
        let r = waiter.join().unwrap();
        assert_eq!(r.verdict, WaitVerdict::Ready);
        assert_eq!(shared.snapshot().1, TaskId(1));
    }

    #[test]
    fn poison_bitmap_sets_and_queries_bits() {
        let rec = RecoveryCtx::new(crate::config::RecoveryPolicy::default(), 130);
        assert!(!rec.is_poisoned(DataId(0)));
        assert!(rec.poison(DataId(0)), "first set is new");
        assert!(!rec.poison(DataId(0)), "second set is idempotent");
        assert!(rec.is_poisoned(DataId(0)));
        // Bits across word boundaries are independent.
        assert!(rec.poison(DataId(63)));
        assert!(rec.poison(DataId(64)));
        assert!(rec.poison(DataId(129)));
        assert!(!rec.is_poisoned(DataId(1)));
        assert!(rec.is_poisoned(DataId(129)));
    }

    #[test]
    fn poison_bitmap_concurrent_setters_lose_no_bits() {
        // 8 threads each poison a disjoint slice of one shared bitmap;
        // every bit must survive (fetch_or is atomic). This is the unit
        // the nightly TSan job hammers.
        let rec = Arc::new(RecoveryCtx::new(
            crate::config::RecoveryPolicy::default(),
            512,
        ));
        let threads: Vec<_> = (0u32..8)
            .map(|k| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0u32..64 {
                        assert!(rec.poison(DataId(k * 64 + i)));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        rec.record_skipped(TaskId(1)); // make the report non-empty
        let report = rec.take_report(None).expect("non-empty");
        assert_eq!(report.poisoned.len(), 512, "no bit lost");
        assert!(report.is_poisoned(DataId(511)));
    }

    #[test]
    fn poison_bit_is_visible_after_the_epoch_guard_passes() {
        // The skip-but-sync visibility contract: producer poisons, then
        // terminates; a consumer whose get_read observed the terminate
        // must observe the poison bit.
        for _ in 0..200 {
            let shared = Arc::new(SharedDataState::default());
            let rec = Arc::new(RecoveryCtx::new(
                crate::config::RecoveryPolicy::default(),
                1,
            ));
            let mut local_b = LocalDataState::default();
            declare_write(&mut local_b, TaskId(1));

            let (s, r) = (Arc::clone(&shared), Arc::clone(&rec));
            let consumer = std::thread::spawn(move || {
                get_read(&s, &local_b, WaitStrategy::Spin);
                r.is_poisoned(DataId(0))
            });
            let mut local_a = LocalDataState::default();
            rec.poison(DataId(0));
            terminate_write(&shared, &mut local_a, TaskId(1), WaitStrategy::Spin);
            assert!(
                consumer.join().unwrap(),
                "guard passed but poison not visible"
            );
        }
    }

    #[test]
    fn recovery_ctx_report_is_sorted_and_timed() {
        let rec = RecoveryCtx::new(crate::config::RecoveryPolicy::default(), 8);
        rec.record_failed(rio_stf::FailedTask {
            task: TaskId(7),
            worker: WorkerId(1),
            retries: 2,
            detail: rio_stf::FailureDetail::TaskFailed {
                payload: Box::new("x"),
            },
        });
        rec.record_failed(rio_stf::FailedTask {
            task: TaskId(3),
            worker: WorkerId(0),
            retries: 0,
            detail: rio_stf::FailureDetail::TaskFailed {
                payload: Box::new("y"),
            },
        });
        rec.record_skipped(TaskId(9));
        rec.record_skipped(TaskId(8));
        rec.poison(DataId(5));
        rec.poison(DataId(2));
        rec.add_retry_ns(1_000);
        rec.add_retry_ns(500);
        let report = rec.take_report(None).expect("non-empty");
        assert_eq!(report.failed[0].task, TaskId(3));
        assert_eq!(report.failed[1].task, TaskId(7));
        assert_eq!(report.skipped, vec![TaskId(8), TaskId(9)]);
        assert_eq!(report.poisoned, vec![DataId(2), DataId(5)]);
        assert_eq!(report.retry_time, Duration::from_nanos(1_500));

        let clean = RecoveryCtx::new(crate::config::RecoveryPolicy::default(), 8);
        assert!(
            clean.take_report(None).is_none(),
            "clean run yields no report"
        );
    }

    #[test]
    fn ready_wins_over_a_simultaneous_abort() {
        // If the condition is already true, the verdict is Ready even with
        // the flag armed: the access is safe, aborting is merely advisory.
        let shared = SharedDataState::default();
        let flag = AbortFlag::new();
        flag.arm();
        let local = LocalDataState::default();
        let cx = WaitCx::new(S, &flag);
        assert_eq!(
            get_read_word_cx(&shared, expected_read_word(&local), &cx).verdict,
            WaitVerdict::Ready
        );
    }
}
