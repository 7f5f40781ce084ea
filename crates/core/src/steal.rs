//! Bounded work stealing over the static mapping: online rebalance
//! without leaving the decentralized protocol.
//!
//! The static total mapping is the whole point of the decentralized
//! protocol — but when it mispredicts load (round-robin on Cholesky is
//! *balanced* yet slow, purely from cross-worker chain waits), the only
//! remedy used to be an offline trace → diagnose → remap → recompile
//! round-trip (`rio_doctor::tune`). This module converts a blocked worker's
//! wait time into useful work on the *first* run: when a `get_*` blocks
//! on an epoch guard, the worker scans a bounded window of *ready*
//! foreign tasks — tasks whose expected epoch words are already satisfied
//! (one masked acquire-load each) — and claims one through a per-task
//! single-word CAS slot, executing it in place.
//!
//! ## Claim-then-skip-but-sync
//!
//! The protocol itself never moves: per-datum in-order execution is
//! enforced by the epoch words regardless of *who* runs a task's body.
//! What must not happen is the same body running twice, so every task
//! gains one claim slot ([`ClaimTable`]):
//!
//! * a **thief** only claims a task whose every expected epoch word is
//!   satisfied — and satisfaction is *monotonic* (the word next changes
//!   only when that task's own terminates run), so a claim taken after
//!   the readiness check stays valid;
//! * the **owner**, with stealing armed, CAS-claims each of its own tasks
//!   before executing it. Losing the race means a thief has the body:
//!   the owner treats the task exactly like any foreign task — no
//!   kernel, no terminates (skip-but-sync, the recovery layer's shape
//!   with the *thief* as the publisher). It keeps no private view, so it
//!   has nothing left to do;
//! * the thief publishes every `terminate_*` ([`crate::protocol`]'s
//!   publish-only halves), so downstream guards and §10 wake elision see
//!   the identical protocol history.
//!
//! The happens-before chain: the thief's claim CAS is `AcqRel` and the
//! owner's fast-path check an `Acquire` load, so an owner that observes
//! the claim also observes everything the claim implies; the kernel's
//! data writes travel on the terminates' existing `Release`/`SeqCst`
//! publication exactly as they do for an owner-executed task. See
//! DESIGN.md §14 for the full argument.
//!
//! Stealing is **opt-in** ([`crate::RioConfig::stealing`]) and off by
//! default. The claim slots are also how a [`crate::hybrid`] run decides
//! who executes a task its partial mapping left unmapped — a task with
//! no home worker, claimed under the owner's rule by whichever worker's
//! program reaches it first — so the two compose: an unmapped task a
//! thief finds ready is stolen like any other.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crate::compile::CompiledFlow;
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs of the bounded steal layer, installed with
/// [`crate::RioConfig::stealing`]. All bounds are per *blocked wait*: a
/// worker whose guard is satisfied immediately never pays anything
/// beyond the owner-side claim CAS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealPolicy {
    /// Scan budget per steal attempt: how many `Run` instructions across
    /// victims one scan examines before giving up. Default 128.
    pub window: usize,
    /// Successful steals per blocked wait before the worker falls back
    /// to its plain wait strategy. Default 16.
    pub max_steals: usize,
    /// How long a blocked worker waits, under the run's own wait strategy,
    /// before its first scan — short waits should resolve without paying
    /// for a scan. Also the re-arm interval between scans. Default 20µs.
    pub min_wait_before_steal: Duration,
    /// Preferred victim order for the scan, e.g. seeded
    /// from the doctor's cross-worker-edge data
    /// (`DoctorReport::steal_victims`). Workers not listed are appended
    /// in round-robin order; `None` (default) scans round-robin from the
    /// thief's successor.
    pub victims: Option<Arc<[u32]>>,
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy {
            window: 128,
            max_steals: 16,
            min_wait_before_steal: Duration::from_micros(20),
            victims: None,
        }
    }
}

impl StealPolicy {
    /// The default policy (builder entry point).
    pub fn new() -> StealPolicy {
        StealPolicy::default()
    }

    /// Sets the per-scan candidate budget (builder style).
    pub fn window(mut self, n: usize) -> StealPolicy {
        self.window = n;
        self
    }

    /// Sets the per-wait successful-steal budget (builder style).
    pub fn max_steals(mut self, n: usize) -> StealPolicy {
        self.max_steals = n;
        self
    }

    /// Sets the pre-scan wait slice (builder style).
    pub fn min_wait_before_steal(mut self, d: Duration) -> StealPolicy {
        self.min_wait_before_steal = d;
        self
    }

    /// Installs a preferred victim order (builder style), e.g. from
    /// `DoctorReport::steal_victims`.
    pub fn victim_order(mut self, order: impl Into<Arc<[u32]>>) -> StealPolicy {
        self.victims = Some(order.into());
        self
    }

    /// Panics on nonsensical policies (called by
    /// [`crate::RioConfig::validate`]).
    pub fn validate(&self) {
        assert!(self.window >= 1, "steal window must be at least 1");
        assert!(
            self.max_steals >= 1,
            "steal budget must be at least 1 (disable stealing by not \
             installing a policy)"
        );
    }
}

/// Claim slots per padded line: 16 × 8 bytes = one 128-byte group.
const CLAIMS_PER_LINE: usize = 16;

/// One cache line of claim slots, padded so claim groups never false-share
/// with neighbouring runtime state (they still share *within* a group —
/// each slot is CASed at most twice per run, so the line bounces are
/// bounded by construction, not by luck).
#[repr(align(128))]
#[derive(Debug, Default)]
struct ClaimLine {
    slots: [AtomicU64; CLAIMS_PER_LINE],
}

/// Per-task single-word claim slots, `FlatAccesses`-style: one flat
/// arena indexed by flow position. [`CompiledFlow::try_run`] allocates
/// one per run, and must: a flow may run from two threads at once, and
/// two runs in flight on one table would take each other's claims.
///
/// A slot packs `(run_epoch << 32) | (claimant_worker + 1)`. A slot is
/// *unclaimed for run `e`* when its stored epoch half differs from `e` —
/// so advancing the run epoch ([`ClaimTable::begin_run`]) invalidates
/// every stale claim without touching a single slot, which lets runs
/// that follow one another share a table. Epoch 0 is never issued, so
/// freshly zeroed memory reads as unclaimed for every run.
#[derive(Debug)]
pub struct ClaimTable {
    lines: Box<[ClaimLine]>,
    len: usize,
    /// Last issued run epoch; `begin_run` hands out `epoch + 1`.
    epoch: AtomicU32,
}

#[inline]
fn pack_claim(epoch: u32, worker: u32) -> u64 {
    (u64::from(epoch) << 32) | u64::from(worker + 1)
}

#[inline]
fn claimed_in(slot: u64, epoch: u32) -> bool {
    slot != 0 && (slot >> 32) as u32 == epoch
}

impl ClaimTable {
    /// A claim arena for `tasks` flow entries, all slots unclaimed.
    pub fn new(tasks: usize) -> ClaimTable {
        ClaimTable {
            lines: (0..tasks.div_ceil(CLAIMS_PER_LINE))
                .map(|_| ClaimLine::default())
                .collect(),
            len: tasks,
            epoch: AtomicU32::new(0),
        }
    }

    /// Starts a new run: returns its epoch, implicitly releasing every
    /// claim of earlier runs (their slots now carry a stale epoch half).
    /// Epochs are never 0; recycling a table for more than `u32::MAX`
    /// runs would alias old claims and is not supported.
    pub fn begin_run(&self) -> u32 {
        let e = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        assert!(e != 0, "claim-table run epoch overflow");
        e
    }

    #[inline]
    fn slot(&self, task: usize) -> &AtomicU64 {
        debug_assert!(task < self.len);
        &self.lines[task / CLAIMS_PER_LINE].slots[task % CLAIMS_PER_LINE]
    }

    /// Attempts to claim `task` for `worker` in run `epoch`. Returns
    /// `true` when this call took the claim; `false` when somebody else
    /// already holds it (one acquire-load fast path, then one CAS).
    ///
    /// The CAS publishes with `AcqRel`: a loser's subsequent
    /// acquire-load of the slot synchronizes with the winner's claim, so
    /// "observed claimed" happens-after the claim was taken.
    #[inline]
    pub fn try_claim(&self, task: usize, epoch: u32, worker: u32) -> bool {
        let s = self.slot(task);
        let cur = s.load(Ordering::Acquire);
        if claimed_in(cur, epoch) {
            return false;
        }
        s.compare_exchange(
            cur,
            pack_claim(epoch, worker),
            Ordering::AcqRel,
            Ordering::Acquire,
        )
        .is_ok()
    }

    /// Who holds `task`'s claim in run `epoch`, if anyone — the owner's
    /// (and the thief scan's) fast-path check: one acquire-load.
    #[inline]
    pub fn claimant(&self, task: usize, epoch: u32) -> Option<u32> {
        let cur = self.slot(task).load(Ordering::Acquire);
        claimed_in(cur, epoch).then(|| (cur as u32) - 1)
    }
}

/// One worker's published position, an index into its program: thieves
/// read it (`Relaxed` — staleness only shrinks the scan window, claims
/// carry the correctness) to know where a victim's unexecuted tail
/// starts. Padded: the owner stores on every own task.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct Cursor(pub AtomicUsize);

impl Cursor {
    /// One padded cursor per worker, all zero.
    pub fn new_table(workers: usize) -> Box<[Cursor]> {
        (0..workers).map(|_| Cursor::default()).collect()
    }
}

/// Consecutive scans that found nothing stealable before a blocked
/// worker gives up on stealing and falls back to its plain wait strategy
/// (under `Park`, this is the moment it actually parks).
pub(crate) const EMPTY_SCAN_LIMIT: usize = 8;

/// A run's claim slots as [`crate::graph::WorkerCtx`] holds them: there
/// iff some instruction of the flow is claim-marked.
#[derive(Clone, Copy)]
pub(crate) struct Claims<'a> {
    pub(crate) table: &'a ClaimTable,
    /// This run's epoch in `table`.
    pub(crate) epoch: u32,
}

/// What one worker's steal attempts need beyond the [`Claims`]. `Copy`:
/// plain references into per-run state owned by
/// [`CompiledFlow::try_run`].
#[derive(Clone, Copy)]
pub(crate) struct StealState<'a> {
    pub(crate) policy: &'a StealPolicy,
    /// Where a thief looks for ready foreign tasks: its victims'
    /// programs, from their published cursors on. Expected words are
    /// precompiled, and every guard is kept.
    pub(crate) flow: &'a CompiledFlow<'a>,
    /// Every worker's published program position.
    pub(crate) cursors: &'a [Cursor],
    /// The run's kernel, for a task a thief claimed: an indirect call per
    /// *stolen* body keeps the engine generic in the owned body alone.
    pub(crate) kernel: &'a (dyn Fn(rio_stf::WorkerId, &rio_stf::TaskDesc) + Sync),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_and_builders() {
        let p = StealPolicy::default();
        assert_eq!(p.window, 128);
        assert_eq!(p.max_steals, 16);
        assert_eq!(p.min_wait_before_steal, Duration::from_micros(20));
        assert!(p.victims.is_none());
        p.validate();
        let p = StealPolicy::new()
            .window(4)
            .max_steals(2)
            .min_wait_before_steal(Duration::ZERO)
            .victim_order(vec![3u32, 1]);
        assert_eq!(p.window, 4);
        assert_eq!(p.max_steals, 2);
        assert_eq!(p.min_wait_before_steal, Duration::ZERO);
        assert_eq!(p.victims.as_deref(), Some(&[3u32, 1][..]));
        p.validate();
    }

    #[test]
    #[should_panic(expected = "steal window")]
    fn zero_window_rejected() {
        StealPolicy::new().window(0).validate();
    }

    #[test]
    #[should_panic(expected = "steal budget")]
    fn zero_budget_rejected() {
        StealPolicy::new().max_steals(0).validate();
    }

    #[test]
    fn claim_lines_are_padded() {
        assert!(std::mem::align_of::<ClaimLine>() >= 128);
        assert_eq!(std::mem::size_of::<ClaimLine>(), 128);
        assert!(std::mem::align_of::<Cursor>() >= 128);
    }

    #[test]
    fn uncontended_claims_succeed_once() {
        let t = ClaimTable::new(40);
        let e = t.begin_run();
        assert_eq!(t.claimant(7, e), None);
        assert!(t.try_claim(7, e, 3));
        assert_eq!(t.claimant(7, e), Some(3));
        assert!(!t.try_claim(7, e, 5), "second claim must lose");
        assert_eq!(t.claimant(7, e), Some(3), "the loser does not overwrite");
        // Unrelated slots are untouched.
        assert_eq!(t.claimant(8, e), None);
    }

    #[test]
    fn epoch_advance_recycles_without_zeroing() {
        let t = ClaimTable::new(4);
        let e1 = t.begin_run();
        assert!(t.try_claim(0, e1, 1));
        let e2 = t.begin_run();
        assert_ne!(e1, e2);
        // The stale claim from run e1 reads as unclaimed in run e2…
        assert_eq!(t.claimant(0, e2), None);
        // …and can be re-claimed without any reset pass.
        assert!(t.try_claim(0, e2, 2));
        assert_eq!(t.claimant(0, e2), Some(2));
        // The old epoch still decodes (nobody consults it, but the
        // encoding is total).
        assert!(!claimed_in(t.slot(0).load(Ordering::Relaxed), e1));
    }

    #[test]
    fn claim_race_has_exactly_one_winner() {
        let t = std::sync::Arc::new(ClaimTable::new(1));
        let e = t.begin_run();
        let winners: u32 = std::thread::scope(|s| {
            (0..8u32)
                .map(|w| {
                    let t = std::sync::Arc::clone(&t);
                    s.spawn(move || u32::from(t.try_claim(0, e, w)))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum()
        });
        assert_eq!(winners, 1, "exactly one thief may take a claim");
        assert!(t.claimant(0, e).is_some());
    }

    #[test]
    fn epoch_zero_is_never_issued() {
        let t = ClaimTable::new(1);
        // Freshly zeroed slots are unclaimed for any issued epoch.
        let e = t.begin_run();
        assert!(e > 0);
        assert!(!claimed_in(0, e));
    }
}
