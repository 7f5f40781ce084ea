//! Claim slots: who runs a task that a partial mapping left unmapped.
//!
//! A [`crate::hybrid`] flow compiles each task with no home worker into
//! *every* worker's program, claim-marked (DESIGN.md §9.1). Whichever
//! worker's program reaches it first takes its slot of the run's
//! [`ClaimTable`] — one compare-and-swap, before any guard — and runs it;
//! every other worker loses the CAS and moves on. The protocol itself
//! never moves: per-datum in-order execution is enforced by the epoch
//! words whoever runs a task's body, and the claimant publishes every
//! `terminate_*` the task owes, so downstream guards and §10 wake elision
//! see the same history as for an owned task. Only the body must not run
//! twice, and the slot sees to that.
//!
//! The claim CAS is `AcqRel` and the fast-path check an `Acquire` load,
//! so a worker that observes the claim also observes everything the
//! claim implies; the kernel's data writes travel on the terminates'
//! existing `Release`/`SeqCst` publication exactly as they do for an
//! owned task.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Claim slots per padded line: 16 × 8 bytes = one 128-byte group.
const CLAIMS_PER_LINE: usize = 16;

/// One cache line of claim slots, padded so claim groups never false-share
/// with neighbouring runtime state (they still share *within* a group —
/// each slot is CASed at most once per worker per run, so the line bounces
/// are bounded by construction, not by luck).
#[repr(align(128))]
#[derive(Debug, Default)]
struct ClaimLine {
    slots: [AtomicU64; CLAIMS_PER_LINE],
}

/// Per-task single-word claim slots, `FlatAccesses`-style: one flat
/// arena indexed by flow position. [`crate::CompiledFlow::try_run`] allocates
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

    /// Who holds `task`'s claim in run `epoch`, if anyone: one
    /// acquire-load.
    #[inline]
    pub fn claimant(&self, task: usize, epoch: u32) -> Option<u32> {
        let cur = self.slot(task).load(Ordering::Acquire);
        claimed_in(cur, epoch).then(|| (cur as u32) - 1)
    }
}

/// A run's claim slots as [`crate::graph::WorkerCtx`] holds them: there
/// iff some instruction of the flow is claim-marked.
#[derive(Clone, Copy)]
pub(crate) struct Claims<'a> {
    pub(crate) table: &'a ClaimTable,
    /// This run's epoch in `table`.
    pub(crate) epoch: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_lines_are_padded() {
        assert!(std::mem::align_of::<ClaimLine>() >= 128);
        assert_eq!(std::mem::size_of::<ClaimLine>(), 128);
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
