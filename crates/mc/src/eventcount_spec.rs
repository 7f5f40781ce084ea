//! The futex event-count behind `WaitStrategy::Park`
//! (`rio_core`'s `futex.rs`) as an explicit transition system: no wake is
//! ever lost, under any interleaving of waiters, publishers and an abort.
//!
//! One data object: `word` counts the publications made so far (each
//! publisher is a `terminate_read`-style `fetch_add`), and waiter `i`'s
//! guard is `word > i` — so with two publishers one waiter is released by
//! the first publication and the other must sleep through it. Every
//! shared access of the real code is one micro-step here, in program
//! order:
//!
//! | thread    | steps                                                                      |
//! |-----------|----------------------------------------------------------------------------|
//! | waiter    | `waiters += 1` · load `wake_seq` · re-check word · check abort · **futex compare-and-sleep** (one atomic step, as in the kernel) · … · `waiters -= 1` |
//! | publisher | publish · load `waiters` · (if ≠ 0) bump `wake_seq` · wake all             |
//! | aborter   | arm · bump `wake_seq` · wake all                                           |
//!
//! The explorer's interleavings are sequentially consistent, which is the
//! ordering every one of these accesses has in the code. Sleeps carry no
//! timeout: a timed sleep would paper over exactly the bug looked for.
//!
//! **Invariant:** no waiter is asleep with its guard satisfied (or the
//! abort armed) unless a wake is still on its way — a publisher that has
//! published and not yet finished, or the aborter past its arm. A lost
//! wake also shows as a deadlock (a sleeper nobody will wake), which the
//! explorer reports on its own. Two [`Mutant`]s — each a plausible
//! "optimization" of the real code — must be caught.

use crate::explorer::{explore, ExploreReport, TransitionSystem};

/// Which (if any) ordering bug the model is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The code as written.
    None,
    /// The waiter loads `wake_seq` *after* its re-check: a publication
    /// between the two bumps the sequence the sleep then compares against.
    SeqLoadedAfterRecheck,
    /// The publisher reads `waiters` *before* it publishes: a waiter that
    /// registers in between is neither seen nor sees the publication.
    WaitersReadBeforePublish,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Waiter {
    Register,
    LoadSeq,
    Recheck,
    CheckAbort,
    /// About to call `futex_wait(&wake_seq, seen)`.
    FutexWait,
    /// Queued in the kernel: moves only when woken.
    Asleep,
    Deregister,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Waker {
    /// Aborter only.
    Arm,
    /// Publisher only.
    Publish,
    /// Publisher only: look for advertised waiters.
    LoadWaiters,
    Bump,
    Wake,
    Done,
}

/// One state of the event-count system.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EcState {
    word: u8,
    waiters: u8,
    wake_seq: u8,
    armed: bool,
    /// Per waiter: control point and the `wake_seq` it last loaded.
    sleepers: Vec<(Waiter, u8)>,
    /// Per publisher: control point and what its `waiters` load found.
    publishers: Vec<(Waker, bool)>,
    /// `None` in a model without abort.
    aborter: Option<Waker>,
}

/// The event-count transition system.
#[derive(Debug, Clone, Copy)]
pub struct EventCountSpec {
    /// Waiting threads; waiter `i` is released by publication `i + 1`.
    pub waiters: usize,
    /// Publishing threads. At least `waiters`, or a model without abort
    /// cannot terminate.
    pub publishers: usize,
    /// Whether a thread arms the abort flag at some point of the run.
    pub abort: bool,
    /// The ordering bug to build in.
    pub mutant: Mutant,
}

impl EventCountSpec {
    /// The steps between two sleeps, in this model's program order.
    fn waiter_loop(&self) -> [Waiter; 3] {
        match self.mutant {
            Mutant::SeqLoadedAfterRecheck => [Waiter::Recheck, Waiter::CheckAbort, Waiter::LoadSeq],
            _ => [Waiter::LoadSeq, Waiter::Recheck, Waiter::CheckAbort],
        }
    }

    /// The step after `pc` in [`EventCountSpec::waiter_loop`]; the sleep
    /// after the last.
    fn after(&self, pc: Waiter) -> Waiter {
        let steps = self.waiter_loop();
        let at = steps.iter().position(|&s| s == pc).expect("a loop step");
        steps.get(at + 1).copied().unwrap_or(Waiter::FutexWait)
    }

    /// The publisher's two first steps, in this model's program order.
    fn publisher_start(&self) -> [Waker; 2] {
        match self.mutant {
            Mutant::WaitersReadBeforePublish => [Waker::LoadWaiters, Waker::Publish],
            _ => [Waker::Publish, Waker::LoadWaiters],
        }
    }

    fn released(&self, s: &EcState, i: usize) -> bool {
        usize::from(s.word) > i
    }

    fn step_waiter(&self, s: &EcState, i: usize) -> Option<EcState> {
        let (pc, seen) = s.sleepers[i];
        let again = self.waiter_loop()[0];
        let mut n = s.clone();
        n.sleepers[i] = match pc {
            Waiter::Register => {
                n.waiters += 1;
                (again, seen)
            }
            Waiter::LoadSeq => (self.after(pc), s.wake_seq),
            Waiter::Recheck if self.released(s, i) => (Waiter::Deregister, seen),
            Waiter::CheckAbort if s.armed => (Waiter::Deregister, seen),
            Waiter::Recheck | Waiter::CheckAbort => (self.after(pc), seen),
            // The kernel's compare and enqueue are one step.
            Waiter::FutexWait if s.wake_seq == seen => (Waiter::Asleep, seen),
            Waiter::FutexWait => (again, seen),
            Waiter::Deregister => {
                n.waiters -= 1;
                (Waiter::Done, seen)
            }
            Waiter::Asleep | Waiter::Done => return None,
        };
        Some(n)
    }

    fn wake_all(&self, s: &mut EcState) {
        let again = self.waiter_loop()[0];
        for w in s.sleepers.iter_mut().filter(|w| w.0 == Waiter::Asleep) {
            w.0 = again;
        }
    }

    fn step_publisher(&self, s: &EcState, j: usize) -> Option<EcState> {
        let (pc, saw) = s.publishers[j];
        let [_, second] = self.publisher_start();
        let wake_if = |any: bool| if any { Waker::Bump } else { Waker::Done };
        let mut n = s.clone();
        n.publishers[j] = match pc {
            Waker::Publish => {
                n.word += 1;
                let next = if second == pc { wake_if(saw) } else { second };
                (next, saw)
            }
            Waker::LoadWaiters => {
                let any = s.waiters != 0;
                let next = if second == pc { wake_if(any) } else { second };
                (next, any)
            }
            Waker::Bump => {
                n.wake_seq += 1;
                (Waker::Wake, saw)
            }
            Waker::Wake => {
                self.wake_all(&mut n);
                (Waker::Done, saw)
            }
            Waker::Arm | Waker::Done => return None,
        };
        Some(n)
    }

    fn step_aborter(&self, s: &EcState) -> Option<EcState> {
        let mut n = s.clone();
        n.aborter = Some(match s.aborter? {
            Waker::Arm => {
                n.armed = true;
                Waker::Bump
            }
            Waker::Bump => {
                n.wake_seq += 1;
                Waker::Wake
            }
            Waker::Wake => {
                self.wake_all(&mut n);
                Waker::Done
            }
            Waker::Publish | Waker::LoadWaiters | Waker::Done => return None,
        });
        Some(n)
    }

    /// Has publisher `p` published without having finished its wake?
    fn wake_on_its_way(&self, p: Waker) -> bool {
        let [first, _] = self.publisher_start();
        matches!(p, Waker::Bump | Waker::Wake) || (p == Waker::LoadWaiters && first != p)
    }
}

impl TransitionSystem for EventCountSpec {
    type State = EcState;

    fn initial(&self) -> EcState {
        EcState {
            word: 0,
            waiters: 0,
            wake_seq: 0,
            armed: false,
            sleepers: vec![(Waiter::Register, 0); self.waiters],
            publishers: vec![(self.publisher_start()[0], false); self.publishers],
            aborter: self.abort.then_some(Waker::Arm),
        }
    }

    fn successors(&self, s: &EcState, out: &mut Vec<EcState>) {
        out.extend((0..self.waiters).filter_map(|i| self.step_waiter(s, i)));
        out.extend((0..self.publishers).filter_map(|j| self.step_publisher(s, j)));
        out.extend(self.step_aborter(s));
    }

    fn invariant(&self, s: &EcState) -> Result<(), String> {
        // A wake still on its way: whoever made a sleeper's condition true
        // and has not finished. (A publisher about to load `waiters`
        // counts: the sleeper is registered, so the load finds it.)
        let publishing = s.publishers.iter().any(|p| self.wake_on_its_way(p.0));
        let aborting = matches!(s.aborter, Some(Waker::Bump | Waker::Wake));
        for (i, w) in s.sleepers.iter().enumerate() {
            let due = self.released(s, i) || s.armed;
            if w.0 == Waiter::Asleep && due && !publishing && !aborting {
                return Err(format!("waiter {i} sleeps through its wake: {s:?}"));
            }
        }
        Ok(())
    }

    fn is_final(&self, s: &EcState) -> bool {
        s.waiters == 0
            && s.sleepers.iter().all(|w| w.0 == Waiter::Done)
            && s.publishers.iter().all(|p| p.0 == Waker::Done)
            && s.aborter.is_none_or(|a| a == Waker::Done)
    }
}

/// Explores the event-count model exhaustively.
pub fn explore_eventcount(spec: &EventCountSpec) -> ExploreReport {
    explore(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(waiters: usize, publishers: usize, abort: bool, mutant: Mutant) -> EventCountSpec {
        EventCountSpec {
            waiters,
            publishers,
            abort,
            mutant,
        }
    }

    #[test]
    fn no_wake_is_lost_with_two_waiters_two_publishers_and_an_abort() {
        for abort in [false, true] {
            let r = explore_eventcount(&spec(2, 2, abort, Mutant::None));
            assert!(r.ok(), "abort={abort}: {r:?}");
            assert!(r.distinct > 1_000, "the interleavings were explored: {r:?}");
        }
        // An abort alone releases waiters no publication ever will.
        let r = explore_eventcount(&spec(2, 1, true, Mutant::None));
        assert!(r.ok(), "{r:?}");
    }

    #[test]
    fn smaller_shapes_are_clean_too() {
        for (w, p) in [(1, 1), (1, 2), (2, 3)] {
            for abort in [false, true] {
                let r = explore_eventcount(&spec(w, p, abort, Mutant::None));
                assert!(r.ok(), "{w} waiters, {p} publishers, abort={abort}: {r:?}");
            }
        }
    }

    #[test]
    fn a_sequence_loaded_after_the_recheck_loses_a_wake() {
        // Even the smallest shape: recheck fails, the publisher publishes,
        // bumps and wakes nobody, the waiter loads the bumped sequence and
        // sleeps on it for good.
        for (w, p, abort) in [(1, 1, false), (2, 2, true)] {
            let r = explore_eventcount(&spec(w, p, abort, Mutant::SeqLoadedAfterRecheck));
            assert!(!r.violations.is_empty(), "{r:?}");
            assert!(r.violations[0].contains("sleeps through its wake"));
        }
        let r = explore_eventcount(&spec(1, 1, false, Mutant::SeqLoadedAfterRecheck));
        assert!(r.deadlocks > 0, "a lost wake is a hang: {r:?}");
    }

    #[test]
    fn a_waiters_read_before_the_publish_skips_a_needed_wake() {
        for (w, p, abort) in [(1, 1, false), (2, 2, true)] {
            let r = explore_eventcount(&spec(w, p, abort, Mutant::WaitersReadBeforePublish));
            assert!(!r.violations.is_empty(), "{r:?}");
        }
        let r = explore_eventcount(&spec(1, 1, false, Mutant::WaitersReadBeforePublish));
        assert!(r.deadlocks > 0, "a lost wake is a hang: {r:?}");
    }
}
