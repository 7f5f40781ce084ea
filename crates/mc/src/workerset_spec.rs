//! The worker set's launch and join (`rio_core`'s `pool.rs`) as an
//! explicit transition system: consecutive launches of a job that lives on
//! the launcher's stack, then a shutdown, under every interleaving of the
//! launcher with the set's threads.
//!
//! Every shared access of the real code is one micro-step, in program
//! order; both waits are the spin-or-sleep of `pool::await_until` on an
//! event-count (`futex.rs`, whose own steps are those of
//! [`crate::eventcount_spec`]):
//!
//! | thread   | steps                                                                                   |
//! |----------|-----------------------------------------------------------------------------------------|
//! | launcher | per launch (the first after a nudge: bump `nudges` · load `idle.waiters` · (wake)): store job · set `pending` · bump generation · load `idle.waiters` · (wake) · **await** `pending == 0` on `done` · clear job; then shutdown: bump · load · (wake) · join the threads |
//! | worker   | **await** generation ≠ seen (or, nudged, `nudges` moved: then again) on `idle` · read job (none: exit) · run it · `pending -= 1` · (last: load `done.waiters` · (wake)) |
//! | await    | spin (give up at any poll) · `waiters += 1` · load `wake_seq` · re-check · **futex compare-and-sleep** · … · `waiters -= 1` |
//!
//! The interleavings are sequentially consistent, which is the ordering
//! every one of these accesses has in the code (the spin polls are
//! `Acquire` loads of a word only ever written `SeqCst`; a stale poll is a
//! poll that has not happened yet). Sleeps carry no timeout.
//!
//! **Invariants:**
//!
//! * a worker only ever runs a job whose launch has not yet joined — the
//!   job is still in the cell and its launcher is still inside the join.
//!   This is what the lifetime erasure in `pool.rs` rests on (DESIGN.md
//!   §7);
//! * every worker runs every launch exactly once, and exits only at the
//!   shutdown;
//! * nobody is asleep with its condition true unless a wake is still on
//!   its way — a nudge's included;
//! * the shutdown terminates every thread (a hang shows as a deadlock,
//!   which the explorer reports on its own).
//!
//! Three [`Mutant`]s — each a plausible reordering of the real code — must
//! be caught.

use crate::explorer::{explore, ExploreReport, TransitionSystem};

/// Which (if any) ordering bug the model is built with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The code as written.
    None,
    /// The launcher bumps the generation *before* it stores the job: a
    /// spinning worker sees the bump and finds nothing to run.
    BumpBeforeJob,
    /// A worker decrements `pending` *before* its last use of the job: the
    /// join returns, and the launcher's stack goes, under a running job.
    DecrementBeforeLastUse,
    /// The launcher reads `idle.waiters` *before* the bump: a worker that
    /// registers in between is neither seen nor sees the bump.
    WaitersBeforeBump,
}

/// The spin-or-sleep wait, on whichever event-count and condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Wait {
    /// Polling; the budget may run out at any poll.
    Spin,
    Register,
    LoadSeq,
    Recheck,
    /// About to call `futex_wait(&wake_seq, seen)`.
    Futex,
    /// Queued in the kernel: moves only when woken.
    Asleep,
    Deregister,
}

/// `waiters` and `wake_seq` of one event-count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct Ec {
    waiters: u8,
    seq: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    /// Launcher only: the nudge ahead of a launch — bump `nudges`, load
    /// `idle.waiters`, and if there are any, bump their `wake_seq` and wake
    /// them all.
    Nudge,
    NudgeWaiters,
    NudgeSeq,
    NudgeWake,
    /// Launcher only.
    StoreJob,
    /// Launcher only.
    SetPending,
    /// Launcher only.
    BumpGeneration,
    /// `notify_if_waiters`: load the other side's `waiters`…
    LoadWaiters,
    /// …and if there are any, bump their `wake_seq`…
    BumpSeq,
    /// …and wake them all.
    Wake,
    /// The launcher's join, a worker's idle wait.
    Await(Wait),
    /// Launcher only: take the job back out of the cell.
    ClearJob,
    /// Launcher only: `JoinHandle::join` on every thread.
    JoinThreads,
    /// Worker only.
    ReadJob,
    /// Worker only: the job's last use.
    Run,
    /// Worker only.
    Decrement,
    Done,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Worker {
    pc: Pc,
    /// The generation last seen, the `nudges` seen as the idle wait began
    /// (its load folded into the step before), and the `idle.wake_seq`
    /// last loaded.
    seen: u8,
    nudged: u8,
    seen_seq: u8,
    /// The launch whose job this worker read and has not finished with.
    holding: Option<u8>,
    /// Whether its decrement took `pending` to zero.
    last: bool,
    /// How often it ran each launch's job.
    ran: Vec<u8>,
}

/// One state of the worker-set system.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SetState {
    /// The launch whose job is in the cell.
    job: Option<u8>,
    generation: u8,
    nudges: u8,
    pending: u8,
    idle: Ec,
    done: Ec,
    /// Launches whose join has returned.
    joined: u8,
    /// The launch the launcher is at (from 1; `launches + 1`: the
    /// shutdown), its control point, what its `idle.waiters` load found
    /// and the `done.wake_seq` it last loaded.
    launch: u8,
    launcher: Pc,
    launcher_saw: bool,
    launcher_seq: u8,
    workers: Vec<Worker>,
}

/// The worker-set transition system.
#[derive(Debug, Clone, Copy)]
pub struct WorkerSetSpec {
    /// Threads of the set.
    pub workers: usize,
    /// Launches before the shutdown.
    pub launches: u8,
    /// The first launch comes after a nudge (`WorkerSet::nudge`).
    pub nudge: bool,
    /// The ordering bug to build in.
    pub mutant: Mutant,
}

/// One step of a wait on `ec` whose condition is `ready`: the wait's next
/// control points (`None`: the wait is over), and what it does to `ec` and
/// the sequence it remembers.
fn step_wait(at: Wait, ready: bool, ec: &mut Ec, seen_seq: &mut u8) -> Vec<Option<Wait>> {
    match at {
        // A poll that succeeds ends the wait; the budget can also run out
        // here, whatever the poll would have said.
        Wait::Spin if ready => vec![None, Some(Wait::Register)],
        Wait::Spin => vec![Some(Wait::Register)],
        Wait::Register => {
            ec.waiters += 1;
            vec![Some(Wait::LoadSeq)]
        }
        Wait::LoadSeq => {
            *seen_seq = ec.seq;
            vec![Some(Wait::Recheck)]
        }
        Wait::Recheck if ready => vec![Some(Wait::Deregister)],
        Wait::Recheck => vec![Some(Wait::Futex)],
        // The kernel's compare and enqueue are one step.
        Wait::Futex if ec.seq == *seen_seq => vec![Some(Wait::Asleep)],
        Wait::Futex => vec![Some(Wait::LoadSeq)],
        Wait::Asleep => vec![],
        Wait::Deregister => {
            ec.waiters -= 1;
            vec![None]
        }
    }
}

impl WorkerSetSpec {
    fn shutting_down(&self, s: &SetState) -> bool {
        s.launch > self.launches
    }

    /// The launcher's steps up to the wake, in this model's program order.
    fn launch_steps(&self, shutdown: bool) -> &'static [Pc] {
        use Pc::{BumpGeneration, LoadWaiters, SetPending, StoreJob};
        match (shutdown, self.mutant) {
            (true, Mutant::WaitersBeforeBump) => &[LoadWaiters, BumpGeneration],
            (true, _) => &[BumpGeneration, LoadWaiters],
            (false, Mutant::BumpBeforeJob) => &[SetPending, BumpGeneration, StoreJob, LoadWaiters],
            (false, Mutant::WaitersBeforeBump) => {
                &[StoreJob, SetPending, LoadWaiters, BumpGeneration]
            }
            (false, _) => &[StoreJob, SetPending, BumpGeneration, LoadWaiters],
        }
    }

    /// What follows the launcher's step in `n` among
    /// [`Self::launch_steps`]; after the last, the wake if its load saw a
    /// sleeper, else what follows the wake.
    fn after_launch_step(&self, n: &SetState) -> Pc {
        let shutdown = self.shutting_down(n);
        let steps = self.launch_steps(shutdown);
        let at = steps.iter().position(|&p| p == n.launcher);
        match steps.get(at.expect("a launch step") + 1) {
            Some(&next) => next,
            None if n.launcher_saw => Pc::BumpSeq,
            None => self.after_wake(shutdown),
        }
    }

    /// The launcher's first step of launch `launch`: the first launch
    /// begins with a nudge — the workers all wait idle then, as between any
    /// two launches.
    fn first_step(&self, launch: u8) -> Pc {
        match launch {
            1 if self.nudge && self.launches > 0 => Pc::Nudge,
            _ => self.launch_steps(launch > self.launches)[0],
        }
    }

    fn after_wake(&self, shutdown: bool) -> Pc {
        if shutdown {
            Pc::JoinThreads
        } else {
            Pc::Await(Wait::Spin)
        }
    }

    fn step_launcher(&self, s: &SetState, out: &mut Vec<SetState>) {
        let mut n = s.clone();
        let shutdown = self.shutting_down(s);
        n.launcher = match s.launcher {
            Pc::Nudge => {
                n.nudges += 1;
                Pc::NudgeWaiters
            }
            Pc::NudgeWaiters if s.idle.waiters != 0 => Pc::NudgeSeq,
            Pc::NudgeSeq => {
                n.idle.seq += 1;
                Pc::NudgeWake
            }
            Pc::NudgeWaiters | Pc::NudgeWake => {
                for w in &mut n.workers {
                    if w.pc == Pc::Await(Wait::Asleep) {
                        w.pc = Pc::Await(Wait::LoadSeq);
                    }
                }
                self.launch_steps(false)[0]
            }
            Pc::StoreJob | Pc::SetPending | Pc::BumpGeneration | Pc::LoadWaiters => {
                match s.launcher {
                    Pc::StoreJob => n.job = Some(s.launch),
                    Pc::SetPending => n.pending = self.workers as u8,
                    Pc::BumpGeneration => n.generation += 1,
                    _ => n.launcher_saw = s.idle.waiters != 0,
                }
                self.after_launch_step(&n)
            }
            Pc::BumpSeq => {
                n.idle.seq += 1;
                Pc::Wake
            }
            Pc::Wake => {
                for w in &mut n.workers {
                    if w.pc == Pc::Await(Wait::Asleep) {
                        w.pc = Pc::Await(Wait::LoadSeq);
                    }
                }
                self.after_wake(shutdown)
            }
            Pc::Await(at) => {
                let ready = s.pending == 0;
                for next in step_wait(at, ready, &mut n.done, &mut n.launcher_seq) {
                    let mut m = n.clone();
                    m.launcher = next.map_or(Pc::ClearJob, Pc::Await);
                    out.push(m);
                }
                return;
            }
            Pc::ClearJob => {
                n.job = None;
                n.joined = s.launch;
                n.launch += 1;
                (n.launcher_saw, n.launcher_seq) = (false, 0);
                self.first_step(n.launch)
            }
            Pc::JoinThreads if s.workers.iter().all(|w| w.pc == Pc::Done) => Pc::Done,
            Pc::JoinThreads | Pc::Done => return,
            Pc::ReadJob | Pc::Run | Pc::Decrement => unreachable!("a worker's step"),
        };
        out.push(n);
    }

    /// The worker's steps between reading the job and going idle again.
    fn after_read(&self, pc: Pc, last: bool) -> Pc {
        let early = self.mutant == Mutant::DecrementBeforeLastUse;
        let notify_or_idle = if last {
            Pc::LoadWaiters
        } else {
            Pc::Await(Wait::Spin)
        };
        match (pc, early) {
            (Pc::ReadJob, false) | (Pc::Decrement, true) => Pc::Run,
            (Pc::ReadJob, true) | (Pc::Run, false) => Pc::Decrement,
            (Pc::Run, true) | (Pc::Decrement, false) => notify_or_idle,
            _ => unreachable!("not a step between two idle waits"),
        }
    }

    fn step_worker(&self, s: &SetState, i: usize, out: &mut Vec<SetState>) {
        let mut n = s.clone();
        let w = &s.workers[i];
        let next = match w.pc {
            Pc::Await(at) => {
                let ready = s.generation != w.seen || s.nudges != w.nudged;
                let mut seen_seq = w.seen_seq;
                for next in step_wait(at, ready, &mut n.idle, &mut seen_seq) {
                    let mut m = n.clone();
                    m.workers[i].seen_seq = seen_seq;
                    m.workers[i].pc = match next {
                        Some(next) => Pc::Await(next),
                        // Woken by a nudge alone: wait anew.
                        None if s.generation == w.seen => {
                            m.workers[i].nudged = s.nudges;
                            Pc::Await(Wait::Spin)
                        }
                        None => Pc::ReadJob,
                    };
                    out.push(m);
                }
                return;
            }
            Pc::ReadJob => {
                n.workers[i].seen += 1;
                n.workers[i].holding = s.job;
                match s.job {
                    Some(_) => self.after_read(Pc::ReadJob, false),
                    None => Pc::Done,
                }
            }
            Pc::Run => {
                let launch = w.holding.expect("a job was read");
                n.workers[i].ran[usize::from(launch) - 1] += 1;
                n.workers[i].holding = None;
                self.after_read(Pc::Run, w.last)
            }
            Pc::Decrement => {
                n.pending -= 1;
                n.workers[i].last = n.pending == 0;
                self.after_read(Pc::Decrement, n.pending == 0)
            }
            Pc::LoadWaiters if s.done.waiters != 0 => Pc::BumpSeq,
            Pc::LoadWaiters => Pc::Await(Wait::Spin),
            Pc::BumpSeq => {
                n.done.seq += 1;
                Pc::Wake
            }
            Pc::Wake => {
                if n.launcher == Pc::Await(Wait::Asleep) {
                    n.launcher = Pc::Await(Wait::LoadSeq);
                }
                Pc::Await(Wait::Spin)
            }
            Pc::Done => return,
            _ => unreachable!("a launcher's step"),
        };
        if matches!(next, Pc::Await(_)) {
            (n.workers[i].last, n.workers[i].nudged) = (false, s.nudges);
        }
        n.workers[i].pc = next;
        out.push(n);
    }
}

/// Is a `notify_if_waiters` that started after its condition came true
/// still running at `pc`?
fn waking(pc: Pc) -> bool {
    matches!(pc, Pc::LoadWaiters | Pc::BumpSeq | Pc::Wake)
}

impl TransitionSystem for WorkerSetSpec {
    type State = SetState;

    fn initial(&self) -> SetState {
        let worker = Worker {
            pc: Pc::Await(Wait::Spin),
            seen: 0,
            nudged: 0,
            seen_seq: 0,
            holding: None,
            last: false,
            ran: vec![0; usize::from(self.launches)],
        };
        SetState {
            job: None,
            generation: 0,
            nudges: 0,
            pending: 0,
            idle: Ec::default(),
            done: Ec::default(),
            joined: 0,
            launch: 1,
            launcher: self.first_step(1),
            launcher_saw: false,
            launcher_seq: 0,
            workers: vec![worker; self.workers],
        }
    }

    fn successors(&self, s: &SetState, out: &mut Vec<SetState>) {
        self.step_launcher(s, out);
        for i in 0..self.workers {
            self.step_worker(s, i, out);
        }
    }

    fn invariant(&self, s: &SetState) -> Result<(), String> {
        for (i, w) in s.workers.iter().enumerate() {
            if let (Pc::Run, Some(launch)) = (w.pc, w.holding) {
                if s.job != Some(launch) || s.joined >= launch {
                    return Err(format!(
                        "worker {i} runs the job of launch {launch} after its join: {s:?}"
                    ));
                }
            }
            if w.ran.iter().any(|&n| n > 1) {
                return Err(format!("worker {i} ran a launch twice: {s:?}"));
            }
            if w.pc == Pc::Done && !self.shutting_down(s) {
                return Err(format!("worker {i} exits before the shutdown: {s:?}"));
            }
            let bumped = s.generation != w.seen;
            if w.pc == Pc::Await(Wait::Asleep) && bumped && !waking(s.launcher) {
                return Err(format!("worker {i} sleeps through a launch: {s:?}"));
            }
            let nudging = matches!(s.launcher, Pc::NudgeWaiters | Pc::NudgeSeq | Pc::NudgeWake);
            if w.pc == Pc::Await(Wait::Asleep) && s.nudges != w.nudged && !nudging {
                return Err(format!("worker {i} sleeps through a nudge: {s:?}"));
            }
        }
        // (The mutant that decrements early still owes its notify at `Run`.)
        let owes_wake = |w: &Worker| waking(w.pc) || (w.pc == Pc::Run && w.last);
        let counted_out = s.pending == 0 && !s.workers.iter().any(owes_wake);
        if s.launcher == Pc::Await(Wait::Asleep) && counted_out {
            return Err(format!("the launcher sleeps through its join: {s:?}"));
        }
        Ok(())
    }

    fn is_final(&self, s: &SetState) -> bool {
        s.launcher == Pc::Done
            && (s.idle.waiters, s.done.waiters) == (0, 0)
            && s.workers
                .iter()
                .all(|w| w.pc == Pc::Done && w.ran.iter().all(|&n| n == 1))
    }
}

/// Explores the worker-set model exhaustively.
pub fn explore_workerset(spec: &WorkerSetSpec) -> ExploreReport {
    explore(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workers: usize, launches: u8, mutant: Mutant) -> WorkerSetSpec {
        WorkerSetSpec {
            workers,
            launches,
            mutant,
            nudge: false,
        }
    }

    #[test]
    fn two_launches_and_a_shutdown_over_two_workers_are_clean() {
        let r = explore_workerset(&spec(2, 2, Mutant::None));
        assert!(r.ok(), "{r:?}");
        assert!(
            r.distinct > 10_000,
            "the interleavings were explored: {r:?}"
        );
    }

    #[test]
    fn smaller_and_longer_shapes_are_clean_too() {
        for (workers, launches) in [(1, 0), (1, 1), (1, 3), (2, 1), (3, 1)] {
            let r = explore_workerset(&spec(workers, launches, Mutant::None));
            assert!(r.ok(), "{workers} workers, {launches} launches: {r:?}");
        }
    }

    #[test]
    fn a_bump_before_the_job_is_stored_sends_a_worker_home() {
        for workers in [1, 2] {
            let r = explore_workerset(&spec(workers, 2, Mutant::BumpBeforeJob));
            let caught = r.violations.iter().any(|v| v.contains("exits before"));
            assert!(caught, "{r:?}");
        }
    }

    #[test]
    fn a_decrement_before_the_last_use_lets_the_join_return_under_a_running_job() {
        for workers in [1, 2] {
            let r = explore_workerset(&spec(workers, 2, Mutant::DecrementBeforeLastUse));
            let caught = r.violations.iter().any(|v| v.contains("after its join"));
            assert!(caught, "{r:?}");
        }
    }

    #[test]
    fn waiters_read_before_the_bump_lose_a_wake() {
        for workers in [1, 2] {
            let r = explore_workerset(&spec(workers, 2, Mutant::WaitersBeforeBump));
            let caught = r.violations.iter().any(|v| v.contains("sleeps through"));
            assert!(caught, "{r:?}");
        }
        let r = explore_workerset(&spec(1, 1, Mutant::WaitersBeforeBump));
        assert!(r.deadlocks > 0, "a lost wake is a hang: {r:?}");
    }
}
