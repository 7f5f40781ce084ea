//! The worker set: threads that outlive a run, as the paper's workers do
//! (its eq. 2 has no launch term). Every [`crate::Executor`],
//! [`crate::Rio`] and [`crate::redux::ReduxRio`] owns one, shared with
//! whatever it compiles or derives: threads for workers `1..w`, started by
//! the first run, joined when the last owner drops. Between runs they wait
//! for one generation word to move — a few of the runs' own spin budgets,
//! then asleep on an event-count ([`crate::futex`]), which a nudge
//! ([`WorkerSet::nudge`]) also ends, to wait anew — and the join is the
//! launcher waiting for `pending == 0`, one budget, then asleep; neither is
//! a park of the run, and no counter sees it. The job borrows the run's
//! stack: its lifetime is erased behind an unconditional join (DESIGN.md
//! §7; `workerset_spec`).

use std::cell::UnsafeCell;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use crate::affinity;
use crate::config::RioConfig;
use crate::futex::EventCount;

/// One run's share for worker `w`. It contains its own panics.
type Job<'a> = &'a (dyn Fn(usize) + Sync + 'a);

/// What the set's threads and its launcher share.
#[derive(Debug, Default)]
struct Shared {
    /// The launch in flight; `None` between launches, so a bump that finds
    /// nothing to run means "exit".
    job: UnsafeCell<Option<Job<'static>>>,
    /// Bumped once per launch, and once to shut down.
    generation: AtomicU32,
    /// Bumped once per nudge.
    nudges: AtomicU32,
    /// Set threads still inside the launch in flight.
    pending: AtomicU32,
    /// Where set threads sleep between launches.
    idle: EventCount,
    /// Where the launcher sleeps in the join.
    done: EventCount,
    /// The CPU the launcher was on at its last bump.
    launcher_cpu: AtomicU32,
}

// SAFETY: every field but `job` is `Sync` by itself. `job` is written only
// by the launcher, and only while no set thread may read it — before the
// bump that publishes a launch, after the `pending == 0` that ends it. Set
// threads read it only in between.
unsafe impl Sync for Shared {}

/// Run budgets a set thread polls for its next launch before it sleeps: a
/// launcher that slept in the join is itself a wake-up away from launching.
const IDLE_BUDGETS: u32 = 4;

/// Waits for `ready`: `spin` polls, then asleep on `event` until notified.
fn await_until(event: &EventCount, spin: u32, ready: impl Fn(Ordering) -> bool) {
    for _ in 0..spin {
        if ready(Ordering::Acquire) {
            return;
        }
        std::hint::spin_loop();
    }
    // `R` of the event-count (`crate::futex`): pairs with the bumper's `S`.
    event.sleep_until(|| match ready(Ordering::SeqCst) {
        true => ControlFlow::Break(()),
        false => ControlFlow::Continue(None),
    });
}

impl Shared {
    /// A set thread's life: every launch once, as worker `me`; `roomy` when
    /// the machine has a CPU for every worker.
    fn serve(&self, me: usize, mut seen: u32, spin: u32, roomy: bool) {
        loop {
            let nudged = self.nudges.load(Ordering::Relaxed);
            let moved = |o| self.generation.load(o) != seen || self.nudges.load(o) != nudged;
            await_until(&self.idle, spin, moved);
            // Nudged: awake now, so the launch to come finds it polling.
            if self.generation.load(Ordering::Acquire) == seen {
                continue;
            }
            seen = seen.wrapping_add(1);
            // Linux queues a woken thread behind its waker when the CPU it
            // slept on has halted (a guest's idle vCPU reads as preempted),
            // and there it stays, run after run behind worker 0: step off.
            if roomy {
                affinity::leave(self.launcher_cpu.load(Ordering::Relaxed));
            }
            // SAFETY: the bump just observed follows the launcher's write,
            // and the launcher writes again only once `pending` — which
            // counts this thread until the decrement below — is zero.
            let Some(job) = (unsafe { *self.job.get() }) else {
                return;
            };
            // Should a panic escape the job all the same, the join must
            // still count this worker out.
            let _ = catch_unwind(AssertUnwindSafe(|| job(me)));
            // `S` of `done`: precedes its `L`; pairs with the joining launcher's `R`.
            if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.done.notify_if_waiters();
            }
        }
    }
}

/// See the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct WorkerSet {
    shared: Arc<Shared>,
    /// A launch is in flight: a second one gets a set of its own. (Taken
    /// with `Acquire`, dropped with `Release`: the cell changes hands.)
    busy: AtomicBool,
    /// Started by the first launch; every owner has the same workers.
    threads: OnceLock<Vec<JoinHandle<()>>>,
}

impl WorkerSet {
    /// Runs `job(w)` once per worker of `cfg` — `job(0)` on the calling
    /// thread — and returns when all are over.
    pub(crate) fn run(&self, cfg: &RioConfig, job: Job<'_>) {
        // A run nested in a kernel of this set, or a second thread running a
        // flow of the same owner, gets threads of its own.
        if !self.try_run(cfg, job) {
            WorkerSet::default().run(cfg, job);
        }
    }

    /// Wakes the set's threads that sleep between launches, and gives them
    /// none: each polls for the next one again, its budgets, before it
    /// sleeps. A launcher calls it ahead of work that precedes a launch, so
    /// that a thread's wake-up from a long sleep overlaps that work. No
    /// syscall when none sleeps.
    pub(crate) fn nudge(&self) {
        // `S` of `idle`, as in a launch: pairs with a set thread's `R`.
        self.shared.nudges.fetch_add(1, Ordering::SeqCst);
        self.shared.idle.notify_if_waiters();
    }

    /// [`WorkerSet::run`] on this set's threads, or `false` at once if a
    /// launch is in flight.
    pub(crate) fn try_run(&self, cfg: &RioConfig, job: Job<'_>) -> bool {
        if self.busy.swap(true, Ordering::Acquire) {
            return false;
        }
        let (shared, spin) = (&*self.shared, cfg.spin_polls());
        let threads = self.threads.get_or_init(|| {
            let seen = shared.generation.load(Ordering::Relaxed);
            let roomy = crate::wait::roomy(cfg.workers);
            let start = |w| {
                let shared = Arc::clone(&self.shared);
                let main = move || shared.serve(w, seen, spin.saturating_mul(IDLE_BUDGETS), roomy);
                let named = std::thread::Builder::new().name(format!("rio-w{w}"));
                named.spawn(main).expect("cannot start a RIO worker thread")
            };
            (1..cfg.workers).map(start).collect()
        });
        debug_assert_eq!(threads.len(), cfg.workers - 1, "one shape per set");
        // SAFETY: only the lifetime changes. `Join`'s drop — which runs
        // when `job(0)` unwinds too — returns only once no set thread will
        // use the job again, and takes it back out of the cell.
        let erased = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) };
        // SAFETY: `busy` makes this the only launcher; no launch is in
        // flight, so no set thread reads the cell (see `Sync for Shared`).
        unsafe { *shared.job.get() = Some(erased) };
        // Published, like the job, by the bump: nobody looks before it.
        let pending = threads.len() as u32;
        shared.pending.store(pending, Ordering::Relaxed);
        shared
            .launcher_cpu
            .store(affinity::current_cpu(), Ordering::Relaxed);
        // `S` of `idle`: precedes its `L`; pairs with a set thread's `R`.
        shared.generation.fetch_add(1, Ordering::SeqCst);
        shared.idle.notify_if_waiters();
        let _join = Join(self, spin);
        job(0);
        true
    }
}

/// The end of a launch, however the launcher's own share ended.
struct Join<'s>(&'s WorkerSet, u32);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        let shared = &*self.0.shared;
        await_until(&shared.done, self.1, |o| shared.pending.load(o) == 0);
        // SAFETY: every set thread is past its last use of the job and
        // reads the cell next after the next bump.
        unsafe { *shared.job.get() = None };
        self.0.busy.store(false, Ordering::Release);
    }
}

impl Drop for WorkerSet {
    fn drop(&mut self) {
        // A launch borrows the set, so none is in flight: the cell holds
        // `None`, and a bump sends every thread home.
        // `S` of `idle`, as in a launch: pairs with a set thread's `R`.
        self.shared.generation.fetch_add(1, Ordering::SeqCst);
        self.shared.idle.notify_if_waiters();
        for thread in self.threads.take().into_iter().flatten() {
            let _ = thread.join();
        }
    }
}
