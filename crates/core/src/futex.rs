//! The sleep behind [`crate::wait::WaitStrategy::Park`]: a futex
//! **event-count** that lives in the data object's own cache line.
//!
//! A parked `get_*` sleeps on its object's `wake_seq` word, in the kernel,
//! with no table, hash, mutex or condvar in between; a `terminate_*` that
//! finds `waiters == 0` never enters the kernel at all. The waiter's
//! steps, in order: `waiters += 1` (`I`), load `wake_seq` (`Q`), re-check
//! its condition (`R`), `futex_wait(&wake_seq, seen)` — which sleeps only
//! if `wake_seq` still holds what `Q` saw, compared by the kernel
//! atomically with the enqueue. The publisher's: publish (`S`), load
//! `waiters` (`L`), and only if that is non-zero bump `wake_seq` (`B`) and
//! `futex_wake` everyone. All of `I Q R S L B` are `SeqCst`. No wake is
//! lost:
//!
//! * `L` reads 0: `I` follows `L` in the total order, so `R` (after `I`)
//!   sees `S` (before `L`) — the waiter never sleeps;
//! * `L` reads ≥ 1 and `R` missed `S`: then `Q < R < S < L < B`, so `Q`
//!   saw the value before `B`. Either the futex compare runs after `B`
//!   and refuses to sleep, or the waiter is queued before `B` and the
//!   wake that follows `B` finds it.
//!
//! A condition that is *not* published through `S`/`L` — the run's abort
//! flag, a spurious storm — reaches sleepers through
//! [`EventCount::notify_all`], which bumps and wakes unconditionally; its
//! ordering argument is at [`crate::protocol::AbortFlag::arm_and_wake`].
//! `rio-mc` explores the waiter × publisher × aborter interleavings
//! exhaustively (`eventcount_spec`).

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// The two words a blocked wait needs beside the state it waits on.
#[derive(Debug, Default)]
pub(crate) struct EventCount {
    /// Threads asleep (or about to be) in [`EventCount::sleep_until`].
    waiters: AtomicU32,
    /// Bumped before every wake: the word sleepers sleep on.
    wake_seq: AtomicU32,
}

impl EventCount {
    /// Sleeps until `recheck` breaks with the wait's result; while it
    /// continues, sleeps until woken or for at most the timeout it names.
    /// It runs again after every wake-up — spurious ones and timeouts
    /// included, so nothing is ever concluded from having been woken.
    /// Returns the result and the number of sleeps taken.
    pub(crate) fn sleep_until<T>(
        &self,
        mut recheck: impl FnMut() -> ControlFlow<T, Option<Duration>>,
    ) -> (T, u64) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut sleeps = 0;
        let out = loop {
            let seen = self.wake_seq.load(Ordering::SeqCst);
            match recheck() {
                ControlFlow::Break(out) => break out,
                ControlFlow::Continue(timeout) => sys::wait(&self.wake_seq, seen, timeout),
            }
            sleeps += 1;
        };
        self.waiters.fetch_sub(1, Ordering::Release);
        (out, sleeps)
    }

    /// Threads currently inside [`EventCount::sleep_until`].
    pub(crate) fn waiters(&self) -> u32 {
        self.waiters.load(Ordering::SeqCst)
    }

    /// The publisher's half: wakes the sleepers if — and only if — there
    /// are any. The caller must already have published with `SeqCst`.
    /// Returns `true` when the wake ran, `false` when it was elided.
    #[inline]
    pub(crate) fn notify_if_waiters(&self) -> bool {
        let any = self.waiters() != 0;
        if any {
            self.notify_all();
        }
        any
    }

    /// Wakes every sleeper, whether or not one is advertised.
    #[cold]
    pub(crate) fn notify_all(&self) {
        self.wake_seq.fetch_add(1, Ordering::SeqCst);
        sys::wake_all(&self.wake_seq);
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    const SYS_FUTEX: i64 = if cfg!(target_arch = "x86_64") {
        202
    } else {
        98
    };
    const FUTEX_WAIT_PRIVATE: i64 = 128;
    const FUTEX_WAKE_PRIVATE: i64 = 1 | 128;

    /// The kernel's `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    // std already links the platform libc (see `topo.rs`'s
    // `sched_setaffinity`), so the symbol resolves without a libc crate.
    extern "C" {
        fn syscall(num: i64, ...) -> i64;
    }

    fn futex(word: &AtomicU32, op: i64, val: u32, timeout: *const Timespec) {
        // SAFETY: the kernel reads the 4 aligned bytes of `word` (or only
        // keys on their address) and the timespec unless null; both
        // outlive the call, and it writes to neither.
        unsafe { syscall(SYS_FUTEX, word.as_ptr(), op, i64::from(val), timeout) };
    }

    /// Sleeps while `*word == seen`, for at most `timeout`. Returns on a
    /// wake, a timeout, a signal or a failed compare alike: callers loop.
    pub(super) fn wait(word: &AtomicU32, seen: u32, timeout: Option<Duration>) {
        let ts = timeout.map(|d| Timespec {
            tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
            tv_nsec: i64::from(d.subsec_nanos()),
        });
        let ts = ts.as_ref().map_or(std::ptr::null(), std::ptr::from_ref);
        futex(word, FUTEX_WAIT_PRIVATE, seen, ts);
    }

    /// Wakes every thread asleep on `word`.
    pub(super) fn wake_all(word: &AtomicU32) {
        futex(word, FUTEX_WAKE_PRIVATE, i32::MAX as u32, std::ptr::null());
    }
}

/// Without a futex: nap and let the caller re-check. Nobody sleeps past
/// `NAP`, so there is nobody to wake.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    const NAP: Duration = Duration::from_micros(50);

    pub(super) fn wait(word: &AtomicU32, seen: u32, timeout: Option<Duration>) {
        if word.load(Ordering::SeqCst) == seen {
            std::thread::sleep(timeout.map_or(NAP, |t| t.min(NAP)));
        }
    }

    pub(super) fn wake_all(_word: &AtomicU32) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    /// `n` threads asleep until `flag` is set, and the call back to run
    /// once all of them are registered.
    fn with_sleepers(ec: &EventCount, flag: &AtomicBool, n: u32, then: impl FnOnce()) {
        std::thread::scope(|s| {
            let sleepers: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        ec.sleep_until(|| {
                            if flag.load(Ordering::SeqCst) {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(None)
                            }
                        })
                    })
                })
                .collect();
            while ec.waiters() < n {
                std::thread::yield_now();
            }
            // A wake without the condition is absorbed.
            ec.notify_all();
            assert!(sleepers.iter().all(|t| !t.is_finished()));
            then();
        });
        assert_eq!(ec.waiters(), 0, "every exit deregisters");
    }

    #[test]
    fn notify_all_wakes_a_sleeping_thread() {
        let (ec, flag) = (EventCount::default(), AtomicBool::new(false));
        with_sleepers(&ec, &flag, 1, || {
            flag.store(true, Ordering::SeqCst);
            ec.notify_all();
        });
    }

    #[test]
    fn notify_if_waiters_wakes_only_when_a_waiter_is_advertised() {
        let (ec, flag) = (EventCount::default(), AtomicBool::new(false));
        assert!(!ec.notify_if_waiters(), "nobody waits: the wake is elided");
        assert_eq!(ec.wake_seq.load(Ordering::SeqCst), 0, "and costs no bump");
        // Several sleepers on one word: one notify reaches them all.
        with_sleepers(&ec, &flag, 3, || {
            flag.store(true, Ordering::SeqCst);
            // Elided only if the last of them just left on its own.
            assert!(ec.notify_if_waiters() || ec.waiters() == 0);
        });
    }

    #[test]
    fn a_timed_sleep_returns_without_a_wake() {
        let (ec, t0, nap) = (
            EventCount::default(),
            Instant::now(),
            Duration::from_millis(5),
        );
        let ((), sleeps) = ec.sleep_until(|| match nap.saturating_sub(t0.elapsed()) {
            Duration::ZERO => ControlFlow::Break(()),
            left => ControlFlow::Continue(Some(left)),
        });
        assert!(sleeps >= 1 && t0.elapsed() >= nap);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the timeout was honoured"
        );
    }
}
