//! Wait strategies for the blocking `get_read` / `get_write` operations.
//!
//! The protocol's `get_*` routines "may require … potentially waiting for
//! other threads" (§3.4). *How* to wait is an execution-model knob with a
//! real performance trade-off, so it is configurable and benchmarked
//! (`bench/ablation`):
//!
//! * [`WaitStrategy::Spin`] — busy-poll with `spin_loop` hints. Lowest
//!   wake-up latency; burns a hardware thread while waiting. Only sensible
//!   when workers ≤ cores and waits are short.
//! * [`WaitStrategy::Park`] — spin, then sleep in the kernel on the data
//!   object's own futex event-count (`crate::futex`; the paper's
//!   prototype "uses mutexes for synchronization", ours keeps the per-data
//!   state one lock-free cache line). Zero CPU while asleep, which also
//!   makes idle time directly observable from CPU-time accounting,
//!   exactly like the paper's measurement methodology (§5.1).
//!
//! ## How long to spin first
//!
//! A `Park` wait starts with a pure-spin phase, and its length decides
//! what a fine-grained run costs: a park is ≈ 25 µs of idle for the
//! sleeper (`PARK_COST`) plus a syscall for its waker, while the producer
//! of a blocked `get_*` is typically one task — a few microseconds — from
//! publishing, and an in-order worker has, by construction, no other task
//! it may run meanwhile. So the default budget is *competitive* (Karlin
//! et al.): spin for as long as a park would cost, then park — never more
//! than twice the optimum, whichever way the wait turns out.
//! `default_spin_limit` turns that time into polls with a
//! once-per-process calibration of one poll (`spin_loop` + acquire load).
//! Oversubscription flips the argument — a spinner may sit on the core
//! its producer needs — so runs with more workers than hardware threads
//! keep the short [`WaitStrategy::DEFAULT_SPIN_LIMIT`]. Either default
//! yields to an explicit [`crate::RioConfig::spin_limit`] or
//! [`crate::protocol::WaitCx::spin_limit`] — zero included, which sleeps
//! at once. Strategy and budget are one pair per run, shared by every
//! worker, which is what lets a `terminate_*` under `Spin` skip the waiter
//! check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How a worker waits inside `get_read` / `get_write`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitStrategy {
    /// Pure busy-wait.
    Spin,
    /// Spin for about what a park costs, then sleep on the data object's
    /// event-count until a `terminate_*` (or an abort broadcast) wakes us.
    /// The default: the paper's choice, and the only strategy that stays
    /// live when workers outnumber hardware threads.
    #[default]
    Park,
}

impl WaitStrategy {
    /// The pure-spin polls a wait gets when spinning for a whole park
    /// would be wrong or nobody sized a budget for it: an oversubscribed
    /// run, a bare [`crate::protocol::WaitCx::new`].
    /// Override per run with [`crate::RioConfig::spin_limit`] or per wait
    /// with [`crate::protocol::WaitCx::spin_limit`].
    pub const DEFAULT_SPIN_LIMIT: u32 = 64;
}

/// What one park costs a worker inside a run, sleep to resumed — the
/// measured `idle / parks` of a fine-grained run (EXPERIMENTS.md "PR 18")
/// — and so how long the default spin phase lasts (module docs).
const PARK_COST: Duration = Duration::from_micros(25);

/// This process's hardware threads and the polls that fill [`PARK_COST`]
/// on them, measured once.
fn machine() -> (usize, u32) {
    static MACHINE: OnceLock<(usize, u32)> = OnceLock::new();
    *MACHINE.get_or_init(|| {
        // What the spin phase of `wait_loop` repeats: a `spin_loop` hint
        // and an acquire load. The fastest of a few short batches, so a
        // preemption in one of them does not shrink the budget.
        const BATCH: u32 = 256;
        let word = AtomicU64::new(0);
        let batch_ns = (0..4)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..BATCH {
                    std::hint::spin_loop();
                    std::hint::black_box(word.load(Ordering::Acquire));
                }
                t0.elapsed().as_nanos().max(1)
            })
            .min()
            .expect("four batches");
        let polls = PARK_COST.as_nanos() * u128::from(BATCH) / batch_ns;
        let floor = u128::from(WaitStrategy::DEFAULT_SPIN_LIMIT);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        (threads, polls.clamp(floor, 1 << 20) as u32)
    })
}

/// The pure-spin budget of a run of `workers` workers that did not set
/// one ([`crate::RioConfig::spin_limit`]): about one park's worth of polls
/// when every worker has a hardware thread of its own,
/// [`WaitStrategy::DEFAULT_SPIN_LIMIT`] when they share threads.
pub(crate) fn default_spin_limit(workers: usize) -> u32 {
    let (threads, polls) = machine();
    if workers <= threads {
        polls
    } else {
        WaitStrategy::DEFAULT_SPIN_LIMIT
    }
}

impl std::fmt::Display for WaitStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WaitStrategy::Spin => "spin",
            WaitStrategy::Park => "park",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_park() {
        assert_eq!(WaitStrategy::default(), WaitStrategy::Park);
    }

    #[test]
    fn the_default_budget_is_a_park_long_unless_oversubscribed() {
        let (threads, polls) = machine();
        assert_eq!(default_spin_limit(1), polls);
        assert_eq!(default_spin_limit(threads), polls, "a thread per worker");
        assert!(polls >= WaitStrategy::DEFAULT_SPIN_LIMIT);
        assert_eq!(
            default_spin_limit(threads + 1),
            WaitStrategy::DEFAULT_SPIN_LIMIT,
            "a spinner may hold its producer's core"
        );
        assert_eq!(machine(), (threads, polls), "calibrated once");
    }

    #[test]
    fn display_labels() {
        assert_eq!(WaitStrategy::Spin.to_string(), "spin");
        assert_eq!(WaitStrategy::Park.to_string(), "park");
    }
}
