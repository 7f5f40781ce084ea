//! Configuration of the centralized runtime.

use std::time::Duration;

use rio_trace::TraceConfig;

/// Configuration of a centralized out-of-order execution.
///
/// There is one scheduler, StarPU-`lws`-style local work stealing: the
/// master queues ready tasks centrally; a task released by a worker's
/// completion goes to that worker's own LIFO deque (the successor likely
/// touches the data just produced); idle workers take from the central
/// queue, then steal FIFO from peers.
#[derive(Debug, Clone)]
pub struct CentralConfig {
    /// Total thread count **including the dedicated master**. With
    /// `threads = p`, `p - 1` workers execute tasks — hence the
    /// `(p-1)/p` runtime-efficiency cap of the execution model.
    pub threads: usize,
    /// Maximum number of in-flight (submitted, not yet executed) tasks
    /// before the master throttles submission. Bounds task storage, like
    /// StarPU's submission window. `None` = unbounded.
    pub window: Option<usize>,
    /// Stall watchdog: when `Some(d)`, a pool worker idle for longer than
    /// `d` while the run is unfinished — or the master throttled on the
    /// submission window for longer than `d` — aborts the run with
    /// [`rio_stf::ExecError::Stalled`] instead of hanging. Pick a deadline
    /// larger than the longest kernel body: an idle pool is
    /// indistinguishable from a stalled one while a long body runs.
    /// `None` (the default): waits are unbounded.
    pub watchdog: Option<Duration>,
    /// Fault-injection hook consulted around every task body (testing
    /// only; the field exists only with the `fault-inject` cargo feature).
    #[cfg(feature = "fault-inject")]
    pub fault_hook: Option<rio_stf::HookHandle>,
    /// When `true`, workers timestamp task execution and idleness for the
    /// efficiency decomposition: two clock reads per executed task plus
    /// two per park that actually blocks. Off by default, like
    /// `rio_core::RioConfig::measure_time`, so cross-runtime rows compare
    /// like with like.
    pub measure_time: bool,
    /// When `Some`, pool workers record task/park events into per-worker
    /// ring buffers (`rio-trace`), retrievable with
    /// [`crate::CentralReport::take_trace`]; `Trace::audit` checks the
    /// run's task spans against the STF semantics.
    pub trace: Option<TraceConfig>,
}

impl CentralConfig {
    /// A configuration with `threads` total threads and defaults elsewhere.
    pub fn with_threads(threads: usize) -> CentralConfig {
        CentralConfig {
            threads,
            ..CentralConfig::default()
        }
    }

    /// Sets the submission window (builder style).
    pub fn window(mut self, window: Option<usize>) -> CentralConfig {
        self.window = window;
        self
    }

    /// Arms the stall watchdog with the given deadline (builder style).
    pub fn watchdog(mut self, deadline: Duration) -> CentralConfig {
        self.watchdog = Some(deadline);
        self
    }

    /// Installs a fault-injection hook (builder style; `fault-inject`
    /// feature only).
    #[cfg(feature = "fault-inject")]
    pub fn fault_hook(mut self, hook: rio_stf::HookHandle) -> CentralConfig {
        self.fault_hook = Some(hook);
        self
    }

    /// Enables/disables time measurement (builder style).
    pub fn measure_time(mut self, on: bool) -> CentralConfig {
        self.measure_time = on;
        self
    }

    /// Enables event tracing for the run (builder style).
    pub fn trace(mut self, trace: TraceConfig) -> CentralConfig {
        self.trace = Some(trace);
        self
    }

    /// Number of task-executing workers.
    pub fn num_workers(&self) -> usize {
        self.threads.saturating_sub(1).max(1)
    }

    /// Panics on nonsensical configurations.
    pub fn validate(&self) {
        assert!(
            self.threads >= 2,
            "the centralized model needs at least 2 threads (1 master + 1 worker)"
        );
        if let Some(w) = self.window {
            assert!(w >= 1, "submission window must be at least 1");
        }
        if let Some(d) = self.watchdog {
            assert!(!d.is_zero(), "watchdog deadline must be nonzero");
        }
    }
}

impl Default for CentralConfig {
    fn default() -> Self {
        CentralConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get().max(2))
                .unwrap_or(2),
            window: None,
            watchdog: None,
            #[cfg(feature = "fault-inject")]
            fault_hook: None,
            measure_time: false,
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_exclude_the_master() {
        assert_eq!(CentralConfig::with_threads(4).num_workers(), 3);
        assert_eq!(CentralConfig::with_threads(2).num_workers(), 1);
    }

    #[test]
    #[should_panic(expected = "at least 2 threads")]
    fn one_thread_is_rejected() {
        CentralConfig::with_threads(1).validate();
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_is_rejected() {
        CentralConfig::with_threads(2).window(Some(0)).validate();
    }

    #[test]
    fn builder_style() {
        let c = CentralConfig::with_threads(3)
            .window(Some(128))
            .measure_time(true);
        assert_eq!(c.window, Some(128));
        assert!(c.measure_time);
        c.validate();
    }

    #[test]
    fn watchdog_builder_sets_the_deadline() {
        let c = CentralConfig::with_threads(2).watchdog(Duration::from_millis(250));
        assert_eq!(c.watchdog, Some(Duration::from_millis(250)));
        c.validate();
        assert!(CentralConfig::default().watchdog.is_none());
    }

    #[test]
    #[should_panic(expected = "watchdog deadline must be nonzero")]
    fn zero_watchdog_is_rejected() {
        CentralConfig::with_threads(2)
            .watchdog(Duration::ZERO)
            .validate();
    }
}
