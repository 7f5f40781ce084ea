//! Runtime configuration.

use std::sync::Arc;
use std::time::Duration;

use crate::counters::CounterRegistry;
use crate::wait::WaitStrategy;
use rio_trace::TraceConfig;

/// Graceful-degradation policy: retry failed task bodies, then
/// **skip-but-sync** on exhaustion.
///
/// With a policy installed ([`RioConfig::recovery`]), a panicking kernel
/// no longer aborts the whole run. The owning worker re-runs the body up
/// to [`max_retries`](RecoveryPolicy::max_retries) times with capped
/// exponential backoff between attempts; if every attempt fails (or the
/// per-task [`deadline`](RecoveryPolicy::deadline) expires first) the
/// task is *skipped but synced*: its `terminate_*` protocol effects still
/// run — so no downstream worker ever stalls — while its written data is
/// marked poisoned in a sideband bitmap. Dependents that acquire a
/// poisoned datum skip their own kernel, poison their own writes, and
/// keep advancing epochs. The run then returns
/// [`RunOutcome::Degraded`](crate::executor::RunOutcome::Degraded) with a
/// [`rio_stf::PartialReport`] naming the failed tasks, the poisoned cone
/// and the skipped dependents; every store outside the cone holds its
/// fault-free value.
///
/// Retried kernels must be **idempotent up to their declared writes**: a
/// retry re-runs the whole body, so partial writes from a failed attempt
/// are overwritten only if the body rewrites them. See DESIGN.md §13.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Re-attempts after the first failure (0 = fail straight to
    /// skip-but-sync). Default 3.
    pub max_retries: u32,
    /// Sleep before the first retry. Default 100µs.
    pub backoff: Duration,
    /// Multiplier applied to the backoff after each failed retry
    /// (capped by [`max_backoff`](RecoveryPolicy::max_backoff)).
    /// Default 2.
    pub backoff_multiplier: u32,
    /// Upper bound on any single backoff sleep. Default 10ms.
    pub max_backoff: Duration,
    /// Per-task deadline across *all* attempts and backoff sleeps; when
    /// it expires the task fails with
    /// [`rio_stf::FailureDetail::TaskTimedOut`] without using the rest of
    /// its retry budget. `None` (default): attempts alone bound the task.
    pub deadline: Option<Duration>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff: Duration::from_micros(100),
            backoff_multiplier: 2,
            max_backoff: Duration::from_millis(10),
            deadline: None,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that never retries: every failure goes straight to
    /// skip-but-sync (useful when the kernels are known non-idempotent).
    pub fn no_retries() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        }
    }

    /// Sets the retry budget (builder style).
    pub fn max_retries(mut self, n: u32) -> RecoveryPolicy {
        self.max_retries = n;
        self
    }

    /// Sets the initial backoff (builder style).
    pub fn backoff(mut self, d: Duration) -> RecoveryPolicy {
        self.backoff = d;
        self
    }

    /// Sets the backoff cap (builder style).
    pub fn max_backoff(mut self, d: Duration) -> RecoveryPolicy {
        self.max_backoff = d;
        self
    }

    /// Sets the per-task deadline (builder style).
    pub fn deadline(mut self, d: Duration) -> RecoveryPolicy {
        self.deadline = Some(d);
        self
    }

    /// The backoff sleep before retry number `attempt` (1-based), i.e.
    /// `backoff * multiplier^(attempt-1)` capped at `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let mut d = self.backoff;
        for _ in 1..attempt {
            d = d.saturating_mul(self.backoff_multiplier);
            if d >= self.max_backoff {
                return self.max_backoff;
            }
        }
        d.min(self.max_backoff)
    }
}

/// Configuration of a RIO execution.
#[derive(Debug, Clone)]
pub struct RioConfig {
    /// Number of worker threads. All of them unroll the full flow; each
    /// executes only its mapped tasks. Must be ≥ 1.
    pub workers: usize,
    /// How `get_read`/`get_write` wait for dependencies.
    pub wait: WaitStrategy,
    /// Pure-spin polls inside `get_read`/`get_write` before a
    /// [`WaitStrategy::Park`] wait sleeps. Default: `None` — about one
    /// park's worth of polls when every worker has a hardware thread of
    /// its own, [`WaitStrategy::DEFAULT_SPIN_LIMIT`] when they share
    /// threads (see [`crate::wait`]).
    pub spin_limit: Option<u32>,
    /// Stall watchdog: when `Some(d)`, a worker blocked in a `get_*` for
    /// longer than `d` (past its spin phase) aborts the run with
    /// [`rio_stf::ExecError::Stalled`], carrying a diagnostic dump of the
    /// blocked data object's counters and every worker's progress. `None`
    /// (the default): waits are unbounded, as the protocol assumes a
    /// correct mapping.
    pub watchdog: Option<Duration>,
    /// Fault-injection hook consulted around every task body (testing
    /// only; the field exists only with the `fault-inject` cargo feature).
    #[cfg(feature = "fault-inject")]
    pub fault_hook: Option<rio_stf::HookHandle>,
    /// When `true`, workers timestamp task execution and waiting so the
    /// report can feed the efficiency decomposition (`rio-metrics`). Costs
    /// two monotonic-clock reads per executed task plus two per *blocking*
    /// wait — a `get_*` whose first probe finds its guard open reads no
    /// clock. Off by default, like `trace`: on an empty task the two body
    /// reads alone cost several times the protocol itself. With it off the
    /// reports' `task_time` and `idle_time` stay zero (`loop_time` and
    /// `wall` are always measured).
    pub measure_time: bool,
    /// When `Some`, every worker records task, wait and park events into a
    /// worker-private ring buffer (`rio-trace`); the assembled trace is
    /// returned on the report, where `Trace::audit` checks the run's task
    /// spans against the STF semantics, and whoever holds it exports it
    /// (`Trace::write_chrome`). `None` (the default) records nothing.
    pub trace: Option<TraceConfig>,
    /// Always-on protocol counters ([`crate::counters`]): per-worker
    /// cache-line-padded `Relaxed` atomics counting tasks,
    /// epoch-guard spins, parks, elided wakes and aborts. On by default —
    /// the increments cost a few nanoseconds per event on a worker-owned
    /// line (gated <1% on the fig7 row by `repro counters`).
    /// Disable only for peak-overhead measurements.
    pub counters: bool,
    /// Always-on flight recorder ([`crate::flight`]): a tiny fixed-size
    /// per-worker ring of recent protocol events (task start/end, park,
    /// poison, abort, retry), dumped into
    /// [`rio_stf::StallDiagnostic`] and [`rio_stf::PartialReport`] as a
    /// postmortem bundle when a run stalls or degrades. On by default —
    /// recording is a few relaxed stores per event on a worker-owned
    /// cache line (`repro counters --assert-overhead` gates the shipped
    /// default, counters and flight on, at 2% over both off).
    pub flight: bool,
    /// Graceful-degradation policy ([`RecoveryPolicy`]): retry failed
    /// task bodies with backoff, then skip-but-sync into a
    /// [`rio_stf::PartialReport`]. `None` (the default) keeps the PR 2
    /// abort semantics: the first panic aborts the whole run. The
    /// disabled cost is one branch per executed task (gated <1% by
    /// `repro faults`).
    pub recovery: Option<RecoveryPolicy>,
    /// External [`CounterRegistry`] for the run to publish into, enabling
    /// mid-run sampling from a monitoring thread. `None` (the default):
    /// each run allocates its own registry and attaches the final snapshot
    /// to the [`crate::ExecReport`]. Must have at least
    /// [`RioConfig::workers`] slots. Ignored when `counters` is `false`.
    pub counter_registry: Option<Arc<CounterRegistry>>,
}

impl RioConfig {
    /// A configuration with `workers` threads and defaults elsewhere.
    pub fn with_workers(workers: usize) -> RioConfig {
        RioConfig {
            workers,
            ..RioConfig::default()
        }
    }

    /// Sets the wait strategy (builder style).
    pub fn wait(mut self, wait: WaitStrategy) -> RioConfig {
        self.wait = wait;
        self
    }

    /// Sets the pure-spin poll budget (builder style).
    pub fn spin_limit(mut self, polls: u32) -> RioConfig {
        self.spin_limit = Some(polls);
        self
    }

    /// The pure-spin polls this run's waits get: the explicit
    /// [`RioConfig::spin_limit`], or the default sized for this machine
    /// and worker count.
    pub(crate) fn spin_polls(&self) -> u32 {
        self.spin_limit
            .unwrap_or_else(|| crate::wait::default_spin_limit(self.workers))
    }

    /// Arms the stall watchdog with the given deadline (builder style).
    pub fn watchdog(mut self, deadline: Duration) -> RioConfig {
        self.watchdog = Some(deadline);
        self
    }

    /// Installs a fault-injection hook (builder style; `fault-inject`
    /// feature only).
    #[cfg(feature = "fault-inject")]
    pub fn fault_hook(mut self, hook: rio_stf::HookHandle) -> RioConfig {
        self.fault_hook = Some(hook);
        self
    }

    /// Enables/disables time measurement (builder style).
    pub fn measure_time(mut self, on: bool) -> RioConfig {
        self.measure_time = on;
        self
    }

    /// Enables event tracing with the given configuration (builder style).
    pub fn trace(mut self, trace: TraceConfig) -> RioConfig {
        self.trace = Some(trace);
        self
    }

    /// Enables/disables the always-on counters (builder style).
    pub fn counters(mut self, on: bool) -> RioConfig {
        self.counters = on;
        self
    }

    /// Enables/disables the always-on flight recorder (builder style).
    pub fn flight(mut self, on: bool) -> RioConfig {
        self.flight = on;
        self
    }

    /// Installs a graceful-degradation policy (builder style). See
    /// [`RecoveryPolicy`].
    pub fn recovery(mut self, policy: RecoveryPolicy) -> RioConfig {
        self.recovery = Some(policy);
        self
    }

    /// Publishes this run's counters into an externally owned registry so
    /// another thread can sample them mid-run (builder style).
    pub fn counter_registry(mut self, registry: Arc<CounterRegistry>) -> RioConfig {
        self.counter_registry = Some(registry);
        self
    }

    /// Panics on nonsensical configurations.
    pub fn validate(&self) {
        assert!(self.workers >= 1, "RIO needs at least one worker");
        if let Some(d) = self.watchdog {
            assert!(!d.is_zero(), "watchdog deadline must be nonzero");
        }
        if let Some(r) = &self.recovery {
            assert!(
                r.backoff_multiplier >= 1,
                "backoff multiplier must be at least 1"
            );
            if let Some(d) = r.deadline {
                assert!(!d.is_zero(), "recovery deadline must be nonzero");
            }
        }
    }
}

impl Default for RioConfig {
    fn default() -> Self {
        RioConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            wait: WaitStrategy::default(),
            spin_limit: None,
            watchdog: None,
            #[cfg(feature = "fault-inject")]
            fault_hook: None,
            measure_time: false,
            trace: None,
            counters: true,
            flight: true,
            recovery: None,
            counter_registry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_workers_sets_count() {
        let c = RioConfig::with_workers(4);
        assert_eq!(c.workers, 4);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        RioConfig::with_workers(0).validate();
    }

    #[test]
    fn builder_style() {
        let c = RioConfig::with_workers(2)
            .wait(WaitStrategy::Spin)
            .measure_time(true);
        assert_eq!(c.wait, WaitStrategy::Spin);
        assert!(c.measure_time);
    }

    #[test]
    fn default_uses_available_parallelism() {
        let c = RioConfig::default();
        assert!(c.workers >= 1);
        assert!(c.trace.is_none(), "tracing is opt-in");
        assert!(c.watchdog.is_none(), "watchdog is opt-in");
        assert_eq!(c.spin_limit, None, "sized per run, not a constant");
    }

    #[test]
    fn robustness_knobs_build() {
        let c = RioConfig::with_workers(2)
            .spin_limit(8)
            .watchdog(Duration::from_millis(100));
        assert_eq!(c.spin_limit, Some(8));
        assert_eq!(c.spin_polls(), 8, "explicit budgets override the default");
        assert_eq!(RioConfig::with_workers(2).spin_limit(0).spin_polls(), 0);
        let shared_threads = RioConfig::with_workers(1 << 16).spin_polls();
        assert_eq!(shared_threads, WaitStrategy::DEFAULT_SPIN_LIMIT);
        assert_eq!(c.watchdog, Some(Duration::from_millis(100)));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "watchdog deadline must be nonzero")]
    fn zero_watchdog_rejected() {
        RioConfig::with_workers(1)
            .watchdog(Duration::ZERO)
            .validate();
    }

    #[test]
    fn trace_builder_sets_the_flag() {
        let c = RioConfig::with_workers(1).trace(TraceConfig::new());
        assert!(c.trace.is_some());
    }

    #[test]
    fn recovery_policy_defaults_and_backoff_schedule() {
        let c = RioConfig::with_workers(1);
        assert!(c.recovery.is_none(), "recovery is opt-in");
        let p = RecoveryPolicy::default();
        assert_eq!(p.max_retries, 3);
        assert_eq!(p.backoff_for(1), Duration::from_micros(100));
        assert_eq!(p.backoff_for(2), Duration::from_micros(200));
        assert_eq!(p.backoff_for(3), Duration::from_micros(400));
        // The schedule is capped.
        assert_eq!(p.backoff_for(30), p.max_backoff);
        assert_eq!(RecoveryPolicy::no_retries().max_retries, 0);
        let c = c.recovery(
            RecoveryPolicy::default()
                .max_retries(5)
                .backoff(Duration::from_micros(10))
                .max_backoff(Duration::from_millis(1))
                .deadline(Duration::from_secs(1)),
        );
        let p = c.recovery.as_ref().expect("policy installed");
        assert_eq!(p.max_retries, 5);
        assert_eq!(p.deadline, Some(Duration::from_secs(1)));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "recovery deadline must be nonzero")]
    fn zero_recovery_deadline_rejected() {
        RioConfig::with_workers(1)
            .recovery(RecoveryPolicy::default().deadline(Duration::ZERO))
            .validate();
    }

    #[test]
    fn counters_default_on_and_toggle() {
        let c = RioConfig::with_workers(1);
        assert!(c.counters, "counters are always-on by default");
        assert!(c.counter_registry.is_none());
        let c = c.counters(false);
        assert!(!c.counters);
        let c = RioConfig::with_workers(2).counter_registry(Arc::new(CounterRegistry::new(2)));
        assert!(c.counter_registry.is_some());
    }
}
