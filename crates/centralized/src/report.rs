//! Execution reports of the centralized runtime.
//!
//! Mirrors `rio-core`'s report shape so the benchmark harness can feed
//! both runtimes into the same efficiency decomposition. One structural
//! difference: the **master thread** appears separately — its entire loop
//! is runtime-management time (`τ_{p,r}`), which is what caps the model's
//! runtime efficiency at `(p-1)/p`.

use std::time::Duration;

use rio_trace::{Trace, WorkerTrace};

/// What the master thread did.
#[derive(Debug, Clone, Default)]
pub struct MasterReport {
    /// Tasks unrolled and submitted.
    pub tasks_submitted: u64,
    /// Dependency edges discovered.
    pub edges: u64,
    /// Total master loop time (all of it is runtime management).
    pub loop_time: Duration,
    /// Time the master spent blocked on the submission window.
    pub throttle_time: Duration,
}

/// What one pool worker did.
#[derive(Debug, Clone, Default)]
pub struct PoolWorkerReport {
    /// Tasks executed.
    pub tasks_executed: u64,
    /// Cumulative time in task bodies.
    pub task_time: Duration,
    /// Cumulative time with no ready task available (idle).
    pub idle_time: Duration,
    /// Total worker loop time.
    pub loop_time: Duration,
    /// Successful steals from peers or the central queue.
    pub steals: u64,
    /// Per-worker event trace (`Some` iff `CentralConfig::trace` was set).
    pub trace: Option<WorkerTrace>,
}

impl PoolWorkerReport {
    /// Scheduler/queue overhead: `loop − task − idle`, saturating.
    pub fn runtime_time(&self) -> Duration {
        self.loop_time
            .saturating_sub(self.task_time)
            .saturating_sub(self.idle_time)
    }
}

/// Outcome of a centralized run.
#[derive(Debug, Clone, Default)]
pub struct CentralReport {
    /// Wall-clock duration (spawn to last join).
    pub wall: Duration,
    /// The master's report.
    pub master: MasterReport,
    /// One report per pool worker.
    pub workers: Vec<PoolWorkerReport>,
}

impl CentralReport {
    /// Total threads `p` (workers + master).
    pub fn num_threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Tasks executed across the pool.
    pub fn tasks_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_executed).sum()
    }

    /// Cumulative task time `τ_{p,t}`.
    pub fn cumulative_task_time(&self) -> Duration {
        self.workers.iter().map(|w| w.task_time).sum()
    }

    /// Cumulative idle time `τ_{p,i}` (workers only; the master is never
    /// "idle" in the model's sense — its waiting is management backpressure
    /// and counts as runtime time).
    pub fn cumulative_idle_time(&self) -> Duration {
        self.workers.iter().map(|w| w.idle_time).sum()
    }

    /// Cumulative runtime time `τ_{p,r}`: the whole master loop plus the
    /// workers' scheduling overhead.
    pub fn cumulative_runtime_time(&self) -> Duration {
        self.master.loop_time
            + self
                .workers
                .iter()
                .map(|w| w.runtime_time())
                .sum::<Duration>()
    }

    /// Cumulative total `τ_p = p · t_p` from the wall clock.
    pub fn cumulative_total(&self) -> Duration {
        self.wall * self.num_threads() as u32
    }

    /// Extracts the event trace recorded by the pool workers (once).
    ///
    /// Returns `None` when tracing was not enabled. The master thread
    /// records no events but counts toward the thread total, so the
    /// trace's `(p, t_p, τ_{p,t}, τ_{p,i})` quadruple carries
    /// `extra_threads = 1` — matching [`CentralReport::num_threads`].
    pub fn take_trace(&mut self) -> Option<Trace> {
        if self.workers.iter().all(|w| w.trace.is_none()) {
            return None;
        }
        Some(Trace {
            wall_ns: self.wall.as_nanos() as u64,
            workers: self
                .workers
                .iter_mut()
                .filter_map(|w| w.trace.take())
                .collect(),
            extra_threads: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn master_counts_entirely_as_runtime() {
        let r = CentralReport {
            wall: Duration::from_millis(100),
            master: MasterReport {
                loop_time: Duration::from_millis(90),
                ..MasterReport::default()
            },
            workers: vec![PoolWorkerReport {
                task_time: Duration::from_millis(70),
                idle_time: Duration::from_millis(10),
                loop_time: Duration::from_millis(100),
                ..PoolWorkerReport::default()
            }],
        };
        assert_eq!(r.num_threads(), 2);
        assert_eq!(r.cumulative_task_time(), Duration::from_millis(70));
        assert_eq!(r.cumulative_idle_time(), Duration::from_millis(10));
        // 90 (master) + 20 (worker overhead).
        assert_eq!(r.cumulative_runtime_time(), Duration::from_millis(110));
        assert_eq!(r.cumulative_total(), Duration::from_millis(200));
    }

    #[test]
    fn worker_runtime_saturates() {
        let w = PoolWorkerReport {
            task_time: Duration::from_millis(80),
            idle_time: Duration::from_millis(40),
            loop_time: Duration::from_millis(100),
            ..PoolWorkerReport::default()
        };
        assert_eq!(w.runtime_time(), Duration::ZERO);
    }
}
