//! Execution reports: what a run did and where the time went.
//!
//! Reports are the bridge to the efficiency-decomposition methodology of
//! §2.3: per worker they provide the cumulative time spent *executing
//! tasks* (`τ_{p,t}` contribution), *idle waiting for dependencies*
//! (`τ_{p,i}`), and — by subtraction from the worker's total loop time —
//! the *runtime management* time (`τ_{p,r}`). They also count every
//! protocol operation, giving a clock-free view of per-task overhead that
//! is robust on oversubscribed machines.

use std::time::Duration;

use rio_stf::WorkerId;

use crate::counters::CountersSnapshot;
use crate::trace_api::{Trace, WorkerTrace};

/// Counts of protocol operations performed by one worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `declare_read`/`declare_write` calls (non-local tasks' accesses).
    pub declares: u64,
    /// Always zero: compiled programs once replayed foreign tasks as
    /// coalesced `Sync` deltas and counted them here; they now hold their
    /// own tasks only ([`crate::compile`]) and neither declare nor sync.
    /// Kept because the repository's benchmark reads it.
    pub syncs: u64,
    /// `get_read`/`get_write` calls (local tasks' accesses).
    pub gets: u64,
    /// `get_*` calls that had to wait at least one poll.
    pub waits: u64,
    /// Total polls across all waiting `get_*` calls.
    pub poll_loops: u64,
    /// `terminate_read`/`terminate_write` calls.
    pub terminates: u64,
}

impl OpCounts {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &OpCounts) {
        self.declares += other.declares;
        self.syncs += other.syncs;
        self.gets += other.gets;
        self.waits += other.waits;
        self.poll_loops += other.poll_loops;
        self.terminates += other.terminates;
    }
}

/// Per-worker outcome of a run.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// The worker.
    pub worker: WorkerId,
    /// Tasks this worker executed (mapped to it, claimed or stolen).
    pub tasks_executed: u64,
    /// Instructions of its program this worker reached: its own tasks,
    /// plus the claim-marked ones of a partial mapping (whether or not it
    /// won them), up to where an abort stopped it.
    pub tasks_visited: u64,
    /// Cumulative time inside task bodies (`τ_{p,t}` share). Zero unless
    /// `RioConfig::measure_time` was on.
    pub task_time: Duration,
    /// Cumulative time blocked in `get_*` (`τ_{p,i}` share): from the
    /// failed first probe of a get to its return. Zero unless
    /// `RioConfig::measure_time` was on — and, with it on, for a worker
    /// that never found a guard closed.
    pub idle_time: Duration,
    /// Total time of the worker's flow loop: first instruction to end of
    /// program. What the run cost outside the loops — set-up, launch,
    /// join — is `workers × wall − Σ loop_time`.
    pub loop_time: Duration,
    /// How far into the run this worker's loop began: what reaching it —
    /// a spin hand-off, a futex wake, on a set's first run a thread start
    /// — took. Worker 0, on the calling thread, shows the launch itself.
    pub launch_delay: Duration,
    /// Protocol operation counts.
    pub ops: OpCounts,
    /// This worker's event trace (`None` unless `RioConfig::trace` was
    /// set). Consumed by [`ExecReport::take_trace`]; the assembled trace
    /// audits the run (`Trace::audit`).
    pub trace: Option<WorkerTrace>,
}

impl WorkerReport {
    /// Time attributable to runtime management:
    /// `loop − task − idle` (`τ_{p,r}` share), saturating at zero.
    ///
    /// Only a management share when the run measured time
    /// (`RioConfig::measure_time`): with timing off, `task` and `idle`
    /// are zero and this is the whole `loop_time`, bodies and waits
    /// included.
    pub fn runtime_time(&self) -> Duration {
        self.loop_time
            .saturating_sub(self.task_time)
            .saturating_sub(self.idle_time)
    }
}

/// Outcome of a complete run.
#[derive(Debug, Clone, Default)]
pub struct ExecReport {
    /// Wall-clock duration of the whole run: from before the worker set's
    /// launch until every worker has left its share.
    pub wall: Duration,
    /// One report per worker.
    pub workers: Vec<WorkerReport>,
    /// Final sample of the always-on protocol counters
    /// ([`crate::counters`]); empty when `RioConfig::counters` was off.
    pub counters: CountersSnapshot,
}

impl ExecReport {
    /// Number of workers (`p`).
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Total tasks executed across workers.
    pub fn tasks_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_executed).sum()
    }

    /// Cumulative task time `τ_{p,t}` (sum over workers).
    pub fn cumulative_task_time(&self) -> Duration {
        self.workers.iter().map(|w| w.task_time).sum()
    }

    /// Cumulative idle time `τ_{p,i}` (sum over workers).
    pub fn cumulative_idle_time(&self) -> Duration {
        self.workers.iter().map(|w| w.idle_time).sum()
    }

    /// Cumulative runtime-management time `τ_{p,r}` (sum over workers).
    pub fn cumulative_runtime_time(&self) -> Duration {
        self.workers.iter().map(|w| w.runtime_time()).sum()
    }

    /// Cumulative total `τ_p = p · t_p`, computed from the wall clock.
    pub fn cumulative_total(&self) -> Duration {
        self.wall * self.num_workers() as u32
    }

    /// Merged protocol operation counts.
    pub fn total_ops(&self) -> OpCounts {
        let mut total = OpCounts::default();
        for w in &self.workers {
            total.merge(&w.ops);
        }
        total
    }

    /// Assembles and removes the per-worker traces recorded by a
    /// `RioConfig::trace` run. Returns `None` when tracing was off (or the
    /// trace was already taken).
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
            extra_threads: 0,
        })
    }
}

impl std::fmt::Display for ExecReport {
    /// Human-readable run summary: wall time plus one line per worker with
    /// its task/idle/runtime split and op counts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "RIO run: {} tasks on {} workers in {:?}",
            self.tasks_executed(),
            self.num_workers(),
            self.wall
        )?;
        // A run that measured time has some task time somewhere; without
        // it the task/idle/runtime split means nothing, so print dashes
        // rather than zeros and a "runtime" that is the whole loop.
        let timed = self
            .workers
            .iter()
            .any(|w| !w.task_time.is_zero() || !w.idle_time.is_zero());
        let split = |d: Duration| {
            if timed {
                format!("{d:?}")
            } else {
                "-".to_string()
            }
        };
        for w in &self.workers {
            writeln!(
                f,
                "  {}: {} tasks (visited {}), task {}, idle {}, runtime {}, loop {:?} \
                 (+{:?}), ops {{declares: {}, gets: {}, waits: {}, terminates: {}}}",
                w.worker,
                w.tasks_executed,
                w.tasks_visited,
                split(w.task_time),
                split(w.idle_time),
                split(w.runtime_time()),
                w.loop_time,
                w.launch_delay,
                w.ops.declares,
                w.ops.gets,
                w.ops.waits,
                w.ops.terminates,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wr(task_ms: u64, idle_ms: u64, loop_ms: u64) -> WorkerReport {
        WorkerReport {
            task_time: Duration::from_millis(task_ms),
            idle_time: Duration::from_millis(idle_ms),
            loop_time: Duration::from_millis(loop_ms),
            ..WorkerReport::default()
        }
    }

    #[test]
    fn runtime_time_is_the_remainder() {
        let w = wr(60, 25, 100);
        assert_eq!(w.runtime_time(), Duration::from_millis(15));
    }

    #[test]
    fn runtime_time_saturates() {
        let w = wr(80, 40, 100); // timer skew: components exceed loop
        assert_eq!(w.runtime_time(), Duration::ZERO);
    }

    #[test]
    fn cumulative_sums() {
        let r = ExecReport {
            wall: Duration::from_millis(100),
            workers: vec![wr(50, 10, 100), wr(70, 20, 100)],
            counters: Default::default(),
        };
        assert_eq!(r.cumulative_task_time(), Duration::from_millis(120));
        assert_eq!(r.cumulative_idle_time(), Duration::from_millis(30));
        assert_eq!(r.cumulative_runtime_time(), Duration::from_millis(50));
        assert_eq!(r.cumulative_total(), Duration::from_millis(200));
        assert_eq!(r.num_workers(), 2);
    }

    #[test]
    fn display_summarizes_the_run() {
        let r = ExecReport {
            wall: Duration::from_millis(5),
            workers: vec![wr(3, 1, 5)],
            counters: Default::default(),
        };
        let text = format!("{r}");
        assert!(text.contains("on 1 workers"));
        assert!(text.contains("W0:"));
        assert!(text.contains("task 3ms, idle 1ms, runtime 1ms, loop 5ms (+0ns)"));
    }

    #[test]
    fn display_dashes_the_split_of_an_untimed_run() {
        let r = ExecReport {
            wall: Duration::from_millis(5),
            workers: vec![wr(0, 0, 5)],
            counters: Default::default(),
        };
        let text = format!("{r}");
        assert!(
            text.contains("task -, idle -, runtime -, loop 5ms (+0ns)"),
            "{text}"
        );
    }

    #[test]
    fn op_counts_merge() {
        let mut a = OpCounts {
            declares: 1,
            syncs: 6,
            gets: 2,
            waits: 3,
            poll_loops: 4,
            terminates: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.declares, 2);
        assert_eq!(a.syncs, 12);
        assert_eq!(a.terminates, 10);
    }
}
