//! Shared measurement plumbing: run one (graph, mapping, kernel) triple on
//! each runtime and hand the efficiency decomposition its quadruple.

use std::time::Duration;

use rio_centralized::CentralConfig;
use rio_core::{RioConfig, WaitStrategy};
use rio_metrics::CumulativeTimes;
use rio_stf::{Mapping, TaskGraph, WorkerId};
use rio_workloads::counter::counter_kernel;

/// Parameters shared by all measurements of one experiment point.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Threads for both models. RIO runs `threads` workers; the
    /// centralized runtime runs `threads` total (1 master +
    /// `threads - 1` workers), matching the paper's "p threads" accounting.
    pub threads: usize,
    /// Synthetic task size (counter iterations).
    pub task_size: u64,
    /// Repetitions; the minimum wall time is kept (standard
    /// noise-rejection for throughput-style measurements).
    pub reps: usize,
}

impl RunSpec {
    /// A spec with the given threads and task size, 3 repetitions.
    pub fn new(threads: usize, task_size: u64) -> RunSpec {
        RunSpec {
            threads,
            task_size,
            reps: 3,
        }
    }
}

/// Sequential reference `t(g)`: the whole flow on one thread, no runtime.
pub fn measure_sequential(spec: &RunSpec, graph: &TaskGraph) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..spec.reps {
        let r = rio_stf::sequential::run_graph(graph, |_| counter_kernel(spec.task_size));
        best = best.min(r.elapsed);
    }
    best
}

/// One RIO run (decentralized in-order, Park waits): returns the
/// decomposition quadruple of the best-of-`reps` run.
pub fn measure_rio<M: Mapping>(spec: &RunSpec, graph: &TaskGraph, mapping: &M) -> CumulativeTimes {
    let cfg = RioConfig::with_workers(spec.threads)
        .wait(WaitStrategy::Park)
        .measure_time(true);
    let mut best: Option<CumulativeTimes> = None;
    for _ in 0..spec.reps {
        let report = rio_core::Executor::new(cfg.clone())
            .mapping(mapping)
            .run(graph, |_: WorkerId, _| counter_kernel(spec.task_size))
            .report;
        let t = CumulativeTimes {
            threads: spec.threads,
            wall: report.wall,
            task: report.cumulative_task_time(),
            idle: report.cumulative_idle_time(),
        };
        if best.is_none_or(|b| t.wall < b.wall) {
            best = Some(t);
        }
    }
    best.unwrap()
}

/// One centralized out-of-order run: same accounting, master included in
/// `threads`.
pub fn measure_centralized(spec: &RunSpec, graph: &TaskGraph) -> CumulativeTimes {
    let cfg = CentralConfig::with_threads(spec.threads.max(2)).measure_time(true);
    let mut best: Option<CumulativeTimes> = None;
    for _ in 0..spec.reps {
        let report =
            rio_centralized::execute_graph(&cfg, graph, |_, _| counter_kernel(spec.task_size));
        let t = CumulativeTimes {
            threads: report.num_threads(),
            wall: report.wall,
            task: report.cumulative_task_time(),
            idle: report.cumulative_idle_time(),
        };
        if best.is_none_or(|b| t.wall < b.wall) {
            best = Some(t);
        }
    }
    best.unwrap()
}

/// Formats a duration compactly for table cells.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3}µs", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::RoundRobin;

    fn tiny_graph() -> TaskGraph {
        rio_workloads::independent::graph(64)
    }

    #[test]
    fn sequential_measurement_is_positive() {
        let spec = RunSpec {
            threads: 2,
            task_size: 100,
            reps: 1,
        };
        let d = measure_sequential(&spec, &tiny_graph());
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn rio_measurement_produces_consistent_quadruple() {
        let spec = RunSpec {
            threads: 2,
            task_size: 50,
            reps: 1,
        };
        let t = measure_rio(&spec, &tiny_graph(), &RoundRobin);
        assert_eq!(t.threads, 2);
        assert!(t.wall > Duration::ZERO);
        assert!(t.task <= t.total() + Duration::from_millis(5));
    }

    #[test]
    fn centralized_measurement_counts_the_master() {
        let spec = RunSpec {
            threads: 3,
            task_size: 50,
            reps: 1,
        };
        let t = measure_centralized(&spec, &tiny_graph());
        assert_eq!(t.threads, 3, "p includes the master");
    }

    #[test]
    fn fmt_dur_scales() {
        assert_eq!(fmt_dur(Duration::from_secs(2)), "2.000s");
        assert_eq!(fmt_dur(Duration::from_millis(5)), "5.000ms");
        assert_eq!(fmt_dur(Duration::from_micros(7)), "7.000µs");
        assert_eq!(fmt_dur(Duration::from_nanos(30)), "30ns");
    }
}
