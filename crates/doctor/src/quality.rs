//! Mapping-quality analysis and the greedy suggested remap.

use rio_stf::deps::DepGraph;
use rio_stf::{DataId, Mapping, TaskGraph, TaskId, WorkerId};
use rio_trace::Trace;

/// One worker's time split over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerLoad {
    /// The worker id.
    pub worker: u32,
    /// Tasks executed.
    pub tasks: u64,
    /// Time in task bodies, ns.
    pub busy_ns: u64,
    /// Time blocked in data waits, ns.
    pub wait_ns: u64,
    /// Idle time outside data waits (scheduler parks), ns.
    pub park_ns: u64,
}

impl WorkerLoad {
    /// Total non-working time, ns.
    pub fn idle_ns(&self) -> u64 {
        self.wait_ns + self.park_ns
    }
}

/// How well the static mapping fits the DAG.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MappingQuality {
    /// Per-worker time split, one row per worker of the run.
    pub per_worker: Vec<WorkerLoad>,
    /// Max busy time over mean busy time; 1.0 is a perfect balance, and
    /// `w` means one worker carried the whole run alone.
    pub imbalance: f64,
    /// Dependency edges whose endpoints map to different workers.
    pub cross_edges: u64,
    /// All dependency edges (same per-access convention as
    /// `TaskGraph::stats`).
    pub total_edges: u64,
    /// Cross-worker edge count per data object, descending; objects with
    /// no cross-worker edges are omitted.
    pub cross_per_data: Vec<(DataId, u64)>,
}

/// Computes the mapping-quality report for one run.
pub fn mapping_quality(
    graph: &TaskGraph,
    mapping: &dyn Mapping,
    workers: usize,
    trace: &Trace,
) -> MappingQuality {
    // Per-worker loads: one row per worker of the run, filled from the
    // trace where a worker recorded anything.
    let mut per_worker: Vec<WorkerLoad> = (0..workers)
        .map(|w| WorkerLoad {
            worker: w as u32,
            ..WorkerLoad::default()
        })
        .collect();
    for w in &trace.workers {
        if let Some(row) = per_worker.get_mut(w.worker as usize) {
            row.tasks = w.tasks;
            row.busy_ns = w.task_ns;
            row.wait_ns = w.wait_ns;
            row.park_ns = w.park_ns;
        }
    }
    let busy_total: u64 = per_worker.iter().map(|w| w.busy_ns).sum();
    let busy_max: u64 = per_worker.iter().map(|w| w.busy_ns).max().unwrap_or(0);
    let mean = busy_total as f64 / workers.max(1) as f64;
    let imbalance = if mean > 0.0 {
        busy_max as f64 / mean
    } else {
        1.0
    };

    // Cross-worker dependency edges, attributed to the data object that
    // carries each hazard (same sweep as the dependency derivation).
    let owner = |t: TaskId| -> WorkerId { mapping.worker_of(t, workers) };
    let mut last_writer: Vec<Option<TaskId>> = vec![None; graph.num_data()];
    let mut readers_since: Vec<Vec<TaskId>> = vec![Vec::new(); graph.num_data()];
    let mut cross: Vec<u64> = vec![0; graph.num_data()];
    let mut cross_edges = 0u64;
    let mut total_edges = 0u64;
    for t in graph.tasks() {
        let w_t = owner(t.id);
        for a in &t.accesses {
            let s = a.data.index();
            if let Some(wr) = last_writer[s] {
                total_edges += 1;
                let w_p = owner(wr);
                if w_p != w_t {
                    cross[s] += 1;
                    cross_edges += 1;
                }
            }
            if a.mode.writes() {
                // Skip the reader that is also the epoch's writer (a
                // read-write access) — its edge was counted above.
                for &r in readers_since[s]
                    .iter()
                    .filter(|r| Some(**r) != last_writer[s])
                {
                    total_edges += 1;
                    let w_r = owner(r);
                    if w_r != w_t {
                        cross[s] += 1;
                        cross_edges += 1;
                    }
                }
            }
        }
        for a in &t.accesses {
            let s = a.data.index();
            if a.mode.writes() {
                last_writer[s] = Some(t.id);
                readers_since[s].clear();
            }
            if a.mode.reads() {
                readers_since[s].push(t.id);
            }
        }
    }
    let mut cross_per_data: Vec<(DataId, u64)> = cross
        .into_iter()
        .enumerate()
        .filter(|(_, c)| *c > 0)
        .map(|(i, c)| (DataId::from_index(i), c))
        .collect();
    cross_per_data.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));

    MappingQuality {
        per_worker,
        imbalance,
        cross_edges,
        total_edges,
        cross_per_data,
    }
}

/// Greedy earliest-finish remap over the measured durations.
///
/// Tasks are placed in flow order (a topological order of the DAG): each
/// task goes to the worker where it finishes earliest given its
/// predecessors' finish times, so critical-path tasks — which gate their
/// successors' ready times — are placed first by construction whenever
/// their chain is the longest one pending. Ties prefer the worker of the
/// latest-finishing predecessor (keeping dependency chains on one worker,
/// i.e. zero cross-worker latency on the critical path) and then the
/// least-loaded worker.
///
/// The result is a total `TaskId -> WorkerId` table; under the RIO
/// protocol any total mapping is deadlock-free, so feeding it back into a
/// run is always safe.
pub fn suggest_remap(deps: &DepGraph, dur_ns: &[u64], workers: usize) -> Vec<WorkerId> {
    let n = deps.len();
    let workers = workers.max(1);
    let mut free = vec![0u64; workers];
    let mut finish = vec![0u64; n];
    let mut assign = vec![WorkerId(0); n];
    for i in 0..n {
        let id = TaskId::from_index(i);
        let ready = deps
            .preds(id)
            .iter()
            .map(|p| finish[p.index()])
            .max()
            .unwrap_or(0);
        let affinity = deps
            .preds(id)
            .iter()
            .max_by_key(|p| finish[p.index()])
            .map(|p| assign[p.index()].index());
        let mut best = 0usize;
        let mut best_key = (u64::MAX, true, u64::MAX);
        for (w, &f) in free.iter().enumerate() {
            let start = f.max(ready);
            // Smaller start wins; then predecessor affinity; then the
            // least-loaded worker (load balance); then the lowest id.
            let key = (start, Some(w) != affinity, f);
            if key < best_key {
                best_key = key;
                best = w;
            }
        }
        let start = free[best].max(ready);
        finish[i] = start + dur_ns[i];
        free[best] = finish[i];
        assign[i] = WorkerId::from_index(best);
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::{Access, RoundRobin, TableMapping};
    use rio_trace::tracer::WorkerTrace;

    fn d(i: u32) -> DataId {
        DataId(i)
    }

    fn load(worker: u32, tasks: u64, busy: u64, wait: u64, park: u64) -> WorkerTrace {
        WorkerTrace {
            worker,
            tasks,
            task_ns: busy,
            wait_ns: wait,
            park_ns: park,
            ..WorkerTrace::default()
        }
    }

    #[test]
    fn per_worker_rows_and_imbalance() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..4 {
            b.task(&[], 1, "ind");
        }
        let g = b.build();
        let trace = Trace {
            wall_ns: 100,
            workers: vec![load(0, 3, 90, 5, 0), load(1, 1, 30, 0, 60)],
            extra_threads: 0,
        };
        let q = mapping_quality(&g, &RoundRobin, 2, &trace);
        assert_eq!(q.per_worker.len(), 2);
        assert_eq!(q.per_worker[0].busy_ns, 90);
        assert_eq!(q.per_worker[1].idle_ns(), 60);
        // mean busy = 60, max = 90 -> 1.5.
        assert!((q.imbalance - 1.5).abs() < 1e-9);
        assert_eq!(q.cross_edges, 0);
    }

    #[test]
    fn cross_worker_edges_follow_the_mapping() {
        // Chain T1 -> T2 -> T3 through d0.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(d(0))], 1, "w");
        b.task(&[Access::read_write(d(0))], 1, "rw");
        b.task(&[Access::read_write(d(0))], 1, "rw");
        let g = b.build();
        // Round-robin over 2 workers cuts both edges.
        let q = mapping_quality(&g, &RoundRobin, 2, &Trace::default());
        assert_eq!(q.total_edges, 2);
        assert_eq!(q.cross_edges, 2);
        assert_eq!(q.cross_per_data, vec![(d(0), 2)]);
        // Everything on one worker cuts none.
        let one = TableMapping::from_fn(3, |_| WorkerId(0));
        let q = mapping_quality(&g, &one, 2, &Trace::default());
        assert_eq!(q.cross_edges, 0);
        assert!(q.cross_per_data.is_empty());
    }

    #[test]
    fn remap_keeps_chains_on_one_worker() {
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(d(0))], 1, "w");
        b.task(&[Access::read_write(d(0))], 1, "rw");
        b.task(&[Access::read_write(d(0))], 1, "rw");
        let deps = DepGraph::derive(&b.build());
        let table = suggest_remap(&deps, &[100, 100, 100], 2);
        assert_eq!(table[0], table[1]);
        assert_eq!(table[1], table[2]);
    }

    #[test]
    fn remap_balances_independent_tasks() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..8 {
            b.task(&[], 1, "ind");
        }
        let deps = DepGraph::derive(&b.build());
        let table = suggest_remap(&deps, &[100; 8], 4);
        let m = TableMapping::new(table);
        assert_eq!(m.load(4), vec![2, 2, 2, 2]);
    }

    #[test]
    fn remap_shortens_a_skewed_schedule() {
        // Two independent chains; a bad mapping serializes them on one
        // worker, the remap should put them on different workers. Check
        // via simulated makespan of the remap's ETF schedule.
        let mut b = TaskGraph::builder(2);
        for _ in 0..4 {
            b.task(&[Access::read_write(d(0))], 1, "a");
        }
        for _ in 0..4 {
            b.task(&[Access::read_write(d(1))], 1, "b");
        }
        let deps = DepGraph::derive(&b.build());
        let dur = [100u64; 8];
        let table = suggest_remap(&deps, &dur, 2);
        // Each chain entirely on its own worker.
        let first = &table[0..4];
        let second = &table[4..8];
        assert!(first.iter().all(|w| *w == first[0]));
        assert!(second.iter().all(|w| *w == second[0]));
        assert_ne!(first[0], second[0]);
    }

    #[test]
    fn remap_handles_zero_workers_gracefully() {
        let deps = DepGraph::derive(&TaskGraph::builder(0).build());
        assert!(suggest_remap(&deps, &[], 0).is_empty());
    }
}
