//! Task pruning (paper §3.5).
//!
//! The main drawback of the decentralized model is that *every* worker
//! unrolls the *whole* flow, so management cost grows with total task
//! count even for perfectly independent work. Pruning lets each worker
//! walk only the relevant part of the flow.
//!
//! Correctness constraint: the protocol requires a worker's private state
//! for a data object to reflect the **complete** access history of that
//! object. A worker may therefore skip a task mapped elsewhere **only if
//! the task touches no data object the worker itself ever accesses**. This
//! module derives the largest such skip set automatically from the graph
//! and the mapping:
//!
//! 1. compute, per worker, the set of data objects accessed by its own
//!    tasks;
//! 2. worker `w` visits task `t` iff `t` is mapped to `w` *or* `t` touches
//!    a data object in `w`'s set.
//!
//! For the independent-task workload of Fig. 7 this reduces each worker's
//! walk to exactly its own tasks, removing the `O(n_total)` unrolling term
//! of cost model (2).

use rio_stf::{ExecError, Mapping, TaskDesc, TaskGraph, WorkerId};

use crate::config::RioConfig;
use crate::graph::worker_loop;
use crate::protocol::{AbortFlag, SharedDataState};
use crate::report::ExecReport;
use crate::status::StatusTable;

/// Statistics of a pruning pre-pass.
#[derive(Debug, Clone)]
pub struct PruneStats {
    /// For each worker, how many flow entries it will visit.
    pub visited_per_worker: Vec<usize>,
    /// Flow length (what each worker would visit without pruning).
    pub flow_len: usize,
}

impl PruneStats {
    /// Fraction of flow entries skipped, averaged over workers
    /// (0.0 = nothing pruned, → 1.0 = almost everything pruned).
    pub fn pruned_fraction(&self) -> f64 {
        if self.flow_len == 0 || self.visited_per_worker.is_empty() {
            return 0.0;
        }
        let visited: usize = self.visited_per_worker.iter().sum();
        let total = self.flow_len * self.visited_per_worker.len();
        1.0 - visited as f64 / total as f64
    }
}

/// Pass 1 of the pruning pre-pass: per-worker bitsets over data objects
/// — which data does each worker's own work touch? Returns `workers`
/// consecutive rows of `num_data.div_ceil(64)` words each. `owners[i]`
/// is the worker index the mapping assigns to flow index `i` (computed
/// once by the caller so the mapping is evaluated once per task, not
/// once per task per pass).
fn worker_data_bitsets(graph: &TaskGraph, owners: &[u32], workers: usize) -> Vec<u64> {
    let words = graph.num_data().div_ceil(64);
    let mut touched: Vec<u64> = vec![0; workers * words];
    for (t, &w) in graph.tasks().iter().zip(owners) {
        for a in &t.accesses {
            let d = a.data.index();
            touched[w as usize * words + d / 64] |= 1u64 << (d % 64);
        }
    }
    touched
}

/// Computes each worker's visit list (flow indices, ascending order).
///
/// Exposed separately so callers can amortize the pre-pass over repeated
/// executions of the same (graph, mapping) pair.
///
/// Cost: O(tasks × accesses × workers/64). The naive formulation of
/// pass 2 — for every task, for every worker, scan the task's accesses
/// against the worker's bitset — is O(workers × tasks × accesses) and
/// dominated the pre-pass at high worker counts; instead the per-worker
/// data bitsets are inverted once into per-*data* worker bitsets, so
/// each task ORs one `workers`-bit row per access and emits its visit
/// entries by iterating set bits.
pub fn compute_visit_lists<M>(graph: &TaskGraph, mapping: &M, workers: usize) -> Vec<Vec<u32>>
where
    M: Mapping + ?Sized,
{
    let owners: Vec<u32> = graph
        .tasks()
        .iter()
        .map(|t| mapping.worker_of(t.id, workers).index() as u32)
        .collect();

    // Pass 1: which data objects does each worker's own work touch?
    let words = graph.num_data().div_ceil(64);
    let touched = worker_data_bitsets(graph, &owners, workers);

    // Invert: which workers watch each data object? One `workers`-bit
    // row per datum; built by iterating only the set bits of pass 1.
    let wwords = workers.div_ceil(64);
    let mut watchers: Vec<u64> = vec![0; graph.num_data() * wwords];
    for w in 0..workers {
        for (word, &bits) in touched[w * words..(w + 1) * words].iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let d = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                watchers[d * wwords + w / 64] |= 1u64 << (w % 64);
            }
        }
    }

    // Pass 2: per task, the visiting set is the owner plus the union of
    // the accessed data's watcher rows.
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); workers];
    let mut visiting: Vec<u64> = vec![0; wwords];
    for (i, t) in graph.tasks().iter().enumerate() {
        visiting.fill(0);
        let owner = owners[i] as usize;
        visiting[owner / 64] |= 1u64 << (owner % 64);
        for a in &t.accesses {
            let row = a.data.index() * wwords;
            for (acc, &watch) in visiting.iter_mut().zip(&watchers[row..row + wwords]) {
                *acc |= watch;
            }
        }
        for (k, &bits) in visiting.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let w = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                lists[w].push(i as u32);
            }
        }
    }
    lists
}

/// Summarizes visit lists into [`PruneStats`].
pub fn prune_stats(graph: &TaskGraph, lists: &[Vec<u32>]) -> PruneStats {
    PruneStats {
        visited_per_worker: lists.iter().map(Vec::len).collect(),
        flow_len: graph.len(),
    }
}

/// Executes `graph` like plain decentralized execution, but with
/// per-worker task pruning derived from the mapping: the panicking test
/// shorthand over [`try_execute_graph_pruned_impl`] (the production
/// shell is [`crate::Executor::run`]).
///
/// Returns the execution report together with the pruning statistics.
#[cfg(test)]
pub(crate) fn execute_graph_pruned_impl<M, K>(
    cfg: &RioConfig,
    graph: &TaskGraph,
    mapping: &M,
    kernel: K,
) -> (ExecReport, PruneStats)
where
    M: Mapping + ?Sized,
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    let (report, stats, _) =
        try_execute_graph_pruned_impl(cfg, graph, mapping, kernel).unwrap_or_else(|e| e.resume());
    (report, stats)
}

/// Fallible pruned execution behind [`crate::Executor::try_run`]. With a
/// [`crate::config::RecoveryPolicy`] installed, the third tuple element
/// is the degraded run's [`PartialReport`] (`None` on a clean run).
pub(crate) fn try_execute_graph_pruned_impl<M, K>(
    cfg: &RioConfig,
    graph: &TaskGraph,
    mapping: &M,
    kernel: K,
) -> Result<(ExecReport, PruneStats, Option<rio_stf::PartialReport>), ExecError>
where
    M: Mapping + ?Sized,
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    cfg.validate();
    if cfg.preflight {
        rio_stf::validate_mapping(mapping, graph.len(), cfg.workers)?;
    }
    let lists = compute_visit_lists(graph, mapping, cfg.workers);
    let stats = prune_stats(graph, &lists);
    let shared = SharedDataState::new_table(graph.num_data());
    let kernel = &kernel;
    let shared = &shared;
    let lists = &lists;
    let abort = &AbortFlag::new();
    let status = &StatusTable::new(cfg.workers);
    let registry = crate::counters::CounterRegistry::for_run(cfg);
    let registry = registry.as_deref();
    let flight = crate::flight::FlightRecorder::for_run(cfg);
    let flight = flight.as_ref();
    let recovery = cfg
        .recovery
        .clone()
        .map(|p| crate::protocol::RecoveryCtx::new(p, graph.num_data()));
    let rec = recovery.as_ref();

    let start = std::time::Instant::now();
    let workers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                s.spawn(move || {
                    let me = WorkerId::from_index(w);
                    worker_loop(
                        cfg,
                        graph,
                        mapping,
                        shared,
                        kernel,
                        me,
                        Some(&lists[w]),
                        abort,
                        status,
                        start,
                        registry,
                        flight,
                        rec,
                        // Pruned visit lists elide irrelevant declares, so a
                        // thief's overlay pricing would read stale private
                        // views: the pruned path never steals.
                        None,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    if let Some(cause) = abort.take_cause() {
        return Err(cause.into_error());
    }
    Ok((
        ExecReport {
            wall: start.elapsed(),
            workers,
            counters: registry
                .map(|r| r.snapshot().with_topology(cfg))
                .unwrap_or_default(),
        },
        stats,
        recovery
            .and_then(crate::protocol::RecoveryCtx::into_report)
            .map(|mut p| {
                // Workers joined: the dump is exact recording order.
                if let Some(f) = flight {
                    p.flight = f.dump();
                }
                p
            }),
    ))
}

#[cfg(test)]
mod tests {
    use super::execute_graph_pruned_impl as execute_graph_pruned;
    use super::*;
    use rio_stf::{Access, DataId, DataStore, RoundRobin};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg(workers: usize) -> RioConfig {
        RioConfig::with_workers(workers)
    }

    #[test]
    fn independent_tasks_prune_to_own_tasks_only() {
        // Each task writes its own datum: workers share nothing.
        let n = 40;
        let mut b = TaskGraph::builder(n);
        for i in 0..n {
            b.task(&[Access::write(DataId::from_index(i))], 1, "ind");
        }
        let g = b.build();
        let lists = compute_visit_lists(&g, &RoundRobin, 4);
        for list in &lists {
            assert_eq!(list.len(), 10, "each worker visits only its 10 tasks");
        }
        let stats = prune_stats(&g, &lists);
        assert!((stats.pruned_fraction() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn shared_data_prevents_pruning() {
        // Every task touches the same datum: nothing can be pruned.
        let mut b = TaskGraph::builder(1);
        for _ in 0..20 {
            b.task(&[Access::read_write(DataId(0))], 1, "t");
        }
        let g = b.build();
        let lists = compute_visit_lists(&g, &RoundRobin, 4);
        for list in &lists {
            assert_eq!(list.len(), 20);
        }
    }

    #[test]
    fn pruned_execution_is_still_correct() {
        // Mixed workload: per-worker private chains + one shared chain.
        let workers = 3;
        let chain = 30u32;
        let mut b = TaskGraph::builder(workers + 1);
        let shared_d = DataId::from_index(workers);
        for i in 0..(workers as u32 * chain) {
            // Owner-computes on private counters, round-robin order.
            let d = DataId(i % workers as u32);
            b.task(&[Access::read_write(d)], 1, "private");
            if i % 10 == 0 {
                b.task(&[Access::read_write(shared_d)], 1, "shared");
            }
        }
        let g = b.build();
        // Map "private" tasks to the data owner; "shared" round-robin.
        let table = rio_stf::TableMapping::from_fn(g.len(), |i| {
            let t = g.task(rio_stf::TaskId::from_index(i));
            match t.kind {
                "private" => WorkerId(t.accesses[0].data.0),
                _ => WorkerId::from_index(i % workers),
            }
        });

        let store = DataStore::filled(workers + 1, 0u64);
        let (report, stats) = execute_graph_pruned(&cfg(workers), &g, &table, |_, t| {
            *store.write(t.accesses[0].data) += 1;
        });
        assert_eq!(report.tasks_executed(), g.len() as u64);
        assert!(stats.pruned_fraction() > 0.0, "some tasks were pruned");
        let values = store.into_vec();
        assert_eq!(&values[..workers], &[30, 30, 30]);
        assert_eq!(values[workers], 9);
    }

    #[test]
    fn pruned_and_unpruned_agree() {
        let mut b = TaskGraph::builder(8);
        for i in 0..200u32 {
            let d = DataId(i % 8);
            b.task(&[Access::read_write(d)], 1, "inc");
        }
        let g = b.build();

        let run = |pruned: bool| {
            let count = AtomicU64::new(0);
            let c = cfg(4);
            if pruned {
                execute_graph_pruned(&c, &g, &RoundRobin, |_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                })
                .0
                .tasks_executed()
            } else {
                crate::graph::execute_graph_impl(&c, &g, &RoundRobin, |_, _| {
                    count.fetch_add(1, Ordering::Relaxed);
                })
                .tasks_executed()
            }
        };
        assert_eq!(run(false), 200);
        assert_eq!(run(true), 200);
    }

    #[test]
    fn visit_lists_always_contain_own_tasks() {
        let mut b = TaskGraph::builder(4);
        for i in 0..50u32 {
            b.task(&[Access::read_write(DataId(i % 4))], 1, "t");
        }
        let g = b.build();
        let lists = compute_visit_lists(&g, &RoundRobin, 3);
        for (w, list) in lists.iter().enumerate() {
            for (i, t) in g.tasks().iter().enumerate() {
                let owner = RoundRobin.worker_of(t.id, 3).index();
                if owner == w {
                    assert!(list.contains(&(i as u32)));
                }
            }
        }
    }

    #[test]
    fn empty_graph_prunes_trivially() {
        let g = TaskGraph::builder(0).build();
        let lists = compute_visit_lists(&g, &RoundRobin, 2);
        assert!(lists.iter().all(Vec::is_empty));
        assert_eq!(prune_stats(&g, &lists).pruned_fraction(), 0.0);
    }
}
