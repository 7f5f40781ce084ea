//! Hybrid execution with **partial mappings** — the paper's stated future
//! work ("combining both execution models, and thus requiring only
//! partial mappings", §6).
//!
//! A [`PartialMapping`] assigns *some* tasks to fixed workers and leaves
//! the rest unmapped. Mapped tasks execute exactly as in the plain
//! decentralized in-order model. Unmapped tasks are **claimed** at run
//! time: every worker, when its in-order walk reaches an unmapped task,
//! races a single compare-and-swap on the task's claim word — the winner
//! executes the task, the losers treat it like somebody else's task (one
//! or two private writes, as usual).
//!
//! Why this is a faithful hybrid:
//!
//! * the protocol never needed to know *who* executes a task — only that
//!   **exactly one** worker executes it while the rest declare it. A CAS
//!   claim provides exactly-one dynamically, so Algorithm 1/2 carry over
//!   unchanged;
//! * claiming is self-balancing: workers that run long tasks lag behind
//!   in the flow, so the *least loaded* worker tends to reach (and win)
//!   the next unmapped task first — dynamic load balancing without a
//!   master, a scheduler, or task storage beyond one word per unmapped
//!   task;
//! * the cost is one shared CAS per unmapped task per worker (lost races
//!   are a single failed CAS), restoring a slice of the out-of-order
//!   model's adaptivity while keeping the in-order model's O(1) per-data
//!   state.
//!
//! Termination argument (sketch): consider the earliest incomplete task
//! `t*`. If mapped or claimed, its owner is at or before `t*` and every
//! flow-earlier access is performed eventually, so `t*` executes. If
//! unclaimed, no worker has reached it yet; workers blocked earlier are
//! waiting on tasks before `t*`, and by induction those complete, so some
//! worker reaches and claims `t*`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use rio_stf::{ExecError, Mapping, MappingError, TaskDesc, TaskGraph, TaskId, WorkerId};

use crate::config::RioConfig;
use crate::graph::WorkerCtx;
use crate::protocol::{AbortFlag, RecoveryCtx, SharedDataState};
use crate::report::{ExecReport, WorkerReport};
use crate::status::StatusTable;

/// A mapping that may leave tasks unassigned (`None` = decided at run
/// time by claiming).
pub trait PartialMapping: Send + Sync {
    /// The fixed owner of `task`, or `None` to let workers race for it.
    fn worker_of(&self, task: TaskId, num_workers: usize) -> Option<WorkerId>;
}

/// Adapter: any total [`Mapping`] is a partial mapping with nothing left
/// dynamic.
#[derive(Debug, Clone, Copy)]
pub struct Total<M>(pub M);

impl<M: Mapping> PartialMapping for Total<M> {
    #[inline]
    fn worker_of(&self, task: TaskId, num_workers: usize) -> Option<WorkerId> {
        Some(self.0.worker_of(task, num_workers))
    }
}

/// The fully dynamic partial mapping: every task is claimed at run time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unmapped;

impl PartialMapping for Unmapped {
    #[inline]
    fn worker_of(&self, _task: TaskId, _num_workers: usize) -> Option<WorkerId> {
        None
    }
}

/// Closure-backed partial mapping.
pub struct PartialFn<F>(pub F);

impl<F> PartialMapping for PartialFn<F>
where
    F: Fn(TaskId, usize) -> Option<WorkerId> + Send + Sync,
{
    #[inline]
    fn worker_of(&self, task: TaskId, num_workers: usize) -> Option<WorkerId> {
        (self.0)(task, num_workers)
    }
}

/// Statistics of the dynamic part of a hybrid run.
#[derive(Debug, Clone, Default)]
pub struct HybridStats {
    /// Unmapped tasks claimed by each worker.
    pub claimed_per_worker: Vec<u64>,
    /// Failed claim attempts (lost races) per worker.
    pub lost_races_per_worker: Vec<u64>,
}

const UNCLAIMED: u32 = u32::MAX;

/// Pre-flight validation of a partial mapping, mirroring
/// [`rio_stf::validate_mapping`]: probes every task twice and rejects
/// mappings that panic (not total), answer inconsistently (either a
/// different worker, or mapped-vs-unmapped — both make workers replaying
/// the flow disagree on ownership), or name a worker out of range.
///
/// Like the total-mapping check, two probes cannot catch every source of
/// non-determinism; the watchdog ([`RioConfig::watchdog`]) is the run-time
/// backstop for mappings that lie only after validation.
pub fn validate_partial_mapping<P>(
    pmap: &P,
    num_tasks: usize,
    num_workers: usize,
) -> Result<(), MappingError>
where
    P: PartialMapping + ?Sized,
{
    for i in 0..num_tasks {
        let task = TaskId::from_index(i);
        let probe = || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pmap.worker_of(task, num_workers)
            }))
            .map_err(|_| MappingError::NotTotal { task })
        };
        let first = probe()?;
        let second = probe()?;
        match (first, second) {
            (Some(a), Some(b)) if a != b => {
                return Err(MappingError::NonDeterministic {
                    task,
                    first: a,
                    second: b,
                })
            }
            (None, Some(_)) | (Some(_), None) => {
                return Err(MappingError::NonDeterministicClaim { task })
            }
            _ => {}
        }
        if let Some(w) = first {
            if w.index() >= num_workers {
                return Err(MappingError::OutOfRange {
                    task,
                    worker: w,
                    workers: num_workers,
                });
            }
        }
    }
    Ok(())
}

/// Executes `graph` with the hybrid model: mapped tasks on their fixed
/// workers, unmapped tasks claimed dynamically — the panicking test
/// shorthand over [`try_execute_graph_hybrid_impl`] (the production
/// shell is [`crate::Executor::run`]). See the module docs.
#[cfg(test)]
pub(crate) fn execute_graph_hybrid_impl<P, K>(
    cfg: &RioConfig,
    graph: &TaskGraph,
    pmap: &P,
    kernel: K,
) -> (ExecReport, HybridStats)
where
    P: PartialMapping + ?Sized,
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    let (report, stats, _) =
        try_execute_graph_hybrid_impl(cfg, graph, pmap, kernel).unwrap_or_else(|e| e.resume());
    (report, stats)
}

/// Fallible hybrid execution behind [`crate::Executor::try_run`]. With a
/// [`crate::config::RecoveryPolicy`] installed, the third tuple element
/// is the degraded run's [`rio_stf::PartialReport`] (`None` on a clean
/// run).
pub(crate) fn try_execute_graph_hybrid_impl<P, K>(
    cfg: &RioConfig,
    graph: &TaskGraph,
    pmap: &P,
    kernel: K,
) -> Result<(ExecReport, HybridStats, Option<rio_stf::PartialReport>), ExecError>
where
    P: PartialMapping + ?Sized,
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    cfg.validate();
    if cfg.preflight {
        validate_partial_mapping(pmap, graph.len(), cfg.workers)?;
    }
    let shared = SharedDataState::new_table(graph.num_data());
    let claims: Box<[AtomicU32]> = (0..graph.len())
        .map(|_| AtomicU32::new(UNCLAIMED))
        .collect();
    let abort = &AbortFlag::new();
    let status = &StatusTable::new(cfg.workers);
    let kernel = &kernel;
    let shared = &shared;
    let claims = &claims;
    let registry = crate::counters::CounterRegistry::for_run(cfg);
    let registry = registry.as_deref();
    let flight = crate::flight::FlightRecorder::for_run(cfg);
    let flight = flight.as_ref();
    let recovery = cfg
        .recovery
        .clone()
        .map(|p| RecoveryCtx::new(p, graph.num_data()));
    let rec = recovery.as_ref();

    let start = Instant::now();
    let results: Vec<(WorkerReport, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                s.spawn(move || {
                    hybrid_worker_loop(
                        cfg,
                        graph,
                        pmap,
                        shared,
                        claims,
                        kernel,
                        WorkerId::from_index(w),
                        abort,
                        status,
                        start,
                        registry,
                        flight,
                        rec,
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

    let mut stats = HybridStats::default();
    let mut workers = Vec::with_capacity(results.len());
    for (report, claimed, lost) in results {
        stats.claimed_per_worker.push(claimed);
        stats.lost_races_per_worker.push(lost);
        workers.push(report);
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
        recovery.and_then(RecoveryCtx::into_report).map(|mut p| {
            // Workers joined: the dump is exact recording order.
            if let Some(f) = flight {
                p.flight = f.dump();
            }
            p
        }),
    ))
}

/// One worker's hybrid walk: the interpreted flow walk of
/// [`crate::graph`] with ownership of unmapped tasks decided by a claim
/// race. Everything past "is this task mine?" — gets, body, recovery,
/// terminates, declares — is the shared [`WorkerCtx`] engine.
#[allow(clippy::too_many_arguments)]
fn hybrid_worker_loop<P, K>(
    cfg: &RioConfig,
    graph: &TaskGraph,
    pmap: &P,
    shared: &[SharedDataState],
    claims: &[AtomicU32],
    kernel: &K,
    me: WorkerId,
    abort: &AbortFlag,
    status: &StatusTable,
    epoch: Instant,
    registry: Option<&crate::counters::CounterRegistry>,
    flight: Option<&crate::flight::FlightRecorder>,
    rec: Option<&RecoveryCtx>,
) -> (WorkerReport, u64, u64)
where
    P: PartialMapping + ?Sized,
    K: Fn(WorkerId, &TaskDesc) + Sync,
{
    let mut ctx = WorkerCtx::new(
        cfg,
        graph.num_data(),
        shared,
        me,
        abort,
        status,
        epoch,
        registry,
        flight,
        rec,
    );
    let mut claimed = 0u64;
    let mut lost_races = 0u64;

    let loop_start = Instant::now();
    for t in graph.tasks() {
        ctx.tasks_visited += 1;
        let mine = match pmap.worker_of(t.id, cfg.workers) {
            Some(owner) => {
                debug_assert!(owner.index() < cfg.workers);
                owner == me
            }
            None => {
                // Race for the claim. Relaxed suffices: the claim word
                // only decides *who* runs the task; all data
                // synchronization still flows through the protocol.
                let won = claims[t.id.index()]
                    .compare_exchange(
                        UNCLAIMED,
                        me.index() as u32,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok();
                if won {
                    claimed += 1;
                } else {
                    lost_races += 1;
                }
                won
            }
        };
        if !mine {
            ctx.declare_task(t);
        } else if !ctx.exec_task(kernel, t, crate::graph::TaskAccesses::Declared(&t.accesses)) {
            // The run is aborting (a dynamically claimed task is simply
            // dropped — nobody else will run it, but nothing starts past
            // the abort anyway).
            break;
        }
    }
    (ctx.finish(loop_start.elapsed()), claimed, lost_races)
}

#[cfg(test)]
mod tests {
    use super::execute_graph_hybrid_impl as execute_graph_hybrid;
    use super::*;
    use rio_stf::{Access, DataId, DataStore, RoundRobin};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn cfg(workers: usize) -> RioConfig {
        RioConfig::with_workers(workers)
    }

    #[test]
    fn fully_dynamic_executes_each_task_exactly_once() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..500 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let count = AtomicU64::new(0);
        let (report, stats) = execute_graph_hybrid(&cfg(4), &g, &Unmapped, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 500);
        assert_eq!(report.tasks_executed(), 500);
        assert_eq!(stats.claimed_per_worker.iter().sum::<u64>(), 500);
    }

    #[test]
    fn dynamic_chain_preserves_sequential_semantics() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..400 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64]);
        execute_graph_hybrid(&cfg(3), &g, &Unmapped, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(store.into_vec(), vec![400]);
    }

    #[test]
    fn total_adapter_matches_the_static_executor() {
        let mut b = TaskGraph::builder(2);
        for i in 0..200u32 {
            b.task(&[Access::read_write(DataId(i % 2))], 1, "inc");
        }
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64, 0]);
        let (report, stats) =
            execute_graph_hybrid(&cfg(2), &g, &Total(RoundRobin), |_, t: &TaskDesc| {
                *store.write(t.accesses[0].data) += 1;
            });
        assert_eq!(store.into_vec(), vec![100, 100]);
        assert_eq!(report.tasks_executed(), 200);
        // Nothing was dynamic.
        assert_eq!(stats.claimed_per_worker.iter().sum::<u64>(), 0);
        assert_eq!(stats.lost_races_per_worker.iter().sum::<u64>(), 0);
    }

    #[test]
    fn partial_mapping_mixes_static_and_dynamic() {
        // Even tasks pinned to worker 0, odd tasks dynamic.
        let pmap = PartialFn(|t: TaskId, _w: usize| {
            if t.index().is_multiple_of(2) {
                Some(WorkerId(0))
            } else {
                None
            }
        });
        let mut b = TaskGraph::builder(1);
        for _ in 0..300 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let store = DataStore::from_vec(vec![0u64]);
        let (report, stats) = execute_graph_hybrid(&cfg(3), &g, &pmap, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(store.into_vec(), vec![300]);
        // Worker 0 ran at least its 150 pinned tasks.
        assert!(report.workers[0].tasks_executed >= 150);
        assert_eq!(stats.claimed_per_worker.iter().sum::<u64>(), 150);
    }

    #[test]
    fn dynamic_spans_audit_cleanly() {
        let mut b = TaskGraph::builder(4);
        for i in 0..200u32 {
            b.task(&[Access::read_write(DataId(i % 4))], 1, "t");
        }
        let g = b.build();
        let c = cfg(3).record_spans(true);
        let (report, _) = execute_graph_hybrid(&c, &g, &Unmapped, |_, _| {
            std::hint::black_box(0u64);
        });
        report.audit(&g).expect("hybrid run must be consistent");
    }

    #[test]
    fn dynamic_random_deps_match_sequential() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let mut b = TaskGraph::builder(6);
        for _ in 0..300 {
            let r = DataId(rng.gen_range(0..6u32));
            let mut w = DataId(rng.gen_range(0..6u32));
            if w == r {
                w = DataId((w.0 + 1) % 6);
            }
            b.task(&[Access::read(r), Access::write(w)], 1, "t");
        }
        let g = b.build();

        let run_seq = || {
            let store = DataStore::filled(6, 0u64);
            rio_stf::sequential::run_graph(&g, |tid| {
                let t = g.task(tid);
                let mut h = t.id.0;
                for d in t.reads() {
                    h = h.wrapping_mul(31).wrapping_add(*store.read(d));
                }
                for d in t.writes() {
                    *store.write(d) = h;
                }
            });
            store.into_vec()
        };
        let expected = run_seq();

        let store = DataStore::filled(6, 0u64);
        execute_graph_hybrid(&cfg(4), &g, &Unmapped, |_, t: &TaskDesc| {
            let mut h = t.id.0;
            for d in t.reads() {
                h = h.wrapping_mul(31).wrapping_add(*store.read(d));
            }
            for d in t.writes() {
                *store.write(d) = h;
            }
        });
        assert_eq!(store.into_vec(), expected);
    }

    #[test]
    fn claiming_balances_uneven_work() {
        // One slow task at the front; with claiming, the other workers
        // take the rest instead of idling behind a static round-robin.
        let mut b = TaskGraph::builder(0);
        for _ in 0..60 {
            b.task(&[], 1, "t");
        }
        let g = b.build();
        let (report, stats) = execute_graph_hybrid(&cfg(3), &g, &Unmapped, |_, t| {
            if t.id == TaskId(1) {
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        assert_eq!(report.tasks_executed(), 60);
        // The worker stuck on T1 cannot have claimed everything.
        let max = stats.claimed_per_worker.iter().max().copied().unwrap();
        assert!(max < 60, "claims: {:?}", stats.claimed_per_worker);
    }

    #[test]
    fn hybrid_panic_propagates() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..30 {
            b.task(&[Access::read_write(DataId(0))], 1, "t");
        }
        let g = b.build();
        let result = std::panic::catch_unwind(|| {
            execute_graph_hybrid(&cfg(3), &g, &Unmapped, |_, t| {
                if t.id.0 == 9 {
                    panic!("hybrid boom");
                }
            });
        });
        assert!(result.is_err());
    }
}
