//! **Partial mappings** — the paper's stated future work ("combining
//! both execution models, and thus requiring only partial mappings", §6)
//! — as a kind of mapping, not a second runtime.
//!
//! A [`PartialMapping`] assigns *some* tasks to fixed workers and leaves
//! the rest unmapped. Mapped tasks compile exactly as under a total
//! mapping. An unmapped task is local to nobody, so it keeps its guards
//! and its dependents keep theirs; it is emitted as a **claim-marked**
//! instruction into *every* worker's program ([`crate::compile`]), and at
//! run time whoever's in-order walk reaches it first takes its slot of
//! the run's [`crate::steal::ClaimTable`] — one compare-and-swap, before
//! any guard wait — and executes it; the losers move on.
//!
//! Why this is a faithful hybrid:
//!
//! * the protocol never needed to know *who* executes a task — only that
//!   **exactly one** worker executes it. A CAS claim provides exactly-one
//!   dynamically, so Algorithm 1/2 carry over unchanged;
//! * claiming is self-balancing: workers that run long tasks lag behind
//!   in the flow, so the *least loaded* worker tends to reach (and win)
//!   the next unmapped task first — dynamic load balancing without a
//!   master, a scheduler, or task storage beyond one word per task;
//! * the cost is one shared CAS per unmapped task per worker (lost races
//!   are a single failed CAS), restoring a slice of the out-of-order
//!   model's adaptivity while keeping the in-order model's O(1) per-data
//!   state. The one rule: a task is claimed before any guard iff it is
//!   unmapped; a mapped task never touches a slot.
//!
//! The exactly-once and termination arguments are in DESIGN.md §9.

use rio_stf::{Mapping, MappingError, TaskId, WorkerId};

/// A mapping that may leave tasks unassigned (`None` = decided at run
/// time by claiming). Evaluated by the compile walk only.
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
    /// Unmapped tasks claimed — and so executed — by each worker. Sums to
    /// the number of unmapped tasks on a run that completed.
    pub claimed_per_worker: Vec<u64>,
    /// Lost races per worker: unmapped tasks its program reached after
    /// somebody had claimed them (itself, if it stole the task earlier).
    pub lost_races_per_worker: Vec<u64>,
}

/// The per-task check behind [`validate_partial_mapping`], as
/// [`rio_stf::mapping::probe`] is behind the total one: probes `task`
/// twice and returns its owner (`None`: left to be claimed), or the first
/// of `NotTotal` (a probe panicked), `NonDeterministic` (two different
/// workers), `NonDeterministicClaim` (mapped once, unmapped once) and
/// `OutOfRange` that applies. The compile walk validates and maps in one
/// pass by calling this per task.
#[inline]
pub(crate) fn probe_partial<P>(
    pmap: &P,
    task: TaskId,
    num_workers: usize,
) -> Result<Option<WorkerId>, MappingError>
where
    P: PartialMapping + ?Sized,
{
    let probe = || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pmap.worker_of(task, num_workers)
        }))
        .map_err(|_| MappingError::NotTotal { task })
    };
    let first = probe()?;
    match (first, probe()?) {
        (Some(first), Some(second)) if first != second => Err(MappingError::NonDeterministic {
            task,
            first,
            second,
        }),
        (None, Some(_)) | (Some(_), None) => Err(MappingError::NonDeterministicClaim { task }),
        (Some(worker), _) if worker.index() >= num_workers => Err(MappingError::OutOfRange {
            task,
            worker,
            workers: num_workers,
        }),
        _ => Ok(first),
    }
}

/// Pre-flight validation of a partial mapping, mirroring
/// [`rio_stf::validate_mapping`]: probes every task twice and rejects
/// mappings that panic (not total), answer inconsistently (either a
/// different worker, or mapped-vs-unmapped — both would make the programs
/// disagree on ownership), or name a worker out of range.
///
/// Like the total-mapping check, two probes cannot catch every source of
/// non-determinism — but the mapping is only ever evaluated here and by
/// the one compile walk, so one that lies later changes nothing.
pub fn validate_partial_mapping<P>(
    pmap: &P,
    num_tasks: usize,
    num_workers: usize,
) -> Result<(), MappingError>
where
    P: PartialMapping + ?Sized,
{
    (0..num_tasks)
        .try_for_each(|i| probe_partial(pmap, TaskId::from_index(i), num_workers).map(drop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RioConfig;
    use crate::executor::Executor;
    use crate::report::ExecReport;
    use rio_stf::{Access, DataId, DataStore, RoundRobin, TaskDesc, TaskGraph};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn cfg(workers: usize) -> RioConfig {
        RioConfig::with_workers(workers)
    }

    fn execute_graph_hybrid(
        cfg: &RioConfig,
        graph: &TaskGraph,
        pmap: &dyn PartialMapping,
        kernel: impl Fn(WorkerId, &TaskDesc) + Sync,
    ) -> (ExecReport, HybridStats) {
        let run = Executor::new(cfg.clone()).hybrid(pmap).run(graph, kernel);
        (run.report, run.hybrid.expect("a hybrid run reports claims"))
    }

    #[test]
    fn validation_reports_the_first_error_in_precedence_order() {
        use std::sync::atomic::AtomicU32;
        let calls = AtomicU32::new(0);
        let nth = || calls.fetch_add(1, Ordering::Relaxed);
        // Per task: what two successive probes answer.
        let pmap = PartialFn(|t: TaskId, _| match t.0 {
            1 => None,
            2 => Some(WorkerId(1)),
            // Mapped, then unmapped — and out of range: the claim wins.
            3 => (nth() % 2 == 0).then_some(WorkerId(9)),
            // Two workers, one out of range: non-determinism wins.
            4 => Some(WorkerId(9 * (nth() % 2))),
            5 => Some(WorkerId(2)),
            _ => panic!("not total"),
        });
        let check = |tasks| validate_partial_mapping(&pmap, tasks, 2);
        assert_eq!(check(2), Ok(()));
        assert_eq!(
            check(6),
            Err(MappingError::NonDeterministicClaim { task: TaskId(3) }),
            "the first bad task is reported, not the worst"
        );
        let only = |t| probe_partial(&pmap, TaskId(t), 2);
        calls.store(0, Ordering::Relaxed);
        assert!(matches!(
            only(4),
            Err(MappingError::NonDeterministic {
                task: TaskId(4),
                first: WorkerId(0),
                second: WorkerId(9)
            })
        ));
        assert!(matches!(
            only(5),
            Err(MappingError::OutOfRange {
                task: TaskId(5),
                worker: WorkerId(2),
                workers: 2
            })
        ));
        assert_eq!(only(6), Err(MappingError::NotTotal { task: TaskId(6) }));
        // The compile walk is where a run meets the same checks.
        let g = crate::testing::bare(6);
        let err = Executor::new(cfg(2))
            .hybrid(&pmap)
            .try_compile(&g)
            .unwrap_err();
        assert_eq!(err.kind(), "invalid-mapping");
        assert!(Executor::new(cfg(2))
            .hybrid(&Unmapped)
            .try_compile(&g)
            .is_ok());
    }

    #[test]
    fn fully_dynamic_executes_each_task_exactly_once() {
        let g = crate::testing::bare(500);
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
        let g = crate::testing::chain(400);
        let store = DataStore::from_vec(vec![0u64]);
        execute_graph_hybrid(&cfg(3), &g, &Unmapped, |_, _| {
            *store.write(DataId(0)) += 1;
        });
        assert_eq!(store.into_vec(), vec![400]);
    }

    #[test]
    fn total_adapter_matches_the_static_executor() {
        let g = crate::testing::chains(200, 2);
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
        let g = crate::testing::chain(300);
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
        let g = crate::testing::chains(200, 4);
        let c = cfg(3).trace(crate::TraceConfig::new());
        let run = Executor::new(c).hybrid(&Unmapped).run(&g, |_, _| {
            std::hint::black_box(0u64);
        });
        let trace = run.trace.expect("a traced run returns its trace");
        trace.audit(&g).expect("hybrid run must be consistent");
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

        let body = |store: &DataStore<u64>, t: &TaskDesc| {
            let mut h = t.id.0;
            for d in t.reads() {
                h = h.wrapping_mul(31).wrapping_add(*store.read(d));
            }
            for d in t.writes() {
                *store.write(d) = h;
            }
        };
        let expected = DataStore::filled(6, 0u64);
        rio_stf::sequential::run_graph(&g, |tid| body(&expected, g.task(tid)));
        let expected = expected.into_vec();

        let store = DataStore::filled(6, 0u64);
        execute_graph_hybrid(&cfg(4), &g, &Unmapped, |_, t| body(&store, t));
        assert_eq!(store.into_vec(), expected);
    }

    #[test]
    fn claiming_balances_uneven_work() {
        // One slow task at the front; with claiming, the other workers
        // take the rest instead of idling behind a static round-robin.
        let g = crate::testing::bare(60);
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
        let g = crate::testing::chain(30);
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
