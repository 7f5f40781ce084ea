//! Ahead-of-time flow compilation: lowering `(TaskGraph, Mapping,
//! workers)` into one flat program per worker that holds **that worker's
//! own tasks and nothing else**.
//!
//! ## Why compile the flow?
//!
//! Cost model (2) charges every worker O(n_total) for unrolling the whole
//! flow: even a task mapped elsewhere costs a mapping evaluation plus one
//! private declare per access. All of that bookkeeping exists to answer
//! one question when the worker reaches a task of its own: *which epoch
//! word must this access wait for?* But the mapping is static and
//! deterministic (§3.4, assumptions 1–2), so the answer — the worker's
//! private view at that point of the flow — is known at graph-record
//! time, and it is the same for every worker: declares and terminates
//! update a private view identically, so the view before task `t` is the
//! sequential replay of every earlier access, whoever performed it.
//!
//! [`try_compile`] therefore walks the flow **once**, on one thread,
//! replaying the declares into a single simulated view, and emits for
//! every task one `Run { task, start..end }` into its owner's program:
//! the task's accesses and the packed view each of them waits for live at
//! `start..end` of a contiguous arena ([`NodeArena`]). A foreign task
//! contributes *no instruction* to a worker's program, and a run keeps no
//! private state at all — a terminate is just the shared publication
//! ([`crate::protocol::publish_write`]/[`crate::protocol::publish_read`]).
//! The `n·t_r` term of cost model (2) — every worker replaying everyone
//! else's tasks on every run — becomes a one-thread, one-time compile
//! cost; per run a worker pays for its own `n/w` tasks only. Pruning
//! (§3.5) is subsumed entirely.
//!
//! Execution ([`CompiledFlow::run`]) drives the same per-worker engine
//! ([`crate::graph`]'s `WorkerCtx`) as the interpreted paths — same
//! `get → kernel → terminate` sequence, same fault containment, watchdog
//! and tracing — so the shared protocol history is byte-identical to the
//! uncompiled walk. Preflight mapping validation is paid once at compile
//! time: a [`CompiledFlow`] can be re-run any number of times (the
//! per-run protocol state is allocated per run, so a run that aborts —
//! e.g. [`ExecError::TaskPanicked`] — leaves the program reusable).
//!
//! ```
//! use rio_core::prelude::*;
//!
//! let mut b = TaskGraph::builder(1);
//! for _ in 0..100 {
//!     b.task(&[Access::read_write(DataId(0))], 1, "inc");
//! }
//! let g = b.build();
//! let store = DataStore::from_vec(vec![0u64]);
//!
//! // Validate + analyze once, run many times.
//! let flow = Executor::new(RioConfig::with_workers(2))
//!     .mapping(&RoundRobin)
//!     .compile(&g);
//! for _ in 0..3 {
//!     flow.run(|_, _| *store.write(DataId(0)) += 1);
//! }
//! assert_eq!(store.into_vec(), vec![300]);
//! ```

use std::time::Instant;

use rio_stf::{Access, ExecError, Mapping, TaskDesc, TaskGraph, WorkerId};

use crate::config::RioConfig;
use crate::executor::Execution;
use crate::graph::WorkerCtx;
use crate::protocol::{
    declare_batch, expected_write_word, AbortFlag, LocalDataState, SharedDataState,
};
use crate::report::ExecReport;
use crate::status::StatusTable;

/// `Run` instruction: execute the task at flow index `task`; its accesses
/// and their expected words are `arena[start..end]` of the owner's node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunInstr {
    pub(crate) task: u32,
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// One worker's compiled program: its own tasks, in flow order. The
/// steal layer's published cursor is an index into it.
pub(crate) type WorkerProgram = Vec<RunInstr>;

/// What the compiler did, per worker and in aggregate.
#[derive(Debug, Clone)]
pub struct CompileStats {
    /// Flow length (tasks every worker would visit uncompiled).
    pub flow_len: usize,
    /// `Run` instructions per worker (== tasks mapped to it).
    pub runs_per_worker: Vec<usize>,
    /// Always 0: no declare survives compilation in any form. (Kept
    /// because the repository's benchmark reads it; it counted the
    /// declares folded into the `Sync` instructions programs once had.)
    pub folded_declares: u64,
    /// Per-access declares compiled away: every access of every task a
    /// worker does not own, summed over workers — what the interpreted
    /// walk pays in private updates on *every* run.
    pub irrelevant_declares: u64,
}

impl CompileStats {
    /// Total instructions across workers: one `Run` per mapped task.
    pub fn instructions(&self) -> usize {
        self.runs_per_worker.iter().sum()
    }

    /// Always 0.0: there is no `Sync` instruction left to coalesce
    /// declares into (kept for the same reason as
    /// [`CompileStats::folded_declares`]).
    pub fn coalesce_factor(&self) -> f64 {
        0.0
    }
}

/// One NUMA node's slice of the compiled flow: the access entries and
/// precomputed expected epoch words of every `Run` instruction owned by a
/// worker of that node, in flow order.
///
/// `expected[k]` is the packed private view
/// ([`crate::protocol::expected_write_word`]) that `accesses[k]`'s `get_*`
/// compares the epoch word against — whole for a write, the write half
/// only for a read — computed once by replaying the flow's declares at
/// compile time. A [`RunInstr`]'s `start..end` indexes the arena of the
/// *owning worker's node*. On a single-node topology the one arena is
/// laid out exactly like [`rio_stf::FlatAccesses`].
#[derive(Debug, Default)]
pub(crate) struct NodeArena {
    pub(crate) accesses: Vec<Access>,
    pub(crate) expected: Vec<u64>,
}

/// A flow compiled for a fixed `(graph, mapping, config)` triple —
/// produced by [`crate::Executor::compile`], executed any number of times
/// with [`CompiledFlow::run`]/[`CompiledFlow::try_run`].
///
/// Everything interpretation pays per run and per worker is paid once
/// here, on one thread: mapping evaluation (one call per task), preflight
/// validation ([`RioConfig::preflight`]) and the replay of every declare
/// (into the precomputed expected words). The per-run state — the shared
/// protocol table, reports — is allocated fresh on every run, so runs are
/// independent: a run that aborts leaves the program intact.
///
/// With a multi-node [`RioConfig::topology`], each worker's access
/// entries and expected words live in its node's [`NodeArena`] so the
/// hot `get → kernel → terminate` walk streams node-local memory;
/// without one there is a single arena in classic flat order.
#[must_use = "a CompiledFlow does nothing until `.run()` is called"]
pub struct CompiledFlow<'g> {
    cfg: RioConfig,
    graph: &'g TaskGraph,
    /// One arena per NUMA node of the compiled topology (exactly one
    /// without a topology).
    arenas: Vec<NodeArena>,
    /// The node each worker's `Run` offsets index into, parallel to
    /// `programs` (node-major assignment from the topology; all zeros
    /// without one).
    node_of_worker: Vec<u32>,
    programs: Vec<WorkerProgram>,
    stats: CompileStats,
}

/// One of a worker's own tasks as compiled: what
/// [`CompiledFlow::own_tasks`] yields.
#[derive(Debug, Clone, Copy)]
pub struct CompiledTask<'a> {
    /// The task.
    pub task: &'a TaskDesc,
    /// `expected[i]` is the packed private view `(last registered write,
    /// reads registered since)` that `task.accesses[i]` waits for
    /// ([`crate::protocol::pack_epoch`]).
    pub expected: &'a [u64],
}

/// Lowers `graph` under `mapping` into per-worker programs, in one pass
/// over the flow. Behind [`crate::Executor::try_compile`].
pub(crate) fn try_compile<'g>(
    cfg: &RioConfig,
    graph: &'g TaskGraph,
    mapping: &dyn Mapping,
) -> Result<CompiledFlow<'g>, ExecError> {
    cfg.validate();
    if cfg.preflight {
        rio_stf::validate_mapping(mapping, graph.len(), cfg.workers)?;
    }
    // The packed epoch word caps task ids and per-epoch read counts at
    // u32; reject anything the expected-word simulation below could not
    // represent. (Targeted — a full `graph.validate()` would also reject
    // structural defects this path has historically tolerated.)
    graph.validate_limits(u64::from(u32::MAX), u64::from(u32::MAX))?;
    let total = graph.total_accesses();
    assert!(
        u32::try_from(total).is_ok(),
        "flow declares more than u32::MAX accesses"
    );
    let workers = cfg.workers;
    let node_of_worker = cfg.node_assignment();
    let num_nodes = node_of_worker
        .iter()
        .map(|&n| n as usize + 1)
        .max()
        .unwrap_or(1);
    let mut arenas: Vec<NodeArena> = (0..num_nodes)
        .map(|_| NodeArena {
            accesses: Vec::with_capacity(total / num_nodes),
            expected: Vec::with_capacity(total / num_nodes),
        })
        .collect();
    let mut programs: Vec<WorkerProgram> = (0..workers)
        .map(|_| Vec::with_capacity(graph.len() / workers + 1))
        .collect();
    // The simulated private view. Before task `t` it is what *every*
    // worker's view would be — declares and terminates update a private
    // view identically — and all of a task's gets use the pre-task view
    // (its own terminates happen after the body; a task never declares
    // one data object twice), so one replay serves all workers.
    let mut view = vec![LocalDataState::default(); graph.num_data()];
    let mut owned = 0u64;
    for (i, t) in graph.tasks().iter().enumerate() {
        let w = mapping.worker_of(t.id, workers).index();
        // Only with preflight off can a task name a worker that does not
        // exist. It lands in nobody's program — every walker would declare
        // it and none run it — so its dependents stall into the watchdog
        // exactly as they do interpreted.
        if let Some(&node) = node_of_worker.get(w) {
            let arena = &mut arenas[node as usize];
            let start = arena.accesses.len() as u32;
            arena.accesses.extend_from_slice(&t.accesses);
            arena.expected.extend(
                t.accesses
                    .iter()
                    .map(|a| expected_write_word(&view[a.data.index()])),
            );
            programs[w].push(RunInstr {
                task: i as u32,
                start,
                end: arena.accesses.len() as u32,
            });
            owned += t.accesses.len() as u64;
        }
        declare_batch(&mut view, t.id, &t.accesses);
    }
    let stats = CompileStats {
        flow_len: graph.len(),
        runs_per_worker: programs.iter().map(Vec::len).collect(),
        folded_declares: 0,
        irrelevant_declares: workers as u64 * total as u64 - owned,
    };
    Ok(CompiledFlow {
        cfg: cfg.clone(),
        graph,
        arenas,
        node_of_worker,
        programs,
        stats,
    })
}

impl<'g> CompiledFlow<'g> {
    /// The graph this program was compiled from.
    pub fn graph(&self) -> &'g TaskGraph {
        self.graph
    }

    /// The configuration captured at compile time (worker count, wait
    /// strategy, watchdog, tracing… — every run uses it).
    pub fn config(&self) -> &RioConfig {
        &self.cfg
    }

    /// What the compiler did: instruction counts and the declares it
    /// compiled away.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// `worker`'s whole program: its own tasks in flow order, each with
    /// the precomputed word every access waits for.
    ///
    /// # Panics
    /// If `worker` is not one of the compiled configuration's workers.
    pub fn own_tasks(&self, worker: WorkerId) -> impl Iterator<Item = CompiledTask<'_>> {
        let arena = &self.arenas[self.node_of_worker[worker.index()] as usize];
        self.programs[worker.index()].iter().map(|r| CompiledTask {
            task: &self.graph.tasks()[r.task as usize],
            expected: &arena.expected[r.start as usize..r.end as usize],
        })
    }

    /// Executes the compiled program. Like [`crate::Executor::run`] for
    /// the same `(graph, mapping)` pair — identical kernel invocations on
    /// identical workers in identical per-worker order — minus the
    /// per-run preflight and per-task interpretation.
    ///
    /// # Panics
    /// Propagates task-body panics (original payload); panics with the
    /// diagnostic rendering of any other [`ExecError`]. Use
    /// [`CompiledFlow::try_run`] to handle failures structurally.
    pub fn run<K>(&self, kernel: K) -> Execution
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        self.try_run(kernel).unwrap_or_else(|e| e.resume())
    }

    /// Like [`CompiledFlow::run`], but a contained failure is returned as
    /// a structured [`ExecError`]. The program itself stays valid: all
    /// protocol state is per-run, so a failed run can simply be retried.
    ///
    /// # Errors
    /// See [`ExecError`] for the post-abort state guarantees.
    pub fn try_run<K>(&self, kernel: K) -> Result<Execution, ExecError>
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        let cfg = &self.cfg;
        let shared = SharedDataState::new_table(self.graph.num_data());
        let shared = &shared;
        let kernel = &kernel;
        let abort = &AbortFlag::new();
        let status = &StatusTable::new(cfg.workers);
        let registry = crate::counters::CounterRegistry::for_run(cfg);
        let registry = registry.as_deref();
        let flight = crate::flight::FlightRecorder::for_run(cfg);
        let flight = flight.as_ref();
        let recovery = cfg
            .recovery
            .clone()
            .map(|p| crate::protocol::RecoveryCtx::new(p, self.graph.num_data()));
        let rec = recovery.as_ref();
        // Per-run steal state: a claim slot per task plus one published
        // program cursor per worker (thieves scan victims' remaining
        // tasks from there). All per-run, so the program stays reusable.
        let steal_claims = cfg
            .stealing
            .as_ref()
            .map(|_| crate::steal::ClaimTable::new(self.graph.len()));
        let steal_epoch = steal_claims
            .as_ref()
            .map_or(0, crate::steal::ClaimTable::begin_run);
        let steal_cursors = cfg
            .stealing
            .as_ref()
            .map(|_| crate::steal::Cursor::new_table(cfg.workers));
        let steal_claims = steal_claims.as_ref();
        let steal_cursors = steal_cursors.as_deref();

        let start = Instant::now();
        let workers = std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.workers)
                .map(|w| {
                    let prog = &self.programs[w];
                    s.spawn(move || {
                        let me = WorkerId::from_index(w);
                        let steal = match (cfg.stealing.as_ref(), steal_claims, steal_cursors) {
                            (Some(policy), Some(claims), Some(cursors)) => {
                                Some(crate::steal::StealState {
                                    policy,
                                    claims,
                                    epoch: steal_epoch,
                                    scan: crate::steal::ScanSource::Compiled {
                                        tasks: self.graph.tasks(),
                                        arenas: &self.arenas,
                                        nodes: &self.node_of_worker,
                                        programs: &self.programs,
                                        cursors,
                                    },
                                })
                            }
                            _ => None,
                        };
                        self.run_program(
                            prog, shared, kernel, me, abort, status, start, registry, flight, rec,
                            steal,
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
        let mut run = Execution {
            report: ExecReport {
                wall: start.elapsed(),
                workers,
                counters: registry
                    .map(|r| r.snapshot().with_topology(cfg))
                    .unwrap_or_default(),
            },
            outcome: recovery
                .and_then(crate::protocol::RecoveryCtx::into_report)
                .map(|mut p| {
                    // Workers joined: the dump is exact recording order.
                    if let Some(f) = flight {
                        p.flight = f.dump();
                    }
                    p
                })
                .into(),
            ..Execution::default()
        };
        run.counters = run.report.counters.clone();
        run.trace = run.report.take_trace();
        if let (Some(trace), Some(path)) = (
            run.trace.as_ref(),
            cfg.trace.as_ref().and_then(|t| t.chrome_path.as_ref()),
        ) {
            trace
                .write_chrome(path)
                .unwrap_or_else(|e| panic!("cannot write Chrome trace to {}: {e}", path.display()));
        }
        Ok(run)
    }

    /// One worker's interpreter: a linear walk of its own tasks through
    /// the shared [`WorkerCtx`] engine, which keeps no private state here
    /// (`tasks_visited` == own tasks; `ops.declares` and `ops.syncs` stay
    /// zero).
    #[allow(clippy::too_many_arguments)]
    fn run_program<K>(
        &self,
        prog: &WorkerProgram,
        shared: &[SharedDataState],
        kernel: &K,
        me: WorkerId,
        abort: &AbortFlag,
        status: &StatusTable,
        epoch: Instant,
        registry: Option<&crate::counters::CounterRegistry>,
        flight: Option<&crate::flight::FlightRecorder>,
        rec: Option<&crate::protocol::RecoveryCtx>,
        steal: Option<crate::steal::StealState<'_>>,
    ) -> crate::report::WorkerReport
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        // Bind this thread to its node's parking shard (and optionally
        // its core) before any protocol traffic.
        crate::topo::enter_worker(&self.cfg, me.index());
        let tasks = self.graph.tasks();
        let arena = &self.arenas[self.node_of_worker[me.index()] as usize];
        let mut ctx = WorkerCtx::new(
            &self.cfg, 0, shared, me, abort, status, epoch, registry, flight, rec,
        );
        ctx.steal = steal;
        let cursor = steal.and_then(|st| match st.scan {
            crate::steal::ScanSource::Compiled { cursors, .. } => Some(&cursors[me.index()].0),
            _ => None,
        });
        let loop_start = Instant::now();
        for (pc, r) in prog.iter().enumerate() {
            if let Some(c) = cursor {
                // Publish where this worker's remaining program starts so
                // thieves scan forward from here. Relaxed is enough —
                // staleness only wastes a thief's window budget (anything
                // already executed is already claimed).
                c.store(pc, std::sync::atomic::Ordering::Relaxed);
            }
            ctx.tasks_visited += 1;
            let range = r.start as usize..r.end as usize;
            if !ctx.exec_task(
                kernel,
                &tasks[r.task as usize],
                &arena.accesses[range.clone()],
                Some(&arena.expected[range]),
            ) {
                break;
            }
        }
        // Release: this worker's program is over (or the run aborted and
        // no thief will execute past the abort), so thieves should skip
        // straight past its stream.
        if let Some(c) = cursor {
            c.store(prog.len(), std::sync::atomic::Ordering::Relaxed);
        }
        ctx.finish(loop_start.elapsed())
    }
}

impl std::fmt::Debug for CompiledFlow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledFlow")
            .field("workers", &self.cfg.workers)
            .field("flow_len", &self.stats.flow_len)
            .field("runs_per_worker", &self.stats.runs_per_worker)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::wait::WaitStrategy;
    use rio_stf::{Access, DataId, DataStore, RoundRobin, TableMapping, TaskId};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg(workers: usize) -> RioConfig {
        RioConfig::with_workers(workers).wait(WaitStrategy::Park)
    }

    fn compile(c: RioConfig, g: &TaskGraph) -> CompiledFlow<'_> {
        Executor::new(c).mapping(&RoundRobin).compile(g)
    }

    #[test]
    fn programs_hold_own_tasks_only() {
        // Whatever the dependency shape, a worker's program is its own
        // tasks in flow order: independent data or one shared chain give
        // the same instruction counts.
        let n = 40;
        let mut independent = TaskGraph::builder(n);
        let mut chain = TaskGraph::builder(1);
        for i in 0..n {
            independent.task(&[Access::write(DataId::from_index(i))], 1, "ind");
            chain.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        for g in [independent.build(), chain.build()] {
            let flow = compile(cfg(4), &g);
            let stats = flow.stats();
            assert_eq!(stats.runs_per_worker, vec![10; 4]);
            assert_eq!(stats.instructions(), g.len());
            assert_eq!(stats.folded_declares, 0);
            assert_eq!(stats.coalesce_factor(), 0.0);
            // 4 workers × 30 foreign single-access tasks each: what every
            // interpreted run would pay in private declares.
            assert_eq!(stats.irrelevant_declares, 120);
            for (w, prog) in flow.programs.iter().enumerate() {
                let mine: Vec<u32> = (0..n as u32).filter(|i| *i as usize % 4 == w).collect();
                assert_eq!(prog.iter().map(|r| r.task).collect::<Vec<_>>(), mine);
            }
        }
    }

    #[test]
    fn long_foreign_stretches_cost_the_owner_nothing() {
        // W0 owns only the first and last task; the 98 tasks between are
        // W1's, all on the same datum. W0's program is two instructions,
        // and its last task's expected word already accounts for all 98.
        let n = 100;
        let mut b = TaskGraph::builder(1);
        for _ in 0..n {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let m = TableMapping::from_fn(n, |i| rio_stf::WorkerId(u32::from(!(i == 0 || i == n - 1))));
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        assert_eq!(flow.stats().runs_per_worker, vec![2, 98]);
        assert_eq!(flow.stats().irrelevant_declares, 98 + 2);
        let last = flow.own_tasks(WorkerId(0)).last().unwrap();
        assert_eq!(last.task.id, TaskId(100));
        assert_eq!(last.expected, [crate::protocol::pack_epoch(TaskId(99), 0)]);
        // And the run is correct.
        let store = DataStore::from_vec(vec![0u64]);
        let run = flow.run(|_, _| *store.write(DataId(0)) += 1);
        assert_eq!(store.into_vec(), vec![n as u64]);
        assert_eq!(run.report.workers[0].tasks_visited, 2);
    }

    #[test]
    fn foreign_reads_land_in_the_next_writers_expected_word() {
        // T1 (W0) writes; T2..T9 (W1) read; T10 (W0) writes again. W0's
        // program: Run(T1), Run(T10) — the 8 reads are in T10's word.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w");
        for _ in 0..8 {
            b.task(&[Access::read(DataId(0))], 1, "r");
        }
        b.task(&[Access::write(DataId(0))], 1, "w2");
        let g = b.build();
        let m = TableMapping::from_fn(10, |i| rio_stf::WorkerId(u32::from(!(i == 0 || i == 9))));
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        let last = flow.own_tasks(WorkerId(0)).last().unwrap();
        assert_eq!(last.expected, [crate::protocol::pack_epoch(TaskId(1), 8)]);
        let store = DataStore::from_vec(vec![0u64]);
        let seen = AtomicU64::new(0);
        flow.run(|_, t| match t.kind {
            "w" => *store.write(DataId(0)) = 42,
            "r" => {
                assert_eq!(*store.read(DataId(0)), 42);
                seen.fetch_add(1, Ordering::Relaxed);
            }
            "w2" => *store.write(DataId(0)) = 7,
            _ => unreachable!(),
        });
        assert_eq!(seen.load(Ordering::Relaxed), 8);
        assert_eq!(store.into_vec(), vec![7]);
    }

    #[test]
    fn a_task_mapped_nowhere_is_in_nobodys_program() {
        // Preflight off, T3 mapped to a worker that does not exist: the
        // compiler drops it from every program but still replays its
        // declare, so T4 waits for a write nobody will perform — the same
        // stall the interpreted walk of this mapping produces.
        let mut b = TaskGraph::builder(1);
        for _ in 0..4 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let m = rio_stf::mapping::FnMapping(|t: TaskId, _| {
            rio_stf::WorkerId(if t == TaskId(3) {
                9
            } else {
                t.index() as u32 % 2
            })
        });
        let flow = Executor::new(cfg(2).preflight(false))
            .mapping(&m)
            .compile(&g);
        assert_eq!(flow.stats().runs_per_worker, vec![1, 2]);
        assert_eq!(flow.stats().instructions(), 3);
        let t4 = flow.own_tasks(WorkerId(1)).last().unwrap();
        assert_eq!(t4.expected, [crate::protocol::pack_epoch(TaskId(3), 0)]);
    }

    #[test]
    fn compiled_run_matches_interpreted_results() {
        // Mixed mesh over 4 data objects; compiled and interpreted must
        // produce the same store (both equal the sequential result).
        let mut b = TaskGraph::builder(4);
        for i in 0..200u32 {
            let r = DataId(i % 4);
            let w = DataId((i / 2) % 4);
            if r == w {
                b.task(&[Access::read_write(w)], 1, "rw");
            } else {
                b.task(&[Access::read(r), Access::write(w)], 1, "mix");
            }
        }
        let g = b.build();
        let run_store = |compiled: bool| {
            let store = DataStore::filled(4, 0u64);
            let kernel = |_: WorkerId, t: &TaskDesc| {
                for a in &t.accesses {
                    if a.mode.writes() {
                        *store.write(a.data) += u64::from(a.data.0) + t.id.0;
                    } else {
                        std::hint::black_box(*store.read(a.data));
                    }
                }
            };
            if compiled {
                compile(cfg(3), &g).run(kernel);
            } else {
                Executor::new(cfg(3)).mapping(&RoundRobin).run(&g, kernel);
            }
            store.into_vec()
        };
        assert_eq!(run_store(true), run_store(false));
    }

    #[test]
    fn compiled_report_counts_own_tasks_only() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..10 {
            b.task(&[Access::read_write(DataId(0))], 1, "t");
        }
        let g = b.build();
        let flow = compile(cfg(2), &g);
        let run = flow.run(|_, _| {});
        assert_eq!(run.report.tasks_executed(), 10);
        for w in &run.report.workers {
            assert_eq!(w.tasks_executed, 5);
            assert_eq!(w.tasks_visited, 5, "visited == own Run instructions");
            assert_eq!(w.ops.gets, 5);
            assert_eq!(w.ops.terminates, 5);
            assert_eq!(w.ops.declares, 0, "a compiled run declares nothing");
            assert_eq!(w.ops.syncs, 0);
        }
    }

    #[test]
    fn empty_graph_compiles_and_runs() {
        let g = TaskGraph::builder(0).build();
        let flow = compile(cfg(2), &g);
        assert_eq!(flow.stats().instructions(), 0);
        let run = flow.run(|_, _| unreachable!());
        assert_eq!(run.report.tasks_executed(), 0);
    }

    #[test]
    fn compiled_flow_is_reusable_across_runs() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..60 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let flow = compile(cfg(3), &g);
        let store = DataStore::from_vec(vec![0u64]);
        for _ in 0..5 {
            flow.run(|_, _| *store.write(DataId(0)) += 1);
        }
        assert_eq!(store.into_vec(), vec![300]);
    }

    #[test]
    fn preflight_validation_happens_at_compile_time_only() {
        use std::sync::atomic::AtomicUsize;
        struct Counting(AtomicUsize);
        impl Mapping for Counting {
            fn worker_of(&self, task: TaskId, workers: usize) -> rio_stf::WorkerId {
                self.0.fetch_add(1, Ordering::Relaxed);
                rio_stf::WorkerId((task.index() % workers) as u32)
            }
        }
        let mut b = TaskGraph::builder(1);
        for _ in 0..20 {
            b.task(&[Access::read_write(DataId(0))], 1, "t");
        }
        let g = b.build();
        let m = Counting(AtomicUsize::new(0));
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        let after_compile = m.0.load(Ordering::Relaxed);
        assert!(after_compile > 0, "compile evaluates the mapping");
        flow.run(|_, _| {});
        flow.run(|_, _| {});
        assert_eq!(
            m.0.load(Ordering::Relaxed),
            after_compile,
            "runs never re-evaluate or re-validate the mapping"
        );
    }

    #[test]
    fn compile_rejects_an_invalid_mapping() {
        struct Bad;
        impl Mapping for Bad {
            fn worker_of(&self, _: TaskId, workers: usize) -> rio_stf::WorkerId {
                rio_stf::WorkerId(workers as u32)
            }
        }
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "t");
        let g = b.build();
        let err = Executor::new(cfg(2))
            .mapping(&Bad)
            .try_compile(&g)
            .expect_err("out-of-range mapping must fail at compile time");
        assert_eq!(err.kind(), "invalid-mapping");
    }

    #[test]
    fn failed_run_leaves_the_program_reusable() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..30 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let flow = compile(cfg(2), &g);
        let err = flow
            .try_run(|_, t| {
                if t.id == TaskId(7) {
                    panic!("kernel exploded");
                }
            })
            .expect_err("the injected panic must abort the run");
        assert_eq!(err.kind(), "task-panicked");
        // Same program, fresh run: everything works.
        let store = DataStore::from_vec(vec![0u64]);
        let run = flow.run(|_, _| *store.write(DataId(0)) += 1);
        assert_eq!(run.report.tasks_executed(), 30);
        assert_eq!(store.into_vec(), vec![30]);
    }

    #[test]
    fn all_wait_strategies_agree_under_compilation() {
        for wait in [
            WaitStrategy::Spin,
            WaitStrategy::SpinYield,
            WaitStrategy::Park,
        ] {
            let mut b = TaskGraph::builder(2);
            for i in 0..100u32 {
                b.task(&[Access::read_write(DataId(i % 2))], 1, "inc");
            }
            let g = b.build();
            let store = DataStore::from_vec(vec![0u64, 0]);
            let flow = compile(RioConfig::with_workers(2).wait(wait), &g);
            flow.run(|_, t| {
                let d = t.accesses[0].data;
                *store.write(d) += 1;
            });
            assert_eq!(store.into_vec(), vec![50, 50], "strategy {wait}");
        }
    }

    #[test]
    fn expected_words_follow_the_flow_simulation() {
        use crate::protocol::pack_epoch;
        // T1 writes d0; T2, T3 read it; T4 writes it again.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w");
        b.task(&[Access::read(DataId(0))], 1, "r");
        b.task(&[Access::read(DataId(0))], 1, "r");
        b.task(&[Access::write(DataId(0))], 1, "w2");
        let g = b.build();
        let flow = compile(cfg(2), &g);
        // Single-node: one arena in exact flat order.
        let expected = &flow.arenas[0].expected;
        // T1's write waits for the initial epoch (no write, no reads).
        assert_eq!(expected[0], pack_epoch(TaskId::NONE, 0));
        // The reads wait for T1's write: the word is the whole private
        // view (T3's counts T2's read), of which a read guard compares
        // the write half only.
        assert_eq!(expected[1], pack_epoch(TaskId(1), 0));
        assert_eq!(expected[2], pack_epoch(TaskId(1), 1));
        // T4's write waits for T1's write AND both reads.
        assert_eq!(expected[3], pack_epoch(TaskId(1), 2));
    }

    #[test]
    fn node_arenas_partition_the_flat_arena() {
        use crate::topo::Topology;
        use std::sync::Arc;
        // 2×2 mock topology, 4 workers: every Run's accesses live in the
        // owning worker's node arena, offsets remapped; the run result is
        // identical to the single-arena layout.
        let mut b = TaskGraph::builder(4);
        for i in 0..80u32 {
            b.task(&[Access::read_write(DataId(i % 4))], 1, "inc");
        }
        let g = b.build();
        let single = compile(cfg(4), &g);
        assert_eq!(single.arenas.len(), 1, "no topology → one arena");
        let numa = compile(cfg(4).topology(Arc::new(Topology::mock(2, 2))), &g);
        assert_eq!(numa.arenas.len(), 2);
        assert_eq!(numa.node_of_worker, vec![0, 0, 1, 1]);
        // Arena slices hold exactly the task's accesses, as in the flat
        // layout, and the expected words match the single-node compile.
        let flat = g.flat_accesses();
        for (w, prog) in numa.programs.iter().enumerate() {
            let arena = &numa.arenas[numa.node_of_worker[w] as usize];
            for (r, sr) in prog.iter().zip(&single.programs[w]) {
                assert_eq!(r.task, sr.task);
                let range = r.start as usize..r.end as usize;
                let srange = sr.start as usize..sr.end as usize;
                assert_eq!(&arena.accesses[range.clone()], flat.of(r.task as usize));
                assert_eq!(&arena.expected[range], &single.arenas[0].expected[srange]);
            }
        }
        // Both arenas together cover exactly the owned Runs' accesses.
        let total: usize = numa.arenas.iter().map(|a| a.accesses.len()).sum();
        assert_eq!(total, flat.arena().len());
        // And the run produces the same store.
        let store = DataStore::filled(4, 0u64);
        numa.run(|_, t| *store.write(t.accesses[0].data) += 1);
        assert_eq!(store.into_vec(), vec![20; 4]);
    }

    #[test]
    #[should_panic(expected = "static total mapping")]
    fn hybrid_executors_cannot_compile() {
        let g = TaskGraph::builder(0).build();
        let _ = Executor::new(cfg(2))
            .hybrid(&crate::hybrid::Unmapped)
            .compile(&g);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn compiled_runs_can_be_traced() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..40 {
            b.task(&[Access::read_write(DataId(0))], 1, "inc");
        }
        let g = b.build();
        let flow = Executor::new(cfg(2))
            .mapping(&RoundRobin)
            .trace(crate::trace_api::TraceConfig::new())
            .compile(&g);
        let run = flow.run(|_, _| {});
        let trace = run.trace.expect("trace present");
        assert_eq!(trace.workers.len(), 2);
        assert_eq!(trace.workers.iter().map(|w| w.tasks).sum::<u64>(), 40);
    }
}
