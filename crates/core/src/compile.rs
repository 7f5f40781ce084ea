//! The engine: lowering `(TaskGraph, mapping, workers)` into one program
//! per worker that holds **that worker's own tasks and nothing else** —
//! and, of their synchronisation, only the halves somebody on another
//! worker depends on — and running those programs.
//! [`crate::Executor::run`] is `compile` followed by `run`; a flow that
//! runs more than once keeps the [`CompiledFlow`] and pays for the
//! lowering once. DESIGN.md §9 has the arguments this module rests on.
//!
//! `try_compile` walks the flow **once**, on one thread. The mapping is
//! static (§3.4, assumptions 1–2), so the private view any worker would
//! hold before a task is the sequential replay of every earlier access:
//! the walk replays it into one simulated view and stores, for each own
//! access, the packed view its guard waits for, in an arena entry its
//! task's instruction names. A foreign task contributes nothing, and a run
//! keeps no private state: a terminate is the shared publication alone.
//! The same walk validates the mapping and the epoch word's limits.
//!
//! **Worker-local synchronisation is compiled away.** Per data object the
//! flow is a sequence of epochs — a writer, the reads after it, the next
//! writer — and an in-order worker has finished its earlier tasks before
//! it starts the next. So a **guard is elided** when everything it would
//! wait for ran on its own worker or does not exist, and a **publication**
//! when no kept guard compares against it. The marks ride in the entries
//! (`AccessPlan`); a publication's fate is only known when its epoch ends,
//! so one sweep of the entries after the walk settles it. An object none
//! of whose accesses keeps a half gets no shared word: a run's table holds
//! [`CompileStats::shared_objects`] entries.
//!
//! **Quiet tasks are ranges.** An own task none of whose accesses keeps a
//! guard or a publication is *quiet*: all a run owes it is its body.
//! Unless the flow's runs need a hook per task (a recovery policy, claims,
//! timing, a fault hook), one more sweep of each program folds its quiet
//! tasks into affine ranges `{first, stride, count}`, which a run takes a
//! block at a time: no instruction, no entry — and no arena at all when no
//! guard is kept.
//!
//! **Tasks nobody owns** — those a [`crate::hybrid::PartialMapping`] leaves
//! unmapped — keep their guards, and so do their dependents. Each is
//! emitted once, into an arena of its own, and as a **claim-marked**
//! instruction into *every* program: whoever reaches it first claims its
//! slot of the run's [`crate::steal::ClaimTable`] and runs it. The per-run
//! protocol state is allocated per run, so a run that aborts leaves the
//! [`CompiledFlow`] reusable.
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

use std::sync::Arc;
use std::time::Instant;

use rio_stf::{
    DataId, ExecError, GraphError, Mapping, MappingError, TaskDesc, TaskGraph, TaskId, WorkerId,
};

use crate::config::RioConfig;
use crate::executor::Execution;
use crate::graph::{RunShell, WorkerCtx};
use crate::hybrid::{HybridStats, PartialMapping};
use crate::pool::WorkerSet;
use crate::protocol::{pack_epoch, spurious_wake_all, SharedDataState};
use crate::steal::{ClaimTable, Claims};

/// One step of a worker's program, 12 bytes: execute the task at flow
/// index `task`, whose accesses and expected words are `arena[start..end]`
/// — of the flow's arena, or of its claimable arena when claim-marked — or,
/// marked [`QUIET`], a *quiet range*: the `end` own tasks `task + stride ·
/// k`, each declaring as many accesses as the first and keeping neither a
/// guard nor a publication, so none has an instruction or an entry.
#[derive(Debug, Clone, Copy)]
struct RunInstr {
    task: u32,
    /// `start` (a range's `stride`) under [`CLAIM_MARK`] and [`QUIET`].
    marked_start: u32,
    end: u32,
}

/// Claim-marked by the mapping: the task has no owner, the instruction is
/// in every worker's program, and whoever claims the task's slot first
/// runs it.
const CLAIM_MARK: u32 = 1 << 31;
/// The walk's mark on an own task that keeps no guard, and once [`settle`]
/// has found it quiet, the mark of a range.
const QUIET: u32 = 1 << 30;

impl RunInstr {
    #[inline]
    fn unmapped(&self) -> bool {
        self.marked_start & CLAIM_MARK != 0
    }

    /// A quiet range's `(first, stride, count)`; `None` for an instruction.
    #[inline]
    fn quiet(&self) -> Option<(usize, usize, usize)> {
        let stride = (self.marked_start & !QUIET) as usize;
        (self.marked_start & QUIET != 0).then_some((self.task as usize, stride, self.end as usize))
    }

    /// Where the task's entries are: one per access it declares.
    #[inline]
    fn range(&self) -> std::ops::Range<usize> {
        (self.marked_start & !(CLAIM_MARK | QUIET)) as usize..self.end as usize
    }
}

/// One worker's compiled program: its own tasks and the claim-marked
/// ones, in flow order.
type WorkerProgram = Vec<RunInstr>;

/// One instruction's entries as the engine ([`WorkerCtx::exec_task`])
/// takes them: per access, which halves of its synchronisation to perform
/// and through which slot, and the precomputed packed private view it
/// waits for.
#[derive(Clone, Copy)]
pub(crate) struct TaskAccesses<'a> {
    pub(crate) plans: &'a [AccessPlan],
    pub(crate) expected: &'a [u64],
    /// The instruction is claim-marked: claim before running, whoever
    /// runs it.
    pub(crate) unmapped: bool,
}

/// What the compiler did, per worker and in aggregate. Every count is
/// static: a function of the flow, the mapping and the configuration.
#[derive(Debug, Clone)]
pub struct CompileStats {
    /// Flow length.
    pub flow_len: usize,
    /// Tasks per worker's program, in ranges or not: the tasks mapped to
    /// it, plus every claim-marked task of a partial mapping (in all).
    pub runs_per_worker: Vec<usize>,
    /// Always 0: no declare survives compilation in any form. (Kept
    /// because the repository's benchmark reads it; it counted the
    /// declares folded into the `Sync` instructions programs once had.)
    pub folded_declares: u64,
    /// Per-access declares compiled away: every access of every task a
    /// worker does not own, summed over workers — what each worker
    /// unrolling the whole flow would pay in private updates.
    pub irrelevant_declares: u64,
    /// Own accesses whose guard was decided at compile time: everything
    /// the `get_*` would wait for runs earlier on the same worker.
    pub elided_gets: u64,
    /// Own accesses whose publication no kept guard compares against.
    pub elided_publishes: u64,
    /// Data objects with at least one kept guard or publication: the
    /// length of a run's shared table.
    pub shared_objects: usize,
}

impl CompileStats {
    /// Total tasks across programs: one per mapped task (and one per
    /// worker per claim-marked task).
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

/// One own access as compiled: the object, and which halves of its
/// synchronisation the run performs. 8 bytes beside the 8-byte expected
/// word, so an arena entry stays 16 bytes per access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AccessPlan {
    pub(crate) data: DataId,
    /// `slot << 3 | PUBLISH | GUARD | WRITES`. The slot — the object's
    /// index in a run's shared table — means something only when a half
    /// is kept.
    bits: u32,
}

const WRITES: u32 = 1;
const GUARD: u32 = 2;
const PUBLISH: u32 = 4;
const SLOT_SHIFT: u32 = 3;

impl AccessPlan {
    /// An access both of whose halves the run performs, on the object's
    /// own index as its slot: what a front-end that compiles nothing
    /// hands the engine.
    #[inline]
    pub(crate) fn kept(data: DataId, writes: bool) -> AccessPlan {
        AccessPlan {
            data,
            bits: (data.0 << SLOT_SHIFT) | PUBLISH | GUARD | (u32::from(writes) * WRITES),
        }
    }

    #[inline]
    pub(crate) fn writes(self) -> bool {
        self.bits & WRITES != 0
    }

    /// Does the run perform this access's `get_*`?
    #[inline]
    pub(crate) fn guard(self) -> bool {
        self.bits & GUARD != 0
    }

    /// Does the run perform this access's shared publication?
    #[inline]
    pub(crate) fn publish(self) -> bool {
        self.bits & PUBLISH != 0
    }

    #[inline]
    pub(crate) fn slot(self) -> usize {
        (self.bits >> SLOT_SHIFT) as usize
    }
}

/// The entries of every owned `Run` instruction, in flow order.
///
/// `expected[k]` is the packed private view
/// ([`crate::protocol::expected_write_word`]) that `plans[k]`'s `get_*`
/// compares the epoch word against — whole for a write, the write half
/// only for a read — computed once by replaying the flow's declares at
/// compile time (for an elided guard it is what the guard would have
/// compared). When every task has an owner, the arena is laid out
/// exactly like [`rio_stf::FlatAccesses`].
#[derive(Debug, Default)]
pub(crate) struct Arena {
    pub(crate) plans: Vec<AccessPlan>,
    pub(crate) expected: Vec<u64>,
}

/// What an arena is filled with until the pass writes its entries.
const BLANK: AccessPlan = AccessPlan {
    data: DataId(0),
    bits: 0,
};

impl Arena {
    fn blank(len: usize) -> Arena {
        Arena {
            plans: vec![BLANK; len],
            expected: vec![0; len],
        }
    }

    /// Only the claimable arena, which starts empty, can prove too short.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, len: usize) {
        self.plans.resize(len, BLANK);
        self.expected.resize(len, 0);
    }

    fn truncate(&mut self, len: usize) {
        self.plans.truncate(len);
        self.expected.truncate(len);
    }
}

/// A flow compiled for a fixed `(graph, mapping, config)` triple —
/// produced by [`crate::Executor::compile`], executed any number of times
/// with [`CompiledFlow::run`]/[`CompiledFlow::try_run`].
///
/// Everything a worker unrolling the whole flow would pay per run is paid
/// once here, on one thread: mapping evaluation and validation (two
/// probes per task), the replay of every declare (into the precomputed
/// expected words) and the decision which guards and publications a run
/// performs at all. The per-run state — a shared protocol table of
/// [`CompileStats::shared_objects`] entries, reports — is allocated fresh
/// on every run, so runs are independent: a run that aborts leaves the
/// program intact.
#[must_use = "a CompiledFlow does nothing until `.run()` is called"]
pub struct CompiledFlow<'g> {
    cfg: RioConfig,
    /// The compiling executor's worker set: every run launches on it.
    set: Arc<WorkerSet>,
    graph: &'g TaskGraph,
    /// The entries of the owned instructions, every worker's.
    arena: Arena,
    /// The entries of the claim-marked instructions, emitted once for all
    /// the programs that hold them.
    claimable: Arena,
    programs: Vec<WorkerProgram>,
    /// How many tasks a partial mapping left to be claimed; `None` for a
    /// total mapping.
    unmapped: Option<usize>,
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
    /// ([`crate::protocol::pack_epoch`]) — or would, had its guard not
    /// been elided. Empty for a task of a quiet range, which has no entry.
    pub expected: &'a [u64],
    plans: &'a [AccessPlan],
    unmapped: bool,
}

impl CompiledTask<'_> {
    /// Is the task quiet — not claim-marked, no access keeping a guard or a
    /// publication? Unless its runs need a hook per task, it is in a range.
    pub fn quiet(&self) -> bool {
        !self.unmapped && !self.plans.iter().any(|p| p.guard() || p.publish())
    }

    /// Is the task claim-marked — left unmapped by a partial mapping, in
    /// every worker's program, run by whoever claims it first?
    pub fn claim_marked(&self) -> bool {
        self.unmapped
    }

    /// Does a run perform the `get_*` of `task.accesses[i]`? `false`:
    /// everything it would wait for runs earlier on the same worker.
    pub fn keeps_guard(&self, i: usize) -> bool {
        self.plans.get(i).is_some_and(|p| p.guard())
    }

    /// Does a run perform the shared publication of `task.accesses[i]`?
    /// `false`: no kept guard compares against it.
    pub fn keeps_publication(&self, i: usize) -> bool {
        self.plans.get(i).is_some_and(|p| p.publish())
    }
}

/// Where no worker is: the writer of an object's initial epoch. Local to
/// everyone — nobody ever waits for it.
const NOBODY: u32 = u32::MAX;
/// Where several workers are, or a task nobody owns. Local to no one.
const SPREAD: u32 = u32::MAX - 1;
/// Where a task nobody owns looks for its predecessors: nothing is ever
/// there, so it is local to nothing.
const UNMAPPED: u32 = u32::MAX - 2;

/// Did everything at `on` run on the worker at `w`, or not exist?
/// (Branch-free, like the rest of the per-access analysis: on an
/// irregular flow its answers are coin flips.)
#[inline]
fn local_to(on: u32, w: u32) -> bool {
    (on == NOBODY) | (on == w)
}

/// The pass's state of one data object: the simulated private view — what
/// *every* worker's view would be before the current task, since declares
/// and terminates update a private view identically — plus who runs the
/// open epoch, so that an access can tell whether it waits for anyone
/// but its own worker.
#[derive(Clone, Copy)]
struct Epoch {
    /// The packed view `(last registered write, reads since)`.
    word: u64,
    /// Where the epoch's writer runs (what a read waits for), and where
    /// the writer and all its reads so far run (what a write waits for).
    on: [u32; 2],
    /// The open epoch's index into the [`Verdict`]s, in an entry's slot
    /// bits. The initial epoch of object `d` is epoch `d`; every write
    /// opens a fresh one.
    named: u32,
    /// 0 until an epoch of the object ends with a guard kept on it; from
    /// then on [`HAS_SLOT`] and, in an entry's slot bits, the object's
    /// slot in a run's shared table.
    slot: u32,
}

const HAS_SLOT: u32 = 1;

/// What [`finish`] ORs into the entries that named an epoch: the
/// object's slot and, if somebody compares against their publications,
/// [`PUBLISH`] — or [`WRITE_ONLY`]. A publication can only be judged once
/// its last consumer has been seen, which is why entries name their
/// epoch while the walk lasts.
///
/// The next writer's guard decides a closed epoch. It compares the whole
/// word, read count included, so if it is kept every read and the write
/// publish; if it is elided, the whole epoch ran on its worker and no
/// read kept a guard either. An epoch still open when the flow ends has
/// no next writer: its reads publish for nobody, its write for any read
/// on another worker.
type Verdict = u32;
/// Only the epoch's write publishes (in the place of an entry's
/// [`WRITES`], so that `verdict & bits` picks writes out).
const WRITE_ONLY: Verdict = WRITES;

/// Lowers `graph` under `mapping` — total, or partial: the tasks it leaves
/// unmapped become claim-marked instructions of every program — into
/// per-worker programs, in one pass over the flow. Behind
/// [`crate::Executor::try_compile`].
///
/// # Errors
/// What the separate checks used to return, in their precedence: the
/// first [`rio_stf::MappingError`] of the flow, else
/// [`GraphError::TaskIdOverflow`] for the first task id the packed epoch
/// word cannot represent.
pub(crate) fn try_compile<'g, M: ?Sized>(
    cfg: &RioConfig,
    set: &Arc<WorkerSet>,
    graph: &'g TaskGraph,
    mapping: &M,
) -> Result<CompiledFlow<'g>, ExecError>
where
    for<'a> Owners<'a, M>: OwnerOf,
{
    lower(cfg, set, graph, u32::MAX, Owners(mapping, cfg.workers))
}

/// A mapping as [`lower`] asks it for owners, over so many workers:
/// probed twice per task.
pub(crate) struct Owners<'a, M: ?Sized>(&'a M, usize);

/// Who runs `task`? `None`: whoever claims it.
pub(crate) trait OwnerOf {
    /// Can the answer be `None`?
    const PARTIAL: bool;
    fn owner_of(&self, task: TaskId) -> Result<Option<WorkerId>, MappingError>;
}

// Inlined by force, like the probes: the walk asks at two sites, and out
// of line the `Result` goes through memory on every task.
impl OwnerOf for Owners<'_, dyn Mapping + '_> {
    const PARTIAL: bool = false;
    #[inline(always)]
    fn owner_of(&self, task: TaskId) -> Result<Option<WorkerId>, MappingError> {
        rio_stf::mapping::probe(self.0, task, self.1).map(Some)
    }
}

impl OwnerOf for Owners<'_, dyn PartialMapping + '_> {
    const PARTIAL: bool = true;
    #[inline(always)]
    fn owner_of(&self, task: TaskId) -> Result<Option<WorkerId>, MappingError> {
        crate::hybrid::probe_partial(self.0, task, self.1)
    }
}

/// The one walk. `limit` is the epoch word's — the largest task id a half
/// of it holds — as a parameter, so that tests reach the rejection path
/// with a handful of tasks.
// Generic over the mapping kind so that a total one, which never answers
// `None`, compiles to the walk without the claim-marked arm.
fn lower<'g, O: OwnerOf>(
    cfg: &RioConfig,
    set: &Arc<WorkerSet>,
    graph: &'g TaskGraph,
    limit: u32,
    owners: O,
) -> Result<CompiledFlow<'g>, ExecError> {
    cfg.validate();
    let (total, widest) = graph.tasks().iter().fold((0, 0), |(total, widest), t| {
        (total + t.accesses.len(), t.accesses.len().max(widest))
    });
    assert!(
        u32::try_from(total).is_ok(),
        "flow declares more than u32::MAX accesses"
    );
    // One epoch per object to begin with, and one per write at most.
    let max_epochs = graph.num_data() + total;
    assert!(
        max_epochs <= (u32::MAX >> SLOT_SHIFT) as usize,
        "flow has more epochs than a compiled entry can name"
    );
    let workers = cfg.workers;
    // Filled in place, up to `filled[k]`, and cut to size at the end: the
    // owned tasks' arena, then the claimable one — tasks nobody owns are
    // lowered like any other.
    let mut arenas = vec![Arena::blank(total), Arena::blank(0)];
    let mut filled = vec![0usize; 2];
    let mut programs: Vec<WorkerProgram> = (0..workers)
        .map(|_| Vec::with_capacity(graph.len() / workers + 1))
        .collect();
    let mut view: Vec<Epoch> = (0..graph.num_data() as u32)
        .map(|d| Epoch {
            word: pack_epoch(TaskId::NONE, 0),
            on: [NOBODY; 2],
            named: d << SLOT_SHIFT,
            slot: 0,
        })
        .collect();
    // Room for a write per task, checked a task ahead; a flow with more
    // makes more.
    let mut verdicts: Vec<Verdict> = vec![0; graph.num_data() + graph.len() + widest];
    let mut next_named = (graph.num_data() as u32) << SLOT_SHIFT;
    let mut shared_objects = 0u32;
    let (mut owned, mut kept_gets, mut unmapped) = (0u64, 0u64, 0usize);
    for (i, t) in graph.tasks().iter().enumerate() {
        let owner = owners.owner_of(t.id)?;
        // Ids are dense, so an epoch's read count stays below the ids of
        // its readers: this check covers both halves of the word.
        if t.id.0 > u64::from(limit) {
            // The mapping used to be validated before the limits: a
            // mapping error anywhere in the flow still outranks this one.
            for later in &graph.tasks()[i + 1..] {
                owners.owner_of(later.id)?;
            }
            return Err(GraphError::TaskIdOverflow {
                task: t.id,
                max: u64::from(limit),
            }
            .into());
        }
        // A task nobody owns is local to nothing, so it and its
        // dependents keep their guards; it goes into every program and
        // whoever claims it runs it.
        let (k, w, on) = match owner {
            Some(w) => (0, w.0, w.0),
            None => (1, UNMAPPED, SPREAD),
        };
        let arena = &mut arenas[k];
        let start = filled[k];
        let end = start + t.accesses.len();
        if end > arena.plans.len() {
            arena.grow(2 * end);
        }
        let epochs = (next_named >> SLOT_SHIFT) as usize + t.accesses.len();
        if epochs > verdicts.len() {
            more_verdicts(&mut verdicts, 2 * epochs);
        }
        let entries = arena.plans[start..end]
            .iter_mut()
            .zip(&mut arena.expected[start..end]);
        let opened = t.id.0 << 32;
        let mut guards = 0;
        // All of a task's gets use the pre-task view (its own terminates
        // happen after the body; a task never declares one data object
        // twice), so entries are emitted as the view advances.
        for (a, (plan, expected)) in t.accesses.iter().zip(entries) {
            let e = &mut view[a.data.index()];
            let writes = a.mode.writes();
            // Does this access wait for anyone but its own worker?
            let guard = !local_to(e.on[usize::from(writes)], w);
            guards += u64::from(guard);
            *expected = e.word;
            if writes {
                let named = e.named;
                (e.word, e.on, e.named) = (opened, [on; 2], next_named);
                next_named += 1 << SLOT_SHIFT;
                // If a read of the closed epoch kept its guard, so does
                // this write: it is on another worker than the writer.
                verdicts[(named >> SLOT_SHIFT) as usize] =
                    close(e, guard, &mut shared_objects) | (u32::from(guard) * PUBLISH);
            } else {
                e.word += 1;
                e.on[1] = if local_to(e.on[1], w) { on } else { SPREAD };
            }
            // The publication half and the slot are [`finish`]'s: until
            // then the entry names the epoch whose verdict holds them —
            // the one a write opens, the one a read reads in.
            *plan = AccessPlan {
                data: a.data,
                bits: e.named | (u32::from(writes) * WRITES) | (u32::from(guard) * GUARD),
            };
        }
        // Quiet, unless [`settle`] finds a publication kept.
        let quiet = owner.is_some() & (guards == 0);
        let marks = (u32::from(owner.is_none()) * CLAIM_MARK) | (u32::from(quiet) * QUIET);
        let run = RunInstr {
            task: i as u32,
            marked_start: start as u32 | marks,
            end: end as u32,
        };
        if k == 0 {
            programs[w as usize].push(run);
        } else {
            programs.iter_mut().for_each(|p| p.push(run));
            unmapped += 1;
        }
        filled[k] = end;
        owned += t.accesses.len() as u64;
        kept_gets += guards;
    }
    for (arena, &len) in arenas.iter_mut().zip(&filled) {
        arena.truncate(len);
    }
    // The epochs still open have no next writer: the only guards kept on
    // them are those of reads on another worker than a writer's.
    for e in &mut view {
        // (A writer nobody owns is `SPREAD` before anything has read.)
        let read_elsewhere = (e.on[1] == SPREAD) & (e.on[0] != NOBODY) & (e.word as u32 != 0);
        verdicts[(e.named >> SLOT_SHIFT) as usize] = close(e, read_elsewhere, &mut shared_objects)
            | (u32::from(read_elsewhere) * WRITE_ONLY);
    }
    // A block claims nothing, reads no clock, calls no hook and consults no
    // recovery policy: where a run needs one, quiet tasks stay instructions.
    // (A watchdog fires inside blocked waits, which a quiet task never has.)
    let blocks = unmapped == 0 && cfg.recovery.is_none() && !cfg.measure_time;
    #[cfg(feature = "fault-inject")]
    let blocks = blocks && cfg.fault_hook.is_none();
    let blocks = blocks && cfg.trace.is_none();
    // A publication is kept for a kept guard: with no guard kept, every own
    // task is quiet, and ranges read no entry.
    if blocks && kept_gets == 0 {
        arenas[0] = Arena::default();
    }
    let kept_publishes: u64 = arenas
        .iter_mut()
        .map(|arena| finish(&mut arena.plans, &verdicts))
        .sum();
    drop((view, verdicts));
    let runs_per_worker = programs.iter().map(Vec::len).collect();
    for prog in &mut programs {
        settle(prog, &arenas[0].plans, kept_publishes > 0, blocks);
    }
    let claimable = arenas.pop().expect("two arenas");
    let arena = arenas.pop().expect("two arenas");
    let stats = CompileStats {
        flow_len: graph.len(),
        runs_per_worker,
        folded_declares: 0,
        irrelevant_declares: workers as u64 * total as u64 - owned,
        elided_gets: owned - kept_gets,
        elided_publishes: owned - kept_publishes,
        shared_objects: shared_objects as usize,
    };
    Ok(CompiledFlow {
        cfg: cfg.clone(),
        set: Arc::clone(set),
        graph,
        arena,
        claimable,
        programs,
        unmapped: O::PARTIAL.then_some(unmapped),
        stats,
    })
}

#[cold]
#[inline(never)]
fn more_verdicts(verdicts: &mut Vec<Verdict>, len: usize) {
    verdicts.resize(len, 0);
}

/// An epoch boundary of `e`'s object: if a guard was kept on the epoch
/// (`waited_on`) and the object has no slot in a run's shared table yet,
/// it gets the next one. Returns the slot as an entry's slot bits (none:
/// 0 — nothing is waited on, so nothing will look).
#[inline]
fn close(e: &mut Epoch, waited_on: bool, shared_objects: &mut u32) -> u32 {
    // Once per object at most: a branch, for once, predicts well.
    if waited_on & (e.slot == 0) {
        e.slot = *shared_objects << SLOT_SHIFT | HAS_SLOT;
        *shared_objects += 1;
    }
    e.slot & !HAS_SLOT
}

/// Gives every entry what the epoch it named came to: the object's slot
/// and the publication half. Returns how many publications are kept.
fn finish(plans: &mut [AccessPlan], verdicts: &[Verdict]) -> u64 {
    let mut publishes = 0;
    for p in plans {
        let verdict = verdicts[p.slot()];
        let write_only = (verdict & p.bits & WRITE_ONLY) * (PUBLISH / WRITE_ONLY);
        p.bits = (p.bits & (WRITES | GUARD)) | (verdict & !WRITE_ONLY) | write_only;
        publishes += u64::from(p.publish());
    }
    publishes
}

/// After [`finish`] (`publishing`: anything publishes), one sweep of a
/// program turns each task the walk marked [`QUIET`] and none of whose
/// entries publishes into a member of a quiet range (if `blocks`).
fn settle(prog: &mut WorkerProgram, plans: &[AccessPlan], publishing: bool, blocks: bool) {
    // The last range, while no instruction follows it: its place, and how
    // many accesses each of its tasks declares.
    let mut open = None;
    let mut kept = 0;
    for i in 0..prog.len() {
        let mut r = prog[i];
        let n = r.range().len();
        let quiet = blocks
            && r.marked_start & QUIET != 0
            && !(publishing && plans[r.range()].iter().any(|p| p.publish()));
        if let Some((at, accesses)) = open.filter(|_| quiet) {
            let q: &mut RunInstr = &mut prog[at];
            // A second member fixes the stride.
            let fixed = q.marked_start & !QUIET;
            let stride = if q.end == 1 { r.task - q.task } else { fixed };
            let next = u64::from(q.task) + u64::from(stride) * u64::from(q.end);
            if n == accesses && stride < QUIET && u64::from(r.task) == next {
                (q.marked_start, q.end) = (QUIET | stride, q.end + 1);
                continue;
            }
        }
        open = quiet.then_some((kept, n));
        r.marked_start &= !QUIET;
        if quiet {
            (r.marked_start, r.end) = (QUIET, 1);
        }
        prog[kept] = r;
        kept += 1;
    }
    prog.truncate(kept);
    // What the ranges took out, unless too little to be worth a copy.
    if prog.len() < prog.capacity() / 4 * 3 {
        prog.shrink_to_fit();
    }
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

    /// What the compiler did: instruction counts, the declares it
    /// compiled away, the guards and publications it elided.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// `worker`'s whole program: its own tasks — and the claim-marked
    /// ones, which are in everybody's — in flow order, each with the
    /// precomputed word every access waits for and which halves of its
    /// synchronisation a run performs.
    ///
    /// # Panics
    /// If `worker` is not one of the compiled configuration's workers.
    pub fn own_tasks(&self, worker: WorkerId) -> impl Iterator<Item = CompiledTask<'_>> {
        let tasks = self.graph.tasks();
        self.programs[worker.index()].iter().flat_map(move |r| {
            let kept = r.quiet().is_none().then(|| self.accesses(r));
            let (expected, plans, unmapped) = kept.map_or((&[][..], &[][..], false), |a| {
                (a.expected, a.plans, a.unmapped)
            });
            let (first, stride, count) = r.quiet().unwrap_or((r.task as usize, 0, 1));
            (0..count).map(move |k| CompiledTask {
                task: &tasks[first + stride * k],
                expected,
                plans,
                unmapped,
            })
        })
    }

    /// The accesses of `r`, whose entries are in the claimable arena if it
    /// is claim-marked, else in the flow's.
    #[inline]
    fn accesses(&self, r: &RunInstr) -> TaskAccesses<'_> {
        let arena = if r.unmapped() {
            &self.claimable
        } else {
            &self.arena
        };
        TaskAccesses {
            plans: &arena.plans[r.range()],
            expected: &arena.expected[r.range()],
            unmapped: r.unmapped(),
        }
    }

    /// Executes the compiled program: `kernel(worker, task)` exactly once
    /// per task, on the worker the mapping names (or, for a claim-marked
    /// task, on whichever claimed it), in flow order per worker.
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
        // Only objects somebody can wait on have a word.
        let shared = SharedDataState::new_table(self.stats.shared_objects);
        let shared = &shared[..];
        let kernel = &kernel;
        // Per-run claim state, iff some instruction is claim-marked: a
        // partial mapping left tasks unmapped. A slot per task.
        let table = self
            .unmapped
            .is_some_and(|n| n > 0)
            .then(|| ClaimTable::new(self.graph.len()));
        let claims = table.as_ref().map(|table| Claims {
            table,
            epoch: table.begin_run(),
        });

        let (report, outcome, claimed) = RunShell::new(cfg, self.graph.num_data()).run(
            &self.set,
            shared,
            &|| spurious_wake_all(shared),
            |mut ctx| {
                ctx.claims = claims;
                self.run_program(ctx, kernel)
            },
        )?;
        let mut run = Execution {
            report,
            outcome,
            hybrid: self.unmapped.map(|_| {
                let (claimed_per_worker, lost_races_per_worker) = claimed.into_iter().unzip();
                HybridStats {
                    claimed_per_worker,
                    lost_races_per_worker,
                }
            }),
            ..Execution::default()
        };
        run.counters = run.report.counters.clone();
        run.trace = run.report.take_trace();
        Ok(run)
    }

    /// One worker's loop: a linear walk of its program through the
    /// [`WorkerCtx`] engine, which keeps no private state — a quiet range a
    /// block at a time. Returns the worker's report and its `(won, lost)`
    /// claims of unmapped tasks.
    fn run_program<K>(
        &self,
        mut ctx: WorkerCtx<'_>,
        kernel: &K,
    ) -> (crate::report::WorkerReport, (u64, u64))
    where
        K: Fn(WorkerId, &TaskDesc) + Sync,
    {
        let (worker, me) = (ctx.me, ctx.me.index());
        let tasks = self.graph.tasks();
        let prog = &self.programs[me];
        let loop_start = Instant::now();
        for r in prog {
            if let Some(q) = r.quiet() {
                if ctx.exec_range(q, tasks[q.0].accesses.len(), |i| kernel(worker, &tasks[i])) {
                    continue;
                }
                break;
            }
            ctx.tasks_visited += 1;
            let t = &tasks[r.task as usize];
            if !ctx.exec_task(t.id, self.accesses(r), || kernel(worker, t)) {
                break;
            }
        }
        let claimed = ctx.unmapped_claims;
        (ctx.finish(loop_start), claimed)
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
        for g in [crate::testing::independent(n), crate::testing::chain(n)] {
            let flow = compile(cfg(4), &g);
            let stats = flow.stats();
            assert_eq!(stats.runs_per_worker, vec![10; 4]);
            assert_eq!(stats.instructions(), g.len());
            assert_eq!(stats.folded_declares, 0);
            assert_eq!(stats.coalesce_factor(), 0.0);
            // 4 workers × 30 foreign single-access tasks each: what
            // unrolling the whole flow on every worker would pay in
            // private declares.
            assert_eq!(stats.irrelevant_declares, 120);
            for w in 0..4 {
                let mine: Vec<usize> = (0..n).filter(|i| i % 4 == w).collect();
                let prog = flow.own_tasks(WorkerId::from_index(w));
                assert_eq!(prog.map(|t| t.task.id.index()).collect::<Vec<_>>(), mine);
            }
        }
    }

    #[test]
    fn independent_tasks_compile_to_one_range_per_program_and_no_arena() {
        let g = crate::testing::independent(4096);
        let flow = compile(cfg(2), &g);
        assert_eq!(flow.stats().runs_per_worker, [2048, 2048]);
        assert!(flow.arena.plans.is_empty());
        for (w, prog) in flow.programs.iter().enumerate() {
            let ranges: Vec<_> = prog.iter().map(RunInstr::quiet).collect();
            assert_eq!(ranges, [Some((w, 2, 2048))]);
        }
    }

    #[test]
    fn long_foreign_stretches_cost_the_owner_nothing() {
        // W0 owns only the first and last task; the 98 tasks between are
        // W1's, all on the same datum. W0's program is two instructions,
        // and its last task's expected word already accounts for all 98.
        let n = 100;
        let g = crate::testing::chain(n);
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
        let g = crate::testing::fanout(8);
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

    /// `(guard kept, publication kept)` of every own access, per task in
    /// flow order.
    fn marks(flow: &CompiledFlow<'_>) -> Vec<Vec<(bool, bool)>> {
        let mut out = vec![Vec::new(); flow.graph().len()];
        for w in 0..flow.config().workers {
            for ct in flow.own_tasks(WorkerId::from_index(w)) {
                out[ct.task.id.index()] = (0..ct.task.accesses.len())
                    .map(|i| (ct.keeps_guard(i), ct.keeps_publication(i)))
                    .collect();
            }
        }
        out
    }

    /// One object, one single-access task per `(mode, worker)`.
    fn epochs(accesses: &[(char, u32)]) -> (TaskGraph, TableMapping) {
        let mut b = TaskGraph::builder(1);
        for &(mode, _) in accesses {
            let a = match mode {
                'r' => Access::read(DataId(0)),
                _ => Access::write(DataId(0)),
            };
            b.task(&[a], 1, "t");
        }
        let owners = accesses
            .iter()
            .map(|&(_, w)| rio_stf::WorkerId(w))
            .collect();
        (b.build(), TableMapping::new(owners))
    }

    const KEPT: (bool, bool) = (true, true);
    const GUARD: (bool, bool) = (true, false);
    const PUBLISH: (bool, bool) = (false, true);
    const ELIDED: (bool, bool) = (false, false);

    #[test]
    fn private_objects_share_nothing() {
        // Every object is touched once: a first write of an untouched
        // object waits for nobody, and nobody waits for it — whatever the
        // mapping. The run allocates no word at all.
        let n = 40;
        let g = crate::testing::independent(n);
        let flow = compile(cfg(4), &g);
        let stats = flow.stats();
        assert_eq!((stats.elided_gets, stats.elided_publishes), (40, 40));
        assert_eq!(stats.shared_objects, 0);
        let store = DataStore::filled(n, 0u64);
        let run = flow.run(|_, t| *store.write(t.accesses[0].data) = t.id.0);
        assert_eq!(store.into_vec(), (1..=n as u64).collect::<Vec<_>>());
        // The books still count every access, and no terminate ran a wake.
        let ops = run.report.total_ops();
        assert_eq!((ops.gets, ops.terminates, ops.waits), (40, 40, 0));
        assert_eq!(run.counters.total().wakes_elided, 40);
    }

    #[test]
    fn one_workers_chain_is_all_program_order() {
        // Reads and writes of one object, all on W1 of two.
        let (g, m) = epochs(&[('w', 1), ('r', 1), ('r', 1), ('w', 1), ('r', 1)]);
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        assert_eq!(marks(&flow), vec![vec![ELIDED]; 5]);
        assert_eq!(flow.stats().shared_objects, 0);
        // So all five are one quiet range, with no word left to compare.
        let quiet: Vec<_> = flow.programs[1].iter().map(RunInstr::quiet).collect();
        assert_eq!(quiet, [Some((0, 1, 5))]);
    }

    #[test]
    fn initial_epoch_reads_publish_once_a_remote_writer_waits_for_them() {
        // No writer to wait for: both reads elide their guard, wherever
        // they run. T3 (W1) must wait for T1 (W0), and its guard compares
        // the whole word — so T2, on its own worker, publishes too.
        let (g, m) = epochs(&[('r', 0), ('r', 1), ('w', 1)]);
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        assert_eq!(marks(&flow), [[PUBLISH], [PUBLISH], [GUARD]]);
        assert_eq!(flow.stats().shared_objects, 1);
        assert_eq!(
            (flow.stats().elided_gets, flow.stats().elided_publishes),
            (2, 1)
        );
        // With the first writer on the readers' worker instead, nothing
        // of the epoch is shared.
        let (g, m) = epochs(&[('r', 0), ('r', 0), ('w', 0)]);
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        assert_eq!(marks(&flow), vec![vec![ELIDED]; 3]);
    }

    #[test]
    fn readers_split_across_the_next_writers_worker_and_another() {
        // T3 (W1) waits for T1; T4 (W0) waits for T3 — and thereby for
        // the count T2, its own worker's read, must add to.
        let (g, m) = epochs(&[('w', 0), ('r', 0), ('r', 1), ('w', 0)]);
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        assert_eq!(marks(&flow), [[PUBLISH], [PUBLISH], [KEPT], [GUARD]]);
        let store = DataStore::from_vec(vec![0u64]);
        flow.run(|_, t| match t.id.0 {
            1 => *store.write(DataId(0)) = 5,
            4 => *store.write(DataId(0)) += 1,
            _ => assert_eq!(*store.read(DataId(0)), 5),
        });
        assert_eq!(store.into_vec(), vec![6]);
    }

    #[test]
    fn the_last_epochs_reads_publish_for_nobody() {
        // T3 (W1) keeps its guard, so T1 publishes; no writer follows.
        let (g, m) = epochs(&[('w', 0), ('r', 0), ('r', 1)]);
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        assert_eq!(marks(&flow), [[PUBLISH], [ELIDED], [GUARD]]);
        assert_eq!(flow.stats().shared_objects, 1);
        // The open epoch's words were restored when the flow ended.
        use crate::protocol::pack_epoch;
        let t3 = flow.own_tasks(WorkerId(1)).next().unwrap();
        assert_eq!(t3.expected, [pack_epoch(TaskId(1), 1)]);
    }

    #[test]
    fn kept_and_elided_epochs_of_one_object_mix() {
        // D0: two epochs on W0 alone, one that W1 reads, a remote
        // overwrite, and W1 alone again — stale words in between are
        // overwritten by the next kept write before anyone compares.
        let plan = [
            ('w', 0),
            ('r', 0),
            ('w', 0),
            ('r', 0), // W0 only
            ('w', 0),
            ('r', 1),
            ('r', 0), // T5 publishes for T6
            ('w', 1), // waits for T5, T6, T7
            ('r', 1),
            ('w', 1),
            ('r', 1), // W1 only
        ];
        let (g, m) = epochs(&plan);
        let flow = Executor::new(cfg(2)).mapping(&m).compile(&g);
        let expect = [
            ELIDED, ELIDED, ELIDED, ELIDED, PUBLISH, KEPT, PUBLISH, GUARD, ELIDED, ELIDED, ELIDED,
        ];
        assert_eq!(marks(&flow), expect.map(|m| vec![m]));
        for wait in crate::testing::WAITS {
            let flow = Executor::new(RioConfig::with_workers(2).wait(wait))
                .mapping(&m)
                .compile(&g);
            let store = DataStore::from_vec(vec![0u64]);
            let sums = AtomicU64::new(0);
            flow.run(|_, t| {
                if t.accesses[0].mode.writes() {
                    *store.write(DataId(0)) = t.id.0;
                } else {
                    sums.fetch_add(*store.read(DataId(0)), Ordering::Relaxed);
                }
            });
            // Each read saw its epoch's writer: T2→1, T4→3, T6/T7→5, T9→8, T11→10.
            assert_eq!(
                sums.load(Ordering::Relaxed),
                1 + 3 + 5 + 5 + 8 + 10,
                "{wait}"
            );
            assert_eq!(store.into_vec(), vec![10]);
        }
    }

    /// A mapping that counts its calls.
    struct Counting(std::sync::atomic::AtomicUsize);
    impl Mapping for Counting {
        fn worker_of(&self, task: TaskId, workers: usize) -> rio_stf::WorkerId {
            self.0.fetch_add(1, Ordering::Relaxed);
            rio_stf::WorkerId((task.index() % workers) as u32)
        }
    }

    #[test]
    fn the_one_walk_probes_the_mapping_twice_per_task() {
        let (g, _) = epochs(&[('w', 0); 20]);
        let m = Counting(Default::default());
        let _ = Executor::new(cfg(2)).mapping(&m).compile(&g);
        assert_eq!(m.0.load(Ordering::Relaxed), 2 * 20, "two probes per task");
    }

    #[test]
    fn limits_are_read_off_the_view_and_rank_below_the_mapping() {
        use rio_stf::{GraphError, MappingError};
        // Against a limit of 2, the value `TaskGraph::validate_limits`
        // reports: T3's id overflows (before any read count could).
        let (g, _) = epochs(&[('w', 0), ('r', 0), ('r', 0), ('r', 0)]);
        let lower = |c: RioConfig, m: &dyn Mapping| lower(&c, &Arc::default(), &g, 2, Owners(m, 2));
        let err = lower(cfg(2), &RoundRobin).unwrap_err();
        assert!(matches!(
            err,
            ExecError::InvalidGraph(GraphError::TaskIdOverflow {
                task: TaskId(3),
                max: 2
            })
        ));
        // A mapping error later in the flow still comes first, as when
        // the mapping was validated before the limit check.
        let late = rio_stf::mapping::FnMapping(|t: TaskId, _| {
            rio_stf::WorkerId(if t == TaskId(4) { 7 } else { 0 })
        });
        let err = lower(cfg(2), &late).unwrap_err();
        assert!(matches!(
            err,
            ExecError::InvalidMapping(MappingError::OutOfRange {
                task: TaskId(4),
                ..
            })
        ));
    }

    #[test]
    fn compiled_run_matches_interpreted_results() {
        // Mixed mesh over 4 data objects: a one-shot, and a reused flow's
        // second run, must leave the store the flow leaves when
        // interpreted task by task in flow order.
        let g = crate::testing::mesh(200);
        // 0: sequential; 1: one-shot; 2: reused flow.
        let run_store = |how: u8| {
            let store = DataStore::filled(4, 0u64);
            let body = |t: &TaskDesc| {
                let seen: u64 = t.reads().map(|d| *store.read(d)).sum();
                for d in t.writes() {
                    *store.write(d) = seen.wrapping_mul(31) + u64::from(d.0) + t.id.0;
                }
            };
            let kernel = |_: WorkerId, t: &TaskDesc| body(t);
            match how {
                0 => drop(rio_stf::sequential::run_graph(&g, |id| body(g.task(id)))),
                1 => drop(Executor::new(cfg(3)).mapping(&RoundRobin).run(&g, kernel)),
                _ => {
                    let flow = compile(cfg(3), &g);
                    flow.run(|_, _| {});
                    flow.run(kernel);
                }
            }
            store.into_vec()
        };
        assert_eq!(run_store(1), run_store(0));
        assert_eq!(run_store(2), run_store(0));
    }

    #[test]
    fn compiled_report_counts_own_tasks_only() {
        let g = crate::testing::chain(10);
        let flow = compile(cfg(2), &g);
        let run = flow.run(|_, _| {});
        assert_eq!(run.report.tasks_executed(), 10);
        for w in &run.report.workers {
            assert_eq!(w.tasks_executed, 5);
            assert_eq!(w.tasks_visited, 5, "visited == own Run instructions");
            assert_eq!(w.ops.gets, 5);
            assert_eq!(w.ops.terminates, 5);
            assert_eq!(w.ops.declares, 0, "a run declares nothing");
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
        let g = crate::testing::chain(60);
        let flow = compile(cfg(3), &g);
        let store = DataStore::from_vec(vec![0u64]);
        for _ in 0..5 {
            flow.run(|_, _| *store.write(DataId(0)) += 1);
        }
        assert_eq!(store.into_vec(), vec![300]);
    }

    #[test]
    fn preflight_validation_happens_at_compile_time_only() {
        let g = crate::testing::chain(20);
        let m = Counting(Default::default());
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
        let g = crate::testing::chain(30);
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
        for wait in crate::testing::WAITS {
            let g = crate::testing::chains(100, 2);
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
        let g = crate::testing::fanout(2);
        let flow = compile(cfg(2), &g);
        // Every task owned, and every one keeps a half: the arena in exact
        // flat order.
        let expected = &flow.arena.expected;
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
    fn hybrid_executors_compile_once_and_rerun() {
        use crate::hybrid::{PartialFn, Unmapped};
        // Two RW chains; compile once, run three times, under a fully
        // dynamic mapping and a mixed one (every third task pinned to W1).
        let g = crate::testing::chains(90, 2);
        let mixed = PartialFn(|t: TaskId, _| t.0.is_multiple_of(3).then_some(WorkerId(1)));
        let partials: [(&dyn PartialMapping, usize); 2] = [(&Unmapped, 90), (&mixed, 60)];
        for (partial, unmapped) in partials {
            let flow = Executor::new(cfg(3)).hybrid(partial).compile(&g);
            assert_eq!(flow.unmapped, Some(unmapped));
            // A claim-marked task is in every program, a pinned one in
            // its worker's.
            let pinned = 90 - unmapped;
            assert_eq!(
                flow.stats().runs_per_worker,
                [unmapped, unmapped + pinned, unmapped]
            );
            assert_eq!(flow.claimable.plans.len(), unmapped);
            let store = DataStore::from_vec(vec![0u64, 0]);
            for _ in 0..3 {
                let run = flow.run(|_, t| *store.write(t.accesses[0].data) += 1);
                assert_eq!(run.report.tasks_executed(), 90);
                let stats = run.hybrid.expect("a partial mapping reports claims");
                assert_eq!(
                    stats.claimed_per_worker.iter().sum::<u64>(),
                    unmapped as u64
                );
                assert_eq!(
                    stats.lost_races_per_worker.iter().sum::<u64>(),
                    2 * unmapped as u64,
                    "two of three workers lose every race"
                );
            }
            assert_eq!(store.into_vec(), vec![135, 135]);
        }
    }

    #[test]
    fn unmapped_tasks_keep_the_synchronisation_of_the_epochs_they_touch() {
        use crate::hybrid::PartialFn;
        // D0: T1 (W0) writes, T2 (unmapped) reads, T3 (W0) writes. D1: a
        // chain on W0 alone. Nothing of D1 is shared; on D0, T2 keeps its
        // guard, so T1 publishes, and T3 — which waits for a read it
        // cannot place — keeps its guard, so T2 publishes.
        let mut b = TaskGraph::builder(2);
        b.task(&[Access::write(DataId(0))], 1, "w");
        b.task(&[Access::read(DataId(0))], 1, "r");
        b.task(&[Access::write(DataId(0))], 1, "w");
        b.task(&[Access::read_write(DataId(1))], 1, "rw");
        b.task(&[Access::read_write(DataId(1))], 1, "rw");
        let g = b.build();
        let pm = PartialFn(|t: TaskId, _| (t != TaskId(2)).then_some(WorkerId(0)));
        let flow = Executor::new(cfg(2)).hybrid(&pm).compile(&g);
        assert_eq!(
            marks(&flow),
            [[PUBLISH], [KEPT], [GUARD], [ELIDED], [ELIDED]]
        );
        assert_eq!(flow.stats().shared_objects, 1);
        assert_eq!(
            (flow.stats().elided_gets, flow.stats().elided_publishes),
            (3, 3)
        );
        let claim_marked: Vec<bool> = flow
            .own_tasks(WorkerId(1))
            .map(|t| t.claim_marked())
            .collect();
        assert_eq!(claim_marked, [true], "W1's program is T2 alone");
        // No claim-marked instruction, no claim table: a total mapping
        // dressed as a partial one runs like the total one.
        let all = crate::hybrid::Total(RoundRobin);
        let flow = Executor::new(cfg(2)).hybrid(&all).compile(&g);
        assert_eq!(flow.unmapped, Some(0));
        let run = flow.run(|_, _| {});
        let stats = run.hybrid.expect("still a hybrid run");
        assert_eq!(stats.claimed_per_worker, [0, 0]);
        assert_eq!(stats.lost_races_per_worker, [0, 0]);
    }

    #[test]
    fn compiled_runs_can_be_traced() {
        let g = crate::testing::chain(40);
        let flow = Executor::new(cfg(2))
            .mapping(&RoundRobin)
            .trace(crate::TraceConfig::new())
            .compile(&g);
        let run = flow.run(|_, _| {});
        let trace = run.trace.expect("trace present");
        assert_eq!(trace.workers.len(), 2);
        assert_eq!(trace.workers.iter().map(|w| w.tasks).sum::<u64>(), 40);
    }
}
