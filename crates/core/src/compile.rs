//! The engine: lowering `(TaskGraph, mapping, workers)` into one program
//! per worker that holds **that worker's own tasks and nothing else** —
//! and, of their synchronisation, only the halves somebody on another
//! worker depends on — and running those programs.
//! [`crate::Executor::run`] is `compile` followed by `run`; a flow that
//! runs more than once keeps the [`CompiledFlow`] and pays for the
//! lowering once. DESIGN.md §9 has the arguments this module rests on.
//!
//! `try_compile` walks the flow **once**, a segment per worker of the
//! executor's set when it is long: the thread that walks a segment also
//! counts its accesses before and finishes its entries after, in an arena
//! of the segment's own. The mapping is static (§3.4, assumptions 1–2), so
//! the private view any worker would hold before a task is the sequential
//! replay of every earlier access: the walk replays it into a simulated
//! view and stores, for each own access, a 4-byte plan in its segment's
//! arena and, where its guard is kept, the packed view the guard waits for:
//! the task's instruction names its first plan and its first word. A fix-up
//! replays, for each segment, what it did to objects an earlier one
//! touched. A foreign task contributes nothing, and a run keeps no private
//! state: a terminate is the shared publication alone.
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
//! guard or a publication is *quiet*: all a run owes it is its body, in an
//! affine range `{first, stride, count}` — no instruction, no entry, and no
//! arena at all when no guard is kept. The walk folds each task that keeps
//! no guard into its worker's candidate range as it goes; a publication is
//! only known once its epoch ends, so `settle` then cuts a candidate where
//! a member keeps one (or the fix-up kept its guard) and joins the pieces —
//! with no guard kept, without reading anything. The program depends on
//! the flow, the mapping and
//! the worker count alone; whether a run takes a range a block at a time or
//! body by body (a clock, a fault hook, a recovery deadline or poison) is
//! the engine's call (`WorkerCtx::exec_range`).
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

use std::iter::Peekable;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rio_stf::{
    DataId, ExecError, GraphError, Mapping, MappingError, TaskDesc, TaskGraph, TaskId, WorkerId,
};

use crate::config::RioConfig;
use crate::executor::Execution;
use crate::graph::{RunShell, WorkerCtx};
use crate::hybrid::{HybridStats, PartialMapping};
use crate::pool::WorkerSet;
use crate::protocol::{pack_epoch, spurious_wake_all, unpoisoned, SharedDataState};
use crate::steal::{ClaimTable, Claims};

/// One step of a worker's program, 12 bytes: execute the task at flow
/// index `task`, whose plans are `arena.plans[start..]`, one per access the
/// task declares, and whose words begin at word `words` of the arena — its
/// segment's, or the claimable one when claim-marked — or, marked
/// [`QUIET`], a *quiet range*: the `words` own tasks `task + stride · k`,
/// each declaring as many accesses as the first and keeping neither a guard
/// nor a publication, so none has an instruction or an entry.
#[derive(Debug, Clone, Copy)]
struct RunInstr {
    task: u32,
    /// `start` (a range's `stride`) under [`CLAIM_MARK`] and [`QUIET`].
    marked_start: u32,
    words: u32,
}

/// Claim-marked by the mapping: the task has no owner, the instruction is
/// in every worker's program, and whoever claims the task's slot first
/// runs it.
const CLAIM_MARK: u32 = 1 << 31;
/// The mark of a quiet range: the walk's candidates, and [`settle`]'s
/// ranges.
const QUIET: u32 = 1 << 30;

impl RunInstr {
    const fn new(task: u32, marked_start: u32, words: u32) -> RunInstr {
        RunInstr {
            task,
            marked_start,
            words,
        }
    }

    #[inline]
    fn unmapped(&self) -> bool {
        self.marked_start & CLAIM_MARK != 0
    }

    /// A quiet range's `(first, stride, count)`; `None` for an instruction.
    #[inline]
    fn quiet(&self) -> Option<(usize, usize, usize)> {
        let (first, count) = (self.task as usize, self.words as usize);
        let stride = (self.marked_start & !QUIET) as usize;
        (self.marked_start & QUIET != 0).then_some((first, stride, count))
    }

    /// Where the plans of a task that declares `n` accesses are.
    #[inline]
    fn plans(&self, n: usize) -> std::ops::Range<usize> {
        let start = (self.marked_start & !(CLAIM_MARK | QUIET)) as usize;
        start..start + n
    }
}

/// One worker's compiled program: its own tasks and the claim-marked ones,
/// in flow order, and where segments `1..` begin in it. An instruction's
/// plans and words are in its segment's arena; a range has none, and may
/// run on.
type WorkerProgram = (Vec<RunInstr>, Vec<usize>);

/// One instruction's entries as the engine ([`WorkerCtx::exec_task`])
/// takes them: per access, which halves of its synchronisation to perform
/// and through which slot, and per kept guard, in order, the packed
/// private view it waits for. A quiet task's are `default()`: none.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TaskAccesses<'a> {
    pub(crate) plans: &'a [AccessPlan],
    pub(crate) words: &'a [u64],
    /// The instruction is claim-marked: claim before running, whoever
    /// runs it.
    pub(crate) unmapped: bool,
}

/// What the compiler did, per worker and in aggregate. Every count is
/// static: a function of the flow, the mapping and the worker count — and,
/// for [`CompileStats::segments`] alone, of how many CPUs the compile had.
#[derive(Clone)]
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
    /// Steps of all programs: instructions, and quiet ranges, each one.
    pub program_len: usize,
    /// How many stretches the walk was split into (one: not split). Left
    /// out of the `Debug` form, which is the same for every split.
    pub segments: usize,
}

impl std::fmt::Debug for CompileStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileStats")
            .field("flow_len", &self.flow_len)
            .field("runs_per_worker", &self.runs_per_worker)
            .field("folded_declares", &self.folded_declares)
            .field("irrelevant_declares", &self.irrelevant_declares)
            .field("elided_gets", &self.elided_gets)
            .field("elided_publishes", &self.elided_publishes)
            .field("shared_objects", &self.shared_objects)
            .field("program_len", &self.program_len)
            .finish_non_exhaustive()
    }
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

/// One own access as compiled, 4 bytes: `slot << 4 | PUBLISH | GUARD |
/// WRITES` — which halves of its synchronisation the run performs; a kept
/// guard has a word. The slot, the object's index in a run's shared table,
/// means something only when a half is kept; the object is the declared
/// access's, which the engine holds already.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AccessPlan(u32);

const WRITES: u32 = 1;
const GUARD: u32 = 2;
const PUBLISH: u32 = 4;
const SLOT_SHIFT: u32 = 4;

impl AccessPlan {
    /// An access both of whose halves the run performs, on the object's
    /// own index as its slot: what a front-end that compiles nothing
    /// hands the engine, with a word.
    #[inline]
    pub(crate) fn kept(data: DataId, writes: bool) -> AccessPlan {
        let halves = PUBLISH | GUARD | (u32::from(writes) * WRITES);
        AccessPlan((data.0 << SLOT_SHIFT) | halves)
    }

    #[inline]
    pub(crate) fn writes(self) -> bool {
        self.0 & WRITES != 0
    }

    /// Does the run perform this access's `get_*`?
    #[inline]
    pub(crate) fn guard(self) -> bool {
        self.0 & GUARD != 0
    }

    /// Does the run perform this access's shared publication?
    #[inline]
    pub(crate) fn publish(self) -> bool {
        self.0 & PUBLISH != 0
    }

    #[inline]
    pub(crate) fn slot(self) -> usize {
        (self.0 >> SLOT_SHIFT) as usize
    }
}

/// The entries of every owned instruction of a segment, in flow order: a
/// plan per access and a word per kept guard, the packed private view
/// ([`crate::protocol::expected_write_word`]) its `get_*` compares the
/// epoch word against — whole for a write, the write half only for a read
/// — replayed once at compile time. Words come in chunks of at most `1 <<
/// shift` (the walk's staging buffers, the last cut to its length), and a
/// task's never straddle two. `ids`, each plan's object, is the compile's
/// scratch, gone before [`settle`].
#[derive(Debug, Default)]
pub(crate) struct Arena {
    pub(crate) plans: Vec<AccessPlan>,
    pub(crate) words: Vec<Box<[u64]>>,
    shift: u32,
    ids: Vec<DataId>,
}

impl Arena {
    /// Room for `len` plans and objects, of which no page is touched yet,
    /// and words in chunks of `1 << shift`.
    fn reserve(len: usize, shift: u32) -> Arena {
        let mut a = Arena::default();
        (a.plans, a.ids, a.shift) = (Vec::with_capacity(len), Vec::with_capacity(len), shift);
        a
    }

    /// The words from word `at` to its chunk's end (none if out of range).
    #[inline]
    fn words_at(&self, at: u32) -> &[u64] {
        let chunk = self.words.get((at >> self.shift) as usize);
        chunk.map_or(&[], |c| {
            c.get((at & ((1 << self.shift) - 1)) as usize..)
                .unwrap_or(&[])
        })
    }

    /// Appends one task's `words` at word `*at`, in the last chunk if they
    /// fit (its last word kept free) or a new one; returns where they begin.
    fn append(&mut self, at: &mut u32, words: &[u64]) -> u32 {
        let cap = 1usize << self.shift;
        let mut offset = (*at as usize) & (cap - 1);
        if self.words.is_empty() || offset + words.len() >= cap {
            self.words.push(vec![0; cap].into_boxed_slice());
            offset = 0;
        }
        let chunk = self.words.len() - 1;
        self.words[chunk][offset..offset + words.len()].copy_from_slice(words);
        let first = ((chunk << self.shift) | offset) as u32;
        *at = first + words.len() as u32;
        first
    }

    /// Cuts the last chunk to the words in use, `at` the first past them.
    fn trim(&mut self, at: u32) {
        let used = (at & ((1 << self.shift) - 1)) as usize;
        let last = self.words.pop().map(Vec::from);
        let last = last.map(|mut c| (c.truncate(used), c.into_boxed_slice()).1);
        self.words.extend(last.filter(|_| used > 0));
    }
}

/// A flow compiled for a fixed `(graph, mapping, workers)` triple, with
/// the configuration its runs use — produced by [`crate::Executor::compile`],
/// executed any number of times with [`CompiledFlow::run`]/[`CompiledFlow::try_run`].
///
/// Everything a worker unrolling the whole flow would pay per run is paid
/// once here, shared among the workers: mapping evaluation and validation (two
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
    /// The entries of the owned instructions, every worker's: one arena
    /// per segment, in flow order — none when no guard is kept.
    arenas: Vec<Arena>,
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
    entries: TaskAccesses<'a>,
}

impl CompiledTask<'_> {
    /// The packed private view `(last registered write, reads registered
    /// since)` that `task.accesses[i]` waits for
    /// ([`crate::protocol::pack_epoch`]): `Some` exactly when a run keeps
    /// its guard ([`CompiledTask::keeps_guard`]). An elided guard has no
    /// word, and a task of a quiet range has no entry at all.
    pub fn expected(&self, i: usize) -> Option<u64> {
        let at = self.entries.plans.get(..i)?.iter().filter(|p| p.guard());
        self.keeps_guard(i).then(|| self.entries.words[at.count()])
    }

    /// Is the task quiet — not claim-marked, no access keeping a guard or a
    /// publication? Then it is in a range.
    pub fn quiet(&self) -> bool {
        !self.entries.unmapped && !self.entries.plans.iter().any(|p| p.guard() || p.publish())
    }

    /// Is the task claim-marked — left unmapped by a partial mapping, in
    /// every worker's program, run by whoever claims it first?
    pub fn claim_marked(&self) -> bool {
        self.entries.unmapped
    }

    /// Does a run perform the `get_*` of `task.accesses[i]`? `false`:
    /// everything it would wait for runs earlier on the same worker.
    pub fn keeps_guard(&self, i: usize) -> bool {
        self.entries.plans.get(i).is_some_and(|p| p.guard())
    }

    /// Does a run perform the shared publication of `task.accesses[i]`?
    /// `false`: no kept guard compares against it.
    pub fn keeps_publication(&self, i: usize) -> bool {
        self.entries.plans.get(i).is_some_and(|p| p.publish())
    }
}

/// Where no worker is: the writer of an object's initial epoch. Local to
/// everyone — nobody ever waits for it.
const NOBODY: u16 = u16::MAX;
/// Where several workers are, or a task nobody owns. Local to no one.
const SPREAD: u16 = u16::MAX - 1;
/// Where a task nobody owns looks for its predecessors: nothing is ever
/// there, so it is local to nothing. Workers are numbered below it.
const UNMAPPED: u16 = u16::MAX - 2;

/// Did everything at `on` run on the worker at `w`, or not exist?
/// (Branch-free, like the rest of the per-access analysis: on an
/// irregular flow its answers are coin flips.)
#[inline]
fn local_to(on: u16, w: u16) -> bool {
    (on == NOBODY) | (on == w)
}

/// The pass's state of one data object: the simulated private view — what
/// *every* worker's view would be before the current task, since declares
/// and terminates update a private view identically — plus who runs the
/// open epoch, so that an access can tell whether it waits for anyone
/// but its own worker. 16 bytes: a view holds one per object.
#[derive(Clone, Copy)]
struct Epoch {
    /// The packed view `(last registered write, reads since)`.
    word: u64,
    /// Where the epoch's writer runs (what a read waits for), and where
    /// the writer and all its reads so far run (what a write waits for).
    on: [u16; 2],
    /// The open epoch's name ([`NAME`] bits), its index into the [`Verdict`]s:
    /// `d` for object `d`'s initial epoch, `num_data + j` for the epoch the
    /// write at flat access `j` opens (segments name apart); and [`HAS_SLOT`]
    /// once an epoch of the object ended with a guard kept on it. After the
    /// close: the object's slot in a run's table as an entry's slot bits, or 0.
    named: u32,
}

/// Above every name (below `1 << (32 - SLOT_SHIFT)`): `named << SLOT_SHIFT` drops it.
const HAS_SLOT: u32 = 1 << 31;
/// The bits of [`Epoch::named`] that name the epoch.
const NAME: u32 = !HAS_SLOT;

/// What an ended epoch came to: [`PUBLISH`] if its next writer kept its
/// guard — which compares the whole word, read count included, so every
/// read and the write publish; if it is elided, the whole epoch ran on its
/// worker and no read kept a guard either — or [`WRITE_ONLY`]: an epoch
/// still open when the flow ends has no next writer, its reads publish for
/// nobody and its write for any read on another worker. A publication can
/// only be judged once its last consumer has been seen, which is why
/// entries name their epoch until [`finish`].
type Verdict = u8;
/// Only the epoch's write publishes (in the place of an entry's
/// [`WRITES`], so that `verdict & bits` picks writes out).
const WRITE_ONLY: u32 = WRITES;

/// The fewest tasks a segment gets. A split costs four launches of the set
/// (≈ 1.5 µs each: count, walk, finish, settle) and the fix-up, and saves
/// ≈ 8 ns a task; split two ways, Cholesky-24's 2 600 tasks compiled
/// 12–36 % slower (EXPERIMENTS.md, "decentralized compilation" (ii)).
const MIN_SEGMENT: usize = 4096;

/// How many segments `try_compile` walks `graph` in: a worker's each at
/// most, of [`MIN_SEGMENT`] tasks at least — and so few that their views
/// (16 bytes an object each) hold no more epochs than there are objects
/// and tasks.
fn segments(workers: usize, graph: &TaskGraph) -> usize {
    let (n, objects) = (graph.len(), graph.num_data().max(1));
    workers.min(n / MIN_SEGMENT).min(1 + n / objects).max(1)
}

/// Lowers `graph` under `mapping` — total, or partial: the tasks it leaves
/// unmapped become claim-marked instructions of every program — into
/// per-worker programs. Behind [`crate::Executor::try_compile`]. A total
/// mapping's walk is split ([`segments`]) when every worker has a CPU; a
/// partial mapping's claimable arena fills in claim order, so it is walked
/// whole.
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
    let roomy = crate::wait::roomy(cfg.workers);
    let s = segments(if roomy { cfg.workers } else { 1 }, graph);
    lower(cfg, set, graph, u32::MAX, s, Owners(mapping, cfg.workers))
}

/// A mapping as [`lower`] asks it for owners, over so many workers:
/// probed twice per task.
pub(crate) struct Owners<'a, M: ?Sized>(&'a M, usize);

/// Who runs `task`? `None`: whoever claims it.
pub(crate) trait OwnerOf: Sync {
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

/// A compiled instruction names its entries' start below [`QUIET`].
fn arena_fits(accesses: usize) {
    assert!(
        accesses <= QUIET as usize,
        "flow declares more than 2^30 accesses, the most a compiled instruction can address"
    );
}

/// The fewest words in an arena's chunk (32 KiB), the walk's staging
/// buffer: each is one allocation, on the thread that walks the segment.
const MIN_CHUNK: usize = 4096;

/// One contiguous stretch of the flow as [`walk`] lowers it: its tasks, its
/// first access's flat index, its access count, the first epoch name it
/// owns, its part of the verdicts, and room for its arena and the
/// claimable.
struct Segment<'a> {
    tasks: std::ops::Range<usize>,
    flat: usize,
    len: usize,
    lo: u32,
    verdicts: &'a mut [Verdict],
    arenas: [Arena; 2],
}

/// An own access the walk met before its segment wrote the object (whose
/// epoch may have begun earlier): its plan in the segment's arena, and its
/// worker and task.
#[derive(Clone, Copy)]
struct Record {
    j: u32,
    on: u16,
    task: u32,
}

/// One worker's share of a segment: its steps in flow order — instructions,
/// and candidate ranges, marked [`QUIET`] as ranges are — where each
/// candidate is and its plans are, and, from [`relocate`], the `(task,
/// first word)` of each task whose guard a record kept, by task.
#[derive(Default)]
struct Piece {
    instrs: Vec<RunInstr>,
    cands: Vec<Cand>,
    moved: Vec<(u32, u32)>,
}

/// A candidate range: its place among its piece's steps, its first plan
/// and plan stride, and how many accesses each member declares.
#[derive(Clone, Copy)]
struct Cand {
    at: u32,
    plan: u32,
    pstride: u32,
    n: u32,
}

impl Piece {
    /// How many tasks the steps hold.
    fn runs(&self) -> usize {
        let members = self
            .cands
            .iter()
            .map(|c| self.instrs[c.at as usize].words as usize);
        self.instrs.len() + members.sum::<usize>() - self.cands.len()
    }

    /// Adds the quiet own task `task`, whose `n` plans begin at `start`, to
    /// the open candidate — the last step, if a candidate — if it continues
    /// it: as many accesses, task and plans affine, the stride fixed by the
    /// second member and below [`QUIET`]. Or opens one with it.
    #[inline]
    fn extend(&mut self, task: u32, start: u32, n: u32) {
        let open = |c: &&mut Cand| (c.at as usize + 1, c.n) == (self.instrs.len(), n);
        if let Some(c) = self.cands.last_mut().filter(open) {
            let q = &mut self.instrs[c.at as usize];
            let (stride, k) = (q.marked_start & !QUIET, q.words);
            if k == 1 && task - q.task < QUIET {
                (q.marked_start, q.words, c.pstride) = (QUIET | (task - q.task), 2, start - c.plan);
                return;
            }
            let at = |first: u32, stride: u32| u64::from(first) + u64::from(stride) * u64::from(k);
            if (u64::from(task), u64::from(start)) == (at(q.task, stride), at(c.plan, c.pstride)) {
                q.words += 1;
                return;
            }
        }
        let (at, plan, pstride) = (self.instrs.len() as u32, start, 0);
        self.cands.push(Cand {
            at,
            plan,
            pstride,
            n,
        });
        self.instrs.push(RunInstr::new(task, QUIET, 1));
    }
}

/// What a segment's walk came to.
struct Walked {
    /// Every object's state after the segment, as walked from the initial
    /// state of all: exact from the segment's first write of it on.
    view: Vec<Epoch>,
    /// Each worker's share of the segment.
    pieces: Vec<Piece>,
    /// In flow order; the words of the kept ones (the walk's, then the
    /// fix-up's); and the first word past the walk's, in each arena.
    records: Vec<Record>,
    fixed: Vec<u64>,
    tails: [u32; 2],
    /// The segment's arena, and the claimable one.
    arenas: [Arena; 2],
    kept_gets: u64,
    unmapped: usize,
}

/// The one walk, in `segments` stretches (DESIGN.md §9, "Segments"), and
/// all that follows it; the output does not depend on `segments`. `limit`
/// is the epoch word's — the largest task id a half of it holds. Both are
/// parameters so that tests reach the rejection path with a handful of
/// tasks, and split flows of any length.
// Generic over the mapping kind so that a total one, which never answers
// `None`, compiles to the walk without the claim-marked arm.
fn lower<'g, O: OwnerOf>(
    cfg: &RioConfig,
    set: &Arc<WorkerSet>,
    graph: &'g TaskGraph,
    limit: u32,
    segments: usize,
    owners: O,
) -> Result<CompiledFlow<'g>, ExecError> {
    cfg.validate();
    let (tasks, num_data, workers) = (graph.tasks(), graph.num_data(), cfg.workers);
    assert!(workers <= usize::from(UNMAPPED), "over 65 533 workers");
    let s = if O::PARTIAL { 1 } else { segments };
    let s = s.clamp(1, tasks.len().max(1));
    let spread = s > 1 && crate::wait::roomy(workers);
    // Segment `k` is tasks `n·k/s..n·(k+1)/s`, counted by the thread that
    // walks it: its first access's flat index sums the earlier counts.
    let cut = |k: usize| k * tasks.len() / s;
    let counts = fan_out(set, cfg, spread, (0..s).collect(), |k| {
        let part = tasks[cut(k)..cut(k + 1)].iter().map(|t| t.accesses.len());
        part.fold((0, 0), |(sum, widest), n| (sum + n, widest.max(n)))
    });
    let total = counts.iter().map(|c| c.0).sum();
    // A chunk holds twice the widest task's words: each is more than half
    // full, so a word's index stays below 2^32.
    let widest = counts.iter().map(|c| c.1).max().unwrap_or(0);
    let shift = (2 * widest).max(MIN_CHUNK).next_power_of_two().ilog2();
    arena_fits(total);
    // One epoch per object to begin with, and one per write at most.
    assert!(
        num_data + total <= (u32::MAX >> SLOT_SHIFT) as usize,
        "flow has more epochs than a compiled entry can name"
    );
    // Zeroed pages, first touched by their segment, as its arenas are,
    // though allocated here: a set thread's glibc heap gave their pages
    // back at every free (EXPERIMENTS.md, "segment-local compilation").
    let mut verdicts: Vec<Verdict> = vec![0; num_data + total];
    let (mut names, mut flat) = (&mut verdicts[..], 0);
    let mut inputs = Vec::with_capacity(s);
    for (k, &(len, _)) in counts.iter().enumerate() {
        let lo = if k == 0 { 0 } else { num_data + flat };
        let v;
        (v, names) = mem::take(&mut names).split_at_mut(num_data + flat + len - lo);
        let room = [len, if O::PARTIAL { len } else { 0 }];
        inputs.push(Segment {
            tasks: cut(k)..cut(k + 1),
            flat,
            len,
            lo: lo as u32,
            verdicts: v,
            arenas: room.map(|n| Arena::reserve(n, shift)),
        });
        flat += len;
    }
    let mut walked = fan_out(set, cfg, spread, inputs, |seg| match seg.lo {
        0 => walk::<O, false>(seg, graph, limit, workers, &owners),
        _ => walk::<O, true>(seg, graph, limit, workers, &owners),
    });
    // The flow's first mapping error, else its first overflow.
    let mapping_error = |w: &Result<_, _>| matches!(w, Err(ExecError::InvalidMapping(_)));
    let first = walked
        .iter()
        .position(mapping_error)
        .map(|k| walked.remove(k));
    let mut parts: Vec<Walked> = first.into_iter().chain(walked).collect::<Result<_, _>>()?;
    let mut kept_gets: u64 = parts.iter().map(|p| p.kept_gets).sum();
    let take = |p: &mut Walked| mem::take(&mut p.arenas[0]);
    let mut arenas: Vec<_> = parts.iter_mut().map(take).collect();
    let mut claimable = mem::take(&mut parts[0].arenas[1]);

    // The fix-up, a segment at a time: `view` is the flow's state up to the
    // segment, in which an object still pristine was touched by no earlier
    // segment — so the segment's own walk of it was exact. Every object a
    // segment touched has a record, so a segment costs its records. The
    // word of each guard it keeps goes to [`relocate`], in record order.
    let (first, later) = parts.split_first_mut().expect("one segment at least");
    let view = &mut first.view;
    let pristine = |e: &Epoch, d: usize| ((e.named & NAME) as usize, e.word) == (d, 0);
    let segments = later.len();
    for (k, (seg, arena)) in later.iter_mut().zip(&mut arenas[1..]).enumerate() {
        let mut walked = mem::take(&mut seg.fixed).into_iter();
        for r in &seg.records {
            let (j, on) = (r.j as usize, r.on);
            let (p, d) = (arena.plans[j], arena.ids[j].index());
            let writes = p.writes();
            let word = p.guard().then(|| walked.next().expect("the walk's word"));
            let g = &mut view[d];
            if pristine(g, d) {
                // The segment's guard and verdict on the initial epoch stand.
                if writes & p.guard() {
                    verdicts[d] = PUBLISH as Verdict;
                    g.named |= HAS_SLOT;
                }
                seg.fixed.extend(word);
                continue;
            }
            let guard = !local_to(g.on[usize::from(writes)], on);
            kept_gets = kept_gets + u64::from(guard) - u64::from(p.guard());
            if guard {
                seg.fixed.push(g.word);
            }
            let named = if writes { p.slot() as u32 } else { g.named };
            let marks = (p.0 & WRITES) | (u32::from(guard) * GUARD);
            arena.plans[j] = AccessPlan((named << SLOT_SHIFT) | marks);
            if writes {
                verdicts[(g.named & NAME) as usize] = (u32::from(guard) * PUBLISH) as Verdict;
                let slot = (g.named & HAS_SLOT) | (u32::from(guard) * HAS_SLOT);
                (*g, g.named) = (seg.view[d], seg.view[d].named | slot);
            } else {
                g.word += 1;
                g.on[1] = if local_to(g.on[1], on) { on } else { SPREAD };
            }
        }
        // After the last segment, only the close reads the view.
        if k + 1 == segments && kept_gets == 0 {
            break;
        }
        for r in &seg.records {
            let d = arena.ids[r.j as usize].index();
            let (g, e) = (&mut view[d], seg.view[d]);
            if pristine(g, d) {
                (*g, g.named) = (e, e.named | (g.named & HAS_SLOT));
            }
        }
    }
    // The epochs still open have no next writer: the only guards kept on
    // them are those of reads on another worker than a writer's — so with
    // no guard kept at all there is nothing to settle, and no slot. Slots
    // go to objects in id order.
    let mut shared_objects = 0u32;
    for e in view.iter_mut().filter(|_| kept_gets > 0) {
        // (A writer nobody owns is `SPREAD` before anything has read.)
        let read_elsewhere = (e.on[1] == SPREAD) & (e.on[0] != NOBODY) & (e.word as u32 != 0);
        verdicts[(e.named & NAME) as usize] = Verdict::from(read_elsewhere) * WRITE_ONLY as Verdict;
        let slot = (e.named & HAS_SLOT != 0) | read_elsewhere;
        e.named = u32::from(slot) * (shared_objects << SLOT_SHIFT);
        shared_objects += u32::from(slot);
    }

    let unmapped: usize = parts.iter().map(|p| p.unmapped).sum();
    // A publication is kept for a kept guard: with no guard kept, every own
    // task is quiet, ranges read no entry, and no object has a slot.
    if kept_gets == 0 {
        (arenas, parts[0].view) = (Vec::new(), Vec::new());
    }
    // Each segment's entries are finished by the thread that walked them.
    let view = &parts[0].view;
    let owned = arenas.iter_mut().collect();
    let done = |a: &mut Arena| finish(a, &verdicts, view);
    let finished = fan_out(set, cfg, spread, owned, done);
    let kept_publishes = finished.iter().sum::<u64>() + done(&mut claimable);
    drop(verdicts);
    // The words of guards the fix-up kept, and the last chunks cut to size.
    for (p, arena) in parts.iter_mut().zip(&mut arenas) {
        let tail = relocate(p, arena, tasks);
        arena.trim(tail);
    }
    claimable.trim(parts[0].tails[1]);
    let columns: Vec<Vec<Piece>> = (0..workers)
        .map(|w| {
            parts
                .iter_mut()
                .map(|p| mem::take(&mut p.pieces[w]))
                .collect()
        })
        .collect();
    drop(parts);
    let runs = |c: &Vec<Piece>| c.iter().map(Piece::runs).sum();
    let runs_per_worker: Vec<usize> = columns.iter().map(runs).collect();
    // Room for each program, allocated here as the arenas are: a step
    // holds a task at least, and with no guard kept nothing is cut.
    let room = |c: &Vec<Piece>| match arenas.is_empty() {
        true => c.iter().map(|p| p.instrs.len()).sum(),
        false => runs(c),
    };
    let with_room = |c| (Vec::with_capacity(room(&c)), c);
    let columns = columns.into_iter().map(with_room).collect();
    let programs = fan_out(set, cfg, spread, columns, |c| settle(c, &arenas));
    let stats = CompileStats {
        program_len: programs.iter().map(|p| p.0.len()).sum(),
        flow_len: graph.len(),
        runs_per_worker,
        folded_declares: 0,
        irrelevant_declares: (workers as u64 - 1) * total as u64,
        elided_gets: total as u64 - kept_gets,
        elided_publishes: total as u64 - kept_publishes,
        shared_objects: shared_objects as usize,
        segments: s,
    };
    Ok(CompiledFlow {
        cfg: cfg.clone(),
        set: Arc::clone(set),
        graph,
        arenas,
        claimable,
        programs,
        unmapped: O::PARTIAL.then_some(unmapped),
        stats,
    })
}

/// `job(input)` for each of `inputs`, in order: the `k`-th on worker `k mod
/// w` of `set` if `spread` and the set is free, else all in turn on this
/// thread. A job's panic is re-raised here once every job is over.
fn fan_out<I: Send, R: Send>(
    set: &WorkerSet,
    cfg: &RioConfig,
    spread: bool,
    inputs: Vec<I>,
    job: impl Fn(I) -> R + Sync,
) -> Vec<R> {
    // A slot per input, whose job takes the input and leaves what it came
    // to: the set's threads hand nothing back by a join.
    let slots: Vec<_> = inputs
        .into_iter()
        .map(|i| Mutex::new((Some(i), None)))
        .collect();
    let one = |k: usize| {
        let mut slot = unpoisoned(slots[k].lock());
        let input = slot.0.take().expect("one job per input");
        slot.1 = Some(catch_unwind(AssertUnwindSafe(|| job(input))));
    };
    let n = slots.len();
    let strided = |w: usize| (w..n).step_by(cfg.workers).for_each(&one);
    if !(spread && n > 1 && set.try_run(cfg, &strided)) {
        (0..n).for_each(&one);
    }
    let ended = |slot: Mutex<(_, Option<std::thread::Result<R>>)>| {
        let ended = unpoisoned(slot.into_inner()).1.expect("every job ran");
        ended.unwrap_or_else(|p| resume_unwind(p))
    };
    slots.into_iter().map(ended).collect()
}

/// One segment's walk: the per-access rules, from the initial state of
/// every object — which the first segment (`!ASSUMES`) knows to be exact.
fn walk<O: OwnerOf, const ASSUMES: bool>(
    seg: Segment<'_>,
    graph: &TaskGraph,
    limit: u32,
    workers: usize,
    owners: &O,
) -> Result<Walked, ExecError> {
    let (tasks, num_data) = (&graph.tasks()[seg.tasks.clone()], graph.num_data());
    let initial = |d| Epoch {
        word: pack_epoch(TaskId::NONE, 0),
        on: [NOBODY; 2],
        named: d,
    };
    let mut view: Vec<Epoch> = (0..num_data as u32).map(initial).collect();
    let share = |_| Piece {
        instrs: Vec::with_capacity(tasks.len() / workers + 1),
        ..Piece::default()
    };
    let mut pieces: Vec<Piece> = (0..workers).map(share).collect();
    // A record per access at most, and mostly one per object.
    let mut records = Vec::with_capacity(usize::from(ASSUMES) * num_data.min(seg.len));
    let mut fixed = Vec::new();
    let (mut arenas, mut flat) = (seg.arenas, seg.flat);
    for a in &mut arenas {
        a.plans.resize(a.plans.capacity(), AccessPlan(0));
        a.ids.resize(a.ids.capacity(), DataId(0));
    }
    let (shift, mut chunks) = (arenas[0].shift, [[].into(), [].into()]);
    let cap = 1 << shift;
    // Per arena, plans filled, and words staged in its chunk, which begins
    // at word `base`.
    let (mut filled, mut staged, mut base) = ([0usize; 2], [cap; 2], [0; 2]);
    let (mut kept_gets, mut unmapped) = (0, 0);
    for (i, t) in tasks.iter().enumerate() {
        let owner = owners.owner_of(t.id)?;
        // Ids are dense, so an epoch's read count stays below the ids of
        // its readers: this check covers both halves of the word.
        if t.id.0 > u64::from(limit) {
            // The mapping used to be validated before the limits: a
            // mapping error anywhere in the flow still outranks this one.
            for later in &tasks[i + 1..] {
                owners.owner_of(later.id)?;
            }
            let max = u64::from(limit);
            return Err(GraphError::TaskIdOverflow { task: t.id, max }.into());
        }
        // A task nobody owns is local to nothing, so it and its
        // dependents keep their guards; it goes into every program and
        // whoever claims it runs it.
        let (k, w, on) = match owner {
            Some(w) => (0, w.0 as u16, w.0 as u16),
            None => (1, UNMAPPED, SPREAD),
        };
        let (start, end, arena) = (filled[k], filled[k] + t.accesses.len(), &mut arenas[k]);
        // A task's words stay in one chunk; a chunk's last word stays free,
        // so that an instruction's first word is in its chunk.
        if staged[k] + t.accesses.len() >= cap {
            let full = mem::replace(&mut chunks[k], vec![0; cap].into_boxed_slice());
            arena.words.extend((!full.is_empty()).then_some(full));
            (base[k], staged[k]) = (arena.words.len() << shift, 0);
        }
        let (stage, mut at) = (&mut chunks[k][..], staged[k]);
        let first = (base[k] | at) as u32;
        let entries = arena.plans[start..end]
            .iter_mut()
            .zip(&mut arena.ids[start..end]);
        let opened = t.id.0 << 32;
        let (task, mut guards) = ((seg.tasks.start + i) as u32, 0);
        // All of a task's gets use the pre-task view (its own terminates
        // happen after the body; a task never declares one data object
        // twice), so entries are emitted as the view advances. Every word
        // is staged, and kept only if the next does not overwrite it: a
        // branch on the guard would be a coin flip on an irregular flow.
        for (a, (plan, id)) in t.accesses.iter().zip(entries) {
            let e = &mut view[a.data.index()];
            let writes = a.mode.writes();
            // Does this access wait for anyone but its own worker?
            let guard = !local_to(e.on[usize::from(writes)], w);
            guards += u64::from(guard);
            stage[at] = e.word;
            // Still in the initial epoch, as far as this segment knows: the
            // fix-up decides the guard, and the record holds the word.
            let named = e.named & NAME;
            let assumed = ASSUMES && named < seg.lo;
            if assumed {
                let j = (flat - seg.flat) as u32;
                records.push(Record { j, on, task });
                // (Rare: its word, should the fix-up find the object pristine.)
                if guard {
                    fixed.push(e.word);
                }
            }
            if writes {
                // If a read of the closed epoch kept its guard, so does
                // this write: it is on another worker than the writer.
                let slot = (e.named & HAS_SLOT) | (u32::from(guard & !assumed) * HAS_SLOT);
                (e.word, e.on, e.named) = (opened, [on; 2], (num_data + flat) as u32 | slot);
                if !assumed {
                    let verdict = (u32::from(guard) * PUBLISH) as Verdict;
                    seg.verdicts[(named - seg.lo) as usize] = verdict;
                }
            } else {
                e.word += 1;
                e.on[1] = if local_to(e.on[1], w) { on } else { SPREAD };
            }
            // The publication half and the slot are [`finish`]'s: until
            // then the entry names the epoch whose verdict holds them —
            // the one a write opens, the one a read reads in.
            let kept = u32::from(guard) * GUARD;
            *plan = AccessPlan((e.named << SLOT_SHIFT) | (u32::from(writes) * WRITES) | kept);
            *id = a.data;
            at += usize::from(guard & !assumed);
            flat += 1;
        }
        (staged[k], filled[k]) = (at, end);
        kept_gets += guards;
        let run = RunInstr::new(task, start as u32 | (k as u32 * CLAIM_MARK), first);
        // A step ends the open candidate of its program: a claim-marked
        // one, every candidate.
        if k == 1 {
            pieces.iter_mut().for_each(|p| p.instrs.push(run));
            unmapped += 1;
        } else if guards == 0 {
            // Quiet, unless [`settle`] finds a half kept: no step of its own.
            pieces[w as usize].extend(task, start as u32, t.accesses.len() as u32);
        } else {
            pieces[w as usize].instrs.push(run);
        }
    }
    for ((a, filled), chunk) in arenas.iter_mut().zip(filled).zip(chunks) {
        a.plans.truncate(filled);
        a.ids.truncate(filled);
        a.words.extend((!chunk.is_empty()).then_some(chunk));
    }
    let tails = [0, 1].map(|k| (base[k] | staged[k]) as u32);
    Ok(Walked {
        view,
        pieces,
        records,
        fixed,
        tails,
        arenas,
        kept_gets,
        unmapped,
    })
}

/// Gives every plan of `arena` what the epoch it named came to: its
/// object's slot and the publication half, and drops the objects. Returns
/// how many publications are kept.
fn finish(arena: &mut Arena, verdicts: &[Verdict], view: &[Epoch]) -> u64 {
    let mut publishes = 0;
    for (p, d) in arena.plans.iter_mut().zip(mem::take(&mut arena.ids)) {
        let verdict = u32::from(verdicts[p.slot()]);
        let write_only = (verdict & p.0 & WRITE_ONLY) * (PUBLISH / WRITE_ONLY);
        let publish = (verdict | write_only) & PUBLISH;
        let slot = view.get(d.index()).map_or(0, |e| e.named);
        p.0 = (p.0 & (WRITES | GUARD)) | slot | publish;
        publishes += u64::from(publish != 0);
    }
    publishes
}

/// Gives each task of `p` whose guard a record kept its words — the walk's
/// and the fix-up's, in order — anew after the walk's, and hands its
/// worker's piece where they begin; returns the tail.
fn relocate(p: &mut Walked, arena: &mut Arena, tasks: &[TaskDesc]) -> u32 {
    let (mut tail, mut fixed, mut words) = (p.tails[0], p.fixed.iter(), Vec::new());
    // Per worker, its step and candidate last looked at: records come in
    // flow order, and so do the pieces.
    let mut seen = vec![(0, 0); p.pieces.len()];
    for task in p.records.chunk_by(|a, b| a.task == b.task) {
        if !task.iter().any(|r| arena.plans[r.j as usize].guard()) {
            continue;
        }
        let (t, on) = (task[0].task, task[0].on as usize);
        let (piece, (i, c)) = (&mut p.pieces[on], &mut seen[on]);
        // Its instruction, or the candidate it is a member of, is the last
        // step to begin at or before it. A quiet task stages no word, and
        // none of its plans reads one.
        while piece.instrs.get(*i + 1).is_some_and(|r| r.task <= t) {
            *i += 1;
        }
        let r = piece.instrs[*i];
        let (start, first) = match r.quiet() {
            None => (r.marked_start, r.words),
            Some((f, stride, _)) => {
                while piece.cands[*c].at as usize != *i {
                    *c += 1;
                }
                let (c, m) = (piece.cands[*c], (t as usize - f) / stride.max(1));
                (c.plan + c.pstride * m as u32, u32::MAX)
            }
        };
        let (start, n) = (start as usize, tasks[t as usize].accesses.len());
        let mut recs = task.iter().peekable();
        let mut staged = arena.words_at(first).iter();
        words.clear();
        words.extend((start..start + n).filter_map(|j| {
            let record = recs.next_if(|r| r.j as usize == j).is_some();
            let guard = arena.plans[j].guard();
            guard.then(|| *if record { fixed.next() } else { staged.next() }.expect("a word"))
        }));
        piece.moved.push((t, arena.append(&mut tail, &words)));
    }
    tail
}

/// A worker's program from its pieces, in flow order, into `prog`: each
/// instruction, with the words [`relocate`] moved it to if it did; and each
/// candidate, cut where a member keeps a half — a guard a record kept, or a
/// publication [`finish`] gave one of its plans in its segment's arena, if
/// any guard is kept — and joined to the quiet tasks around it as a sweep
/// of them one by one would. Whatever a run arms, this is its program.
fn settle((prog, pieces): (Vec<RunInstr>, Vec<Piece>), arenas: &[Arena]) -> WorkerProgram {
    let kept_half = |e: &[AccessPlan]| e.iter().any(|p| p.0 & (GUARD | PUBLISH) != 0);
    let (mut out, mut starts) = (Settling { prog, open: None }, Vec::new());
    for (k, piece) in pieces.into_iter().enumerate() {
        if k > 0 {
            starts.push(out.prog.len());
        }
        let plans = arenas.get(k).map_or(&[][..], |a| &a.plans[..]);
        let (mut moved, mut from) = (piece.moved.into_iter().peekable(), 0);
        for c in piece.cands {
            let (at, n) = (c.at as usize, c.n as usize);
            out.take(&piece.instrs[from..at], &mut moved);
            let (first, stride, count) = piece.instrs[at].quiet().expect("a candidate");
            let mut joined = 0;
            for m in 0..if plans.is_empty() { 0 } else { count } {
                let (task, at) = (first + stride * m, (c.plan + c.pstride * m as u32) as usize);
                let words = match moved.next_if(|x| x.0 as usize == task) {
                    Some((_, word)) => word,
                    // Kept for a publication: it reads no word of its own,
                    // so word 0 of its segment's arena.
                    None if kept_half(&plans[at..at + n]) => 0,
                    None => continue,
                };
                out.join((first + stride * joined, stride, m - joined), n);
                out.take(&[RunInstr::new(task as u32, at as u32, words)], &mut moved);
                joined = m + 1;
            }
            out.join((first + stride * joined, stride, count - joined), n);
            from = at + 1;
        }
        out.take(&piece.instrs[from..], &mut moved);
    }
    // What the ranges took out, unless too little to be worth a copy.
    let mut prog = out.prog;
    if prog.len() < prog.capacity() / 4 * 3 {
        prog.shrink_to_fit();
    }
    (prog, starts)
}

/// A program being settled, and its last range while no instruction
/// follows it: its place, and how many accesses each of its tasks declares.
struct Settling {
    prog: Vec<RunInstr>,
    open: Option<(usize, usize)>,
}

impl Settling {
    /// Appends `instrs`, which end the open range if there are any, with
    /// the words [`relocate`] moved some of them to.
    fn take(
        &mut self,
        instrs: &[RunInstr],
        moved: &mut Peekable<impl Iterator<Item = (u32, u32)>>,
    ) {
        let (Some(last), at) = (instrs.last(), self.prog.len()) else {
            return;
        };
        (self.open, _) = (None, self.prog.extend_from_slice(instrs));
        while let Some((task, word)) = moved.next_if(|m| m.0 <= last.task) {
            let i = at + self.prog[at..].partition_point(|r| r.task < task);
            self.prog[i].words = word;
        }
    }

    /// Adds the quiet tasks `first + stride · k`, `k < count`, each
    /// declaring `n` accesses, as one by one they would be: a task joins
    /// the open range if it continues it — as many accesses, affine, the
    /// stride fixed by the second member and below [`QUIET`] — or opens one.
    #[inline(always)]
    fn join(&mut self, (mut first, stride, mut count): (usize, usize, usize), n: usize) {
        if count == 0 {
            return;
        }
        if let Some(q) = self.open.filter(|o| o.1 == n).map(|o| &mut self.prog[o.0]) {
            let (f, fixed, c) = q.quiet().expect("a range");
            let s = if c > 1 { fixed } else { first - f };
            if s < QUIET as usize && first == f + s * c {
                // The first task joins, and the rest if they keep its stride.
                let joined = if stride == s { count } else { 1 };
                (q.marked_start, q.words) = (QUIET | s as u32, (c + joined) as u32);
                (first, count) = (first + stride, count - joined);
                if count == 0 {
                    return;
                }
            }
        }
        let stride = if count > 1 { stride } else { 0 };
        self.open = Some((self.prog.len(), n));
        let range = RunInstr::new(first as u32, QUIET | stride as u32, count as u32);
        self.prog.push(range);
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
        let segments = self.segments_of(worker.index());
        segments.flat_map(move |(segment, instrs)| {
            instrs.iter().flat_map(move |r| {
                let n = tasks[r.task as usize].accesses.len();
                let kept = r.quiet().is_none().then(|| self.accesses(r, segment, n));
                let (first, stride, count) = r.quiet().unwrap_or((r.task as usize, 0, 1));
                (0..count).map(move |k| CompiledTask {
                    task: &tasks[first + stride * k],
                    entries: kept.unwrap_or_default(),
                })
            })
        })
    }

    /// `worker`'s instructions by the segment they begin in, and its index.
    fn segments_of(&self, worker: usize) -> impl Iterator<Item = (usize, &[RunInstr])> {
        let (instrs, starts) = &self.programs[worker];
        let (mut from, ends) = (0, starts.iter().copied().chain([instrs.len()]));
        ends.map(move |to| &instrs[mem::replace(&mut from, to)..to])
            .enumerate()
    }

    /// The `n` accesses of `r`, whose entries are in the claimable arena if
    /// it is claim-marked, else in the arena of `segment`, where it begins.
    #[inline]
    fn accesses(&self, r: &RunInstr, segment: usize, n: usize) -> TaskAccesses<'_> {
        let arena = if r.unmapped() {
            &self.claimable
        } else {
            &self.arenas[segment]
        };
        TaskAccesses {
            plans: &arena.plans[r.plans(n)],
            words: arena.words_at(r.words),
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
        let loop_start = Instant::now();
        'run: for (segment, instrs) in self.segments_of(me) {
            for r in instrs {
                if let Some(q) = r.quiet() {
                    if ctx.exec_range(q, tasks, kernel) {
                        continue;
                    }
                    break 'run;
                }
                ctx.tasks_visited += 1;
                let t = &tasks[r.task as usize];
                let accesses = self.accesses(r, segment, t.accesses.len());
                if !ctx.exec_task(t.id, &t.accesses, accesses, || kernel(worker, t)) {
                    break 'run;
                }
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

// The workspace's flow validator, on flows only `lower` can split.
#[cfg(test)]
#[path = "../../../tests/validator/mod.rs"]
mod validator;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::wait::WaitStrategy;
    use rio_stf::{Access, DataId, DataStore, RoundRobin, TableMapping, TaskId};
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg(workers: usize) -> RioConfig {
        RioConfig::with_workers(workers).wait(WaitStrategy::Park)
    }

    fn compile(c: RioConfig, g: &TaskGraph) -> CompiledFlow<'_> {
        Executor::new(c).mapping(&RoundRobin).compile(g)
    }

    #[test]
    fn independent_tasks_compile_to_one_range_per_program_and_no_arena() {
        let g = crate::testing::independent(4096);
        let flow = compile(cfg(2), &g);
        assert_eq!(flow.stats().runs_per_worker, [2048, 2048]);
        assert!(flow.arenas.is_empty());
        for (w, prog) in flow.programs.iter().enumerate() {
            let ranges: Vec<_> = prog.0.iter().map(RunInstr::quiet).collect();
            assert_eq!(ranges, [Some((w, 2, 2048))]);
        }
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
        // However the walk is split, and the fix-up probes nothing.
        for s in [2, 3, 5] {
            m.0.store(0, Ordering::Relaxed);
            let owners = Owners(&m as &dyn Mapping, 2);
            let _ = lower(&cfg(2), &Arc::default(), &g, u32::MAX, s, owners).unwrap();
            assert_eq!(m.0.load(Ordering::Relaxed), 2 * 20, "{s} segments");
        }
    }

    /// What `lower` returns at `s` segments, as text, whatever the arena
    /// layout: per worker, each range, and each instruction's task with,
    /// per access, its marks and slot and the word a kept guard compares —
    /// everything a run reads.
    fn lowered<O: OwnerOf>(c: &RioConfig, g: &TaskGraph, limit: u32, s: usize, o: O) -> String {
        let f = lower(c, &Arc::default(), g, limit, s, o);
        format!(
            "{:?}",
            f.map(|f| {
                let entries = |k: usize, r: &RunInstr| {
                    let n = g.tasks()[r.task as usize].accesses.len();
                    let a = f.accesses(r, k, n);
                    let words = a.plans.iter().scan(0, |at, p| {
                        *at += usize::from(p.guard());
                        Some((p.0, p.guard().then(|| a.words[*at - 1])))
                    });
                    (r.task, a.unmapped, words.collect::<Vec<_>>())
                };
                let programs: Vec<Vec<_>> = (0..f.programs.len())
                    .map(|w| {
                        let segments = f.segments_of(w);
                        segments
                            .flat_map(|(k, i)| i.iter().map(move |r| (k, r)))
                            .map(|(k, r)| r.quiet().ok_or_else(|| entries(k, r)))
                            .collect()
                    })
                    .collect();
                (programs, f.stats, f.unmapped)
            })
        )
    }

    /// A flow over `objects` objects: per task, `(object, mode)` pairs,
    /// the first of each object kept; modes read, write, read-write.
    fn random_flow(objects: usize, tasks: Vec<Vec<(u32, usize)>>) -> TaskGraph {
        let mut b = TaskGraph::builder(objects);
        for mut accesses in tasks {
            accesses.sort_unstable();
            accesses.dedup_by_key(|a| a.0);
            let modes = [Access::read, Access::write, Access::read_write];
            let a: Vec<_> = accesses.iter().map(|&(d, m)| modes[m](DataId(d))).collect();
            b.task(&a, 1, "t");
        }
        b.build()
    }

    /// Under round-robin at 2 workers, a would-be range of worker 0 — each
    /// task rewrites `base + 2` — with two members kept: task 10 writes
    /// `base`, which worker 1 reads; task 30 reads `base + 1`, which worker 1
    /// wrote first: in a later segment, a guard the fix-up keeps.
    fn cut_cases(base: u32) -> Vec<Vec<(u32, usize)>> {
        let member = |i: u32| match i {
            1 => (base + 1, 1),
            10 => (base, 1),
            13 => (base, 0),
            30 => (base + 1, 0),
            _ => (base + 2 + i % 2, 1),
        };
        (0..40).map(|i| vec![member(i)]).collect()
    }

    /// A random table mapping onto `workers`.
    fn scattered(g: &TaskGraph, workers: usize, seed: u64) -> TableMapping {
        TableMapping::from_fn(g.len(), |i| {
            let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            rio_stf::WorkerId((h >> 40) as u32 % workers as u32)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Splitting the walk changes nothing: for random flows under
        /// round-robin, random-table and partial mappings at 1, 2, 3 and 64
        /// workers, the programs, both arenas and the stats are the
        /// one-segment compile's, at 2, 3 and 5 segments — each flow led by
        /// [`cut_cases`], on objects of its own.
        #[test]
        fn segmented_walks_compile_the_one_segment_flow(
            tasks in proptest::collection::vec(
                proptest::collection::vec((0..6u32, 0..3usize), 0..4), 1..60),
            seed in 0u64..1000,
        ) {
            let g = random_flow(10, [cut_cases(6), tasks].concat());
            for workers in [1, 2, 3, 64] {
                let table = scattered(&g, workers, seed);
                let partial = crate::hybrid::PartialFn(|t: TaskId, w| {
                    (t.0 % 3 != seed % 3).then(|| table.worker_of(t, w))
                });
                let c = cfg(workers);
                let kinds = |s| [
                    lowered(&c, &g, u32::MAX, s, Owners(&RoundRobin as &dyn Mapping, workers)),
                    lowered(&c, &g, u32::MAX, s, Owners(&table as &dyn Mapping, workers)),
                    lowered(&c, &g, u32::MAX, s, Owners(&partial as &dyn PartialMapping, workers)),
                ];
                let whole = kinds(1);
                for s in [2, 3, 5] {
                    proptest::prop_assert_eq!(&kinds(s), &whole, "{} segments, {} workers", s, workers);
                }
            }
        }
    }

    proptest::proptest! {
        // Spinning at 3 workers on 2 CPUs waits out time slices.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Split flows run as the flow reads: random flows over four
        /// objects, whose guards cross segment boundaries, lowered at 2, 3
        /// and 5 segments under a random mapping at 2 and 3 workers, run
        /// under both wait strategies with a kernel that mixes what each
        /// task reads into what it writes. Each flow passes the validator;
        /// each run leaves the sequential run's store and counts a get and a
        /// terminate per access; a wrong expected word fails it as a stall.
        #[test]
        fn split_segments_run_to_the_sequential_store(
            tasks in proptest::collection::vec(
                proptest::collection::vec((0..4u32, 0..3usize), 1..4), 8..80),
            seed in 0u64..1000,
        ) {
            let g = random_flow(4, tasks);
            let accesses = g.tasks().iter().map(|t| t.accesses.len() as u64).sum::<u64>();
            let body = |store: &DataStore<u64>, t: &TaskDesc| {
                let mix = |h: u64, d| (h ^ *store.read(d)).wrapping_mul(0x0100_0000_01B3);
                let seen = t.reads().fold(t.id.0, mix);
                for d in t.writes() {
                    *store.write(d) = seen ^ u64::from(d.0);
                }
            };
            let want = DataStore::filled(4, 0u64);
            rio_stf::sequential::run_graph(&g, |id| body(&want, g.task(id)));
            let want = want.into_vec();
            for workers in [2, 3] {
                let (table, set) = (scattered(&g, workers, seed), Arc::default());
                let runs = [2, 3, 5].map(|s| crate::testing::WAITS.map(|w| (s, w)));
                for (s, wait) in runs.into_iter().flatten() {
                    let stall = std::time::Duration::from_secs(10);
                    let c = RioConfig::with_workers(workers).wait(wait).watchdog(stall);
                    let owners = Owners(&table as &dyn Mapping, workers);
                    let flow = lower(&c, &set, &g, u32::MAX, s, owners).unwrap();
                    let store = DataStore::filled(4, 0u64);
                    let at = format!("{s} segments, {workers} workers, {wait}");
                    validator::assert_valid(&flow, &at);
                    let run = flow.try_run(|_, t| body(&store, t));
                    let ops = run.unwrap_or_else(|e| panic!("{at}: {e}")).report.total_ops();
                    proptest::prop_assert_eq!(store.into_vec(), want.clone(), "{}", at);
                    proptest::prop_assert_eq!(ops.gets, accesses, "{}", at);
                    proptest::prop_assert_eq!(ops.terminates, accesses, "{}", at);
                }
            }
        }
    }

    #[test]
    fn segments_keep_the_error_precedence() {
        // Nine tasks in one to four segments. Against a limit of 3, T4 on
        // overflow; T8 is put on worker 7, T5 on none, T2 on two.
        let g = crate::testing::chain(9);
        let flips = AtomicU64::new(0);
        let first = |bad: &[u64], limit| {
            let m = rio_stf::mapping::FnMapping(|t: TaskId, _| match t.0 {
                8 if bad.contains(&8) => WorkerId(7),
                5 if bad.contains(&5) => panic!("no owner"),
                2 if bad.contains(&2) => WorkerId(flips.fetch_add(1, Ordering::Relaxed) as u32 % 2),
                _ => WorkerId(0),
            });
            let errs: Vec<_> = (1..=4)
                .map(|s| lowered(&cfg(2), &g, limit, s, Owners(&m as &dyn Mapping, 2)))
                .collect();
            assert!(errs.iter().all(|e| *e == errs[0]), "{errs:?}");
            errs[0].clone()
        };
        let cases = [
            (&[][..], 3, "TaskIdOverflow", 4),
            (&[8], 3, "OutOfRange", 8),
            (&[5, 8], u32::MAX, "NotTotal", 5),
            (&[2, 5, 8], u32::MAX, "NonDeterministic", 2),
        ];
        for (bad, limit, kind, task) in cases {
            let want = format!("{kind} {{ task: {:?}", TaskId(task));
            assert!(first(bad, limit).contains(&want), "{want}");
        }
    }

    #[test]
    fn segment_panics_are_raised_on_the_caller_once_all_are_over() {
        let (set, ran) = (WorkerSet::default(), AtomicU64::new(0));
        let job = |k: u64| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert_ne!(k, 1, "segment 1 fails");
        };
        let three = AssertUnwindSafe(|| fan_out(&set, &cfg(2), true, vec![0, 1, 2], job));
        let payload = std::panic::catch_unwind(three).expect_err("re-raised");
        assert!(format!("{:?}", payload.downcast_ref::<String>()).contains("segment 1 fails"));
        assert_eq!(ran.load(Ordering::Relaxed), 3, "every job ran");
        let again = fan_out(&set, &cfg(2), true, vec![4, 5], |k: u64| k + 1);
        assert_eq!(again, [5, 6], "the set is free again");
        // A lone job's, too.
        let lone = AssertUnwindSafe(|| fan_out(&set, &cfg(2), true, vec![1], job));
        let payload = std::panic::catch_unwind(lone).expect_err("re-raised");
        assert!(format!("{:?}", payload.downcast_ref::<String>()).contains("segment 1 fails"));
    }

    #[test]
    fn segment_views_hold_no_more_epochs_than_the_flow_has_objects_and_tasks() {
        // One object per task: two views, however many workers.
        assert_eq!(segments(64, &crate::testing::independent(65536)), 2);
        // One object: as many segments as get `MIN_SEGMENT` tasks each.
        assert_eq!(segments(64, &crate::testing::chain(65536)), 16);
        assert_eq!(segments(2, &crate::testing::chain(2 * MIN_SEGMENT - 1)), 1);
    }

    #[test]
    fn an_instruction_addresses_2_30_entries() {
        arena_fits(1 << 30);
        let over = std::panic::catch_unwind(|| arena_fits((1 << 30) + 1));
        let payload = over.expect_err("one more does not fit");
        assert!(payload.downcast_ref::<&str>().unwrap().contains("2^30"));
    }

    #[test]
    fn limits_are_read_off_the_view_and_rank_below_the_mapping() {
        use rio_stf::{GraphError, MappingError};
        // Against a limit of 2, the value `TaskGraph::validate_limits`
        // reports: T3's id overflows (before any read count could).
        let (g, _) = epochs(&[('w', 0), ('r', 0), ('r', 0), ('r', 0)]);
        let lower =
            |c: RioConfig, m: &dyn Mapping| lower(&c, &Arc::default(), &g, 2, 1, Owners(m, 2));
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
    fn expected_words_follow_the_flow_simulation() {
        use crate::protocol::pack_epoch;
        // T1 writes d0; T2, T3 read it; T4 writes it again. Round-robin
        // puts T1 and T3 on W0, T2 and T4 on W1.
        let g = crate::testing::fanout(2);
        let flow = compile(cfg(2), &g);
        let mut words = [None; 4];
        for w in 0..2 {
            for t in flow.own_tasks(WorkerId(w)) {
                words[t.task.id.index()] = t.expected(0);
            }
        }
        // T1's write waits for nobody and T3's read for its own worker:
        // neither guard is kept, and neither has a word. T2's read waits
        // for T1's write: of the whole private view, a read guard compares
        // the write half only. T4's write waits for T1's write AND both
        // reads.
        let kept = [0, 2].map(|reads| Some(pack_epoch(TaskId(1), reads)));
        assert_eq!(words, [None, kept[0], None, kept[1]]);
        // Two words for four plans.
        let plans = &flow.arenas[0].plans;
        assert_eq!((plans.len(), flow.arenas[0].words.concat().len()), (4, 2));
    }
}
