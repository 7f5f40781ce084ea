//! Exhaustive model checking of the *implementation algorithm* —
//! Algorithms 1 and 2 themselves, at the granularity of individual
//! `get_*`/`terminate_*` micro-steps.
//!
//! The [`crate::rio_spec`] module checks the paper's *abstract*
//! Run-In-Order model (atomic task start/finish). This module goes one
//! level down and models what `rio-core` actually executes:
//!
//! * every worker walks the full flow in order;
//! * a task mapped elsewhere is one private-bookkeeping step;
//! * an owned task is a sequence of micro-steps — one blocking *get* per
//!   declared access (guarded by the counter conditions of Algorithm 2),
//!   the body, then one *terminate* per access — each interleavable with
//!   every other worker's micro-steps.
//!
//! A key observation makes the state space tractable: **the entire
//! protocol state is a deterministic function of the workers' control
//! points.** Each worker's private counters depend only on how far it has
//! walked (declares and terminates happen at fixed points of its walk),
//! and the shared counters depend only on the *set* of performed
//! terminates — concurrent terminates on one object are commutative
//! (only compatible readers can ever terminate concurrently, and
//! `fetch_add` commutes). So a state is just `Vec<(pos, step)>`.
//!
//! Checked properties, over every reachable interleaving:
//!
//! * **hold-race freedom** — between a passed `get` and the matching
//!   `terminate`, a worker *holds* the object; no two workers may ever
//!   hold one object in conflicting modes;
//! * **body-start consistency** — when a body starts (all gets passed),
//!   every flow-earlier conflicting access on each of its objects has
//!   been terminated (the per-datum sequential-consistency order);
//! * **deadlock freedom / termination** — every non-final reachable state
//!   has a successor (the transition relation strictly advances control
//!   points, so the graph is acyclic and this implies termination).
//!
//! This is the single-threaded-logic analogue of what `loom` would test,
//! with the memory-model side covered separately: the implementation's
//! ordered atomics establish the happens-before edges the
//! sequentially-consistent model assumes (see `rio-core::protocol` docs).
//!
//! **Packed representation.** Since the single-word protocol rework, the
//! implementation encodes each object's shared state as one 64-bit epoch
//! word `(last_executed_write << 32) | nb_reads_since_write`, and every
//! `get` is a masked comparison of that word against an expected word
//! derived from the private view. The model mirrors this exactly: it
//! derives the shared *word* with [`rio_core::protocol::pack_epoch`] and
//! guards gets with the very same
//! [`expected_read_word`]/[`expected_write_word`] helpers and
//! [`READ_EPOCH_MASK`]/[`WRITE_EPOCH_MASK`] masks the runtime compares
//! with, so a divergence between the model's guard and the shipped guard
//! is a compile-time impossibility rather than a transcription hazard.
//!
//! **The compiled protocol.** [`ProtocolSpec::compiled`] models what a
//! [`rio_core::CompiledFlow`] executes instead, taken from the compiler's
//! own output for the `(flow, mapping)` at hand: a worker steps through
//! its own tasks only, a get compares the *precompiled* expected word,
//! and exactly the micro-steps the compiler elided are gone — an elided
//! guard is no step at all (nothing is compared), an elided publication
//! never reaches the shared word. The three properties are checked
//! unchanged, so they cover the elision argument itself: a body behind
//! an elided guard must still find every earlier conflicting access
//! terminated, and no kept guard may be fooled by a word the elided
//! publications left stale.
//!
//! **Claim-marked entries.** Under a partial mapping
//! ([`ProtocolSpec::compiled_partial`]) an unmapped task is in every
//! worker's program, and who runs it is no longer a function of the
//! control points: the state grows one claim slot per unmapped task.
//! Reaching the task is a step of its own — the compare-and-swap, before
//! any get: the first worker there takes the slot and goes on as the
//! task's owner, every later one moves on. Exactly-once is then hold-race
//! freedom (a second runner would hold the same objects), and the other
//! two properties cover what the compiler kept for a task it could not
//! place.

use rio_core::protocol::{
    expected_read_word, expected_write_word, pack_epoch, LocalDataState, READ_EPOCH_MASK,
    WRITE_EPOCH_MASK,
};
use rio_stf::{AccessMode, Mapping, RoundRobin, TaskGraph, TaskId};

use crate::explorer::{explore, ExploreReport, TransitionSystem};

/// Control point of one worker: the flow index it is processing and its
/// micro-step within that task.
///
/// For a task with `k` accesses owned by this worker:
/// * `step = 0` — about to issue the first `get` (or the whole task is a
///   single private step when mapped elsewhere / `k = 0`);
/// * `step = 1..=k` — the first `step` gets have passed (at `step = k`
///   the body runs);
/// * `step = k+1..=2k-1` — the first `step − k` terminates are done;
/// * the final terminate normalizes to `(pos + 1, 0)`.
pub type ControlPoint = (u16, u16);

/// The protocol-level transition system.
pub struct ProtocolSpec<'g> {
    graph: &'g TaskGraph,
    workers: usize,
    /// Task index → owner worker; `None`: claim-marked, in every program.
    owner: Vec<Option<usize>>,
    /// Task index → its claim slot's index past the control points (only
    /// meaningful for claim-marked tasks).
    slot: Vec<usize>,
    /// `Some`: the compiled protocol — per task, what the compiler
    /// emitted for each access.
    compiled: Option<Vec<Vec<CompiledAccess>>>,
}

/// One access of a compiled program, as the model needs it.
#[derive(Clone, Copy)]
struct CompiledAccess {
    expected: u64,
    guard: bool,
    publish: bool,
}

// The private per-worker view is the implementation's own
// `LocalDataState`, so the expected-word helpers apply verbatim.

impl<'g> ProtocolSpec<'g> {
    /// Builds the system for `graph`, `workers` workers and `mapping`.
    pub fn new<M: Mapping + ?Sized>(
        graph: &'g TaskGraph,
        workers: usize,
        mapping: &M,
    ) -> ProtocolSpec<'g> {
        assert!(workers > 0);
        assert!(graph.len() < u16::MAX as usize);
        let owner = graph
            .tasks()
            .iter()
            .map(|t| Some(mapping.worker_of(t.id, workers).index()))
            .collect();
        ProtocolSpec {
            graph,
            workers,
            owner,
            slot: vec![0; graph.len()],
            compiled: None,
        }
    }

    /// The system a [`rio_core::CompiledFlow`] of `graph` under `mapping`
    /// executes (module docs): own tasks only, precompiled expected
    /// words, and none of the guards and publications the compiler
    /// elided.
    pub fn compiled(
        graph: &'g TaskGraph,
        workers: usize,
        mapping: &dyn Mapping,
    ) -> ProtocolSpec<'g> {
        let flow = rio_core::Executor::new(rio_core::RioConfig::with_workers(workers))
            .mapping(mapping)
            .compile(graph);
        ProtocolSpec::of_flow(&flow)
    }

    /// [`ProtocolSpec::compiled`] under a partial mapping: the tasks it
    /// leaves unmapped are claim-marked, and any worker whose program
    /// reaches one may run it (module docs).
    pub fn compiled_partial(
        graph: &'g TaskGraph,
        workers: usize,
        partial: &dyn rio_core::PartialMapping,
    ) -> ProtocolSpec<'g> {
        let flow = rio_core::Executor::new(rio_core::RioConfig::with_workers(workers))
            .hybrid(partial)
            .compile(graph);
        ProtocolSpec::of_flow(&flow)
    }

    /// Whether a compiled system keeps the guard and the publication of
    /// `task`'s (flow index) `access`-th access: a flow the compiler did not
    /// make, to explore. Panics on a system not compiled.
    pub fn mark(&mut self, task: usize, access: usize, guard: bool, publish: bool) {
        let a = &mut self.compiled.as_mut().expect("compiled")[task][access];
        (a.guard, a.publish) = (guard, publish);
    }

    /// The system `flow` executes, read back from its programs.
    fn of_flow(flow: &rio_core::CompiledFlow<'g>) -> ProtocolSpec<'g> {
        let (graph, workers) = (flow.graph(), flow.config().workers);
        assert!(graph.len() < u16::MAX as usize);
        let mut owner = vec![None; graph.len()];
        let mut compiled = vec![Vec::new(); graph.len()];
        for w in 0..workers {
            for ct in flow.own_tasks(rio_stf::WorkerId::from_index(w)) {
                owner[ct.task.id.index()] = (!ct.claim_marked()).then_some(w);
                // A quiet task is a range member with no entry: the engine
                // runs it with no get and no publication, and so does the
                // model — its accesses are the task's own, each with both
                // halves gone, and a wrong verdict breaks a property.
                compiled[ct.task.id.index()] = (0..ct.task.accesses.len())
                    .map(|i| CompiledAccess {
                        // (Compared by no guard when there is none.)
                        expected: ct.expected(i).unwrap_or_default(),
                        guard: ct.keeps_guard(i),
                        publish: ct.keeps_publication(i),
                    })
                    .collect();
            }
        }
        // A claim slot per claim-marked task, after the control points.
        let mut next = workers;
        let slot = owner
            .iter()
            .map(|o| {
                next += usize::from(o.is_none());
                next - 1
            })
            .collect();
        ProtocolSpec {
            graph,
            workers,
            owner,
            slot,
            compiled: Some(compiled),
        }
    }

    /// Who runs task `task_idx` in `state`: its owner, or whoever holds
    /// its claim slot (`None`: nobody yet).
    fn runner(&self, state: &[ControlPoint], task_idx: usize) -> Option<usize> {
        self.owner[task_idx].or_else(|| (state[self.slot[task_idx]].0 as usize).checked_sub(1))
    }

    /// Does the `acc_idx`-th publication of task `task_idx` reach the
    /// shared word?
    fn publishes(&self, task_idx: usize, acc_idx: usize) -> bool {
        self.compiled
            .as_ref()
            .is_none_or(|c| c[task_idx][acc_idx].publish)
    }

    /// The control point worker `w` rests at once it reaches
    /// `(pos, step)`: a finished task rolls over to the next one, and a
    /// compiled worker passes everything that is no step for it — foreign
    /// tasks, elided gets, elided publications after the first (the first
    /// rides on the body's completion step). It rests before a
    /// claim-marked task — the claim is a step — unless it just `claimed`
    /// the one at `pos`.
    fn settle(&self, w: usize, mut pos: usize, mut step: usize, claimed: bool) -> ControlPoint {
        let claimed_at = claimed.then_some(pos);
        let n = self.graph.len();
        loop {
            if pos >= n {
                return (n as u16, 0);
            }
            let k = self.accesses_of(pos).len();
            if step > 0 && step >= 2 * k {
                (pos, step) = (pos + 1, 0);
                continue;
            }
            let Some(compiled) = &self.compiled else {
                return (pos as u16, step as u16);
            };
            let elided = |step: usize| {
                let a = &compiled[pos];
                (step < k && !a[step].guard) || (step > k && !a[step - k].publish)
            };
            if self.owner[pos].is_some_and(|o| o != w) {
                pos += 1;
            } else if self.owner[pos].is_none() && step == 0 && claimed_at != Some(pos) {
                return (pos as u16, 0);
            } else if elided(step) {
                step += 1;
            } else {
                return (pos as u16, step as u16);
            }
        }
    }

    fn accesses_of(&self, task_idx: usize) -> &[rio_stf::Access] {
        &self.graph.tasks()[task_idx].accesses
    }

    /// Has worker `w` (at `state[w]`) performed the `acc_idx`-th terminate
    /// of task `task_idx`?
    fn terminate_done(&self, state: &[ControlPoint], task_idx: usize, acc_idx: usize) -> bool {
        let Some(w) = self.runner(state, task_idx) else {
            return false; // nobody has even claimed it
        };
        let (pos, step) = state[w];
        let pos = pos as usize;
        if pos > task_idx {
            return true; // task fully completed
        }
        if pos < task_idx {
            return false;
        }
        let k = self.accesses_of(task_idx).len();
        let step = step as usize;
        step > k && (step - k) > acc_idx
    }

    /// The shared epoch word of data object `d`, derived from the
    /// performed terminates — exactly what the implementation's single
    /// `AtomicU64` would hold in this state.
    fn shared_word(&self, state: &[ControlPoint], d: rio_stf::DataId) -> u64 {
        let mut last_write = TaskId::NONE;
        let mut reads_since = 0u64;
        for (ti, t) in self.graph.tasks().iter().enumerate() {
            for (ai, a) in t.accesses.iter().enumerate() {
                if a.data != d || !self.publishes(ti, ai) || !self.terminate_done(state, ti, ai) {
                    continue;
                }
                if a.mode.writes() {
                    last_write = t.id;
                    reads_since = 0;
                } else {
                    reads_since += 1;
                }
            }
        }
        pack_epoch(last_write, reads_since)
    }

    /// Worker `w`'s private counters for object `d`, derived from its
    /// control point. Declares of non-owned tasks happen when the worker
    /// passes them; the owner's own registrations happen at each
    /// terminate (Algorithm 2 lines 26/32).
    fn local_view(&self, state: &[ControlPoint], w: usize, d: rio_stf::DataId) -> LocalDataState {
        let (pos, step) = state[w];
        let pos = pos as usize;
        let mut v = LocalDataState::default();
        let mut register = |mode: AccessMode, id: TaskId| {
            if mode.writes() {
                v.nb_reads_since_write = 0;
                v.last_registered_write = id;
            } else {
                v.nb_reads_since_write += 1;
            }
        };
        for (ti, t) in self.graph.tasks().iter().enumerate().take(pos) {
            // Fully processed tasks: declared (non-owned) or terminated
            // (owned) — both register every access.
            let _ = ti;
            for a in &t.accesses {
                if a.data == d {
                    register(a.mode, t.id);
                }
            }
        }
        // Current task: only its performed terminates are registered (and
        // only when this worker owns it; a non-owned task registers
        // atomically when passed, handled above).
        if pos < self.graph.len() && self.owner[pos] == Some(w) {
            let t = &self.graph.tasks()[pos];
            let k = t.accesses.len();
            let step = step as usize;
            if step > k {
                for a in t.accesses.iter().take(step - k) {
                    if a.data == d {
                        register(a.mode, t.id);
                    }
                }
            }
        }
        v
    }

    /// The Algorithm-2 guard of the `acc_idx`-th `get` of the task at
    /// `state[w].0` — the implementation's masked single-word comparison.
    fn get_ready(&self, state: &[ControlPoint], w: usize, acc_idx: usize) -> bool {
        let pos = state[w].0 as usize;
        let a = self.accesses_of(pos)[acc_idx];
        let word = self.shared_word(state, a.data);
        let mask = if a.mode.writes() {
            WRITE_EPOCH_MASK
        } else {
            READ_EPOCH_MASK
        };
        let expected = match &self.compiled {
            Some(compiled) => compiled[pos][acc_idx].expected & mask,
            None => {
                let local = self.local_view(state, w, a.data);
                if a.mode.writes() {
                    expected_write_word(&local)
                } else {
                    expected_read_word(&local)
                }
            }
        };
        word & mask == expected
    }

    /// Objects currently *held* by worker `w` (gotten, not yet
    /// terminated), with their modes.
    fn holds(&self, state: &[ControlPoint], w: usize) -> Vec<rio_stf::Access> {
        let (pos, step) = state[w];
        let pos = pos as usize;
        if pos >= self.graph.len() || self.runner(state, pos) != Some(w) {
            return Vec::new();
        }
        let accesses = self.accesses_of(pos);
        let k = accesses.len();
        let step = step as usize;
        if step == 0 {
            Vec::new()
        } else if step <= k {
            accesses[..step].to_vec()
        } else {
            accesses[step - k..].to_vec()
        }
    }

    /// Body-start consistency: every flow-earlier conflicting access on
    /// each object of task `pos` has been terminated.
    fn body_start_consistent(&self, state: &[ControlPoint], pos: usize) -> bool {
        let t = &self.graph.tasks()[pos];
        for a in &t.accesses {
            for (ti, other) in self.graph.tasks().iter().enumerate().take(pos) {
                for (ai, oa) in other.accesses.iter().enumerate() {
                    if oa.data == a.data
                        && a.mode.conflicts_with(oa.mode)
                        && !self.terminate_done(state, ti, ai)
                    {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl TransitionSystem for ProtocolSpec<'_> {
    type State = Vec<ControlPoint>;

    fn initial(&self) -> Self::State {
        let unclaimed = self.owner.iter().filter(|o| o.is_none()).map(|_| (0, 0));
        (0..self.workers)
            .map(|w| self.settle(w, 0, 0, false))
            .chain(unclaimed)
            .collect()
    }

    fn successors(&self, state: &Self::State, out: &mut Vec<Self::State>) {
        let n = self.graph.len();
        for w in 0..self.workers {
            let (pos, step) = state[w];
            let posu = pos as usize;
            if posu >= n {
                continue;
            }
            let k = self.accesses_of(posu).len();
            let runner = self.runner(state, posu);
            let mut next = state.clone();
            if runner.is_none() && k > 0 {
                // The claim, before any get: from here on `w` owns it.
                next[self.slot[posu]] = (w as u16 + 1, 0);
                next[w] = self.settle(w, posu, 0, true);
                out.push(next);
                continue;
            }
            if runner.is_some_and(|r| r != w) || k == 0 {
                // One private step: declares, a lost claim, or an
                // access-free body (with its claim, if it takes one).
                if runner.is_none() {
                    next[self.slot[posu]] = (w as u16 + 1, 0);
                }
                next[w] = self.settle(w, posu + 1, 0, false);
                out.push(next);
                continue;
            }
            let stepu = step as usize;
            // A blocking get, or — past the gets — the body's completion
            // with the first terminate, then the other terminates (the
            // last one completes the task).
            if stepu >= k || self.get_ready(state, w, stepu) {
                next[w] = self.settle(w, posu, stepu + 1, false);
                out.push(next);
            }
        }
    }

    fn invariant(&self, state: &Self::State) -> Result<(), String> {
        // Hold-race freedom across workers.
        for w1 in 0..self.workers {
            let h1 = self.holds(state, w1);
            if h1.is_empty() {
                continue;
            }
            for w2 in w1 + 1..self.workers {
                for a2 in self.holds(state, w2) {
                    if let Some(a1) = h1.iter().find(|a| a.data == a2.data) {
                        if a1.mode.conflicts_with(a2.mode) {
                            return Err(format!(
                                "protocol race: workers {w1} and {w2} both hold {} ({} vs {})",
                                a1.data, a1.mode, a2.mode
                            ));
                        }
                    }
                }
            }
        }
        // Body-start consistency for every worker currently in its body.
        for w in 0..self.workers {
            let (pos, step) = state[w];
            let posu = pos as usize;
            if posu < self.graph.len() && self.runner(state, posu) == Some(w) {
                let k = self.accesses_of(posu).len();
                if k > 0 && step as usize == k && !self.body_start_consistent(state, posu) {
                    return Err(format!(
                        "consistency violation: task {} started its body before an \
                         earlier conflicting access terminated",
                        self.graph.tasks()[posu].id
                    ));
                }
            }
        }
        Ok(())
    }

    fn is_final(&self, state: &Self::State) -> bool {
        let n = self.graph.len() as u16;
        state[..self.workers]
            .iter()
            .all(|&(pos, step)| pos == n && step == 0)
    }
}

/// Exhaustively checks the implementation protocol on `graph` with
/// `workers` workers and a round-robin mapping.
pub fn explore_protocol(graph: &TaskGraph, workers: usize) -> ExploreReport {
    explore(&ProtocolSpec::new(graph, workers, &RoundRobin))
}

/// Exhaustively checks the compiled protocol ([`ProtocolSpec::compiled`])
/// with an explicit mapping.
pub fn explore_compiled_protocol_with(
    graph: &TaskGraph,
    workers: usize,
    mapping: &dyn Mapping,
) -> ExploreReport {
    explore(&ProtocolSpec::compiled(graph, workers, mapping))
}

/// Exhaustively checks the implementation protocol with an explicit
/// mapping.
pub fn explore_protocol_with<M: Mapping + ?Sized>(
    graph: &TaskGraph,
    workers: usize,
    mapping: &M,
) -> ExploreReport {
    explore(&ProtocolSpec::new(graph, workers, mapping))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::{Access, DataId, TableMapping, WorkerId};

    fn chain(n: usize) -> TaskGraph {
        let mut b = TaskGraph::builder(1);
        for _ in 0..n {
            b.task(&[Access::read_write(DataId(0))], 1, "t");
        }
        b.build()
    }

    #[test]
    fn rw_chain_is_race_free_and_terminates() {
        for workers in [1, 2, 3] {
            let g = chain(4);
            let r = explore_protocol(&g, workers);
            assert!(r.ok(), "{workers} workers: {:?}", r.violations);
        }
    }

    #[test]
    fn write_then_parallel_reads_then_write() {
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w");
        b.task(&[Access::read(DataId(0))], 1, "r");
        b.task(&[Access::read(DataId(0))], 1, "r");
        b.task(&[Access::write(DataId(0))], 1, "w");
        let g = b.build();
        for workers in [2, 3] {
            let r = explore_protocol(&g, workers);
            assert!(r.ok(), "{:?}", r.violations);
        }
    }

    #[test]
    fn multi_access_tasks_interleave_safely() {
        // Tasks with 2–3 accesses stress the per-access micro-steps.
        let mut b = TaskGraph::builder(3);
        b.task(
            &[Access::write(DataId(0)), Access::write(DataId(1))],
            1,
            "w01",
        );
        b.task(
            &[
                Access::read(DataId(0)),
                Access::read(DataId(1)),
                Access::write(DataId(2)),
            ],
            1,
            "r01w2",
        );
        b.task(
            &[Access::read(DataId(2)), Access::read_write(DataId(0))],
            1,
            "r2u0",
        );
        b.task(&[Access::read_write(DataId(1))], 1, "u1");
        let g = b.build();
        for workers in [2, 3] {
            let r = explore_protocol(&g, workers);
            assert!(r.ok(), "{workers}: {:?}", r.violations);
        }
    }

    #[test]
    fn lu_models_pass_the_protocol_check() {
        for (rows, cols) in [(2, 2), (3, 2)] {
            let g = crate::lu_model::graph(rows, cols);
            let m = crate::lu_model::mapping(rows, cols, 2);
            let r = explore_protocol_with(&g, 2, &m);
            assert!(r.ok(), "LU {rows}x{cols}: {:?}", r.violations);
            assert!(r.distinct > 10, "micro-steps expand the state space");
        }
    }

    #[test]
    fn protocol_explores_more_states_than_the_abstract_model() {
        let g = crate::lu_model::graph(2, 2);
        let m = crate::lu_model::mapping(2, 2, 2);
        let abstract_r = crate::rio_spec::explore_rio_with(&g, 2, &m);
        let proto_r = explore_protocol_with(&g, 2, &m);
        assert!(
            proto_r.distinct > abstract_r.distinct,
            "micro-step granularity must refine the abstract model ({} vs {})",
            proto_r.distinct,
            abstract_r.distinct
        );
    }

    #[test]
    fn adversarial_single_owner_mapping_terminates() {
        let g = chain(3);
        let m = TableMapping::new(vec![WorkerId(1); 3]);
        let r = explore_protocol_with(&g, 2, &m);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn independent_tasks_full_interleaving() {
        let mut b = TaskGraph::builder(2);
        b.task(&[Access::write(DataId(0))], 1, "a");
        b.task(&[Access::write(DataId(1))], 1, "b");
        b.task(&[Access::read(DataId(0))], 1, "c");
        b.task(&[Access::read(DataId(1))], 1, "d");
        let g = b.build();
        let r = explore_protocol(&g, 2);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn compiled_lu_models_pass_exhaustively() {
        // What a CompiledFlow executes — own tasks only, the compiler's
        // expected words, its elided guards and publications gone — keeps
        // all three properties on every interleaving.
        for (rows, cols) in [(3, 3), (4, 4)] {
            let g = crate::lu_model::graph(rows, cols);
            for workers in [2, 3] {
                let m = crate::lu_model::mapping(rows, cols, workers);
                let r = explore_compiled_protocol_with(&g, workers, &m);
                assert!(r.ok(), "LU {rows}x{cols}/{workers}: {:?}", r.violations);
                assert!(r.distinct > 10);
            }
        }
    }

    #[test]
    fn compiled_lu_12x12_walks_stay_clean() {
        // Past exhaustive reach: random walks of the compiled protocol.
        let g = crate::lu_model::graph(12, 12);
        let m = crate::lu_model::mapping(12, 12, 4);
        let spec = ProtocolSpec::compiled(&g, 4, &m);
        let r = crate::random_walks(&spec, 3, 1_000_000, 14);
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!((r.completed, r.truncated), (3, 0));
    }

    #[test]
    fn compiled_model_drops_the_elided_steps() {
        let g = crate::lu_model::graph(3, 3);
        let m = crate::lu_model::mapping(3, 3, 2);
        let spec = ProtocolSpec::compiled(&g, 2, &m);
        let elided = spec
            .compiled
            .as_ref()
            .unwrap()
            .iter()
            .flatten()
            .filter(|a| !a.guard || !a.publish)
            .count();
        assert!(elided > 0, "block-cyclic LU keeps some edges on one worker");
        // Fewer micro-steps (and no foreign tasks): a smaller state space.
        let walked = explore_protocol_with(&g, 2, &m);
        let compiled = explore(&spec);
        assert!(compiled.ok(), "{:?}", compiled.violations);
        assert!(compiled.distinct < walked.distinct);
        // One worker elides everything: its only path is its program, one
        // body per state.
        let solo = ProtocolSpec::compiled(&g, 1, &m_all_on_w0(g.len()));
        assert!(solo
            .compiled
            .as_ref()
            .unwrap()
            .iter()
            .flatten()
            .all(|a| !a.guard && !a.publish));
        let r = explore(&solo);
        assert!(r.ok());
        assert_eq!(r.distinct, g.len() as u64 + 1);
    }

    fn m_all_on_w0(tasks: usize) -> TableMapping {
        TableMapping::new(vec![WorkerId(0); tasks])
    }

    /// The compiled model is not vacuous: take away one thing the
    /// compiler kept and a property breaks.
    #[test]
    fn a_wrong_elision_is_caught() {
        // T1 (W0) writes, T2 (W1) reads, T3 (W0) writes again.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w");
        b.task(&[Access::read(DataId(0))], 1, "r");
        b.task(&[Access::write(DataId(0))], 1, "w2");
        let g = b.build();
        let m = TableMapping::new(vec![WorkerId(0), WorkerId(1), WorkerId(0)]);
        assert!(explore_compiled_protocol_with(&g, 2, &m).ok());
        // T2's guard is all that orders it after T1's body.
        let mut spec = ProtocolSpec::compiled(&g, 2, &m);
        assert!(spec.compiled.as_ref().unwrap()[1][0].guard);
        spec.compiled.as_mut().unwrap()[1][0].guard = false;
        assert!(!explore(&spec).violations.is_empty());
        // T1's publication is what T2's guard waits for.
        let mut spec = ProtocolSpec::compiled(&g, 2, &m);
        assert!(spec.compiled.as_ref().unwrap()[0][0].publish);
        spec.compiled.as_mut().unwrap()[0][0].publish = false;
        assert!(explore(&spec).deadlocks > 0);
    }

    /// The quiet verdict is an input of the model like the marks are:
    /// taking a task that keeps a half for quiet — all its steps dropped,
    /// as a block drops them — breaks a property, whichever half it was.
    #[test]
    fn a_wrong_quiet_verdict_is_caught() {
        let g = crate::lu_model::graph(3, 3);
        let m = crate::lu_model::mapping(3, 3, 2);
        let marks = ProtocolSpec::compiled(&g, 2, &m).compiled.unwrap();
        let keeps = |t: &Vec<CompiledAccess>| t.iter().any(|a| a.guard || a.publish);
        assert!(marks.iter().any(|t| !keeps(t)), "LU 3x3 has quiet tasks");
        let kept: Vec<usize> = (0..g.len()).filter(|&t| keeps(&marks[t])).collect();
        assert!(!kept.is_empty());
        for t in kept {
            let mut spec = ProtocolSpec::compiled(&g, 2, &m);
            for a in &mut spec.compiled.as_mut().unwrap()[t] {
                (a.guard, a.publish) = (false, false);
            }
            let r = explore(&spec);
            assert!(!r.ok(), "T{} taken for quiet goes unnoticed", t + 1);
        }
    }

    /// LU 3×3 under its block-cyclic mapping with every third task left
    /// to be claimed.
    fn lu_3x3_a_third_unmapped(workers: usize) -> (TaskGraph, impl rio_core::PartialMapping) {
        let m = crate::lu_model::mapping(3, 3, workers);
        let partial = rio_core::hybrid::PartialFn(move |t: TaskId, w: usize| {
            (!t.0.is_multiple_of(3)).then(|| m.worker_of(t, w))
        });
        (crate::lu_model::graph(3, 3), partial)
    }

    #[test]
    fn claim_marked_lu_passes_exhaustively() {
        for workers in [2, 3] {
            let (g, partial) = lu_3x3_a_third_unmapped(workers);
            let spec = ProtocolSpec::compiled_partial(&g, workers, &partial);
            let unmapped = spec.owner.iter().filter(|o| o.is_none()).count();
            assert_eq!(unmapped, g.len() / 3);
            let r = explore(&spec);
            assert!(r.ok(), "LU 3x3/{workers}: {:?}", r.violations);
            // Who runs a task is part of the state now.
            let m = crate::lu_model::mapping(3, 3, workers);
            let mapped = explore_compiled_protocol_with(&g, workers, &m);
            assert!(r.distinct > mapped.distinct);
        }
        // Nothing mapped at all: any worker may run anything.
        let g = crate::lu_model::graph(2, 2);
        let r = explore(&ProtocolSpec::compiled_partial(
            &g,
            2,
            &rio_core::hybrid::Unmapped,
        ));
        assert!(r.ok(), "{:?}", r.violations);
    }

    /// Nothing is elided on an epoch a claim-marked task touches, and the
    /// model says why: flip one such mark and a property breaks.
    #[test]
    fn a_flipped_mark_on_a_claim_marked_epoch_is_caught() {
        // T1 (W0) writes, T2 (anybody) reads, T3 (W0) writes again. Had T2
        // been W0's, nothing here would be shared.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w");
        b.task(&[Access::read(DataId(0))], 1, "r");
        b.task(&[Access::write(DataId(0))], 1, "w2");
        let g = b.build();
        let partial =
            rio_core::hybrid::PartialFn(|t: TaskId, _| (t != TaskId(2)).then_some(WorkerId(0)));
        let flipped = |task: usize, guard: bool| {
            let mut spec = ProtocolSpec::compiled_partial(&g, 2, &partial);
            let mark = &mut spec.compiled.as_mut().unwrap()[task][0];
            let kept = if guard {
                &mut mark.guard
            } else {
                &mut mark.publish
            };
            assert!(*kept, "T{} keeps it", task + 1);
            *kept = false;
            explore(&spec)
        };
        assert!(explore(&ProtocolSpec::compiled_partial(&g, 2, &partial)).ok());
        // T2's guard orders it after T1's body, T3's after T2's.
        assert!(!flipped(1, true).violations.is_empty());
        assert!(!flipped(2, true).violations.is_empty());
        // And what those guards compare must be published.
        assert!(flipped(0, false).deadlocks > 0);
        assert!(flipped(1, false).deadlocks > 0);

        // On LU 3×3 a task's guards overlap (one may imply another), but
        // not all of a claim-marked task's are redundant.
        let (g, partial) = lu_3x3_a_third_unmapped(2);
        let spec = ProtocolSpec::compiled_partial(&g, 2, &partial);
        let marks = spec.compiled.as_ref().unwrap();
        let caught = (0..g.len())
            .filter(|&t| spec.owner[t].is_none())
            .flat_map(|t| (0..marks[t].len()).map(move |a| (t, a)))
            .filter(|&(t, a)| marks[t][a].guard)
            .filter(|&(t, a)| {
                let mut spec = ProtocolSpec::compiled_partial(&g, 2, &partial);
                spec.compiled.as_mut().unwrap()[t][a].guard = false;
                !explore(&spec).violations.is_empty()
            })
            .count();
        assert!(caught > 0);
    }

    /// The masked single-word guard must decide exactly like the
    /// two-counter condition of Algorithm 2 it replaced. Enumerate a grid
    /// of control points (reachable or not — both sides are pure
    /// derivations) and compare.
    #[test]
    fn packed_guard_refines_the_counter_guard() {
        use rio_core::protocol::unpack_epoch;
        let mut b = TaskGraph::builder(2);
        b.task(&[Access::write(DataId(0))], 1, "w");
        b.task(
            &[Access::read(DataId(0)), Access::write(DataId(1))],
            1,
            "rw",
        );
        b.task(&[Access::read(DataId(0))], 1, "r");
        b.task(&[Access::write(DataId(0))], 1, "w2");
        let g = b.build();
        let spec = ProtocolSpec::new(&g, 2, &RoundRobin);
        let mut checked = 0u32;
        for p0 in 0..=4u16 {
            for s0 in 0..=3u16 {
                for p1 in 0..=4u16 {
                    for s1 in 0..=3u16 {
                        let state = vec![(p0, s0), (p1, s1)];
                        for w in 0..2usize {
                            let (pos, step) = state[w];
                            let posu = pos as usize;
                            if posu >= g.len() || spec.owner[posu] != Some(w) {
                                continue;
                            }
                            let accesses = &g.tasks()[posu].accesses;
                            if step as usize >= accesses.len() {
                                continue;
                            }
                            let a = accesses[step as usize];
                            let local = spec.local_view(&state, w, a.data);
                            let (reads, write) = unpack_epoch(spec.shared_word(&state, a.data));
                            let unpacked = if a.mode.writes() {
                                write == local.last_registered_write
                                    && reads == local.nb_reads_since_write
                            } else {
                                write == local.last_registered_write
                            };
                            assert_eq!(
                                spec.get_ready(&state, w, step as usize),
                                unpacked,
                                "state {state:?}, worker {w}"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 50, "grid too sparse: {checked}");
    }

    /// A deliberately broken variant: if terminates were counted as reads
    /// *before* the body, races would appear. We emulate a subtle bug by
    /// checking that the *correct* spec would catch an artificial race
    /// state through its invariant.
    #[test]
    fn invariant_detects_a_constructed_race() {
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(DataId(0))], 1, "w1");
        b.task(&[Access::write(DataId(0))], 1, "w2");
        let g = b.build();
        let spec = ProtocolSpec::new(&g, 2, &RoundRobin);
        // Both workers "hold" their write (step = k = 1): a race state
        // that correct executions never reach.
        let bad = vec![(0u16, 1u16), (1u16, 1u16)];
        assert!(spec.invariant(&bad).is_err());
    }
}
