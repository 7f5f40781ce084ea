//! A static validator of compiled flows: RIO ⊆ STF, checked per flow.
//!
//! It replays the marks a `CompiledFlow` exposes — per worker, its own
//! tasks in program order; per access, whether the run keeps its guard and
//! its publication, and the word a kept guard waits for — as vector clocks.
//! A worker's events are, per task, its guards, its body and its
//! publications, in that order; a kept guard joins the clocks of the
//! publications whose word it waits for: a read's, the store of its epoch's
//! writer; a write's, that store and every read of the epoch. A claim-marked
//! task runs on a worker of its own (whoever claims it, no program waits
//! for it). A flow is rejected when
//! - a kept guard expects a word nobody publishes: its word is not the
//!   flow's at that point, or a publication it needs is elided;
//! - an edge of `DepGraph::derive` (read after write, write after read,
//!   write after write) leaves a body unordered after its predecessor's;
//! - a read's kept `fetch_add` is not ordered after the kept store of its
//!   epoch (the store would overwrite it);
//! - a kept store is not ordered after every earlier kept publication on
//!   its object (a late `fetch_add` would land in the next epoch).
//!
//! It reads public marks only: `Marks::of` takes them off a flow, and a
//! test may change them to make a mutant.
//!
//! Beside it, the covered-guard rule ([`oracle`], DESIGN.md §9), derived
//! from the graph and the owners alone; [`reduced`], a flow's marks with
//! the covered guards and the publications only they waited for dropped;
//! and [`check`], which holds a flow's marks to the local rule and
//! validates them, reduced or not.

#![allow(dead_code)]

use rio_core::CompiledFlow;
use rio_stf::deps::DepGraph;
use rio_stf::{TaskGraph, WorkerId};

/// One own access as compiled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark {
    pub guard: bool,
    pub publish: bool,
    /// The word a kept guard waits for.
    pub expected: Option<u64>,
}

/// A flow's marks: per task (flow index), its worker (`None`: claim-marked)
/// and its accesses' marks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Marks {
    pub workers: usize,
    pub owner: Vec<Option<usize>>,
    pub marks: Vec<Vec<Mark>>,
}

impl Marks {
    /// Reads `flow`'s marks back from every worker's program, checking that
    /// each holds its own tasks in flow order.
    pub fn of(flow: &CompiledFlow<'_>) -> Marks {
        let (graph, workers) = (flow.graph(), flow.config().workers);
        let mut owner = vec![None; graph.len()];
        let mut marks = vec![Vec::new(); graph.len()];
        for w in 0..workers {
            let mut last = None;
            for ct in flow.own_tasks(WorkerId::from_index(w)) {
                let t = ct.task.id.index();
                assert!(
                    last < Some(t),
                    "W{w}'s program is out of flow order at T{}",
                    t + 1
                );
                last = Some(t);
                owner[t] = (!ct.claim_marked()).then_some(w);
                marks[t] = (0..ct.task.accesses.len())
                    .map(|i| Mark {
                        guard: ct.keeps_guard(i),
                        publish: ct.keeps_publication(i),
                        expected: ct.expected(i),
                    })
                    .collect();
            }
        }
        Marks {
            workers,
            owner,
            marks,
        }
    }
}

/// [`validate`] of `flow`'s own marks.
pub fn validate_flow(flow: &CompiledFlow<'_>) -> Result<(), String> {
    validate(flow.graph(), &Marks::of(flow))
}

/// Panics with the first violation of `flow`, and where it was found.
pub fn assert_valid(flow: &CompiledFlow<'_>, at: &str) {
    if let Err(e) = validate_flow(flow) {
        panic!("{at}: the compiled flow is rejected: {e}");
    }
}

/// Is `a` at least `b` in every component?
fn covers(a: &[u32], b: &[u32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y)
}

/// A kept publication's event on its worker, and its clock.
type Published = (u32, Vec<u32>);

/// An access, `(task, access index)`.
type At = (usize, usize);

/// Checks `marks` against `graph` (module docs).
pub fn validate(graph: &TaskGraph, marks: &Marks) -> Result<(), String> {
    let n = graph.len();
    // A worker of its own for each claim-marked task.
    let mut place = Vec::with_capacity(n);
    let mut next = marks.workers;
    for o in &marks.owner {
        place.push(o.unwrap_or_else(|| {
            next += 1;
            next - 1
        }));
    }
    let w = next;
    let deps = DepGraph::derive(graph);
    let mut clock = vec![vec![0u32; w]; w];
    // Per task, its body's `(worker, event)`; per access, its kept
    // publication's event and clock.
    let mut body = vec![(0, 0); n];
    let mut published: Vec<Vec<Option<Published>>> = vec![Vec::new(); n];
    // Per object: its epoch's writer and reads, as `(task, access)`, and
    // per worker the latest kept publication's event.
    let mut writer: Vec<Option<(usize, usize)>> = vec![None; graph.num_data()];
    let mut reads: Vec<Vec<(usize, usize)>> = vec![Vec::new(); graph.num_data()];
    let mut latest = vec![vec![0u32; w]; graph.num_data()];
    for t in graph.tasks() {
        let (i, v) = (t.id.index(), place[t.id.index()]);
        let name = |k: usize| format!("T{} access {k} ({})", i + 1, t.accesses[k].data);
        let m = &marks.marks[i];
        if m.len() != t.accesses.len() {
            return Err(format!("T{} is in no program", i + 1));
        }
        let tick = |clock: &mut Vec<Vec<u32>>| {
            clock[v][v] += 1;
            clock[v][v]
        };
        // The gets, in declaration order, on the pre-task view.
        for (k, a) in t.accesses.iter().enumerate() {
            tick(&mut clock);
            if !m[k].guard {
                continue;
            }
            let d = a.data.index();
            let id = |p: Option<(usize, usize)>| p.map_or(0, |(q, _)| q as u64 + 1);
            let waits: Vec<(usize, usize)> = match a.mode.writes() {
                true => writer[d].iter().chain(&reads[d]).copied().collect(),
                false => writer[d].iter().copied().collect(),
            };
            let word = (id(writer[d]) << 32) | reads[d].len() as u64;
            let expected = m[k]
                .expected
                .ok_or_else(|| format!("{}: a kept guard without a word", name(k)))?;
            let same = match a.mode.writes() {
                true => expected == word,
                false => expected >> 32 == word >> 32,
            };
            if !same {
                return Err(format!(
                    "{}: waits for {expected:#x}, the flow's word is {word:#x}",
                    name(k)
                ));
            }
            for (q, j) in waits {
                let Some((_, seen)) = &published[q][j] else {
                    return Err(format!(
                        "{}: expects a word nobody publishes (T{} access {j} is elided)",
                        name(k),
                        q + 1
                    ));
                };
                for (c, s) in clock[v].iter_mut().zip(seen) {
                    *c = (*c).max(*s);
                }
            }
        }
        let e = tick(&mut clock);
        body[i] = (v, e);
        for p in deps.preds(t.id) {
            let (pv, pe) = body[p.index()];
            if clock[v][pv] < pe {
                return Err(format!("the edge {p} -> T{} is unordered", i + 1));
            }
        }
        // The publications, after the body.
        published[i] = vec![None; t.accesses.len()];
        for (k, a) in t.accesses.iter().enumerate() {
            let e = tick(&mut clock);
            let d = a.data.index();
            if !m[k].publish {
                continue;
            }
            if a.mode.writes() {
                if !covers(&clock[v], &latest[d]) {
                    return Err(format!(
                        "{}: a store unordered after an earlier publication",
                        name(k)
                    ));
                }
            } else if let Some((q, j)) = writer[d] {
                if let Some((se, _)) = &published[q][j] {
                    if clock[v][place[q]] < *se {
                        return Err(format!(
                            "{}: a fetch_add unordered after the store of T{}",
                            name(k),
                            q + 1
                        ));
                    }
                }
            }
            latest[d][v] = e;
            published[i][k] = Some((e, clock[v].clone()));
        }
        for (k, a) in t.accesses.iter().enumerate() {
            let d = a.data.index();
            if a.mode.writes() {
                (writer[d], reads[d]) = (Some((i, k)), Vec::new());
            } else {
                reads[d].push((i, k));
            }
        }
    }
    Ok(())
}

/// What the oracle derives: per task (flow index), per access, whether
/// the local rule keeps its guard and whether it is covered; and the
/// counts.
#[derive(Debug, Default, PartialEq)]
pub struct Coverage {
    pub local: Vec<Vec<bool>>,
    pub covered: Vec<Vec<bool>>,
    pub kept_guards: u64,
    pub covered_guards: u64,
    /// Kept publications, under the local rule and with the covered guards
    /// dropped.
    pub kept_publications: u64,
    pub remaining_publications: u64,
}

/// What each access waits for: its epoch's writer, and for a write the
/// epoch's reads too — as `(task, access index)`, in flow order.
pub fn waits_for(g: &TaskGraph) -> Vec<Vec<Vec<(usize, usize)>>> {
    let mut epochs: Vec<(Option<At>, Vec<At>)> = vec![(None, Vec::new()); g.num_data()];
    g.tasks()
        .iter()
        .map(|t| {
            let i = t.id.index();
            t.accesses
                .iter()
                .enumerate()
                .map(|(k, a)| {
                    let (writer, reads) = &mut epochs[a.data.index()];
                    let mut preds: Vec<_> = writer.iter().copied().collect();
                    if a.mode.writes() {
                        preds.append(reads);
                        *writer = Some((i, k));
                    } else {
                        reads.push((i, k));
                    }
                    preds
                })
                .collect()
        })
        .collect()
}

/// The covered guards of `g` with task `t` on `owner[t]` of `workers`.
pub fn oracle(g: &TaskGraph, owner: &[usize], workers: usize) -> Coverage {
    let waits = waits_for(g);
    // Each task's place in its owner's program.
    let mut place = vec![0; g.len()];
    let mut programs = vec![Vec::new(); workers];
    for t in 0..g.len() {
        place[t] = programs[owner[t]].len();
        programs[owner[t]].push(t);
    }
    let blank = |_: &Vec<Vec<(usize, usize)>>| -> Vec<bool> { Vec::new() };
    let mut out = Coverage {
        local: waits.iter().map(blank).collect(),
        covered: waits.iter().map(blank).collect(),
        ..Coverage::default()
    };
    for (w, program) in programs.iter().enumerate() {
        // `done[v]`: so many of `v`'s first tasks are wholly done.
        let mut done = vec![0usize; workers];
        for &t in program {
            for preds in &waits[t] {
                let remote = preds.iter().filter(|&&(q, _)| owner[q] != w);
                let local = remote.clone().count() > 0;
                let covered = local && remote.clone().all(|&(q, _)| place[q] < done[owner[q]]);
                out.local[t].push(local);
                out.covered[t].push(covered);
                out.kept_guards += u64::from(local);
                out.covered_guards += u64::from(covered);
                for &(q, _) in remote {
                    done[owner[q]] = done[owner[q]].max(place[q]);
                }
            }
        }
    }
    // A publication is kept for each guard that still waits for it.
    let mut waited: Vec<Vec<[bool; 2]>> = waits.iter().map(|a| vec![[false; 2]; a.len()]).collect();
    for (t, accesses) in waits.iter().enumerate() {
        for (k, preds) in accesses.iter().enumerate() {
            for &(q, j) in preds.iter().filter(|_| out.local[t][k]) {
                waited[q][j][0] = true;
                waited[q][j][1] |= !out.covered[t][k];
            }
        }
    }
    for &[local, remaining] in waited.iter().flatten() {
        out.kept_publications += u64::from(local);
        out.remaining_publications += u64::from(remaining);
    }
    out
}

/// `flow`'s marks with the guards `covered` names dropped, and each
/// publication kept exactly when a remaining guard waits for it.
pub fn reduced(flow: &CompiledFlow<'_>, covered: &[Vec<bool>]) -> Marks {
    let mut marks = Marks::of(flow);
    let waits = waits_for(flow.graph());
    for (m, covered) in marks.marks.iter_mut().zip(covered) {
        for (m, &c) in m.iter_mut().zip(covered) {
            m.guard &= !c;
            m.expected = m.expected.filter(|_| m.guard);
            m.publish = false;
        }
    }
    for (t, accesses) in waits.iter().enumerate() {
        for (k, preds) in accesses.iter().enumerate() {
            if marks.marks[t][k].guard {
                for &(q, j) in preds {
                    marks.marks[q][j].publish = true;
                }
            }
        }
    }
    marks
}

/// Checks `flow`, of a total mapping: its marks are the local rule's (a
/// guard is kept iff it waits for another worker, a publication iff a kept
/// guard waits for it), and the validator accepts them, and them reduced
/// by the covered guards ([`reduced`]). Returns the oracle.
pub fn check(flow: &CompiledFlow<'_>) -> Coverage {
    let (g, workers) = (flow.graph(), flow.config().workers);
    let marks = Marks::of(flow);
    let owner: Vec<usize> = marks
        .owner
        .iter()
        .map(|o| o.expect("a total mapping"))
        .collect();
    let o = oracle(g, &owner, workers);
    let waits = waits_for(g);
    let mut waited: Vec<Vec<bool>> = waits.iter().map(|a| vec![false; a.len()]).collect();
    for (t, m) in marks.marks.iter().enumerate() {
        for (k, m) in m.iter().enumerate() {
            assert_eq!(
                m.guard,
                o.local[t][k],
                "T{} access {k}: the local rule",
                t + 1
            );
            for &(q, j) in waits[t][k].iter().filter(|_| m.guard) {
                waited[q][j] = true;
            }
        }
    }
    for (t, m) in marks.marks.iter().enumerate() {
        for (k, m) in m.iter().enumerate() {
            assert_eq!(
                m.publish,
                waited[t][k],
                "T{} access {k}: kept iff a kept guard waits",
                t + 1
            );
        }
    }
    assert_valid(flow, "as compiled");
    let less = reduced(flow, &o.covered);
    if let Err(e) = validate(g, &less) {
        panic!("the flow reduced by its covered guards is rejected: {e}");
    }
    o
}
