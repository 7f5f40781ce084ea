//! Covered guards: kept guards that in-order execution has already
//! satisfied by the time a worker reaches them. A static count over the
//! compiled marks; the compiler itself is not changed by it.
//!
//! Each worker walks its own tasks in program order and keeps, per other
//! worker `v`, how many of `v`'s first tasks it knows to be wholly done —
//! body and every publication. A kept guard that observes a publication of
//! task `p` of worker `v` proves that every task before `p` in `v`'s
//! program is wholly done (each published before `v` moved on, and `p`'s
//! release store carries that), and that `p`'s body is done. It does *not*
//! prove that `p`'s other publications are done: `p` publishes its accesses
//! one at a time after its body. A guard is **covered** when every
//! predecessor it waits for on another worker is known wholly done.
//!
//! Treating `p` as wholly published on its first observed publication is
//! unsound: a read that skipped its guard on that ground publishes with a
//! `fetch_add` on the epoch word, which `p`'s own later store of that word
//! then overwrites — the next writer waits for a read count that never
//! comes. `a_publication_does_not_prove_its_tasks_other_publications` pins
//! the pass against that.
//!
//! With the covered guards dropped, a publication is kept when a remaining
//! guard waits for it. At zero coverage that rule is the compiler's own,
//! which every count below checks first.

use rio::core::{CompiledFlow, Executor, RioConfig};
use rio::stf::{Access, DataId, Mapping, RoundRobin, TableMapping, TaskGraph, WorkerId};
use rio::workloads::random_deps::RandomDepsConfig;
use rio::workloads::{cholesky, lu, random_deps, stencil};

/// What the pass found: per task (flow index), per access, whether its
/// guard is kept and whether it is covered; and the counts.
#[derive(Debug, Default, PartialEq)]
struct Coverage {
    covered: Vec<Vec<bool>>,
    kept_guards: u64,
    covered_guards: u64,
    /// Kept publications, as compiled and with the covered guards dropped.
    kept_publications: u64,
    remaining_publications: u64,
}

/// Runs the pass over `flow`, a flow of a total mapping.
fn coverage(flow: &CompiledFlow<'_>) -> Coverage {
    let (g, workers) = (flow.graph(), flow.config().workers);
    // Owner, place in its owner's program, and marks, per task.
    let mut owner = vec![0; g.len()];
    let mut place = vec![0; g.len()];
    let mut guard = vec![Vec::new(); g.len()];
    let mut publish = vec![Vec::new(); g.len()];
    let mut programs = vec![Vec::new(); workers];
    for (w, program) in programs.iter_mut().enumerate() {
        for (k, ct) in flow.own_tasks(WorkerId::from_index(w)).enumerate() {
            assert!(!ct.claim_marked(), "the pass reads total mappings only");
            let t = ct.task.id.index();
            let n = ct.task.accesses.len();
            (owner[t], place[t]) = (w, k);
            guard[t] = (0..n).map(|i| ct.keeps_guard(i)).collect();
            publish[t] = (0..n).map(|i| ct.keeps_publication(i)).collect();
            program.push(t);
        }
    }
    // What each access waits for: its epoch's writer, and for a write the
    // epoch's reads too — as `(task, access index)`, in flow order.
    type Access = (usize, usize);
    let mut epochs: Vec<(Option<Access>, Vec<Access>)> = vec![(None, Vec::new()); g.num_data()];
    let mut waits_for = vec![Vec::new(); g.len()];
    for t in g.tasks() {
        let i = t.id.index();
        waits_for[i] = t
            .accesses
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
            .collect::<Vec<_>>();
    }
    let mut out = Coverage {
        covered: guard.iter().map(|g| vec![false; g.len()]).collect(),
        ..Coverage::default()
    };
    for (w, program) in programs.iter().enumerate() {
        // `done[v]`: so many of `v`'s first tasks are wholly done.
        let mut done = vec![0usize; workers];
        for &t in program {
            for (k, preds) in waits_for[t].iter().enumerate() {
                let remote = preds.iter().filter(|&&(q, _)| owner[q] != w);
                // The compiler's rule: a guard is kept iff it waits for
                // some other worker.
                assert_eq!(guard[t][k], remote.clone().count() > 0, "T{}", t + 1);
                if !guard[t][k] {
                    continue;
                }
                out.kept_guards += 1;
                let covered = remote.clone().all(|&(q, _)| place[q] < done[owner[q]]);
                out.covered[t][k] = covered;
                out.covered_guards += u64::from(covered);
                for &(q, _) in remote {
                    done[owner[q]] = done[owner[q]].max(place[q]);
                }
            }
        }
    }
    // A publication is kept for each guard that still waits for it.
    let mut waited = guard
        .iter()
        .map(|g| vec![[false; 2]; g.len()])
        .collect::<Vec<_>>();
    for (t, preds) in waits_for.iter().enumerate() {
        for (k, preds) in preds.iter().enumerate() {
            for &(q, j) in preds.iter().filter(|_| guard[t][k]) {
                waited[q][j][0] = true;
                waited[q][j][1] |= !out.covered[t][k];
            }
        }
    }
    for (t, accesses) in waited.iter().enumerate() {
        for (k, &[compiled, remaining]) in accesses.iter().enumerate() {
            assert_eq!(publish[t][k], compiled, "T{} access {k}", t + 1);
            out.kept_publications += u64::from(compiled);
            out.remaining_publications += u64::from(remaining);
        }
    }
    out
}

/// A flow over `objects` objects: per task, its accesses (`'r'` or `'w'`,
/// object) and its worker.
fn flow_of(objects: usize, tasks: &[(&[(char, u32)], u32)]) -> (TaskGraph, TableMapping) {
    let mut b = TaskGraph::builder(objects);
    for (accesses, _) in tasks {
        let a: Vec<Access> = accesses
            .iter()
            .map(|&(m, d)| match m {
                'r' => Access::read(DataId(d)),
                _ => Access::write(DataId(d)),
            })
            .collect();
        b.task(&a, 1, "t");
    }
    let owners = tasks.iter().map(|&(_, w)| WorkerId(w)).collect();
    (b.build(), TableMapping::new(owners))
}

fn covered_marks(objects: usize, tasks: &[(&[(char, u32)], u32)]) -> Coverage {
    let (g, m) = flow_of(objects, tasks);
    let workers = 1 + tasks.iter().map(|t| t.1 as usize).max().unwrap();
    let flow = Executor::new(RioConfig::with_workers(workers.max(2)))
        .mapping(&m)
        .compile(&g);
    coverage(&flow)
}

#[test]
fn a_later_publication_covers_the_earlier_tasks_of_its_worker() {
    // W0: T1 writes d0, T2 writes d1. W1: T3 reads d1 — it observes T2, so
    // T1 is wholly done — and T4 reads d0, whose writer is T1: covered.
    let c = covered_marks(
        2,
        &[
            (&[('w', 0)], 0),
            (&[('w', 1)], 0),
            (&[('r', 1)], 1),
            (&[('r', 0)], 1),
        ],
    );
    assert_eq!(c.covered, [[false], [false], [false], [true]]);
    assert_eq!((c.kept_guards, c.covered_guards), (2, 1));
    // T1's publication was for T4 alone.
    assert_eq!((c.kept_publications, c.remaining_publications), (2, 1));
    // In the other order nothing is covered: observing T1 says nothing of T2.
    let c = covered_marks(
        2,
        &[
            (&[('w', 0)], 0),
            (&[('w', 1)], 0),
            (&[('r', 0)], 1),
            (&[('r', 1)], 1),
        ],
    );
    assert_eq!(c.covered_guards, 0);
}

#[test]
fn a_publication_does_not_prove_its_tasks_other_publications() {
    // T1 (W0) writes d0 and d1 and publishes each after its body. W1's T2
    // reads d0, then T3 reads d1: having seen T1's d0 store says nothing of
    // its d1 store, which a covered T3 would race with its own read
    // publication (T4, on W0, waits for it). Not covered.
    let tasks: &[(&[(char, u32)], u32)] = &[
        (&[('w', 0), ('w', 1)], 0),
        (&[('r', 0)], 1),
        (&[('r', 1)], 1),
        (&[('w', 1)], 0),
    ];
    let c = covered_marks(2, tasks);
    assert_eq!(
        c.covered,
        [vec![false, false], vec![false], vec![false], vec![false]]
    );
    // Within one task as well: T2 reads both, d0 first.
    let tasks: &[(&[(char, u32)], u32)] = &[
        (&[('w', 0), ('w', 1)], 0),
        (&[('r', 0), ('r', 1)], 1),
        (&[('w', 1)], 0),
    ];
    let c = covered_marks(2, tasks);
    assert_eq!(c.covered_guards, 0);
    // Once a later task of W0 is observed, T1 is wholly done.
    let tasks: &[(&[(char, u32)], u32)] = &[
        (&[('w', 0), ('w', 1)], 0),
        (&[('w', 2)], 0),
        (&[('r', 2)], 1),
        (&[('r', 0), ('r', 1)], 1),
    ];
    let c = covered_marks(3, tasks);
    assert_eq!(
        c.covered,
        [
            vec![false, false],
            vec![false],
            vec![false],
            vec![true, true]
        ]
    );
}

#[test]
fn a_write_guard_is_covered_only_when_every_read_it_waits_for_is() {
    // d0: T1 (W0) writes, T2 (W1) and T4 (W2) read, T5 (W0) writes: it
    // waits for both reads. W0 has seen T3 (W1) through d1, which covers
    // T2 but not T4.
    let tasks: &[(&[(char, u32)], u32)] = &[
        (&[('w', 0)], 0),
        (&[('r', 0)], 1),
        (&[('w', 1)], 1),
        (&[('r', 0)], 2),
        (&[('r', 1), ('w', 0)], 0),
    ];
    let c = covered_marks(2, tasks);
    assert_eq!(c.covered[4], [false, false]);
    // With T4 on W1 too, and a T5 on W1 after it whose write of d2 T6 (W0)
    // reads: observing T5 says T2, T3 and T4 are wholly done.
    let tasks: &[(&[(char, u32)], u32)] = &[
        (&[('w', 0)], 0),
        (&[('r', 0)], 1),
        (&[('w', 1)], 1),
        (&[('r', 0)], 1),
        (&[('w', 2)], 1),
        (&[('r', 2)], 0),
        (&[('w', 0)], 0),
    ];
    let c = covered_marks(3, tasks);
    // So T7's wait for T2 and T4 is covered; T6's own is not.
    assert_eq!(c.covered[6], [true]);
    assert_eq!(c.covered[5], [false]);
}

/// `(flow, workers, kept guards, covered, kept publications, remaining)`.
type Pinned = (&'static str, usize, u64, u64, u64, u64);

const PINNED: [Pinned; 12] = [
    ("cholesky-24", 2, 2300, 1078, 276, 276),
    ("cholesky-24", 3, 3064, 1436, 276, 276),
    ("cholesky-24", 4, 2950, 1121, 299, 299),
    ("randdeps-fine", 2, 28456, 24373, 42797, 8687),
    ("randdeps-fine", 3, 35730, 28070, 45926, 15442),
    ("randdeps-fine", 4, 39136, 28116, 46920, 21467),
    ("lu-16", 2, 716, 483, 135, 135),
    ("lu-16", 3, 950, 570, 135, 135),
    ("lu-16", 4, 1432, 434, 255, 255),
    ("stencil-256x64", 2, 252, 0, 504, 504),
    ("stencil-256x64", 3, 504, 0, 1008, 1008),
    ("stencil-256x64", 4, 756, 0, 1512, 1512),
];

#[test]
fn covered_guard_counts_are_pinned() {
    type Flow = (&'static str, TaskGraph, fn(usize) -> Box<dyn Mapping>);
    let flows: [Flow; 4] = [
        ("cholesky-24", cholesky::graph(24, 1), |w| {
            Box::new(cholesky::mapping(24, w))
        }),
        (
            "randdeps-fine",
            random_deps::graph(&RandomDepsConfig::paper(16384, 1)),
            |_| Box::new(RoundRobin),
        ),
        ("lu-16", lu::graph(16, 1), |w| Box::new(lu::mapping(16, w))),
        ("stencil-256x64", stencil::graph(256, 64, 1), |w| {
            Box::new(stencil::mapping(256, 64, w))
        }),
    ];
    let mut got = Vec::new();
    for (name, g, mapping) in &flows {
        for workers in [2, 3, 4] {
            let m = mapping(workers);
            let flow = Executor::new(RioConfig::with_workers(workers))
                .mapping(&*m)
                .compile(g);
            let c = coverage(&flow);
            let s = flow.stats();
            let accesses = g.total_accesses() as u64;
            assert_eq!(c.kept_guards, accesses - s.elided_gets);
            assert_eq!(c.kept_publications, accesses - s.elided_publishes);
            got.push((
                *name,
                workers,
                c.kept_guards,
                c.covered_guards,
                c.kept_publications,
                c.remaining_publications,
            ));
        }
    }
    assert_eq!(got, PINNED, "recomputed: {got:#?}");
}
