//! Covered guards: kept guards that in-order execution has already
//! satisfied by the time a worker reaches them. The rule lives in
//! `validator::oracle`, derived from the graph and the owners alone; this
//! file pins what it finds, checks that the flows the compiler makes keep
//! the local rule exactly, and that they pass the validator both as
//! compiled and with the covered guards — and the publications only they
//! waited for — dropped. The compiler does not drop them (DESIGN.md §9,
//! "Covered guards": what it cost the compile).
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
//! the rule against that, and the validator rejects that variant.

mod validator;

use rio::core::{Executor, RioConfig};
use rio::mc::{explore, ProtocolSpec};
use validator::{check, Coverage};

use rio::stf::{Access, DataId, Mapping, RoundRobin, TableMapping, TaskGraph, WorkerId};
use rio::workloads::random_deps::RandomDepsConfig;
use rio::workloads::{cholesky, lu, random_deps, stencil};

/// A hand flow: per task, its accesses (`'r'` or `'w'`, object) and its
/// worker.
type Tasks = &'static [(&'static [(char, u32)], u32)];

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

/// The oracle of a hand flow, the compiled flow checked ([`check`]) at as
/// many workers as it names (two at least) and one more.
fn covered_marks(objects: usize, tasks: &[(&[(char, u32)], u32)]) -> Coverage {
    let (g, m) = flow_of(objects, tasks);
    let workers = (1 + tasks.iter().map(|t| t.1 as usize).max().unwrap()).max(2);
    let flow = Executor::new(RioConfig::with_workers(workers + 1))
        .mapping(&m)
        .compile(&g);
    check(&flow);
    let flow = Executor::new(RioConfig::with_workers(workers))
        .mapping(&m)
        .compile(&g);
    check(&flow)
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

/// `(flow, workers, kept guards, covered, kept publications, remaining)`:
/// guards and publications the local rule keeps, and what coverage leaves.
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
            let c = check(&flow);
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

/// The validator rejects what the model checker rejects (`rio-mc`'s
/// `a_dropped_uncovered_guard_is_caught`, the same flows): a guard dropped
/// though not covered, and the unsound rule that counts a task wholly
/// published at its first observed publication — there T3's `fetch_add`
/// on d1 is unordered after T1's store of d1 — while it accepts the flow
/// the rule itself reduces (T4's guard dropped in the first).
#[test]
fn the_validator_rejects_a_dropped_uncovered_guard() {
    let flows: [(usize, Tasks, &str); 2] = [
        (
            2,
            &[
                (&[('w', 0)], 0),
                (&[('w', 1)], 0),
                (&[('r', 1)], 1),
                (&[('r', 0)], 1),
            ],
            "the edge T2 -> T3 is unordered",
        ),
        (
            2,
            &[
                (&[('w', 0), ('w', 1)], 0),
                (&[('r', 0)], 1),
                (&[('r', 1)], 1),
                (&[('w', 1)], 0),
            ],
            "a fetch_add unordered after the store of T1",
        ),
    ];
    for (objects, tasks, why) in flows {
        let (g, m) = flow_of(objects, tasks);
        let flow = Executor::new(RioConfig::with_workers(2))
            .mapping(&m)
            .compile(&g);
        let mut marks = validator::Marks::of(&flow);
        assert_eq!(validator::validate(&g, &marks), Ok(()));
        let covered = check(&flow).covered;
        let reduced = validator::reduced(&flow, &covered);
        assert_eq!(validator::validate(&g, &reduced), Ok(()));
        assert!(marks.marks[2][0].guard, "T3 keeps its guard");
        marks.marks[2][0].guard = false;
        let err = validator::validate(&g, &marks).expect_err("a mutant");
        assert!(err.contains(why), "{err}");
    }
}

/// The benchmark's flows — `indep-fine`, `cholesky-24` (both Cholesky
/// workloads), `randdeps-fine` — under its mappings, at 2, 3, 4 and 64
/// workers: the validator accepts each compiled flow, as compiled and
/// reduced by its covered guards.
#[test]
fn the_benchmark_flows_pass_the_validator() {
    type Flow = (TaskGraph, fn(usize) -> Box<dyn Mapping>);
    let flows: [Flow; 3] = [
        (
            rio::workloads::independent::graph_private_data(65536),
            |_| Box::new(RoundRobin),
        ),
        (cholesky::graph(24, 1), |w| {
            Box::new(cholesky::mapping(24, w))
        }),
        (
            random_deps::graph(&RandomDepsConfig::paper(16384, 1)),
            |_| Box::new(RoundRobin),
        ),
    ];
    for (g, mapping) in &flows {
        for workers in [2, 3, 4, 64] {
            let m = mapping(workers);
            let flow = Executor::new(RioConfig::with_workers(workers))
                .mapping(&*m)
                .compile(g);
            check(&flow);
        }
    }
}

/// The model checker's system for `g` under `m` at `workers`, as compiled,
/// then reduced by its covered guards ([`validator::reduced`]); and how
/// many guards each keeps.
fn reduced_spec<'g>(
    g: &'g TaskGraph,
    m: &TableMapping,
    workers: usize,
) -> (ProtocolSpec<'g>, [usize; 2]) {
    let flow = Executor::new(RioConfig::with_workers(workers))
        .mapping(m)
        .compile(g);
    let reduced = validator::reduced(&flow, &check(&flow).covered);
    let mut spec = ProtocolSpec::compiled(g, workers, m);
    let kept = |marks: &validator::Marks| marks.marks.iter().flatten().filter(|a| a.guard).count();
    for (t, marks) in reduced.marks.iter().enumerate() {
        for (k, a) in marks.iter().enumerate() {
            spec.mark(t, k, a.guard, a.publish);
        }
    }
    (spec, [kept(&validator::Marks::of(&flow)), kept(&reduced)])
}

/// The reduced flows refine the protocol: every interleaving of LU 4×4
/// and of the hand flows above, at 2 and 3 workers, with the covered
/// guards and the publications only they waited for dropped, keeps the
/// model checker's three properties. LU 4×4 at two workers keeps 11 of
/// the 13 guards the local rule keeps.
#[test]
fn reduced_flows_pass_the_model_checker_exhaustively() {
    let (g, m) = (
        rio::mc::lu_model::graph(4, 4),
        rio::mc::lu_model::mapping(4, 4, 2),
    );
    let m = TableMapping::from_fn(g.len(), |i| m.worker_of(rio::stf::TaskId::from_index(i), 2));
    let (spec, kept) = reduced_spec(&g, &m, 2);
    assert_eq!(kept, [13, 11]);
    let r = explore(&spec);
    assert!(r.ok(), "LU 4x4 at 2: {:?}", r.violations);
    for workers in [2, 3] {
        let m = rio::mc::lu_model::mapping(4, 4, workers);
        let m = TableMapping::from_fn(g.len(), |i| {
            m.worker_of(rio::stf::TaskId::from_index(i), workers)
        });
        let (spec, [all, left]) = reduced_spec(&g, &m, workers);
        assert!(left <= all);
        let r = explore(&spec);
        assert!(r.ok(), "LU 4x4 at {workers}: {:?}", r.violations);
    }
    for (objects, tasks, dropped) in HAND_FLOWS {
        let (g, m) = flow_of(objects, tasks);
        for workers in [2, 3] {
            let (spec, [all, left]) = reduced_spec(&g, &m, workers);
            assert_eq!(all - left, dropped, "{tasks:?} at {workers}");
            let r = explore(&spec);
            assert!(r.ok(), "{tasks:?} at {workers}: {:?}", r.violations);
            assert!(r.distinct > g.len() as u64);
        }
    }
}

/// `covered_marks`' flows, with how many guards the rule drops in each.
const HAND_FLOWS: [(usize, Tasks, usize); 4] = [
    (
        2,
        &[
            (&[('w', 0)], 0),
            (&[('w', 1)], 0),
            (&[('r', 1)], 1),
            (&[('r', 0)], 1),
        ],
        1,
    ),
    (
        2,
        &[
            (&[('w', 0), ('w', 1)], 0),
            (&[('r', 0)], 1),
            (&[('r', 1)], 1),
            (&[('w', 1)], 0),
        ],
        0,
    ),
    (
        3,
        &[
            (&[('w', 0), ('w', 1)], 0),
            (&[('w', 2)], 0),
            (&[('r', 2)], 1),
            (&[('r', 0), ('r', 1)], 1),
        ],
        2,
    ),
    (
        3,
        &[
            (&[('w', 0)], 0),
            (&[('r', 0)], 1),
            (&[('w', 1)], 1),
            (&[('r', 0)], 1),
            (&[('w', 2)], 1),
            (&[('r', 2)], 0),
            (&[('w', 0)], 0),
        ],
        1,
    ),
];

/// Not vacuous: dropping a guard the rule keeps — one the flow still
/// needs — breaks a property, and so does the unsound rule that counts a
/// task wholly published at its first observed publication (T3 would read
/// d1 before T1's d1 terminate). The validator rejects both
/// (`the_validator_rejects_a_dropped_uncovered_guard`).
#[test]
fn the_model_checker_rejects_a_dropped_uncovered_guard() {
    for (objects, tasks, _) in &HAND_FLOWS[..2] {
        let (g, m) = flow_of(*objects, tasks);
        let (mut spec, _) = reduced_spec(&g, &m, 2);
        let flow = Executor::new(RioConfig::with_workers(2))
            .mapping(&m)
            .compile(&g);
        let t3 = flow
            .own_tasks(WorkerId(1))
            .find(|t| t.task.id.index() == 2)
            .unwrap();
        assert!(t3.keeps_guard(0), "T3 keeps its guard");
        spec.mark(2, 0, false, t3.keeps_publication(0));
        assert!(
            !explore(&spec).ok(),
            "{tasks:?}: dropping T3's guard goes unnoticed"
        );
    }
}
