//! Static task mappings: the `TaskId -> WorkerId` functions of the paper's
//! enriched STF model (§3.2, *parametric resources allocation*).
//!
//! The decentralized in-order execution model has no dynamic scheduler;
//! instead, every worker evaluates the same deterministic [`Mapping`] on
//! every task of the flow and executes exactly the tasks mapped to itself.
//! A mapping must therefore be cheap (it is evaluated `n_tasks × n_workers`
//! times in total) and *total* over the flow.
//!
//! Generic mappings live here; workload-specific ones (2-D block-cyclic on
//! tile coordinates, owner-computes…) are built by `rio-workloads` as
//! [`TableMapping`]s or closures.

use crate::ids::{TaskId, WorkerId};

/// A deterministic, total assignment of tasks to workers.
///
/// Implementations must be pure: repeated evaluation on the same `TaskId`
/// must return the same `WorkerId` — all workers replay the flow
/// independently and must agree on every task's executor (§3.4,
/// assumption 3).
pub trait Mapping: Send + Sync {
    /// The worker responsible for executing `task` among `num_workers`
    /// workers. Must return a value `< num_workers`.
    fn worker_of(&self, task: TaskId, num_workers: usize) -> WorkerId;
}

/// Cyclic (round-robin) mapping: task `i` runs on worker `i mod w`.
///
/// The right default for flows of homogeneous independent tasks.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl Mapping for RoundRobin {
    #[inline]
    fn worker_of(&self, task: TaskId, num_workers: usize) -> WorkerId {
        WorkerId::from_index(task.index() % num_workers)
    }
}

/// Block mapping: the flow is cut into `num_workers` contiguous chunks.
///
/// `total_tasks` must equal the flow length; the first
/// `total_tasks % num_workers` blocks get one extra task.
#[derive(Debug, Clone, Copy)]
pub struct BlockMapping {
    /// Length of the task flow this mapping is defined over.
    pub total_tasks: usize,
}

impl Mapping for BlockMapping {
    #[inline]
    fn worker_of(&self, task: TaskId, num_workers: usize) -> WorkerId {
        let i = task.index();
        let n = self.total_tasks.max(1);
        let base = n / num_workers;
        let extra = n % num_workers;
        // The first `extra` workers own `base + 1` tasks each.
        let boundary = extra * (base + 1);
        let w = if i < boundary {
            i / (base + 1).max(1)
        } else {
            match (i - boundary).checked_div(base) {
                Some(q) => extra + q,
                None => num_workers - 1, // base == 0: everything left over
            }
        };
        WorkerId::from_index(w.min(num_workers - 1))
    }
}

/// Table-driven mapping: an explicit `Vec<WorkerId>` indexed by flow
/// position. This is how workload generators express application-specific
/// mappings (owner-computes, 2-D block-cyclic on tile coordinates…).
#[derive(Debug, Clone)]
pub struct TableMapping {
    table: Vec<WorkerId>,
}

impl TableMapping {
    /// Builds a mapping from an explicit per-task table.
    pub fn new(table: Vec<WorkerId>) -> TableMapping {
        TableMapping { table }
    }

    /// Builds the table by evaluating `f` on each flow index.
    pub fn from_fn(total_tasks: usize, mut f: impl FnMut(usize) -> WorkerId) -> TableMapping {
        TableMapping {
            table: (0..total_tasks).map(&mut f).collect(),
        }
    }

    /// Number of tasks covered.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Validates that every entry is `< num_workers`.
    pub fn validate(&self, num_workers: usize) -> bool {
        self.table.iter().all(|w| w.index() < num_workers)
    }

    /// How many tasks each of `num_workers` workers owns (load histogram).
    pub fn load(&self, num_workers: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_workers];
        for w in &self.table {
            counts[w.index()] += 1;
        }
        counts
    }
}

impl Mapping for TableMapping {
    #[inline]
    fn worker_of(&self, task: TaskId, num_workers: usize) -> WorkerId {
        let w = self.table[task.index()];
        debug_assert!(w.index() < num_workers);
        w
    }
}

/// Closure-backed mapping, the paper's "closure of type
/// `TaskID -> WorkerID`" taken verbatim.
pub struct FnMapping<F>(pub F);

impl<F> Mapping for FnMapping<F>
where
    F: Fn(TaskId, usize) -> WorkerId + Send + Sync,
{
    #[inline]
    fn worker_of(&self, task: TaskId, num_workers: usize) -> WorkerId {
        (self.0)(task, num_workers)
    }
}

/// 2-D block-cyclic owner of grid cell `(i, j)` among `workers` workers
/// arranged on an (approximately square) `pr × pc` process grid — the
/// ScaLAPACK-style distribution the paper cites as the standard static
/// mapping for dense linear algebra (§3.2, reference \[16\]).
///
/// `pr` is the divisor of `workers` closest to its square root, `pc =
/// workers / pr`; cell `(i, j)` belongs to worker `(i mod pr) · pc +
/// (j mod pc)`.
pub fn block_cyclic_owner(i: usize, j: usize, workers: usize) -> WorkerId {
    debug_assert!(workers > 0);
    let pr = (1..=workers)
        .filter(|r| workers.is_multiple_of(*r))
        .min_by_key(|&r| (workers / r).abs_diff(r))
        .unwrap_or(1);
    let pc = workers / pr;
    WorkerId::from_index((i % pr) * pc + (j % pc))
}

/// Pre-flight validation of a [`Mapping`] over a flow of `num_tasks`
/// tasks and `num_workers` workers: totality, determinism and worker-id
/// range — the classic user bugs that deadlock a decentralized run,
/// rejected *before* any worker spawns.
///
/// Every task is probed **twice**: a panicking probe means the mapping is
/// not total ([`MappingError::NotTotal`]), two different answers mean it
/// is not deterministic ([`MappingError::NonDeterministic`]) — either way
/// workers replaying the flow could disagree on ownership, so some task
/// would be executed twice or by nobody (and the protocol would hang on
/// its never-published completion). An answer `>= num_workers` is
/// [`MappingError::OutOfRange`].
///
/// Two probes cannot catch every non-deterministic mapping (one that lies
/// only on the third call passes); the runtime's stall watchdog is the
/// backstop for those.
pub fn validate_mapping<M>(
    mapping: &M,
    num_tasks: usize,
    num_workers: usize,
) -> Result<(), crate::error::MappingError>
where
    M: Mapping + ?Sized,
{
    (0..num_tasks).try_for_each(|i| probe(mapping, TaskId::from_index(i), num_workers).map(drop))
}

/// The per-task check behind [`validate_mapping`]: probes `task` twice
/// and returns its worker, or the first of `NotTotal` (a probe panicked),
/// `NonDeterministic` (the probes disagree) and `OutOfRange` that applies.
/// A caller that walks the flow anyway validates and maps in that one
/// walk by calling this per task.
// Inlined by force: out of line, the 24-byte `Result` goes through memory
// on every task of a compile pass (~3 ns of its ~20 ns per task).
#[inline(always)]
pub fn probe<M>(
    mapping: &M,
    task: TaskId,
    num_workers: usize,
) -> Result<WorkerId, crate::error::MappingError>
where
    M: Mapping + ?Sized,
{
    use crate::error::MappingError;
    let ask = || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mapping.worker_of(task, num_workers)
        }))
        .map_err(|_| MappingError::NotTotal { task })
    };
    let first = ask()?;
    let second = ask()?;
    if first != second {
        return Err(MappingError::NonDeterministic {
            task,
            first,
            second,
        });
    }
    if first.index() >= num_workers {
        return Err(MappingError::OutOfRange {
            task,
            worker: first,
            workers: num_workers,
        });
    }
    Ok(first)
}

/// Blanket impl so `&M` can be passed wherever a mapping is consumed.
impl<M: Mapping + ?Sized> Mapping for &M {
    #[inline]
    fn worker_of(&self, task: TaskId, num_workers: usize) -> WorkerId {
        (**self).worker_of(task, num_workers)
    }
}

/// Boxed mappings are mappings (dynamic dispatch through the box).
impl<M: Mapping + ?Sized> Mapping for Box<M> {
    #[inline]
    fn worker_of(&self, task: TaskId, num_workers: usize) -> WorkerId {
        (**self).worker_of(task, num_workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId::from_index(i)
    }

    #[test]
    fn round_robin_cycles() {
        let m = RoundRobin;
        let ws: Vec<_> = (0..6).map(|i| m.worker_of(t(i), 3).index()).collect();
        assert_eq!(ws, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn block_mapping_is_contiguous_and_balanced() {
        let m = BlockMapping { total_tasks: 10 };
        let ws: Vec<_> = (0..10).map(|i| m.worker_of(t(i), 3).index()).collect();
        // 10 tasks over 3 workers: blocks of 4, 3, 3.
        assert_eq!(ws, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        // Monotone non-decreasing = contiguous blocks.
        assert!(ws.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn block_mapping_exact_division() {
        let m = BlockMapping { total_tasks: 8 };
        let ws: Vec<_> = (0..8).map(|i| m.worker_of(t(i), 4).index()).collect();
        assert_eq!(ws, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn block_mapping_fewer_tasks_than_workers() {
        let m = BlockMapping { total_tasks: 2 };
        for i in 0..2 {
            assert!(m.worker_of(t(i), 8).index() < 8);
        }
    }

    #[test]
    fn table_mapping_lookup_and_load() {
        let m = TableMapping::new(vec![WorkerId(1), WorkerId(0), WorkerId(1)]);
        assert_eq!(m.worker_of(t(0), 2), WorkerId(1));
        assert_eq!(m.load(2), vec![1, 2]);
        assert!(m.validate(2));
        assert!(!m.validate(1));
    }

    #[test]
    fn table_mapping_from_fn() {
        let m = TableMapping::from_fn(4, |i| WorkerId::from_index(i / 2));
        assert_eq!(m.len(), 4);
        assert_eq!(m.worker_of(t(3), 2), WorkerId(1));
    }

    #[test]
    fn fn_mapping_wraps_closures() {
        let m = FnMapping(|task: TaskId, w: usize| WorkerId::from_index(task.index() % w));
        assert_eq!(m.worker_of(t(5), 4), WorkerId(1));
    }

    #[test]
    fn mapping_by_reference() {
        fn takes_mapping(m: impl Mapping) -> WorkerId {
            m.worker_of(TaskId(1), 2)
        }
        let m = RoundRobin;
        assert_eq!(takes_mapping(m), WorkerId(0));
    }

    #[test]
    fn block_cyclic_owner_is_bounded_and_deterministic() {
        for w in 1..=9 {
            for i in 0..5 {
                for j in 0..5 {
                    let o = block_cyclic_owner(i, j, w);
                    assert!(o.index() < w);
                    assert_eq!(o, block_cyclic_owner(i, j, w));
                }
            }
        }
    }

    #[test]
    fn block_cyclic_grid_is_near_square() {
        // 4 workers -> 2x2 process grid: owner repeats with period 2 in
        // both directions.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(block_cyclic_owner(i, j, 4), block_cyclic_owner(i + 2, j, 4));
                assert_eq!(block_cyclic_owner(i, j, 4), block_cyclic_owner(i, j + 2, 4));
            }
        }
    }

    #[test]
    fn block_cyclic_covers_all_workers() {
        for w in [1, 2, 3, 4, 6, 8] {
            let mut seen = std::collections::HashSet::new();
            for i in 0..8 {
                for j in 0..8 {
                    seen.insert(block_cyclic_owner(i, j, w));
                }
            }
            assert_eq!(seen.len(), w);
        }
    }

    #[test]
    fn round_robin_is_deterministic() {
        let m = RoundRobin;
        for i in 0..100 {
            assert_eq!(m.worker_of(t(i), 7), m.worker_of(t(i), 7));
        }
    }

    #[test]
    fn validate_accepts_the_stock_mappings() {
        assert!(validate_mapping(&RoundRobin, 100, 3).is_ok());
        assert!(validate_mapping(&BlockMapping { total_tasks: 100 }, 100, 3).is_ok());
        let table = TableMapping::from_fn(50, |i| WorkerId::from_index(i % 2));
        assert!(validate_mapping(&table, 50, 2).is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range() {
        use crate::error::MappingError;
        let m = FnMapping(|task: TaskId, _| WorkerId::from_index(task.index())); // unbounded
        match validate_mapping(&m, 10, 3) {
            Err(MappingError::OutOfRange {
                task,
                worker,
                workers,
            }) => {
                assert_eq!(task, TaskId::from_index(3));
                assert_eq!(worker, WorkerId(3));
                assert_eq!(workers, 3);
            }
            other => panic!("expected OutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_non_determinism() {
        use crate::error::MappingError;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let m = FnMapping(move |_: TaskId, w: usize| {
            WorkerId::from_index(calls.fetch_add(1, Ordering::Relaxed) % w)
        });
        assert!(matches!(
            validate_mapping(&m, 10, 2),
            Err(MappingError::NonDeterministic {
                task: TaskId(1),
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_short_tables() {
        use crate::error::MappingError;
        let short = TableMapping::from_fn(5, |_| WorkerId(0));
        assert!(matches!(
            validate_mapping(&short, 10, 2),
            Err(MappingError::NotTotal { task: TaskId(6) })
        ));
    }
}
