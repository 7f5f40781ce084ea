//! Recorded task flows.
//!
//! A [`TaskGraph`] is a *sequence* of task descriptors — the task flow of
//! the STF model — together with the number of data objects it refers to.
//! The dependency DAG is implicit (derivable with [`crate::deps`]); keeping
//! the flow as a sequence preserves the submission order that the
//! decentralized in-order execution model relies on.

use crate::ids::{DataId, TaskId};
use crate::task::{Access, TaskDesc};

/// A recorded sequential task flow over `num_data` data objects.
#[derive(Clone, Debug, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskDesc>,
    num_data: usize,
}

impl TaskGraph {
    /// Starts building a graph over `num_data` data objects.
    pub fn builder(num_data: usize) -> GraphBuilder {
        GraphBuilder {
            graph: TaskGraph {
                tasks: Vec::new(),
                num_data,
            },
        }
    }

    /// The tasks in submission (flow) order.
    #[inline]
    pub fn tasks(&self) -> &[TaskDesc] {
        &self.tasks
    }

    /// Number of tasks in the flow.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Is the flow empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Number of data objects the flow may reference.
    #[inline]
    pub fn num_data(&self) -> usize {
        self.num_data
    }

    /// The descriptor of task `id`.
    ///
    /// Panics if `id` is out of range or [`TaskId::NONE`].
    #[inline]
    pub fn task(&self, id: TaskId) -> &TaskDesc {
        &self.tasks[id.index()]
    }

    /// Sum of the cost hints of all tasks (abstract work units).
    pub fn total_cost(&self) -> u64 {
        self.tasks.iter().map(|t| t.cost).sum()
    }

    /// Total number of declared accesses across all tasks.
    pub fn total_accesses(&self) -> usize {
        self.tasks.iter().map(|t| t.accesses.len()).sum()
    }

    /// Checks structural well-formedness:
    ///
    /// * task ids are dense and in flow order (`T1, T2, ...`),
    /// * every access refers to a data object `< num_data`,
    /// * no task declares two accesses to the same data object,
    /// * ids — and so per-epoch read counts — fit the runtime's packed
    ///   epoch word ([`TaskGraph::validate_limits`] with `u32::MAX`).
    pub fn validate(&self) -> Result<(), GraphError> {
        for (i, t) in self.tasks.iter().enumerate() {
            if t.id != TaskId::from_index(i) {
                return Err(GraphError::NonDenseIds {
                    position: i,
                    found: t.id,
                });
            }
            let mut seen: Vec<DataId> = Vec::with_capacity(t.accesses.len());
            for a in &t.accesses {
                if a.data.index() >= self.num_data {
                    return Err(GraphError::DataOutOfRange {
                        task: t.id,
                        data: a.data,
                        num_data: self.num_data,
                    });
                }
                if seen.contains(&a.data) {
                    return Err(GraphError::DuplicateAccess {
                        task: t.id,
                        data: a.data,
                    });
                }
                seen.push(a.data);
            }
        }
        self.validate_limits(u32::MAX as u64)
    }

    /// Checks the flow against the representation limits of the runtime's
    /// packed epoch word: every task id must be `≤ max_task_id`. The
    /// runtime packs ids into a `u32` half of one 64-bit word, so
    /// [`TaskGraph::validate`] applies this with `u32::MAX`; tests may
    /// pass a tiny limit to exercise the rejection path cheaply.
    ///
    /// The word's other half, the read count of a data object's current
    /// *epoch* (the reads since its last write), needs no check of its
    /// own. Ids are dense and a task declares an object at most once, so
    /// before task `t` registers its accesses every epoch holds reads of
    /// distinct earlier tasks only: fewer than `t.id`. No epoch therefore
    /// ever counts more reads than the flow's largest id, and a flow whose
    /// ids fit the word has read counts that fit it too.
    pub fn validate_limits(&self, max_task_id: u64) -> Result<(), GraphError> {
        match self.tasks.iter().find(|t| t.id.0 > max_task_id) {
            Some(t) => Err(GraphError::TaskIdOverflow {
                task: t.id,
                max: max_task_id,
            }),
            None => Ok(()),
        }
    }

    /// Renders the implicit dependency DAG in Graphviz DOT format:
    /// one node per task (labelled `id:kind`), one edge per direct
    /// dependency. Useful for eyeballing small flows.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let deps = crate::deps::DepGraph::derive(self);
        let mut out = String::from("digraph taskflow {\n  rankdir=LR;\n");
        for t in &self.tasks {
            let _ = writeln!(out, "  t{} [label=\"{}:{}\"];", t.id.0, t.id.0, t.kind);
        }
        for t in &self.tasks {
            for p in deps.preds(t.id) {
                let _ = writeln!(out, "  t{} -> t{};", p.0, t.id.0);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Summary statistics of the flow, including the critical path of the
    /// implicit dependency DAG (in task count and in cost units) and the
    /// average available parallelism `total / critical`.
    pub fn stats(&self) -> GraphStats {
        // Longest path ending at each task, computed over the implicit
        // dependency DAG in one forward sweep: a task depends on the last
        // writer of everything it accesses and, when it writes, on all
        // readers since that write.
        let mut last_writer: Vec<Option<TaskId>> = vec![None; self.num_data];
        let mut readers_since: Vec<Vec<TaskId>> = vec![Vec::new(); self.num_data];
        let mut depth: Vec<u64> = vec![0; self.tasks.len()]; // in tasks
        let mut cdepth: Vec<u64> = vec![0; self.tasks.len()]; // in cost
        let mut edges = 0usize;

        for t in &self.tasks {
            let i = t.id.index();
            let mut d = 0u64;
            let mut cd = 0u64;
            for a in &t.accesses {
                let s = a.data.index();
                if let Some(w) = last_writer[s] {
                    d = d.max(depth[w.index()]);
                    cd = cd.max(cdepth[w.index()]);
                    edges += 1;
                }
                if a.mode.writes() {
                    for &r in &readers_since[s] {
                        d = d.max(depth[r.index()]);
                        cd = cd.max(cdepth[r.index()]);
                        edges += 1;
                    }
                }
            }
            depth[i] = d + 1;
            cdepth[i] = cd + t.cost;
            for a in &t.accesses {
                let s = a.data.index();
                if a.mode.writes() {
                    last_writer[s] = Some(t.id);
                    readers_since[s].clear();
                }
                if a.mode.reads() {
                    readers_since[s].push(t.id);
                }
            }
        }

        let critical_path_tasks = depth.iter().copied().max().unwrap_or(0);
        let critical_path_cost = cdepth.iter().copied().max().unwrap_or(0);
        let total_cost = self.total_cost();
        GraphStats {
            tasks: self.tasks.len(),
            data_objects: self.num_data,
            accesses: self.total_accesses(),
            dependency_edges: edges,
            critical_path_tasks,
            critical_path_cost,
            total_cost,
            avg_parallelism: if critical_path_tasks == 0 {
                0.0
            } else {
                self.tasks.len() as f64 / critical_path_tasks as f64
            },
        }
    }
}

/// Structural error found by [`TaskGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Task ids must be `T1..Tn` in order.
    NonDenseIds { position: usize, found: TaskId },
    /// An access names a data object outside `0..num_data`.
    DataOutOfRange {
        task: TaskId,
        data: DataId,
        num_data: usize,
    },
    /// A task declares the same data object twice.
    DuplicateAccess { task: TaskId, data: DataId },
    /// A task id exceeds what the runtime's packed epoch word can
    /// represent (see [`TaskGraph::validate_limits`]).
    TaskIdOverflow { task: TaskId, max: u64 },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NonDenseIds { position, found } => {
                write!(
                    f,
                    "task at position {position} has id {found}, expected T{}",
                    position + 1
                )
            }
            GraphError::DataOutOfRange {
                task,
                data,
                num_data,
            } => {
                write!(
                    f,
                    "{task} accesses {data} but the graph declares only {num_data} data objects"
                )
            }
            GraphError::DuplicateAccess { task, data } => {
                write!(f, "{task} declares {data} more than once")
            }
            GraphError::TaskIdOverflow { task, max } => {
                write!(
                    f,
                    "{task} exceeds the maximum representable task id {max} \
                     (the runtime packs task ids into 32 bits of the epoch word)"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Summary statistics returned by [`TaskGraph::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of data objects.
    pub data_objects: usize,
    /// Total declared accesses.
    pub accesses: usize,
    /// Number of (direct) dependency edges of the implicit DAG, counting one
    /// edge per (predecessor, access) pair as discovered by the sweep.
    pub dependency_edges: usize,
    /// Length of the longest dependency chain, in tasks.
    pub critical_path_tasks: u64,
    /// Length of the longest dependency chain, weighted by task cost.
    pub critical_path_cost: u64,
    /// Sum of all task costs.
    pub total_cost: u64,
    /// `tasks / critical_path_tasks`: average available parallelism.
    pub avg_parallelism: f64,
}

/// Incremental builder for [`TaskGraph`].
///
/// ```
/// use rio_stf::{TaskGraph, Access, DataId, AccessMode};
///
/// let mut b = TaskGraph::builder(2);
/// b.task(&[Access::write(DataId(0))], 100, "produce");
/// b.task(&[Access::read(DataId(0)), Access::write(DataId(1))], 100, "consume");
/// let g = b.build();
/// assert_eq!(g.len(), 2);
/// assert!(g.validate().is_ok());
/// ```
pub struct GraphBuilder {
    graph: TaskGraph,
}

impl GraphBuilder {
    /// Appends a task with the given accesses, cost hint and kind tag;
    /// returns its [`TaskId`].
    pub fn task(&mut self, accesses: &[Access], cost: u64, kind: &'static str) -> TaskId {
        let id = TaskId::from_index(self.graph.tasks.len());
        self.graph.tasks.push(TaskDesc {
            id,
            accesses: accesses.into(),
            cost,
            kind,
        });
        id
    }

    /// Registers one more data object and returns its id.
    pub fn new_data(&mut self) -> DataId {
        let id = DataId::from_index(self.graph.num_data);
        self.graph.num_data += 1;
        id
    }

    /// Number of tasks recorded so far.
    pub fn len(&self) -> usize {
        self.graph.tasks.len()
    }

    /// Is the flow still empty?
    pub fn is_empty(&self) -> bool {
        self.graph.tasks.is_empty()
    }

    /// Finalizes the graph.
    pub fn build(self) -> TaskGraph {
        debug_assert!(self.graph.validate().is_ok());
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u32) -> DataId {
        DataId(i)
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = TaskGraph::builder(1);
        let t1 = b.task(&[Access::write(d(0))], 1, "a");
        let t2 = b.task(&[Access::read(d(0))], 1, "b");
        assert_eq!(t1, TaskId(1));
        assert_eq!(t2, TaskId(2));
        let g = b.build();
        assert_eq!(g.task(t2).kind, "b");
        assert!(g.validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_data() {
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::read(d(5))], 1, "bad");
        let g = b.graph; // bypass build()'s debug assertion
        assert!(matches!(
            g.validate(),
            Err(GraphError::DataOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_duplicate_access() {
        let g = TaskGraph {
            tasks: vec![TaskDesc {
                id: TaskId(1),
                accesses: vec![Access::read(d(0)), Access::write(d(0))].into(),
                cost: 0,
                kind: "dup",
            }],
            num_data: 1,
        };
        assert!(matches!(
            g.validate(),
            Err(GraphError::DuplicateAccess { .. })
        ));
    }

    #[test]
    fn validate_rejects_non_dense_ids() {
        let g = TaskGraph {
            tasks: vec![TaskDesc {
                id: TaskId(7),
                accesses: vec![].into(),
                cost: 0,
                kind: "x",
            }],
            num_data: 0,
        };
        assert!(matches!(g.validate(), Err(GraphError::NonDenseIds { .. })));
    }

    #[test]
    fn stats_on_a_chain() {
        // T1 -W-> d0, T2 RW d0, T3 RW d0: a pure chain.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(d(0))], 10, "w");
        b.task(&[Access::read_write(d(0))], 10, "rw");
        b.task(&[Access::read_write(d(0))], 10, "rw");
        let s = b.build().stats();
        assert_eq!(s.critical_path_tasks, 3);
        assert_eq!(s.critical_path_cost, 30);
        assert_eq!(s.total_cost, 30);
        assert!((s.avg_parallelism - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_on_independent_tasks() {
        let mut b = TaskGraph::builder(0);
        for _ in 0..8 {
            b.task(&[], 1, "ind");
        }
        let s = b.build().stats();
        assert_eq!(s.critical_path_tasks, 1);
        assert_eq!(s.dependency_edges, 0);
        assert!((s.avg_parallelism - 8.0).abs() < 1e-12);
    }

    #[test]
    fn stats_fork_join() {
        // T1 writes d0; T2..T4 read d0 and write their own output;
        // T5 reads all outputs.
        let mut b = TaskGraph::builder(4);
        b.task(&[Access::write(d(0))], 1, "src");
        for i in 1..4 {
            b.task(&[Access::read(d(0)), Access::write(d(i))], 1, "mid");
        }
        b.task(
            &[Access::read(d(1)), Access::read(d(2)), Access::read(d(3))],
            1,
            "sink",
        );
        let s = b.build().stats();
        assert_eq!(s.critical_path_tasks, 3);
        assert_eq!(s.tasks, 5);
    }

    #[test]
    fn new_data_extends_space() {
        let mut b = TaskGraph::builder(0);
        let a = b.new_data();
        let c = b.new_data();
        assert_eq!(a, d(0));
        assert_eq!(c, d(1));
        b.task(&[Access::write(a), Access::read(c)], 1, "t");
        assert!(b.build().validate().is_ok());
    }

    #[test]
    fn graph_errors_render_helpful_messages() {
        let e = GraphError::NonDenseIds {
            position: 3,
            found: TaskId(9),
        };
        assert_eq!(e.to_string(), "task at position 3 has id T9, expected T4");
        let e = GraphError::DataOutOfRange {
            task: TaskId(2),
            data: d(7),
            num_data: 4,
        };
        assert!(e.to_string().contains("D7"));
        assert!(e.to_string().contains("4 data objects"));
        let e = GraphError::DuplicateAccess {
            task: TaskId(1),
            data: d(0),
        };
        assert!(e.to_string().contains("more than once"));
    }

    #[test]
    fn validate_limits_rejects_oversized_task_ids() {
        let mut b = TaskGraph::builder(1);
        for _ in 0..4 {
            b.task(&[Access::read(d(0))], 1, "t");
        }
        let g = b.build();
        // Ids T1..T4 against a ceiling of 2: T3 overflows first.
        match g.validate_limits(2) {
            Err(GraphError::TaskIdOverflow { task, max }) => {
                assert_eq!(task, TaskId(3));
                assert_eq!(max, 2);
            }
            other => panic!("expected TaskIdOverflow, got {other:?}"),
        }
        // The real limit accepts it, of course.
        assert!(g.validate_limits(u32::MAX as u64).is_ok());
        assert!(g.validate().is_ok());
    }

    /// Per task, in flow order: the most reads any object's epoch holds
    /// just before the task registers its accesses — the protocol's
    /// accounting, in which a write (or read-write) access opens a new
    /// epoch and a pure read adds one to the open epoch's count.
    fn epoch_reads_before_each_task(g: &TaskGraph) -> Vec<u64> {
        let mut reads_since = vec![0u64; g.num_data()];
        let before = |t: &TaskDesc| {
            let most = reads_since.iter().copied().max().unwrap_or(0);
            for a in &t.accesses {
                let r = &mut reads_since[a.data.index()];
                *r = if a.mode.writes() { 0 } else { *r + 1 };
            }
            most
        };
        g.tasks().iter().map(before).collect()
    }

    #[test]
    fn a_write_resets_the_epoch_read_count() {
        // 2 reads, write, 2 reads: the count restarts at the write.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::read(d(0))], 1, "r");
        b.task(&[Access::read(d(0))], 1, "r");
        b.task(&[Access::read_write(d(0))], 1, "w");
        b.task(&[Access::read(d(0))], 1, "r");
        b.task(&[Access::read(d(0))], 1, "r");
        let g = b.build();
        assert_eq!(epoch_reads_before_each_task(&g), [0, 1, 2, 0, 1]);
    }

    proptest::proptest! {
        /// Why `validate_limits` checks ids only: in a random dense flow,
        /// no epoch ever holds as many reads as the id of the task about
        /// to register its accesses — so none ever holds more than the
        /// flow's largest id, and an id overflow is always found first.
        #[test]
        fn epoch_read_counts_stay_below_the_next_task_id(
            tasks in proptest::collection::vec(
                proptest::collection::vec((0..4u32, 0..2u8), 0..4),
                1..80,
            ),
        ) {
            let mut b = TaskGraph::builder(4);
            for accesses in tasks {
                let mut accesses: Vec<Access> = accesses
                    .into_iter()
                    .map(|(data, mode)| match mode {
                        0 => Access::read(d(data)),
                        _ => Access::write(d(data)),
                    })
                    .collect();
                accesses.sort_by_key(|a| a.data);
                accesses.dedup_by_key(|a| a.data);
                b.task(&accesses, 1, "prop");
            }
            let g = b.build();
            proptest::prop_assert!(g.validate().is_ok());
            for (t, reads) in g.tasks().iter().zip(epoch_reads_before_each_task(&g)) {
                proptest::prop_assert!(reads < t.id.0, "{} reads before {}", reads, t.id);
            }
        }
    }

    #[test]
    fn overflow_errors_render_helpful_messages() {
        let e = GraphError::TaskIdOverflow {
            task: TaskId(5_000_000_000),
            max: u32::MAX as u64,
        };
        assert!(e.to_string().contains("maximum representable task id"));
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::write(d(0))], 1, "produce");
        b.task(&[Access::read(d(0))], 1, "consume");
        let dot = b.build().to_dot();
        assert!(dot.starts_with("digraph taskflow {"));
        assert!(dot.contains("t1 [label=\"1:produce\"];"));
        assert!(dot.contains("t1 -> t2;"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_export_of_empty_graph_is_valid() {
        let dot = TaskGraph::builder(0).build().to_dot();
        assert!(dot.contains("digraph"));
        assert!(!dot.contains("->"));
    }

    #[test]
    fn write_after_read_creates_edge() {
        // T1 reads d0, T2 writes d0: anti-dependency must appear in depth.
        let mut b = TaskGraph::builder(1);
        b.task(&[Access::read(d(0))], 1, "r");
        b.task(&[Access::write(d(0))], 1, "w");
        let s = b.build().stats();
        assert_eq!(s.critical_path_tasks, 2, "W-after-R must be ordered");
    }
}
