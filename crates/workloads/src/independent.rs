//! Experiment 1: independent tasks (no dependencies).
//!
//! Used by Fig. 6 (per-task overhead vs. task size), Fig. 7 (scaling the
//! number of workers with 2¹⁵ tasks *per worker*) and Fig. 8 row 1. With
//! no synchronization at all, the measured overhead is the pure cost of
//! unrolling and managing the flow — the best case for RIO's runtime
//! efficiency and the clearest view of the centralized master bottleneck.

use rio_stf::{Access, DataId, RoundRobin, TaskGraph};

/// `n` tasks with no data accesses at all. The purest form: per-task
/// management on a non-mapped worker is just the mapping evaluation.
pub fn graph(n: usize) -> TaskGraph {
    let mut b = TaskGraph::builder(0);
    for _ in 0..n {
        b.task(&[], 1, "ind");
    }
    b.build()
}

/// `n` tasks, each writing its own private data object. Still conflict-free
/// (tasks share nothing), but every task exercises the full protocol:
/// declare on non-owners, get/terminate on the owner. This variant is also
/// the one compilation collapses completely: each worker's program is
/// exactly its own tasks, none of which keeps a guard or a publication.
pub fn graph_private_data(n: usize) -> TaskGraph {
    graph_private_data_cost(n, 1)
}

/// [`graph_private_data`] with an explicit per-task body size, for
/// experiments that compare protocol overhead against a realistic kernel
/// granularity instead of an empty body.
pub fn graph_private_data_cost(n: usize, cost: u64) -> TaskGraph {
    let mut b = TaskGraph::builder(n);
    for i in 0..n {
        b.task(&[Access::write(DataId::from_index(i))], cost, "ind");
    }
    b.build()
}

/// The natural mapping for independent homogeneous tasks.
pub fn mapping() -> RoundRobin {
    RoundRobin
}

/// Fig. 7's sizing rule: `tasks_per_worker × workers` total tasks.
pub fn tasks_for_workers(tasks_per_worker: usize, workers: usize) -> usize {
    tasks_per_worker * workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::deps::DepGraph;

    #[test]
    fn no_dependencies_at_all() {
        let g = graph(100);
        assert_eq!(g.len(), 100);
        assert_eq!(DepGraph::derive(&g).num_edges(), 0);
        assert_eq!(g.stats().critical_path_tasks, 1);
    }

    #[test]
    fn private_data_variant_is_still_independent() {
        let g = graph_private_data(64);
        assert_eq!(g.num_data(), 64);
        assert_eq!(DepGraph::derive(&g).num_edges(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn fig7_sizing() {
        assert_eq!(tasks_for_workers(1 << 15, 4), 4 << 15);
    }
}
