//! Extension workload: a 1-D Jacobi-style stencil sweep chain.
//!
//! `cells` cells, `sweeps` time steps, double buffering: at sweep `s`,
//! cell `c` reads `(c-1, c, c+1)` from buffer `s % 2` and writes cell `c`
//! of buffer `(s+1) % 2`. This is the classic wavefront pattern: a
//! *block* mapping keeps all but the block-boundary dependencies local to
//! each worker, making it a friendly case for the decentralized model —
//! and a clean way to exercise mixed read fan-in with cross-worker edges
//! only at block borders.

use rio_stf::{Access, DataId, TableMapping, TaskGraph, WorkerId};

/// The stencil DAG: `cells × sweeps` tasks over `2 × cells` data objects.
pub fn graph(cells: usize, sweeps: usize, cost: u64) -> TaskGraph {
    assert!(cells >= 1);
    let id = |buf: usize, c: usize| DataId::from_index(buf * cells + c);
    let mut b = TaskGraph::builder(2 * cells);
    let mut accesses = Vec::with_capacity(4);
    for s in 0..sweeps {
        let (src, dst) = (s % 2, (s + 1) % 2);
        for c in 0..cells {
            accesses.clear();
            accesses.push(Access::read(id(src, c)));
            if c > 0 {
                accesses.push(Access::read(id(src, c - 1)));
            }
            if c + 1 < cells {
                accesses.push(Access::read(id(src, c + 1)));
            }
            accesses.push(Access::write(id(dst, c)));
            b.task(&accesses, cost, "stencil");
        }
    }
    b.build()
}

/// Block mapping over cells: worker `w` owns a contiguous range of cells
/// across all sweeps (only block-boundary halos cross workers).
pub fn mapping(cells: usize, sweeps: usize, workers: usize) -> TableMapping {
    let mut table: Vec<WorkerId> = Vec::with_capacity(cells * sweeps);
    for _s in 0..sweeps {
        for c in 0..cells {
            let w = (c * workers) / cells;
            table.push(WorkerId::from_index(w.min(workers - 1)));
        }
    }
    TableMapping::new(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::deps::DepGraph;
    use rio_stf::TaskId;

    #[test]
    fn shape() {
        let g = graph(8, 3, 1);
        assert_eq!(g.len(), 24);
        assert_eq!(g.num_data(), 16);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn sweep_s_depends_on_sweep_s_minus_1_neighbors() {
        let g = graph(4, 2, 1);
        let dg = DepGraph::derive(&g);
        // Task of sweep 1, cell 1 is flow index 4 + 1 = 5 -> TaskId 6.
        // It reads buffer-1 cells 0,1,2 written by sweep-0 tasks 1,2,3
        // (TaskIds 1..=3)... sweep 0 writes buffer 1.
        let preds = dg.preds(TaskId(6));
        for c in [1u64, 2, 3] {
            assert!(preds.contains(&TaskId(c)), "missing dep on sweep-0 cell");
        }
    }

    #[test]
    fn critical_path_equals_sweeps() {
        let g = graph(10, 5, 1);
        assert_eq!(g.stats().critical_path_tasks, 5);
    }

    #[test]
    fn single_cell_chain() {
        let g = graph(1, 4, 1);
        assert_eq!(g.stats().critical_path_tasks, 4);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn block_mapping_is_contiguous_per_sweep() {
        let m = mapping(12, 2, 3);
        assert!(m.validate(3));
        let load = m.load(3);
        assert_eq!(load, vec![8, 8, 8]);
    }

    #[test]
    fn mapping_with_more_workers_than_cells() {
        let m = mapping(2, 1, 8);
        assert!(m.validate(8));
    }
}
