//! The correctness oracle: a task body whose result depends on everything a
//! correct schedule fixes, run sequentially for the reference store and once
//! per execution mode for comparison.
//!
//! Each task hashes its id with the values it reads, then *chains* that hash
//! into every object it writes: `new = mix(hash, old)`. A final value
//! therefore encodes the whole sequence of writers of its object and what
//! each of them read, so an equal final store means equal per-datum writer
//! order and equal values — on a plain `DataStore<u64>`.

use rio_stf::sequential::run_graph;
use rio_stf::{DataId, DataStore, TaskDesc, TaskGraph};

/// Combines two words through SplitMix64's finaliser: cheap, order-sensitive,
/// and any changed input bit changes about half the output bits.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .rotate_left(25)
        .wrapping_add(b)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fresh store for `graph`: object `i` starts at `mix(i, 0)`.
pub fn fresh_store(graph: &TaskGraph) -> DataStore<u64> {
    DataStore::new_with(graph.num_data(), |i| mix(i as u64, 0))
}

/// The verifying task body. `DataStore`'s dynamic borrow checks make a
/// runtime that lets conflicting tasks overlap panic instead of racing.
pub fn verify_task(store: &DataStore<u64>, task: &TaskDesc) {
    let mut hash = mix(task.id.0, task.accesses.len() as u64);
    for a in task.accesses.iter().filter(|a| a.mode.reads()) {
        hash = mix(hash, *store.read(a.data));
    }
    for a in task.accesses.iter().filter(|a| a.mode.writes()) {
        let mut slot = store.write(a.data);
        *slot = mix(hash, *slot);
    }
}

/// The reference store: `graph` executed in flow order.
pub fn sequential(graph: &TaskGraph) -> Vec<u64> {
    let store = fresh_store(graph);
    run_graph(graph, |id| verify_task(&store, graph.task(id)));
    store.into_vec()
}

/// The first object on which `actual` differs from the reference, if any.
pub fn first_mismatch(reference: &[u64], actual: &[u64]) -> Option<DataId> {
    if reference.len() != actual.len() {
        return Some(DataId::from_index(reference.len().min(actual.len())));
    }
    reference
        .iter()
        .zip(actual)
        .position(|(a, b)| a != b)
        .map(DataId::from_index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::Access;

    fn two_writers(first: u32, second: u32) -> TaskGraph {
        // Two tasks writing object 0; which object each *reads* differs, so
        // the task ids are the same in both graphs but the order of the
        // bodies' effects is swapped.
        let mut b = TaskGraph::builder(3);
        b.task(
            &[Access::read(DataId(first)), Access::write(DataId(0))],
            1,
            "w",
        );
        b.task(
            &[Access::read(DataId(second)), Access::write(DataId(0))],
            1,
            "w",
        );
        b.build()
    }

    #[test]
    fn the_final_store_encodes_writer_order_and_values_read() {
        let a = sequential(&two_writers(1, 2));
        let b = sequential(&two_writers(2, 1));
        assert_eq!(first_mismatch(&a, &a), None);
        assert_eq!(first_mismatch(&a, &b), Some(DataId(0)));
    }

    #[test]
    fn swapping_two_writers_changes_the_store() {
        let g = two_writers(1, 2);
        let store = fresh_store(&g);
        // Reverse flow order: the wrong writer order.
        for t in g.tasks().iter().rev() {
            verify_task(&store, t);
        }
        assert!(first_mismatch(&sequential(&g), &store.into_vec()).is_some());
    }

    #[test]
    fn length_mismatch_is_a_mismatch() {
        assert_eq!(first_mismatch(&[1, 2], &[1]), Some(DataId(1)));
    }
}
