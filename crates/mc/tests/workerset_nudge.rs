//! The worker set's nudge (`rio_core`'s `WorkerSet::nudge`) in the model of
//! its launch and join: a nudge ahead of the first launch wakes the idle
//! workers without a launch, and everything the clean model guarantees
//! still holds.

use rio_mc::workerset_spec::{explore_workerset, Mutant, WorkerSetSpec};

#[test]
fn a_nudge_ahead_of_the_launches_is_clean() {
    for (workers, launches) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
        let spec = WorkerSetSpec {
            workers,
            launches,
            nudge: true,
            mutant: Mutant::None,
        };
        let r = explore_workerset(&spec);
        assert!(r.ok(), "{workers} workers, {launches} launches: {r:?}");
    }
}
