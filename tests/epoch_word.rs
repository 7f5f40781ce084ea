//! Property tests of the packed epoch word — the single `u64` that
//! replaced the `(nb_reads_since_write, last_executed_write)` atomic pair
//! in `SharedDataState`.
//!
//! Pinned here:
//! * `pack_epoch`/`unpack_epoch` round-trip over the full representable
//!   range (both halves are 32-bit);
//! * the masked single-word guards decide exactly like the two-field
//!   comparisons of Algorithm 2 they replaced, for arbitrary
//!   shared/private view pairs;
//! * graph-build validation rejects exactly the flows whose task ids
//!   would not fit a half-word — which also keeps every per-epoch read
//!   count in its half (`TaskGraph::validate_limits`).

use proptest::prelude::*;
use rio::core::protocol::{
    expected_read_word, expected_write_word, pack_epoch, unpack_epoch, LocalDataState,
    READ_EPOCH_MASK, WRITE_EPOCH_MASK,
};
use rio::stf::TaskId;

proptest! {
    #[test]
    fn pack_unpack_round_trips(write in 0u64..=u64::from(u32::MAX), reads in 0u64..=u64::from(u32::MAX)) {
        let word = pack_epoch(TaskId(write), reads);
        let (r, w) = unpack_epoch(word);
        prop_assert_eq!(r, reads);
        prop_assert_eq!(w, TaskId(write));
    }

    #[test]
    fn packing_is_injective(
        w1 in 0u64..=u64::from(u32::MAX),
        r1 in 0u64..=u64::from(u32::MAX),
        w2 in 0u64..=u64::from(u32::MAX),
        r2 in 0u64..=u64::from(u32::MAX),
    ) {
        let same_word = pack_epoch(TaskId(w1), r1) == pack_epoch(TaskId(w2), r2);
        prop_assert_eq!(same_word, w1 == w2 && r1 == r2);
    }

    /// The write guard compares the full word; it must hold exactly when
    /// both fields match the private view. The read guard compares only
    /// the write half; it must ignore the read count entirely.
    #[test]
    fn masked_guards_match_the_two_field_conditions(
        shared_write in 0u64..=u64::from(u32::MAX),
        shared_reads in 0u64..=u64::from(u32::MAX),
        local_write in 0u64..=u64::from(u32::MAX),
        local_reads in 0u64..=u64::from(u32::MAX),
    ) {
        let local = LocalDataState {
            nb_reads_since_write: local_reads,
            last_registered_write: TaskId(local_write),
        };
        let shared = pack_epoch(TaskId(shared_write), shared_reads);
        let write_ready = shared & WRITE_EPOCH_MASK == expected_write_word(&local);
        let read_ready = shared & READ_EPOCH_MASK == expected_read_word(&local);
        prop_assert_eq!(
            write_ready,
            shared_write == local_write && shared_reads == local_reads
        );
        prop_assert_eq!(read_ready, shared_write == local_write);
    }
}

/// A read terminate is a word-level `+1`: because the read count lives in
/// the low half and never exceeds the flow's largest id, which graph
/// validation bounds by `u32::MAX`, the increment can never carry into
/// the write half.
#[test]
fn read_increment_never_carries_into_the_write_half() {
    let word = pack_epoch(TaskId(7), u64::from(u32::MAX) - 1);
    let bumped = word + 1;
    let (reads, write) = unpack_epoch(bumped);
    assert_eq!(write, TaskId(7));
    assert_eq!(reads, u64::from(u32::MAX));
}

#[test]
fn oversized_flows_are_rejected_at_graph_build() {
    use rio::stf::{Access, DataId, GraphError, TaskGraph};

    // A tiny parameterized limit stands in for the real u32 bound, which
    // would need >4 billion tasks to trip. Four reads in one epoch: the
    // id that overflows a limit of 3 is that of the read the epoch's
    // count would overflow it with.
    let mut b = TaskGraph::builder(1);
    for _ in 0..4 {
        b.task(&[Access::read(DataId(0))], 1, "r");
    }
    let g = b.build();
    assert!(matches!(
        g.validate_limits(3),
        Err(GraphError::TaskIdOverflow { task, max: 3 }) if task == TaskId(4)
    ));
    // The real bound accepts it.
    assert!(g.validate_limits(u64::from(u32::MAX)).is_ok());
}
