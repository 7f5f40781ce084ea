//! What the flight-bundle and containment suites share.

use rio_core::prelude::*;

/// Protocol-consistency check on one dumped bundle.
pub fn assert_flight_consistent(flight: &FlightLog, ctx: &str) {
    assert!(!flight.is_empty(), "{ctx}: flight bundle is empty");
    for w in &flight.workers {
        let mut open: Option<TaskId> = None;
        let mut last_seq: Option<u64> = None;
        for e in &w.events {
            if let Some(prev) = last_seq {
                assert!(
                    e.seq > prev,
                    "{ctx}: {} seq not increasing: {} after {prev}",
                    w.worker,
                    e.seq
                );
            }
            last_seq = Some(e.seq);
            match e.kind {
                FlightEventKind::TaskStart => {
                    // A start may follow an unmatched start (the previous
                    // body failed or was skipped-but-synced): no check on
                    // `open`, just track the newest.
                    open = Some(e.task);
                }
                FlightEventKind::TaskEnd => {
                    // The ring may have evicted the matching start, but
                    // only at the dump's truncated prefix — once a start
                    // is visible, an end must match it.
                    if let Some(t) = open {
                        assert_eq!(
                            t, e.task,
                            "{ctx}: {} end for {} while {} is open",
                            w.worker, e.task, t
                        );
                    }
                    open = None;
                }
                FlightEventKind::Retry => {
                    if let Some(t) = open {
                        assert_eq!(
                            t, e.task,
                            "{ctx}: {} retry of {} inside {}'s body",
                            w.worker, e.task, t
                        );
                    }
                }
                FlightEventKind::Park | FlightEventKind::Poison => {
                    assert!(
                        e.data.is_some(),
                        "{ctx}: {} {} event without a data object",
                        w.worker,
                        e.kind
                    );
                }
                FlightEventKind::Steal | FlightEventKind::Abort => {}
            }
        }
    }
}
