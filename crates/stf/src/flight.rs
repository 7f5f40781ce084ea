//! Flight-recorder event types — the postmortem vocabulary shared by the
//! runtimes and their diagnostics.
//!
//! A *flight recorder* is a tiny fixed-size per-worker ring of recent
//! protocol events, always on, far cheaper than full tracing: when a run
//! stalls or degrades, the last N events per worker are dumped into the
//! diagnostic ([`crate::StallDiagnostic::flight`],
//! [`crate::PartialReport::flight`]) so the report ships the history that
//! led to the failure, not just its final state.
//!
//! This module defines only the *data* — what an event is and what a dump
//! looks like. The recording machinery (the per-worker rings, the
//! single-writer store discipline that keeps it off the hot path) lives
//! with the runtime that owns the workers (`rio_core::flight`); the types
//! live here so `StallDiagnostic` and `PartialReport`, which belong to
//! the substrate's failure model, can carry a dump without depending on
//! any runtime.

use std::fmt;

use crate::ids::{DataId, TaskId, WorkerId};

/// What happened, in one protocol-level word.
///
/// The set deliberately mirrors the decentralized protocol's observable
/// transitions (task lifecycle, parking, poisoning, aborts) rather than the full trace vocabulary: a flight recorder
/// answers "what was this worker doing just before the failure", not
/// "where did the time go".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlightEventKind {
    /// A task body is about to run on this worker (its `get_*` guards
    /// are satisfied).
    TaskStart,
    /// The task body returned and its completions are being published.
    TaskEnd,
    /// A blocking `get_*` gave up spinning and parked on the recorded
    /// data object.
    Park,
    /// The recorded data object was poisoned (its producer failed or was
    /// skipped).
    Poison,
    /// This worker raised a run abort (stall deadline, contained panic).
    Abort,
    /// A retrying recovery policy re-attempted the task body.
    Retry,
}

impl FlightEventKind {
    /// Short machine-friendly tag (`start`, `end`, `park`, `poison`,
    /// `abort`, `retry`).
    pub fn tag(&self) -> &'static str {
        match self {
            FlightEventKind::TaskStart => "start",
            FlightEventKind::TaskEnd => "end",
            FlightEventKind::Park => "park",
            FlightEventKind::Poison => "poison",
            FlightEventKind::Abort => "abort",
            FlightEventKind::Retry => "retry",
        }
    }
}

impl fmt::Display for FlightEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One recorded protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Per-worker sequence number: strictly increasing in recording
    /// order, so a dump exposes how many events the ring has dropped
    /// (`seq` jumps) and lets two workers' histories be interleaved
    /// *per worker* (sequence numbers are **not** comparable across
    /// workers — there is no global clock in the runtime, by design).
    pub seq: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// The task involved.
    pub task: TaskId,
    /// The data object involved, when the event is about one
    /// ([`Park`](FlightEventKind::Park) and
    /// [`Poison`](FlightEventKind::Poison)).
    pub data: Option<DataId>,
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {} {}", self.seq, self.kind, self.task)?;
        if let Some(d) = self.data {
            write!(f, " {d}")?;
        }
        Ok(())
    }
}

/// One worker's recent history, oldest event first.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerFlight {
    /// The worker whose ring this is.
    pub worker: WorkerId,
    /// The last N events, oldest first. At most the ring capacity; fewer
    /// when the worker recorded fewer.
    pub events: Vec<FlightEvent>,
}

impl fmt::Display for WorkerFlight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:", self.worker)?;
        for e in &self.events {
            write!(f, " [{e}]")?;
        }
        Ok(())
    }
}

/// A complete flight-recorder dump: every worker's recent history.
///
/// An empty log (the [`Default`]) means the recorder was disabled or the
/// run never started a worker — diagnostics carry it by value so a
/// report is self-contained either way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightLog {
    /// Per-worker histories, in worker order.
    pub workers: Vec<WorkerFlight>,
}

impl FlightLog {
    /// `true` when no worker recorded any event.
    pub fn is_empty(&self) -> bool {
        self.workers.iter().all(|w| w.events.is_empty())
    }

    /// Total recorded events across all workers.
    pub fn len(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// This worker's history, if the dump has one.
    pub fn worker(&self, worker: WorkerId) -> Option<&WorkerFlight> {
        self.workers.iter().find(|w| w.worker == worker)
    }
}

impl fmt::Display for FlightLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flight recorder ({} events)", self.len())?;
        for w in &self.workers {
            if !w.events.is_empty() {
                write!(f, "\n  {w}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: FlightEventKind, task: u32, data: Option<u32>) -> FlightEvent {
        FlightEvent {
            seq,
            kind,
            task: TaskId(task.into()),
            data: data.map(DataId),
        }
    }

    #[test]
    fn an_empty_log_is_empty_whatever_its_shape() {
        assert!(FlightLog::default().is_empty());
        let hollow = FlightLog {
            workers: vec![WorkerFlight {
                worker: WorkerId(0),
                events: Vec::new(),
            }],
        };
        assert!(
            hollow.is_empty(),
            "workers without events still count as empty"
        );
        assert_eq!(hollow.len(), 0);
    }

    #[test]
    fn display_renders_per_worker_histories() {
        let log = FlightLog {
            workers: vec![
                WorkerFlight {
                    worker: WorkerId(0),
                    events: vec![
                        ev(7, FlightEventKind::TaskStart, 3, None),
                        ev(8, FlightEventKind::Park, 5, Some(2)),
                    ],
                },
                WorkerFlight {
                    worker: WorkerId(1),
                    events: Vec::new(),
                },
            ],
        };
        assert!(!log.is_empty());
        assert_eq!(log.len(), 2);
        let text = log.to_string();
        assert!(text.contains("2 events"), "{text}");
        assert!(text.contains("W0:"), "{text}");
        assert!(text.contains("#7 start T3"), "{text}");
        assert!(text.contains("#8 park T5 D2"), "{text}");
        assert!(!text.contains("W1:"), "empty workers are elided: {text}");
    }

    #[test]
    fn worker_lookup_finds_the_right_ring() {
        let log = FlightLog {
            workers: vec![WorkerFlight {
                worker: WorkerId(3),
                events: vec![ev(0, FlightEventKind::Retry, 9, None)],
            }],
        };
        assert_eq!(log.worker(WorkerId(3)).unwrap().events.len(), 1);
        assert!(log.worker(WorkerId(0)).is_none());
    }

    #[test]
    fn every_kind_has_a_distinct_tag() {
        let kinds = [
            FlightEventKind::TaskStart,
            FlightEventKind::TaskEnd,
            FlightEventKind::Park,
            FlightEventKind::Poison,
            FlightEventKind::Abort,
            FlightEventKind::Retry,
        ];
        let tags: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.tag()).collect();
        assert_eq!(tags.len(), kinds.len());
    }
}
