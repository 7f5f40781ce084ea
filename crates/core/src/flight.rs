//! The always-on flight recorder: a tiny fixed-size per-worker ring of
//! recent protocol events.
//!
//! Observability in this runtime is a ladder. The counters
//! ([`crate::counters`]) say *how much* happened; the trace
//! ([`rio_trace`]) says *where the time went*, at two clock reads
//! per span; this module sits between them and says *what just
//! happened* — the last N protocol events of every worker, cheap enough
//! to leave on in production. When a run stalls or degrades, the rings
//! are dumped into the [`rio_stf::StallDiagnostic`] /
//! [`rio_stf::PartialReport`] as a postmortem bundle
//! ([`rio_stf::FlightLog`]), so the report carries the history that led
//! to the failure instead of just its final state.
//!
//! ## Cost discipline
//!
//! A recorded event is **one relaxed load and three relaxed stores** on a
//! cache line owned by the recording worker — the same single-writer
//! discipline as the counters' `bump` (a locked RMW would blow the
//! armed-idle budget; `repro telemetry --assert-overhead` gates the
//! whole telemetry layer under `RIO_TELEMETRY_THRESHOLD`, default 2%).
//! Each ring is `#[repr(align(128))]`-padded, so recording never
//! contends with another worker's line.
//!
//! ## Consistency
//!
//! Within one ring the recording worker is the only writer, so a dump
//! taken *after the workers joined* (the degraded-run path) is exact and
//! in recording order. A dump taken *mid-run* (the stall path — the
//! stalled worker snapshots everyone) is advisory for foreign rings: a
//! slot being overwritten concurrently can pair the previous event's
//! payload with the new sequence number. Dumps detect this by requiring
//! each decoded slot's sequence number to match the position the head
//! implies, and drop torn slots instead of reporting fiction.

use std::sync::atomic::{AtomicU64, Ordering};

use rio_stf::{DataId, FlightEvent, FlightEventKind, FlightLog, TaskId, WorkerFlight, WorkerId};

use crate::config::RioConfig;

/// Slots per worker in a run's rings (`FlightRecorder::for_run`):
/// enough history to see a whole task cycle per worker without growing
/// the dump beyond what a terminal diagnostic can carry.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 32;

/// `data` half of a packed slot meaning "no data object involved".
const NO_DATA: u64 = u32::MAX as u64;

/// One recorded slot: two relaxed words.
///
/// * `word0` = `seq << 3 | kind` — the per-ring sequence number and the
///   event kind (7 kinds fit in 3 bits);
/// * `word1` = `task << 32 | data` — the task id (graph validation caps
///   task ids at `u32::MAX`, same bound the packed epoch word relies
///   on) and the data object (or [`NO_DATA`]).
#[derive(Debug, Default)]
struct Slot {
    word0: AtomicU64,
    word1: AtomicU64,
}

const fn kind_code(kind: FlightEventKind) -> u64 {
    match kind {
        FlightEventKind::TaskStart => 0,
        FlightEventKind::TaskEnd => 1,
        FlightEventKind::Park => 2,
        FlightEventKind::Poison => 3,
        FlightEventKind::Abort => 4,
        FlightEventKind::Retry => 5,
    }
}

fn kind_of(code: u64) -> Option<FlightEventKind> {
    Some(match code {
        0 => FlightEventKind::TaskStart,
        1 => FlightEventKind::TaskEnd,
        2 => FlightEventKind::Park,
        3 => FlightEventKind::Poison,
        4 => FlightEventKind::Abort,
        5 => FlightEventKind::Retry,
        _ => return None,
    })
}

/// One worker's ring: the head (next sequence number) plus a
/// power-of-two slot array, padded so the recording worker owns the
/// line.
#[repr(align(128))]
#[derive(Debug)]
pub struct FlightRing {
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl FlightRing {
    fn new(capacity: usize) -> FlightRing {
        let cap = capacity.max(1).next_power_of_two();
        FlightRing {
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::default()).collect(),
        }
    }

    /// Records one event. Single-writer hot path: one relaxed load and
    /// three stores, no RMW, same discipline as the counters' `bump`.
    /// The payload store is `Release` — a plain `mov` on x86 — so a
    /// concurrent dump that observes a new payload is guaranteed to also
    /// observe the new sequence word on its verify re-read (below) and
    /// drop the slot as torn instead of mispairing generations.
    #[inline]
    pub fn record(&self, kind: FlightEventKind, task: TaskId, data: Option<DataId>) {
        let seq = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
        let data = data.map_or(NO_DATA, |d| d.0 as u64);
        slot.word0
            .store((seq << 3) | kind_code(kind), Ordering::Relaxed);
        slot.word1
            .store(((task.0 & 0xFFFF_FFFF) << 32) | data, Ordering::Release);
        self.head.store(seq + 1, Ordering::Release);
    }

    /// Decodes this ring's surviving history, oldest first. Foreign
    /// mid-run reads may race the writer; a slot is accepted only when
    /// its sequence word matches the position the head implies both
    /// before *and* after the payload read (seqlock-style), so an
    /// in-flight overwrite is dropped, never decoded as a mispaired
    /// event.
    fn dump(&self, worker: WorkerId) -> WorkerFlight {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let first = head.saturating_sub(cap);
        let mut events = Vec::with_capacity((head - first) as usize);
        for seq in first..head {
            let slot = &self.slots[(seq as usize) & (self.slots.len() - 1)];
            let word0 = slot.word0.load(Ordering::Relaxed);
            let word1 = slot.word1.load(Ordering::Acquire);
            if word0 >> 3 != seq || slot.word0.load(Ordering::Relaxed) != word0 {
                continue; // torn: an overwrite raced this read
            }
            let Some(kind) = kind_of(word0 & 0b111) else {
                continue;
            };
            let data = word1 & 0xFFFF_FFFF;
            events.push(FlightEvent {
                seq,
                kind,
                task: TaskId(word1 >> 32),
                data: (data != NO_DATA).then_some(DataId(data as u32)),
            });
        }
        WorkerFlight { worker, events }
    }
}

/// The flight recorder of one run: one padded [`FlightRing`] per worker.
#[derive(Debug)]
pub struct FlightRecorder {
    rings: Box<[FlightRing]>,
}

impl FlightRecorder {
    /// A recorder for `workers` workers with `capacity` slots per ring
    /// (rounded up to a power of two).
    pub fn new(workers: usize, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            rings: (0..workers).map(|_| FlightRing::new(capacity)).collect(),
        }
    }

    /// The recorder a run should use: a fresh allocation when
    /// [`RioConfig::flight`] is on (the default), `None` when disabled.
    pub(crate) fn for_run(cfg: &RioConfig) -> Option<FlightRecorder> {
        cfg.flight
            .then(|| FlightRecorder::new(cfg.workers, DEFAULT_FLIGHT_CAPACITY))
    }

    /// Worker `w`'s ring.
    ///
    /// # Panics
    /// If `w` is out of range.
    pub fn ring(&self, w: usize) -> &FlightRing {
        &self.rings[w]
    }

    /// Dumps every ring into a postmortem bundle, oldest events first.
    /// Exact after the workers joined; advisory (torn slots dropped)
    /// when taken mid-run by a stalling worker.
    pub fn dump(&self) -> FlightLog {
        FlightLog {
            workers: self
                .rings
                .iter()
                .enumerate()
                .map(|(w, ring)| ring.dump(WorkerId::from_index(w)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_dumps_in_order() {
        let rec = FlightRecorder::new(2, 8);
        rec.ring(0)
            .record(FlightEventKind::TaskStart, TaskId(1), None);
        rec.ring(0)
            .record(FlightEventKind::TaskEnd, TaskId(1), None);
        rec.ring(1)
            .record(FlightEventKind::Park, TaskId(2), Some(DataId(7)));
        let log = rec.dump();
        assert_eq!(log.workers.len(), 2);
        let w0 = &log.workers[0];
        assert_eq!(w0.worker, WorkerId(0));
        assert_eq!(w0.events.len(), 2);
        assert_eq!(w0.events[0].kind, FlightEventKind::TaskStart);
        assert_eq!(w0.events[0].seq, 0);
        assert_eq!(w0.events[1].kind, FlightEventKind::TaskEnd);
        assert_eq!(w0.events[1].seq, 1);
        let w1 = &log.workers[1];
        assert_eq!(w1.events[0].task, TaskId(2));
        assert_eq!(w1.events[0].data, Some(DataId(7)));
        assert!(!log.is_empty());
    }

    #[test]
    fn the_ring_keeps_only_the_last_capacity_events() {
        let rec = FlightRecorder::new(1, 4);
        for i in 0..10u64 {
            rec.ring(0)
                .record(FlightEventKind::TaskStart, TaskId(i + 1), None);
        }
        let dump = rec.dump();
        let events = &dump.workers[0].events;
        assert_eq!(events.len(), 4, "only the last 4 survive");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first, contiguous");
        assert_eq!(events[0].task, TaskId(7));
        assert_eq!(events[3].task, TaskId(10));
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let rec = FlightRecorder::new(1, 5);
        assert_eq!(rec.ring(0).slots.len(), 8);
        let rec = FlightRecorder::new(1, 0);
        assert_eq!(
            rec.ring(0).slots.len(),
            1,
            "zero still records the last event"
        );
    }

    #[test]
    fn every_kind_round_trips_the_packing() {
        let kinds = [
            FlightEventKind::TaskStart,
            FlightEventKind::TaskEnd,
            FlightEventKind::Park,
            FlightEventKind::Poison,
            FlightEventKind::Abort,
            FlightEventKind::Retry,
        ];
        let rec = FlightRecorder::new(1, kinds.len());
        for (i, k) in kinds.iter().enumerate() {
            rec.ring(0)
                .record(*k, TaskId(i as u64 + 1), Some(DataId(i as u32)));
        }
        let events = rec.dump().workers.remove(0).events;
        assert_eq!(events.len(), kinds.len());
        for (i, (e, k)) in events.iter().zip(kinds).enumerate() {
            assert_eq!(e.kind, k);
            assert_eq!(e.task, TaskId(i as u64 + 1));
            assert_eq!(e.data, Some(DataId(i as u32)));
        }
    }

    #[test]
    fn config_gates_the_recorder() {
        let on = RioConfig::with_workers(3);
        let rec = FlightRecorder::for_run(&on).expect("flight recorder defaults on");
        assert_eq!(rec.rings.len(), 3);
        assert_eq!(rec.ring(0).slots.len(), DEFAULT_FLIGHT_CAPACITY);
        let off = RioConfig::with_workers(3).flight(false);
        assert!(FlightRecorder::for_run(&off).is_none());
    }

    #[test]
    fn rings_are_padded_to_cache_lines() {
        assert!(std::mem::align_of::<FlightRing>() >= 128);
    }

    #[test]
    fn concurrent_record_and_dump_do_not_invent_events() {
        // A mid-run dump may drop torn slots but must never fabricate:
        // every surviving event must be one the writer actually wrote.
        let rec = std::sync::Arc::new(FlightRecorder::new(1, 8));
        let writer = {
            let rec = std::sync::Arc::clone(&rec);
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    rec.ring(0)
                        .record(FlightEventKind::TaskStart, TaskId(i + 1), None);
                }
            })
        };
        for _ in 0..100 {
            let dump = rec.dump();
            for e in &dump.workers[0].events {
                assert_eq!(e.kind, FlightEventKind::TaskStart);
                assert_eq!(e.task.0, e.seq + 1, "payload matches its slot");
            }
            let seqs: Vec<u64> = dump.workers[0].events.iter().map(|e| e.seq).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "dump stays ordered");
        }
        writer.join().unwrap();
    }
}
