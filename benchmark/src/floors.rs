//! Floors: what one call into each layer costs when nothing contends.
//!
//! Every floor is a loop of at least 10^6 calls into a public function,
//! timed from outside, in batches whose median is reported. The loops are
//! single-threaded except the two hand-off floors, which need a partner.

use std::hint::black_box;
use std::time::Instant;

use rio_core::protocol::{
    apply_sync, declare_read, declare_write, get_read_word_cx, get_write_word_cx, pack_epoch,
    publish_write, terminate_read, terminate_write, AbortFlag, LocalDataState, SharedDataState,
    SyncDelta, WaitCx, WaitVerdict,
};
use rio_core::steal::ClaimTable;
use rio_core::{CounterRegistry, FlightRecorder, WaitStrategy};
use rio_stf::{FlightEventKind, TaskId};

use crate::stats::median;

/// Calls per batch.
const CALLS: u64 = 1 << 18;
/// Batches per floor: 5 x 2^18 > 10^6 calls.
const BATCHES: usize = 5;
/// Objects a loop cycles over: enough that successive calls touch different
/// lines, few enough to stay in the first-level cache.
const OBJECTS: usize = 64;
/// Round trips per batch of a hand-off floor.
const PARK_ROUND_TRIPS: u64 = 20_000;
const SPIN_ROUND_TRIPS: u64 = 200_000;

/// One measured floor.
pub struct Floor {
    pub name: &'static str,
    pub ns_per_op: f64,
    /// Calls behind the number, over all batches.
    pub calls: u64,
}

/// Median over [`BATCHES`] of `batch()`'s nanoseconds per call.
fn floor(name: &'static str, calls_per_batch: u64, mut batch: impl FnMut() -> f64) -> Floor {
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    Floor {
        name,
        ns_per_op: median(&samples),
        calls: calls_per_batch * BATCHES as u64,
    }
}

/// Times `CALLS` invocations of `op(i)`.
fn time_calls(mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..CALLS {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / CALLS as f64
}

fn declare() -> f64 {
    let mut locals = [LocalDataState::default(); OBJECTS];
    let ns = time_calls(|i| {
        let l = black_box(&mut locals[i as usize % OBJECTS]);
        // The mix of a read-mostly flow: one declared write in four.
        if i % 4 == 0 {
            declare_write(l, TaskId(i + 1));
        } else {
            declare_read(l);
        }
    });
    black_box(&locals);
    ns
}

fn sync_apply() -> f64 {
    let mut locals = [LocalDataState::default(); OBJECTS];
    let ns = time_calls(|i| {
        let mut delta = SyncDelta::EMPTY;
        if i % 4 == 0 {
            delta.fold_write(TaskId(i + 1));
        }
        delta.fold_read();
        apply_sync(
            black_box(&mut locals[i as usize % OBJECTS]),
            black_box(delta),
        );
    });
    black_box(&locals);
    ns
}

fn get_ready() -> f64 {
    let shared = SharedDataState::new_table(OBJECTS);
    let abort = AbortFlag::new();
    let cx = WaitCx::new(WaitStrategy::Park, &abort);
    let expected = pack_epoch(TaskId::NONE, 0);
    let mut not_ready = 0u64;
    let ns = time_calls(|i| {
        let s = &shared[i as usize % OBJECTS];
        let r = if i % 2 == 0 {
            get_read_word_cx(s, black_box(expected), &cx)
        } else {
            get_write_word_cx(s, black_box(expected), &cx)
        };
        not_ready += u64::from(r.verdict != WaitVerdict::Ready || r.outcome.waited());
    });
    assert_eq!(not_ready, 0, "a satisfied guard waited");
    ns
}

fn terminate_write_elided() -> f64 {
    let shared = SharedDataState::new_table(OBJECTS);
    let mut locals = [LocalDataState::default(); OBJECTS];
    let mut elided = 0u64;
    let ns = time_calls(|i| {
        let d = i as usize % OBJECTS;
        elided += u64::from(terminate_write(
            &shared[d],
            &mut locals[d],
            TaskId(i + 1),
            WaitStrategy::Park,
        ));
    });
    assert_eq!(elided, CALLS, "no waiter exists, so every wake is elided");
    ns
}

fn terminate_read_elided() -> f64 {
    let shared = SharedDataState::new_table(OBJECTS);
    let mut locals = [LocalDataState::default(); OBJECTS];
    let mut elided = 0u64;
    let ns = time_calls(|i| {
        let d = i as usize % OBJECTS;
        elided += u64::from(terminate_read(
            &shared[d],
            &mut locals[d],
            WaitStrategy::Park,
        ));
    });
    assert_eq!(elided, CALLS, "no waiter exists, so every wake is elided");
    ns
}

/// Two threads hand one epoch word back and forth: each waits for the
/// other's write id, then publishes its own. Returns half a round trip.
/// `spin_limit` 0 under `Park` sends every wait that is not already
/// satisfied through the parking table and every publish through the wake.
fn handoff(strategy: WaitStrategy, spin_limit: u32, round_trips: u64) -> f64 {
    let shared = SharedDataState::new_table(1);
    let word = &shared[0];
    let abort = AbortFlag::new();
    let cx = WaitCx {
        spin_limit,
        ..WaitCx::new(strategy, &abort)
    };
    let wait_for = |id: u64| {
        let r = get_read_word_cx(word, pack_epoch(TaskId(id), 0), &cx);
        assert_eq!(r.verdict, WaitVerdict::Ready);
    };
    std::thread::scope(|s| {
        let partner = s.spawn(|| {
            for k in 0..round_trips {
                wait_for(2 * k + 1);
                publish_write(word, TaskId(2 * k + 2), strategy);
            }
        });
        let start = Instant::now();
        for k in 0..round_trips {
            publish_write(word, TaskId(2 * k + 1), strategy);
            wait_for(2 * k + 2);
        }
        let ns = start.elapsed().as_nanos() as f64;
        partner.join().expect("the hand-off partner panicked");
        ns / (2 * round_trips) as f64
    })
}

fn counters_bump() -> f64 {
    let registry = CounterRegistry::new(1);
    let ctr = registry.worker(0);
    let ns = time_calls(|_| ctr.inc_tasks());
    assert!(registry.snapshot().total().tasks >= CALLS);
    ns
}

fn flight_record() -> f64 {
    let recorder = FlightRecorder::new(1, rio_core::flight::DEFAULT_FLIGHT_CAPACITY);
    let ring = recorder.ring(0);
    let ns = time_calls(|i| ring.record(FlightEventKind::TaskStart, TaskId(i + 1), None));
    black_box(recorder.dump());
    ns
}

fn steal_claim() -> f64 {
    // One claim per slot per epoch, as an owner arming its own tasks does.
    const SLOTS: u64 = 1 << 14;
    let table = ClaimTable::new(SLOTS as usize);
    let mut epoch = table.begin_run();
    let mut won = 0u64;
    let ns = time_calls(|i| {
        let slot = i % SLOTS;
        if slot == 0 && i != 0 {
            epoch = table.begin_run();
        }
        won += u64::from(table.try_claim(slot as usize, epoch, 0));
    });
    assert_eq!(won, CALLS, "an unclaimed slot was refused");
    ns
}

/// Every workload-independent floor. Takes a few seconds, and two threads
/// for the hand-off floors — the fewest workers a run ever uses.
pub fn measure() -> Vec<Floor> {
    vec![
        floor("protocol.declare_ns", CALLS, declare),
        floor("protocol.sync_apply_ns", CALLS, sync_apply),
        floor("protocol.get_ready_ns", CALLS, get_ready),
        floor(
            "protocol.terminate_write_elided_ns",
            CALLS,
            terminate_write_elided,
        ),
        floor(
            "protocol.terminate_read_elided_ns",
            CALLS,
            terminate_read_elided,
        ),
        floor("park.wake_handoff_ns", 2 * PARK_ROUND_TRIPS, || {
            handoff(WaitStrategy::Park, 0, PARK_ROUND_TRIPS)
        }),
        floor("wait.spin_handoff_ns", 2 * SPIN_ROUND_TRIPS, || {
            handoff(
                WaitStrategy::Spin,
                WaitStrategy::DEFAULT_SPIN_LIMIT,
                SPIN_ROUND_TRIPS,
            )
        }),
        floor("counters.bump_ns", CALLS, counters_bump),
        floor("flight.record_ns", CALLS, flight_record),
        floor("steal.claim_ns", CALLS, steal_claim),
    ]
}
