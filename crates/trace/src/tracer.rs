//! Per-worker recording: [`TraceConfig`], [`WorkerTracer`], [`WorkerTrace`].

use std::time::Instant;

use rio_stf::{DataId, TaskId};

use crate::event::TraceEvent;
use crate::histogram::Histogram;
use crate::ring::EventRing;

/// Default per-worker event capacity (~2.5 MiB of events per worker).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// How much to trace. Handed to the runtime via `RioConfig::trace` / the
/// `Executor::trace` builder; its presence *is* the runtime enable flag.
/// The run hands back a [`crate::Trace`]; exporting it is up to the caller
/// ([`crate::Trace::write_chrome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-worker event-ring capacity. When a worker records more events
    /// than this, the oldest are overwritten (and counted as dropped);
    /// cumulative counters and per-worker histograms stay exact.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::new()
    }
}

impl TraceConfig {
    /// Tracing with the default capacity.
    pub fn new() -> TraceConfig {
        TraceConfig {
            capacity: DEFAULT_CAPACITY,
        }
    }

    /// Overrides the per-worker event capacity.
    pub fn with_capacity(mut self, capacity: usize) -> TraceConfig {
        self.capacity = capacity;
        self
    }
}

/// The hot-path recorder owned by one worker thread.
///
/// Not `Sync` and never shared: every method is a plain `&mut self` store
/// into worker-private memory. Workers hand the finished [`WorkerTrace`]
/// back through their join handle, so the only cross-thread traffic is the
/// one move at the end of the run.
#[derive(Debug)]
pub struct WorkerTracer {
    worker: u32,
    epoch: Instant,
    ring: EventRing,
    wait_hist: Histogram,
    tasks: u64,
    parks: u64,
    task_ns: u64,
    wait_ns: u64,
    park_ns: u64,
}

impl WorkerTracer {
    /// A tracer for worker `worker`; timestamps are relative to `epoch`
    /// (capture it once before spawning, share it with all workers).
    pub fn new(cfg: &TraceConfig, worker: u32, epoch: Instant) -> WorkerTracer {
        WorkerTracer {
            worker,
            epoch,
            ring: EventRing::new(cfg.capacity),
            wait_hist: Histogram::new(),
            tasks: 0,
            parks: 0,
            task_ns: 0,
            wait_ns: 0,
            park_ns: 0,
        }
    }

    /// Nanoseconds from the run epoch to `t` (0 if `t` precedes it).
    #[inline]
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one executed task body.
    #[inline]
    pub fn task(&mut self, task: TaskId, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        self.tasks += 1;
        self.task_ns += e.saturating_sub(s);
        self.ring.push(TraceEvent::task(task, s, e));
    }

    /// Records one `get_read`/`get_write` of `task` that actually blocked
    /// (`polls > 0`); zero-poll fast paths should not call this.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn wait(
        &mut self,
        task: TaskId,
        data: DataId,
        write: bool,
        start: Instant,
        end: Instant,
        polls: u64,
        parks: u64,
    ) {
        let (s, e) = (self.ns(start), self.ns(end));
        let dur = e.saturating_sub(s);
        self.wait_ns += dur;
        self.parks += parks;
        self.wait_hist.record(dur);
        self.ring
            .push(TraceEvent::wait(task, data, write, s, e, polls, parks));
    }

    /// Records an idle span outside any data wait (scheduler doorbell).
    #[inline]
    pub fn park(&mut self, start: Instant, end: Instant, parks: u64) {
        let (s, e) = (self.ns(start), self.ns(end));
        self.park_ns += e.saturating_sub(s);
        self.parks += parks;
        self.ring.push(TraceEvent::park(s, e, parks));
    }

    /// Finishes recording. Op counts the runtime already tracks
    /// (`declares`/`gets`/`terminates`) and the loop time are left zero
    /// for the caller to fill in on the returned [`WorkerTrace`].
    pub fn finish(self) -> WorkerTrace {
        let dropped = self.ring.dropped();
        WorkerTrace {
            worker: self.worker,
            events: self.ring.into_ordered(),
            dropped,
            wait_hist: self.wait_hist,
            tasks: self.tasks,
            parks: self.parks,
            task_ns: self.task_ns,
            wait_ns: self.wait_ns,
            park_ns: self.park_ns,
            declares: 0,
            gets: 0,
            terminates: 0,
            loop_ns: 0,
        }
    }
}

/// One worker's finished trace: the surviving events plus exact cumulative
/// counters (the counters do **not** lose precision when the ring drops
/// events).
#[derive(Debug, Clone, Default)]
pub struct WorkerTrace {
    /// The worker id.
    pub worker: u32,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
    /// Exact histogram of this worker's data-wait times.
    pub wait_hist: Histogram,
    /// Tasks executed.
    pub tasks: u64,
    /// Park/wake transitions (data waits + scheduler parks).
    pub parks: u64,
    /// Cumulative task-body time, ns.
    pub task_ns: u64,
    /// Cumulative blocked time in `get_read`/`get_write`, ns.
    pub wait_ns: u64,
    /// Cumulative idle time outside data waits, ns.
    pub park_ns: u64,
    /// `declare_*` calls (filled by the runtime from its op counters).
    pub declares: u64,
    /// `get_*` calls (filled by the runtime).
    pub gets: u64,
    /// `terminate_*` calls (filled by the runtime).
    pub terminates: u64,
    /// Total time in the worker loop, ns (filled by the runtime).
    pub loop_ns: u64,
}

impl WorkerTrace {
    /// Total idle time (data waits + scheduler parks), ns.
    pub fn idle_ns(&self) -> u64 {
        self.wait_ns + self.park_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use std::time::Duration;

    #[test]
    fn tracer_accumulates_counters_and_events() {
        let epoch = Instant::now();
        let mut tr = WorkerTracer::new(&TraceConfig::new(), 3, epoch);
        let t0 = epoch + Duration::from_nanos(100);
        let t1 = epoch + Duration::from_nanos(400);
        let t2 = epoch + Duration::from_nanos(1000);
        tr.task(TaskId(9), t0, t1);
        tr.wait(TaskId(10), DataId(2), true, t1, t2, 5, 1);
        tr.park(t2, t2 + Duration::from_nanos(50), 1);

        let wt = tr.finish();
        assert_eq!(wt.worker, 3);
        assert_eq!(wt.tasks, 1);
        assert_eq!(wt.task_ns, 300);
        assert_eq!(wt.wait_ns, 600);
        assert_eq!(wt.park_ns, 50);
        assert_eq!(wt.idle_ns(), 650);
        assert_eq!(wt.parks, 2);
        assert_eq!(wt.dropped, 0);
        assert_eq!(wt.wait_hist.count(), 1);
        assert_eq!(wt.wait_hist.total_ns(), 600);

        let kinds: Vec<EventKind> = wt.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EventKind::Task, EventKind::WaitWrite, EventKind::Park]
        );
        assert_eq!(wt.events[1].polls, 5);
        assert_eq!(wt.events[0].id, 9);
        assert_eq!(wt.events[1].id, 2);
        assert_eq!(wt.events[1].task, 10);
    }

    #[test]
    fn counters_stay_exact_when_ring_drops() {
        let epoch = Instant::now();
        let cfg = TraceConfig::new().with_capacity(2);
        let mut tr = WorkerTracer::new(&cfg, 0, epoch);
        for i in 0..10u64 {
            let s = epoch + Duration::from_nanos(i * 10);
            tr.wait(
                TaskId(1),
                DataId(1),
                false,
                s,
                s + Duration::from_nanos(7),
                1,
                0,
            );
        }
        let wt = tr.finish();
        assert_eq!(wt.events.len(), 2);
        assert_eq!(wt.dropped, 8);
        // Cumulative numbers cover all 10 waits, not just the 2 survivors.
        assert_eq!(wt.wait_ns, 70);
        assert_eq!(wt.wait_hist.count(), 10);
    }

    #[test]
    fn pre_epoch_instants_clamp_to_zero() {
        let early = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let epoch = Instant::now();
        let mut tr = WorkerTracer::new(&TraceConfig::new(), 0, epoch);
        tr.task(TaskId(0), early, epoch);
        let wt = tr.finish();
        assert_eq!(wt.events[0].start_ns, 0);
        assert_eq!(wt.task_ns, 0);
    }

    #[test]
    fn config_builders() {
        assert_eq!(TraceConfig::new().with_capacity(128).capacity, 128);
        assert_eq!(TraceConfig::default(), TraceConfig::new());
        assert_eq!(TraceConfig::new().capacity, DEFAULT_CAPACITY);
    }
}
