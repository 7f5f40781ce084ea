//! The submit-style typed API: the centralized analogue of StarPU's
//! `starpu_task_submit`.
//!
//! Unlike the graph executor (which replays a *recorded* flow), this API
//! lets the calling thread play the master role **live**: each
//! [`TaskScope::submit`] immediately derives the task's dependencies,
//! wires it into the runtime DAG, and dispatches it if ready — while the
//! worker pool is already executing earlier tasks. Submission and
//! execution overlap exactly as in Fig. 1 of the paper.
//!
//! ```
//! use rio_centralized::{scope, CentralConfig};
//! use rio_stf::{Access, DataId, DataStore};
//!
//! let store = DataStore::from_vec(vec![0u64]);
//! let report = scope(&CentralConfig::with_threads(3), 1, |s| {
//!     for _ in 0..100 {
//!         s.submit(&[Access::read_write(DataId(0))], || {
//!             *store.write(DataId(0)) += 1;
//!         });
//!     }
//! });
//! assert_eq!(report.tasks_executed(), 100);
//! assert_eq!(store.into_vec(), vec![100]);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::deque::Injector;
use parking_lot::Mutex;
use rio_stf::task::TaskDesc;
use rio_stf::{Access, TaskId};

use crate::config::CentralConfig;
use crate::doorbell::Doorbell;
use crate::report::{CentralReport, MasterReport, PoolWorkerReport};

/// A dynamically-submitted task node: pending count, successor links and
/// the boxed body.
struct DynNode<'env> {
    /// Pending predecessors + 1 submission sentinel.
    remaining: AtomicU32,
    links: Mutex<DynLinks<'env>>,
}

struct DynLinks<'env> {
    done: bool,
    succs: Vec<Arc<DynNode<'env>>>,
    body: Option<Box<dyn FnOnce() + Send + 'env>>,
}

/// Engine state shared between the submitting thread and the pool.
struct DynEngine<'env> {
    injector: Injector<Arc<DynNode<'env>>>,
    submitted: AtomicUsize,
    executed: AtomicUsize,
    /// Set once the scope closure returned (no more submissions).
    sealed: AtomicBool,
    bell: Doorbell,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<'env> DynEngine<'env> {
    fn finished(&self) -> bool {
        self.sealed.load(Ordering::Acquire)
            && self.executed.load(Ordering::Acquire) == self.submitted.load(Ordering::Acquire)
    }
}

/// Live task-submission handle passed to the scope closure.
///
/// Not `Send`: all submissions come from the master thread, which is what
/// makes the model *centralized*.
pub struct TaskScope<'eng, 'env> {
    engine: &'eng DynEngine<'env>,
    /// Per-data hazard state (master-private, like `DepTracker` but over
    /// live nodes).
    last_writer: Vec<Option<Arc<DynNode<'env>>>>,
    readers_since: Vec<Vec<Arc<DynNode<'env>>>>,
    next_id: TaskId,
    edges: u64,
}

impl<'eng, 'env> TaskScope<'eng, 'env> {
    /// Submits the next task: `accesses` declares the data objects the
    /// body touches (indices < the scope's `num_data`), `body` runs on
    /// some pool worker once all implicit dependencies are satisfied.
    ///
    /// Returns the task's flow id.
    pub fn submit<F>(&mut self, accesses: &[Access], body: F) -> TaskId
    where
        F: FnOnce() + Send + 'env,
    {
        let id = self.next_id;
        self.next_id = id.next();

        let node = Arc::new(DynNode {
            remaining: AtomicU32::new(1),
            links: Mutex::new(DynLinks {
                done: false,
                succs: Vec::new(),
                body: Some(Box::new(body)),
            }),
        });

        // Wire dependencies: R/W-after-W on the last writer, W-after-R on
        // the readers since that write.
        for a in accesses {
            let d = a.data.index();
            let mut preds: Vec<&Arc<DynNode<'env>>> = Vec::new();
            if let Some(w) = &self.last_writer[d] {
                preds.push(w);
            }
            if a.mode.writes() {
                preds.extend(self.readers_since[d].iter());
            }
            for p in preds {
                if Arc::ptr_eq(p, &node) {
                    continue;
                }
                let mut links = p.links.lock();
                if !links.done {
                    node.remaining.fetch_add(1, Ordering::Relaxed);
                    links.succs.push(Arc::clone(&node));
                    self.edges += 1;
                }
            }
        }
        for a in accesses {
            let d = a.data.index();
            if a.mode.writes() {
                self.last_writer[d] = Some(Arc::clone(&node));
                self.readers_since[d].clear();
            }
            if a.mode.reads() {
                self.readers_since[d].push(Arc::clone(&node));
            }
        }

        self.engine.submitted.fetch_add(1, Ordering::Release);
        if node.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.engine.injector.push(node);
            self.engine.bell.ring();
        }
        id
    }

    /// Flow id the next submission will receive.
    pub fn next_task_id(&self) -> TaskId {
        self.next_id
    }
}

/// Runs a live-submission scope: spawns `cfg.num_workers()` workers, lets
/// `f` submit tasks over `num_data` data objects from the calling
/// (master) thread, and joins once every submitted task has executed.
///
/// # Panics
/// Propagates the first panicking task body.
pub fn scope<'env, F>(cfg: &CentralConfig, num_data: usize, f: F) -> CentralReport
where
    F: for<'eng> FnOnce(&mut TaskScope<'eng, 'env>),
{
    cfg.validate();
    let engine = DynEngine {
        injector: Injector::new(),
        submitted: AtomicUsize::new(0),
        executed: AtomicUsize::new(0),
        sealed: AtomicBool::new(false),
        bell: Doorbell::new(),
        panic: Mutex::new(None),
    };
    let engine = &engine;

    let start = Instant::now();
    let (master, workers) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.num_workers())
            .map(|_| s.spawn(move || dyn_worker_loop(cfg, engine)))
            .collect();

        let master_start = Instant::now();
        let mut task_scope = TaskScope {
            engine,
            last_writer: vec![None; num_data],
            readers_since: vec![Vec::new(); num_data],
            next_id: TaskId::FIRST,
            edges: 0,
        };
        f(&mut task_scope);
        let master = MasterReport {
            tasks_submitted: task_scope.next_id.0 - 1,
            edges: task_scope.edges,
            loop_time: master_start.elapsed(),
            throttle_time: std::time::Duration::ZERO,
        };
        // Drop the hazard tables (they pin nodes) and seal the scope.
        drop(task_scope);
        engine.sealed.store(true, Ordering::Release);
        engine.bell.ring();

        let workers: Vec<PoolWorkerReport> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        (master, workers)
    });

    if let Some(payload) = engine.panic.lock().take() {
        std::panic::resume_unwind(payload);
    }
    CentralReport {
        wall: start.elapsed(),
        master,
        workers,
    }
}

fn dyn_worker_loop<'env>(cfg: &CentralConfig, engine: &DynEngine<'env>) -> PoolWorkerReport {
    let mut report = PoolWorkerReport::default();
    let loop_start = Instant::now();

    loop {
        let node = loop {
            let steal = engine.injector.steal();
            if steal.is_retry() {
                continue;
            }
            break steal.success();
        };
        match node {
            Some(node) => run_dyn_task(cfg, engine, node, &mut report),
            None => {
                if engine.finished() || engine.panic.lock().is_some() {
                    break;
                }
                let epoch = engine.bell.epoch();
                // Recheck after the snapshot (no lost wakeups).
                if let Some(node) = engine.injector.steal().success() {
                    run_dyn_task(cfg, engine, node, &mut report);
                    continue;
                }
                if engine.finished() || engine.panic.lock().is_some() {
                    break;
                }
                // A ring since the snapshot means the park would return at
                // once: rescan without reading the clock for it.
                if engine.bell.epoch() != epoch {
                    continue;
                }
                let t0 = if cfg.measure_time {
                    Some(Instant::now())
                } else {
                    None
                };
                engine.bell.wait(epoch);
                if let Some(t0) = t0 {
                    report.idle_time += t0.elapsed();
                }
            }
        }
    }

    report.loop_time = loop_start.elapsed();
    report
}

fn run_dyn_task<'env>(
    cfg: &CentralConfig,
    engine: &DynEngine<'env>,
    node: Arc<DynNode<'env>>,
    report: &mut PoolWorkerReport,
) {
    let body = node
        .links
        .lock()
        .body
        .take()
        .expect("a dispatched task always still holds its body");

    let run = std::panic::AssertUnwindSafe(body);
    let outcome = if cfg.measure_time {
        let t0 = Instant::now();
        let r = std::panic::catch_unwind(run);
        report.task_time += t0.elapsed();
        r
    } else {
        std::panic::catch_unwind(run)
    };
    if let Err(payload) = outcome {
        let mut slot = engine.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
        drop(slot);
        engine.bell.ring();
        return;
    }
    report.tasks_executed += 1;

    let succs = {
        let mut links = node.links.lock();
        links.done = true;
        std::mem::take(&mut links.succs)
    };
    for s in succs {
        if s.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            engine.injector.push(s);
        }
    }
    engine.executed.fetch_add(1, Ordering::Release);
    engine.bell.ring();
}

/// A `TaskDesc`-shaped helper for tests that want to compare against the
/// recorded-graph executor (not used by the API itself).
#[doc(hidden)]
pub fn _desc_for_tests(id: TaskId, accesses: &[Access]) -> TaskDesc {
    TaskDesc {
        id,
        accesses: accesses.to_vec(),
        cost: 0,
        kind: "scope",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::{DataId, DataStore};

    fn cfg(threads: usize) -> CentralConfig {
        CentralConfig::with_threads(threads)
    }

    #[test]
    fn counter_chain_is_exact() {
        let store = DataStore::from_vec(vec![0u64]);
        let report = scope(&cfg(3), 1, |s| {
            for _ in 0..500 {
                s.submit(&[Access::read_write(DataId(0))], || {
                    *store.write(DataId(0)) += 1;
                });
            }
        });
        assert_eq!(report.tasks_executed(), 500);
        assert_eq!(report.master.tasks_submitted, 500);
        assert_eq!(store.into_vec(), vec![500]);
    }

    #[test]
    fn independent_tasks_all_run() {
        let counter = std::sync::atomic::AtomicU64::new(0);
        let report = scope(&cfg(4), 0, |s| {
            for _ in 0..300 {
                s.submit(&[], || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 300);
        assert_eq!(report.master.edges, 0);
    }

    #[test]
    fn producer_consumer_sees_ordered_values() {
        let store = DataStore::from_vec(vec![0i64, 0]);
        scope(&cfg(3), 2, |s| {
            for i in 1..=100i64 {
                let st = &store;
                s.submit(&[Access::write(DataId(0))], move || {
                    *st.write(DataId(0)) = i;
                });
                s.submit(
                    &[Access::read(DataId(0)), Access::read_write(DataId(1))],
                    move || {
                        let x = *st.read(DataId(0));
                        assert_eq!(x, i, "consumer must see its producer's value");
                        *st.write(DataId(1)) += x;
                    },
                );
            }
        });
        assert_eq!(store.into_vec()[1], 5050);
    }

    #[test]
    fn parallel_reads_between_writes() {
        let store = DataStore::from_vec(vec![0u64]);
        let seen = std::sync::atomic::AtomicU64::new(0);
        scope(&cfg(4), 1, |s| {
            s.submit(&[Access::write(DataId(0))], || {
                *store.write(DataId(0)) = 7;
            });
            for _ in 0..32 {
                s.submit(&[Access::read(DataId(0))], || {
                    assert_eq!(*store.read(DataId(0)), 7);
                    seen.fetch_add(1, Ordering::Relaxed);
                });
            }
            s.submit(&[Access::write(DataId(0))], || {
                *store.write(DataId(0)) = 9;
            });
        });
        assert_eq!(seen.load(Ordering::Relaxed), 32);
        assert_eq!(store.into_vec(), vec![9]);
    }

    #[test]
    fn submission_overlaps_execution() {
        // The first task signals; the master submits the rest only after
        // the signal, proving the pool runs while the scope is still open.
        let flag = std::sync::atomic::AtomicBool::new(false);
        let count = std::sync::atomic::AtomicU64::new(0);
        scope(&cfg(2), 0, |s| {
            s.submit(&[], || {
                flag.store(true, Ordering::Release);
            });
            while !flag.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            for _ in 0..10 {
                s.submit(&[], || {
                    count.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn task_ids_are_sequential() {
        scope(&cfg(2), 0, |s| {
            assert_eq!(s.next_task_id(), TaskId(1));
            let a = s.submit(&[], || {});
            let b = s.submit(&[], || {});
            assert_eq!(a, TaskId(1));
            assert_eq!(b, TaskId(2));
        });
    }

    #[test]
    fn empty_scope_terminates() {
        let report = scope(&cfg(2), 4, |_| {});
        assert_eq!(report.tasks_executed(), 0);
    }

    #[test]
    fn body_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            scope(&cfg(3), 0, |s| {
                for i in 0..20 {
                    s.submit(&[], move || {
                        if i == 5 {
                            panic!("scope boom");
                        }
                    });
                }
            });
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "scope boom");
    }

    #[test]
    fn matches_recorded_graph_results() {
        // Same random-ish flow through scope() and through the recorded
        // executor must produce identical store contents.
        let pattern: Vec<(u32, u32)> = (0..200u32).map(|i| (i % 5, (i / 2) % 5)).collect();

        // Recorded.
        let mut b = rio_stf::TaskGraph::builder(5);
        for &(r, w) in &pattern {
            if r == w {
                b.task(&[Access::read_write(DataId(w))], 1, "rw");
            } else {
                b.task(&[Access::read(DataId(r)), Access::write(DataId(w))], 1, "m");
            }
        }
        let g = b.build();
        let recorded_store = DataStore::filled(5, 0u64);
        crate::execute_graph(&cfg(3), &g, |_, t| {
            let mut h = t.id.0;
            for d in t.reads() {
                h = h.wrapping_mul(31).wrapping_add(*recorded_store.read(d));
            }
            for d in t.writes() {
                *recorded_store.write(d) = h;
            }
        });
        let expected = recorded_store.into_vec();

        // Live submission.
        let store = DataStore::filled(5, 0u64);
        scope(&cfg(3), 5, |s| {
            for (idx, &(r, w)) in pattern.iter().enumerate() {
                let id = (idx + 1) as u64;
                let store = &store;
                if r == w {
                    s.submit(&[Access::read_write(DataId(w))], move || {
                        let h = id.wrapping_mul(31).wrapping_add(*store.read(DataId(w)));
                        *store.write(DataId(w)) = h;
                    });
                } else {
                    s.submit(
                        &[Access::read(DataId(r)), Access::write(DataId(w))],
                        move || {
                            let h = id.wrapping_mul(31).wrapping_add(*store.read(DataId(r)));
                            *store.write(DataId(w)) = h;
                        },
                    );
                }
            }
        });
        assert_eq!(store.into_vec(), expected);
    }
}
