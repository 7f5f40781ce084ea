//! The process-wide run registry: which executions are live, and how to
//! sample them mid-run.
//!
//! A [`RunRegistry`] is a table of registered runs. Each entry shares the
//! run's `Arc<rio_core::CounterRegistry>`, so rendering the registry
//! samples every live run's counters *while its workers are writing
//! them* — safely and without a lock, because RIO counters are strictly
//! single-writer: each worker bumps only its own cache-line-padded slot
//! with relaxed atomic stores, and a sampler needs only per-load
//! atomicity, never cross-counter consistency (DESIGN.md §16). The
//! registry's own `Mutex` guards nothing but the table of entries;
//! counter reads happen on plain `Arc` clones outside any critical
//! section a worker could contend on.
//!
//! Registration hands back a [`RunGuard`]; dropping it marks the run
//! completed (the entry survives, so a scrape arriving after `join` still
//! sees the final totals, flagged `rio_run_active 0`). Completed entries
//! are pruned with [`RunRegistry::retire_completed`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rio_core::CounterRegistry;

use crate::prom::{render_counters_multi, PromBuffer};

#[derive(Debug)]
struct RunEntry {
    run_id: u64,
    workload: String,
    counters: Arc<CounterRegistry>,
    /// Node of each worker, when the caller registered one; labels the
    /// per-worker samples.
    nodes: Option<Vec<u32>>,
    active: Arc<AtomicBool>,
}

/// A table of live and completed executions, renderable as one Prometheus
/// exposition. See the module docs for the sampling discipline.
#[derive(Debug, Default)]
pub struct RunRegistry {
    runs: Mutex<Vec<RunEntry>>,
    next_id: AtomicU64,
}

/// Keeps a registered run marked live; dropping it flips the run to
/// completed. Returned by [`RunRegistry::register`].
#[derive(Debug)]
#[must_use = "dropping the guard immediately marks the run completed"]
pub struct RunGuard {
    run_id: u64,
    active: Arc<AtomicBool>,
}

impl RunGuard {
    /// The registry-assigned id of this run (the `run_id` label).
    pub fn run_id(&self) -> u64 {
        self.run_id
    }
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        self.active.store(false, Ordering::Release);
    }
}

impl RunRegistry {
    /// An empty registry. Most callers want the shared
    /// [`RunRegistry::global`] instead; fresh registries are for tests and
    /// embedders running several isolated scrape endpoints.
    pub fn new() -> RunRegistry {
        RunRegistry::default()
    }

    /// The process-wide registry (one per process, created on first use).
    pub fn global() -> Arc<RunRegistry> {
        static GLOBAL: OnceLock<Arc<RunRegistry>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(RunRegistry::new())))
    }

    /// Registers a run: `workload` becomes its `workload` label, and
    /// `counters` is the registry the run's config shares (pass the same
    /// `Arc` to [`rio_core::RioConfig::counter_registry`]). Returns the
    /// guard that keeps the run marked live.
    pub fn register(&self, workload: &str, counters: Arc<CounterRegistry>) -> RunGuard {
        self.register_with_nodes(workload, counters, None)
    }

    /// Like [`RunRegistry::register`], with a worker→node assignment
    /// (e.g. `rio_doctor::topo::Topology::node_assignment`) so
    /// per-worker samples carry a `node` label.
    pub fn register_with_nodes(
        &self,
        workload: &str,
        counters: Arc<CounterRegistry>,
        nodes: Option<Vec<u32>>,
    ) -> RunGuard {
        if let Some(nodes) = &nodes {
            assert_eq!(
                nodes.len(),
                counters.len(),
                "node assignment must cover every worker slot"
            );
        }
        let run_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let active = Arc::new(AtomicBool::new(true));
        self.runs.lock().unwrap().push(RunEntry {
            run_id,
            workload: workload.to_string(),
            counters,
            nodes,
            active: Arc::clone(&active),
        });
        RunGuard { run_id, active }
    }

    /// Number of registered runs (live + completed, not yet retired).
    pub fn len(&self) -> usize {
        self.runs.lock().unwrap().len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops entries whose guard has been released, returning how many
    /// were removed. Long-lived processes call this between scrapes to
    /// bound the table.
    pub fn retire_completed(&self) -> usize {
        let mut runs = self.runs.lock().unwrap();
        let before = runs.len();
        runs.retain(|e| e.active.load(Ordering::Acquire));
        before - runs.len()
    }

    /// Renders every registered run as one Prometheus exposition:
    /// `rio_run_active` / `rio_run_workers` per run, then the full
    /// per-worker counter families ([`render_counters`]) labelled
    /// `run_id` and `workload`.
    ///
    /// Counter snapshots are taken per render; scraping concurrently with
    /// live workers is the intended use (see the module docs).
    pub fn render(&self) -> String {
        // Snapshot the table, then sample counters outside the lock: the
        // lock protects registration, not sampling.
        struct Sampled {
            id: String,
            workload: String,
            nodes: Option<Vec<u32>>,
            active: bool,
            counters: Arc<CounterRegistry>,
        }
        let entries: Vec<Sampled> = self
            .runs
            .lock()
            .unwrap()
            .iter()
            .map(|e| Sampled {
                id: e.run_id.to_string(),
                workload: e.workload.clone(),
                nodes: e.nodes.clone(),
                active: e.active.load(Ordering::Acquire),
                counters: Arc::clone(&e.counters),
            })
            .collect();

        let mut buf = PromBuffer::new();
        // Family-major emission: the text format wants each family's
        // samples in one consecutive block, so loop runs *inside* each
        // family — gauges here, counters via render_counters_multi.
        for e in &entries {
            buf.gauge(
                "rio_run_active",
                "1 while the registered run is executing, 0 once its guard dropped.",
                &[("run_id", &e.id), ("workload", &e.workload)],
                e.active as u8 as f64,
            );
        }
        for e in &entries {
            buf.gauge(
                "rio_run_workers",
                "Worker slots in the run's counter registry.",
                &[("run_id", &e.id), ("workload", &e.workload)],
                e.counters.len() as f64,
            );
        }
        let snaps: Vec<rio_core::CountersSnapshot> = entries
            .iter()
            .map(|e| {
                let mut snap = e.counters.snapshot();
                snap.nodes = e.nodes.clone();
                snap
            })
            .collect();
        let bases: Vec<[(&str, &str); 2]> = entries
            .iter()
            .map(|e| [("run_id", &*e.id), ("workload", &*e.workload)])
            .collect();
        let pairs: Vec<(&rio_core::CountersSnapshot, &[(&str, &str)])> = snaps
            .iter()
            .zip(bases.iter())
            .map(|(s, b)| (s, &b[..]))
            .collect();
        render_counters_multi(&mut buf, &pairs);
        buf.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::{parse_exposition, validate_exposition};

    #[test]
    fn register_render_retire_lifecycle() {
        let reg = RunRegistry::new();
        let counters = Arc::new(CounterRegistry::new(2));
        counters.worker(0).inc_tasks();
        counters.worker(1).inc_tasks();
        counters.worker(1).inc_steals();

        let guard = reg.register("lu", Arc::clone(&counters));
        assert_eq!(reg.len(), 1);
        let text = reg.render();
        validate_exposition(&text).unwrap();
        let samples = parse_exposition(&text).unwrap();
        let active = samples.iter().find(|s| s.name == "rio_run_active").unwrap();
        assert_eq!(active.value, 1.0);
        assert_eq!(active.label("workload"), Some("lu"));
        assert_eq!(active.label("run_id"), Some(&*guard.run_id().to_string()));
        let tasks: f64 = samples
            .iter()
            .filter(|s| s.name == "rio_tasks_total")
            .map(|s| s.value)
            .sum();
        assert_eq!(tasks, 2.0);

        // Guard drop flips active; the totals stay scrapeable.
        drop(guard);
        let text = reg.render();
        let samples = parse_exposition(&text).unwrap();
        assert_eq!(
            samples
                .iter()
                .find(|s| s.name == "rio_run_active")
                .unwrap()
                .value,
            0.0
        );

        assert_eq!(reg.retire_completed(), 1);
        assert!(reg.is_empty());
    }

    #[test]
    fn run_ids_are_unique_and_node_labels_propagate() {
        let reg = RunRegistry::new();
        let a = reg.register("a", Arc::new(CounterRegistry::new(1)));
        let b = reg.register_with_nodes("b", Arc::new(CounterRegistry::new(2)), Some(vec![0, 1]));
        assert_ne!(a.run_id(), b.run_id());
        let text = reg.render();
        validate_exposition(&text).unwrap();
        let samples = parse_exposition(&text).unwrap();
        let node = samples
            .iter()
            .find(|s| {
                s.name == "rio_tasks_total"
                    && s.label("workload") == Some("b")
                    && s.label("worker") == Some("1")
            })
            .unwrap();
        assert_eq!(node.label("node"), Some("1"));
        // Run `a` has no topology, so no node label.
        let flat = samples
            .iter()
            .find(|s| s.name == "rio_tasks_total" && s.label("workload") == Some("a"))
            .unwrap();
        assert_eq!(flat.label("node"), None);
    }

    #[test]
    fn global_registry_is_shared() {
        let a = RunRegistry::global();
        let b = RunRegistry::global();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "node assignment must cover every worker slot")]
    fn node_assignment_must_match_worker_count() {
        let reg = RunRegistry::new();
        let _ = reg.register_with_nodes("x", Arc::new(CounterRegistry::new(2)), Some(vec![0]));
    }
}
