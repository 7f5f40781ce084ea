//! Live telemetry for RIO runs: Prometheus export, a process-wide run
//! registry, and a std-only scrape listener.
//!
//! The observability story so far was post-mortem: counters and traces are
//! sampled *after* `join`, rendered as tables, and analyzed by
//! `rio-doctor`. This crate adds the live layer on top of the same
//! primitives:
//!
//! * [`counters`] — a counters snapshot as a terminal table, grouped by
//!   node when the snapshot carries a node table.
//! * [`prom`] — a Prometheus text-format (version `0.0.4`) exporter over
//!   [`rio_core::CountersSnapshot`], [`rio_trace::Histogram`] and the
//!   doctor's mapping-quality gauges, plus a validating parser used by
//!   tests and the `repro telemetry --check` CI gate, and an atomic
//!   textfile writer for node-exporter-style collection.
//! * [`registry`] — [`registry::RunRegistry`], a process-wide table of
//!   live and completed executions. Registering a run shares its
//!   `Arc<CounterRegistry>`, so any thread can sample mid-run without a
//!   lock: RIO counters are single-writer relaxed atomics, and a sampler
//!   only needs each load to be atomic, not fenced (DESIGN.md §16).
//! * [`server`] — [`server::ScrapeServer`], a minimal HTTP/1.1 listener
//!   (hand-rolled on `std::net`, no dependencies) answering `GET` with the
//!   registry's current exposition.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use rio_core::{CounterRegistry, Executor, RioConfig};
//! use rio_telemetry::registry::RunRegistry;
//! use rio_telemetry::server::ScrapeServer;
//!
//! // Shared counters: the run writes them, the scrape thread reads them.
//! let counters = Arc::new(CounterRegistry::new(2));
//! let runs = RunRegistry::global();
//! let server = ScrapeServer::serve(Arc::clone(&runs)).unwrap();
//! println!("scrape me at http://{}/metrics", server.addr());
//!
//! let _guard = runs.register("quickstart", Arc::clone(&counters));
//! let cfg = RioConfig::with_workers(2).counter_registry(Arc::clone(&counters));
//! let g = rio_stf::TaskGraph::builder(0).build();
//! Executor::new(cfg).run(&g, |_, _| {});
//! // ...curl the address during the run; the guard marks the run
//! // completed when dropped.
//! ```

pub mod counters;
pub mod prom;
pub mod registry;
pub mod server;

pub use prom::{
    escape_label_value, parse_exposition, unescape_label_value, validate_exposition,
    write_textfile, PromBuffer, Sample,
};
pub use registry::{RunGuard, RunRegistry};
pub use server::{scrape, ScrapeServer};
