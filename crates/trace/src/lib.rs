//! # rio-trace — worker-local tracing & wait-time observability
//!
//! A per-worker, allocation-bounded event recorder for the RIO runtimes.
//! Each worker owns a [`WorkerTracer`] — a plain, thread-local ring buffer
//! plus a handful of counters. The hot path never touches shared state:
//! recording an event is a couple of arithmetic instructions and one store
//! into worker-private memory, so tracing perturbs the measured run as
//! little as possible (the paper's §2.3 methodology depends on honest
//! `τ_{p,t}`/`τ_{p,i}` measurements).
//!
//! What gets recorded:
//!
//! * **task spans** — one [`EventKind::Task`] per executed task body;
//! * **wait spans** — one [`EventKind::WaitRead`]/[`EventKind::WaitWrite`]
//!   per `get_read`/`get_write` that actually blocked (zero-poll fast
//!   paths record nothing), carrying the poll and park counts;
//! * **park spans** — [`EventKind::Park`] for schedulers that idle outside
//!   a data wait (the centralized baseline's doorbell);
//! * **counters** — declares, gets, terminates and park/wake transitions.
//!
//! After the run the per-worker buffers are assembled into a [`Trace`],
//! which can:
//!
//! * produce the `(p, t_p, τ_{p,t}, τ_{p,i})` quadruple
//!   ([`Trace::quadruple`]) consumed by [`rio_metrics::decompose`];
//! * export Chrome-trace JSON ([`Trace::chrome_json`],
//!   [`Trace::write_chrome`]) loadable in `chrome://tracing` or Perfetto.
//!
//! The recommended entry point is `rio_core::Executor` with
//! [`TraceConfig`]:
//!
//! ```ignore
//! let run = Executor::new(RioConfig::with_workers(4))
//!     .trace(TraceConfig::new())
//!     .run(&graph, kernel);
//! let trace = run.trace.unwrap();
//! trace.write_chrome("run.json")?;
//! let quad = trace.quadruple();
//! let d = rio_metrics::decompose(t_seq, t_seq, &quad);
//! ```

pub mod chrome;
pub mod event;
pub mod ring;
pub mod trace;
pub mod tracer;

pub use event::{EventKind, TraceEvent};
pub use ring::EventRing;
pub use trace::Trace;
pub use tracer::{TraceConfig, WorkerTrace, WorkerTracer};
