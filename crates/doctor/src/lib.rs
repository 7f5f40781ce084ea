//! `rio-doctor`: post-mortem analysis of a finished RIO run.
//!
//! The decentralized runtime deliberately never materializes the
//! dependency DAG — every worker replays the flow and synchronizes
//! through per-object epochs. That makes the runtime cheap but leaves the
//! *why is this run slow?* question unanswered: nothing at runtime knows
//! the critical path, which data object serializes the workers, or
//! whether the static mapping fights the DAG.
//!
//! The doctor answers those questions offline. It consumes the artifacts
//! a run already produces — the [`rio_stf::TaskGraph`] (flow), the
//! [`rio_stf::Mapping`] and a finished [`rio_trace::Trace`] — and
//! reconstructs exactly the DAG the epoch protocol enforced (same
//! last-writer / readers-since sweep, see `DESIGN.md` §11), weighted with
//! the *measured* kernel durations from the trace:
//!
//! * **critical path** — longest duration-weighted chain, per-task slack,
//!   achievable speedup (total work / critical path) vs measured speedup
//!   (total work / wall);
//! * **wait attribution** — every recorded data-wait folded into
//!   per-object, per-epoch totals, each charged to the writer task (and
//!   its worker) that ended the epoch the waiter was blocked on;
//! * **mapping quality** — per-worker busy/wait/idle split, load-imbalance
//!   factor, cross-worker dependency edges per data object, and a greedy
//!   suggested remap (critical tasks first, then load balance) that can be
//!   fed straight back into the runtime as a [`rio_stf::TableMapping`].
//!
//! Any total mapping is deadlock-free under the RIO protocol, so applying
//! the suggested remap is always safe. [`tune`] applies it in process —
//! run, diagnose, remap, recompile — over `rio_core::Executor`'s public
//! API, and [`topo`] supplies the NUMA node table the locality-weighted
//! variants take.
//!
//! ```
//! use rio_stf::{Access, DataId, RoundRobin, TaskGraph};
//! use rio_trace::{TraceConfig, WorkerTracer};
//!
//! // A tiny two-task chain "traced" by hand.
//! let mut b = TaskGraph::builder(1);
//! let t1 = b.task(&[Access::write(DataId(0))], 1, "produce");
//! let t2 = b.task(&[Access::read(DataId(0))], 1, "consume");
//! let g = b.build();
//!
//! let epoch = std::time::Instant::now();
//! let mut w0 = WorkerTracer::new(&TraceConfig::new(), 0, epoch);
//! let d = std::time::Duration::from_nanos(100);
//! w0.task(t1, epoch, epoch + d);
//! w0.task(t2, epoch + d, epoch + 2 * d);
//! let trace = rio_trace::Trace {
//!     wall_ns: 200,
//!     workers: vec![w0.finish()],
//!     extra_threads: 0,
//! };
//!
//! let report = rio_doctor::diagnose(&g, &RoundRobin, 1, &trace);
//! assert_eq!(report.critical_path, vec![t1, t2]);
//! ```

pub mod critical;
pub mod durations;
pub mod quality;
pub mod report;
pub mod topo;
pub mod tune;
pub mod waits;

pub use critical::CriticalPath;
pub use durations::Durations;
pub use quality::{MappingQuality, WorkerLoad};
pub use report::{DoctorReport, RecoverySummary};
pub use waits::BlockedObject;

use rio_stf::deps::DepGraph;
use rio_stf::{Mapping, TaskGraph};
use rio_trace::Trace;

/// Default cost ratio of a cross-node dependency edge relative to an
/// intra-node one, used by the node-aware diagnose entry points when the
/// caller has no measured ratio. Remote-node cache-line transfers on
/// commodity two-socket machines land in the 2–6× latency band; 4 is the
/// midpoint and keeps the weighted cost integral.
pub const DEFAULT_CROSS_NODE_COST: u32 = 4;

/// Runs every analysis over one finished run and assembles the
/// [`DoctorReport`].
///
/// `workers` is the worker count of the run (the mapping is evaluated
/// against it); `trace` is the trace that run returned. Tasks whose
/// duration never reached the trace (ring overflow) are estimated from
/// their cost hints, scaled to the measured cost rate.
pub fn diagnose(
    graph: &TaskGraph,
    mapping: &dyn Mapping,
    workers: usize,
    trace: &Trace,
) -> DoctorReport {
    diagnose_with_nodes(graph, mapping, workers, trace, None)
}

/// [`diagnose`] with NUMA placement: `nodes[w]` is the node worker `w`
/// runs on (e.g. [`topo::Topology::node_assignment`]). The mapping
/// quality splits cross-worker edges into intra-/cross-node and reports a
/// weighted cost at [`DEFAULT_CROSS_NODE_COST`], and the suggested remap
/// penalizes cross-node predecessor hops by the mean task duration times
/// that ratio, steering dependent chains onto one node. `None` (or a
/// single-node table) reduces to the topology-blind [`diagnose`] exactly.
pub fn diagnose_with_nodes(
    graph: &TaskGraph,
    mapping: &dyn Mapping,
    workers: usize,
    trace: &Trace,
    nodes: Option<&[u32]>,
) -> DoctorReport {
    // A table that names only one node carries no placement signal; fold
    // it to None so every downstream path takes the bit-identical
    // topology-blind route.
    let nodes = nodes.filter(|n| {
        n.iter()
            .take(workers)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            > 1
    });
    let deps = DepGraph::derive(graph);
    let dur = durations::from_trace(graph, trace);
    let cp = critical::analyze(&deps, &dur.ns);
    let blocking = waits::attribute(graph, mapping, workers, trace);
    let quality = quality::mapping_quality_with_nodes(
        graph,
        mapping,
        workers,
        trace,
        nodes,
        DEFAULT_CROSS_NODE_COST,
    );
    // Scale the remap's hop penalty to the workload: a cross-node hop
    // costs (ratio - 1) extra mean task durations, so cheap tasks shard
    // freely while dependent heavy chains stay node-local.
    let mean_ns = dur.total_ns / graph.len().max(1) as u64;
    let penalty_ns = mean_ns.saturating_mul(u64::from(DEFAULT_CROSS_NODE_COST - 1));
    let suggested = quality::suggest_remap_weighted(&deps, &dur.ns, workers, nodes, penalty_ns);

    let moves = suggested
        .iter()
        .enumerate()
        .filter(|(i, w)| mapping.worker_of(rio_stf::TaskId::from_index(*i), workers) != **w)
        .count();
    let zero_slack = cp.slack_ns.iter().filter(|s| **s == 0).count();
    let path_kinds = cp
        .path
        .iter()
        .map(|t| graph.task(*t).kind.to_string())
        .collect();

    DoctorReport {
        tasks: graph.len(),
        workers,
        wall_ns: trace.wall_ns,
        total_work_ns: dur.total_ns,
        measured_tasks: dur.measured,
        critical_path_ns: cp.length_ns,
        critical_path: cp.path,
        critical_path_kinds: path_kinds,
        zero_slack_tasks: zero_slack,
        achievable_speedup: speedup(dur.total_ns, cp.length_ns),
        measured_speedup: speedup(dur.total_ns, trace.wall_ns),
        blocking,
        quality,
        suggested,
        moves,
        recovery: None,
    }
}

/// Counters-only fast path: diagnoses a run that recorded **no trace**,
/// from the flow, the mapping and the run's always-on per-worker
/// executed-task counts (`tasks_per_worker`, e.g.
/// `rio_core`'s `CountersSnapshot::tasks_per_worker`).
///
/// With no measured durations the per-task cost hints stand in verbatim
/// (the same fallback [`durations::from_trace`] uses for a fully dropped
/// ring), so the critical path, the per-worker busy split and the greedy
/// remap are all *hint-weighted predictions* rather than measurements:
/// `wall_ns`/`measured_speedup` are zero, wait attribution is empty, and
/// the imbalance factor is computed from the hint-weighted load each
/// worker's mapped tasks represent. That is exactly what a closed tuning
/// loop needs between untraced iterations — the remap it suggests is the
/// same one a cost-hint-only trace would produce.
pub fn diagnose_counters(
    graph: &TaskGraph,
    mapping: &dyn Mapping,
    workers: usize,
    tasks_per_worker: &[u64],
) -> DoctorReport {
    diagnose_counters_with_nodes(graph, mapping, workers, tasks_per_worker, None)
}

/// [`diagnose_counters`] with NUMA placement, mirroring
/// [`diagnose_with_nodes`]: the hint-weighted prediction also splits
/// edges by node and penalizes cross-node hops in the suggested remap.
pub fn diagnose_counters_with_nodes(
    graph: &TaskGraph,
    mapping: &dyn Mapping,
    workers: usize,
    tasks_per_worker: &[u64],
    nodes: Option<&[u32]>,
) -> DoctorReport {
    let empty = Trace::default();
    let mut report = diagnose_with_nodes(graph, mapping, workers, &empty, nodes);
    // The empty trace left every per-worker row blank; fill busy from the
    // hint-weighted durations of each worker's mapped tasks and the task
    // counts from the run's counters.
    let dur = durations::from_trace(graph, &empty);
    for t in graph.tasks() {
        let w = mapping.worker_of(t.id, workers).index();
        if let Some(row) = report.quality.per_worker.get_mut(w) {
            row.busy_ns += dur.ns[t.id.index()];
        }
    }
    for (row, &tasks) in report.quality.per_worker.iter_mut().zip(tasks_per_worker) {
        row.tasks = tasks;
    }
    let busy_total: u64 = report.quality.per_worker.iter().map(|w| w.busy_ns).sum();
    let busy_max: u64 = report
        .quality
        .per_worker
        .iter()
        .map(|w| w.busy_ns)
        .max()
        .unwrap_or(0);
    let mean = busy_total as f64 / workers.max(1) as f64;
    report.quality.imbalance = if mean > 0.0 {
        busy_max as f64 / mean
    } else {
        1.0
    };
    report
}

fn speedup(work_ns: u64, over_ns: u64) -> f64 {
    if over_ns == 0 {
        0.0
    } else {
        work_ns as f64 / over_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::{Access, DataId, RoundRobin, TaskId};
    use rio_trace::{TraceConfig, WorkerTracer};
    use std::time::{Duration, Instant};

    /// Chain of three tasks through one object, traced on two workers.
    fn chain_setup() -> (TaskGraph, Trace) {
        let mut b = TaskGraph::builder(1);
        let t1 = b.task(&[Access::write(DataId(0))], 1, "w");
        let t2 = b.task(&[Access::read_write(DataId(0))], 1, "rw");
        let t3 = b.task(&[Access::read_write(DataId(0))], 1, "rw");
        let g = b.build();

        let epoch = Instant::now();
        let ns = |n: u64| epoch + Duration::from_nanos(n);
        let cfg = TraceConfig::new();
        let mut w0 = WorkerTracer::new(&cfg, 0, epoch);
        w0.task(t1, ns(0), ns(100));
        w0.task(t3, ns(250), ns(400));
        let mut w1 = WorkerTracer::new(&cfg, 1, epoch);
        w1.wait(t2, DataId(0), true, ns(0), ns(100), 5, 1);
        w1.task(t2, ns(100), ns(250));
        let trace = Trace {
            wall_ns: 400,
            workers: vec![w0.finish(), w1.finish()],
            extra_threads: 0,
        };
        (g, trace)
    }

    #[test]
    fn diagnose_ties_the_pieces_together() {
        let (g, trace) = chain_setup();
        let r = diagnose(&g, &RoundRobin, 2, &trace);
        assert_eq!(r.tasks, 3);
        // The whole flow is one chain: critical path covers every task.
        assert_eq!(r.critical_path, vec![TaskId(1), TaskId(2), TaskId(3)]);
        assert_eq!(r.critical_path_ns, 400);
        assert_eq!(r.total_work_ns, 400);
        assert_eq!(r.zero_slack_tasks, 3);
        // Serial chain: no speedup achievable, none measured.
        assert!((r.achievable_speedup - 1.0).abs() < 1e-9);
        assert!((r.measured_speedup - 1.0).abs() < 1e-9);
        // The one recorded wait is attributed to D0's writer T1 on W0.
        assert_eq!(r.blocking.len(), 1);
        assert_eq!(r.blocking[0].data, DataId(0));
        assert_eq!(r.blocking[0].writer, TaskId(1));
        assert_eq!(r.blocking[0].wait_ns, 100);
    }

    #[test]
    fn counters_only_fast_path_predicts_from_hints() {
        // Same chain, no trace: the fast path must find the same critical
        // path (hint-weighted), an imbalance reflecting the round-robin
        // split of a serial chain, and a usable remap.
        let (g, _) = chain_setup();
        let r = diagnose_counters(&g, &RoundRobin, 2, &[2, 1]);
        assert_eq!(r.critical_path, vec![TaskId(1), TaskId(2), TaskId(3)]);
        assert_eq!(r.wall_ns, 0, "nothing was measured");
        assert_eq!(r.measured_tasks, 0);
        assert!(r.blocking.is_empty(), "no wait events without a trace");
        // Hint-weighted busy: W0 carries 2 of 3 unit-cost tasks.
        assert_eq!(r.quality.per_worker[0].busy_ns, 2);
        assert_eq!(r.quality.per_worker[1].busy_ns, 1);
        assert_eq!(r.quality.per_worker[0].tasks, 2, "tasks from counters");
        assert!((r.quality.imbalance - 2.0 / 1.5).abs() < 1e-9);
        // The remap still consolidates the chain.
        assert!(r.moves >= 1);
        assert!(r.suggested_mapping().validate(2));
    }

    #[test]
    fn node_aware_diagnose_reduces_to_plain_when_topology_is_trivial() {
        let (g, trace) = chain_setup();
        let plain = diagnose(&g, &RoundRobin, 2, &trace);
        for nodes in [None, Some(&[0u32, 0][..])] {
            let r = diagnose_with_nodes(&g, &RoundRobin, 2, &trace, nodes);
            assert_eq!(r.suggested, plain.suggested);
            assert_eq!(r.quality.cross_node_edges, 0);
            assert_eq!(r.quality.weighted_cost, plain.quality.cross_edges);
        }
    }

    #[test]
    fn node_aware_diagnose_splits_edges_and_penalizes_hops() {
        let (g, trace) = chain_setup();
        // Round-robin alternates the chain between W0 (node 0) and W1
        // (node 1): both chain edges cross nodes.
        let nodes = [0u32, 1];
        let r = diagnose_with_nodes(&g, &RoundRobin, 2, &trace, Some(&nodes));
        assert_eq!(r.quality.cross_edges, 2);
        assert_eq!(r.quality.cross_node_edges, 2);
        assert_eq!(
            r.quality.weighted_cost,
            2 * u64::from(DEFAULT_CROSS_NODE_COST)
        );
        // The penalized remap keeps the serial chain on a single node.
        let chain_nodes: std::collections::BTreeSet<u32> =
            r.suggested.iter().map(|w| nodes[w.index()]).collect();
        assert_eq!(chain_nodes.len(), 1);
        // Counters fast path threads the same table through.
        let c = diagnose_counters_with_nodes(&g, &RoundRobin, 2, &[2, 1], Some(&nodes));
        assert_eq!(c.quality.cross_node_edges, 2);
    }

    #[test]
    fn remap_moves_are_counted_against_the_input_mapping() {
        let (g, trace) = chain_setup();
        let r = diagnose(&g, &RoundRobin, 2, &trace);
        // A pure chain schedules entirely onto one worker under the greedy
        // remap; round-robin spread it over two, so at least one task moves.
        assert!(r.moves >= 1, "chain should be consolidated, moves = 0");
        let m = r.suggested_mapping();
        assert!(m.validate(2));
        assert_eq!(m.len(), 3);
    }
}
