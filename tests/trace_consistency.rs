//! Observability must be free of observable side effects: enabling the
//! tracer must not change execution results or protocol op counts, its
//! quadruple must feed the efficiency decomposition, its task spans must
//! audit clean against the STF semantics on every front-end, and the
//! holder of a run's trace must be able to export it as Chrome-trace JSON.

use rio::core::hybrid::{PartialFn, Unmapped};
use rio::core::{Execution, Executor, Rio, RioConfig, Trace, TraceConfig, WaitStrategy};
use rio::stf::{Access, DataId, DataStore, RoundRobin, TaskDesc, TaskGraph, TaskId, WorkerId};
use rio::workloads::random_deps::{self, RandomDepsConfig};

fn workload() -> TaskGraph {
    random_deps::graph(&RandomDepsConfig {
        tasks: 400,
        num_data: 16,
        reads_per_task: 2,
        writes_per_task: 1,
        seed: 77,
    })
}

fn hash_kernel(store: &DataStore<u64>, t: &TaskDesc) {
    let mut h = t.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for d in t.reads() {
        h = (h ^ *store.read(d)).wrapping_mul(0x100_0000_01b3);
    }
    for d in t.writes() {
        *store.write(d) = h;
    }
}

/// Runs `configure(Executor)` with a state-hashing kernel — as a one-shot,
/// or (`reused`) as the second run of a flow compiled once; returns the
/// final store contents and the execution.
fn run_flow(
    graph: &TaskGraph,
    configure: impl Fn(Executor<'_>) -> Executor<'_>,
    reused: bool,
) -> (Vec<u64>, Execution) {
    let store = DataStore::filled(graph.num_data(), 0u64);
    let cfg = RioConfig::with_workers(3).wait(WaitStrategy::Park);
    let exec = configure(Executor::new(cfg));
    let kernel = |_: WorkerId, t: &TaskDesc| hash_kernel(&store, t);
    let run = if reused {
        let flow = exec.compile(graph);
        flow.run(|_, _| {});
        flow.run(kernel)
    } else {
        exec.run(graph, kernel)
    };
    (store.into_vec(), run)
}

fn run(
    graph: &TaskGraph,
    configure: impl Fn(Executor<'_>) -> Executor<'_>,
) -> (Vec<u64>, Execution) {
    run_flow(graph, configure, false)
}

#[test]
fn tracing_changes_neither_results_nor_op_counts() {
    let graph = workload();
    let oracle = {
        let store = DataStore::filled(graph.num_data(), 0u64);
        rio::stf::sequential::run_graph(&graph, |id| hash_kernel(&store, graph.task(id)));
        store.into_vec()
    };
    // Mapping kind × fresh/reused flow × tracing matrix: results (the
    // sequential oracle's) and protocol op counts must be invariant under
    // tracing everywhere.
    type Cfg<'a> = (&'a str, Box<dyn Fn(Executor<'_>) -> Executor<'_>>);
    static HALF: PartialFn<fn(TaskId, usize) -> Option<WorkerId>> =
        PartialFn(|t, w| (t.0 % 2 == 0).then(|| WorkerId((t.0 % w as u64) as u32)));
    let kinds: Vec<Cfg<'_>> = vec![
        ("total", Box::new(|e: Executor<'_>| e.mapping(&RoundRobin))),
        ("hybrid", Box::new(|e: Executor<'_>| e.hybrid(&Unmapped))),
        ("half-mapped", Box::new(|e: Executor<'_>| e.hybrid(&HALF))),
    ];
    let matrix = kinds
        .iter()
        .flat_map(|(kind, configure)| [false, true].map(|reused| (kind, configure, reused)));
    for (kind, configure, reused) in matrix {
        let name = format!("{kind}, {}", if reused { "reused" } else { "fresh" });
        let (plain_store, plain) = run_flow(&graph, configure, reused);
        let (traced_store, traced) =
            run_flow(&graph, |e| configure(e).trace(TraceConfig::new()), reused);
        assert_eq!(plain_store, oracle, "{name}: not the sequential result");
        assert_eq!(plain_store, traced_store, "{name}: results diverged");
        assert!(plain.trace.is_none(), "{name}: untraced run has no trace");
        let trace = traced
            .trace
            .unwrap_or_else(|| panic!("{name}: trace missing"));

        let p = plain.report.total_ops();
        let t = traced.report.total_ops();
        assert_eq!(p.declares, t.declares, "{name}: declares");
        assert_eq!(p.gets, t.gets, "{name}: gets");
        assert_eq!(p.terminates, t.terminates, "{name}: terminates");
        assert_eq!(
            plain.report.tasks_executed(),
            traced.report.tasks_executed(),
            "{name}: tasks"
        );

        // The trace's own counters agree with the report.
        assert_eq!(
            trace.workers.iter().map(|w| w.tasks).sum::<u64>(),
            traced.report.tasks_executed(),
            "{name}: trace task count"
        );
        assert_eq!(
            trace.workers.iter().map(|w| w.gets).sum::<u64>(),
            t.gets,
            "{name}: trace get count"
        );
    }
}

/// Task `i` of a mesh over 4 objects: reads `D_(i % 4)`, writes
/// `D_((i / 2) % 4)` — one read-write access when the two coincide.
fn mesh_task(i: u32) -> Vec<Access> {
    match (DataId(i % 4), DataId((i / 2) % 4)) {
        (r, w) if r == w => vec![Access::read_write(w)],
        (r, w) => vec![Access::read(r), Access::write(w)],
    }
}

/// The audit reads the trace, whichever front-end recorded it: a
/// one-shot `Executor`, the second run of a reused `CompiledFlow`, a run
/// whose every task is claimed, and the closure flow of `Rio`.
#[test]
fn the_trace_audits_a_mesh_on_every_front_end() {
    const TASKS: u32 = 200;
    let mut b = TaskGraph::builder(4);
    for i in 0..TASKS {
        b.task(&mesh_task(i), 1, "mesh");
    }
    let graph = b.build();
    let audit = |name: &str, trace: Option<Trace>| {
        let trace = trace.unwrap_or_else(|| panic!("{name}: trace missing"));
        assert_eq!(trace.spans().len(), TASKS as usize, "{name}");
        trace
            .audit(&graph)
            .unwrap_or_else(|v| panic!("{name}: {v}"));
    };
    fn traced(e: Executor<'_>) -> Executor<'_> {
        e.trace(TraceConfig::new())
    }
    let (_, one_shot) = run(&graph, |e| traced(e.mapping(&RoundRobin)));
    audit("one-shot", one_shot.trace);
    let (_, reused) = run_flow(&graph, |e| traced(e.mapping(&RoundRobin)), true);
    audit("reused", reused.trace);
    let (_, claimed) = run(&graph, |e| traced(e.hybrid(&Unmapped)));
    audit("hybrid", claimed.trace);

    let store = DataStore::filled(4, 0u64);
    let rio = Rio::new(RioConfig::with_workers(3).trace(TraceConfig::new()));
    let mut report = rio.run(&store, &RoundRobin, |ctx| {
        for i in 0..TASKS {
            ctx.task(&mesh_task(i), |_| {});
        }
    });
    audit("Rio", report.take_trace());
}

#[test]
fn quadruple_feeds_decompose_end_to_end() {
    let graph = workload();
    let (_, exec) = run(&graph, |e| e.mapping(&RoundRobin).trace(TraceConfig::new()));
    let trace = exec.trace.expect("trace present");
    let q = trace.quadruple();
    assert_eq!(q.threads, 3);
    assert!(q.wall > std::time::Duration::ZERO);

    // Use the traced wall clock as the sequential stand-in: every factor
    // must come out finite and positive.
    let d = rio::metrics::decompose(q.wall, q.wall, &q);
    for (label, e) in [
        ("e_g", d.e_g),
        ("e_l", d.e_l),
        ("e_p", d.e_p),
        ("e_r", d.e_r),
    ] {
        assert!(e.is_finite() && e > 0.0, "{label} = {e}");
    }
}

/// A run never writes files: whoever holds the trace exports it. A
/// compiled flow's trace and the centralized baseline's, each written with
/// `Trace::write_chrome`, read back byte-equal to `chrome_json()`.
#[test]
fn executor_writes_a_chrome_trace_file() {
    let graph = workload();
    let (_, exec) = run_flow(
        &graph,
        |e| e.mapping(&RoundRobin).trace(TraceConfig::new()),
        true,
    );
    let compiled = exec.trace.expect("a traced compiled run has a trace");
    let cfg = rio::centralized::CentralConfig::with_threads(3).trace(TraceConfig::new());
    let central = rio::centralized::execute_graph(&cfg, &graph, |_, _| {})
        .take_trace()
        .expect("a traced centralized run has a trace");

    for (name, trace) in [("compiled", compiled), ("centralized", central)] {
        let path = std::env::temp_dir().join(format!("rio-{name}-{}.json", std::process::id()));
        trace.write_chrome(&path).expect("trace file written");
        let json = std::fs::read_to_string(&path).expect("trace file read back");
        let _ = std::fs::remove_file(&path);
        assert!(
            json.starts_with("{\"traceEvents\":["),
            "{name} envelope: {json:.60}"
        );
        assert!(
            json.contains("\"ph\":\"X\""),
            "{name}: complete events present"
        );
        assert!(json.contains("thread_name"), "{name}: worker names present");
        assert_eq!(
            json,
            trace.chrome_json(),
            "{name}: file and exporter differ"
        );
    }
}

#[test]
fn per_data_wait_histograms_cover_contended_objects() {
    // One RW chain: every cross-worker handoff waits on data 0.
    let mut b = TaskGraph::builder(1);
    for _ in 0..200 {
        b.task(
            &[rio::stf::Access::read_write(rio::stf::DataId(0))],
            1,
            "inc",
        );
    }
    let graph = b.build();
    let (store, exec) = run(&graph, |e| e.mapping(&RoundRobin).trace(TraceConfig::new()));
    assert_eq!(store.len(), 1);
    let trace = exec.trace.expect("trace present");
    let per_data = trace.wait_histogram_per_data();
    let waited: u64 = per_data.values().map(|h| h.count()).sum();
    if waited > 0 {
        assert!(
            per_data.contains_key(&0),
            "all waits in this flow are on data 0"
        );
    }
    // Merged histogram counts every recorded wait, ring drops included.
    assert_eq!(
        trace.wait_histogram().count(),
        trace
            .workers
            .iter()
            .map(|w| w.wait_hist.count())
            .sum::<u64>()
    );
}
