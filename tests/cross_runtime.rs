//! Cross-runtime equivalence: by the sequential-consistency guarantee of
//! the STF model, every runtime in the workspace must produce bit-identical
//! results to the sequential reference executor on the same flow.

use rio::centralized::CentralConfig;
use rio::core::{Executor, RioConfig};
use rio::stf::{DataStore, Mapping, RoundRobin, TaskDesc, TaskGraph, WorkerId};
use rio::workloads::random_deps::{self, RandomDepsConfig};

/// Runs `graph` with a state-hashing kernel on all three executors and
/// returns the three final store contents. The RIO leg runs twice — the
/// one-shot `Executor::run`, and the second run of a flow compiled once —
/// and the two must agree.
///
/// Each task writes `hash(task_id, values it reads)` into its written
/// data objects, so the final state is sensitive to any ordering
/// violation while remaining identical across all valid schedules.
fn run_all_three<M: Mapping>(
    graph: &TaskGraph,
    mapping: &M,
    workers: usize,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    fn kernel(store: &DataStore<u64>, t: &TaskDesc) {
        let mut h = t.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for d in t.reads() {
            let v = *store.read(d);
            h = (h ^ v).wrapping_mul(0x100_0000_01b3);
        }
        for d in t.writes() {
            *store.write(d) = h;
        }
    }

    let seq_store = DataStore::filled(graph.num_data(), 0u64);
    rio::stf::sequential::run_graph(graph, |tid| kernel(&seq_store, graph.task(tid)));
    let seq = seq_store.into_vec();

    let exec = Executor::new(RioConfig::with_workers(workers)).mapping(mapping);
    let rio_store = DataStore::filled(graph.num_data(), 0u64);
    exec.run(graph, |_: WorkerId, t: &TaskDesc| kernel(&rio_store, t));
    let rio = rio_store.into_vec();
    let reused_store = DataStore::filled(graph.num_data(), 0u64);
    let flow = exec.compile(graph);
    flow.run(|_, _| {});
    flow.run(|_, t| kernel(&reused_store, t));
    assert_eq!(reused_store.into_vec(), rio, "a reused flow diverged");

    let cen_store = DataStore::filled(graph.num_data(), 0u64);
    let cfg = CentralConfig::with_threads(workers.max(2));
    rio::centralized::execute_graph(&cfg, graph, |_, t| kernel(&cen_store, t));
    let cen = cen_store.into_vec();

    (seq, rio, cen)
}

#[test]
fn random_dependency_flows_agree_across_runtimes() {
    for seed in [1u64, 2, 3, 4, 5] {
        let graph = random_deps::graph(&RandomDepsConfig {
            tasks: 400,
            num_data: 32,
            reads_per_task: 2,
            writes_per_task: 1,
            seed,
        });
        let (seq, rio, cen) = run_all_three(&graph, &RoundRobin, 3);
        assert_eq!(seq, rio, "RIO diverged from sequential (seed {seed})");
        assert_eq!(seq, cen, "centralized diverged (seed {seed})");
    }
}

#[test]
fn lu_dag_agrees_across_runtimes() {
    let grid = 6;
    let graph = rio::workloads::lu::graph(grid, 1);
    let mapping = rio::workloads::lu::mapping(grid, 4);
    let (seq, rio_r, cen) = run_all_three(&graph, &mapping, 4);
    assert_eq!(seq, rio_r);
    assert_eq!(seq, cen);
}

#[test]
fn matmul_dag_agrees_across_runtimes() {
    let grid = 5;
    let graph = rio::workloads::matmul::graph(grid, 1);
    let mapping = rio::workloads::matmul::mapping(grid, 3);
    let (seq, rio_r, cen) = run_all_three(&graph, &mapping, 3);
    assert_eq!(seq, rio_r);
    assert_eq!(seq, cen);
}

#[test]
fn cholesky_dag_agrees_across_runtimes() {
    let grid = 6;
    let graph = rio::workloads::cholesky::graph(grid, 1);
    let mapping = rio::workloads::cholesky::mapping(grid, 3);
    let (seq, rio_r, cen) = run_all_three(&graph, &mapping, 3);
    assert_eq!(seq, rio_r);
    assert_eq!(seq, cen);
}

#[test]
fn stencil_dag_agrees_across_runtimes() {
    let graph = rio::workloads::stencil::graph(16, 6, 1);
    let mapping = rio::workloads::stencil::mapping(16, 6, 4);
    let (seq, rio_r, cen) = run_all_three(&graph, &mapping, 4);
    assert_eq!(seq, rio_r);
    assert_eq!(seq, cen);
}

#[test]
fn real_matmul_same_product_on_all_runtimes() {
    use rio::dense::{tiled_gemm_flow, Matrix};

    let n = 96;
    let tile = 24;
    let flow = tiled_gemm_flow(n / tile, tile);
    let a = Matrix::random(n, n, 5);
    let b = Matrix::random(n, n, 6);
    let expected = a.matmul_naive(&b);

    // RIO.
    let store = flow.make_store(&a, &b);
    let kernel = flow.kernel(&store);
    let mapping = flow.owner_mapping(3);
    Executor::new(RioConfig::with_workers(3))
        .mapping(&mapping)
        .run(&flow.graph, &kernel);
    drop(kernel);
    assert!(flow.extract_c(&store).max_abs_diff(&expected) < 1e-10);

    // Centralized.
    let store = flow.make_store(&a, &b);
    let kernel = flow.kernel(&store);
    rio::centralized::execute_graph(&CentralConfig::with_threads(3), &flow.graph, &kernel);
    drop(kernel);
    assert!(flow.extract_c(&store).max_abs_diff(&expected) < 1e-10);
}

#[test]
fn real_lu_same_factorization_on_all_runtimes() {
    use rio::dense::{getrf_inplace, tiled_lu_flow, Matrix};

    let n = 80;
    let tile = 16;
    let flow = tiled_lu_flow(n / tile, tile);
    let a = Matrix::random_diag_dominant(n, 13);
    let mut reference = a.clone();
    getrf_inplace(&mut reference);

    let store = flow.make_store(&a);
    let kernel = flow.kernel(&store);
    let mapping = flow.owner_mapping(4);
    Executor::new(RioConfig::with_workers(4))
        .mapping(&mapping)
        .run(&flow.graph, &kernel);
    drop(kernel);
    assert!(flow.extract(&store).max_abs_diff(&reference) < 1e-10);

    let store = flow.make_store(&a);
    let kernel = flow.kernel(&store);
    rio::centralized::execute_graph(&CentralConfig::with_threads(4), &flow.graph, &kernel);
    drop(kernel);
    assert!(flow.extract(&store).max_abs_diff(&reference) < 1e-10);
}

#[test]
fn hybrid_agrees_with_sequential_on_workload_dags() {
    use rio::core::hybrid::Unmapped;
    let graph = rio::workloads::lu::graph(5, 1);
    let seq = {
        let store = DataStore::filled(graph.num_data(), 0u64);
        rio::stf::sequential::run_graph(&graph, |tid| {
            let t = graph.task(tid);
            let mut h = t.id.0;
            for d in t.reads() {
                h = h.wrapping_mul(31).wrapping_add(*store.read(d));
            }
            for d in t.writes() {
                *store.write(d) = h;
            }
        });
        store.into_vec()
    };
    let store = DataStore::filled(graph.num_data(), 0u64);
    Executor::new(RioConfig::with_workers(3))
        .hybrid(&Unmapped)
        .run(&graph, |_, t: &TaskDesc| {
            let mut h = t.id.0;
            for d in t.reads() {
                h = h.wrapping_mul(31).wrapping_add(*store.read(d));
            }
            for d in t.writes() {
                *store.write(d) = h;
            }
        });
    assert_eq!(store.into_vec(), seq);
}
