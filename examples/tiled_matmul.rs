//! Tiled matrix multiplication with real kernels on all three execution
//! models, verified against the naive product.
//!
//! Run with: `cargo run --release --example tiled_matmul [n] [tile]`
//!
//! This is the paper's Experiment-3 dependency graph executed with actual
//! DGEMM tile kernels: sequentially (the oracle), on the decentralized
//! in-order RIO runtime with a 2-D block-cyclic owner-computes mapping,
//! and on the centralized out-of-order baseline.

use std::time::Instant;

use rio::centralized::CentralConfig;
use rio::core::{Executor, RioConfig};
use rio::dense::{tiled_gemm_flow, Matrix};
use rio::stf::WorkerId;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let tile: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    assert!(n.is_multiple_of(tile), "tile must divide n");
    let workers = 4;

    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let flow = tiled_gemm_flow(n / tile, tile);
    println!(
        "C = A·B with n={n}, tile={tile}: {} tasks over {} tiles",
        flow.graph.len(),
        flow.graph.num_data()
    );

    // Oracle.
    let t0 = Instant::now();
    let expected = a.matmul_naive(&b);
    println!("naive reference: {:?}", t0.elapsed());

    // Sequential tiled execution.
    let store = flow.make_store(&a, &b);
    let kernel = flow.kernel(&store);
    let t0 = Instant::now();
    rio::stf::sequential::run_graph(&flow.graph, |t| kernel(WorkerId(0), flow.graph.task(t)));
    let seq = t0.elapsed();
    drop(kernel);
    let c = flow.extract_c(&store);
    assert!(c.max_abs_diff(&expected) < 1e-9, "sequential tiled wrong");
    println!("sequential tiled: {seq:?} (verified)");

    // RIO, owner-computes block-cyclic mapping.
    let store = flow.make_store(&a, &b);
    let kernel = flow.kernel(&store);
    let mapping = flow.owner_mapping(workers);
    let t0 = Instant::now();
    // Timing is opt-in: the idle figure below needs `measure_time`.
    let report = Executor::new(RioConfig::with_workers(workers).measure_time(true))
        .mapping(&mapping)
        .run(&flow.graph, &kernel)
        .report;
    let rio_t = t0.elapsed();
    drop(kernel);
    let c = flow.extract_c(&store);
    assert!(c.max_abs_diff(&expected) < 1e-9, "RIO result wrong");
    println!(
        "RIO ({workers} workers, block-cyclic): {rio_t:?} (verified), idle {:?}",
        report.cumulative_idle_time()
    );

    // Centralized baseline.
    let store = flow.make_store(&a, &b);
    let kernel = flow.kernel(&store);
    let cfg = CentralConfig::with_threads(workers);
    let t0 = Instant::now();
    rio::centralized::execute_graph(&cfg, &flow.graph, &kernel);
    let cen_t = t0.elapsed();
    drop(kernel);
    let c = flow.extract_c(&store);
    assert!(c.max_abs_diff(&expected) < 1e-9, "centralized result wrong");
    println!("centralized ({workers} threads incl. master): {cen_t:?} (verified)");
}
