//! Ablations of the design choices DESIGN.md calls out: wait strategy,
//! mapping quality, compile-once reuse, and the reduction extension.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rio_core::redux::{RAccess, ReduxRio};
use rio_core::{Executor, RioConfig, WaitStrategy};
use rio_stf::{Access, DataId, DataStore, RoundRobin, TableMapping, TaskGraph, WorkerId};
use rio_workloads::{independent, lu};

/// Wait strategies on a dependency-heavy flow (cross-worker RW chain).
fn bench_wait_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/wait-strategy");
    let n = 512;
    let mut b = TaskGraph::builder(2);
    for i in 0..n {
        b.task(&[Access::read_write(DataId((i % 2) as u32))], 1, "inc");
    }
    let graph = b.build();
    for wait in [WaitStrategy::Spin, WaitStrategy::Park] {
        let cfg = RioConfig::with_workers(2).wait(wait).measure_time(false);
        g.bench_with_input(BenchmarkId::from_parameter(wait), &graph, |bch, graph| {
            bch.iter(|| {
                Executor::new(cfg.clone())
                    .mapping(&RoundRobin)
                    .run(graph, |_, _| {})
            });
        });
    }
    g.finish();
}

/// Mapping quality on the LU DAG: owner-computes block-cyclic vs
/// round-robin vs everything-on-one-worker (the paper's "under the
/// condition of a proper task mapping").
fn bench_mapping_quality(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/mapping-quality");
    let grid = 8;
    let graph = lu::graph(grid, 64);
    let workers = 2;
    let cfg = RioConfig::with_workers(workers)
        .wait(WaitStrategy::Park)
        .measure_time(false);

    let owner = lu::mapping(grid, workers);
    g.bench_function("block-cyclic-owner", |bch| {
        bch.iter(|| {
            Executor::new(cfg.clone())
                .mapping(&owner)
                .run(&graph, |_, _| {})
        });
    });
    g.bench_function("round-robin", |bch| {
        bch.iter(|| {
            Executor::new(cfg.clone())
                .mapping(&RoundRobin)
                .run(&graph, |_, _| {})
        });
    });
    let degenerate = TableMapping::new(vec![WorkerId(0); graph.len()]);
    g.bench_function("all-on-one", |bch| {
        bch.iter(|| {
            Executor::new(cfg.clone())
                .mapping(&degenerate)
                .run(&graph, |_, _| {})
        });
    });
    g.finish();
}

/// One-shot vs reused flow on independent private-data tasks (the Fig. 7
/// regime).
fn bench_compile_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/compile-reuse");
    let n = 4096;
    let graph = independent::graph_private_data(n);
    let cfg = RioConfig::with_workers(4)
        .wait(WaitStrategy::Park)
        .measure_time(false);
    g.bench_function("oneshot", |bch| {
        bch.iter(|| {
            Executor::new(cfg.clone())
                .mapping(&RoundRobin)
                .run(&graph, |_, _| {})
        });
    });
    // Compile once outside the measurement loop: what a flow that runs
    // more than once pays per run.
    let flow = Executor::new(cfg.clone())
        .mapping(&RoundRobin)
        .compile(&graph);
    g.bench_function("compiled", |bch| {
        bch.iter(|| flow.run(|_, _| {}));
    });
    g.finish();
}

/// Hybrid (partial-mapping) execution: static round-robin vs fully
/// dynamic claiming on an *uneven* independent workload (every 16th task
/// is 64x heavier) — the regime where static mappings lose and claiming
/// self-balances.
fn bench_hybrid_claiming(c: &mut Criterion) {
    use rio_core::hybrid::{Total, Unmapped};
    use rio_workloads::counter::counter_kernel;
    let mut g = c.benchmark_group("ablation/hybrid-claiming");
    let mut b = TaskGraph::builder(0);
    for _ in 0..1024 {
        b.task(&[], 1, "t");
    }
    let graph = b.build();
    let body = |_: WorkerId, t: &rio_stf::TaskDesc| {
        let heavy = t.id.index().is_multiple_of(16);
        counter_kernel(if heavy { 16_384 } else { 256 });
    };
    let cfg = RioConfig::with_workers(2)
        .wait(WaitStrategy::Park)
        .measure_time(false);
    g.bench_function("static-round-robin", |bch| {
        bch.iter(|| {
            Executor::new(cfg.clone())
                .hybrid(&Total(RoundRobin))
                .run(&graph, body)
        });
    });
    g.bench_function("dynamic-claiming", |bch| {
        bch.iter(|| {
            Executor::new(cfg.clone())
                .hybrid(&Unmapped)
                .run(&graph, body)
        });
    });
    g.finish();
}

/// Reductions: strict sequential-consistency chain vs the commutative
/// accumulate extension.
fn bench_redux(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/reduction");
    let n = 512u32;

    let cfg = RioConfig::with_workers(2)
        .wait(WaitStrategy::Park)
        .measure_time(false);
    let rio = rio_core::Rio::new(cfg.clone());
    g.bench_function("strict-rw-chain", |bch| {
        bch.iter(|| {
            let store = DataStore::from_vec(vec![0u64]);
            rio.run(&store, &RoundRobin, |ctx| {
                for _ in 0..n {
                    ctx.task(&[Access::read_write(DataId(0))], |v| {
                        *v.write(DataId(0)) += 1;
                    });
                }
            });
        });
    });

    let redux = ReduxRio::new(cfg);
    g.bench_function("accumulate", |bch| {
        bch.iter(|| {
            let store = DataStore::from_vec(vec![0u64]);
            redux.run(&store, &RoundRobin, |ctx| {
                for _ in 0..n {
                    ctx.task(&[RAccess::accumulate(DataId(0))], |v| {
                        *v.accumulate(DataId(0)) += 1;
                    });
                }
            });
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_wait_strategies, bench_mapping_quality, bench_compile_reuse, bench_hybrid_claiming, bench_redux
}
criterion_main!(benches);
