//! Per-task runtime overhead: both runtimes executing independent empty
//! tasks (the Fig. 6 regime at the smallest granularity, where wall time
//! is pure management cost).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rio_centralized::CentralConfig;
use rio_core::{Executor, RioConfig, TraceConfig, WaitStrategy};
use rio_stf::RoundRobin;
use rio_workloads::independent;

fn bench_per_task_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("overhead/independent-empty-tasks");
    for &n in &[256usize, 1024, 4096] {
        let graph = independent::graph(n);
        g.throughput(Throughput::Elements(n as u64));

        let rio_cfg = RioConfig::with_workers(2)
            .wait(WaitStrategy::Park)
            .measure_time(false);
        g.bench_with_input(BenchmarkId::new("rio", n), &graph, |b, graph| {
            b.iter(|| {
                Executor::new(rio_cfg.clone())
                    .mapping(&RoundRobin)
                    .run(graph, |_, _| {})
            });
        });

        let rio1_cfg = RioConfig::with_workers(1)
            .wait(WaitStrategy::Park)
            .measure_time(false);
        g.bench_with_input(BenchmarkId::new("rio-1worker", n), &graph, |b, graph| {
            b.iter(|| {
                Executor::new(rio1_cfg.clone())
                    .mapping(&RoundRobin)
                    .run(graph, |_, _| {})
            });
        });

        let cen_cfg = CentralConfig::with_threads(2).measure_time(false);
        g.bench_with_input(BenchmarkId::new("centralized", n), &graph, |b, graph| {
            b.iter(|| rio_centralized::execute_graph(&cen_cfg, graph, |_, _| {}));
        });

        // Sequential floor: the flow with no runtime at all.
        g.bench_with_input(BenchmarkId::new("sequential", n), &graph, |b, graph| {
            b.iter(|| rio_stf::sequential::run_graph(graph, |_| {}));
        });
    }
    g.finish();
}

fn bench_dependent_chain(c: &mut Criterion) {
    // A single RW chain: worst case for cross-worker handoff.
    use rio_stf::{Access, DataId, TaskGraph};
    let mut g = c.benchmark_group("overhead/rw-chain");
    let n = 1024;
    let mut b = TaskGraph::builder(1);
    for _ in 0..n {
        b.task(&[Access::read_write(DataId(0))], 1, "inc");
    }
    let graph = b.build();
    g.throughput(Throughput::Elements(n as u64));

    let rio_cfg = RioConfig::with_workers(2)
        .wait(WaitStrategy::Park)
        .measure_time(false);
    g.bench_function("rio-2workers-roundrobin", |bch| {
        bch.iter(|| {
            Executor::new(rio_cfg.clone())
                .mapping(&RoundRobin)
                .run(&graph, |_, _| {})
        });
    });

    // Same chain entirely on one worker: no handoffs at all.
    let all_on_0 = rio_stf::TableMapping::new(vec![rio_stf::WorkerId(0); n]);
    g.bench_function("rio-2workers-single-owner", |bch| {
        bch.iter(|| {
            Executor::new(rio_cfg.clone())
                .mapping(&all_on_0)
                .run(&graph, |_, _| {})
        });
    });

    let cen_cfg = CentralConfig::with_threads(2).measure_time(false);
    g.bench_function("centralized", |bch| {
        bch.iter(|| rio_centralized::execute_graph(&cen_cfg, &graph, |_, _| {}));
    });
    g.finish();
}

fn bench_trace_overhead(c: &mut Criterion) {
    // Acceptance gate for the observability layer: with the `trace`
    // feature compiled in but tracing *not requested at runtime* (the
    // default), per-task cost must stay within noise (<2%) of the seed's
    // untraced runtime — compare `runtime-off` here against
    // `overhead/independent-empty-tasks/rio`. `runtime-on` shows the
    // price of actually recording events.
    let n = 4096usize;
    let graph = independent::graph(n);
    let mut g = c.benchmark_group("overhead/tracing");
    g.throughput(Throughput::Elements(n as u64));

    let cfg = RioConfig::with_workers(2)
        .wait(WaitStrategy::Park)
        .measure_time(false);
    g.bench_function("runtime-off", |bch| {
        bch.iter(|| {
            Executor::new(cfg.clone())
                .mapping(&RoundRobin)
                .run(&graph, |_, _| {})
        });
    });
    g.bench_function("runtime-on", |bch| {
        bch.iter(|| {
            Executor::new(cfg.clone())
                .mapping(&RoundRobin)
                .trace(TraceConfig::new())
                .run(&graph, |_, _| {})
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_per_task_overhead, bench_dependent_chain, bench_trace_overhead
}
criterion_main!(benches);
