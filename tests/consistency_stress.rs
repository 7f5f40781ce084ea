//! Stress tests: larger flows, oversubscribed workers, adversarial
//! mappings — with the data-store race detector armed on every access and
//! execution spans audited against the STF semantics (from the kernel's
//! own clock, or from the run's trace).

use std::sync::Mutex;
use std::time::Instant;

use rio::core::{Executor, RioConfig, TraceConfig, WaitStrategy};
use rio::stf::validate::{validate_spans, Span};
use rio::stf::{DataStore, RoundRobin, TableMapping, TaskDesc, WorkerId};
use rio::workloads::random_deps::{self, RandomDepsConfig};

#[test]
fn rio_spans_are_race_free_on_dense_random_flows() {
    // Dense conflicts: only 8 data objects for 600 tasks.
    let graph = random_deps::graph(&RandomDepsConfig {
        tasks: 600,
        num_data: 8,
        reads_per_task: 2,
        writes_per_task: 1,
        seed: 99,
    });
    for workers in [2, 3, 5] {
        let spans = Mutex::new(Vec::new());
        let epoch = Instant::now();
        let ex = Executor::new(RioConfig::with_workers(workers)).mapping(&RoundRobin);
        ex.run(&graph, |_, t| {
            let start = epoch.elapsed().as_nanos() as u64;
            std::hint::black_box(t.id);
            let end = epoch.elapsed().as_nanos() as u64 + 1;
            spans.lock().unwrap().push(Span {
                task: t.id,
                start,
                end,
            });
        });
        let spans = spans.into_inner().unwrap();
        validate_spans(&graph, &spans).unwrap_or_else(|v| panic!("{workers} workers: {v}"));
    }
}

#[test]
fn oversubscription_stays_live_with_park_waits() {
    // Far more workers than cores (this box may have a single core):
    // the Park strategy must keep the run live.
    let graph = random_deps::graph(&RandomDepsConfig {
        tasks: 300,
        num_data: 16,
        reads_per_task: 2,
        writes_per_task: 1,
        seed: 5,
    });
    let cfg = RioConfig::with_workers(8).wait(WaitStrategy::Park);
    let store = DataStore::filled(16, 0u64);
    let report = Executor::new(cfg)
        .mapping(&RoundRobin)
        .run(&graph, |_, t: &TaskDesc| {
            for d in t.writes() {
                *store.write(d) += 1;
            }
        })
        .report;
    assert_eq!(report.tasks_executed(), 300);
    let total: u64 = store.into_vec().iter().sum();
    assert_eq!(total, 300);
}

#[test]
fn adversarial_mapping_is_slow_but_correct() {
    // Everything on the last worker: the others' programs are empty.
    let graph = random_deps::graph(&RandomDepsConfig {
        tasks: 200,
        num_data: 8,
        reads_per_task: 2,
        writes_per_task: 1,
        seed: 7,
    });
    let m = TableMapping::new(vec![WorkerId(3); graph.len()]);
    let report = Executor::new(RioConfig::with_workers(4))
        .mapping(&m)
        .run(&graph, |_, _| {})
        .report;
    assert_eq!(report.workers[3].tasks_executed, 200);
    assert_eq!(report.workers[3].ops.gets as usize, graph.total_accesses());
    for w in 0..3 {
        assert_eq!(report.workers[w].tasks_executed, 0);
        assert_eq!(report.workers[w].tasks_visited, 0);
        assert_eq!(report.workers[w].ops, Default::default());
    }
}

#[test]
fn flow_api_stress_with_many_objects() {
    // 64 counters, 2000 interleaved increment tasks through the typed API.
    let n_data = 64u32;
    let tasks = 2000u32;
    let store = DataStore::filled(n_data as usize, 0u64);
    let rio = rio::core::Rio::new(RioConfig::with_workers(4));
    rio.run(&store, &RoundRobin, |ctx| {
        for i in 0..tasks {
            let d = rio::stf::DataId(i % n_data);
            ctx.task(&[rio::stf::Access::read_write(d)], |v| {
                *v.write(d) += 1;
            });
        }
    });
    let values = store.into_vec();
    for (i, v) in values.iter().enumerate() {
        let expected = u64::from(tasks / n_data) + u64::from((i as u32) < tasks % n_data);
        assert_eq!(*v, expected, "counter {i}");
    }
}

#[test]
fn wait_strategies_agree_under_contention() {
    let graph = random_deps::graph(&RandomDepsConfig {
        tasks: 300,
        num_data: 4, // heavy contention
        reads_per_task: 1,
        writes_per_task: 1,
        seed: 21,
    });
    let mut results = Vec::new();
    for wait in [WaitStrategy::Spin, WaitStrategy::Park] {
        let store = DataStore::filled(4, 0u64);
        let cfg = RioConfig::with_workers(3).wait(wait);
        Executor::new(cfg)
            .mapping(&RoundRobin)
            .run(&graph, |_, t: &TaskDesc| {
                let mut h = t.id.0;
                for d in t.reads() {
                    h = h.wrapping_mul(31).wrapping_add(*store.read(d));
                }
                for d in t.writes() {
                    *store.write(d) = h;
                }
            });
        results.push(store.into_vec());
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn centralized_stress_with_tiny_window() {
    // A 1-deep submission window forces full serialization of submission
    // against completion — correctness must be unaffected.
    let graph = random_deps::graph(&RandomDepsConfig {
        tasks: 250,
        num_data: 8,
        reads_per_task: 2,
        writes_per_task: 1,
        seed: 33,
    });
    let store = DataStore::filled(8, 0u64);
    let cfg = rio::centralized::CentralConfig::with_threads(3).window(Some(1));
    let report = rio::centralized::execute_graph(&cfg, &graph, |_, t| {
        for d in t.writes() {
            *store.write(d) += 1;
        }
    });
    assert_eq!(report.tasks_executed(), 250);
    assert_eq!(store.into_vec().iter().sum::<u64>(), 250);
}

#[test]
fn redux_reduction_under_oversubscription() {
    use rio::core::redux::{RAccess, ReduxRio};
    let store = DataStore::from_vec(vec![0u64]);
    let rio = ReduxRio::new(RioConfig::with_workers(6));
    rio.run(&store, &RoundRobin, |ctx| {
        for i in 1..=2000u64 {
            ctx.task(&[RAccess::accumulate(rio::stf::DataId(0))], move |v| {
                *v.accumulate(rio::stf::DataId(0)) += i;
            });
        }
    });
    assert_eq!(store.into_vec(), vec![2000 * 2001 / 2]);
}

#[test]
fn built_in_span_audit_rio() {
    let graph = random_deps::graph(&RandomDepsConfig {
        tasks: 400,
        num_data: 12,
        reads_per_task: 2,
        writes_per_task: 1,
        seed: 64,
    });
    let run = Executor::new(RioConfig::with_workers(3))
        .mapping(&RoundRobin)
        .trace(TraceConfig::new())
        .run(&graph, |_, _| {
            std::hint::black_box(0u64);
        });
    let trace = run.trace.expect("a traced run returns its trace");
    assert_eq!(trace.spans().len(), 400);
    trace.audit(&graph).expect("RIO run must be consistent");
}

#[test]
fn built_in_span_audit_centralized() {
    let graph = random_deps::graph(&RandomDepsConfig {
        tasks: 400,
        num_data: 12,
        reads_per_task: 2,
        writes_per_task: 1,
        seed: 65,
    });
    let cfg = rio::centralized::CentralConfig::with_threads(3).trace(TraceConfig::new());
    let mut report = rio::centralized::execute_graph(&cfg, &graph, |_, _| {
        std::hint::black_box(0u64);
    });
    let trace = report.take_trace().expect("a traced run has a trace");
    assert_eq!(trace.spans().len(), 400);
    trace
        .audit(&graph)
        .expect("centralized run must be consistent");
}

#[test]
fn flow_api_spans_are_recorded_and_consistent() {
    use rio::stf::{Access, DataId};
    let store = DataStore::from_vec(vec![0u64; 4]);
    let rio = rio::core::Rio::new(RioConfig::with_workers(3).trace(TraceConfig::new()));
    // Rebuild the equivalent graph for auditing.
    let mut b = rio::stf::TaskGraph::builder(4);
    for i in 0..200u32 {
        b.task(&[Access::read_write(DataId(i % 4))], 1, "inc");
    }
    let graph = b.build();
    let mut report = rio.run(&store, &RoundRobin, |ctx| {
        for i in 0..200u32 {
            let d = DataId(i % 4);
            ctx.task(&[Access::read_write(d)], |v| {
                *v.write(d) += 1;
            });
        }
    });
    let trace = report.take_trace().expect("a traced run has a trace");
    assert_eq!(trace.spans().len(), 200);
    rio::stf::validate::validate_spans(&graph, &trace.spans())
        .expect("flow-API spans must be consistent");
}

/// A ring too small for the run drops task events, and the audit says so
/// instead of passing on what survived.
#[test]
fn audit_without_recording_reports_missing_tasks() {
    let graph = rio::workloads::independent::graph(10);
    let run = Executor::new(RioConfig::with_workers(2))
        .mapping(&RoundRobin)
        .trace(TraceConfig::new().with_capacity(2))
        .run(&graph, |_, _| {});
    let trace = run.trace.expect("a traced run returns its trace");
    assert!(trace.dropped() > 0);
    assert!(
        matches!(
            trace.audit(&graph),
            Err(rio::stf::validate::ScheduleViolation::NotAPermutation { missing: 6, .. })
        ),
        "two spans per worker survive: not a permutation"
    );
}
