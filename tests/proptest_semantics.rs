//! Property-based semantics tests: random task flows, every runtime must
//! match the sequential oracle; derived structures must satisfy their
//! invariants; the model checker must accept what the runtimes do.

use proptest::prelude::*;
use rio::centralized::CentralConfig;
use rio::core::RioConfig;
use rio::stf::deps::DepGraph;
use rio::stf::validate::validate_order;
use rio::stf::{
    Access, AccessMode, DataId, DataStore, RoundRobin, TaskDesc, TaskGraph, TaskId, WorkerId,
};
use std::sync::Mutex;

/// Strategy: a random well-formed task flow over `num_data` objects.
fn arb_graph(max_tasks: usize, num_data: usize) -> impl Strategy<Value = TaskGraph> {
    let access = (0..num_data as u32, 0..3u8).prop_map(|(d, m)| {
        let mode = match m {
            0 => AccessMode::Read,
            1 => AccessMode::Write,
            _ => AccessMode::ReadWrite,
        };
        Access::new(DataId(d), mode)
    });
    let task_accesses = proptest::collection::vec(access, 0..4).prop_map(move |mut accesses| {
        // Deduplicate data objects within a task (writes win over reads so
        // the flow stays well-formed and interesting).
        accesses.sort_by_key(|a| (a.data, a.mode.writes()));
        accesses.reverse();
        accesses.dedup_by_key(|a| a.data);
        accesses
    });
    proptest::collection::vec(task_accesses, 1..=max_tasks).prop_map(move |tasks| {
        let mut b = TaskGraph::builder(num_data);
        for accesses in tasks {
            b.task(&accesses, 1, "prop");
        }
        b.build()
    })
}

/// The state-hashing kernel: final store contents identify the schedule's
/// observable semantics.
fn hash_kernel(store: &DataStore<u64>, t: &TaskDesc) {
    let mut h = t.id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for d in t.reads() {
        h = (h ^ *store.read(d)).wrapping_mul(0x100_0000_01b3);
    }
    for d in t.writes() {
        *store.write(d) = h;
    }
}

fn run_sequential(graph: &TaskGraph) -> Vec<u64> {
    let store = DataStore::filled(graph.num_data(), 0u64);
    rio::stf::sequential::run_graph(graph, |tid| hash_kernel(&store, graph.task(tid)));
    store.into_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// RIO with any worker count equals the sequential oracle.
    #[test]
    fn rio_matches_sequential(graph in arb_graph(40, 5), workers in 1usize..5) {
        let expected = run_sequential(&graph);
        let store = DataStore::filled(graph.num_data(), 0u64);
        rio::core::Executor::new(RioConfig::with_workers(workers))
            .mapping(&RoundRobin)
            .run(&graph, |_: WorkerId, t: &TaskDesc| hash_kernel(&store, t));
        prop_assert_eq!(store.into_vec(), expected);
    }

    /// The centralized baseline equals the sequential oracle.
    #[test]
    fn centralized_matches_sequential(graph in arb_graph(40, 5), threads in 2usize..5) {
        let expected = run_sequential(&graph);
        let store = DataStore::filled(graph.num_data(), 0u64);
        let cfg = CentralConfig::with_threads(threads);
        rio::centralized::execute_graph(&cfg, &graph, |_, t| hash_kernel(&store, t));
        prop_assert_eq!(store.into_vec(), expected);
    }

    /// The centralized runtime's completion order is a sequentially
    /// consistent schedule of the flow.
    #[test]
    fn centralized_completion_order_is_valid(graph in arb_graph(30, 4)) {
        let order = Mutex::new(Vec::new());
        let cfg = CentralConfig::with_threads(3);
        rio::centralized::execute_graph(&cfg, &graph, |_, t| {
            order.lock().unwrap().push(t.id);
        });
        let order = order.into_inner().unwrap();
        prop_assert!(validate_order(&graph, &order).is_ok());
    }

    /// RIO's completion order is a sequentially consistent schedule too.
    #[test]
    fn rio_completion_order_is_valid(graph in arb_graph(30, 4), workers in 1usize..4) {
        let order = Mutex::new(Vec::new());
        rio::core::Executor::new(RioConfig::with_workers(workers))
            .mapping(&RoundRobin)
            .run(&graph, |_, t| {
                order.lock().unwrap().push(t.id);
            });
        let order = order.into_inner().unwrap();
        prop_assert!(validate_order(&graph, &order).is_ok());
    }

    /// Derived dependency DAGs always respect flow order (acyclicity).
    #[test]
    fn dep_graph_edges_respect_flow_order(graph in arb_graph(60, 6)) {
        let dg = DepGraph::derive(&graph);
        prop_assert!(dg.edges_respect_flow_order());
        // succs/preds are mutually consistent.
        for t in graph.tasks() {
            for &p in dg.preds(t.id) {
                prop_assert!(dg.succs(p).contains(&t.id));
            }
        }
    }

    /// Flow order itself always validates (it is the canonical schedule).
    #[test]
    fn flow_order_is_always_a_valid_schedule(graph in arb_graph(50, 5)) {
        let order: Vec<TaskId> = (0..graph.len()).map(TaskId::from_index).collect();
        prop_assert!(validate_order(&graph, &order).is_ok());
    }

    /// Small random flows pass the model checker: termination, race
    /// freedom and RIO ⊆ STF refinement.
    #[test]
    fn model_checker_accepts_random_flows(graph in arb_graph(8, 3), workers in 1usize..3) {
        let stf = rio::mc::explore_stf(&graph, workers);
        prop_assert!(stf.ok(), "STF: {:?}", stf);
        let rio_r = rio::mc::explore_rio(&graph, workers);
        prop_assert!(rio_r.ok(), "RIO: {:?}", rio_r);
        let refinement = rio::mc::rio_spec::check_refinement(&graph, workers, &RoundRobin);
        prop_assert!(refinement.ok(), "{:?}", refinement.violations);
        // In-order restriction: RIO never explores more distinct states.
        prop_assert!(rio_r.distinct <= stf.distinct);
    }

    /// The implementation protocol (Algorithm 1/2 micro-steps) is also
    /// race-free and deadlock-free on small random flows — the loom-style
    /// exhaustive-interleaving check.
    #[test]
    fn protocol_spec_accepts_random_flows(graph in arb_graph(7, 3), workers in 1usize..4) {
        let r = rio::mc::explore_protocol(&graph, workers);
        prop_assert!(r.ok(), "protocol: {:?}", r.violations);
    }

    /// The hybrid executor (fully dynamic claiming) matches the sequential
    /// oracle on random flows.
    #[test]
    fn hybrid_claiming_matches_sequential(graph in arb_graph(35, 5), workers in 1usize..5) {
        use rio::core::hybrid::Unmapped;
        let expected = run_sequential(&graph);
        let store = DataStore::filled(graph.num_data(), 0u64);
        rio::core::Executor::new(RioConfig::with_workers(workers))
            .hybrid(&Unmapped)
            .run(&graph, |_: WorkerId, t: &TaskDesc| hash_kernel(&store, t));
        prop_assert_eq!(store.into_vec(), expected);
    }

    /// Random walks over the protocol model stay clean on medium random
    /// flows (sizes past the exhaustive checker's comfort zone).
    #[test]
    fn protocol_walks_stay_clean(graph in arb_graph(30, 4), seed in 0u64..1000) {
        let spec = rio::mc::ProtocolSpec::new(&graph, 2, &RoundRobin);
        let r = rio::mc::random_walks(&spec, 5, 50_000, seed);
        prop_assert!(r.ok(), "{:?}", r.violations);
        prop_assert_eq!(r.truncated, 0);
    }

    /// Pre-flight robustness: a mapping that sends any one task out of
    /// range is rejected with `ExecError::InvalidMapping` naming that
    /// task — before a single worker spawns or kernel runs — whether it
    /// is given as a total mapping or dressed as a partial one.
    #[test]
    fn out_of_range_mappings_are_rejected_before_any_worker_spawns(
        graph in arb_graph(30, 4),
        workers in 1usize..5,
        excess in 0u32..3,
        bad_seed in 0usize..1000,
        as_partial in 0u8..2,
    ) {
        struct OneBad { bad: usize, excess: u32 }
        impl rio::stf::Mapping for OneBad {
            fn worker_of(&self, task: TaskId, workers: usize) -> WorkerId {
                if task.index() == self.bad {
                    WorkerId(workers as u32 + self.excess)
                } else {
                    WorkerId::from_index(task.index() % workers)
                }
            }
        }
        let bad = bad_seed % graph.len();
        let mapping = OneBad { bad, excess };
        let ran = std::sync::atomic::AtomicU64::new(0);
        let partial = rio::core::hybrid::Total(&mapping);
        let exec = rio::core::Executor::new(RioConfig::with_workers(workers));
        let exec = if as_partial == 1 { exec.hybrid(&partial) } else { exec.mapping(&mapping) };
        let err = exec
            .try_run(&graph, |_, _| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })
            .expect_err("an out-of-range mapping must fail pre-flight");
        prop_assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 0);
        match err {
            rio::stf::ExecError::InvalidMapping(rio::stf::MappingError::OutOfRange {
                task, worker, workers: w,
            }) => {
                prop_assert_eq!(task, TaskId::from_index(bad));
                prop_assert_eq!(worker, WorkerId(workers as u32 + excess));
                prop_assert_eq!(w, workers);
            }
            other => prop_assert!(false, "expected OutOfRange, got {}", other),
        }
    }

    /// Pre-flight robustness: a mapping whose two probes disagree on any
    /// one task is rejected as non-deterministic before any kernel runs.
    #[test]
    fn non_deterministic_mappings_are_rejected_before_any_worker_spawns(
        graph in arb_graph(30, 4),
        workers in 2usize..5,
        bad_seed in 0usize..1000,
        as_partial in 0u8..2,
    ) {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Answers W0, W1, W0, ... on successive probes of the chosen task
        // (both in range, so only determinism can reject it); honest
        // everywhere else.
        struct Flaky { bad: usize, calls: AtomicU32 }
        impl rio::stf::Mapping for Flaky {
            fn worker_of(&self, task: TaskId, workers: usize) -> WorkerId {
                if task.index() == self.bad {
                    WorkerId(self.calls.fetch_add(1, Ordering::Relaxed) % 2)
                } else {
                    WorkerId::from_index(task.index() % workers)
                }
            }
        }
        let bad = bad_seed % graph.len();
        let mapping = Flaky { bad, calls: AtomicU32::new(0) };
        let ran = std::sync::atomic::AtomicU64::new(0);
        let partial = rio::core::hybrid::Total(&mapping);
        let exec = rio::core::Executor::new(RioConfig::with_workers(workers));
        let exec = if as_partial == 1 { exec.hybrid(&partial) } else { exec.mapping(&mapping) };
        let err = exec
            .try_run(&graph, |_, _| {
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })
            .expect_err("a non-deterministic mapping must fail pre-flight");
        prop_assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 0);
        match err {
            rio::stf::ExecError::InvalidMapping(rio::stf::MappingError::NonDeterministic {
                task, first, second,
            }) => {
                prop_assert_eq!(task, TaskId::from_index(bad));
                prop_assert_eq!(first, WorkerId(0));
                prop_assert_eq!(second, WorkerId(1));
            }
            other => prop_assert!(false, "expected NonDeterministic, got {}", other),
        }
    }

    /// Graph statistics invariants: the critical path is between 1 and n,
    /// and cost-weighted paths are bounded by total cost.
    #[test]
    fn stats_invariants(graph in arb_graph(50, 5)) {
        let s = graph.stats();
        prop_assert!(s.critical_path_tasks >= 1);
        prop_assert!(s.critical_path_tasks <= graph.len() as u64);
        prop_assert!(s.critical_path_cost <= s.total_cost);
        prop_assert!(s.avg_parallelism >= 1.0 - 1e-12);
    }
}
