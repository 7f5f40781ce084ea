//! Property: NUMA placement never changes results (DESIGN.md §15).
//!
//! The node-local compiled arenas are pure layout: which arena slice a
//! worker scans must not affect what the run computes. For random small
//! flows and mock topology shapes {none, 1×N, 2×N, 4×N}, a run produces
//! the per-datum stores and the per-datum *writer* order of the flow run
//! sequentially, under every wait strategy, on a fresh and on a reused
//! flow.
//!
//! (Only writers are compared: readers within one epoch are legitimately
//! unordered even between two identical baseline runs. Since every
//! writer mutates its object deterministically from the previous value,
//! identical stores ⟺ identical writer order — the two assertions
//! cross-check each other.)

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rio_core::{Executor, RioConfig, Topology, WaitStrategy};
use rio_stf::{Access, DataId, DataStore, RoundRobin, TaskGraph};

const NUM_DATA: usize = 5;

/// Decodes one task per seed: 1–3 distinct objects, each accessed
/// read / write / read-write, with a small random cost hint.
fn graph_from(seeds: &[u64]) -> TaskGraph {
    let mut b = TaskGraph::builder(NUM_DATA);
    for &s in seeds {
        let mut acc: Vec<Access> = Vec::new();
        let n = 1 + (s % 3) as usize;
        let mut x = s / 3;
        for _ in 0..n {
            let d = DataId((x % NUM_DATA as u64) as u32);
            x /= NUM_DATA as u64;
            if acc.iter().any(|a| a.data == d) {
                continue;
            }
            acc.push(match x % 3 {
                0 => Access::read(d),
                1 => Access::write(d),
                _ => Access::read_write(d),
            });
            x /= 3;
        }
        b.task(&acc, 1 + s % 7, "p");
    }
    b.build()
}

/// Runs `g` — under `cfg` as a one-shot or (`reused`) as the second run
/// of a flow compiled once; sequentially without a `cfg` — with a kernel
/// that mutates every written object deterministically from its previous
/// value and the writer's id, recording the per-datum writer order.
/// Returns (stores, order).
fn observe(cfg: Option<RioConfig>, g: &TaskGraph, reused: bool) -> (Vec<u64>, Vec<Vec<u64>>) {
    let store = DataStore::new_with(NUM_DATA, |i| i as u64);
    let order: Vec<Mutex<Vec<u64>>> = (0..NUM_DATA).map(|_| Mutex::new(Vec::new())).collect();
    let body = |t: &rio_stf::TaskDesc| {
        for d in t.writes() {
            let mut w = store.write(d);
            *w = (*w ^ t.id.0)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(t.id.0);
            order[d.index()].lock().unwrap().push(t.id.0);
        }
    };
    match cfg.map(|cfg| Executor::new(cfg).mapping(&RoundRobin)) {
        None => drop(rio_stf::sequential::run_graph(g, |id| body(g.task(id)))),
        Some(ex) if reused => {
            let flow = ex.compile(g);
            flow.run(|_, _| {});
            flow.run(|_, t| body(t));
        }
        Some(ex) => drop(ex.run(g, |_, t| body(t))),
    }
    (
        store.into_vec(),
        order.into_iter().map(|m| m.into_inner().unwrap()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Single-arena vs node-arena compiled flows: the sequential results
    /// for every mock shape and wait strategy, fresh flow and reused.
    #[test]
    fn topology_never_changes_results(
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..40),
        workers in 2usize..5,
    ) {
        let g = graph_from(&seeds);
        let (base_store, base_order) = observe(None, &g, false);
        for wait in [WaitStrategy::Spin, WaitStrategy::SpinYield, WaitStrategy::Park] {
            for reused in [false, true] {
                let base_cfg = RioConfig::with_workers(workers).wait(wait);
                for nodes in [0usize, 1, 2, 4] {
                    let cfg = match nodes {
                        0 => base_cfg.clone(),
                        _ => base_cfg.clone().topology(Arc::new(Topology::mock(
                            nodes,
                            workers.div_ceil(nodes),
                        ))),
                    };
                    let (store, order) = observe(Some(cfg), &g, reused);
                    prop_assert_eq!(
                        &store, &base_store,
                        "stores diverge under {} / {} nodes / reused={}",
                        wait, nodes, reused
                    );
                    prop_assert_eq!(
                        &order, &base_order,
                        "writer order diverges under {} / {} nodes / reused={}",
                        wait, nodes, reused
                    );
                }
            }
        }
    }
}

/// The single-node topology must be bit-for-bit the pre-topology layout:
/// one compiled arena and a flat counters table — asserted here
/// end-to-end by running with an explicit 1×N mock and checking the run
/// is complete and correct (the layout-level assertions live in the unit
/// tests of `compile` and `counters`).
#[test]
fn single_node_topology_is_the_identity() {
    let g = graph_from(&(0..64).map(|i| i * 0x9E37_79B9).collect::<Vec<u64>>());
    let base = observe(Some(RioConfig::with_workers(4)), &g, true);
    let topo = Arc::new(Topology::mock(1, 4));
    let one = observe(Some(RioConfig::with_workers(4).topology(topo)), &g, true);
    assert_eq!(base, one);
}
