//! The four workloads, the kernel they run, and the fingerprints that pin
//! them.
//!
//! `--seed` reaches only [`Spec::generate`]; the runtime receives the
//! generated graph and nothing else.

use std::hint::black_box;

use rio_stf::{AccessMode, Mapping, RoundRobin, TaskGraph, TaskId};
use rio_workloads::random_deps::RandomDepsConfig;
use rio_workloads::{cholesky, independent, random_deps};

/// The seed `randdeps-fine` is fingerprinted at.
pub const PINNED_SEED: u64 = 1;

/// Worker counts a run can use (`clamp(nproc, 2, 4)`), each with a pinned
/// mapping histogram.
pub const WORKER_COUNTS: std::ops::RangeInclusive<usize> = 2..=4;

/// The benchmark's own task body: `iters` rounds of a counter the optimiser
/// may neither precompute nor delete. Owned here, not taken from
/// `rio_workloads::counter`, so a change to that crate cannot change the load.
#[inline]
pub fn counter_kernel(iters: u64) {
    let mut counter = 0u64;
    for i in 0..iters {
        counter = black_box(i);
    }
    black_box(counter);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `independent::graph_private_data(tasks)`, round-robin.
    Independent { tasks: usize },
    /// `cholesky::graph(grid, _)` under `cholesky::mapping(grid, workers)`.
    Cholesky { grid: usize },
    /// `random_deps::graph(RandomDepsConfig::paper(tasks, seed))`, round-robin.
    RandomDeps { tasks: usize },
}

/// What identifies a generated load: a drifted generator or mapping changes
/// one of these and fails the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub tasks: usize,
    pub accesses: usize,
    /// FNV-1a over every task's `(id, accesses)`.
    pub fnv: u64,
    /// Tasks per worker under the workload's mapping, for 2, 3 and 4 workers.
    pub histograms: [[usize; 4]; 3],
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload is in the benchmark (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub shape: Shape,
    /// Counter-kernel iterations per task.
    pub iters: u64,
    /// The fingerprint at [`PINNED_SEED`].
    pub pinned: Fingerprint,
}

/// Both Cholesky workloads run the same graph under the same mapping.
const CHOLESKY_24: Fingerprint = Fingerprint {
    tasks: 2600,
    accesses: 7200,
    fnv: 0xec6d6eeca82e0629,
    histograms: [[1300, 1300, 0, 0], [864, 872, 864, 0], [650, 572, 650, 728]],
};

pub fn all() -> [Spec; 4] {
    [
        Spec {
            name: "indep-fine",
            why: "65536 independent empty tasks: pure management (unroll/declare, ready guard, elided terminate); no task waits",
            shape: Shape::Independent { tasks: 65536 },
            iters: 0,
            pinned: Fingerprint {
                tasks: 65536,
                accesses: 65536,
                fnv: 0xfef02fdd1f15cbca,
                histograms: [
                    [32768, 32768, 0, 0],
                    [21846, 21845, 21845, 0],
                    [16384, 16384, 16384, 16384],
                ],
            },
        },
        Spec {
            name: "cholesky-fine",
            why: "2600-task tiled Cholesky DAG at 1024 iterations/task: guard waits, wakes and pipelining dominate",
            shape: Shape::Cholesky { grid: 24 },
            iters: 1024,
            pinned: CHOLESKY_24,
        },
        Spec {
            name: "cholesky-coarse",
            why: "the same DAG at 65536 iterations/task: the kernel does nearly all the work, so runtime changes predict no change",
            shape: Shape::Cholesky { grid: 24 },
            iters: 65536,
            pinned: CHOLESKY_24,
        },
        Spec {
            name: "randdeps-fine",
            why: "16384 tasks with 2 random reads + 1 random write over 128 objects: many concurrent readers per epoch; shaped by --seed",
            shape: Shape::RandomDeps { tasks: 16384 },
            iters: 4096,
            pinned: Fingerprint {
                tasks: 16384,
                accesses: 49152,
                fnv: 0xdba43b7bd00de035,
                histograms: [
                    [8192, 8192, 0, 0],
                    [5462, 5461, 5461, 0],
                    [4096, 4096, 4096, 4096],
                ],
            },
        },
    ]
}

impl Spec {
    /// The workload's graph. Only `randdeps-fine` depends on `seed`.
    pub fn generate(&self, seed: u64) -> TaskGraph {
        match self.shape {
            Shape::Independent { tasks } => independent::graph_private_data(tasks),
            Shape::Cholesky { grid } => cholesky::graph(grid, self.iters),
            Shape::RandomDeps { tasks } => {
                random_deps::graph(&RandomDepsConfig::paper(tasks, seed))
            }
        }
    }

    /// The workload's static mapping for `workers` workers.
    pub fn mapping(&self, workers: usize) -> Box<dyn Mapping> {
        match self.shape {
            Shape::Independent { .. } | Shape::RandomDeps { .. } => Box::new(RoundRobin),
            Shape::Cholesky { grid } => Box::new(cholesky::mapping(grid, workers)),
        }
    }

    /// Does `seed` change the generated graph?
    pub fn seeded(&self) -> bool {
        matches!(self.shape, Shape::RandomDeps { .. })
    }

    /// The fingerprint of `graph` (generated by this spec) and its mappings.
    pub fn fingerprint(&self, graph: &TaskGraph) -> Fingerprint {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut fnv = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                fnv = (fnv ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        for t in graph.tasks() {
            eat(&t.id.0.to_le_bytes());
            for a in &t.accesses {
                eat(&a.data.0.to_le_bytes());
                eat(&[match a.mode {
                    AccessMode::Read => 0,
                    AccessMode::Write => 1,
                    AccessMode::ReadWrite => 2,
                }]);
            }
        }
        let mut histograms = [[0usize; 4]; 3];
        for (hist, workers) in histograms.iter_mut().zip(WORKER_COUNTS) {
            let mapping = self.mapping(workers);
            for i in 0..graph.len() {
                hist[mapping.worker_of(TaskId::from_index(i), workers).index()] += 1;
            }
        }
        Fingerprint {
            tasks: graph.len(),
            accesses: graph.total_accesses(),
            fnv,
            histograms,
        }
    }

    /// Checks the generator and mapping against the pinned fingerprint.
    /// `graph` is what `generate(seed)` returned; at another seed than
    /// [`PINNED_SEED`] a seeded workload is generated once more at the
    /// pinned seed, so drift is caught whatever `--seed` is.
    pub fn check_fingerprint(&self, graph: &TaskGraph, seed: u64) -> Result<(), String> {
        let actual = if self.seeded() && seed != PINNED_SEED {
            self.fingerprint(&self.generate(PINNED_SEED))
        } else {
            self.fingerprint(graph)
        };
        if actual == self.pinned {
            Ok(())
        } else {
            Err(format!(
                "{}: the generated load drifted from its pinned fingerprint\n  pinned: {:?}\n  actual: {:?}",
                self.name, self.pinned, actual
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_matches_its_pinned_fingerprint() {
        for spec in all() {
            let graph = spec.generate(PINNED_SEED);
            spec.check_fingerprint(&graph, PINNED_SEED).unwrap();
        }
    }

    #[test]
    fn only_randdeps_is_shaped_by_the_seed() {
        for spec in all() {
            let a = spec.fingerprint(&spec.generate(1));
            let b = spec.fingerprint(&spec.generate(2));
            assert_eq!(a != b, spec.seeded(), "{}", spec.name);
            // A foreign seed still checks the generator at the pinned one.
            spec.check_fingerprint(&spec.generate(2), 2).unwrap();
        }
    }

    #[test]
    fn a_drifted_load_is_refused() {
        let mut spec = all()[1].clone();
        spec.pinned.fnv ^= 1;
        let err = spec.check_fingerprint(&spec.generate(1), 1).unwrap_err();
        assert!(err.contains("drifted"));
    }
}
