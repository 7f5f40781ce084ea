//! Experiment 2: random dependencies (Fig. 8 row 2).
//!
//! "128 data objects with 2 random read and 1 random write dependencies
//! per task" (§5.1). This is the adversarial case for the decentralized
//! in-order model: no structure for the mapping to exploit, so workers
//! spend their time blocked on cross-worker dependencies — the paper's
//! results show pipelining efficiency collapsing here, and ours should
//! reproduce that shape.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rio_stf::{Access, DataId, RoundRobin, TaskGraph};

/// Parameters of the random-dependency generator.
#[derive(Debug, Clone, Copy)]
pub struct RandomDepsConfig {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of data objects (128 in the paper).
    pub num_data: usize,
    /// Random read dependencies per task (2 in the paper).
    pub reads_per_task: usize,
    /// Random write dependencies per task (1 in the paper).
    pub writes_per_task: usize,
    /// RNG seed (the flow must be reproducible across runs and runtimes).
    pub seed: u64,
}

impl RandomDepsConfig {
    /// The paper's configuration for `tasks` tasks.
    pub fn paper(tasks: usize, seed: u64) -> RandomDepsConfig {
        RandomDepsConfig {
            tasks,
            num_data: 128,
            reads_per_task: 2,
            writes_per_task: 1,
            seed,
        }
    }
}

/// Generates the random-dependency flow.
///
/// Each task draws `writes_per_task + reads_per_task` *distinct* data
/// objects uniformly at random: the writes first, then the reads.
///
/// # Panics
/// If a task would need more distinct objects than exist.
pub fn graph(cfg: &RandomDepsConfig) -> TaskGraph {
    let per_task = cfg.reads_per_task + cfg.writes_per_task;
    assert!(
        per_task <= cfg.num_data,
        "each task needs {per_task} distinct objects but only {} exist",
        cfg.num_data
    );
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut b = TaskGraph::builder(cfg.num_data);
    let mut accesses: Vec<Access> = Vec::with_capacity(per_task);
    for _ in 0..cfg.tasks {
        accesses.clear();
        while accesses.len() < per_task {
            let d = DataId::from_index(rng.gen_range(0..cfg.num_data));
            if !accesses.iter().any(|a| a.data == d) {
                let write = accesses.len() < cfg.writes_per_task;
                accesses.push(if write {
                    Access::write(d)
                } else {
                    Access::read(d)
                });
            }
        }
        b.task(&accesses, 1, "rand");
    }
    b.build()
}

/// No structure to exploit: round-robin is as good as anything static.
pub fn mapping() -> RoundRobin {
    RoundRobin
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::deps::DepGraph;

    #[test]
    fn paper_configuration_shape() {
        let g = graph(&RandomDepsConfig::paper(500, 42));
        assert_eq!(g.len(), 500);
        assert_eq!(g.num_data(), 128);
        assert!(g.validate().is_ok());
        for t in g.tasks() {
            assert_eq!(t.accesses.len(), 3);
            assert_eq!(t.writes().count(), 1);
            assert_eq!(t.reads().count(), 2);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = graph(&RandomDepsConfig::paper(200, 7));
        let b = graph(&RandomDepsConfig::paper(200, 7));
        assert_eq!(a.tasks(), b.tasks());
        let c = graph(&RandomDepsConfig::paper(200, 8));
        assert_ne!(a.tasks(), c.tasks(), "different seed, different flow");
    }

    #[test]
    fn dense_enough_to_create_dependencies() {
        let g = graph(&RandomDepsConfig::paper(1000, 1));
        let edges = DepGraph::derive(&g).num_edges();
        assert!(edges > 500, "random flow should be well connected: {edges}");
    }

    #[test]
    fn accesses_within_a_task_are_distinct() {
        let g = graph(&RandomDepsConfig::paper(300, 3));
        for t in g.tasks() {
            let mut ds: Vec<_> = t.accesses.iter().map(|a| a.data).collect();
            ds.sort();
            ds.dedup();
            assert_eq!(ds.len(), 3);
        }
    }

    #[test]
    fn small_data_space_still_works() {
        let cfg = RandomDepsConfig {
            tasks: 50,
            num_data: 3,
            reads_per_task: 2,
            writes_per_task: 1,
            seed: 5,
        };
        let g = graph(&cfg);
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "distinct objects")]
    fn impossible_configuration_panics() {
        graph(&RandomDepsConfig {
            tasks: 1,
            num_data: 2,
            reads_per_task: 2,
            writes_per_task: 1,
            seed: 0,
        });
    }
}
