//! Task-Bench-style dependence patterns.
//!
//! The paper's motivation rests on the Task Bench survey (\[1\], Slaughter
//! et al., SC'20), which characterizes runtimes by sweeping task
//! granularity over a family of *dependence patterns*. This module
//! generates the classic patterns as STF task flows so the same sweeps can
//! run on both execution models here:
//!
//! * [`Pattern::Trivial`] — independent tasks, no data at all;
//! * [`Pattern::NoComm`] — per-point chains (a point depends only on
//!   itself in the previous timestep);
//! * [`Pattern::Stencil1D`] — each point reads its neighbours' previous
//!   values;
//! * [`Pattern::FftButterfly`] — point `i` depends on `i` and
//!   `i XOR 2^(t mod log2 n)`: the FFT butterfly;
//! * [`Pattern::Tree`] — binary reduction tree repeated per round
//!   (fan-in towards point 0, then broadcast back);
//! * [`Pattern::RandomNearest`] — each point reads a seeded-random subset
//!   of the previous timestep within a ±`radius` window.
//!
//! Layout: `width` points × `steps` timesteps, double-buffered data
//! objects (like [`crate::stencil`]), one task per (step, point). The
//! natural static mapping is block-over-points, constant across steps.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rio_stf::{Access, DataId, TableMapping, TaskGraph, WorkerId};

/// A Task-Bench dependence pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Fully independent tasks (no data objects).
    Trivial,
    /// Per-point chains across timesteps.
    NoComm,
    /// 3-point stencil.
    Stencil1D,
    /// FFT butterfly exchange.
    FftButterfly,
    /// Binary-tree fan-in (towards point 0) each round.
    Tree,
    /// Seeded-random dependencies within a ±2 window.
    RandomNearest,
}

impl Pattern {
    /// All patterns, for sweeps.
    pub const ALL: [Pattern; 6] = [
        Pattern::Trivial,
        Pattern::NoComm,
        Pattern::Stencil1D,
        Pattern::FftButterfly,
        Pattern::Tree,
        Pattern::RandomNearest,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Pattern::Trivial => "trivial",
            Pattern::NoComm => "no_comm",
            Pattern::Stencil1D => "stencil_1d",
            Pattern::FftButterfly => "fft",
            Pattern::Tree => "tree",
            Pattern::RandomNearest => "random_nearest",
        }
    }

    /// Fills `out` with the previous-step points that task `(step, point)`
    /// reads.
    fn inputs(
        self,
        point: usize,
        width: usize,
        step: usize,
        rng: &mut SmallRng,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        match self {
            Pattern::Trivial => {}
            Pattern::NoComm => out.push(point),
            Pattern::Stencil1D => {
                out.push(point);
                if point > 0 {
                    out.push(point - 1);
                }
                if point + 1 < width {
                    out.push(point + 1);
                }
            }
            Pattern::FftButterfly => {
                let levels = usize::BITS - (width.max(2) - 1).leading_zeros(); // ceil(log2)
                let partner = point ^ (1 << (step as u32 % levels));
                out.push(point);
                if partner < width && partner != point {
                    out.push(partner);
                }
            }
            Pattern::Tree => {
                // Round structure of a binary fan-in: at sub-step `s`,
                // point `i` absorbs point `i + 2^s` when aligned.
                let levels = (usize::BITS - (width.max(2) - 1).leading_zeros()) as usize;
                let s = step % levels;
                let stride = 1usize << s;
                let absorbs = point.is_multiple_of(stride * 2);
                let partner = point + stride;
                out.push(point);
                if absorbs && partner < width {
                    out.push(partner);
                }
            }
            Pattern::RandomNearest => {
                out.push(point);
                for _ in 0..2 {
                    let delta = rng.gen_range(-2i64..=2);
                    let q = point as i64 + delta;
                    if (0..width as i64).contains(&q) && !out.contains(&(q as usize)) {
                        out.push(q as usize);
                    }
                }
            }
        }
    }
}

/// Builds the pattern's task flow: `width × steps` tasks, cost hint
/// `cost`; data objects are double-buffered points except for
/// [`Pattern::Trivial`] (no data).
pub fn graph(pattern: Pattern, width: usize, steps: usize, cost: u64, seed: u64) -> TaskGraph {
    assert!(width >= 1);
    if pattern == Pattern::Trivial {
        let mut b = TaskGraph::builder(0);
        for _ in 0..width * steps {
            b.task(&[], cost, pattern.label());
        }
        return b.build();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let id = |buf: usize, p: usize| DataId::from_index(buf * width + p);
    let mut b = TaskGraph::builder(2 * width);
    let (mut points, mut accesses) = (Vec::new(), Vec::new());
    for s in 0..steps {
        let (src, dst) = (s % 2, (s + 1) % 2);
        for p in 0..width {
            pattern.inputs(p, width, s, &mut rng, &mut points);
            accesses.clear();
            accesses.extend(points.iter().map(|&q| Access::read(id(src, q))));
            accesses.push(Access::write(id(dst, p)));
            b.task(&accesses, cost, pattern.label());
        }
    }
    b.build()
}

/// Block-over-points mapping, constant across timesteps: worker
/// `⌊point · workers / width⌋` owns the point's whole column.
pub fn mapping(width: usize, steps: usize, workers: usize) -> TableMapping {
    let mut table = Vec::with_capacity(width * steps);
    for _s in 0..steps {
        for p in 0..width {
            let w = (p * workers) / width;
            table.push(WorkerId::from_index(w.min(workers - 1)));
        }
    }
    TableMapping::new(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_stf::deps::DepGraph;

    #[test]
    fn all_patterns_build_valid_flows() {
        for pat in Pattern::ALL {
            let g = graph(pat, 8, 4, 1, 7);
            assert_eq!(g.len(), 32, "{}", pat.label());
            assert!(g.validate().is_ok(), "{}", pat.label());
        }
    }

    #[test]
    fn trivial_has_no_dependencies() {
        let g = graph(Pattern::Trivial, 8, 4, 1, 0);
        assert_eq!(DepGraph::derive(&g).num_edges(), 0);
        assert_eq!(g.num_data(), 0);
    }

    #[test]
    fn no_comm_is_width_independent_chains() {
        let g = graph(Pattern::NoComm, 6, 5, 1, 0);
        let stats = g.stats();
        assert_eq!(stats.critical_path_tasks, 5, "one chain per point");
    }

    #[test]
    fn stencil_matches_the_dedicated_generator_shape() {
        let g = graph(Pattern::Stencil1D, 10, 3, 1, 0);
        // Interior tasks read 3 previous points + write 1.
        let interior = g.tasks().iter().filter(|t| t.accesses.len() == 4).count();
        assert!(interior > 0);
        assert_eq!(g.stats().critical_path_tasks, 3);
    }

    #[test]
    fn fft_butterfly_reads_the_partner() {
        let g = graph(Pattern::FftButterfly, 8, 3, 1, 0);
        // Step 0: point 0 reads itself and point 1 (partner = 0 ^ 1).
        let t = &g.tasks()[0];
        let reads: Vec<usize> = t.reads().map(|d| d.index()).collect();
        assert!(reads.contains(&0) && reads.contains(&1));
    }

    #[test]
    fn tree_fans_in_towards_zero() {
        let g = graph(Pattern::Tree, 8, 1, 1, 0);
        // Step 0 (stride 1): even points absorb their +1 neighbour.
        let t0 = &g.tasks()[0]; // point 0
        assert_eq!(t0.reads().count(), 2);
        let t1 = &g.tasks()[1]; // point 1: no absorb
        assert_eq!(t1.reads().count(), 1);
    }

    #[test]
    fn random_nearest_is_seeded() {
        let a = graph(Pattern::RandomNearest, 8, 4, 1, 11);
        let b = graph(Pattern::RandomNearest, 8, 4, 1, 11);
        assert_eq!(a.tasks(), b.tasks());
        let c = graph(Pattern::RandomNearest, 8, 4, 1, 12);
        assert_ne!(a.tasks(), c.tasks());
    }

    #[test]
    fn mapping_is_valid_and_column_constant() {
        let m = mapping(12, 3, 4);
        assert!(m.validate(4));
        // A point's owner is the same in every step.
        for p in 0..12 {
            let owners: Vec<_> = (0..3)
                .map(|s| {
                    rio_stf::Mapping::worker_of(&m, rio_stf::TaskId::from_index(s * 12 + p), 4)
                })
                .collect();
            assert!(owners.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn patterns_execute_correctly_on_rio() {
        // Cross-check against the sequential oracle with a hash kernel.
        use rio_stf::{DataStore, TaskDesc};
        for pat in Pattern::ALL {
            let g = graph(pat, 6, 4, 1, 3);
            let m = mapping(6, 4, 2);

            let kernel = |store: &DataStore<u64>, t: &TaskDesc| {
                let mut h = t.id.0;
                for d in t.reads() {
                    h = h.wrapping_mul(31).wrapping_add(*store.read(d));
                }
                for d in t.writes() {
                    *store.write(d) = h;
                }
            };

            let seq_store = DataStore::filled(g.num_data(), 0u64);
            rio_stf::sequential::run_graph(&g, |tid| kernel(&seq_store, g.task(tid)));
            let expected = seq_store.into_vec();

            let store = DataStore::filled(g.num_data(), 0u64);
            let ex = rio_core::Executor::new(rio_core::RioConfig::with_workers(2));
            if pat == Pattern::Trivial {
                ex.mapping(&rio_stf::RoundRobin)
                    .run(&g, |_, t| kernel(&store, t));
            } else {
                ex.mapping(&m).run(&g, |_, t| kernel(&store, t));
            }
            assert_eq!(store.into_vec(), expected, "{}", pat.label());
        }
    }
}
