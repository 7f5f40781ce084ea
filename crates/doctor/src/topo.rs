//! Machine topology: which cores belong to which NUMA node, and how far
//! apart the nodes are — the node table the locality-weighted analyses
//! ([`crate::diagnose_with_nodes`],
//! [`crate::quality::mapping_quality_with_nodes`],
//! [`crate::tune::Tuner::nodes`]) weigh a mapping against.
//!
//! The runtime itself is placement-blind: locality lives in the mapping,
//! so what a topology contributes is the worker → node table a remap is
//! scored and steered by. [`Topology::node_assignment`] assigns workers
//! **node-major** (fill node 0's cores, then node 1's, wrapping).
//!
//! Detection parses `/sys/devices/system/node` on Linux and falls back
//! to a deterministic single-node topology everywhere else. Every code
//! path is testable on any box through [`Topology::mock`] (or the
//! `RIO_TOPO_MOCK=<nodes>x<cores>` environment override that
//! [`Topology::detect`] honours first — the CI smoke job uses it to run
//! the NUMA figure on single-socket runners).

use std::sync::{Arc, OnceLock};

/// Identifier of one NUMA node (package/socket locality domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Self-reported distance of a node to itself (the Linux ACPI SLIT
/// convention: local = 10, one hop ≈ 20).
pub const LOCAL_DISTANCE: u32 = 10;

/// Default distance between two distinct nodes when the kernel exposes
/// no SLIT table (and for [`Topology::mock`]).
pub const REMOTE_DISTANCE: u32 = 20;

/// The machine hierarchy: which cores belong to which NUMA node, and how
/// far apart the nodes are. Deterministic by construction — detection
/// sorts nodes and cores by id, and [`Topology::mock`] fabricates the
/// same shape on every machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Core ids per node, node id order, each sorted ascending.
    nodes: Vec<Vec<usize>>,
    /// Node-to-node distance matrix, row-major `num_nodes × num_nodes`.
    distance: Vec<u32>,
}

impl Topology {
    /// A fabricated topology of `nodes × cores_per_node` with the default
    /// SLIT distances (10 local / 20 remote) and core ids numbered
    /// node-major — the constructor every test and the `RIO_TOPO_MOCK`
    /// override use, so multi-node behaviour is exercisable on any box.
    ///
    /// # Panics
    /// If `nodes` or `cores_per_node` is zero.
    pub fn mock(nodes: usize, cores_per_node: usize) -> Topology {
        assert!(nodes >= 1, "a topology needs at least one node");
        assert!(cores_per_node >= 1, "a node needs at least one core");
        let nodes: Vec<Vec<usize>> = (0..nodes)
            .map(|n| (n * cores_per_node..(n + 1) * cores_per_node).collect())
            .collect();
        Topology {
            distance: default_distances(nodes.len()),
            nodes,
        }
    }

    /// The deterministic single-node fallback: every core on node 0.
    /// Zero cores is tolerated (normalized to one) so detection can never
    /// produce an unusable topology.
    pub fn single(cores: usize) -> Topology {
        Topology::mock(1, cores.max(1))
    }

    /// Detects the machine topology. Resolution order:
    ///
    /// 1. the `RIO_TOPO_MOCK` environment variable (`<nodes>x<cores>`,
    ///    e.g. `2x8`) — a deterministic override for CI and testing;
    /// 2. `/sys/devices/system/node` on Linux (node directories with
    ///    `cpulist` and `distance` files);
    /// 3. a single node holding `available_parallelism` cores.
    pub fn detect() -> Topology {
        let mock = std::env::var("RIO_TOPO_MOCK").ok();
        let mock = mock.as_deref().and_then(parse_mock_spec);
        mock.or_else(detect_sysfs).unwrap_or_default()
    }

    /// The detected topology of this machine, computed once per process.
    pub fn detected() -> &'static Arc<Topology> {
        static DETECTED: OnceLock<Arc<Topology>> = OnceLock::new();
        DETECTED.get_or_init(|| Arc::new(Topology::detect()))
    }

    /// Number of NUMA nodes (≥ 1).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Total cores across all nodes.
    pub fn num_cores(&self) -> usize {
        self.nodes.iter().map(Vec::len).sum()
    }

    /// The core ids of `node`, ascending.
    pub fn cores_of(&self, node: NodeId) -> &[usize] {
        &self.nodes[node.index()]
    }

    /// The node worker `w` lives on under **node-major** placement:
    /// workers fill node 0's cores first, then node 1's, and wrap when
    /// they outnumber cores.
    pub fn node_of_worker(&self, w: usize) -> NodeId {
        let (node, _) = self.slot_of_worker(w);
        NodeId(node as u32)
    }

    /// The core worker `w` is placed on (node-major, wrapping).
    pub fn core_of_worker(&self, w: usize) -> usize {
        let (node, slot) = self.slot_of_worker(w);
        self.nodes[node][slot]
    }

    /// `(node index, slot within node)` of worker `w`.
    fn slot_of_worker(&self, w: usize) -> (usize, usize) {
        let total = self.num_cores();
        let mut k = w % total;
        for (n, cores) in self.nodes.iter().enumerate() {
            if k < cores.len() {
                return (n, k);
            }
            k -= cores.len();
        }
        unreachable!("w % num_cores() always lands in some node");
    }

    /// The node of every worker in `0..workers`, as the plain `u32` table
    /// the locality-weighted analyses take.
    pub fn node_assignment(&self, workers: usize) -> Vec<u32> {
        (0..workers).map(|w| self.node_of_worker(w).0).collect()
    }

    /// SLIT-style distance between two nodes (`LOCAL_DISTANCE` on the
    /// diagonal unless the kernel reported otherwise).
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.distance[a.index() * self.num_nodes() + b.index()]
    }
}

impl Default for Topology {
    /// The single-node fallback sized to the machine's parallelism.
    fn default() -> Self {
        Topology::single(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

/// The default SLIT matrix: 10 on the diagonal, 20 elsewhere.
fn default_distances(nodes: usize) -> Vec<u32> {
    let mut d = vec![REMOTE_DISTANCE; nodes * nodes];
    for n in 0..nodes {
        d[n * nodes + n] = LOCAL_DISTANCE;
    }
    d
}

/// Parses a `<nodes>x<cores>` mock spec (`"2x8"`). `None` on anything
/// malformed or zero — detection then falls through to the real probes.
fn parse_mock_spec(spec: &str) -> Option<Topology> {
    let (n, c) = spec.trim().split_once(['x', 'X'])?;
    let nodes: usize = n.trim().parse().ok()?;
    let cores: usize = c.trim().parse().ok()?;
    (nodes >= 1 && cores >= 1).then(|| Topology::mock(nodes, cores))
}

/// Parses a sysfs `cpulist` string (`"0-3,8,10-11"`) into sorted core ids.
fn parse_cpulist(list: &str) -> Vec<usize> {
    let mut cores = Vec::new();
    for part in list.split(',').map(str::trim) {
        let (a, b) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(a), Ok(b)) = (a.trim().parse::<usize>(), b.trim().parse::<usize>()) {
            cores.extend(a..=b);
        }
    }
    cores.sort_unstable();
    cores.dedup();
    cores
}

/// Probes `/sys/devices/system/node`. `None` when the hierarchy is
/// absent, unreadable, or degenerate (no node with any core) — callers
/// fall back to [`Topology::single`].
fn detect_sysfs() -> Option<Topology> {
    let base = std::path::Path::new("/sys/devices/system/node");
    let mut ids: Vec<usize> = std::fs::read_dir(base)
        .ok()?
        .filter_map(|e| {
            let name = e.ok()?.file_name();
            let name = name.to_str()?;
            name.strip_prefix("node")?.parse::<usize>().ok()
        })
        .collect();
    ids.sort_unstable();
    let mut nodes = Vec::with_capacity(ids.len());
    for &id in &ids {
        let list = std::fs::read_to_string(base.join(format!("node{id}/cpulist"))).ok()?;
        nodes.push(parse_cpulist(&list));
    }
    nodes.retain(|cores| !cores.is_empty());
    if nodes.is_empty() {
        return None;
    }
    // The SLIT rows, when exposed; rows that fail to parse (or are the
    // wrong length — possible when empty nodes were dropped above) fall
    // back to the default matrix.
    let n = nodes.len();
    let mut distance = default_distances(n);
    for (row, &id) in ids.iter().take(n).enumerate() {
        if let Ok(text) = std::fs::read_to_string(base.join(format!("node{id}/distance"))) {
            let vals: Vec<u32> = text
                .split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect();
            if vals.len() == n {
                distance[row * n..(row + 1) * n].copy_from_slice(&vals);
            }
        }
    }
    Some(Topology { nodes, distance })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_shapes_are_deterministic() {
        let t = Topology::mock(2, 4);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_cores(), 8);
        assert_eq!(t.cores_of(NodeId(0)), &[0, 1, 2, 3]);
        assert_eq!(t.cores_of(NodeId(1)), &[4, 5, 6, 7]);
        assert_eq!(t, Topology::mock(2, 4), "same spec, same topology");
    }

    #[test]
    fn single_node_fallback_is_one_node() {
        let t = Topology::single(6);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.num_cores(), 6);
        assert_eq!(t.node_of_worker(5), NodeId(0));
        // Zero cores normalizes rather than panicking.
        assert_eq!(Topology::single(0).num_cores(), 1);
    }

    #[test]
    fn node_major_placement_fills_then_wraps() {
        let t = Topology::mock(2, 2);
        // Workers 0..4 fill the four cores node-major…
        assert_eq!(t.node_assignment(4), vec![0, 0, 1, 1]);
        assert_eq!(t.core_of_worker(0), 0);
        assert_eq!(t.core_of_worker(3), 3);
        // …and oversubscription wraps around deterministically.
        assert_eq!(t.node_of_worker(4), NodeId(0));
        assert_eq!(t.core_of_worker(5), 1);
        assert_eq!(t.node_assignment(6), vec![0, 0, 1, 1, 0, 0]);
    }

    #[test]
    fn distances_default_to_slit_values() {
        let t = Topology::mock(4, 2);
        assert_eq!(t.distance(NodeId(1), NodeId(1)), LOCAL_DISTANCE);
        assert_eq!(t.distance(NodeId(0), NodeId(3)), REMOTE_DISTANCE);
        assert_eq!(
            t.distance(NodeId(2), NodeId(0)),
            t.distance(NodeId(0), NodeId(2)),
            "the default matrix is symmetric"
        );
    }

    #[test]
    fn mock_spec_parsing() {
        assert_eq!(parse_mock_spec("2x8"), Some(Topology::mock(2, 8)));
        assert_eq!(parse_mock_spec(" 4X2 "), Some(Topology::mock(4, 2)));
        assert_eq!(parse_mock_spec("0x8"), None);
        assert_eq!(parse_mock_spec("2x0"), None);
        assert_eq!(parse_mock_spec("garbage"), None);
        assert_eq!(parse_mock_spec("2x"), None);
    }

    #[test]
    fn cpulist_parsing_handles_ranges_and_singles() {
        assert_eq!(parse_cpulist("0-3"), vec![0, 1, 2, 3]);
        assert_eq!(parse_cpulist("0,2,4"), vec![0, 2, 4]);
        assert_eq!(parse_cpulist("0-1,8,10-11\n"), vec![0, 1, 8, 10, 11]);
        assert_eq!(parse_cpulist("3,0-1,3"), vec![0, 1, 3], "sorted, deduped");
        assert_eq!(parse_cpulist(""), Vec::<usize>::new());
    }

    #[test]
    fn detect_is_always_usable() {
        // Whatever this machine looks like, detection must return a
        // topology with at least one node and one core.
        let t = Topology::detect();
        assert!(t.num_nodes() >= 1);
        assert!(t.num_cores() >= 1);
        let _ = Topology::detected();
    }

    #[test]
    fn display_and_index() {
        assert_eq!(NodeId(3).to_string(), "N3");
        assert_eq!(NodeId(3).index(), 3);
    }
}
