//! The counters snapshot as a human-readable table — the terminal
//! rendering beside [`crate::prom`]'s Prometheus one.

use std::collections::BTreeSet;

use rio_core::{CounterRow, CountersSnapshot};
use rio_metrics::Table;

/// Renders `snap` as a [`Table`]: one row per worker plus a total row. On
/// a snapshot tagged with a multi-node assignment
/// ([`CountersSnapshot::nodes`]) the worker rows are grouped by node, each
/// group followed by an `N<n>` subtotal row; untagged (single-node)
/// snapshots render the flat table.
///
/// Numeric columns right-align (the table layer's numeric heuristic);
/// the recovery counters — `retries`, `poisoned` — render as `-` when
/// zero, so a healthy run's table stays scannable instead of ending in a
/// wall of zeros.
pub fn table(snap: &CountersSnapshot) -> Table {
    let mut t = Table::new([
        "worker",
        "tasks",
        "spins",
        "parks",
        "wakes_elided",
        "aborts",
        "retries",
        "poisoned",
    ]);
    // Zero is the steady state for the opt-in layers' counters; a dash
    // reads as "feature idle" where a 0 reads as "measured nothing".
    let dash = |n: u64| {
        if n == 0 {
            "-".to_string()
        } else {
            n.to_string()
        }
    };
    let row = |label: String, r: &CounterRow| {
        vec![
            label,
            r.tasks.to_string(),
            r.spins.to_string(),
            r.parks.to_string(),
            r.wakes_elided.to_string(),
            r.aborts.to_string(),
            dash(r.retries),
            dash(r.poisoned),
        ]
    };
    // An all-zero subtotal means "no worker of this node did anything":
    // the whole row reads as feature-idle, same dash convention as the
    // opt-in columns above.
    let subtotal_row = |label: String, r: &CounterRow| {
        if *r == CounterRow::default() {
            let mut cells = vec![label];
            cells.resize(8, "-".to_string());
            cells
        } else {
            row(label, r)
        }
    };
    let workers = snap.workers.len();
    let multi_node = snap
        .nodes
        .as_ref()
        .filter(|nodes| nodes.len() >= workers)
        .filter(|nodes| nodes.iter().take(workers).collect::<BTreeSet<_>>().len() > 1);
    match multi_node {
        None => {
            for (w, r) in snap.workers.iter().enumerate() {
                t.row(row(format!("W{w}"), r));
            }
        }
        Some(nodes) => {
            let node_ids: BTreeSet<u32> = nodes.iter().take(workers).copied().collect();
            for node in node_ids {
                let mut sub = CounterRow::default();
                for (w, r) in snap.workers.iter().enumerate() {
                    if nodes[w] == node {
                        sub.merge(r);
                        t.row(row(format!("W{w}"), r));
                    }
                }
                t.row(subtotal_row(format!("N{node}"), &sub));
            }
        }
    }
    t.row(row("total".to_string(), &snap.total()));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_core::CounterRegistry;

    #[test]
    fn snapshot_renders_as_a_table() {
        let reg = CounterRegistry::new(2);
        reg.worker(0).inc_tasks();
        reg.worker(1).add_spins(7);
        let text = table(&reg.snapshot()).render();
        assert!(text.contains("wakes_elided"));
        assert!(text.contains("retries"));
        assert!(text.contains("poisoned"));
        assert!(text.contains("W0"));
        assert!(text.contains("total"));
        assert!(text.contains('7'));
    }

    #[test]
    fn multi_node_snapshot_groups_rows_with_subtotals() {
        let reg = CounterRegistry::new(4);
        for w in 0..4 {
            for _ in 0..=w {
                reg.worker(w).inc_tasks();
            }
        }
        // Untagged (single-node): flat table, no node rows.
        let flat = table(&reg.snapshot()).render();
        assert!(!flat.contains("N0"), "single-node table stays flat");
        // Tagged with a 2-node assignment: grouped with subtotals.
        let mut snap = reg.snapshot();
        snap.nodes = Some(vec![0, 0, 1, 1]);
        let text = table(&snap).render();
        assert!(text.contains("N0"));
        assert!(text.contains("N1"));
        let lines: Vec<&str> = text.lines().collect();
        let pos = |label: &str| {
            lines
                .iter()
                .position(|l| l.split_whitespace().next() == Some(label))
                .unwrap_or_else(|| panic!("row {label} missing:\n{text}"))
        };
        // Node-major order: W0, W1, N0 subtotal, W2, W3, N1 subtotal.
        assert!(pos("W0") < pos("W1"));
        assert!(pos("W1") < pos("N0"));
        assert!(pos("N0") < pos("W2"));
        assert!(pos("W3") < pos("N1"));
        assert!(pos("N1") < pos("total"));
        // Subtotals add up: N0 = 1 + 2 tasks, N1 = 3 + 4 tasks.
        let n0 = lines[pos("N0")];
        assert!(n0.contains('3'), "N0 subtotal tasks: {n0}");
        let n1 = lines[pos("N1")];
        assert!(n1.contains('7'), "N1 subtotal tasks: {n1}");
        // A tagged snapshot whose workers all share one node stays flat.
        let mut snap = reg.snapshot();
        snap.nodes = Some(vec![0; 4]);
        assert!(!table(&snap).render().contains("N0"));
    }

    #[test]
    fn all_zero_subtotal_rows_render_as_dashes() {
        // Node 1's workers did nothing: its subtotal row is the idle
        // steady state end to end, so every numeric column dashes —
        // the same convention as the idle opt-in columns.
        let reg = CounterRegistry::new(4);
        reg.worker(0).inc_tasks();
        reg.worker(1).add_spins(1);
        let mut snap = reg.snapshot();
        snap.nodes = Some(vec![0, 0, 1, 1]);
        let text = table(&snap).render();
        let line_of = |label: &str| {
            text.lines()
                .find(|l| l.split_whitespace().next() == Some(label))
                .unwrap_or_else(|| panic!("row {label} missing:\n{text}"))
        };
        let n1 = line_of("N1");
        assert!(
            !n1.contains('0'),
            "all-zero subtotal renders no zeros: {n1}"
        );
        assert_eq!(
            n1.split_whitespace().filter(|c| *c == "-").count(),
            7,
            "every numeric column of the idle subtotal dashes: {n1}"
        );
        // A subtotal with any activity still renders numerically.
        let n0 = line_of("N0");
        assert!(n0.contains('1'), "active subtotal keeps its numbers: {n0}");
    }

    #[test]
    fn idle_opt_in_counters_render_as_dashes() {
        let reg = CounterRegistry::new(1);
        reg.worker(0).inc_tasks();
        let text = table(&reg.snapshot()).render();
        // Recovery layer idle: dashes, not zeros.
        assert!(text.contains('-'), "zero retries render as dashes");
        // Core protocol counters keep their zeros (0 parks is a real
        // measurement, not an idle feature).
        assert!(text.contains('0'));

        let reg = CounterRegistry::new(1);
        reg.worker(0).inc_retries();
        let text = table(&reg.snapshot()).render();
        let retries_line = text.lines().find(|l| l.contains("W0")).unwrap();
        assert!(
            retries_line.contains('1'),
            "active recovery counters render numerically: {retries_line}"
        );
    }
}
