//! Exact compile rows: what the compiler makes of the benchmark's flows
//! (and of LU and a stencil) at 2, 3, 4 and 64 workers, compared for
//! equality against `tests/compile_rows.txt`.
//!
//! A row holds what no host moves: `CompileStats`' counts (the programs'
//! length among them: instructions plus quiet ranges; and how many
//! segments the walk was split into), how many own tasks
//! are quiet (in ranges), and two heap columns read off this binary's
//! counting allocator: `in_flight`, the most bytes live at once while the
//! compile runs, over what was live before it (its scratch and what it
//! keeps), and `bytes`, what the compiled flow holds — the live bytes the
//! compile leaves behind. A change that moves a row must say so by
//! committing the new table, which a failure prints in full.
//!
//! How many segments a compile walks depends on how many CPUs the process
//! may use (a split compile holds an arena per segment), so the test first
//! narrows its thread's CPU mask to two CPUs: 2-worker compiles of long
//! flows split, 3- and 4-worker ones do not, on every host with two CPUs
//! or more. With one CPU nothing splits and the heap columns are not
//! compared. The binary holds this one test, so no other test allocates
//! while it counts.

use std::sync::atomic::Ordering;

use rio::core::{Executor, RioConfig};
use rio::stf::{Mapping, RoundRobin, TaskGraph, WorkerId};
use rio::workloads::random_deps::RandomDepsConfig;
use rio::workloads::{cholesky, independent, lu, random_deps, stencil};

mod counting;
use counting::{LIVE, PEAK};

/// Narrows the calling thread's CPU mask to the first two CPUs it may use
/// (threads it starts inherit the mask). Returns how many it may use now.
#[cfg(target_os = "linux")]
fn two_cpus() -> usize {
    /// The glibc `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut mask: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a live, writable `cpu_set_t` of `size` bytes.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return 1;
    }
    let mut kept: CpuSet = [0; 16];
    let cpus = (0..1024).filter(|&c| mask[c / 64] >> (c % 64) & 1 != 0);
    for c in cpus.take(2) {
        kept[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `kept` is a live `cpu_set_t` of `size` bytes, only read.
    let narrowed = unsafe { sched_setaffinity(0, size, &kept) } == 0;
    let mine = if narrowed { kept } else { mask };
    mine.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(not(target_os = "linux"))]
fn two_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// A flow of the table: its name, its graph and its mapping per worker count.
type Flow = (&'static str, TaskGraph, fn(usize) -> Box<dyn Mapping>);

/// The flows of the table: the benchmark's (`cholesky-24` is the flow of
/// both `cholesky-fine` and `cholesky-coarse`) under the mapping it runs
/// them with, then LU and a block-mapped stencil.
fn flows() -> Vec<Flow> {
    vec![
        ("indep-fine", independent::graph_private_data(65536), |_| {
            Box::new(RoundRobin)
        }),
        ("cholesky-24", cholesky::graph(24, 1), |w| {
            Box::new(cholesky::mapping(24, w))
        }),
        (
            "randdeps-fine",
            random_deps::graph(&RandomDepsConfig::paper(16384, 1)),
            |_| Box::new(RoundRobin),
        ),
        ("lu-16", lu::graph(16, 1), |w| Box::new(lu::mapping(16, w))),
        ("stencil-256x64", stencil::graph(256, 64, 1), |w| {
            Box::new(stencil::mapping(256, 64, w))
        }),
    ]
}

const WORKERS: [usize; 4] = [2, 3, 4, 64];

const HEADER: &str =
    "flow workers tasks accesses kept_guards kept_publications shared_objects irrelevant runs_min runs_max quiet program segments in_flight bytes";

/// One row, its columns separated by single spaces; the heap columns last.
fn row(name: &str, g: &TaskGraph, m: &dyn Mapping, workers: usize) -> String {
    let ex = Executor::new(RioConfig::with_workers(workers)).mapping(m);
    // A first compile starts the executor's worker set if the walk splits,
    // so that the measured one finds every thread it uses already there.
    drop(ex.compile(g));
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let flow = ex.compile(g);
    let in_flight = PEAK.load(Ordering::Relaxed) - before;
    let bytes = LIVE.load(Ordering::Relaxed) as i64 - before as i64;
    let s = flow.stats();
    let accesses = g.total_accesses() as u64;
    let quiet: usize = (0..workers)
        .map(|w| {
            flow.own_tasks(WorkerId::from_index(w))
                .filter(|t| t.quiet())
                .count()
        })
        .sum();
    let runs = &s.runs_per_worker;
    format!(
        "{name} {workers} {} {accesses} {} {} {} {} {} {} {quiet} {} {} {in_flight} {bytes}",
        s.flow_len,
        accesses - s.elided_gets,
        accesses - s.elided_publishes,
        s.shared_objects,
        s.irrelevant_declares,
        runs.iter().min().unwrap(),
        runs.iter().max().unwrap(),
        s.program_len,
        s.segments,
    )
}

/// `table` as text, its columns aligned but the last: a change of bytes
/// alone changes no other column's text.
fn render(rows: &[String]) -> String {
    let cells: Vec<Vec<&str>> = std::iter::once(HEADER)
        .chain(rows.iter().map(String::as_str))
        .map(|r| r.split(' ').collect())
        .collect();
    let last = cells[0].len() - 1;
    let widths: Vec<usize> = (0..last)
        .map(|c| cells.iter().map(|r| r[c].len()).max().unwrap())
        .chain([0])
        .collect();
    let mut out = String::new();
    for r in &cells {
        let padded: Vec<String> = r
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(c, (cell, &w))| match c {
                0 => format!("{cell:<w$}"),
                c if c == last => cell.to_string(),
                _ => format!("{cell:>w$}"),
            })
            .collect();
        out.push_str(padded.join(" ").trim_end());
        out.push('\n');
    }
    out
}

/// The rows without their heap columns.
fn counts(table: &str) -> Vec<String> {
    table
        .lines()
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            cells[..cells.len() - 2].join(" ")
        })
        .collect()
}

#[test]
fn compile_rows_match_the_committed_table() {
    let cpus = two_cpus();
    let mut rows = Vec::new();
    for (name, g, mapping) in flows() {
        for workers in WORKERS {
            rows.push(row(name, &g, &*mapping(workers), workers));
        }
    }
    let got = render(&rows);
    let want = include_str!("compile_rows.txt");
    let same = if cpus >= 2 {
        got == want
    } else {
        eprintln!("one CPU: no compile splits, so the heap columns are not compared");
        counts(&got) == counts(want)
    };
    assert!(
        same,
        "compile rows differ from tests/compile_rows.txt; recomputed:\n{got}"
    );
}
