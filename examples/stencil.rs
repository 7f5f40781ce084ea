//! 1-D heat diffusion as a stencil task flow on RIO, verified against a
//! sequential reference.
//!
//! Run with: `cargo run --release --example stencil [cells] [sweeps] [cell_len]`
//!
//! The domain is split into `cells` chunks of `cell_len` points with
//! double buffering; each sweep updates every chunk from its own and its
//! neighbours' previous-sweep values (explicit Euler for u_t = u_xx).
//! A *block* mapping keeps all but the chunk-boundary dependencies local
//! to a worker — the friendly case for decentralized in-order execution.

use rio::core::{Executor, RioConfig, TraceConfig};
use rio::stf::{DataStore, TaskDesc, WorkerId};
use rio::workloads::stencil;

const ALPHA: f64 = 0.2; // diffusion number (stable: <= 0.5)

/// One diffusion step of chunk `c` reading the previous-sweep buffers.
fn diffuse(prev_left: Option<&[f64]>, prev: &[f64], prev_right: Option<&[f64]>, out: &mut [f64]) {
    let n = prev.len();
    for i in 0..n {
        let left = if i > 0 {
            prev[i - 1]
        } else {
            prev_left.map_or(prev[0], |l| l[l.len() - 1])
        };
        let right = if i + 1 < n {
            prev[i + 1]
        } else {
            prev_right.map_or(prev[n - 1], |r| r[0])
        };
        out[i] = prev[i] + ALPHA * (left - 2.0 * prev[i] + right);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cells: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let sweeps: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(50);
    let cell_len: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(256);
    let workers = 4;

    // Initial condition: a hot spike in the middle of the domain.
    let total = cells * cell_len;
    let init = |g: usize| if g == total / 2 { 1000.0 } else { 0.0 };

    // Sequential reference on a flat array.
    let mut ref_prev: Vec<f64> = (0..total).map(init).collect();
    let mut ref_next = vec![0.0f64; total];
    for _ in 0..sweeps {
        for i in 0..total {
            let left = ref_prev[i.saturating_sub(1)];
            let right = ref_prev[(i + 1).min(total - 1)];
            ref_next[i] = ref_prev[i] + ALPHA * (left - 2.0 * ref_prev[i] + right);
        }
        std::mem::swap(&mut ref_prev, &mut ref_next);
    }

    // Task-flow version: data objects are (buffer, chunk) pairs.
    let graph = stencil::graph(cells, sweeps, cell_len as u64);
    let mapping = stencil::mapping(cells, sweeps, workers);
    println!(
        "stencil: {cells} chunks x {sweeps} sweeps ({} tasks, critical path {})",
        graph.len(),
        graph.stats().critical_path_tasks
    );

    // Buffer 0 = even sweeps' source, buffer 1 = odd sweeps' source.
    let store = DataStore::new_with(2 * cells, |x| {
        let (buf, c) = (x / cells, x % cells);
        (0..cell_len)
            .map(|i| {
                if buf == 0 {
                    init(c * cell_len + i)
                } else {
                    0.0
                }
            })
            .collect::<Vec<f64>>()
    });

    let kernel = |_: WorkerId, t: &TaskDesc| {
        // Accesses: [R self, (R left)?, (R right)?, W dst] — recover the
        // chunk/sweep from the access pattern.
        let src_self = t.accesses[0].data;
        let dst = t.accesses[t.accesses.len() - 1].data;
        let c = src_self.index() % cells;
        let src_buf_base = (src_self.index() / cells) * cells;

        let prev = store.read(src_self);
        let left = (c > 0).then(|| store.read(rio::stf::DataId::from_index(src_buf_base + c - 1)));
        let right =
            (c + 1 < cells).then(|| store.read(rio::stf::DataId::from_index(src_buf_base + c + 1)));
        let mut out = store.write(dst);
        diffuse(
            left.as_deref().map(Vec::as_slice),
            &prev,
            right.as_deref().map(Vec::as_slice),
            &mut out,
        );
    };

    // Traced, with room for every task and every wait of the flow: the
    // run's task spans are what the audit checks.
    let room = graph.len() + graph.total_accesses();
    let t0 = std::time::Instant::now();
    let run = Executor::new(RioConfig::with_workers(workers))
        .mapping(&mapping)
        .trace(TraceConfig::new().with_capacity(room))
        .run(&graph, kernel);
    let elapsed = t0.elapsed();
    let trace = run.trace.expect("a traced run returns its trace");
    trace.audit(&graph).expect("schedule must be consistent");

    // Compare the final buffer with the sequential reference.
    let final_buf = (sweeps % 2) * cells;
    let mut max_err = 0.0f64;
    for c in 0..cells {
        let chunk = store.read(rio::stf::DataId::from_index(final_buf + c));
        for (i, v) in chunk.iter().enumerate() {
            max_err = max_err.max((v - ref_prev[c * cell_len + i]).abs());
        }
    }
    println!("RIO ({workers} workers, block mapping): {elapsed:?}");
    println!("max |task-flow − sequential| = {max_err:.3e}");
    assert!(max_err < 1e-9, "diffusion mismatch");
    println!("verified; schedule audited against STF semantics");
}
