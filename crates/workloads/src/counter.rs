//! The synthetic task body: incrementing a counter (§5.1).
//!
//! The paper substitutes every real task with
//!
//! ```c
//! volatile uint64_t counter = 0;
//! for (uint64_t i = 0; i < N; i++)
//!     counter = i;
//! ```
//!
//! so that the granularity efficiency is 1 (incrementing one counter to
//! `N` costs the same as incrementing `n` counters to `N/n`) and the
//! locality efficiency is 1 (the counter lives on the executing thread's
//! stack). The Rust equivalent uses [`std::hint::black_box`] to forbid the
//! optimizer from collapsing the loop, which is exactly the role of
//! `volatile` in the original.

/// Runs the synthetic counter task of size `n` (≈ `n` loop iterations).
///
/// Never inlined: a kernel is a call, as a task body behind the runtime's
/// `Fn` is, so a row that compares two harnesses or two runtime paths
/// measures the same loop, not wherever the optimizer placed its copy.
#[inline(never)]
pub fn counter_kernel(n: u64) {
    let mut counter = 0u64;
    for i in 0..n {
        counter = std::hint::black_box(i);
    }
    std::hint::black_box(counter);
}

/// A reusable counter-task body of fixed size, usable directly as the
/// kernel argument of either runtime's `execute_graph`.
#[derive(Debug, Clone, Copy)]
pub struct CounterKernel {
    /// Loop iterations per task (the paper's task size, in "instructions").
    pub task_size: u64,
}

impl CounterKernel {
    /// A kernel of `task_size` iterations.
    pub fn new(task_size: u64) -> CounterKernel {
        CounterKernel { task_size }
    }

    /// Runs one task body.
    #[inline]
    pub fn run(&self) {
        counter_kernel(self.task_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn kernel_runs_for_any_size() {
        counter_kernel(0);
        counter_kernel(1);
        counter_kernel(10_000);
    }

    #[test]
    fn cost_scales_roughly_linearly() {
        // The defining property behind e_g = 1: total work for (count, N)
        // depends only on count * N. Compare 1×4M against 4×1M.
        let t0 = Instant::now();
        counter_kernel(4_000_000);
        let one_big = t0.elapsed();

        let t0 = Instant::now();
        for _ in 0..4 {
            counter_kernel(1_000_000);
        }
        let four_small = t0.elapsed();

        let ratio = four_small.as_secs_f64() / one_big.as_secs_f64().max(1e-9);
        assert!(
            (0.2..5.0).contains(&ratio),
            "4×1M vs 1×4M ratio {ratio} wildly off linear"
        );
    }

    #[test]
    fn kernel_struct_is_reusable() {
        let k = CounterKernel::new(100);
        for _ in 0..10 {
            k.run();
        }
        assert_eq!(k.task_size, 100);
    }
}
