//! A counting allocator: live and peak heap bytes of this process.
//!
//! `peak_heap_mb` is what the benchmark bounds, not the peak resident set.
//! `VmHWM` depends on whether glibc serves the runtime's per-run tables from
//! `mmap` or from the heap and on when it trims, and that flips with the
//! process's allocation history — the length of `argv` is enough: 52, 76 or
//! 100 MB for the same `indep-fine` run. Bytes requested repeat.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting. Relaxed throughout: the counters publish
/// no other data.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// What was live at the last [`reset_peak`]: the benchmark's own data (spans,
/// earlier workloads' results), which is not the workload's.
static BASELINE: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and only counts beside it; the counters
// never influence what is allocated, returned or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as received.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, which is `System`,
        // for this `layout`: the caller guarantees it.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is passed on as received.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Grow first, so the peak sees the larger of the two sizes.
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

/// Peak live heap since [`reset_peak`], over what was live then, in MB.
pub fn peak_mb() -> f64 {
    let over = PEAK
        .load(Ordering::Relaxed)
        .saturating_sub(BASELINE.load(Ordering::Relaxed));
    over as f64 / (1024.0 * 1024.0)
}

/// Restarts the peak from what is live now.
pub fn reset_peak() {
    let live = LIVE.load(Ordering::Relaxed);
    BASELINE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_follows_a_large_allocation_and_survives_its_drop() {
        // Other tests allocate and free megabytes concurrently, so the
        // allocation is large and the assertions leave them room.
        const MB: usize = 1024 * 1024;
        reset_peak();
        let big = vec![0u8; 256 * MB];
        std::hint::black_box(&big);
        assert!(peak_mb() >= 128.0);
        drop(big);
        assert!(peak_mb() >= 128.0, "a peak does not shrink");
        reset_peak();
        assert!(peak_mb() < 128.0, "a reset starts over from what is live");
    }
}
