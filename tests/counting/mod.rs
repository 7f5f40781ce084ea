//! A counting allocator for the test binaries that read heap figures: the
//! system allocator, counting across every thread — a split compile and a
//! run allocate on the executor's worker threads too. A binary that
//! includes it with `mod counting;` installs it, and should hold one test
//! only, so that no other test allocates while it counts.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// The bytes live now.
pub static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE` has been since a test last stored into it.
pub static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Blocks requested so far: `alloc`, `alloc_zeroed` and `realloc` calls.
pub static BLOCKS: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and only counts beside it; the counters
// never influence what is allocated, returned or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            BLOCKS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed on as received.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            BLOCKS.fetch_add(1, Ordering::Relaxed);
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, which is `System`,
        // for this `layout`: the caller guarantees it.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is passed on as received.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            BLOCKS.fetch_add(1, Ordering::Relaxed);
            // The net change only, so that the peak does not depend on how
            // two threads' moving reallocs interleave.
            match new_size.checked_sub(layout.size()) {
                Some(more) => grow(more),
                None => drop(LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed)),
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;
