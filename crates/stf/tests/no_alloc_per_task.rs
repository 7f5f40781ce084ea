//! A task graph allocates nothing per task: a descriptor holds up to three
//! accesses in place, and a longer list spills to exactly one block.
//!
//! The binary installs its own counting allocator. Counts are kept per
//! thread, so the test harness's other threads never show in them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use rio_stf::{Access, DataId, TaskDesc, TaskGraph};

/// The system allocator, counting the calling thread's requests.
struct Counting;

#[derive(Clone, Copy, Debug, PartialEq)]
struct Tally {
    /// Blocks requested (`alloc`, `alloc_zeroed` and `realloc`).
    blocks: u64,
    /// Of those, blocks whose size is no whole number of descriptors: any
    /// block other than the task vector's.
    other_blocks: u64,
    /// Bytes of those other blocks.
    other_bytes: u64,
    allocated: u64,
    freed: u64,
}

const ZERO: Tally = Tally {
    blocks: 0,
    other_blocks: 0,
    other_bytes: 0,
    allocated: 0,
    freed: 0,
};

thread_local! {
    static TALLY: Cell<Tally> = const { Cell::new(ZERO) };
}

fn count(f: impl FnOnce(&mut Tally)) {
    // A const-initialised `Cell` with no destructor: `try_with` allocates
    // nothing and only fails while the thread is torn down.
    let _ = TALLY.try_with(|cell| {
        let mut t = cell.get();
        f(&mut t);
        cell.set(t);
    });
}

fn grow(bytes: usize) {
    count(|t| {
        t.blocks += 1;
        t.allocated += bytes as u64;
        if !bytes.is_multiple_of(size_of::<TaskDesc>()) {
            t.other_blocks += 1;
            t.other_bytes += bytes as u64;
        }
    });
}

fn shrink(bytes: usize) {
    count(|t| t.freed += bytes as u64);
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
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` requested on this thread.
fn tally(f: impl FnOnce()) -> Tally {
    TALLY.with(|cell| cell.set(ZERO));
    f();
    TALLY.with(Cell::get)
}

const TASKS: usize = 10_000;

/// Task `i`'s accesses: `i % 4` of them, so 0 to 3, on distinct objects.
fn accesses(i: usize) -> [Access; 3] {
    let d = |k: usize| DataId::from_index((i + k) % 16);
    [
        Access::read(d(0)),
        Access::write(d(1)),
        Access::read_write(d(2)),
    ]
}

#[test]
fn tasks_of_up_to_three_accesses_allocate_only_the_task_vector() {
    let mut builder = None;
    let appends = tally(|| {
        let mut b = TaskGraph::builder(16);
        for i in 0..TASKS {
            b.task(&accesses(i)[..i % 4], 1, "t");
        }
        builder = Some(b);
    });
    assert_eq!(appends.other_blocks, 0, "{appends:?}");
    // The vector doubles: a handful of blocks for 10 000 tasks, not one per task.
    let doublings = (usize::BITS - TASKS.leading_zeros()) as u64;
    assert!(appends.blocks <= doublings, "{appends:?}");

    let graph = builder.take().expect("the builder was kept").build();
    assert_eq!(graph.len(), TASKS);
    assert_eq!(graph.total_accesses(), TASKS / 4 * 6);
    let dropped = tally(|| drop(graph));
    assert_eq!(dropped.blocks, 0, "{dropped:?}");
    assert_eq!(
        dropped.freed,
        appends.allocated - appends.freed,
        "dropping frees what the appends left live"
    );
}

#[test]
fn a_task_of_five_accesses_spills_exactly_one_block() {
    let five: Vec<Access> = (0..5).map(|k| Access::read(DataId(k))).collect();
    let mut builder = None;
    let appends = tally(|| {
        let mut b = TaskGraph::builder(5);
        b.task(&five, 1, "wide");
        builder = Some(b);
    });
    assert_eq!(appends.other_blocks, 1, "{appends:?}");
    assert_eq!(appends.other_bytes, 5 * size_of::<Access>() as u64);
    let graph = builder.take().expect("the builder was kept").build();
    assert_eq!(&graph.tasks()[0].accesses[..], five.as_slice());
    let dropped = tally(|| drop(graph));
    assert_eq!(dropped.freed, appends.allocated - appends.freed);
}
