//! Typed shared storage for runtime-managed data objects, with *dynamic
//! borrow checking*.
//!
//! Every runtime in this workspace guarantees (by its execution model) that
//! two conflicting task accesses to the same data object never overlap in
//! time. [`DataStore`] is the place where that guarantee is turned into
//! actual `&T` / `&mut T` references. Instead of trusting the runtimes
//! blindly, each slot carries an atomic borrow flag — a `RefCell`-style
//! count that works across threads — so that a buggy runtime (or a wrong
//! user-supplied mapping… which cannot happen for *correct* mappings, but
//! is exactly the kind of bug you want loud) produces an immediate panic
//! rather than undefined behaviour:
//!
//! * acquiring a [`WriteGuard`] while any other guard is live panics;
//! * acquiring a [`ReadGuard`] while a writer is live panics.
//!
//! The check costs one atomic read-modify-write per acquire/release. For
//! peak-performance kernels the `unsafe` [`DataStore::get_unchecked`] /
//! [`DataStore::get_unchecked_mut`] escape hatches skip it; the benchmark
//! harness uses the checked path everywhere, which doubles as a built-in
//! race detector for every experiment we run.
//!
//! ```
//! use rio_stf::{DataStore, DataId};
//!
//! let store = DataStore::from_vec(vec![1.0f64, 2.0]);
//! {
//!     let mut w = store.write(DataId(0));
//!     *w += 10.0;
//! }
//! assert_eq!(*store.read(DataId(0)), 11.0);
//! ```

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::ids::DataId;

/// Borrow-state encoding: 0 = free, `WRITER` = one exclusive borrow,
/// anything in between = that many shared borrows.
const WRITER: u32 = u32::MAX;
/// Shared-borrow counts at or above this are a sign of a leak/bug.
const MAX_READERS: u32 = u32::MAX - 2;

/// One data object: its value plus its borrow flag, a cache line of its
/// own (a small value's) so that borrows of neighbours never false-share;
/// the runtimes' per-object protocol words live apart (DESIGN.md §7 has
/// the 16-, 64- and 128-byte measurements).
#[repr(align(64))]
struct Slot<T> {
    state: AtomicU32,
    value: UnsafeCell<T>,
}

// Safety: access to `value` is mediated by the `state` borrow flag (checked
// API) or by the caller's external synchronization (unchecked API, `unsafe`).
unsafe impl<T: Send> Sync for Slot<T> {}
unsafe impl<T: Send> Send for Slot<T> {}

/// A `Sync` typed store of data objects indexed by [`DataId`], with
/// per-object dynamic borrow checking. See the module docs.
pub struct DataStore<T> {
    slots: Box<[Slot<T>]>,
}

impl<T> DataStore<T> {
    /// Builds a store holding the given values; `DataId(i)` names `values[i]`.
    pub fn from_vec(values: Vec<T>) -> DataStore<T> {
        let mut values = values.into_iter();
        DataStore::new_with(values.len(), |_| values.next().expect("a value per slot"))
    }

    /// Builds a store of `n` objects produced by `init(index)`, in place.
    pub fn new_with(n: usize, mut init: impl FnMut(usize) -> T) -> DataStore<T> {
        let slot = |i| Slot {
            state: AtomicU32::new(0),
            value: UnsafeCell::new(init(i)),
        };
        DataStore {
            slots: (0..n).map(slot).collect(),
        }
    }

    /// Number of data objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the store empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Acquires a shared borrow of object `id`.
    ///
    /// # Panics
    /// If a [`WriteGuard`] on the same object is live (a data race a correct
    /// runtime can never produce), or if `id` is out of range.
    #[inline]
    pub fn read(&self, id: DataId) -> ReadGuard<'_, T> {
        let slot = &self.slots[id.index()];
        let prev = slot.state.fetch_add(1, Ordering::Acquire);
        if prev >= MAX_READERS {
            slot.state.fetch_sub(1, Ordering::Release);
            panic!("data race detected: read of {id} while a writer is active");
        }
        ReadGuard { slot }
    }

    /// Acquires an exclusive borrow of object `id`.
    ///
    /// # Panics
    /// If any other guard on the same object is live, or if `id` is out of
    /// range.
    #[inline]
    pub fn write(&self, id: DataId) -> WriteGuard<'_, T> {
        let slot = &self.slots[id.index()];
        if slot
            .state
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            panic!("data race detected: write of {id} while other accesses are active");
        }
        WriteGuard { slot }
    }

    /// Shared access without the borrow check.
    ///
    /// # Safety
    /// The caller must guarantee that no exclusive access to `id` is live
    /// for the lifetime of the returned reference (this is exactly what a
    /// correct STF runtime guarantees between `get_read`/`terminate_read`).
    #[inline]
    pub unsafe fn get_unchecked(&self, id: DataId) -> &T {
        &*self.slots[id.index()].value.get()
    }

    /// Exclusive access without the borrow check.
    ///
    /// # Safety
    /// The caller must guarantee that no other access to `id` is live for
    /// the lifetime of the returned reference.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_unchecked_mut(&self, id: DataId) -> &mut T {
        &mut *self.slots[id.index()].value.get()
    }

    /// Plain exclusive access through `&mut self` (no atomics needed:
    /// the borrow checker proves exclusivity statically).
    #[inline]
    pub fn get_mut(&mut self, id: DataId) -> &mut T {
        self.slots[id.index()].value.get_mut()
    }

    /// Consumes the store and returns the values in id order.
    pub fn into_vec(self) -> Vec<T> {
        self.slots
            .into_vec()
            .into_iter()
            .map(|s| s.value.into_inner())
            .collect()
    }

    /// Iterates over the values through `&mut self`.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().map(|s| s.value.get_mut())
    }
}

impl<T: Clone> DataStore<T> {
    /// Builds a store of `n` clones of `value`.
    pub fn filled(n: usize, value: T) -> DataStore<T> {
        DataStore::new_with(n, |_| value.clone())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for DataStore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DataStore(len={})", self.len())
    }
}

/// Shared borrow of one data object. Releases the borrow flag on drop.
pub struct ReadGuard<'a, T> {
    slot: &'a Slot<T>,
}

impl<T> std::ops::Deref for ReadGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: the borrow flag records at least this shared borrow, so
        // no exclusive reference exists.
        unsafe { &*self.slot.value.get() }
    }
}

impl<T> Drop for ReadGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.slot.state.fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive borrow of one data object. Releases the borrow flag on drop.
pub struct WriteGuard<'a, T> {
    slot: &'a Slot<T>,
}

impl<T> std::ops::Deref for WriteGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // Safety: the borrow flag records this exclusive borrow.
        unsafe { &*self.slot.value.get() }
    }
}

impl<T> std::ops::DerefMut for WriteGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // Safety: the borrow flag records this exclusive borrow.
        unsafe { &mut *self.slot.value.get() }
    }
}

impl<T> Drop for WriteGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.slot.state.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let store = DataStore::from_vec(vec![0u64; 4]);
        *store.write(DataId(2)) = 42;
        assert_eq!(*store.read(DataId(2)), 42);
        assert_eq!(*store.read(DataId(0)), 0);
    }

    #[test]
    fn multiple_concurrent_readers_are_fine() {
        let store = DataStore::from_vec(vec![7u32]);
        let a = store.read(DataId(0));
        let b = store.read(DataId(0));
        assert_eq!(*a + *b, 14);
    }

    #[test]
    #[should_panic(expected = "data race detected")]
    fn write_while_read_panics() {
        let store = DataStore::from_vec(vec![0u32]);
        let _r = store.read(DataId(0));
        let _w = store.write(DataId(0));
    }

    #[test]
    #[should_panic(expected = "data race detected")]
    fn read_while_write_panics() {
        let store = DataStore::from_vec(vec![0u32]);
        let _w = store.write(DataId(0));
        let _r = store.read(DataId(0));
    }

    #[test]
    #[should_panic(expected = "data race detected")]
    fn double_write_panics() {
        let store = DataStore::from_vec(vec![0u32]);
        let _w1 = store.write(DataId(0));
        let _w2 = store.write(DataId(0));
    }

    #[test]
    fn guards_release_on_drop() {
        let store = DataStore::from_vec(vec![0u32]);
        drop(store.write(DataId(0)));
        drop(store.read(DataId(0)));
        let _w = store.write(DataId(0)); // must not panic
    }

    #[test]
    fn distinct_objects_are_independent() {
        let store = DataStore::from_vec(vec![0u32, 1, 2]);
        let _w0 = store.write(DataId(0));
        let _w1 = store.write(DataId(1)); // distinct slot: fine
        let _r = store.read(DataId(2)); // untouched slot: fine
    }

    #[test]
    #[should_panic(expected = "data race detected")]
    fn read_during_write_of_same_slot_panics() {
        let store = DataStore::from_vec(vec![0u32, 1]);
        let _w1 = store.write(DataId(1));
        let _r = store.read(DataId(1));
    }

    #[test]
    fn get_mut_and_into_vec() {
        let mut store = DataStore::new_with(3, |i| i as u64);
        *store.get_mut(DataId(1)) = 99;
        for v in store.iter_mut() {
            *v += 1;
        }
        assert_eq!(store.into_vec(), vec![1, 100, 3]);
    }

    #[test]
    fn filled_clones_value() {
        let store = DataStore::filled(3, String::from("x"));
        assert_eq!(&*store.read(DataId(2)), "x");
    }

    #[test]
    fn concurrent_readers_across_threads() {
        let store = std::sync::Arc::new(DataStore::from_vec(vec![123u64]));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&store);
                std::thread::spawn(move || *s.read(DataId(0)))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 123);
        }
    }

    #[test]
    fn unchecked_access_respects_caller_guarantee() {
        let store = DataStore::from_vec(vec![5u64]);
        // Single-threaded here, so exclusivity is trivially guaranteed.
        unsafe {
            *store.get_unchecked_mut(DataId(0)) += 1;
            assert_eq!(*store.get_unchecked(DataId(0)), 6);
        }
    }

    #[test]
    fn slot_is_one_cache_line() {
        assert_eq!((align_of::<Slot<u64>>(), size_of::<Slot<u64>>()), (64, 64));
    }
}
