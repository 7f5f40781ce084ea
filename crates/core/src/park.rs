//! Address-keyed, node-sharded parking for
//! [`crate::wait::WaitStrategy::Park`].
//!
//! The packed-epoch protocol (see [`crate::protocol`]) keeps **no** mutex
//! or condvar inside `SharedDataState`: a parked `get_*` waits on a
//! process-wide bucket selected by hashing the address of the data
//! object's epoch word, in the style of `parking_lot_core` / Linux
//! futexes. This shrinks the per-data shared state to a single padded
//! cache line and moves all blocking bookkeeping off the hot path.
//!
//! Since PR 9 the table is sharded per NUMA node: each node owns a
//! private 64-bucket table, and a waiter parks in **its own node's**
//! bucket for the word address (same Fibonacci hash within the shard).
//! Parking traffic therefore never bounces a bucket cache line across
//! sockets. The terminate side learns which shards hold waiters from a
//! per-object `node_mask` advertised before the waiter increments the
//! waiter counter (see the extended wake-elision argument in
//! `protocol.rs` and DESIGN.md §15) and wakes only those shards. On a
//! single-node machine every thread resolves to shard 0 and the table
//! behaves exactly like the pre-sharding global one.
//!
//! Bucket collisions (two data objects hashing to the same bucket) are
//! benign: an unpark on one object may spuriously wake a waiter of the
//! other, which re-checks its epoch word and parks again. Correctness
//! never depends on *which* bucket a waiter sits in, only on the
//! terminate-side protocol (see the wake-elision argument in
//! `protocol.rs`): a waiter advertises itself *before* parking and
//! re-checks its condition under the bucket lock, and an unpark
//! acquires that same lock before notifying, so a published epoch can
//! never slip between a waiter's last check and its park.

use std::cell::Cell;

use parking_lot::{Condvar, Mutex};

/// One parking bucket: the mutex orders park/unpark, the condvar blocks.
pub(crate) struct Bucket {
    pub(crate) lock: Mutex<()>,
    pub(crate) cond: Condvar,
}

/// Buckets per node shard. Power of two so the hash reduces with a
/// shift; 64 keeps each shard at a couple of KiB while making collisions
/// unlikely for the handful of objects that are ever contended at once.
const BUCKETS: usize = 64;

/// Node shards in the table. Machines with more NUMA nodes fold onto the
/// shards modulo this count — still correct (the shard index a waiter
/// advertises is the one it parks in), just with some cross-node bucket
/// sharing. Bounded so the per-object advertisement fits one `AtomicU32`
/// with room to spare and the whole table stays a fixed static.
pub(crate) const MAX_NODE_SHARDS: usize = 8;

#[allow(clippy::declare_interior_mutable_const)] // used only as an array initializer
const EMPTY_BUCKET: Bucket = Bucket {
    lock: Mutex::new(()),
    cond: Condvar::new(),
};

static TABLE: [Bucket; MAX_NODE_SHARDS * BUCKETS] = [EMPTY_BUCKET; MAX_NODE_SHARDS * BUCKETS];

thread_local! {
    /// The shard this thread parks in. Worker threads set it on entry
    /// ([`crate::topo::enter_worker`]); threads that never do (tests,
    /// closure-flow callers) default to shard 0, which reproduces the
    /// pre-sharding global table.
    static CURRENT_SHARD: Cell<usize> = const { Cell::new(0) };
}

/// Binds the calling thread to the parking shard of NUMA node `node`
/// (folded modulo [`MAX_NODE_SHARDS`]).
pub(crate) fn set_current_node(node: usize) {
    CURRENT_SHARD.with(|s| s.set(node % MAX_NODE_SHARDS));
}

/// The shard the calling thread parks in (0 unless bound via
/// [`set_current_node`]).
#[inline]
pub(crate) fn current_shard() -> usize {
    CURRENT_SHARD.with(|s| s.get())
}

#[inline]
fn hash_index<T>(addr: *const T) -> usize {
    let h = (addr as usize as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - BUCKETS.trailing_zeros())) as usize
}

/// The bucket a waiter on `addr` parks in within shard `shard`.
/// Fibonacci hashing of the address; the top bits select the bucket.
#[inline]
pub(crate) fn bucket_for_shard<T>(addr: *const T, shard: usize) -> &'static Bucket {
    debug_assert!(shard < MAX_NODE_SHARDS);
    &TABLE[shard * BUCKETS + hash_index(addr)]
}

/// The bucket a waiter on `addr` parks in: the calling thread's shard,
/// same hash as every shard.
#[inline]
pub(crate) fn bucket_for<T>(addr: *const T) -> &'static Bucket {
    bucket_for_shard(addr, current_shard())
}

#[inline]
fn unpark_bucket(b: &Bucket) {
    // Taking (and immediately releasing) the bucket lock before notifying
    // guarantees that a waiter which checked its condition before the
    // caller's state update is either already inside `cond.wait` (and
    // will receive the notify) or still holds the bucket lock (in which
    // case the caller blocks here until the waiter parks, then notifies
    // it).
    drop(b.lock.lock());
    b.cond.notify_all();
}

/// Wakes every waiter parked on `addr` in **every** shard (and,
/// harmlessly, every waiter sharing those buckets). Used when the caller
/// has no shard advertisement to narrow the walk.
#[cold]
pub(crate) fn unpark_all<T>(addr: *const T) {
    for shard in 0..MAX_NODE_SHARDS {
        unpark_bucket(bucket_for_shard(addr, shard));
    }
}

/// Wakes the waiters parked on `addr` in the shards set in `mask`
/// (bit `n` = shard `n`). A zero mask falls back to walking every shard
/// — the safety net for a waiter observed through the counter before its
/// shard advertisement is visible (cannot happen under the SeqCst
/// protocol in `protocol.rs`, but harmless belt-and-braces).
#[cold]
pub(crate) fn unpark_shards<T>(addr: *const T, mask: u32) {
    if mask == 0 {
        unpark_all(addr);
        return;
    }
    let mut m = mask & ((1u32 << MAX_NODE_SHARDS) - 1);
    while m != 0 {
        let shard = m.trailing_zeros() as usize;
        m &= m - 1;
        unpark_bucket(bucket_for_shard(addr, shard));
    }
}

/// Wakes every parked waiter in the entire process — all shards, all
/// buckets. Used by abort broadcast and spurious-wake storms, where
/// hitting every waiter of a table in O(buckets) beats walking the table
/// in O(data objects).
#[cold]
pub(crate) fn unpark_everything() {
    for b in &TABLE {
        unpark_bucket(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn bucket_selection_is_stable_and_in_range() {
        let xs = [0u64; 16];
        for x in &xs {
            let a = bucket_for(x as *const u64) as *const Bucket;
            let b = bucket_for(x as *const u64) as *const Bucket;
            assert_eq!(a, b, "same address, same bucket");
        }
    }

    #[test]
    fn shards_are_disjoint_but_share_the_hash() {
        let word = 0u64;
        let addr = &word as *const u64;
        let buckets: Vec<*const Bucket> = (0..MAX_NODE_SHARDS)
            .map(|s| bucket_for_shard(addr, s) as *const Bucket)
            .collect();
        for i in 0..buckets.len() {
            for j in i + 1..buckets.len() {
                assert_ne!(buckets[i], buckets[j], "shards own disjoint buckets");
            }
        }
        // Same bucket offset within each shard: consecutive shard bases.
        let base = hash_index(addr);
        for (s, b) in buckets.iter().enumerate() {
            assert_eq!(*b, &TABLE[s * BUCKETS + base] as *const Bucket);
        }
    }

    #[test]
    fn default_shard_is_zero_and_set_current_node_folds() {
        let word = 0u64;
        let addr = &word as *const u64;
        assert_eq!(current_shard(), 0, "unbound threads park in shard 0");
        assert_eq!(
            bucket_for(addr) as *const Bucket,
            bucket_for_shard(addr, 0) as *const Bucket
        );
        set_current_node(3);
        assert_eq!(current_shard(), 3);
        set_current_node(MAX_NODE_SHARDS + 1);
        assert_eq!(current_shard(), 1, "node ids fold modulo the shard count");
        set_current_node(0);
    }

    #[test]
    fn unpark_all_wakes_a_parked_thread() {
        let word = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&word);
        let waiter = std::thread::spawn(move || {
            let b = bucket_for(&*w as *const AtomicU64);
            let mut guard = b.lock.lock();
            while w.load(Ordering::SeqCst) == 0 {
                b.cond.wait(&mut guard);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        word.store(1, Ordering::SeqCst);
        unpark_all(&*word as *const AtomicU64);
        waiter.join().unwrap();
    }

    #[test]
    fn unpark_shards_wakes_only_advertised_shards() {
        // A waiter parked in shard 2 is woken by a mask with bit 2 set.
        let word = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&word);
        let waiter = std::thread::spawn(move || {
            set_current_node(2);
            let b = bucket_for(&*w as *const AtomicU64);
            let mut guard = b.lock.lock();
            while w.load(Ordering::SeqCst) == 0 {
                b.cond.wait(&mut guard);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        word.store(1, Ordering::SeqCst);
        unpark_shards(&*word as *const AtomicU64, 1 << 2);
        waiter.join().unwrap();
    }

    #[test]
    fn zero_mask_falls_back_to_all_shards() {
        let word = Arc::new(AtomicU64::new(0));
        let w = Arc::clone(&word);
        let waiter = std::thread::spawn(move || {
            set_current_node(5);
            let b = bucket_for(&*w as *const AtomicU64);
            let mut guard = b.lock.lock();
            while w.load(Ordering::SeqCst) == 0 {
                b.cond.wait(&mut guard);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        word.store(1, Ordering::SeqCst);
        unpark_shards(&*word as *const AtomicU64, 0);
        waiter.join().unwrap();
    }

    #[test]
    fn unpark_everything_reaches_every_bucket() {
        // Several words that (very likely) hash to distinct buckets,
        // parked across distinct shards.
        let words: Vec<Arc<AtomicU64>> = (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let handles: Vec<_> = words
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let w = Arc::clone(w);
                std::thread::spawn(move || {
                    set_current_node(i);
                    let b = bucket_for(&*w as *const AtomicU64);
                    let mut guard = b.lock.lock();
                    while w.load(Ordering::SeqCst) == 0 {
                        b.cond.wait(&mut guard);
                    }
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(20));
        for w in &words {
            w.store(1, Ordering::SeqCst);
        }
        unpark_everything();
        for h in handles {
            h.join().unwrap();
        }
    }
}
