//! Micro-benchmarks of the decentralized synchronization protocol — the
//! "one or two writes in private memory per dependency" claim of §3.3,
//! measured operation by operation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rio_core::protocol::{
    declare_read, declare_write, expected_read_word, expected_write_word, get_read_word_cx,
    get_write_word_cx, terminate_read, terminate_write, AbortFlag, LocalDataState, SharedDataState,
    WaitCx,
};
use rio_core::WaitStrategy;
use rio_stf::{DataId, DataStore, TaskId};

fn bench_declares(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol/declare");
    g.bench_function("declare_read", |b| {
        let mut local = LocalDataState::default();
        b.iter(|| {
            declare_read(black_box(&mut local));
        });
    });
    g.bench_function("declare_write", |b| {
        let mut local = LocalDataState::default();
        let mut id = 1u64;
        b.iter(|| {
            declare_write(black_box(&mut local), TaskId(id));
            id += 1;
        });
    });
    g.finish();
}

fn bench_get_terminate_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol/owner-cycle");
    // The owner's fast path: get (no wait) + terminate, read and write.
    g.bench_function("get+terminate_read", |b| {
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();
        let abort = AbortFlag::new();
        b.iter(|| {
            black_box(get_read_word_cx(
                &shared,
                expected_read_word(&local),
                &WaitCx::new(WaitStrategy::Spin, &abort),
            ));
            terminate_read(&shared, &mut local, WaitStrategy::Spin);
        });
    });
    g.bench_function("get+terminate_write", |b| {
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();
        let abort = AbortFlag::new();
        let mut id = 1u64;
        b.iter(|| {
            black_box(get_write_word_cx(
                &shared,
                expected_write_word(&local),
                &WaitCx::new(WaitStrategy::Spin, &abort),
            ));
            terminate_write(&shared, &mut local, TaskId(id), WaitStrategy::Spin);
            id += 1;
        });
    });
    // Park-mode terminate includes the wake path (lock + notify).
    g.bench_function("get+terminate_write_park", |b| {
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();
        let abort = AbortFlag::new();
        let mut id = 1u64;
        b.iter(|| {
            black_box(get_write_word_cx(
                &shared,
                expected_write_word(&local),
                &WaitCx::new(WaitStrategy::Park, &abort),
            ));
            terminate_write(&shared, &mut local, TaskId(id), WaitStrategy::Park);
            id += 1;
        });
    });
    g.finish();
}

/// Satellite of the single-word protocol rework: the uncontended
/// Park-mode terminate in isolation. With waiter-aware wake elision this
/// is one atomic store (write) or one `fetch_add` (read) plus a waiters
/// check — no mutex, no condvar, no syscall.
fn bench_terminate_uncontended(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol/terminate_uncontended");
    g.bench_function("terminate_write_park", |b| {
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();
        let mut id = 1u64;
        b.iter(|| {
            terminate_write(
                black_box(&shared),
                &mut local,
                TaskId(id),
                WaitStrategy::Park,
            );
            id += 1;
        });
    });
    g.bench_function("terminate_read_park", |b| {
        let shared = SharedDataState::default();
        let mut local = LocalDataState::default();
        b.iter(|| {
            terminate_read(black_box(&shared), &mut local, WaitStrategy::Park);
        });
    });
    g.finish();
}

/// Satellite of the bounded work-stealing layer: the per-task claim slot
/// in isolation. `claim_cas` is the owner/thief claim — one acquire load
/// plus one AcqRel `compare_exchange` on an uncontended padded slot (the
/// armed-but-idle cost every owned task pays). `owner_check` is the
/// fast-path re-read a scan does before attempting the CAS — one acquire
/// load. `begin_run` per iteration keeps every CAS uncontended-fresh
/// without zeroing the slots (epoch recycling).
fn bench_steal_claim(c: &mut Criterion) {
    use rio_core::steal::ClaimTable;
    let mut g = c.benchmark_group("protocol/steal_claim");
    g.bench_function("claim_cas", |b| {
        let claims = ClaimTable::new(1);
        b.iter(|| {
            let epoch = claims.begin_run();
            black_box(claims.try_claim(black_box(0), epoch, 0));
        });
    });
    g.bench_function("owner_check", |b| {
        let claims = ClaimTable::new(1);
        let epoch = claims.begin_run();
        claims.try_claim(0, epoch, 0);
        b.iter(|| {
            black_box(claims.claimant(black_box(0), epoch));
        });
    });
    g.finish();
}

fn bench_store_guards(c: &mut Criterion) {
    let mut g = c.benchmark_group("store/guards");
    let store = DataStore::from_vec(vec![0u64; 4]);
    g.bench_function("read_guard", |b| {
        b.iter(|| {
            let v = store.read(DataId(1));
            black_box(*v);
        });
    });
    g.bench_function("write_guard", |b| {
        b.iter(|| {
            let mut v = store.write(DataId(1));
            *v += 1;
            black_box(&mut v);
        });
    });
    g.bench_function("unchecked_read", |b| {
        b.iter(|| {
            // Safety: single-threaded bench, no writer active.
            let v = unsafe { store.get_unchecked(DataId(1)) };
            black_box(*v);
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_declares, bench_get_terminate_cycle, bench_terminate_uncontended, bench_steal_claim, bench_store_guards
}
criterion_main!(benches);
