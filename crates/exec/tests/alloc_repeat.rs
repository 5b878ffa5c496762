//! What a batch allocates is a function of the batch sequence, not of
//! thread timing: the same sequence of small batches on fresh two-worker
//! pools allocates the same total every time, the same in each pool's
//! first batch and the same in every later one. Jobs wait in a queue that
//! keeps its storage, results return through submission-order slots, and a
//! pool is ready only once its workers have started, so nothing a batch
//! allocates depends on which worker takes, finishes or starts first.
//!
//! This binary's one counting `#[global_allocator]` counts every thread's
//! allocations — the pool's workers are where the timing lives.

use opr_exec::RunPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the arguments it was
// given; the counter never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Batches in one [`sequence`].
const BATCHES: u64 = 2_000;

/// Allocations, on every thread, of a new two-worker pool running
/// [`BATCHES`] two-task batches and being dropped (which joins its
/// workers), and those each batch's `run_batch` call spans.
fn sequence() -> (u64, Vec<u64>) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let pool = RunPool::new(2);
    let mut per_batch = Vec::with_capacity(BATCHES as usize);
    for k in 0..BATCHES {
        let tasks: Vec<_> = (0..2).map(|i| move || k * 2 + i).collect();
        let start = ALLOCS.load(Ordering::SeqCst);
        let results = pool.run_batch(tasks);
        per_batch.push(ALLOCS.load(Ordering::SeqCst) - start);
        assert_eq!(results, [Ok(k * 2), Ok(k * 2 + 1)]);
    }
    drop(pool);
    (ALLOCS.load(Ordering::SeqCst) - before, per_batch)
}

#[test]
fn the_same_batches_allocate_the_same_on_every_fresh_pool() {
    // The first sequence absorbs the process's one-time lazies (and the
    // test harness's, whose main thread waits for this test meanwhile).
    sequence();
    let runs: Vec<(u64, Vec<u64>)> = (0..5).map(|_| sequence()).collect();
    let totals: Vec<u64> = runs.iter().map(|(total, _)| *total).collect();
    assert!(
        totals.windows(2).all(|pair| pair[0] == pair[1]),
        "allocations per sequence moved with thread timing: {totals:?}"
    );
    let firsts: Vec<u64> = runs.iter().map(|(_, per_batch)| per_batch[0]).collect();
    assert!(
        firsts.windows(2).all(|pair| pair[0] == pair[1]),
        "a fresh pool's first batch moved with thread timing: {firsts:?}"
    );
    // And batch by batch: after the first, which sizes the job queue, every
    // two-task batch allocates the same — nothing a worker allocates the
    // first time it waits lands in some batch and not in others.
    for (_, per_batch) in &runs {
        let steady = per_batch[1];
        let odd: Vec<(usize, u64)> = (1..per_batch.len())
            .filter(|&k| per_batch[k] != steady)
            .map(|k| (k, per_batch[k]))
            .collect();
        assert!(
            odd.is_empty(),
            "batches allocating other than {steady}: {odd:?}"
        );
    }
}
