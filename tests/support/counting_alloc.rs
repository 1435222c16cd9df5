//! The counting global allocator behind the allocation-freedom proofs in
//! `crates/{core,runtime,server}/tests/alloc_free.rs`, each of which pulls
//! this file in with `#[path]` (a test binary can install only one global
//! allocator, and a support crate would be a fourth place to keep one).
//!
//! Every allocation and reallocation bumps two counters: the calling
//! thread's, for proofs about one thread's hot path while other threads
//! run ([`thread_allocs`]), and the process's, for proofs that include the
//! pool's worker threads ([`process_allocs`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// The system allocator plus the two allocation counters.
struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter updates allocate
// nothing (a `const`-initialized thread-local `Cell<u64>` and a static
// atomic).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
#[allow(dead_code)] // each including test reads one of the two counters
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Allocations every thread of the process has made so far.
#[allow(dead_code)]
pub fn process_allocs() -> u64 {
    PROCESS_ALLOCS.load(Ordering::Relaxed)
}
