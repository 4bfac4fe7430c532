//! A counting global allocator for allocation-budget tests.
//!
//! Install it in a test binary with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: defcon_support::testalloc::CountingAllocator = CountingAllocator;
//! ```
//!
//! and bracket the region under test with [`thread_allocations`] or
//! [`thread_allocated_bytes`]: the counters are **per-thread**
//! (`const`-initialized thread-local `Cell`s, so reading one never
//! allocates), which keeps counts exact even when the test harness runs
//! other tests — or its own bookkeeping — on sibling threads.
//!
//! Only used by tests (the zero-allocation trace-hot-path contract); the
//! production binaries use the system allocator untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations performed by the current thread since it started.
    /// `realloc` and `alloc_zeroed` count as one allocation each.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations requested: the size of each `alloc` and
    /// `alloc_zeroed`, and the new size of each `realloc`.
    static THREAD_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations performed by the calling thread so far. Subtract two
/// readings to get the count for a region.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// Bytes the calling thread's allocations have requested so far (frees
/// are not subtracted). Subtract two readings to get a region's bytes.
pub fn thread_allocated_bytes() -> u64 {
    THREAD_ALLOC_BYTES.with(|c| c.get())
}

/// A `System`-backed allocator that counts allocations and their bytes
/// per thread.
pub struct CountingAllocator;

#[inline]
fn bump(bytes: usize) {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    THREAD_ALLOC_BYTES.with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: defers all memory management to `System`; only adds counting.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the allocator is not installed in this crate's own test binary
    // (that would tax every unrelated test); these tests only cover the
    // counter plumbing. The end-to-end zero-allocation assertion lives in
    // the workspace-root `tests/zero_alloc.rs`, which does install it.

    #[test]
    fn counter_starts_reads_and_is_monotonic() {
        let a = thread_allocations();
        let b = thread_allocations();
        assert!(b >= a);
    }

    #[test]
    fn bump_increments_this_thread_only() {
        let (before, bytes) = (thread_allocations(), thread_allocated_bytes());
        bump(48);
        assert_eq!(thread_allocations(), before + 1);
        assert_eq!(thread_allocated_bytes(), bytes + 48);
        let handle = std::thread::spawn(thread_allocations);
        // The spawned thread's count is independent of this thread's.
        let other = handle.join().unwrap();
        assert!(other < u64::MAX);
        assert_eq!(thread_allocations(), before + 1);
        assert_eq!(thread_allocated_bytes(), bytes + 48);
    }
}
