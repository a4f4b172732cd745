//! Counting global allocator, owned by the benchmark so `allocs_per_op`
//! needs nothing from the product crates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Wraps the system allocator and counts heap acquisitions (alloc and
/// realloc; frees are not counted). Relaxed is enough: the count is a
/// statistic read from the one thread that allocates.
pub struct CountingAlloc;

// SAFETY: every operation is forwarded unchanged to `System`; the counter
// update does not touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller guaranteed valid for `alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap acquisitions since process start (0 unless [`CountingAlloc`] is the
/// global allocator, as it is in the benchmark binary).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
