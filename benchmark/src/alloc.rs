//! A counting global allocator: the benchmark binary installs it so that
//! `<l>.new_bytes` is an exact count of what `new(T)` allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// `System`, plus a running total of bytes handed out.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes `f` allocates (on any thread, so call it while no other thread
/// allocates). 0 if the binary did not install [`CountingAlloc`].
pub fn bytes_allocated_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let r = f();
    (ALLOCATED.load(Ordering::Relaxed) - before, r)
}
