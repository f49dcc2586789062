//! Heap accounting for the bounded-memory and serve-allocation tests
//! (`tests/bounded_memory.rs`, `tests/serve_allocations.rs`).
//!
//! [`TrackingAllocator`] wraps the system allocator with atomic counters:
//! live bytes, the high-water mark since the last [`reset_peak`], the
//! cumulative bytes and number of allocations since process start, and the
//! number of deallocations since process start, in total and made by the
//! current thread.  A test binary that wants the numbers installs it as its
//! global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: pfp_bench::mem::TrackingAllocator = pfp_bench::mem::TrackingAllocator;
//! ```
//!
//! The counters track *requested* allocation sizes (`Layout::size`), not
//! allocator-internal overhead, so they under-count RSS slightly.  Library
//! tests and the binaries never install the allocator, so the counters cost
//! nothing there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static DEALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Deallocations made by this thread.  A `const` initializer and no
    /// destructor: the slot is never lazily set up or torn down, so the
    /// allocator can bump it without allocating, even while a thread exits.
    static THREAD_DEALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Record `size` bytes allocated.  Public so the bookkeeping is unit-testable
/// without installing the allocator.
pub fn record_alloc(size: usize) {
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(now, Ordering::Relaxed);
    ALLOCATED.fetch_add(size, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Record `size` bytes freed, by the current thread.
pub fn record_dealloc(size: usize) {
    CURRENT.fetch_sub(size, Ordering::Relaxed);
    DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_DEALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// High-water mark of live bytes since the last [`reset_peak`] (or process
/// start).
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Bytes allocated since process start, frees not subtracted (a `realloc`
/// counts its new size).  Difference two readings to cost a phase.
pub fn allocated_bytes() -> usize {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Allocations since process start (a `realloc` counts as one).
pub fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Deallocations since process start, on every thread (a `realloc` counts
/// as one, as it does in [`allocations`]).
pub fn deallocations() -> usize {
    DEALLOCATIONS.load(Ordering::Relaxed)
}

/// Deallocations the current thread has made since it started.  Subtract
/// its difference from that of [`deallocations`] to count the frees of the
/// other threads over a phase.
pub fn thread_deallocations() -> usize {
    THREAD_DEALLOCATIONS.with(Cell::get)
}

/// Restart peak tracking from the current live size — call between
/// measurement phases.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// A counting wrapper around the system allocator.  Zero-sized; install with
/// `#[global_allocator]`.
pub struct TrackingAllocator;

// SAFETY: delegates every operation to `System` unchanged; the counters are
// plain atomics and a `const` thread-local, and never allocate.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One sequential test: the counters are process-global, and the test
    // harness runs tests concurrently.
    #[test]
    fn counters_track_live_and_peak_bytes() {
        let live = || CURRENT.load(Ordering::Relaxed);
        let base = live();
        let (bytes0, count0) = (allocated_bytes(), allocations());
        let (frees0, own0) = (deallocations(), thread_deallocations());
        reset_peak();
        assert_eq!(peak_bytes(), base);

        record_alloc(1000);
        assert_eq!(live(), base + 1000);
        assert_eq!(peak_bytes(), base + 1000);

        record_alloc(500);
        record_dealloc(1200);
        assert_eq!(live(), base + 300);
        assert_eq!(peak_bytes(), base + 1500, "peak survives frees");

        reset_peak();
        assert_eq!(peak_bytes(), base + 300, "reset re-anchors to live size");
        record_alloc(100);
        assert_eq!(peak_bytes(), base + 400);
        record_dealloc(400);
        assert_eq!(live(), base);

        assert_eq!(allocated_bytes() - bytes0, 1600, "frees never subtract");
        assert_eq!(allocations() - count0, 3);
        assert_eq!(deallocations() - frees0, 2);
        assert_eq!(thread_deallocations() - own0, 2);

        let other = std::thread::spawn(|| {
            let own = thread_deallocations();
            record_alloc(10);
            record_dealloc(10);
            thread_deallocations() - own
        });
        assert_eq!(other.join().expect("counting thread panicked"), 1);
        assert_eq!(deallocations() - frees0, 3, "every thread's frees count");
        assert_eq!(thread_deallocations() - own0, 2, "another thread's do not");
    }
}
