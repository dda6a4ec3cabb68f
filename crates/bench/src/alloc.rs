//! A counting `#[global_allocator]` wrapper around the system allocator.
//!
//! Installed by this crate only (bench and test binaries that link
//! `ema-bench`), so experiment binaries in other crates run on the plain
//! system allocator. The counter lets the harness report
//! `allocs_per_iter` next to each timing — the allocation-free hot path
//! is *measured*, not asserted (see `Harness` / `BenchResult`).
//!
//! Counting is a handful of relaxed atomic operations per
//! `alloc`/`dealloc`/`realloc`, cheap enough to leave on during timed
//! samples without skewing the medians.
//!
//! Besides the call counter the wrapper tracks **live bytes** (current
//! heap footprint) and their high-water mark: [`peak_bytes`] after
//! [`reset_peak_bytes`] gives a region's peak heap usage — the
//! `peak_bytes` figure the harness reports per bench entry and the
//! peak-RSS proxy the cohort-scaling benches record. Byte accounting is
//! exact for what passes through the global allocator (it does not see
//! stack usage or mmapped regions, so it is a floor on true RSS).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations observed process-wide since startup.
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated (alloc minus dealloc), process-wide.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE_BYTES`] since startup or the last
/// [`reset_peak_bytes`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Records `size` freshly allocated bytes and pushes the peak.
fn record_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// System allocator wrapper that counts calls and live/peak bytes.
pub struct CountingAllocator;

// SAFETY: delegates every operation verbatim to `System`; the only
// additions are relaxed counter updates with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // The old block is gone, the new one is live.
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            record_alloc(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Total heap allocations since process start. Subtract two readings to
/// count the allocations of a code region (single-threaded regions give
/// exact figures; concurrent allocations from other threads are
/// attributed to whoever is measuring).
#[must_use]
pub fn alloc_count() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

/// Bytes currently live on the heap (allocated minus freed).
#[must_use]
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start or the last
/// [`reset_peak_bytes`].
#[must_use]
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Rebases the peak to the current live footprint, so the next
/// [`peak_bytes`] reading reports the high-water mark of the region
/// that follows. Concurrent allocations from other threads are
/// attributed to whoever is measuring (same caveat as [`alloc_count`]).
pub fn reset_peak_bytes() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_observes_heap_allocations() {
        let before = alloc_count();
        let v: Vec<u64> = Vec::with_capacity(1024);
        std::hint::black_box(&v);
        drop(v);
        let after = alloc_count();
        assert!(after > before, "Vec::with_capacity must count as an alloc");
    }

    #[test]
    fn counter_is_monotonic() {
        let a = alloc_count();
        let b = alloc_count();
        assert!(b >= a);
    }
}
