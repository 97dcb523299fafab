//! A counting wrapper around the system allocator.
//!
//! The counters are always on (two relaxed atomic adds per allocation) so
//! the traced and untraced passes run the same allocator; they are *read*
//! only around a measured phase, as a [`Snapshot`] difference.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocator installed by `main.rs` as `#[global_allocator]`.
pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics only and
// publish no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this wrapper with
        // this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth counts as one allocation of the added bytes.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from this wrapper, `new_size` from the
        // caller, all passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals at one instant, process-wide (all threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl Snapshot {
    pub fn now() -> Snapshot {
        Snapshot { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
    }

    /// Allocations and bytes requested since `self` was taken.
    pub fn elapsed(self) -> Snapshot {
        let now = Snapshot::now();
        Snapshot { allocs: now.allocs - self.allocs, bytes: now.bytes - self.bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_bytes() {
        let before = Snapshot::now();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let boxed = Box::new([0u64; 16]);
        let d = before.elapsed();
        std::hint::black_box((&v, &boxed));
        // Other test threads allocate too, so these are lower bounds.
        assert!(d.allocs >= 2, "{d:?}");
        assert!(d.bytes >= 4096 + 128, "{d:?}");
    }

    #[test]
    fn growth_counts_added_bytes_only() {
        let mut v: Vec<u8> = Vec::with_capacity(1 << 20);
        v.push(1);
        let before = Snapshot::now();
        v.reserve_exact(2 << 20);
        let d = before.elapsed();
        std::hint::black_box(&v);
        assert!(d.allocs >= 1);
        assert!(d.bytes >= 1 << 20, "{d:?}");
    }
}
