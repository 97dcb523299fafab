//! A counting global allocator for the allocation-ceiling tests
//! (`cache_alloc.rs`, `compile_alloc.rs`, `net_alloc.rs`): each installs
//! [`Counting`] as its `#[global_allocator]` and brackets the code under
//! test with [`allocs_during`], or reads what it keeps with
//! [`live_bytes`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations and the bytes it holds; the harness's
/// other threads do not disturb the counts.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread: negative when it
    /// frees blocks another thread allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// One allocation (or reallocation) that changed this thread's live bytes
/// by `bytes`.
fn count(bytes: i64) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    live(bytes);
}

fn live(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s, so touching them neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` through this wrapper with
        // this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` come from this wrapper, `new_size` from the
        // caller, all passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns its result with the allocations this thread made
/// meanwhile.
pub fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The bytes this thread has allocated and not freed, counted from its
/// start: what it holds now, less what it freed of other threads' blocks.
/// Only differences between two readings mean anything.
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}
