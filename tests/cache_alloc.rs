//! What a `CompileCache` unit hit allocates (DESIGN.md §16): the served
//! artifacts are shared, not copied, so a hit costs a handful of
//! allocations however large the unit is. A deep clone of one paper
//! application is over a thousand, so the bound below is the host- and
//! load-independent gate against the copy coming back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netcl::{CompileCache, CompileOptions, Compiler};
use netcl_apps::{agg, cache, calc, paxos};

/// Counts this thread's allocations; the harness's other threads do not
/// disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell`, so touching it neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this wrapper with
        // this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` come from this wrapper, `new_size` from the
        // caller, all passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn unit_hit_allocates_a_handful() {
    let cc = Compiler::new(CompileOptions::default());
    for (name, source) in [
        ("agg.ncl", agg::netcl_source(&agg::AggConfig::default())),
        ("cache.ncl", cache::netcl_source(&cache::CacheConfig::default())),
        ("calc.ncl", calc::netcl_source()),
        ("paxos.ncl", paxos::full_source()),
    ] {
        let mut cache = CompileCache::new();
        let (cold, cold_allocs) =
            allocs_during(|| cc.compile_incremental(name, &source, &mut cache).expect("compiles"));
        let (hit, hit_allocs) =
            allocs_during(|| cc.compile_incremental(name, &source, &mut cache).expect("compiles"));
        assert!(hit.reuse.unit_hit, "{name}: second compile missed");
        assert_eq!(hit.devices.len(), cold.devices.len());
        assert!(
            hit_allocs <= 8,
            "{name}: a unit hit made {hit_allocs} allocations (cold compile: {cold_allocs})"
        );
        // The counter does count: the cold compile built all of this.
        assert!(cold_allocs > 1_000, "{name}: cold compile counted {cold_allocs} allocations");
    }
}
