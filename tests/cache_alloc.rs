//! What a `CompileCache` unit hit allocates (DESIGN.md §16): the served
//! artifacts are shared, not copied, so a hit costs a handful of
//! allocations however large the unit is. A deep clone of one paper
//! application is over a thousand, so the bound below is the host- and
//! load-independent gate against the copy coming back.

mod counting_alloc;

use counting_alloc::{allocs_during, Counting};
use netcl::{CompileCache, CompileOptions, Compiler};
use netcl_apps::{agg, cache, calc, paxos};

#[global_allocator]
static GLOBAL: Counting = Counting;

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
