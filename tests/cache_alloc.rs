//! What a `CompileCache` unit hit allocates (DESIGN.md §16): a hit hands
//! out the cache's own `Arc` of the unit, so it allocates nothing however
//! large the unit is. A deep clone of one paper application is over a
//! thousand allocations and a shallow one (the device `Vec`) is one, so the
//! first bound below is the host- and load-independent gate against either
//! coming back. The second is what an edit that moves every token but
//! leaves every lowered module unchanged costs, the third what an edit that
//! moves no token costs (the token tier), the fourth what a warm cache
//! holds.

mod counting_alloc;

use counting_alloc::{allocs_during, live_bytes, Counting};
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
        assert_eq!(
            hit_allocs, 0,
            "{name}: a unit hit made {hit_allocs} allocations (cold compile: {cold_allocs})"
        );
        // The counter does count: the cold compile built all of this (CALC,
        // the smallest, makes 914).
        assert!(cold_allocs > 800, "{name}: cold compile counted {cold_allocs} allocations");
    }
}

fn ceiling(measured: u64) -> u64 {
    measured + measured / 10
}

/// A comment line inserted at the top, through a warm cache: a unit miss,
/// the token tier's probe (the new text and the newest revision
/// preprocessed, compared, refused: every token moved down a line), then
/// the frontend, lowering and one program key per device, every device
/// served from the program table, and two `Arc`s — the stored revision and
/// the unit handed back. Each row is `(measured, parent)`, where the parent
/// is the commit whose device keys printed every kernel and each module's
/// header (an appended comment there). With the line-by-line preprocessor
/// and no tier: 785 / 873 / 170 / 1 092 (an appended comment, which took
/// this path then: 787 / 875 / 172 / 1 094). While each instruction held
/// its results in a `Vec`: 1 066 / 1 020 / 209 / 1 364; while a miss
/// returned the unit by value, two fewer each.
#[test]
fn comment_only_edit_allocates_the_frontend_and_no_backend() {
    let cc = Compiler::new(CompileOptions::default());
    for (name, source, (measured, parent)) in [
        ("agg.ncl", agg::netcl_source(&agg::AggConfig::default()), (698, 6_090)),
        ("cache.ncl", cache::netcl_source(&cache::CacheConfig::default()), (716, 3_607)),
        ("calc.ncl", calc::netcl_source(), (149, 693)),
        ("paxos.ncl", paxos::full_source(), (935, 5_912)),
    ] {
        let mut cache = CompileCache::new();
        cc.compile_incremental(name, &source, &mut cache).expect("compiles");
        let edited = format!("// retuned\n{source}");
        let (unit, allocs) =
            allocs_during(|| cc.compile_incremental(name, &edited, &mut cache).expect("compiles"));
        assert!(!unit.reuse.unit_hit, "{name}: an edited source hit the unit map");
        assert_eq!(unit.reuse.devices_reused, unit.reuse.devices_total, "{name}");
        eprintln!("{name}: {allocs}");
        assert!(allocs <= ceiling(measured), "{name}: the edit made {allocs} allocations");
        assert!(allocs < parent / 2, "{name}: the edit made {allocs} allocations");
    }
}

/// An edit that moves no token (a comment appended) through a warm cache:
/// the new text and the newest revision's preprocessed once each and
/// compared, then the revision's unit served — a copy of its device list
/// and one `Arc` handed back, the new text and its entry stored. Each row is
/// `(measured, before)`, where before is what the same edit cost while it
/// ran the frontend, lowering and one program key per device.
#[test]
fn token_keeping_edit_allocates_two_preprocessings_and_no_phase() {
    let cc = Compiler::new(CompileOptions::default());
    for (name, source, (measured, before)) in [
        ("agg.ncl", agg::netcl_source(&agg::AggConfig::default()), (20, 787)),
        ("cache.ncl", cache::netcl_source(&cache::CacheConfig::default()), (30, 875)),
        ("calc.ncl", calc::netcl_source(), (6, 172)),
        ("paxos.ncl", paxos::full_source(), (28, 1_094)),
    ] {
        let mut cache = CompileCache::new();
        cc.compile_incremental(name, &source, &mut cache).expect("compiles");
        let edited = format!("{source}\n// retuned\n");
        let (unit, allocs) =
            allocs_during(|| cc.compile_incremental(name, &edited, &mut cache).expect("compiles"));
        assert!(!unit.reuse.unit_hit, "{name}: an edited source hit the unit map");
        assert_eq!(unit.reuse.devices_reused, unit.reuse.devices_total, "{name}");
        assert_eq!(cache.stats().expansion_hits, 1, "{name}: the tier did not serve the edit");
        eprintln!("{name}: {allocs}");
        assert!(allocs <= ceiling(measured), "{name}: the edit made {allocs} allocations");
        assert!(allocs < before / 10, "{name}: the edit made {allocs} allocations");
    }
}

/// The bytes a warm `CompileCache` holds once AGG, CACHE, CALC and P4xos
/// have been compiled through it: each unit's devices — lowered module,
/// both programs, the text — and the program table. A P4 field path is
/// held in place, so the programs hold no block per path. At the parent
/// commit, where every path was a heap `Vec` of its segments: 1 034 509 B;
/// while each IR instruction held its results in a `Vec` and a device
/// whose dialects agree held two modules and two programs: 818 861 B.
#[test]
fn warm_cache_holds_no_block_per_field_path() {
    const MEASURED: i64 = 658_896;
    const PARENT: i64 = 1_034_509;
    let cc = Compiler::new(CompileOptions::default());
    let sources = [
        ("agg.ncl", agg::netcl_source(&agg::AggConfig::default())),
        ("cache.ncl", cache::netcl_source(&cache::CacheConfig::default())),
        ("calc.ncl", calc::netcl_source()),
        ("paxos.ncl", paxos::full_source()),
    ];
    let mut cache = CompileCache::new();
    let before = live_bytes();
    for (name, source) in &sources {
        cc.compile_incremental(name, source, &mut cache).expect("compiles");
    }
    let held = live_bytes() - before;
    assert!(held <= MEASURED + MEASURED / 10, "the warm cache holds {held} B");
    assert!(held < PARENT, "the warm cache holds {held} B");
}
