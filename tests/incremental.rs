//! Property tests for the incremental recompilation cache (DESIGN.md §16):
//! compiling a mutated unit through a warm [`CompileCache`] must be
//! byte-identical — printed IR and printed P4, both dialects, every
//! device — to a cold compile of the same source, for all four paper
//! applications under randomized mutations.
//!
//! Two mutation shapes are exercised:
//!
//! - **config mutations** (AGG, CACHE): the generated source changes in a
//!   way that changes the lowered IR, so both cache levels miss and the
//!   full pipeline re-runs;
//! - **comment mutations** (CALC, PACC): the source text changes but the
//!   lowered IR does not, so the unit cache misses while every device's
//!   program is served from the program table — the served clone must
//!   still match a cold compile exactly.

use std::sync::Arc;

use netcl::{CompileCache, CompileOptions, CompiledUnit, Compiler};
use netcl_apps::{agg, cache, calc, paxos};
use proptest::prelude::*;

/// Every byte-comparable artifact of a unit, rendered: printed base IRs
/// and printed P4 for both dialects, per device, in device order.
fn rendered(unit: &CompiledUnit) -> String {
    let mut out = String::new();
    for d in &unit.devices {
        out.push_str(&format!(";; device {}\n", d.device));
        out.push_str(&netcl::ir::print::print_module(&d.tna_ir));
        out.push_str(&netcl::ir::print::print_module(&d.v1_ir));
        out.push_str(&netcl::p4::print::print_program(&d.tna_p4));
        out.push_str(&netcl::p4::print::print_program(&d.v1_p4));
    }
    out
}

/// Warm a cache with `base`, then compile `mutated` both incrementally
/// (through the warm cache) and cold; the outputs must be byte-identical.
/// Returns the incrementally compiled unit for reuse-shape assertions.
fn check_incremental(name: &str, base: &str, mutated: &str) -> Arc<CompiledUnit> {
    let cc = Compiler::new(CompileOptions::default());
    let mut cache = CompileCache::new();
    cc.compile_incremental(name, base, &mut cache).expect("base compiles");
    let warm = cc.compile_incremental(name, mutated, &mut cache).expect("mutated compiles");
    let cold = cc.compile(name, mutated).expect("cold compiles");
    assert_eq!(
        rendered(&cold),
        rendered(&warm),
        "incremental compile of `{name}` differs from cold compile"
    );
    warm
}

/// A one-unit edit of an N-unit workload, re-driven whole through the warm
/// cache, costs exactly one compile: `unit_hits` grows by N − 1,
/// `unit_misses` by 1, and the one unit not served is the edited one,
/// byte-identical to its cold compile. Counts, not a speed-up ratio, so a
/// silent cache miss fails on any host (how cheap a hit is has its own
/// gate in `tests/cache_alloc.rs`).
#[test]
fn one_unit_edit_of_a_workload_recompiles_exactly_that_unit() {
    let cache_cfg = |i: u32, threshold: u32| cache::CacheConfig {
        threshold,
        sketch_cols: 64 << (i % 3),
        ..Default::default()
    };
    let mut units: Vec<(String, String)> = Vec::new();
    for i in 0..16u32 {
        let agg_cfg = agg::AggConfig { num_workers: 2 + i % 4, num_slots: 2 + i / 4, slot_size: 8 };
        units.push((format!("agg_{i}.ncl"), agg::netcl_source(&agg_cfg)));
        units.push((format!("cache_{i}.ncl"), cache::netcl_source(&cache_cfg(i, 16 + i))));
    }
    units.push(("calc.ncl".into(), calc::netcl_source()));
    units.push(("paxos.ncl".into(), paxos::full_source()));
    let n = units.len() as u64;

    let cc = Compiler::new(CompileOptions::default());
    let mut cache = CompileCache::new();
    for (name, source) in &units {
        let cold = cc.compile_incremental(name, source, &mut cache).expect("compiles");
        assert!(!cold.reuse.unit_hit, "{name}: the workload's units are pairwise distinct");
    }

    let edited = 17;
    assert_eq!(units[edited].0, "cache_8.ncl");
    units[edited].1 = cache::netcl_source(&cache_cfg(8, 999));
    let before = cache.stats();
    let misses: Vec<Arc<CompiledUnit>> = units
        .iter()
        .map(|(name, source)| cc.compile_incremental(name, source, &mut cache).expect("compiles"))
        .filter(|unit| !unit.reuse.unit_hit)
        .collect();
    let after = cache.stats();
    assert_eq!(after.unit_hits - before.unit_hits, n - 1, "every untouched unit is a hit");
    assert_eq!(after.unit_misses - before.unit_misses, 1, "only the edited unit misses");
    let [recompiled] = misses.as_slice() else {
        panic!("{} units were not served from the cache, expected 1", misses.len());
    };
    let (name, source) = &units[edited];
    assert_eq!(rendered(recompiled), rendered(&cc.compile(name, source).expect("cold compiles")));
}

/// A lowered module does not name its device, so a program cached at one
/// device serves an equal module at any other: CALC compiled at devices
/// 1–4 warms the cache for CALC moved anywhere, and every device of the
/// moved unit is served, re-placed, byte-identical to its cold compile.
#[test]
fn a_moved_placement_is_served_whole() {
    let calc_at = |ids: &[u16]| {
        let ids: Vec<String> = ids.iter().map(u16::to_string).collect();
        calc::netcl_source().replace("_at(1)", &format!("_at({})", ids.join(", ")))
    };
    let cc = Compiler::new(CompileOptions::default());
    let mut cache = CompileCache::new();
    cc.compile_incremental("calc.ncl", &calc_at(&[1, 2, 3, 4]), &mut cache).expect("compiles");
    for ids in [vec![5], (9..=11).collect(), vec![200, 201], (2..=6).collect()] {
        let source = calc_at(&ids);
        let warm = cc.compile_incremental("calc.ncl", &source, &mut cache).expect("compiles");
        let cold = cc.compile("calc.ncl", &source).expect("cold compiles");
        assert_eq!(rendered(&warm), rendered(&cold), "_at({ids:?})");
        let reuse = (warm.reuse.devices_reused, warm.reuse.devices_total);
        assert_eq!(reuse, (ids.len(), ids.len()), "_at({ids:?}): devices reused / total");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// AGG under config mutations: worker/slot/size changes alter the
    /// lowered IR, so nothing stale can be served.
    #[test]
    fn agg_incremental_equals_cold(w in 2u32..6, s in 2u32..6, z in 4u32..12) {
        let base = agg::netcl_source(&agg::AggConfig::default());
        let mutated = agg::netcl_source(&agg::AggConfig {
            num_workers: w,
            num_slots: s,
            slot_size: z,
        });
        check_incremental("agg.ncl", &base, &mutated);
    }

    /// CACHE under threshold/width mutations.
    #[test]
    fn cache_incremental_equals_cold(t in 1u32..1024, c in 6u32..10) {
        let base = cache::netcl_source(&cache::CacheConfig::default());
        let mutated = cache::netcl_source(&cache::CacheConfig {
            threshold: t,
            sketch_cols: 1 << c,
            ..Default::default()
        });
        check_incremental("cache.ncl", &base, &mutated);
    }

    /// CALC under comment-only mutations: the unit cache misses (source
    /// text changed) but the device program is served from the cache —
    /// and must still equal a cold compile byte-for-byte.
    #[test]
    fn calc_incremental_equals_cold(n in 0u64..100_000) {
        let base = calc::netcl_source();
        let mutated = format!("{base}\n// revision {n}\n");
        let warm = check_incremental("calc.ncl", &base, &mutated);
        prop_assert!(!warm.reuse.unit_hit);
        prop_assert_eq!(warm.reuse.devices_reused, warm.reuse.devices_total);
    }

    /// PACC (the multi-device Paxos unit) under comment-only mutations:
    /// every device's artifact is reused, none go stale.
    #[test]
    fn paxos_incremental_equals_cold(n in 0u64..100_000) {
        let base = paxos::full_source();
        let mutated = format!("{base}\n// revision {n}\n");
        let warm = check_incremental("paxos.ncl", &base, &mutated);
        prop_assert!(!warm.reuse.unit_hit);
        prop_assert!(warm.reuse.devices_total > 1, "paxos should be multi-device");
        prop_assert_eq!(warm.reuse.devices_reused, warm.reuse.devices_total);
    }
}
