//! Property tests for the incremental recompilation cache (DESIGN.md §16):
//! compiling a mutated unit through a warm [`CompileCache`] must be
//! byte-identical — printed IR and printed P4, both dialects, every
//! device — to a cold compile of the same source, for all four paper
//! applications under randomized mutations.
//!
//! Four mutation shapes are exercised, one per path through the cache:
//!
//! - **config mutations** (AGG, CACHE): the generated source changes in a
//!   way that changes the lowered IR, so both cache levels miss and the
//!   full pipeline re-runs;
//! - **appended comments** (CALC, PACC): the text changes but no token
//!   moves, so the token tier serves the previous revision whole — a unit
//!   miss with every device reused and one `expansion_hits`;
//! - **a comment line inserted at the top** (CALC, PACC): every token moves
//!   down a line, so the tier refuses and the frontend runs, while every
//!   device's program is served from the program table;
//! - **position-keeping edits** (all four: a `//` comment rewritten,
//!   comment or blank lines appended, trailing spaces) are served by the
//!   tier and equal a cold compile in artifacts, warnings and the model's
//!   public fields; and inserted lines, changed macro values, changed or
//!   moved tokens and other options never are.

use std::sync::Arc;

use netcl::sema::Model;
use netcl::{CompileCache, CompileOptions, CompiledUnit, Compiler, EmitTarget};
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
/// Returns the incrementally compiled unit and what the mutated compile
/// added to the cache's counters, for reuse-shape assertions.
fn check_incremental(name: &str, base: &str, mutated: &str) -> (Arc<CompiledUnit>, Counts) {
    let cc = Compiler::new(CompileOptions::default());
    let mut cache = CompileCache::new();
    cc.compile_incremental(name, base, &mut cache).expect("base compiles");
    let before = cache.stats();
    let warm = cc.compile_incremental(name, mutated, &mut cache).expect("mutated compiles");
    let after = cache.stats();
    let cold = cc.compile(name, mutated).expect("cold compiles");
    assert_eq!(
        rendered(&cold),
        rendered(&warm),
        "incremental compile of `{name}` differs from cold compile"
    );
    let stats = Counts {
        expansion_hits: after.expansion_hits - before.expansion_hits,
        device_hits: after.device_hits - before.device_hits,
    };
    (warm, stats)
}

/// What one compile added to a cache's counters.
struct Counts {
    expansion_hits: u64,
    device_hits: u64,
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

    /// CALC under an appended comment: the unit cache misses (source text
    /// changed), no token moved, so the token tier serves the previous
    /// revision — which must still equal a cold compile byte-for-byte.
    #[test]
    fn calc_incremental_equals_cold(n in 0u64..100_000) {
        let base = calc::netcl_source();
        let mutated = format!("{base}\n// revision {n}\n");
        let (warm, stats) = check_incremental("calc.ncl", &base, &mutated);
        prop_assert!(!warm.reuse.unit_hit);
        prop_assert_eq!(warm.reuse.devices_reused, warm.reuse.devices_total);
        prop_assert_eq!(stats.expansion_hits, 1);
    }

    /// PACC (the multi-device Paxos unit) under an appended comment:
    /// every device's artifact is reused, none go stale.
    #[test]
    fn paxos_incremental_equals_cold(n in 0u64..100_000) {
        let base = paxos::full_source();
        let mutated = format!("{base}\n// revision {n}\n");
        let (warm, stats) = check_incremental("paxos.ncl", &base, &mutated);
        prop_assert!(!warm.reuse.unit_hit);
        prop_assert!(warm.reuse.devices_total > 1, "paxos should be multi-device");
        prop_assert_eq!(warm.reuse.devices_reused, warm.reuse.devices_total);
        prop_assert_eq!(stats.expansion_hits, 1);
    }

    /// CALC and PACC under a comment line inserted at the top: every token
    /// moves, the tier refuses, the frontend runs, and every device's
    /// program is served from the program table.
    #[test]
    fn a_top_inserted_comment_is_served_from_the_program_table(n in 0u64..100_000) {
        for (name, base) in [("calc.ncl", calc::netcl_source()), ("paxos.ncl", paxos::full_source())] {
            let mutated = format!("// revision {n}\n{base}");
            let (warm, stats) = check_incremental(name, &base, &mutated);
            prop_assert!(!warm.reuse.unit_hit);
            prop_assert_eq!(warm.reuse.devices_reused, warm.reuse.devices_total);
            prop_assert_eq!(stats.expansion_hits, 0);
            prop_assert!(stats.device_hits > 0, "{}: no program served", name);
        }
    }

    /// A random edit that keeps every token's line and column is served by
    /// the tier, and equals a cold compile of the edited text in every
    /// artifact, in its warnings and in the model's public fields.
    #[test]
    fn position_keeping_edits_are_served_by_the_tier(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        for (name, source) in applications() {
            let (base, edited) = position_keeping(&source, &mut rng);
            let cc = Compiler::new(CompileOptions::default());
            let mut cache = CompileCache::new();
            cc.compile_incremental(name, &base, &mut cache).expect("base compiles");
            let warm = cc.compile_incremental(name, &edited, &mut cache).expect("edit compiles");
            let cold = cc.compile(name, &edited).expect("cold compiles");
            prop_assert_eq!(cache.stats().expansion_hits, 1, "{}: {:?}", name, edited);
            prop_assert!(!warm.reuse.unit_hit);
            prop_assert_eq!(warm.reuse.devices_reused, warm.reuse.devices_total);
            prop_assert_eq!(rendered(&warm), rendered(&cold), "{}", name);
            prop_assert_eq!(&warm.warnings, &cold.warnings, "{}", name);
            prop_assert_eq!(model_fields(&warm.model), model_fields(&cold.model), "{}", name);
        }
    }

    /// An inserted line, a changed value of a used macro, a changed or
    /// moved token, or another compiler's options never count an expansion
    /// hit, and the result equals a cold compile.
    #[test]
    fn edits_that_move_or_change_tokens_never_take_the_tier(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        for (name, source) in applications() {
            let (base, keeping) = position_keeping(&source, &mut rng);
            let lines: Vec<&str> = base.lines().collect();
            let last = lines.iter().rposition(|l| !l.trim().is_empty()).unwrap_or(0);
            let at = rng.below(last as u64 + 1) as usize;
            let inserted = pick(&mut rng, &["", "// inserted", "  "]);
            let mut with_line = lines.clone();
            with_line.insert(at, inserted);
            let code: Vec<usize> =
                (0..lines.len()).filter(|&i| !lines[i].trim().is_empty() && !lines[i].starts_with('#')).collect();
            let moved_line = code[rng.below(code.len() as u64) as usize];
            let mut moved = lines.clone();
            let shifted = format!(" {}", lines[moved_line]);
            moved[moved_line] = &shifted;
            let mut edits = vec![
                ("an inserted line", with_line.join("\n") + "\n"),
                ("a moved token", moved.join("\n") + "\n"),
                ("a changed placement", base.replacen("_at(1)", "_at(3)", 1)),
            ];
            for (define, value) in
                [("NUM_WORKERS ", "NUM_WORKERS 7"), ("THRESH ", "THRESH 65"), ("NINST ", "NINST 512")]
            {
                if let Some(line) = lines.iter().find(|l| l.starts_with(&format!("#define {define}"))) {
                    edits.push(("a changed macro value", base.replacen(line, &format!("#define {value}"), 1)));
                }
            }
            let cc = Compiler::new(CompileOptions::default());
            for (what, edited) in edits.into_iter().filter(|(_, e)| *e != base) {
                let mut cache = CompileCache::new();
                cc.compile_incremental(name, &base, &mut cache).expect("base compiles");
                let warm = cc.compile_incremental(name, &edited, &mut cache).expect("edit compiles");
                prop_assert_eq!(cache.stats().expansion_hits, 0, "{}: {}", name, what);
                let cold = cc.compile(name, &edited).expect("cold compiles");
                prop_assert_eq!(rendered(&warm), rendered(&cold), "{}: {}", name, what);
            }
            // The same position-keeping edit under other options.
            let mut cache = CompileCache::new();
            cc.compile_incremental(name, &base, &mut cache).expect("base compiles");
            let tna = Compiler::new(CompileOptions { target: EmitTarget::Tna, ..Default::default() });
            let warm = tna.compile_incremental(name, &keeping, &mut cache).expect("edit compiles");
            prop_assert_eq!(cache.stats().expansion_hits, 0, "{}: other options", name);
            prop_assert_eq!(rendered(&warm), rendered(&tna.compile(name, &keeping).expect("cold")));
        }
    }
}

/// The four paper applications the tier's properties edit.
fn applications() -> [(&'static str, String); 4] {
    [
        ("agg.ncl", agg::netcl_source(&agg::AggConfig::default())),
        ("cache.ncl", cache::netcl_source(&cache::CacheConfig::default())),
        ("calc.ncl", calc::netcl_source()),
        ("paxos.ncl", paxos::full_source()),
    ]
}

fn pick<'a>(rng: &mut TestRng, choices: &[&'a str]) -> &'a str {
    choices[rng.below(choices.len() as u64) as usize]
}

/// `source` with a `//` comment ending one of its lines, and an edit of
/// that which moves no token: the comment rewritten, trailing spaces on
/// some lines, comment or blank lines appended.
fn position_keeping(source: &str, rng: &mut TestRng) -> (String, String) {
    let lines: Vec<&str> = source.lines().collect();
    let noted = rng.below(lines.len() as u64) as usize;
    let with = |note: &str, spaces: &[usize]| -> String {
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            out.push_str(line);
            if i == noted {
                out.push_str(note);
            }
            for _ in 0..spaces.iter().filter(|&&s| s == i).count() {
                out.push(' ');
            }
            out.push('\n');
        }
        out
    };
    let base = with(" // tuned", &[]);
    let spaces: Vec<usize> =
        (0..rng.below(4)).map(|_| rng.below(lines.len() as u64) as usize).collect();
    let note =
        format!(" {}", pick(rng, &["// retuned", "//", "// tuned again, see notes", "/* a */"]));
    let mut edited = with(&note, &spaces);
    for _ in 0..rng.below(3) {
        edited.push_str(pick(rng, &["\n", "// appended\n", "   \n", "/* a\n b */\n"]));
    }
    (base, edited)
}

/// Every public field of a model, printed; the declaration spans are
/// crate-private byte offsets and stay out.
fn model_fields(m: &Model) -> String {
    let mut out = String::new();
    for k in &m.kernels {
        out += &format!(
            "kernel {} {} {:?} {:?} {}\n",
            k.name, k.computation, k.locations, k.params, k.item_index
        );
    }
    for f in &m.net_fns {
        out += &format!(
            "net {} {:?} {:?} {:?} {}\n",
            f.name, f.locations, f.ret, f.params, f.item_index
        );
    }
    for g in &m.globals {
        out += &format!(
            "global {} {:?} {:?} {} {} {:?} {:?}\n",
            g.name, g.elem, g.dims, g.managed, g.lookup, g.locations, g.entries
        );
    }
    out
}
