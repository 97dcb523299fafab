//! What the cold compile chain allocates (DESIGN.md §4, §4a): the Tofino
//! fit of the fleet's most expensive device, the frontend and a cold
//! `Compiler::compile` of each paper application, and what a loaded CACHE
//! switch's populate costs. Counts are host- and load-independent, so the
//! ceilings below — the figures measured at this commit plus 10 % — are the
//! gate against the string-keyed allocator, the per-dialect common stage or
//! a `Vec` per operand walk coming back, and the numbers the next
//! compile-chain change ratchets down.

mod counting_alloc;

use counting_alloc::{allocs_during, live_bytes, Counting};
use netcl::{compile_tenants, CompileOptions, Compiler, TenantSource};
use netcl_apps::{agg, cache, calc, paxos};
use netcl_bmv2::Switch;
use netcl_p4::P4Program;
use netcl_runtime::ManagedMemory;
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static GLOBAL: Counting = Counting;

fn ceiling(measured: u64) -> u64 {
    measured + measured / 10
}

/// Held by the tests that call `netcl_tofino::fit`, whose last fit is kept
/// for the next program with the same parts: another test's fit in between
/// would replace it.
static FITS: Mutex<()> = Mutex::new(());

fn fits() -> MutexGuard<'static, ()> {
    FITS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// AGG at `slot_size: 32` is 36 registers and 164 repin rounds. The parent
/// commit's allocator rebuilt its string-keyed maps in every round: 188 450
/// allocations for this one fit; while the plan keyed field ids by each
/// path's rendered `String`: 202; before the report's stages moved into a
/// slice the fit memo shares (one allocation more): 62.
#[test]
fn fit_of_the_largest_agg_allocates_per_plan_not_per_round() {
    const MEASURED: u64 = 63;
    const PARENT: u64 = 188_450;
    let cfg = agg::AggConfig { slot_size: 32, ..Default::default() };
    let unit = Compiler::new(CompileOptions::default())
        .compile("agg.ncl", &agg::netcl_source(&cfg))
        .expect("AGG compiles");
    let _fits = fits();
    let (report, allocs) = allocs_during(|| netcl_tofino::fit(&unit.devices[0].tna_p4));
    assert_eq!(report.expect("AGG fits").stages_used, 12);
    assert!(allocs <= ceiling(MEASURED), "the fit made {allocs} allocations");
    assert!(allocs < PARENT / 10, "the fit made {allocs} allocations");
}

/// Measured at the commit where each dialect ran the common stage itself:
/// 75 752 / 34 915 / 5 181 / 45 167; before codegen planned each kernel
/// over dense ids (hash-keyed placement, a `meta` expression built per
/// value): 19 504 / 15 871 / 2 943 / 21 772; before the passes ran over
/// dense ids (hash maps keyed by IR ids, analyses rebuilt per instruction)
/// and the P4 AST held short names in place: 16 239 / 13 094 / 2 413 /
/// 17 761; before sema was the only resolver: 7 150 / 5 253 / 1 060 /
/// 8 641; while a P4 field path was a `Vec` of segments: 6 904 / 5 107 /
/// 1 046 / 8 829. Each row is `(measured, parent)`: the parent is the
/// commit where every instruction held its results in a `Vec` and a device
/// whose dialects agree ran codegen twice. Against it, a cold compile saves
/// more allocations than its post-pipeline modules have instructions.
#[test]
fn cold_compile_allocations_per_application() {
    let cc = Compiler::new(CompileOptions::default());
    for (name, source, (measured, parent)) in [
        ("agg.ncl", agg::netcl_source(&agg::AggConfig::default()), (4_730, 5_546)),
        ("cache.ncl", cache::netcl_source(&cache::CacheConfig::default()), (3_756, 4_258)),
        ("calc.ncl", calc::netcl_source(), (820, 909)),
        ("paxos.ncl", paxos::full_source(), (6_220, 7_450)),
    ] {
        let (unit, allocs) = allocs_during(|| cc.compile(name, &source));
        let unit = unit.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(allocs <= ceiling(measured), "{name}: a cold compile made {allocs} allocations");
        let mut modules: Vec<&netcl::ir::Module> =
            unit.devices.iter().flat_map(|d| [&*d.tna_ir, &*d.v1_ir]).collect();
        modules.dedup_by(|a, b| std::ptr::eq(*a, *b));
        let insts: usize = modules.iter().flat_map(|m| &m.kernels).map(|k| k.inst_count()).sum();
        let saved = parent - allocs;
        assert!(saved > insts as u64, "{name}: {saved} fewer allocations, {insts} instructions");
    }
}

/// CALC's source with its kernel placed at devices `1..=n`.
fn calc_at(n: u16) -> String {
    let ids: Vec<String> = (1..=n).map(|d| d.to_string()).collect();
    calc::netcl_source().replace("_at(1)", &format!("_at({})", ids.join(", ")))
}

/// One `Compiler::compile` of CALC placed at 64 devices. The 64 devices
/// are placed alike and CALC does not read `device.id`, so one device is
/// lowered, verified and runs the pass pipeline and codegen, and 63 are
/// placed from its program with no lowering, verification or program key.
/// When every device ran all of them: 59 586; while a P4 field path was a
/// `Vec` of segments: 23 357; while `codegen::place` copied each placed
/// program's control to rewrite its device guard: 15 912; while an
/// instruction held its results in a `Vec`: 6 840; while every device's
/// lowered module was verified and hashed before the groups were searched:
/// 4 319; while every device was lowered and its module compared with the
/// groups': 3 436.
#[test]
fn multi_device_compile_allocations() {
    const MEASURED: u64 = 1_333;
    const PARENT: u64 = 59_586;
    let source = calc_at(64);
    let cc = Compiler::new(CompileOptions::default());
    let (unit, allocs) = allocs_during(|| cc.compile("calc.ncl", &source));
    assert_eq!(unit.unwrap_or_else(|e| panic!("{e}")).devices.len(), 64);
    let what = format!("CALC at 64 devices: a cold compile made {allocs} allocations");
    assert!(allocs <= ceiling(MEASURED), "{what}");
    assert!(allocs < PARENT, "{what}");
}

/// Fitting CALC's 320 placed programs one after another, as the fat-tree
/// benchmarks and `ncc --report` do. The programs share their parts, so the
/// first fit allocates and every later one is handed that fit under its
/// own name: one allocation, the name. When every device was fitted: 34
/// each (35 now for the first: its stages move into a shared slice).
#[test]
fn fitting_one_program_at_many_devices_fits_it_once() {
    let unit = Compiler::new(CompileOptions::default())
        .compile("calc.ncl", &calc_at(320))
        .unwrap_or_else(|e| panic!("{e}"));
    let _fits = fits();
    let allocs: Vec<u64> = (unit.devices.iter())
        .map(|d| allocs_during(|| netcl_tofino::fit(&d.tna_p4).expect("CALC fits")).1)
        .collect();
    let (first, later) = (allocs[0], &allocs[1..]);
    assert!(first > 30, "the first fit allocates: {first}");
    assert!(later.iter().all(|&n| n <= 1), "{later:?}");
}

/// What a compiled unit holds per device beyond the first: CALC compiled at
/// 320 devices against CALC at one, in live bytes. A placed device holds
/// its `CompiledDevice` and, per dialect, a program's name and device over
/// parts every device shares. While `codegen::place` copied each placed
/// program's control to rewrite its device guard: 10 783 B.
#[test]
fn multi_device_compile_holds_no_copy_per_device() {
    let cc = Compiler::new(CompileOptions::default());
    let held = |n: u16| {
        let source = calc_at(n);
        let before = live_bytes();
        let unit = cc.compile("calc.ncl", &source).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(unit.devices.len(), n as usize);
        live_bytes() - before
    };
    held(1);
    let per_device = (held(320) - held(1)) / 319;
    let what = format!("CALC at 320 devices holds {per_device} B per device beyond the first");
    assert!(per_device <= 512, "{what}");
}

/// Parse, `analyze` and `lower_device` for every device: the frontend the
/// cold compiles above start with.
fn parse_analyze_lower(name: &str, source: &str) -> Vec<netcl::ir::Module> {
    let (unit, mut diags) = netcl::lang::parse(name, source);
    let (analysis, sema_diags) = netcl::sema::analyze(&unit);
    diags.absorb(sema_diags);
    let devices = analysis.model.mentioned_devices();
    let modules = (devices.into_iter())
        .map(|dev| netcl::lower::lower_device(&unit, &analysis, dev, &mut diags))
        .collect();
    assert!(!diags.has_errors(), "{name}: {}", diags.render_all(&unit.source_map));
    modules
}

/// The frontend alone, per application: `(measured, parent)`. The parent
/// is the commit before sema became the only resolver — sema kept its types
/// in a `HashMap`, and lowering resolved every builtin (a `Vec` of path
/// segments per call), global (a `String` per name, looked up in a map
/// keyed by it) and type again, with a `HashMap` per scope: 1 286 (AGG),
/// 1 141 (CACHE), 201 (CALC), 1 523 (P4xos). While an instruction held
/// its results in a `Vec`: 1 040 / 995 / 187 / 1 293.
#[test]
fn frontend_allocations_per_application() {
    for (name, source, (measured, parent)) in [
        ("agg.ncl", agg::netcl_source(&agg::AggConfig::default()), (760, 1_286)),
        ("cache.ncl", cache::netcl_source(&cache::CacheConfig::default()), (850, 1_141)),
        ("calc.ncl", calc::netcl_source(), (149, 201)),
        ("paxos.ncl", paxos::full_source(), (1_025, 1_523)),
    ] {
        let (_, allocs) = allocs_during(|| parse_analyze_lower(name, &source));
        assert!(allocs <= ceiling(measured), "{name}: the frontend made {allocs} allocations");
        assert!(allocs < parent, "{name}: the frontend made {allocs} allocations");
    }
}

/// `compile_tenants` on AGG `slot_size: 8` + CACHE `words: 4` (the shapes
/// of `tests/fit_golden.rs`): two frontends, the merge, the budgeted fit and
/// three devices — merged, solo 0, solo 1 — off the compiler's own
/// `build_device`. The tenant driver once had a private copy of the back
/// half that ran the common stage once per dialect: 45 709; before codegen
/// planned over dense ids: 42 642; before the passes did (and before the
/// P4 AST held short names in place): 35 822; before sema was the only
/// resolver: 15 921; while a P4 field path was a `Vec` of segments: 15 701;
/// while an instruction held its results in a `Vec`: 13 052.
#[test]
fn tenant_merge_allocations() {
    const MEASURED: u64 = 11_006;
    const PARENT: u64 = 45_709;
    let agg_src = agg::netcl_source(&agg::AggConfig { slot_size: 8, ..Default::default() });
    let cache_src = cache::netcl_source(&cache::CacheConfig { words: 4, ..Default::default() });
    let sources = [
        TenantSource { tenant: 0, name: "agg.ncl", source: &agg_src },
        TenantSource { tenant: 1, name: "cache.ncl", source: &cache_src },
    ];
    let (merged, allocs) = allocs_during(|| {
        compile_tenants(&sources, 1, &CompileOptions::default(), &Default::default())
    });
    merged.unwrap_or_else(|e| panic!("{e}"));
    assert!(allocs <= ceiling(MEASURED), "a two-tenant merge made {allocs} allocations");
    assert!(allocs < PARENT, "a two-tenant merge made {allocs} allocations");
}

/// What loading a generated program into a `Switch` allocates: the layout,
/// one closure per straight-line run or control op, one lane slice per SALU
/// run, the tables' shared action scopes. Measured at the commit before
/// PR 21, where `compile::compile` emitted postfix `EOp` / relative-skip
/// `COp` pools and `threaded::lower` rebuilt everything from them, boxing a
/// closure for every interior pc of a run as well: 4 684 (AGG), 3 409
/// (CACHE), 585 (CALC) and 645 / 1 486 / 1 486 / 1 486 / 1 916 (P4xos
/// devices 1–5). Before lane runs (PR 26), with a closure per SALU site and
/// one per composite index, condition and prefix: 1 733 / 1 369 / 288 and
/// 331 / 637 / 637 / 637 / 792. Before the slot table's interner kept each
/// path once instead of twice and widths and registers were keyed by
/// in-place names: 1 356 / 1 258 / 271 and 327 / 627 / 627 / 627 / 760.
/// Before the lowering keyed slots by a path's borrowed text, building a
/// `String` per field reference: 1 040 / 963 / 229 and 284 / 495 / 495 /
/// 495 / 588. Before the loaded program was shared between switches (one
/// more allocation, for it) and the lowering sized its vectors up front:
/// 630 / 648 / 179 and 251 / 377 / 377 / 377 / 425.
#[test]
fn switch_load_allocations_per_application() {
    let cc = Compiler::new(CompileOptions::default());
    for (name, source, devices) in [
        ("agg.ncl", agg::netcl_source(&agg::AggConfig::default()), &[(614, 4_684)][..]),
        ("cache.ncl", cache::netcl_source(&cache::CacheConfig::default()), &[(627, 3_409)]),
        ("calc.ncl", calc::netcl_source(), &[(168, 585)]),
        (
            "paxos.ncl",
            paxos::full_source(),
            &[(242, 645), (364, 1_486), (364, 1_486), (364, 1_486), (409, 1_916)],
        ),
    ] {
        let unit = cc.compile(name, &source).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(unit.devices.len(), devices.len(), "{name}");
        for (d, &(measured, parent)) in unit.devices.iter().zip(devices) {
            let (_switch, allocs) = allocs_during(|| Switch::new(d.tna_p4.clone()));
            let what = format!("{name}, device {}: a load made {allocs} allocations", d.device);
            assert!(allocs <= ceiling(measured), "{what}");
            assert!(allocs < parent, "{what}");
        }
    }
}

/// One `cache::populate` — a built `index` batch applied, then the slot's
/// registers written — on the unscoped handle of CACHE's default shape (8
/// words) and on the handle scoped to tenant 1 of the merged AGG + CACHE
/// program (4 words), the second populate of each switch. Each row is
/// `(measured, parent)`. The parent commit resolved every register access
/// into an owned `String`, and a tenant's populate spelled its `t1__`
/// names by hand: 23 and 20. The scoped handle allocates once per name it
/// prefixes (seven here), the unscoped one nothing per register access.
#[test]
fn cache_populate_allocations() {
    let cfg = cache::CacheConfig::default();
    let unit = Compiler::new(CompileOptions::default())
        .compile("cache.ncl", &cache::netcl_source(&cfg))
        .unwrap_or_else(|e| panic!("{e}"));
    let mcfg = cache::CacheConfig { words: 4, ..Default::default() };
    let agg_src = agg::netcl_source(&agg::AggConfig { slot_size: 8, ..Default::default() });
    let cache_src = cache::netcl_source(&mcfg);
    let sources = [
        TenantSource { tenant: 0, name: "agg.ncl", source: &agg_src },
        TenantSource { tenant: 1, name: "cache.ncl", source: &cache_src },
    ];
    let merged = compile_tenants(&sources, 1, &CompileOptions::default(), &Default::default())
        .unwrap_or_else(|e| panic!("{e}"));
    for (what, mm, program, cfg, (measured, parent)) in [
        (
            "unscoped",
            ManagedMemory::new(&unit.devices[0].tna_ir),
            &unit.devices[0].tna_p4,
            cfg,
            (8, 23),
        ),
        (
            "tenant 1",
            ManagedMemory::for_tenant(&merged.merged.tna_ir, 1),
            &merged.merged.tna_p4,
            mcfg,
            (15, 20),
        ),
    ] {
        let mut sw = Switch::new(program.clone());
        let value = cache::server_value(&cfg, 7);
        cache::populate(&mm, &mut sw, &cfg, 0, 3, &value);
        let ((), allocs) = allocs_during(|| cache::populate(&mm, &mut sw, &cfg, 1, 7, &value));
        assert!(allocs <= ceiling(measured), "{what}: a populate made {allocs} allocations");
        assert!(allocs <= parent, "{what}: a populate made {allocs} allocations");
    }
}

/// Loading CALC's 320 placed programs as the fat-tree benchmarks do, each
/// switch from an owned copy of its device's program. The programs share
/// their parts, so the first load lowers and every later one shares that
/// lowering (`Switch::shares_program`): it makes the same few allocations —
/// the copy, its name, the switch's state — and holds at most 1 KB. When
/// every load lowered: 6 670–7 900 B held per load. Dropping the switches
/// frees the shared lowering and its entry in bmv2's table of loaded
/// programs: live bytes return to the reading before the loads.
#[test]
fn loading_one_program_at_many_devices_lowers_it_once() {
    const LATER_ALLOCS: u64 = 5;
    let unit = Compiler::new(CompileOptions::default())
        .compile("calc.ncl", &calc_at(320))
        .unwrap_or_else(|e| panic!("{e}"));
    let programs: Vec<P4Program> =
        unit.devices.iter().map(|d| P4Program::clone(&d.tna_p4)).collect();
    // Whatever the first load of any program allocates once per process,
    // through another program: a leaked entry for CALC's parts would be
    // replaced, and so hidden, by the first load below.
    let other = Compiler::new(CompileOptions::default()).compile("calc.ncl", &calc_at(1));
    drop(Switch::new(other.unwrap_or_else(|e| panic!("{e}")).devices[0].tna_p4.clone()));
    let (mut switches, mut loads) = (Vec::with_capacity(320), Vec::with_capacity(320));
    let before = live_bytes();
    for p in &programs {
        let live = live_bytes();
        let (switch, allocs) = allocs_during(|| Switch::new(p.clone()));
        switches.push(switch);
        loads.push((allocs, live_bytes() - live));
    }
    let (first, later) = (loads[0], &loads[1..]);
    assert!(first.0 > 30 * later[0].0, "the first load lowers: {first:?}");
    assert!(later.iter().all(|&(allocs, _)| allocs == later[0].0), "{later:?}");
    assert!(later[0].0 <= ceiling(LATER_ALLOCS), "a later load made {} allocations", later[0].0);
    assert!(later.iter().all(|&(_, held)| held <= 1024), "{later:?}");
    assert!(switches.iter().all(|sw| sw.shares_program(&switches[0])));
    switches.clear();
    let leaked = live_bytes() - before;
    assert!(leaked.abs() <= 256, "{leaked} B are still held after every switch was dropped");
}

/// What the P4 text hand-off allocates, per device: `print_program` then
/// `parse_program` of its TNA program. Each row is `(print, parse)` as
/// measured now, then their total at the commit where the printer built a
/// `String` per line and per expression node and the lexer one per
/// identifier token, which the parser cloned again: (3 782, 8 041) for AGG,
/// (2 764, 4 866) CACHE, (460, 672) CALC, (336, 593) / (1 042, 1 903) × 3 /
/// (1 406, 2 345) P4xos devices 1–5. Printing writes into one growing
/// buffer, so it allocates only as that buffer grows; parsing allocates
/// what the AST keeps, where a field path and a short name — a local, a
/// register or register action — are held in place, so a field path
/// allocates nothing. With a `String` per name, parsing made 3 840 (AGG),
/// 2 234 (CACHE), 341 (CALC) and 260 / 862 × 3 / 1 121 (P4xos)
/// allocations; with a `Vec` of segments per field path, grown as the
/// parser pushed them, 2 026, 1 198, 205 and 156 / 448 × 3 / 593. Since
/// the text declares `struct headers_t`, parsing makes one more allocation
/// (which instances it has read) and the longer text grows P4xos devices
/// 2–4's print buffer once more: (5, 848), (4, 467), (1, 105) and (1, 86) /
/// (2, 171) × 3 / (3, 225) before.
#[test]
fn print_parse_allocations() {
    let cc = Compiler::new(CompileOptions::default());
    for (name, source, devices) in [
        ("agg.ncl", agg::netcl_source(&agg::AggConfig::default()), &[((5, 849), 11_823)][..]),
        ("cache.ncl", cache::netcl_source(&cache::CacheConfig::default()), &[((4, 468), 7_630)]),
        ("calc.ncl", calc::netcl_source(), &[((1, 106), 1_132)]),
        (
            "paxos.ncl",
            paxos::full_source(),
            &[
                ((1, 87), 929),
                ((3, 172), 2_945),
                ((3, 172), 2_945),
                ((3, 172), 2_945),
                ((3, 226), 3_751),
            ],
        ),
    ] {
        let unit = cc.compile(name, &source).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(unit.devices.len(), devices.len(), "{name}");
        for (d, &((print, parse), parent)) in unit.devices.iter().zip(devices) {
            let (text, printed) = allocs_during(|| netcl_p4::print::print_program(&d.tna_p4));
            let (reparsed, parsed) = allocs_during(|| netcl_p4::parse::parse_program(&text));
            reparsed.unwrap_or_else(|e| panic!("{name}, device {}: {e}", d.device));
            let what = format!("{name}, device {}: print {printed}, parse {parsed}", d.device);
            assert!(printed <= ceiling(print) && parsed <= ceiling(parse), "{what}");
            assert!(printed + parsed < parent / 2, "{what}");
        }
    }
}
