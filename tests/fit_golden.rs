//! The Tofino fit as a golden file (DESIGN.md §4a): every number
//! `netcl_tofino::fit` reports — stages used, each stage's `StageUse`, PHV
//! bits, latency cycles, per-tenant attribution — for the 24 shipped
//! programs, the AGG / CACHE configuration grids `netcl_e2e`'s
//! `compile_fleet` walks, and a two-tenant merged pipeline, compared byte
//! for byte with `tests/golden/fit.txt`. The allocator's decisions are a
//! contract: device latency in every simulator workload comes from them.
//!
//! After an intended change to the allocator's policy, rewrite the file
//! with `cargo test --test fit_golden -- --ignored` and review the diff.
//!
//! `fit` keeps its last fit for the next program with the same parts
//! (DESIGN.md §4a); the tests after the golden file hold whatever it hands
//! out to a fresh `allocate` of a copy that shares nothing.

use netcl::{CompileOptions, Compiler};
use netcl_apps::{agg, all_apps, cache, empty_program, paxos};
use netcl_p4::P4Program;
use netcl_tofino::{allocate, fit, AllocError, AllocationReport, TofinoSpec};
use std::fmt::Write;
use std::sync::{Arc, Barrier};

/// `cargo test` runs integration tests from the package root.
const GOLDEN: &str = "tests/golden/fit.txt";

fn render_fit(out: &mut String, label: &str, program: &P4Program) {
    let r = match netcl_tofino::fit(program) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "{label}: DOES NOT FIT: {e}");
            return;
        }
    };
    let _ = writeln!(
        out,
        "{label}: stages={} phv={}+{}/{} cycles={}",
        r.stages_used,
        r.phv.header_bits,
        r.phv.metadata_bits,
        r.phv.capacity_bits,
        r.latency_cycles
    );
    for (i, s) in r.per_stage.iter().enumerate() {
        if !s.is_empty() {
            let _ = writeln!(
                out,
                "  stage {i}: sram={} tcam={} salus={} vliw={} hash={} tables={}",
                s.sram_bits, s.tcam_bits, s.salus, s.vliw, s.hash_units, s.tables
            );
        }
    }
    for t in &r.tenants {
        let _ = writeln!(
            out,
            "  tenant {}: sram={} tcam={} salus={} tables={} stages={}..={}",
            t.tenant, t.sram_bits, t.tcam_bits, t.salus, t.tables, t.first_stage, t.last_stage
        );
    }
}

fn compile(name: &str, source: &str) -> netcl::CompiledUnit {
    Compiler::new(CompileOptions::default())
        .compile(name, source)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn render() -> String {
    let mut out = String::new();
    // The 24 shipped programs: 6 apps × {TNA, v1model, handwritten}, EMPTY,
    // and the five devices of full P4xos.
    for app in all_apps() {
        let unit = compile(app.name, &app.netcl_source);
        let dev = unit.device(app.device).expect("the app's device");
        render_fit(&mut out, &format!("{} tna", app.name), &dev.tna_p4);
        render_fit(&mut out, &format!("{} v1model", app.name), &dev.v1_p4);
        render_fit(&mut out, &format!("{} handwritten", app.name), &app.handwritten);
    }
    render_fit(&mut out, "EMPTY", &empty_program());
    for dev in &compile("paxos.ncl", &paxos::full_source()).devices {
        render_fit(&mut out, &format!("P4XOS device {}", dev.device), &dev.tna_p4);
    }
    // The configuration grids `compile_fleet` walks.
    for num_workers in [2, 8] {
        for num_slots in [8, 16, 32] {
            for slot_size in [8, 16, 32] {
                let cfg = agg::AggConfig { num_workers, num_slots, slot_size };
                let unit = compile("agg.ncl", &agg::netcl_source(&cfg));
                let label = format!("AGG workers={num_workers} slots={num_slots} size={slot_size}");
                render_fit(&mut out, &label, &unit.devices[0].tna_p4);
            }
        }
    }
    for slots in [16, 64, 256] {
        for words in [2, 4, 8] {
            for sketch_cols in [256, 1024, 4096] {
                let cfg = cache::CacheConfig { slots, words, threshold: 64, sketch_cols };
                let unit = compile("cache.ncl", &cache::netcl_source(&cfg));
                let label = format!("CACHE slots={slots} words={words} cols={sketch_cols}");
                render_fit(&mut out, &label, &unit.devices[0].tna_p4);
            }
        }
    }
    // Two tenants behind one dispatch (the shapes of
    // `crates/bench/tests/tenancy.rs`): attribution by `t<id>__` prefix.
    let agg_src = agg::netcl_source(&agg::AggConfig { slot_size: 8, ..Default::default() });
    let cache_src = cache::netcl_source(&cache::CacheConfig { words: 4, ..Default::default() });
    let merged = netcl::compile_tenants(
        &[
            netcl::TenantSource { tenant: 0, name: "agg.ncl", source: &agg_src },
            netcl::TenantSource { tenant: 1, name: "cache.ncl", source: &cache_src },
        ],
        1,
        &CompileOptions::default(),
        &Default::default(),
    )
    .expect("AGG + CACHE merge");
    render_fit(&mut out, "MERGED agg+cache", &merged.merged.tna_p4);
    out
}

#[test]
fn fit_reports_match_the_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/fit.txt is committed");
    let now = render();
    if now != golden {
        let line = now.lines().zip(golden.lines()).position(|(a, b)| a != b);
        let at = line.unwrap_or(now.lines().count().min(golden.lines().count()));
        panic!(
            "fit output differs from tests/golden/fit.txt at line {}:\n  now:    {:?}\n  golden: {:?}",
            at + 1,
            now.lines().nth(at),
            golden.lines().nth(at)
        );
    }
}

#[test]
#[ignore = "rewrites tests/golden/fit.txt from the current allocator"]
fn rewrite_the_golden_file() {
    std::fs::write(GOLDEN, render()).expect("write tests/golden/fit.txt");
}

/// `p` with each part copied into a fresh allocation.
fn deep(p: &P4Program) -> P4Program {
    P4Program {
        headers: Arc::new(p.headers.to_vec()),
        parser: p.parser.as_deref().map(|parser| Arc::new(parser.clone())),
        controls: Arc::new(p.controls.to_vec()),
        ..p.clone()
    }
}

/// What `fit` must return for `p`: a fit of a copy that shares nothing.
fn fresh(p: &P4Program) -> Result<AllocationReport, AllocError> {
    allocate(&deep(p), &TofinoSpec::tofino1())
}

/// The 24 shipped programs and CALC placed at 16 devices, both dialects.
fn shipped_and_placed() -> Vec<P4Program> {
    let mut programs = Vec::new();
    for app in all_apps() {
        let unit = compile(app.name, &app.netcl_source);
        let dev = unit.device(app.device).expect("the app's device");
        programs.extend([P4Program::clone(&dev.tna_p4), P4Program::clone(&dev.v1_p4)]);
        programs.push(app.handwritten);
    }
    programs.push(empty_program());
    for dev in &compile("paxos.ncl", &paxos::full_source()).devices {
        programs.push(P4Program::clone(&dev.tna_p4));
    }
    let ids: Vec<String> = (1..=16).map(|d| d.to_string()).collect();
    let placed =
        netcl_apps::calc::netcl_source().replace("_at(1)", &format!("_at({})", ids.join(", ")));
    for dev in &compile("calc.ncl", &placed).devices {
        programs.extend([P4Program::clone(&dev.tna_p4), P4Program::clone(&dev.v1_p4)]);
    }
    programs
}

/// Every program, fitted twice in a row (a memo hit, unless another test
/// fitted in between), reads what a fresh allocation of it reads, name
/// included: the placed devices share their parts and differ in name.
#[test]
fn the_fit_memo_hands_out_fresh_allocations() {
    let programs = shipped_and_placed();
    assert_eq!(programs.len(), 24 + 32);
    for p in &programs {
        let want = fresh(p);
        assert_eq!(fit(p), want, "{}", p.name);
        assert_eq!(fit(p), want, "{} again", p.name);
    }
}

/// A part edited after a fit is a new allocation, whether the program
/// owned it alone (`make_mut` moves it out from under the memo's weak
/// hold) or shared it (`make_mut` copies it): the controls (a table
/// dropped) or the headers (a field dropped).
#[test]
fn a_part_edited_after_a_fit_is_fitted_again() {
    let unit = compile("cache.ncl", &cache::netcl_source(&cache::CacheConfig::default()));
    let drop_table = |p: &mut P4Program| {
        let controls = Arc::make_mut(&mut p.controls);
        controls.iter_mut().find(|c| !c.tables.is_empty()).expect("a table").tables.pop();
    };
    let drop_field = |p: &mut P4Program| {
        let headers = Arc::make_mut(&mut p.headers);
        headers.iter_mut().find(|h| !h.fields.is_empty()).expect("a field").fields.pop();
    };
    let edits: [&dyn Fn(&mut P4Program); 2] = [&drop_table, &drop_field];
    for (edit, shared) in edits.iter().flat_map(|e| [(e, false), (e, true)]) {
        let mut p = deep(&unit.devices[0].tna_p4);
        let other = shared.then(|| p.clone());
        let before = fit(&p);
        edit(&mut p);
        let after = fit(&p);
        assert_eq!(after, fresh(&p), "shared: {shared}");
        assert_ne!(after, before, "shared: {shared}");
        if let Some(other) = other {
            assert_eq!(fit(&other), before);
        }
    }
}

/// Fits that alternate between two programs, and four threads fitting two
/// programs at once, each get their own program's report; so do two placed
/// devices of one program, which share their parts and differ in name.
#[test]
fn interleaved_fits_get_their_own_reports() {
    let agg = compile("agg.ncl", &agg::netcl_source(&agg::AggConfig::default()));
    let cache = compile("cache.ncl", &cache::netcl_source(&cache::CacheConfig::default()));
    let placed =
        compile("calc.ncl", &netcl_apps::calc::netcl_source().replace("_at(1)", "_at(1, 2)"));
    let pairs = [
        [P4Program::clone(&agg.devices[0].tna_p4), P4Program::clone(&cache.devices[0].tna_p4)],
        [P4Program::clone(&placed.devices[0].tna_p4), P4Program::clone(&placed.devices[1].tna_p4)],
    ];
    for [a, b] in &pairs {
        let (want_a, want_b) = (fresh(a), fresh(b));
        assert_ne!(want_a, want_b);
        for _ in 0..4 {
            assert_eq!(fit(a), want_a);
            assert_eq!(fit(b), want_b);
        }
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (want_a, want_b, start) = (&want_a, &want_b, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..50 {
                        if (i + t) % 2 == 0 {
                            assert_eq!(&fit(a), want_a);
                        } else {
                            assert_eq!(&fit(b), want_b);
                        }
                    }
                });
            }
        });
    }
}
