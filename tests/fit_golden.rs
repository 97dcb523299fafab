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

use netcl::{CompileOptions, Compiler};
use netcl_apps::{agg, all_apps, cache, empty_program, paxos};
use netcl_p4::P4Program;
use std::fmt::Write;

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
