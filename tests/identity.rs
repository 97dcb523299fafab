//! The compile chain's identity readings as a golden file: what
//! `netcl_e2e`'s traced `compile_fleet` pass reports about the seed-7 fleet
//! of 192 units — source bytes, instructions before and after the passes,
//! rewrites, printed P4 bytes, parser refusals and the mean Tofino fit —
//! compared line for line with `tests/golden/identity.txt`. No change to
//! the compile chain's speed may move them; a change that means to must
//! say so and rewrite the file with
//! `cargo test --test identity -- --ignored`.
//!
//! Each reading is defined exactly as the benchmark's staged pass
//! (`compile.rs::staged_unit`) defines it: both full pass pipelines run
//! from each device's base module, and the TNA program from
//! `codegen::generate` is printed, parsed back and fitted.

#[allow(dead_code)]
#[path = "../crates/bench/src/bin/netcl_e2e/fleet.rs"]
mod fleet;

use std::fmt::Write;

use netcl::codegen;
use netcl::passes::{run_pipeline_with_report, PassFlags, PipelineTarget};
use netcl_p4::ast::Target;

/// `cargo test` runs integration tests from the package root.
const GOLDEN: &str = "tests/golden/identity.txt";

/// The fleet `compile_fleet` drives at full size.
const SEED: u64 = 7;
const UNITS: usize = 192;

/// Sums over every device of every unit, as the staged pass keeps them.
#[derive(Default)]
struct Readings {
    source_bytes: usize,
    insts_start: u64,
    insts_end: u64,
    rewrites: u64,
    text_bytes: usize,
    parse_refused: usize,
    stages_used: f64,
    phv_pct: f64,
    latency_ns: f64,
    devices: f64,
}

fn measure(u: &fleet::Unit, r: &mut Readings) {
    let flags = PassFlags::default();
    let (parsed, mut diags) = netcl::lang::parse(&u.name, &u.source);
    assert!(!diags.has_errors(), "{}: {}", u.name, diags.render_all(&parsed.source_map));
    let (analysis, sema_diags) = netcl::sema::analyze(&parsed);
    diags.absorb(sema_diags);
    assert!(!diags.has_errors(), "{}: {}", u.name, diags.render_all(&parsed.source_map));
    r.source_bytes += u.source.len();
    for dev in analysis.model.mentioned_devices() {
        let base = netcl::lower::lower_device(&parsed, &analysis, dev, &mut diags);
        assert!(!diags.has_errors(), "{}: {}", u.name, diags.render_all(&parsed.source_map));
        netcl::ir::verify::verify_module(&base)
            .unwrap_or_else(|e| panic!("{}: lowered IR fails verification: {e:?}", u.name));
        let mut pipeline = |ir: &mut netcl::ir::Module, target| {
            let (done, report) = run_pipeline_with_report(ir, target, &flags, &mut diags);
            assert!(done.is_ok(), "{}: the {target:?} pipeline failed", u.name);
            report
        };
        let mut tna_ir = base.clone();
        let tna = pipeline(&mut tna_ir, PipelineTarget::Tofino);
        let mut v1_ir = base;
        let v1 = pipeline(&mut v1_ir, PipelineTarget::V1Model);
        r.insts_start += tna.insts_start;
        r.insts_end += tna.insts_end;
        r.rewrites += tna.passes.iter().chain(&v1.passes).map(|p| p.rewrites).sum::<u64>();

        let tna_p4 =
            codegen::generate(&tna_ir, Target::Tna).unwrap_or_else(|e| panic!("{}: {e}", u.name));
        let text = netcl_p4::print::print_program(&tna_p4);
        r.text_bytes += text.len();
        r.parse_refused += netcl_p4::parse::parse_program(&text).is_err() as usize;
        let fit =
            netcl_tofino::fit(&tna_p4).unwrap_or_else(|e| panic!("{}: does not fit: {e}", u.name));
        r.stages_used += fit.stages_used as f64;
        r.phv_pct += fit.phv.percent();
        r.latency_ns += fit.latency_ns;
        r.devices += 1.0;
    }
}

/// One `name value` line per reading, under the benchmark's metric names.
fn render() -> String {
    let mut r = Readings::default();
    for u in &fleet::generate(SEED, UNITS) {
        measure(u, &mut r);
    }
    let mut out = String::new();
    for (name, value) in [
        ("lang.source_bytes", r.source_bytes.to_string()),
        ("ir.insts_start", r.insts_start.to_string()),
        ("ir.insts_end", r.insts_end.to_string()),
        ("passes.rewrites", r.rewrites.to_string()),
        ("p4.text_bytes", r.text_bytes.to_string()),
        ("p4.parse_refused", r.parse_refused.to_string()),
        ("tofino.stages_used", format!("{:.6}", r.stages_used / r.devices)),
        ("tofino.phv_pct", format!("{:.6}", r.phv_pct / r.devices)),
        ("tofino.latency_ns", format!("{:.6}", r.latency_ns / r.devices)),
    ] {
        let _ = writeln!(out, "{name} {value}");
    }
    out
}

#[test]
fn compile_fleet_readings_match_the_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/identity.txt is committed");
    let now = render();
    for (now, golden) in now.lines().zip(golden.lines()) {
        assert_eq!(now, golden, "a compile_fleet identity reading moved");
    }
    assert_eq!(now.lines().count(), golden.lines().count(), "the readings are not the golden's");
}

#[test]
#[ignore = "rewrites tests/golden/identity.txt from the current compile chain"]
fn rewrite_the_golden_file() {
    std::fs::write(GOLDEN, render()).expect("write tests/golden/identity.txt");
}
