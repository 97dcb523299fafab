//! Split ≡ whole (DESIGN.md §4): `Compiler::compile` runs the pass
//! pipeline's common half once per device and its target half once per
//! dialect. What comes out — both IR modules, both P4 programs, both pass
//! reports — must be what driving `lower_device` → `run_pipeline` per target
//! → `codegen::generate_at` by hand produces, byte for byte
//! (wall times aside). A device whose lowered module an earlier device of
//! the unit has runs that device's program, so its reports are replayed,
//! marked cached. `compile_tenants` builds its merged and solo devices with
//! the same function, so the same holds for them against `merge::merge`'s
//! modules.

use netcl::ir::merge::{self, TenantUnit};
use netcl::ir::print::print_module;
use netcl::ir::Module;
use netcl::lang::ParsedUnit;
use netcl::passes::{
    run_pipeline, run_pipeline_with_report, PassFlags, PassReport, PipelineTarget,
};
use netcl::sema::Analysis;
use netcl::util::DiagnosticSink;
use netcl::{
    codegen, compile_tenants, lower, CompileOptions, CompiledDevice, Compiler, TenantSource,
};
use netcl_apps::{agg, all_apps, cache, paxos};
use netcl_p4::ast::Target;
use netcl_p4::print::print_program;
use proptest::prelude::*;

/// One device's observable output: IR and P4 prints per dialect.
#[derive(Debug, PartialEq)]
struct Rendered {
    device: u16,
    tna_ir: String,
    v1_ir: String,
    tna_p4: String,
    v1_p4: String,
}

/// Everything a [`PassReport`] says except how long it took.
fn untimed(r: &PassReport) -> String {
    let mut out = format!(
        "{} kernels={} insts={}→{} blocks={}→{} cached={}\n",
        r.target, r.kernels, r.insts_start, r.insts_end, r.blocks_start, r.blocks_end, r.from_cache
    );
    for p in &r.passes {
        out += &format!(
            "  pass {} runs={} rewrites={} insts={:+} blocks={:+}\n",
            p.name, p.runs, p.rewrites, p.insts_delta, p.blocks_delta
        );
    }
    for k in &r.per_kernel {
        out += &format!(
            "  kernel {} runs={} rewrites={} insts={:+} blocks={:+}\n",
            k.kernel, k.runs, k.rewrites, k.insts_delta, k.blocks_delta
        );
    }
    out
}

/// One device's expected output and its `(tna, v1model)` reports.
type Whole = (Rendered, String, String);

/// The P4 program for `ir` at `device`.
fn generated(ir: &Module, target: Target, device: u16) -> String {
    print_program(&codegen::generate_at(ir, target, device).expect("codegen"))
}

/// The whole pipeline per target on one lowered (or merged) module placed
/// at `device`, with no stage shared between the dialects; the reports say
/// `cached` as asked.
fn whole_device(base: &Module, device: u16, cached: bool, diags: &mut DiagnosticSink) -> Whole {
    let flags = PassFlags::default();
    let mut whole = |target| {
        // The bare and the reporting entry point are one pipeline.
        let (mut ir, mut reported) = (base.clone(), base.clone());
        run_pipeline(&mut ir, target, &flags, diags).expect("pipeline accepts");
        let (r, mut report) = run_pipeline_with_report(&mut reported, target, &flags, diags);
        r.expect("pipeline accepts");
        assert_eq!(print_module(&ir), print_module(&reported));
        report.from_cache = cached;
        (ir, untimed(&report))
    };
    let (tna_ir, tna_report) = whole(PipelineTarget::Tofino);
    let (v1_ir, v1_report) = whole(PipelineTarget::V1Model);
    let rendered = Rendered {
        device,
        tna_p4: generated(&tna_ir, Target::Tna, device),
        v1_p4: generated(&v1_ir, Target::V1Model, device),
        tna_ir: print_module(&tna_ir),
        v1_ir: print_module(&v1_ir),
    };
    (rendered, tna_report, v1_report)
}

/// Parse and analyze `source`, by hand.
fn frontend(name: &str, source: &str) -> (ParsedUnit, Analysis, DiagnosticSink) {
    let (parsed, mut diags) = netcl::lang::parse(name, source);
    let (analysis, sema_diags) = netcl::sema::analyze(&parsed);
    diags.absorb(sema_diags);
    assert!(!diags.has_errors(), "{name}: {}", diags.render_all(&parsed.source_map));
    (parsed, analysis, diags)
}

fn by_hand(name: &str, source: &str) -> Vec<Whole> {
    let (parsed, analysis, mut diags) = frontend(name, source);
    let (mut out, mut seen) = (Vec::new(), Vec::new());
    for dev in analysis.model.mentioned_devices() {
        let base = lower::lower_device(&parsed, &analysis, dev, &mut diags);
        let cached = seen.contains(&base);
        out.push(whole_device(&base, dev, cached, &mut diags));
        seen.push(base);
    }
    out
}

/// `d` is `want`, and carries `want`'s reports exactly when asked for them.
fn assert_device_matches(d: &CompiledDevice, want: &Whole, pass_report: bool, what: &str) {
    let (want, want_tna, want_v1) = want;
    let got = Rendered {
        device: d.device,
        tna_ir: print_module(&d.tna_ir),
        v1_ir: print_module(&d.v1_ir),
        tna_p4: print_program(&d.tna_p4),
        v1_p4: print_program(&d.v1_p4),
    };
    assert_eq!(&got, want, "{what}");
    match (d.tna_pass_report.as_ref(), d.v1_pass_report.as_ref()) {
        (Some(tna), Some(v1)) if pass_report => {
            assert_eq!(&untimed(tna), want_tna, "{what}");
            assert_eq!(&untimed(v1), want_v1, "{what}");
            tna.reconcile().expect("per-pass and per-kernel views agree");
            v1.reconcile().expect("per-pass and per-kernel views agree");
        }
        (None, None) if !pass_report => {}
        _ => panic!("{what}: reports present iff asked for"),
    }
}

fn assert_split_matches_whole(name: &str, source: &str) {
    let whole = by_hand(name, source);
    for pass_report in [false, true] {
        let unit = Compiler::new(CompileOptions { pass_report, ..Default::default() })
            .compile(name, source)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(unit.devices.len(), whole.len(), "{name}");
        for (d, want) in unit.devices.iter().zip(&whole) {
            assert_device_matches(d, want, pass_report, &format!("{name} device {}", d.device));
        }
    }
}

#[test]
fn every_shipped_application() {
    for app in all_apps() {
        assert_split_matches_whole(app.name, &app.netcl_source);
    }
    assert_split_matches_whole("paxos.ncl", &paxos::full_source());
}

/// Which devices share one program: P4xos's acceptors read `device.id`, so
/// each runs its own pipeline, while PLRN's devices 2–4 hold only the
/// acceptors' memory and are placed from device 2's program. That both
/// print what the by-hand run prints is `every_shipped_application`.
#[test]
fn p4xos_devices_share_only_equal_modules() {
    let cc = Compiler::new(CompileOptions::default());
    let full = cc.compile("paxos.ncl", &paxos::full_source()).expect("P4xos compiles");
    assert_eq!((full.reuse.devices_total, full.reuse.devices_reused), (5, 0));
    let plrn = cc.compile("plrn.ncl", &paxos::learner_source()).expect("PLRN compiles");
    assert_eq!(plrn.devices.iter().map(|d| d.device).collect::<Vec<_>>(), [2, 3, 4, 5]);
    assert_eq!(plrn.reuse.devices_reused, 2);
    let ir = |i: usize| std::sync::Arc::as_ptr(&plrn.devices[i].tna_ir);
    assert!(ir(1) == ir(0) && ir(2) == ir(0) && ir(3) != ir(0));
}

/// AGG + CACHE behind one dispatch (the shapes of `tests/fit_golden.rs` and
/// `crates/bench/tests/tenancy.rs`): the merged device and each solo slice
/// are what the by-hand run makes of `merge::merge`'s modules, reports
/// included — the tenant driver used to drop `CompileOptions::pass_report`.
#[test]
fn merged_and_solo_tenant_devices() {
    let agg_src = agg::netcl_source(&agg::AggConfig { slot_size: 8, ..Default::default() });
    let cache_src = cache::netcl_source(&cache::CacheConfig { words: 4, ..Default::default() });
    let sources = [
        TenantSource { tenant: 0, name: "agg.ncl", source: &agg_src },
        TenantSource { tenant: 1, name: "cache.ncl", source: &cache_src },
    ];
    let mut diags = DiagnosticSink::new();
    let units: Vec<TenantUnit> = sources
        .iter()
        .map(|ts| {
            let (parsed, analysis, mut diags) = frontend(ts.name, ts.source);
            let module = lower::lower_device(&parsed, &analysis, 1, &mut diags);
            TenantUnit { tenant: ts.tenant, module }
        })
        .collect();
    let merged = merge::merge(&units).expect("AGG + CACHE merge");
    let want_merged = whole_device(&merged.module, 1, false, &mut diags);
    let want_solo: Vec<Whole> = sources
        .iter()
        .map(|ts| {
            let solo = merged.solo(ts.tenant).expect("merged tenant");
            whole_device(&solo, 1, false, &mut diags)
        })
        .collect();

    for pass_report in [false, true] {
        let options = CompileOptions { pass_report, ..Default::default() };
        let m = compile_tenants(&sources, 1, &options, &Default::default())
            .unwrap_or_else(|e| panic!("{e}"));
        assert_device_matches(&m.merged, &want_merged, pass_report, "merged");
        assert_eq!(m.tenants.len(), want_solo.len());
        for (t, want) in m.tenants.iter().zip(&want_solo) {
            assert_device_matches(&t.solo, want, pass_report, &format!("solo {}", t.tenant));
        }
    }
}

fn pick(choices: [u32; 3]) -> impl Strategy<Value = u32> {
    (0usize..3).prop_map(move |i| choices[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The configuration grids `netcl_e2e`'s `compile_fleet` walks.
    #[test]
    fn agg_grid(
        num_workers in 2u32..9,
        num_slots in pick([8, 16, 32]),
        slot_size in pick([8, 16, 32]),
    ) {
        let cfg = agg::AggConfig { num_workers, num_slots, slot_size };
        assert_split_matches_whole("agg.ncl", &agg::netcl_source(&cfg));
    }

    #[test]
    fn cache_grid(
        slots in pick([16, 64, 256]),
        words in pick([2, 4, 8]),
        sketch_cols in pick([256, 1024, 4096]),
    ) {
        let cfg = cache::CacheConfig { slots, words, threshold: 64, sketch_cols };
        assert_split_matches_whole("cache.ncl", &cache::netcl_source(&cfg));
    }
}
