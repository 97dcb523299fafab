//! Split ≡ whole (DESIGN.md §4): `Compiler::compile` runs the pass
//! pipeline's common half once per device and its target half once per
//! dialect. What comes out — both IR modules, both P4 programs, both pass
//! reports — must be what driving `lower_device` → `run_pipeline` per target
//! → `codegen::generate` by hand produces, byte for byte (wall times aside).

use netcl::ir::print::print_module;
use netcl::passes::{
    run_pipeline, run_pipeline_with_report, PassFlags, PassReport, PipelineTarget,
};
use netcl::{codegen, lower, CompileOptions, Compiler};
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

/// The whole pipeline per target, as `Compiler::compile_with` drove it
/// before the common stage was shared. Returns each device's output and its
/// `(tna, v1model)` reports.
fn by_hand(name: &str, source: &str) -> Vec<(Rendered, String, String)> {
    let flags = PassFlags::default();
    let (parsed, mut diags) = netcl::lang::parse(name, source);
    let (analysis, sema_diags) = netcl::sema::analyze(&parsed);
    diags.absorb(sema_diags);
    assert!(!diags.has_errors(), "{name}: {}", diags.render_all(&parsed.source_map));
    let mut out = Vec::new();
    for dev in analysis.model.mentioned_devices() {
        let base = lower::lower_device(&parsed, &analysis, dev, &mut diags);
        let mut whole = |target| {
            // The bare and the reporting entry point are one pipeline.
            let (mut ir, mut reported) = (base.clone(), base.clone());
            run_pipeline(&mut ir, target, &flags, &mut diags).expect("pipeline accepts");
            let (r, report) = run_pipeline_with_report(&mut reported, target, &flags, &mut diags);
            r.expect("pipeline accepts");
            assert_eq!(print_module(&ir), print_module(&reported));
            (ir, untimed(&report))
        };
        let (tna_ir, tna_report) = whole(PipelineTarget::Tofino);
        let (v1_ir, v1_report) = whole(PipelineTarget::V1Model);
        let rendered = Rendered {
            device: dev,
            tna_p4: print_program(&codegen::generate(&tna_ir, Target::Tna).expect("codegen")),
            v1_p4: print_program(&codegen::generate(&v1_ir, Target::V1Model).expect("codegen")),
            tna_ir: print_module(&tna_ir),
            v1_ir: print_module(&v1_ir),
        };
        out.push((rendered, tna_report, v1_report));
    }
    out
}

fn assert_split_matches_whole(name: &str, source: &str) {
    let whole = by_hand(name, source);
    for pass_report in [false, true] {
        let unit = Compiler::new(CompileOptions { pass_report, ..Default::default() })
            .compile(name, source)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(unit.devices.len(), whole.len(), "{name}");
        for (d, (want, want_tna, want_v1)) in unit.devices.iter().zip(&whole) {
            let got = Rendered {
                device: d.device,
                tna_ir: print_module(&d.tna_ir),
                v1_ir: print_module(&d.v1_ir),
                tna_p4: print_program(&d.tna_p4),
                v1_p4: print_program(&d.v1_p4),
            };
            assert_eq!(&got, want, "{name} device {}", d.device);
            let reports = (d.tna_pass_report.as_ref(), d.v1_pass_report.as_ref());
            match reports {
                (Some(tna), Some(v1)) if pass_report => {
                    assert_eq!(&untimed(tna), want_tna, "{name} device {}", d.device);
                    assert_eq!(&untimed(v1), want_v1, "{name} device {}", d.device);
                    tna.reconcile().expect("per-pass and per-kernel views agree");
                    v1.reconcile().expect("per-pass and per-kernel views agree");
                }
                (None, None) if !pass_report => {}
                _ => panic!("{name}: reports present iff asked for"),
            }
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
