//! The NetCL device pass pipeline (paper §VI-B).
//!
//! "Our backend performs over 20 custom passes mixed with an equal number of
//! LLVM passes." This crate reimplements that pipeline over `netcl-ir`:
//!
//! **Common stage (all P4 targets)** — constant folding and instruction
//! simplification ([`fold`]), dead-code elimination and unreachable-block
//! removal ([`dce`]), CFG simplification and the CFG-is-a-DAG check
//! ([`mod@cfg`]), and mem2reg promotion of scalar locals to SSA ([`mem2reg`]).
//! Reaching the end of this stage guarantees the program compiles for the
//! v1model target.
//!
//! **Tofino stage** — access-based memory partitioning and lookup-memory
//! duplication ([`partition`]), the stage-local memory checks (mutual
//! exclusion via branch-distance approximation, cross-object access-order
//! verification with reordering) ([`memcheck`]), common-value hoisting and
//! aggressive speculation ([`hoist`]), inefficient-pattern rewrites
//! (`icmp`→`sub`+MSB, byte-swap detection) ([`rewrite`]).
//!
//! **Codegen preparation** — CFG structurization based on predicate
//! variables when the CFG is not already structured ([`structurize`]) and
//! φ-node elimination by fresh variables ([`phielim`]).
//!
//! Every transform pass preserves kernel semantics; the test-suite checks
//! this differentially with the IR interpreter on randomized inputs.
//!
//! Per-pass telemetry lives in [`report`] (DESIGN.md §12): a
//! [`PassReport`] records wall time, IR deltas and rewrite counts for
//! each pass, exports them as JSONL, and carries a `from_cache` marker so
//! reports replayed by the incremental recompilation cache (DESIGN.md
//! §16) are distinguishable from live runs. The pipeline itself is a pure
//! function of (IR, [`PassFlags`], [`PipelineTarget`]) — the property the
//! cache's program keys rely on.

#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod cfg;
pub mod dce;
pub mod fold;
pub mod hoist;
pub mod mem2reg;
pub mod memcheck;
pub mod partition;
pub mod phielim;
pub mod report;
pub mod rewrite;
pub mod structurize;

pub use report::{KernelStat, PassOutcome, PassReport, PassStat, MODULE_KERNEL};

use netcl_ir::Module;
use netcl_util::DiagnosticSink;
use report::Recorder;

/// Compiler flags controlling optional transformations (§VI-B: "we provide
/// several compiler flags to control certain transformations").
#[derive(Clone, Debug)]
pub struct PassFlags {
    /// Aggressive speculation of pure instructions to the earliest block.
    /// Reduces critical path length (it is what made AGG fit Tofino) but may
    /// raise PHV pressure.
    pub speculation: bool,
    /// Duplicate non-managed lookup memory per access site.
    pub duplicate_lookup: bool,
    /// Rewrite dynamic-operand relational `icmp`s to `sub` + MSB check.
    pub icmp_to_sub_msb: bool,
}

impl Default for PassFlags {
    fn default() -> Self {
        PassFlags { speculation: true, duplicate_lookup: true, icmp_to_sub_msb: true }
    }
}

/// Which backend the pipeline is preparing the module for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineTarget {
    /// Intel Tofino (TNA): full restriction checking.
    Tofino,
    /// p4lang v1model software switch: common stage only.
    V1Model,
}

impl PipelineTarget {
    fn label(self) -> &'static str {
        match self {
            PipelineTarget::Tofino => "tna",
            PipelineTarget::V1Model => "v1model",
        }
    }
}

/// Runs the full pipeline in paper order: [`run_common_stage`], then
/// [`run_target_stage`]. Returns `Err` (with diagnostics in `diags`) when a
/// target restriction rejects the program.
#[allow(clippy::result_unit_err)] // errors are reported through `diags`
pub fn run_pipeline(
    module: &mut Module,
    target: PipelineTarget,
    flags: &PassFlags,
    diags: &mut DiagnosticSink,
) -> Result<(), ()> {
    run_common_stage(module, diags, None)?;
    run_target_stage(module, target, flags, diags, None)
}

/// [`run_pipeline`] with per-pass telemetry: wall time, IR deltas, and
/// rewrite counts per pass (DESIGN.md §12). The report comes back even when
/// the pipeline rejects the program, so failures are attributable too.
pub fn run_pipeline_with_report(
    module: &mut Module,
    target: PipelineTarget,
    flags: &PassFlags,
    diags: &mut DiagnosticSink,
) -> (Result<(), ()>, PassReport) {
    let mut report = PassReport::begin(target.label(), module);
    let r = run_common_stage(module, diags, Some(&mut report))
        .and_then(|()| run_target_stage(module, target, flags, diags, Some(&mut report)));
    report.finish(module);
    (r, report)
}

/// The target-independent half of the pipeline: "peephole optimization,
/// instruction simplification and DCE passes. The main goal is for the CFG
/// to become a DAG." It is a function of the module alone — it takes neither
/// a [`PipelineTarget`] nor [`PassFlags`] — so a driver emitting both
/// dialects runs it once on the base IR and clones the result (DESIGN.md
/// §4). A `report` begun on the module gains this half's entries.
#[allow(clippy::result_unit_err)] // errors are reported through `diags`
pub fn run_common_stage(
    module: &mut Module,
    diags: &mut DiagnosticSink,
    report: Option<&mut PassReport>,
) -> Result<(), ()> {
    let mut rec = Recorder(report);
    for f in module.kernels.iter_mut() {
        for _ in 0..4 {
            let mut changed = rec.on_fn("fold", f, fold::fold_function);
            changed |= rec.on_fn("strength-reduce", f, fold::strength_reduce) > 0;
            changed |= rec.on_fn("dce", f, dce::run_on_function);
            changed |= rec.on_fn("cfg-simplify", f, cfg::simplify);
            if !changed {
                break;
            }
        }
    }
    for f in module.kernels.iter_mut() {
        rec.on_fn("cfg-check-dag", f, |f| {
            if let Err(msg) = cfg::check_dag(f) {
                diags.error("E0301", msg, netcl_util::Span::DUMMY);
            }
        });
    }
    if diags.has_errors() {
        return Err(());
    }
    for f in module.kernels.iter_mut() {
        rec.on_fn("mem2reg", f, mem2reg::run_on_function);
        for _ in 0..4 {
            let mut changed = rec.on_fn("fold", f, fold::fold_function);
            changed |= rec.on_fn("dce", f, dce::run_on_function);
            changed |= rec.on_fn("cfg-simplify", f, cfg::simplify);
            if !changed {
                break;
            }
        }
    }
    Ok(())
}

/// The target half: the Tofino stage (for [`PipelineTarget::Tofino`]),
/// codegen preparation and the closing verification, on a module
/// [`run_common_stage`] accepted. A `report` carrying the common half's
/// entries continues as `target`'s report, exactly as if
/// [`run_pipeline_with_report`] had run both halves on this module; the
/// caller [`PassReport::finish`]es it.
#[allow(clippy::result_unit_err)] // errors are reported through `diags`
pub fn run_target_stage(
    module: &mut Module,
    target: PipelineTarget,
    flags: &PassFlags,
    diags: &mut DiagnosticSink,
    mut report: Option<&mut PassReport>,
) -> Result<(), ()> {
    if let Some(report) = report.as_deref_mut() {
        report.target = target.label();
    }
    let mut rec = Recorder(report);
    if target == PipelineTarget::Tofino {
        rec.on_module("partition", module, partition::partition_module);
        if flags.duplicate_lookup {
            rec.on_module("dup-lookup", module, partition::duplicate_lookup_memory);
        }
        for f in module.kernels.iter_mut() {
            rec.on_fn("hoist-common", f, hoist::hoist_common_values);
            if flags.speculation {
                rec.on_fn("speculate", f, hoist::speculate);
            }
            if flags.icmp_to_sub_msb {
                rec.on_fn("icmp-to-sub-msb", f, rewrite::icmp_to_sub_msb);
            }
            rec.on_fn("detect-bswap", f, rewrite::detect_bswap);
            // The icmp rewrite leaves `or x, 0` copies behind; fold them.
            rec.on_fn("fold", f, fold::fold_function);
            rec.on_fn("dce", f, dce::run_on_function);
        }
        rec.on_module("memcheck", module, |m| memcheck::check_module(m, diags));
        if diags.has_errors() {
            return Err(());
        }
    }

    // Codegen preparation (both targets emit P4). φ-elimination first — the
    // structurizer requires φ-free IR (cross-join dataflow must already flow
    // through local slots so tail duplication is sound).
    for f in module.kernels.iter_mut() {
        rec.on_fn("phi-elim", f, phielim::run_on_function);
        rec.on_fn("structurize", f, |f| {
            if let Err(msg) = structurize::ensure_structured(f) {
                diags.error("E0305", msg, netcl_util::Span::DUMMY);
            }
        });
        rec.on_fn("dce", f, dce::run_on_function);
    }
    if diags.has_errors() {
        return Err(());
    }

    // Sanity: passes must leave verifiable IR behind.
    rec.on_module("ir-verify", module, |m| {
        if let Err(errs) = netcl_ir::verify::verify_module(m) {
            for e in errs {
                diags.error(
                    "E0399",
                    format!("internal: post-pass verification failed: {e}"),
                    netcl_util::Span::DUMMY,
                );
            }
        }
    });
    if diags.has_errors() {
        return Err(());
    }
    Ok(())
}
