//! Multi-tenant compilation (DESIGN.md §17).
//!
//! [`compile_tenants`] is the driver for the merged deployment: each
//! tenant's NetCL-C unit goes through the normal frontend (parse → sema →
//! per-device lowering), the lowered base modules are composed with
//! [`netcl_ir::merge::merge`] — namespaced under `t<id>__`, memory ids
//! re-based, computation ids renumbered so the NCL `comp` byte is the
//! tenant classifier at ingress — and the *merged* module runs the pass
//! pipeline and code generators exactly like a single-tenant program.
//!
//! Two artifacts come back per tenant besides the shared merged device:
//! the old→new computation map (hosts address kernels on the shared
//! switch with it) and a **solo** [`CompiledDevice`] built from
//! [`netcl_ir::merge::MergedTenants::solo`] — the dedicated-switch
//! baseline that is wire-compatible with the merged deployment (same comp
//! bytes, same namespaced state). The isolation tests
//! (`tests/chaos.rs::tenant_isolation_*`) compare the two byte-for-byte,
//! and `crates/bench/tests/tenancy.rs` counter-for-counter.
//!
//! Budget enforcement is part of the driver: the merged TNA program is
//! fitted with [`netcl_tofino::allocate_with_budgets`], so an over-budget
//! tenant set is rejected here with the allocator's structured diagnostic
//! (code `E0502`, naming tenant and exhausted resource) — never a panic,
//! never a silent mis-allocation.

use std::sync::Arc;

use netcl_ir::merge::{self, MergedTenants, TenantMapEntry, TenantUnit};
use netcl_ir::Module;
use netcl_p4::ast::{P4Program, Target};
use netcl_passes::PipelineTarget;
use netcl_sema::Model;
use netcl_tofino::{AllocationReport, TenantBudgets, TofinoSpec};
use netcl_util::{DiagnosticSink, SourceMap};

use crate::codegen;
use crate::compiler::{CompileError, CompileOptions, CompiledDevice, EmitTarget};
use crate::lower;

/// One tenant's translation unit.
#[derive(Clone, Copy, Debug)]
pub struct TenantSource<'a> {
    /// Tenant id (becomes the `t<id>__` namespace).
    pub tenant: u16,
    /// Unit name (for diagnostics).
    pub name: &'a str,
    /// NetCL-C source.
    pub source: &'a str,
}

/// One tenant's view of the merged deployment.
#[derive(Clone, Debug)]
pub struct TenantSlice {
    /// Tenant id.
    pub tenant: u16,
    /// The tenant's semantic model (kernel specs for its hosts). Kernel
    /// computation ids here are the tenant's *original* ids; translate
    /// through [`TenantSlice::map`] when talking to the merged switch.
    pub model: Model,
    /// Original → merged computation ids and the tenant's global range.
    pub map: TenantMapEntry,
    /// The dedicated-switch baseline: this tenant's module alone,
    /// namespaced and carrying the merged computation ids.
    pub solo: CompiledDevice,
}

/// The output of [`compile_tenants`].
#[derive(Clone, Debug)]
pub struct MergedCompilation {
    /// Target device id.
    pub device: u16,
    /// The merged switch program (all tenants behind one comp dispatch).
    pub merged: CompiledDevice,
    /// Per-tenant maps, models, and solo baselines, in input order.
    pub tenants: Vec<TenantSlice>,
    /// The merged TNA program's fit, with per-tenant resource attribution
    /// (`None` when only v1model was emitted).
    pub report: Option<AllocationReport>,
}

impl MergedCompilation {
    /// The slice for a tenant id.
    pub fn tenant(&self, id: u16) -> Option<&TenantSlice> {
        self.tenants.iter().find(|t| t.tenant == id)
    }
}

/// Compiles `sources` for `device` and merges them onto one switch,
/// enforcing `budgets` on the merged TNA fit. See the module docs.
pub fn compile_tenants(
    sources: &[TenantSource<'_>],
    device: u16,
    options: &CompileOptions,
    budgets: &TenantBudgets,
) -> Result<MergedCompilation, CompileError> {
    compile_tenants_on(sources, device, options, budgets, &TofinoSpec::tofino1())
}

/// [`compile_tenants`] against an explicit pipeline spec (tests use
/// [`TofinoSpec::tiny`] to exercise rejection without giant programs).
pub fn compile_tenants_on(
    sources: &[TenantSource<'_>],
    device: u16,
    options: &CompileOptions,
    budgets: &TenantBudgets,
    spec: &TofinoSpec,
) -> Result<MergedCompilation, CompileError> {
    // Frontend per tenant: parse, analyze, lower the base module.
    let mut units = Vec::new();
    let mut models = Vec::new();
    for ts in sources {
        let (base, model) = frontend(ts, device)?;
        models.push((ts.tenant, model));
        units.push(TenantUnit { tenant: ts.tenant, module: base });
    }

    // Compose. Merge errors are definitional (duplicate tenant, device
    // mismatch, comp-space exhaustion) — report them as E0501.
    let merged: MergedTenants = merge::merge(&units).map_err(|e| CompileError {
        message: format!("tenant merge failed: {e}"),
        codes: vec!["E0501".into()],
    })?;
    if let Err(errs) = netcl_ir::verify::verify_module(&merged.module) {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        return Err(CompileError {
            message: format!("internal: merged IR fails verification:\n{}", msgs.join("\n")),
            codes: vec!["E0399".into()],
        });
    }

    let merged_dev = build_device(merged.module.clone(), options)?;

    // Budget enforcement on the merged TNA fit: the allocator attributes
    // every namespaced table and register to its tenant and rejects
    // overuse with tenant + resource in the diagnostic.
    let report =
        if options.target != EmitTarget::V1Model {
            Some(netcl_tofino::allocate_with_budgets(&merged_dev.tna_p4, spec, budgets).map_err(
                |e| CompileError { message: e.to_string(), codes: vec!["E0502".into()] },
            )?)
        } else {
            None
        };

    // Solo baselines: one dedicated-switch artifact per tenant, compiled
    // from the merged module's namespaced slice (wire-compatible comps).
    let mut tenants = Vec::new();
    for (tenant, model) in models {
        let map = merged.tenant(tenant).expect("merge returns every input tenant").clone();
        let solo_module = merged.solo(tenant).expect("merge returns every input tenant");
        let solo = build_device(solo_module, options)?;
        tenants.push(TenantSlice { tenant, model, map, solo });
    }

    Ok(MergedCompilation { device, merged: merged_dev, tenants, report })
}

/// Parse → analyze → lower one tenant's unit for `device`.
fn frontend(ts: &TenantSource<'_>, device: u16) -> Result<(Module, Model), CompileError> {
    let (unit, mut diags) = netcl_lang::parse(ts.name, ts.source);
    if diags.has_errors() {
        return Err(render_for(ts.tenant, &diags, &unit.source_map));
    }
    let (analysis, sema_diags) = netcl_sema::analyze(&unit);
    diags.absorb(sema_diags);
    if diags.has_errors() {
        return Err(render_for(ts.tenant, &diags, &unit.source_map));
    }
    let base = lower::lower_device(&unit, &analysis, device, &mut diags);
    if diags.has_errors() {
        return Err(render_for(ts.tenant, &diags, &unit.source_map));
    }
    if let Err(errs) = netcl_ir::verify::verify_module(&base) {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        return Err(CompileError {
            message: format!(
                "internal: tenant {} lowered IR fails verification:\n{}",
                ts.tenant,
                msgs.join("\n")
            ),
            codes: vec!["E0399".into()],
        });
    }
    Ok((base, analysis.model))
}

/// Pass pipeline + codegen for one (merged or solo) base module. The
/// merged module has no source map, so pipeline rejections render bare.
fn build_device(base: Module, options: &CompileOptions) -> Result<CompiledDevice, CompileError> {
    let device = base.device;
    let want_tna = options.target != EmitTarget::V1Model;
    let want_v1 = options.target != EmitTarget::Tna;
    let map = SourceMap::new();
    let mut diags = DiagnosticSink::new();

    let mut tna_ir = base.clone();
    if want_tna
        && netcl_passes::run_pipeline(
            &mut tna_ir,
            PipelineTarget::Tofino,
            &options.flags,
            &mut diags,
        )
        .is_err()
    {
        return Err(render_for(u16::MAX, &diags, &map));
    }
    let mut v1_ir = base;
    if want_v1
        && netcl_passes::run_pipeline(
            &mut v1_ir,
            PipelineTarget::V1Model,
            &options.flags,
            &mut diags,
        )
        .is_err()
    {
        return Err(render_for(u16::MAX, &diags, &map));
    }

    let gen_err = |e: codegen::CodegenError| CompileError {
        message: e.to_string(),
        codes: vec![e.code.to_string()],
    };
    let empty = P4Program::default();
    let tna_p4 = if want_tna {
        codegen::generate(&tna_ir, Target::Tna).map_err(gen_err)?
    } else {
        empty.clone()
    };
    let v1_p4 =
        if want_v1 { codegen::generate(&v1_ir, Target::V1Model).map_err(gen_err)? } else { empty };

    Ok(CompiledDevice {
        device,
        tna_ir: Arc::new(tna_ir),
        v1_ir: Arc::new(v1_ir),
        tna_p4: Arc::new(tna_p4),
        v1_p4: Arc::new(v1_p4),
        tna_pass_report: None,
        v1_pass_report: None,
    })
}

fn render_for(tenant: u16, diags: &DiagnosticSink, map: &SourceMap) -> CompileError {
    let rendered = diags.render_all(map);
    let message =
        if tenant == u16::MAX { rendered } else { format!("tenant {tenant}: {rendered}") };
    CompileError {
        message,
        codes: diags.diagnostics().iter().map(|d| d.code.to_string()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_tofino::{AllocError, TenantBudget};

    /// A Fig. 7-flavored aggregation tenant.
    pub(crate) const AGG_SRC: &str = r#"
_managed_ unsigned Acc[256];
_kernel(1) _at(1) void agg(unsigned slot, unsigned v, unsigned &sum) {
  sum = ncl::atomic_add_new(&Acc[slot], v);
}
"#;

    /// A Fig. 4-flavored cache tenant.
    pub(crate) const CACHE_SRC: &str = r#"
_managed_ unsigned Freq[1024];
_net_ _lookup_ ncl::kv<unsigned, unsigned> kv[] = {{1,11}, {2,22}, {3,33}};
_kernel(1) _at(1) void query(unsigned k, unsigned &v, char &hit, unsigned &n) {
  hit = ncl::lookup(kv, k, v);
  if (!hit) n = ncl::atomic_sadd_new(&Freq[ncl::crc16(k)], 1);
  if (hit) return ncl::reflect();
}
"#;

    fn sources() -> Vec<TenantSource<'static>> {
        vec![
            TenantSource { tenant: 0, name: "agg.ncl", source: AGG_SRC },
            TenantSource { tenant: 1, name: "cache.ncl", source: CACHE_SRC },
        ]
    }

    #[test]
    fn agg_and_cache_merge_onto_one_switch() {
        let m =
            compile_tenants(&sources(), 1, &CompileOptions::default(), &TenantBudgets::default())
                .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(m.device, 1);
        assert_eq!(m.tenants.len(), 2);
        // Comp dispatch: agg keeps comp 1 → 1, cache's comp 1 → 2.
        assert_eq!(m.tenant(0).unwrap().map.comp(1), Some(1));
        assert_eq!(m.tenant(1).unwrap().map.comp(1), Some(2));
        // The merged P4 carries both tenants' namespaced state.
        let ig = m.merged.tna_p4.control("Ig").unwrap();
        assert!(ig.registers.iter().any(|r| r.name.starts_with("t0__Acc")));
        assert!(ig.registers.iter().any(|r| r.name.starts_with("t1__Freq")));
        assert!(ig.tables.iter().any(|t| t.name.starts_with("lu_t1__kv")));
        assert!(!ig.tables.iter().any(|t| t.name.starts_with("lu_kv")), "un-namespaced MAT");
        // The fit attributes resources to both tenants.
        let rep = m.report.as_ref().unwrap();
        assert_eq!(rep.tenants.iter().map(|t| t.tenant).collect::<Vec<_>>(), vec![0, 1]);
        assert!(rep.tenants.iter().all(|t| t.salus >= 1));
        // Solo baselines carry only their own state, with merged comps.
        let solo1 = &m.tenant(1).unwrap().solo;
        assert_eq!(solo1.tna_ir.kernels.len(), 1);
        assert_eq!(solo1.tna_ir.kernels[0].computation, 2);
        let sig = solo1.tna_p4.control("Ig").unwrap();
        assert!(sig.registers.iter().all(|r| r.name.starts_with("t1__")));
    }

    #[test]
    fn over_budget_tenant_set_rejected_structurally() {
        // Tenant 1 (cache: register + MAT) capped to zero tables.
        let budgets = TenantBudgets {
            per_tenant: vec![(
                1,
                TenantBudget { stages: 12, sram_bits: u64::MAX, salus: 4, tables: 0 },
            )],
            default_budget: None,
        };
        let err = compile_tenants(&sources(), 1, &CompileOptions::default(), &budgets).unwrap_err();
        assert_eq!(err.codes, vec!["E0502".to_string()]);
        assert!(err.message.contains("tenant 1"), "{err}");
        assert!(err.message.contains("tables"), "{err}");
        // The same rejection is typed at the allocator level.
        let m =
            compile_tenants(&sources(), 1, &CompileOptions::default(), &TenantBudgets::default())
                .unwrap();
        let typed =
            netcl_tofino::allocate_with_budgets(&m.merged.tna_p4, &TofinoSpec::tofino1(), &budgets)
                .unwrap_err();
        assert!(matches!(typed, AllocError::TenantBudget { tenant: 1, resource: "tables", .. }));
    }

    #[test]
    fn duplicate_tenants_rejected() {
        let dup = vec![
            TenantSource { tenant: 3, name: "a.ncl", source: AGG_SRC },
            TenantSource { tenant: 3, name: "b.ncl", source: CACHE_SRC },
        ];
        let err = compile_tenants(&dup, 1, &CompileOptions::default(), &TenantBudgets::default())
            .unwrap_err();
        assert_eq!(err.codes, vec!["E0501".to_string()]);
        assert!(err.message.contains("tenant 3"), "{err}");
    }
}
