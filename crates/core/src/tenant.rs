//! Multi-tenant compilation (DESIGN.md §17).
//!
//! [`compile_tenants`] is the driver for the merged deployment: each
//! tenant's NetCL-C unit goes through the normal frontend (parse → sema →
//! per-device lowering), the lowered base modules are composed with
//! [`netcl_ir::merge::merge`] — namespaced under `t<id>__`, memory ids
//! re-based, computation ids renumbered so the NCL `comp` byte is the
//! tenant classifier at ingress — and the *merged* module runs the pass
//! pipeline and code generators through the single-tenant compiler's own
//! `build_device`.
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

use netcl_ir::merge::{self, TenantMapEntry, TenantUnit};
use netcl_ir::Module;
use netcl_tofino::{AllocationReport, TenantBudgets, TofinoSpec};
use netcl_util::{DiagnosticSink, SourceMap};

use crate::compiler::{self, CompileError, CompileOptions, CompiledDevice, EmitTarget};

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
    /// Per-tenant maps and solo baselines, in input order.
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
    // Frontend per tenant: parse, analyze, lower the base module.
    let mut units = Vec::new();
    for ts in sources {
        let for_tenant = |e: CompileError| CompileError {
            message: format!("tenant {}: {}", ts.tenant, e.message),
            codes: e.codes,
        };
        let mut fe = compiler::frontend(ts.name, ts.source).map_err(for_tenant)?;
        let (module, _) = compiler::lowered(&mut fe, device).map_err(for_tenant)?;
        compiler::verified(&module, "lowered").map_err(for_tenant)?;
        units.push(TenantUnit { tenant: ts.tenant, module });
    }

    // Compose. Merge errors are definitional (duplicate tenant, comp-space
    // exhaustion) — report them as E0501.
    let merged = merge::merge(&units).map_err(|e| CompileError {
        message: format!("tenant merge failed: {e}"),
        codes: vec!["E0501".into()],
    })?;
    compiler::verified(&merged.module, "merged")?;

    // The merged module and its solo slices have no source text, so a
    // pipeline rejection renders bare.
    let build = |base: Module| {
        let (mut diags, map) = (DiagnosticSink::new(), SourceMap::new());
        compiler::build_device(base, device, options, &mut diags, &map, &mut Default::default())
    };
    let merged_dev = build(merged.module.clone())?;

    // Budget enforcement on the merged TNA fit: the allocator attributes
    // every namespaced table and register to its tenant and rejects
    // overuse with tenant + resource in the diagnostic.
    let report = if options.target != EmitTarget::V1Model {
        let spec = TofinoSpec::tofino1();
        let fit = netcl_tofino::allocate_with_budgets(&merged_dev.tna_p4, &spec, budgets);
        Some(fit.map_err(|e| CompileError { message: e.to_string(), codes: vec!["E0502".into()] })?)
    } else {
        None
    };

    // Solo baselines: one dedicated-switch artifact per tenant, compiled
    // from the merged module's namespaced slice (wire-compatible comps).
    let mut tenants = Vec::new();
    for &TenantSource { tenant, .. } in sources {
        let map = merged.tenant(tenant).expect("merge returns every input tenant").clone();
        let solo = build(merged.solo(tenant).expect("merge returns every input tenant"))?;
        tenants.push(TenantSlice { tenant, map, solo });
    }

    Ok(MergedCompilation { device, merged: merged_dev, tenants, report })
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
