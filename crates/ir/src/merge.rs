//! Multi-tenant module composition (DESIGN.md §17).
//!
//! One switch, many owners: [`merge`] combines independently-compiled
//! device modules — one per tenant — into a single [`Module`] that the
//! pass pipeline and code generator consume exactly like a single-tenant
//! program. Three things make the combination collision-free and
//! attributable:
//!
//! 1. **Namespacing** (`namespace`): every global (register, `_managed_`
//!    scalar/array, `_lookup_` table) and kernel is renamed under the
//!    tenant prefix `t<id>__` (`netcl_util::tenant`). The prefix survives
//!    codegen's identifier sanitization, so the allocator, the bmv2
//!    counters, and the runtime control plane all recover ownership from
//!    names alone.
//! 2. **Memory re-indexing**: each unit's [`MemId`]s are offset past the
//!    globals already merged, so instruction operands keep pointing at
//!    their own tenant's state and never at a neighbor's.
//! 3. **Computation re-numbering**: kernels receive fresh, globally unique
//!    computation ids. The generated parser `select`s on the NCL shim
//!    header's `comp` byte and ingress dispatches each kernel behind
//!    `hdr.ncl.comp == <id>` — that comp match *is* the tenant classifier
//!    at ingress. The old→new mapping is returned per tenant so hosts can
//!    address their kernels on the shared switch.
//!
//! [`MergedTenants::solo`] re-extracts one tenant's namespaced module with
//! the *merged* computation ids, so a dedicated-switch baseline run is
//! wire-compatible with the merged deployment — the isolation tests
//! compare host payloads byte-for-byte between the two.

use crate::func::{Function, InstKind, MemId, Module};
use netcl_util::tenant;

/// One tenant's compiled device module, pre-merge.
#[derive(Clone, Debug)]
pub struct TenantUnit {
    /// Tenant id (becomes the `t<id>__` namespace).
    pub tenant: u16,
    /// The tenant's lowered device module (post-sema base IR).
    pub module: Module,
}

/// Why a tenant set cannot be merged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No units given.
    Empty,
    /// Two units share a tenant id.
    DuplicateTenant(u16),
    /// More kernels than the 8-bit computation id space can address.
    CompSpace {
        /// Kernels requested.
        needed: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "no tenant units to merge"),
            MergeError::DuplicateTenant(t) => write!(f, "tenant {t} appears twice"),
            MergeError::CompSpace { needed } => {
                write!(f, "{needed} kernels exceed the 255-computation id space")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// One tenant's slice of a merged module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantMapEntry {
    /// Tenant id.
    pub tenant: u16,
    /// `(original comp, merged comp)` per kernel, in kernel order.
    pub comps: Vec<(u8, u8)>,
    /// Global index range `[start, end)` owned by this tenant in the
    /// merged module.
    pub(crate) globals: (usize, usize),
}

impl TenantMapEntry {
    /// The merged computation id for one of this tenant's original ids.
    pub fn comp(&self, original: u8) -> Option<u8> {
        self.comps.iter().find(|(o, _)| *o == original).map(|(_, m)| *m)
    }
}

/// The result of [`merge`]: the combined module plus the per-tenant map.
#[derive(Clone, Debug)]
pub struct MergedTenants {
    /// The merged, namespaced module (base IR — run the pass pipeline and
    /// codegen on it like any single-tenant module).
    pub module: Module,
    /// Per-tenant computation maps and global ranges, in input order.
    pub(crate) tenants: Vec<TenantMapEntry>,
}

impl MergedTenants {
    /// The map entry for a tenant id.
    pub fn tenant(&self, id: u16) -> Option<&TenantMapEntry> {
        self.tenants.iter().find(|t| t.tenant == id)
    }

    /// Re-extracts one tenant's module from the merged set, keeping the
    /// namespaced names and the **merged** computation ids. Compiling the
    /// result alone produces the dedicated-switch baseline that is
    /// wire-compatible with the merged deployment (same comp bytes, same
    /// register/table names) — the tenant-isolation chaos tests rely on
    /// byte-identical host payloads between the two.
    pub fn solo(&self, id: u16) -> Option<Module> {
        let entry = self.tenant(id)?;
        let (start, end) = entry.globals;
        let globals = self.module.globals[start..end].to_vec();
        let prefix = tenant::prefix(id);
        let mut kernels: Vec<Function> =
            self.module.kernels.iter().filter(|k| k.name.starts_with(&prefix)).cloned().collect();
        for k in &mut kernels {
            offset_mems(k, -(start as i64));
        }
        Some(Module { name: self.module.name.clone(), globals, kernels })
    }
}

/// Renames every global and kernel of `module` into tenant `id`'s
/// namespace. Idempotent inputs are not expected: call once, on a freshly
/// lowered module. Computation ids are left alone — [`merge`] re-numbers
/// them across the whole set.
pub(crate) fn namespace(module: &mut Module, id: u16) {
    for g in &mut module.globals {
        g.name = tenant::apply(id, &g.name);
        if let Some((base, _)) = &mut g.origin {
            *base = tenant::apply(id, base);
        }
    }
    for k in &mut module.kernels {
        k.name = tenant::apply(id, &k.name);
    }
}

/// Shifts every global-memory reference in `f` by `delta` (merge offsets
/// up, [`MergedTenants::solo`] offsets back down).
fn offset_mems(f: &mut Function, delta: i64) {
    let shift = |m: &mut MemId| {
        *m = MemId((m.0 as i64 + delta) as u32);
    };
    for b in f.blocks.iter_mut() {
        for inst in &mut b.insts {
            match &mut inst.kind {
                InstKind::MemRead { mem } | InstKind::MemWrite { mem, .. } => shift(&mut mem.mem),
                InstKind::AtomicRmw(a) => shift(&mut a.mem.mem),
                InstKind::Lookup { table, .. } => shift(table),
                _ => {}
            }
        }
    }
}

/// Merges independently-compiled tenant modules into one device module.
///
/// The units are lowered for the one device the merged module runs on;
/// which device that is, the caller decides. Each unit is namespaced
/// (`namespace`), its memory ids are offset past the globals already
/// merged, and its kernels get fresh computation ids (1, 2, … in input
/// order). The per-tenant old→new comp map comes back in
/// `MergedTenants::tenants`.
pub fn merge(units: &[TenantUnit]) -> Result<MergedTenants, MergeError> {
    if units.is_empty() {
        return Err(MergeError::Empty);
    }
    for (i, u) in units.iter().enumerate() {
        if units[..i].iter().any(|v| v.tenant == u.tenant) {
            return Err(MergeError::DuplicateTenant(u.tenant));
        }
    }
    let total_kernels: usize = units.iter().map(|u| u.module.kernels.len()).sum();
    if total_kernels > u8::MAX as usize {
        return Err(MergeError::CompSpace { needed: total_kernels });
    }

    let names: Vec<String> = units.iter().map(|u| format!("t{}", u.tenant)).collect();
    let mut merged = Module {
        name: format!("tenants_{}", names.join("_")),
        globals: Vec::new(),
        kernels: Vec::new(),
    };
    let mut tenants = Vec::new();
    let mut next_comp: u8 = 1;
    for u in units {
        let mut m = u.module.clone();
        namespace(&mut m, u.tenant);
        let start = merged.globals.len();
        let mut comps = Vec::new();
        for k in &mut m.kernels {
            offset_mems(k, start as i64);
            comps.push((k.computation, next_comp));
            k.computation = next_comp;
            next_comp += 1;
        }
        merged.globals.extend(m.globals);
        merged.kernels.extend(m.kernels);
        let end = merged.globals.len();
        tenants.push(TenantMapEntry { tenant: u.tenant, comps, globals: (start, end) });
    }
    Ok(MergedTenants { module: merged, tenants })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{Atomic, FuncBuilder, GlobalDef, MemRef};
    use crate::types::{IrTy, Operand};
    use netcl_sema::builtins::{AtomicOp, AtomicRmw};

    fn module_with(tenant_free_name: &str, comp: u8) -> Module {
        let mut b = FuncBuilder::new("k", comp);
        b.emit(
            InstKind::AtomicRmw(Box::new(Atomic {
                op: AtomicOp { rmw: AtomicRmw::Add, cond: false, ret_new: false },
                mem: MemRef { mem: MemId(0), indices: [Operand::imm(0, IrTy::I32)].into() },
                cond: None,
                operands: [Operand::imm(1, IrTy::I32)].into(),
            })),
            IrTy::I32,
        );
        let f = b.finish();
        Module {
            name: "unit".into(),
            globals: vec![GlobalDef {
                name: tenant_free_name.into(),
                ty: IrTy::I32,
                dims: vec![8],
                managed: false,
                lookup: false,
                entries: vec![],
                origin: None,
            }],
            kernels: vec![f],
        }
    }

    #[test]
    fn merge_namespaces_offsets_and_renumbers() {
        let units = vec![
            TenantUnit { tenant: 0, module: module_with("acc", 1) },
            TenantUnit { tenant: 7, module: module_with("acc", 1) },
        ];
        let m = merge(&units).unwrap();
        assert_eq!(m.module.globals.len(), 2);
        assert_eq!(m.module.globals[0].name, "t0__acc");
        assert_eq!(m.module.globals[1].name, "t7__acc");
        assert_eq!(m.module.kernels[0].computation, 1);
        assert_eq!(m.module.kernels[1].computation, 2);
        assert_eq!(m.tenant(7).unwrap().comp(1), Some(2));
        // The second kernel's atomic points at the second global.
        let touched = m.module.kernels[1].blocks[m.module.kernels[1].entry].insts[0]
            .kind
            .touches_global()
            .unwrap();
        assert_eq!(touched, MemId(1));
        assert!(crate::verify::verify_module(&m.module).is_ok());
    }

    #[test]
    fn solo_extraction_matches_merged_names_and_comps() {
        let units = vec![
            TenantUnit { tenant: 0, module: module_with("acc", 1) },
            TenantUnit { tenant: 7, module: module_with("acc", 1) },
        ];
        let m = merge(&units).unwrap();
        let solo = m.solo(7).unwrap();
        assert_eq!(solo.globals.len(), 1);
        assert_eq!(solo.globals[0].name, "t7__acc");
        assert_eq!(solo.kernels.len(), 1);
        assert_eq!(solo.kernels[0].computation, 2, "solo keeps the merged comp id");
        let touched =
            solo.kernels[0].blocks[solo.kernels[0].entry].insts[0].kind.touches_global().unwrap();
        assert_eq!(touched, MemId(0), "memory ids re-based for the solo module");
        assert!(crate::verify::verify_module(&solo).is_ok());
    }

    #[test]
    fn merge_rejects_bad_sets() {
        assert_eq!(merge(&[]).unwrap_err(), MergeError::Empty);
        let dup = vec![
            TenantUnit { tenant: 3, module: module_with("a", 1) },
            TenantUnit { tenant: 3, module: module_with("b", 1) },
        ];
        assert_eq!(merge(&dup).unwrap_err(), MergeError::DuplicateTenant(3));
    }
}
