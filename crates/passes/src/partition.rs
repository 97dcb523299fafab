//! Access-based memory partitioning and lookup-memory duplication (§VI-B).
//!
//! Tofino stateful memory is stage-local, so a single P4 `Register` can only
//! be touched in one stage. Two transformations widen what fits:
//!
//! * **Partitioning** — "Global arrays are split on the outer dimension if
//!   all accesses use constants on that dimension." `Bitmap[2][N]` whose
//!   accesses are `Bitmap[0][i]` / `Bitmap[1][i]` becomes two independent
//!   registers `Bitmap__0[N]`, `Bitmap__1[N]` that the allocator may place
//!   on different stages.
//! * **Lookup duplication** — data-plane-constant (non-`_managed_`) lookup
//!   tables are copied per access site, removing the single-stage
//!   dependence. Managed tables are not duplicated (bulk atomic control
//!   plane updates would be required — the paper leaves this out too).

use netcl_ir::func::{InstKind, MemId, Module};
use netcl_util::idx::Idx;

/// Partitions every eligible global. Returns the number of split objects.
pub(crate) fn partition_module(module: &mut Module) -> usize {
    let mut split_count = 0;
    while let Some(target) = find_partitionable(module) {
        split_one(module, target);
        split_count += 1;
    }
    split_count
}

/// A global is partitionable when it has ≥2 dimensions, a small outer
/// dimension, and every access uses a constant outer index.
fn find_partitionable(module: &Module) -> Option<MemId> {
    'globals: for (gi, g) in module.globals.iter().enumerate() {
        let id = MemId(gi as u32);
        if g.lookup || g.dims.len() < 2 || g.dims[0] > 64 {
            continue;
        }
        let mut seen_access = false;
        for f in &module.kernels {
            for b in f.blocks.iter() {
                for inst in &b.insts {
                    let mem = match &inst.kind {
                        InstKind::MemRead { mem } | InstKind::MemWrite { mem, .. } => mem,
                        InstKind::AtomicRmw(a) => &a.mem,
                        _ => continue,
                    };
                    if mem.mem != id {
                        continue;
                    }
                    seen_access = true;
                    if mem.indices.first().and_then(|o| o.as_const()).is_none() {
                        continue 'globals; // dynamic outer index
                    }
                }
            }
        }
        if seen_access {
            return Some(id);
        }
    }
    None
}

fn split_one(module: &mut Module, id: MemId) {
    let g = module.globals[id.index()].clone();
    let outer = g.dims[0];
    let inner: Vec<usize> = g.dims[1..].to_vec();
    let base_name = g.origin.as_ref().map(|(n, _)| n.clone()).unwrap_or_else(|| g.name.clone());

    // New globals appended at the end; slice `id` is parts[i].
    let mut parts = Vec::with_capacity(outer);
    for i in 0..outer {
        let part = netcl_ir::GlobalDef {
            name: format!("{}__{}", g.name, i),
            ty: g.ty,
            dims: inner.clone(),
            managed: g.managed,
            lookup: false,
            entries: vec![],
            origin: Some((base_name.clone(), i)),
        };
        module.globals.push(part);
        parts.push(MemId((module.globals.len() - 1) as u32));
    }
    // Rewrite accesses.
    for f in module.kernels.iter_mut() {
        for b in f.blocks.iter_mut() {
            for inst in &mut b.insts {
                let mem = match &mut inst.kind {
                    InstKind::MemRead { mem } | InstKind::MemWrite { mem, .. } => mem,
                    InstKind::AtomicRmw(a) => &mut a.mem,
                    _ => continue,
                };
                if mem.mem != id {
                    continue;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "`find_partitionable` admits a global only when every access to it \
                              has a constant outer index"
                )]
                let outer_idx = mem.indices[0]
                    .as_const()
                    .expect("partitionable access has constant outer index")
                    as usize;
                mem.mem = parts[outer_idx.min(outer - 1)];
                mem.indices = mem.indices[1..].into();
            }
        }
    }
    // The original shrinks to a zero-use husk; mark it so codegen and the
    // allocator skip it entirely.
    module.globals[id.index()].dims = vec![];
    module.globals[id.index()].name = format!("{}__replaced", g.name);
    module.globals[id.index()].origin = Some((base_name, usize::MAX));
}

/// True when a global is a partition husk left behind by `split_one`.
pub fn is_replaced_husk(g: &netcl_ir::GlobalDef) -> bool {
    matches!(&g.origin, Some((_, idx)) if *idx == usize::MAX)
}

/// Duplicates non-managed lookup memory once per access site beyond the
/// first. Returns the number of copies created.
pub(crate) fn duplicate_lookup_memory(module: &mut Module) -> usize {
    let mut copies = 0usize;
    let lookup_ids: Vec<MemId> = module
        .globals
        .iter()
        .enumerate()
        .filter(|(_, g)| g.lookup && !g.managed)
        .map(|(i, _)| MemId(i as u32))
        .collect();
    for id in lookup_ids {
        // Collect all access sites across kernels.
        let mut sites = 0usize;
        for f in &module.kernels {
            for b in f.blocks.iter() {
                for inst in &b.insts {
                    if matches!(&inst.kind, InstKind::Lookup { table, .. } if *table == id) {
                        sites += 1;
                    }
                }
            }
        }
        if sites < 2 {
            continue;
        }
        // First site keeps the original; the rest get fresh copies.
        let template = module.globals[id.index()].clone();
        let base_name = template.name.clone();
        let mut next_site = 0usize;
        for f in module.kernels.iter_mut() {
            for b in f.blocks.iter_mut() {
                for inst in &mut b.insts {
                    if let InstKind::Lookup { table, .. } = &mut inst.kind {
                        if *table != id {
                            continue;
                        }
                        if next_site > 0 {
                            let copy = netcl_ir::GlobalDef {
                                name: format!("{}__dup{}", base_name, next_site),
                                origin: Some((base_name.clone(), next_site)),
                                ..template.clone()
                            };
                            module.globals.push(copy);
                            *table = MemId((module.globals.len() - 1) as u32);
                            copies += 1;
                        }
                        next_site += 1;
                    }
                }
            }
        }
    }
    copies
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, Atomic, FuncBuilder, MemRef, Terminator};
    use netcl_ir::types::{IrTy, Operand, Operand as Op};
    use netcl_ir::{GlobalDef, InstKind};
    use netcl_sema::builtins::{AtomicOp, AtomicRmw};
    use netcl_sema::model::LookupEntry;

    fn bitmap_global() -> GlobalDef {
        GlobalDef {
            name: "Bitmap".into(),
            ty: IrTy::I16,
            dims: vec![2, 2048],
            managed: false,
            lookup: false,
            entries: vec![],
            origin: None,
        }
    }

    fn atomic_or(mem: MemId, outer: Operand, inner: Operand) -> InstKind {
        InstKind::AtomicRmw(Box::new(Atomic {
            op: AtomicOp { rmw: AtomicRmw::Or, cond: false, ret_new: false },
            mem: MemRef { mem, indices: [outer, inner].into() },
            cond: None,
            operands: [Op::imm(1, IrTy::I16)].into(),
        }))
    }

    #[test]
    fn splits_constant_outer_dimension() {
        // Fig. 7's Bitmap: accesses Bitmap[0][i] and Bitmap[1][i].
        let mut b = FuncBuilder::new("allreduce", 1);
        let argi = b.add_arg("i", IrTy::I16, 1, false);
        let i = b
            .emit(InstKind::ArgRead { arg: argi, index: Op::imm(0, IrTy::I32) }, IrTy::I16)
            .unwrap();
        b.emit(atomic_or(MemId(0), Op::imm(0, IrTy::I16), Op::Value(i)), IrTy::I16);
        b.emit(atomic_or(MemId(0), Op::imm(1, IrTy::I16), Op::Value(i)), IrTy::I16);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m =
            Module { name: "t".into(), globals: vec![bitmap_global()], kernels: vec![b.finish()] };
        assert_eq!(partition_module(&mut m), 1);
        // Husk + two parts.
        assert_eq!(m.globals.len(), 3);
        assert!(is_replaced_husk(&m.globals[0]));
        assert_eq!(m.globals[1].name, "Bitmap__0");
        assert_eq!(m.globals[2].name, "Bitmap__1");
        assert_eq!(m.globals[1].dims, vec![2048]);
        assert_eq!(m.globals[1].origin, Some(("Bitmap".into(), 0)));
        // Accesses now use the parts with the outer index stripped.
        let insts = &m.kernels[0].blocks[m.kernels[0].entry].insts;
        let mems: Vec<(u32, usize)> = insts
            .iter()
            .filter_map(|i| match &i.kind {
                InstKind::AtomicRmw(a) => Some((a.mem.mem.0, a.mem.indices.len())),
                _ => None,
            })
            .collect();
        assert_eq!(mems, vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn dynamic_outer_index_blocks_partitioning() {
        let mut b = FuncBuilder::new("k", 1);
        let argi = b.add_arg("i", IrTy::I16, 1, false);
        let i = b
            .emit(InstKind::ArgRead { arg: argi, index: Op::imm(0, IrTy::I32) }, IrTy::I16)
            .unwrap();
        b.emit(atomic_or(MemId(0), Op::Value(i), Op::imm(3, IrTy::I16)), IrTy::I16);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m =
            Module { name: "t".into(), globals: vec![bitmap_global()], kernels: vec![b.finish()] };
        assert_eq!(partition_module(&mut m), 0);
        assert_eq!(m.globals.len(), 1);
    }

    #[test]
    fn duplicates_lookup_per_access() {
        let table = GlobalDef {
            name: "cache".into(),
            ty: IrTy::I32,
            dims: vec![4],
            managed: false,
            lookup: true,
            entries: vec![LookupEntry::Exact { key: 1, value: 42 }],
            origin: None,
        };
        let mut b = FuncBuilder::new("k", 1);
        let k = b.add_arg("k", IrTy::I32, 1, false);
        let kv =
            b.emit(InstKind::ArgRead { arg: k, index: Op::imm(0, IrTy::I32) }, IrTy::I32).unwrap();
        b.emit_lookup(MemId(0), Op::Value(kv), IrTy::I32);
        b.emit_lookup(MemId(0), Op::Value(kv), IrTy::I32);
        b.emit_lookup(MemId(0), Op::Value(kv), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module { name: "t".into(), globals: vec![table], kernels: vec![b.finish()] };
        assert_eq!(duplicate_lookup_memory(&mut m), 2);
        assert_eq!(m.globals.len(), 3);
        assert_eq!(m.globals[1].name, "cache__dup1");
        assert_eq!(m.globals[1].entries, m.globals[0].entries);
        // All three lookups reference distinct tables.
        let tables: std::collections::HashSet<u32> = m.kernels[0].blocks[m.kernels[0].entry]
            .insts
            .iter()
            .filter_map(|i| match &i.kind {
                InstKind::Lookup { table, .. } => Some(table.0),
                _ => None,
            })
            .collect();
        assert_eq!(tables.len(), 3);
    }

    #[test]
    fn managed_lookup_not_duplicated() {
        let table = GlobalDef {
            name: "cache".into(),
            ty: IrTy::I32,
            dims: vec![4],
            managed: true,
            lookup: true,
            entries: vec![],
            origin: None,
        };
        let mut b = FuncBuilder::new("k", 1);
        b.emit_lookup(MemId(0), Op::imm(1, IrTy::I32), IrTy::I32);
        b.emit_lookup(MemId(0), Op::imm(2, IrTy::I32), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module { name: "t".into(), globals: vec![table], kernels: vec![b.finish()] };
        assert_eq!(duplicate_lookup_memory(&mut m), 0);
        assert_eq!(m.globals.len(), 1);
    }
}
