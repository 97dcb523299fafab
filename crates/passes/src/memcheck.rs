//! Stage-local memory violation checks (§V-D, §VI-B).
//!
//! Tofino stateful memory lives on exactly one hardware stage, which imposes
//! two program-level rules the compiler must enforce:
//!
//! 1. **Single access per object** — "no global memory object may be
//!    accessed more than once, unless accesses are mutually exclusive".
//!    Two accesses on one execution path can never share the one SALU
//!    execution the stage offers. Additionally, mutually-exclusive accesses
//!    that sit too far apart in the CFG may still be unplaceable on a
//!    common stage; the paper approximates "too far apart" by the
//!    difference in the minimum number of conditional branches from the
//!    entry, rejected beyond a threshold.
//! 2. **Consistent access order** — "for any two accesses to different
//!    global memory objects, we check that their relative order is the same
//!    in all CFG paths." Reorderable violations (independent accesses in
//!    the same block) are fixed by reordering; the rest abort compilation.
//!    Unlike Lucid, declaration order is not assumed to be intended order.

use netcl_ir::dom::min_branch_depth;
use netcl_ir::func::{BlockId, Function, InstKind, MemId, Module};
use netcl_util::idx::Idx;
use netcl_util::{DiagnosticSink, Span};
use std::collections::{HashMap, HashSet};

/// Checks every kernel in the module; diagnostics `E0302` (multiple
/// non-exclusive accesses), `E0303` (distance), `E0304` (order violation).
pub fn check_module(module: &mut Module, distance_threshold: u32, diags: &mut DiagnosticSink) {
    // Lookup tables after duplication have one access each and MATs are not
    // SALU-bound in the same way; register objects are what we check.
    for f in module.kernels.iter_mut() {
        check_function(f, distance_threshold, diags);
    }
}

/// One global-memory access site.
#[derive(Clone, Copy, Debug)]
struct Access {
    mem: MemId,
    block: BlockId,
    inst: usize,
}

fn collect_accesses(f: &Function) -> Vec<Access> {
    let mut out = Vec::new();
    for (bid, b) in f.blocks.iter_enumerated() {
        for (i, inst) in b.insts.iter().enumerate() {
            match &inst.kind {
                InstKind::MemRead { mem } | InstKind::MemWrite { mem, .. } => {
                    out.push(Access { mem: mem.mem, block: bid, inst: i })
                }
                InstKind::AtomicRmw { mem, .. } => {
                    out.push(Access { mem: mem.mem, block: bid, inst: i })
                }
                // MATs are stage-local objects too: multiple applications of
                // one table need the duplication pass (which runs before this
                // check and gives each access site its own copy).
                InstKind::Lookup { table, .. } => {
                    out.push(Access { mem: *table, block: bid, inst: i })
                }
                _ => {}
            }
        }
    }
    out
}

/// Block-level reachability on the (DAG) CFG: `reach[a]` contains every
/// block reachable from `a` via ≥1 edge.
fn reachability(f: &Function) -> HashMap<BlockId, HashSet<BlockId>> {
    let mut reach: HashMap<BlockId, HashSet<BlockId>> = HashMap::new();
    // Process in reverse topological order (post-order of the DAG).
    let rpo = netcl_ir::dom::reverse_postorder(f);
    for &b in rpo.iter().rev() {
        let mut set = HashSet::new();
        for s in f.blocks[b].term.successors() {
            set.insert(s);
            if let Some(ss) = reach.get(&s) {
                set.extend(ss.iter().copied());
            }
        }
        reach.insert(b, set);
    }
    reach
}

fn check_function(f: &mut Function, distance_threshold: u32, diags: &mut DiagnosticSink) {
    let accesses = collect_accesses(f);
    let reach = reachability(f);
    let depth = min_branch_depth(f);

    // Rule 1: per-object multiple access.
    let mut by_mem: HashMap<MemId, Vec<Access>> = HashMap::new();
    for a in &accesses {
        by_mem.entry(a.mem).or_default().push(*a);
    }
    for (mem, sites) in &by_mem {
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                let (a, b) = (sites[i], sites[j]);
                let same_path = a.block == b.block
                    || reach.get(&a.block).is_some_and(|s| s.contains(&b.block))
                    || reach.get(&b.block).is_some_and(|s| s.contains(&a.block));
                if same_path {
                    diags.error(
                        "E0302",
                        format!(
                            "kernel `{}`: global memory object `{}` is accessed more than once on \
                             one execution path; Tofino registers are stage-local, so accesses \
                             must be mutually exclusive (§V-D)",
                            f.name,
                            mem_name(f, *mem)
                        ),
                        Span::DUMMY,
                    );
                } else {
                    // Mutually exclusive: approximate-distance check.
                    let da = depth[a.block];
                    let db = depth[b.block];
                    let dist = da.abs_diff(db);
                    if dist > distance_threshold {
                        diags.error(
                            "E0303",
                            format!(
                                "kernel `{}`: mutually-exclusive accesses to `{}` are {dist} \
                                 conditional levels apart (threshold {distance_threshold}); they \
                                 cannot be placed on a single stage (§VI-B)",
                                f.name,
                                mem_name(f, *mem)
                            ),
                            Span::DUMMY,
                        );
                    }
                }
            }
        }
    }

    // Rule 2: cross-object order. First try to repair same-block disorder by
    // reordering independent accesses into a canonical global order.
    canonical_reorder(f);
    let accesses = collect_accesses(f);

    // before(X, Y) ⇔ some path has an X-access preceding a Y-access.
    let mut before: HashSet<(MemId, MemId)> = HashSet::new();
    for a in &accesses {
        for b in &accesses {
            if a.mem == b.mem {
                continue;
            }
            let precedes = (a.block == b.block && a.inst < b.inst)
                || reach.get(&a.block).is_some_and(|s| s.contains(&b.block));
            if precedes {
                before.insert((a.mem, b.mem));
            }
        }
    }
    let mut reported: HashSet<(MemId, MemId)> = HashSet::new();
    for &(x, y) in &before {
        if x.index() < y.index() && before.contains(&(y, x)) && reported.insert((x, y)) {
            diags.error(
                "E0304",
                format!(
                    "kernel `{}`: `{}` and `{}` are accessed in different orders on different \
                     paths and the accesses cannot be reordered; stage assignment is impossible \
                     (§V-D)",
                    f.name,
                    mem_name(f, x),
                    mem_name(f, y)
                ),
                Span::DUMMY,
            );
        }
    }
}

fn mem_name(_f: &Function, mem: MemId) -> String {
    format!("@g{}", mem.index())
}

/// Reorders each block's global accesses into ascending [`MemId`] order
/// where dependencies allow — the §VI-B "can be reordered" repair for
/// patterns like `x = m1[0] + m2[x]` vs `x = m2[x] + m1[0]` in sibling
/// branches. Implemented as a list scheduler: an instruction is ready when
/// every instruction it depends on (data flow, same-object memory order,
/// same-argument message order, same-slot local order) has been emitted;
/// among ready instructions, global accesses with the smallest `MemId` go
/// first, and pure instructions are emitted lazily when needed.
fn canonical_reorder(f: &mut Function) {
    use netcl_ir::types::Operand;
    for b in f.blocks.iter_mut() {
        let n = b.insts.len();
        if n < 2 {
            continue;
        }
        // deps[i] = indices that must precede instruction i.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut def_site: HashMap<netcl_ir::ValueId, usize> = HashMap::new();
        let mut last_mem: HashMap<MemId, usize> = HashMap::new();
        let mut last_arg: HashMap<u32, usize> = HashMap::new();
        let mut last_local: HashMap<netcl_ir::LocalId, usize> = HashMap::new();
        for (i, inst) in b.insts.iter().enumerate() {
            inst.kind.for_each_operand(|op| {
                if let Operand::Value(v) = op {
                    if let Some(&d) = def_site.get(&v) {
                        deps[i].push(d);
                    }
                }
            });
            if let Some(m) = inst.kind.touches_global() {
                if let Some(&d) = last_mem.get(&m) {
                    deps[i].push(d);
                }
                last_mem.insert(m, i);
            }
            match &inst.kind {
                InstKind::ArgRead { arg, .. } | InstKind::ArgWrite { arg, .. } => {
                    if let Some(&d) = last_arg.get(arg) {
                        deps[i].push(d);
                    }
                    last_arg.insert(*arg, i);
                }
                InstKind::LocalLoad { slot, .. } | InstKind::LocalStore { slot, .. } => {
                    if let Some(&d) = last_local.get(slot) {
                        deps[i].push(d);
                    }
                    last_local.insert(*slot, i);
                }
                _ => {}
            }
            for &r in &inst.results {
                def_site.insert(r, i);
            }
        }
        // Priority: a global access keys on its MemId; a pure instruction
        // inherits the smallest key among its (transitive) consumers, so the
        // operands feeding an early-MemId access are scheduled before
        // later-MemId accesses become attractive. Dependencies always point
        // to earlier indices, so one reverse pass propagates transitively.
        let mut key: Vec<usize> = (0..n)
            .map(|i| b.insts[i].kind.touches_global().map(|m| m.index()).unwrap_or(usize::MAX))
            .collect();
        for i in (0..n).rev() {
            for &d in &deps[i] {
                key[d] = key[d].min(key[i]);
            }
        }
        // List-schedule by (key, original index) among ready instructions.
        let mut emitted = vec![false; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        while order.len() < n {
            let mut best: Option<(usize, usize)> = None; // (key, idx)
            for i in 0..n {
                if emitted[i] || !deps[i].iter().all(|&d| emitted[d]) {
                    continue;
                }
                let cand = (key[i], i);
                if best.is_none() || cand < best.unwrap() {
                    best = Some(cand);
                }
            }
            let Some((_, i)) = best else { break };
            emitted[i] = true;
            order.push(i);
        }
        if order.len() == n {
            let mut new_insts = Vec::with_capacity(n);
            for &i in &order {
                new_insts.push(b.insts[i].clone());
            }
            b.insts = new_insts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, FuncBuilder, MemRef, Terminator};
    use netcl_ir::types::{IrTy, Operand as Op};
    use netcl_ir::GlobalDef;

    fn global(name: &str) -> GlobalDef {
        GlobalDef {
            name: name.into(),
            ty: IrTy::I32,
            dims: vec![42],
            managed: false,
            lookup: false,
            entries: vec![],
            origin: None,
        }
    }

    fn read(mem: u32, idx: u64) -> InstKind {
        InstKind::MemRead {
            mem: MemRef { mem: MemId(mem), indices: vec![Op::imm(idx, IrTy::I32)] },
        }
    }

    fn check(m: &mut Module, threshold: u32) -> DiagnosticSink {
        let mut d = DiagnosticSink::new();
        check_module(m, threshold, &mut d);
        d
    }

    /// §V-D kernel `a`: `x = m[0] + m[1]` — invalid.
    #[test]
    fn same_path_double_access_rejected() {
        let mut b = FuncBuilder::new("a", 2);
        let out = b.add_arg("x", IrTy::I32, 1, true);
        let v0 = b.emit(read(0, 0), IrTy::I32).unwrap();
        let v1 = b.emit(read(0, 1), IrTy::I32).unwrap();
        let s = b.bin(netcl_ir::types::IrBinOp::Add, Op::Value(v0), Op::Value(v1), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: s }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module {
            name: "t".into(),
            device: 0,
            globals: vec![global("m")],
            kernels: vec![b.finish()],
        };
        let d = check(&mut m, 4);
        assert!(d.has_code("E0302"));
    }

    /// §V-D kernel `b`: `x = (x > 10) ? m[0] : m[1]` — valid (branches).
    #[test]
    fn mutually_exclusive_access_accepted() {
        let mut b = FuncBuilder::new("b", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.emit(read(0, 0), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.emit(read(0, 1), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module {
            name: "t".into(),
            device: 0,
            globals: vec![global("m")],
            kernels: vec![b.finish()],
        };
        let d = check(&mut m, 4);
        assert!(!d.has_errors(), "{:?}", d.diagnostics());
    }

    /// Mutually exclusive but at very different branch depths → E0303.
    #[test]
    fn distant_exclusive_access_rejected() {
        let mut b = FuncBuilder::new("c", 3);
        // Chain of nested conditionals on one side.
        let shallow = b.new_block();
        let mut deep = b.func.entry;
        // entry branches to shallow / d1; d1 → d2 … each is another level.
        let mut levels = Vec::new();
        for _ in 0..6 {
            let next = b.new_block();
            let other = b.new_block();
            b.switch_to(deep);
            b.terminate(Terminator::CondBr {
                cond: Op::imm(1, IrTy::I1),
                then_bb: next,
                else_bb: if levels.is_empty() { shallow } else { other },
            });
            b.switch_to(other);
            b.terminate(Terminator::Ret(ActionRef::pass()));
            levels.push(next);
            deep = next;
        }
        b.switch_to(shallow);
        b.emit(read(0, 0), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(deep);
        b.emit(read(0, 1), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module {
            name: "t".into(),
            device: 0,
            globals: vec![global("m")],
            kernels: vec![b.finish()],
        };
        let d = check(&mut m, 4);
        assert!(d.has_code("E0303"), "{:?}", d.diagnostics());
    }

    /// §V-D kernel with reorderable operand order: repaired, no error.
    #[test]
    fn reorderable_disorder_repaired() {
        // then: m1 read, m2 read; else: m2 read, m1 read (independent).
        let mut b = FuncBuilder::new("b", 2);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.emit(read(0, 0), IrTy::I32);
        b.emit(read(1, 3), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.emit(read(1, 0), IrTy::I32);
        b.emit(read(0, 0), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module {
            name: "t".into(),
            device: 0,
            globals: vec![global("m1"), global("m2")],
            kernels: vec![b.finish()],
        };
        let d = check(&mut m, 4);
        assert!(!d.has_errors(), "{:?}", d.diagnostics());
        // The else block is now ordered m1 (g0) then m2 (g1).
        let mems: Vec<u32> = m.kernels[0].blocks[e]
            .insts
            .iter()
            .filter_map(|i| i.kind.touches_global().map(|m| m.0))
            .collect();
        assert_eq!(mems, vec![0, 1]);
    }

    /// §V-D kernel `a` (ordering): dependent accesses that cannot be
    /// reordered → E0304.
    #[test]
    fn dependent_disorder_rejected() {
        let mut b = FuncBuilder::new("a", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        // then: x = m1[0]; x = m2[x]   (m1 before m2, dependent)
        b.switch_to(t);
        let x1 = b.emit(read(0, 0), IrTy::I32).unwrap();
        b.emit(
            InstKind::MemRead { mem: MemRef { mem: MemId(1), indices: vec![Op::Value(x1)] } },
            IrTy::I32,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        // else: x = m2[0]; x = m1[x]   (m2 before m1, dependent)
        b.switch_to(e);
        let x2 = b.emit(read(1, 0), IrTy::I32).unwrap();
        b.emit(
            InstKind::MemRead { mem: MemRef { mem: MemId(0), indices: vec![Op::Value(x2)] } },
            IrTy::I32,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module {
            name: "t".into(),
            device: 0,
            globals: vec![global("m1"), global("m2")],
            kernels: vec![b.finish()],
        };
        let d = check(&mut m, 4);
        assert!(d.has_code("E0304"), "{:?}", d.diagnostics());
    }

    /// Fig. 7 shape: Bitmap[0]/Bitmap[1] accessed in the same order in both
    /// branches (after partitioning they are distinct objects) — valid.
    #[test]
    fn allreduce_bitmap_pattern_accepted() {
        let mut b = FuncBuilder::new("allreduce", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.emit(read(0, 1), IrTy::I32); // Bitmap__0
        b.emit(read(1, 1), IrTy::I32); // Bitmap__1
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.emit(read(0, 2), IrTy::I32);
        b.emit(read(1, 2), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module {
            name: "t".into(),
            device: 0,
            globals: vec![global("Bitmap__0"), global("Bitmap__1")],
            kernels: vec![b.finish()],
        };
        let d = check(&mut m, 4);
        assert!(!d.has_errors(), "{:?}", d.diagnostics());
    }
}
