//! Common-value hoisting and aggressive speculation (§VI-B).
//!
//! "We hoist instructions computing the same value to a common dominator, as
//! long as their operands are available in that block. Moreover, we perform
//! aggressive speculation for instructions that produce values and do not
//! modify memory, hoisting them to the earliest possible block. The
//! combination of these two may reduce critical path length." Speculation is
//! the transformation the paper credits with making AGG fit Tofino; it is
//! flag-controlled because it raises PHV pressure.

use netcl_ir::dom::DomTree;
use netcl_ir::func::{BlockId, Function, InstKind, ValueId};
use netcl_ir::types::Operand;
use std::collections::HashMap;

/// True for instructions that are safe to move across blocks: value
/// producers with no side effects and no environment dependence. `ArgRead`
/// is excluded because an `ArgWrite` may intervene; `MemRead` because global
/// memory is shared; `Rand` because each dynamic execution must draw a
/// fresh value.
fn is_speculatable(kind: &InstKind) -> bool {
    matches!(
        kind,
        InstKind::Bin { .. }
            | InstKind::Un { .. }
            | InstKind::Icmp { .. }
            | InstKind::Select { .. }
            | InstKind::Cast { .. }
            | InstKind::Hash { .. }
            | InstKind::MsgField { .. }
    )
}

/// A structural key identifying "computes the same value".
fn value_key(kind: &InstKind) -> Option<String> {
    if !is_speculatable(kind) {
        return None;
    }
    let fmt_op = |o: &Operand| match o {
        Operand::Value(v) => format!("v{}", v.0),
        Operand::Const(c, t) => format!("c{c}:{t}"),
    };
    let mut ops: Vec<String> = Vec::new();
    kind.for_each_operand(|o| ops.push(fmt_op(&o)));
    let head = match kind {
        InstKind::Bin { op, a, b } => {
            // Canonicalize commutative operand order.
            if op.commutative() {
                let mut pair = [fmt_op(a), fmt_op(b)];
                pair.sort();
                return Some(format!("bin.{}({},{})", op.mnemonic(), pair[0], pair[1]));
            }
            format!("bin.{}", op.mnemonic())
        }
        InstKind::Un { op, .. } => format!("un.{}", op.mnemonic()),
        InstKind::Icmp { pred, .. } => format!("icmp.{}", pred.mnemonic()),
        InstKind::Select { .. } => "select".to_string(),
        InstKind::Cast { kind, to, .. } => format!("cast.{kind:?}.{to}"),
        InstKind::Hash { kind, bits, .. } => format!("hash.{kind:?}.{bits}"),
        InstKind::MsgField { field } => format!("msg.{field:?}"),
        _ => return None,
    };
    Some(format!("{head}({})", ops.join(",")))
}

/// Maps each value to its defining block.
fn def_blocks(f: &Function) -> HashMap<ValueId, BlockId> {
    let mut map = HashMap::new();
    for (bid, b) in f.blocks.iter_enumerated() {
        for inst in &b.insts {
            for &r in &inst.results {
                map.insert(r, bid);
            }
        }
    }
    map
}

/// Hoists duplicate pure computations to the nearest common dominator.
/// Returns the number of duplicates eliminated.
pub fn hoist_common_values(f: &mut Function) -> usize {
    let dt = DomTree::compute(f);
    let defs = def_blocks(f);

    // Group instructions by value key.
    let mut groups: HashMap<String, Vec<(BlockId, usize)>> = HashMap::new();
    for (bid, b) in f.blocks.iter_enumerated() {
        if !dt.is_reachable(bid) {
            continue;
        }
        for (i, inst) in b.insts.iter().enumerate() {
            if let Some(key) = value_key(&inst.kind) {
                groups.entry(key).or_default().push((bid, i));
            }
        }
    }

    let mut removed = 0usize;
    let mut replace: HashMap<ValueId, Operand> = HashMap::new();
    let mut delete: Vec<(BlockId, usize)> = Vec::new();
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic order

    for (_, sites) in groups {
        if sites.len() < 2 {
            continue;
        }
        // Nearest common dominator of all sites.
        let mut ncd = sites[0].0;
        for &(b, _) in &sites[1..] {
            ncd = dt.nearest_common_dominator(ncd, b);
        }
        // Operand availability: every value operand's def must dominate the
        // NCD or live in it.
        let kind = f.blocks[sites[0].0].insts[sites[0].1].kind.clone();
        let mut available = true;
        kind.for_each_operand(|op| {
            available &= match op {
                Operand::Const(..) => true,
                Operand::Value(v) => match defs.get(&v) {
                    Some(&db) => db == ncd || dt.dominates(db, ncd),
                    None => false,
                },
            }
        });
        if !available {
            continue;
        }
        // Reuse a site already in the NCD if one exists; otherwise move the
        // first site there.
        let canonical = sites.iter().find(|(b, _)| *b == ncd).copied();
        let (keep_block, keep_idx) = match canonical {
            Some(site) => site,
            None => {
                let (src_b, src_i) = sites[0];
                let inst = f.blocks[src_b].insts[src_i].clone();
                let pos = f.blocks[ncd].insts.len();
                f.blocks[ncd].insts.push(inst);
                delete.push((src_b, src_i));
                (ncd, pos)
            }
        };
        let keep_results = f.blocks[keep_block].insts[keep_idx].results.clone();
        for &(b, i) in &sites {
            if (b, i) == (keep_block, keep_idx) {
                continue;
            }
            if canonical.is_none() && (b, i) == sites[0] {
                continue; // already moved
            }
            let dup = &f.blocks[b].insts[i];
            for (old, new) in dup.results.clone().iter().zip(&keep_results) {
                replace.insert(*old, Operand::Value(*new));
            }
            delete.push((b, i));
            removed += 1;
        }
    }

    apply_replacements(f, &replace);
    // Delete from the back of each block so indices stay valid.
    delete.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).reverse());
    delete.dedup();
    for (b, i) in delete {
        f.blocks[b].insts.remove(i);
    }
    removed
}

/// Aggressively speculates pure instructions to the earliest block where
/// their operands are available. Returns the number of moved instructions.
pub fn speculate(f: &mut Function) -> usize {
    let dt = DomTree::compute(f);
    let mut moved = 0usize;
    for &bid in &dt.rpo.clone() {
        let mut i = 0;
        while i < f.blocks[bid].insts.len() {
            let kind = f.blocks[bid].insts[i].kind.clone();
            if !is_speculatable(&kind) {
                i += 1;
                continue;
            }
            let defs = def_blocks(f);
            // Earliest block = deepest def block among value operands (they
            // must form a dominator chain), or the entry for constant ops.
            let mut target = f.entry;
            let mut ok = true;
            kind.for_each_operand(|op| {
                if let (true, Operand::Value(v)) = (ok, op) {
                    match defs.get(&v) {
                        Some(&db) if dt.dominates(target, db) => target = db,
                        // Defs not on one dominator chain.
                        Some(&db) => ok = dt.dominates(db, target),
                        None => ok = false,
                    }
                }
            });
            if !ok || target == bid || !dt.dominates(target, bid) {
                i += 1;
                continue;
            }
            let inst = f.blocks[bid].insts.remove(i);
            f.blocks[target].insts.push(inst);
            moved += 1;
            // Don't advance i: the next instruction shifted into slot i.
        }
    }
    moved
}

fn apply_replacements(f: &mut Function, replace: &HashMap<ValueId, Operand>) {
    if replace.is_empty() {
        return;
    }
    let resolve = |op: Operand| -> Operand {
        let mut cur = op;
        for _ in 0..replace.len() + 1 {
            match cur {
                Operand::Value(v) => match replace.get(&v) {
                    Some(&n) => cur = n,
                    None => break,
                },
                _ => break,
            }
        }
        cur
    };
    for b in f.blocks.iter_mut() {
        for inst in &mut b.insts {
            inst.kind.map_operands(resolve);
        }
        match &mut b.term {
            netcl_ir::Terminator::CondBr { cond, .. } => *cond = resolve(*cond),
            netcl_ir::Terminator::Ret(a) => {
                if let Some(t) = &mut a.target {
                    *t = resolve(*t);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, FuncBuilder, Terminator};
    use netcl_ir::types::{IrBinOp, IrTy, Operand as Op};
    use netcl_ir::verify::verify_function;

    /// Same add computed in both branches hoists to the entry.
    #[test]
    fn hoists_duplicate_computation() {
        let mut b = FuncBuilder::new("k", 1);
        let arga = b.add_arg("a", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let i0 = Op::imm(0, IrTy::I32);
        let a = b.emit(InstKind::ArgRead { arg: arga, index: i0 }, IrTy::I32).unwrap();
        let cond = b.icmp(netcl_ir::types::IcmpPred::Ugt, Op::Value(a), Op::imm(5, IrTy::I32));
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond, then_bb: t, else_bb: e });
        b.switch_to(t);
        let x1 = b.bin(IrBinOp::Add, Op::Value(a), Op::imm(7, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: x1 }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        let x2 = b.bin(IrBinOp::Add, Op::imm(7, IrTy::I32), Op::Value(a), IrTy::I32); // commuted
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: x2 }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();

        let removed = hoist_common_values(&mut f);
        assert_eq!(removed, 1);
        verify_function(&f, None).unwrap();
        let adds_entry = f.blocks[f.entry]
            .insts
            .iter()
            .filter(|i| matches!(i.kind, InstKind::Bin { op: IrBinOp::Add, .. }))
            .count();
        let adds_total: usize = f
            .blocks
            .iter()
            .map(|b| {
                b.insts
                    .iter()
                    .filter(|i| matches!(i.kind, InstKind::Bin { op: IrBinOp::Add, .. }))
                    .count()
            })
            .sum();
        assert_eq!((adds_entry, adds_total), (1, 1));
    }

    /// Speculation moves a branch-local computation whose operands are
    /// available at the entry into the entry block.
    #[test]
    fn speculates_to_earliest_block() {
        let mut b = FuncBuilder::new("k", 1);
        let arga = b.add_arg("a", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let i0 = Op::imm(0, IrTy::I32);
        let a = b.emit(InstKind::ArgRead { arg: arga, index: i0 }, IrTy::I32).unwrap();
        let cond = b.icmp(netcl_ir::types::IcmpPred::Ugt, Op::Value(a), Op::imm(5, IrTy::I32));
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond, then_bb: t, else_bb: e });
        b.switch_to(t);
        let x = b.bin(IrBinOp::Mul, Op::Value(a), Op::imm(3, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: x }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();

        let moved = speculate(&mut f);
        assert_eq!(moved, 1);
        verify_function(&f, None).unwrap();
        assert!(f.blocks[f.entry]
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::Bin { op: IrBinOp::Mul, .. })));
        // The write stayed put (it has side effects).
        assert!(f.blocks[t].insts.iter().any(|i| matches!(i.kind, InstKind::ArgWrite { .. })));
    }

    /// Memory reads and atomics never move.
    #[test]
    fn side_effecting_not_speculated() {
        use netcl_ir::func::{MemId, MemRef};
        let mut b = FuncBuilder::new("k", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.emit(
            InstKind::MemRead {
                mem: MemRef { mem: MemId(0), indices: vec![Op::imm(0, IrTy::I32)] },
            },
            IrTy::I32,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        assert_eq!(speculate(&mut f), 0);
        assert_eq!(f.blocks[t].insts.len(), 1);
    }

    /// Differential check: hoist+speculate preserve semantics.
    #[test]
    fn semantics_preserved() {
        let mut b = FuncBuilder::new("k", 1);
        let arga = b.add_arg("a", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let i0 = Op::imm(0, IrTy::I32);
        let a = b.emit(InstKind::ArgRead { arg: arga, index: i0 }, IrTy::I32).unwrap();
        let cond = b.icmp(netcl_ir::types::IcmpPred::Ugt, Op::Value(a), Op::imm(5, IrTy::I32));
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond, then_bb: t, else_bb: e });
        b.switch_to(t);
        let x1 = b.bin(IrBinOp::Add, Op::Value(a), Op::imm(7, IrTy::I32), IrTy::I32);
        let y1 = b.bin(IrBinOp::Shl, x1, Op::imm(1, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: y1 }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        let x2 = b.bin(IrBinOp::Add, Op::Value(a), Op::imm(7, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: x2 }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let orig = b.finish();

        let mut opt = orig.clone();
        hoist_common_values(&mut opt);
        speculate(&mut opt);
        verify_function(&opt, None).unwrap();

        let m = netcl_ir::Module::default();
        for input in [0u64, 5, 6, 100, u32::MAX as u64] {
            let mut st1 = netcl_ir::interp::DeviceState::new(&m);
            let mut st2 = netcl_ir::interp::DeviceState::new(&m);
            let mut env1 = netcl_ir::interp::ExecEnv::default();
            let mut env2 = netcl_ir::interp::ExecEnv::default();
            let mut a1 = vec![vec![input], vec![0u64]];
            let mut a2 = vec![vec![input], vec![0u64]];
            netcl_ir::interp::execute(&orig, &m, &mut st1, &mut a1, &mut env1).unwrap();
            netcl_ir::interp::execute(&opt, &m, &mut st2, &mut a2, &mut env2).unwrap();
            assert_eq!(a1, a2, "divergence on input {input}");
        }
    }
}
