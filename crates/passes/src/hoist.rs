//! Common-value hoisting and aggressive speculation (§VI-B).
//!
//! "We hoist instructions computing the same value to a common dominator, as
//! long as their operands are available in that block. Moreover, we perform
//! aggressive speculation for instructions that produce values and do not
//! modify memory, hoisting them to the earliest possible block. The
//! combination of these two may reduce critical path length." Speculation is
//! the transformation the paper credits with making AGG fit Tofino; it is
//! flag-controlled because it raises PHV pressure.

use crate::fold::Replacements;
use netcl_ir::dom::DomTree;
use netcl_ir::func::{BlockId, Function, InstKind, MsgField, ValueId};
use netcl_ir::types::{CastKind, IcmpPred, IrBinOp, IrTy, IrUnOp, Operand};
use netcl_sema::builtins::HashKind;
use netcl_util::idx::IndexVec;
use std::collections::HashMap;

/// "Computes the same value", without allocating; [`value_key`] spells
/// it out.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum ValueKey {
    Bin(IrBinOp, Operand, Operand),
    Un(IrUnOp, Operand),
    Icmp(IcmpPred, Operand, Operand),
    Select(Operand, Operand, Operand),
    Cast(CastKind, Operand, IrTy),
    Hash(HashKind, u8, Operand),
    Msg(MsgField),
}

/// The key of an instruction that is safe to move across blocks: a value
/// producer with no side effects and no environment dependence. `ArgRead`
/// is excluded because an `ArgWrite` may intervene; `MemRead` because global
/// memory is shared; `Rand` because each dynamic execution must draw a
/// fresh value.
fn group_key(kind: &InstKind) -> Option<ValueKey> {
    Some(match *kind {
        InstKind::Bin { op, a, b } if op.commutative() => {
            // Canonicalize commutative operand order.
            let rank = |o: Operand| match o {
                Operand::Value(v) => (0, v.0 as u64, 0),
                Operand::Const(c, t) => (1, c, t.bits),
            };
            let (a, b) = if rank(a) <= rank(b) { (a, b) } else { (b, a) };
            ValueKey::Bin(op, a, b)
        }
        InstKind::Bin { op, a, b } => ValueKey::Bin(op, a, b),
        InstKind::Un { op, a } => ValueKey::Un(op, a),
        InstKind::Icmp { pred, a, b } => ValueKey::Icmp(pred, a, b),
        InstKind::Select { cond, a, b } => ValueKey::Select(cond, a, b),
        InstKind::Cast { kind, a, to } => ValueKey::Cast(kind, a, to),
        InstKind::Hash { kind, bits, a } => ValueKey::Hash(kind, bits, a),
        InstKind::MsgField { field } => ValueKey::Msg(field),
        _ => return None,
    })
}

/// The textual form of a [`ValueKey`], which orders the groups.
fn value_key(key: ValueKey) -> String {
    let op = |o: Operand| match o {
        Operand::Value(v) => format!("v{}", v.0),
        Operand::Const(c, t) => format!("c{c}:{t}"),
    };
    match key {
        ValueKey::Bin(bin, a, b) => {
            let (mut a, mut b) = (op(a), op(b));
            // A commutative pair is ordered as text.
            if bin.commutative() && b < a {
                std::mem::swap(&mut a, &mut b);
            }
            format!("bin.{}({a},{b})", bin.mnemonic())
        }
        ValueKey::Un(un, a) => format!("un.{}({})", un.mnemonic(), op(a)),
        ValueKey::Icmp(pred, a, b) => format!("icmp.{}({},{})", pred.mnemonic(), op(a), op(b)),
        ValueKey::Select(cond, a, b) => format!("select({},{},{})", op(cond), op(a), op(b)),
        ValueKey::Cast(kind, a, to) => format!("cast.{kind:?}.{to}({})", op(a)),
        ValueKey::Hash(kind, bits, a) => format!("hash.{kind:?}.{bits}({})", op(a)),
        ValueKey::Msg(field) => format!("msg.{field:?}()"),
    }
}

/// Each value's defining block.
fn def_blocks(f: &Function) -> IndexVec<ValueId, Option<BlockId>> {
    let mut map: IndexVec<ValueId, Option<BlockId>> = f.values.indices().map(|_| None).collect();
    for (bid, b) in f.blocks.iter_enumerated() {
        for &r in b.insts.iter().flat_map(|inst| &inst.results) {
            map[r] = Some(bid);
        }
    }
    map
}

fn def_of(defs: &IndexVec<ValueId, Option<BlockId>>, v: ValueId) -> Option<BlockId> {
    defs.get(v).copied().flatten()
}

/// Hoists duplicate pure computations to the nearest common dominator.
/// Returns the number of duplicates eliminated.
pub(crate) fn hoist_common_values(f: &mut Function) -> usize {
    let dt = DomTree::compute(f);
    let defs = def_blocks(f);

    // Group instructions by value key: the first site, then any others.
    type Site = (BlockId, usize);
    let mut groups: HashMap<ValueKey, (Site, Vec<Site>)> = HashMap::new();
    for (bid, b) in f.blocks.iter_enumerated().filter(|(bid, _)| dt.is_reachable(*bid)) {
        for (i, inst) in b.insts.iter().enumerate() {
            if let Some(key) = group_key(&inst.kind) {
                let (first, rest) = groups.entry(key).or_insert(((bid, i), Vec::new()));
                if *first != (bid, i) {
                    rest.push((bid, i));
                }
            }
        }
    }
    let mut groups: Vec<(String, Vec<Site>)> = groups
        .into_iter()
        .filter(|(_, (_, rest))| !rest.is_empty())
        .map(|(key, (first, rest))| (value_key(key), std::iter::once(first).chain(rest).collect()))
        .collect();
    groups.sort_unstable_by(|a, b| a.0.cmp(&b.0)); // deterministic order

    let mut removed = 0usize;
    let mut replace = Replacements::new(f);
    let mut delete: Vec<Site> = Vec::new();
    for (_, sites) in groups {
        // Nearest common dominator of all sites.
        let mut ncd = sites[0].0;
        for &(b, _) in &sites[1..] {
            ncd = dt.nearest_common_dominator(ncd, b);
        }
        // Operand availability: every value operand's def must dominate the
        // NCD or live in it.
        let mut available = true;
        f.blocks[sites[0].0].insts[sites[0].1].kind.for_each_operand(|op| {
            available &= match op {
                Operand::Const(..) => true,
                Operand::Value(v) => def_of(&defs, v).is_some_and(|db| dt.dominates(db, ncd)),
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
        let keep_results = f.blocks[keep_block].insts[keep_idx].results;
        for &(b, i) in &sites {
            if (b, i) == (keep_block, keep_idx) {
                continue;
            }
            if canonical.is_none() && (b, i) == sites[0] {
                continue; // already moved
            }
            for (old, new) in f.blocks[b].insts[i].results.iter().zip(&keep_results) {
                replace.insert(*old, Operand::Value(*new));
            }
            delete.push((b, i));
            removed += 1;
        }
    }

    replace.apply(f);
    // Delete from the back of each block so indices stay valid.
    delete.sort_unstable_by(|a, b| b.cmp(a));
    delete.dedup();
    for (b, i) in delete {
        f.blocks[b].insts.remove(i);
    }
    removed
}

/// Aggressively speculates pure instructions to the earliest block where
/// their operands are available. Returns the number of moved instructions.
pub(crate) fn speculate(f: &mut Function) -> usize {
    let dt = DomTree::compute(f);
    // Built once, and kept current as instructions move.
    let mut defs = def_blocks(f);
    let mut moved = 0usize;
    for &bid in &dt.rpo {
        let mut i = 0;
        while i < f.blocks[bid].insts.len() {
            let inst = &f.blocks[bid].insts[i];
            if group_key(&inst.kind).is_none() {
                i += 1;
                continue;
            }
            // Earliest block = deepest def block among value operands (they
            // must form a dominator chain), or the entry for constant ops.
            let mut target = f.entry;
            let mut ok = true;
            inst.kind.for_each_operand(|op| {
                if let (true, Operand::Value(v)) = (ok, op) {
                    match def_of(&defs, v) {
                        Some(db) if dt.dominates(target, db) => target = db,
                        // Defs not on one dominator chain.
                        Some(db) => ok = dt.dominates(db, target),
                        None => ok = false,
                    }
                }
            });
            if !ok || target == bid || !dt.dominates(target, bid) {
                i += 1;
                continue;
            }
            let inst = f.blocks[bid].insts.remove(i);
            for &r in &inst.results {
                defs[r] = Some(target);
            }
            f.blocks[target].insts.push(inst);
            moved += 1;
            // Don't advance i: the next instruction shifted into slot i.
        }
    }
    moved
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
                mem: MemRef { mem: MemId(0), indices: [Op::imm(0, IrTy::I32)].into() },
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
        assert_same_outputs(&orig, &opt);
    }

    /// A dependent chain in a branch arm reaches the entry in one call:
    /// each move updates the def-block map the next instruction reads.
    #[test]
    fn speculates_a_dependent_chain_in_one_call() {
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
        let y = b.bin(IrBinOp::Add, x, Op::imm(1, IrTy::I32), IrTy::I32);
        let z = b.bin(IrBinOp::Shl, y, Op::imm(2, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: z }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let orig = b.finish();

        let mut opt = orig.clone();
        assert_eq!(speculate(&mut opt), 3);
        verify_function(&opt, None).unwrap();
        let bins = |blk: BlockId| {
            opt.blocks[blk].insts.iter().filter(|i| matches!(i.kind, InstKind::Bin { .. })).count()
        };
        assert_eq!((bins(opt.entry), bins(t)), (3, 0));
        assert_same_outputs(&orig, &opt);
    }

    /// `orig` and `opt` write the same arguments on the IR interpreter.
    fn assert_same_outputs(orig: &Function, opt: &Function) {
        let m = netcl_ir::Module::default();
        for input in [0u64, 5, 6, 100, u32::MAX as u64] {
            let run = |f: &Function| {
                let mut st = netcl_ir::interp::DeviceState::new(&m);
                let mut args = vec![vec![input], vec![0u64]];
                let mut env = netcl_ir::interp::ExecEnv::default();
                netcl_ir::interp::execute(f, &m, &mut st, &mut args, &mut env).unwrap();
                args
            };
            assert_eq!(run(orig), run(opt), "divergence on input {input}");
        }
    }
}
