//! Promotion of scalar local slots to SSA values (LLVM's `mem2reg`).
//!
//! Lowering gives every source variable a local slot and accesses it with
//! loads/stores; this pass promotes every scalar slot (element count 1,
//! constant index) to SSA form with φ-nodes at iterated dominance frontiers.
//! Local *arrays* with dynamic indices are left alone — they become header
//! stacks with index tables in the P4 backend (Fig. 9, rightmost column).
//!
//! Loads that can execute before any store read 0. (The paper leaves
//! default-initialized locals undefined; the compiler is entitled to pick a
//! value, and 0 matches what the P4 backend's zero-initialized metadata
//! produces, keeping IR and P4 semantics aligned.)

use crate::fold::Replacements;
use netcl_ir::dom::DomTree;
use netcl_ir::func::{BlockId, Function, Inst, InstKind, LocalId, Results, ValueInfo};
use netcl_ir::types::Operand;
use netcl_util::bitset::BitSet;
use netcl_util::idx::{Idx, IndexVec};

/// Runs mem2reg; returns the number of promoted slots.
pub fn run_on_function(f: &mut Function) -> usize {
    let promoted = find_promotable(f);
    if promoted.count() == 0 {
        return 0;
    }
    let dt = DomTree::compute(f);
    let df = dt.dominance_frontiers();

    // Each promoted slot's store blocks, in block order.
    let mut def_blocks: IndexVec<LocalId, Vec<BlockId>> =
        f.locals.indices().map(|_| Vec::new()).collect();
    for (bid, b) in f.blocks.iter_enumerated() {
        for inst in &b.insts {
            if let InstKind::LocalStore { slot, .. } = inst.kind {
                if promoted.contains(slot.index()) && def_blocks[slot].last() != Some(&bid) {
                    def_blocks[slot].push(bid);
                }
            }
        }
    }

    // 1. Insert empty φ-nodes at iterated dominance frontiers of defs. The
    //    φ values are fresh and consecutive: value `first_phi + i` is the φ
    //    of `phi_slots[i]`.
    let first_phi = f.values.len();
    let mut phi_slots: Vec<LocalId> = Vec::new();
    let mut placed = BitSet::new(f.blocks.len());
    for slot in promoted.iter().map(LocalId::from_usize) {
        placed.clear();
        let mut work = std::mem::take(&mut def_blocks[slot]);
        while let Some(b) = work.pop() {
            if !dt.is_reachable(b) {
                continue;
            }
            for &fr in &df[b] {
                if placed.insert(fr.index()) {
                    let v = f.values.push(ValueInfo { ty: f.locals[slot].ty, phi_of: Some(slot) });
                    f.blocks[fr].insts.insert(
                        0,
                        Inst { kind: InstKind::Phi { incoming: vec![] }, results: Results::one(v) },
                    );
                    phi_slots.push(slot);
                    work.push(fr);
                }
            }
        }
    }
    let phi_slot = |inst: &Inst| {
        let i = inst.results.first()?.index().checked_sub(first_phi)?;
        Some(phi_slots[i])
    };

    // 2. Rename along the dominator tree: an iterative DFS with per-slot
    //    definition stacks.
    let mut children: IndexVec<BlockId, Vec<BlockId>> =
        f.blocks.indices().map(|_| Vec::new()).collect();
    for &b in &dt.rpo {
        if let Some(p) = dt.immediate_dominator(b) {
            children[p].push(b);
        }
    }
    let mut replace = Replacements::new(f);
    let mut stacks: IndexVec<LocalId, Vec<Operand>> =
        f.locals.indices().map(|_| Vec::new()).collect();
    // The slots each block on the DFS path pushed a definition for; a frame
    // holds where its block's run starts once the block is processed.
    let mut pushed: Vec<LocalId> = Vec::new();
    let current = |stacks: &IndexVec<LocalId, Vec<Operand>>, f: &Function, slot: LocalId| {
        stacks[slot].last().copied().unwrap_or(Operand::Const(0, f.locals[slot].ty))
    };
    let mut stack: Vec<(BlockId, Option<usize>)> = vec![(f.entry, None)];
    while let Some(&mut (bid, ref mut mark)) = stack.last_mut() {
        if let Some(start) = *mark {
            // Unwind: pop definitions pushed by this block.
            for slot in pushed.drain(start..) {
                stacks[slot].pop();
            }
            stack.pop();
            continue;
        }
        *mark = Some(pushed.len());

        for inst in &f.blocks[bid].insts {
            match inst.kind {
                InstKind::Phi { .. } => {
                    if let Some(slot) = phi_slot(inst) {
                        stacks[slot].push(Operand::Value(inst.results[0]));
                        pushed.push(slot);
                    }
                }
                InstKind::LocalLoad { slot, .. } if promoted.contains(slot.index()) => {
                    let cur = replace.resolve(current(&stacks, f, slot));
                    replace.insert(inst.results[0], cur);
                }
                InstKind::LocalStore { slot, value, .. } if promoted.contains(slot.index()) => {
                    stacks[slot].push(replace.resolve(value));
                    pushed.push(slot);
                }
                _ => {}
            }
        }

        // Fill φ incoming of CFG successors.
        for succ in f.blocks[bid].term.successors() {
            for i in 0..f.blocks[succ].insts.len() {
                let Some(slot) = phi_slot(&f.blocks[succ].insts[i]) else { continue };
                let cur = replace.resolve(current(&stacks, f, slot));
                if let InstKind::Phi { incoming } = &mut f.blocks[succ].insts[i].kind {
                    if !incoming.iter().any(|(p, _)| *p == bid) {
                        incoming.push((bid, cur));
                    }
                }
            }
        }

        // Recurse into dominator-tree children.
        stack.extend(children[bid].iter().map(|&k| (k, None)));
    }

    // 3. Remove promoted loads/stores and apply replacements.
    for b in f.blocks.iter_mut() {
        b.insts.retain(|inst| match inst.kind {
            InstKind::LocalLoad { slot, .. } | InstKind::LocalStore { slot, .. } => {
                !promoted.contains(slot.index())
            }
            _ => true,
        });
    }
    replace.apply(f);
    // Ensure any φ with missing incoming (unreachable preds) defaults to 0.
    for bid in f.blocks.indices() {
        for inst in &mut f.blocks[bid].insts {
            if let InstKind::Phi { incoming } = &mut inst.kind {
                for &p in &dt.preds[bid] {
                    if !incoming.iter().any(|(q, _)| *q == p) {
                        let ty = f.values[inst.results[0]].ty;
                        incoming.push((p, Operand::Const(0, ty)));
                    }
                }
            }
        }
    }
    promoted.count()
}

/// The scalar slots every access of which uses index 0.
fn find_promotable(f: &Function) -> BitSet {
    let mut promoted = BitSet::new(f.locals.len());
    for (id, _) in f.locals.iter_enumerated().filter(|(_, l)| l.count == 1) {
        promoted.insert(id.index());
    }
    for inst in f.blocks.iter().flat_map(|b| &b.insts) {
        match inst.kind {
            InstKind::LocalLoad { slot, index } | InstKind::LocalStore { slot, index, .. }
                if index.as_const() != Some(0) =>
            {
                promoted.remove(slot.index());
            }
            _ => {}
        }
    }
    promoted
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, FuncBuilder, Terminator};
    use netcl_ir::types::{IcmpPred, IrBinOp, IrTy, Operand as Op};
    use netcl_ir::verify::verify_function;

    /// x = 1; if (c) x = 2; out = x  — needs a φ at the join.
    #[test]
    fn promotes_with_phi() {
        let mut b = FuncBuilder::new("k", 1);
        let argc = b.add_arg("c", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let x = b.add_local("x", IrTy::I32, 1);
        let i0 = Op::imm(0, IrTy::I32);
        b.emit(
            InstKind::LocalStore { slot: x, index: i0, value: Op::imm(1, IrTy::I32) },
            IrTy::I32,
        );
        let c = b.emit(InstKind::ArgRead { arg: argc, index: i0 }, IrTy::I32).unwrap();
        let cond = b.icmp(IcmpPred::Ne, Op::Value(c), Op::imm(0, IrTy::I32));
        let t = b.new_block();
        let j = b.new_block();
        b.terminate(Terminator::CondBr { cond, then_bb: t, else_bb: j });
        b.switch_to(t);
        b.emit(
            InstKind::LocalStore { slot: x, index: i0, value: Op::imm(2, IrTy::I32) },
            IrTy::I32,
        );
        b.terminate(Terminator::Br(j));
        b.switch_to(j);
        let v = b.emit(InstKind::LocalLoad { slot: x, index: i0 }, IrTy::I32).unwrap();
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: Op::Value(v) }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();

        assert_eq!(run_on_function(&mut f), 1);
        verify_function(&f, None).unwrap();
        // No local loads/stores remain; a φ exists in the join block.
        assert!(!f.blocks.iter().any(|b| b
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::LocalLoad { .. } | InstKind::LocalStore { .. }))));
        assert!(f.blocks[j].insts.iter().any(|i| matches!(i.kind, InstKind::Phi { .. })));

        // Semantics: c=0 → 1, c≠0 → 2.
        let m = netcl_ir::Module::default();
        let mut st = netcl_ir::interp::DeviceState::new(&m);
        let mut env = netcl_ir::interp::ExecEnv::default();
        let mut args = vec![vec![0u64], vec![0u64]];
        netcl_ir::interp::execute(&f, &m, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(args[1][0], 1);
        let mut args = vec![vec![5u64], vec![0u64]];
        netcl_ir::interp::execute(&f, &m, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(args[1][0], 2);
    }

    #[test]
    fn load_before_store_reads_zero() {
        let mut b = FuncBuilder::new("k", 1);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let x = b.add_local("x", IrTy::I32, 1);
        let i0 = Op::imm(0, IrTy::I32);
        let v = b.emit(InstKind::LocalLoad { slot: x, index: i0 }, IrTy::I32).unwrap();
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: Op::Value(v) }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        run_on_function(&mut f);
        match &f.blocks[f.entry].insts[0].kind {
            InstKind::ArgWrite { value, .. } => assert_eq!(value.as_const(), Some(0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dynamic_arrays_not_promoted() {
        let mut b = FuncBuilder::new("k", 1);
        let argi = b.add_arg("i", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let arr = b.add_local("c", IrTy::I32, 3);
        let i0 = Op::imm(0, IrTy::I32);
        let i = b.emit(InstKind::ArgRead { arg: argi, index: i0 }, IrTy::I32).unwrap();
        b.emit(
            InstKind::LocalStore { slot: arr, index: Op::Value(i), value: Op::imm(7, IrTy::I32) },
            IrTy::I32,
        );
        let v = b.emit(InstKind::LocalLoad { slot: arr, index: Op::Value(i) }, IrTy::I32).unwrap();
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: Op::Value(v) }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        assert_eq!(run_on_function(&mut f), 0);
        assert!(f.blocks[f.entry]
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::LocalStore { .. })));
    }

    /// Sequential overwrites in one block need no φ.
    #[test]
    fn straightline_promotion() {
        let mut b = FuncBuilder::new("k", 1);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let x = b.add_local("x", IrTy::I32, 1);
        let i0 = Op::imm(0, IrTy::I32);
        b.emit(
            InstKind::LocalStore { slot: x, index: i0, value: Op::imm(1, IrTy::I32) },
            IrTy::I32,
        );
        let v1 = b.emit(InstKind::LocalLoad { slot: x, index: i0 }, IrTy::I32).unwrap();
        let v2 = b.bin(IrBinOp::Add, Op::Value(v1), Op::imm(10, IrTy::I32), IrTy::I32);
        b.emit(InstKind::LocalStore { slot: x, index: i0, value: v2 }, IrTy::I32);
        let v3 = b.emit(InstKind::LocalLoad { slot: x, index: i0 }, IrTy::I32).unwrap();
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: Op::Value(v3) }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        run_on_function(&mut f);
        crate::fold::fold_function(&mut f);
        crate::dce::run_on_function(&mut f);
        verify_function(&f, None).unwrap();
        // add(1, 10) folded; the write carries 11.
        match f.blocks[f.entry].insts.iter().find(|i| matches!(i.kind, InstKind::ArgWrite { .. })) {
            Some(inst) => match &inst.kind {
                InstKind::ArgWrite { value, .. } => assert_eq!(value.as_const(), Some(11)),
                _ => unreachable!(),
            },
            None => panic!("write disappeared"),
        }
    }
}
