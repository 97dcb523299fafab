//! Dead code elimination.
//!
//! Removes side-effect-free instructions with no used results and blocks
//! unreachable from the entry (fixing up φ-nodes of their successors).

use crate::cfg::reachable_blocks;
use netcl_ir::func::{BlockId, Function, InstKind, Terminator};
use netcl_ir::types::Operand;
use netcl_ir::ValueId;
use netcl_util::idx::Idx;

/// Runs DCE on `f`; returns whether anything was removed.
pub fn run_on_function(f: &mut Function) -> bool {
    let mut changed = remove_unreachable_blocks(f);
    changed |= remove_dead_instructions(f);
    changed
}

/// One backward worklist from the roots — operands of side-effecting
/// instructions and of terminators — over a liveness bitmap indexed by
/// `ValueId`: a value is live when a kept instruction reads it, and an
/// instruction is kept when it has side effects or a live result.
fn remove_dead_instructions(f: &mut Function) -> bool {
    let mut def_site: Vec<Option<(BlockId, usize)>> = vec![None; f.values.len()];
    let mut live = vec![false; f.values.len()];
    let mut work = Vec::new();
    let mut mark = |op: Operand, work: &mut Vec<ValueId>| {
        if let Operand::Value(v) = op {
            if !std::mem::replace(&mut live[v.index()], true) {
                work.push(v);
            }
        }
    };
    for (bid, b) in f.blocks.iter_enumerated() {
        for (i, inst) in b.insts.iter().enumerate() {
            for r in &inst.results {
                def_site[r.index()] = Some((bid, i));
            }
            if inst.kind.has_side_effects() {
                inst.kind.for_each_operand(|op| mark(op, &mut work));
            }
        }
        match &b.term {
            Terminator::CondBr { cond, .. } => mark(*cond, &mut work),
            Terminator::Ret(a) => a.target.into_iter().for_each(|op| mark(op, &mut work)),
            _ => {}
        }
    }
    while let Some(v) = work.pop() {
        if let Some((b, i)) = def_site[v.index()] {
            f.blocks[b].insts[i].kind.for_each_operand(|op| mark(op, &mut work));
        }
    }
    let mut changed = false;
    for b in f.blocks.iter_mut() {
        let before = b.insts.len();
        b.insts.retain(|inst| {
            inst.kind.has_side_effects() || inst.results.iter().any(|r| live[r.index()])
        });
        changed |= b.insts.len() != before;
    }
    changed
}

fn remove_unreachable_blocks(f: &mut Function) -> bool {
    let reachable = reachable_blocks(f);
    if reachable.iter().all(|&r| r) {
        return false;
    }
    let mut changed = false;
    // Empty out unreachable blocks (ids stay stable; empty blocks with a
    // self-branch are ignored by all later passes and the printer).
    for (bid, b) in f.blocks.indices().zip(f.blocks.iter_mut()) {
        if reachable[bid.index()] {
            // Drop φ incomings that came from now-unreachable blocks.
            for inst in &mut b.insts {
                if let InstKind::Phi { incoming } = &mut inst.kind {
                    let before = incoming.len();
                    incoming.retain(|(p, _)| reachable[p.index()]);
                    changed |= incoming.len() != before;
                }
            }
        } else if !b.insts.is_empty() || !matches!(b.term, Terminator::Br(x) if x == bid) {
            b.insts.clear();
            b.term = Terminator::Br(bid); // inert self-loop marker
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, FuncBuilder};
    use netcl_ir::types::{IrBinOp, IrTy, Operand as Op};

    #[test]
    fn removes_dead_chain() {
        let mut b = FuncBuilder::new("k", 1);
        let x = b.bin(IrBinOp::Add, Op::imm(1, IrTy::I32), Op::imm(2, IrTy::I32), IrTy::I32);
        let _y = b.bin(IrBinOp::Mul, x, Op::imm(3, IrTy::I32), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        assert!(run_on_function(&mut f));
        assert_eq!(f.inst_count(), 0);
    }

    #[test]
    fn keeps_side_effects_and_their_inputs() {
        let mut b = FuncBuilder::new("k", 1);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let x = b.bin(IrBinOp::Add, Op::imm(1, IrTy::I32), Op::imm(2, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: x }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        run_on_function(&mut f);
        assert_eq!(f.inst_count(), 2);
    }

    #[test]
    fn keeps_condbr_inputs() {
        let mut b = FuncBuilder::new("k", 1);
        let t = b.new_block();
        let e = b.new_block();
        let arg = b.add_arg("x", IrTy::I32, 1, false);
        let x = b.emit(InstKind::ArgRead { arg, index: Op::imm(0, IrTy::I32) }, IrTy::I32).unwrap();
        let c = b.icmp(netcl_ir::types::IcmpPred::Eq, Op::Value(x), Op::imm(0, IrTy::I32));
        b.terminate(Terminator::CondBr { cond: c, then_bb: t, else_bb: e });
        b.switch_to(t);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        run_on_function(&mut f);
        assert_eq!(f.inst_count(), 2);
    }

    #[test]
    fn clears_unreachable_blocks() {
        let mut b = FuncBuilder::new("k", 1);
        let dead = b.new_block();
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(dead);
        b.bin(IrBinOp::Add, Op::imm(1, IrTy::I32), Op::imm(2, IrTy::I32), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        assert!(run_on_function(&mut f));
        assert!(f.blocks[dead].insts.is_empty());
    }

    #[test]
    fn atomics_never_removed() {
        use netcl_ir::func::{Atomic, MemId, MemRef};
        let mut b = FuncBuilder::new("k", 1);
        b.emit(
            InstKind::AtomicRmw(Box::new(Atomic {
                op: netcl_sema::builtins::AtomicOp {
                    rmw: netcl_sema::builtins::AtomicRmw::Inc,
                    cond: false,
                    ret_new: false,
                },
                mem: MemRef { mem: MemId(0), indices: [Op::imm(0, IrTy::I32)].into() },
                cond: None,
                operands: [].into(),
            })),
            IrTy::I32,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        run_on_function(&mut f);
        assert_eq!(f.inst_count(), 1);
    }
}
