//! Constant folding, instruction simplification, and branch folding.
//!
//! The "peephole optimization and instruction simplification" passes of
//! §VI-B. Simplification matters beyond code size here: Tofino ALUs only do
//! simple arithmetic, so every folded instruction is pipeline resource that
//! does not need to exist.

use netcl_ir::func::{Function, InstKind, Terminator};
use netcl_ir::types::{IrBinOp, IrTy, Operand};
use netcl_ir::ValueId;
use netcl_util::idx::IndexVec;

/// Folds constants and simplifies identities in `f`. Returns whether
/// anything changed. Iterate to fixpoint together with DCE.
pub fn fold_function(f: &mut Function) -> bool {
    let mut changed = false;
    // Replacements discovered this round.
    let mut replace = Replacements::new(f);
    let Function { blocks, values, .. } = f;
    for b in blocks.iter_mut() {
        b.insts.retain_mut(|inst| {
            // First apply pending replacements to operands.
            inst.kind.map_operands(|op| replace.resolve(op));
            let Some(&result) = inst.results.first() else { return true };
            // Simplifiable kinds are pure single-result instructions: record
            // the replacement and drop the instruction so the pass converges.
            let Some(rep) = simplify_inst(&inst.kind, values[result].ty) else { return true };
            replace.insert(result, replace.resolve(rep));
            changed = true;
            false
        });
    }

    // Apply replacements everywhere (uses may precede defs in block order).
    replace.apply(f);

    // Branch folding: condbr on a constant becomes an unconditional branch.
    for b in f.blocks.iter_mut() {
        if let Terminator::CondBr { cond: Operand::Const(c, _), then_bb, else_bb } = b.term {
            b.term = Terminator::Br(if c != 0 { then_bb } else { else_bb });
            changed = true;
        }
    }
    changed
}

/// Value → operand replacements over dense ids (fold, hoisting and mem2reg
/// record them, then rewrite every use at once).
pub(crate) struct Replacements {
    to: IndexVec<ValueId, Option<Operand>>,
    len: usize,
}

impl Replacements {
    /// No replacements, for the values `f` has now.
    pub(crate) fn new(f: &Function) -> Replacements {
        Replacements { to: f.values.indices().map(|_| None).collect(), len: 0 }
    }

    /// Replaces `v` by `op`.
    pub(crate) fn insert(&mut self, v: ValueId, op: Operand) {
        self.len += self.to[v].replace(op).is_none() as usize;
    }

    /// Follows `op`'s chain of replacements to its end (bounded by their
    /// number).
    pub(crate) fn resolve(&self, op: Operand) -> Operand {
        let mut cur = op;
        for _ in 0..=self.len {
            match cur {
                Operand::Value(v) => match self.to.get(v).copied().flatten() {
                    Some(next) => cur = next,
                    None => break,
                },
                Operand::Const(..) => break,
            }
        }
        cur
    }

    /// Rewrites every operand of `f`, terminators included.
    pub(crate) fn apply(&self, f: &mut Function) {
        if self.len == 0 {
            return;
        }
        for b in f.blocks.iter_mut() {
            for inst in &mut b.insts {
                inst.kind.map_operands(|op| self.resolve(op));
            }
            match &mut b.term {
                Terminator::CondBr { cond, .. } => *cond = self.resolve(*cond),
                Terminator::Ret(a) => a.target = a.target.map(|t| self.resolve(t)),
                _ => {}
            }
        }
    }
}

/// Returns a replacement operand if the instruction simplifies away.
fn simplify_inst(kind: &InstKind, ty: IrTy) -> Option<Operand> {
    match kind {
        InstKind::Bin { op, a, b } => simplify_bin(*op, *a, *b, ty),
        InstKind::Icmp { pred, a, b } => {
            if let (Operand::Const(ca, cty), Operand::Const(cb, _)) = (a, b) {
                return Some(Operand::imm(pred.eval(*ca, *cb, *cty) as u64, IrTy::I1));
            }
            // x == x → true; x != x → false (for pure value operands).
            if a == b && matches!(a, Operand::Value(_)) {
                use netcl_ir::types::IcmpPred::*;
                return match pred {
                    Eq | Ule | Uge | Sle | Sge => Some(Operand::imm(1, IrTy::I1)),
                    Ne | Ult | Ugt | Slt | Sgt => Some(Operand::imm(0, IrTy::I1)),
                };
            }
            None
        }
        InstKind::Select { cond, a, b } => match cond {
            Operand::Const(c, _) => Some(if *c != 0 { *a } else { *b }),
            _ if a == b => Some(*a),
            _ => None,
        },
        InstKind::Cast { kind, a: Operand::Const(c, from), to } => {
            Some(Operand::Const(kind.eval(*c, *from, *to), *to))
        }
        InstKind::Un { op, a: Operand::Const(c, aty) } => {
            Some(Operand::Const(op.eval(*c, *aty), ty))
        }
        InstKind::Phi { incoming } => {
            // All-same-operand φ folds to that operand.
            let first = incoming.first()?.1;
            if incoming.iter().all(|(_, v)| *v == first) {
                Some(first)
            } else {
                None
            }
        }
        InstKind::Hash { kind, bits, a: Operand::Const(c, aty) } => {
            let key_bytes = aty.bits.div_ceil(8).max(1) as u32;
            Some(Operand::imm(kind.compute(*c, key_bytes, *bits), ty))
        }
        _ => None,
    }
}

/// Strength reduction: mul/div/rem by powers of two become shifts/masks —
/// the only multiplications and divisions Tofino supports (§V-D: "ASICs
/// like Tofino only support those that can be converted to shifts").
pub fn strength_reduce(f: &mut Function) -> usize {
    let mut changed = 0usize;
    for b in f.blocks.iter_mut() {
        for inst in &mut b.insts {
            let InstKind::Bin { op, a, b: rhs } = &mut inst.kind else { continue };
            let Some((c, width)) = (match rhs {
                Operand::Const(c, t) => Some((*c, *t)),
                _ => None,
            }) else {
                // Commute a constant multiplier to the right.
                if *op == IrBinOp::Mul {
                    if let Operand::Const(cl, t) = *a {
                        if cl.is_power_of_two() {
                            let k = cl.trailing_zeros() as u64;
                            *a = *rhs;
                            *rhs = Operand::Const(k, t);
                            *op = IrBinOp::Shl;
                            changed += 1;
                        }
                    }
                }
                continue;
            };
            if c == 0 || !c.is_power_of_two() {
                continue;
            }
            let k = c.trailing_zeros() as u64;
            match op {
                IrBinOp::Mul => {
                    *op = IrBinOp::Shl;
                    *rhs = Operand::Const(k, width);
                    changed += 1;
                }
                IrBinOp::UDiv => {
                    *op = IrBinOp::LShr;
                    *rhs = Operand::Const(k, width);
                    changed += 1;
                }
                IrBinOp::URem => {
                    *op = IrBinOp::And;
                    *rhs = Operand::Const(c - 1, width);
                    changed += 1;
                }
                _ => {}
            }
        }
    }
    changed
}

fn simplify_bin(op: IrBinOp, a: Operand, b: Operand, ty: IrTy) -> Option<Operand> {
    use IrBinOp::*;
    // Both constant: evaluate.
    if let (Operand::Const(ca, _), Operand::Const(cb, _)) = (a, b) {
        if let Some(v) = op.eval(ca, cb, ty) {
            return Some(Operand::Const(v, ty));
        }
        return None; // division by zero left for runtime semantics
    }
    // Canonical identities. `ca`/`cb` are the constant sides.
    let ca = a.as_const();
    let cb = b.as_const();
    match op {
        Add | Or | Xor => {
            if cb == Some(0) {
                return Some(a);
            }
            if ca == Some(0) {
                return Some(b);
            }
        }
        Sub | Shl | LShr | AShr | USubSat if cb == Some(0) => return Some(a),
        Mul => {
            if cb == Some(1) {
                return Some(a);
            }
            if ca == Some(1) {
                return Some(b);
            }
            if cb == Some(0) || ca == Some(0) {
                return Some(Operand::Const(0, ty));
            }
        }
        UDiv | SDiv if cb == Some(1) => return Some(a),
        And => {
            if cb == Some(0) || ca == Some(0) {
                return Some(Operand::Const(0, ty));
            }
            if cb == Some(ty.mask()) {
                return Some(a);
            }
            if ca == Some(ty.mask()) {
                return Some(b);
            }
            if a == b {
                return Some(a);
            }
        }
        _ => {}
    }
    if op == Or && a == b {
        return Some(a);
    }
    if op == Xor && a == b && matches!(a, Operand::Value(_)) {
        return Some(Operand::Const(0, ty));
    }
    if (op == Sub) && a == b && matches!(a, Operand::Value(_)) {
        return Some(Operand::Const(0, ty));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, FuncBuilder};
    use netcl_ir::types::{IcmpPred, Operand as Op};
    use netcl_ir::InstKind;

    fn count_insts(f: &Function) -> usize {
        f.inst_count()
    }

    #[test]
    fn folds_constant_chain() {
        let mut b = FuncBuilder::new("k", 1);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let x = b.bin(IrBinOp::Add, Op::imm(2, IrTy::I32), Op::imm(3, IrTy::I32), IrTy::I32);
        let y = b.bin(IrBinOp::Mul, x, Op::imm(4, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: y }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        fold_function(&mut f);
        crate::dce::run_on_function(&mut f);
        assert_eq!(count_insts(&f), 1, "{}", netcl_ir::print::print_function(&f));
        // The write now carries the constant 20.
        match &f.blocks[f.entry].insts[0].kind {
            InstKind::ArgWrite { value, .. } => assert_eq!(value.as_const(), Some(20)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn folds_branches_on_constants() {
        let mut b = FuncBuilder::new("k", 1);
        let t = b.new_block();
        let e = b.new_block();
        let c = b.icmp(IcmpPred::Ugt, Op::imm(5, IrTy::I32), Op::imm(3, IrTy::I32));
        b.terminate(Terminator::CondBr { cond: c, then_bb: t, else_bb: e });
        b.switch_to(t);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.terminate(Terminator::Ret(ActionRef {
            kind: netcl_sema::ActionKind::Drop,
            target: None,
        }));
        let mut f = b.finish();
        while fold_function(&mut f) || crate::dce::run_on_function(&mut f) {}
        // The entry now branches unconditionally to t.
        match f.blocks[f.entry].term {
            Terminator::Br(x) => assert_eq!(x, t),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn identity_simplifications() {
        let mut b = FuncBuilder::new("k", 1);
        let arg = b.add_arg("x", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let x = b.emit(InstKind::ArgRead { arg, index: Op::imm(0, IrTy::I32) }, IrTy::I32).unwrap();
        let a = b.bin(IrBinOp::Add, Op::Value(x), Op::imm(0, IrTy::I32), IrTy::I32); // = x
        let m = b.bin(IrBinOp::Mul, a, Op::imm(1, IrTy::I32), IrTy::I32); // = x
        let z = b.bin(IrBinOp::Xor, m, m, IrTy::I32); // = 0
        let o = b.bin(IrBinOp::Or, z, m, IrTy::I32); // = x
        b.emit(InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: o }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        while fold_function(&mut f) || crate::dce::run_on_function(&mut f) {}
        // Only the read and the write survive.
        assert_eq!(count_insts(&f), 2, "{}", netcl_ir::print::print_function(&f));
    }

    #[test]
    fn select_with_constant_condition() {
        let mut b = FuncBuilder::new("k", 1);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let s = b
            .emit(
                InstKind::Select {
                    cond: Op::imm(0, IrTy::I1),
                    a: Op::imm(7, IrTy::I32),
                    b: Op::imm(9, IrTy::I32),
                },
                IrTy::I32,
            )
            .unwrap();
        b.emit(
            InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: Op::Value(s) },
            IrTy::I32,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        while fold_function(&mut f) || crate::dce::run_on_function(&mut f) {}
        match &f.blocks[f.entry].insts[0].kind {
            InstKind::ArgWrite { value, .. } => assert_eq!(value.as_const(), Some(9)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hash_of_constant_folds() {
        let mut b = FuncBuilder::new("k", 1);
        let out = b.add_arg("o", IrTy::I16, 1, true);
        let h = b
            .emit(
                InstKind::Hash {
                    kind: netcl_sema::builtins::HashKind::Crc16,
                    bits: 16,
                    a: Op::imm(42, IrTy::I32),
                },
                IrTy::I16,
            )
            .unwrap();
        b.emit(
            InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: Op::Value(h) },
            IrTy::I16,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        while fold_function(&mut f) || crate::dce::run_on_function(&mut f) {}
        let expected = netcl_util::hash::crc16(&42u32.to_le_bytes()) as u64;
        match &f.blocks[f.entry].insts[0].kind {
            InstKind::ArgWrite { value, .. } => assert_eq!(value.as_const(), Some(expected)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn division_by_zero_not_folded() {
        let mut b = FuncBuilder::new("k", 1);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let d = b.bin(IrBinOp::UDiv, Op::imm(7, IrTy::I32), Op::imm(0, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: d }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        fold_function(&mut f);
        // Division instruction survives.
        assert!(f.blocks[f.entry]
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::Bin { op: IrBinOp::UDiv, .. })));
    }
}
