//! Inefficient-pattern rewrites for Tofino (§VI-B).
//!
//! "We found that direct translation of some icmp predicates with dynamic
//! operands may produce code that does not compile for Tofino. We transform
//! those into subtractions followed by an MSB check." — `icmp_to_sub_msb`.
//!
//! "Byte swaps generated as bit-slice concatenations can be done in a
//! single stage" — `detect_bswap` pattern-matches shift/or byte swaps into
//! the dedicated `bswap` operation the code generator emits as one action.

use netcl_ir::func::{BlockId, Function, Inst, InstKind, Results, ValueId};
use netcl_ir::types::{IcmpPred, IrBinOp, IrTy, Operand};
use netcl_util::idx::IndexVec;

/// Rewrites relational `icmp`s whose operands are both dynamic into a
/// widened subtraction plus MSB test. Equality predicates stay (Tofino
/// evaluates them directly); comparisons against constants stay (they map
/// onto MAT ranges). Returns the number of rewritten comparisons.
///
/// For unsigned `a < b` at width w: `msb(zext(a, 2w) - zext(b, 2w))`, where
/// the subtraction happens at 2w bits so the borrow lands in a real bit.
/// Signed comparisons sign-extend instead. Non-strict forms compute the
/// strict complement and invert.
pub(crate) fn icmp_to_sub_msb(f: &mut Function) -> usize {
    let mut rewritten = 0usize;
    for bid in f.blocks.indices() {
        let mut i = 0;
        while i < f.blocks[bid].insts.len() {
            let inst = &f.blocks[bid].insts[i];
            let InstKind::Icmp { pred, a, b } = inst.kind else {
                i += 1;
                continue;
            };
            let dynamic = matches!(a, Operand::Value(_)) && matches!(b, Operand::Value(_));
            if !dynamic {
                i += 1;
                continue;
            }
            let result = inst.results[0];
            let ty = f.operand_ty(a);
            let signed =
                matches!(pred, IcmpPred::Slt | IcmpPred::Sle | IcmpPred::Sgt | IcmpPred::Sge);
            // Normalize to a strict less-than: a < b (swap for >), and track
            // whether the final result needs inversion (for <=, >=).
            let (lhs, rhs, invert) = match pred {
                IcmpPred::Ult | IcmpPred::Slt => (a, b, false),
                IcmpPred::Ugt | IcmpPred::Sgt => (b, a, false),
                IcmpPred::Uge | IcmpPred::Sge => (a, b, true), // !(a < b)
                IcmpPred::Ule | IcmpPred::Sle => (b, a, true), // !(b < a)
                IcmpPred::Eq | IcmpPred::Ne => {
                    i += 1;
                    continue;
                }
            };

            // The width-preserving Tofino idiom: `a < b ⇔ (b |-| a) != 0`
            // — one saturating subtraction (a SALU/ALU-native op) followed
            // by an equality test, the "subtraction followed by an MSB
            // check" of §VI-B without paying a double-width PHV container.
            // Signed comparisons flip the sign bit of both operands first.
            let mut seq: Vec<Inst> = Vec::new();
            let fresh = |f: &mut Function, ty: IrTy| -> ValueId {
                f.values.push(netcl_ir::func::ValueInfo::of(ty))
            };
            let (lhs, rhs) = if signed {
                let msb = 1u64 << (ty.bits - 1);
                let fl = fresh(f, ty);
                seq.push(Inst {
                    kind: InstKind::Bin { op: IrBinOp::Xor, a: lhs, b: Operand::imm(msb, ty) },
                    results: Results::one(fl),
                });
                let fr = fresh(f, ty);
                seq.push(Inst {
                    kind: InstKind::Bin { op: IrBinOp::Xor, a: rhs, b: Operand::imm(msb, ty) },
                    results: Results::one(fr),
                });
                (Operand::Value(fl), Operand::Value(fr))
            } else {
                (lhs, rhs)
            };
            let diff = fresh(f, ty);
            seq.push(Inst {
                kind: InstKind::Bin { op: IrBinOp::USubSat, a: rhs, b: lhs },
                results: Results::one(diff),
            });
            let final_pred = if invert { IcmpPred::Eq } else { IcmpPred::Ne };
            seq.push(Inst {
                kind: InstKind::Icmp {
                    pred: final_pred,
                    a: Operand::Value(diff),
                    b: Operand::imm(0, ty),
                },
                results: Results::one(result),
            });

            let n_new = seq.len();
            f.blocks[bid].insts.splice(i..=i, seq);
            rewritten += 1;
            i += n_new;
        }
    }
    rewritten
}

/// Detects 16- and 32-bit byte-swap patterns written as shifts and ors and
/// replaces the final `or` with a single `bswap` instruction.
///
/// 16-bit: `(x << 8) | (x >> 8)` (at width 16, wrapping covers the mask).
/// 32-bit idioms are left to the frontend's `ncl::bswap`; the shift/or form
/// at 32 bits has too many variants to enumerate profitably.
pub(crate) fn detect_bswap(f: &mut Function) -> usize {
    let mut found = 0usize;
    // Each value's definition site. A rewrite turns an `or` into a `bswap`,
    // which matches as a shift no more than the `or` did.
    let mut defs: IndexVec<ValueId, Option<(BlockId, usize)>> =
        f.values.indices().map(|_| None).collect();
    for (bid, b) in f.blocks.iter_enumerated() {
        for (i, inst) in b.insts.iter().enumerate() {
            if let Some(&r) = inst.results.first() {
                defs[r] = Some((bid, i));
            }
        }
    }
    for bid in f.blocks.indices() {
        for i in 0..f.blocks[bid].insts.len() {
            let inst = &f.blocks[bid].insts[i];
            let InstKind::Bin { op: IrBinOp::Or, a, b } = inst.kind else { continue };
            let ty = f.value_ty(inst.results[0]);
            if ty != IrTy::I16 {
                continue;
            }
            let (Operand::Value(va), Operand::Value(vb)) = (a, b) else { continue };
            // `x`, when `v` is defined as `x op 8`.
            let shifted = |v: ValueId, op: IrBinOp| -> Option<Operand> {
                let (db, di) = defs.get(v).copied().flatten()?;
                match f.blocks[db].insts[di].kind {
                    InstKind::Bin { op: o, a, b: Operand::Const(8, _) } if o == op => Some(a),
                    _ => None,
                }
            };
            let (src1, src2) = match (shifted(va, IrBinOp::Shl), shifted(vb, IrBinOp::LShr)) {
                (Some(x), Some(y)) => (x, y),
                _ => match (shifted(va, IrBinOp::LShr), shifted(vb, IrBinOp::Shl)) {
                    (Some(x), Some(y)) => (x, y),
                    _ => continue,
                },
            };
            if src1 != src2 {
                continue;
            }
            f.blocks[bid].insts[i].kind =
                InstKind::Un { op: netcl_ir::types::IrUnOp::Bswap, a: src1 };
            found += 1;
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, FuncBuilder, Terminator};
    use netcl_ir::interp::{execute, DeviceState, ExecEnv};
    use netcl_ir::types::{CastKind, Operand as Op};
    use netcl_ir::verify::verify_function;
    use netcl_ir::Module;

    /// Builds `out = (a PRED b)` for two dynamic i16 operands.
    fn cmp_kernel(pred: IcmpPred) -> Function {
        let mut b = FuncBuilder::new("k", 1);
        let aa = b.add_arg("a", IrTy::I16, 1, false);
        let ab = b.add_arg("b", IrTy::I16, 1, false);
        let out = b.add_arg("o", IrTy::I8, 1, true);
        let i0 = Op::imm(0, IrTy::I32);
        let va = b.emit(InstKind::ArgRead { arg: aa, index: i0 }, IrTy::I16).unwrap();
        let vb = b.emit(InstKind::ArgRead { arg: ab, index: i0 }, IrTy::I16).unwrap();
        let c = b.icmp(pred, Op::Value(va), Op::Value(vb));
        let c8 = b.cast(CastKind::Zext, c, IrTy::I1, IrTy::I8);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: c8 }, IrTy::I8);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.finish()
    }

    fn run(f: &Function, a: u64, b: u64) -> u64 {
        let m = Module::default();
        let mut st = DeviceState::new(&m);
        let mut env = ExecEnv::default();
        let mut args = vec![vec![a], vec![b], vec![0u64]];
        execute(f, &m, &mut st, &mut args, &mut env).unwrap();
        args[2][0]
    }

    #[test]
    fn sub_msb_rewrite_preserves_all_predicates() {
        use IcmpPred::*;
        for pred in [Ult, Ule, Ugt, Uge, Slt, Sle, Sgt, Sge] {
            let orig = cmp_kernel(pred);
            let mut rewritten = orig.clone();
            assert_eq!(icmp_to_sub_msb(&mut rewritten), 1, "{pred:?}");
            verify_function(&rewritten, None).unwrap();
            // No relational icmp remains.
            assert!(!rewritten.blocks.iter().any(|b| b.insts.iter().any(|i| matches!(
                i.kind,
                InstKind::Icmp { pred, .. } if pred.needs_sub_msb_rewrite()
            ))));
            for (a, b) in [
                (0u64, 0u64),
                (1, 2),
                (2, 1),
                (0x7FFF, 0x8000),
                (0x8000, 0x7FFF),
                (0xFFFF, 0),
                (0, 0xFFFF),
                (0x1234, 0x1234),
            ] {
                assert_eq!(
                    run(&orig, a, b),
                    run(&rewritten, a, b),
                    "{pred:?} diverges on ({a:#x}, {b:#x})"
                );
            }
        }
    }

    #[test]
    fn constant_comparisons_untouched() {
        let mut b = FuncBuilder::new("k", 1);
        let aa = b.add_arg("a", IrTy::I16, 1, false);
        let i0 = Op::imm(0, IrTy::I32);
        let va = b.emit(InstKind::ArgRead { arg: aa, index: i0 }, IrTy::I16).unwrap();
        b.icmp(IcmpPred::Ugt, Op::Value(va), Op::imm(512, IrTy::I16));
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        assert_eq!(icmp_to_sub_msb(&mut f), 0);
    }

    #[test]
    fn equality_untouched() {
        let mut b = FuncBuilder::new("k", 1);
        let aa = b.add_arg("a", IrTy::I16, 1, false);
        let ab = b.add_arg("b", IrTy::I16, 1, false);
        let i0 = Op::imm(0, IrTy::I32);
        let va = b.emit(InstKind::ArgRead { arg: aa, index: i0 }, IrTy::I16).unwrap();
        let vb = b.emit(InstKind::ArgRead { arg: ab, index: i0 }, IrTy::I16).unwrap();
        b.icmp(IcmpPred::Eq, Op::Value(va), Op::Value(vb));
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        assert_eq!(icmp_to_sub_msb(&mut f), 0);
    }

    #[test]
    fn bswap_pattern_detected_and_correct() {
        let mut b = FuncBuilder::new("k", 1);
        let aa = b.add_arg("a", IrTy::I16, 1, false);
        let out = b.add_arg("o", IrTy::I16, 1, true);
        let i0 = Op::imm(0, IrTy::I32);
        let va = b.emit(InstKind::ArgRead { arg: aa, index: i0 }, IrTy::I16).unwrap();
        let hi = b.bin(IrBinOp::Shl, Op::Value(va), Op::imm(8, IrTy::I16), IrTy::I16);
        let lo = b.bin(IrBinOp::LShr, Op::Value(va), Op::imm(8, IrTy::I16), IrTy::I16);
        let sw = b.bin(IrBinOp::Or, hi, lo, IrTy::I16);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: sw }, IrTy::I16);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let orig = b.finish();
        let mut f = orig.clone();
        assert_eq!(detect_bswap(&mut f), 1);
        crate::dce::run_on_function(&mut f);
        verify_function(&f, None).unwrap();
        assert!(f.blocks.iter().any(|b| b
            .insts
            .iter()
            .any(|i| matches!(i.kind, InstKind::Un { op: netcl_ir::types::IrUnOp::Bswap, .. }))));
        for x in [0u64, 0x1234, 0xFF00, 0x00FF, 0xABCD] {
            assert_eq!(run2(&orig, x), run2(&f, x), "bswap diverges on {x:#x}");
        }
    }

    fn run2(f: &Function, a: u64) -> u64 {
        let m = Module::default();
        let mut st = DeviceState::new(&m);
        let mut env = ExecEnv::default();
        let mut args = vec![vec![a], vec![0u64]];
        execute(f, &m, &mut st, &mut args, &mut env).unwrap();
        args[1][0]
    }
}
