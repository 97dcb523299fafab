//! φ-node elimination (§VI-B).
//!
//! "We eliminate φ-nodes by introducing a fresh variable for each, a store
//! instruction before the terminators of its incoming blocks, and replacing
//! them with load instructions." The fresh variables are scalar local slots,
//! which the P4 code generator emits as local metadata variables.

use netcl_ir::func::{Function, Inst, InstKind, Results};
use netcl_ir::types::{IrTy, Operand};

/// Eliminates every φ-node; returns how many were removed.
pub(crate) fn run_on_function(f: &mut Function) -> usize {
    let mut removed = 0usize;
    loop {
        // Find one φ (block, index, incoming) at a time; the transform
        // invalidates instruction indices.
        let mut found = None;
        'outer: for bid in f.blocks.indices() {
            for (i, inst) in f.blocks[bid].insts.iter_mut().enumerate() {
                if let InstKind::Phi { incoming } = &mut inst.kind {
                    found = Some((bid, i, std::mem::take(incoming)));
                    break 'outer;
                }
            }
        }
        let Some((bid, i, incoming)) = found else { break };
        let inst = f.blocks[bid].insts.remove(i);
        let result = inst.results[0];
        let ty = f.values[result].ty;
        let name = match f.values[result].phi_of {
            Some(promoted) => format!("{}.ph", f.locals[promoted].name),
            None => format!("phi{}.ph", result.0),
        };
        let slot = f.locals.push(netcl_ir::func::LocalSlot { name, ty, count: 1 });
        let zero_idx = Operand::imm(0, IrTy::I32);
        // Store in each incoming predecessor, before its terminator.
        for (pred, value) in incoming {
            f.blocks[pred].insts.push(Inst {
                kind: InstKind::LocalStore { slot, index: zero_idx, value },
                results: Results::NONE,
            });
        }
        // Load at the φ's position, defining the original value id.
        f.blocks[bid].insts.insert(
            i,
            Inst {
                kind: InstKind::LocalLoad { slot, index: zero_idx },
                results: Results::one(result),
            },
        );
        removed += 1;
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, FuncBuilder, Terminator};
    use netcl_ir::interp::{execute, DeviceState, ExecEnv};
    use netcl_ir::types::{IcmpPred, Operand as Op};
    use netcl_ir::verify::verify_function;
    use netcl_ir::Module;

    fn phi_diamond() -> Function {
        let mut b = FuncBuilder::new("k", 1);
        let argc = b.add_arg("c", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let i0 = Op::imm(0, IrTy::I32);
        let c = b.emit(InstKind::ArgRead { arg: argc, index: i0 }, IrTy::I32).unwrap();
        let cond = b.icmp(IcmpPred::Ne, Op::Value(c), Op::imm(0, IrTy::I32));
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.terminate(Terminator::CondBr { cond, then_bb: t, else_bb: e });
        b.switch_to(t);
        b.terminate(Terminator::Br(j));
        b.switch_to(e);
        b.terminate(Terminator::Br(j));
        b.switch_to(j);
        let phi = b
            .emit(
                InstKind::Phi {
                    incoming: vec![(t, Op::imm(11, IrTy::I32)), (e, Op::imm(22, IrTy::I32))],
                },
                IrTy::I32,
            )
            .unwrap();
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: Op::Value(phi) }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.finish()
    }

    #[test]
    fn phi_becomes_store_load() {
        let orig = phi_diamond();
        let mut f = orig.clone();
        assert_eq!(run_on_function(&mut f), 1);
        verify_function(&f, None).unwrap();
        assert!(!f
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i.kind, InstKind::Phi { .. }))));
        // One new scalar slot exists; stores in both preds; load at join.
        assert_eq!(f.locals.len(), 1);

        let m = Module::default();
        for c in [0u64, 1, 9] {
            let mut st1 = DeviceState::new(&m);
            let mut st2 = DeviceState::new(&m);
            let mut a1 = vec![vec![c], vec![0u64]];
            let mut a2 = vec![vec![c], vec![0u64]];
            execute(&orig, &m, &mut st1, &mut a1, &mut ExecEnv::default()).unwrap();
            execute(&f, &m, &mut st2, &mut a2, &mut ExecEnv::default()).unwrap();
            assert_eq!(a1, a2);
        }
    }

    #[test]
    fn idempotent_on_phi_free_ir() {
        let mut f = phi_diamond();
        run_on_function(&mut f);
        assert_eq!(run_on_function(&mut f), 0);
    }

    #[test]
    fn roundtrip_with_mem2reg() {
        // mem2reg introduces φs; phielim removes them; semantics unchanged.
        let mut f = phi_diamond();
        run_on_function(&mut f);
        // mem2reg promotes the slot back into a φ.
        assert_eq!(crate::mem2reg::run_on_function(&mut f), 1);
        let phis: usize = f
            .blocks
            .iter()
            .map(|b| b.insts.iter().filter(|i| matches!(i.kind, InstKind::Phi { .. })).count())
            .sum();
        assert_eq!(phis, 1);
        run_on_function(&mut f);
        verify_function(&f, None).unwrap();
        let m = Module::default();
        let mut st = DeviceState::new(&m);
        let mut args = vec![vec![1u64], vec![0u64]];
        execute(&f, &m, &mut st, &mut args, &mut ExecEnv::default()).unwrap();
        assert_eq!(args[1][0], 11);
    }
}
