//! CFG simplification and the DAG check.
//!
//! §VI-B: "The main goal is for the CFG to become a DAG; otherwise, a
//! relevant error is issued" — P4 pipelines are feed-forward, so any
//! remaining loop (a `while` the unroller could not remove, or irreducible
//! flow) rejects the program.

use netcl_ir::func::{BlockId, Function, InstKind, Terminator};
use netcl_util::idx::{Idx, IndexVec};

/// Simplifies the CFG: forwards branches through empty blocks, merges
/// single-pred/single-succ straight lines, and collapses condbr with equal
/// targets. Returns whether anything changed.
pub fn simplify(f: &mut Function) -> bool {
    let mut changed = false;
    changed |= collapse_trivial_condbr(f);
    changed |= thread_empty_blocks(f);
    changed |= merge_straight_lines(f);
    changed
}

fn collapse_trivial_condbr(f: &mut Function) -> bool {
    let mut changed = false;
    for b in f.blocks.iter_mut() {
        if let Terminator::CondBr { then_bb, else_bb, .. } = b.term {
            if then_bb == else_bb {
                b.term = Terminator::Br(then_bb);
                changed = true;
            }
        }
    }
    changed
}

/// Redirects branches whose target is an empty block that just branches on.
fn thread_empty_blocks(f: &mut Function) -> bool {
    // Each empty forwarder's target (any other block's is itself); chains
    // are followed to their end. A block with φ-nodes is not skippable (the
    // edge identity matters).
    let mut forward: IndexVec<BlockId, BlockId> = f.blocks.indices().collect();
    let mut forwarders = 0usize;
    for (bid, b) in f.blocks.iter_enumerated() {
        if b.insts.is_empty() {
            if let Terminator::Br(t) = b.term {
                if t != bid && !has_phis(f, t) {
                    forward[bid] = t;
                    forwarders += 1;
                }
            }
        }
    }
    if forwarders == 0 {
        return false;
    }
    let resolve = |mut b: BlockId| {
        for _ in 0..=forwarders {
            match forward.get(b) {
                Some(&n) if n != b => b = n,
                _ => break,
            }
        }
        b
    };
    let mut changed = false;
    for b in f.blocks.iter_mut() {
        match &mut b.term {
            Terminator::Br(t) => {
                let n = resolve(*t);
                if n != *t {
                    *t = n;
                    changed = true;
                }
            }
            Terminator::CondBr { then_bb, else_bb, .. } => {
                let nt = resolve(*then_bb);
                let ne = resolve(*else_bb);
                if nt != *then_bb || ne != *else_bb {
                    *then_bb = nt;
                    *else_bb = ne;
                    changed = true;
                }
            }
            _ => {}
        }
    }
    changed
}

fn has_phis(f: &Function, b: BlockId) -> bool {
    f.blocks[b].insts.iter().any(|i| matches!(i.kind, InstKind::Phi { .. }))
}

/// Which blocks the entry reaches, indexed by block. Out-of-range targets
/// are skipped; the verifier reports them.
pub(crate) fn reachable_blocks(f: &Function) -> Vec<bool> {
    let mut reachable = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry];
    reachable[f.entry.index()] = true;
    while let Some(b) = stack.pop() {
        for s in f.blocks[b].term.successors() {
            if s.index() < reachable.len() && !std::mem::replace(&mut reachable[s.index()], true) {
                stack.push(s);
            }
        }
    }
    reachable
}

/// Merges `a → b` when `a` ends in an unconditional branch to `b` and `b`
/// has exactly one predecessor.
///
/// One pass in block order suffices: a merge retires `b` and hands its
/// out-edges to `a`, so no other block's reachability or live in-edge count
/// changes, and the only new candidate is `a` itself (followed at once).
fn merge_straight_lines(f: &mut Function) -> bool {
    let mut reachable = reachable_blocks(f);
    // In-edges from reachable blocks (unreachable predecessors don't block
    // merging); a condbr with both arms on one block counts twice.
    let mut live_preds = vec![0u32; f.blocks.len()];
    for (bid, b) in f.blocks.iter_enumerated() {
        if reachable[bid.index()] {
            for s in b.term.successors() {
                if let Some(n) = live_preds.get_mut(s.index()) {
                    *n += 1;
                }
            }
        }
    }
    let mut changed = false;
    for a in f.blocks.indices() {
        if !reachable[a.index()] {
            continue;
        }
        while let Terminator::Br(b) = f.blocks[a].term {
            if b == a || live_preds.get(b.index()) != Some(&1) || b == f.entry || has_phis(f, b) {
                break;
            }
            // Splice b into a.
            let mut b_insts = std::mem::take(&mut f.blocks[b].insts);
            let b_term = std::mem::replace(&mut f.blocks[b].term, Terminator::Br(b));
            f.blocks[a].insts.append(&mut b_insts);
            f.blocks[a].term = b_term;
            reachable[b.index()] = false;
            live_preds[b.index()] = 0;
            // φ-nodes in b's successors must re-home their incoming edge.
            for s in f.blocks[a].term.successors() {
                for inst in &mut f.blocks[s].insts {
                    if let InstKind::Phi { incoming } = &mut inst.kind {
                        for (p, _) in incoming {
                            if *p == b {
                                *p = a;
                            }
                        }
                    }
                }
            }
            changed = true;
        }
    }
    changed
}

/// Checks that the reachable CFG is a DAG. Returns a description of the
/// offending cycle otherwise.
pub fn check_dag(f: &Function) -> Result<(), String> {
    // A back edge in DFS ⇔ a cycle.
    let n = f.blocks.len();
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut stack = vec![(f.entry, f.blocks[f.entry].term.successors())];
    color[f.entry.index()] = 1;
    while let Some((b, succs)) = stack.last_mut() {
        let b = *b;
        let Some(s) = succs.next() else {
            color[b.index()] = 2;
            stack.pop();
            continue;
        };
        match color.get(s.index()).copied().unwrap_or(2) {
            0 => {
                color[s.index()] = 1;
                stack.push((s, f.blocks[s].term.successors()));
            }
            1 => {
                return Err(format!(
                    "kernel `{}` contains a loop the compiler could not fully unroll \
                     ({b:?} → {s:?}); P4 pipelines are feed-forward (§V-D)",
                    f.name
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, FuncBuilder};
    use netcl_ir::types::{IrBinOp, IrTy, Operand as Op};

    #[test]
    fn threads_empty_blocks() {
        let mut b = FuncBuilder::new("k", 1);
        let mid = b.new_block();
        let end = b.new_block();
        b.terminate(Terminator::Br(mid));
        b.switch_to(mid);
        b.terminate(Terminator::Br(end));
        b.switch_to(end);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        assert!(simplify(&mut f));
        // After threading + merging, the entry returns directly.
        assert!(matches!(f.blocks[f.entry].term, Terminator::Ret(_)));
        assert_eq!(reachable_blocks(&f).iter().filter(|&&r| r).count(), 1);
    }

    #[test]
    fn merges_straight_line_with_instructions() {
        let mut b = FuncBuilder::new("k", 1);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let next = b.new_block();
        let x = b.bin(IrBinOp::Add, Op::imm(1, IrTy::I32), Op::imm(2, IrTy::I32), IrTy::I32);
        b.terminate(Terminator::Br(next));
        b.switch_to(next);
        b.emit(InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: x }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        assert!(simplify(&mut f));
        assert_eq!(f.blocks[f.entry].insts.len(), 2);
        assert!(matches!(f.blocks[f.entry].term, Terminator::Ret(_)));
    }

    #[test]
    fn collapses_equal_target_condbr() {
        let mut b = FuncBuilder::new("k", 1);
        let t = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: t });
        b.switch_to(t);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        assert!(simplify(&mut f));
        assert!(matches!(f.blocks[f.entry].term, Terminator::Ret(_)));
    }

    #[test]
    fn dag_check_accepts_diamond() {
        let mut b = FuncBuilder::new("k", 1);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.terminate(Terminator::Br(j));
        b.switch_to(e);
        b.terminate(Terminator::Br(j));
        b.switch_to(j);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        assert!(check_dag(&f).is_ok());
    }

    #[test]
    fn dag_check_rejects_loop() {
        let mut b = FuncBuilder::new("spin", 1);
        let body = b.new_block();
        b.terminate(Terminator::Br(body));
        b.switch_to(body);
        b.terminate(Terminator::CondBr {
            cond: Op::imm(1, IrTy::I1),
            then_bb: body,
            else_bb: b.func.entry,
        });
        let f = b.finish();
        let err = check_dag(&f).unwrap_err();
        assert!(err.contains("feed-forward"));
        assert!(err.contains("spin"));
    }
}
