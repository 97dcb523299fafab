//! IR structural verifier.
//!
//! Run after lowering and between passes in debug builds and tests. Checks:
//!
//! * every block has a terminator and branch targets are in range
//! * every operand refers to a defined value, and the definition dominates
//!   the use (φ uses are checked on the incoming edge)
//! * φ-nodes have exactly one incoming per predecessor and appear before
//!   non-φ instructions
//! * result counts match instruction kinds; `Lookup` hit is `i1`
//! * binary/icmp operands have matching widths
//! * memory references carry one index per declared dimension

use crate::dom::DomTree;
use crate::func::{BlockId, Function, InstKind, Module, Terminator, ValueId};
use crate::types::{IrTy, Operand};
use netcl_util::idx::IndexVec;

/// A verifier failure (module- or function-level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub(crate) func: String,
    /// Block in which the problem sits (if applicable).
    pub(crate) block: Option<BlockId>,
    /// Description.
    pub(crate) message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.block {
            Some(b) => write!(f, "{}/{:?}: {}", self.func, b, self.message),
            None => write!(f, "{}: {}", self.func, self.message),
        }
    }
}

/// Verifies a whole module.
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for k in &m.kernels {
        if let Err(mut e) = verify_function(k, Some(m)) {
            errors.append(&mut e);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Verifies one function (module optional for memory-shape checks).
pub fn verify_function(f: &Function, module: Option<&Module>) -> Result<(), Vec<VerifyError>> {
    let mut v = Verifier { f, module, errors: Vec::new() };
    v.run();
    if v.errors.is_empty() {
        Ok(())
    } else {
        Err(v.errors)
    }
}

struct Verifier<'a> {
    f: &'a Function,
    module: Option<&'a Module>,
    errors: Vec<VerifyError>,
}

impl<'a> Verifier<'a> {
    fn err(&mut self, block: Option<BlockId>, msg: impl Into<String>) {
        self.errors.push(VerifyError { func: self.f.name.clone(), block, message: msg.into() });
    }

    fn run(&mut self) {
        // Definition sites, indexed by value.
        let mut def_site: IndexVec<ValueId, Option<(BlockId, usize)>> =
            self.f.values.indices().map(|_| None).collect();
        for (bid, b) in self.f.blocks.iter_enumerated() {
            for (i, inst) in b.insts.iter().enumerate() {
                if inst.results.len() != inst.kind.result_count() {
                    self.err(
                        Some(bid),
                        format!(
                            "instruction declares {} results, kind requires {}",
                            inst.results.len(),
                            inst.kind.result_count()
                        ),
                    );
                }
                for &r in &inst.results {
                    match def_site.get_mut(r).map(|site| site.replace((bid, i))) {
                        None => self.err(Some(bid), format!("result {r:?} not in value table")),
                        Some(Some(_)) => self.err(Some(bid), format!("value {r:?} defined twice")),
                        Some(None) => {}
                    }
                }
            }
        }

        // Terminators & φ shape.
        let dt = DomTree::compute(self.f);
        let preds = &dt.preds;
        for (bid, b) in self.f.blocks.iter_enumerated() {
            match &b.term {
                Terminator::Unterminated => self.err(Some(bid), "block lacks a terminator"),
                t => {
                    for s in t.successors() {
                        if self.f.blocks.get(s).is_none() {
                            self.err(Some(bid), format!("branch to unknown block {s:?}"));
                        }
                    }
                }
            }
            let mut seen_non_phi = false;
            for inst in &b.insts {
                match &inst.kind {
                    InstKind::Phi { incoming } => {
                        if seen_non_phi {
                            self.err(Some(bid), "φ-node after non-φ instruction");
                        }
                        let mut ps: Vec<BlockId> = incoming.iter().map(|(p, _)| *p).collect();
                        ps.sort_unstable();
                        let mut expect = preds[bid].to_vec();
                        expect.sort_unstable();
                        expect.dedup();
                        ps.dedup();
                        if ps != expect {
                            self.err(
                                Some(bid),
                                format!("φ incoming {ps:?} does not match predecessors {expect:?}"),
                            );
                        }
                    }
                    _ => seen_non_phi = true,
                }
            }
        }

        // Dominance of uses + type checks.
        let def = |v: ValueId| def_site.get(v).copied().flatten();
        for (bid, b) in self.f.blocks.iter_enumerated() {
            if !dt.is_reachable(bid) {
                continue;
            }
            for (i, inst) in b.insts.iter().enumerate() {
                if let InstKind::Phi { incoming } = &inst.kind {
                    for (pred, op) in incoming {
                        if let Operand::Value(v) = op {
                            match def(*v) {
                                None => self.err(Some(bid), format!("use of undefined {v:?}")),
                                Some((db, _)) => {
                                    if dt.is_reachable(*pred) && !dt.dominates(db, *pred) {
                                        self.err(
                                            Some(bid),
                                            format!(
                                                "φ incoming {v:?} from {pred:?} not dominated by def in {db:?}"
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                    continue;
                }
                inst.kind.for_each_operand(|op| {
                    if let Operand::Value(v) = op {
                        match def(v) {
                            None => self.err(Some(bid), format!("use of undefined {v:?}")),
                            Some((db, di)) => {
                                let ok = if db == bid { di < i } else { dt.dominates(db, bid) };
                                if !ok {
                                    self.err(
                                        Some(bid),
                                        format!("{v:?} used before its definition dominates"),
                                    );
                                }
                            }
                        }
                    }
                });
                self.check_types(bid, inst);
            }
            if let Terminator::CondBr { cond, .. } = &b.term {
                if self.f.operand_ty(*cond) != IrTy::I1 {
                    self.err(Some(bid), "condbr condition must be i1");
                }
            }
        }
    }

    fn check_types(&mut self, bid: BlockId, inst: &crate::func::Inst) {
        let ty = |op: Operand| self.f.operand_ty(op);
        match &inst.kind {
            InstKind::Bin { a, b, .. } => {
                if ty(*a) != ty(*b) {
                    self.err(
                        Some(bid),
                        format!("binary operand width mismatch: {:?} vs {:?}", ty(*a), ty(*b)),
                    );
                }
                if let Some(&r) = inst.results.first() {
                    if self.f.value_ty(r) != ty(*a) {
                        self.err(Some(bid), "binary result width differs from operands");
                    }
                }
            }
            InstKind::Icmp { a, b, .. } => {
                if ty(*a) != ty(*b) {
                    self.err(Some(bid), "icmp operand width mismatch");
                }
                if let Some(&r) = inst.results.first() {
                    if self.f.value_ty(r) != IrTy::I1 {
                        self.err(Some(bid), "icmp result must be i1");
                    }
                }
            }
            InstKind::Select { cond, a, b } => {
                if ty(*cond) != IrTy::I1 {
                    self.err(Some(bid), "select condition must be i1");
                }
                if ty(*a) != ty(*b) {
                    self.err(Some(bid), "select arm width mismatch");
                }
            }
            InstKind::Lookup { table, .. } => {
                if let Some(&hit) = inst.results.first() {
                    if self.f.value_ty(hit) != IrTy::I1 {
                        self.err(Some(bid), "lookup hit result must be i1");
                    }
                }
                if let Some(m) = self.module {
                    if !m.global(*table).lookup {
                        self.err(Some(bid), "lookup on non-lookup global");
                    }
                }
            }
            InstKind::MemRead { mem } | InstKind::MemWrite { mem, .. } => {
                if let Some(m) = self.module {
                    let g = m.global(mem.mem);
                    if mem.indices.len() != g.dims.len() {
                        self.err(
                            Some(bid),
                            format!(
                                "memory reference to `{}` has {} indices for {} dimensions",
                                g.name,
                                mem.indices.len(),
                                g.dims.len()
                            ),
                        );
                    }
                    if g.lookup {
                        self.err(Some(bid), "direct access to lookup memory");
                    }
                }
            }
            InstKind::AtomicRmw(a) => {
                let crate::func::Atomic { op, mem, cond, operands } = &**a;
                if op.cond != cond.is_some() {
                    self.err(Some(bid), "atomic condition operand mismatch");
                }
                if operands.len() != op.rmw.value_operands() {
                    self.err(Some(bid), "atomic value operand count mismatch");
                }
                if let Some(m) = self.module {
                    let g = m.global(mem.mem);
                    if mem.indices.len() != g.dims.len() {
                        self.err(Some(bid), "atomic index count mismatch");
                    }
                }
            }
            InstKind::LocalLoad { slot, .. } | InstKind::LocalStore { slot, .. }
                if self.f.locals.get(*slot).is_none() =>
            {
                self.err(Some(bid), format!("unknown local slot {slot:?}"));
            }
            InstKind::ArgRead { arg, .. } | InstKind::ArgWrite { arg, .. }
                if *arg as usize >= self.f.args.len() =>
            {
                self.err(Some(bid), format!("argument index {arg} out of range"));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{ActionRef, FuncBuilder, Inst, Results, Terminator};
    use crate::types::{IrBinOp, Operand as Op};

    #[test]
    fn valid_function_passes() {
        let mut b = FuncBuilder::new("k", 1);
        let arg = b.add_arg("x", IrTy::I32, 1, false);
        let x = b.emit(InstKind::ArgRead { arg, index: Op::imm(0, IrTy::I32) }, IrTy::I32).unwrap();
        b.bin(IrBinOp::Add, Op::Value(x), Op::imm(1, IrTy::I32), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        assert!(verify_function(&f, None).is_ok());
    }

    #[test]
    fn width_mismatch_detected() {
        let mut b = FuncBuilder::new("k", 1);
        b.bin(IrBinOp::Add, Op::imm(1, IrTy::I32), Op::imm(1, IrTy::I16), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        let errs = verify_function(&f, None).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("width mismatch")), "{errs:?}");
    }

    #[test]
    fn use_before_def_detected() {
        let mut b = FuncBuilder::new("k", 1);
        // Manually craft a use of a value defined later.
        let later = b.func.values.push(crate::func::ValueInfo::of(IrTy::I32));
        b.func.blocks[b.current].insts.push(Inst {
            kind: InstKind::Bin { op: IrBinOp::Add, a: Op::Value(later), b: Op::imm(1, IrTy::I32) },
            results: Results::one(b.func.values.push(crate::func::ValueInfo::of(IrTy::I32))),
        });
        b.func.blocks[b.current].insts.push(Inst {
            kind: InstKind::Bin {
                op: IrBinOp::Add,
                a: Op::imm(1, IrTy::I32),
                b: Op::imm(2, IrTy::I32),
            },
            results: Results::one(later),
        });
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        let errs = verify_function(&f, None).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("before its definition")), "{errs:?}");
    }

    #[test]
    fn bad_branch_target_detected() {
        let mut b = FuncBuilder::new("k", 1);
        b.terminate(Terminator::Br(crate::func::BlockId(99)));
        let f = b.finish();
        let errs = verify_function(&f, None).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown block")));
    }

    #[test]
    fn condbr_condition_must_be_i1() {
        let mut b = FuncBuilder::new("k", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I32), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        let errs = verify_function(&f, None).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("must be i1")));
    }
}
