//! The placement plan: every decision about where a kernel's values live,
//! made once per kernel over dense ids, before anything is emitted.
//!
//! Invariants the emitter relies on:
//! * every SSA value an emitted instruction defines has a [`Place`]; a
//!   forwarded value's defining `ArgRead` is not emitted, and neither is
//!   the `ArgWrite` a forwarded atomic result replaces;
//! * every `meta` local a value or scalar slot needs is named in
//!   [`KernelPlan::locals`], in declaration order (values in block and
//!   instruction order, then scalar slots);
//! * each argument's and slot's [`Storage`] is built once, here.

use netcl_ir::func::{BlockId, Function, Inst, InstKind, Terminator};
use netcl_ir::types::Operand;
use netcl_ir::ValueId;
use netcl_p4::ast::{Expr, Name, Ns, Path};
use netcl_passes::structurize::immediate_postdominators;
use netcl_util::bitset::BitSet;
use netcl_util::idx::{Idx, IndexVec};
use std::fmt::Write;

use super::{arg_stack, sanitize};

/// Where consumers of an SSA value read it.
pub(super) enum Place {
    /// Forwarded: consumers read, or the SALU writes, an argument's header
    /// field directly; no local is declared.
    Header(Expr),
    /// Materialised in `meta.<locals[i]>`.
    Meta(usize),
}

/// Where a kernel argument or local slot lives.
pub(super) enum Storage {
    /// One field: `hdr.args_c1.a0_op`, `meta.k1_l0_x`.
    Scalar(Expr),
    /// A header stack of `count` elements of `bits` each:
    /// `hdr.<name>[i].value`.
    Stack { name: String, count: u32, bits: u32 },
}

impl Storage {
    /// Element `k`; a scalar ignores the index.
    pub(super) fn element(&self, k: u32) -> Expr {
        match self {
            Storage::Scalar(e) => e.clone(),
            Storage::Stack { name, .. } => stack_element(name, k),
        }
    }
}

/// `hdr.<stack>[k].value`.
pub(super) fn stack_element(stack: &str, k: u32) -> Expr {
    let mut path = Path::new(Ns::Hdr);
    let _ = write!(path, "{stack}[{k}].value");
    Expr::Field(path)
}

/// Everything decided about one kernel.
pub(super) struct KernelPlan {
    /// Per value; `None` for values no instruction of the kernel defines.
    pub(crate) values: IndexVec<ValueId, Option<Place>>,
    /// Per argument.
    pub(crate) args: Vec<Storage>,
    /// Per local slot.
    pub(crate) slots: IndexVec<netcl_ir::LocalId, Storage>,
    /// The `meta` locals the plan names, `(name, bits)`.
    pub(crate) locals: Vec<(Name, u32)>,
    /// Each block's region join (see `immediate_postdominators`).
    pub(crate) ipd: IndexVec<BlockId, Option<BlockId>>,
    /// Index of each block's first instruction in block-major order.
    first: IndexVec<BlockId, usize>,
    /// Instructions, in block-major order, that are not emitted.
    skip: BitSet,
}

/// How one value is used: by whom, where last.
#[derive(Clone, Copy, Default)]
struct Uses {
    count: u32,
    /// The block of the first use, and whether every use is in it.
    block: Option<BlockId>,
    one_block: bool,
    /// The latest use's instruction index (a terminator use counts as the
    /// block's length).
    last: usize,
}

impl KernelPlan {
    /// Whether instruction `i` of block `b` is emitted.
    pub(super) fn emits(&self, b: BlockId, i: usize) -> bool {
        !self.skip.contains(self.first[b] + i)
    }

    pub(super) fn build(f: &Function) -> KernelPlan {
        let mut first = IndexVec::new();
        let mut total = 0;
        for b in f.blocks.iter() {
            first.push(total);
            total += b.insts.len();
        }
        let uses = use_summary(f);
        let args: Vec<Storage> = f
            .args
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if a.count == 1 {
                    let header = format!("args_c{}", f.computation);
                    let field = format!("a{i}_{}", a.name);
                    Storage::Scalar(Expr::field(&["hdr", &header, &field]))
                } else {
                    let bits = (a.ty.bits as u32).max(8);
                    Storage::Stack { name: arg_stack(f.computation, i), count: a.count, bits }
                }
            })
            .collect();
        let mut plan = KernelPlan {
            values: f.values.indices().map(|_| None).collect(),
            args,
            slots: IndexVec::new(),
            locals: Vec::new(),
            ipd: immediate_postdominators(f),
            first,
            skip: BitSet::new(total),
        };
        plan.forward(f, &uses);
        // Every other result gets a `meta` local.
        let c = f.computation;
        for inst in f.blocks.iter().flat_map(|b| &b.insts) {
            for &r in &inst.results {
                if plan.values[r].is_none() {
                    plan.values[r] = Some(Place::Meta(plan.locals.len()));
                    let bits = (f.value_ty(r).bits as u32).max(1);
                    plan.locals.push((format!("k{c}_t{}", r.0).into(), bits));
                }
            }
        }
        // Scalar slots are `meta` locals; arrays are header stacks.
        for (id, slot) in f.locals.iter_enumerated() {
            plan.slots.push(if slot.count == 1 {
                let name = format!("k{c}_l{}_{}", id.index(), sanitize(&slot.name));
                let storage = Storage::Scalar(Expr::field(&["meta", &name]));
                plan.locals.push((name.into(), (slot.ty.bits as u32).max(1)));
                storage
            } else {
                let name = format!("k{c}_loc{}", id.index());
                Storage::Stack { name, count: slot.count, bits: (slot.ty.bits as u32).max(8) }
            });
        }
        plan
    }

    /// Operand forwarding, the two shapes handwritten P4 uses:
    /// 1. an `ArgRead` at a constant index whose uses all sit in its block,
    ///    with no write to that argument before the last use: consumers read
    ///    the header field;
    /// 2. an atomic whose one use is a later `ArgWrite` at a constant index
    ///    in its block, with nothing in between touching that argument or
    ///    using a value forwarded from that field: the SALU writes the
    ///    header field itself.
    fn forward(&mut self, f: &Function, uses: &IndexVec<ValueId, Uses>) {
        for (bid, b) in f.blocks.iter_enumerated() {
            for (i, inst) in b.insts.iter().enumerate() {
                match &inst.kind {
                    InstKind::ArgRead { arg, index } => {
                        let Some(k) = index.as_const() else { continue };
                        let u = uses[inst.results[0]];
                        if u.count == 0 || !u.one_block || u.block != Some(bid) {
                            continue;
                        }
                        let writes = |x: &Inst| arg_access(x) == Some((*arg, true));
                        if b.insts[i + 1..u.last.min(b.insts.len())].iter().any(writes) {
                            continue;
                        }
                        let field = self.args[*arg as usize].element(k as u32);
                        self.values[inst.results[0]] = Some(Place::Header(field));
                        self.skip.insert(self.first[bid] + i);
                    }
                    InstKind::AtomicRmw { .. } => {
                        let Some(&r) = inst.results.first() else { continue };
                        let u = uses[r];
                        if u.count != 1 || u.block != Some(bid) || u.last >= b.insts.len() {
                            continue;
                        }
                        let w = u.last;
                        let InstKind::ArgWrite { arg, index, value } = &b.insts[w].kind else {
                            continue;
                        };
                        let Some(k) = index.as_const() else { continue };
                        let field = self.args[*arg as usize].element(k as u32);
                        // A read forwarded from the field and used before
                        // the write would see the SALU's output instead.
                        let from_field = |op: Operand| match op {
                            Operand::Value(v) => {
                                matches!(&self.values[v], Some(Place::Header(e)) if *e == field)
                            }
                            Operand::Const(..) => false,
                        };
                        let touches = |x: &Inst| {
                            let mut reads_field = false;
                            x.kind.for_each_operand(|op| reads_field |= from_field(op));
                            reads_field || arg_access(x).is_some_and(|(a, _)| a == *arg)
                        };
                        if *value != Operand::Value(r) || b.insts[i + 1..w].iter().any(touches) {
                            continue;
                        }
                        self.values[r] = Some(Place::Header(field));
                        self.skip.insert(self.first[bid] + w);
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The argument an instruction reads or writes, and whether it writes.
fn arg_access(inst: &Inst) -> Option<(u32, bool)> {
    match inst.kind {
        InstKind::ArgRead { arg, .. } => Some((arg, false)),
        InstKind::ArgWrite { arg, .. } => Some((arg, true)),
        _ => None,
    }
}

/// Every value's [`Uses`], in one walk.
fn use_summary(f: &Function) -> IndexVec<ValueId, Uses> {
    let mut uses: IndexVec<ValueId, Uses> = f.values.indices().map(|_| Uses::default()).collect();
    for (bid, b) in f.blocks.iter_enumerated() {
        let mut record = |op: Operand, at: usize| {
            if let Operand::Value(v) = op {
                let u = &mut uses[v];
                if u.count == 0 {
                    (u.block, u.one_block) = (Some(bid), true);
                }
                u.one_block &= u.block == Some(bid);
                u.count += 1;
                u.last = u.last.max(at);
            }
        };
        for (i, inst) in b.insts.iter().enumerate() {
            inst.kind.for_each_operand(|op| record(op, i));
        }
        match &b.term {
            Terminator::CondBr { cond, .. } => record(*cond, b.insts.len()),
            Terminator::Ret(a) => a.target.into_iter().for_each(|t| record(t, b.insts.len())),
            _ => {}
        }
    }
    uses
}
