//! Emission: a [`KernelPlan`] and its kernel turned into P4 statements and
//! declarations, deciding nothing the plan decides.
//!
//! The only names made here are per-site resources — `ra_*`, `lu_*`,
//! `hash_*`, `idx_*`, `clz_*` and their `_rc`, `_lk`, `_ik`, `_iv`, `_h`,
//! `_clzk` temporaries — numbered per program in emission order, which is
//! region order: a branch's then-arm before its else-arm, both before the
//! join.

use netcl_ir::func::{
    Atomic, BlockId, Function, Inst, InstKind, IntrinsicCall, MemId, MsgField, Terminator,
};
use netcl_ir::types::{CastKind, IcmpPred, IrBinOp, IrTy, IrUnOp, Operand};
use netcl_ir::ValueId;
use netcl_p4::ast::*;
use netcl_sema::builtins::{AtomicOp, AtomicRmw};
use netcl_sema::model::LookupEntry;
use std::sync::Arc;

use super::plan::{stack_element, KernelPlan, Place, Storage};
use super::{sanitize, Codegen, CodegenError, NCL_HDR};

/// Per-program counters of the per-site resources.
#[derive(Default)]
pub(super) struct Counters {
    ra: u32,
    lu: u32,
    hash: u32,
    idx: u32,
    clz: u32,
}

fn next(counter: &mut u32) -> u32 {
    *counter += 1;
    *counter - 1
}

fn bin(op: P4BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Bin(op, Box::new(a), Box::new(b))
}

fn cast(bits: u32, e: Expr) -> Expr {
    Expr::Cast(bits, Box::new(e))
}

fn meta(name: &str) -> Expr {
    Expr::field(&["meta", name])
}

/// `e == 1w1`: an `i1` as a P4 condition.
fn is_set(e: Expr) -> Expr {
    bin(P4BinOp::Eq, e, Expr::Const(1, 1))
}

/// `(e)[bit:bit] == 1w1`.
fn bit_set(e: Expr, bit: u32) -> Expr {
    is_set(Expr::Slice(Box::new(e), bit, bit))
}

/// A read into `dst`, or a write of `value`.
enum Access {
    Read(Expr),
    Write(Expr),
}

/// Declares what `plan` names and emits kernel `f`'s body.
pub(super) fn kernel(
    cg: &mut Codegen,
    f: &Function,
    plan: &KernelPlan,
) -> Result<Vec<Stmt>, CodegenError> {
    cg.control.locals.extend(plan.locals.iter().cloned());
    for slot in plan.slots.iter() {
        if let Storage::Stack { name, count, bits } = slot {
            Arc::make_mut(&mut cg.program.headers).push(HeaderDef {
                name: format!("{name}_t"),
                fields: vec![("value".into(), *bits)],
                stack: *count,
            });
        }
    }
    Emitter { module: cg.module, control: &mut cg.control, counters: &mut cg.counters, f, plan }
        .region(f.entry, None)
}

struct Emitter<'a> {
    module: &'a netcl_ir::Module,
    control: &'a mut ControlDef,
    counters: &'a mut Counters,
    f: &'a Function,
    plan: &'a KernelPlan,
}

impl<'a> Emitter<'a> {
    /// A per-site temporary: `k<computation>_<kind><n>`, declared.
    fn temp(&mut self, kind: &str, n: u32, bits: u32) -> Name {
        let name: Name = format!("k{}_{kind}{n}", self.f.computation).into();
        self.control.locals.push((name.clone(), bits));
        name
    }

    fn op_expr(&self, op: Operand) -> Expr {
        match op {
            Operand::Const(c, ty) => Expr::Const(c, ty.bits as u32),
            Operand::Value(v) => match &self.plan.values[v] {
                Some(Place::Header(e)) => e.clone(),
                Some(Place::Meta(i)) => meta(&self.plan.locals[*i].0),
                None => Expr::Const(0, 32),
            },
        }
    }

    fn dst(&self, r: ValueId) -> Expr {
        debug_assert!(self.plan.values[r].is_some(), "{r:?} has no place");
        self.op_expr(Operand::Value(r))
    }

    /// An `i1` operand as an `if` condition.
    fn cond_expr(&self, op: Operand) -> Expr {
        match op {
            Operand::Const(c, _) => Expr::Bool(c != 0),
            Operand::Value(_) => is_set(self.op_expr(op)),
        }
    }

    fn width(&self, op: Operand) -> u32 {
        self.f.operand_ty(op).bits as u32
    }

    // ---- regions -----------------------------------------------------------

    /// Emits the region from `entry` up to (not including) `stop`: straight
    /// runs inline, a conditional as an `if` whose arms end at its
    /// immediate post-dominator, where the region continues.
    fn region(&mut self, entry: BlockId, stop: Option<BlockId>) -> Result<Vec<Stmt>, CodegenError> {
        let f = self.f;
        let mut out = Vec::new();
        let mut current = entry;
        loop {
            if Some(current) == stop {
                return Ok(out);
            }
            let block = &f.blocks[current];
            for (i, inst) in block.insts.iter().enumerate() {
                if self.plan.emits(current, i) {
                    self.inst(inst, &mut out)?;
                }
            }
            match &block.term {
                Terminator::Ret(a) => {
                    let action = Expr::val(a.kind.code() as u64, 8);
                    out.push(Stmt::Assign(Expr::field(&["hdr", NCL_HDR, "action"]), action));
                    if let Some(t) = a.target {
                        let target = cast(16, self.op_expr(t));
                        out.push(Stmt::Assign(Expr::field(&["hdr", NCL_HDR, "target"]), target));
                    }
                    return Ok(out);
                }
                Terminator::Br(t) => current = *t,
                Terminator::CondBr { cond, then_bb, else_bb } => {
                    let join = self.plan.ipd[current].filter(|&m| Some(m) != stop);
                    let inner_stop = join.or(stop);
                    let then = self.region(*then_bb, inner_stop)?;
                    let els = self.region(*else_bb, inner_stop)?;
                    out.push(Stmt::If { cond: self.cond_expr(*cond), then, els });
                    match join {
                        Some(m) => current = m,
                        None => return Ok(out),
                    }
                }
                Terminator::Unterminated => {
                    return Err(CodegenError {
                        code: "E0310",
                        message: format!("kernel `{}` has an unterminated block", f.name),
                    })
                }
            }
        }
    }

    // ---- instructions ------------------------------------------------------

    fn inst(&mut self, inst: &Inst, out: &mut Vec<Stmt>) -> Result<(), CodegenError> {
        let plan = self.plan;
        let result = || inst.results[0];
        match &inst.kind {
            InstKind::Bin { op, a, b } => {
                let ty = self.f.value_ty(result());
                out.extend(self.bin_stmt(*op, *a, *b, self.dst(result()), ty)?);
            }
            InstKind::Un { op: IrUnOp::Bswap, a } => {
                // Byte swap in one stage: shifts and ors (16 bit) or four
                // byte slices moved into place (32 bit).
                let w = self.f.value_ty(result()).bits as u32;
                let e = if w == 16 {
                    let shift = |op, x| bin(op, x, Expr::Const(8, w));
                    let x = self.op_expr(*a);
                    bin(P4BinOp::Or, shift(P4BinOp::Shl, x.clone()), shift(P4BinOp::Shr, x))
                } else {
                    let byte = |lo: u32, to: u64| {
                        let b = cast(32, Expr::Slice(Box::new(self.op_expr(*a)), lo + 7, lo));
                        if to == 0 {
                            b
                        } else {
                            bin(P4BinOp::Shl, b, Expr::Const(to, 32))
                        }
                    };
                    let high = bin(P4BinOp::Or, byte(0, 24), byte(8, 16));
                    bin(P4BinOp::Or, high, bin(P4BinOp::Or, byte(16, 8), byte(24, 0)))
                };
                out.push(Stmt::Assign(self.dst(result()), e));
            }
            InstKind::Un { op: IrUnOp::Clz, a } => self.clz(*a, result(), out),
            InstKind::Icmp { pred, a, b } => {
                let e = cast(1, self.icmp_expr(*pred, *a, *b));
                out.push(Stmt::Assign(self.dst(result()), e));
            }
            InstKind::Select { cond, a, b } => {
                let dst = self.dst(result());
                out.push(Stmt::If {
                    cond: self.cond_expr(*cond),
                    then: vec![Stmt::Assign(dst.clone(), self.op_expr(*a))],
                    els: vec![Stmt::Assign(dst, self.op_expr(*b))],
                });
            }
            InstKind::Cast { kind, a, to } => {
                let (dst, from) = (self.dst(result()), self.f.operand_ty(*a));
                out.push(Stmt::Assign(dst.clone(), cast(to.bits as u32, self.op_expr(*a))));
                if matches!(kind, CastKind::Sext) && to.bits > from.bits {
                    // Zero-extended; OR the sign mask in when negative.
                    let mask = IrTy::int(to.bits).mask() & !IrTy::int(from.bits).mask();
                    let fill = bin(P4BinOp::Or, dst.clone(), Expr::Const(mask, to.bits as u32));
                    out.push(Stmt::If {
                        cond: bit_set(self.op_expr(*a), from.bits as u32 - 1),
                        then: vec![Stmt::Assign(dst, fill)],
                        els: vec![],
                    });
                }
            }
            InstKind::Phi { .. } => {
                return Err(CodegenError {
                    code: "E0311",
                    message: "φ-node reached code generation (phielim missing)".into(),
                })
            }
            InstKind::LocalLoad { slot, index } => {
                self.access(&plan.slots[*slot], *index, Access::Read(self.dst(result())), out)
            }
            InstKind::LocalStore { slot, index, value } => {
                let value = Access::Write(self.op_expr(*value));
                self.access(&plan.slots[*slot], *index, value, out)
            }
            InstKind::ArgRead { arg, index } => {
                let dst = Access::Read(self.dst(result()));
                self.access(&plan.args[*arg as usize], *index, dst, out)
            }
            InstKind::ArgWrite { arg, index, value } => {
                let value = Access::Write(self.op_expr(*value));
                self.access(&plan.args[*arg as usize], *index, value, out)
            }
            InstKind::MemRead { mem } => {
                let op = AtomicOp { rmw: AtomicRmw::Read, cond: false, ret_new: false };
                let dst = Some(self.dst(result()));
                self.register_access(mem.mem, &mem.indices, op, None, vec![], dst, out);
            }
            InstKind::MemWrite { mem, value } => {
                let op = AtomicOp { rmw: AtomicRmw::Swap, cond: false, ret_new: false };
                let value = vec![self.op_expr(*value)];
                self.register_access(mem.mem, &mem.indices, op, None, value, None, out);
            }
            InstKind::AtomicRmw(a) => {
                let Atomic { op, mem, cond, operands } = &**a;
                let dst = Some(self.dst(result()));
                let cond = cond.map(|c| self.cond_expr(c));
                let operands = operands.iter().map(|o| self.op_expr(*o)).collect();
                self.register_access(mem.mem, &mem.indices, *op, cond, operands, dst, out);
            }
            InstKind::Lookup { table, key } => {
                self.lookup(*table, *key, inst.results[0], inst.results[1], out)
            }
            InstKind::Hash { kind, bits, a } => {
                let n = next(&mut self.counters.hash);
                let hash = format!("hash_{n}");
                let (bits, dst_bits) = (*bits as u32, self.f.value_ty(result()).bits as u32);
                let def = HashDef { name: hash.clone(), algo: *kind, out_bits: bits };
                self.control.hashes.push(def);
                // An explicit cast pins the hashed width, so every execution
                // substrate hashes the same bytes.
                let args = vec![cast(self.width(*a), self.op_expr(*a))];
                if bits == dst_bits {
                    out.push(Stmt::HashGet { dst: self.dst(result()), hash, args });
                } else {
                    // Folded narrower than the result: hash into a temp of
                    // the fold width, then widen.
                    let tmp = meta(&self.temp("h", n, bits));
                    out.push(Stmt::HashGet { dst: tmp.clone(), hash, args });
                    out.push(Stmt::Assign(self.dst(result()), cast(dst_bits, tmp)));
                }
            }
            InstKind::Rand => {
                let dst = Some(self.dst(result()));
                out.push(Stmt::ExternCall { dst, func: "random".into(), args: vec![] });
            }
            InstKind::MsgField { field } => {
                let name = match field {
                    MsgField::Src => "src",
                    MsgField::Dst => "dst",
                    MsgField::From => "from",
                    MsgField::To => "to",
                };
                out.push(Stmt::Assign(self.dst(result()), Expr::field(&["hdr", NCL_HDR, name])));
            }
            InstKind::Intrinsic(call) => {
                let IntrinsicCall { target, name, args } = &**call;
                out.push(Stmt::ExternCall {
                    dst: Some(self.dst(result())),
                    func: format!("{target}_{name}"),
                    args: args.iter().map(|a| self.op_expr(*a)).collect(),
                });
            }
        }
        Ok(())
    }

    fn bin_stmt(
        &self,
        op: IrBinOp,
        a: Operand,
        b: Operand,
        dst: Expr,
        ty: IrTy,
    ) -> Result<Vec<Stmt>, CodegenError> {
        let (ae, be) = (self.op_expr(a), self.op_expr(b));
        let p4op = match op {
            IrBinOp::Add => P4BinOp::Add,
            IrBinOp::Sub => P4BinOp::Sub,
            IrBinOp::Mul => P4BinOp::Mul,
            IrBinOp::And => P4BinOp::And,
            IrBinOp::Or => P4BinOp::Or,
            IrBinOp::Xor => P4BinOp::Xor,
            IrBinOp::Shl => P4BinOp::Shl,
            IrBinOp::LShr => P4BinOp::Shr,
            IrBinOp::UAddSat => P4BinOp::SatAdd,
            IrBinOp::USubSat => P4BinOp::SatSub,
            IrBinOp::UMin | IrBinOp::SMin | IrBinOp::UMax | IrBinOp::SMax => {
                let pred = match op {
                    IrBinOp::UMin => IcmpPred::Ule,
                    IrBinOp::SMin => IcmpPred::Sle,
                    IrBinOp::UMax => IcmpPred::Uge,
                    _ => IcmpPred::Sge,
                };
                return Ok(vec![Stmt::If {
                    cond: self.icmp_expr(pred, a, b),
                    then: vec![Stmt::Assign(dst.clone(), ae)],
                    els: vec![Stmt::Assign(dst, be)],
                }]);
            }
            IrBinOp::AShr => {
                let Some(k) = b.as_const() else {
                    return Err(CodegenError {
                        code: "E0308",
                        message: "arithmetic shift by a dynamic amount is not expressible in P4; shift by a constant or use unsigned values".into(),
                    });
                };
                // Logical shift, then the sign mask filled in when negative.
                let w = ty.bits as u32;
                let mask = ty.mask() & !(ty.mask() >> k.min(63));
                let fill = bin(P4BinOp::Or, dst.clone(), Expr::Const(mask, w));
                return Ok(vec![
                    Stmt::Assign(dst.clone(), bin(P4BinOp::Shr, ae.clone(), be)),
                    Stmt::If {
                        cond: bit_set(ae, w - 1),
                        then: vec![Stmt::Assign(dst, fill)],
                        els: vec![],
                    },
                ]);
            }
            IrBinOp::UDiv | IrBinOp::SDiv | IrBinOp::URem | IrBinOp::SRem => {
                return Err(CodegenError {
                    code: "E0308",
                    message: "division/remainder survives to code generation; only power-of-two divisors are supported (they strength-reduce to shifts, §V-D)".into(),
                });
            }
        };
        Ok(vec![Stmt::Assign(dst, bin(p4op, ae, be))])
    }

    fn icmp_expr(&self, pred: IcmpPred, a: Operand, b: Operand) -> Expr {
        let (mut ae, mut be) = (self.op_expr(a), self.op_expr(b));
        // P4 bit<N> comparisons are unsigned. Signed predicates use the
        // sign-flip trick: slt(a,b) ⇔ ult(a ^ MSB, b ^ MSB).
        if matches!(pred, IcmpPred::Slt | IcmpPred::Sle | IcmpPred::Sgt | IcmpPred::Sge) {
            let w = self.width(a);
            let msb = Expr::Const(1u64 << (w - 1), w);
            ae = bin(P4BinOp::Xor, ae, msb.clone());
            be = bin(P4BinOp::Xor, be, msb);
        }
        let p4 = match pred {
            IcmpPred::Eq => P4BinOp::Eq,
            IcmpPred::Ne => P4BinOp::Ne,
            IcmpPred::Ult | IcmpPred::Slt => P4BinOp::Lt,
            IcmpPred::Ule | IcmpPred::Sle => P4BinOp::Le,
            IcmpPred::Ugt | IcmpPred::Sgt => P4BinOp::Gt,
            IcmpPred::Uge | IcmpPred::Sge => P4BinOp::Ge,
        };
        bin(p4, ae, be)
    }

    /// Count leading zeros as an LPM-style range table (§VI-B): one entry
    /// per leading-zero count.
    fn clz(&mut self, a: Operand, result: ValueId, out: &mut Vec<Stmt>) {
        let src_w = self.width(a);
        let n = next(&mut self.counters.clz);
        let key = meta(&self.temp("clzk", n, src_w));
        out.push(Stmt::Assign(key.clone(), self.op_expr(a)));
        let act = format!("clz_set_{n}");
        let w = self.f.value_ty(result).bits as u32;
        let body = vec![Stmt::Assign(self.dst(result), Expr::field(&["n"]))];
        self.control.actions.push(ActionDef {
            name: act.clone(),
            params: vec![("n".into(), w)],
            body,
        });
        let entry = |lo, hi, lz| TableEntry {
            keys: vec![EntryKey::Range(lo, hi)],
            action: act.clone(),
            args: vec![lz],
        };
        let mut entries: Vec<TableEntry> = (0..src_w)
            .map(|lz| {
                let hi_bit = src_w - 1 - lz;
                let hi = if hi_bit + 1 >= 64 { u64::MAX } else { (1u64 << (hi_bit + 1)) - 1 };
                entry(1u64 << hi_bit, hi, lz as u64)
            })
            .collect();
        entries.push(entry(0, 0, src_w as u64));
        let table = format!("clz_tbl_{n}");
        self.control.tables.push(TableDef {
            name: table.clone(),
            keys: vec![(key, MatchKind::Range)],
            actions: vec![act],
            entries,
            default_action: "NoAction".into(),
            size: src_w + 1,
        });
        out.push(Stmt::ApplyTable(table));
    }

    // ---- memory ------------------------------------------------------------

    /// A `Register` / `RegisterAction` access (Fig. 9, column 2).
    #[allow(clippy::too_many_arguments)]
    fn register_access(
        &mut self,
        mem: MemId,
        indices: &[Operand],
        op: AtomicOp,
        cond: Option<Expr>,
        operands: Vec<Expr>,
        dst: Option<Expr>,
        out: &mut Vec<Stmt>,
    ) {
        let g = self.module.global(mem);
        let n = next(&mut self.counters.ra);
        let ra: Name = format!("ra_{}_{n}", sanitize(&g.name)).into();
        // The SALU condition input must be a single field; a boolean
        // expression is materialised in a 1-bit temp first.
        let cond = cond.map(|c| match c {
            Expr::Field(_) => c,
            other => {
                let flag = meta(&self.temp("rc", n, 1));
                out.push(Stmt::Assign(flag.clone(), cast(1, other)));
                is_set(flag)
            }
        });
        let register = g.name.as_str().into();
        let def = RegisterActionDef { name: ra.clone(), register, op, cond, operands };
        self.control.register_actions.push(def);
        let index = self.flat_index(indices, &g.dims);
        out.push(Stmt::ExecuteRegisterAction { dst, ra, index });
    }

    /// A multi-dimensional index as a row-major offset.
    fn flat_index(&self, indices: &[Operand], dims: &[usize]) -> Expr {
        let mut terms = indices.iter().map(|i| cast(32, self.op_expr(*i)));
        let Some(first) = terms.next() else { return Expr::Const(0, 32) };
        terms.enumerate().fold(first, |acc, (i, e)| {
            let dim = dims.get(i + 1).copied().unwrap_or(1) as u64;
            bin(P4BinOp::Add, bin(P4BinOp::Mul, acc, Expr::Const(dim, 32)), e)
        })
    }

    /// A MAT lookup (Fig. 9, column 3): the key in a `meta` temp, one hit
    /// action writing the value, the hit flag set from `apply().hit`.
    fn lookup(
        &mut self,
        table: MemId,
        key: Operand,
        hit: ValueId,
        value: ValueId,
        out: &mut Vec<Stmt>,
    ) {
        let g = self.module.global(table);
        let n = next(&mut self.counters.lu);
        let tbl = format!("lu_{}_{n}", sanitize(&g.name));
        let act = format!("lu_hit_{}_{n}", sanitize(&g.name));
        let val_bits = (self.f.value_ty(value).bits as u32).max(1);
        let key_field = meta(&self.temp("lk", n, self.width(key)));
        out.push(Stmt::Assign(key_field.clone(), self.op_expr(key)));
        let (hit_dst, val_dst) = (self.dst(hit), self.dst(value));
        // Membership sets have Member-only entries; an *empty* table (a
        // managed kv populated at run time) still gets a value-writing
        // action.
        let is_set = !g.entries.is_empty()
            && g.entries.iter().all(|e| matches!(e, LookupEntry::Member { .. }));
        let is_range = g.entries.iter().any(|e| matches!(e, LookupEntry::Range { .. }));
        self.control.actions.push(if is_set {
            ActionDef { name: act.clone(), params: vec![], body: vec![] }
        } else {
            ActionDef {
                name: act.clone(),
                params: vec![("v".into(), val_bits)],
                body: vec![Stmt::Assign(val_dst.clone(), Expr::field(&["v"]))],
            }
        });
        let entries = g
            .entries
            .iter()
            .map(|e| {
                let (key, args) = match *e {
                    LookupEntry::Member { key } => (EntryKey::Value(key), vec![]),
                    LookupEntry::Exact { key, value } => (EntryKey::Value(key), vec![value]),
                    LookupEntry::Range { lo, hi, value } => (EntryKey::Range(lo, hi), vec![value]),
                };
                TableEntry { keys: vec![key], action: act.clone(), args }
            })
            .collect();
        let kind = if is_range { MatchKind::Range } else { MatchKind::Exact };
        self.control.tables.push(TableDef {
            name: tbl.clone(),
            keys: vec![(key_field, kind)],
            actions: vec![act],
            entries,
            default_action: "NoAction".into(),
            size: g.element_count().max(g.entries.len()).max(1) as u32,
        });
        out.push(Stmt::Assign(hit_dst.clone(), Expr::Const(0, 1)));
        out.push(Stmt::Assign(val_dst, Expr::Const(0, val_bits)));
        out.push(Stmt::If {
            cond: Expr::TableHit(tbl),
            then: vec![Stmt::Assign(hit_dst, Expr::Const(1, 1))],
            els: vec![],
        });
    }

    // ---- arguments and local slots -------------------------------------------

    /// The one access path for arguments and local slots alike: a scalar
    /// field, a stack element at a constant index, or an index table for a
    /// dynamic one.
    fn access(&mut self, storage: &Storage, index: Operand, access: Access, out: &mut Vec<Stmt>) {
        let element = match (storage, index.as_const()) {
            (Storage::Stack { name, count, bits }, None) => {
                return self.index_table(name, *count, *bits, index, access, out)
            }
            (_, k) => storage.element(k.unwrap_or(0) as u32),
        };
        out.push(match access {
            Access::Read(dst) => Stmt::Assign(dst, element),
            Access::Write(value) => Stmt::Assign(element, value),
        });
    }

    /// A dynamically indexed stack element through an index table (Fig. 9,
    /// rightmost column) — one action per element, so an out-of-range index
    /// misses: "we get runtime bounds-checking for free". The element passes
    /// through `meta.k<c>_iv<n>`.
    fn index_table(
        &mut self,
        stack: &str,
        count: u32,
        bits: u32,
        index: Operand,
        access: Access,
        out: &mut Vec<Stmt>,
    ) {
        let n = next(&mut self.counters.idx);
        let key = meta(&self.temp("ik", n, 32));
        let via = meta(&self.temp("iv", n, bits));
        out.push(Stmt::Assign(key.clone(), cast(32, self.op_expr(index))));
        let (rw, dst) = match access {
            Access::Read(dst) => ('r', Some(dst)),
            Access::Write(value) => {
                out.push(Stmt::Assign(via.clone(), value));
                ('w', None)
            }
        };
        let mut actions = Vec::with_capacity(count as usize);
        let mut entries = Vec::with_capacity(count as usize);
        for k in 0..count {
            let act = format!("idx_{rw}{n}_{k}");
            let element = stack_element(stack, k);
            let body = vec![match dst {
                Some(_) => Stmt::Assign(via.clone(), element),
                None => Stmt::Assign(element, via.clone()),
            }];
            self.control.actions.push(ActionDef { name: act.clone(), params: vec![], body });
            entries.push(TableEntry {
                keys: vec![EntryKey::Value(k as u64)],
                action: act.clone(),
                args: vec![],
            });
            actions.push(act);
        }
        let table = format!("idx_tbl_{rw}{n}");
        self.control.tables.push(TableDef {
            name: table.clone(),
            keys: vec![(key, MatchKind::Exact)],
            actions,
            entries,
            default_action: "NoAction".into(),
            size: count,
        });
        out.push(Stmt::ApplyTable(table));
        if let Some(dst) = dst {
            out.push(Stmt::Assign(dst, via));
        }
    }
}
