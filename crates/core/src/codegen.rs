//! P4 code generation (paper §VI-B "Code generation", Fig. 9).
//!
//! Translates a target-legal IR module (structured, φ-free) into a complete
//! P4 program containing the NetCL device runtime and the base program:
//!
//! * the NetCL shim header (Fig. 10 4-tuple + computation id + action
//!   fields) and per-computation argument headers; array arguments and
//!   surviving local arrays become header stacks,
//! * a parser FSM extracting the shim and, by computation id, the argument
//!   headers,
//! * one ingress control holding, per Fig. 9: a local variable per
//!   instruction result, `Register`/`RegisterAction` pairs per global
//!   memory access, MATs for lookup memory, index tables for dynamically
//!   indexed header stacks, and a top-level computation-id dispatch,
//! * the base-program skeleton the runtime is embedded into (an L2
//!   forwarding table — the "empty program" baseline of Table V).
//!
//! Kernel CFGs are emitted by recursive region descent over immediate
//! post-dominators — exactly the lexical-scope construction the paper
//! describes (conditional targets open sub-scopes; sinks are emitted in the
//! scope of the nearest common dominator).

use std::collections::HashMap;

use netcl_ir::func::{BlockId, Function, InstKind, MemId, MsgField, Terminator};
use netcl_ir::types::{CastKind, IcmpPred, IrBinOp, IrTy, IrUnOp, Operand};
use netcl_ir::{Module, ValueId};
use netcl_p4::ast::*;
use netcl_passes::structurize::immediate_postdominators;
use netcl_sema::builtins::{AtomicOp, AtomicRmw};
use netcl_sema::model::LookupEntry;
use netcl_util::idx::Idx;

/// Codegen failure (a construct the target cannot express).
#[derive(Debug, Clone)]
pub struct CodegenError {
    /// Error code (`E03xx` range).
    pub code: &'static str,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Generates the P4 program for a compiled device module.
pub fn generate(module: &Module, target: Target) -> Result<P4Program, CodegenError> {
    let mut cg = Codegen {
        module,
        target,
        program: P4Program {
            name: format!("{}_dev{}", module.name, module.device),
            target,
            ..Default::default()
        },
        control: ControlDef { name: "Ig".into(), ..Default::default() },
        counters: HashMap::new(),
    };
    cg.headers();
    cg.parser();
    cg.globals()?;
    cg.base_program();
    let dispatch = cg.kernels()?;
    cg.control.apply = dispatch;
    let mut program = cg.program;
    program.controls = vec![cg.control].into();
    Ok(program)
}

/// The name of the NetCL shim header instance.
pub const NCL_HDR: &str = "ncl";

/// The NetCL shim header type (Fig. 10): 4-tuple + computation + action +
/// target, in `netcl_runtime::message`'s wire order. Generated programs and
/// the handwritten baselines declare this one definition.
pub fn ncl_header() -> HeaderDef {
    HeaderDef {
        name: "ncl_t".into(),
        fields: vec![
            ("src".into(), 16),
            ("dst".into(), 16),
            ("from".into(), 16),
            ("to".into(), 16),
            ("comp".into(), 8),
            ("action".into(), 8),
            ("target".into(), 16),
        ],
        stack: 1,
    }
}

struct Codegen<'a> {
    module: &'a Module,
    #[allow(dead_code)] // dialect differences live in the printer today
    target: Target,
    program: P4Program,
    control: ControlDef,
    counters: HashMap<&'static str, u32>,
}

impl<'a> Codegen<'a> {
    fn fresh(&mut self, kind: &'static str) -> u32 {
        let c = self.counters.entry(kind).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }

    // ---- headers & parser ------------------------------------------------

    /// Header-stack instance name for array argument `arg` of computation `c`.
    fn arr_hdr(comp: u8, arg: u32) -> String {
        format!("arr_c{comp}_a{arg}")
    }

    /// Field path for a scalar argument.
    fn arg_field(f: &Function, arg: u32) -> Expr {
        Expr::field(&[
            "hdr",
            &format!("args_c{}", f.computation),
            &format!("a{}_{}", arg, f.args[arg as usize].name),
        ])
    }

    fn headers(&mut self) {
        self.program.headers.push(ncl_header());
        for k in &self.module.kernels {
            let mut fields = Vec::new();
            for (i, a) in k.args.iter().enumerate() {
                if a.count == 1 {
                    fields.push((format!("a{}_{}", i, a.name), a.ty.bits as u32));
                } else {
                    self.program.headers.push(HeaderDef {
                        name: format!("{}_t", Self::arr_hdr(k.computation, i as u32)),
                        fields: vec![("value".into(), a.ty.bits as u32)],
                        stack: a.count,
                    });
                }
            }
            if !fields.is_empty() {
                self.program.headers.push(HeaderDef {
                    name: format!("args_c{}_t", k.computation),
                    fields,
                    stack: 1,
                });
            }
        }
    }

    fn parser(&mut self) {
        let mut states = vec![ParserState {
            name: "start".into(),
            extracts: vec![format!("hdr.{NCL_HDR}")],
            transition: if self.module.kernels.is_empty() {
                Transition::Accept
            } else {
                Transition::Select {
                    selector: Expr::field(&["hdr", NCL_HDR, "comp"]),
                    cases: self
                        .module
                        .kernels
                        .iter()
                        .map(|k| (k.computation as u64, format!("parse_c{}", k.computation)))
                        .collect(),
                    default: "accept".into(),
                }
            },
        }];
        for k in &self.module.kernels {
            let mut extracts = Vec::new();
            let has_scalars = k.args.iter().any(|a| a.count == 1);
            if has_scalars {
                extracts.push(format!("hdr.args_c{}", k.computation));
            }
            for (i, a) in k.args.iter().enumerate() {
                if a.count > 1 {
                    extracts.push(format!("hdr.{}", Self::arr_hdr(k.computation, i as u32)));
                }
            }
            states.push(ParserState {
                name: format!("parse_c{}", k.computation),
                extracts,
                transition: Transition::Accept,
            });
        }
        self.program.parser = Some(ParserDef { name: "IgParser".into(), states });
    }

    // ---- globals -----------------------------------------------------------

    fn globals(&mut self) -> Result<(), CodegenError> {
        for g in &self.module.globals {
            if netcl_passes::partition::is_replaced_husk(g) {
                continue;
            }
            if g.lookup {
                continue; // lookup tables are materialized per access site
            }
            self.control.registers.push(RegisterDef {
                name: g.name.clone(),
                elem_bits: (g.ty.bits as u32).max(8),
                size: g.element_count() as u32,
            });
        }
        Ok(())
    }

    /// The base P4 program the runtime is embedded into (§VI-C): plain
    /// link-layer forwarding driven by the control plane. This is the
    /// "EMPTY" program of Table V.
    fn base_program(&mut self) {
        self.control.actions.push(ActionDef {
            name: "set_egress".into(),
            params: vec![("port".into(), 16)],
            body: vec![Stmt::Assign(Expr::field(&["meta", "egress_port"]), Expr::field(&["port"]))],
        });
        self.control.locals.push(("egress_port".into(), 16));
        self.control.tables.push(TableDef {
            name: "l2_fwd".into(),
            keys: vec![(Expr::field(&["hdr", NCL_HDR, "dst"]), MatchKind::Exact)],
            actions: vec!["set_egress".into()],
            entries: vec![],
            default_action: "NoAction".into(),
            size: 64,
        });
    }

    // ---- kernels -----------------------------------------------------------

    fn kernels(&mut self) -> Result<Vec<Stmt>, CodegenError> {
        let mut dispatch: Vec<Stmt> = Vec::new();
        // Innermost first: build the if/else chain bottom-up.
        let mut chain: Vec<Stmt> = Vec::new();
        for k in self.module.kernels.iter() {
            let body = self.kernel_body(k)?;
            let cond = Expr::Bin(
                P4BinOp::Eq,
                Box::new(Expr::field(&["hdr", NCL_HDR, "comp"])),
                Box::new(Expr::val(k.computation as u64, 8)),
            );
            chain.push(Stmt::If { cond, then: body, els: vec![] });
        }
        // Nest: if c1 {..} else { if c2 {..} else {..} }
        let mut nested: Vec<Stmt> = Vec::new();
        for stmt in chain.into_iter().rev() {
            let Stmt::If { cond, then, .. } = stmt else { unreachable!() };
            nested = vec![Stmt::If { cond, then, els: nested }];
        }
        // Runtime guard: only compute when the message targets this device
        // (the no-implicit-computation rule, §IV).
        let guard = Expr::Bin(
            P4BinOp::LAnd,
            Box::new(Expr::Field(vec![
                PathSeg::new("hdr"),
                PathSeg::new(NCL_HDR),
                PathSeg::new("$isValid"),
            ])),
            Box::new(Expr::Bin(
                P4BinOp::Eq,
                Box::new(Expr::field(&["hdr", NCL_HDR, "to"])),
                Box::new(Expr::val(self.module.device as u64, 16)),
            )),
        );
        dispatch.push(Stmt::If { cond: guard, then: nested, els: vec![] });
        dispatch.push(Stmt::ApplyTable("l2_fwd".into()));
        Ok(dispatch)
    }

    fn kernel_body(&mut self, f: &Function) -> Result<Vec<Stmt>, CodegenError> {
        let mut kcg = KernelCg {
            cg: self,
            f,
            vals: HashMap::new(),
            local_names: HashMap::new(),
            ipd: immediate_postdominators(f),
            plan: InlinePlan::build(f),
        };
        kcg.declare_locals();
        let entry = f.entry;
        kcg.emit_region(entry, None)
    }
}

struct KernelCg<'a, 'b> {
    cg: &'a mut Codegen<'b>,
    f: &'a Function,
    /// Expression for each defined value (a meta field reference).
    vals: HashMap<ValueId, Expr>,
    /// Meta variable names for scalar local slots; arrays use stacks.
    local_names: HashMap<netcl_ir::LocalId, String>,
    ipd: HashMap<BlockId, Option<BlockId>>,
    /// Operand-forwarding plan (PHV pressure relief, see [`InlinePlan`]).
    plan: InlinePlan,
}

/// Operand forwarding: header fields feed consumers directly instead of
/// bouncing through `meta` temporaries. Handwritten P4 reads argument
/// fields straight into SALUs and writes results straight back; without
/// this, every message word costs two extra PHV containers and AGG's
/// 32-value payload would overflow the PHV.
#[derive(Default)]
struct InlinePlan {
    /// Value → expression to use instead of a fresh meta local.
    inline_val: HashMap<ValueId, Expr>,
    /// Instructions that are not emitted at all.
    skip: std::collections::HashSet<(BlockId, usize)>,
    /// Atomic instructions whose result goes directly to this destination.
    forced_dst: HashMap<(BlockId, usize), Expr>,
}

impl InlinePlan {
    fn build(f: &Function) -> InlinePlan {
        let mut plan = InlinePlan::default();
        // Def/use sites. Terminator operands count as uses at index = len.
        let mut uses: HashMap<ValueId, Vec<(BlockId, usize)>> = HashMap::new();
        for (bid, b) in f.blocks.iter_enumerated() {
            for (i, inst) in b.insts.iter().enumerate() {
                inst.kind.for_each_operand(|op| {
                    if let Operand::Value(v) = op {
                        uses.entry(v).or_default().push((bid, i));
                    }
                });
            }
            let term_ops: Vec<Operand> = match &b.term {
                Terminator::CondBr { cond, .. } => vec![*cond],
                Terminator::Ret(a) => a.target.into_iter().collect(),
                _ => vec![],
            };
            for op in term_ops {
                if let Operand::Value(v) = op {
                    uses.entry(v).or_default().push((bid, b.insts.len()));
                }
            }
        }
        let touches_arg = |kind: &InstKind, arg: u32| -> bool {
            matches!(kind, InstKind::ArgRead { arg: a, .. } | InstKind::ArgWrite { arg: a, .. } if *a == arg)
        };
        let arg_expr = |f: &Function, arg: u32, k: u64| -> Expr {
            let info = &f.args[arg as usize];
            if info.count == 1 {
                Codegen::arg_field(f, arg)
            } else {
                Expr::Field(vec![
                    PathSeg::new("hdr"),
                    PathSeg::indexed(&Codegen::arr_hdr(f.computation, arg), k as u32),
                    PathSeg::new("value"),
                ])
            }
        };
        for (bid, b) in f.blocks.iter_enumerated() {
            for (i, inst) in b.insts.iter().enumerate() {
                match &inst.kind {
                    // 1. `ArgRead` with constant index whose uses all sit in
                    //    this block with no later write to the same argument
                    //    before the last use: consumers read the header
                    //    field directly.
                    InstKind::ArgRead { arg, index } => {
                        let Some(k) = index.as_const() else { continue };
                        let Some(vuses) = uses.get(&inst.results[0]) else { continue };
                        if vuses.is_empty() || !vuses.iter().all(|(ub, _)| *ub == bid) {
                            continue;
                        }
                        let max_use = vuses.iter().map(|(_, j)| *j).max().unwrap();
                        let clean = b.insts[i + 1..max_use.min(b.insts.len())].iter().all(
                            |x| !matches!(&x.kind, InstKind::ArgWrite { arg: a, .. } if a == arg),
                        );
                        if !clean {
                            continue;
                        }
                        plan.inline_val.insert(inst.results[0], arg_expr(f, *arg, k));
                        plan.skip.insert((bid, i));
                    }
                    // 2. Atomic whose single use is an `ArgWrite` of a
                    //    constant index later in this block, with nothing in
                    //    between touching that argument: the SALU output is
                    //    the header field itself.
                    InstKind::AtomicRmw { .. } => {
                        let Some(&r) = inst.results.first() else { continue };
                        let Some(vuses) = uses.get(&r) else { continue };
                        if vuses.len() != 1 || vuses[0].0 != bid {
                            continue;
                        }
                        let w = vuses[0].1;
                        if w >= b.insts.len() {
                            continue; // terminator use
                        }
                        let InstKind::ArgWrite { arg, index, value } = &b.insts[w].kind else {
                            continue;
                        };
                        let Some(k) = index.as_const() else { continue };
                        if *value != Operand::Value(r) {
                            continue;
                        }
                        let between_clean =
                            b.insts[i + 1..w].iter().all(|x| !touches_arg(&x.kind, *arg));
                        if !between_clean {
                            continue;
                        }
                        let expr = arg_expr(f, *arg, k);
                        plan.forced_dst.insert((bid, i), expr.clone());
                        plan.inline_val.insert(r, expr);
                        plan.skip.insert((bid, w));
                    }
                    _ => {}
                }
            }
        }
        plan
    }
}

impl<'a, 'b> KernelCg<'a, 'b> {
    fn prefix(&self) -> String {
        format!("k{}", self.f.computation)
    }

    fn declare_locals(&mut self) {
        // One meta var per instruction result — except values the plan
        // forwards through header fields.
        for b in self.f.blocks.iter() {
            for inst in &b.insts {
                for &r in &inst.results {
                    if let Some(e) = self.plan.inline_val.get(&r) {
                        self.vals.insert(r, e.clone());
                        continue;
                    }
                    let name = format!("{}_t{}", self.prefix(), r.0);
                    let bits = (self.f.value_ty(r).bits as u32).max(1);
                    self.cg.control.locals.push((name.clone(), bits));
                    self.vals.insert(r, Expr::field(&["meta", &name]));
                }
            }
        }
        // Scalar local slots → meta vars; arrays → header stacks.
        for (id, slot) in self.f.locals.iter_enumerated() {
            if slot.count == 1 {
                let name = format!("{}_l{}_{}", self.prefix(), id.index(), sanitize(&slot.name));
                self.cg.control.locals.push((name.clone(), (slot.ty.bits as u32).max(1)));
                self.local_names.insert(id, name);
            } else {
                let name = format!("{}_loc{}", self.prefix(), id.index());
                self.cg.program.headers.push(HeaderDef {
                    name: format!("{name}_t"),
                    fields: vec![("value".into(), (slot.ty.bits as u32).max(8))],
                    stack: slot.count,
                });
                self.local_names.insert(id, name);
            }
        }
    }

    fn op_expr(&self, op: Operand) -> Expr {
        match op {
            Operand::Const(c, ty) => Expr::Const(c, ty.bits as u32),
            Operand::Value(v) => self.vals.get(&v).cloned().unwrap_or(Expr::Const(0, 32)),
        }
    }

    /// Boolean rendering of an `i1` operand for `if` conditions.
    fn cond_expr(&self, op: Operand) -> Expr {
        match op {
            Operand::Const(c, _) => Expr::Bool(c != 0),
            Operand::Value(_) => {
                Expr::Bin(P4BinOp::Eq, Box::new(self.op_expr(op)), Box::new(Expr::Const(1, 1)))
            }
        }
    }

    // ---- region emission ----------------------------------------------

    fn emit_region(
        &mut self,
        entry: BlockId,
        stop: Option<BlockId>,
    ) -> Result<Vec<Stmt>, CodegenError> {
        let mut out = Vec::new();
        let mut current = entry;
        loop {
            if Some(current) == stop {
                return Ok(out);
            }
            for (i, inst) in self.f.blocks[current].insts.iter().enumerate() {
                if self.plan.skip.contains(&(current, i)) {
                    continue;
                }
                let forced = self.plan.forced_dst.get(&(current, i)).cloned();
                self.emit_inst(inst, forced, &mut out)?;
            }
            match &self.f.blocks[current].term {
                Terminator::Ret(a) => {
                    out.push(Stmt::Assign(
                        Expr::field(&["hdr", NCL_HDR, "action"]),
                        Expr::val(a.kind.code() as u64, 8),
                    ));
                    if let Some(t) = a.target {
                        out.push(Stmt::Assign(
                            Expr::field(&["hdr", NCL_HDR, "target"]),
                            Expr::Cast(16, Box::new(self.op_expr(t))),
                        ));
                    }
                    return Ok(out);
                }
                Terminator::Br(t) => {
                    current = *t;
                }
                Terminator::CondBr { cond, then_bb, else_bb } => {
                    let join = self.ipd.get(&current).copied().flatten();
                    let join = match (join, stop) {
                        (Some(m), Some(s)) if m == s => None,
                        (m, _) => m,
                    };
                    let inner_stop = join.or(stop);
                    let then = self.emit_region(*then_bb, inner_stop)?;
                    let els = self.emit_region(*else_bb, inner_stop)?;
                    out.push(Stmt::If { cond: self.cond_expr(*cond), then, els });
                    match join {
                        Some(m) => current = m,
                        None => return Ok(out),
                    }
                }
                Terminator::Unterminated => {
                    return Err(CodegenError {
                        code: "E0310",
                        message: format!("kernel `{}` has an unterminated block", self.f.name),
                    })
                }
            }
        }
    }

    // ---- instructions ----------------------------------------------------

    fn dst(&self, r: ValueId) -> Expr {
        self.vals[&r].clone()
    }

    fn emit_inst(
        &mut self,
        inst: &netcl_ir::func::Inst,
        forced_dst: Option<Expr>,
        out: &mut Vec<Stmt>,
    ) -> Result<(), CodegenError> {
        match &inst.kind {
            InstKind::Bin { op, a, b } => {
                let dst = self.dst(inst.results[0]);
                let stmt = self.bin_stmt(*op, *a, *b, dst, self.f.value_ty(inst.results[0]))?;
                out.extend(stmt);
            }
            InstKind::Un { op, a } => {
                let dst = self.dst(inst.results[0]);
                let w = self.f.value_ty(inst.results[0]).bits as u32;
                match op {
                    IrUnOp::Bswap => {
                        // Single-stage byte swap via slice concatenation,
                        // expressed as shifts+or (16/32-bit forms).
                        let x = self.op_expr(*a);
                        let e = match w {
                            16 => Expr::Bin(
                                P4BinOp::Or,
                                Box::new(Expr::Bin(
                                    P4BinOp::Shl,
                                    Box::new(x.clone()),
                                    Box::new(Expr::Const(8, w)),
                                )),
                                Box::new(Expr::Bin(
                                    P4BinOp::Shr,
                                    Box::new(x),
                                    Box::new(Expr::Const(8, w)),
                                )),
                            ),
                            _ => {
                                // 32-bit: two slice pairs.
                                let sl = |hi, lo| Expr::Slice(Box::new(self.op_expr(*a)), hi, lo);
                                // (b0 << 24)|(b1 << 16)|(b2 << 8)|b3 via casts.
                                let b0 = Expr::Cast(32, Box::new(sl(7, 0)));
                                let b1 = Expr::Cast(32, Box::new(sl(15, 8)));
                                let b2 = Expr::Cast(32, Box::new(sl(23, 16)));
                                let b3 = Expr::Cast(32, Box::new(sl(31, 24)));
                                let sh = |e: Expr, k: u64| {
                                    Expr::Bin(
                                        P4BinOp::Shl,
                                        Box::new(e),
                                        Box::new(Expr::Const(k, 32)),
                                    )
                                };
                                Expr::Bin(
                                    P4BinOp::Or,
                                    Box::new(Expr::Bin(
                                        P4BinOp::Or,
                                        Box::new(sh(b0, 24)),
                                        Box::new(sh(b1, 16)),
                                    )),
                                    Box::new(Expr::Bin(
                                        P4BinOp::Or,
                                        Box::new(sh(b2, 8)),
                                        Box::new(b3),
                                    )),
                                )
                            }
                        };
                        out.push(Stmt::Assign(dst, e));
                    }
                    IrUnOp::Clz => {
                        // An LPM-style range table (§VI-B): one entry per
                        // leading-zero count.
                        let src_w = self.f.operand_ty(*a).bits as u32;
                        let n = self.cg.fresh("clz");
                        let key = format!("{}_clzk{}", self.prefix(), n);
                        self.cg.control.locals.push((key.clone(), src_w));
                        out.push(Stmt::Assign(Expr::field(&["meta", &key]), self.op_expr(*a)));
                        let act = format!("clz_set_{n}");
                        self.cg.control.actions.push(ActionDef {
                            name: act.clone(),
                            params: vec![("n".into(), w)],
                            body: vec![Stmt::Assign(dst, Expr::field(&["n"]))],
                        });
                        let mut entries = Vec::new();
                        for lz in 0..src_w {
                            let hi_bit = src_w - 1 - lz;
                            let lo = 1u64 << hi_bit;
                            let hi = if hi_bit + 1 >= 64 {
                                u64::MAX
                            } else {
                                (1u64 << (hi_bit + 1)) - 1
                            };
                            entries.push(TableEntry {
                                keys: vec![EntryKey::Range(lo, hi)],
                                action: act.clone(),
                                args: vec![lz as u64],
                            });
                        }
                        entries.push(TableEntry {
                            keys: vec![EntryKey::Range(0, 0)],
                            action: act.clone(),
                            args: vec![src_w as u64],
                        });
                        self.cg.control.tables.push(TableDef {
                            name: format!("clz_tbl_{n}"),
                            keys: vec![(Expr::field(&["meta", &key]), MatchKind::Range)],
                            actions: vec![act],
                            entries,
                            default_action: "NoAction".into(),
                            size: src_w + 1,
                        });
                        out.push(Stmt::ApplyTable(format!("clz_tbl_{n}")));
                    }
                }
            }
            InstKind::Icmp { pred, a, b } => {
                let dst = self.dst(inst.results[0]);
                let e = self.icmp_expr(*pred, *a, *b);
                out.push(Stmt::Assign(dst, Expr::Cast(1, Box::new(e))));
            }
            InstKind::Select { cond, a, b } => {
                let dst = self.dst(inst.results[0]);
                out.push(Stmt::If {
                    cond: self.cond_expr(*cond),
                    then: vec![Stmt::Assign(dst.clone(), self.op_expr(*a))],
                    els: vec![Stmt::Assign(dst, self.op_expr(*b))],
                });
            }
            InstKind::Cast { kind, a, to } => {
                let dst = self.dst(inst.results[0]);
                let from = self.f.operand_ty(*a);
                match kind {
                    CastKind::Zext | CastKind::Trunc => {
                        out.push(Stmt::Assign(
                            dst,
                            Expr::Cast(to.bits as u32, Box::new(self.op_expr(*a))),
                        ));
                    }
                    CastKind::Sext => {
                        // Zero-extend, then OR the sign mask when negative.
                        out.push(Stmt::Assign(
                            dst.clone(),
                            Expr::Cast(to.bits as u32, Box::new(self.op_expr(*a))),
                        ));
                        if to.bits > from.bits {
                            let sign = Expr::Bin(
                                P4BinOp::Eq,
                                Box::new(Expr::Slice(
                                    Box::new(self.op_expr(*a)),
                                    from.bits as u32 - 1,
                                    from.bits as u32 - 1,
                                )),
                                Box::new(Expr::Const(1, 1)),
                            );
                            let mask = (IrTy::int(to.bits).mask()) & !(IrTy::int(from.bits).mask());
                            out.push(Stmt::If {
                                cond: sign,
                                then: vec![Stmt::Assign(
                                    dst.clone(),
                                    Expr::Bin(
                                        P4BinOp::Or,
                                        Box::new(dst),
                                        Box::new(Expr::Const(mask, to.bits as u32)),
                                    ),
                                )],
                                els: vec![],
                            });
                        }
                    }
                }
            }
            InstKind::Phi { .. } => {
                return Err(CodegenError {
                    code: "E0311",
                    message: "φ-node reached code generation (phielim missing)".into(),
                })
            }
            InstKind::LocalLoad { slot, index } => {
                let dst = self.dst(inst.results[0]);
                let src = self.local_ref(*slot, *index, out, true)?;
                out.push(Stmt::Assign(dst, src));
            }
            InstKind::LocalStore { slot, index, value } => {
                let v = self.op_expr(*value);
                self.local_store(*slot, *index, v, out)?;
            }
            InstKind::ArgRead { arg, index } => {
                let dst = self.dst(inst.results[0]);
                let src = self.arg_ref(*arg, *index, out, true)?;
                out.push(Stmt::Assign(dst, src));
            }
            InstKind::ArgWrite { arg, index, value } => {
                let v = self.op_expr(*value);
                self.arg_store(*arg, *index, v, out)?;
            }
            InstKind::MemRead { mem } => {
                let dst = self.dst(inst.results[0]);
                self.register_access(
                    mem.mem,
                    &mem.indices.clone(),
                    AtomicOp { rmw: AtomicRmw::Read, cond: false, ret_new: false },
                    None,
                    vec![],
                    Some(dst),
                    out,
                );
            }
            InstKind::MemWrite { mem, value } => {
                let v = self.op_expr(*value);
                self.register_access(
                    mem.mem,
                    &mem.indices.clone(),
                    AtomicOp { rmw: AtomicRmw::Swap, cond: false, ret_new: false },
                    None,
                    vec![v],
                    None,
                    out,
                );
            }
            InstKind::AtomicRmw { op, mem, cond, operands } => {
                let dst = forced_dst.unwrap_or_else(|| self.dst(inst.results[0]));
                let cond_e = cond.map(|c| self.cond_expr(c));
                let ops: Vec<Expr> = operands.iter().map(|o| self.op_expr(*o)).collect();
                self.register_access(
                    mem.mem,
                    &mem.indices.clone(),
                    *op,
                    cond_e,
                    ops,
                    Some(dst),
                    out,
                );
            }
            InstKind::Lookup { table, key } => {
                self.lookup(*table, *key, inst.results[0], inst.results[1], out)?;
            }
            InstKind::Hash { kind, bits, a } => {
                let n = self.cg.fresh("hash");
                let name = format!("hash_{n}");
                self.cg.control.hashes.push(HashDef {
                    name: name.clone(),
                    algo: *kind,
                    out_bits: *bits as u32,
                });
                let dst = self.dst(inst.results[0]);
                // Explicit cast pins the hashed width so every execution
                // substrate hashes the same bytes.
                let key_bits = self.f.operand_ty(*a).bits as u32;
                let key = Expr::Cast(key_bits, Box::new(self.op_expr(*a)));
                if (*bits as u32) == self.f.value_ty(inst.results[0]).bits as u32 {
                    out.push(Stmt::HashGet { dst, hash: name, args: vec![key] });
                } else {
                    // Folded output narrower than the destination: hash into
                    // a temp of the fold width, then widen.
                    let tmp = format!("{}_h{}", self.prefix(), n);
                    self.cg.control.locals.push((tmp.clone(), *bits as u32));
                    out.push(Stmt::HashGet {
                        dst: Expr::field(&["meta", &tmp]),
                        hash: name,
                        args: vec![key],
                    });
                    out.push(Stmt::Assign(
                        dst,
                        Expr::Cast(
                            self.f.value_ty(inst.results[0]).bits as u32,
                            Box::new(Expr::field(&["meta", &tmp])),
                        ),
                    ));
                }
            }
            InstKind::Rand => {
                let dst = self.dst(inst.results[0]);
                out.push(Stmt::ExternCall { dst: Some(dst), func: "random".into(), args: vec![] });
            }
            InstKind::MsgField { field } => {
                let dst = self.dst(inst.results[0]);
                let name = match field {
                    MsgField::Src => "src",
                    MsgField::Dst => "dst",
                    MsgField::From => "from",
                    MsgField::To => "to",
                };
                out.push(Stmt::Assign(dst, Expr::field(&["hdr", NCL_HDR, name])));
            }
            InstKind::Intrinsic { target, name, args } => {
                let dst = self.dst(inst.results[0]);
                let args: Vec<Expr> = args.iter().map(|a| self.op_expr(*a)).collect();
                out.push(Stmt::ExternCall {
                    dst: Some(dst),
                    func: format!("{target}_{name}"),
                    args,
                });
            }
        }
        Ok(())
    }

    fn bin_stmt(
        &mut self,
        op: IrBinOp,
        a: Operand,
        b: Operand,
        dst: Expr,
        ty: IrTy,
    ) -> Result<Vec<Stmt>, CodegenError> {
        let ae = self.op_expr(a);
        let be = self.op_expr(b);
        let simple = |p4op: P4BinOp| -> Vec<Stmt> {
            vec![Stmt::Assign(
                dst.clone(),
                Expr::Bin(p4op, Box::new(ae.clone()), Box::new(be.clone())),
            )]
        };
        Ok(match op {
            IrBinOp::Add => simple(P4BinOp::Add),
            IrBinOp::Sub => simple(P4BinOp::Sub),
            IrBinOp::Mul => simple(P4BinOp::Mul),
            IrBinOp::And => simple(P4BinOp::And),
            IrBinOp::Or => simple(P4BinOp::Or),
            IrBinOp::Xor => simple(P4BinOp::Xor),
            IrBinOp::Shl => simple(P4BinOp::Shl),
            IrBinOp::LShr => simple(P4BinOp::Shr),
            IrBinOp::UAddSat => simple(P4BinOp::SatAdd),
            IrBinOp::USubSat => simple(P4BinOp::SatSub),
            IrBinOp::UMin | IrBinOp::SMin | IrBinOp::UMax | IrBinOp::SMax => {
                let pred = match op {
                    IrBinOp::UMin => IcmpPred::Ule,
                    IrBinOp::SMin => IcmpPred::Sle,
                    IrBinOp::UMax => IcmpPred::Uge,
                    _ => IcmpPred::Sge,
                };
                vec![Stmt::If {
                    cond: self.icmp_expr(pred, a, b),
                    then: vec![Stmt::Assign(dst.clone(), ae)],
                    els: vec![Stmt::Assign(dst, be)],
                }]
            }
            IrBinOp::AShr => {
                // Logical shift plus sign-mask fill for negative values.
                let w = ty.bits as u32;
                let mut stmts = vec![Stmt::Assign(
                    dst.clone(),
                    Expr::Bin(P4BinOp::Shr, Box::new(ae.clone()), Box::new(be.clone())),
                )];
                if let Some(k) = b.as_const() {
                    let mask = ty.mask() & !(ty.mask() >> k.min(63));
                    let sign = Expr::Bin(
                        P4BinOp::Eq,
                        Box::new(Expr::Slice(Box::new(ae), w - 1, w - 1)),
                        Box::new(Expr::Const(1, 1)),
                    );
                    stmts.push(Stmt::If {
                        cond: sign,
                        then: vec![Stmt::Assign(
                            dst.clone(),
                            Expr::Bin(P4BinOp::Or, Box::new(dst), Box::new(Expr::Const(mask, w))),
                        )],
                        els: vec![],
                    });
                    stmts
                } else {
                    return Err(CodegenError {
                        code: "E0308",
                        message: "arithmetic shift by a dynamic amount is not expressible in P4; shift by a constant or use unsigned values".into(),
                    });
                }
            }
            IrBinOp::UDiv | IrBinOp::SDiv | IrBinOp::URem | IrBinOp::SRem => {
                return Err(CodegenError {
                    code: "E0308",
                    message: "division/remainder survives to code generation; only power-of-two divisors are supported (they strength-reduce to shifts, §V-D)".into(),
                });
            }
        })
    }

    fn icmp_expr(&self, pred: IcmpPred, a: Operand, b: Operand) -> Expr {
        let w = self.f.operand_ty(a).bits as u32;
        let (ae, be) = (self.op_expr(a), self.op_expr(b));
        // P4 bit<N> comparisons are unsigned. Signed predicates use the
        // sign-flip trick: slt(a,b) ⇔ ult(a ^ MSB, b ^ MSB).
        let signed = matches!(pred, IcmpPred::Slt | IcmpPred::Sle | IcmpPred::Sgt | IcmpPred::Sge);
        let (ae, be) = if signed {
            let msb = 1u64 << (w - 1);
            (
                Expr::Bin(P4BinOp::Xor, Box::new(ae), Box::new(Expr::Const(msb, w))),
                Expr::Bin(P4BinOp::Xor, Box::new(be), Box::new(Expr::Const(msb, w))),
            )
        } else {
            (ae, be)
        };
        let p4 = match pred {
            IcmpPred::Eq => P4BinOp::Eq,
            IcmpPred::Ne => P4BinOp::Ne,
            IcmpPred::Ult | IcmpPred::Slt => P4BinOp::Lt,
            IcmpPred::Ule | IcmpPred::Sle => P4BinOp::Le,
            IcmpPred::Ugt | IcmpPred::Sgt => P4BinOp::Gt,
            IcmpPred::Uge | IcmpPred::Sge => P4BinOp::Ge,
        };
        Expr::Bin(p4, Box::new(ae), Box::new(be))
    }

    // ---- memory ------------------------------------------------------------

    /// Emits a Register/RegisterAction access (Fig. 9 column 2).
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
        let g = self.cg.module.global(mem);
        let n = self.cg.fresh("ra");
        let ra_name = format!("ra_{}_{}", sanitize(&g.name), n);
        // The SALU condition input must be a single field; materialize
        // boolean expressions into a 1-bit meta var first.
        let cond = cond.map(|c| match c {
            Expr::Field(_) => c,
            other => {
                let name = format!("{}_rc{}", self.prefix(), n);
                self.cg.control.locals.push((name.clone(), 1));
                out.push(Stmt::Assign(
                    Expr::field(&["meta", &name]),
                    Expr::Cast(1, Box::new(other)),
                ));
                Expr::Bin(
                    P4BinOp::Eq,
                    Box::new(Expr::field(&["meta", &name])),
                    Box::new(Expr::Const(1, 1)),
                )
            }
        });
        self.cg.control.register_actions.push(RegisterActionDef {
            name: ra_name.clone(),
            register: g.name.clone(),
            op,
            cond,
            operands,
        });
        let index = self.flat_index(indices, &g.dims);
        out.push(Stmt::ExecuteRegisterAction { dst, ra: ra_name, index });
    }

    /// Flattens a multi-dimensional index into a row-major offset expression.
    fn flat_index(&self, indices: &[Operand], dims: &[usize]) -> Expr {
        if indices.is_empty() {
            return Expr::Const(0, 32);
        }
        let mut expr: Option<Expr> = None;
        for (i, idx) in indices.iter().enumerate() {
            let e32 = Expr::Cast(32, Box::new(self.op_expr(*idx)));
            expr = Some(match expr {
                None => e32,
                Some(acc) => {
                    let dim = dims.get(i).copied().unwrap_or(1) as u64;
                    Expr::Bin(
                        P4BinOp::Add,
                        Box::new(Expr::Bin(
                            P4BinOp::Mul,
                            Box::new(acc),
                            Box::new(Expr::Const(dim, 32)),
                        )),
                        Box::new(e32),
                    )
                }
            });
        }
        expr.unwrap()
    }

    /// Emits a MAT lookup (Fig. 9 column 3).
    fn lookup(
        &mut self,
        table: MemId,
        key: Operand,
        hit: ValueId,
        value: ValueId,
        out: &mut Vec<Stmt>,
    ) -> Result<(), CodegenError> {
        let g = self.cg.module.global(table);
        let n = self.cg.fresh("lu");
        let tbl_name = format!("lu_{}_{}", sanitize(&g.name), n);
        let act_name = format!("lu_hit_{}_{}", sanitize(&g.name), n);
        let key_bits = self.f.operand_ty(key).bits as u32;
        let val_bits = (self.f.value_ty(value).bits as u32).max(1);

        // Key must be a field; materialize into a meta temp.
        let key_field = format!("{}_lk{}", self.prefix(), n);
        self.cg.control.locals.push((key_field.clone(), key_bits));
        out.push(Stmt::Assign(Expr::field(&["meta", &key_field]), self.op_expr(key)));

        // Hit flag + value destinations are the instruction results.
        let hit_dst = self.dst(hit);
        let val_dst = self.dst(value);
        // Membership sets have Member-only entries; an *empty* table (a
        // managed kv populated at run time) must still get a value-writing
        // action.
        let is_set = !g.entries.is_empty()
            && g.entries.iter().all(|e| matches!(e, LookupEntry::Member { .. }));
        let is_range = g.entries.iter().any(|e| matches!(e, LookupEntry::Range { .. }));
        self.cg.control.actions.push(ActionDef {
            name: act_name.clone(),
            params: if is_set { vec![] } else { vec![("v".into(), val_bits)] },
            body: if is_set {
                vec![]
            } else {
                vec![Stmt::Assign(val_dst.clone(), Expr::field(&["v"]))]
            },
        });
        let entries: Vec<TableEntry> = g
            .entries
            .iter()
            .map(|e| match *e {
                LookupEntry::Member { key } => TableEntry {
                    keys: vec![EntryKey::Value(key)],
                    action: act_name.clone(),
                    args: vec![],
                },
                LookupEntry::Exact { key, value } => TableEntry {
                    keys: vec![EntryKey::Value(key)],
                    action: act_name.clone(),
                    args: vec![value],
                },
                LookupEntry::Range { lo, hi, value } => TableEntry {
                    keys: vec![EntryKey::Range(lo, hi)],
                    action: act_name.clone(),
                    args: vec![value],
                },
            })
            .collect();
        self.cg.control.tables.push(TableDef {
            name: tbl_name.clone(),
            keys: vec![(
                Expr::field(&["meta", &key_field]),
                if is_range { MatchKind::Range } else { MatchKind::Exact },
            )],
            actions: vec![act_name],
            entries,
            default_action: "NoAction".into(),
            size: g.element_count().max(g.entries.len()).max(1) as u32,
        });
        out.push(Stmt::Assign(hit_dst.clone(), Expr::Const(0, 1)));
        out.push(Stmt::Assign(val_dst, Expr::Const(0, val_bits)));
        out.push(Stmt::If {
            cond: Expr::TableHit(tbl_name),
            then: vec![Stmt::Assign(hit_dst, Expr::Const(1, 1))],
            els: vec![],
        });
        Ok(())
    }

    // ---- locals & arguments ------------------------------------------------

    fn local_ref(
        &mut self,
        slot: netcl_ir::LocalId,
        index: Operand,
        out: &mut Vec<Stmt>,
        is_read: bool,
    ) -> Result<Expr, CodegenError> {
        let info = &self.f.locals[slot];
        let name = self.local_names[&slot].clone();
        if info.count == 1 {
            return Ok(Expr::field(&["meta", &name]));
        }
        match index.as_const() {
            Some(k) => Ok(Expr::Field(vec![
                PathSeg::new("hdr"),
                PathSeg::indexed(&name, k as u32),
                PathSeg::new("value"),
            ])),
            None => {
                // Dynamic index: index table (Fig. 9 rightmost column).
                debug_assert!(is_read, "dynamic local writes go through local_store");
                let tmp = self.index_table_read(
                    &name,
                    info.count,
                    (info.ty.bits as u32).max(8),
                    index,
                    out,
                );
                Ok(tmp)
            }
        }
    }

    fn local_store(
        &mut self,
        slot: netcl_ir::LocalId,
        index: Operand,
        value: Expr,
        out: &mut Vec<Stmt>,
    ) -> Result<(), CodegenError> {
        let info = &self.f.locals[slot];
        let name = self.local_names[&slot].clone();
        if info.count == 1 {
            out.push(Stmt::Assign(Expr::field(&["meta", &name]), value));
            return Ok(());
        }
        match index.as_const() {
            Some(k) => {
                out.push(Stmt::Assign(
                    Expr::Field(vec![
                        PathSeg::new("hdr"),
                        PathSeg::indexed(&name, k as u32),
                        PathSeg::new("value"),
                    ]),
                    value,
                ));
            }
            None => {
                self.index_table_write(
                    &name,
                    info.count,
                    (info.ty.bits as u32).max(8),
                    index,
                    value,
                    out,
                );
            }
        }
        Ok(())
    }

    fn arg_ref(
        &mut self,
        arg: u32,
        index: Operand,
        out: &mut Vec<Stmt>,
        is_read: bool,
    ) -> Result<Expr, CodegenError> {
        let info = &self.f.args[arg as usize];
        if info.count == 1 {
            return Ok(Codegen::arg_field(self.f, arg));
        }
        let stack = Codegen::arr_hdr(self.f.computation, arg);
        match index.as_const() {
            Some(k) => Ok(Expr::Field(vec![
                PathSeg::new("hdr"),
                PathSeg::indexed(&stack, k as u32),
                PathSeg::new("value"),
            ])),
            None => {
                debug_assert!(is_read);
                Ok(self.index_table_read(
                    &stack,
                    info.count,
                    (info.ty.bits as u32).max(8),
                    index,
                    out,
                ))
            }
        }
    }

    fn arg_store(
        &mut self,
        arg: u32,
        index: Operand,
        value: Expr,
        out: &mut Vec<Stmt>,
    ) -> Result<(), CodegenError> {
        let info = &self.f.args[arg as usize];
        if info.count == 1 {
            out.push(Stmt::Assign(Codegen::arg_field(self.f, arg), value));
            return Ok(());
        }
        let stack = Codegen::arr_hdr(self.f.computation, arg);
        match index.as_const() {
            Some(k) => {
                out.push(Stmt::Assign(
                    Expr::Field(vec![
                        PathSeg::new("hdr"),
                        PathSeg::indexed(&stack, k as u32),
                        PathSeg::new("value"),
                    ]),
                    value,
                ));
            }
            None => {
                self.index_table_write(
                    &stack,
                    info.count,
                    (info.ty.bits as u32).max(8),
                    index,
                    value,
                    out,
                );
            }
        }
        Ok(())
    }

    /// Dynamic header-stack read through an index table; "we get runtime
    /// bounds-checking for free" (out-of-range indices miss the table).
    fn index_table_read(
        &mut self,
        stack: &str,
        count: u32,
        bits: u32,
        index: Operand,
        out: &mut Vec<Stmt>,
    ) -> Expr {
        let n = self.cg.fresh("idx");
        let keyf = format!("{}_ik{}", self.prefix(), n);
        let dstf = format!("{}_iv{}", self.prefix(), n);
        self.cg.control.locals.push((keyf.clone(), 32));
        self.cg.control.locals.push((dstf.clone(), bits));
        out.push(Stmt::Assign(
            Expr::field(&["meta", &keyf]),
            Expr::Cast(32, Box::new(self.op_expr(index))),
        ));
        let mut actions = Vec::new();
        let mut entries = Vec::new();
        for k in 0..count {
            let act = format!("idx_r{n}_{k}");
            self.cg.control.actions.push(ActionDef {
                name: act.clone(),
                params: vec![],
                body: vec![Stmt::Assign(
                    Expr::field(&["meta", &dstf]),
                    Expr::Field(vec![
                        PathSeg::new("hdr"),
                        PathSeg::indexed(stack, k),
                        PathSeg::new("value"),
                    ]),
                )],
            });
            actions.push(act.clone());
            entries.push(TableEntry {
                keys: vec![EntryKey::Value(k as u64)],
                action: act,
                args: vec![],
            });
        }
        self.cg.control.tables.push(TableDef {
            name: format!("idx_tbl_r{n}"),
            keys: vec![(Expr::field(&["meta", &keyf]), MatchKind::Exact)],
            actions,
            entries,
            default_action: "NoAction".into(),
            size: count,
        });
        out.push(Stmt::ApplyTable(format!("idx_tbl_r{n}")));
        Expr::field(&["meta", &dstf])
    }

    /// Dynamic header-stack write through an index table.
    fn index_table_write(
        &mut self,
        stack: &str,
        count: u32,
        bits: u32,
        index: Operand,
        value: Expr,
        out: &mut Vec<Stmt>,
    ) {
        let n = self.cg.fresh("idx");
        let keyf = format!("{}_ik{}", self.prefix(), n);
        let srcf = format!("{}_iv{}", self.prefix(), n);
        self.cg.control.locals.push((keyf.clone(), 32));
        self.cg.control.locals.push((srcf.clone(), bits));
        out.push(Stmt::Assign(
            Expr::field(&["meta", &keyf]),
            Expr::Cast(32, Box::new(self.op_expr(index))),
        ));
        out.push(Stmt::Assign(Expr::field(&["meta", &srcf]), value));
        let mut actions = Vec::new();
        let mut entries = Vec::new();
        for k in 0..count {
            let act = format!("idx_w{n}_{k}");
            self.cg.control.actions.push(ActionDef {
                name: act.clone(),
                params: vec![],
                body: vec![Stmt::Assign(
                    Expr::Field(vec![
                        PathSeg::new("hdr"),
                        PathSeg::indexed(stack, k),
                        PathSeg::new("value"),
                    ]),
                    Expr::field(&["meta", &srcf]),
                )],
            });
            actions.push(act.clone());
            entries.push(TableEntry {
                keys: vec![EntryKey::Value(k as u64)],
                action: act,
                args: vec![],
            });
        }
        self.cg.control.tables.push(TableDef {
            name: format!("idx_tbl_w{n}"),
            keys: vec![(Expr::field(&["meta", &keyf]), MatchKind::Exact)],
            actions,
            entries,
            default_action: "NoAction".into(),
            size: count,
        });
        out.push(Stmt::ApplyTable(format!("idx_tbl_w{n}")));
    }
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}
