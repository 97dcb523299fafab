//! Lowering: checked AST → SSA IR, one module per device.
//!
//! Performs the first two steps of the paper's device pipeline (§VI-B) at
//! the AST level, where they are exact rather than heuristic:
//!
//! * **net-function inlining** — every `_net_` call is expanded at its call
//!   site; by-value parameters become fresh locals, reference parameters
//!   alias the caller's place (C++ reference semantics).
//! * **`device.id` materialization** — the builtin is replaced by the
//!   constant of the device being compiled for, so multi-location SPMD
//!   kernels constant-fold their branches away.
//! * **full loop unrolling** — `for` loops with compile-time iteration
//!   spaces are replicated per iteration with the induction variable bound
//!   to a constant; anything else is rejected (`E0306`), matching the
//!   feed-forward pipeline restriction of §V-D.
//!
//! Everything else lowers 1:1: locals become slots (mem2reg promotes them),
//! kernel arguments become message accesses (by-value arguments are copied
//! into locals at entry so their updates stay device-local, §V-A), global
//! accesses become register transactions, and actions become terminators.

use std::collections::HashMap;

use netcl_ir::func::{
    ActionRef, FuncBuilder, InstKind, LocalId, MemId, MemRef, MsgField, Terminator,
};
use netcl_ir::types::{CastKind, IcmpPred, IrBinOp, IrTy, Operand};
use netcl_ir::{GlobalDef, Module};
use netcl_lang::ast::{self, BinOp, Expr, ExprKind, Init, Item, PassMode, Stmt, UnOp};
use netcl_lang::ParsedUnit;
use netcl_sema::builtins::{self, Builtin};
use netcl_sema::check::Analysis;
use netcl_sema::consteval::{try_eval, try_eval_with};
use netcl_sema::model::placed_at;
use netcl_sema::Ty;
use netcl_util::{DiagnosticSink, Span, Symbol};

/// Maximum unrolled iterations per loop.
const MAX_UNROLL: u64 = 4096;

/// Lowers all kernels placed at `device` into an IR module.
pub fn lower_device(
    unit: &ParsedUnit,
    analysis: &Analysis,
    device: u16,
    diags: &mut DiagnosticSink,
) -> Module {
    let mut module = Module {
        name: unit.source_map.file(Span::new(0, 0)).map(|f| f.name.clone()).unwrap_or_default(),
        device,
        globals: Vec::new(),
        kernels: Vec::new(),
    };
    // Globals placed at this device, in declaration order; MemId = index.
    let mut global_ids: HashMap<String, MemId> = HashMap::new();
    for g in analysis.model.globals_at(device) {
        let id = MemId(module.globals.len() as u32);
        global_ids.insert(g.name.clone(), id);
        module.globals.push(GlobalDef {
            name: g.name.clone(),
            ty: ir_storage_ty(g.elem),
            dims: g.dims.clone(),
            managed: g.managed,
            lookup: g.lookup,
            entries: g.entries.clone(),
            origin: None,
        });
    }

    let kernels: Vec<_> = analysis
        .model
        .kernels
        .iter()
        .filter(|k| placed_at(&k.locations, device))
        .cloned()
        .collect();
    for kinfo in kernels {
        let Item::Function(decl) = &unit.program.items[kinfo.item_index] else { continue };
        let mut lctx = Lower {
            unit,
            analysis,
            device,
            diags,
            global_ids: &global_ids,
            builder: FuncBuilder::new(&kinfo.name, kinfo.computation),
            scopes: Vec::new(),
            loop_stack: Vec::new(),
            inline_depth: 0,
            failed: false,
        };
        lctx.lower_kernel(decl, &kinfo);
        let failed = lctx.failed;
        let func = lctx.builder.finish();
        if !failed {
            module.kernels.push(func);
        }
    }
    module
}

/// Storage width for a sema type (bool stores as 8 bits on the wire and in
/// registers; its *value* type in the IR is `i1`).
pub fn ir_storage_ty(ty: Ty) -> IrTy {
    match ty {
        Ty::Bool => IrTy::I8,
        Ty::Int { bits, .. } => IrTy::int(bits),
        _ => IrTy::I32,
    }
}

/// Value width for a sema type.
fn ir_value_ty(ty: Ty) -> IrTy {
    match ty {
        Ty::Bool => IrTy::I1,
        Ty::Int { bits, .. } => IrTy::int(bits),
        _ => IrTy::I32,
    }
}

/// How a source variable is bound during lowering.
#[derive(Clone, Debug)]
enum Binding {
    /// A local slot (locals, by-value args, inlined value params).
    Local { slot: LocalId, ty: Ty },
    /// A message-resident kernel argument (by-ref / pointer).
    ArgMsg { index: u32, ty: Ty },
    /// Compile-time constant (unrolled induction variables).
    Const { value: u64, ty: Ty },
    /// Alias to a caller place (inlined reference parameters).
    Alias(Place),
}

/// A resolved storage location.
#[derive(Clone, Debug)]
enum Place {
    Local { slot: LocalId, index: Operand, ty: Ty },
    ArgMsg { arg: u32, index: Operand, ty: Ty },
    Global { mem: MemId, indices: Vec<Operand>, ty: Ty },
}

impl Place {
    fn ty(&self) -> Ty {
        match self {
            Place::Local { ty, .. } | Place::ArgMsg { ty, .. } | Place::Global { ty, .. } => *ty,
        }
    }
}

struct LoopCtx {
    break_to: netcl_ir::BlockId,
    continue_to: netcl_ir::BlockId,
}

struct Lower<'a> {
    unit: &'a ParsedUnit,
    analysis: &'a Analysis,
    device: u16,
    diags: &'a mut DiagnosticSink,
    global_ids: &'a HashMap<String, MemId>,
    builder: FuncBuilder,
    scopes: Vec<HashMap<Symbol, Binding>>,
    loop_stack: Vec<LoopCtx>,
    inline_depth: usize,
    failed: bool,
}

impl<'a> Lower<'a> {
    fn name(&self, s: Symbol) -> &str {
        self.unit.interner.resolve(s)
    }

    fn error(&mut self, code: &'static str, msg: String, span: Span) {
        self.diags.error(code, msg, span);
        self.failed = true;
    }

    fn sema_ty(&self, e: &Expr) -> Ty {
        self.analysis.types.get(&e.id).copied().unwrap_or(Ty::I32)
    }

    fn lookup_binding(&self, name: Symbol) -> Option<Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(&name)).cloned()
    }

    // ---- entry ---------------------------------------------------------

    fn lower_kernel(&mut self, decl: &ast::FunctionDecl, kinfo: &netcl_sema::KernelInfo) {
        self.scopes.push(HashMap::new());
        for (i, (p, pi)) in decl.params.iter().zip(&kinfo.params).enumerate() {
            let in_message = pi.mode != PassMode::Value;
            self.builder.add_arg(&pi.name, ir_storage_ty(pi.ty), pi.count, in_message);
            if in_message {
                self.scopes
                    .last_mut()
                    .unwrap()
                    .insert(p.name, Binding::ArgMsg { index: i as u32, ty: pi.ty });
            } else {
                // By-value: copy into a local so updates stay device-local.
                let slot = self.builder.add_local(&pi.name, ir_storage_ty(pi.ty), pi.count);
                for e in 0..pi.count {
                    let idx = Operand::imm(e as u64, IrTy::I32);
                    let v = self
                        .builder
                        .emit(InstKind::ArgRead { arg: i as u32, index: idx }, ir_storage_ty(pi.ty))
                        .unwrap();
                    self.builder.emit(
                        InstKind::LocalStore { slot, index: idx, value: Operand::Value(v) },
                        ir_storage_ty(pi.ty),
                    );
                }
                self.scopes.last_mut().unwrap().insert(p.name, Binding::Local { slot, ty: pi.ty });
            }
        }
        if let Some(body) = &decl.body {
            for stmt in &body.stmts {
                self.stmt(stmt, None);
                if self.builder.is_terminated() {
                    break;
                }
            }
        }
        self.scopes.pop();
    }

    // ---- statements ------------------------------------------------------

    /// `inline_ret`: when lowering an inlined net-function body, where
    /// `return` stores its value and which block it jumps to.
    fn stmt(&mut self, stmt: &Stmt, inline_ret: Option<&InlineRet>) {
        if self.builder.is_terminated() {
            return; // unreachable trailing code
        }
        match stmt {
            Stmt::Decl(d) => self.local_decl(d),
            Stmt::Expr(e) => {
                self.expr(e);
            }
            Stmt::Block(b) => {
                self.scopes.push(HashMap::new());
                for s in &b.stmts {
                    self.stmt(s, inline_ret);
                    if self.builder.is_terminated() {
                        break;
                    }
                }
                self.scopes.pop();
            }
            Stmt::If { cond, then, els, .. } => {
                let c = self.condition(cond);
                let then_bb = self.builder.new_block();
                let else_bb = self.builder.new_block();
                let join = self.builder.new_block();
                self.builder.terminate(Terminator::CondBr { cond: c, then_bb, else_bb });
                self.builder.switch_to(then_bb);
                self.scopes.push(HashMap::new());
                for s in &then.stmts {
                    self.stmt(s, inline_ret);
                    if self.builder.is_terminated() {
                        break;
                    }
                }
                self.scopes.pop();
                self.builder.branch_if_open(join);
                self.builder.switch_to(else_bb);
                if let Some(els) = els {
                    self.scopes.push(HashMap::new());
                    for s in &els.stmts {
                        self.stmt(s, inline_ret);
                        if self.builder.is_terminated() {
                            break;
                        }
                    }
                    self.scopes.pop();
                }
                self.builder.branch_if_open(join);
                self.builder.switch_to(join);
            }
            Stmt::For { .. } => self.unroll_for(stmt, inline_ret),
            Stmt::While { cond, span, .. } => {
                // Constant-false while loops vanish; anything else cannot be
                // fully unrolled (feed-forward pipelines, §V-D).
                if try_eval(cond) == Some(0) {
                    return;
                }
                self.error(
                    "E0306",
                    "`while` loops cannot be fully unrolled; use a `for` loop with constant bounds (§V-D)"
                        .into(),
                    *span,
                );
            }
            Stmt::Break(span) => match self.loop_stack.last() {
                Some(ctx) => self.builder.terminate(Terminator::Br(ctx.break_to)),
                None => self.error("E0221", "`break` outside loop".into(), *span),
            },
            Stmt::Continue(span) => match self.loop_stack.last() {
                Some(ctx) => self.builder.terminate(Terminator::Br(ctx.continue_to)),
                None => self.error("E0221", "`continue` outside loop".into(), *span),
            },
            Stmt::Return { value, span: _ } => self.lower_return(value.as_ref(), inline_ret),
        }
    }

    fn lower_return(&mut self, value: Option<&Expr>, inline_ret: Option<&InlineRet>) {
        if let Some(ir) = inline_ret {
            // Inlined net function: store the value (if any), jump to exit.
            if let (Some(v), Some((slot, ty))) = (value, ir.slot) {
                let (op, vt) = self.expr(v);
                let op = self.coerce(op, vt, ty);
                self.builder.emit(
                    InstKind::LocalStore { slot, index: Operand::imm(0, IrTy::I32), value: op },
                    ir_storage_ty(ty),
                );
            }
            let exit = ir.exit;
            if !self.builder.is_terminated() {
                self.builder.terminate(Terminator::Br(exit));
            }
            return;
        }
        match value {
            None => self.builder.terminate(Terminator::Ret(ActionRef::pass())),
            Some(v) => self.lower_action_expr(v),
        }
    }

    /// Lowers a kernel `return <expr>` where expr is an action, a void call,
    /// or a ternary mixing them (Fig. 4 line 19).
    fn lower_action_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Ternary(c, a, b) => {
                let cond = self.condition(c);
                let then_bb = self.builder.new_block();
                let else_bb = self.builder.new_block();
                self.builder.terminate(Terminator::CondBr { cond, then_bb, else_bb });
                self.builder.switch_to(then_bb);
                self.lower_action_expr(a);
                self.builder.switch_to(else_bb);
                self.lower_action_expr(b);
            }
            ExprKind::Call { callee, args } => {
                if let Some(Builtin::Action(kind)) = self.resolve_builtin(callee) {
                    let target = match args.first() {
                        Some(t) => {
                            let (op, ty) = self.expr(t);
                            Some(self.coerce(op, ty, Ty::U16))
                        }
                        None => None,
                    };
                    if !self.builder.is_terminated() {
                        self.builder.terminate(Terminator::Ret(ActionRef { kind, target }));
                    }
                    return;
                }
                // A void net-function call followed by implicit pass().
                self.expr(e);
                if !self.builder.is_terminated() {
                    self.builder.terminate(Terminator::Ret(ActionRef::pass()));
                }
            }
            _ => {
                // `return;`-equivalent value (shouldn't reach here past sema).
                self.expr(e);
                if !self.builder.is_terminated() {
                    self.builder.terminate(Terminator::Ret(ActionRef::pass()));
                }
            }
        }
    }

    fn local_decl(&mut self, d: &ast::LocalDecl) {
        let ty = match &d.ty {
            ast::TypeExpr::Auto => d
                .init
                .as_ref()
                .and_then(|i| match i {
                    Init::Expr(e) => Some(self.sema_ty(e)),
                    _ => None,
                })
                .unwrap_or(Ty::I32),
            other => Ty::from_type_expr(other).unwrap_or(Ty::I32),
        };
        let count: u32 = d.dims.first().and_then(try_eval).map(|v| v as u32).unwrap_or(1).max(1);
        let lname = self.name(d.name).to_string();
        let slot = self.builder.add_local(&lname, ir_storage_ty(ty), count);
        match &d.init {
            Some(Init::Expr(e)) => {
                let (op, et) = self.expr(e);
                let op = self.coerce(op, et, ty);
                self.builder.emit(
                    InstKind::LocalStore { slot, index: Operand::imm(0, IrTy::I32), value: op },
                    ir_storage_ty(ty),
                );
            }
            Some(Init::List(items, _)) => {
                for (i, item) in items.iter().enumerate() {
                    if let Init::Expr(e) = item {
                        let (op, et) = self.expr(e);
                        let op = self.coerce(op, et, ty);
                        self.builder.emit(
                            InstKind::LocalStore {
                                slot,
                                index: Operand::imm(i as u64, IrTy::I32),
                                value: op,
                            },
                            ir_storage_ty(ty),
                        );
                    }
                }
            }
            None => {}
        }
        self.scopes.last_mut().unwrap().insert(d.name, Binding::Local { slot, ty });
    }

    // ---- loop unrolling --------------------------------------------------

    fn unroll_for(&mut self, stmt: &Stmt, inline_ret: Option<&InlineRet>) {
        let Stmt::For { init, cond, step, body, span } = stmt else { unreachable!() };
        // The unrollable shape: `for (<decl> iv = C0; <iv-only cond>; <iv step>)`.
        let Some(init) = init else {
            self.error("E0306", "cannot unroll a `for` without an init clause".into(), *span);
            return;
        };
        let Stmt::Decl(ivdecl) = init.as_ref() else {
            self.error(
                "E0306",
                "unrollable loops must declare their induction variable in the init clause".into(),
                *span,
            );
            return;
        };
        let iv = ivdecl.name;
        let iv_ty = match &ivdecl.ty {
            ast::TypeExpr::Auto => Ty::I32,
            other => Ty::from_type_expr(other).unwrap_or(Ty::I32),
        };
        let Some(Init::Expr(e0)) = &ivdecl.init else {
            self.error("E0306", "induction variable requires a constant initializer".into(), *span);
            return;
        };
        let Some(mut ivval) = try_eval(e0) else {
            self.error("E0306", "induction variable initializer is not constant".into(), *span);
            return;
        };

        let exit = self.builder.new_block();
        let mut iterations = 0u64;
        loop {
            let cont = match cond {
                Some(c) => match try_eval_with(c, Some((iv, ivval))) {
                    Some(x) => x != 0,
                    None => {
                        self.error(
                            "E0306",
                            "loop condition does not depend only on the induction variable and constants; cannot fully unroll (§V-D)".into(),
                            c.span,
                        );
                        break;
                    }
                },
                None => {
                    self.error("E0306", "unbounded loop cannot be unrolled".into(), *span);
                    break;
                }
            };
            if !cont {
                break;
            }
            iterations += 1;
            if iterations > MAX_UNROLL {
                self.error(
                    "E0306",
                    format!("loop exceeds the unroll limit of {MAX_UNROLL} iterations"),
                    *span,
                );
                break;
            }
            // Body with iv bound to the constant.
            let next_bb = self.builder.new_block();
            self.scopes.push(HashMap::new());
            self.scopes
                .last_mut()
                .unwrap()
                .insert(iv, Binding::Const { value: iv_ty.wrap(ivval), ty: iv_ty });
            self.loop_stack.push(LoopCtx { break_to: exit, continue_to: next_bb });
            for s in &body.stmts {
                self.stmt(s, inline_ret);
                if self.builder.is_terminated() {
                    break;
                }
            }
            self.loop_stack.pop();
            self.scopes.pop();
            self.builder.branch_if_open(next_bb);
            self.builder.switch_to(next_bb);
            // Step.
            match step {
                Some(s) => match step_value(s, iv, ivval) {
                    Some(next) => ivval = next,
                    None => {
                        self.error(
                            "E0306",
                            "loop step must be `++i`, `i++`, `i += C`, `i -= C`, or `i = i + C`"
                                .into(),
                            s.span,
                        );
                        break;
                    }
                },
                None => {
                    self.error(
                        "E0306",
                        "loop without a step clause cannot be unrolled".into(),
                        *span,
                    );
                    break;
                }
            }
        }
        self.builder.branch_if_open(exit);
        self.builder.switch_to(exit);
    }

    // ---- expressions -----------------------------------------------------

    /// Lowers `e` as a boolean branch condition (`i1`).
    fn condition(&mut self, e: &Expr) -> Operand {
        let (op, ty) = self.expr(e);
        match ty {
            Ty::Bool => op,
            _ => {
                let w = ir_value_ty(ty);
                self.builder.icmp(IcmpPred::Ne, op, Operand::imm(0, w))
            }
        }
    }

    /// Coerces between sema types (C integer conversions).
    fn coerce(&mut self, op: Operand, from: Ty, to: Ty) -> Operand {
        let ft = ir_value_ty(from);
        let tt = ir_value_ty(to);
        if ft == tt {
            return op;
        }
        if tt.bits < ft.bits {
            self.builder.cast(CastKind::Trunc, op, ft, tt)
        } else {
            let signed = matches!(from, Ty::Int { signed: true, .. });
            let kind = if signed { CastKind::Sext } else { CastKind::Zext };
            self.builder.cast(kind, op, ft, tt)
        }
    }

    fn expr(&mut self, e: &Expr) -> (Operand, Ty) {
        let result_ty = self.sema_ty(e);
        match &e.kind {
            ExprKind::Int(v) => (Operand::imm(*v, ir_value_ty(result_ty)), result_ty),
            ExprKind::Char(c) => (Operand::imm(*c as u64, IrTy::I8), Ty::U8),
            ExprKind::Bool(b) => (Operand::imm(*b as u64, IrTy::I1), Ty::Bool),
            ExprKind::Ident(_) | ExprKind::Index(..) | ExprKind::Unary(UnOp::Deref, _) => {
                match self.place(e) {
                    Some(PlaceOrConst::Const(v, ty)) => (Operand::imm(v, ir_value_ty(ty)), ty),
                    Some(PlaceOrConst::Place(p)) => {
                        let ty = p.ty();
                        let v = self.load_place(&p);
                        // Storage bool → value i1.
                        let v = if ty == Ty::Bool {
                            self.builder.icmp(IcmpPred::Ne, v, Operand::imm(0, IrTy::I8))
                        } else {
                            v
                        };
                        (v, ty)
                    }
                    None => (Operand::imm(0, IrTy::I32), Ty::I32),
                }
            }
            ExprKind::Member(base, field) => {
                // device.id / device.kind / msg.* (unless shadowed — sema
                // guarantees they weren't).
                if let ExprKind::Ident(b) = &base.kind {
                    let bn = self.name(*b).to_string();
                    let fname = self.name(*field).to_string();
                    match (bn.as_str(), fname.as_str()) {
                        ("device", "id") => {
                            return (Operand::imm(self.device as u64, IrTy::I16), Ty::U16)
                        }
                        ("device", "kind") => return (Operand::imm(1, IrTy::I8), Ty::U8),
                        ("msg", f) => {
                            let field = match f {
                                "src" => MsgField::Src,
                                "dst" => MsgField::Dst,
                                "from" => MsgField::From,
                                _ => MsgField::To,
                            };
                            let v =
                                self.builder.emit(InstKind::MsgField { field }, IrTy::I16).unwrap();
                            return (Operand::Value(v), Ty::U16);
                        }
                        _ => {}
                    }
                }
                (Operand::imm(0, IrTy::I32), Ty::I32)
            }
            ExprKind::Unary(op, inner) => {
                let (iv, it) = self.expr(inner);
                match op {
                    UnOp::Neg => {
                        let t = it.promote();
                        let v = self.coerce(iv, it, t);
                        let w = ir_value_ty(t);
                        (self.builder.bin(IrBinOp::Sub, Operand::imm(0, w), v, w), t)
                    }
                    UnOp::BitNot => {
                        let t = it.promote();
                        let v = self.coerce(iv, it, t);
                        let w = ir_value_ty(t);
                        (self.builder.bin(IrBinOp::Xor, v, Operand::imm(w.mask(), w), w), t)
                    }
                    UnOp::Not => {
                        let c = if it == Ty::Bool {
                            iv
                        } else {
                            self.builder.icmp(IcmpPred::Ne, iv, Operand::imm(0, ir_value_ty(it)))
                        };
                        (
                            self.builder.bin(IrBinOp::Xor, c, Operand::imm(1, IrTy::I1), IrTy::I1),
                            Ty::Bool,
                        )
                    }
                    UnOp::AddrOf | UnOp::Deref => (iv, it), // Deref handled in place path
                }
            }
            ExprKind::Binary(op, a, b) => self.binary(*op, a, b, result_ty),
            ExprKind::Assign { op, target, value } => {
                let tty = self.sema_ty(target);
                let rhs = match op {
                    None => {
                        let (v, vt) = self.expr(value);
                        self.coerce(v, vt, tty)
                    }
                    Some(bop) => {
                        let (cur, _) = self.expr(target);
                        let (v, vt) = self.expr(value);
                        let common = Ty::unify_arith(tty, vt);
                        let cl = self.coerce(cur, tty, common);
                        let vr = self.coerce(v, vt, common);
                        let w = ir_value_ty(common);
                        let res = self.builder.bin(bin_ir_op(*bop, common), cl, vr, w);
                        self.coerce(res, common, tty)
                    }
                };
                if let Some(PlaceOrConst::Place(p)) = self.place(target) {
                    self.store_place(&p, rhs, tty);
                } else {
                    self.error("E0202", "cannot assign to this expression".into(), target.span);
                }
                (rhs, tty)
            }
            ExprKind::Ternary(c, a, b) => {
                if result_ty == Ty::Action || result_ty == Ty::Void {
                    // Handled by lower_action_expr via Return; reaching here
                    // means a void ternary statement — lower as if/else.
                    let cond = self.condition(c);
                    let then_bb = self.builder.new_block();
                    let else_bb = self.builder.new_block();
                    let join = self.builder.new_block();
                    self.builder.terminate(Terminator::CondBr { cond, then_bb, else_bb });
                    self.builder.switch_to(then_bb);
                    self.expr(a);
                    self.builder.branch_if_open(join);
                    self.builder.switch_to(else_bb);
                    self.expr(b);
                    self.builder.branch_if_open(join);
                    self.builder.switch_to(join);
                    return (Operand::imm(0, IrTy::I32), Ty::Void);
                }
                if self.select_safe(a) && self.select_safe(b) {
                    let cond = self.condition(c);
                    let (av, at) = self.expr(a);
                    let (bv, bt) = self.expr(b);
                    let av = self.coerce(av, at, result_ty);
                    let bv = self.coerce(bv, bt, result_ty);
                    let w = ir_value_ty(result_ty);
                    let v = self.builder.emit(InstKind::Select { cond, a: av, b: bv }, w).unwrap();
                    (Operand::Value(v), result_ty)
                } else {
                    // Side effects: branch + temp slot (mem2reg rebuilds SSA).
                    let slot = self.builder.add_local("ternary", ir_storage_ty(result_ty), 1);
                    let cond = self.condition(c);
                    let then_bb = self.builder.new_block();
                    let else_bb = self.builder.new_block();
                    let join = self.builder.new_block();
                    self.builder.terminate(Terminator::CondBr { cond, then_bb, else_bb });
                    let i0 = Operand::imm(0, IrTy::I32);
                    self.builder.switch_to(then_bb);
                    let (av, at) = self.expr(a);
                    let av = self.coerce(av, at, result_ty);
                    let av = self.coerce_to_storage(av, result_ty);
                    self.builder.emit(
                        InstKind::LocalStore { slot, index: i0, value: av },
                        ir_storage_ty(result_ty),
                    );
                    self.builder.branch_if_open(join);
                    self.builder.switch_to(else_bb);
                    let (bv, bt) = self.expr(b);
                    let bv = self.coerce(bv, bt, result_ty);
                    let bv = self.coerce_to_storage(bv, result_ty);
                    self.builder.emit(
                        InstKind::LocalStore { slot, index: i0, value: bv },
                        ir_storage_ty(result_ty),
                    );
                    self.builder.branch_if_open(join);
                    self.builder.switch_to(join);
                    let v = self
                        .builder
                        .emit(InstKind::LocalLoad { slot, index: i0 }, ir_storage_ty(result_ty))
                        .unwrap();
                    let v = self.coerce_from_storage(Operand::Value(v), result_ty);
                    (v, result_ty)
                }
            }
            ExprKind::Call { callee, args } => self.call(e, callee, args, result_ty),
            ExprKind::Cast(te, inner) => {
                let to = Ty::from_type_expr(te).unwrap_or(Ty::I32);
                let (v, vt) = self.expr(inner);
                (self.coerce(v, vt, to), to)
            }
            ExprKind::IncDec { inc, postfix, expr } => {
                let ty = self.sema_ty(expr);
                let (old, _) = self.expr(expr);
                let w = ir_value_ty(ty);
                let op = if *inc { IrBinOp::Add } else { IrBinOp::Sub };
                let new = self.builder.bin(op, old, Operand::imm(1, w), w);
                if let Some(PlaceOrConst::Place(p)) = self.place(expr) {
                    self.store_place(&p, new, ty);
                }
                (if *postfix { old } else { new }, ty)
            }
            ExprKind::Sizeof(te) => {
                let sz = Ty::from_type_expr(te).map(|t| t.size_bytes()).unwrap_or(4);
                (Operand::imm(sz as u64, IrTy::I32), Ty::U32)
            }
            ExprKind::Path { .. } => (Operand::imm(0, IrTy::I32), Ty::I32),
            ExprKind::Error => (Operand::imm(0, IrTy::I32), Ty::I32),
        }
    }

    fn binary(&mut self, op: BinOp, a: &Expr, b: &Expr, result_ty: Ty) -> (Operand, Ty) {
        let (av, at) = self.expr(a);
        let (bv, bt) = self.expr(b);
        if op.is_comparison() {
            match op {
                BinOp::LogicalAnd | BinOp::LogicalOr => {
                    // Non-short-circuit evaluation: device expressions are
                    // effect-free in practice and P4 evaluates eagerly too.
                    let ac = if at == Ty::Bool {
                        av
                    } else {
                        self.builder.icmp(IcmpPred::Ne, av, Operand::imm(0, ir_value_ty(at)))
                    };
                    let bc = if bt == Ty::Bool {
                        bv
                    } else {
                        self.builder.icmp(IcmpPred::Ne, bv, Operand::imm(0, ir_value_ty(bt)))
                    };
                    let ir_op = if op == BinOp::LogicalAnd { IrBinOp::And } else { IrBinOp::Or };
                    (self.builder.bin(ir_op, ac, bc, IrTy::I1), Ty::Bool)
                }
                _ => {
                    let common = Ty::unify_arith(at, bt);
                    let al = self.coerce(av, at, common);
                    let bl = self.coerce(bv, bt, common);
                    let signed = matches!(common, Ty::Int { signed: true, .. });
                    let pred = match op {
                        BinOp::Eq => IcmpPred::Eq,
                        BinOp::Ne => IcmpPred::Ne,
                        BinOp::Lt => {
                            if signed {
                                IcmpPred::Slt
                            } else {
                                IcmpPred::Ult
                            }
                        }
                        BinOp::Le => {
                            if signed {
                                IcmpPred::Sle
                            } else {
                                IcmpPred::Ule
                            }
                        }
                        BinOp::Gt => {
                            if signed {
                                IcmpPred::Sgt
                            } else {
                                IcmpPred::Ugt
                            }
                        }
                        BinOp::Ge => {
                            if signed {
                                IcmpPred::Sge
                            } else {
                                IcmpPred::Uge
                            }
                        }
                        _ => unreachable!(),
                    };
                    (self.builder.icmp(pred, al, bl), Ty::Bool)
                }
            }
        } else {
            let common = if result_ty.is_arith() { result_ty } else { Ty::unify_arith(at, bt) };
            let al = self.coerce(av, at, common);
            let bl = self.coerce(bv, bt, common);
            let w = ir_value_ty(common);
            (self.builder.bin(bin_ir_op(op, common), al, bl, w), common)
        }
    }

    // ---- calls -----------------------------------------------------------

    fn resolve_builtin(&self, callee: &Expr) -> Option<Builtin> {
        let ExprKind::Path { segments, targs } = &callee.kind else { return None };
        let segs: Vec<&str> = segments.iter().map(|s| self.name(*s)).collect();
        let widths: Vec<u64> = targs
            .iter()
            .map(|t| match t {
                ast::TemplateArg::Const(c) => *c,
                ast::TemplateArg::Type(te) => {
                    Ty::from_type_expr(te).map(|t| t.bits() as u64).unwrap_or(32)
                }
            })
            .collect();
        builtins::resolve(&segs, &widths).ok()
    }

    fn call(&mut self, e: &Expr, callee: &Expr, args: &[Expr], result_ty: Ty) -> (Operand, Ty) {
        if let Some(b) = self.resolve_builtin(callee) {
            return self.builtin_call(e, &b, args, result_ty);
        }
        if let ExprKind::Ident(name) = &callee.kind {
            let n = self.name(*name).to_string();
            if let Some(idx) = self.analysis.model.net_fns.iter().position(|f| f.name == n) {
                return self.inline_net_fn(idx, args, e.span);
            }
        }
        (Operand::imm(0, IrTy::I32), Ty::I32)
    }

    fn builtin_call(
        &mut self,
        e: &Expr,
        b: &Builtin,
        args: &[Expr],
        result_ty: Ty,
    ) -> (Operand, Ty) {
        match b {
            Builtin::Action(_) => {
                // Actions reaching expression position outside `return` were
                // rejected by sema; emit a pass-through zero.
                self.error("E0204", "action used outside a kernel return".into(), e.span);
                (Operand::imm(0, IrTy::I32), Ty::I32)
            }
            Builtin::Atomic(op) => {
                let Some(place) = self.atomic_place(&args[0]) else {
                    return (Operand::imm(0, IrTy::I32), result_ty);
                };
                let Place::Global { mem, indices, ty: elem } = place else {
                    return (Operand::imm(0, IrTy::I32), result_ty);
                };
                let mut rest = &args[1..];
                let cond = if op.cond {
                    let c = self.condition(&rest[0]);
                    rest = &rest[1..];
                    Some(c)
                } else {
                    None
                };
                let mut operands = Vec::new();
                for a in rest {
                    let (v, vt) = self.expr(a);
                    operands.push(self.coerce(v, vt, elem));
                }
                let v = self
                    .builder
                    .emit(
                        InstKind::AtomicRmw {
                            op: *op,
                            mem: MemRef { mem, indices },
                            cond,
                            operands,
                        },
                        ir_storage_ty(elem),
                    )
                    .unwrap();
                (Operand::Value(v), elem)
            }
            Builtin::Lookup => {
                let Some((mem, key_ty, val_ty)) = self.lookup_table(&args[0]) else {
                    return (Operand::imm(0, IrTy::I1), Ty::Bool);
                };
                let (kv, kt) = self.expr(&args[1]);
                let key = self.coerce(kv, kt, key_ty);
                let (hit, value) =
                    self.builder.emit_lookup(mem, key, ir_storage_ty(val_ty.unwrap_or(Ty::U32)));
                // Conditional out-write: the destination keeps its value on a
                // miss (§V-B example: `lookup(b, 21, y); // false, y = 42`).
                if let (Some(out), Some(vt)) = (args.get(2), val_ty) {
                    let store_bb = self.builder.new_block();
                    let join = self.builder.new_block();
                    self.builder.terminate(Terminator::CondBr {
                        cond: Operand::Value(hit),
                        then_bb: store_bb,
                        else_bb: join,
                    });
                    self.builder.switch_to(store_bb);
                    if let Some(PlaceOrConst::Place(p)) = self.place(out) {
                        self.store_place(&p, Operand::Value(value), vt);
                    }
                    self.builder.branch_if_open(join);
                    self.builder.switch_to(join);
                }
                (Operand::Value(hit), Ty::Bool)
            }
            Builtin::Hash(kind, bits) => {
                let (v, _) = self.expr(&args[0]);
                let out_ty = result_ty;
                let h = self
                    .builder
                    .emit(InstKind::Hash { kind: *kind, bits: *bits, a: v }, ir_value_ty(out_ty))
                    .unwrap();
                (Operand::Value(h), out_ty)
            }
            Builtin::SAdd | Builtin::SSub | Builtin::Min | Builtin::Max => {
                let (av, at) = self.expr(&args[0]);
                let (bv, bt) = self.expr(&args[1]);
                let common = Ty::unify_arith(at, bt);
                let al = self.coerce(av, at, common);
                let bl = self.coerce(bv, bt, common);
                let signed = matches!(common, Ty::Int { signed: true, .. });
                let op = match b {
                    Builtin::SAdd => IrBinOp::UAddSat,
                    Builtin::SSub => IrBinOp::USubSat,
                    Builtin::Min => {
                        if signed {
                            IrBinOp::SMin
                        } else {
                            IrBinOp::UMin
                        }
                    }
                    _ => {
                        if signed {
                            IrBinOp::SMax
                        } else {
                            IrBinOp::UMax
                        }
                    }
                };
                (self.builder.bin(op, al, bl, ir_value_ty(common)), common)
            }
            Builtin::BitChk => {
                let (xv, xt) = self.expr(&args[0]);
                let (iv, it) = self.expr(&args[1]);
                let w = ir_value_ty(xt.promote());
                let x = self.coerce(xv, xt, xt.promote());
                let i = self.coerce(iv, it, xt.promote());
                let shifted = self.builder.bin(IrBinOp::LShr, x, i, w);
                let bit = self.builder.bin(IrBinOp::And, shifted, Operand::imm(1, w), w);
                (self.builder.icmp(IcmpPred::Ne, bit, Operand::imm(0, w)), Ty::Bool)
            }
            Builtin::Bswap => {
                let (v, vt) = self.expr(&args[0]);
                let w = ir_value_ty(vt);
                let r = self
                    .builder
                    .emit(InstKind::Un { op: netcl_ir::types::IrUnOp::Bswap, a: v }, w)
                    .unwrap();
                (Operand::Value(r), vt)
            }
            Builtin::Clz => {
                let (v, vt) = self.expr(&args[0]);
                let r = self
                    .builder
                    .emit(InstKind::Un { op: netcl_ir::types::IrUnOp::Clz, a: v }, IrTy::I8)
                    .unwrap();
                let _ = vt;
                (Operand::Value(r), Ty::U8)
            }
            Builtin::Rand(bits) => {
                let ty = Ty::Int { bits: (*bits).max(8), signed: false };
                let r = self.builder.emit(InstKind::Rand, ir_value_ty(ty)).unwrap();
                (Operand::Value(r), ty)
            }
            Builtin::TargetIntrinsic { target, name } => {
                let mut ops = Vec::new();
                for a in args {
                    let (v, _) = self.expr(a);
                    ops.push(v);
                }
                let r = self
                    .builder
                    .emit(
                        InstKind::Intrinsic {
                            target: target.clone(),
                            name: name.clone(),
                            args: ops,
                        },
                        IrTy::I32,
                    )
                    .unwrap();
                (Operand::Value(r), Ty::U32)
            }
        }
    }

    fn inline_net_fn(&mut self, idx: usize, args: &[Expr], span: Span) -> (Operand, Ty) {
        if self.inline_depth > 16 {
            self.error("E0217", "net function inlining too deep (recursion?)".into(), span);
            return (Operand::imm(0, IrTy::I32), Ty::I32);
        }
        let info = self.analysis.model.net_fns[idx].clone();
        let Item::Function(decl) = &self.unit.program.items[info.item_index] else {
            return (Operand::imm(0, IrTy::I32), Ty::I32);
        };
        // Bind parameters.
        let mut bindings: HashMap<Symbol, Binding> = HashMap::new();
        for ((p, pi), arg) in decl.params.iter().zip(&info.params).zip(args) {
            match pi.mode {
                PassMode::Value => {
                    let (v, vt) = self.expr(arg);
                    let v = self.coerce(v, vt, pi.ty);
                    let v = self.coerce_to_storage(v, pi.ty);
                    let slot = self.builder.add_local(&pi.name, ir_storage_ty(pi.ty), 1);
                    self.builder.emit(
                        InstKind::LocalStore { slot, index: Operand::imm(0, IrTy::I32), value: v },
                        ir_storage_ty(pi.ty),
                    );
                    bindings.insert(p.name, Binding::Local { slot, ty: pi.ty });
                }
                PassMode::Reference | PassMode::Pointer => match self.place(arg) {
                    Some(PlaceOrConst::Place(place)) => {
                        bindings.insert(p.name, Binding::Alias(place));
                    }
                    _ => {
                        self.error(
                            "E0307",
                            format!("cannot pass this expression by reference to `{}`", info.name),
                            arg.span,
                        );
                    }
                },
            }
        }
        // Return slot and exit block.
        let ret_slot = if info.ret != Ty::Void {
            Some((
                self.builder.add_local(&format!("{}.ret", info.name), ir_storage_ty(info.ret), 1),
                info.ret,
            ))
        } else {
            None
        };
        let exit = self.builder.new_block();
        let inline_ret = InlineRet { slot: ret_slot, exit };

        // New scope stack fragment: only the bindings (net fns can't see
        // caller locals).
        let saved_scopes = std::mem::replace(&mut self.scopes, vec![bindings]);
        let saved_loops = std::mem::take(&mut self.loop_stack);
        self.inline_depth += 1;
        if let Some(body) = &decl.body {
            for s in &body.stmts {
                self.stmt(s, Some(&inline_ret));
                if self.builder.is_terminated() {
                    break;
                }
            }
        }
        self.inline_depth -= 1;
        self.scopes = saved_scopes;
        self.loop_stack = saved_loops;
        self.builder.branch_if_open(exit);
        self.builder.switch_to(exit);

        match ret_slot {
            Some((slot, ty)) => {
                let v = self
                    .builder
                    .emit(
                        InstKind::LocalLoad { slot, index: Operand::imm(0, IrTy::I32) },
                        ir_storage_ty(ty),
                    )
                    .unwrap();
                let v = self.coerce_from_storage(Operand::Value(v), ty);
                (v, ty)
            }
            None => (Operand::imm(0, IrTy::I32), Ty::Void),
        }
    }

    /// True when a ternary arm may be evaluated eagerly for a `select`:
    /// side-effect-free AND touching no global memory — §V-D's
    /// `(x > 10) ? m[0] : m[1]` is *valid* precisely because the accesses
    /// stay mutually exclusive, so they must lower as branches, not as an
    /// eager select.
    fn select_safe(&self, e: &Expr) -> bool {
        if !is_pure(e) {
            return false;
        }
        !self.touches_global(e)
    }

    fn touches_global(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Ident(name) => {
                self.lookup_binding(*name).is_none()
                    && self.global_ids.contains_key(self.name(*name))
            }
            ExprKind::Index(a, b) | ExprKind::Binary(_, a, b) => {
                self.touches_global(a) || self.touches_global(b)
            }
            ExprKind::Unary(_, x) | ExprKind::Cast(_, x) => self.touches_global(x),
            ExprKind::Ternary(c, a, b) => {
                self.touches_global(c) || self.touches_global(a) || self.touches_global(b)
            }
            ExprKind::Member(b, _) => self.touches_global(b),
            _ => false,
        }
    }

    // ---- places ----------------------------------------------------------

    fn atomic_place(&mut self, arg: &Expr) -> Option<Place> {
        let inner = match &arg.kind {
            ExprKind::Unary(UnOp::AddrOf, inner) => inner,
            _ => arg,
        };
        match self.place(inner) {
            Some(PlaceOrConst::Place(p)) => Some(p),
            _ => None,
        }
    }

    fn lookup_table(&mut self, arg: &Expr) -> Option<(MemId, Ty, Option<Ty>)> {
        let ExprKind::Ident(name) = &arg.kind else { return None };
        let n = self.name(*name).to_string();
        let mem = *self.global_ids.get(&n)?;
        let ginfo = self.analysis.model.global(&n)?;
        Some(match ginfo.elem {
            Ty::Kv { key, value } => (mem, key.ty(), Some(value.ty())),
            Ty::Rv { range, value } => (mem, range.ty(), Some(value.ty())),
            scalar => (mem, scalar, None),
        })
    }

    fn place(&mut self, e: &Expr) -> Option<PlaceOrConst> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(binding) = self.lookup_binding(*name) {
                    return Some(match binding {
                        Binding::Const { value, ty } => PlaceOrConst::Const(value, ty),
                        Binding::Local { slot, ty } => PlaceOrConst::Place(Place::Local {
                            slot,
                            index: Operand::imm(0, IrTy::I32),
                            ty,
                        }),
                        Binding::ArgMsg { index, ty } => PlaceOrConst::Place(Place::ArgMsg {
                            arg: index,
                            index: Operand::imm(0, IrTy::I32),
                            ty,
                        }),
                        Binding::Alias(p) => PlaceOrConst::Place(p),
                    });
                }
                let n = self.name(*name).to_string();
                let mem = *self.global_ids.get(&n)?;
                let ginfo = self.analysis.model.global(&n)?;
                Some(PlaceOrConst::Place(Place::Global {
                    mem,
                    indices: Vec::new(),
                    ty: ginfo.elem,
                }))
            }
            ExprKind::Index(base, idx) => {
                let (iv, it) = self.expr(idx);
                let iv32 = self.coerce(iv, it, Ty::U32);
                let base_place = self.place(base)?;
                match base_place {
                    PlaceOrConst::Place(Place::Local { slot, ty, .. }) => {
                        Some(PlaceOrConst::Place(Place::Local { slot, index: iv32, ty }))
                    }
                    PlaceOrConst::Place(Place::ArgMsg { arg, ty, .. }) => {
                        Some(PlaceOrConst::Place(Place::ArgMsg { arg, index: iv32, ty }))
                    }
                    PlaceOrConst::Place(Place::Global { mem, mut indices, ty }) => {
                        indices.push(iv32);
                        Some(PlaceOrConst::Place(Place::Global { mem, indices, ty }))
                    }
                    PlaceOrConst::Const(..) => None,
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => self.place(inner),
            _ => None,
        }
    }

    fn load_place(&mut self, p: &Place) -> Operand {
        match p {
            Place::Local { slot, index, ty } => {
                let v = self
                    .builder
                    .emit(InstKind::LocalLoad { slot: *slot, index: *index }, ir_storage_ty(*ty))
                    .unwrap();
                Operand::Value(v)
            }
            Place::ArgMsg { arg, index, ty } => {
                let v = self
                    .builder
                    .emit(InstKind::ArgRead { arg: *arg, index: *index }, ir_storage_ty(*ty))
                    .unwrap();
                Operand::Value(v)
            }
            Place::Global { mem, indices, ty } => {
                let v = self
                    .builder
                    .emit(
                        InstKind::MemRead { mem: MemRef { mem: *mem, indices: indices.clone() } },
                        ir_storage_ty(*ty),
                    )
                    .unwrap();
                Operand::Value(v)
            }
        }
    }

    /// Bool value (`i1`) widens to its 8-bit storage form before a store.
    fn coerce_to_storage(&mut self, op: Operand, ty: Ty) -> Operand {
        if ty == Ty::Bool {
            self.builder.cast(CastKind::Zext, op, IrTy::I1, IrTy::I8)
        } else {
            op
        }
    }

    /// 8-bit stored bool narrows back to `i1` after a load.
    fn coerce_from_storage(&mut self, op: Operand, ty: Ty) -> Operand {
        if ty == Ty::Bool {
            self.builder.icmp(IcmpPred::Ne, op, Operand::imm(0, IrTy::I8))
        } else {
            op
        }
    }

    fn store_place(&mut self, p: &Place, value: Operand, value_ty: Ty) {
        let target_ty = p.ty();
        let v = self.coerce(value, value_ty, target_ty);
        let v = self.coerce_to_storage(v, target_ty);
        match p {
            Place::Local { slot, index, ty } => {
                self.builder.emit(
                    InstKind::LocalStore { slot: *slot, index: *index, value: v },
                    ir_storage_ty(*ty),
                );
            }
            Place::ArgMsg { arg, index, ty } => {
                self.builder.emit(
                    InstKind::ArgWrite { arg: *arg, index: *index, value: v },
                    ir_storage_ty(*ty),
                );
            }
            Place::Global { mem, indices, ty } => {
                self.builder.emit(
                    InstKind::MemWrite {
                        mem: MemRef { mem: *mem, indices: indices.clone() },
                        value: v,
                    },
                    ir_storage_ty(*ty),
                );
            }
        }
    }
}

enum PlaceOrConst {
    Place(Place),
    Const(u64, Ty),
}

struct InlineRet {
    slot: Option<(LocalId, Ty)>,
    exit: netcl_ir::BlockId,
}

fn bin_ir_op(op: BinOp, ty: Ty) -> IrBinOp {
    let signed = matches!(ty, Ty::Int { signed: true, .. });
    match op {
        BinOp::Add => IrBinOp::Add,
        BinOp::Sub => IrBinOp::Sub,
        BinOp::Mul => IrBinOp::Mul,
        BinOp::Div => {
            if signed {
                IrBinOp::SDiv
            } else {
                IrBinOp::UDiv
            }
        }
        BinOp::Rem => {
            if signed {
                IrBinOp::SRem
            } else {
                IrBinOp::URem
            }
        }
        BinOp::And => IrBinOp::And,
        BinOp::Or => IrBinOp::Or,
        BinOp::Xor => IrBinOp::Xor,
        BinOp::Shl => IrBinOp::Shl,
        BinOp::Shr => {
            if signed {
                IrBinOp::AShr
            } else {
                IrBinOp::LShr
            }
        }
        _ => IrBinOp::Add,
    }
}

/// True when an expression has no side effects (safe to evaluate eagerly).
fn is_pure(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Int(_)
        | ExprKind::Bool(_)
        | ExprKind::Char(_)
        | ExprKind::Ident(_)
        | ExprKind::Sizeof(_)
        | ExprKind::Path { .. }
        | ExprKind::Error => true,
        ExprKind::Member(b, _) => is_pure(b),
        ExprKind::Unary(_, x) | ExprKind::Cast(_, x) => is_pure(x),
        ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => is_pure(a) && is_pure(b),
        ExprKind::Ternary(c, a, b) => is_pure(c) && is_pure(a) && is_pure(b),
        ExprKind::Assign { .. } | ExprKind::Call { .. } | ExprKind::IncDec { .. } => false,
    }
}

/// Computes the next induction value for a recognized step expression.
fn step_value(step: &Expr, iv: Symbol, current: u64) -> Option<u64> {
    match &step.kind {
        ExprKind::IncDec { inc, expr, .. } => match &expr.kind {
            ExprKind::Ident(s) if *s == iv => {
                Some(if *inc { current.wrapping_add(1) } else { current.wrapping_sub(1) })
            }
            _ => None,
        },
        ExprKind::Assign { op, target, value } => {
            let ExprKind::Ident(s) = &target.kind else { return None };
            if *s != iv {
                return None;
            }
            match op {
                Some(BinOp::Add) => Some(current.wrapping_add(try_eval(value)?)),
                Some(BinOp::Sub) => Some(current.wrapping_sub(try_eval(value)?)),
                Some(BinOp::Shl) => Some(current.wrapping_shl(try_eval(value)? as u32)),
                Some(BinOp::Shr) => Some(current.wrapping_shr(try_eval(value)? as u32)),
                Some(BinOp::Mul) => Some(current.wrapping_mul(try_eval(value)?)),
                None => try_eval_with(value, Some((iv, current))),
                _ => None,
            }
        }
        _ => None,
    }
}
