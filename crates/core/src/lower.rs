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
//!   kernels constant-fold their branches away. Nothing else in a module
//!   depends on its device; the lowering reports whether it read the id.
//! * **full loop unrolling** — `for` loops with compile-time iteration
//!   spaces are replicated per iteration with the induction variable bound
//!   to a constant; anything else is rejected (`E0306`), matching the
//!   feed-forward pipeline restriction of §V-D.
//!
//! Everything else lowers 1:1: locals become slots (mem2reg promotes them;
//! a multi-dimensional local is one slot indexed row-major), kernel
//! arguments become message accesses (by-value arguments are copied into
//! locals at entry so their updates stay device-local, §V-A), global
//! accesses become register transactions, and actions become terminators.
//!
//! Lowering resolves nothing. Every type, callee, global, `device` / `msg`
//! member, `sizeof` operand and local declaration is read from sema's
//! [`Analysis`], and a node sema left unresolved is an internal error
//! (`E0399`). The scope stack holds only what lowering alone decides: slots,
//! the aliases inlining creates and the constants unrolling binds.

use netcl_ir::func::{
    ActionRef, Atomic, FuncBuilder, InstKind, IntrinsicCall, LocalId, MemId, MemRef, MsgField,
    Terminator,
};
use netcl_ir::types::{CastKind, IcmpPred, IrBinOp, IrTy, IrUnOp, Operand};
use netcl_ir::{BlockId, GlobalDef, Module};
use netcl_lang::ast::{self, BinOp, Block, Expr, ExprKind, Init, Item, PassMode, Stmt, UnOp};
use netcl_lang::ParsedUnit;
use netcl_sema::builtins::Builtin;
use netcl_sema::consteval::{try_eval, try_eval_with};
use netcl_sema::model::placed_at;
use netcl_sema::{Analysis, KernelInfo, Member, Resolution, Ty};
use netcl_util::{DiagnosticSink, Span, Symbol};

/// Maximum unrolled iterations per loop.
const MAX_UNROLL: u64 = 4096;

/// Element 0: a scalar's index.
const ZERO: Operand = Operand::Const(0, IrTy::I32);

/// What an expression lowers to once an error is reported: the kernel is
/// dropped, so the value is never used.
const POISON: (Operand, Ty) = (ZERO, Ty::Void);

/// Lowers all kernels and globals placed at `device` into an IR module. The
/// module does not record `device`: only the constants `device.id` lowers
/// to depend on it.
pub fn lower_device(
    unit: &ParsedUnit,
    analysis: &Analysis,
    device: u16,
    diags: &mut DiagnosticSink,
) -> Module {
    lower_reporting(unit, analysis, device, diags).0
}

/// [`lower_device`], and whether the module depends on `device` at all.
pub(crate) fn lower_reporting(
    unit: &ParsedUnit,
    analysis: &Analysis,
    device: u16,
    diags: &mut DiagnosticSink,
) -> (Module, bool) {
    let mut module = Module {
        name: unit.source_map.file(Span::new(0, 0)).map(|f| f.name.clone()).unwrap_or_default(),
        globals: Vec::new(),
        kernels: Vec::new(),
    };
    // Globals placed at this device, in declaration order; MemId = index.
    // `mems` holds each model global's MemId here.
    let mems: Vec<Option<MemId>> = analysis
        .model
        .globals
        .iter()
        .map(|g| {
            placed_at(&g.locations, device).then(|| {
                module.globals.push(GlobalDef {
                    name: g.name.clone(),
                    ty: ir_storage_ty(g.elem),
                    dims: g.dims.clone(),
                    managed: g.managed,
                    lookup: g.lookup,
                    entries: g.entries.clone(),
                    origin: None,
                });
                MemId(module.globals.len() as u32 - 1)
            })
        })
        .collect();

    let mut read_device = false;
    for kinfo in analysis.model.kernels.iter().filter(|k| placed_at(&k.locations, device)) {
        let Item::Function(decl) = &unit.program.items[kinfo.item_index] else { continue };
        let mut lctx = Lower {
            unit,
            analysis,
            device,
            diags: &mut *diags,
            mems: &mems,
            builder: FuncBuilder::new(&kinfo.name, kinfo.computation),
            bindings: Vec::new(),
            floor: 0,
            loop_stack: Vec::new(),
            inline_depth: 0,
            failed: false,
            read_device: &mut read_device,
        };
        lctx.lower_kernel(decl, kinfo);
        if !lctx.failed {
            module.kernels.push(lctx.builder.finish());
        }
    }
    (module, read_device)
}

/// Storage width for a sema type (bool stores as 8 bits on the wire and in
/// registers; its *value* type in the IR is `i1`).
fn ir_storage_ty(ty: Ty) -> IrTy {
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

fn signed(ty: Ty) -> bool {
    matches!(ty, Ty::Int { signed: true, .. })
}

/// What a name or place expression denotes during lowering.
#[derive(Clone, Debug)]
enum Binding<'a> {
    /// Storage: a local slot (locals, by-value args, inlined value params),
    /// a message-resident kernel argument, or a caller's place an inlined
    /// reference parameter aliases.
    Place(Place<'a>),
    /// A compile-time constant: an unrolled induction variable.
    Const(u64, Ty),
}

/// A resolved storage location.
#[derive(Clone, Debug)]
enum Place<'a> {
    /// Element `index` of a local slot, row-major; `dims` are the
    /// dimensions not yet indexed.
    Local {
        slot: LocalId,
        index: Operand,
        ty: Ty,
        dims: &'a [usize],
    },
    ArgMsg {
        arg: u32,
        index: Operand,
        ty: Ty,
    },
    Global {
        mem: MemId,
        indices: Vec<Operand>,
        ty: Ty,
    },
}

impl Place<'_> {
    fn ty(&self) -> Ty {
        match self {
            Place::Local { ty, .. } | Place::ArgMsg { ty, .. } | Place::Global { ty, .. } => *ty,
        }
    }
}

struct LoopCtx {
    break_to: BlockId,
    continue_to: BlockId,
}

/// Where an inlined net function's `return` stores its value and jumps.
struct InlineRet {
    slot: Option<(LocalId, Ty)>,
    exit: BlockId,
}

struct Lower<'a> {
    unit: &'a ParsedUnit,
    analysis: &'a Analysis,
    device: u16,
    diags: &'a mut DiagnosticSink,
    /// Each model global's `MemId` on this device.
    mems: &'a [Option<MemId>],
    builder: FuncBuilder,
    /// The scope stack, innermost last; a scope truncates it on exit.
    bindings: Vec<(Symbol, Binding<'a>)>,
    /// Where the visible bindings begin: an inlined body sees only its
    /// parameters, not the caller's locals.
    floor: usize,
    loop_stack: Vec<LoopCtx>,
    inline_depth: usize,
    failed: bool,
    /// Set once [`Lower::device`] is called: the module depends on it.
    read_device: &'a mut bool,
}

impl<'a> Lower<'a> {
    /// The device being lowered for: every read goes through here, so any
    /// construct that makes a module depend on its device is reported.
    fn device(&mut self) -> u16 {
        *self.read_device = true;
        self.device
    }

    fn error(&mut self, code: &'static str, msg: String, span: Span) -> (Operand, Ty) {
        self.diags.error(code, msg, span);
        self.failed = true;
        POISON
    }

    /// Sema resolves everything lowering reads; a gap is a compiler bug.
    fn unresolved(&mut self, what: &str, span: Span) -> (Operand, Ty) {
        self.error("E0399", format!("internal: sema left this {what} unresolved"), span)
    }

    /// Sema's type of `e`.
    fn ty(&mut self, e: &Expr) -> Ty {
        match self.analysis.ty(e.id) {
            Some(ty) => ty,
            None => self.unresolved("expression's type", e.span).1,
        }
    }

    fn bind(&mut self, name: Symbol, binding: Binding<'a>) {
        self.bindings.push((name, binding));
    }

    fn binding(&self, name: Symbol) -> Option<&Binding<'a>> {
        self.bindings[self.floor..].iter().rev().find(|(n, _)| *n == name).map(|(_, b)| b)
    }

    /// Emits an instruction that defines a value.
    fn value(&mut self, kind: InstKind, ty: IrTy) -> Operand {
        Operand::Value(self.builder.emit(kind, ty).expect("the instruction defines a value"))
    }

    fn ret(&mut self, action: ActionRef) {
        if !self.builder.is_terminated() {
            self.builder.terminate(Terminator::Ret(action));
        }
    }

    // ---- entry ---------------------------------------------------------

    fn lower_kernel(&mut self, decl: &ast::FunctionDecl, kinfo: &KernelInfo) {
        for (i, (p, pi)) in decl.params.iter().zip(&kinfo.params).enumerate() {
            let (arg, ty) = (i as u32, ir_storage_ty(pi.ty));
            let in_message = pi.mode != PassMode::Value;
            self.builder.add_arg(&pi.name, ty, pi.count, in_message);
            let place = if in_message {
                Place::ArgMsg { arg, index: ZERO, ty: pi.ty }
            } else {
                // By-value: copy into a local so updates stay device-local.
                let slot = self.builder.add_local(&pi.name, ty, pi.count);
                for e in 0..pi.count {
                    let index = Operand::imm(e as u64, IrTy::I32);
                    let value = self.value(InstKind::ArgRead { arg, index }, ty);
                    self.builder.emit(InstKind::LocalStore { slot, index, value }, ty);
                }
                Place::Local { slot, index: ZERO, ty: pi.ty, dims: &[] }
            };
            self.bind(p.name, Binding::Place(place));
        }
        if let Some(body) = &decl.body {
            self.stmts(&body.stmts, None);
        }
    }

    // ---- statements ------------------------------------------------------

    fn stmts(&mut self, stmts: &[Stmt], inline_ret: Option<&InlineRet>) {
        for s in stmts {
            self.stmt(s, inline_ret);
        }
    }

    /// A block in a scope of its own.
    fn block(&mut self, b: &Block, inline_ret: Option<&InlineRet>) {
        let mark = self.bindings.len();
        self.stmts(&b.stmts, inline_ret);
        self.bindings.truncate(mark);
    }

    /// `if (cond) then else els`; both fall through to a join block.
    fn branch(&mut self, cond: Operand, then: impl FnOnce(&mut Self), els: impl FnOnce(&mut Self)) {
        let then_bb = self.builder.new_block();
        let else_bb = self.builder.new_block();
        let join = self.builder.new_block();
        self.builder.terminate(Terminator::CondBr { cond, then_bb, else_bb });
        self.builder.switch_to(then_bb);
        then(self);
        self.builder.branch_if_open(join);
        self.builder.switch_to(else_bb);
        els(self);
        self.builder.branch_if_open(join);
        self.builder.switch_to(join);
    }

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
            Stmt::Block(b) => self.block(b, inline_ret),
            Stmt::If { cond, then, els, .. } => {
                let c = self.condition(cond);
                self.branch(
                    c,
                    |this| this.block(then, inline_ret),
                    |this| {
                        if let Some(els) = els {
                            this.block(els, inline_ret);
                        }
                    },
                );
            }
            Stmt::For { .. } => self.unroll_for(stmt, inline_ret),
            Stmt::While { cond, span, .. } => {
                // Constant-false while loops vanish; anything else cannot be
                // fully unrolled (feed-forward pipelines, §V-D).
                if try_eval(cond) != Some(0) {
                    self.error(
                        "E0306",
                        "`while` loops cannot be fully unrolled; use a `for` loop with constant bounds (§V-D)"
                            .into(),
                        *span,
                    );
                }
            }
            Stmt::Break(span) => match self.loop_stack.last() {
                Some(ctx) => self.builder.terminate(Terminator::Br(ctx.break_to)),
                None => {
                    self.error("E0221", "`break` outside loop".into(), *span);
                }
            },
            Stmt::Continue(span) => match self.loop_stack.last() {
                Some(ctx) => self.builder.terminate(Terminator::Br(ctx.continue_to)),
                None => {
                    self.error("E0221", "`continue` outside loop".into(), *span);
                }
            },
            Stmt::Return { value, span: _ } => self.lower_return(value.as_ref(), inline_ret),
        }
    }

    fn lower_return(&mut self, value: Option<&Expr>, inline_ret: Option<&InlineRet>) {
        let Some(ir) = inline_ret else {
            return match value {
                None => self.ret(ActionRef::pass()),
                Some(v) => self.lower_action_expr(v),
            };
        };
        // Inlined net function: store the value (if any), jump to exit.
        if let (Some(v), Some((slot, ty))) = (value, ir.slot) {
            let (op, vt) = self.expr(v);
            let value = self.coerce(op, vt, ty);
            self.builder.emit(InstKind::LocalStore { slot, index: ZERO, value }, ir_storage_ty(ty));
        }
        self.builder.branch_if_open(ir.exit);
    }

    /// Lowers a kernel `return <expr>` where expr is an action, a void call,
    /// or a ternary mixing them (Fig. 4 line 19).
    fn lower_action_expr(&mut self, e: &Expr) {
        if let ExprKind::Ternary(c, a, b) = &e.kind {
            let cond = self.condition(c);
            let then_bb = self.builder.new_block();
            let else_bb = self.builder.new_block();
            self.builder.terminate(Terminator::CondBr { cond, then_bb, else_bb });
            self.builder.switch_to(then_bb);
            self.lower_action_expr(a);
            self.builder.switch_to(else_bb);
            return self.lower_action_expr(b);
        }
        let analysis = self.analysis;
        if let ExprKind::Call { callee, args } = &e.kind {
            if let Resolution::Builtin(Builtin::Action(kind)) = analysis.resolution(callee.id) {
                let target = args.first().map(|t| {
                    let (op, ty) = self.expr(t);
                    self.coerce(op, ty, Ty::U16)
                });
                return self.ret(ActionRef { kind: *kind, target });
            }
        }
        // A void net-function call, then the implicit pass().
        self.expr(e);
        self.ret(ActionRef::pass());
    }

    fn local_decl(&mut self, d: &ast::LocalDecl) {
        let (analysis, unit) = (self.analysis, self.unit);
        let Resolution::Local { ty, dims } = analysis.resolution(d.id) else {
            self.unresolved("declaration", d.span);
            return;
        };
        let ty = *ty;
        let count = dims.iter().product::<usize>() as u32;
        let slot = self.builder.add_local(unit.interner.resolve(d.name), ir_storage_ty(ty), count);
        let init = |this: &mut Self, i: usize, e: &Expr| {
            let (op, et) = this.expr(e);
            let value = this.coerce(op, et, ty);
            let index = Operand::imm(i as u64, IrTy::I32);
            this.builder.emit(InstKind::LocalStore { slot, index, value }, ir_storage_ty(ty));
        };
        match &d.init {
            Some(Init::Expr(e)) => init(self, 0, e),
            Some(Init::List(items, _)) => {
                for (i, item) in items.iter().enumerate() {
                    if let Init::Expr(e) = item {
                        init(self, i, e);
                    }
                }
            }
            None => {}
        }
        self.bind(d.name, Binding::Place(Place::Local { slot, index: ZERO, ty, dims }));
    }

    // ---- loop unrolling --------------------------------------------------

    fn unroll_for(&mut self, stmt: &Stmt, inline_ret: Option<&InlineRet>) {
        let Stmt::For { init, cond, step, body, span } = stmt else { unreachable!() };
        // The unrollable shape: `for (<decl> iv = C0; <iv-only cond>; <iv step>)`.
        let Some(Stmt::Decl(ivdecl)) = init.as_deref() else {
            self.error(
                "E0306",
                "unrollable loops must declare their induction variable in the init clause".into(),
                *span,
            );
            return;
        };
        let iv = ivdecl.name;
        let Resolution::Local { ty: iv_ty, .. } = *self.analysis.resolution(ivdecl.id) else {
            self.unresolved("induction variable", ivdecl.span);
            return;
        };
        let Some(mut ivval) = ivdecl.init.as_ref().and_then(|i| match i {
            Init::Expr(e) => try_eval(e),
            Init::List(..) => None,
        }) else {
            self.error("E0306", "induction variable requires a constant initializer".into(), *span);
            return;
        };

        let exit = self.builder.new_block();
        let mut iterations = 0u64;
        loop {
            let Some(c) = cond else {
                self.error("E0306", "unbounded loop cannot be unrolled".into(), *span);
                break;
            };
            match try_eval_with(c, Some((iv, ivval))) {
                Some(0) => break,
                Some(_) => {}
                None => {
                    self.error(
                        "E0306",
                        "loop condition does not depend only on the induction variable and constants; cannot fully unroll (§V-D)".into(),
                        c.span,
                    );
                    break;
                }
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
            let mark = self.bindings.len();
            self.bind(iv, Binding::Const(iv_ty.wrap(ivval), iv_ty));
            self.loop_stack.push(LoopCtx { break_to: exit, continue_to: next_bb });
            self.stmts(&body.stmts, inline_ret);
            self.loop_stack.pop();
            self.bindings.truncate(mark);
            self.builder.branch_if_open(next_bb);
            self.builder.switch_to(next_bb);
            let Some(s) = step else {
                self.error("E0306", "loop without a step clause cannot be unrolled".into(), *span);
                break;
            };
            match step_value(s, iv, ivval) {
                Some(next) => ivval = next,
                None => {
                    self.error(
                        "E0306",
                        "loop step must be `++i`, `i++`, `i += C`, `i -= C`, or `i = i + C`".into(),
                        s.span,
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
        self.truth(op, ty)
    }

    /// `op != 0` as an `i1`; a bool already is one.
    fn truth(&mut self, op: Operand, ty: Ty) -> Operand {
        if ty == Ty::Bool {
            op
        } else {
            self.builder.icmp(IcmpPred::Ne, op, Operand::imm(0, ir_value_ty(ty)))
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
            let kind = if signed(from) { CastKind::Sext } else { CastKind::Zext };
            self.builder.cast(kind, op, ft, tt)
        }
    }

    fn expr(&mut self, e: &Expr) -> (Operand, Ty) {
        match &e.kind {
            ExprKind::Int(v) => {
                let ty = self.ty(e);
                (Operand::imm(*v, ir_value_ty(ty)), ty)
            }
            ExprKind::Char(c) => (Operand::imm(*c as u64, IrTy::I8), Ty::U8),
            ExprKind::Bool(b) => (Operand::imm(*b as u64, IrTy::I1), Ty::Bool),
            ExprKind::Ident(_) | ExprKind::Index(..) | ExprKind::Unary(UnOp::Deref, _) => {
                match self.place(e) {
                    Some(Binding::Const(v, ty)) => (Operand::imm(v, ir_value_ty(ty)), ty),
                    Some(Binding::Place(p)) => {
                        let ty = p.ty();
                        let v = self.load_place(p);
                        (self.coerce_from_storage(v, ty), ty)
                    }
                    None => POISON,
                }
            }
            ExprKind::Member(..) => {
                let Resolution::Member(member) = *self.analysis.resolution(e.id) else {
                    return self.unresolved("member", e.span);
                };
                let ty = self.ty(e);
                let field = match member {
                    Member::DeviceId => {
                        return (Operand::imm(self.device() as u64, ir_value_ty(ty)), ty)
                    }
                    Member::DeviceKind => return (Operand::imm(1, ir_value_ty(ty)), ty),
                    Member::MsgSrc => MsgField::Src,
                    Member::MsgDst => MsgField::Dst,
                    Member::MsgFrom => MsgField::From,
                    Member::MsgTo => MsgField::To,
                };
                (self.value(InstKind::MsgField { field }, ir_value_ty(ty)), ty)
            }
            ExprKind::Unary(op @ (UnOp::Neg | UnOp::BitNot), inner) => {
                let (iv, it) = self.expr(inner);
                let t = it.promote();
                let v = self.coerce(iv, it, t);
                let w = ir_value_ty(t);
                let v = match op {
                    UnOp::Neg => self.builder.bin(IrBinOp::Sub, Operand::imm(0, w), v, w),
                    _ => self.builder.bin(IrBinOp::Xor, v, Operand::imm(w.mask(), w), w),
                };
                (v, t)
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                let (iv, it) = self.expr(inner);
                let c = self.truth(iv, it);
                (self.builder.bin(IrBinOp::Xor, c, Operand::imm(1, IrTy::I1), IrTy::I1), Ty::Bool)
            }
            ExprKind::Binary(op, a, b) => self.binary(e, *op, a, b),
            ExprKind::Assign { op, target, value } => {
                let tty = self.ty(target);
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
                self.store_to(target, rhs, tty);
                (rhs, tty)
            }
            ExprKind::Ternary(c, a, b) => self.ternary(e, c, a, b),
            ExprKind::Call { callee, args } => self.call(e, callee, args),
            ExprKind::Cast(_, inner) => {
                let to = self.ty(e);
                let (v, vt) = self.expr(inner);
                (self.coerce(v, vt, to), to)
            }
            ExprKind::IncDec { inc, postfix, expr } => {
                let ty = self.ty(expr);
                let (old, _) = self.expr(expr);
                let w = ir_value_ty(ty);
                let op = if *inc { IrBinOp::Add } else { IrBinOp::Sub };
                let new = self.builder.bin(op, old, Operand::imm(1, w), w);
                self.store_to(expr, new, ty);
                (if *postfix { old } else { new }, ty)
            }
            ExprKind::Sizeof(_) => match *self.analysis.resolution(e.id) {
                Resolution::SizeOf(t) => (Operand::imm(t.size_bytes() as u64, IrTy::I32), Ty::U32),
                _ => self.unresolved("`sizeof`", e.span),
            },
            ExprKind::Unary(UnOp::AddrOf, _) | ExprKind::Path { .. } | ExprKind::Error => {
                self.unresolved("expression", e.span)
            }
        }
    }

    fn binary(&mut self, e: &Expr, op: BinOp, a: &Expr, b: &Expr) -> (Operand, Ty) {
        let (av, at) = self.expr(a);
        let (bv, bt) = self.expr(b);
        if matches!(op, BinOp::LogicalAnd | BinOp::LogicalOr) {
            // Non-short-circuit evaluation: device expressions are
            // effect-free in practice and P4 evaluates eagerly too.
            let (ac, bc) = (self.truth(av, at), self.truth(bv, bt));
            let ir_op = if op == BinOp::LogicalAnd { IrBinOp::And } else { IrBinOp::Or };
            return (self.builder.bin(ir_op, ac, bc, IrTy::I1), Ty::Bool);
        }
        // A comparison is made in its operands' common type; arithmetic is
        // done in its own type.
        let common = if op.is_comparison() { Ty::unify_arith(at, bt) } else { self.ty(e) };
        let al = self.coerce(av, at, common);
        let bl = self.coerce(bv, bt, common);
        if op.is_comparison() {
            (self.builder.icmp(icmp_pred(op, common), al, bl), Ty::Bool)
        } else {
            let w = ir_value_ty(common);
            (self.builder.bin(bin_ir_op(op, common), al, bl, w), common)
        }
    }

    fn ternary(&mut self, e: &Expr, c: &Expr, a: &Expr, b: &Expr) -> (Operand, Ty) {
        let ty = self.ty(e);
        if ty == Ty::Action || ty == Ty::Void {
            // Action ternaries are kernel returns (`lower_action_expr`);
            // this is a void ternary statement: an if / else.
            let cond = self.condition(c);
            self.branch(
                cond,
                |this| {
                    this.expr(a);
                },
                |this| {
                    this.expr(b);
                },
            );
            return (ZERO, Ty::Void);
        }
        if self.select_safe(a) && self.select_safe(b) {
            let cond = self.condition(c);
            let (av, at) = self.expr(a);
            let (bv, bt) = self.expr(b);
            let av = self.coerce(av, at, ty);
            let bv = self.coerce(bv, bt, ty);
            return (self.value(InstKind::Select { cond, a: av, b: bv }, ir_value_ty(ty)), ty);
        }
        // Side effects: branch + temp slot (mem2reg rebuilds SSA).
        let slot = self.builder.add_local("ternary", ir_storage_ty(ty), 1);
        let cond = self.condition(c);
        let arm = |this: &mut Self, e: &Expr| {
            let (v, vt) = this.expr(e);
            let v = this.coerce(v, vt, ty);
            let value = this.coerce_to_storage(v, ty);
            this.builder.emit(InstKind::LocalStore { slot, index: ZERO, value }, ir_storage_ty(ty));
        };
        self.branch(cond, |this| arm(this, a), |this| arm(this, b));
        let v = self.value(InstKind::LocalLoad { slot, index: ZERO }, ir_storage_ty(ty));
        (self.coerce_from_storage(v, ty), ty)
    }

    // ---- calls -----------------------------------------------------------

    fn call(&mut self, e: &Expr, callee: &Expr, args: &[Expr]) -> (Operand, Ty) {
        let analysis = self.analysis;
        match analysis.resolution(callee.id) {
            Resolution::Builtin(b) => self.builtin_call(e, b, args),
            Resolution::NetFn(f) => self.inline_net_fn(*f, args, e.span),
            _ => self.unresolved("callee", callee.span),
        }
    }

    fn builtin_call(&mut self, e: &Expr, b: &Builtin, args: &[Expr]) -> (Operand, Ty) {
        match b {
            // Sema rejects actions outside kernel returns.
            Builtin::Action(_) => {
                self.error("E0204", "action used outside a kernel return".into(), e.span)
            }
            Builtin::Atomic(op) => {
                let Some((mem, elem)) = self.global_place(&args[0]) else { return POISON };
                let mut rest = &args[1..];
                let cond = if op.cond {
                    let c = self.condition(&rest[0]);
                    rest = &rest[1..];
                    Some(c)
                } else {
                    None
                };
                let operands = rest
                    .iter()
                    .map(|a| {
                        let (v, vt) = self.expr(a);
                        self.coerce(v, vt, elem)
                    })
                    .collect();
                let atomic = Atomic { op: *op, mem, cond, operands };
                let kind = InstKind::AtomicRmw(Box::new(atomic));
                (self.value(kind, ir_storage_ty(elem)), elem)
            }
            Builtin::Lookup => {
                let Some((table, elem)) = self.global_place(&args[0]) else { return POISON };
                let (key_ty, val_ty) = match elem {
                    Ty::Kv { key, value } => (key.ty(), Some(value.ty())),
                    Ty::Rv { range, value } => (range.ty(), Some(value.ty())),
                    set => (set, None),
                };
                let (kv, kt) = self.expr(&args[1]);
                let key = self.coerce(kv, kt, key_ty);
                // A membership set has no value; its unused result is 32 bits.
                let value_ty = val_ty.map_or(IrTy::I32, ir_storage_ty);
                let (hit, value) = self.builder.emit_lookup(table.mem, key, value_ty);
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
                    self.store_to(out, Operand::Value(value), vt);
                    self.builder.branch_if_open(join);
                    self.builder.switch_to(join);
                }
                (Operand::Value(hit), Ty::Bool)
            }
            Builtin::Hash(kind, bits) => {
                let (v, _) = self.expr(&args[0]);
                let ty = self.ty(e);
                let kind = InstKind::Hash { kind: *kind, bits: *bits, a: v };
                (self.value(kind, ir_value_ty(ty)), ty)
            }
            Builtin::SAdd | Builtin::SSub | Builtin::Min | Builtin::Max => {
                let (av, at) = self.expr(&args[0]);
                let (bv, bt) = self.expr(&args[1]);
                let common = self.ty(e);
                let al = self.coerce(av, at, common);
                let bl = self.coerce(bv, bt, common);
                let op = match (b, signed(common)) {
                    (Builtin::SAdd, _) => IrBinOp::UAddSat,
                    (Builtin::SSub, _) => IrBinOp::USubSat,
                    (Builtin::Min, true) => IrBinOp::SMin,
                    (Builtin::Min, false) => IrBinOp::UMin,
                    (_, true) => IrBinOp::SMax,
                    (_, false) => IrBinOp::UMax,
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
                (self.value(InstKind::Un { op: IrUnOp::Bswap, a: v }, ir_value_ty(vt)), vt)
            }
            Builtin::Clz => {
                let (v, _) = self.expr(&args[0]);
                (self.value(InstKind::Un { op: IrUnOp::Clz, a: v }, IrTy::I8), Ty::U8)
            }
            Builtin::Rand(_) => {
                let ty = self.ty(e);
                (self.value(InstKind::Rand, ir_value_ty(ty)), ty)
            }
            Builtin::TargetIntrinsic { target, name } => {
                let args = args.iter().map(|a| self.expr(a).0).collect();
                let call = IntrinsicCall { target: target.clone(), name: name.clone(), args };
                let kind = InstKind::Intrinsic(Box::new(call));
                (self.value(kind, IrTy::I32), Ty::U32)
            }
        }
    }

    fn inline_net_fn(&mut self, idx: usize, args: &[Expr], span: Span) -> (Operand, Ty) {
        if self.inline_depth > 16 {
            return self.error("E0217", "net function inlining too deep (recursion?)".into(), span);
        }
        let (analysis, unit) = (self.analysis, self.unit);
        let info = &analysis.model.net_fns[idx];
        let Item::Function(decl) = &unit.program.items[info.item_index] else {
            return self.unresolved("net function", span);
        };
        // Bind parameters, evaluating the arguments in the caller's scope.
        let mut params = Vec::with_capacity(args.len());
        for ((p, pi), arg) in decl.params.iter().zip(&info.params).zip(args) {
            let place = match pi.mode {
                PassMode::Value => {
                    let (v, vt) = self.expr(arg);
                    let v = self.coerce(v, vt, pi.ty);
                    let value = self.coerce_to_storage(v, pi.ty);
                    let ty = ir_storage_ty(pi.ty);
                    let slot = self.builder.add_local(&pi.name, ty, 1);
                    self.builder.emit(InstKind::LocalStore { slot, index: ZERO, value }, ty);
                    Place::Local { slot, index: ZERO, ty: pi.ty, dims: &[] }
                }
                PassMode::Reference | PassMode::Pointer => match self.place(arg) {
                    Some(Binding::Place(place)) => place,
                    _ => {
                        self.error(
                            "E0307",
                            format!("cannot pass this expression by reference to `{}`", info.name),
                            arg.span,
                        );
                        continue;
                    }
                },
            };
            params.push((p.name, Binding::Place(place)));
        }
        // Return slot and exit block.
        let ret_slot = (info.ret != Ty::Void).then(|| {
            let name = format!("{}.ret", info.name);
            (self.builder.add_local(&name, ir_storage_ty(info.ret), 1), info.ret)
        });
        let exit = self.builder.new_block();
        let inline_ret = InlineRet { slot: ret_slot, exit };

        // The body sees its parameters only: net functions cannot name the
        // caller's locals.
        let floor = std::mem::replace(&mut self.floor, self.bindings.len());
        self.bindings.extend(params);
        let saved_loops = std::mem::take(&mut self.loop_stack);
        self.inline_depth += 1;
        if let Some(body) = &decl.body {
            self.stmts(&body.stmts, Some(&inline_ret));
        }
        self.inline_depth -= 1;
        self.bindings.truncate(self.floor);
        self.floor = floor;
        self.loop_stack = saved_loops;
        self.builder.branch_if_open(exit);
        self.builder.switch_to(exit);

        match ret_slot {
            Some((slot, ty)) => {
                let v = self.value(InstKind::LocalLoad { slot, index: ZERO }, ir_storage_ty(ty));
                (self.coerce_from_storage(v, ty), ty)
            }
            None => (ZERO, Ty::Void),
        }
    }

    /// True when a ternary arm may be evaluated eagerly for a `select`:
    /// side-effect-free AND touching no global memory — §V-D's
    /// `(x > 10) ? m[0] : m[1]` is *valid* precisely because the accesses
    /// stay mutually exclusive, so they must lower as branches, not as an
    /// eager select.
    fn select_safe(&self, e: &Expr) -> bool {
        is_pure(e) && !self.touches_global(e)
    }

    fn touches_global(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Ident(_) => matches!(self.analysis.resolution(e.id), Resolution::Global(_)),
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

    /// The global memory an atomic's address (`&G[i]` or `G[i]`) or a
    /// lookup's table names.
    fn global_place(&mut self, e: &Expr) -> Option<(MemRef, Ty)> {
        let e = match &e.kind {
            ExprKind::Unary(UnOp::AddrOf, inner) => inner,
            _ => e,
        };
        match self.place(e)? {
            Binding::Place(Place::Global { mem, indices, ty }) => {
                Some((MemRef { mem, indices: indices.into() }, ty))
            }
            _ => {
                self.unresolved("global memory", e.span);
                None
            }
        }
    }

    /// What the place expression `e` denotes; `None` once an error is
    /// reported.
    fn place(&mut self, e: &Expr) -> Option<Binding<'a>> {
        let binding = match &e.kind {
            ExprKind::Ident(name) => match *self.analysis.resolution(e.id) {
                Resolution::Global(g) => self.mems[g].map(|mem| {
                    let ty = self.analysis.model.globals[g].elem;
                    Binding::Place(Place::Global { mem, indices: Vec::new(), ty })
                }),
                _ => self.binding(*name).cloned(),
            },
            ExprKind::Index(base, idx) => {
                let (iv, it) = self.expr(idx);
                let i = self.coerce(iv, it, Ty::U32);
                match self.place(base)? {
                    Binding::Place(p) => Some(Binding::Place(self.index(p, i))),
                    Binding::Const(..) => None,
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => return self.place(inner),
            _ => None,
        };
        if binding.is_none() {
            self.unresolved("name", e.span);
        }
        binding
    }

    /// `p[i]`: a global gains an index; a local folds `i` into its flat
    /// row-major element index.
    fn index(&mut self, p: Place<'a>, i: Operand) -> Place<'a> {
        match p {
            Place::Local { slot, index, ty, dims } => {
                let rest = dims.get(1..).unwrap_or_default();
                let stride = rest.iter().product::<usize>() as u64;
                let offset = match i.as_const() {
                    _ if stride == 1 => i,
                    Some(c) => Operand::imm(c.wrapping_mul(stride), IrTy::I32),
                    None => {
                        let stride = Operand::imm(stride, IrTy::I32);
                        self.builder.bin(IrBinOp::Mul, i, stride, IrTy::I32)
                    }
                };
                let index = match (index.as_const(), offset.as_const()) {
                    (Some(0), _) => offset,
                    (Some(a), Some(b)) => Operand::imm(a.wrapping_add(b), IrTy::I32),
                    _ => self.builder.bin(IrBinOp::Add, index, offset, IrTy::I32),
                };
                Place::Local { slot, index, ty, dims: rest }
            }
            Place::ArgMsg { arg, ty, .. } => Place::ArgMsg { arg, index: i, ty },
            Place::Global { mem, mut indices, ty } => {
                // Exact, so that the `MemRef` built from it keeps the block.
                indices.reserve_exact(1);
                indices.push(i);
                Place::Global { mem, indices, ty }
            }
        }
    }

    fn load_place(&mut self, p: Place) -> Operand {
        let ty = ir_storage_ty(p.ty());
        let kind = match p {
            Place::Local { slot, index, .. } => InstKind::LocalLoad { slot, index },
            Place::ArgMsg { arg, index, .. } => InstKind::ArgRead { arg, index },
            Place::Global { mem, indices, .. } => {
                InstKind::MemRead { mem: MemRef { mem, indices: indices.into() } }
            }
        };
        self.value(kind, ty)
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

    /// Stores `value` (of type `value_ty`) to what `target` names.
    fn store_to(&mut self, target: &Expr, value: Operand, value_ty: Ty) {
        match self.place(target) {
            Some(Binding::Place(p)) => self.store_place(p, value, value_ty),
            Some(Binding::Const(..)) => {
                let msg = "cannot assign to an unrolled loop's induction variable".into();
                self.error("E0202", msg, target.span);
            }
            None => {}
        }
    }

    fn store_place(&mut self, p: Place, value: Operand, value_ty: Ty) {
        let ty = p.ty();
        let v = self.coerce(value, value_ty, ty);
        let value = self.coerce_to_storage(v, ty);
        let kind = match p {
            Place::Local { slot, index, .. } => InstKind::LocalStore { slot, index, value },
            Place::ArgMsg { arg, index, .. } => InstKind::ArgWrite { arg, index, value },
            Place::Global { mem, indices, .. } => {
                InstKind::MemWrite { mem: MemRef { mem, indices: indices.into() }, value }
            }
        };
        self.builder.emit(kind, ir_storage_ty(ty));
    }
}

fn icmp_pred(op: BinOp, ty: Ty) -> IcmpPred {
    match (op, signed(ty)) {
        (BinOp::Eq, _) => IcmpPred::Eq,
        (BinOp::Ne, _) => IcmpPred::Ne,
        (BinOp::Lt, true) => IcmpPred::Slt,
        (BinOp::Lt, false) => IcmpPred::Ult,
        (BinOp::Le, true) => IcmpPred::Sle,
        (BinOp::Le, false) => IcmpPred::Ule,
        (BinOp::Gt, true) => IcmpPred::Sgt,
        (BinOp::Gt, false) => IcmpPred::Ugt,
        (BinOp::Ge, true) => IcmpPred::Sge,
        (BinOp::Ge, false) => IcmpPred::Uge,
        _ => unreachable!("`{}` is not a comparison", op.symbol()),
    }
}

fn bin_ir_op(op: BinOp, ty: Ty) -> IrBinOp {
    match (op, signed(ty)) {
        (BinOp::Add, _) => IrBinOp::Add,
        (BinOp::Sub, _) => IrBinOp::Sub,
        (BinOp::Mul, _) => IrBinOp::Mul,
        (BinOp::Div, true) => IrBinOp::SDiv,
        (BinOp::Div, false) => IrBinOp::UDiv,
        (BinOp::Rem, true) => IrBinOp::SRem,
        (BinOp::Rem, false) => IrBinOp::URem,
        (BinOp::And, _) => IrBinOp::And,
        (BinOp::Or, _) => IrBinOp::Or,
        (BinOp::Xor, _) => IrBinOp::Xor,
        (BinOp::Shl, _) => IrBinOp::Shl,
        (BinOp::Shr, true) => IrBinOp::AShr,
        (BinOp::Shr, false) => IrBinOp::LShr,
        _ => unreachable!("`{}` lowers to a comparison", op.symbol()),
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
