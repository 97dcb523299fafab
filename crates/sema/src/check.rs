//! The semantic checker.
//!
//! Two passes over the AST: declaration collection (globals, kernel and net
//! function signatures, paper §V rules that are signature-local), then body
//! checking (type checking, lvalue/place analysis, action placement, lookup
//! discipline, Eq. 1 / Eq. 2 placement and reference validity, and net
//! function recursion detection).
//!
//! The checker is the only resolver: every type, every name that denotes
//! global memory, every callee, `device` / `msg` member, `sizeof` operand
//! and local declaration is decided here once and recorded per node in the
//! [`Analysis`], which lowering reads.

use std::collections::{HashMap, HashSet};

use netcl_lang::ast::*;
use netcl_lang::ParsedUnit;
use netcl_util::{DiagnosticSink, Interner, Span, Symbol};

use crate::builtins::{self, Builtin, ResolveError};
use crate::consteval::{eval_const_in, eval_dim, try_eval};
use crate::model::*;
use crate::types::Ty;

/// The result of semantic analysis: the checked model, and per node the
/// type sema gave it and what it resolved to. Both per-node tables are
/// dense, indexed by the parser's [`NodeId`].
#[derive(Debug, Default)]
pub struct Analysis {
    /// The checked entity model.
    pub model: Model,
    types: Vec<Option<Ty>>,
    resolutions: Vec<Resolution>,
}

impl Analysis {
    /// The type of expression `id`, if sema typed it.
    pub fn ty(&self, id: NodeId) -> Option<Ty> {
        self.types.get(id.0 as usize).copied().flatten()
    }

    /// What node `id` resolved to.
    pub fn resolution(&self, id: NodeId) -> &Resolution {
        self.resolutions.get(id.0 as usize).unwrap_or(&Resolution::None)
    }
}

/// What sema resolved one node to.
#[derive(Clone, Debug, PartialEq)]
pub enum Resolution {
    /// Nothing to resolve: a literal, an operator, a use of a local.
    None,
    /// An identifier naming global memory: its index in [`Model::globals`].
    Global(usize),
    /// A callee naming an `ncl::` builtin.
    Builtin(Builtin),
    /// A callee naming a `_net_` function: its index in [`Model::net_fns`].
    NetFn(usize),
    /// A `device.*` or `msg.*` member.
    Member(Member),
    /// The operand type of a `sizeof`.
    SizeOf(Ty),
    /// A local declaration.
    Local {
        /// Element type.
        ty: Ty,
        /// Dimensions, outermost first (empty for a scalar).
        dims: Vec<usize>,
    },
}

/// A builtin member of `device` or `msg` (§V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Member {
    /// `device.id` — the device being compiled for.
    DeviceId,
    /// `device.kind`.
    DeviceKind,
    /// `msg.src`.
    MsgSrc,
    /// `msg.dst`.
    MsgDst,
    /// `msg.from` — the previous hop.
    MsgFrom,
    /// `msg.to`.
    MsgTo,
}

impl Member {
    fn named(base: &str, field: &str) -> Option<Member> {
        Some(match (base, field) {
            ("device", "id") => Member::DeviceId,
            ("device", "kind") => Member::DeviceKind,
            ("msg", "src") => Member::MsgSrc,
            ("msg", "dst") => Member::MsgDst,
            ("msg", "from") => Member::MsgFrom,
            ("msg", "to") => Member::MsgTo,
            _ => return None,
        })
    }

    fn ty(self) -> Ty {
        if self == Member::DeviceKind {
            Ty::U8
        } else {
            Ty::U16
        }
    }
}

/// Analyzes a parsed unit. Diagnostics (including all errors) go to the
/// returned sink; the analysis is best-effort under errors.
pub fn analyze(unit: &ParsedUnit) -> (Analysis, DiagnosticSink) {
    let mut diags = DiagnosticSink::new();
    let nodes = unit.program.node_count as usize;
    let mut checker = Checker {
        program: &unit.program,
        interner: &unit.interner,
        diags: &mut diags,
        model: Model::default(),
        types: vec![None; nodes],
        resolutions: vec![Resolution::None; nodes],
        net_fn_calls: Vec::new(),
    };
    checker.collect_globals();
    checker.collect_functions();
    checker.check_placement_validity();
    checker.check_spec_matching();
    checker.check_bodies();
    checker.check_recursion();
    let Checker { model, types, resolutions, .. } = checker;
    (Analysis { model, types, resolutions }, diags)
}

struct Checker<'a> {
    program: &'a Program,
    interner: &'a Interner,
    diags: &'a mut DiagnosticSink,
    model: Model,
    types: Vec<Option<Ty>>,
    resolutions: Vec<Resolution>,
    /// (caller net-fn index, callee net-fn index) edges for cycle detection.
    net_fn_calls: Vec<(usize, usize)>,
}

/// Where a place expression's storage lives.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Root {
    Local,
    ParamValue,
    ParamRef,
    ParamPtr,
    Global(usize),
}

/// A resolved place (assignable / addressable expression).
#[derive(Clone, Debug)]
struct PlaceInfo {
    root: Root,
    ty: Ty,
    /// How many array dimensions remain un-indexed (0 = scalar element).
    dims_left: usize,
}

#[derive(Clone, Debug)]
struct VarInfo {
    ty: Ty,
    /// Number of array dimensions.
    rank: usize,
    root: Root,
}

struct FnCtx<'a> {
    /// `Some(idx)` when checking net function `idx` (for the call graph).
    net_fn_index: Option<usize>,
    is_kernel: bool,
    ret: Ty,
    locations: &'a LocationSet,
    /// The innermost scope; a function body's is the parameters' own.
    scope: HashMap<Symbol, VarInfo>,
    /// The scopes around `scope`, outermost first.
    outer: Vec<HashMap<Symbol, VarInfo>>,
    loop_depth: usize,
}

impl<'a> FnCtx<'a> {
    fn lookup_var(&self, name: Symbol) -> Option<&VarInfo> {
        self.scope.get(&name).or_else(|| self.outer.iter().rev().find_map(|s| s.get(&name)))
    }

    fn enter_scope(&mut self) {
        self.outer.push(std::mem::take(&mut self.scope));
    }

    fn leave_scope(&mut self) {
        self.scope = self.outer.pop().unwrap_or_default();
    }
}

impl<'a> Checker<'a> {
    fn name(&self, sym: Symbol) -> &'a str {
        self.interner.resolve(sym)
    }

    fn resolve(&mut self, id: NodeId, resolution: Resolution) {
        self.resolutions[id.0 as usize] = resolution;
    }

    // ---- declaration collection ---------------------------------------

    fn resolve_location_set(&mut self, specs: &Specifiers) -> LocationSet {
        specs.at.as_ref().map(|(locs, span)| {
            let mut ids = Vec::new();
            for e in locs {
                if let Some(v) = eval_const_in(e, Ty::U16, "device id", self.diags) {
                    ids.push(v as u16);
                }
            }
            if ids.is_empty() {
                self.diags.error("E0215", "`_at` requires at least one device id", *span);
            }
            ids
        })
    }

    fn collect_globals(&mut self) {
        let mut seen: HashMap<String, Span> = HashMap::new();
        for item in &self.program.items {
            let Item::Global(g) = item else { continue };
            let name = self.name(g.name).to_string();
            if let Some(prev) = seen.get(&name) {
                self.diags.emit(
                    netcl_util::Diagnostic::error(
                        "E0205",
                        format!("duplicate definition of `{name}`"),
                        g.span,
                    )
                    .with_note(*prev, "previously defined here"),
                );
                continue;
            }
            seen.insert(name.clone(), g.span);

            let specs = &g.specs;
            if !specs.is_net && !specs.is_managed {
                self.diags.error(
                    "E0227",
                    format!("global `{name}` must be declared `_net_` or `_managed_`"),
                    g.span,
                );
            }
            if specs.kernel.is_some() {
                self.diags.error("E0216", "`_kernel` does not apply to memory", g.span);
            }
            let locations = self.resolve_location_set(specs);

            let Some(elem) = Ty::from_type_expr(&g.ty) else {
                self.diags.error("E0105", "global memory requires a concrete type", g.span);
                continue;
            };
            if elem == Ty::Void {
                self.diags.error("E0105", "global memory cannot be `void`", g.span);
                continue;
            }
            if elem.is_lookup_entry() && !specs.is_lookup {
                self.diags.error(
                    "E0214",
                    "kv/rv element types are only allowed on `_lookup_` arrays",
                    g.span,
                );
            }

            // Dimensions. `[]` (size from initializer) allowed only as sole dim.
            let mut dims: Vec<usize> = Vec::new();
            let mut inferred = false;
            for (i, d) in g.dims.iter().enumerate() {
                match d {
                    Some(e) => {
                        if let Some(v) = eval_dim(e, self.diags) {
                            dims.push(v);
                        }
                    }
                    None if i == 0 && g.dims.len() == 1 => inferred = true,
                    None => {
                        self.diags.error(
                            "E0228",
                            "only the first dimension may be inferred from an initializer",
                            g.span,
                        );
                    }
                }
            }

            let mut entries = Vec::new();
            if specs.is_lookup {
                if g.dims.len() != 1 {
                    self.diags.error(
                        "E0214",
                        "`_lookup_` memory must be a one-dimensional array",
                        g.span,
                    );
                }
                if let Some(init) = &g.init {
                    entries = self.collect_lookup_entries(init, elem);
                } else if inferred {
                    self.diags.error(
                        "E0214",
                        "`_lookup_` array with inferred size requires an initializer",
                        g.span,
                    );
                }
                if inferred {
                    dims = vec![entries.len().max(1)];
                }
            } else {
                if let Some(init) = &g.init {
                    self.diags.error(
                        "E0229",
                        "non-lookup global memory is zero-initialized and may not have an initializer",
                        init.span(),
                    );
                }
                if inferred {
                    self.diags.error(
                        "E0228",
                        "array dimension required (only `_lookup_` arrays infer size)",
                        g.span,
                    );
                    dims = vec![1];
                }
            }

            self.model.globals.push(GlobalInfo {
                name,
                elem,
                dims,
                managed: specs.is_managed,
                lookup: specs.is_lookup,
                locations,
                entries,
                span: g.span,
            });
        }
    }

    fn collect_lookup_entries(&mut self, init: &Init, elem: Ty) -> Vec<LookupEntry> {
        let Init::List(items, span) = init else {
            self.diags.error("E0214", "`_lookup_` initializer must be a brace list", init.span());
            return vec![];
        };
        let _ = span;
        let mut out = Vec::new();
        for item in items {
            match (elem, item) {
                (Ty::Int { .. } | Ty::Bool, Init::Expr(e)) => {
                    if let Some(v) = try_eval(e) {
                        out.push(LookupEntry::Member { key: elem.wrap(v) });
                    } else {
                        self.diags.error("E0212", "lookup entry must be constant", e.span);
                    }
                }
                (Ty::Kv { key, value }, Init::List(kv, s)) => {
                    if kv.len() != 2 {
                        self.diags.error("E0214", "kv entry must be `{key, value}`", *s);
                        continue;
                    }
                    if let (Some(k), Some(v)) = (self.entry_const(&kv[0]), self.entry_const(&kv[1]))
                    {
                        out.push(LookupEntry::Exact {
                            key: key.ty().wrap(k),
                            value: value.ty().wrap(v),
                        });
                    }
                }
                (Ty::Rv { range, value }, Init::List(rv, s)) => {
                    // {{lo, hi}, value}
                    if rv.len() != 2 {
                        self.diags.error("E0214", "rv entry must be `{{lo, hi}, value}`", *s);
                        continue;
                    }
                    let bounds = match &rv[0] {
                        Init::List(b, _) if b.len() == 2 => {
                            (self.entry_const(&b[0]), self.entry_const(&b[1]))
                        }
                        other => {
                            self.diags.error(
                                "E0214",
                                "rv entry must be `{{lo, hi}, value}`",
                                other.span(),
                            );
                            (None, None)
                        }
                    };
                    if let ((Some(lo), Some(hi)), Some(v)) = (bounds, self.entry_const(&rv[1])) {
                        let (lo, hi) = (range.ty().wrap(lo), range.ty().wrap(hi));
                        if lo > hi {
                            self.diags.error(
                                "E0214",
                                format!("rv range [{lo}, {hi}] is empty"),
                                item.span(),
                            );
                        }
                        out.push(LookupEntry::Range { lo, hi, value: value.ty().wrap(v) });
                    }
                }
                (_, other) => {
                    self.diags.error(
                        "E0214",
                        format!("initializer entry does not match element type `{elem}`"),
                        other.span(),
                    );
                }
            }
        }
        out
    }

    fn entry_const(&mut self, init: &Init) -> Option<u64> {
        match init {
            Init::Expr(e) => {
                let v = try_eval(e);
                if v.is_none() {
                    self.diags.error("E0212", "lookup entry must be constant", e.span);
                }
                v
            }
            Init::List(_, s) => {
                self.diags.error("E0214", "unexpected nested initializer", *s);
                None
            }
        }
    }

    fn collect_functions(&mut self) {
        let mut seen: HashMap<String, Span> = HashMap::new();
        for (idx, item) in self.program.items.iter().enumerate() {
            let Item::Function(f) = item else { continue };
            let name = self.name(f.name).to_string();
            if let Some(prev) = seen.get(&name) {
                self.diags.emit(
                    netcl_util::Diagnostic::error(
                        "E0205",
                        format!("duplicate definition of `{name}`"),
                        f.span,
                    )
                    .with_note(*prev, "previously defined here"),
                );
                continue;
            }
            if self.model.global(&name).is_some() {
                self.diags.error(
                    "E0205",
                    format!("`{name}` conflicts with a global memory declaration"),
                    f.span,
                );
                continue;
            }
            seen.insert(name.clone(), f.span);

            let is_kernel = f.specs.kernel.is_some();
            let is_net = f.specs.is_net;
            if is_kernel && is_net {
                self.diags.error(
                    "E0216",
                    "a function cannot be both `_kernel` and `_net_`",
                    f.span,
                );
            }
            if !is_kernel && !is_net {
                self.diags.error(
                    "E0230",
                    format!(
                        "function `{name}` must be declared `_kernel(c)` or `_net_` in device code"
                    ),
                    f.span,
                );
                continue;
            }
            if f.specs.is_lookup || f.specs.is_managed {
                self.diags.error(
                    "E0216",
                    "`_lookup_`/`_managed_` do not apply to functions",
                    f.span,
                );
            }
            if f.body.is_none() {
                self.diags.error("E0231", format!("function `{name}` requires a body"), f.span);
            }
            let locations = self.resolve_location_set(&f.specs);

            let params = self.check_params(f, is_kernel);
            if is_kernel {
                let ret = Ty::from_type_expr(&f.ret);
                if ret != Some(Ty::Void) {
                    self.diags.error("E0203", "kernels must return `void`", f.span);
                }
                let comp = f
                    .specs
                    .kernel
                    .as_ref()
                    .and_then(|(e, _)| eval_const_in(e, Ty::U8, "computation id", self.diags))
                    .unwrap_or(0) as u8;
                self.model.kernels.push(KernelInfo {
                    name,
                    computation: comp,
                    locations,
                    params,
                    item_index: idx,
                    span: f.span,
                });
            } else {
                let ret = match Ty::from_type_expr(&f.ret) {
                    Some(t) if t == Ty::Void || t.is_arith() => t,
                    _ => {
                        self.diags.error(
                            "E0201",
                            "net functions return `void` or a scalar type",
                            f.span,
                        );
                        Ty::Void
                    }
                };
                self.model.net_fns.push(NetFnInfo {
                    name,
                    locations,
                    ret,
                    params,
                    item_index: idx,
                    span: f.span,
                });
            }
        }
    }

    fn check_params(&mut self, f: &FunctionDecl, is_kernel: bool) -> Vec<ParamInfo> {
        let mut params = Vec::new();
        let mut names: HashSet<Symbol> = HashSet::new();
        for p in &f.params {
            if !names.insert(p.name) {
                self.diags.error(
                    "E0225",
                    format!("duplicate parameter `{}`", self.name(p.name)),
                    p.span,
                );
            }
            let ty = match Ty::from_type_expr(&p.ty) {
                Some(t) if t.is_arith() => t,
                Some(Ty::Void) => {
                    self.diags.error("E0216", "parameters cannot be `void`", p.span);
                    Ty::U32
                }
                Some(other) => {
                    self.diags.error(
                        "E0216",
                        format!("`{other}` is not a fundamental type; kernel and net function arguments must be fundamental types (§V-A)"),
                        p.span,
                    );
                    Ty::U32
                }
                None => {
                    self.diags.error("E0105", "parameter requires a concrete type", p.span);
                    Ty::U32
                }
            };
            // Specification inference (§V-A).
            let mut count: u32 = 1;
            if !p.dims.is_empty() {
                if p.dims.len() > 1 {
                    self.diags.error(
                        "E0216",
                        "multi-dimensional array parameters are not supported",
                        p.span,
                    );
                }
                if p.mode != PassMode::Value {
                    self.diags.error(
                        "E0216",
                        "array parameters are passed by value (no decay, §V-A)",
                        p.span,
                    );
                }
                if let Some(v) = eval_dim(&p.dims[0], self.diags) {
                    count = v as u32;
                }
            }
            if let Some(spec) = &p.spec {
                if is_kernel {
                    if let Some(v) = eval_dim(spec, self.diags) {
                        count = v as u32;
                    }
                } else {
                    // §V-A: `_spec` has no meaning for net functions.
                    self.diags.warning(
                        "W0001",
                        "`_spec` is ignored on net function parameters",
                        p.span,
                    );
                }
            }
            params.push(ParamInfo { name: self.name(p.name).to_string(), ty, count, mode: p.mode });
        }
        params
    }

    // ---- placement (Eq. 1) and specification matching ------------------

    fn check_placement_validity(&mut self) {
        let mut by_comp: HashMap<u8, Vec<usize>> = HashMap::new();
        for (i, k) in self.model.kernels.iter().enumerate() {
            by_comp.entry(k.computation).or_default().push(i);
        }
        let mut errors: Vec<netcl_util::Diagnostic> = Vec::new();
        for (comp, idxs) in &by_comp {
            if idxs.len() == 1 {
                continue;
            }
            // Eq. (1): with multiple kernels per computation, every kernel
            // must have a non-empty location set and all sets are disjoint.
            let mut used: HashMap<u16, (usize, Span)> = HashMap::new();
            for &i in idxs {
                let k = &self.model.kernels[i];
                match &k.locations {
                    None => errors.push(netcl_util::Diagnostic::error(
                        "E0206",
                        format!(
                            "kernel `{}` of computation {comp} needs an explicit `_at` because other kernels exist for this computation (Eq. 1)",
                            k.name
                        ),
                        k.span,
                    )),
                    Some(locs) => {
                        for &l in locs {
                            if let Some((j, pspan)) = used.get(&l) {
                                let other = &self.model.kernels[*j];
                                errors.push(
                                    netcl_util::Diagnostic::error(
                                        "E0206",
                                        format!(
                                            "kernels `{}` and `{}` of computation {comp} are both placed at device {l} (Eq. 1)",
                                            other.name, k.name
                                        ),
                                        k.span,
                                    )
                                    .with_note(*pspan, "other kernel here"),
                                );
                            } else {
                                used.insert(l, (i, k.span));
                            }
                        }
                    }
                }
            }
        }
        for e in errors {
            self.diags.emit(e);
        }
    }

    fn check_spec_matching(&mut self) {
        let mut by_comp: HashMap<u8, (usize, Specification)> = HashMap::new();
        let mut errors: Vec<netcl_util::Diagnostic> = Vec::new();
        for (i, k) in self.model.kernels.iter().enumerate() {
            let spec = k.specification();
            match by_comp.get(&k.computation) {
                Some((j, first)) if *first != spec => {
                    let other = &self.model.kernels[*j];
                    errors.push(
                        netcl_util::Diagnostic::error(
                            "E0208",
                            format!(
                                "kernel `{}` has specification {} but computation {} was established as {} (§V-A: kernels of the same computation must have matching specifications)",
                                k.name,
                                spec.describe(),
                                k.computation,
                                first.describe()
                            ),
                            k.span,
                        )
                        .with_note(other.span, "established by this kernel"),
                    );
                }
                Some(_) => {}
                None => {
                    by_comp.insert(k.computation, (i, spec));
                }
            }
        }
        for e in errors {
            self.diags.emit(e);
        }
    }

    // ---- body checking --------------------------------------------------

    fn check_bodies(&mut self) {
        // Snapshot entity lists; bodies are checked against the full model.
        let kernel_items: Vec<(usize, LocationSet)> =
            self.model.kernels.iter().map(|k| (k.item_index, k.locations.clone())).collect();
        let netfn_items: Vec<(usize, usize, LocationSet, Ty)> = self
            .model
            .net_fns
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.item_index, f.locations.clone(), f.ret))
            .collect();

        for (item_index, locations) in kernel_items {
            let Item::Function(f) = &self.program.items[item_index] else { continue };
            self.check_fn_body(f, &locations, true, None, Ty::Void);
        }
        for (nf_index, item_index, locations, ret) in netfn_items {
            let Item::Function(f) = &self.program.items[item_index] else { continue };
            self.check_fn_body(f, &locations, false, Some(nf_index), ret);
        }
    }

    fn check_fn_body(
        &mut self,
        f: &FunctionDecl,
        locations: &LocationSet,
        is_kernel: bool,
        net_fn_index: Option<usize>,
        ret: Ty,
    ) {
        let Some(body) = &f.body else { return };
        let mut ctx = FnCtx {
            net_fn_index,
            is_kernel,
            ret,
            locations,
            scope: HashMap::new(),
            outer: Vec::new(),
            loop_depth: 0,
        };
        for p in &f.params {
            let ty = Ty::from_type_expr(&p.ty).filter(|t| t.is_arith()).unwrap_or(Ty::U32);
            let (rank, root) = match p.mode {
                PassMode::Value => (p.dims.len().min(1), Root::ParamValue),
                PassMode::Reference => (0, Root::ParamRef),
                PassMode::Pointer => (1, Root::ParamPtr),
            };
            ctx.scope.insert(p.name, VarInfo { ty, rank, root });
        }
        // The function body shares the parameter scope (C semantics: a local
        // redeclaring a parameter is a redefinition error).
        for stmt in &body.stmts {
            self.check_stmt(stmt, &mut ctx);
        }
    }

    fn check_block(&mut self, block: &Block, ctx: &mut FnCtx<'_>) {
        ctx.enter_scope();
        for stmt in &block.stmts {
            self.check_stmt(stmt, ctx);
        }
        ctx.leave_scope();
    }

    fn check_stmt(&mut self, stmt: &Stmt, ctx: &mut FnCtx<'_>) {
        match stmt {
            Stmt::Decl(d) => self.check_local_decl(d, ctx),
            Stmt::Expr(e) => {
                let ty = self.check_expr(e, ctx);
                if ty == Ty::Action {
                    self.diags.error(
                        "E0204",
                        "actions may only appear in kernel `return` statements (§V-A)",
                        e.span,
                    );
                }
            }
            Stmt::If { cond, then, els, .. } => {
                self.check_condition(cond, ctx);
                self.check_block(then, ctx);
                if let Some(e) = els {
                    self.check_block(e, ctx);
                }
            }
            Stmt::For { init, cond, step, body, .. } => {
                ctx.enter_scope();
                if let Some(i) = init {
                    self.check_stmt(i, ctx);
                }
                if let Some(c) = cond {
                    self.check_condition(c, ctx);
                }
                if let Some(s) = step {
                    self.check_expr(s, ctx);
                }
                ctx.loop_depth += 1;
                self.check_block(body, ctx);
                ctx.loop_depth -= 1;
                ctx.leave_scope();
            }
            Stmt::While { cond, body, .. } => {
                self.check_condition(cond, ctx);
                ctx.loop_depth += 1;
                self.check_block(body, ctx);
                ctx.loop_depth -= 1;
            }
            Stmt::Return { value, span } => self.check_return(value.as_ref(), *span, ctx),
            Stmt::Break(span) | Stmt::Continue(span) => {
                if ctx.loop_depth == 0 {
                    self.diags.error("E0221", "`break`/`continue` outside of a loop", *span);
                }
            }
            Stmt::Block(b) => self.check_block(b, ctx),
        }
    }

    fn check_return(&mut self, value: Option<&Expr>, span: Span, ctx: &mut FnCtx<'_>) {
        match value {
            None => {
                if !ctx.is_kernel && ctx.ret != Ty::Void {
                    self.diags.error(
                        "E0222",
                        format!("return value of type `{}` required", ctx.ret),
                        span,
                    );
                }
            }
            Some(v) => {
                let ty = self.check_expr(v, ctx);
                if ctx.is_kernel {
                    // Kernels: `return action;` or `return void_call;` or a
                    // ternary mixing the two (Fig. 4 line 19).
                    if ty != Ty::Action && ty != Ty::Void {
                        self.diags.error(
                            "E0203",
                            format!(
                                "kernels return actions, not values (found `{ty}`); see Table II"
                            ),
                            v.span,
                        );
                    }
                } else if ctx.ret == Ty::Void {
                    if ty != Ty::Void {
                        self.diags.error(
                            "E0222",
                            "void net function cannot return a value",
                            v.span,
                        );
                    }
                } else if !ty.converts_to(ctx.ret) {
                    self.diags.error(
                        "E0201",
                        format!("cannot convert `{ty}` to return type `{}`", ctx.ret),
                        v.span,
                    );
                }
            }
        }
    }

    fn check_local_decl(&mut self, d: &LocalDecl, ctx: &mut FnCtx<'_>) {
        // Shadowing within the same scope is an error.
        if ctx.scope.contains_key(&d.name) {
            self.diags.error(
                "E0225",
                format!("redefinition of `{}` in the same scope", self.name(d.name)),
                d.span,
            );
        }
        let mut dims = Vec::new();
        for e in &d.dims {
            if let Some(v) = eval_dim(e, self.diags) {
                dims.push(v);
            } else {
                dims.push(1);
            }
        }
        let ty = match &d.ty {
            TypeExpr::Auto => {
                let Some(Init::Expr(init)) = &d.init else {
                    self.diags.error("E0223", "`auto` requires a scalar initializer", d.span);
                    return;
                };
                let t = self.check_expr(init, ctx);
                if !t.is_arith() {
                    self.diags.error(
                        "E0223",
                        format!("cannot infer a scalar type from `{t}`"),
                        init.span,
                    );
                    Ty::I32
                } else {
                    // `auto x = <bool>` infers int, matching C++'s deduction
                    // of comparison results... actually bool deduces bool.
                    t
                }
            }
            other => match Ty::from_type_expr(other) {
                Some(t) if t.is_arith() => t,
                Some(t) => {
                    self.diags.error(
                        "E0201",
                        format!("local variables must be scalar (found `{t}`)"),
                        d.span,
                    );
                    Ty::I32
                }
                None => {
                    self.diags.error("E0105", "unknown type", d.span);
                    Ty::I32
                }
            },
        };
        if !matches!(d.ty, TypeExpr::Auto) {
            match &d.init {
                Some(Init::Expr(e)) => {
                    if !dims.is_empty() {
                        self.diags.error("E0201", "array initializers use brace lists", e.span);
                    }
                    let t = self.check_expr(e, ctx);
                    if !t.converts_to(ty) {
                        self.diags.error(
                            "E0201",
                            format!("cannot initialize `{ty}` with `{t}`"),
                            e.span,
                        );
                    }
                }
                Some(Init::List(items, span)) => {
                    // One flat list, row-major (C brace elision).
                    let elements: usize = dims.iter().product();
                    if dims.is_empty() {
                        self.diags.error("E0201", "brace list initializes arrays", *span);
                    } else if items.len() > elements {
                        self.diags.error(
                            "E0201",
                            format!("too many initializers ({} > {elements})", items.len()),
                            *span,
                        );
                    }
                    for item in items {
                        let Init::Expr(e) = item else {
                            self.diags.error(
                                "E0201",
                                "nested brace lists are not supported; list the elements row-major",
                                item.span(),
                            );
                            continue;
                        };
                        let t = self.check_expr(e, ctx);
                        if !t.converts_to(ty) {
                            self.diags.error(
                                "E0201",
                                format!("cannot initialize `{ty}` element with `{t}`"),
                                e.span,
                            );
                        }
                    }
                }
                None => {}
            }
        }
        let var = VarInfo { ty, rank: dims.len(), root: Root::Local };
        ctx.scope.insert(d.name, var);
        self.resolve(d.id, Resolution::Local { ty, dims });
    }

    fn check_condition(&mut self, e: &Expr, ctx: &mut FnCtx<'_>) {
        let ty = self.check_expr(e, ctx);
        if !ty.is_arith() && ty != Ty::Bool {
            self.diags.error("E0201", format!("condition must be scalar, found `{ty}`"), e.span);
        }
    }

    // ---- expression checking -------------------------------------------

    fn record(&mut self, id: NodeId, ty: Ty) -> Ty {
        self.types[id.0 as usize] = Some(ty);
        ty
    }

    fn check_expr(&mut self, e: &Expr, ctx: &mut FnCtx<'_>) -> Ty {
        let ty = self.check_expr_inner(e, ctx);
        self.record(e.id, ty)
    }

    fn check_expr_inner(&mut self, e: &Expr, ctx: &mut FnCtx<'_>) -> Ty {
        match &e.kind {
            ExprKind::Int(v) => {
                if *v <= i32::MAX as u64 {
                    Ty::I32
                } else if *v <= u32::MAX as u64 {
                    Ty::U32
                } else {
                    Ty::U64
                }
            }
            ExprKind::Bool(_) => Ty::Bool,
            ExprKind::Char(_) => Ty::U8,
            ExprKind::Ident(_) | ExprKind::Index(..) | ExprKind::Member(..) => {
                match self.check_place(e, ctx) {
                    Some(p) => {
                        if p.dims_left > 0 {
                            self.diags.error(
                                "E0231",
                                "array used as a value (index it, or pass it to a lookup/atomic builtin)",
                                e.span,
                            );
                        }
                        if let Root::Global(g) = p.root {
                            if self.model.globals[g].lookup {
                                self.diags.error(
                                    "E0209",
                                    format!(
                                        "`_lookup_` memory `{}` is searched, not read; use ncl::lookup (§V-B)",
                                        self.model.globals[g].name
                                    ),
                                    e.span,
                                );
                            }
                            self.check_reference_validity(g, e.span, ctx);
                        }
                        p.ty
                    }
                    None => Ty::I32,
                }
            }
            ExprKind::Path { segments, .. } => {
                let segs: Vec<&str> = segments.iter().map(|s| self.name(*s)).collect();
                self.diags.error(
                    "E0224",
                    format!("`{}` is not a value; did you mean to call it?", segs.join("::")),
                    e.span,
                );
                Ty::I32
            }
            ExprKind::Unary(op, inner) => match op {
                UnOp::Neg | UnOp::BitNot => {
                    let t = self.check_expr(inner, ctx);
                    if !t.is_arith() {
                        self.diags.error(
                            "E0201",
                            format!("cannot apply operator to `{t}`"),
                            e.span,
                        );
                        return Ty::I32;
                    }
                    t.promote()
                }
                UnOp::Not => {
                    let t = self.check_expr(inner, ctx);
                    if !t.is_arith() {
                        self.diags.error("E0201", format!("cannot apply `!` to `{t}`"), e.span);
                    }
                    Ty::Bool
                }
                UnOp::AddrOf => {
                    self.diags.error(
                        "E0211",
                        "`&` is only allowed as the first argument of an atomic operation (P4 has no addressable memory, §V-D)",
                        e.span,
                    );
                    Ty::I32
                }
                UnOp::Deref => match self.check_place(e, ctx) {
                    Some(p) => p.ty,
                    None => Ty::I32,
                },
            },
            ExprKind::Binary(op, a, b) => {
                let ta = self.check_expr(a, ctx);
                let tb = self.check_expr(b, ctx);
                if !ta.is_arith() || !tb.is_arith() {
                    if ta != Ty::Action && tb != Ty::Action {
                        // Action operands get a dedicated message elsewhere.
                    }
                    self.diags.error(
                        "E0201",
                        format!("invalid operands `{ta}` {} `{tb}`", op.symbol()),
                        e.span,
                    );
                    return if op.is_comparison() { Ty::Bool } else { Ty::I32 };
                }
                if op.is_comparison() {
                    Ty::Bool
                } else {
                    Ty::unify_arith(ta, tb)
                }
            }
            ExprKind::Assign { op, target, value } => {
                let place = self.check_place(target, ctx);
                let vt = self.check_expr(value, ctx);
                let Some(place) = place else { return Ty::I32 };
                if place.dims_left > 0 {
                    self.diags.error("E0202", "cannot assign to a whole array", target.span);
                    return place.ty;
                }
                if let Root::Global(g) = place.root {
                    let ginfo = &self.model.globals[g];
                    if ginfo.lookup {
                        self.diags.error(
                            "E0220",
                            format!(
                                "`_lookup_` memory `{}` is not writable from device code (P4 MATs are control-plane managed, §V-B)",
                                ginfo.name
                            ),
                            target.span,
                        );
                    }
                    self.check_reference_validity(g, target.span, ctx);
                }
                if op.is_some() && !place.ty.is_arith() {
                    self.diags.error("E0201", "compound assignment requires a scalar", e.span);
                }
                if !vt.converts_to(place.ty) {
                    self.diags.error(
                        "E0201",
                        format!("cannot assign `{vt}` to `{}`", place.ty),
                        value.span,
                    );
                }
                // Record the *target's* type on the target node too.
                self.record(target.id, place.ty)
            }
            ExprKind::Ternary(c, a, b) => {
                self.check_condition(c, ctx);
                let ta = self.check_expr(a, ctx);
                let tb = self.check_expr(b, ctx);
                match (ta, tb) {
                    (Ty::Action, Ty::Action | Ty::Void) | (Ty::Void, Ty::Action) => Ty::Action,
                    (Ty::Void, Ty::Void) => Ty::Void,
                    _ if ta.is_arith() && tb.is_arith() => Ty::unify_arith(ta, tb),
                    _ => {
                        self.diags.error(
                            "E0201",
                            format!("incompatible ternary branches `{ta}` and `{tb}`"),
                            e.span,
                        );
                        Ty::I32
                    }
                }
            }
            ExprKind::Call { callee, args } => self.check_call(e, callee, args, ctx),
            ExprKind::Cast(te, inner) => {
                let t = self.check_expr(inner, ctx);
                match Ty::from_type_expr(te) {
                    Some(to) if to.is_arith() => {
                        if !t.is_arith() {
                            self.diags.error(
                                "E0211",
                                format!("cannot cast `{t}`; only scalar casts are allowed in device code (§V-D)"),
                                e.span,
                            );
                        }
                        to
                    }
                    _ => {
                        self.diags.error("E0211", "only scalar casts are allowed", e.span);
                        Ty::I32
                    }
                }
            }
            ExprKind::IncDec { expr, .. } => match self.check_place(expr, ctx) {
                Some(p) if p.dims_left == 0 && p.ty.is_int() => {
                    if let Root::Global(g) = p.root {
                        if self.model.globals[g].lookup {
                            self.diags.error("E0220", "`_lookup_` memory is not writable", e.span);
                        }
                        self.check_reference_validity(g, e.span, ctx);
                    }
                    p.ty
                }
                Some(p) => {
                    self.diags.error("E0201", format!("cannot increment `{}`", p.ty), e.span);
                    Ty::I32
                }
                None => Ty::I32,
            },
            ExprKind::Sizeof(te) => {
                match Ty::from_type_expr(te) {
                    Some(t) => self.resolve(e.id, Resolution::SizeOf(t)),
                    None => self.diags.error("E0105", "unknown type in sizeof", e.span),
                }
                Ty::U32
            }
            ExprKind::Error => Ty::I32,
        }
    }

    /// Resolves a place expression (assignable/addressable). Reports
    /// diagnostics and returns `None` when the expression is not a place.
    fn check_place(&mut self, e: &Expr, ctx: &mut FnCtx<'_>) -> Option<PlaceInfo> {
        let place = self.check_place_inner(e, ctx)?;
        if place.dims_left == 0 {
            self.record(e.id, place.ty);
        }
        Some(place)
    }

    fn check_place_inner(&mut self, e: &Expr, ctx: &mut FnCtx<'_>) -> Option<PlaceInfo> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(v) = ctx.lookup_var(*name) {
                    return Some(PlaceInfo { root: v.root.clone(), ty: v.ty, dims_left: v.rank });
                }
                let n = self.name(*name);
                if let Some(gi) = self.model.globals.iter().position(|g| g.name == n) {
                    self.resolve(e.id, Resolution::Global(gi));
                    let g = &self.model.globals[gi];
                    return Some(PlaceInfo {
                        root: Root::Global(gi),
                        ty: g.elem,
                        dims_left: g.dims.len(),
                    });
                }
                self.diags.error("E0200", format!("unknown identifier `{n}`"), e.span);
                None
            }
            ExprKind::Index(base, idx) => {
                let it = self.check_expr(idx, ctx);
                if !it.is_arith() {
                    self.diags.error(
                        "E0201",
                        format!("index must be integer, found `{it}`"),
                        idx.span,
                    );
                }
                let base_place = self.check_place(base, ctx)?;
                if base_place.dims_left == 0 {
                    self.diags.error("E0201", "indexing into a scalar", e.span);
                    return None;
                }
                Some(PlaceInfo {
                    root: base_place.root,
                    ty: base_place.ty,
                    dims_left: base_place.dims_left - 1,
                })
            }
            ExprKind::Member(base, field) => {
                // `device.id` / `device.kind` / `msg.{src,dst,from,to}`
                // builtins — unless shadowed by a variable.
                if let ExprKind::Ident(b) = &base.kind {
                    if ctx.lookup_var(*b).is_none() {
                        let (bn, fname) = (self.name(*b), self.name(*field));
                        if let Some(m) = Member::named(bn, fname) {
                            self.resolve(e.id, Resolution::Member(m));
                            // Builtin pseudo-places are read-only rvalues; we
                            // model them as ParamValue so assignment passes
                            // place checks get a clear error below.
                            return Some(PlaceInfo {
                                root: Root::ParamValue,
                                ty: m.ty(),
                                dims_left: 0,
                            });
                        }
                        self.diags.error(
                            "E0200",
                            format!("unknown builtin member `{bn}.{fname}`"),
                            e.span,
                        );
                        return None;
                    }
                }
                self.diags.error(
                    "E0201",
                    "member access is only for `device`/`msg` builtins",
                    e.span,
                );
                None
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                if matches!(inner.kind, ExprKind::Binary(..) | ExprKind::Cast(..)) {
                    self.diags.error(
                        "E0211",
                        "pointer arithmetic and pointer casts are not allowed in device code (§V-D)",
                        e.span,
                    );
                    return None;
                }
                let p = self.check_place(inner, ctx)?;
                if p.dims_left == 0 {
                    self.diags.error("E0201", "cannot dereference a scalar", e.span);
                    return None;
                }
                if p.root != Root::ParamPtr {
                    self.diags.error("E0211", "`*` only applies to pointer parameters", e.span);
                }
                Some(PlaceInfo { root: p.root, ty: p.ty, dims_left: p.dims_left - 1 })
            }
            _ => {
                self.diags.error("E0202", "expression is not assignable", e.span);
                None
            }
        }
    }

    /// Eq. (2): reference to global `g` from the current function.
    fn check_reference_validity(&mut self, g: usize, span: Span, ctx: &FnCtx<'_>) {
        let ginfo = &self.model.globals[g];
        let valid = match (&ginfo.locations, ctx.locations) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(glocs), Some(flocs)) => flocs.iter().all(|l| glocs.contains(l)),
        };
        if !valid {
            let gspan = ginfo.span;
            let gname = ginfo.name.clone();
            self.diags.emit(
                netcl_util::Diagnostic::error(
                    "E0207",
                    format!(
                        "`{gname}` is not placed at every location of this function (Eq. 2: LOC(user) ⊆ LOC(decl))"
                    ),
                    span,
                )
                .with_note(gspan, "declared here"),
            );
        }
    }

    /// Eq. (2) for net-function references.
    fn check_netfn_reference_validity(&mut self, nf: usize, span: Span, ctx: &FnCtx<'_>) {
        let finfo = &self.model.net_fns[nf];
        let valid = match (&finfo.locations, ctx.locations) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(flocs), Some(ulocs)) => ulocs.iter().all(|l| flocs.contains(l)),
        };
        if !valid {
            let fspan = finfo.span;
            let fname = finfo.name.clone();
            self.diags.emit(
                netcl_util::Diagnostic::error(
                    "E0207",
                    format!(
                        "net function `{fname}` is not placed at every location of this caller (Eq. 2)"
                    ),
                    span,
                )
                .with_note(fspan, "declared here"),
            );
        }
    }

    fn check_call(&mut self, e: &Expr, callee: &Expr, args: &[Expr], ctx: &mut FnCtx<'_>) -> Ty {
        match &callee.kind {
            ExprKind::Path { segments, targs } => {
                let segs: Vec<&str> = segments.iter().map(|s| self.name(*s)).collect();
                let widths: Vec<u64> = targs
                    .iter()
                    .map(|t| match t {
                        TemplateArg::Const(c) => *c,
                        TemplateArg::Type(te) => {
                            Ty::from_type_expr(te).map(|t| t.bits() as u64).unwrap_or(0)
                        }
                    })
                    .collect();
                match builtins::resolve(&segs, &widths) {
                    Ok(b) => {
                        let ty = self.check_builtin_call(e, &b, args, ctx);
                        self.resolve(callee.id, Resolution::Builtin(b));
                        ty
                    }
                    Err(ResolveError::NotNcl) => {
                        self.diags.error(
                            "E0224",
                            format!("unknown function `{}`", segs.join("::")),
                            callee.span,
                        );
                        Ty::I32
                    }
                    Err(ResolveError::Unknown(n)) => {
                        self.diags.error(
                            "E0224",
                            format!("unknown ncl builtin `{n}`"),
                            callee.span,
                        );
                        Ty::I32
                    }
                    Err(ResolveError::BadTemplateArgs(n)) => {
                        self.diags.error(
                            "E0224",
                            format!("invalid template arguments for `ncl::{n}`"),
                            callee.span,
                        );
                        Ty::I32
                    }
                }
            }
            ExprKind::Ident(name) => {
                let n = self.name(*name);
                if let Some(nf) = self.model.net_fns.iter().position(|f| f.name == n) {
                    self.resolve(callee.id, Resolution::NetFn(nf));
                    return self.check_netfn_call(e, nf, args, ctx);
                }
                if self.model.kernels.iter().any(|k| k.name == n) {
                    self.diags.error(
                        "E0218",
                        format!("kernel `{n}` cannot be called directly; kernels are invoked by messages (§V-A)"),
                        callee.span,
                    );
                    return Ty::Void;
                }
                self.diags.error("E0200", format!("unknown function `{n}`"), callee.span);
                Ty::I32
            }
            _ => {
                self.diags.error("E0201", "expression is not callable", callee.span);
                Ty::I32
            }
        }
    }

    fn check_netfn_call(&mut self, e: &Expr, nf: usize, args: &[Expr], ctx: &mut FnCtx<'_>) -> Ty {
        let (nparams, ret, name) = {
            let f = &self.model.net_fns[nf];
            (f.params.clone(), f.ret, f.name.clone())
        };
        if args.len() != nparams.len() {
            self.diags.error(
                "E0213",
                format!("`{name}` expects {} arguments, got {}", nparams.len(), args.len()),
                e.span,
            );
        }
        for (arg, param) in args.iter().zip(&nparams) {
            match param.mode {
                PassMode::Value => {
                    let t = self.check_expr(arg, ctx);
                    if !t.converts_to(param.ty) {
                        self.diags.error(
                            "E0201",
                            format!("cannot pass `{t}` as `{}`", param.ty),
                            arg.span,
                        );
                    }
                }
                PassMode::Reference | PassMode::Pointer => {
                    if let Some(p) = self.check_place(arg, ctx) {
                        if p.dims_left != 0 && param.mode == PassMode::Reference {
                            self.diags.error("E0201", "cannot bind array to `&`", arg.span);
                        }
                        if param.mode == PassMode::Reference && p.ty != param.ty {
                            self.diags.error(
                                "E0201",
                                format!(
                                    "reference parameter `{}` requires exactly `{}`, found `{}`",
                                    param.name, param.ty, p.ty
                                ),
                                arg.span,
                            );
                        }
                        if let Root::Global(g) = p.root {
                            self.check_reference_validity(g, arg.span, ctx);
                        }
                    }
                }
            }
        }
        self.check_netfn_reference_validity(nf, e.span, ctx);
        if let Some(caller) = ctx.net_fn_index {
            self.net_fn_calls.push((caller, nf));
        }
        ret
    }

    fn check_builtin_call(
        &mut self,
        e: &Expr,
        b: &Builtin,
        args: &[Expr],
        ctx: &mut FnCtx<'_>,
    ) -> Ty {
        let argn = |me: &mut Self, n: usize| {
            if args.len() != n {
                me.diags.error(
                    "E0213",
                    format!("builtin expects {n} argument(s), got {}", args.len()),
                    e.span,
                );
                false
            } else {
                true
            }
        };
        match b {
            Builtin::Action(kind) => {
                if !ctx.is_kernel {
                    self.diags.error("E0204", "actions may only be used in kernels (§V-A)", e.span);
                }
                if argn(self, kind.arg_count()) {
                    for a in args {
                        let t = self.check_expr(a, ctx);
                        if !t.converts_to(Ty::U16) {
                            self.diags.error(
                                "E0201",
                                format!("action target must be a u16 id, found `{t}`"),
                                a.span,
                            );
                        }
                    }
                }
                // reflect() on a multi-device abstract topology is resolved
                // by the runtime via the previous-hop field (§IV).
                let _ = kind;
                Ty::Action
            }
            Builtin::Atomic(op) => {
                if !argn(self, op.arg_count()) {
                    return Ty::U32;
                }
                let elem = self.check_atomic_addr(&args[0], ctx);
                let mut rest = &args[1..];
                if op.cond {
                    self.check_condition(&rest[0], ctx);
                    rest = &rest[1..];
                }
                for a in rest {
                    let t = self.check_expr(a, ctx);
                    if let Some(elem) = elem {
                        if !t.converts_to(elem) {
                            self.diags.error(
                                "E0201",
                                format!("atomic operand `{t}` does not convert to `{elem}`"),
                                a.span,
                            );
                        }
                    }
                }
                elem.unwrap_or(Ty::U32)
            }
            Builtin::Lookup => {
                if args.len() != 2 && args.len() != 3 {
                    self.diags.error(
                        "E0213",
                        format!("ncl::lookup takes 2 or 3 arguments, got {}", args.len()),
                        e.span,
                    );
                    return Ty::Bool;
                }
                let table = self.check_lookup_table(&args[0], ctx);
                let kt = self.check_expr(&args[1], ctx);
                if let Some((key_ty, val_ty)) = table {
                    if !kt.converts_to(key_ty) {
                        self.diags.error(
                            "E0201",
                            format!("lookup key `{kt}` does not convert to `{key_ty}`"),
                            args[1].span,
                        );
                    }
                    if let Some(out) = args.get(2) {
                        match val_ty {
                            Some(vt) => match self.check_place(out, ctx) {
                                Some(p) if p.dims_left == 0 && p.ty != vt => {
                                    self.diags.error(
                                        "E0201",
                                        format!("lookup output requires `{vt}`, found `{}`", p.ty),
                                        out.span,
                                    );
                                }
                                Some(p) if p.dims_left == 0 => {}
                                Some(_) => {
                                    self.diags.error(
                                        "E0202",
                                        "lookup output must be scalar",
                                        out.span,
                                    );
                                }
                                None => {}
                            },
                            None => {
                                self.diags.error(
                                    "E0213",
                                    "scalar lookup arrays are membership sets; no output argument",
                                    out.span,
                                );
                            }
                        }
                    }
                }
                Ty::Bool
            }
            Builtin::Hash(_, bits) => {
                if argn(self, 1) {
                    let t = self.check_expr(&args[0], ctx);
                    if !t.is_arith() {
                        self.diags.error("E0201", format!("cannot hash `{t}`"), args[0].span);
                    }
                }
                Ty::Int { bits: (*bits).max(8).next_power_of_two().max(8), signed: false }
            }
            Builtin::SAdd | Builtin::SSub | Builtin::Min | Builtin::Max => {
                if argn(self, 2) {
                    let a = self.check_expr(&args[0], ctx);
                    let b2 = self.check_expr(&args[1], ctx);
                    if a.is_arith() && b2.is_arith() {
                        return Ty::unify_arith(a, b2);
                    }
                    self.diags.error("E0201", "builtin requires scalar operands", e.span);
                }
                Ty::U32
            }
            Builtin::BitChk => {
                if argn(self, 2) {
                    for a in args {
                        let t = self.check_expr(a, ctx);
                        if !t.is_arith() {
                            self.diags.error("E0201", "bit_chk requires scalars", a.span);
                        }
                    }
                }
                Ty::Bool
            }
            Builtin::Bswap => {
                if argn(self, 1) {
                    let t = self.check_expr(&args[0], ctx);
                    if t.is_int() {
                        return t;
                    }
                    self.diags.error("E0201", "bswap requires an integer", args[0].span);
                }
                Ty::U32
            }
            Builtin::Clz => {
                if argn(self, 1) {
                    let t = self.check_expr(&args[0], ctx);
                    if !t.is_int() {
                        self.diags.error("E0201", "clz requires an integer", args[0].span);
                    }
                }
                Ty::U8
            }
            Builtin::Rand(bits) => {
                argn(self, 0);
                Ty::Int { bits: (*bits).max(8), signed: false }
            }
            Builtin::TargetIntrinsic { .. } => {
                // Per-target backends validate; language level is permissive
                // (§V-D). Arguments are checked as scalars.
                for a in args {
                    let t = self.check_expr(a, ctx);
                    if !t.is_arith() {
                        self.diags.error("E0201", "intrinsic arguments must be scalar", a.span);
                    }
                }
                Ty::U32
            }
        }
    }

    /// Checks the address argument of an atomic: `&G[i]...` or `G[i]...`
    /// resolving to a scalar element of non-lookup global memory.
    fn check_atomic_addr(&mut self, arg: &Expr, ctx: &mut FnCtx<'_>) -> Option<Ty> {
        let inner = match &arg.kind {
            ExprKind::Unary(UnOp::AddrOf, inner) => inner,
            _ => arg,
        };
        let place = self.check_place(inner, ctx)?;
        if place.dims_left != 0 {
            self.diags.error("E0213", "atomic address must resolve to a single element", arg.span);
            return None;
        }
        match place.root {
            Root::Global(g) => {
                let ginfo = &self.model.globals[g];
                if ginfo.lookup {
                    self.diags.error(
                        "E0220",
                        "atomics do not apply to `_lookup_` memory",
                        arg.span,
                    );
                    return None;
                }
                self.check_reference_validity(g, arg.span, ctx);
                Some(place.ty)
            }
            _ => {
                self.diags.error(
                    "E0232",
                    "atomics require global (`_net_`/`_managed_`) memory (§V-B)",
                    arg.span,
                );
                None
            }
        }
    }

    /// Checks the table argument of `ncl::lookup`, returning (key_ty,
    /// Some(value_ty) for kv/rv, None for membership sets).
    fn check_lookup_table(&mut self, arg: &Expr, ctx: &mut FnCtx<'_>) -> Option<(Ty, Option<Ty>)> {
        let ExprKind::Ident(name) = &arg.kind else {
            self.diags.error(
                "E0210",
                "first lookup argument must name a `_lookup_` array",
                arg.span,
            );
            return None;
        };
        if ctx.lookup_var(*name).is_some() {
            self.diags.error("E0210", "lookup requires `_lookup_` global memory", arg.span);
            return None;
        }
        let n = self.name(*name);
        let Some(gi) = self.model.globals.iter().position(|g| g.name == n) else {
            self.diags.error("E0200", format!("unknown identifier `{n}`"), arg.span);
            return None;
        };
        let g = &self.model.globals[gi];
        if !g.lookup {
            self.diags.error("E0210", format!("`{n}` is not `_lookup_` memory"), arg.span);
            return None;
        }
        let result = match g.elem {
            Ty::Kv { key, value } => (key.ty(), Some(value.ty())),
            Ty::Rv { range, value } => (range.ty(), Some(value.ty())),
            scalar => (scalar, None),
        };
        self.resolve(arg.id, Resolution::Global(gi));
        self.check_reference_validity(gi, arg.span, ctx);
        Some(result)
    }

    // ---- recursion ------------------------------------------------------

    fn check_recursion(&mut self) {
        let n = self.model.net_fns.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &self.net_fn_calls {
            adj[a].push(b);
        }
        // Iterative DFS cycle detection (colors: 0 white, 1 gray, 2 black).
        let mut color = vec![0u8; n];
        for start in 0..n {
            if color[start] != 0 {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            color[start] = 1;
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if *i < adj[u].len() {
                    let v = adj[u][*i];
                    *i += 1;
                    match color[v] {
                        0 => {
                            color[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => {
                            let name = self.model.net_fns[v].name.clone();
                            let span = self.model.net_fns[v].span;
                            self.diags.error(
                                "E0217",
                                format!(
                                    "recursion involving net function `{name}` (device code cannot recurse, §V-D)"
                                ),
                                span,
                            );
                            color[v] = 2;
                        }
                        _ => {}
                    }
                } else {
                    color[u] = 2;
                    stack.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_lang::parse;

    fn analyze_src(src: &str) -> (Analysis, DiagnosticSink) {
        let (unit, pdiags) = parse("t.ncl", src);
        assert!(!pdiags.has_errors(), "parse: {}", pdiags.render_all(&unit.source_map));
        analyze(&unit)
    }

    fn ok(src: &str) -> Analysis {
        let (unit, pdiags) = parse("t.ncl", src);
        assert!(!pdiags.has_errors(), "parse: {}", pdiags.render_all(&unit.source_map));
        let (a, d) = analyze(&unit);
        assert!(!d.has_errors(), "sema: {}", d.render_all(&unit.source_map));
        a
    }

    fn err(src: &str, code: &str) {
        let (_, d) = analyze_src(src);
        assert!(
            d.has_code(code),
            "expected {code}, got {:?}",
            d.diagnostics().iter().map(|x| (x.code, x.message.clone())).collect::<Vec<_>>()
        );
    }

    #[test]
    fn figure4_cache_checks() {
        let a = ok(r#"
#define CMS_HASHES 3
#define THRESH 512
#define GET_REQ 1
_managed_ unsigned cms[CMS_HASHES][65536];
_net_ void sketch(unsigned k, unsigned &hot) {
  unsigned c[CMS_HASHES];
  c[0] = ncl::atomic_sadd_new(&cms[0][ncl::xor16(k)], 1);
  c[1] = ncl::atomic_sadd_new(&cms[1][ncl::crc32<16>(k)], 1);
  c[2] = ncl::atomic_sadd_new(&cms[2][ncl::crc16(k)], 1);
  for (auto i = 1; i < CMS_HASHES; ++i)
    if (c[i] < c[0]) c[0] = c[i];
  hot = c[0] > THRESH ? c[0] : 0;
}
_net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42}, {2,42}, {3,42}, {4,42}};
_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v,
                             char &hit, unsigned &hot) {
  if (op == GET_REQ) {
    hit = ncl::lookup(cache, k, v);
    return hit ? ncl::reflect() : sketch(k, hot);
  }
}
"#);
        assert_eq!(a.model.kernels.len(), 1);
        assert_eq!(a.model.net_fns.len(), 1);
        assert_eq!(a.model.globals.len(), 2);
        let k = &a.model.kernels[0];
        assert_eq!(k.computation, 1);
        assert_eq!(k.locations, Some(vec![1]));
        assert_eq!(
            k.specification().describe(),
            "[1,1,1,1,1][uint8_t,uint32_t,uint32_t,uint8_t,uint32_t]"
        );
        let cache = a.model.global("cache").unwrap();
        assert!(cache.lookup);
        assert_eq!(cache.dims, vec![4]);
        assert_eq!(cache.entries.len(), 4);
        assert_eq!(cache.entries[0], LookupEntry::Exact { key: 1, value: 42 });
    }

    #[test]
    fn spec_inference_examples() {
        // §V-A examples: a=[3], b=[4], c=[4], d=[1,2,1].
        let a = ok(r#"
_kernel(1) void a(int x[3]) {}
_kernel(2) void b(int x[4]) {}
_kernel(3) void c(int _spec(4) *x) {}
_kernel(4) void d(int x, int y[2], int *z) {}
"#);
        let s: Vec<String> = a.model.kernels.iter().map(|k| k.specification().describe()).collect();
        assert_eq!(s[0], "[3][int32_t]");
        assert_eq!(s[1], "[4][int32_t]");
        assert_eq!(s[2], "[4][int32_t]");
        assert_eq!(s[3], "[1,2,1][int32_t,int32_t,int32_t]");
    }

    #[test]
    fn spec_mismatch_same_computation() {
        err("_kernel(1) _at(1) void a(int x[3]) {} _kernel(1) _at(2) void b(int x[4]) {}", "E0208");
    }

    #[test]
    fn placement_eq1() {
        // Paper §V-C example: `a` at {1,2} plus location-less `b` in the
        // same computation is invalid.
        err(
            "_net_ _at(1,2) int m[42];
             _kernel(1) _at(1,2) void a(int x) { m[0] = 1; }
             _kernel(1) void b(int x) {}",
            "E0206",
        );
        // Overlapping explicit sets also invalid.
        err(
            "_kernel(1) _at(1,2) void a(int x) {}
             _kernel(1) _at(2,3) void b(int x) {}",
            "E0206",
        );
        // Disjoint sets valid.
        ok("_kernel(1) _at(1) void a(int x) {}
            _kernel(1) _at(2) void b(int x) {}");
    }

    #[test]
    fn reference_eq2() {
        // Paper §V-C: kernel without `_at` referencing memory at {1,2}.
        err(
            "_net_ _at(1,2) int m[42];
             _kernel(2) void c(int x) { m[0] = 42; }",
            "E0207",
        );
        // Subset is fine.
        ok("_net_ _at(1,2) int m[42];
            _kernel(2) _at(1) void c(int x) { m[0] = 42; }");
        // Location-less memory referenced from anywhere is fine.
        ok("_net_ int m[42];
            _kernel(2) _at(7) void c(int x) { m[0] = 42; }");
    }

    #[test]
    fn lookup_discipline() {
        err(
            "_net_ _lookup_ unsigned a[] = {1,2,3};
             _kernel(1) void k(unsigned x, unsigned &o) { o = a[0]; }",
            "E0209",
        );
        err(
            "_net_ _lookup_ unsigned a[] = {1,2,3};
             _kernel(1) void k(unsigned x) { a[0] = x; }",
            "E0220",
        );
        err(
            "_net_ unsigned a[4];
             _kernel(1) void k(unsigned x, char &o) { o = ncl::lookup(a, x); }",
            "E0210",
        );
        ok("_net_ _lookup_ unsigned a[] = {1,2,3};
            _kernel(1) void k(unsigned x, char &o) { o = ncl::lookup(a, x); }");
    }

    #[test]
    fn lookup_rv_semantics() {
        let a = ok("_net_ _lookup_ ncl::rv<int,int> b[] = {{{1,10},1},{{11,20},2}};
                    _kernel(1) void k(int x, int &y, char &h) { h = ncl::lookup(b, x, y); }");
        let g = a.model.global("b").unwrap();
        assert_eq!(g.entries[0], LookupEntry::Range { lo: 1, hi: 10, value: 1 });
    }

    #[test]
    fn action_placement() {
        err("_net_ void f() { ncl::drop(); }", "E0204");
        err("_kernel(1) void k(int x) { ncl::drop(); }", "E0204");
        ok("_kernel(1) void k(int x) { if (x) return ncl::drop(); }");
    }

    #[test]
    fn kernel_rules() {
        err("_kernel(1) int k(int x) { return 1; }", "E0203");
        err("_kernel(1) void k(int x) { return 1; }", "E0203");
        err("_kernel(300) void k(int x) {}", "E0215");
        err("_kernel(1) void k(ncl::kv<int,int> x) {}", "E0216");
        err("_kernel(1) void k(int x) {} _net_ void f(int y) { k(1); }", "E0218");
    }

    #[test]
    fn pointer_restrictions() {
        err("_net_ void f(int *p, int &o) { o = *(p + 1); }", "E0211");
        err("_net_ int g[4]; _net_ void f(int &o) { o = (int)&g[0]; }", "E0211");
    }

    #[test]
    fn atomics_require_global_memory() {
        err(
            "_net_ void f(unsigned x, unsigned &o) { unsigned l; o = ncl::atomic_add(&l, x); }",
            "E0232",
        );
        ok("_net_ unsigned g[4];
            _net_ void f(unsigned x, unsigned &o) { o = ncl::atomic_add(&g[0], x); }");
        // Paper Fig. 7 style: address without explicit `&` also accepted.
        ok("_net_ unsigned g[4];
            _net_ void f(unsigned x, unsigned &o) { o = ncl::atomic_add(g[0], x); }");
    }

    #[test]
    fn recursion_detected() {
        err(
            "_net_ void f(int x); _net_ void g(int x) { f(1); } _net_ void f(int x) { g(1); }",
            "E0231", // prototype without body also reported
        );
        err("_net_ int f(int x) { return f(x); }", "E0217");
    }

    #[test]
    fn undefined_and_duplicates() {
        err("_net_ void f(int x) { y = 1; }", "E0200");
        err("_net_ void f(int x) { int x = 1; int q; { int q; } }", "E0225");
        err("_net_ int m; _net_ int m;", "E0205");
        err("_net_ void f() {} _net_ void f() {}", "E0205");
    }

    #[test]
    fn globals_rules() {
        err("_net_ int m[0];", "E0228");
        err("_net_ int m[4] = {1,2,3,4};", "E0229");
        err("int m[4];", "E0227");
        err("_net_ ncl::kv<int,int> m[4];", "E0214");
    }

    #[test]
    fn device_builtin_members() {
        let a = ok("_kernel(1) void k(unsigned &x) { x = device.id + msg.src; }");
        assert_eq!(a.model.kernels.len(), 1);
        err("_kernel(1) void k(unsigned &x) { x = device.port; }", "E0200");
    }

    #[test]
    fn auto_inference() {
        let a = ok(
            "_net_ void f(uint16_t b, uint16_t m, unsigned &o) { auto seen = b & m; o = seen; }",
        );
        let _ = a;
        err("_net_ void f() { auto x; }", "E0223");
    }

    #[test]
    fn allreduce_figure7_checks() {
        ok(r#"
#define NUM_SLOTS 2048
#define SLOT_SIZE 32
#define NUM_WORKERS 6
_net_ uint16_t Bitmap[2][NUM_SLOTS];
_net_ uint32_t Agg[SLOT_SIZE][NUM_SLOTS * 2];
_net_ uint8_t Count[NUM_SLOTS * 2];
_kernel(1) void allreduce( uint8_t ver, uint16_t bmp_idx,
                           uint16_t agg_idx, uint16_t mask,
                           uint32_t _spec(SLOT_SIZE) *v) {
  uint16_t bitmap;
  if (ver == 0) {
    bitmap = ncl::atomic_or(&Bitmap[0][bmp_idx], mask);
    ncl::atomic_and(&Bitmap[1][bmp_idx], ~mask);
  } else {
    ncl::atomic_and(&Bitmap[0][bmp_idx], ~mask);
    bitmap = ncl::atomic_or(&Bitmap[1][bmp_idx], mask);
  }
  if (bitmap == 0) {
    for (auto i = 0; i < SLOT_SIZE; ++i)
      Agg[i][agg_idx] = v[i];
    Count[agg_idx] = NUM_WORKERS - 1;
  } else {
    auto seen = bitmap & mask;
    for (auto i = 0; i < SLOT_SIZE; ++i)
      v[i] = ncl::atomic_cond_add_new(&Agg[i][agg_idx], !seen, v[i]);
    auto cnt = ncl::atomic_cond_dec(&Count[agg_idx], !seen);
    if (cnt == 0)
      return ncl::reflect();
    if (cnt == 1)
      return ncl::multicast(42);
  }
  return ncl::drop();
}
"#);
    }

    #[test]
    fn multi_location_kernel_spmd() {
        // §V-C: same kernel at two devices, branching on device.id.
        ok("_net_ _at(1,2) int m[42];
            _kernel(1) _at(1,2) void a(int x) { if (device.id == 1) { m[0] = 1; } else { m[1] = 2; } }");
    }

    #[test]
    fn managed_scalar_write() {
        ok("_managed_ unsigned thresh;
            _kernel(1) void k(unsigned x, unsigned &o) { o = thresh > x ? 1 : 0; }");
    }

    #[test]
    fn break_outside_loop() {
        err("_net_ void f() { break; }", "E0221");
        ok("_net_ void f(int &o) { for (int i = 0; i < 4; ++i) { if (i == 2) break; o = i; } }");
    }

    #[test]
    fn types_recorded_for_expressions() {
        let src = "_net_ void f(uint16_t a, uint16_t b, unsigned &o) { o = a + b; }";
        let (unit, _) = parse("t.ncl", src);
        let (a, d) = analyze(&unit);
        assert!(!d.has_errors());
        // a, b, a+b, o, and the assignment were typed.
        let types: Vec<Ty> = (0..unit.program.node_count).filter_map(|i| a.ty(NodeId(i))).collect();
        assert_eq!(types.len(), 5);
        assert!(types.contains(&Ty::I32)); // promoted add
    }

    /// Every node lowering reads is resolved here: globals by model index,
    /// callees, members, `sizeof` operands and local declarations — and a
    /// local or parameter named like a global is not the global.
    #[test]
    fn names_callees_members_and_locals_are_resolved() {
        let src = "_net_ unsigned g[4];
                   _net_ unsigned f(unsigned g) { return g; }
                   _kernel(1) void k(unsigned &o) {
                     unsigned a[2][3];
                     a[1][2] = sizeof(uint16_t);
                     o = f(g[0]) + ncl::min(a[1][2], msg.from);
                     { unsigned g = 1; o = g; }
                   }";
        let (unit, _) = parse("t.ncl", src);
        let a = ok(src);
        let all: Vec<&Resolution> =
            (0..unit.program.node_count).map(|i| a.resolution(NodeId(i))).collect();
        let count = |want: &Resolution| all.iter().filter(|r| **r == want).count();
        assert_eq!(count(&Resolution::Global(0)), 1, "only `g[0]` names the global");
        assert_eq!(count(&Resolution::NetFn(0)), 1);
        assert_eq!(count(&Resolution::Builtin(Builtin::Min)), 1);
        assert_eq!(count(&Resolution::Member(Member::MsgFrom)), 1);
        assert_eq!(count(&Resolution::SizeOf(Ty::U16)), 1);
        assert_eq!(count(&Resolution::Local { ty: Ty::U32, dims: vec![2, 3] }), 1);
        assert_eq!(count(&Resolution::Local { ty: Ty::U32, dims: vec![] }), 1);
    }
}
