//! Load-time compilation of a [`P4Program`] into flat, index-addressed form.
//!
//! The tree-walking interpreter in `interp.rs` re-resolves every field path,
//! action name, and register handle per packet, allocating `String`s and
//! probing `HashMap`s on the hot path. This module walks the program **once**
//! at switch construction and produces:
//!
//! * a [`SlotTable`] interning every canonical field/metadata path into a
//!   dense [`FieldSlot`] and every header instance into a [`HeaderId`],
//!   with deparse layouts resolved up front;
//! * postfix expression programs (`EOp`), folded into closure trees by
//!   the threaded lowering;
//! * flat statement op arrays (`COp`) with relative branch skips instead
//!   of nested statement trees;
//! * a compiled parser FSM (`CParser`) whose extracts are pre-flattened
//!   `(slot, width)` plans.
//!
//! The compiled form is the lowering front half: nothing executes it
//! directly — [`mod@crate::threaded`] lowers it once more into closure
//! arrays, and that is the production engine. It is semantically identical
//! to the interpreter, which stays selectable with
//! [`crate::Switch::set_engine`] as the differential-test oracle. Any entity the interpreter would only
//! discover to be missing at execution time (unknown action, table, parser
//! state, ...) lowers to a `COp::Fail`/`StateRef::Unknown` carrying the
//! interpreter's exact error message, so errors surface at the same moment
//! with the same text.

use std::collections::HashMap;
use std::sync::Arc;

use crate::eval::{canonical, instance_of};
use netcl_p4::ast::*;
use netcl_sema::builtins::{AtomicOp, HashKind};
use netcl_util::define_index;
use netcl_util::idx::{Idx, IndexVec};
use netcl_util::intern::{Interner, Symbol};

define_index!(FieldSlot, "fs");
define_index!(HeaderId, "hdr");

/// Dense slot assignment for every field/metadata path and header instance
/// a program can touch. Shared (via `Arc`) between the [`CompiledProgram`]
/// and every [`crate::Packet`] flowing through the switch.
///
/// Header-namespace and metadata-namespace paths are distinct slots even
/// when their canonical spelling collides (an action parameter `x` and a
/// header field `x` must not alias), so paths are interned under a
/// one-character namespace prefix.
#[derive(Debug, Default)]
pub struct SlotTable {
    /// `"h:<path>"` / `"m:<path>"` → [`FieldSlot`].
    paths: Interner,
    /// Header instance names (`ncl`, `args_c1`, ...).
    instances: Interner,
    /// Per-instance deparse/extract plan: `(slot, bits)` in wire order with
    /// stacks flattened. `None` = no `<name>_t` header type exists, which
    /// the interpreter reports as an unknown header if it ever deparses.
    layouts: IndexVec<HeaderId, Option<Vec<(FieldSlot, u32)>>>,
}

impl SlotTable {
    /// Number of field slots (the size of a packet's value store).
    pub fn n_slots(&self) -> usize {
        self.paths.len()
    }

    /// Number of header instances (the size of a packet's validity bitset).
    pub fn n_instances(&self) -> usize {
        self.instances.len()
    }

    /// Looks up a header-namespace path without interning.
    pub fn header_slot(&self, path: &str) -> Option<FieldSlot> {
        self.lookup('h', path)
    }

    /// Looks up a metadata-namespace path without interning.
    pub fn meta_slot(&self, path: &str) -> Option<FieldSlot> {
        self.lookup('m', path)
    }

    /// Looks up a header instance without interning.
    pub fn instance_id(&self, name: &str) -> Option<HeaderId> {
        self.instances.get(name).map(|s| HeaderId(s.0))
    }

    /// The name of an interned instance (`None` for dynamic ids a packet
    /// allocated beyond this table).
    pub fn instance_name(&self, id: HeaderId) -> Option<&str> {
        if id.index() < self.instances.len() {
            Some(self.instances.resolve(Symbol(id.0)))
        } else {
            None
        }
    }

    /// The deparse plan for an instance, if a header type defines one.
    pub fn layout(&self, id: HeaderId) -> Option<&[(FieldSlot, u32)]> {
        self.layouts.get(id).and_then(|o| o.as_deref())
    }

    fn lookup(&self, ns: char, path: &str) -> Option<FieldSlot> {
        self.paths.get(&format!("{ns}:{path}")).map(|s| FieldSlot(s.0))
    }

    fn intern_slot(&mut self, ns: char, path: &str) -> FieldSlot {
        FieldSlot(self.paths.intern(&format!("{ns}:{path}")).0)
    }

    fn intern_instance(&mut self, name: &str) -> HeaderId {
        let id = HeaderId(self.instances.intern(name).0);
        while self.layouts.len() <= id.index() {
            self.layouts.push(None);
        }
        id
    }
}

/// A `(start, len)` range into one of the flat pools (`eops`, `cops`,
/// `args`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// First element index.
    pub start: u32,
    /// Number of elements.
    pub len: u32,
}

/// Postfix expression ops over a conceptual `(value, width)` stack; the
/// threaded lowering folds each program into one closure tree.
#[derive(Clone, Copy, Debug)]
pub(crate) enum EOp {
    /// Push a literal `(value, width)`.
    Const(u64, u32),
    /// Push a slot's value with the path's declared width.
    Load(FieldSlot, u32),
    /// Bare-name load: metadata slot if bound (action parameter / local),
    /// header slot otherwise — the interpreter's namespace fallback.
    LoadBare {
        /// Metadata-namespace slot.
        meta: FieldSlot,
        /// Header-namespace slot.
        hdr: FieldSlot,
        /// Declared width.
        width: u32,
    },
    /// Push a header's validity bit (`$isValid`), width 1.
    LoadValid(HeaderId),
    /// Pop two, push the binary result (width/wrapping per `eval`).
    Bin(P4BinOp),
    /// Logical not (width 1).
    Not,
    /// Bitwise not at operand width.
    BitNot,
    /// Truncate to `bits`.
    Cast(u32),
    /// Bit slice `[hi:lo]`.
    Slice(u32, u32),
}

/// Where a statement writes its result.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Dest {
    /// No destination (missing `dst` or non-field lvalue — interpreter
    /// silently ignores).
    None,
    /// Header-namespace slot, masked to the path width.
    Header(FieldSlot, u32),
    /// Metadata-namespace slot (sets the presence bit), masked.
    Meta(FieldSlot, u32),
}

/// Resolved extern function for [`COp::ExternCall`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum ExternFn {
    /// The SplitMix64 `random` extern (switch-local RNG state).
    Random,
    /// `eval_intrinsic(target, name, args)` — index into
    /// [`CompiledProgram::externs`].
    Intrinsic(u32),
}

/// Flat statement ops over a [`Span`], with relative branch skips; the
/// threaded lowering resolves them to absolute successor pcs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum COp {
    /// Evaluate and store.
    Assign {
        /// Destination slot.
        dst: Dest,
        /// Right-hand side.
        expr: Span,
    },
    /// Invoke a compiled action with no arguments.
    CallAction(u32),
    /// Apply a table (hit result discarded).
    ApplyTable(u32),
    /// Execute a `RegisterAction` microprogram.
    ExecRegAction {
        /// Where the returned value goes.
        dst: Dest,
        /// Index into [`CompiledProgram::reg_actions`].
        ra: u32,
        /// Element index expression.
        index: Span,
    },
    /// Hash extern: concatenate args little-endian and hash.
    HashGet {
        /// Result destination.
        dst: Dest,
        /// Index into [`CompiledProgram::hashes`].
        hash: u32,
        /// Arg expressions (range into the `args` pool).
        args: Span,
    },
    /// Other extern call.
    ExternCall {
        /// Result destination.
        dst: Dest,
        /// Resolved function.
        func: ExternFn,
        /// Arg expressions.
        args: Span,
    },
    /// `if` on a value expression: when false, skip the next `else_skip`
    /// ops.
    BranchExpr {
        /// Condition.
        cond: Span,
        /// Relative skip when the condition is false.
        else_skip: u32,
    },
    /// `if (t.apply().hit / miss)`: applies the table (with side effects),
    /// then branches.
    BranchTable {
        /// Table to apply.
        table: u32,
        /// Branch taken on hit (`true`) or miss (`false`).
        want_hit: bool,
        /// Relative skip when not taken.
        else_skip: u32,
    },
    /// Unconditional relative skip (end of a then-block).
    Jump(u32),
    /// Mark a header valid.
    SetValid(HeaderId),
    /// Mark a header invalid.
    SetInvalid(HeaderId),
    /// Statically-unresolvable entity: raise the interpreter's exact error
    /// when (and only when) executed. Index into `fail_msgs`.
    Fail(u32),
}

/// A compiled action: parameter meta slots plus a flat body.
#[derive(Debug)]
pub(crate) struct CAction {
    /// `(meta slot, declared width)` per parameter, in order.
    pub params: Vec<(FieldSlot, u32)>,
    /// Body ops.
    pub body: Span,
}

/// A compiled table definition (keys + action scope). Entries live in
/// runtime state, shared **by name** across same-named definitions exactly
/// as the interpreter's global `HashMap<String, Vec<TableEntry>>` does.
#[derive(Debug)]
pub(crate) struct CTable {
    /// Index into the runtime entry stores.
    pub state: u32,
    /// Compiled key expressions and their match kinds.
    pub keys: Vec<(Span, MatchKind)>,
    /// Resolved default action (`None` for `NoAction` or unknown — the
    /// interpreter silently skips both).
    pub default_action: Option<u32>,
    /// The owning control's action scope, used to resolve the action names
    /// carried by runtime [`TableEntry`]s.
    pub action_ids: HashMap<String, u32>,
}

/// A compiled `RegisterAction` definition.
#[derive(Debug)]
pub(crate) struct CRegAction {
    /// Register state index.
    pub reg: u32,
    /// Element width from the owning control's register declaration.
    pub elem_bits: u32,
    /// The SALU microprogram.
    pub op: AtomicOp,
    /// Optional predicate.
    pub cond: Option<Span>,
    /// Operand expressions (range into the `args` pool).
    pub operands: Span,
}

/// A compiled hash extern.
#[derive(Debug)]
pub(crate) struct CHash {
    /// Algorithm.
    pub algo: HashKind,
    /// Output width.
    pub out_bits: u32,
}

/// A register's global identity: name + element count.
#[derive(Debug)]
pub(crate) struct CReg {
    /// Register name.
    pub name: String,
    /// Element count (last same-named definition wins, as with the
    /// interpreter's `HashMap::insert`).
    pub size: usize,
}

/// Initial entries for one table state (keyed by name).
#[derive(Debug)]
pub(crate) struct TableStateInit {
    /// Table name.
    pub name: String,
    /// `const entries` seed.
    pub entries: Vec<TableEntry>,
}

/// Parser state target.
#[derive(Clone, Copy, Debug)]
pub(crate) enum StateRef {
    /// Terminal accept.
    Accept,
    /// Terminal reject (the interpreter treats it like accept).
    Reject,
    /// Transition to a known state.
    State(u32),
    /// Unknown state name — fail with this message when reached.
    Unknown(u32),
}

/// Compiled extract: a known header's flattened plan, or a deferred error.
#[derive(Clone, Copy, Debug)]
pub(crate) enum CExtract {
    /// Extract this instance (plan in [`SlotTable::layout`]).
    Header(HeaderId),
    /// Unknown header type — fail when executed.
    Unknown(u32),
}

/// A compiled parser state.
#[derive(Debug)]
pub(crate) struct CState {
    /// Extractions, in order.
    pub extracts: Vec<CExtract>,
    /// Next-state logic.
    pub transition: CTransition,
}

/// Compiled transition.
#[derive(Debug)]
pub(crate) enum CTransition {
    /// To accept.
    Accept,
    /// To reject.
    Reject,
    /// Unconditional.
    Direct(StateRef),
    /// `select` on an expression.
    Select {
        /// Selector expression.
        selector: Span,
        /// `(value, target)` cases.
        cases: Vec<(u64, StateRef)>,
        /// Fallback target.
        default: StateRef,
    },
}

/// The compiled parser FSM.
#[derive(Debug)]
pub(crate) struct CParser {
    /// The `start` state.
    pub start: StateRef,
    /// States in definition order.
    pub states: Vec<CState>,
}

/// Everything the threaded lowering and the control plane need, produced
/// once per program.
#[derive(Debug)]
pub struct CompiledProgram {
    /// The slot table (shared with packets).
    pub slots: Arc<SlotTable>,
    pub(crate) eops: Vec<EOp>,
    pub(crate) cops: Vec<COp>,
    /// Expression-ref pool for arg lists and RA operands.
    pub(crate) args: Vec<Span>,
    pub(crate) actions: Vec<CAction>,
    pub(crate) tables: Vec<CTable>,
    pub(crate) reg_actions: Vec<CRegAction>,
    pub(crate) hashes: Vec<CHash>,
    /// `(target, name)` pairs for intrinsic extern calls.
    pub(crate) externs: Vec<(String, String)>,
    pub(crate) fail_msgs: Vec<String>,
    /// One op region per control, in program order.
    pub(crate) applies: Vec<Span>,
    pub(crate) parser: Option<CParser>,
    pub(crate) regs: Vec<CReg>,
    /// Register name → state index.
    pub(crate) reg_index: HashMap<String, u32>,
    pub(crate) table_states: Vec<TableStateInit>,
    /// Table name → state index.
    pub(crate) table_index: HashMap<String, u32>,
    /// Canonical path → declared width (locals first, headers overwrite) —
    /// also serves the interpreter's width function.
    pub(crate) field_widths: HashMap<String, u32>,
}

impl CompiledProgram {
    /// The deferred-error message for a `Fail` op.
    pub(crate) fn fail_msg(&self, id: u32) -> &str {
        &self.fail_msgs[id as usize]
    }
}

/// Per-control name scopes (the interpreter resolves all names against the
/// enclosing `ControlDef`).
#[derive(Default)]
struct Scope {
    actions: HashMap<String, u32>,
    tables: HashMap<String, u32>,
    /// `Ok(reg-action id)` or `Err(fail msg id)` when the definition names
    /// an unknown register.
    ras: HashMap<String, Result<u32, u32>>,
    hashes: HashMap<String, u32>,
}

struct Compiler<'p> {
    program: &'p P4Program,
    slots: SlotTable,
    eops: Vec<EOp>,
    cops: Vec<COp>,
    args: Vec<Span>,
    actions: Vec<CAction>,
    tables: Vec<CTable>,
    reg_actions: Vec<CRegAction>,
    hashes: Vec<CHash>,
    externs: Vec<(String, String)>,
    extern_index: HashMap<(String, String), u32>,
    fail_msgs: Vec<String>,
    fail_index: HashMap<String, u32>,
    applies: Vec<Span>,
    regs: Vec<CReg>,
    reg_index: HashMap<String, u32>,
    table_states: Vec<TableStateInit>,
    table_index: HashMap<String, u32>,
    field_widths: HashMap<String, u32>,
}

/// Compiles a program. Infallible: unresolvable references become deferred
/// `COp::Fail` ops matching the interpreter's lazy error behavior.
pub fn compile(program: &P4Program) -> CompiledProgram {
    let mut c = Compiler {
        program,
        slots: SlotTable::default(),
        eops: Vec::new(),
        cops: Vec::new(),
        args: Vec::new(),
        actions: Vec::new(),
        tables: Vec::new(),
        reg_actions: Vec::new(),
        hashes: Vec::new(),
        externs: Vec::new(),
        extern_index: HashMap::new(),
        fail_msgs: Vec::new(),
        fail_index: HashMap::new(),
        applies: Vec::new(),
        regs: Vec::new(),
        reg_index: HashMap::new(),
        table_states: Vec::new(),
        table_index: HashMap::new(),
        field_widths: HashMap::new(),
    };
    c.build_widths();
    c.build_layouts();
    for control in program.controls.iter() {
        c.compile_control(control);
    }
    let parser = program.parser.as_ref().map(|p| c.compile_parser(p));
    CompiledProgram {
        slots: Arc::new(c.slots),
        eops: c.eops,
        cops: c.cops,
        args: c.args,
        actions: c.actions,
        tables: c.tables,
        reg_actions: c.reg_actions,
        hashes: c.hashes,
        externs: c.externs,
        fail_msgs: c.fail_msgs,
        applies: c.applies,
        parser,
        regs: c.regs,
        reg_index: c.reg_index,
        table_states: c.table_states,
        table_index: c.table_index,
        field_widths: c.field_widths,
    }
}

impl Compiler<'_> {
    /// Mirrors `Switch::new`'s width map exactly: control locals first,
    /// header fields overwrite.
    fn build_widths(&mut self) {
        for c in self.program.controls.iter() {
            for (n, w) in &c.locals {
                self.field_widths.insert(n.clone(), *w);
            }
        }
        for h in &self.program.headers {
            let instance = h.name.strip_suffix("_t").unwrap_or(&h.name).to_string();
            for (f, w) in &h.fields {
                if h.stack > 1 {
                    for i in 0..h.stack {
                        self.field_widths.insert(format!("{instance}[{i}].{f}"), *w);
                    }
                } else {
                    self.field_widths.insert(format!("{instance}.{f}"), *w);
                }
            }
        }
    }

    /// Builds per-instance extract/deparse plans. Only `*_t` header types
    /// are reachable through the interpreter's `header_def` lookup; the
    /// first definition of a type wins (`Iterator::find`).
    fn build_layouts(&mut self) {
        for h in &self.program.headers {
            let Some(instance) = h.name.strip_suffix("_t") else { continue };
            let instance = instance.to_string();
            let id = self.slots.intern_instance(&instance);
            if self.slots.layouts[id].is_some() {
                continue;
            }
            let mut plan = Vec::new();
            for i in 0..h.stack {
                for (f, w) in &h.fields {
                    let path = if h.stack > 1 {
                        format!("{instance}[{i}].{f}")
                    } else {
                        format!("{instance}.{f}")
                    };
                    plan.push((self.slots.intern_slot('h', &path), *w));
                }
            }
            self.slots.layouts[id] = Some(plan);
        }
    }

    fn width_of(&self, path: &str) -> u32 {
        self.field_widths.get(path).copied().unwrap_or(32)
    }

    fn fail_id(&mut self, msg: String) -> u32 {
        if let Some(&i) = self.fail_index.get(&msg) {
            return i;
        }
        let i = self.fail_msgs.len() as u32;
        self.fail_msgs.push(msg.clone());
        self.fail_index.insert(msg, i);
        i
    }

    fn emit_fail(&mut self, msg: String) {
        let m = self.fail_id(msg);
        self.cops.push(COp::Fail(m));
    }

    fn extern_id(&mut self, target: &str, name: &str) -> u32 {
        let key = (target.to_string(), name.to_string());
        if let Some(&i) = self.extern_index.get(&key) {
            return i;
        }
        let i = self.externs.len() as u32;
        self.externs.push(key.clone());
        self.extern_index.insert(key, i);
        i
    }

    // ---- expressions ----------------------------------------------------

    fn compile_expr(&mut self, e: &Expr) -> Span {
        let start = self.eops.len() as u32;
        self.emit_expr(e);
        Span { start, len: self.eops.len() as u32 - start }
    }

    fn emit_expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(v, bits) => self.eops.push(EOp::Const(*v, *bits)),
            Expr::Bool(b) => self.eops.push(EOp::Const(*b as u64, 1)),
            Expr::Field(segs) => {
                if segs.last().map(|s| s.name.as_str()) == Some("$isValid") {
                    let inst = instance_of(segs);
                    let id = self.slots.intern_instance(&inst);
                    self.eops.push(EOp::LoadValid(id));
                    return;
                }
                let path = canonical(segs);
                let width = self.width_of(&path);
                match segs.first().map(|s| s.name.as_str()) {
                    Some("meta") => {
                        let s = self.slots.intern_slot('m', &path);
                        self.eops.push(EOp::Load(s, width));
                    }
                    Some("hdr") => {
                        let s = self.slots.intern_slot('h', &path);
                        self.eops.push(EOp::Load(s, width));
                    }
                    _ => {
                        let meta = self.slots.intern_slot('m', &path);
                        let hdr = self.slots.intern_slot('h', &path);
                        self.eops.push(EOp::LoadBare { meta, hdr, width });
                    }
                }
            }
            Expr::Bin(op, a, b) => {
                self.emit_expr(a);
                self.emit_expr(b);
                self.eops.push(EOp::Bin(*op));
            }
            Expr::Not(x) => {
                self.emit_expr(x);
                self.eops.push(EOp::Not);
            }
            Expr::BitNot(x) => {
                self.emit_expr(x);
                self.eops.push(EOp::BitNot);
            }
            Expr::Cast(bits, x) => {
                self.emit_expr(x);
                self.eops.push(EOp::Cast(*bits));
            }
            Expr::Slice(x, hi, lo) => {
                self.emit_expr(x);
                self.eops.push(EOp::Slice(*hi, *lo));
            }
            // Statement-level constructs reaching expression position fail
            // closed, as in the interpreter.
            Expr::TableHit(_) | Expr::TableMiss(_) => self.eops.push(EOp::Const(0, 1)),
        }
    }

    fn compile_dest(&mut self, dst: &Expr) -> Dest {
        let Expr::Field(segs) = dst else { return Dest::None };
        let path = canonical(segs);
        let w = self.width_of(&path);
        if segs.first().map(|s| s.name.as_str()) == Some("meta") {
            Dest::Meta(self.slots.intern_slot('m', &path), w)
        } else {
            Dest::Header(self.slots.intern_slot('h', &path), w)
        }
    }

    fn compile_args(&mut self, args: &[Expr]) -> Span {
        let spans: Vec<Span> = args.iter().map(|a| self.compile_expr(a)).collect();
        let start = self.args.len() as u32;
        self.args.extend(spans);
        Span { start, len: self.args.len() as u32 - start }
    }

    // ---- controls -------------------------------------------------------

    fn compile_control(&mut self, c: &ControlDef) {
        // Global register state: last same-named definition wins, matching
        // the interpreter's `HashMap::insert` ordering.
        for r in &c.registers {
            match self.reg_index.get(&r.name) {
                Some(&i) => self.regs[i as usize].size = r.size as usize,
                None => {
                    let i = self.regs.len() as u32;
                    self.regs.push(CReg { name: r.name.clone(), size: r.size as usize });
                    self.reg_index.insert(r.name.clone(), i);
                }
            }
        }

        let mut scope = Scope::default();

        for h in &c.hashes {
            if scope.hashes.contains_key(&h.name) {
                continue;
            }
            let id = self.hashes.len() as u32;
            self.hashes.push(CHash { algo: h.algo, out_bits: h.out_bits });
            scope.hashes.insert(h.name.clone(), id);
        }

        for ra in &c.register_actions {
            if scope.ras.contains_key(&ra.name) {
                continue;
            }
            let entry = match c.register(&ra.register) {
                None => Err(self.fail_id(format!("register `{}`", ra.register))),
                Some(reg) => {
                    let elem_bits = reg.elem_bits;
                    let cond = ra.cond.as_ref().map(|e| self.compile_expr(e));
                    let operands = self.compile_args(&ra.operands);
                    let gid = self.reg_index[&ra.register];
                    let id = self.reg_actions.len() as u32;
                    self.reg_actions.push(CRegAction {
                        reg: gid,
                        elem_bits,
                        op: ra.op,
                        cond,
                        operands,
                    });
                    Ok(id)
                }
            };
            scope.ras.insert(ra.name.clone(), entry);
        }

        // Pre-assign action ids (bodies may reference tables and vice
        // versa); compile bodies once the scope is complete.
        let mut bodies: Vec<(u32, &ActionDef)> = Vec::new();
        for a in &c.actions {
            let id = self.actions.len() as u32;
            let params: Vec<(FieldSlot, u32)> =
                a.params.iter().map(|(n, w)| (self.slots.intern_slot('m', n), *w)).collect();
            self.actions.push(CAction { params, body: Span::default() });
            bodies.push((id, a));
            scope.actions.entry(a.name.clone()).or_insert(id);
        }

        for t in &c.tables {
            let state = match self.table_index.get(&t.name) {
                // Last same-named definition seeds the shared entry store.
                Some(&i) => {
                    self.table_states[i as usize].entries = t.entries.clone();
                    i
                }
                None => {
                    let i = self.table_states.len() as u32;
                    self.table_states
                        .push(TableStateInit { name: t.name.clone(), entries: t.entries.clone() });
                    self.table_index.insert(t.name.clone(), i);
                    i
                }
            };
            let keys: Vec<(Span, MatchKind)> =
                t.keys.iter().map(|(e, mk)| (self.compile_expr(e), *mk)).collect();
            let default_action = if t.default_action != "NoAction" {
                scope.actions.get(&t.default_action).copied()
            } else {
                None
            };
            let id = self.tables.len() as u32;
            self.tables.push(CTable {
                state,
                keys,
                default_action,
                action_ids: scope.actions.clone(),
            });
            scope.tables.entry(t.name.clone()).or_insert(id);
        }

        for (id, a) in bodies {
            let body = self.compile_region(&a.body, &scope);
            self.actions[id as usize].body = body;
        }

        let apply = self.compile_region(&c.apply, &scope);
        self.applies.push(apply);
    }

    fn compile_region(&mut self, stmts: &[Stmt], scope: &Scope) -> Span {
        let start = self.cops.len() as u32;
        self.compile_stmts(stmts, scope);
        Span { start, len: self.cops.len() as u32 - start }
    }

    fn compile_stmts(&mut self, stmts: &[Stmt], scope: &Scope) {
        for s in stmts {
            self.compile_stmt(s, scope);
        }
    }

    fn patch_skip(&mut self, at: usize, skip: u32) {
        match &mut self.cops[at] {
            COp::BranchExpr { else_skip, .. } | COp::BranchTable { else_skip, .. } => {
                *else_skip = skip
            }
            COp::Jump(n) => *n = skip,
            other => unreachable!("patching non-branch op {other:?}"),
        }
    }

    fn compile_stmt(&mut self, s: &Stmt, scope: &Scope) {
        match s {
            Stmt::Assign(dst, rhs) => {
                let expr = self.compile_expr(rhs);
                let dst = self.compile_dest(dst);
                self.cops.push(COp::Assign { dst, expr });
            }
            Stmt::CallAction(name) => match scope.actions.get(name) {
                Some(&id) => self.cops.push(COp::CallAction(id)),
                None => self.emit_fail(format!("action `{name}`")),
            },
            Stmt::ApplyTable(name) => match scope.tables.get(name) {
                Some(&id) => self.cops.push(COp::ApplyTable(id)),
                None => self.emit_fail(format!("table `{name}`")),
            },
            Stmt::ExecuteRegisterAction { dst, ra, index } => match scope.ras.get(ra) {
                None => self.emit_fail(format!("RegisterAction `{ra}`")),
                Some(&Err(m)) => self.cops.push(COp::Fail(m)),
                Some(&Ok(rid)) => {
                    let index = self.compile_expr(index);
                    let dst = match dst {
                        Some(e) => self.compile_dest(e),
                        None => Dest::None,
                    };
                    self.cops.push(COp::ExecRegAction { dst, ra: rid, index });
                }
            },
            Stmt::HashGet { dst, hash, args } => match scope.hashes.get(hash) {
                None => self.emit_fail(format!("hash `{hash}`")),
                Some(&h) => {
                    let args = self.compile_args(args);
                    let dst = self.compile_dest(dst);
                    self.cops.push(COp::HashGet { dst, hash: h, args });
                }
            },
            Stmt::If { cond, then, els } => {
                let bpos = match cond {
                    Expr::TableHit(t) | Expr::TableMiss(t) => match scope.tables.get(t) {
                        None => {
                            self.emit_fail(format!("table `{t}`"));
                            return;
                        }
                        Some(&tid) => {
                            let want_hit = matches!(cond, Expr::TableHit(_));
                            self.cops.push(COp::BranchTable { table: tid, want_hit, else_skip: 0 });
                            self.cops.len() - 1
                        }
                    },
                    other => {
                        let cond = self.compile_expr(other);
                        self.cops.push(COp::BranchExpr { cond, else_skip: 0 });
                        self.cops.len() - 1
                    }
                };
                self.compile_stmts(then, scope);
                if els.is_empty() {
                    let skip = (self.cops.len() - bpos - 1) as u32;
                    self.patch_skip(bpos, skip);
                } else {
                    self.cops.push(COp::Jump(0));
                    let jpos = self.cops.len() - 1;
                    self.patch_skip(bpos, (jpos - bpos) as u32);
                    self.compile_stmts(els, scope);
                    let skip = (self.cops.len() - jpos - 1) as u32;
                    self.patch_skip(jpos, skip);
                }
            }
            Stmt::ExternCall { dst, func, args } => {
                let args = self.compile_args(args);
                let func = if func == "random" {
                    ExternFn::Random
                } else {
                    let (t, n) = match func.split_once('_') {
                        Some((t, n)) => (t, n),
                        None => ("", func.as_str()),
                    };
                    ExternFn::Intrinsic(self.extern_id(t, n))
                };
                let dst = match dst {
                    Some(e) => self.compile_dest(e),
                    None => Dest::None,
                };
                self.cops.push(COp::ExternCall { dst, func, args });
            }
            Stmt::SetValid(e) => {
                if let Expr::Field(segs) = e {
                    let inst = instance_of(segs);
                    let id = self.slots.intern_instance(&inst);
                    self.cops.push(COp::SetValid(id));
                }
            }
            Stmt::SetInvalid(e) => {
                if let Expr::Field(segs) = e {
                    let inst = instance_of(segs);
                    let id = self.slots.intern_instance(&inst);
                    self.cops.push(COp::SetInvalid(id));
                }
            }
            // The interpreter treats `exit` as a no-op.
            Stmt::Exit => {}
        }
    }

    // ---- parser ---------------------------------------------------------

    fn compile_parser(&mut self, p: &ParserDef) -> CParser {
        // First definition of a name wins (`Iterator::find`).
        let mut index: HashMap<&str, u32> = HashMap::new();
        for (i, s) in p.states.iter().enumerate() {
            index.entry(s.name.as_str()).or_insert(i as u32);
        }
        let index: HashMap<String, u32> =
            index.into_iter().map(|(k, v)| (k.to_string(), v)).collect();

        let mut states = Vec::with_capacity(p.states.len());
        for s in &p.states {
            let mut extracts = Vec::with_capacity(s.extracts.len());
            for ex in &s.extracts {
                let instance = ex.strip_prefix("hdr.").unwrap_or(ex).to_string();
                let id = self.slots.intern_instance(&instance);
                if self.slots.layouts[id].is_some() {
                    extracts.push(CExtract::Header(id));
                } else {
                    let m = self.fail_id(format!("header `{instance}`"));
                    extracts.push(CExtract::Unknown(m));
                }
            }
            let transition = match &s.transition {
                Transition::Accept => CTransition::Accept,
                Transition::Reject => CTransition::Reject,
                Transition::Direct(t) => CTransition::Direct(self.state_ref(t, &index)),
                Transition::Select { selector, cases, default } => CTransition::Select {
                    selector: self.compile_expr(selector),
                    cases: cases.iter().map(|(v, t)| (*v, self.state_ref(t, &index))).collect(),
                    default: self.state_ref(default, &index),
                },
            };
            states.push(CState { extracts, transition });
        }
        CParser { start: self.state_ref("start", &index), states }
    }

    fn state_ref(&mut self, name: &str, index: &HashMap<String, u32>) -> StateRef {
        match name {
            "accept" => StateRef::Accept,
            "reject" => StateRef::Reject,
            _ => match index.get(name) {
                Some(&i) => StateRef::State(i),
                None => StateRef::Unknown(self.fail_id(format!("parser state `{name}`"))),
            },
        }
    }
}
