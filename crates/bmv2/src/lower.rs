//! The one lowering: [`P4Program`] → [`Layout`] + [`ThreadedProgram`], in
//! one walk, once per loaded program (`loaded.rs`, DESIGN.md §10).
//!
//! The walk goes control by control — registers, actions' parameters,
//! tables, action bodies, `apply` — then the parser. Expressions become
//! [`Operand`]s directly (width computed on the way back up the tree);
//! statements become symbolic [`Lowered`] items, the only representation
//! between the AST and the closures, which `assemble.rs` then fuses run
//! by run. A SALU site joins the lane run in front of it as it is emitted.
//!
//! Invariants:
//! - Names resolve as the interpreter resolves them — against the
//!   enclosing `ControlDef`, first definition wins — and whatever it would
//!   only find missing when a packet gets there (action, table,
//!   `RegisterAction`, register, hash, parser state, header) lowers to an
//!   op raising its exact message at that moment, after the same counter
//!   increments. The load itself never fails.
//! - A branch names its target by [`Label`], bound where the target's
//!   first item will be emitted; `head[i]` is set as item `i` is emitted
//!   iff it starts a region, follows a control item or carries a bound
//!   label. Nothing scans the items afterwards to find either.
//! - Static widths: an expression's width, and so every wrapping mask, is
//!   known here; each arm mirrors its counterpart in `eval.rs`, sharing
//!   [`bin_value`] and [`slice_shape`] where the oracle has edge cases.

use std::collections::HashMap;
use std::sync::Arc;

use crate::assemble::{assemble, Label, Lowered};
use crate::eval::{bin_value, mask_of, slice_shape};
use crate::layout::{HeaderId, Layout};
use crate::switch::SwitchError;
use crate::threaded::{
    apply_table, call_action, Action, Dest, Extract, HeaderPlan, Lane, Next, Operand, Parser, Salu,
    SaluRun, State, Table, ThreadedProgram, Trans,
};
use netcl_ir::interp::eval_intrinsic;
use netcl_p4::ast::*;
use netcl_util::hash::splitmix64;

/// What a control's statements resolve names against.
struct Scope<'p> {
    control: &'p ControlDef,
    /// Action name → id; shared with the control's tables and, through
    /// the layout, with update validation.
    actions: Arc<HashMap<String, u32>>,
    /// Id of the control's first table; the rest follow in order.
    table_base: u32,
}

impl Scope<'_> {
    fn table(&self, name: &str) -> Option<u32> {
        let i = self.control.tables.iter().position(|t| t.name == name)?;
        Some(self.table_base + i as u32)
    }
}

struct Lowerer {
    lay: Layout,
    items: Vec<Lowered>,
    /// `head[i]`: item `i` may be entered from elsewhere (module docs). One
    /// longer than `items`: the last entry is the next item's.
    head: Vec<bool>,
    /// Label → the item index it was bound at.
    labels: Vec<usize>,
    /// Bodies and `applies` are item ranges until [`Lowerer::finish`].
    actions: Vec<Action>,
    tables: Vec<Table>,
    applies: Vec<(usize, usize)>,
}

/// Lowers a program. Infallible (module docs).
pub(crate) fn lower(program: &P4Program) -> (Layout, ThreadedProgram) {
    let mut lw = Lowerer::new(program);
    for c in program.controls.iter() {
        lw.control(c);
    }
    let parser = program.parser.as_ref().map(|p| lw.parser(p));
    lw.finish(parser)
}

// ---- expressions ----------------------------------------------------------

/// Applies a pure unary `f` over an operand, folding constants and fusing
/// slot loads into the new closure (no nested indirect call for leaves).
fn fuse1(a: Operand, f: impl Fn(u64) -> u64 + Send + Sync + 'static) -> Operand {
    match a {
        Operand::Const(k) => Operand::Const(f(k)),
        Operand::Dyn(g) => Operand::Dyn(Box::new(move |p| f(g(p)))),
        // Leaf reads inline through the (always-inlined) `read` match —
        // no nested indirect call.
        a => Operand::Dyn(Box::new(move |p| f(a.read(p)))),
    }
}

/// Applies a pure binary `f`, folding constants and fusing slot-load
/// leaves flat into one closure. Each caller monomorphizes `f`, so the
/// leaf reads compile to direct loads.
fn fuse2(a: Operand, b: Operand, f: impl Fn(u64, u64) -> u64 + Send + Sync + 'static) -> Operand {
    match (a, b) {
        (Operand::Const(x), Operand::Const(y)) => Operand::Const(f(x, y)),
        (Operand::Slot(s), Operand::Slot(t)) => {
            Operand::Dyn(Box::new(move |p| f(p.value(s), p.value(t))))
        }
        (Operand::Slot(s), Operand::Const(k)) => Operand::Dyn(Box::new(move |p| f(p.value(s), k))),
        (Operand::Const(k), Operand::Slot(t)) => Operand::Dyn(Box::new(move |p| f(k, p.value(t)))),
        // Remaining shapes (bare loads, mixed leaves, composites) fuse
        // through the inlined `read` match — at most one indirect call
        // per already-composite side, never one per leaf.
        (a, b) => Operand::Dyn(Box::new(move |p| f(a.read(p), b.read(p)))),
    }
}

/// Lowers one binary node. The result width and mask come from the static
/// operand widths; each arm mirrors [`bin_value`] exactly (the cold arms
/// delegate to it so the two can never drift). Hot arms fold constants at
/// build time — sound because they are total (no panicking edge cases).
fn lower_bin(op: P4BinOp, a: Operand, wa: u32, b: Operand, wb: u32) -> (Operand, u32) {
    let w = wa.max(wb);
    let m = mask_of(w);
    match op {
        P4BinOp::Add => (fuse2(a, b, move |x, y| x.wrapping_add(y) & m), w),
        P4BinOp::Sub => (fuse2(a, b, move |x, y| x.wrapping_sub(y) & m), w),
        P4BinOp::And => (fuse2(a, b, |x, y| x & y), w),
        P4BinOp::Or => (fuse2(a, b, |x, y| x | y), w),
        P4BinOp::Xor => (fuse2(a, b, move |x, y| (x ^ y) & m), w),
        P4BinOp::Eq => match (a, b) {
            (Operand::Slot(s), Operand::Const(k)) | (Operand::Const(k), Operand::Slot(s)) => {
                (Operand::EqK(s, k), 1)
            }
            (Operand::Slot(s), Operand::Device) | (Operand::Device, Operand::Slot(s)) => {
                (Operand::EqDevice(s), 1)
            }
            (a, b) => (fuse2(a, b, |x, y| (x == y) as u64), 1),
        },
        P4BinOp::Ne => (fuse2(a, b, |x, y| (x != y) as u64), 1),
        P4BinOp::Lt => (fuse2(a, b, |x, y| (x < y) as u64), 1),
        P4BinOp::Le => (fuse2(a, b, |x, y| (x <= y) as u64), 1),
        P4BinOp::Gt => (fuse2(a, b, |x, y| (x > y) as u64), 1),
        P4BinOp::Ge => (fuse2(a, b, |x, y| (x >= y) as u64), 1),
        P4BinOp::SatAdd => (fuse2(a, b, move |x, y| x.saturating_add(y).min(m)), w),
        P4BinOp::SatSub => (fuse2(a, b, |x, y| x.saturating_sub(y)), w),
        // Mul, shifts, and the logical ops are rare in generated code:
        // share `bin_value` rather than duplicating its edge cases (and
        // skip const folding — `bin_value` owns those semantics).
        other => {
            let w = bin_value(other, 0, wa, 0, wb).1;
            (Operand::Dyn(Box::new(move |p| bin_value(other, a.read(p), wa, b.read(p), wb).0)), w)
        }
    }
}

impl Lowerer {
    /// A lowerer whose vectors are sized for `program` up front: loading
    /// allocates each once rather than as it grows.
    fn new(program: &P4Program) -> Lowerer {
        let controls = program.controls.iter();
        let bodies = controls.clone().flat_map(|c| c.actions.iter().map(|a| &a.body[..]));
        let (items, labels) = bodies
            .chain(controls.clone().map(|c| &c.apply[..]))
            .map(emitted)
            .fold((0, 0), |(i, l), (ni, nl)| (i + ni, l + nl));
        let mut head = Vec::with_capacity(items + 1);
        head.push(true);
        Lowerer {
            lay: Layout::new(program),
            items: Vec::with_capacity(items),
            head,
            labels: Vec::with_capacity(labels),
            actions: Vec::with_capacity(controls.clone().map(|c| c.actions.len()).sum()),
            tables: Vec::with_capacity(controls.clone().map(|c| c.tables.len()).sum()),
            applies: Vec::with_capacity(controls.len()),
        }
    }

    /// Lowers an expression to its operand and static result width. Leaf
    /// loads and constants stay symbolic; interior nodes become closures
    /// with leaves fused flat.
    fn operand(&mut self, e: &Expr) -> (Operand, u32) {
        match e {
            Expr::Const(v, bits) => (Operand::Const(*v), *bits),
            // Read per packet, never folded: one lowering serves every
            // device its program is placed at (`loaded.rs`).
            Expr::Device => (Operand::Device, 16),
            Expr::Bool(b) => (Operand::Const(*b as u64), 1),
            Expr::Field(p) => {
                if p.is_validity() {
                    let id = self.lay.slots_mut().intern_instance(p.instance());
                    return (Operand::Dyn(Box::new(move |p| p.is_valid_id(id) as u64)), 1);
                }
                let path = p.canonical();
                let width = self.lay.width_of(path);
                let slots = self.lay.slots_mut();
                let load = match p.ns() {
                    Ns::Meta => Operand::Slot(slots.intern_slot('m', path)),
                    Ns::Hdr => Operand::Slot(slots.intern_slot('h', path)),
                    Ns::Bare => {
                        Operand::Bare(slots.intern_slot('m', path), slots.intern_slot('h', path))
                    }
                };
                (load, width)
            }
            Expr::Bin(op, a, b) => {
                let (a, wa) = self.operand(a);
                let (b, wb) = self.operand(b);
                lower_bin(*op, a, wa, b, wb)
            }
            Expr::Not(x) => {
                let not = match self.operand(x).0 {
                    Operand::Slot(s) => Operand::NotSlot(s),
                    Operand::Bare(m, h) => Operand::NotBare(m, h),
                    // `!!x` normalizes to 0/1 — exactly `x != 0`.
                    Operand::NotSlot(s) => fuse1(Operand::Slot(s), |x| (x != 0) as u64),
                    Operand::NotBare(m, h) => fuse1(Operand::Bare(m, h), |x| (x != 0) as u64),
                    a => fuse1(a, |x| (x == 0) as u64),
                };
                (not, 1)
            }
            Expr::BitNot(x) => {
                let (a, w) = self.operand(x);
                let m = mask_of(w);
                (fuse1(a, move |x| !x & m), w)
            }
            Expr::Cast(bits, x) => {
                // Of a comparison or `!`, the value is 0 or 1 on both
                // engines: the cast is the expression itself.
                use P4BinOp::{Eq, Ge, Gt, Le, Lt, Ne};
                let boolean =
                    matches!(**x, Expr::Not(_) | Expr::Bin(Eq | Ne | Lt | Le | Gt | Ge, ..));
                let m = mask_of(*bits);
                let cast = match self.operand(x).0 {
                    a if boolean && *bits >= 1 => a,
                    Operand::Slot(s) if m == u64::MAX => Operand::Slot(s),
                    Operand::Slot(s) => Operand::Masked(s, m),
                    Operand::Masked(s, n) => Operand::Masked(s, m & n),
                    a => fuse1(a, move |x| x & m),
                };
                (cast, *bits)
            }
            Expr::Slice(x, hi, lo) => {
                let a = self.operand(x).0;
                match slice_shape(*hi, *lo) {
                    Some((shift, width)) => {
                        let m = mask_of(width);
                        (fuse1(a, move |x| (x >> shift) & m), width)
                    }
                    None => (Operand::Const(0), 1),
                }
            }
            // Statement-level constructs reaching expression position fail
            // closed, as in the interpreter.
            Expr::TableHit(_) | Expr::TableMiss(_) => (Operand::Const(0), 1),
        }
    }

    fn dest(&mut self, dst: &Expr) -> Dest {
        let Expr::Field(p) = dst else { return Dest::None };
        let path = p.canonical();
        let m = mask_of(self.lay.width_of(path));
        if p.ns() == Ns::Meta {
            Dest::Meta(self.lay.slots_mut().intern_slot('m', path), m)
        } else {
            Dest::Header(self.lay.slots_mut().intern_slot('h', path), m)
        }
    }

    fn opt_dest(&mut self, dst: &Option<Expr>) -> Dest {
        dst.as_ref().map_or(Dest::None, |e| self.dest(e))
    }

    // ---- statements -------------------------------------------------------

    fn emit(&mut self, item: Lowered) {
        // The dispatch loop re-enters after a control item.
        self.head.push(!item.fusable());
        self.items.push(item);
    }

    /// No run extends across the next item emitted.
    fn cut(&mut self) {
        let next = self.items.len();
        self.head[next] = true;
    }

    /// A deferred failure: raises `msg` when (and only when) executed.
    fn emit_fail(&mut self, msg: String) {
        self.emit(Lowered::Fail(Box::new(move |_, _, _| Err(SwitchError::Unknown(msg.clone())))));
    }

    fn label(&mut self) -> Label {
        self.labels.push(usize::MAX);
        self.labels.len() - 1
    }

    /// Binds `l` to the next item emitted.
    fn bind(&mut self, l: Label) {
        self.labels[l] = self.items.len();
        self.cut();
    }

    /// Lowers one region (an action body or a control's `apply`) and
    /// returns its item range; no run crosses either edge.
    fn region(&mut self, stmts: &[Stmt], sc: &Scope) -> (usize, usize) {
        self.cut();
        let start = self.items.len();
        self.stmts(stmts, sc);
        self.cut();
        (start, self.items.len())
    }

    fn stmts(&mut self, stmts: &[Stmt], sc: &Scope) {
        for s in stmts {
            self.stmt(s, sc);
        }
    }

    fn stmt(&mut self, s: &Stmt, sc: &Scope) {
        match s {
            Stmt::Assign(dst, rhs) => {
                let src = self.operand(rhs).0;
                let d = self.dest(dst);
                self.emit(Lowered::Move(d, src));
            }
            Stmt::CallAction(name) => match sc.actions.get(name) {
                Some(&a) => {
                    self.emit(Lowered::Lin(Box::new(move |tp, pkt, st| {
                        call_action(tp, a, 0, 0, pkt, st)
                    })));
                }
                None => self.emit_fail(format!("action `{name}`")),
            },
            Stmt::ApplyTable(name) => match sc.table(name) {
                Some(t) => self.emit(Lowered::Lin(Box::new(move |tp, pkt, st| {
                    apply_table(tp, t, pkt, st)?;
                    Ok(())
                }))),
                None => self.emit_fail(format!("table `{name}`")),
            },
            Stmt::ExecuteRegisterAction { dst, ra, index } => self.salu_site(dst, ra, index, sc),
            Stmt::HashGet { dst, hash, args } => {
                let Some(h) = sc.control.hashes.iter().find(|h| h.name == *hash) else {
                    return self.emit_fail(format!("hash `{hash}`"));
                };
                let (algo, out_bits) = (h.algo, h.out_bits.min(64) as u8);
                // Arg widths are static: precompute each arg's mask and its
                // little-endian bit offset in the concatenated key.
                let mut key_bits = 0u32;
                let parts: Box<[(Operand, u64, u32)]> = args
                    .iter()
                    .map(|a| {
                        let (f, w) = self.operand(a);
                        let part = (f, mask_of(w), key_bits.min(63));
                        key_bits += w;
                        part
                    })
                    .collect();
                let key_bytes = key_bits.div_ceil(8).max(1);
                let d = self.dest(dst);
                self.emit(Lowered::Lin(Box::new(move |_, pkt, _| {
                    let mut key = 0u64;
                    for (f, m, sh) in parts.iter() {
                        key |= (f.read(pkt) & m) << sh;
                    }
                    d.store(pkt, algo.compute(key, key_bytes, out_bits));
                    Ok(())
                })));
            }
            Stmt::If { cond, then, els } => {
                let not_taken = self.label();
                match cond {
                    Expr::TableHit(t) | Expr::TableMiss(t) => match sc.table(t) {
                        Some(table) => {
                            let want_hit = matches!(cond, Expr::TableHit(_));
                            self.emit(Lowered::BrTable { table, want_hit, not_taken });
                        }
                        // Neither arm can run: the apply fails first.
                        None => return self.emit_fail(format!("table `{t}`")),
                    },
                    other => {
                        let cond = self.operand(other).0;
                        self.emit(Lowered::Br { cond, not_taken });
                    }
                }
                self.stmts(then, sc);
                if !els.is_empty() {
                    let join = self.label();
                    self.emit(Lowered::Jmp(join));
                    self.bind(not_taken);
                    self.stmts(els, sc);
                    self.bind(join);
                } else {
                    self.bind(not_taken);
                }
            }
            Stmt::ExternCall { dst, func, args } => {
                let args: Box<[Operand]> = args.iter().map(|a| self.operand(a).0).collect();
                let d = self.opt_dest(dst);
                self.emit(Lowered::Lin(if func == "random" {
                    Box::new(move |_, pkt, st| {
                        st.counters.extern_calls += 1;
                        // Args are pure loads; evaluate for parity, discard.
                        for f in args.iter() {
                            let _ = f.read(pkt);
                        }
                        // The IR interpreter's RNG.
                        d.store(pkt, splitmix64(&mut st.rng));
                        Ok(())
                    })
                } else {
                    let (target, name) = func.split_once('_').unwrap_or(("", func.as_str()));
                    let (target, name) = (target.to_string(), name.to_string());
                    Box::new(move |_, pkt, st| {
                        st.counters.extern_calls += 1;
                        let vbase = st.scratch.len();
                        for f in args.iter() {
                            st.scratch.push(f.read(pkt));
                        }
                        let v = eval_intrinsic(&target, &name, &st.scratch[vbase..]);
                        st.scratch.truncate(vbase);
                        d.store(pkt, v);
                        Ok(())
                    })
                }));
            }
            Stmt::SetValid(e) | Stmt::SetInvalid(e) => {
                if let Expr::Field(p) = e {
                    let h = self.lay.slots_mut().intern_instance(p.instance());
                    let valid = matches!(s, Stmt::SetValid(_));
                    self.emit(Lowered::Lin(Box::new(move |_, pkt, _| {
                        pkt.set_valid_id(h, valid);
                        Ok(())
                    })));
                }
            }
            // The interpreter treats `exit` as a no-op.
            Stmt::Exit => {}
        }
    }

    /// `dst = ra.execute(index)`. The interpreter counts the execution
    /// before it resolves the `RegisterAction` or its register, so the two
    /// deferred failures count it too. A resolved site becomes a lane
    /// ([`Lowerer::emit_site`]).
    fn salu_site(&mut self, dst: &Option<Expr>, ra: &str, index: &Expr, sc: &Scope) {
        let def = sc.control.register_action(ra);
        let reg = def.and_then(|d| sc.control.register(&d.register));
        let (Some(def), Some(reg)) = (def, reg) else {
            let msg = match def {
                None => format!("RegisterAction `{ra}`"),
                Some(d) => format!("register `{}`", d.register),
            };
            return self.emit(Lowered::Fail(Box::new(move |_, _, st| {
                st.counters.reg_action_execs += 1;
                Err(SwitchError::Unknown(msg.clone()))
            })));
        };
        let bits = reg.elem_bits;
        let idx = self.operand(index).0;
        let cond = def.cond.as_ref().map_or(Operand::Const(1), |c| self.operand(c).0);
        // Every operand is lowered, for the slots it interns; no
        // `AtomicRmw` reads past the second.
        let mut args = [Operand::Const(0), Operand::Const(0)];
        for (k, o) in def.operands.iter().enumerate() {
            let a = self.operand(o).0;
            if let Some(slot) = args.get_mut(k) {
                *slot = a;
            }
        }
        let salu = Salu {
            op: def.op,
            mask: mask_of(bits),
            sty: netcl_sema::Ty::Int { bits: (bits as u8).clamp(8, 64), signed: false },
            cond: def.cond.is_some(),
            args: def.operands.len().min(2),
        };
        let (reg, d) = (self.lay.reg_index[&def.register] as usize, self.opt_dest(dst));
        self.emit_site(
            salu,
            idx,
            Lane { pre: (Dest::None, Operand::Const(0)), reg, cond, args, d },
        );
    }

    /// Emits a SALU site as a lane of the run right in front of it — past
    /// at most one move, which becomes the lane's prefix — when neither the
    /// site nor that move is entered from elsewhere and the run takes it
    /// ([`SaluRun::takes`]); as a run of its own otherwise.
    fn emit_site(&mut self, salu: Salu, idx: Operand, mut lane: Lane) {
        let n = self.items.len();
        let pre = match self.items.last() {
            Some(Lowered::Move(d, _)) if !self.head[n - 1] => Some(*d),
            _ => None,
        };
        let at = n.wrapping_sub(1 + pre.is_some() as usize);
        let joins = !self.head[n]
            && matches!(self.items.get(at), Some(Lowered::Run(r)) if r.takes(salu, &idx, pre));
        if !joins {
            let head = Box::new([]);
            return self.emit(Lowered::Run(SaluRun { salu, idx, head, lanes: vec![lane] }));
        }
        if pre.is_some() {
            let Some(Lowered::Move(d, o)) = self.items.pop() else { unreachable!("checked above") };
            self.head.pop();
            lane.pre = (d, o);
        }
        let Some(Lowered::Run(run)) = self.items.last_mut() else { unreachable!("checked above") };
        run.lanes.push(lane);
    }

    // ---- controls ---------------------------------------------------------

    fn control(&mut self, c: &ControlDef) {
        for r in &c.registers {
            self.lay.declare_register(r);
        }
        // Ids first (bodies may reference tables and vice versa); bodies
        // once the scope is complete.
        let base = self.actions.len();
        let mut ids = HashMap::with_capacity(c.actions.len());
        for (k, a) in c.actions.iter().enumerate() {
            let slots = self.lay.slots_mut();
            let params = a.params.iter().map(|(n, w)| (slots.intern_slot('m', n), mask_of(*w)));
            self.actions.push(Action { params: params.collect(), body: (0, 0) });
            ids.entry(a.name.clone()).or_insert((base + k) as u32);
        }
        let sc = Scope { control: c, actions: Arc::new(ids), table_base: self.tables.len() as u32 };
        for t in &c.tables {
            let state = self.lay.declare_table(t, &sc.actions);
            let keys = t.keys.iter().map(|(e, _)| self.operand(e).0).collect();
            let default_action = match t.default_action.as_str() {
                "NoAction" => None,
                name => sc.actions.get(name).copied(),
            };
            let action_ids = Arc::clone(&sc.actions);
            self.tables.push(Table { state, keys, default_action, action_ids });
        }
        for (k, a) in c.actions.iter().enumerate() {
            self.actions[base + k].body = self.region(&a.body, &sc);
        }
        let apply = self.region(&c.apply, &sc);
        self.applies.push(apply);
    }

    // ---- parser -----------------------------------------------------------

    fn parser(&mut self, p: &ParserDef) -> Parser {
        // First definition of a name wins (`Iterator::find`).
        let next = |name: &str| match name {
            "accept" | "reject" => Next::Accept,
            _ => match p.states.iter().position(|s| s.name == name) {
                Some(i) => Next::State(i),
                None => Next::Unknown(format!("parser state `{name}`")),
            },
        };
        let states = p
            .states
            .iter()
            .map(|s| State {
                extracts: s
                    .extracts
                    .iter()
                    .map(|ex| {
                        let instance = ex.strip_prefix("hdr.").unwrap_or(ex);
                        let id = self.lay.slots_mut().intern_instance(instance);
                        match header_plan(&self.lay, id) {
                            Some(plan) => Extract::Plan(plan),
                            None => Extract::Unknown(format!("header `{instance}`")),
                        }
                    })
                    .collect(),
                transition: match &s.transition {
                    Transition::Accept | Transition::Reject => Trans::Done,
                    Transition::Direct(t) => Trans::Direct(next(t)),
                    Transition::Select { selector, cases, default } => Trans::Select {
                        selector: self.operand(selector).0,
                        cases: cases.iter().map(|(v, t)| (*v, next(t))).collect(),
                        default: next(default),
                    },
                },
            })
            .collect();
        Parser { start: next("start"), states }
    }

    fn finish(self, parser: Option<Parser>) -> (Layout, ThreadedProgram) {
        let Lowerer { lay, items, head, labels, mut actions, tables, mut applies } = self;
        let (ops, pc_of) = assemble(items, &head, &labels);
        for r in actions.iter_mut().map(|a| &mut a.body).chain(applies.iter_mut()) {
            debug_assert!(
                pc_of[r.0] <= pc_of[r.1] && pc_of[r.1] <= ops.len(),
                "region edges are ops"
            );
            *r = (pc_of[r.0], pc_of[r.1]);
        }
        let deparse =
            (0..lay.slots.n_instances()).map(|id| header_plan(&lay, HeaderId(id as u32))).collect();
        let tp = ThreadedProgram {
            ops,
            applies: applies.into(),
            actions: actions.into(),
            tables: tables.into(),
            parser,
            deparse,
        };
        (lay, tp)
    }
}

/// At most how many items and labels lowering `stmts` emits: an item per
/// statement, a jump in front of each `else` and a label per branch target.
fn emitted(stmts: &[Stmt]) -> (usize, usize) {
    stmts.iter().fold((0, 0), |(items, labels), s| match s {
        Stmt::If { then, els, .. } => {
            let (ti, tl) = emitted(then);
            let (ei, el) = emitted(els);
            let split = usize::from(!els.is_empty());
            (items + 1 + split + ti + ei, labels + 1 + split + tl + el)
        }
        _ => (items + 1, labels),
    })
}

/// Precomputes a header's fixed byte layout: the aligned prefix, its total
/// size, and whether an unaligned field follows (a deferred `Unaligned`
/// error, raised after the prefix exactly like the per-field path). `None`
/// when no header type gives the instance a layout.
fn header_plan(lay: &Layout, inst: HeaderId) -> Option<HeaderPlan> {
    let plan = lay.slots.layout(inst)?;
    let name = lay.slots.instance_name(inst).unwrap_or("").to_string();
    let mut fields = Vec::with_capacity(plan.len());
    let mut total = 0usize;
    let mut tail_unaligned = false;
    for &(slot, bits) in plan {
        if bits == 0 || !bits.is_multiple_of(8) {
            tail_unaligned = true;
            break;
        }
        fields.push((slot, bits / 8));
        total += (bits / 8) as usize;
    }
    Some(HeaderPlan { inst, name, fields: fields.into(), total, tail_unaligned })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every closure in `ops` can be entered, and AGG's SALU sites fuse
    /// into lane runs. AGG (`netcl_apps::agg`'s source at its default
    /// size) has 36 sites: each `Agg__*` bank is one 32-lane run (the
    /// second with each condition's move fused as its lane's prefix), the
    /// unconditional `Count`/`Exp` pair one 2-lane run; the four `Bitmap`
    /// sites and the conditional `Count`/`Exp` pair differ in microprogram.
    /// So 180 items before lane fusion are 86; the op array still has one
    /// closure per run or control op — 17.
    #[test]
    fn agg_ops_are_run_heads_and_control_ops_only() {
        let unit = netcl::Compiler::new(Default::default()).compile("agg.ncl", AGG).unwrap();
        let program = &unit.devices[0].tna_p4;
        let mut lw = Lowerer::new(program);
        for c in program.controls.iter() {
            lw.control(c);
        }
        let count = |f: &dyn Fn(&Lowered, bool) -> bool| {
            lw.items.iter().zip(&lw.head).filter(|(item, &head)| f(item, head)).count()
        };
        let run_heads = count(&|item, head| item.fusable() && head);
        let control = count(&|item, _| !item.fusable());
        // A jump or branch a run falls into is that run's last step.
        let absorbed =
            count(&|item, head| matches!(item, Lowered::Jmp(_) | Lowered::Br { .. }) && !head);
        assert_eq!((lw.items.len(), run_heads, control, absorbed), (86, 12, 12, 7));
        let lanes: Vec<usize> = lw
            .items
            .iter()
            .filter_map(|item| match item {
                Lowered::Run(r) => Some(r.lanes.len()),
                _ => None,
            })
            .collect();
        assert_eq!(lanes, [1, 1, 1, 1, 2, 32, 1, 1, 32]);
        let (_, tp) = lw.finish(None);
        assert_eq!(tp.ops.len(), run_heads + control - absorbed);
        assert_eq!(tp.ops.len(), 17);
    }

    const AGG: &str = r#"
#define NUM_SLOTS 16
#define SLOT_SIZE 32
#define NUM_WORKERS 6
_net_ uint16_t Bitmap[2][NUM_SLOTS];
_net_ uint32_t Agg[SLOT_SIZE][NUM_SLOTS * 2];
_net_ uint8_t Count[NUM_SLOTS * 2];
_net_ uint8_t Exp[NUM_SLOTS * 2];
_kernel(1) _at(1) void allreduce(uint8_t ver, uint16_t bmp_idx, uint16_t agg_idx, uint16_t mask,
                                 uint8_t &exp, uint32_t _spec(SLOT_SIZE) *v) {
  uint16_t bitmap;
  if (ver == 0) {
    bitmap = ncl::atomic_or(&Bitmap[0][bmp_idx], mask);
    ncl::atomic_and(&Bitmap[1][bmp_idx], ~mask);
  } else {
    ncl::atomic_and(&Bitmap[0][bmp_idx], ~mask);
    bitmap = ncl::atomic_or(&Bitmap[1][bmp_idx], mask);
  }
  if (bitmap == 0) {
    for (auto i = 0; i < SLOT_SIZE; ++i) Agg[i][agg_idx] = v[i];
    ncl::atomic_swap(&Exp[agg_idx], exp);
    Count[agg_idx] = NUM_WORKERS - 1;
  } else {
    auto seen = bitmap & mask;
    exp = ncl::atomic_cond_max_new(&Exp[agg_idx], !seen, exp);
    for (auto i = 0; i < SLOT_SIZE; ++i)
      v[i] = ncl::atomic_cond_add_new(&Agg[i][agg_idx], !seen, v[i]);
    auto cnt = ncl::atomic_cond_dec(&Count[agg_idx], !seen);
    if (seen != 0) {
      if (cnt == 0) return ncl::reflect();
      return ncl::drop();
    }
    if (cnt == 1) return ncl::multicast(42);
  }
  return ncl::drop();
}
"#;
}
