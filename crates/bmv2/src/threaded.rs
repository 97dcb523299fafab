//! Direct-threaded execution backend (ROADMAP perf item #1, DESIGN.md §14).
//!
//! Executing the flat `COp`/`EOp` stream directly means a pc-loop `match`
//! per op plus a postfix stack walk per expression. Profiles of the
//! stateful apps (AGG runs ~36 `RegisterAction` executions per packet)
//! showed that dispatch — not arithmetic — dominates, so that executor was
//! retired and the stream is only ever run in the lowered form below.
//!
//! This module lowers a `CompiledProgram` **once at load time** into:
//!
//! * one monomorphized closure per statement op (`OpFn`), capturing
//!   pre-resolved `FieldSlot`s, destination masks, register indices,
//!   table handles, and *absolute* successor program counters — the
//!   execution loop is `pc = ops[pc](...)`, with no `match` and no
//!   relative-skip arithmetic;
//! * one closure tree per expression (`ExprFn`) with every operand
//!   width — and therefore every wrapping mask — computed at lowering
//!   time, so runtime evaluation carries values only (the postfix stack
//!   and its `(value, width)` pairs disappear entirely);
//! * fixed-layout parser and deparser plans: byte offsets and sizes of
//!   every field are known per state, so extraction is one bounds check
//!   per header followed by unchecked-offset big-endian reads.
//!
//! Closures (rather than generated machine code) keep the backend safe,
//! portable, and load-time cheap; see DESIGN.md §14 for the trade-off
//! discussion. Semantics are bit-for-bit those of the tree-walking
//! interpreter: every arm below mirrors its counterpart in
//! `interp.rs`/`eval.rs`, and the differential proptests
//! (`tests/properties.rs`) plus the chaos matrix hold the two engines to
//! identical outputs, errors, `SwitchCounters`, and register state.

use std::collections::HashMap;
use std::sync::Arc;

use crate::compile::{
    CExtract, COp, CTransition, CompiledProgram, Dest, EOp, ExternFn, FieldSlot, HeaderId, Span,
    StateRef,
};
use crate::eval::{bin_value, mask_of};
use crate::packet::{Packet, PacketError};
use crate::switch::{RuntimeState, SwitchError};
use netcl_ir::interp::eval_intrinsic;
use netcl_p4::ast::{EntryKey, P4BinOp};
use netcl_sema::builtins::{AtomicOp, HashKind};

/// A lowered expression: evaluates against a packet, returns the value.
/// The result width is static (computed at lowering time), so no width
/// travels at runtime. Shared (`Arc`) so a lowered op can appear both
/// inside a fused run and behind its own pc slot.
pub(crate) type ExprFn = Arc<dyn Fn(&Packet) -> u64 + Send + Sync>;

/// A lowered operand that stays symbolic when it is a plain slot load or
/// a constant: consumers read those inline — a two-arm match instead of
/// an indirect call, which is most of the difference between a lowered
/// statement costing ~4ns and ~13ns. Composite expressions fall back to a
/// closure ([`ExprFn`]), whose *own* leaves are fused flat by
/// [`fuse1`]/[`fuse2`].
#[derive(Clone)]
enum Operand {
    /// Direct slot read.
    Slot(FieldSlot),
    /// Logical not of a slot read (`!flag` — a common conditional SALU
    /// helper condition, so worth an inline arm of its own).
    NotSlot(FieldSlot),
    /// Bare-name load: metadata slot if bound, header slot otherwise —
    /// the interpreter's namespace fallback. Locals and action
    /// parameters all read through this, so it stays a leaf.
    Bare(FieldSlot, FieldSlot),
    /// Logical not of a bare-name load (`!seen` where `seen` is a
    /// local — the dominant conditional-SALU condition shape).
    NotBare(FieldSlot, FieldSlot),
    Const(u64),
    Dyn(ExprFn),
}

/// The bare-name read: metadata namespace wins when the slot is bound.
#[inline(always)]
fn bare(p: &Packet, m: FieldSlot, h: FieldSlot) -> u64 {
    if p.meta_present(m) {
        p.value(m)
    } else {
        p.value(h)
    }
}

impl Operand {
    /// Evaluates the operand against a packet.
    #[inline(always)]
    fn read(&self, p: &Packet) -> u64 {
        match self {
            Operand::Slot(s) => p.value(*s),
            Operand::NotSlot(s) => (p.value(*s) == 0) as u64,
            Operand::Bare(m, h) => bare(p, *m, *h),
            Operand::NotBare(m, h) => (bare(p, *m, *h) == 0) as u64,
            Operand::Const(v) => *v,
            Operand::Dyn(f) => f(p),
        }
    }
}

/// Applies a pure unary `f` over an operand, folding constants and fusing
/// slot loads into the new closure (no nested indirect call for leaves).
fn fuse1(a: Operand, f: impl Fn(u64) -> u64 + Send + Sync + 'static) -> Operand {
    match a {
        Operand::Const(k) => Operand::Const(f(k)),
        Operand::Dyn(g) => Operand::Dyn(Arc::new(move |p| f(g(p)))),
        // Leaf reads inline through the (always-inlined) `read` match —
        // no nested indirect call.
        a => Operand::Dyn(Arc::new(move |p| f(a.read(p)))),
    }
}

/// Applies a pure binary `f`, folding constants and fusing slot-load
/// leaves flat into one closure. Each caller monomorphizes `f`, so the
/// leaf reads compile to direct loads.
fn fuse2(a: Operand, b: Operand, f: impl Fn(u64, u64) -> u64 + Send + Sync + 'static) -> Operand {
    match (a, b) {
        (Operand::Const(x), Operand::Const(y)) => Operand::Const(f(x, y)),
        (Operand::Slot(s), Operand::Slot(t)) => {
            Operand::Dyn(Arc::new(move |p| f(p.value(s), p.value(t))))
        }
        (Operand::Slot(s), Operand::Const(k)) => Operand::Dyn(Arc::new(move |p| f(p.value(s), k))),
        (Operand::Const(k), Operand::Slot(t)) => Operand::Dyn(Arc::new(move |p| f(k, p.value(t)))),
        // Remaining shapes (bare loads, mixed leaves, composites) fuse
        // through the inlined `read` match — at most one indirect call
        // per already-composite side, never one per leaf.
        (a, b) => Operand::Dyn(Arc::new(move |p| f(a.read(p), b.read(p)))),
    }
}

/// A lowered statement op. Returns the absolute pc of the next op to run.
type OpFn = Box<
    dyn Fn(&ThreadedProgram, &mut Packet, &mut RuntimeState) -> Result<usize, SwitchError>
        + Send
        + Sync,
>;

/// A lowered *straight-line* op: always falls through, so it returns no
/// pc. Shared (`Arc`) so one lowering can appear both inside a fused run
/// and behind its own pc slot.
type LinFn = std::sync::Arc<
    dyn Fn(&ThreadedProgram, &mut Packet, &mut RuntimeState) -> Result<(), SwitchError>
        + Send
        + Sync,
>;

/// What `lower_op` produced for one pc. `Move` and `Ra` stay *symbolic*
/// so [`assemble_ops`] can fuse adjacent ones into a single closure;
/// everything else is either an opaque fallthrough op (`Lin`, still
/// fusable into a run) or a control op that picks its own successor.
enum Lowered {
    /// A plain assignment: destination plus source operand.
    Move(TDest, Operand),
    /// A SALU site, kept un-built so leading moves can fuse into it.
    Ra(RaSpec),
    /// An unconditional jump to an absolute pc, kept symbolic so a
    /// preceding run can return the target directly (no extra dispatch).
    Jmp(usize),
    /// A conditional branch (`cond == 0` falls to `not_taken`), symbolic
    /// for the same reason.
    Br {
        cond: Operand,
        taken: usize,
        not_taken: usize,
    },
    Lin(LinFn),
    Ctl(OpFn),
}

/// A pre-lowered SALU site ([`COp::ExecRegAction`]), symbolic until
/// assembly. The compiler emits temp-carrying moves right in front of
/// most sites (`t1 = cond; t2 = arg; exec`), and AGG runs that triple 32
/// times per packet — fusing it drops three dispatches to one.
#[derive(Clone)]
struct RaSpec {
    d: TDest,
    idx: Operand,
    cond: Option<Operand>,
    operands: Vec<Operand>,
    reg: usize,
    mask: u64,
    sty: netcl_sema::Ty,
    op: AtomicOp,
}

/// A run of lowered assignments, executed in program order.
type Moves = Box<[(TDest, Operand)]>;

/// The moves fused in front of a SALU site, unrolled for the shapes the
/// compiler actually emits (0 for a bare site, 1–2 for the temp-carrying
/// forms) so the hot path has no loop or bounds check.
enum Prefix {
    None,
    One(TDest, Operand),
    Two((TDest, Operand), (TDest, Operand)),
    Many(Moves),
}

impl Prefix {
    fn of(v: Vec<(TDest, Operand)>) -> Prefix {
        let mut it = v.into_iter();
        match (it.next(), it.next(), it.next()) {
            (None, _, _) => Prefix::None,
            (Some(a), None, _) => Prefix::One(a.0, a.1),
            (Some(a), Some(b), None) => Prefix::Two(a, b),
            (Some(a), Some(b), Some(c)) => {
                let mut rest = vec![a, b, c];
                rest.extend(it);
                Prefix::Many(rest.into())
            }
        }
    }

    /// Executes the moves in program order.
    #[inline(always)]
    fn run(&self, pkt: &mut Packet) {
        match self {
            Prefix::None => {}
            Prefix::One(d, o) => d.store(pkt, o.read(pkt)),
            Prefix::Two((d1, o1), (d2, o2)) => {
                d1.store(pkt, o1.read(pkt));
                d2.store(pkt, o2.read(pkt));
            }
            Prefix::Many(ms) => {
                for (d, o) in ms.iter() {
                    d.store(pkt, o.read(pkt));
                }
            }
        }
    }
}

/// A lowered action: parameter slots with precomputed masks plus an
/// absolute body range.
struct TAction {
    /// `(meta slot, value mask)` per parameter, in order.
    params: Box<[(FieldSlot, u64)]>,
    /// Body ops as an absolute `[start, end)` pc range.
    body: (usize, usize),
}

/// A lowered table: pre-resolved key evaluators and action scope. Entries
/// stay in [`RuntimeState`] — they are control-plane mutable, so only the
/// *access path* is pre-resolved, never the contents.
struct TTable {
    /// Runtime entry-store index.
    state: usize,
    /// Key expressions (pure packet reads).
    keys: Box<[Operand]>,
    /// Default action on miss.
    default_action: Option<u32>,
    /// Entry action name → action id (runtime entries carry names).
    action_ids: HashMap<String, u32>,
}

/// One header's fixed wire layout: the byte-aligned field prefix plus an
/// optional trailing alignment error, discovered at lowering time.
struct TPlan {
    inst: HeaderId,
    /// Instance name for error construction.
    name: String,
    /// `(slot, nbytes)` in wire order — every entry byte-aligned.
    fields: Box<[(FieldSlot, u32)]>,
    /// Total bytes of `fields`.
    total: usize,
    /// `Some` when a field with zero or non-byte-aligned width follows the
    /// prefix: reaching it raises `Unaligned`, exactly where the per-field
    /// path would.
    tail_unaligned: bool,
}

/// A lowered parser extract.
enum TExtract {
    /// Fixed-layout extraction (single bounds check, offset reads).
    Plan(TPlan),
    /// Unknown header type: fail with this message when executed.
    Unknown(String),
}

/// Parser state target (mirrors [`StateRef`], error message resolved).
enum TNext {
    Accept,
    State(usize),
    /// Unknown state name, failing lazily like the interpreter.
    Unknown(String),
}

/// A lowered transition.
enum TTrans {
    Done,
    Direct(TNext),
    Select { selector: Operand, cases: Box<[(u64, TNext)]>, default: TNext },
}

struct TState {
    extracts: Box<[TExtract]>,
    transition: TTrans,
}

struct TParser {
    start: TNext,
    states: Box<[TState]>,
}

/// Where a lowered statement writes, with the width mask precomputed.
#[derive(Clone, Copy)]
enum TDest {
    None,
    Header(FieldSlot, u64),
    Meta(FieldSlot, u64),
}

impl TDest {
    #[inline]
    fn store(self, pkt: &mut Packet, v: u64) {
        match self {
            TDest::None => {}
            TDest::Header(s, m) => pkt.set_value(s, v & m),
            TDest::Meta(s, m) => pkt.set_meta_slot(s, v & m),
        }
    }
}

fn lower_dest(d: Dest) -> TDest {
    match d {
        Dest::None => TDest::None,
        Dest::Header(s, w) => TDest::Header(s, mask_of(w)),
        Dest::Meta(s, w) => TDest::Meta(s, mask_of(w)),
    }
}

/// The whole program in direct-threaded form. Built once per
/// [`crate::Switch`] by [`lower`].
pub(crate) struct ThreadedProgram {
    ops: Box<[OpFn]>,
    /// One `[start, end)` pc range per control, in program order.
    applies: Box<[(usize, usize)]>,
    actions: Box<[TAction]>,
    tables: Box<[TTable]>,
    parser: Option<TParser>,
    /// Deparse plans by instance id (`None` = no header type: lazy error).
    deparse: Box<[Option<TPlan>]>,
}

// ---- expression lowering --------------------------------------------------

/// Lowers one postfix expression span, simulating the evaluation stack at
/// build time. Leaf loads and constants stay symbolic ([`Operand`]);
/// interior nodes become closures with leaves fused flat. Returns the
/// operand and its static result width.
fn lower_operand(cp: &CompiledProgram, span: Span) -> (Operand, u32) {
    let mut stack: Vec<(Operand, u32)> = Vec::new();
    for op in &cp.eops[span.start as usize..(span.start + span.len) as usize] {
        match *op {
            EOp::Const(v, w) => stack.push((Operand::Const(v), w)),
            EOp::Load(s, w) => stack.push((Operand::Slot(s), w)),
            EOp::LoadBare { meta, hdr, width } => stack.push((Operand::Bare(meta, hdr), width)),
            EOp::LoadValid(i) => {
                stack.push((Operand::Dyn(Arc::new(move |p| p.is_valid_id(i) as u64)), 1))
            }
            EOp::Bin(op) => {
                let (b, wb) = stack.pop().expect("postfix underflow");
                let (a, wa) = stack.pop().expect("postfix underflow");
                stack.push(lower_bin(op, a, wa, b, wb));
            }
            EOp::Not => {
                let (a, _) = stack.pop().expect("postfix underflow");
                let not = match a {
                    Operand::Slot(s) => Operand::NotSlot(s),
                    Operand::Bare(m, h) => Operand::NotBare(m, h),
                    Operand::NotSlot(s) => {
                        // `!!x` normalizes to 0/1 — exactly `x != 0`.
                        fuse1(Operand::Slot(s), |x| (x != 0) as u64)
                    }
                    Operand::NotBare(m, h) => fuse1(Operand::Bare(m, h), |x| (x != 0) as u64),
                    a => fuse1(a, |x| (x == 0) as u64),
                };
                stack.push((not, 1));
            }
            EOp::BitNot => {
                let (a, w) = stack.pop().expect("postfix underflow");
                let m = mask_of(w);
                stack.push((fuse1(a, move |x| !x & m), w));
            }
            EOp::Cast(bits) => {
                let (a, _) = stack.pop().expect("postfix underflow");
                let m = mask_of(bits);
                stack.push((fuse1(a, move |x| x & m), bits));
            }
            EOp::Slice(hi, lo) => {
                let (a, _) = stack.pop().expect("postfix underflow");
                let width = hi - lo + 1;
                let m = mask_of(width);
                stack.push((fuse1(a, move |x| (x >> lo) & m), width));
            }
        }
    }
    let top = stack.pop().expect("postfix produced no value");
    debug_assert!(stack.is_empty(), "unbalanced postfix expression");
    top
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
        P4BinOp::Eq => (fuse2(a, b, |x, y| (x == y) as u64), 1),
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
            (Operand::Dyn(Arc::new(move |p| bin_value(other, a.read(p), wa, b.read(p), wb).0)), w)
        }
    }
}

fn lower_args(cp: &CompiledProgram, args: Span) -> Vec<(Operand, u32)> {
    (args.start..args.start + args.len).map(|ai| lower_operand(cp, cp.args[ai as usize])).collect()
}

// ---- statement lowering ---------------------------------------------------

/// Lowers the whole program. Each op closure captures its absolute
/// successor pc(s); regions are `[start, end)` ranges over one shared op
/// array, exactly as the compiled spans are.
pub(crate) fn lower(cp: &CompiledProgram) -> ThreadedProgram {
    let lowered: Vec<Lowered> =
        cp.cops.iter().enumerate().map(|(i, op)| lower_op(cp, i, op)).collect();
    let ops = assemble_ops(cp, lowered);

    let actions: Box<[TAction]> = cp
        .actions
        .iter()
        .map(|a| TAction {
            params: a.params.iter().map(|&(s, w)| (s, mask_of(w))).collect(),
            body: (a.body.start as usize, (a.body.start + a.body.len) as usize),
        })
        .collect();

    let tables: Box<[TTable]> = cp
        .tables
        .iter()
        .map(|t| TTable {
            state: t.state as usize,
            keys: t.keys.iter().map(|&(kref, _)| lower_operand(cp, kref).0).collect(),
            default_action: t.default_action,
            action_ids: t.action_ids.clone(),
        })
        .collect();

    let deparse: Box<[Option<TPlan>]> = (0..cp.slots.n_instances())
        .map(|id| {
            let id = HeaderId(id as u32);
            cp.slots.layout(id).map(|plan| lower_plan(cp, id, plan))
        })
        .collect();

    let parser = cp.parser.as_ref().map(|p| TParser {
        start: lower_state_ref(cp, p.start),
        states: p
            .states
            .iter()
            .map(|s| TState {
                extracts: s
                    .extracts
                    .iter()
                    .map(|ex| match *ex {
                        CExtract::Header(inst) => {
                            let plan =
                                cp.slots.layout(inst).expect("extract compiled for known header");
                            TExtract::Plan(lower_plan(cp, inst, plan))
                        }
                        CExtract::Unknown(m) => TExtract::Unknown(cp.fail_msg(m).to_string()),
                    })
                    .collect(),
                transition: match &s.transition {
                    CTransition::Accept | CTransition::Reject => TTrans::Done,
                    CTransition::Direct(t) => TTrans::Direct(lower_state_ref(cp, *t)),
                    CTransition::Select { selector, cases, default } => TTrans::Select {
                        selector: lower_operand(cp, *selector).0,
                        cases: cases.iter().map(|&(v, t)| (v, lower_state_ref(cp, t))).collect(),
                        default: lower_state_ref(cp, *default),
                    },
                },
            })
            .collect(),
    });

    ThreadedProgram {
        ops,
        applies: cp
            .applies
            .iter()
            .map(|r| (r.start as usize, (r.start + r.len) as usize))
            .collect(),
        actions,
        tables,
        parser,
        deparse,
    }
}

fn lower_state_ref(cp: &CompiledProgram, r: StateRef) -> TNext {
    match r {
        StateRef::Accept | StateRef::Reject => TNext::Accept,
        StateRef::State(i) => TNext::State(i as usize),
        StateRef::Unknown(m) => TNext::Unknown(cp.fail_msg(m).to_string()),
    }
}

/// Precomputes a header's fixed byte layout: the aligned prefix, its total
/// size, and whether an unaligned field follows (a deferred `Unaligned`
/// error, raised after the prefix exactly like the per-field path).
fn lower_plan(cp: &CompiledProgram, inst: HeaderId, plan: &[(FieldSlot, u32)]) -> TPlan {
    let name = cp.slots.instance_name(inst).unwrap_or("").to_string();
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
    TPlan { inst, name, fields: fields.into(), total, tail_unaligned }
}

/// Lowers one statement op. `i` is the op's own pc; control ops capture
/// *absolute* successor pcs here, once; straight-line ops capture nothing
/// pc-related and become fusable [`LinFn`]s.
fn lower_op(cp: &CompiledProgram, i: usize, op: &COp) -> Lowered {
    use Lowered::{Ctl, Lin};
    let next = i + 1;
    match *op {
        COp::Assign { dst, expr } => Lowered::Move(lower_dest(dst), lower_operand(cp, expr).0),
        COp::CallAction(a) => Lin(Arc::new(move |tp, pkt, st| call_action(tp, a, 0, 0, pkt, st))),
        COp::ApplyTable(t) => Lin(Arc::new(move |tp, pkt, st| {
            apply_table(tp, t, pkt, st)?;
            Ok(())
        })),
        COp::ExecRegAction { dst, ra, index } => {
            let r = &cp.reg_actions[ra as usize];
            let bits = r.elem_bits;
            Lowered::Ra(RaSpec {
                d: lower_dest(dst),
                idx: lower_operand(cp, index).0,
                cond: r.cond.map(|c| lower_operand(cp, c).0),
                operands: (r.operands.start..r.operands.start + r.operands.len)
                    .map(|ai| lower_operand(cp, cp.args[ai as usize]).0)
                    .collect(),
                reg: r.reg as usize,
                mask: mask_of(bits),
                sty: netcl_sema::Ty::Int { bits: (bits as u8).clamp(8, 64), signed: false },
                op: r.op,
            })
        }
        COp::HashGet { dst, hash, args } => {
            let d = lower_dest(dst);
            let ch = &cp.hashes[hash as usize];
            let algo: HashKind = ch.algo;
            let out_bits = ch.out_bits.min(64) as u8;
            // Arg widths are static: precompute each arg's mask and its
            // little-endian bit offset in the concatenated key.
            let mut key_bits = 0u32;
            let parts: Box<[(Operand, u64, u32)]> = lower_args(cp, args)
                .into_iter()
                .map(|(f, w)| {
                    let part = (f, mask_of(w), key_bits.min(63));
                    key_bits += w;
                    part
                })
                .collect();
            let key_bytes = key_bits.div_ceil(8).max(1);
            Lin(Arc::new(move |_, pkt, _| {
                let mut key = 0u64;
                for (f, m, sh) in parts.iter() {
                    key |= (f.read(pkt) & m) << sh;
                }
                d.store(pkt, algo.compute(key, key_bytes, out_bits));
                Ok(())
            }))
        }
        COp::ExternCall { dst, func, args } => {
            let d = lower_dest(dst);
            let args = lower_args(cp, args);
            match func {
                ExternFn::Random => Lin(Arc::new(move |_, pkt, st| {
                    st.counters.extern_calls += 1;
                    // Args are pure loads; evaluate for parity, discard.
                    for (f, _) in args.iter() {
                        let _ = f.read(pkt);
                    }
                    st.rng = st.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = st.rng;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    d.store(pkt, z ^ (z >> 31));
                    Ok(())
                })),
                ExternFn::Intrinsic(ix) => {
                    let (target, name) = cp.externs[ix as usize].clone();
                    Lin(Arc::new(move |_, pkt, st| {
                        st.counters.extern_calls += 1;
                        let vbase = st.scratch.len();
                        for (f, _) in args.iter() {
                            st.scratch.push(f.read(pkt));
                        }
                        let v = eval_intrinsic(&target, &name, &st.scratch[vbase..]);
                        st.scratch.truncate(vbase);
                        d.store(pkt, v);
                        Ok(())
                    }))
                }
            }
        }
        COp::BranchExpr { cond, else_skip } => {
            let (c, _) = lower_operand(cp, cond);
            Lowered::Br { cond: c, taken: next, not_taken: i + else_skip as usize + 1 }
        }
        COp::BranchTable { table, want_hit, else_skip } => {
            let not_taken = i + else_skip as usize + 1;
            Ctl(Box::new(move |tp, pkt, st| {
                let hit = apply_table(tp, table, pkt, st)?;
                Ok(if hit != want_hit { not_taken } else { next })
            }))
        }
        COp::Jump(n) => Lowered::Jmp(i + n as usize + 1),
        COp::SetValid(h) => Lin(Arc::new(move |_, pkt, _| {
            pkt.set_valid_id(h, true);
            Ok(())
        })),
        COp::SetInvalid(h) => Lin(Arc::new(move |_, pkt, _| {
            pkt.set_valid_id(h, false);
            Ok(())
        })),
        COp::Fail(m) => {
            let msg = cp.fail_msg(m).to_string();
            Ctl(Box::new(move |_, _, _| Err(SwitchError::Unknown(msg.clone()))))
        }
    }
}

/// Builds one closure executing a run of lowered moves in order. A
/// single move specializes per operand kind; longer runs share one
/// data-driven loop — one dispatch for the whole run either way.
fn build_moves(moves: Moves) -> LinFn {
    if moves.len() == 1 {
        let (d, o) = Vec::from(moves).pop().expect("one move");
        return match o {
            // Leaf sources inline into the op closure: a lowered move is
            // two direct slot accesses, no expression call at all.
            Operand::Slot(s) => {
                Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, _: &mut RuntimeState| {
                    d.store(pkt, pkt.value(s));
                    Ok(())
                }) as LinFn
            }
            Operand::NotSlot(s) => {
                Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, _: &mut RuntimeState| {
                    d.store(pkt, (pkt.value(s) == 0) as u64);
                    Ok(())
                })
            }
            Operand::Const(k) => {
                Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, _: &mut RuntimeState| {
                    d.store(pkt, k);
                    Ok(())
                })
            }
            Operand::Dyn(e) => {
                Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, _: &mut RuntimeState| {
                    d.store(pkt, e(pkt));
                    Ok(())
                })
            }
            o => Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, _: &mut RuntimeState| {
                d.store(pkt, o.read(pkt));
                Ok(())
            }),
        };
    }
    Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, _: &mut RuntimeState| {
        for (d, o) in moves.iter() {
            d.store(pkt, o.read(pkt));
        }
        Ok(())
    })
}

/// Builds one closure for a (possibly empty) run of moves followed by a
/// SALU execution. The moves run first — stores happen in program order,
/// and only then does the SALU read its index/condition/operands, so the
/// observable order is exactly that of the unfused ops.
///
/// Monomorphizes the hot shapes — every `AtomicRmw` takes ≤ 2 value
/// operands — so each SALU site is one closure with everything (leading
/// moves, register handle, mask, type, condition and operand evaluators)
/// captured flat: no side-table chase, no operand loop, no scratch. The
/// generic closure remains for any future wider form.
fn build_ra(prefix: Prefix, spec: RaSpec) -> LinFn {
    let RaSpec { d, idx, cond, mut operands, reg, mask, sty, op } = spec;
    match (cond, operands.len()) {
        (None, 0) => {
            Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, st: &mut RuntimeState| {
                prefix.run(pkt);
                st.counters.reg_action_execs += 1;
                let iv = idx.read(pkt);
                d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, true, &[]));
                Ok(())
            }) as LinFn
        }
        (None, 1) => {
            let o0 = operands.pop().expect("one operand");
            Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, st: &mut RuntimeState| {
                prefix.run(pkt);
                st.counters.reg_action_execs += 1;
                let iv = idx.read(pkt);
                let a = o0.read(pkt) & mask;
                d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, true, &[a]));
                Ok(())
            })
        }
        (None, 2) => {
            let o1 = operands.pop().expect("two operands");
            let o0 = operands.pop().expect("two operands");
            Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, st: &mut RuntimeState| {
                prefix.run(pkt);
                st.counters.reg_action_execs += 1;
                let iv = idx.read(pkt);
                let a = o0.read(pkt) & mask;
                let b = o1.read(pkt) & mask;
                d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, true, &[a, b]));
                Ok(())
            })
        }
        (Some(c), 0) => {
            Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, st: &mut RuntimeState| {
                prefix.run(pkt);
                st.counters.reg_action_execs += 1;
                let iv = idx.read(pkt);
                let en = c.read(pkt) != 0;
                d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, en, &[]));
                Ok(())
            })
        }
        (Some(c), 1) => {
            let o0 = operands.pop().expect("one operand");
            Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, st: &mut RuntimeState| {
                prefix.run(pkt);
                st.counters.reg_action_execs += 1;
                let iv = idx.read(pkt);
                let en = c.read(pkt) != 0;
                let a = o0.read(pkt) & mask;
                d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, en, &[a]));
                Ok(())
            })
        }
        (Some(c), 2) => {
            let o1 = operands.pop().expect("two operands");
            let o0 = operands.pop().expect("two operands");
            Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, st: &mut RuntimeState| {
                prefix.run(pkt);
                st.counters.reg_action_execs += 1;
                let iv = idx.read(pkt);
                let en = c.read(pkt) != 0;
                let a = o0.read(pkt) & mask;
                let b = o1.read(pkt) & mask;
                d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, en, &[a, b]));
                Ok(())
            })
        }
        (cond, _) => {
            let operands: Box<[Operand]> = operands.into();
            Arc::new(move |_: &ThreadedProgram, pkt: &mut Packet, st: &mut RuntimeState| {
                prefix.run(pkt);
                st.counters.reg_action_execs += 1;
                let iv = idx.read(pkt);
                let c = match &cond {
                    Some(c) => c.read(pkt) != 0,
                    None => true,
                };
                // A fixed buffer keeps ≤ 4 operands off the heap; the
                // cold arm covers any future wider op.
                let mut buf = [0u64; 4];
                let n = operands.len();
                let spill: Vec<u64>;
                let ops: &[u64] = if n <= 4 {
                    for (k, o) in operands.iter().enumerate() {
                        buf[k] = o.read(pkt) & mask;
                    }
                    &buf[..n]
                } else {
                    spill = operands.iter().map(|o| o.read(pkt) & mask).collect();
                    &spill
                };
                d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, c, ops));
                Ok(())
            })
        }
    }
}

/// Builds the single-op closure for one lowered item (used for pcs that
/// sit *inside* a fused run but may still be entered directly).
fn one_lin(l: &Lowered) -> LinFn {
    match l {
        Lowered::Move(d, o) => build_moves(Box::new([(*d, o.clone())])),
        Lowered::Ra(spec) => build_ra(Prefix::None, spec.clone()),
        Lowered::Lin(f) => f.clone(),
        _ => unreachable!("control ops are never run interiors"),
    }
}

/// Composes a straight-line run into one closure. Grouping by four keeps
/// the tree shallow, and every indirect call site inside the composed
/// closures is *monomorphic* — it only ever calls one target — so the
/// branch predictor resolves the whole run, where the shared dispatch
/// site in [`run_region`] mispredicts nearly every op transition.
fn compose_run(mut level: Vec<LinFn>) -> LinFn {
    debug_assert!(!level.is_empty());
    while level.len() > 1 {
        level = level
            .chunks(4)
            .map(|c| match c {
                [a] => a.clone(),
                [a, b] => {
                    let (a, b) = (a.clone(), b.clone());
                    Arc::new(move |tp: &ThreadedProgram, p: &mut Packet, s: &mut RuntimeState| {
                        a(tp, p, s)?;
                        b(tp, p, s)
                    }) as LinFn
                }
                [a, b, c] => {
                    let (a, b, c) = (a.clone(), b.clone(), c.clone());
                    Arc::new(move |tp: &ThreadedProgram, p: &mut Packet, s: &mut RuntimeState| {
                        a(tp, p, s)?;
                        b(tp, p, s)?;
                        c(tp, p, s)
                    }) as LinFn
                }
                [a, b, c, d] => {
                    let (a, b, c, d) = (a.clone(), b.clone(), c.clone(), d.clone());
                    Arc::new(move |tp: &ThreadedProgram, p: &mut Packet, s: &mut RuntimeState| {
                        a(tp, p, s)?;
                        b(tp, p, s)?;
                        c(tp, p, s)?;
                        d(tp, p, s)
                    }) as LinFn
                }
                _ => unreachable!("chunks(4)"),
            })
            .collect();
    }
    level.pop().expect("non-empty run")
}

/// Builds the final pc-indexed op array: control ops stand alone; maximal
/// straight-line runs (no control op, no incoming branch target, no
/// region boundary) fuse into one composed closure at the run head that
/// executes the whole run and returns its end pc. Interior pcs keep an
/// individual fallthrough wrapper so any entry point stays correct.
fn assemble_ops(cp: &CompiledProgram, lowered: Vec<Lowered>) -> Box<[OpFn]> {
    let n = lowered.len();
    // Every pc a run may not cross: region starts *and* ends (a fused run
    // must not execute past its region), branch targets, and every op
    // after a control op (the dispatch loop re-enters there).
    let mut boundary = vec![false; n + 2];
    for r in cp.applies.iter() {
        boundary[r.start as usize] = true;
        boundary[(r.start + r.len) as usize] = true;
    }
    for a in cp.actions.iter() {
        boundary[a.body.start as usize] = true;
        boundary[(a.body.start + a.body.len) as usize] = true;
    }
    for (i, op) in cp.cops.iter().enumerate() {
        match *op {
            COp::Jump(k) => {
                boundary[i + k as usize + 1] = true;
                boundary[i + 1] = true;
            }
            COp::BranchExpr { else_skip, .. } | COp::BranchTable { else_skip, .. } => {
                boundary[i + else_skip as usize + 1] = true;
                boundary[i + 1] = true;
            }
            COp::Fail(_) => boundary[i + 1] = true,
            _ => {}
        }
    }

    let fusable = |l: &Lowered| matches!(l, Lowered::Move(..) | Lowered::Ra(_) | Lowered::Lin(_));
    let mut ops: Vec<OpFn> = Vec::with_capacity(n);
    for (pc, l) in lowered.iter().enumerate() {
        match l {
            Lowered::Ctl(_) => {
                ops.push(Box::new(|_, _, _| unreachable!("ctl replaced below")));
                continue;
            }
            // Standalone control entries: used when a branch targets the
            // op directly; sequential flow reaches them absorbed into the
            // preceding run's tail instead (below).
            Lowered::Jmp(t) => {
                let t = *t;
                ops.push(Box::new(move |_, _, _| Ok(t)));
                continue;
            }
            Lowered::Br { cond, taken, not_taken } => {
                let (c, tk, nt) = (cond.clone(), *taken, *not_taken);
                ops.push(Box::new(move |_, p, _| Ok(if c.read(p) == 0 { nt } else { tk })));
                continue;
            }
            _ => {}
        }
        let head = pc == 0 || boundary[pc] || !fusable(&lowered[pc - 1]);
        if !head {
            // Interior of some run: reachable only if an analysis above
            // missed an edge — keep the safe one-op wrapper.
            let f = one_lin(l);
            let next = pc + 1;
            ops.push(Box::new(move |tp, p, s| {
                f(tp, p, s)?;
                Ok(next)
            }));
            continue;
        }
        let mut end = pc + 1;
        while end < n && !boundary[end] && fusable(&lowered[end]) {
            end += 1;
        }
        // Superop fusion over the run: adjacent moves collapse into one
        // data-driven closure, and moves feeding straight into a SALU
        // site fold into *its* closure — AGG's per-element triple
        // (`t1 = cond; t2 = arg; exec`) becomes a single dispatch.
        let mut parts: Vec<LinFn> = Vec::new();
        let mut pending: Vec<(TDest, Operand)> = Vec::new();
        for item in &lowered[pc..end] {
            match item {
                Lowered::Move(d, o) => pending.push((*d, o.clone())),
                Lowered::Ra(spec) => {
                    parts.push(build_ra(Prefix::of(std::mem::take(&mut pending)), spec.clone()));
                }
                Lowered::Lin(f) => {
                    if !pending.is_empty() {
                        parts.push(build_moves(std::mem::take(&mut pending).into()));
                    }
                    parts.push(f.clone());
                }
                _ => unreachable!("run scan stops at control ops"),
            }
        }
        if !pending.is_empty() {
            parts.push(build_moves(pending.into()));
        }
        let fused = compose_run(parts);
        // Absorb a trailing jump/branch the run falls into — the run
        // returns its successor directly, saving one dispatch per basic
        // block. Never across a boundary: `end` may start another region.
        match lowered.get(end) {
            Some(Lowered::Jmp(t)) if !boundary[end] => {
                let t = *t;
                ops.push(Box::new(move |tp, p, s| {
                    fused(tp, p, s)?;
                    Ok(t)
                }));
            }
            Some(Lowered::Br { cond, taken, not_taken }) if !boundary[end] => {
                let (c, tk, nt) = (cond.clone(), *taken, *not_taken);
                ops.push(Box::new(move |tp, p, s| {
                    fused(tp, p, s)?;
                    Ok(if c.read(p) == 0 { nt } else { tk })
                }));
            }
            _ => ops.push(Box::new(move |tp, p, s| {
                fused(tp, p, s)?;
                Ok(end)
            })),
        }
    }
    // Second pass: move the control closures into their slots (they were
    // placeholdered above because `lowered` was still borrowed).
    for (pc, l) in lowered.into_iter().enumerate() {
        if let Lowered::Ctl(f) = l {
            ops[pc] = f;
        }
    }
    ops.into_boxed_slice()
}

// ---- execution ------------------------------------------------------------

/// One SALU execution against a register cell: clamped index, masked
/// write-back, returned value per the op's `ret_new`/`cond` semantics.
/// Reads and writes through a single bounds check.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // the flattened RaSpec fields, passed by value on purpose
fn salu_cell(
    st: &mut RuntimeState,
    reg: usize,
    mask: u64,
    sty: netcl_sema::Ty,
    op: AtomicOp,
    iv: u64,
    cond: bool,
    ops: &[u64],
) -> u64 {
    let cells = &mut st.registers[reg];
    let ci = (iv as usize).min(cells.len().saturating_sub(1));
    match cells.get_mut(ci) {
        Some(cell) => {
            let (new, ret) = op.execute(*cell, cond, ops, sty);
            *cell = new & mask;
            ret
        }
        None => op.execute(0, cond, ops, sty).1,
    }
}

/// One full parse → ingress → deparse run on the threaded engine.
pub(crate) fn run_threaded(
    tp: &ThreadedProgram,
    wire: &[u8],
    pkt: &mut Packet,
    out: &mut Vec<u8>,
    st: &mut RuntimeState,
) -> Result<(), SwitchError> {
    parse_threaded(tp, wire, pkt)?;
    for &(start, end) in tp.applies.iter() {
        run_region(tp, start, end, pkt, st)?;
    }
    deparse_threaded(tp, pkt, out)
}

/// The direct-threaded dispatch loop: no `match`, each op hands back the
/// absolute pc of its successor.
fn run_region(
    tp: &ThreadedProgram,
    start: usize,
    end: usize,
    pkt: &mut Packet,
    st: &mut RuntimeState,
) -> Result<(), SwitchError> {
    let mut pc = start;
    while pc < end {
        pc = (tp.ops[pc])(tp, pkt, st)?;
    }
    Ok(())
}

/// Invokes a lowered action (args index the shared scratch buffer, under
/// stack discipline so nested calls stay allocation-free).
fn call_action(
    tp: &ThreadedProgram,
    action: u32,
    args_base: usize,
    args_len: usize,
    pkt: &mut Packet,
    st: &mut RuntimeState,
) -> Result<(), SwitchError> {
    let a = &tp.actions[action as usize];
    st.counters.action_calls += 1;
    let save_base = st.param_saves.len();
    for &(slot, _) in a.params.iter() {
        st.param_saves.push((slot, pkt.value(slot), pkt.meta_present(slot)));
    }
    for (k, &(slot, m)) in a.params.iter().take(args_len).enumerate() {
        let v = st.scratch[args_base + k];
        pkt.set_meta_slot(slot, v & m);
    }
    let r = run_region(tp, a.body.0, a.body.1, pkt, st);
    if r.is_ok() {
        // Bindings restore only on success, as in the interpreter.
        for k in save_base..st.param_saves.len() {
            let (slot, val, present) = st.param_saves[k];
            if present {
                pkt.set_meta_slot(slot, val);
            } else {
                pkt.clear_meta_slot(slot);
            }
        }
    }
    st.param_saves.truncate(save_base);
    r
}

/// Applies a lowered table; returns hit/miss. When the runtime entry store
/// is empty — the common case for generated forwarding tables — the miss
/// is decided without evaluating key expressions (they are pure packet
/// reads, so skipping them is unobservable).
fn apply_table(
    tp: &ThreadedProgram,
    table: u32,
    pkt: &mut Packet,
    st: &mut RuntimeState,
) -> Result<bool, SwitchError> {
    let t = &tp.tables[table as usize];
    let state = t.state;
    let mut hit_idx = None;
    if !st.tables[state].is_empty() {
        let kbase = st.keys.len();
        for k in t.keys.iter() {
            st.keys.push(k.read(pkt));
        }
        let nkeys = st.keys.len() - kbase;
        {
            let entries = &st.tables[state];
            let keys = &st.keys[kbase..];
            for (ei, e) in entries.iter().enumerate() {
                let matches = e.keys.len() == nkeys
                    && e.keys.iter().zip(keys).all(|(ek, kv)| match ek {
                        EntryKey::Value(v) => v == kv,
                        EntryKey::Range(lo, hi) => lo <= kv && kv <= hi,
                    });
                if matches {
                    hit_idx = Some(ei);
                    break;
                }
            }
        }
        st.keys.truncate(kbase);
    }
    match hit_idx {
        Some(_) => st.counters.table_hits[state] += 1,
        None => st.counters.table_misses[state] += 1,
    }
    match hit_idx {
        Some(ei) => {
            let aid = t.action_ids.get(st.tables[state][ei].action.as_str()).copied();
            if let Some(aid) = aid {
                let abase = st.scratch.len();
                {
                    let RuntimeState { tables, scratch, .. } = st;
                    scratch.extend_from_slice(&tables[state][ei].args);
                }
                let n_args = st.scratch.len() - abase;
                let r = call_action(tp, aid, abase, n_args, pkt, st);
                st.scratch.truncate(abase);
                r?;
            }
            Ok(true)
        }
        None => {
            if let Some(aid) = t.default_action {
                call_action(tp, aid, 0, 0, pkt, st)?;
            }
            Ok(false)
        }
    }
}

// ---- parse / deparse ------------------------------------------------------

/// Big-endian read of a 1–8 byte field; the common power-of-two widths
/// compile to single loads instead of a byte loop.
#[inline(always)]
fn be_read(b: &[u8]) -> u64 {
    match *b {
        [a] => a as u64,
        [a, b] => u16::from_be_bytes([a, b]) as u64,
        [a, b, c, d] => u32::from_be_bytes([a, b, c, d]) as u64,
        [a, b, c, d, e, f, g, h] => u64::from_be_bytes([a, b, c, d, e, f, g, h]),
        _ => b.iter().fold(0u64, |v, &x| (v << 8) | x as u64),
    }
}

/// Big-endian append of the low `nbytes` bytes of `v`; the common
/// power-of-two widths compile to single stores.
#[inline(always)]
fn be_write(out: &mut Vec<u8>, v: u64, nbytes: u32) {
    match nbytes {
        1 => out.push(v as u8),
        2 => out.extend_from_slice(&(v as u16).to_be_bytes()),
        4 => out.extend_from_slice(&(v as u32).to_be_bytes()),
        8 => out.extend_from_slice(&v.to_be_bytes()),
        _ => {
            for b in (0..nbytes).rev() {
                out.push((v >> (8 * b)) as u8);
            }
        }
    }
}

/// Extracts one fixed-layout header: a single bounds check, then
/// offset-addressed big-endian reads. Error construction (which header,
/// truncated vs unaligned) matches the per-field path bit for bit.
#[inline]
fn extract_plan(
    plan: &TPlan,
    wire: &[u8],
    cursor: &mut usize,
    pkt: &mut Packet,
) -> Result<(), SwitchError> {
    let mut c = *cursor;
    if c + plan.total > wire.len() {
        return Err(PacketError::Truncated { header: plan.name.clone() }.into());
    }
    for &(slot, nbytes) in plan.fields.iter() {
        pkt.set_value(slot, be_read(&wire[c..c + nbytes as usize]));
        c += nbytes as usize;
    }
    if plan.tail_unaligned {
        return Err(PacketError::Unaligned(plan.name.clone()).into());
    }
    *cursor = c;
    pkt.set_valid_id(plan.inst, true);
    Ok(())
}

/// The lowered parser FSM. Control flow — hop limit, lazy unknown-state
/// errors — mirrors the interpreter's loop exactly.
fn parse_threaded(tp: &ThreadedProgram, wire: &[u8], pkt: &mut Packet) -> Result<(), SwitchError> {
    let Some(parser) = &tp.parser else {
        pkt.payload.extend_from_slice(wire);
        return Ok(());
    };
    let mut cursor = 0usize;
    let mut state = &parser.start;
    let mut hops = 0;
    loop {
        let si = match state {
            TNext::Accept => break,
            other => {
                hops += 1;
                if hops > 64 {
                    return Err(SwitchError::Unknown("parser loop".into()));
                }
                match other {
                    TNext::State(i) => *i,
                    TNext::Unknown(msg) => return Err(SwitchError::Unknown(msg.clone())),
                    TNext::Accept => unreachable!(),
                }
            }
        };
        let cstate = &parser.states[si];
        for ex in cstate.extracts.iter() {
            match ex {
                TExtract::Plan(plan) => extract_plan(plan, wire, &mut cursor, pkt)?,
                TExtract::Unknown(msg) => return Err(SwitchError::Unknown(msg.clone())),
            }
        }
        state = match &cstate.transition {
            TTrans::Done => break,
            TTrans::Direct(t) => t,
            TTrans::Select { selector, cases, default } => {
                let v = selector.read(pkt);
                cases.iter().find(|(c, _)| *c == v).map(|(_, t)| t).unwrap_or(default)
            }
        };
    }
    pkt.payload.extend_from_slice(&wire[cursor..]);
    Ok(())
}

/// Deparses valid headers in first-validation order through the
/// precomputed plans (per-header `reserve`, offset writes).
fn deparse_threaded(
    tp: &ThreadedProgram,
    pkt: &Packet,
    out: &mut Vec<u8>,
) -> Result<(), SwitchError> {
    for &inst in pkt.order_ids() {
        if !pkt.is_valid_id(inst) {
            continue;
        }
        let plan = match tp.deparse.get(inst.0 as usize).and_then(|o| o.as_ref()) {
            Some(p) => p,
            None => {
                return Err(SwitchError::Unknown(format!("header `{}`", pkt.instance_name(inst))))
            }
        };
        out.reserve(plan.total);
        for &(slot, nbytes) in plan.fields.iter() {
            be_write(out, pkt.value(slot), nbytes);
        }
        if plan.tail_unaligned {
            return Err(PacketError::Unaligned(plan.name.clone()).into());
        }
    }
    out.extend_from_slice(&pkt.payload);
    Ok(())
}
