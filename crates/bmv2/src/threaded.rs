//! The threaded engine: what a packet executes (DESIGN.md §10).
//!
//! `lower.rs` turns a `P4Program` into a [`ThreadedProgram`] once, at
//! [`crate::Switch::new`]; this module is everything that then runs per
//! packet — operand reads, destination stores, the dispatch loop, action
//! calls, table applies, the SALU cell update and the fixed-layout parser
//! and deparser.
//!
//! Invariants:
//! - The execution loop is `pc = ops[pc](...)`: no `match` per op, every
//!   successor an absolute pc captured when the closure was built. Every
//!   closure in `ops` can be entered — one per straight-line run or
//!   control op, nothing else.
//! - A region is a `[start, end)` pc range over the one op array; a run
//!   never crosses a region edge or a branch target, so leaving the range
//!   is how a region ends.
//! - Operand widths — and so every wrapping mask — are static; only
//!   values travel at runtime.
//! - Tables and registers live in [`RuntimeState`], never in a closure:
//!   only the *access path* is pre-resolved, the contents stay
//!   control-plane mutable.
//! - Semantics are bit-for-bit the interpreter's (`interp.rs`/`eval.rs`):
//!   same outputs, errors, `SwitchCounters` and registers, held by the
//!   differential proptests (`tests/properties.rs`) and the chaos matrix.

use std::collections::HashMap;
use std::sync::Arc;

use crate::layout::{FieldSlot, HeaderId};
use crate::packet::{Packet, PacketError};
use crate::switch::{RuntimeState, SwitchError};
use netcl_p4::ast::EntryKey;
use netcl_sema::builtins::AtomicOp;

/// A lowered expression: evaluates against a packet, returns the value.
/// The result width is static (computed at lowering time), so no width
/// travels at runtime.
pub(crate) type ExprFn = Box<dyn Fn(&Packet) -> u64 + Send + Sync>;

/// A lowered operand that stays symbolic when it is a plain slot load or
/// a constant: consumers read those inline — a two-arm match instead of
/// an indirect call, which is most of the difference between a lowered
/// statement costing ~4ns and ~13ns. Composite expressions fall back to a
/// closure ([`ExprFn`]), whose *own* leaves the lowering fuses flat.
pub(crate) enum Operand {
    /// Direct slot read.
    Slot(FieldSlot),
    /// `(bit<w>)slot` for `w < 64`: the slot read, masked — how generated
    /// code spells a SALU index.
    Masked(FieldSlot, u64),
    /// `slot == k` (and `(bit<w>)` of it) — how generated code spells a
    /// SALU condition and the move that feeds it.
    EqK(FieldSlot, u64),
    /// `slot == <device>`: the kernel guard's comparison, against the
    /// device the switch stamped on the packet.
    EqDevice(FieldSlot),
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
    /// The device the switch stamped on the packet.
    Device,
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
    pub(crate) fn read(&self, p: &Packet) -> u64 {
        match self {
            Operand::Slot(s) => p.value(*s),
            Operand::Masked(s, m) => p.value(*s) & m,
            Operand::EqK(s, k) => (p.value(*s) == *k) as u64,
            Operand::EqDevice(s) => (p.value(*s) == p.device() as u64) as u64,
            Operand::NotSlot(s) => (p.value(*s) == 0) as u64,
            Operand::Bare(m, h) => bare(p, *m, *h),
            Operand::NotBare(m, h) => (bare(p, *m, *h) == 0) as u64,
            Operand::Const(v) => *v,
            Operand::Device => p.device() as u64,
            Operand::Dyn(f) => f(p),
        }
    }

    /// A plain load as `(slot, slot, mask)` — a bare name's meta and
    /// header slots, one slot twice otherwise: what a SALU run's index is
    /// compared by. `None` for anything else, which never extends a run.
    pub(crate) fn load(&self) -> Option<(FieldSlot, FieldSlot, u64)> {
        match *self {
            Operand::Slot(s) => Some((s, s, u64::MAX)),
            Operand::Masked(s, m) => Some((s, s, m)),
            Operand::Bare(m, h) => Some((m, h, u64::MAX)),
            _ => None,
        }
    }
}

/// Where a lowered statement writes, with the width mask precomputed.
#[derive(Clone, Copy)]
pub(crate) enum Dest {
    /// No destination (missing `dst` or non-field lvalue — the interpreter
    /// silently ignores both).
    None,
    /// Header-namespace slot, masked to the path width.
    Header(FieldSlot, u64),
    /// Metadata-namespace slot (sets the presence bit), masked.
    Meta(FieldSlot, u64),
}

impl Dest {
    #[inline]
    pub(crate) fn store(self, pkt: &mut Packet, v: u64) {
        match self {
            Dest::None => {}
            Dest::Header(s, m) => pkt.set_value(s, v & m),
            Dest::Meta(s, m) => pkt.set_meta_slot(s, v & m),
        }
    }

    /// The slot written, if any.
    pub(crate) fn slot(self) -> Option<FieldSlot> {
        match self {
            Dest::None => None,
            Dest::Header(s, _) | Dest::Meta(s, _) => Some(s),
        }
    }
}

/// A lowered op: one straight-line run or one control op. Returns the
/// absolute pc of the next op to run.
pub(crate) type OpFn = Box<
    dyn Fn(&ThreadedProgram, &mut Packet, &mut RuntimeState) -> Result<usize, SwitchError>
        + Send
        + Sync,
>;

/// A lowered *straight-line* piece of a run: always falls through, so it
/// returns no pc.
pub(crate) type LinFn = Box<
    dyn Fn(&ThreadedProgram, &mut Packet, &mut RuntimeState) -> Result<(), SwitchError>
        + Send
        + Sync,
>;

/// A lowered assignment.
pub(crate) type Move = (Dest, Operand);

/// Executes moves in program order.
#[inline(always)]
pub(crate) fn run_moves(moves: &[Move], pkt: &mut Packet) {
    for (d, o) in moves {
        d.store(pkt, o.read(pkt));
    }
}

/// A SALU microprogram: what every lane of a run shares.
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct Salu {
    pub(crate) op: AtomicOp,
    /// The register's element mask and the type its cells compute at.
    pub(crate) mask: u64,
    pub(crate) sty: netcl_sema::Ty,
    /// Whether the `RegisterAction` has a condition.
    pub(crate) cond: bool,
    /// Value operands passed (≤ 2: no `AtomicRmw` reads a third).
    pub(crate) args: usize,
}

/// One SALU site of a run, pre-resolved: everything but the microprogram
/// and the index.
pub(crate) struct Lane {
    /// The move fused in front of the site (a no-op in a run's first
    /// lane: its moves are the run's `head`).
    pub(crate) pre: Move,
    pub(crate) reg: usize,
    /// `Const(1)` without a condition; unused operands are `Const(0)`.
    pub(crate) cond: Operand,
    pub(crate) args: [Operand; 2],
    pub(crate) d: Dest,
}

/// Consecutive SALU sites sharing one microprogram and one index leaf,
/// executed as one lane loop (DESIGN.md §10). The lowering grows `lanes`
/// as it emits sites; assembly fills `head`.
pub(crate) struct SaluRun {
    pub(crate) salu: Salu,
    pub(crate) idx: Operand,
    /// The moves in front of the first site.
    pub(crate) head: Box<[Move]>,
    pub(crate) lanes: Vec<Lane>,
}

impl SaluRun {
    /// Executes the run: its head moves, then its index — read once —
    /// then each lane in program order (prefix move, condition, operands,
    /// the cell update with a clamped index, the destination store).
    #[inline(always)]
    pub(crate) fn run(&self, pkt: &mut Packet, st: &mut RuntimeState) {
        let s = self.salu;
        run_moves(&self.head, pkt);
        let iv = self.idx.read(pkt);
        // One execution per site; no lane can fail.
        st.counters.reg_action_execs += self.lanes.len() as u64;
        for lane in self.lanes.iter() {
            let (d, o) = &lane.pre;
            d.store(pkt, o.read(pkt));
            let en = lane.cond.read(pkt) != 0;
            let vals = lane.args.each_ref().map(|a| a.read(pkt) & s.mask);
            let cells = &mut st.registers[lane.reg];
            let ci = (iv as usize).min(cells.len().saturating_sub(1));
            let ret = match cells.get_mut(ci) {
                Some(cell) => {
                    let (new, ret) = s.op.execute(*cell, en, &vals[..s.args], s.sty);
                    *cell = new & s.mask;
                    ret
                }
                None => s.op.execute(0, en, &vals[..s.args], s.sty).1,
            };
            lane.d.store(pkt, ret);
        }
    }
}

/// A lowered action: parameter slots with precomputed masks plus an
/// absolute body range.
pub(crate) struct Action {
    /// `(meta slot, value mask)` per parameter, in order.
    pub(crate) params: Box<[(FieldSlot, u64)]>,
    /// Body ops as an absolute `[start, end)` pc range.
    pub(crate) body: (usize, usize),
}

/// A lowered table definition: pre-resolved key evaluators and action
/// scope. Entries live in [`RuntimeState`], shared **by name** across
/// same-named definitions exactly as the interpreter's global
/// `HashMap<String, Vec<TableEntry>>` does.
pub(crate) struct Table {
    /// Runtime entry-store index.
    pub(crate) state: usize,
    /// Key expressions (pure packet reads).
    pub(crate) keys: Box<[Operand]>,
    /// Default action on miss (`None` for `NoAction` or unknown — the
    /// interpreter silently skips both).
    pub(crate) default_action: Option<u32>,
    /// The owning control's action scope: runtime entries carry names.
    pub(crate) action_ids: Arc<HashMap<String, u32>>,
}

/// One header's fixed wire layout: the byte-aligned field prefix plus an
/// optional trailing alignment error, discovered at lowering time.
pub(crate) struct HeaderPlan {
    pub(crate) inst: HeaderId,
    /// Instance name for error construction.
    pub(crate) name: String,
    /// `(slot, nbytes)` in wire order — every entry byte-aligned.
    pub(crate) fields: Box<[(FieldSlot, u32)]>,
    /// Total bytes of `fields`.
    pub(crate) total: usize,
    /// Set when a field with zero or non-byte-aligned width follows the
    /// prefix: reaching it raises `Unaligned`, exactly where the per-field
    /// path would.
    pub(crate) tail_unaligned: bool,
}

/// A lowered parser extract.
pub(crate) enum Extract {
    /// Fixed-layout extraction (single bounds check, offset reads).
    Plan(HeaderPlan),
    /// No `<name>_t` header type: fail with this message when executed.
    Unknown(String),
}

/// Parser state target.
pub(crate) enum Next {
    /// `accept`, or `reject` (the interpreter treats it like accept).
    Accept,
    State(usize),
    /// Unknown state name, failing lazily like the interpreter.
    Unknown(String),
}

/// A lowered transition.
pub(crate) enum Trans {
    Done,
    Direct(Next),
    Select { selector: Operand, cases: Box<[(u64, Next)]>, default: Next },
}

pub(crate) struct State {
    pub(crate) extracts: Box<[Extract]>,
    pub(crate) transition: Trans,
}

pub(crate) struct Parser {
    pub(crate) start: Next,
    /// States in definition order.
    pub(crate) states: Box<[State]>,
}

/// The whole program in direct-threaded form. Built once per
/// [`crate::Switch`] by `lower::lower`.
pub(crate) struct ThreadedProgram {
    pub(crate) ops: Box<[OpFn]>,
    /// One `[start, end)` pc range per control, in program order.
    pub(crate) applies: Box<[(usize, usize)]>,
    pub(crate) actions: Box<[Action]>,
    pub(crate) tables: Box<[Table]>,
    pub(crate) parser: Option<Parser>,
    /// Deparse plans by instance id (`None` = no header type: lazy error).
    pub(crate) deparse: Box<[Option<HeaderPlan>]>,
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
pub(crate) fn call_action(
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
pub(crate) fn apply_table(
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
    plan: &HeaderPlan,
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
            Next::Accept => break,
            other => {
                hops += 1;
                if hops > 64 {
                    return Err(SwitchError::Unknown("parser loop".into()));
                }
                match other {
                    Next::State(i) => *i,
                    Next::Unknown(msg) => return Err(SwitchError::Unknown(msg.clone())),
                    Next::Accept => unreachable!(),
                }
            }
        };
        let cstate = &parser.states[si];
        for ex in cstate.extracts.iter() {
            match ex {
                Extract::Plan(plan) => extract_plan(plan, wire, &mut cursor, pkt)?,
                Extract::Unknown(msg) => return Err(SwitchError::Unknown(msg.clone())),
            }
        }
        state = match &cstate.transition {
            Trans::Done => break,
            Trans::Direct(t) => t,
            Trans::Select { selector, cases, default } => {
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
