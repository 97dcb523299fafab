//! Run assembly: the lowering's symbolic [`Lowered`] items → the op array
//! the threaded engine dispatches over (DESIGN.md §10).
//!
//! Invariants:
//! - `head[i]` says item `i` may be entered from elsewhere — it starts a
//!   region, follows a control item or carries a bound label (`lower.rs`
//!   sets it as it emits). A run never extends across a head, so every pc
//!   a closure can return is the first item of an op, and `ops` holds
//!   exactly one closure per run or control item: each can be entered.
//! - Items are consumed by value: nothing is built twice, nothing cloned.
//! - Fusing is unobservable: inside a run stores happen in program order,
//!   and a SALU site reads its index, condition and operands only after
//!   the moves fused in front of it have run.

use crate::threaded::{apply_table, salu_cell, Dest, LinFn, Moves, OpFn, Operand, Prefix};
use netcl_sema::builtins::AtomicOp;

/// A branch target: an index into the lowering's label table, which holds
/// the item index each label was bound at.
pub(crate) type Label = usize;

/// One lowered statement. `Move` and `Ra` stay *symbolic* so [`assemble`]
/// can fuse adjacent ones into a single closure; `Lin` is an opaque
/// fallthrough piece (still fusable into a run); the rest are control
/// items, which pick their own successor.
pub(crate) enum Lowered {
    /// A plain assignment: destination plus source operand.
    Move(Dest, Operand),
    /// A SALU site, kept un-built so leading moves can fuse into it.
    Ra(RaSpec),
    Lin(LinFn),
    /// An unconditional jump, symbolic so a preceding run can return the
    /// target directly (no extra dispatch).
    Jmp(Label),
    /// A conditional branch (`cond == 0` goes to `not_taken`, anything
    /// else falls through), symbolic for the same reason.
    Br {
        cond: Operand,
        not_taken: Label,
    },
    /// `if (t.apply().hit / .miss)`: applies the table (with side
    /// effects), then branches.
    BrTable {
        table: u32,
        want_hit: bool,
        not_taken: Label,
    },
    /// A deferred failure.
    Fail(OpFn),
}

impl Lowered {
    /// Whether the item always falls through to the next one.
    pub(crate) fn fusable(&self) -> bool {
        matches!(self, Lowered::Move(..) | Lowered::Ra(_) | Lowered::Lin(_))
    }
}

/// A pre-lowered SALU site (`dst = ra.execute(index)`), symbolic until
/// assembly. The compiler emits temp-carrying moves right in front of
/// most sites (`t1 = cond; t2 = arg; exec`), and AGG runs that triple 32
/// times per packet — fusing it drops three dispatches to one.
pub(crate) struct RaSpec {
    pub(crate) d: Dest,
    pub(crate) idx: Operand,
    pub(crate) cond: Option<Operand>,
    pub(crate) operands: Vec<Operand>,
    pub(crate) reg: usize,
    pub(crate) mask: u64,
    pub(crate) sty: netcl_sema::Ty,
    pub(crate) op: AtomicOp,
}

/// Builds one closure executing a run of lowered moves in order. A
/// single move specializes per operand kind; longer runs share one
/// data-driven loop — one dispatch for the whole run either way.
fn build_moves(mut moves: Vec<(Dest, Operand)>) -> LinFn {
    if moves.len() > 1 {
        let moves: Moves = moves.into();
        return Box::new(move |_, pkt, _| {
            for (d, o) in moves.iter() {
                d.store(pkt, o.read(pkt));
            }
            Ok(())
        });
    }
    let (d, o) = moves.pop().expect("a run of moves is not empty");
    match o {
        // Leaf sources inline into the op closure: a lowered move is
        // two direct slot accesses, no expression call at all.
        Operand::Slot(s) => Box::new(move |_, pkt, _| {
            d.store(pkt, pkt.value(s));
            Ok(())
        }),
        Operand::NotSlot(s) => Box::new(move |_, pkt, _| {
            d.store(pkt, (pkt.value(s) == 0) as u64);
            Ok(())
        }),
        Operand::Const(k) => Box::new(move |_, pkt, _| {
            d.store(pkt, k);
            Ok(())
        }),
        Operand::Dyn(e) => Box::new(move |_, pkt, _| {
            d.store(pkt, e(pkt));
            Ok(())
        }),
        o => Box::new(move |_, pkt, _| {
            d.store(pkt, o.read(pkt));
            Ok(())
        }),
    }
}

/// The moves of a run that a SALU site follows, fused into its closure.
fn prefix_of(v: Vec<(Dest, Operand)>) -> Prefix {
    let mut it = v.into_iter();
    match (it.next(), it.next(), it.next()) {
        (None, _, _) => Prefix::None,
        (Some(a), None, _) => Prefix::One(a.0, a.1),
        (Some(a), Some(b), None) => Prefix::Two(a, b),
        (Some(a), Some(b), Some(c)) => Prefix::Many([a, b, c].into_iter().chain(it).collect()),
    }
}

/// Builds one closure for a (possibly empty) run of moves followed by a
/// SALU execution. The moves run first — stores happen in program order,
/// and only then does the SALU read its index/condition/operands, so the
/// observable order is exactly that of the unfused statements.
///
/// Monomorphizes the hot shapes — every `AtomicRmw` takes ≤ 2 value
/// operands — so each SALU site is one closure with everything (leading
/// moves, register handle, mask, type, condition and operand evaluators)
/// captured flat: no side-table chase, no operand loop, no scratch. The
/// generic closure remains for any future wider form.
fn build_ra(prefix: Prefix, spec: RaSpec) -> LinFn {
    let RaSpec { d, idx, cond, operands, reg, mask, sty, op } = spec;
    let mut operands = operands.into_iter();
    match (cond, operands.next(), operands.next(), operands.len()) {
        (None, None, ..) => Box::new(move |_, pkt, st| {
            prefix.run(pkt);
            st.counters.reg_action_execs += 1;
            let iv = idx.read(pkt);
            d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, true, &[]));
            Ok(())
        }),
        (None, Some(o0), None, _) => Box::new(move |_, pkt, st| {
            prefix.run(pkt);
            st.counters.reg_action_execs += 1;
            let iv = idx.read(pkt);
            let a = o0.read(pkt) & mask;
            d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, true, &[a]));
            Ok(())
        }),
        (None, Some(o0), Some(o1), 0) => Box::new(move |_, pkt, st| {
            prefix.run(pkt);
            st.counters.reg_action_execs += 1;
            let iv = idx.read(pkt);
            let a = o0.read(pkt) & mask;
            let b = o1.read(pkt) & mask;
            d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, true, &[a, b]));
            Ok(())
        }),
        (Some(c), None, ..) => Box::new(move |_, pkt, st| {
            prefix.run(pkt);
            st.counters.reg_action_execs += 1;
            let iv = idx.read(pkt);
            let en = c.read(pkt) != 0;
            d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, en, &[]));
            Ok(())
        }),
        (Some(c), Some(o0), None, _) => Box::new(move |_, pkt, st| {
            prefix.run(pkt);
            st.counters.reg_action_execs += 1;
            let iv = idx.read(pkt);
            let en = c.read(pkt) != 0;
            let a = o0.read(pkt) & mask;
            d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, en, &[a]));
            Ok(())
        }),
        (Some(c), Some(o0), Some(o1), 0) => Box::new(move |_, pkt, st| {
            prefix.run(pkt);
            st.counters.reg_action_execs += 1;
            let iv = idx.read(pkt);
            let en = c.read(pkt) != 0;
            let a = o0.read(pkt) & mask;
            let b = o1.read(pkt) & mask;
            d.store(pkt, salu_cell(st, reg, mask, sty, op, iv, en, &[a, b]));
            Ok(())
        }),
        (cond, o0, o1, _) => {
            let operands: Box<[Operand]> = o0.into_iter().chain(o1).chain(operands).collect();
            Box::new(move |_, pkt, st| {
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

/// Composes a straight-line run into one closure. Grouping by four keeps
/// the tree shallow, and every indirect call site inside the composed
/// closures is *monomorphic* — it only ever calls one target — so the
/// branch predictor resolves the whole run, where the shared dispatch
/// site in `run_region` mispredicts nearly every op transition.
fn compose_run(mut level: Vec<LinFn>) -> LinFn {
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(4));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            let composed: LinFn = match (it.next(), it.next(), it.next()) {
                (None, ..) => a,
                (Some(b), None, _) => Box::new(move |tp, p, s| {
                    a(tp, p, s)?;
                    b(tp, p, s)
                }),
                (Some(b), Some(c), None) => Box::new(move |tp, p, s| {
                    a(tp, p, s)?;
                    b(tp, p, s)?;
                    c(tp, p, s)
                }),
                (Some(b), Some(c), Some(d)) => Box::new(move |tp, p, s| {
                    a(tp, p, s)?;
                    b(tp, p, s)?;
                    c(tp, p, s)?;
                    d(tp, p, s)
                }),
            };
            next.push(composed);
        }
        level = next;
    }
    level.pop().expect("a run is not empty")
}

/// One past the last item of the op that starts at item `i`: a control
/// item alone, or a maximal straight-line run plus the jump or branch it
/// falls into — the run returns that successor itself, saving one
/// dispatch per basic block. Never across a head.
fn op_end(items: &[Lowered], head: &[bool], i: usize) -> usize {
    if !items[i].fusable() {
        return i + 1;
    }
    let mut end = i + 1;
    while end < items.len() && !head[end] && items[end].fusable() {
        end += 1;
    }
    match items.get(end) {
        Some(Lowered::Jmp(_) | Lowered::Br { .. }) if !head[end] => end + 1,
        _ => end,
    }
}

/// Builds the op array from the items, consuming them: one closure per
/// op ([`op_end`]). Returns it with the item index → pc map, defined at
/// every op's first item and at `items.len()` — all a label or a region
/// edge can name (module docs).
pub(crate) fn assemble(
    items: Vec<Lowered>,
    head: &[bool],
    labels: &[usize],
) -> (Box<[OpFn]>, Vec<usize>) {
    let mut pc_of = vec![usize::MAX; items.len() + 1];
    let mut lens = Vec::new();
    let mut i = 0;
    while i < items.len() {
        pc_of[i] = lens.len();
        let end = op_end(&items, head, i);
        lens.push(end - i);
        i = end;
    }
    pc_of[items.len()] = lens.len();
    let pc_at = |l: Label| {
        let pc = pc_of[labels[l]];
        debug_assert_ne!(pc, usize::MAX, "a bound label starts an op");
        pc
    };

    let mut items = items.into_iter();
    let op = |(pc, &len): (usize, &usize)| build_op(items.by_ref().take(len), pc + 1, &pc_at);
    (lens.iter().enumerate().map(op).collect(), pc_of)
}

/// Builds one op from its items; `next` is the pc after it. Superop
/// fusion over the run: adjacent moves collapse into one data-driven
/// closure, and moves feeding straight into a SALU site fold into *its*
/// closure — AGG's per-element triple (`t1 = cond; t2 = arg; exec`)
/// becomes a single dispatch.
fn build_op(
    items: impl Iterator<Item = Lowered>,
    next: usize,
    pc_at: &impl Fn(Label) -> usize,
) -> OpFn {
    let mut parts: Vec<LinFn> = Vec::new();
    let mut pending: Vec<(Dest, Operand)> = Vec::new();
    let mut tail = None;
    for item in items {
        match item {
            Lowered::Move(d, o) => pending.push((d, o)),
            Lowered::Ra(spec) => {
                parts.push(build_ra(prefix_of(std::mem::take(&mut pending)), spec))
            }
            Lowered::Lin(f) => {
                if !pending.is_empty() {
                    parts.push(build_moves(std::mem::take(&mut pending)));
                }
                parts.push(f);
            }
            control => tail = Some(control),
        }
    }
    if !pending.is_empty() {
        parts.push(build_moves(pending));
    }
    if parts.is_empty() {
        // A control item entered by dispatch.
        return match tail.expect("an op is not empty") {
            Lowered::Jmp(l) => {
                let t = pc_at(l);
                Box::new(move |_, _, _| Ok(t))
            }
            Lowered::Br { cond, not_taken } => {
                let nt = pc_at(not_taken);
                Box::new(move |_, p, _| Ok(if cond.read(p) == 0 { nt } else { next }))
            }
            Lowered::BrTable { table, want_hit, not_taken } => {
                let nt = pc_at(not_taken);
                Box::new(move |tp, pkt, st| {
                    let hit = apply_table(tp, table, pkt, st)?;
                    Ok(if hit != want_hit { nt } else { next })
                })
            }
            Lowered::Fail(f) => f,
            _ => unreachable!("fusable items are run parts"),
        };
    }
    let fused = compose_run(parts);
    match tail {
        None => Box::new(move |tp, p, s| {
            fused(tp, p, s)?;
            Ok(next)
        }),
        Some(Lowered::Jmp(l)) => {
            let t = pc_at(l);
            Box::new(move |tp, p, s| {
                fused(tp, p, s)?;
                Ok(t)
            })
        }
        Some(Lowered::Br { cond, not_taken }) => {
            let nt = pc_at(not_taken);
            Box::new(move |tp, p, s| {
                fused(tp, p, s)?;
                Ok(if cond.read(p) == 0 { nt } else { next })
            })
        }
        Some(_) => unreachable!("a run absorbs only a jump or a branch"),
    }
}
