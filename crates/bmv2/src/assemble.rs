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
//!   and a SALU site reads its condition and operands only after the moves
//!   fused in front of it have run. A SALU run reads its index once, after
//!   its head moves: nothing it executes after that writes a slot the
//!   index reads ([`SaluRun::takes`]).

use crate::threaded::{apply_table, run_moves, Dest, LinFn, Move, OpFn, Operand, Salu, SaluRun};

/// A branch target: an index into the lowering's label table, which holds
/// the item index each label was bound at.
pub(crate) type Label = usize;

/// One lowered statement. `Move` and `Run` stay *symbolic* so
/// [`assemble`] can fuse adjacent ones into a single closure; `Lin` is an
/// opaque fallthrough piece (still fusable into a run); the rest are
/// control items, which pick their own successor.
pub(crate) enum Lowered {
    /// A plain assignment: destination plus source operand.
    Move(Dest, Operand),
    /// A run of SALU sites (`dst = ra.execute(index)`; a single site is a
    /// run of one lane), kept symbolic so the moves in front of it fuse
    /// into it. AGG executes 32 per packet on one index, each behind the
    /// move of its condition (`rc = (t == 1); v[i] = ra_i.execute(k)`).
    Run(SaluRun),
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
        matches!(self, Lowered::Move(..) | Lowered::Run(_) | Lowered::Lin(_))
    }
}

impl SaluRun {
    /// Whether a site extends this run, `pre` the destination of the one
    /// move in front of it (if any): same microprogram, same index leaf,
    /// and neither that move nor the last lane's store writes a slot the
    /// index reads — the run reads it once, up front.
    pub(crate) fn takes(&self, salu: Salu, idx: &Operand, pre: Option<Dest>) -> bool {
        let Some((a, b, _)) = self.idx.load() else { return false };
        let last = self.lanes.last().map(|l| l.d);
        self.salu == salu
            && idx.load() == self.idx.load()
            && !pre.into_iter().chain(last).any(|d| d.slot().is_some_and(|s| s == a || s == b))
    }
}

/// The part executing moves, if there are any: a longer run loops; a
/// single move is specialized per operand kind — two direct slot
/// accesses, no expression call, for a leaf source.
fn moves_part(mut moves: Vec<Move>) -> Option<LinFn> {
    if moves.len() > 1 {
        let moves: Box<[Move]> = moves.into();
        return Some(Box::new(move |_, pkt, _| {
            run_moves(&moves, pkt);
            Ok(())
        }));
    }
    let (d, o) = moves.pop()?;
    Some(match o {
        Operand::Slot(s) => Box::new(move |_, pkt, _| {
            d.store(pkt, pkt.value(s));
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
    })
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
    let mut lens = Vec::with_capacity(items.len());
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
/// fusion over the run: adjacent moves collapse into one part, and the
/// moves in front of a SALU run become its head — AGG's 32 sites of
/// `rc = (t == 1); v[i] = ra_i.execute(k)` are one part.
fn build_op(
    items: impl Iterator<Item = Lowered>,
    next: usize,
    pc_at: &impl Fn(Label) -> usize,
) -> OpFn {
    let mut parts: Vec<LinFn> = Vec::new();
    let mut pending: Vec<Move> = Vec::new();
    let mut tail = None;
    for item in items {
        match item {
            Lowered::Move(d, o) => pending.push((d, o)),
            Lowered::Run(mut run) => {
                run.head = std::mem::take(&mut pending).into();
                parts.push(Box::new(move |_, pkt, st| {
                    run.run(pkt, st);
                    Ok(())
                }));
            }
            Lowered::Lin(f) => {
                parts.extend(moves_part(std::mem::take(&mut pending)));
                parts.push(f);
            }
            control => tail = Some(control),
        }
    }
    parts.extend(moves_part(pending));
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
