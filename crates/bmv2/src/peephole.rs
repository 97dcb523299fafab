//! Peephole optimization over the compiled op stream (ROADMAP perf item
//! #2, DESIGN.md §13).
//!
//! Two rewrites, both guarded by the differential proptest against the
//! interpreter oracle (`tests/properties.rs`):
//!
//! 1. **Compare-assign / branch fusion.** The codegen frequently emits
//!    `x = <cmp>; if (x) { ... }` as an `COp::Assign` immediately
//!    followed by a `COp::BranchExpr` whose condition is a single load of
//!    the just-assigned slot. The pair becomes one
//!    `COp::AssignBranch` that stores and branches on the stored value,
//!    saving a dispatch and a slot re-read per execution. Fusion is only
//!    legal when the branch op is not itself a jump target and the pair
//!    sits inside one region (an `apply` or an action body), since removing
//!    an op shifts every later index: all relative skips and all region
//!    spans are remapped afterwards.
//! 2. **Never-written-slot folding.** A slot that no parser layout, no
//!    statement destination, and no action parameter ever writes holds the
//!    `Packet::reset` value — zero — for the whole pipeline, so loads of it
//!    fold to constants, and a bare (meta-or-header) load whose metadata
//!    side is never written collapses to a plain header load.
//!
//! The pass runs once per program inside [`crate::compile::compile`];
//! [`crate::CompiledProgram::peephole_stats`] exposes what fired.

use crate::compile::{COp, CompiledProgram, Dest, EOp, HeaderId, Span};
use netcl_util::idx::Idx;

/// What one `optimize` run rewrote.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PeepholeStats {
    /// `Assign` + `BranchExpr` pairs fused into `COp::AssignBranch`.
    pub fused: u64,
    /// Expression loads folded (constant zero or bare→header load).
    pub folded: u64,
}

/// Runs both rewrites in place. Idempotent and infallible.
pub(crate) fn optimize(cp: &mut CompiledProgram) -> PeepholeStats {
    PeepholeStats { folded: fold_unwritten_loads(cp), fused: fuse_assign_branches(cp) }
}

/// Marks every slot the compiled pipeline can write: parser extraction
/// plans, statement destinations, and action parameter bindings.
fn written_slots(cp: &CompiledProgram) -> Vec<bool> {
    let mut written = vec![false; cp.slots.n_slots()];
    let mark = |d: Dest, written: &mut Vec<bool>| match d {
        Dest::None => {}
        Dest::Header(s, _) | Dest::Meta(s, _) => written[s.index()] = true,
    };
    for id in 0..cp.slots.n_instances() {
        if let Some(plan) = cp.slots.layout(HeaderId(id as u32)) {
            for &(slot, _) in plan {
                written[slot.index()] = true;
            }
        }
    }
    for op in &cp.cops {
        match *op {
            COp::Assign { dst, .. }
            | COp::AssignBranch { dst, .. }
            | COp::ExecRegAction { dst, .. }
            | COp::HashGet { dst, .. }
            | COp::ExternCall { dst, .. } => mark(dst, &mut written),
            _ => {}
        }
    }
    for a in &cp.actions {
        for &(slot, _) in &a.params {
            written[slot.index()] = true;
        }
    }
    written
}

/// Rewrite 2: folds loads of never-written slots. Safe because
/// `Packet::reset` zeroes every interned slot value and clears every
/// metadata presence bit at pipeline entry, and the lowered op stream only
/// writes slots through the sites `written_slots` scans.
fn fold_unwritten_loads(cp: &mut CompiledProgram) -> u64 {
    let written = written_slots(cp);
    let mut folded = 0u64;
    for op in &mut cp.eops {
        match *op {
            EOp::Load(s, w) if !written[s.index()] => {
                *op = EOp::Const(0, w);
                folded += 1;
            }
            EOp::LoadBare { meta, hdr, width } if !written[meta.index()] => {
                // The metadata side can never become present, so the bare
                // load always reads the header slot.
                *op =
                    if written[hdr.index()] { EOp::Load(hdr, width) } else { EOp::Const(0, width) };
                folded += 1;
            }
            _ => {}
        }
    }
    folded
}

/// Whether a branch condition is exactly one load of the assigned slot —
/// i.e. the branch re-reads what the assign just stored.
fn cond_reloads_dst(dst: Dest, cond: EOp) -> bool {
    match (dst, cond) {
        (Dest::Header(s, _) | Dest::Meta(s, _), EOp::Load(l, _)) => s == l,
        // A bare load resolves to the meta slot once the assign has set its
        // presence bit.
        (Dest::Meta(s, _), EOp::LoadBare { meta, .. }) => s == meta,
        _ => false,
    }
}

/// Rewrite 1: fuses eligible `Assign` + `BranchExpr` pairs, then remaps
/// every relative skip and region span across the deleted ops.
fn fuse_assign_branches(cp: &mut CompiledProgram) -> u64 {
    let n = cp.cops.len();
    if n < 2 {
        return 0;
    }

    // Which ops are branch/jump targets (fusing a target would reroute the
    // jump into different code), and which region each op belongs to (a
    // fused pair must not straddle an apply/action boundary).
    let mut is_target = vec![false; n];
    for (q, op) in cp.cops.iter().enumerate() {
        let skip = match *op {
            COp::BranchExpr { else_skip, .. }
            | COp::BranchTable { else_skip, .. }
            | COp::AssignBranch { else_skip, .. }
            | COp::Jump(else_skip) => else_skip,
            _ => continue,
        };
        let t = q + skip as usize + 1;
        if t < n {
            is_target[t] = true;
        }
    }
    let mut region_of = vec![u32::MAX; n];
    let regions: Vec<Span> =
        cp.applies.iter().copied().chain(cp.actions.iter().map(|a| a.body)).collect();
    for (r, span) in regions.iter().enumerate() {
        for slot in &mut region_of[span.start as usize..(span.start + span.len) as usize] {
            *slot = r as u32;
        }
    }

    let mut fuse_at = vec![false; n];
    let mut delete = vec![false; n];
    let mut fused = 0u64;
    for p in 0..n - 1 {
        if delete[p] || is_target[p + 1] || region_of[p] == u32::MAX {
            continue;
        }
        if region_of[p] != region_of[p + 1] {
            continue;
        }
        let (COp::Assign { dst, .. }, COp::BranchExpr { cond, .. }) = (cp.cops[p], cp.cops[p + 1])
        else {
            continue;
        };
        if cond.len == 1 && cond_reloads_dst(dst, cp.eops[cond.start as usize]) {
            fuse_at[p] = true;
            delete[p + 1] = true;
            fused += 1;
        }
    }
    if fused == 0 {
        return 0;
    }

    // New index of each old op (deleted ops map to the next kept one);
    // `new_pos[n]` caps region-end targets.
    let mut new_pos = vec![0u32; n + 1];
    let mut kept = 0u32;
    for i in 0..n {
        new_pos[i] = kept;
        if !delete[i] {
            kept += 1;
        }
    }
    new_pos[n] = kept;

    let remap = |old_idx: usize, skip: u32| -> u32 {
        let t = old_idx + skip as usize + 1;
        new_pos[t] - new_pos[old_idx] - 1
    };
    let mut out = Vec::with_capacity(kept as usize);
    for i in 0..n {
        if delete[i] {
            continue;
        }
        let op = cp.cops[i];
        out.push(if fuse_at[i] {
            let COp::Assign { dst, expr } = op else { unreachable!("fusion marks assigns only") };
            let COp::BranchExpr { else_skip, .. } = cp.cops[i + 1] else {
                unreachable!("fusion deletes branches only")
            };
            // The branch lived at i+1, targeting i + else_skip + 2; the
            // fused op at i reaches the same target with skip + 1.
            COp::AssignBranch { dst, expr, else_skip: remap(i, else_skip + 1) }
        } else {
            match op {
                COp::BranchExpr { cond, else_skip } => {
                    COp::BranchExpr { cond, else_skip: remap(i, else_skip) }
                }
                COp::BranchTable { table, want_hit, else_skip } => {
                    COp::BranchTable { table, want_hit, else_skip: remap(i, else_skip) }
                }
                COp::AssignBranch { dst, expr, else_skip } => {
                    COp::AssignBranch { dst, expr, else_skip: remap(i, else_skip) }
                }
                COp::Jump(skip) => COp::Jump(remap(i, skip)),
                other => other,
            }
        });
    }
    cp.cops = out;
    for span in cp.applies.iter_mut().chain(cp.actions.iter_mut().map(|a| &mut a.body)) {
        let s = span.start as usize;
        let e = s + span.len as usize;
        span.start = new_pos[s];
        span.len = new_pos[e] - new_pos[s];
    }
    fused
}

#[cfg(test)]
mod tests {
    use crate::switch::{Engine, Switch};
    use netcl_p4::ast::*;

    /// `flag = (h.a == 5); if (flag) b = 1 else b = 2` — the canonical
    /// compare-assign + branch shape, plus a never-written local feeding an
    /// expression.
    fn program() -> P4Program {
        P4Program {
            name: "peep".into(),
            target: Target::V1Model,
            headers: vec![HeaderDef {
                name: "h_t".into(),
                fields: vec![("a".into(), 16), ("b".into(), 16)],
                stack: 1,
            }],
            parser: Some(ParserDef {
                name: "P".into(),
                states: vec![ParserState {
                    name: "start".into(),
                    extracts: vec!["hdr.h".into()],
                    transition: Transition::Accept,
                }],
            }),
            controls: vec![ControlDef {
                name: "Ig".into(),
                locals: vec![("flag".into(), 8), ("unused".into(), 16)],
                registers: vec![],
                register_actions: vec![],
                hashes: vec![],
                actions: vec![],
                tables: vec![],
                apply: vec![
                    Stmt::Assign(
                        Expr::field(&["meta", "flag"]),
                        Expr::Bin(
                            P4BinOp::Eq,
                            Box::new(Expr::field(&["hdr", "h", "a"])),
                            Box::new(Expr::val(5, 16)),
                        ),
                    ),
                    Stmt::If {
                        cond: Expr::field(&["meta", "flag"]),
                        then: vec![Stmt::Assign(Expr::field(&["hdr", "h", "b"]), Expr::val(1, 16))],
                        els: vec![Stmt::Assign(
                            Expr::field(&["hdr", "h", "b"]),
                            // `unused` is never written: folds to 0.
                            Expr::Bin(
                                P4BinOp::Add,
                                Box::new(Expr::field(&["unused"])),
                                Box::new(Expr::val(2, 16)),
                            ),
                        )],
                    },
                ],
            }],
        }
    }

    fn wire(a: u16, b: u16) -> Vec<u8> {
        vec![(a >> 8) as u8, a as u8, (b >> 8) as u8, b as u8]
    }

    #[test]
    fn fuses_and_folds_without_changing_behavior() {
        let mut fast = Switch::new(program());
        let stats = fast.compiled().peephole_stats();
        assert!(stats.fused >= 1, "compare-assign + branch should fuse: {stats:?}");
        assert!(stats.folded >= 1, "never-written `unused` load should fold: {stats:?}");

        let mut oracle = Switch::new(program());
        oracle.set_engine(Engine::Interpreted);
        for a in [5u16, 6, 0, 0xFFFF] {
            let (_, fo) = fast.process(&wire(a, 9)).unwrap();
            let (_, oo) = oracle.process(&wire(a, 9)).unwrap();
            assert_eq!(fo, oo, "a={a}: peephole changed behavior");
            let want = if a == 5 { 1 } else { 2 };
            assert_eq!(fo, wire(a, want), "a={a}");
        }
    }

    /// Fusion must not fire when the branch condition reads a *different*
    /// slot than the assign writes.
    #[test]
    fn unrelated_branch_not_fused() {
        let mut p = program();
        // Branch on h.a instead of the assigned flag.
        if let Stmt::If { cond, .. } = &mut p.controls[0].apply[1] {
            *cond = Expr::field(&["hdr", "h", "a"]);
        }
        let sw = Switch::new(p);
        assert_eq!(sw.compiled().peephole_stats().fused, 0);
    }
}
