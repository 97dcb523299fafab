//! The formulations `dce` and `cfg::simplify` replaced, kept as oracles
//! (DESIGN.md §4): the whole-function liveness fixpoint over a hash set, and
//! the straight-line merger that recomputed reachability and predecessors
//! after every single merge. On the shipped applications' kernels — at every
//! point the common stage calls the two passes — and on random straight-line
//! and diamond CFGs, the worklist DCE must keep exactly the instructions the
//! fixpoint keeps and report the same `changed`, and one `cfg::simplify`
//! call must reach the CFG the restart-per-merge version reaches.

use netcl::ir::dom::reverse_postorder;
use netcl::ir::func::{ActionRef, BlockId, FuncBuilder, Function, InstKind, Terminator, ValueId};
use netcl::ir::print::print_function;
use netcl::ir::types::{IcmpPred, IrBinOp, IrTy, Operand};
use netcl::passes::{cfg, dce, fold, mem2reg};
use netcl_apps::{agg, cache, calc, paxos};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

// ---- the old DCE --------------------------------------------------------

fn old_dce(f: &mut Function) -> bool {
    let mut changed = old_remove_unreachable_blocks(f);
    let mut used: HashSet<ValueId> = HashSet::new();
    loop {
        let mut grew = false;
        for b in f.blocks.iter() {
            for inst in &b.insts {
                if inst.kind.has_side_effects() || inst.results.iter().any(|r| used.contains(r)) {
                    inst.kind.for_each_operand(|op| {
                        if let Operand::Value(v) = op {
                            grew |= used.insert(v);
                        }
                    });
                }
            }
            match &b.term {
                Terminator::CondBr { cond: Operand::Value(v), .. } => grew |= used.insert(*v),
                Terminator::Ret(ActionRef { target: Some(Operand::Value(v)), .. }) => {
                    grew |= used.insert(*v)
                }
                _ => {}
            }
        }
        if !grew {
            break;
        }
    }
    for b in f.blocks.iter_mut() {
        let before = b.insts.len();
        b.insts.retain(|inst| {
            inst.kind.has_side_effects() || inst.results.iter().any(|r| used.contains(r))
        });
        changed |= b.insts.len() != before;
    }
    changed
}

fn old_remove_unreachable_blocks(f: &mut Function) -> bool {
    let reachable: HashSet<_> = reverse_postorder(f).into_iter().collect();
    if reachable.len() == f.blocks.len() {
        return false;
    }
    let mut changed = false;
    for bid in f.blocks.indices() {
        let b = &mut f.blocks[bid];
        if !reachable.contains(&bid) {
            if !b.insts.is_empty() || !matches!(b.term, Terminator::Br(x) if x == bid) {
                b.insts.clear();
                b.term = Terminator::Br(bid);
                changed = true;
            }
            continue;
        }
        for inst in &mut b.insts {
            if let InstKind::Phi { incoming } = &mut inst.kind {
                let before = incoming.len();
                incoming.retain(|(p, _)| reachable.contains(p));
                changed |= incoming.len() != before;
            }
        }
    }
    changed
}

// ---- the old CFG simplification -----------------------------------------

fn old_simplify(f: &mut Function) -> bool {
    let mut changed = false;
    for b in f.blocks.iter_mut() {
        if let Terminator::CondBr { then_bb, else_bb, .. } = b.term {
            if then_bb == else_bb {
                b.term = Terminator::Br(then_bb);
                changed = true;
            }
        }
    }
    changed |= old_thread_empty_blocks(f);
    changed |= old_merge_straight_lines(f);
    changed
}

fn has_phis(f: &Function, b: BlockId) -> bool {
    f.blocks[b].insts.iter().any(|i| matches!(i.kind, InstKind::Phi { .. }))
}

fn old_thread_empty_blocks(f: &mut Function) -> bool {
    let mut forward: HashMap<BlockId, BlockId> = HashMap::new();
    for (bid, b) in f.blocks.iter_enumerated() {
        if let (true, Terminator::Br(t)) = (b.insts.is_empty(), &b.term) {
            if *t != bid && !has_phis(f, *t) {
                forward.insert(bid, *t);
            }
        }
    }
    let resolve = |mut b: BlockId| {
        for _ in 0..forward.len() + 1 {
            match forward.get(&b) {
                Some(&n) if n != b => b = n,
                _ => break,
            }
        }
        b
    };
    let mut changed = false;
    for b in f.blocks.iter_mut() {
        let targets: Vec<&mut BlockId> = match &mut b.term {
            Terminator::Br(t) => vec![t],
            Terminator::CondBr { then_bb, else_bb, .. } => vec![then_bb, else_bb],
            _ => vec![],
        };
        for t in targets {
            let n = resolve(*t);
            changed |= n != *t;
            *t = n;
        }
    }
    changed
}

/// Merges one `a → b` pair, then recomputes everything and starts over.
fn old_merge_straight_lines(f: &mut Function) -> bool {
    let mut changed = false;
    'restart: loop {
        let reachable: HashSet<BlockId> = reverse_postorder(f).into_iter().collect();
        let preds = f.predecessors();
        for a in f.blocks.indices() {
            let Terminator::Br(b) = f.blocks[a].term else { continue };
            let live_preds = preds[b].iter().filter(|p| reachable.contains(p)).count();
            if !reachable.contains(&a)
                || b == a
                || live_preds != 1
                || b == f.entry
                || has_phis(f, b)
            {
                continue;
            }
            let mut b_insts = std::mem::take(&mut f.blocks[b].insts);
            let b_term = std::mem::replace(&mut f.blocks[b].term, Terminator::Br(b));
            f.blocks[a].insts.append(&mut b_insts);
            f.blocks[a].term = b_term;
            for s in f.blocks[a].term.successors() {
                for inst in &mut f.blocks[s].insts {
                    if let InstKind::Phi { incoming } = &mut inst.kind {
                        for (p, _) in incoming {
                            if *p == b {
                                *p = a;
                            }
                        }
                    }
                }
            }
            changed = true;
            continue 'restart;
        }
        return changed;
    }
}

// ---- the differentials --------------------------------------------------

/// Runs the production pass and its oracle on copies of `f`, requires the
/// same function and the same `changed`, and leaves the result in `f`.
fn differential(
    f: &mut Function,
    what: &str,
    new: fn(&mut Function) -> bool,
    old: fn(&mut Function) -> bool,
) -> bool {
    let mut want = f.clone();
    let (changed, want_changed) = (new(f), old(&mut want));
    assert_eq!(print_function(f), print_function(&want), "{what} on {}", f.name);
    assert_eq!(changed, want_changed, "{what} `changed` on {}", f.name);
    changed
}

fn dce_checked(f: &mut Function) -> bool {
    let changed = differential(f, "dce", dce::run_on_function, old_dce);
    // One call is the fixpoint.
    let settled = print_function(f);
    assert!(!dce::run_on_function(f), "dce is not idempotent on {}", f.name);
    assert_eq!(print_function(f), settled, "dce is not idempotent on {}", f.name);
    changed
}

fn simplify_checked(f: &mut Function) -> bool {
    differential(f, "cfg-simplify", cfg::simplify, old_simplify)
}

/// The common stage (`netcl_passes::run_common_stage`), with every `dce`
/// and `cfg-simplify` call checked against its oracle.
fn common_stage_checked(f: &mut Function) {
    for _ in 0..4 {
        let mut changed = fold::fold_function(f);
        changed |= fold::strength_reduce(f) > 0;
        changed |= dce_checked(f);
        changed |= simplify_checked(f);
        if !changed {
            break;
        }
    }
    cfg::check_dag(f).expect("the kernel is a DAG");
    mem2reg::run_on_function(f);
    for _ in 0..4 {
        let mut changed = fold::fold_function(f);
        changed |= dce_checked(f);
        changed |= simplify_checked(f);
        if !changed {
            break;
        }
    }
}

fn check_kernels_of(name: &str, source: &str) {
    let (parsed, mut diags) = netcl::lang::parse(name, source);
    let (analysis, sema_diags) = netcl::sema::analyze(&parsed);
    diags.absorb(sema_diags);
    assert!(!diags.has_errors(), "{name}: {}", diags.render_all(&parsed.source_map));
    for dev in analysis.model.mentioned_devices() {
        let mut module = netcl::lower::lower_device(&parsed, &analysis, dev, &mut diags);
        module.kernels.iter_mut().for_each(common_stage_checked);
    }
}

#[test]
fn shipped_kernels_through_the_common_stage() {
    check_kernels_of("calc.ncl", &calc::netcl_source());
    check_kernels_of("paxos.ncl", &paxos::full_source());
    // The one-kernel shapes of `compile_fleet`'s four families.
    check_kernels_of(
        "arith.ncl",
        "_kernel(1) _at(1) void arith(unsigned a, unsigned b, unsigned &r) {\n\
         \x20 r = (a + 77) ^ (b ^ 1234);\n}\n",
    );
    check_kernels_of(
        "thresh.ncl",
        "_net_ unsigned seq[65536];\n\
         _kernel(1) _at(1) void acc(unsigned inst, unsigned rnd, unsigned &o) {\n\
         \x20 unsigned cur = ncl::atomic_sadd_new(&seq[ncl::crc16(inst)], rnd);\n\
         \x20 o = cur > 99 ? cur : 0;\n}\n",
    );
    check_kernels_of(
        "lookup.ncl",
        "_net_ _lookup_ ncl::kv<unsigned, unsigned> t[] = {{1,5}, {2,6}, {3,7}, {4,8}};\n\
         _kernel(1) _at(1) void get(char op, unsigned k, unsigned &v, char &hit) {\n\
         \x20 if (op == 1) {\n\
         \x20   hit = ncl::lookup(t, k, v);\n\
         \x20   if (hit) return ncl::reflect();\n\
         \x20 }\n}\n",
    );
}

/// A seeded function over a handful of CFG shapes: a chain of blocks (some
/// empty, so threading and merging both fire), a diamond whose join may
/// carry a φ, a condbr with both arms on one block, and a block nothing
/// reaches. Blocks get random arithmetic over earlier values; some of it
/// feeds an argument write or the branch condition, the rest is dead.
fn random_function(seed: u64) -> Function {
    let mut state = seed;
    let mut next = move |bound: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut b = FuncBuilder::new("random", 1);
    let x = b.add_arg("x", IrTy::I32, 1, false);
    let out = b.add_arg("o", IrTy::I32, 4, true);
    let zero = Operand::imm(0, IrTy::I32);
    let seed_value = b.emit(InstKind::ArgRead { arg: x, index: zero }, IrTy::I32).expect("a value");
    // Values usable from here on (defined in a block every later one
    // follows).
    let mut live: Vec<Operand> = vec![Operand::Value(seed_value), Operand::imm(7, IrTy::I32)];
    let mut fill = |b: &mut FuncBuilder, live: &mut Vec<Operand>, keep: bool| {
        for _ in 0..next(5) {
            let ops = [IrBinOp::Add, IrBinOp::Xor, IrBinOp::And];
            let (l, r) =
                (live[next(live.len() as u64) as usize], live[next(live.len() as u64) as usize]);
            let v = b.bin(ops[next(3) as usize], l, r, IrTy::I32);
            if keep {
                live.push(v);
            }
            if next(4) == 0 {
                let index = Operand::imm(next(4), IrTy::I32);
                b.emit(InstKind::ArgWrite { arg: out, index, value: v }, IrTy::I32);
            }
        }
        next(6)
    };
    let shape = fill(&mut b, &mut live, true);
    match shape {
        // A chain: entry → c0 → c1 → … → ret.
        0 | 1 => {
            for _ in 0..=fill(&mut b, &mut live, true) {
                let blk = b.new_block();
                b.terminate(Terminator::Br(blk));
                b.switch_to(blk);
                fill(&mut b, &mut live, true);
            }
        }
        // A diamond, its arms possibly empty, its join possibly with a φ.
        2..=4 => {
            let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
            let cond = b.icmp(IcmpPred::Eq, live[0], live[1]);
            let else_bb = if shape == 4 { t } else { e };
            b.terminate(Terminator::CondBr { cond, then_bb: t, else_bb });
            let mut arm = |b: &mut FuncBuilder, blk| {
                b.switch_to(blk);
                let mut local = live.clone();
                fill(b, &mut local, true);
                b.terminate(Terminator::Br(j));
                *local.last().expect("never empty")
            };
            let (vt, ve) = (arm(&mut b, t), arm(&mut b, e));
            b.switch_to(j);
            if shape == 3 {
                let phi = InstKind::Phi { incoming: vec![(t, vt), (e, ve)] };
                let v = b.emit(phi, IrTy::I32).expect("a value");
                let index = Operand::imm(1, IrTy::I32);
                b.emit(InstKind::ArgWrite { arg: out, index, value: Operand::Value(v) }, IrTy::I32);
            }
            fill(&mut b, &mut live, true);
        }
        // A block nothing reaches, with instructions of its own.
        _ => {
            let dead = b.new_block();
            let after = b.new_block();
            b.terminate(Terminator::Br(after));
            b.switch_to(dead);
            fill(&mut b, &mut live.clone(), false);
            b.terminate(Terminator::Br(after));
            b.switch_to(after);
            fill(&mut b, &mut live, true);
        }
    }
    b.terminate(Terminator::Ret(ActionRef::pass()));
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_cfgs(seed in any::<u64>()) {
        let mut f = random_function(seed);
        // In either order, then to a joint fixpoint as the pipeline does.
        if seed % 2 == 0 {
            simplify_checked(&mut f);
        }
        for _ in 0..4 {
            let mut changed = dce_checked(&mut f);
            changed |= simplify_checked(&mut f);
            if !changed {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// AGG and CACHE across the configuration grids `compile_fleet` walks.
    #[test]
    fn fleet_grids(workers in 2u32..9, i in 0usize..3, j in 0usize..3, k in 0usize..3) {
        let cfg = agg::AggConfig {
            num_workers: workers,
            num_slots: [8, 16, 32][i],
            slot_size: [8, 16, 32][j],
        };
        check_kernels_of("agg.ncl", &agg::netcl_source(&cfg));
        let cfg = cache::CacheConfig {
            slots: [16, 64, 256][i],
            words: [2, 4, 8][j],
            threshold: 64,
            sketch_cols: [256, 1024, 4096][k],
        };
        check_kernels_of("cache.ncl", &cache::netcl_source(&cfg));
    }
}
