//! Stage-local memory violation checks (§V-D, §VI-B).
//!
//! Tofino stateful memory lives on exactly one hardware stage, which imposes
//! two program-level rules the compiler must enforce:
//!
//! 1. **Single access per object** — "no global memory object may be
//!    accessed more than once, unless accesses are mutually exclusive".
//!    Two accesses on one execution path can never share the one SALU
//!    execution the stage offers. Additionally, mutually-exclusive accesses
//!    that sit too far apart in the CFG may still be unplaceable on a
//!    common stage; the paper approximates "too far apart" by the
//!    difference in the minimum number of conditional branches from the
//!    entry, rejected beyond a threshold.
//! 2. **Consistent access order** — "for any two accesses to different
//!    global memory objects, we check that their relative order is the same
//!    in all CFG paths." Reorderable violations (independent accesses in
//!    the same block) are fixed by reordering; the rest abort compilation.
//!    Unlike Lucid, declaration order is not assumed to be intended order.

use netcl_ir::dom::min_branch_depth;
use netcl_ir::func::{BlockId, Function, GlobalDef, Inst, InstKind, MemId, Module};
use netcl_ir::types::Operand;
use netcl_util::bitset::BitSet;
use netcl_util::idx::Idx;
use netcl_util::{DiagnosticSink, Span};

/// How many conditional levels apart two mutually-exclusive accesses to one
/// object may be and still share its stage.
pub(crate) const DISTANCE_THRESHOLD: u32 = 10;

/// Checks every kernel in the module; diagnostics `E0302` (multiple
/// non-exclusive accesses), `E0303` (distance), `E0304` (order violation),
/// each kind in object order.
pub(crate) fn check_module(module: &mut Module, diags: &mut DiagnosticSink) {
    // Lookup tables after duplication have one access each and MATs are not
    // SALU-bound in the same way; register objects are what we check.
    let Module { globals, kernels, .. } = module;
    for f in kernels.iter_mut() {
        check_function(f, globals, diags);
    }
}

/// One global-memory access site.
#[derive(Clone, Copy, Debug)]
struct Access {
    mem: MemId,
    block: BlockId,
    inst: usize,
}

fn collect_accesses(f: &Function) -> Vec<Access> {
    let mut out = Vec::new();
    for (bid, b) in f.blocks.iter_enumerated() {
        for (i, inst) in b.insts.iter().enumerate() {
            // MATs are stage-local objects too: multiple applications of one
            // table need the duplication pass (which runs before this check
            // and gives each access site its own copy).
            if let Some(mem) = inst.kind.touches_global() {
                out.push(Access { mem, block: bid, inst: i });
            }
        }
    }
    out
}

/// Block-level reachability on the (DAG) CFG, one bit row per block: row
/// `a` holds every block reachable from `a` via ≥1 edge.
struct Reach {
    words: usize,
    rows: Vec<u64>,
}

impl Reach {
    fn new(f: &Function) -> Reach {
        let n = f.blocks.len();
        let words = n.div_ceil(64);
        let mut rows = vec![0u64; n * words];
        // In postorder, so a DAG's successors are done before their
        // predecessors.
        for b in netcl_ir::dom::reverse_postorder(f).into_iter().rev() {
            let row = b.index() * words;
            for s in f.blocks[b].term.successors().map(|s| s.index()).filter(|&s| s < n) {
                rows[row + s / 64] |= 1 << (s % 64);
                for w in 0..words {
                    rows[row + w] |= rows[s * words + w];
                }
            }
        }
        Reach { words, rows }
    }

    fn contains(&self, from: BlockId, to: BlockId) -> bool {
        let (from, to) = (from.index(), to.index());
        self.rows[from * self.words + to / 64] >> (to % 64) & 1 == 1
    }
}

fn check_function(f: &mut Function, globals: &[GlobalDef], diags: &mut DiagnosticSink) {
    let mut accesses = collect_accesses(f);
    let reach = Reach::new(f);
    let depth = min_branch_depth(f);
    let same_path = |(a, b): &(Access, Access)| {
        a.block == b.block || reach.contains(a.block, b.block) || reach.contains(b.block, a.block)
    };

    // Rule 1: per-object multiple access, object by object.
    accesses.sort_by_key(|a| a.mem);
    for sites in accesses.chunk_by(|a, b| a.mem == b.mem) {
        let name = || mem_name(globals, sites[0].mem);
        let pairs = sites
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| sites[i + 1..].iter().map(move |&b| (a, b)));
        if pairs.clone().any(|pair| same_path(&pair)) {
            diags.error(
                "E0302",
                format!(
                    "kernel `{}`: global memory object `{}` is accessed more than once on one \
                     execution path; Tofino registers are stage-local, so accesses must be \
                     mutually exclusive (§V-D)",
                    f.name,
                    name()
                ),
                Span::DUMMY,
            );
        }
        // Mutually exclusive: approximate-distance check.
        for (a, b) in pairs.filter(|pair| !same_path(pair)) {
            let dist = depth[a.block].abs_diff(depth[b.block]);
            if dist > DISTANCE_THRESHOLD {
                diags.error(
                    "E0303",
                    format!(
                        "kernel `{}`: mutually-exclusive accesses to `{}` are {dist} \
                         conditional levels apart (threshold {DISTANCE_THRESHOLD}); they cannot \
                         be placed on a single stage (§VI-B)",
                        f.name,
                        name()
                    ),
                    Span::DUMMY,
                );
            }
        }
    }

    // Rule 2: cross-object order. First try to repair same-block disorder by
    // reordering independent accesses into a canonical global order.
    canonical_reorder(f, globals.len());
    let accesses = collect_accesses(f);

    // Bit `x * n + y` ⇔ some path has an X-access preceding a Y-access.
    let n = globals.len();
    let mut before = BitSet::new(n * n);
    for a in &accesses {
        for b in accesses.iter().filter(|b| b.mem != a.mem) {
            if (a.block == b.block && a.inst < b.inst) || reach.contains(a.block, b.block) {
                before.insert(a.mem.index() * n + b.mem.index());
            }
        }
    }
    for xy in before.iter() {
        let (x, y) = (xy / n, xy % n);
        if x < y && before.contains(y * n + x) {
            diags.error(
                "E0304",
                format!(
                    "kernel `{}`: `{}` and `{}` are accessed in different orders on different \
                     paths and the accesses cannot be reordered; stage assignment is impossible \
                     (§V-D)",
                    f.name,
                    mem_name(globals, MemId::from_usize(x)),
                    mem_name(globals, MemId::from_usize(y))
                ),
                Span::DUMMY,
            );
        }
    }
}

/// An object's name as declared: a partition copy is its source array's
/// slice, a duplicated lookup table its source table.
fn mem_name(globals: &[GlobalDef], mem: MemId) -> String {
    let g = &globals[mem.index()];
    match &g.origin {
        Some((base, i)) if !g.lookup => format!("{base}[{i}]"),
        Some((base, _)) => base.clone(),
        None => g.name.clone(),
    }
}

/// Where `latest` points when it points into block `bid`; it then moves to
/// instruction `i` of `bid`.
fn chain(latest: &mut (BlockId, usize), bid: BlockId, i: usize) -> Option<usize> {
    let prev = (latest.0 == bid).then_some(latest.1);
    *latest = (bid, i);
    prev
}

/// Reorders each block's global accesses into ascending [`MemId`] order
/// where dependencies allow — the §VI-B "can be reordered" repair for
/// patterns like `x = m1[0] + m2[x]` vs `x = m2[x] + m1[0]` in sibling
/// branches. Implemented as a list scheduler: an instruction is ready when
/// every instruction it depends on (data flow, same-object memory order,
/// same-argument message order, same-slot local order) has been emitted;
/// among ready instructions, global accesses with the smallest `MemId` go
/// first, and pure instructions are emitted lazily when needed.
fn canonical_reorder(f: &mut Function, globals: usize) {
    // Each value's definition and each object's, argument's and slot's
    // latest access, as (block, index) — dense over the whole function, so
    // a site counts only when it is in the block being scheduled.
    let none = (BlockId(u32::MAX), 0);
    let mut def_site = vec![none; f.values.len()];
    let mut last_mem = vec![none; globals];
    let mut last_arg = vec![none; f.args.len()];
    let mut last_local = vec![none; f.locals.len()];
    // Instruction i's dependencies are `dep_list[dep_start[i]..dep_start[i + 1]]`.
    let (mut dep_start, mut dep_list) = (Vec::new(), Vec::new());
    let (mut key, mut emitted, mut order) = (Vec::new(), Vec::new(), Vec::new());
    for (bid, b) in f.blocks.indices().zip(f.blocks.iter_mut()) {
        let n = b.insts.len();
        if n < 2 {
            continue;
        }
        dep_start.clear();
        dep_list.clear();
        for (i, inst) in b.insts.iter().enumerate() {
            dep_start.push(dep_list.len());
            inst.kind.for_each_operand(|op| {
                if let Operand::Value(v) = op {
                    dep_list.extend(def_site.get(v.index()).filter(|s| s.0 == bid).map(|s| s.1));
                }
            });
            if let Some(m) = inst.kind.touches_global() {
                dep_list.extend(chain(&mut last_mem[m.index()], bid, i));
            }
            match inst.kind {
                InstKind::ArgRead { arg, .. } | InstKind::ArgWrite { arg, .. } => {
                    dep_list.extend(chain(&mut last_arg[arg as usize], bid, i));
                }
                InstKind::LocalLoad { slot, .. } | InstKind::LocalStore { slot, .. } => {
                    dep_list.extend(chain(&mut last_local[slot.index()], bid, i));
                }
                _ => {}
            }
            for &r in &inst.results {
                def_site[r.index()] = (bid, i);
            }
        }
        dep_start.push(dep_list.len());
        let deps = |i: usize| &dep_list[dep_start[i]..dep_start[i + 1]];
        // Priority: a global access keys on its MemId; a pure instruction
        // inherits the smallest key among its (transitive) consumers, so the
        // operands feeding an early-MemId access are scheduled before
        // later-MemId accesses become attractive. Dependencies always point
        // to earlier indices, so one reverse pass propagates transitively.
        key.clear();
        key.extend(
            b.insts.iter().map(|i| i.kind.touches_global().map_or(usize::MAX, |m| m.index())),
        );
        for i in (0..n).rev() {
            for &d in deps(i) {
                key[d] = key[d].min(key[i]);
            }
        }
        // List-schedule by (key, original index) among ready instructions.
        emitted.clear();
        emitted.resize(n, false);
        order.clear();
        while order.len() < n {
            let ready = (0..n).filter(|&i| !emitted[i] && deps(i).iter().all(|&d| emitted[d]));
            let Some(i) = ready.min_by_key(|&i| (key[i], i)) else { break };
            emitted[i] = true;
            order.push(i);
        }
        if order.len() == n && order.iter().enumerate().any(|(k, &i)| k != i) {
            let mut insts: Vec<Option<Inst>> =
                std::mem::take(&mut b.insts).into_iter().map(Some).collect();
            b.insts = order.iter().filter_map(|&i| insts[i].take()).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_ir::func::{ActionRef, FuncBuilder, MemRef, Terminator};
    use netcl_ir::types::{IrTy, Operand as Op};
    use netcl_ir::GlobalDef;

    fn global(name: &str) -> GlobalDef {
        GlobalDef {
            name: name.into(),
            ty: IrTy::I32,
            dims: vec![42],
            managed: false,
            lookup: false,
            entries: vec![],
            origin: None,
        }
    }

    fn read(mem: u32, idx: u64) -> InstKind {
        read_at(mem, Op::imm(idx, IrTy::I32))
    }

    fn read_at(mem: u32, index: Op) -> InstKind {
        InstKind::MemRead { mem: MemRef { mem: MemId(mem), indices: [index].into() } }
    }

    fn check(m: &mut Module) -> DiagnosticSink {
        let mut d = DiagnosticSink::new();
        check_module(m, &mut d);
        d
    }

    /// Each diagnostic's code and the objects it names, in emission order.
    fn reported(d: &DiagnosticSink) -> Vec<(&str, Vec<&str>)> {
        d.diagnostics()
            .iter()
            .map(|d| (d.code, d.message.split('`').skip(3).step_by(2).collect()))
            .collect()
    }

    /// §V-D kernel `a`: `x = m[0] + m[1]` — invalid; a third access adds no
    /// second error.
    #[test]
    fn same_path_double_access_rejected() {
        let mut b = FuncBuilder::new("a", 2);
        let out = b.add_arg("x", IrTy::I32, 1, true);
        let v0 = b.emit(read(0, 0), IrTy::I32).unwrap();
        let v1 = b.emit(read(0, 1), IrTy::I32).unwrap();
        b.emit(read(0, 2), IrTy::I32);
        let s = b.bin(netcl_ir::types::IrBinOp::Add, Op::Value(v0), Op::Value(v1), IrTy::I32);
        b.emit(InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: s }, IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m =
            Module { name: "t".into(), globals: vec![global("m")], kernels: vec![b.finish()] };
        let d = check(&mut m);
        assert_eq!(reported(&d), [("E0302", vec!["m"])]);
    }

    /// Rule 1 reports object by object in `MemId` order, once per object,
    /// under the declared name (a partition copy as its source's slice),
    /// whatever order the accesses come in.
    #[test]
    fn rule_one_reports_each_object_once_in_object_order() {
        let mut b = FuncBuilder::new("k", 1);
        for mem in [2, 2, 0, 1, 0, 1, 0] {
            b.emit(read(mem, 0), IrTy::I32);
        }
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let slice = GlobalDef { origin: Some(("bmp".into(), 1)), ..global("bmp__1") };
        let globals = vec![global("c"), global("a"), slice];
        let mut m = Module { name: "t".into(), globals, kernels: vec![b.finish()] };
        let d = check(&mut m);
        let want = [("E0302", vec!["c"]), ("E0302", vec!["a"]), ("E0302", vec!["bmp[1]"])];
        assert_eq!(reported(&d), want);
    }

    /// §V-D kernel `b`: `x = (x > 10) ? m[0] : m[1]` — valid (branches).
    #[test]
    fn mutually_exclusive_access_accepted() {
        let mut b = FuncBuilder::new("b", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.emit(read(0, 0), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.emit(read(0, 1), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m =
            Module { name: "t".into(), globals: vec![global("m")], kernels: vec![b.finish()] };
        let d = check(&mut m);
        assert!(!d.has_errors(), "{:?}", d.diagnostics());
    }

    /// Mutually exclusive but at very different branch depths → E0303.
    #[test]
    fn distant_exclusive_access_rejected() {
        let mut b = FuncBuilder::new("c", 3);
        // Chain of nested conditionals on one side.
        let shallow = b.new_block();
        let mut deep = b.func.entry;
        // entry branches to shallow / d1; d1 → d2 … each is another level.
        let mut levels = Vec::new();
        for _ in 0..DISTANCE_THRESHOLD + 2 {
            let next = b.new_block();
            let other = b.new_block();
            b.switch_to(deep);
            b.terminate(Terminator::CondBr {
                cond: Op::imm(1, IrTy::I1),
                then_bb: next,
                else_bb: if levels.is_empty() { shallow } else { other },
            });
            b.switch_to(other);
            b.terminate(Terminator::Ret(ActionRef::pass()));
            levels.push(next);
            deep = next;
        }
        b.switch_to(shallow);
        b.emit(read(0, 0), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(deep);
        b.emit(read(0, 1), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m =
            Module { name: "t".into(), globals: vec![global("m")], kernels: vec![b.finish()] };
        let d = check(&mut m);
        assert_eq!(reported(&d), [("E0303", vec!["m"])]);
    }

    /// §V-D kernel with reorderable operand order: repaired, no error.
    #[test]
    fn reorderable_disorder_repaired() {
        // then: m1 read, m2 read; else: m2 read, m1 read (independent).
        let mut b = FuncBuilder::new("b", 2);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.emit(read(0, 0), IrTy::I32);
        b.emit(read(1, 3), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.emit(read(1, 0), IrTy::I32);
        b.emit(read(0, 0), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module {
            name: "t".into(),
            globals: vec![global("m1"), global("m2")],
            kernels: vec![b.finish()],
        };
        let d = check(&mut m);
        assert!(!d.has_errors(), "{:?}", d.diagnostics());
        // The else block is now ordered m1 (g0) then m2 (g1).
        let mems: Vec<u32> = m.kernels[0].blocks[e]
            .insts
            .iter()
            .filter_map(|i| i.kind.touches_global().map(|m| m.0))
            .collect();
        assert_eq!(mems, vec![0, 1]);
    }

    /// §V-D kernel `a` (ordering): dependent accesses that cannot be
    /// reordered → E0304.
    #[test]
    fn dependent_disorder_rejected() {
        let mut b = FuncBuilder::new("a", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        // then: x = m1[0]; x = m2[x]   (m1 before m2, dependent)
        b.switch_to(t);
        let x1 = b.emit(read(0, 0), IrTy::I32).unwrap();
        b.emit(read_at(1, Op::Value(x1)), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        // else: x = m2[0]; x = m1[x]   (m2 before m1, dependent)
        b.switch_to(e);
        let x2 = b.emit(read(1, 0), IrTy::I32).unwrap();
        b.emit(read_at(0, Op::Value(x2)), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module {
            name: "t".into(),
            globals: vec![global("m1"), global("m2")],
            kernels: vec![b.finish()],
        };
        let d = check(&mut m);
        assert_eq!(reported(&d), [("E0304", vec!["m1", "m2"])]);
    }

    /// Rule 2 reports pairs in `(MemId, MemId)` order.
    #[test]
    fn rule_two_reports_pairs_in_object_order() {
        let mut b = FuncBuilder::new("k", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        // then: x = c[0]; b[x]; a[x] — reordered to c, a, b.
        b.switch_to(t);
        let x = b.emit(read(2, 0), IrTy::I32).unwrap();
        b.emit(read_at(1, Op::Value(x)), IrTy::I32);
        b.emit(read_at(0, Op::Value(x)), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        // else: y = a[0]; z = b[y]; c[z] — a dependent chain.
        b.switch_to(e);
        let y = b.emit(read(0, 0), IrTy::I32).unwrap();
        let z = b.emit(read_at(1, Op::Value(y)), IrTy::I32).unwrap();
        b.emit(read_at(2, Op::Value(z)), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let globals = vec![global("a"), global("b"), global("c")];
        let mut m = Module { name: "t".into(), globals, kernels: vec![b.finish()] };
        let d = check(&mut m);
        assert_eq!(reported(&d), [("E0304", vec!["a", "c"]), ("E0304", vec!["b", "c"])]);
    }

    /// Fig. 7 shape: Bitmap[0]/Bitmap[1] accessed in the same order in both
    /// branches (after partitioning they are distinct objects) — valid.
    #[test]
    fn allreduce_bitmap_pattern_accepted() {
        let mut b = FuncBuilder::new("allreduce", 1);
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.emit(read(0, 1), IrTy::I32); // Bitmap__0
        b.emit(read(1, 1), IrTy::I32); // Bitmap__1
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(e);
        b.emit(read(0, 2), IrTy::I32);
        b.emit(read(1, 2), IrTy::I32);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let mut m = Module {
            name: "t".into(),
            globals: vec![global("Bitmap__0"), global("Bitmap__1")],
            kernels: vec![b.finish()],
        };
        let d = check(&mut m);
        assert!(!d.has_errors(), "{:?}", d.diagnostics());
    }
}
