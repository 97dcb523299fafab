//! CFG orders and dominance.
//!
//! Implements reverse postorder, the Cooper–Harvey–Kennedy iterative
//! dominator algorithm, and dominance frontiers. Used by mem2reg (φ
//! placement), hoisting (nearest common dominator), the distance checks of
//! §VI-B, and the code generator's lexical-scope construction.

use crate::func::{BlockId, Function, Predecessors, Terminator};
use netcl_util::idx::{Idx, IndexVec};

/// Reverse postorder of reachable blocks starting at the entry.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let n = f.blocks.len();
    let mut visited = vec![false; n];
    let mut postorder = Vec::with_capacity(n);
    // Iterative DFS; each frame holds its block's successors not yet taken.
    let mut stack = vec![(f.entry, f.blocks[f.entry].term.successors())];
    visited[f.entry.index()] = true;
    while let Some((b, succs)) = stack.last_mut() {
        let b = *b;
        match succs.next() {
            // A malformed target is skipped; the verifier reports it.
            Some(s) if s.index() < n && !visited[s.index()] => {
                visited[s.index()] = true;
                stack.push((s, f.blocks[s].term.successors()));
            }
            Some(_) => {}
            None => {
                postorder.push(b);
                stack.pop();
            }
        }
    }
    postorder.reverse();
    postorder
}

/// `rpo_index` of a block the entry does not reach, and `idom` of one.
const UNREACHED: u32 = u32::MAX;

/// Dominator tree over a function's reachable blocks, in vectors indexed by
/// [`BlockId`].
#[derive(Debug)]
pub struct DomTree {
    /// Reverse postorder used to build the tree.
    pub rpo: Vec<BlockId>,
    /// The CFG's predecessor lists the tree was built from.
    pub preds: Predecessors,
    /// Immediate dominator per block (the entry's is itself).
    idom: IndexVec<BlockId, BlockId>,
    /// Position in `rpo`; every block's `idom` sits earlier than it.
    rpo_index: IndexVec<BlockId, u32>,
}

impl DomTree {
    /// Computes dominators (Cooper–Harvey–Kennedy).
    pub fn compute(f: &Function) -> DomTree {
        let rpo = reverse_postorder(f);
        let mut rpo_index: IndexVec<BlockId, u32> = f.blocks.indices().map(|_| UNREACHED).collect();
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = i as u32;
        }
        let preds = f.predecessors();
        let mut idom: IndexVec<BlockId, BlockId> =
            f.blocks.indices().map(|_| BlockId(UNREACHED)).collect();
        idom[f.entry] = f.entry;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo[1..] {
                let mut new_idom: Option<BlockId> = None;
                // Unprocessed and unreachable predecessors have no idom yet.
                for &p in preds[b].iter().filter(|&&p| idom[p].0 != UNREACHED) {
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, p, cur),
                    });
                }
                if let Some(ni) = new_idom.filter(|&ni| idom[b] != ni) {
                    idom[b] = ni;
                    changed = true;
                }
            }
        }
        DomTree { rpo, preds, idom, rpo_index }
    }

    /// Whether `a` dominates `b` (reflexive, also for unreachable blocks).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        while self.rpo_index[cur] > self.rpo_index[a] {
            cur = self.idom[cur];
        }
        cur == a
    }

    /// Nearest common dominator of two reachable blocks.
    pub fn nearest_common_dominator(&self, a: BlockId, b: BlockId) -> BlockId {
        intersect(&self.idom, &self.rpo_index, a, b)
    }

    /// Immediate dominator (None for the entry and unreachable blocks).
    pub fn immediate_dominator(&self, b: BlockId) -> Option<BlockId> {
        let p = *self.idom.get(b)?;
        (p != b && p.0 != UNREACHED).then_some(p)
    }

    /// Whether a block is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index.get(b).is_some_and(|&i| i != UNREACHED)
    }

    /// Dominance frontiers (Cytron et al.), for φ placement.
    pub fn dominance_frontiers(&self) -> IndexVec<BlockId, Vec<BlockId>> {
        let mut df: IndexVec<BlockId, Vec<BlockId>> =
            self.idom.indices().map(|_| Vec::new()).collect();
        for &b in &self.rpo {
            let preds = &self.preds[b];
            if preds.len() < 2 {
                continue;
            }
            for &p in preds.iter().filter(|&&p| self.is_reachable(p)) {
                let mut runner = p;
                while runner != self.idom[b] {
                    if !df[runner].contains(&b) {
                        df[runner].push(b);
                    }
                    match self.immediate_dominator(runner) {
                        Some(next) => runner = next,
                        None => break,
                    }
                }
            }
        }
        df
    }
}

fn intersect(
    idom: &IndexVec<BlockId, BlockId>,
    rpo_index: &IndexVec<BlockId, u32>,
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_index[a] > rpo_index[b] {
            a = idom[a];
        }
        while rpo_index[b] > rpo_index[a] {
            b = idom[b];
        }
    }
    a
}

/// Minimum number of conditional branches on any path from the entry to each
/// block — the paper's "approximate distance" metric for the §VI-B
/// same-stage memory check ("we count the minimum number of conditional
/// branches required to reach each access from the entry block").
pub fn min_branch_depth(f: &Function) -> IndexVec<BlockId, u32> {
    let mut depth: IndexVec<BlockId, u32> = f.blocks.indices().map(|_| u32::MAX).collect();
    depth[f.entry] = 0;
    // The CFG is a DAG at this point, so one pass in RPO converges; fall back
    // to fixpoint iteration to stay correct on cyclic inputs.
    let rpo = reverse_postorder(f);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo {
            let d = depth[b];
            if d == u32::MAX {
                continue;
            }
            let term = &f.blocks[b].term;
            let nd = d + matches!(term, Terminator::CondBr { .. }) as u32;
            for s in term.successors() {
                if nd < depth[s] {
                    depth[s] = nd;
                    changed = true;
                }
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{ActionRef, FuncBuilder, Terminator};
    use crate::types::{IrTy, Operand};

    /// Builds the classic diamond: entry → {t, e} → join.
    fn diamond() -> (Function, BlockId, BlockId, BlockId, BlockId) {
        let mut b = FuncBuilder::new("k", 1);
        let entry = b.current;
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.terminate(Terminator::CondBr { cond: Operand::imm(1, IrTy::I1), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.terminate(Terminator::Br(j));
        b.switch_to(e);
        b.terminate(Terminator::Br(j));
        b.switch_to(j);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        (b.finish(), entry, t, e, j)
    }

    #[test]
    fn rpo_starts_at_entry_ends_at_exit() {
        let (f, entry, _, _, j) = diamond();
        let rpo = reverse_postorder(&f);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], entry);
        assert_eq!(*rpo.last().unwrap(), j);
    }

    #[test]
    fn diamond_dominance() {
        let (f, entry, t, e, j) = diamond();
        let dt = DomTree::compute(&f);
        assert!(dt.dominates(entry, j));
        assert!(dt.dominates(entry, t));
        assert!(!dt.dominates(t, j));
        assert!(!dt.dominates(e, j));
        assert_eq!(dt.immediate_dominator(j), Some(entry));
        assert_eq!(dt.nearest_common_dominator(t, e), entry);
        assert_eq!(dt.nearest_common_dominator(t, j), entry);
        assert_eq!(dt.nearest_common_dominator(j, j), j);
    }

    #[test]
    fn diamond_frontiers() {
        let (f, _, t, e, j) = diamond();
        let dt = DomTree::compute(&f);
        let df = dt.dominance_frontiers();
        assert_eq!(df[t], vec![j]);
        assert_eq!(df[e], vec![j]);
        assert!(df[j].is_empty());
    }

    #[test]
    fn branch_depth() {
        let (f, entry, t, e, j) = diamond();
        let d = min_branch_depth(&f);
        assert_eq!(d[entry], 0);
        assert_eq!(d[t], 1);
        assert_eq!(d[e], 1);
        assert_eq!(d[j], 1);
    }

    #[test]
    fn unreachable_blocks_excluded() {
        let mut b = FuncBuilder::new("k", 1);
        let dead = b.new_block();
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.switch_to(dead);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        let dt = DomTree::compute(&f);
        assert!(dt.is_reachable(f.entry));
        assert!(!dt.is_reachable(dead));
    }

    #[test]
    fn nested_diamond_dominance() {
        // entry → {a, b}; a → {c, d} → m → j; b → j
        let mut fb = FuncBuilder::new("k", 1);
        let entry = fb.current;
        let a = fb.new_block();
        let bb = fb.new_block();
        let c = fb.new_block();
        let d = fb.new_block();
        let m = fb.new_block();
        let j = fb.new_block();
        let cnd = Operand::imm(1, IrTy::I1);
        fb.terminate(Terminator::CondBr { cond: cnd, then_bb: a, else_bb: bb });
        fb.switch_to(a);
        fb.terminate(Terminator::CondBr { cond: cnd, then_bb: c, else_bb: d });
        fb.switch_to(c);
        fb.terminate(Terminator::Br(m));
        fb.switch_to(d);
        fb.terminate(Terminator::Br(m));
        fb.switch_to(m);
        fb.terminate(Terminator::Br(j));
        fb.switch_to(bb);
        fb.terminate(Terminator::Br(j));
        fb.switch_to(j);
        fb.terminate(Terminator::Ret(ActionRef::pass()));
        let f = fb.finish();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.immediate_dominator(m), Some(a));
        assert_eq!(dt.immediate_dominator(j), Some(entry));
        assert!(dt.dominates(a, m));
        assert!(!dt.dominates(a, j));
        let depth = min_branch_depth(&f);
        assert_eq!(depth[m], 2);
        assert_eq!(depth[j], 1); // via bb
    }

    /// Block `i` ends in `edges[i]`: a return, a branch, or a condbr, with
    /// targets taken modulo the block count — so self-branches, loops and
    /// blocks nothing reaches all occur.
    fn random_cfg(edges: &[(u8, usize, usize)]) -> Function {
        let mut fb = FuncBuilder::new("k", 1);
        let n = edges.len();
        let blocks: Vec<BlockId> =
            std::iter::once(fb.current).chain((1..n).map(|_| fb.new_block())).collect();
        for (&blk, &(kind, t, e)) in blocks.iter().zip(edges) {
            fb.switch_to(blk);
            let (then_bb, else_bb) = (blocks[t % n], blocks[e % n]);
            let cond = Operand::imm(1, IrTy::I1);
            fb.terminate(match kind {
                0 => Terminator::Ret(ActionRef::pass()),
                1 => Terminator::Br(then_bb),
                _ => Terminator::CondBr { cond, then_bb, else_bb },
            });
        }
        fb.finish()
    }

    /// The blocks the entry reaches without passing through `cut`.
    fn reached_without(f: &Function, cut: Option<BlockId>) -> Vec<bool> {
        let mut seen = vec![false; f.blocks.len()];
        let mut stack = vec![f.entry];
        while let Some(b) = stack.pop() {
            if Some(b) != cut && !std::mem::replace(&mut seen[b.index()], true) {
                stack.extend(f.blocks[b].term.successors());
            }
        }
        seen
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `a` dominates a reachable `b` exactly when removing `a` cuts `b`
        /// off from the entry; the immediate and nearest common dominators
        /// are the ones every other candidate dominates.
        #[test]
        fn dense_tree_matches_remove_the_block_oracle(
            edges in proptest::collection::vec((0u8..4, 0usize..9, 0usize..9), 1..9)
        ) {
            let f = random_cfg(&edges);
            let dt = DomTree::compute(&f);
            let ids: Vec<BlockId> = f.blocks.indices().collect();
            let reach = reached_without(&f, None);
            let cut: Vec<Vec<bool>> = ids.iter().map(|&a| reached_without(&f, Some(a))).collect();
            let dom = |a: BlockId, b: BlockId| {
                a == b || (reach[b.index()] && !cut[a.index()][b.index()])
            };
            // The candidate every other candidate dominates.
            let deepest = |cands: Vec<BlockId>| {
                cands.iter().copied().find(|&c| cands.iter().all(|&o| dom(o, c)))
            };
            for &b in &ids {
                proptest::prop_assert_eq!(dt.is_reachable(b), reach[b.index()], "{b:?}");
                for &a in &ids {
                    proptest::prop_assert_eq!(dt.dominates(a, b), dom(a, b), "{a:?} dom {b:?}");
                }
                let strict = ids.iter().copied().filter(|&d| d != b && dom(d, b)).collect();
                proptest::prop_assert_eq!(dt.immediate_dominator(b), deepest(strict), "{b:?}");
                if !reach[b.index()] {
                    continue;
                }
                for &a in ids.iter().filter(|a| reach[a.index()]) {
                    let common = ids.iter().copied().filter(|&c| dom(c, a) && dom(c, b)).collect();
                    let ncd = Some(dt.nearest_common_dominator(a, b));
                    proptest::prop_assert_eq!(ncd, deepest(common), "ncd({a:?}, {b:?})");
                }
            }
        }
    }
}
