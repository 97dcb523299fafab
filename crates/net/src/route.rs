//! Dense routing cache for the simulator's forwarding hot path.
//!
//! The reference [`Topology::routing_tree`] answers one destination with
//! one BFS over `HashMap` adjacency — fine for a handful of nodes,
//! ruinous for a 10⁴-host fat-tree where a Zipf workload routes to
//! thousands of distinct destinations over millions of hops. This cache
//! indexes the topology densely once and then answers every hop toward a
//! destination from one reverse BFS over that index: a *routing tree* of
//! `u32` parent pointers, ~4 bytes per node instead of a `HashMap` entry.
//! Trees are memoized per destination, capped ([`TREE_CAP`]) so a scan
//! over every host cannot hold the whole forest, and invalidated when the
//! downed-link set changes.
//!
//! Adjacency is stored in CSR form — one flat offsets array and one flat
//! targets array, with `LinkSpec`s in a parallel array touched only to
//! answer a query. A tree build is a BFS over the two `u32` arrays
//! (~300 KB of sequential traffic on a k=36 fat-tree instead of ~5 MB of
//! nested-`Vec` pointer chasing). Profiling showed builds, not lookups,
//! dominate sharded runs — each shard lazily rebuilding the same trees —
//! so the fault-free case is served by a switch-level [`Forest`]
//! precomputed once and shared across shards; the lazy per-destination
//! path here remains for degraded states, whose trees depend on the
//! downed-link set.
//!
//! The immutable indexed topology — CSR arrays, leaf marks, and the
//! precomputed forest — lives in one [`RouteCore`] behind an `Arc`: at
//! k=74 (10⁵ hosts) the forest alone is ~190 MB, and a sharded run clones
//! the cache into every shard. Only the per-destination memo table is
//! per-clone. [`PrecomputedRoutes`] exposes the core publicly so a caller
//! building the same topology at several shard counts pays for the forest
//! once.
//!
//! Determinism: tree contents are a pure function of (topology, downed
//! set) — equal-cost ties are broken by the [`ecmp_rank`] hash over
//! candidates in neighbor-list insertion order, which `clone()` preserves,
//! so every shard of a sharded run computes identical trees, and all three
//! builders (reference [`Topology::routing_tree`], the lazy builder here,
//! and the forest) agree hop for hop.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::topo::{ecmp_rank, link_key, LinkSpec, NodeId, Topology};

/// Maximum memoized routing trees before the forest is reset. At the cap
/// a k=36 fat-tree's forest is ~50 MB; a reset only costs rebuilds.
pub(crate) const TREE_CAP: usize = 1024;

/// Sentinel parent index: unreachable (or the destination itself).
const NONE: u32 = u32::MAX;

/// Every switch-to-switch routing tree of a connected topology, built once
/// at network construction and shared immutably across shards. Trees are a
/// pure function of the topology, so per-shard rebuilds were pure
/// duplicated work — profiling showed them dominating sharded busy time.
/// Leaves stay out of the domain: degree-1 sources are answered
/// structurally and degree-1 targets are aliased to their uplink.
#[derive(Debug)]
pub(crate) struct Forest {
    /// Dense node index → switch slot (`NONE` for leaves).
    slot: Vec<u32>,
    /// Switch slots count.
    n_sw: usize,
    /// `parents[t_slot * n_sw + f_slot]`: dense node index of the next hop
    /// from slot `f_slot`'s node toward slot `t_slot`'s node (`NONE` on
    /// the diagonal).
    parents: Vec<u32>,
}

/// The immutable, shareable part of the route cache: the dense topology
/// index and the precomputed fault-free forest.
#[derive(Debug)]
pub(crate) struct RouteCore {
    /// Node → dense index.
    idx: HashMap<NodeId, u32>,
    /// Dense index → node (insertion order of [`Topology::nodes`]).
    nodes: Vec<NodeId>,
    /// CSR offsets: node i's neighbors are `adj_to[adj_off[i]..adj_off[i+1]]`,
    /// preserving the topology's neighbor-list order.
    adj_off: Vec<u32>,
    /// CSR neighbor indices, flat.
    adj_to: Vec<u32>,
    /// Link specs parallel to `adj_to`, touched only to answer a query —
    /// never during a tree build.
    adj_spec: Vec<LinkSpec>,
    /// Degree-1 marks, parallel to `nodes` (fits L1 even at 10⁴ hosts).
    leaf: Vec<bool>,
    /// Whether the topology is one connected component. On a connected
    /// fault-free topology every node can reach every other, which
    /// licenses the degree-1 shortcuts below without a reachability check.
    connected: bool,
    /// Precomputed switch forest; present iff the topology is connected.
    /// Valid only while no links are down — the lazy `trees` path serves
    /// degraded states.
    forest: Option<Forest>,
}

impl RouteCore {
    /// Node i's neighbor indices.
    fn neigh(&self, i: u32) -> &[u32] {
        &self.adj_to[self.adj_off[i as usize] as usize..self.adj_off[i as usize + 1] as usize]
    }

    /// The ECMP hash root for trees toward dense index `ti`: a leaf target
    /// aliases to its multi-degree uplink, matching [`Topology::ecmp_alias`]
    /// and the leaf-target aliasing in [`RouteCache::hop`].
    fn ecmp_root(&self, ti: u32) -> NodeId {
        if let [ei] = *self.neigh(ti) {
            if self.neigh(ei).len() > 1 {
                return self.nodes[ei as usize];
            }
        }
        self.nodes[ti as usize]
    }
}

/// Routing state for one simulated network: an `Arc`-shared [`RouteCore`]
/// plus this clone's private memo table for degraded-state trees.
#[derive(Debug, Clone)]
pub(crate) struct RouteCache {
    core: Arc<RouteCore>,
    /// destination → parent-pointer tree (`tree[i]` is the dense index of
    /// node i's next hop toward the destination).
    trees: HashMap<NodeId, Vec<u32>>,
}

/// A route cache built once and shared across network builds — the public
/// handle for [`crate::NetworkBuilder::build_sharded_with`]. Building the
/// k=74 forest costs seconds and ~190 MB; a caller sweeping shard counts
/// over one topology (`tests/determinism.rs`'s fat-tree identity) should
/// pay that exactly once.
pub struct PrecomputedRoutes {
    pub(crate) cache: RouteCache,
}

impl PrecomputedRoutes {
    /// Indexes `topo` and precomputes its switch forest.
    pub fn new(topo: &Topology) -> PrecomputedRoutes {
        PrecomputedRoutes { cache: RouteCache::new(topo) }
    }
}

impl std::fmt::Debug for PrecomputedRoutes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecomputedRoutes")
            .field("nodes", &self.cache.core.nodes.len())
            .finish_non_exhaustive()
    }
}

impl RouteCache {
    /// Indexes `topo`. The topology must not gain links afterwards (the
    /// simulator's is fixed at build time).
    pub fn new(topo: &Topology) -> RouteCache {
        let nodes = topo.nodes();
        let idx: HashMap<NodeId, u32> =
            nodes.iter().enumerate().map(|(i, &n)| (n, i as u32)).collect();
        let mut adj_off = Vec::with_capacity(nodes.len() + 1);
        let mut adj_to = Vec::new();
        let mut adj_spec = Vec::new();
        adj_off.push(0);
        for &n in &nodes {
            for &(m, spec) in topo.neighbors(n) {
                adj_to.push(idx[&m]);
                adj_spec.push(spec);
            }
            adj_off.push(adj_to.len() as u32);
        }
        let leaf: Vec<bool> = (0..nodes.len()).map(|i| adj_off[i + 1] - adj_off[i] == 1).collect();
        // One forward BFS answers connectivity (the graph is undirected).
        let mut visited = vec![false; nodes.len()];
        let mut reached = 0usize;
        if !nodes.is_empty() {
            visited[0] = true;
            reached = 1;
            let mut queue = VecDeque::from([0u32]);
            while let Some(n) = queue.pop_front() {
                for &m in &adj_to[adj_off[n as usize] as usize..adj_off[n as usize + 1] as usize] {
                    if !visited[m as usize] {
                        visited[m as usize] = true;
                        reached += 1;
                        queue.push_back(m);
                    }
                }
            }
        }
        let connected = reached == nodes.len();
        let core =
            RouteCore { idx, nodes, adj_off, adj_to, adj_spec, leaf, connected, forest: None };
        let forest = connected.then(|| build_forest(&core));
        let core = RouteCore { forest, ..core };
        RouteCache { core: Arc::new(core), trees: HashMap::new() }
    }

    /// Drops every memoized tree — call when the downed-link set changes.
    pub fn invalidate(&mut self) {
        self.trees.clear();
    }

    /// The next hop (and link) from `from` toward `target`, avoiding the
    /// links in `down`. `None` when unreachable. Equivalent to
    /// [`Topology::routing_tree`] on every query, just cheaper.
    ///
    /// Leaf aliasing: a degree-1 target (a host on its access switch) is
    /// answered from its sole neighbor's tree — every shortest path to a
    /// leaf runs through its uplink, and a reverse BFS from the leaf
    /// expands identically to one from the uplink (same tie-breaks, +1
    /// distance). This collapses "one tree per host" (10⁴ for a big
    /// fat-tree, far past [`TREE_CAP`] and thrashing) into one tree per
    /// switch.
    pub fn hop(
        &mut self,
        from: NodeId,
        target: NodeId,
        down: &HashSet<(NodeId, NodeId)>,
    ) -> Option<(NodeId, LinkSpec)> {
        let core = &self.core;
        let &fi = core.idx.get(&from)?;
        let &ti = core.idx.get(&target)?;
        // Degree-1 source on a connected fault-free topology: the only
        // egress is the uplink, and the target is reachable through it by
        // connectivity — no tree needed. This keeps 10⁴ hosts out of the
        // tree domain entirely (paired with the leaf-skipping build).
        if fi != ti && core.connected && down.is_empty() {
            if let [ei] = *core.neigh(fi) {
                let spec = core.adj_spec[core.adj_off[fi as usize] as usize];
                return Some((core.nodes[ei as usize], spec));
            }
        }
        if let [ei] = *core.neigh(ti) {
            if down.contains(&link_key(core.nodes[ei as usize], target)) {
                return None;
            }
            if fi == ei {
                let spec = core.adj_spec[core.adj_off[ti as usize] as usize];
                return Some((target, spec));
            }
            // Guard against two-node topologies where the uplink is
            // itself a leaf (mutual aliasing would recurse forever).
            if core.neigh(ei).len() > 1 {
                let uplink = core.nodes[ei as usize];
                return self.hop(from, uplink, down);
            }
        }
        // Fault-free fast path: the precomputed shared forest. Leaf
        // sources and targets were peeled off above, so both endpoints
        // have switch slots (the guard covers degenerate all-leaf graphs).
        let pi = match (&core.forest, down.is_empty()) {
            (Some(f), true) if f.slot[ti as usize] != NONE && f.slot[fi as usize] != NONE => {
                f.parents[f.slot[ti as usize] as usize * f.n_sw + f.slot[fi as usize] as usize]
            }
            _ => {
                if !self.trees.contains_key(&target) {
                    if self.trees.len() >= TREE_CAP {
                        self.trees.clear();
                    }
                    let tree = build_tree(&self.core, target, down);
                    self.trees.insert(target, tree);
                }
                self.trees[&target][fi as usize]
            }
        };
        let core = &self.core;
        if pi == NONE {
            return None;
        }
        let range = core.adj_off[fi as usize] as usize..core.adj_off[fi as usize + 1] as usize;
        let k = range.clone().find(|&k| core.adj_to[k] == pi)?;
        Some((core.nodes[pi as usize], core.adj_spec[k]))
    }
}

/// Builds the fault-free switch forest: one hashed-ECMP routing tree per
/// non-leaf node, over the switch subgraph only.
fn build_forest(core: &RouteCore) -> Forest {
    let n = core.nodes.len();
    let sw: Vec<u32> = (0..n as u32).filter(|&i| !core.leaf[i as usize]).collect();
    let n_sw = sw.len();
    let mut slot = vec![NONE; n];
    for (s, &i) in sw.iter().enumerate() {
        slot[i as usize] = s as u32;
    }
    let mut parents = vec![NONE; n_sw * n_sw];
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    for (t, &ti) in sw.iter().enumerate() {
        let row = &mut parents[t * n_sw..(t + 1) * n_sw];
        // Pass 1: BFS levels over the switch subgraph (leaves skipped:
        // a degree-1 node is never an intermediate hop).
        dist.fill(u32::MAX);
        dist[ti as usize] = 0;
        queue.clear();
        queue.push_back(ti);
        while let Some(p) = queue.pop_front() {
            let d = dist[p as usize] + 1;
            for &m in core.neigh(p) {
                if !core.leaf[m as usize] && dist[m as usize] == u32::MAX {
                    dist[m as usize] = d;
                    queue.push_back(m);
                }
            }
        }
        // Pass 2: hashed pick among each node's one-level-closer
        // neighbors. Forest targets are switches (degree > 1), so the
        // ECMP root is the target itself.
        let root = core.nodes[ti as usize];
        for &i in &sw {
            if i == ti || dist[i as usize] == u32::MAX {
                continue;
            }
            let want = dist[i as usize] - 1;
            let cands = core.neigh(i).iter().filter(|&&m| dist[m as usize] == want);
            let len = cands.clone().count() as u64;
            let pick = (ecmp_rank(root, core.nodes[i as usize]) % len) as usize;
            row[slot[i as usize] as usize] = *cands.clone().nth(pick).expect("pick < len");
        }
    }
    Forest { slot, n_sw, parents }
}

/// Reverse BFS from `target` with hashed-ECMP tie-breaks: each discovered
/// node's parent is a [`ecmp_rank`]-selected neighbor one step closer to
/// the destination. Pure `u32` CSR traversal; `LinkSpec`s are never
/// touched here.
///
/// On a connected fault-free topology the BFS never descends into
/// degree-1 nodes: sources there are answered by the shortcut in
/// [`RouteCache::hop`] and targets there are leaf-aliased, so their
/// entries are never read — and skipping them shrinks a fat-tree build
/// from every host to just the switch core (~8× on k=36).
fn build_tree(core: &RouteCore, target: NodeId, down: &HashSet<(NodeId, NodeId)>) -> Vec<u32> {
    let n = core.nodes.len();
    let mut parent = vec![NONE; n];
    let Some(&ti) = core.idx.get(&target) else { return parent };
    let check_down = !down.is_empty();
    let skip_leaves = core.connected && !check_down;
    // Pass 1: BFS levels from the target.
    let mut dist = vec![u32::MAX; n];
    dist[ti as usize] = 0;
    let mut queue = VecDeque::from([ti]);
    while let Some(p) = queue.pop_front() {
        let d = dist[p as usize] + 1;
        for &m in core.neigh(p) {
            if (skip_leaves && core.leaf[m as usize]) || dist[m as usize] != u32::MAX {
                continue;
            }
            if check_down
                && down.contains(&link_key(core.nodes[m as usize], core.nodes[p as usize]))
            {
                continue;
            }
            dist[m as usize] = d;
            queue.push_back(m);
        }
    }
    // Pass 2: hashed pick among each reachable node's candidates, keyed on
    // the target's ECMP alias so leaf-target trees equal their uplink's.
    let root = core.ecmp_root(ti);
    for i in 0..n as u32 {
        if i == ti || dist[i as usize] == u32::MAX || (skip_leaves && core.leaf[i as usize]) {
            continue;
        }
        let want = dist[i as usize] - 1;
        let open = |m: u32| {
            !check_down || !down.contains(&link_key(core.nodes[m as usize], core.nodes[i as usize]))
        };
        let cands = core.neigh(i).iter().filter(|&&m| dist[m as usize] == want && open(m));
        let len = cands.clone().count() as u64;
        let pick = (ecmp_rank(root, core.nodes[i as usize]) % len) as usize;
        parent[i as usize] = *cands.clone().nth(pick).expect("pick < len");
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Topology {
        // h1 — d1 — {d2, d3} — d4 — h2: two equal-length middles.
        let mut t = Topology::new();
        let s = LinkSpec::default();
        t.link(NodeId::Host(1), NodeId::Device(1), s);
        t.link(NodeId::Device(1), NodeId::Device(2), s);
        t.link(NodeId::Device(1), NodeId::Device(3), s);
        t.link(NodeId::Device(2), NodeId::Device(4), s);
        t.link(NodeId::Device(3), NodeId::Device(4), s);
        t.link(NodeId::Device(4), NodeId::Host(2), s);
        t
    }

    /// The dense cache agrees exactly with the reference
    /// [`Topology::routing_tree`] — same hops, same hashed tie-breaks —
    /// for every (source, target) pair, with and without downed links.
    #[test]
    fn cache_matches_reference_routing_tree() {
        let topo = diamond();
        let downs = [
            HashSet::new(),
            HashSet::from([link_key(NodeId::Device(1), NodeId::Device(2))]),
            HashSet::from([
                link_key(NodeId::Device(1), NodeId::Device(2)),
                link_key(NodeId::Device(1), NodeId::Device(3)),
            ]),
        ];
        for down in &downs {
            let mut cache = RouteCache::new(&topo);
            for target in topo.nodes() {
                let reference = topo.routing_tree(target, down);
                for from in topo.nodes() {
                    if from == target {
                        continue;
                    }
                    assert_eq!(
                        cache.hop(from, target, down).map(|(h, _)| h),
                        reference.get(&from).map(|&(h, _)| h),
                        "hop {from:?} → {target:?} with {} downed links",
                        down.len()
                    );
                }
            }
        }
    }

    /// Evicting at the cap only costs rebuilds: answers are identical
    /// before and after a reset.
    #[test]
    fn eviction_preserves_answers() {
        let topo = diamond();
        let mut cache = RouteCache::new(&topo);
        let none = HashSet::new();
        let before = cache.hop(NodeId::Host(1), NodeId::Host(2), &none).map(|(h, _)| h);
        cache.invalidate();
        assert_eq!(cache.hop(NodeId::Host(1), NodeId::Host(2), &none).map(|(h, _)| h), before);
    }

    /// Hashed ECMP actually spreads: across many destinations behind the
    /// diamond, d1 uses both equal-cost middles (d2 and d3) — the
    /// insertion-order tie-break used exactly one.
    #[test]
    fn ecmp_spreads_equal_cost_paths() {
        // h1 — d1 — {d2, d3} — d4 — many hosts.
        let mut t = Topology::new();
        let s = LinkSpec::default();
        t.link(NodeId::Host(1), NodeId::Device(1), s);
        t.link(NodeId::Device(1), NodeId::Device(2), s);
        t.link(NodeId::Device(1), NodeId::Device(3), s);
        t.link(NodeId::Device(2), NodeId::Device(4), s);
        t.link(NodeId::Device(3), NodeId::Device(4), s);
        for h in 10..40u32 {
            t.link(NodeId::Device(4), NodeId::Host(h), s);
        }
        let mut cache = RouteCache::new(&t);
        let none = HashSet::new();
        let mut used = HashSet::new();
        for h in 10..40u32 {
            let (hop, _) = cache.hop(NodeId::Device(1), NodeId::Host(h), &none).unwrap();
            used.insert(hop);
        }
        // Every host behind d4 aliases to d4's tree, so d1's hop is the
        // same for all of them; spreading shows up across *destinations*
        // with distinct trees. Check the reference spreads across the two
        // middles for the per-destination trees of d2/d3/d4 and hosts.
        let mut ref_used = HashSet::new();
        for target in t.nodes() {
            if target == NodeId::Device(1) || target == NodeId::Host(1) {
                continue;
            }
            if let Some(&(hop, _)) = t.routing_tree(target, &none).get(&NodeId::Device(1)) {
                if hop == NodeId::Device(2) || hop == NodeId::Device(3) {
                    ref_used.insert(hop);
                }
            }
        }
        assert_eq!(
            ref_used.len(),
            2,
            "hashed tie-breaks must use both equal-cost middles across destinations"
        );
    }
}
