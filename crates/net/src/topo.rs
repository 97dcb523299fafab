//! Topology: nodes, links, routes, multicast groups.
//!
//! The paper leaves abstract→physical deployment to future work and
//! "assumes that the abstract topology is the real topology" (§VI-C); the
//! simulator does the same — the programmer's assumed topology (Fig. 5c) is
//! built directly.

use std::collections::{HashMap, HashSet, VecDeque};

use netcl_util::hash::mix64;

/// A network node: a host (end system) or a programmable device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// Host with NetCL host id. Simulator host ids are u32 — a 10⁵-host
    /// fat-tree (k=74 is 101 306 hosts) outgrows the u16 wire format, which
    /// stays u16: only wire-addressable hosts (ids < 65 536) can appear as
    /// message sources/destinations, but any host can inject traffic.
    Host(u32),
    /// Programmable device with NetCL device id.
    Device(u16),
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Host(h) => write!(f, "h{h}"),
            NodeId::Device(d) => write!(f, "dev{d}"),
        }
    }
}

/// Link parameters, including the per-link fault distributions driven by
/// the simulator's seeded RNG. The default is the paper's lossless testbed;
/// every fault knob at zero leaves the delivery path (and the RNG stream)
/// exactly as it was without the chaos layer.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Propagation latency in nanoseconds.
    pub latency_ns: u64,
    /// Bandwidth in gigabits per second (serialization delay).
    pub gbps: f64,
    /// Packet loss probability (0.0 – 1.0).
    pub loss: f64,
    /// Probability a delivered message is duplicated (both copies arrive,
    /// each with its own jitter/reorder draw).
    pub duplicate: f64,
    /// Probability a delivered message has one random bit flipped.
    pub corrupt: f64,
    /// Probability a delivered message is held back by [`Self::reorder_ns`]
    /// extra nanoseconds, letting later sends overtake it.
    pub reorder: f64,
    /// Extra delay applied to reordered messages.
    pub reorder_ns: u64,
    /// Uniform per-message jitter: each delivery is delayed by a random
    /// amount in `[0, jitter_ns]`.
    pub jitter_ns: u64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        // 100G link, ~1µs propagation, lossless — the paper's testbed NICs.
        LinkSpec {
            latency_ns: 1000,
            gbps: 100.0,
            loss: 0.0,
            duplicate: 0.0,
            corrupt: 0.0,
            reorder: 0.0,
            reorder_ns: 0,
            jitter_ns: 0,
        }
    }
}

impl LinkSpec {
    /// A lossy link with the remaining fault knobs at their defaults.
    pub fn lossy(loss: f64) -> LinkSpec {
        LinkSpec { loss, ..Default::default() }
    }

    /// The chaos regime used by the property suite: `loss` plus reordering
    /// (25% of messages held back 40µs), duplication (10%), and 2µs of
    /// uniform jitter on every delivery.
    pub fn chaos(loss: f64) -> LinkSpec {
        LinkSpec {
            loss,
            duplicate: 0.1,
            reorder: 0.25,
            reorder_ns: 40_000,
            jitter_ns: 2_000,
            ..Default::default()
        }
    }

    /// Time to put `bytes` on the wire plus propagation, saturating: a link
    /// that cannot serialize (`gbps` zero or denormal) delivers at `u64::MAX`,
    /// within no horizon. A NaN or negative `gbps` serializes in zero time.
    pub fn transit_ns(&self, bytes: usize) -> u64 {
        let ser = (bytes as f64 * 8.0) / self.gbps; // ns at gbps
        self.latency_ns.saturating_add(ser.ceil() as u64)
    }

    /// Every field's bit pattern: the identity the route cache interns by.
    pub(crate) fn bits(&self) -> [u64; 8] {
        let [gbps, loss, duplicate, corrupt, reorder] =
            [self.gbps, self.loss, self.duplicate, self.corrupt, self.reorder].map(f64::to_bits);
        [self.latency_ns, gbps, loss, duplicate, corrupt, reorder, self.reorder_ns, self.jitter_ns]
    }
}

/// The physical topology.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    links: HashMap<NodeId, Vec<(NodeId, LinkSpec)>>,
    /// Multicast group id → member nodes.
    pub(crate) groups: HashMap<u16, Vec<NodeId>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a bidirectional link.
    pub fn link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.links.entry(a).or_default().push((b, spec));
        self.links.entry(b).or_default().push((a, spec));
    }

    /// Registers a multicast group.
    pub fn multicast_group(&mut self, gid: u16, members: Vec<NodeId>) {
        self.groups.insert(gid, members);
    }

    /// Neighbors of a node.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkSpec)] {
        self.links.get(&n).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Every node's next hop toward `to` (with the link), from one reverse
    /// BFS — shortest paths, equal-length ties broken by a deterministic
    /// per-(destination, node) hash (`ecmp_rank`) over the candidates in
    /// neighbor-list order. Nodes absent from the map cannot reach `to`
    /// around the links in `down`. The hashed tie-break is ECMP-style path
    /// spreading: a single-path topology routes exactly as insertion-order
    /// tie-breaking did, while a fat-tree spreads different destinations
    /// over different agg/core switches instead of concentrating every
    /// inter-pod path through the first-listed uplink.
    /// The simulator caches one tree per active destination: a fat-tree
    /// run routes to thousands of targets from millions of hops, and
    /// per-(source, target) BFS is what made 10⁴-host runs infeasible.
    pub fn routing_tree(
        &self,
        to: NodeId,
        down: &HashSet<(NodeId, NodeId)>,
    ) -> HashMap<NodeId, (NodeId, LinkSpec)> {
        // Pass 1: BFS levels from the destination.
        let mut level: HashMap<NodeId, u32> = HashMap::from([(to, 0)]);
        let mut queue = VecDeque::from([to]);
        while let Some(n) = queue.pop_front() {
            let l = level[&n];
            for &(next, _) in self.neighbors(n) {
                if !level.contains_key(&next) && !down.contains(&link_key(n, next)) {
                    level.insert(next, l + 1);
                    queue.push_back(next);
                }
            }
        }
        // Pass 2: each reachable node picks the hashed candidate among its
        // neighbors one level closer. The hash keys on the *alias* of the
        // destination — a degree-1 destination (a host) shares its uplink
        // switch's tree in the dense cache, so it must share the uplink's
        // tie-breaks here too (`route.rs` leaf aliasing).
        let root = self.ecmp_alias(to);
        let mut hops: HashMap<NodeId, (NodeId, LinkSpec)> = HashMap::new();
        for (&n, &l) in &level {
            if n == to {
                continue;
            }
            let cands: Vec<(NodeId, LinkSpec)> = self
                .neighbors(n)
                .iter()
                .copied()
                .filter(|&(m, _)| {
                    level.get(&m) == Some(&(l - 1)) && !down.contains(&link_key(n, m))
                })
                .collect();
            let pick = cands[(ecmp_rank(root, n) % cands.len() as u64) as usize];
            hops.insert(n, pick);
        }
        hops
    }

    /// The ECMP hash root for routes toward `to`: a degree-1 node with a
    /// multi-degree uplink aliases to that uplink (matching the dense
    /// cache's leaf-target aliasing), everything else is itself.
    pub(crate) fn ecmp_alias(&self, to: NodeId) -> NodeId {
        match self.neighbors(to) {
            [(up, _)] if self.neighbors(*up).len() > 1 => *up,
            _ => to,
        }
    }

    /// All nodes that appear in links.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.links.keys().copied().collect();
        v.sort();
        v
    }
}

/// Deterministic ECMP tie-break rank: a splitmix-style hash of
/// (destination-tree root, routing node). Every routing-tree builder — the
/// reference [`Topology::routing_tree`], the dense cache's lazy builder,
/// and the precomputed switch forest (`route.rs`) — must break equal-cost
/// ties with exactly this rank over candidates in neighbor-list order, or
/// their trees diverge and the cache-vs-reference equivalence breaks.
pub(crate) fn ecmp_rank(root: NodeId, node: NodeId) -> u64 {
    fn tag(n: NodeId) -> u64 {
        match n {
            NodeId::Host(h) => (1u64 << 48) | h as u64,
            NodeId::Device(d) => (2u64 << 48) | d as u64,
        }
    }
    mix64(tag(root).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag(node).rotate_left(17))
}

/// Order-normalized endpoint pair identifying a bidirectional link, the
/// key used for scheduled link up/down state.
pub(crate) fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Builds the single-switch star of Fig. 5(c) left: every listed host
/// connected to one device.
pub fn star(device: u16, hosts: &[u32], spec: LinkSpec) -> Topology {
    let mut t = Topology::new();
    for &h in hosts {
        t.link(NodeId::Host(h), NodeId::Device(device), spec);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_routes_through_device() {
        let t = star(1, &[1, 2, 3], LinkSpec::default());
        let to3 = t.routing_tree(NodeId::Host(3), &HashSet::new());
        assert_eq!(to3[&NodeId::Host(1)].0, NodeId::Device(1));
        assert_eq!(to3[&NodeId::Device(1)].0, NodeId::Host(3));
        assert!(!to3.contains_key(&NodeId::Host(3)), "the destination has no next hop");
    }

    #[test]
    fn chain_routing() {
        // h1 — dev1 — dev2 — h2 (Fig. 5c middle).
        let mut t = Topology::new();
        t.link(NodeId::Host(1), NodeId::Device(1), LinkSpec::default());
        t.link(NodeId::Device(1), NodeId::Device(2), LinkSpec::default());
        t.link(NodeId::Device(2), NodeId::Host(2), LinkSpec::default());
        let to2 = t.routing_tree(NodeId::Host(2), &HashSet::new());
        assert_eq!(to2[&NodeId::Host(1)].0, NodeId::Device(1));
        assert_eq!(to2[&NodeId::Device(1)].0, NodeId::Device(2));
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        t.link(NodeId::Host(1), NodeId::Device(1), LinkSpec::default());
        t.link(NodeId::Host(9), NodeId::Device(9), LinkSpec::default());
        assert!(!t.routing_tree(NodeId::Host(9), &HashSet::new()).contains_key(&NodeId::Host(1)));
    }

    #[test]
    fn routing_avoids_downed_links() {
        // h1 — dev1 — dev2 — h2, plus a backup path dev1 — dev3 — dev2.
        let mut t = Topology::new();
        t.link(NodeId::Host(1), NodeId::Device(1), LinkSpec::default());
        t.link(NodeId::Device(1), NodeId::Device(2), LinkSpec::default());
        t.link(NodeId::Device(1), NodeId::Device(3), LinkSpec::default());
        t.link(NodeId::Device(3), NodeId::Device(2), LinkSpec::default());
        t.link(NodeId::Device(2), NodeId::Host(2), LinkSpec::default());
        let mut down = HashSet::new();
        down.insert(link_key(NodeId::Device(2), NodeId::Device(1)));
        let hop = t.routing_tree(NodeId::Host(2), &down)[&NodeId::Device(1)].0;
        assert_eq!(hop, NodeId::Device(3), "detours around the downed link");
        // Severing the backup too makes the destination unreachable.
        down.insert(link_key(NodeId::Device(1), NodeId::Device(3)));
        assert!(!t.routing_tree(NodeId::Host(2), &down).contains_key(&NodeId::Device(1)));
    }

    #[test]
    fn transit_time_includes_serialization() {
        let l = LinkSpec { latency_ns: 1000, gbps: 100.0, ..Default::default() };
        // 1250 bytes at 100 Gb/s = 100 ns serialization.
        assert_eq!(l.transit_ns(1250), 1100);
        assert_eq!(l.transit_ns(0), 1000);
    }

    /// A link that cannot serialize saturates; before, `latency_ns + u64::MAX`
    /// panicked in a debug build and wrapped in release, to one nanosecond
    /// *under* the latency. NaN and negative `gbps` cast to zero serialization.
    #[test]
    fn unservable_links_saturate() {
        for gbps in [0.0, f64::MIN_POSITIVE] {
            let l = LinkSpec { gbps, ..Default::default() };
            assert_eq!(l.transit_ns(64), u64::MAX, "gbps {gbps:e}");
        }
        for gbps in [f64::NAN, -100.0, f64::NEG_INFINITY] {
            let l = LinkSpec { gbps, ..Default::default() };
            assert_eq!(l.transit_ns(64), l.latency_ns, "gbps {gbps}");
        }
        let far = LinkSpec { latency_ns: u64::MAX - 3, ..Default::default() };
        assert_eq!((far.transit_ns(0), far.transit_ns(1250)), (u64::MAX - 3, u64::MAX));
    }

    proptest::proptest! {
        /// Every finite-positive spec keeps the transit time of the unchecked
        /// formula, to the bit.
        #[test]
        fn servable_links_transit_as_before(
            bytes in 0usize..=9_000,
            gbps in 0.1f64..800.0,
            latency_ns in 0u64..1 << 40,
        ) {
            let l = LinkSpec { latency_ns, gbps, ..Default::default() };
            let unchecked = latency_ns + ((bytes as f64 * 8.0) / gbps).ceil() as u64;
            proptest::prop_assert_eq!(l.transit_ns(bytes), unchecked);
        }
    }
}
