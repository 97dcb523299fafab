//! Flow-level workload generation for large-scale runs (DESIGN.md §15).
//!
//! The paper evaluates its four apps on a six-server testbed (§VII); the
//! ROADMAP's north star is traffic from millions of users. This module
//! makes such runs *expressible*: a k-ary fat-tree topology builder
//! (k³/4 hosts — k=36 is 11 664, k=48 is 27 648), a Zipf key sampler for
//! CACHE-style skewed access, and a deterministic flow generator tying
//! them together. Everything is a pure function of its seed: the same seed
//! yields the same flows, which the proptest suite (`tests/workload.rs`)
//! pins down.

use std::collections::HashSet;
use std::sync::Arc;

use netcl_util::hash::{splitmix64, IntMap};

use crate::route::RouteCore;
use crate::shard::Partition;
use crate::topo::{LinkSpec, NodeId, Topology};

/// A small deterministic RNG (splitmix64) for workload generation —
/// deliberately separate from the simulator's per-node chaos streams so
/// generating a workload never perturbs a run's fault draws.
#[derive(Debug, Clone)]
pub struct WorkloadRng {
    state: u64,
}

impl WorkloadRng {
    /// A stream fully determined by `seed`.
    pub fn new(seed: u64) -> WorkloadRng {
        WorkloadRng { state: seed }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf(n, s) sampler over ranks `1..=n`: `P(r) ∝ r⁻ˢ`. A draw `u`
/// inverts the CDF through a guide table (Chen & Asau): `guide[j]` is the
/// CDF index of `u = j/n`, so `u` searches only the few entries between the
/// guide entries around `u·n` — O(1) expected instead of O(log n) — and
/// lands exactly where a search of the whole CDF would. The tables are
/// shared, so a clone (each [`FlowStream`] holds one) is a reference count.
#[derive(Debug, Clone)]
pub struct Zipf {
    tables: Arc<ZipfTables>,
}

#[derive(Debug)]
struct ZipfTables {
    /// `cdf[r - 1]`: the probability of a rank ≤ r; the last entry is 1.
    cdf: Vec<f64>,
    /// `guide[j]`: the number of `cdf` entries ≤ `j / n`, for `j ∈ 0..=n`.
    guide: Vec<usize>,
}

impl Zipf {
    /// A sampler over `n ≥ 1` ranks with skew `s ≥ 0` (s = 0 is uniform;
    /// CACHE-style key popularity is usually s ≈ 0.9–1.1).
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // `j / n` rises with `j`, so one sweep finds every guide entry.
        let mut guide = Vec::with_capacity(n + 1);
        let mut i = 0;
        for j in 0..=n {
            let u = j as f64 / n as f64;
            while i < n && cdf[i] <= u {
                i += 1;
            }
            guide.push(i);
        }
        Zipf { tables: Arc::new(ZipfTables { cdf, guide }) }
    }

    /// The model probability of rank `r` (1-based) — what the proptest
    /// suite checks empirical frequencies against.
    pub fn prob(&self, r: usize) -> f64 {
        let cdf = &self.tables.cdf;
        assert!((1..=cdf.len()).contains(&r));
        let lo = if r == 1 { 0.0 } else { cdf[r - 2] };
        cdf[r - 1] - lo
    }

    /// The number of CDF entries ≤ `u` for `u ∈ [0, 1)`: exactly
    /// `cdf.partition_point(|&c| c <= u)`. With `j* = ⌊u·n⌋`, the rounded
    /// `u·n` truncates to `j*` or `j* + 1` (never below: `j*` is exact and
    /// rounding is monotone), and a rounded `j / n` may sit an ulp to
    /// either side of the true one; so the answer lies between
    /// `guide[j − 1]` and `guide[j + 2]`, clamped to the table.
    fn index(&self, u: f64) -> usize {
        let ZipfTables { cdf, guide } = &*self.tables;
        let n = cdf.len();
        let j = ((u * n as f64) as usize).min(n);
        let (lo, hi) = (guide[j.saturating_sub(1)], guide[(j + 2).min(n)]);
        lo + cdf[lo..hi].partition_point(|&c| c <= u)
    }

    /// Draws a rank in `1..=n`.
    pub fn sample(&self, rng: &mut WorkloadRng) -> u64 {
        let idx = self.index(rng.next_f64());
        (idx.min(self.tables.cdf.len() - 1) + 1) as u64
    }
}

/// One generated request: injected at `src` at `at_ns`, targeting `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Absolute injection time.
    pub at_ns: u64,
    /// Source host id.
    pub src: u32,
    /// Application key (a Zipf rank for CACHE-style workloads).
    pub key: u64,
}

/// A deterministic flow generator: `count` flows, sources drawn uniformly
/// from `hosts`, keys from `zipf`, injection times spaced by uniform gaps
/// in `[1, 2·mean_gap_ns]` so the long-run rate is about one flow per
/// `mean_gap_ns`. An iterator, so a run can pull flows one at a time
/// through a [`crate::sim::FlowSource`] with memory O(live events) — the
/// enabling piece for 10⁶-flow drives of the 10⁵-host fat-tree — or
/// `collect()` the schedule up front; the determinism suite holds the two
/// to byte-identical results. The stream shares `zipf`'s tables.
#[derive(Debug, Clone)]
pub struct FlowStream {
    rng: WorkloadRng,
    hosts: Vec<u32>,
    zipf: Zipf,
    remaining: usize,
    mean_gap_ns: u64,
    at: u64,
}

impl FlowStream {
    /// A stream fully determined by its arguments.
    pub fn new(
        seed: u64,
        hosts: &[u32],
        zipf: &Zipf,
        count: usize,
        mean_gap_ns: u64,
    ) -> FlowStream {
        assert!(!hosts.is_empty(), "need at least one source host");
        FlowStream {
            rng: WorkloadRng::new(seed),
            hosts: hosts.to_vec(),
            zipf: zipf.clone(),
            remaining: count,
            mean_gap_ns,
            at: 0,
        }
    }
}

impl Iterator for FlowStream {
    type Item = Flow;

    fn next(&mut self) -> Option<Flow> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Draw order — gap, then source, then key — is part of what a
        // seed means: reordering it changes every recorded schedule.
        self.at += self.rng.below(2 * self.mean_gap_ns.max(1)) + 1;
        Some(Flow {
            at_ns: self.at,
            src: self.hosts[self.rng.below(self.hosts.len() as u64) as usize],
            key: self.zipf.sample(&mut self.rng),
        })
    }
}

/// A k-ary fat-tree (Al-Fares et al.): k pods, each with k/2 edge and k/2
/// agg switches; (k/2)² core switches; k³/4 hosts. Hosts and switches get
/// dense ids, and [`FatTree::partition_balanced`] shards the tree by pod
/// — the natural cut, since pods only meet at the core.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Arity (even, ≥ 2).
    pub k: u16,
    /// The built topology.
    pub topology: Topology,
    /// All host ids, pod-major.
    pub hosts: Vec<u32>,
    /// Host ids grouped by pod.
    pub hosts_by_pod: Vec<Vec<u32>>,
    /// Edge-switch device ids by pod.
    pub edge_by_pod: Vec<Vec<u16>>,
    /// Agg-switch device ids by pod.
    pub agg_by_pod: Vec<Vec<u16>>,
    /// Core-switch device ids.
    pub core: Vec<u16>,
}

impl FatTree {
    /// Builds the k-ary tree with `spec` on every link. `k` must be even,
    /// ≥ 2, and small enough for dense u16 *device* ids (k ≤ 228 — host
    /// ids are u32, so k=74's 101 306 hosts fit; its 6 845 switches are
    /// the binding resource).
    pub fn new(k: u16, spec: LinkSpec) -> Result<FatTree, String> {
        if k < 2 || !k.is_multiple_of(2) {
            return Err(format!("fat-tree arity must be even and ≥ 2, got {k}"));
        }
        let half = (k / 2) as usize;
        let nhosts = half * half * k as usize;
        let ndevs = half * half + k as usize * k as usize;
        if ndevs > u16::MAX as usize {
            return Err(format!("fat-tree k={k} needs {ndevs} device ids; max is {}", u16::MAX));
        }
        let mut topology = Topology::new();
        // Core switches take device ids 0..(k/2)².
        let core: Vec<u16> = (0..(half * half) as u16).collect();
        let mut next_dev = core.len() as u16;
        let mut next_host = 0u32;
        let mut hosts = Vec::with_capacity(nhosts);
        let mut hosts_by_pod = Vec::with_capacity(k as usize);
        let mut edge_by_pod = Vec::with_capacity(k as usize);
        let mut agg_by_pod = Vec::with_capacity(k as usize);
        for _pod in 0..k {
            let edge: Vec<u16> = (0..half).map(|i| next_dev + i as u16).collect();
            let agg: Vec<u16> = (0..half).map(|i| next_dev + (half + i) as u16).collect();
            next_dev += 2 * half as u16;
            // Edge ↔ agg: full bipartite within the pod.
            for &e in &edge {
                for &a in &agg {
                    topology.link(NodeId::Device(e), NodeId::Device(a), spec);
                }
            }
            // Agg ↔ core: agg j uplinks to core block j.
            for (j, &a) in agg.iter().enumerate() {
                for c in 0..half {
                    topology.link(NodeId::Device(a), NodeId::Device(core[j * half + c]), spec);
                }
            }
            // Hosts hang off edge switches, k/2 each.
            let mut pod_hosts = Vec::with_capacity(half * half);
            for &e in &edge {
                for _ in 0..half {
                    topology.link(NodeId::Host(next_host), NodeId::Device(e), spec);
                    pod_hosts.push(next_host);
                    next_host += 1;
                }
            }
            hosts.extend_from_slice(&pod_hosts);
            hosts_by_pod.push(pod_hosts);
            edge_by_pod.push(edge);
            agg_by_pod.push(agg);
        }
        Ok(FatTree { k, topology, hosts, hosts_by_pod, edge_by_pod, agg_by_pod, core })
    }

    /// Total host count (k³/4).
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Shards the tree by *measured event weight* instead of pod index.
    ///
    /// Dealing pods round-robin balances nodes but not events: under a
    /// Zipf workload the pods holding the popular destinations do several
    /// times the work of the rest (~38 % of events on the busiest of 8
    /// shards at k=36), and the busiest shard bounds what sharding can
    /// gain. This counts each distinct `(source host, executing device)`
    /// pair of `flows`, traces the pair's round trip — source host up to
    /// its executing switch and back — once through the real routing tables
    /// in `routes`, and charges its count to the source (the injection) and
    /// to every node the trip arrives at. It then packs pods (plus
    /// individual core switches) onto shards by longest-processing-time
    /// ([`Partition::balanced_with_weights`]). The weights are the sums a
    /// per-flow trace would charge, so the work grows with the distinct
    /// pairs (≈ 7 900 of the fat-tree workloads' 60 000 flows), not the
    /// flows.
    ///
    /// `flows` yields `(source host, executing device)` pairs — for the
    /// CALC fat-tree workloads, the destination's edge switch. The result
    /// is a pure function of (topology, flow schedule, routing). Returns
    /// the partition and per-shard weight loads (for event-share
    /// reporting).
    pub fn partition_balanced(
        &self,
        routes: &crate::PrecomputedRoutes,
        flows: impl Iterator<Item = (u32, u16)>,
        shards: usize,
    ) -> (Partition, Vec<u64>) {
        let mut cache = routes.cache.clone();
        let core = Arc::clone(&cache.core);
        let ix = |n: NodeId| core.index(n).expect("a node of this fat-tree");
        let mut pairs: IntMap<(u32, u32), u64> = IntMap::default();
        for (src, dev) in flows {
            *pairs.entry((ix(NodeId::Host(src)), ix(NodeId::Device(dev)))).or_default() += 1;
        }
        // Event weight per node, by dense index.
        let mut w = vec![0u64; core.nodes.len()];
        let down = HashSet::new();
        for (&(src, dev), &count) in &pairs {
            // Each of the pair's flows is an injection event, then one
            // arrival per hop of the round trip: up to the executing
            // switch, reply back down.
            w[src as usize] += count;
            for (from, to) in [(src, dev), (dev, src)] {
                let mut cur = from;
                // A fat-tree round trip is ≤ 6 hops; the bound only guards
                // against a malformed routing loop.
                for _ in 0..64 {
                    if cur == to {
                        break;
                    }
                    let Some((hop, _)) = cache.hop(cur, to, &down) else { break };
                    w[hop as usize] += count;
                    cur = hop;
                }
            }
        }
        self.pack(&core, &w, shards)
    }

    /// Packs pods and core switches onto `shards` by the per-node weights
    /// `w`, indexed as `core` indexes nodes.
    fn pack(&self, core: &RouteCore, w: &[u64], shards: usize) -> (Partition, Vec<u64>) {
        let ix = |n: NodeId| core.index(n).expect("a node of this fat-tree") as usize;
        let mut units: Vec<(Vec<NodeId>, u64)> = Vec::with_capacity(self.k as usize);
        for (p, pod_hosts) in self.hosts_by_pod.iter().enumerate() {
            let mut nodes: Vec<NodeId> = pod_hosts.iter().map(|&h| NodeId::Host(h)).collect();
            nodes.extend(self.edge_by_pod[p].iter().map(|&d| NodeId::Device(d)));
            nodes.extend(self.agg_by_pod[p].iter().map(|&d| NodeId::Device(d)));
            let weight = nodes.iter().map(|&n| w[ix(n)]).sum();
            units.push((nodes, weight));
        }
        for &c in &self.core {
            units.push((vec![NodeId::Device(c)], w[ix(NodeId::Device(c))]));
        }
        Partition::balanced_with_weights(units, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prob_sums_to_one() {
        let z = Zipf::new(100, 0.99);
        let total: f64 = (1..=100).map(|r| z.prob(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Skew means rank 1 beats rank 100 decisively.
        assert!(z.prob(1) > 10.0 * z.prob(100));
    }

    #[test]
    fn zipf_uniform_at_zero_skew() {
        let z = Zipf::new(50, 0.0);
        for r in 1..=50 {
            assert!((z.prob(r) - 0.02).abs() < 1e-9);
        }
    }

    #[test]
    fn flows_deterministic_per_seed() {
        let z = Zipf::new(1000, 1.0);
        let flows = |seed| FlowStream::new(seed, &[1, 2, 3], &z, 200, 1000).collect::<Vec<_>>();
        let (a, b, c) = (flows(7), flows(7), flows(8));
        assert_eq!(a.len(), 200);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seed, different flows");
        // Injection times strictly increase.
        assert!(a.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
    }

    /// Where a guided index is checked: every CDF entry, every guide point
    /// `j / n`, the floats either side of each, 0, the float just below 1
    /// and 256 seeded draws.
    fn guided_points(z: &Zipf, seed: u64) -> Vec<f64> {
        let (cdf, n) = (&z.tables.cdf, z.tables.cdf.len());
        let mut rng = WorkloadRng::new(seed);
        let edges = cdf.iter().copied().chain((0..=n).map(|j| j as f64 / n as f64));
        let near = edges.flat_map(|c| [c.next_down(), c, c.next_up()]);
        let random = (0..256).map(|_| rng.next_f64()).collect::<Vec<_>>();
        near.chain([0.0, 1.0f64.next_down()])
            .chain(random)
            .filter(|u| (0.0..1.0).contains(u))
            .collect()
    }

    /// The per-flow trace, the oracle the pair counts must equal: every
    /// flow's round trip walked hop by hop, one unit per arrival.
    fn per_flow_partition(
        ft: &FatTree,
        routes: &crate::PrecomputedRoutes,
        flows: &[(u32, u16)],
        shards: usize,
    ) -> (Partition, Vec<u64>) {
        let mut cache = routes.cache.clone();
        let core = Arc::clone(&cache.core);
        let ix = |n: NodeId| core.index(n).expect("a node of this fat-tree");
        let mut w = vec![0u64; core.nodes.len()];
        for &(src, dev) in flows {
            let (src, dev) = (ix(NodeId::Host(src)), ix(NodeId::Device(dev)));
            w[src as usize] += 1;
            for (from, to) in [(src, dev), (dev, src)] {
                let mut cur = from;
                while cur != to {
                    let (hop, _) = cache.hop(cur, to, &HashSet::new()).expect("connected");
                    w[hop as usize] += 1;
                    cur = hop;
                }
            }
        }
        ft.pack(&core, &w, shards)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The guided index is the search of the whole CDF at every
        /// [`guided_points`] point, for n ∈ 1..=4096 and s ∈ [0, 2].
        #[test]
        fn guided_zipf_index_is_the_full_search(
            n in 1usize..=4096,
            milli_s in 0u32..=2000,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Uniform too: its CDF entries are the guide points `j / n`
            // themselves, where the widened bounds are what keep it exact.
            for s in [milli_s as f64 / 1000.0, 0.0] {
                let z = Zipf::new(n, s);
                for u in guided_points(&z, seed) {
                    let full = z.tables.cdf.partition_point(|&c| c <= u);
                    proptest::prop_assert_eq!(z.index(u), full, "u = {:e}, n = {}, s = {}", u, n, s);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Counting pairs charges what tracing every flow charges: on
        /// k ∈ {4, 6, 8}, 1–8 shards and seeded schedules in which each
        /// pair repeats 1–50 times, shuffled, the groups and loads equal
        /// the per-flow oracle's.
        #[test]
        fn pair_counts_partition_like_the_per_flow_trace(
            half_k in 2u16..=4,
            shards in 1usize..=8,
            distinct in 1usize..40,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let ft = FatTree::new(2 * half_k, LinkSpec::default()).unwrap();
            let routes = crate::PrecomputedRoutes::new(&ft.topology);
            let switches: Vec<u16> = ft.edge_by_pod.iter().chain(&ft.agg_by_pod).flatten()
                .chain(&ft.core).copied().collect();
            let mut rng = WorkloadRng::new(seed);
            let mut pick = |n: usize| rng.below(n as u64) as usize;
            let mut flows = Vec::new();
            for _ in 0..distinct {
                let pair = (ft.hosts[pick(ft.hosts.len())], switches[pick(switches.len())]);
                flows.extend(std::iter::repeat_n(pair, 1 + pick(50)));
            }
            for i in (1..flows.len()).rev() {
                flows.swap(i, pick(i + 1));
            }
            let (p, loads) = ft.partition_balanced(&routes, flows.iter().copied(), shards);
            let (oracle, oracle_loads) = per_flow_partition(&ft, &routes, &flows, shards);
            proptest::prop_assert_eq!(p.groups(), oracle.groups());
            proptest::prop_assert_eq!(loads, oracle_loads);
        }
    }

    /// The first 20 flows of the k=16 fat-tree's schedule at seed 7, as
    /// the full-CDF search drew them: a change to the Zipf tables or the
    /// draw order shows here first.
    #[test]
    fn flow_stream_at_seed_7_is_pinned() {
        let ft = FatTree::new(16, LinkSpec::default()).unwrap();
        let zipf = Zipf::new(ft.num_hosts(), 0.99);
        let flows: Vec<(u64, u32, u64)> =
            FlowStream::new(7, &ft.hosts, &zipf, 20, 10).map(|f| (f.at_ns, f.src, f.key)).collect();
        let pinned = [
            (8, 540, 498),
            (12, 474, 4),
            (31, 766, 2),
            (37, 747, 766),
            (48, 48, 381),
            (49, 687, 7),
            (67, 760, 95),
            (77, 925, 14),
            (78, 489, 1),
            (98, 839, 14),
            (111, 172, 11),
            (130, 513, 57),
            (139, 629, 3),
            (151, 481, 573),
            (160, 748, 1),
            (171, 527, 293),
            (190, 744, 92),
            (201, 338, 4),
            (221, 275, 25),
            (229, 682, 61),
        ];
        assert_eq!(flows, pinned);
    }

    #[test]
    fn fat_tree_k4_shape() {
        let ft = FatTree::new(4, LinkSpec::default()).unwrap();
        assert_eq!(ft.num_hosts(), 16);
        assert_eq!(ft.core.len(), 4);
        assert_eq!(ft.edge_by_pod.iter().map(Vec::len).sum::<usize>(), 8);
        assert_eq!(ft.agg_by_pod.iter().map(Vec::len).sum::<usize>(), 8);
        // Any-to-any routing works across pods.
        let to15 = ft.topology.routing_tree(NodeId::Host(15), &Default::default());
        assert!(matches!(to15[&NodeId::Host(0)].0, NodeId::Device(_)));
    }

    #[test]
    fn fat_tree_rejects_odd_arity() {
        assert!(FatTree::new(3, LinkSpec::default()).is_err());
        assert!(FatTree::new(0, LinkSpec::default()).is_err());
    }
}
