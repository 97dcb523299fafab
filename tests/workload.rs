//! Property-based coverage for the workload generator (ISSUE 7): the Zipf
//! sampler is deterministic per seed and respects its skew parameter, and
//! randomly-sized fat-trees are well-formed — every host reachable, no
//! duplicate links, the Al-Fares node-count formulas hold, and the pod
//! partition covers every node exactly once.
//!
//! ISSUE 10 extends the suite to the event-weight-balanced partitioner:
//! LPT packing respects its load bound and is deterministic per input,
//! both on synthetic weights and on random fat-trees with traced flows.

use std::collections::HashSet;

use netcl_net::topo::LinkSpec;
use netcl_net::{FatTree, FlowStream, NodeId, Partition, PrecomputedRoutes, WorkloadRng, Zipf};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed → identical sample stream; the stream is pure state, so
    /// two independently-constructed RNGs from one seed cannot diverge.
    #[test]
    fn zipf_sampling_is_deterministic_per_seed(
        seed in any::<u64>(),
        n in 1usize..500,
        s in 0.0f64..2.0,
    ) {
        let z = Zipf::new(n, s);
        let draw = |seed: u64| {
            let mut rng = WorkloadRng::new(seed);
            (0..64).map(|_| z.sample(&mut rng)).collect::<Vec<u64>>()
        };
        prop_assert_eq!(draw(seed), draw(seed));
        for r in draw(seed) {
            prop_assert!((1..=n as u64).contains(&r), "rank {r} out of 1..={n}");
        }
    }

    /// The model distribution respects the skew: rank probabilities are
    /// non-increasing, sum to one, and rank 1's share grows with `s`
    /// (strictly, once there is more than one rank).
    #[test]
    fn zipf_model_respects_skew(n in 2usize..500, s in 0.1f64..2.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (1..=n).map(|r| z.prob(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "probabilities sum to {total}");
        for r in 1..n {
            prop_assert!(
                z.prob(r) >= z.prob(r + 1),
                "rank {r} ({}) < rank {} ({})", z.prob(r), r + 1, z.prob(r + 1)
            );
        }
        let flat = Zipf::new(n, 0.0);
        prop_assert!(
            z.prob(1) > flat.prob(1),
            "skew {s} must concentrate mass on rank 1 beyond uniform"
        );
        let steeper = Zipf::new(n, s + 0.5);
        prop_assert!(steeper.prob(1) > z.prob(1), "more skew, more rank-1 mass");
    }

    /// Empirical rank-1 frequency tracks the model probability: over 5 000
    /// draws the observed share of rank 1 lands within ±0.05 absolute of
    /// `prob(1)` — a generous bound (σ ≤ 0.007 for a Bernoulli over 5 000
    /// trials) that still catches an off-by-one in the CDF search.
    #[test]
    fn zipf_rank_one_frequency_matches_model(
        seed in any::<u64>(),
        n in 2usize..200,
        s in 0.5f64..1.5,
    ) {
        let z = Zipf::new(n, s);
        let mut rng = WorkloadRng::new(seed);
        let draws = 5_000;
        let ones = (0..draws).filter(|_| z.sample(&mut rng) == 1).count();
        let observed = ones as f64 / draws as f64;
        prop_assert!(
            (observed - z.prob(1)).abs() < 0.05,
            "rank-1 frequency {observed:.4} vs model {:.4} (n={n}, s={s:.2})",
            z.prob(1)
        );
    }

    /// Fat-trees of random even arity are well-formed: the Al-Fares counts
    /// hold (k³/4 hosts, (k/2)² core, k·k/2 edge and agg switches), no
    /// link appears twice, and every host can route to every other host —
    /// walking the destination's routing tree (the route the simulator
    /// takes) from src reaches dst within the tree's diameter.
    #[test]
    fn fat_tree_is_well_formed(half_k in 1u16..=4, seed in any::<u64>()) {
        let k = half_k * 2;
        let ft = FatTree::new(k, LinkSpec::default()).unwrap();
        let half = (k / 2) as usize;
        prop_assert_eq!(ft.num_hosts(), half * half * k as usize);
        prop_assert_eq!(ft.core.len(), half * half);
        prop_assert_eq!(ft.edge_by_pod.len(), k as usize);
        prop_assert_eq!(ft.agg_by_pod.len(), k as usize);
        for p in 0..k as usize {
            prop_assert_eq!(ft.edge_by_pod[p].len(), half);
            prop_assert_eq!(ft.agg_by_pod[p].len(), half);
            prop_assert_eq!(ft.hosts_by_pod[p].len(), half * half);
        }

        // No duplicate links: each node's neighbor list has unique peers.
        for node in ft.topology.nodes() {
            let peers: Vec<NodeId> =
                ft.topology.neighbors(node).iter().map(|&(n, _)| n).collect();
            let unique: HashSet<NodeId> = peers.iter().copied().collect();
            prop_assert_eq!(unique.len(), peers.len(), "duplicate link at {:?}", node);
        }

        // Random host pairs route end-to-end: hop-by-hop walks down the
        // destination's routing tree terminate within the fat-tree
        // diameter (6).
        let mut rng = WorkloadRng::new(seed);
        for _ in 0..16 {
            let a = ft.hosts[rng.below(ft.hosts.len() as u64) as usize];
            let b = ft.hosts[rng.below(ft.hosts.len() as u64) as usize];
            if a == b {
                continue;
            }
            let dst = NodeId::Host(b);
            let tree = ft.topology.routing_tree(dst, &HashSet::new());
            let mut at = NodeId::Host(a);
            let mut hops = 0;
            while at != dst {
                at = tree.get(&at).unwrap_or_else(|| panic!("no route {at:?} → {dst:?}")).0;
                hops += 1;
                prop_assert!(hops <= 6, "route {a} → {b} exceeds fat-tree diameter");
            }
        }
    }

    /// The fat-tree partition covers every node exactly once, for any
    /// shard count from 1 to 2k — including counts that don't divide the
    /// pod or core count evenly, and counts beyond the number of units.
    #[test]
    fn fat_tree_partition_is_exact_cover(half_k in 1u16..=4, shards in 1usize..=16) {
        let k = half_k * 2;
        let ft = FatTree::new(k, LinkSpec::default()).unwrap();
        let routes = PrecomputedRoutes::new(&ft.topology);
        // Every host queries pod 0's first edge switch.
        let flows = ft.hosts.iter().map(|&h| (h, ft.edge_by_pod[0][0]));
        let (p, _) = ft.partition_balanced(&routes, flows, shards);
        prop_assert_eq!(p.num_shards(), shards);
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut total = 0usize;
        for group in p.groups() {
            for &node in group {
                prop_assert!(seen.insert(node), "{:?} assigned twice", node);
                total += 1;
            }
        }
        let all: HashSet<NodeId> = ft.topology.nodes().into_iter().collect();
        prop_assert_eq!(total, all.len());
        prop_assert_eq!(seen, all);
    }

    /// The LPT packer honors the classic guarantee — busiest shard ≤
    /// total/shards + heaviest unit — and is a pure function of its
    /// input: same units, same groups and same predicted loads.
    #[test]
    fn lpt_packing_is_bounded_and_deterministic(
        weights in proptest::collection::vec(0u64..1_000, 1..48),
        shards in 1usize..=8,
    ) {
        let units = |ws: &[u64]| -> Vec<(Vec<NodeId>, u64)> {
            ws.iter().enumerate().map(|(i, &w)| (vec![NodeId::Host(i as u32)], w)).collect()
        };
        let (p, loads) = Partition::balanced_with_weights(units(&weights), shards);
        let (p2, loads2) = Partition::balanced_with_weights(units(&weights), shards);
        prop_assert_eq!(p.groups(), p2.groups());
        prop_assert_eq!(&loads, &loads2);
        prop_assert_eq!(loads.len(), shards.max(1));
        let total: u64 = weights.iter().sum();
        prop_assert_eq!(loads.iter().sum::<u64>(), total);
        let max_unit = weights.iter().copied().max().unwrap_or(0);
        let max_load = loads.iter().copied().max().unwrap_or(0);
        prop_assert!(
            max_load <= total / shards as u64 + max_unit,
            "LPT bound violated: busiest {max_load} > {total}/{shards} + {max_unit}"
        );
    }
}

proptest! {
    // Each case precomputes a routing forest and traces a flow set, so
    // keep the case count below the default 64.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The event-weight-balanced fat-tree partitioner (ISSUE 10): on
    /// random arities, shard counts, and Zipf flow sets, the partition is
    /// an exact node cover, deterministic per (topology, workload) — same
    /// groups on re-trace — and its busiest shard carries at most
    /// the LPT bound (total/shards + heaviest unit, units measured by
    /// giving each one its own shard).
    #[test]
    fn balanced_fat_tree_partition_bounds_busiest_shard(
        half_k in 2u16..=4,
        shards in 2usize..=8,
        seed in any::<u64>(),
    ) {
        let k = half_k * 2;
        let ft = FatTree::new(k, LinkSpec::default()).unwrap();
        let routes = PrecomputedRoutes::new(&ft.topology);
        let zipf = Zipf::new(ft.num_hosts(), 0.99);
        let half = (k / 2) as usize;
        // The same scatter the fat-tree workloads apply to Zipf ranks.
        let pairs: Vec<(u32, u16)> = FlowStream::new(seed, &ft.hosts, &zipf, 200, 10)
            .map(|f| {
                let idx = ((f.key as usize - 1) * 2_654_435_761) % ft.num_hosts();
                let pod = idx / (half * half);
                let within = (idx % (half * half)) / half;
                (f.src, ft.edge_by_pod[pod][within])
            })
            .collect();
        let (p, loads) = ft.partition_balanced(&routes, pairs.iter().copied(), shards);

        // Exact cover of every node.
        let mut seen: HashSet<NodeId> = HashSet::new();
        for group in p.groups() {
            for &node in group {
                prop_assert!(seen.insert(node), "{:?} assigned twice", node);
            }
        }
        let all: HashSet<NodeId> = ft.topology.nodes().into_iter().collect();
        prop_assert_eq!(seen, all);

        // Deterministic per input.
        let (p2, loads2) = ft.partition_balanced(&routes, pairs.iter().copied(), shards);
        prop_assert_eq!(p.groups(), p2.groups());
        prop_assert_eq!(&loads, &loads2);

        // LPT bound, with unit weights observed by isolating every unit
        // (pods and individual core switches) on its own shard.
        let nunits = k as usize + half * half;
        let (_, unit_loads) = ft.partition_balanced(&routes, pairs.iter().copied(), nunits);
        let total: u64 = loads.iter().sum();
        prop_assert_eq!(unit_loads.iter().sum::<u64>(), total);
        let max_unit = unit_loads.iter().copied().max().unwrap_or(0);
        let max_load = loads.iter().copied().max().unwrap_or(0);
        prop_assert!(
            max_load <= total / shards as u64 + max_unit,
            "busiest shard {max_load} exceeds {total}/{shards} + {max_unit} (k={k})"
        );
    }
}
