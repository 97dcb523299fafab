//! `fattree_calc` and `fattree_calc_2shard`: streamed Zipf flows across a
//! fat-tree with CALC on every switch — the same topology, flows and seed
//! through the scalar simulator and through two threaded shards.
//!
//! Each flow is a CALC request from a client host, addressed to a
//! Zipf-popular host and computed at that host's edge switch. The kernel
//! returns `ncl::reflect()`; README.md documents where the replies
//! actually land, which [`Deliveries`] counts rather than assumes.

use crate::chain;
use crate::harness::{Alternation, Harness};
use crate::metrics::LayerSamples;
use crate::sim::{self, Sim, Stopwatches};
use crate::spans::Spans;
use crate::stats::quantile;
use netcl_apps::calc;
use netcl_net::topo::LinkSpec;
use netcl_net::{
    FatTree, FlowStream, NetStats, NetworkBuilder, PrecomputedRoutes, ShardedNetwork, Zipf,
};
use netcl_runtime::message::{pack, unpack, Message};
use std::sync::Arc;

/// Mean gap between flow injections, simulated nanoseconds (open loop in
/// simulated time: the generator cannot run late).
const MEAN_GAP_NS: u64 = 10;
/// Every 16th host is a client.
const CLIENT_STRIDE: usize = 16;

/// Topology and flow schedule: pure functions of `(k, flows, seed)`.
struct Plan {
    ft: FatTree,
    clients: Vec<u32>,
    zipf: Zipf,
    /// Zipf rank − 1, scattered → (destination host, its edge switch).
    targets: Arc<Vec<(u16, u16)>>,
    flows: usize,
    seed: u64,
}

impl Plan {
    fn new(spans: &mut Spans, k: u16, flows: usize, seed: u64) -> Plan {
        let ft = spans
            .leaf("net.topology", || FatTree::new(k, LinkSpec::default()).expect("an even arity"));
        assert!(ft.num_hosts() <= 1 << 16, "host ids must fit the 16-bit wire address");
        // The injection time rides in operand `b`, a 32-bit field.
        assert!((flows as u64) * 2 * MEAN_GAP_NS < 1 << 32, "timestamps must fit operand b");
        let clients = ft.hosts.iter().copied().step_by(CLIENT_STRIDE).collect();
        let half = (k / 2) as usize;
        let targets = (0..ft.num_hosts())
            .map(|i| {
                let (pod, within) = (i / (half * half), (i % (half * half)) / half);
                (ft.hosts[i] as u16, ft.edge_by_pod[pod][within])
            })
            .collect();
        let zipf = Zipf::new(ft.num_hosts(), 0.99);
        Plan { ft, clients, zipf, targets: Arc::new(targets), flows, seed }
    }

    fn stream(&self) -> FlowStream {
        FlowStream::new(self.seed, &self.clients, &self.zipf, self.flows, MEAN_GAP_NS)
    }

    /// Scatters Zipf rank `key` over the tree with a multiplicative
    /// permutation (the constant is prime), so the popular destinations do
    /// not all sit in pod 0.
    fn target_of(targets: &[(u16, u16)], key: u64) -> (u16, u16) {
        targets[((key as usize - 1) * 2_654_435_761) % targets.len()]
    }

    /// The lazily generated schedule as the simulator pulls it: operand
    /// `a` is the Zipf key, operand `b` the injection time.
    fn flow_source(&self, watches: Option<&Stopwatches>) -> netcl_net::FlowSource {
        let mut stream = self.stream();
        let targets = Arc::clone(&self.targets);
        let spec = calc::spec();
        sim::flow_source(
            Box::new(move || {
                stream.next().map(|f| {
                    let (dst, dev) = Plan::target_of(&targets, f.key);
                    let m = Message::new(f.src as u16, dst, 1, dev);
                    let args = [Some(&[calc::OP_ADD][..]), Some(&[f.key]), Some(&[f.at_ns]), None];
                    (f.at_ns, f.src, pack(&m, &spec, &args).expect("a CALC request packs"))
                })
            }),
            watches,
        )
    }

    fn devices(&self) -> Vec<u16> {
        let pods = self.ft.edge_by_pod.iter().chain(&self.ft.agg_by_pod).flatten();
        pods.chain(&self.ft.core).copied().collect()
    }

    /// A builder with every device's own CALC program freshly loaded and a
    /// sink on every host.
    fn builder(&self, spans: &mut Spans, calc: &[chain::Device]) -> NetworkBuilder {
        let mut b = NetworkBuilder::new(self.ft.topology.clone()).seed(self.seed);
        let load = spans.enter("bmv2.load");
        for d in calc {
            b = b.device(d.id, netcl_bmv2::Switch::new(d.program.clone()), d.latency_ns());
        }
        spans.exit(load);
        for &host in &self.ft.hosts {
            b = b.sink_host(host);
        }
        b
    }
}

/// Builds the plan and compiles CALC for it: the part of set-up both
/// simulators share.
///
/// A generated program computes only on messages addressed to the device
/// it was compiled for (`hdr.ncl.to == <id>`), so the application's
/// `_at(1)` kernel loaded on every switch would compute on none of these
/// flows. The kernel is placed at every switch of the tree instead, and
/// each switch loads the program compiled for its own id.
fn prepare(
    spans: &mut Spans,
    k: u16,
    flows: usize,
    seed: u64,
) -> Result<(Plan, Vec<chain::Device>), String> {
    let plan = Plan::new(spans, k, flows, seed);
    let ids: Vec<String> = plan.devices().iter().map(u16::to_string).collect();
    let source = calc::netcl_source();
    assert!(source.contains("_at(1)"), "CALC's placement is no longer `_at(1)`");
    let source = source.replace("_at(1)", &format!("_at({})", ids.join(", ")));
    let built = chain::build(spans, &chain::compiler(), "calc.ncl", &source)?;
    Ok((plan, built.devices))
}

fn build_sharded(spans: &mut Spans, plan: &Plan, calc: &[chain::Device]) -> ShardedNetwork {
    let routes = spans.leaf("net.routes", || PrecomputedRoutes::new(&plan.ft.topology));
    let (partition, _) = spans.leaf("net.partition", || {
        let pairs = plan.stream().map(|f| (f.src, Plan::target_of(&plan.targets, f.key).1));
        plan.ft.partition_balanced(&routes, pairs, 2)
    });
    let builder = plan.builder(spans, calc);
    let mut net = spans
        .leaf("net.build", || builder.build_sharded_with(partition, &routes))
        .expect("partition_balanced covers every node");
    net.set_threaded(true);
    net
}

/// What the hosts received, judged from the payloads alone.
struct Deliveries {
    /// Injection → delivery, simulated ns, ascending.
    latency_ns: Vec<f64>,
    /// Payloads that did not unpack to `a + b`.
    wrong: u64,
    /// Deliveries that landed on the host that sent the request.
    at_source: u64,
}

fn deliveries(net: &impl Sim, plan: &Plan) -> Deliveries {
    let spec = calc::spec();
    let mut d = Deliveries { latency_ns: Vec::with_capacity(plan.flows), wrong: 0, at_source: 0 };
    let (mut a, mut b, mut result) = (Vec::new(), Vec::new(), Vec::new());
    for &host in &plan.ft.hosts {
        for (at, bytes) in net.host_received(host) {
            let args = &mut [None, Some(&mut a), Some(&mut b), Some(&mut result)];
            match unpack(bytes, &spec, args) {
                Ok(m) if result[0] == calc::reference(calc::OP_ADD, a[0], b[0]) && *at >= b[0] => {
                    d.latency_ns.push((at - b[0]) as f64);
                    d.at_source += (m.src as u32 == host) as u64;
                }
                _ => d.wrong += 1,
            }
        }
    }
    d.latency_ns.sort_by(f64::total_cmp);
    d
}

/// What one run's deliveries amount to, in simulated time.
#[derive(Clone, Copy, PartialEq)]
struct Delivered {
    latency_p50_ns: f64,
    latency_p99_ns: f64,
    /// How many replies landed on the host that sent the request.
    at_source: u64,
}

/// The gates of one finished run.
fn gate(h: &mut Harness, net: &impl Sim, plan: &Plan, stats: &NetStats) -> Delivered {
    let d = deliveries(net, plan);
    let flows = plan.flows as u64;
    let undelivered = flows.abs_diff(stats.delivered) + flows.abs_diff(d.latency_ns.len() as u64);
    h.gate("fat-tree flows delivered with a + b", flows, (undelivered + d.wrong).min(flows));
    h.gate("fat-tree routable", 1, (stats.unroutable > 0) as u64);
    let percentile = |q| if d.latency_ns.is_empty() { 0.0 } else { quantile(&d.latency_ns, q) };
    Delivered {
        latency_p50_ns: percentile(0.5),
        latency_p99_ns: percentile(0.99),
        at_source: d.at_source,
    }
}

/// One measured repeat on a freshly built network: attach the flows,
/// run, gate.
fn repeat<N: Sim>(
    h: &mut Harness,
    plan: &Plan,
    net: &mut N,
    watches: Option<&Stopwatches>,
    layers: &mut LayerSamples,
) -> (sim::Ran, Delivered) {
    net.set_flow_source(plan.flow_source(watches));
    let ran = sim::run(h, net, &plan.devices(), watches, layers, plan.flows as u64);
    let delivered = gate(h, net, plan, &ran.stats);
    (ran, delivered)
}

/// `shards` is 1 (the scalar simulator) or 2 (two threaded shards).
pub fn run(h: &mut Harness, shards: usize) {
    let k = h.sized(16, 8);
    let flows = h.sized(60_000, 2_000);
    let seed = h.seed;
    let scalar_setup = |spans: &mut Spans| {
        let (plan, calc) = prepare(spans, k, flows, seed)?;
        let builder = plan.builder(spans, &calc);
        let net = spans.leaf("net.build", || builder.build());
        Ok::<_, String>((plan, net))
    };

    // The sharded run must reproduce the scalar one exactly, so it first
    // takes one scalar pass, untimed, to compare every repeat against.
    let scalar = (shards > 1).then(|| {
        h.check(|h| {
            let (plan, mut net) = scalar_setup(&mut h.spans).expect("CALC compiles");
            repeat(h, &plan, &mut net, None, &mut LayerSamples::default())
        })
    });

    // Every repeat sets up afresh — switch registers and simulator state
    // must not carry over — so every repeat is also a `setup_s` sample.
    let one_repeat = |h: &mut Harness, traced: bool, layers: &mut LayerSamples| {
        let watches = traced.then(Stopwatches::default);
        if shards == 1 {
            let (plan, mut net) = h.setup(scalar_setup).expect("CALC compiles");
            return repeat(h, &plan, &mut net, watches.as_ref(), layers);
        }
        let (plan, mut net) = h
            .setup(|spans| {
                let (plan, calc) = prepare(spans, k, flows, seed)?;
                let net = build_sharded(spans, &plan, &calc);
                Ok::<_, String>((plan, net))
            })
            .expect("CALC compiles");
        let (ran, delivered) = repeat(h, &plan, &mut net, watches.as_ref(), layers);
        let (scalar_ran, scalar_delivered) = scalar.as_ref().expect("taken above");
        let same = ran.stats == scalar_ran.stats && delivered == *scalar_delivered;
        h.gate("sharded run ≡ scalar run (NetStats, deliveries)", 1, !same as u64);
        if traced {
            let busy: Vec<f64> = net.busy_ns().iter().map(|&b| b as f64 / 1e9).collect();
            let (sum, max) = (busy.iter().sum::<f64>(), busy.iter().copied().fold(0.0, f64::max));
            let events: Vec<u64> = net.shard_stats().iter().map(|s| s.events).collect();
            let busiest = *events.iter().max().expect("two shards") as f64;
            let capacity = shards as f64 * ran.took.wall_s;
            layers.push("net.shard.rounds", net.rounds() as f64);
            layers.push("net.shard.busy_sum_s", sum);
            layers.push("net.shard.busy_max_s", max);
            layers.push("net.shard.busiest_share", busiest / ran.stats.events as f64);
            layers.push("net.shard.wait_s", capacity - sum);
            layers.push("net.shard.efficiency", sum / capacity);
            layers.push("net.shard.peak_queue", net.peak_queue() as f64);
            // A projection — what one core per shard would take — never
            // an end-to-end figure.
            layers.push("net.shard.critical_path_s", net.critical_path_ns() as f64 / 1e9);
        }
        (ran, delivered)
    };

    let mut layers = LayerSamples::default();
    h.warm_up(|h| drop(one_repeat(h, false, &mut layers)));
    let mut alternation = Alternation::new(h.trace);
    while h.keep_measuring() {
        let traced = alternation.next_is_traced();
        let (ran, delivered) = one_repeat(h, traced, &mut layers);
        if !alternation.record(traced, ran.took.ref_s) {
            continue;
        }
        h.work(ran.stats.events as f64, ran.took);
        if traced {
            layers.push("sim.flow_latency_p50_ns", delivered.latency_p50_ns);
            layers.push("sim.flow_latency_p99_ns", delivered.latency_p99_ns);
            layers.push("net.delivered_at_source", delivered.at_source as f64);
        }
    }

    if h.trace {
        layers.push("harness.trace_overhead", alternation.overhead());
        layers.file(&mut h.report);
    }
}
