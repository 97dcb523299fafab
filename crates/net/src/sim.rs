//! The event-driven simulator core.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use netcl_bmv2::{Packet, PacketBatch, Switch, TableUpdate};
use netcl_obs::{Histogram, Stopwatch, Trace, Value};
use netcl_runtime::device::{DeviceRuntime, Forward};
use netcl_runtime::message::Message;
use netcl_sema::builtins::ActionKind;

use crate::fault::{Fault, FaultSchedule};
use crate::route::RouteCache;
use crate::topo::{link_key, NodeId, Topology};

/// Events delivered to a host handler.
#[derive(Debug, Clone)]
pub enum HostEvent {
    /// A NetCL message arrived.
    Message(Vec<u8>),
    /// A timer the host armed fired.
    Timer(u64),
}

/// What a host does in response: sends and timer arms, all relative to now.
#[derive(Debug, Default)]
pub struct Outbox {
    sends: Vec<(u64, Vec<u8>)>,
    timers: Vec<(u64, u64)>,
}

impl Outbox {
    /// Sends `bytes` after `delay_ns` (0 = immediately).
    pub fn send(&mut self, delay_ns: u64, bytes: Vec<u8>) {
        self.sends.push((delay_ns, bytes));
    }

    /// Arms a timer with a token after `delay_ns`.
    pub fn set_timer(&mut self, delay_ns: u64, token: u64) {
        self.timers.push((delay_ns, token));
    }
}

/// A host's application logic. `Send` so a host can live on a shard
/// thread ([`crate::shard::ShardedNetwork`]).
pub type HostHandler = Box<dyn FnMut(u64, HostEvent, &mut Outbox) + Send>;

/// A device restart hook: runs against the freshly-restarted switch so the
/// application can repopulate `_managed_` state through the control plane
/// (what a NetCL controller does after a device comes back). `Send` for
/// the same reason as [`HostHandler`].
pub type RestartHook = Box<dyn FnMut(&mut Switch) + Send>;

/// A lazy flow generator: each call yields the next driver injection as
/// `(at_ns, source host, wire bytes)`, in nondecreasing `at_ns` order;
/// `None` ends the schedule. [`Network::set_flow_source`] (and the sharded
/// equivalent) pulls flows as simulated time reaches them, so a 10⁶-flow
/// run holds O(live events) in memory instead of materializing the whole
/// schedule up front — with results byte-identical to pre-injecting the
/// same flows (`tests/determinism.rs` asserts this for every app).
/// `Send` so the sharded wrapper can hold it alongside shard threads.
pub type FlowSource = Box<dyn FnMut() -> Option<(u64, u32, Vec<u8>)> + Send>;

// `Outbox` is exactly the send/timer surface the host reliability helper
// needs, so wire it up as its transport.
impl netcl_runtime::reliable::Transport for Outbox {
    fn send(&mut self, delay_ns: u64, bytes: Vec<u8>) {
        Outbox::send(self, delay_ns, bytes);
    }

    fn set_timer(&mut self, delay_ns: u64, token: u64) {
        Outbox::set_timer(self, delay_ns, token);
    }
}

struct DeviceNode {
    switch: Switch,
    runtime: DeviceRuntime,
    /// Per-packet processing latency (from the Tofino model's Fig. 13 path).
    latency_ns: u64,
    /// Reusable packet and output buffer so steady-state processing does
    /// not allocate per packet.
    pkt: Packet,
    out: Vec<u8>,
    /// Reusable delivery batch for [`Switch::process_batch`] (DESIGN.md
    /// §13). Reshapes itself automatically after a device restart swaps the
    /// program.
    batch: PacketBatch,
    /// Scratch for the per-message delivery plan, reused across batches.
    plan: Vec<BatchPlan>,
}

/// What phase A of batched delivery decided about one arrival, consumed in
/// message order by phase C (see `device_receive_batch`).
enum BatchPlan {
    /// Header unreadable: count a drop.
    HeaderDrop,
    /// Not for this device: forward with the original bytes at `clock`.
    Transit(Forward, Vec<u8>),
    /// The next kernel input of the device batch (inputs are pushed and
    /// consumed in message order); the outcome is filled in by phase B.
    Compute,
}

/// How one kernel input left phase B of batched delivery.
enum KernelOutcome {
    /// Final pass produced a forward: rewritten wire, forward decision,
    /// original action code, total passes, and src/dst for tracing.
    Forward { wire: Vec<u8>, fwd: Forward, act_code: u8, passes: u64, src: u16, dst: u16 },
    /// The pipeline rejected the packet on its `passes`-th pass.
    Reject { passes: u64 },
    /// The post-kernel header was unreadable: the message vanishes
    /// silently.
    Vanish { passes: u64 },
    /// All 8 passes asked to repeat: recirculation cap drop.
    CapExceeded,
}

/// Resolves a batch slot that finished in a single pass (phase B).
fn single_pass_outcome(batch: &mut PacketBatch, i: usize, runtime: DeviceRuntime) -> KernelOutcome {
    if batch.outcome(i).is_err() {
        return KernelOutcome::Reject { passes: 1 };
    }
    let wire = batch.take_output(i);
    match Message::read_header(&wire) {
        Err(_) => {
            batch.recycle(wire);
            KernelOutcome::Vanish { passes: 1 }
        }
        Ok(msg) => finish_forward(msg, wire, runtime, 1),
    }
}

/// Applies runtime forwarding to a final (non-repeat) kernel output,
/// rewriting the header in place.
fn finish_forward(
    mut msg: Message,
    mut wire: Vec<u8>,
    runtime: DeviceRuntime,
    passes: u64,
) -> KernelOutcome {
    let action = ActionKind::from_code(msg.action).unwrap_or(ActionKind::Pass);
    let target = msg.target;
    let act_code = msg.action;
    let fwd = runtime.forward(&mut msg, action, target);
    // Clear the per-hop action fields for the next node.
    msg.action = 0;
    msg.target = 0;
    msg.write_header_into(&mut wire[..netcl_runtime::NCL_HEADER_BYTES]);
    KernelOutcome::Forward { wire, fwd, act_code, passes, src: msg.src, dst: msg.dst }
}

/// Completes a recirculating packet's extra passes before the burst
/// resumes: the batch ran pass 0; passes 1..8 ping-pong through the node's
/// scratch buffers, so registers and the per-switch RNG mutate in packet
/// order.
fn finish_recirculation(node: &mut DeviceNode, batch: &mut PacketBatch, i: usize) -> KernelOutcome {
    let mut wire = batch.take_output(i);
    let mut passes = 1u64;
    for _ in 1..8 {
        passes += 1;
        if node.switch.process_into(&wire, &mut node.pkt, &mut node.out).is_err() {
            batch.recycle(wire);
            return KernelOutcome::Reject { passes };
        }
        std::mem::swap(&mut wire, &mut node.out);
        let Ok(msg) = Message::read_header(&wire) else {
            batch.recycle(wire);
            return KernelOutcome::Vanish { passes };
        };
        let action = ActionKind::from_code(msg.action).unwrap_or(ActionKind::Pass);
        if action != ActionKind::Repeat {
            return finish_forward(msg, wire, node.runtime, passes);
        }
    }
    batch.recycle(wire);
    KernelOutcome::CapExceeded
}

struct HostNode {
    handler: Option<HostHandler>,
    received: Vec<(u64, Vec<u8>)>,
    /// Host-side processing cost before a handler's sends go out (socket +
    /// kernel path; the paper attributes its end-to-end deltas to this).
    process_ns: u64,
}

/// Per-node delivery breakdown.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeCounters {
    /// Messages delivered to (hosts) or processed at (devices) this node.
    pub delivered: u64,
    /// Messages dropped at this node or on their way into it.
    pub dropped: u64,
}

/// Simulation statistics. `PartialEq`/`Eq` back the determinism contract:
/// two runs with the same `(seed, fault schedule)` must produce *identical*
/// stats, which the chaos suite asserts to make failing seeds replayable.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Messages delivered to hosts.
    pub delivered: u64,
    /// Messages dropped by kernels (`ncl::drop()`).
    pub kernel_drops: u64,
    /// Messages lost on links.
    pub link_losses: u64,
    /// Device kernel executions.
    pub kernel_executions: u64,
    /// Total traffic events processed (sends, arrivals, timers).
    /// Scheduled-fault applications are control-plane actions — replicated
    /// into every shard of a sharded run — and are deliberately not
    /// counted, so this field merges shard-exactly.
    pub events: u64,
    /// Messages with no route to their target (topology gap). Stays 0 on
    /// well-formed topologies with no scheduled faults.
    pub unroutable: u64,
    /// Messages dropped by scheduled faults: downed links with no detour,
    /// partitions, and failed devices.
    pub fault_drops: u64,
    /// Extra copies created by link duplication.
    pub duplicates: u64,
    /// Messages delivered with a flipped bit.
    pub corrupted: u64,
    /// Messages held back by the reorder distribution.
    pub reordered: u64,
    /// Device restarts executed.
    pub device_restarts: u64,
    /// Recirculation passes (kernel executions beyond a message's first).
    pub recirculations: u64,
    /// Control-plane rule-update batches applied to a live device
    /// ([`Network::schedule_update`]); counted only where the device
    /// lives, so shards merge exactly.
    pub rule_updates: u64,
    /// Rule-update batches that did not land: the target device was failed
    /// (blackholed) at delivery time, or the batch failed validation.
    pub rule_update_rejects: u64,
    /// Transits that crossed a gray-degraded link
    /// ([`Fault::LinkDegrade`]) — delivered, just slower.
    pub degraded_transits: u64,
    /// Per-node delivered/dropped breakdown (keyed deterministically).
    pub per_node: BTreeMap<NodeId, NodeCounters>,
}

impl NetStats {
    fn node(&mut self, n: NodeId) -> &mut NodeCounters {
        self.per_node.entry(n).or_default()
    }

    /// Folds another run's counters into this one (per-node breakdown
    /// included) — for aggregating over a seed matrix.
    pub fn accumulate(&mut self, other: &NetStats) {
        self.delivered += other.delivered;
        self.kernel_drops += other.kernel_drops;
        self.link_losses += other.link_losses;
        self.kernel_executions += other.kernel_executions;
        self.events += other.events;
        self.unroutable += other.unroutable;
        self.fault_drops += other.fault_drops;
        self.duplicates += other.duplicates;
        self.corrupted += other.corrupted;
        self.reordered += other.reordered;
        self.device_restarts += other.device_restarts;
        self.recirculations += other.recirculations;
        self.rule_updates += other.rule_updates;
        self.rule_update_rejects += other.rule_update_rejects;
        self.degraded_transits += other.degraded_transits;
        for (n, c) in &other.per_node {
            let e = self.per_node.entry(*n).or_default();
            e.delivered += c.delivered;
            e.dropped += c.dropped;
        }
    }
}

/// What [`NetworkBuilder::observe`] turns on. Observability is strictly
/// opt-out-by-default: a network built without `observe` never reads the
/// wall clock and allocates nothing for telemetry (the <2% throughput
/// budget in DESIGN.md §12 is for the *enabled* case).
#[derive(Debug, Default, Clone, Copy)]
pub struct ObsConfig {
    /// Also record a per-message Chrome `trace_event` timeline
    /// ([`Network::take_trace`]); histograms alone are much cheaper.
    pub trace: bool,
    /// Bound the trace to the most recent N data events
    /// ([`Trace::bounded`]): long chaos runs stay O(capacity) instead of
    /// O(run length). `None` keeps every event. Track-naming metadata is
    /// exempt, and stats/counters are unaffected either way.
    pub trace_capacity: Option<usize>,
}

/// Wall-clock observability for a run. Kept *outside* [`NetStats`] on
/// purpose: stats are `Eq` and back the chaos determinism contract, while
/// everything in here depends on host wall time and would differ between
/// two otherwise-identical runs.
#[derive(Debug, Default, Clone)]
pub struct NetObs {
    /// Event-queue depth, sampled after each event is popped.
    pub queue_depth: Histogram,
    /// Wall-clock nanoseconds spent processing each event.
    pub event_wall_ns: Histogram,
    /// The message timeline (simulated time), when tracing was requested.
    pub trace: Option<Trace>,
}

/// Trace thread-track id for a node: devices use their id, hosts are
/// offset so the tracks never collide.
fn tid_of(n: NodeId) -> u32 {
    match n {
        NodeId::Device(d) => d as u32,
        NodeId::Host(h) => 0x1_0000 + h,
    }
}

/// Builder for a [`Network`] (or, via
/// [`build_sharded`](NetworkBuilder::build_sharded) in [`crate::shard`],
/// a set of shard networks over the same configuration).
#[derive(Default)]
pub struct NetworkBuilder {
    /// `Arc` so the sharded builder replicates the topology into every
    /// shard by reference — at 10⁵ hosts a deep clone per shard is ~100 MB
    /// of pure duplication. Shards only read it (routing, group fan-out).
    pub(crate) topology: Arc<Topology>,
    pub(crate) devices: Vec<(u16, Switch, u64)>,
    pub(crate) hosts: Vec<(u32, Option<HostHandler>, u64)>,
    pub(crate) seed: u64,
    pub(crate) faults: Vec<(u64, Fault)>,
    pub(crate) updates: Vec<(u64, u16, TableUpdate)>,
    pub(crate) restart_hooks: HashMap<u16, RestartHook>,
    pub(crate) obs: Option<ObsConfig>,
    pub(crate) engine: Option<netcl_bmv2::Engine>,
}

impl NetworkBuilder {
    /// Starts from a topology.
    pub fn new(topology: Topology) -> NetworkBuilder {
        NetworkBuilder { topology: Arc::new(topology), seed: 0x5DEECE66D, ..Default::default() }
    }

    /// Adds a device running `switch`, with per-packet latency.
    pub fn device(mut self, id: u16, switch: Switch, latency_ns: u64) -> Self {
        self.devices.push((id, switch, latency_ns));
        self
    }

    /// Adds a host with an event handler.
    pub fn host(mut self, id: u32, handler: HostHandler) -> Self {
        self.hosts.push((id, Some(handler), 2000));
        self
    }

    /// Adds a passive host (messages recorded, no reaction).
    pub fn sink_host(mut self, id: u32) -> Self {
        self.hosts.push((id, None, 2000));
        self
    }

    /// Sets the fault-RNG seed. Together with the fault schedule this fully
    /// determines a run: same `(seed, schedule)` → identical [`NetStats`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedules one fault at an absolute simulated time.
    pub fn fault(mut self, at_ns: u64, fault: Fault) -> Self {
        self.faults.push((at_ns, fault));
        self
    }

    /// Schedules a whole [`FaultSchedule`].
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults.extend(schedule.events().iter().cloned());
        self
    }

    /// Schedules a control-plane rule update: the [`TableUpdate`] batch is
    /// applied atomically to device `device`'s switch at `at_ns`
    /// (DESIGN.md §16). Applied updates are journaled and replayed after a
    /// [`Fault::DeviceRestart`], so live rule changes survive where a full
    /// reload would lose them.
    pub fn update(mut self, at_ns: u64, device: u16, update: TableUpdate) -> Self {
        self.updates.push((at_ns, device, update));
        self
    }

    /// Registers a hook run after device `id` restarts, with factory state
    /// already restored — the place to repopulate `_managed_` memory
    /// through the control plane.
    pub fn on_restart(mut self, id: u16, hook: RestartHook) -> Self {
        self.restart_hooks.insert(id, hook);
        self
    }

    /// Enables observability (queue-depth and event-latency histograms;
    /// optionally a Perfetto-loadable trace) for the built network.
    pub fn observe(mut self, cfg: ObsConfig) -> Self {
        self.obs = Some(cfg);
        self
    }

    /// Selects the execution engine for every device in the network
    /// (default: each switch keeps its own setting — normally
    /// [`netcl_bmv2::Engine::Threaded`]). Device restarts preserve it.
    pub fn engine(mut self, engine: netcl_bmv2::Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Builds the network.
    pub fn build(self) -> Network {
        self.build_part(None)
    }

    /// Builds a network that owns only `owned` nodes (one shard); `None`
    /// owns everything. The shard runner routes `xs_out` arrivals.
    pub(crate) fn build_part(self, owned: Option<HashSet<NodeId>>) -> Network {
        let routes = RouteCache::new(&self.topology);
        self.build_part_with(owned, routes)
    }

    /// [`Self::build_part`] with a pre-built route cache — the sharded
    /// builder constructs one cache and clones it into every shard, so the
    /// precomputed switch forest is built once and shared (`Arc`).
    pub(crate) fn build_part_with(
        self,
        owned: Option<HashSet<NodeId>>,
        routes: RouteCache,
    ) -> Network {
        let obs = self.obs.map(|cfg| {
            let trace = cfg.trace.then(|| {
                let mut t = match cfg.trace_capacity {
                    Some(c) => Trace::bounded(c),
                    None => Trace::new(),
                };
                t.name_process(0, "netcl-sim");
                let mut dev_ids: Vec<u16> = self.devices.iter().map(|(id, ..)| *id).collect();
                dev_ids.sort_unstable();
                for id in dev_ids {
                    t.name_thread(0, tid_of(NodeId::Device(id)), format!("device {id}"));
                }
                let mut host_ids: Vec<u32> = self.hosts.iter().map(|(id, ..)| *id).collect();
                host_ids.sort_unstable();
                for id in host_ids {
                    t.name_thread(0, tid_of(NodeId::Host(id)), format!("host {id}"));
                }
                t
            });
            NetObs { trace, ..NetObs::default() }
        });
        let mut devices = HashMap::new();
        for (id, mut switch, latency_ns) in self.devices {
            if let Some(engine) = self.engine {
                switch.set_engine(engine);
            }
            let pkt = switch.new_packet();
            devices.insert(
                id,
                DeviceNode {
                    switch,
                    runtime: DeviceRuntime::new(id),
                    latency_ns,
                    pkt,
                    out: Vec::new(),
                    batch: PacketBatch::new(),
                    plan: Vec::new(),
                },
            );
        }
        let mut hosts = HashMap::new();
        for (id, handler, process_ns) in self.hosts {
            hosts.insert(id, HostNode { handler, received: Vec::new(), process_ns });
        }
        let mut net = Network {
            topology: self.topology,
            devices,
            hosts,
            events: BinaryHeap::new(),
            clock: 0,
            ext_seq: 0,
            node_seq: HashMap::new(),
            cur_node: None,
            seed: self.seed,
            rngs: HashMap::new(),
            stats: NetStats::default(),
            fault_list: Vec::new(),
            update_list: Vec::new(),
            applied_updates: HashMap::new(),
            downed: HashSet::new(),
            degraded: HashMap::new(),
            island: None,
            failed: HashSet::new(),
            restart_hooks: self.restart_hooks,
            obs,
            routes,
            owned,
            xs_out: Vec::new(),
            xs_in: VecDeque::new(),
            flow_source: None,
            next_flow: None,
        };
        for (at, fault) in self.faults {
            net.schedule_fault(at, fault);
        }
        for (at, dev, update) in self.updates {
            net.schedule_update(at, dev, update);
        }
        net
    }
}

/// The running simulation.
pub struct Network {
    topology: Arc<Topology>,
    devices: HashMap<u16, DeviceNode>,
    hosts: HashMap<u32, HostNode>,
    events: BinaryHeap<Reverse<(u64, EventSrc, NodeOrd)>>,
    clock: u64,
    /// Driver-injection counter ([`EventSrc::External`]).
    ext_seq: u64,
    /// Per-node push counters ([`EventSrc::Node`]).
    node_seq: HashMap<NodeId, u64>,
    /// The node whose event is currently being processed; its counter and
    /// RNG stream serve any pushes and draws made during processing.
    cur_node: Option<NodeId>,
    /// The run seed; per-node RNG streams are derived from it lazily.
    seed: u64,
    /// Per-node chaos RNG streams. Draws for a transmit happen on the
    /// *sending* node's stream, so a shard owning that node reproduces the
    /// scalar run's draws exactly (DESIGN.md §15).
    rngs: HashMap<NodeId, u64>,
    /// Statistics.
    pub stats: NetStats,
    /// Scheduled faults, referenced by index from `EventOrd::Fault`.
    fault_list: Vec<Fault>,
    /// Scheduled rule updates, referenced by index from
    /// `EventOrd::RuleUpdate`. Replicated into every shard (like faults)
    /// so indices — and therefore event keys — agree everywhere.
    update_list: Vec<(u16, TableUpdate)>,
    /// Per-device journal of applied updates, replayed (after the restart
    /// hook) when the device restarts — live rule changes survive the
    /// factory reset (DESIGN.md §16).
    applied_updates: HashMap<u16, Vec<TableUpdate>>,
    /// Links currently down (order-normalized endpoint pairs).
    downed: HashSet<(NodeId, NodeId)>,
    /// Links currently gray-degraded (order-normalized endpoint pairs →
    /// latency multiplier). Deliberately *not* part of the routing state:
    /// a degraded link keeps carrying traffic, so trees are never
    /// invalidated by it.
    degraded: HashMap<(NodeId, NodeId), u64>,
    /// Active partition: one island of nodes, cut off from the rest.
    island: Option<HashSet<NodeId>>,
    /// Devices currently failed (blackholing traffic).
    failed: HashSet<u16>,
    restart_hooks: HashMap<u16, RestartHook>,
    /// Wall-clock observability; `None` (the default) costs nothing.
    obs: Option<NetObs>,
    /// Memoized routing trees — one per active destination over a dense
    /// node index, invalidated whenever the downed-link set changes (see
    /// `route.rs`). Pure memoization: the run's observable behavior
    /// depends only on the tree contents, which are a deterministic
    /// function of (topology, downed set) — this is what makes 10⁴-host
    /// fat-tree workloads simulable.
    routes: RouteCache,
    /// When `Some`, this network is one shard: it owns only these nodes,
    /// and arrivals pushed toward any other node land in `xs_out` for the
    /// shard runner to route. `None` (the default) owns everything.
    owned: Option<HashSet<NodeId>>,
    /// Outbound cross-shard arrivals produced by the current window.
    xs_out: Vec<XsEvent>,
    /// Inbound cross-shard arrivals, staged in batches by the shard runner
    /// ([`Network::stage_xs`]) and kept sorted by `(time, key)`. A second
    /// event source merged with the heap during `run_until`: staged
    /// batches arrive pre-sorted, so draining them is O(1) per event
    /// instead of O(log n) heap churn, and same-timestamp arrivals flow
    /// straight into the device batch path.
    xs_in: VecDeque<XsEvent>,
    /// Streamed driver injections ([`Network::set_flow_source`]); pulled
    /// as the run loop reaches each flow's injection time.
    flow_source: Option<FlowSource>,
    /// The next not-yet-injected flow from `flow_source` (its lookahead
    /// of one — flow times are nondecreasing, so this bounds the run
    /// horizon).
    next_flow: Option<(u64, u32, Vec<u8>)>,
}

/// Deterministic event provenance, the same-timestamp tiebreaker.
///
/// The old tiebreaker was a single global push counter, which only exists
/// in a single-threaded run. This key is *locally derivable*: faults are
/// keyed by their schedule index, driver injections by a call-order
/// counter, and everything pushed while processing an event at node `n` by
/// `(n, per-node counter)`. A shard therefore assigns every event exactly
/// the key the scalar run would, which is what makes sharded execution
/// byte-identical (DESIGN.md §15). Keys are unique, so heap order is a
/// total order independent of push order.
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug)]
pub(crate) enum EventSrc {
    /// Scheduled fault, keyed by its index in the fault list.
    Control(u64),
    /// Driver injection (`send_from_host` / `set_host_timer`), call order.
    External(u64),
    /// Pushed while processing an event at this node (per-node counter).
    Node(NodeId, u64),
}

// BinaryHeap payload must be Ord; EventSrc keys are unique so the payload
// wrapper below is never actually compared.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
struct NodeOrd(Vec<u8>, EventOrd);

#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EventOrd {
    Arrive(NodeId),
    Timer(NodeId, u64),
    HostSend(NodeId),
    Fault(usize),
    RuleUpdate(usize),
}

/// Rule-update control keys live in the top half of the
/// [`EventSrc::Control`] space so they can never collide with fault keys
/// (fault index `i` → `Control(i)`, update index `i` → `Control(BIT | i)`).
/// At equal timestamps faults therefore order before rule updates — fixed,
/// documented, and identical in every shard.
const RULE_UPDATE_KEY_BIT: u64 = 1 << 63;

/// An event that crossed a shard boundary: always an arrival, carrying the
/// deterministic key it was pushed with on the sending shard.
#[derive(Debug)]
pub(crate) struct XsEvent {
    pub(crate) time: u64,
    pub(crate) src: EventSrc,
    pub(crate) target: NodeId,
    pub(crate) bytes: Vec<u8>,
}

/// A driver injection routed to a shard by the sharded wrapper.
pub(crate) enum ExternalEvent {
    HostSend(u32, Vec<u8>),
    Timer(u32, u64),
}

impl Network {
    /// Current simulated time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Messages a host received, with arrival timestamps.
    pub fn host_received(&self, id: u32) -> &[(u64, Vec<u8>)] {
        self.hosts.get(&id).map(|h| h.received.as_slice()).unwrap_or(&[])
    }

    /// Direct control-plane access to a device's switch.
    pub fn switch_mut(&mut self, id: u16) -> Option<&mut Switch> {
        self.devices.get_mut(&id).map(|d| &mut d.switch)
    }

    /// Immutable switch access.
    pub fn switch(&self, id: u16) -> Option<&Switch> {
        self.devices.get(&id).map(|d| &d.switch)
    }

    /// The run's observability data, when enabled via
    /// [`NetworkBuilder::observe`].
    pub fn obs(&self) -> Option<&NetObs> {
        self.obs.as_ref()
    }

    /// Takes the recorded trace out of the network (e.g. to serialize it
    /// after a run). Subsequent events are no longer traced.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.obs.as_mut().and_then(|o| o.trace.take())
    }

    /// Records an instant marker on a node's trace track, if tracing.
    fn trace_instant(&mut self, name: &'static str, node: NodeId, ts: u64) {
        if let Some(tr) = self.obs.as_mut().and_then(|o| o.trace.as_mut()) {
            tr.instant(name, "sim", 0, tid_of(node), ts, Vec::new());
        }
    }

    /// Pushes an event with a deterministic key: pushes made while an event
    /// at node `n` is being processed are keyed `(n, per-node counter)`;
    /// pushes from outside the event loop are driver injections.
    fn push(&mut self, time: u64, ord: EventOrd, bytes: Vec<u8>) {
        let src = match self.cur_node {
            Some(n) => {
                let c = self.node_seq.entry(n).or_default();
                *c += 1;
                EventSrc::Node(n, *c)
            }
            None => {
                self.ext_seq += 1;
                EventSrc::External(self.ext_seq)
            }
        };
        self.push_keyed(time, src, ord, bytes);
    }

    /// Pushes a fully-keyed event, routing arrivals at non-owned nodes to
    /// the cross-shard outbox. Only arrivals can cross shards: sends and
    /// timers are always pushed by (or injected at) the node itself.
    fn push_keyed(&mut self, time: u64, src: EventSrc, ord: EventOrd, bytes: Vec<u8>) {
        if let Some(owned) = &self.owned {
            if let EventOrd::Arrive(target) = ord {
                if !owned.contains(&target) {
                    self.xs_out.push(XsEvent { time, src, target, bytes });
                    return;
                }
            }
        }
        self.events.push(Reverse((time, src, NodeOrd(bytes, ord))));
    }

    /// Stages a batch of cross-shard arrivals — how the shard runner
    /// delivers one window's hand-offs, already carrying the keys the
    /// scalar run would assign. The batch is sorted once and merged into
    /// the staging queue; `run_until` then drains it interleaved with the
    /// heap in global `(time, key)` order. One sort per batch replaces a
    /// heap push per event, and a burst of same-timestamp arrivals at one
    /// device reaches `process_batch` in one contiguous run.
    pub(crate) fn stage_xs(&mut self, mut batch: Vec<XsEvent>) {
        if batch.is_empty() {
            return;
        }
        batch.sort_unstable_by_key(|e| (e.time, e.src));
        match self.xs_in.back() {
            // Common case: everything staged earlier has earlier keys
            // (lookahead windows only move forward) — pure append.
            Some(back) if (back.time, back.src) > (batch[0].time, batch[0].src) => {
                let old: Vec<XsEvent> = std::mem::take(&mut self.xs_in).into();
                let mut old = old.into_iter().peekable();
                let mut new = batch.into_iter().peekable();
                while let (Some(a), Some(b)) = (old.peek(), new.peek()) {
                    let next =
                        if (a.time, a.src) <= (b.time, b.src) { old.next() } else { new.next() };
                    self.xs_in.extend(next);
                }
                self.xs_in.extend(old);
                self.xs_in.extend(new);
            }
            _ => self.xs_in.extend(batch),
        }
    }

    /// Injects a driver event (send or timer) with an explicit external
    /// sequence number, used by the sharded wrapper to keep injection keys
    /// identical to a scalar run's.
    pub(crate) fn inject_external(&mut self, time: u64, ext_seq: u64, ord: ExternalEvent) {
        let src = EventSrc::External(ext_seq);
        match ord {
            ExternalEvent::HostSend(h, bytes) => {
                self.push_keyed(time, src, EventOrd::HostSend(NodeId::Host(h)), bytes)
            }
            ExternalEvent::Timer(h, token) => {
                self.push_keyed(time, src, EventOrd::Timer(NodeId::Host(h), token), Vec::new())
            }
        }
    }

    /// Earliest pending event time across the heap and the staged
    /// cross-shard queue, if any.
    pub(crate) fn next_event_time(&self) -> Option<u64> {
        let heap = self.events.peek().map(|Reverse((t, ..))| *t);
        let staged = self.xs_in.front().map(|e| e.time);
        match (heap, staged) {
            (Some(h), Some(s)) => Some(h.min(s)),
            (h, s) => h.or(s),
        }
    }

    /// Pending events not yet processed — the live-event footprint the
    /// streamed-injection bench reports as its memory proxy.
    pub(crate) fn queue_len(&self) -> usize {
        self.events.len() + self.xs_in.len()
    }

    /// Drains the cross-shard arrivals produced by the last window.
    pub(crate) fn take_xs_out(&mut self) -> Vec<XsEvent> {
        std::mem::take(&mut self.xs_out)
    }

    /// Injects a send from a host at an absolute time.
    pub fn send_from_host(&mut self, host: u32, at_ns: u64, bytes: Vec<u8>) {
        self.push(at_ns, EventOrd::HostSend(NodeId::Host(host)), bytes);
    }

    /// Arms a host timer at an absolute time.
    pub fn set_host_timer(&mut self, host: u32, at_ns: u64, token: u64) {
        self.push(at_ns, EventOrd::Timer(NodeId::Host(host), token), Vec::new());
    }

    /// Schedules a fault at an absolute simulated time (also available on
    /// the builder; this form lets tests inject mid-run). Faults are keyed
    /// by schedule index, so replicating one schedule across shards yields
    /// identical keys in every shard.
    pub fn schedule_fault(&mut self, at_ns: u64, fault: Fault) {
        let idx = self.fault_list.len();
        self.fault_list.push(fault);
        self.push_keyed(at_ns, EventSrc::Control(idx as u64), EventOrd::Fault(idx), Vec::new());
    }

    /// Schedules a control-plane rule update at an absolute simulated time
    /// (also available on the builder; this form lets a controller inject
    /// mid-run). Keyed by schedule index in a space disjoint from fault
    /// keys, so replicating one schedule across shards yields identical
    /// keys in every shard.
    pub fn schedule_update(&mut self, at_ns: u64, device: u16, update: TableUpdate) {
        let idx = self.update_list.len();
        self.update_list.push((device, update));
        self.push_keyed(
            at_ns,
            EventSrc::Control(RULE_UPDATE_KEY_BIT | idx as u64),
            EventOrd::RuleUpdate(idx),
            Vec::new(),
        );
    }

    /// Applies a rule update to a device *now*, through the same journaled
    /// path a scheduled update takes: counted in
    /// [`NetStats::rule_updates`] / [`NetStats::rule_update_rejects`] and
    /// replayed after a device restart. Returns whether the batch landed.
    /// A device this network does not own (sharding) is a no-op `false` —
    /// the owner shard counts it.
    pub fn apply_update(&mut self, device: u16, update: TableUpdate) -> bool {
        self.apply_rule_update_inner(device, &update)
    }

    /// Whether device `id` is currently failed.
    pub fn device_failed(&self, id: u16) -> bool {
        self.failed.contains(&id)
    }

    /// Draws from `node`'s chaos RNG stream (splitmix64, lazily seeded
    /// from `seed ⊕ tag(node)`). Streams are per-node so a shard owning
    /// the node reproduces the scalar run's draws regardless of how other
    /// shards' events interleave globally.
    fn rand_u64(&mut self, node: NodeId) -> u64 {
        let tag = match node {
            NodeId::Host(h) => 0x486F_7374_0000_0000u64 | h as u64,
            NodeId::Device(d) => 0x4465_7663_0000_0000u64 | d as u64,
        };
        let seed = self.seed;
        let state = self.rngs.entry(node).or_insert_with(|| {
            // One splitmix step decorrelates the per-node seeds.
            let mut z = seed ^ tag;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        });
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn rand01(&mut self, node: NodeId) -> f64 {
        self.rand_u64(node) as f64 / u64::MAX as f64
    }

    /// Attaches a lazy flow schedule: `source` yields driver injections
    /// `(at_ns, host, bytes)` in nondecreasing time order, and the run
    /// loop pulls each one as simulated time reaches it. Equivalent to
    /// calling [`Self::send_from_host`] for every flow up front — same
    /// keys, same event order, byte-identical results — but the event
    /// queue only ever holds live events, so schedule length no longer
    /// bounds memory.
    ///
    /// Call before any other driver injection: streamed flows consume
    /// `External` key numbers in yield order as they are pumped.
    pub fn set_flow_source(&mut self, mut source: FlowSource) {
        self.next_flow = source();
        self.flow_source = Some(source);
    }

    /// Injects every flow due at or before `upto`.
    fn pump_flows(&mut self, upto: u64) {
        while let Some((at, ..)) = self.next_flow {
            if at > upto {
                break;
            }
            let (at, host, bytes) = self.next_flow.take().expect("checked above");
            debug_assert!(at >= self.clock, "flow times must be nondecreasing");
            self.send_from_host(host, at, bytes);
            self.next_flow = self.flow_source.as_mut().and_then(|s| s());
        }
    }

    /// Runs until the event queue (and any attached flow source) drains or
    /// `max_events` processed. Returns the number of events processed.
    ///
    /// With a flow source attached, the loop alternates between running
    /// events strictly before the next flow's injection time and pumping
    /// the flows due at it — the interleaving every event would have had
    /// if the whole schedule had been injected up front.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            match self.next_flow {
                Some((f, ..)) => {
                    n += self.run_until(f, max_events - n);
                    if n >= max_events {
                        break;
                    }
                    self.pump_flows(f);
                }
                None => {
                    n += self.run_until(u64::MAX, max_events - n);
                    break;
                }
            }
        }
        n
    }

    /// Runs events with `time < horizon` (the conservative-lookahead window
    /// bound; `u64::MAX` means unbounded) up to `max_events`. Returns the
    /// number of events processed.
    pub(crate) fn run_until(&mut self, horizon: u64, max_events: u64) -> u64 {
        let mut n = 0;
        let mut batch: Vec<Vec<u8>> = Vec::new();
        while n < max_events {
            // Two event sources — the heap and the staged cross-shard
            // queue — merged in global `(time, key)` order. Keys are
            // unique, so the merge is a total order regardless of which
            // side an event arrived on.
            let heap_key = self.events.peek().map(|Reverse((t, s, _))| (*t, *s));
            let staged_key = self.xs_in.front().map(|e| (e.time, e.src));
            let take_staged = match (heap_key, staged_key) {
                (None, None) => break,
                (Some(h), Some(s)) => s < h,
                (h, _) => h.is_none(),
            };
            let key_time = if take_staged { staged_key } else { heap_key }.expect("source").0;
            if key_time >= horizon {
                break;
            }
            let (time, bytes, ord) = if take_staged {
                let e = self.xs_in.pop_front().expect("peeked");
                (e.time, e.bytes, EventOrd::Arrive(e.target))
            } else {
                let Some(Reverse((time, _, NodeOrd(bytes, ord)))) = self.events.pop() else {
                    break;
                };
                (time, bytes, ord)
            };
            self.clock = self.clock.max(time);
            if !matches!(ord, EventOrd::Fault(_) | EventOrd::RuleUpdate(_)) {
                self.stats.events += 1;
            }
            n += 1;
            let watch = self.obs.as_ref().map(|_| Stopwatch::start());
            if let Some(o) = self.obs.as_mut() {
                let depth = (self.events.len() + self.xs_in.len()) as u64;
                o.queue_depth.record(depth);
                if let Some(tr) = o.trace.as_mut() {
                    tr.counter("queue_depth", 0, time, depth);
                }
            }
            // Pushes and RNG draws made while processing this event are
            // attributed to the node it happens at (the deterministic key
            // and stream scheme above).
            self.cur_node = match &ord {
                EventOrd::HostSend(n) | EventOrd::Arrive(n) => Some(*n),
                EventOrd::Timer(n, _) => Some(*n),
                EventOrd::Fault(_) | EventOrd::RuleUpdate(_) => None,
            };
            match ord {
                EventOrd::HostSend(NodeId::Host(h)) => self.host_transmit(h, bytes),
                EventOrd::Arrive(NodeId::Device(d)) => {
                    // Batch all same-timestamp arrivals at this device: they
                    // are processed back-to-back in pop order, so a burst
                    // stays in the switch's warm scratch buffers instead of
                    // interleaving heap pops with processing.
                    batch.clear();
                    batch.push(bytes);
                    while n < max_events {
                        // Continue the batch only while the *globally next*
                        // event (across both sources) is a same-timestamp
                        // arrival at this device — anything else would
                        // reorder the merged pop sequence.
                        let hk = self.events.peek().map(|Reverse((t, s, _))| (*t, *s));
                        let sk = self.xs_in.front().map(|e| (e.time, e.src));
                        let staged = match (hk, sk) {
                            (None, None) => break,
                            (Some(h), Some(s)) => s < h,
                            (h, _) => h.is_none(),
                        };
                        let hit = if staged {
                            let e = self.xs_in.front().expect("peeked");
                            e.time == time && e.target == NodeId::Device(d)
                        } else {
                            matches!(
                                self.events.peek(),
                                Some(Reverse((t, _, NodeOrd(_, EventOrd::Arrive(NodeId::Device(d2))))))
                                    if *t == time && *d2 == d
                            )
                        };
                        if !hit {
                            break;
                        }
                        let b = if staged {
                            self.xs_in.pop_front().expect("peeked").bytes
                        } else {
                            let Some(Reverse((_, _, NodeOrd(b, _)))) = self.events.pop() else {
                                break;
                            };
                            b
                        };
                        self.stats.events += 1;
                        n += 1;
                        batch.push(b);
                    }
                    self.device_receive_batch(d, &mut batch);
                }
                EventOrd::Arrive(NodeId::Host(h)) => self.host_receive(h, bytes),
                EventOrd::Timer(NodeId::Host(h), token) => self.host_timer(h, token),
                EventOrd::Fault(idx) => self.apply_fault(idx),
                EventOrd::RuleUpdate(idx) => self.apply_rule_update(idx),
                _ => {}
            }
            self.cur_node = None;
            if let (Some(w), Some(o)) = (watch, self.obs.as_mut()) {
                o.event_wall_ns.record(w.elapsed_ns());
            }
        }
        n
    }

    fn apply_rule_update(&mut self, idx: usize) {
        let (dev, update) = self.update_list[idx].clone();
        self.apply_rule_update_inner(dev, &update);
    }

    /// The one rule-update path (scheduled and immediate): validate-then-
    /// apply on the owner, count it, and journal successes for replay
    /// after a restart. Non-owned devices (sharding) are a silent no-op —
    /// the schedule is replicated, the application is not.
    fn apply_rule_update_inner(&mut self, dev: u16, update: &TableUpdate) -> bool {
        if !self.devices.contains_key(&dev) {
            return false;
        }
        if self.failed.contains(&dev) {
            // The controller cannot reach a failed device: the batch is
            // lost, not queued (and not journaled — it never landed).
            self.stats.rule_update_rejects += 1;
            self.trace_instant("update.reject", NodeId::Device(dev), self.clock);
            return false;
        }
        let node = self.devices.get_mut(&dev).expect("checked above");
        let applied = node.switch.apply_update(update).is_ok();
        if applied {
            self.stats.rule_updates += 1;
            self.applied_updates.entry(dev).or_default().push(update.clone());
            self.trace_instant("update.apply", NodeId::Device(dev), self.clock);
        } else {
            self.stats.rule_update_rejects += 1;
            self.trace_instant("update.reject", NodeId::Device(dev), self.clock);
        }
        applied
    }

    fn apply_fault(&mut self, idx: usize) {
        let fault = self.fault_list[idx].clone();
        match fault {
            Fault::LinkDown(a, b) => {
                self.downed.insert(link_key(a, b));
                self.routes.invalidate();
            }
            Fault::LinkUp(a, b) => {
                self.downed.remove(&link_key(a, b));
                self.routes.invalidate();
            }
            Fault::Partition(island) => {
                self.island = Some(island.into_iter().collect());
            }
            Fault::Heal => {
                self.island = None;
            }
            // Gray failures: no route invalidation on purpose — the link
            // still works, so the routing plane never notices and traffic
            // keeps crossing it at the degraded rate.
            Fault::LinkDegrade(a, b, mult) => {
                self.degraded.insert(link_key(a, b), mult.max(1));
            }
            Fault::LinkRestore(a, b) => {
                self.degraded.remove(&link_key(a, b));
            }
            Fault::DeviceFail(d) => {
                self.failed.insert(d);
            }
            Fault::DeviceRestart(d) => {
                self.failed.remove(&d);
                if let Some(node) = self.devices.get_mut(&d) {
                    // Factory state: zeroed registers, program-initial
                    // tables — everything volatile is gone. The selected
                    // execution engine is configuration, not volatile
                    // state: it survives the restart.
                    let engine = node.switch.engine();
                    node.switch = Switch::new(node.switch.program().clone());
                    node.switch.set_engine(engine);
                    node.pkt = node.switch.new_packet();
                    self.stats.device_restarts += 1;
                    // The registered controller hook repopulates `_managed_`
                    // memory through the control plane.
                    if let Some(mut hook) = self.restart_hooks.remove(&d) {
                        hook(&mut node.switch);
                        self.restart_hooks.insert(d, hook);
                    }
                    // Replay journaled rule updates *after* the hook: the
                    // hook restores the checkpoint, the journal re-applies
                    // every live rule change made since — a reload no
                    // longer loses them (DESIGN.md §16).
                    if let Some(journal) = self.applied_updates.get(&d) {
                        for u in journal {
                            let _ = node.switch.apply_update(u);
                        }
                    }
                }
            }
        }
    }

    /// Whether a single hop is currently traversable (link up, not crossing
    /// an active partition cut).
    fn hop_open(&self, from: NodeId, to: NodeId) -> bool {
        if self.downed.contains(&link_key(from, to)) {
            return false;
        }
        match &self.island {
            Some(island) => island.contains(&from) == island.contains(&to),
            None => true,
        }
    }

    fn host_transmit(&mut self, host: u32, bytes: Vec<u8>) {
        // Route toward the computing device (or destination host).
        let Ok(msg) = Message::read_header(&bytes) else { return };
        let target = if msg.to != netcl_runtime::device::NO_DEVICE {
            NodeId::Device(msg.to)
        } else {
            NodeId::Host(msg.dst as u32)
        };
        let now = self.clock;
        self.transmit(NodeId::Host(host), target, now, bytes);
    }

    /// Moves a message one hop toward `target`, departing at `at` (≥ the
    /// current clock; device forwards depart after their kernel latency).
    fn transmit(&mut self, from: NodeId, target: NodeId, at: u64, bytes: Vec<u8>) {
        if from == target {
            if let NodeId::Host(h) = target {
                self.push(at, EventOrd::Arrive(NodeId::Host(h)), bytes);
            }
            return;
        }
        let hop = self.routes.hop(from, target, &self.downed);
        let Some((hop, link)) = hop.filter(|(h, _)| self.hop_open(from, *h)) else {
            // No traversable route. Distinguish a topology gap (a bug in
            // the experiment setup) from a scheduled fault eating the path.
            if self.downed.is_empty() && self.island.is_none() {
                self.stats.unroutable += 1;
            } else {
                self.stats.fault_drops += 1;
            }
            self.stats.node(from).dropped += 1;
            self.trace_instant("drop.fault", from, at);
            return;
        };
        if link.loss > 0.0 && self.rand01(from) < link.loss {
            self.stats.link_losses += 1;
            self.stats.node(hop).dropped += 1;
            self.trace_instant("drop.loss", hop, at);
            return;
        }
        let mut bytes = bytes;
        if link.corrupt > 0.0 && self.rand01(from) < link.corrupt && !bytes.is_empty() {
            let bit = self.rand_u64(from) as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            self.stats.corrupted += 1;
        }
        let copies = if link.duplicate > 0.0 && self.rand01(from) < link.duplicate {
            self.stats.duplicates += 1;
            2
        } else {
            1
        };
        // Gray degradation stretches transit and jitter by the multiplier
        // without touching the RNG draw sequence — per-node streams stay
        // byte-identical whether or not a degrade window is active.
        let slow = if self.degraded.is_empty() {
            1
        } else {
            *self.degraded.get(&link_key(from, hop)).unwrap_or(&1)
        };
        if slow > 1 {
            self.stats.degraded_transits += 1;
        }
        for i in 0..copies {
            let mut arrive = at + slow * link.transit_ns(bytes.len());
            if link.jitter_ns > 0 {
                arrive += self.rand_u64(from) % (slow * link.jitter_ns + 1);
            }
            if link.reorder > 0.0 && self.rand01(from) < link.reorder {
                arrive += link.reorder_ns;
                self.stats.reordered += 1;
            }
            // The last copy moves the buffer — the common lossless single
            // delivery stays allocation-free.
            let payload = if i + 1 == copies { std::mem::take(&mut bytes) } else { bytes.clone() };
            self.push(arrive, EventOrd::Arrive(hop), payload);
        }
    }

    /// The one delivery path: runs a same-timestamp burst of arrivals at
    /// one device (a burst of one included) through
    /// [`Switch::process_batch_from`] (DESIGN.md §13).
    ///
    /// Three phases make the result independent of how arrivals are split
    /// into bursts — every observable effect happens in message order, as
    /// if each arrival had been delivered on its own (the burst-split
    /// invariance test in this module holds it to that):
    ///
    /// - **A (classify, message order):** parse headers and split arrivals
    ///   into drops, transits, and kernel inputs. No stats, traces, or
    ///   event pushes happen yet.
    /// - **B (compute, packet order):** one `process_batch_from` call per
    ///   contiguous run of kernel inputs. Register and per-switch RNG
    ///   mutations happen here in packet order; a packet asking to
    ///   recirculate stops the batch, finishes its extra passes through the
    ///   node's scratch buffers, and the batch resumes after it.
    /// - **C (effects, message order):** stats, trace events, and forwards
    ///   — and therefore every event-queue `seq` and every Network-RNG draw
    ///   inside `transmit` — happen in arrival order, after the whole
    ///   burst's compute.
    fn device_receive_batch(&mut self, dev: u16, arrivals: &mut Vec<Vec<u8>>) {
        if self.failed.contains(&dev) {
            // A failed device blackholes everything that reaches it.
            for _ in arrivals.drain(..) {
                self.stats.fault_drops += 1;
                self.stats.node(NodeId::Device(dev)).dropped += 1;
                self.trace_instant("drop.fault", NodeId::Device(dev), self.clock);
            }
            return;
        }
        if !self.devices.contains_key(&dev) {
            arrivals.clear();
            return;
        }
        let node = self.devices.get_mut(&dev).expect("checked above");
        let runtime = node.runtime;
        let latency_ns = node.latency_ns;
        let mut batch = std::mem::take(&mut node.batch);
        let mut plan = std::mem::take(&mut node.plan);
        batch.clear();
        plan.clear();

        // Phase A.
        for bytes in arrivals.drain(..) {
            match Message::read_header(&bytes) {
                Err(_) => plan.push(BatchPlan::HeaderDrop),
                Ok(msg) if !runtime.should_compute(&msg) => {
                    plan.push(BatchPlan::Transit(runtime.transit(&msg), bytes));
                }
                Ok(_) => {
                    plan.push(BatchPlan::Compute);
                    batch.push(&bytes);
                    batch.recycle(bytes);
                }
            }
        }

        // Phase B.
        let mut results: Vec<KernelOutcome> = Vec::with_capacity(batch.len());
        let mut start = 0usize;
        while start < batch.len() {
            let node = self.devices.get_mut(&dev).expect("checked above");
            let stopped = node.switch.process_batch_from(&mut batch, start, |out| {
                matches!(
                    Message::read_header(out),
                    Ok(m) if ActionKind::from_code(m.action).unwrap_or(ActionKind::Pass)
                        == ActionKind::Repeat
                )
            });
            let upto = stopped.unwrap_or(batch.len());
            for i in results.len()..upto {
                results.push(single_pass_outcome(&mut batch, i, runtime));
            }
            let Some(i) = stopped else { break };
            results.push(finish_recirculation(node, &mut batch, i));
            start = i + 1;
        }

        // Phase C.
        let backend = self.devices.get(&dev).map(|n| n.switch.engine().name()).unwrap_or("unknown");
        let mut outcomes = results.into_iter();
        for entry in plan.drain(..) {
            match entry {
                BatchPlan::HeaderDrop => {
                    self.stats.node(NodeId::Device(dev)).dropped += 1;
                }
                BatchPlan::Transit(fwd, bytes) => {
                    self.stats.node(NodeId::Device(dev)).delivered += 1;
                    let now = self.clock;
                    self.apply_forward(dev, fwd, now, bytes);
                }
                BatchPlan::Compute => {
                    self.stats.node(NodeId::Device(dev)).delivered += 1;
                    match outcomes.next().expect("one outcome per kernel input") {
                        KernelOutcome::Forward { wire, fwd, act_code, passes, src, dst } => {
                            self.stats.kernel_executions += passes;
                            self.stats.recirculations += passes - 1;
                            let latency = passes * latency_ns;
                            let depart = self.clock + latency;
                            if let Some(tr) = self.obs.as_mut().and_then(|o| o.trace.as_mut()) {
                                tr.complete(
                                    "kernel",
                                    "device",
                                    0,
                                    tid_of(NodeId::Device(dev)),
                                    self.clock,
                                    latency,
                                    vec![
                                        ("action", Value::U64(act_code as u64)),
                                        ("recircs", Value::U64(passes - 1)),
                                        ("src", Value::U64(src as u64)),
                                        ("dst", Value::U64(dst as u64)),
                                        ("backend", Value::Str(backend.to_string())),
                                    ],
                                );
                            }
                            self.apply_forward(dev, fwd, depart, wire);
                        }
                        KernelOutcome::Reject { passes } => {
                            self.stats.kernel_executions += passes;
                            self.stats.recirculations += passes - 1;
                            self.stats.node(NodeId::Device(dev)).dropped += 1;
                            self.trace_instant("drop.reject", NodeId::Device(dev), self.clock);
                        }
                        KernelOutcome::Vanish { passes } => {
                            self.stats.kernel_executions += passes;
                            self.stats.recirculations += passes - 1;
                        }
                        KernelOutcome::CapExceeded => {
                            self.stats.kernel_executions += 8;
                            self.stats.recirculations += 7;
                            self.stats.kernel_drops += 1;
                            self.stats.node(NodeId::Device(dev)).dropped += 1;
                            self.trace_instant("drop.kernel", NodeId::Device(dev), self.clock);
                        }
                    }
                }
            }
        }
        // Return the scratch to the node for the next burst.
        if let Some(node) = self.devices.get_mut(&dev) {
            node.batch = batch;
            node.plan = plan;
        }
    }

    fn apply_forward(&mut self, dev: u16, fwd: Forward, at: u64, bytes: Vec<u8>) {
        match fwd {
            Forward::Drop => {
                self.stats.kernel_drops += 1;
                self.stats.node(NodeId::Device(dev)).dropped += 1;
            }
            Forward::ToHost(h) => {
                self.transmit(NodeId::Device(dev), NodeId::Host(h as u32), at, bytes)
            }
            Forward::ToDevice(d) => {
                self.transmit(NodeId::Device(dev), NodeId::Device(d), at, bytes)
            }
            Forward::Multicast(gid) => {
                let members = self.topology.groups.get(&gid).cloned().unwrap_or_default();
                for m in members {
                    let mut copy = bytes.clone();
                    // A device member of the group becomes the computing
                    // target of its copy (P4xos: the leader multicasts
                    // phase-2A to the acceptor set).
                    if let NodeId::Device(d) = m {
                        if let Ok(mut msg) = Message::read_header(&copy) {
                            msg.to = d;
                            msg.write_header_into(&mut copy[..netcl_runtime::NCL_HEADER_BYTES]);
                        }
                    }
                    self.transmit(NodeId::Device(dev), m, at, copy);
                }
            }
            Forward::Recirculate => unreachable!("handled in device_receive_batch"),
        }
    }

    fn host_receive(&mut self, host: u32, bytes: Vec<u8>) {
        self.stats.delivered += 1;
        self.stats.node(NodeId::Host(host)).delivered += 1;
        let now = self.clock;
        self.trace_instant("deliver", NodeId::Host(host), now);
        let Some(node) = self.hosts.get_mut(&host) else { return };
        node.received.push((now, bytes.clone()));
        let process_ns = node.process_ns;
        if let Some(mut handler) = node.handler.take() {
            let mut outbox = Outbox::default();
            handler(now, HostEvent::Message(bytes), &mut outbox);
            if let Some(node) = self.hosts.get_mut(&host) {
                node.handler = Some(handler);
            }
            self.flush_outbox(host, now + process_ns, outbox);
        }
    }

    fn host_timer(&mut self, host: u32, token: u64) {
        let now = self.clock;
        let Some(node) = self.hosts.get_mut(&host) else { return };
        if let Some(mut handler) = node.handler.take() {
            let mut outbox = Outbox::default();
            handler(now, HostEvent::Timer(token), &mut outbox);
            if let Some(node) = self.hosts.get_mut(&host) {
                node.handler = Some(handler);
            }
            self.flush_outbox(host, now, outbox);
        }
    }

    fn flush_outbox(&mut self, host: u32, base: u64, outbox: Outbox) {
        for (delay, bytes) in outbox.sends {
            self.push(base + delay, EventOrd::HostSend(NodeId::Host(host)), bytes);
        }
        for (delay, token) in outbox.timers {
            self.push(base + delay, EventOrd::Timer(NodeId::Host(host), token), Vec::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::{star, LinkSpec};
    use netcl_runtime::message::{pack, unpack};

    const CACHE_SRC: &str = r#"
_managed_ _lookup_ ncl::kv<unsigned, unsigned> cache[64] = {{1,42}, {2,43}};
_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v, char &hit) {
  if (op == 1) {
    hit = ncl::lookup(cache, k, v);
    if (hit) return ncl::reflect();
  }
}
"#;

    fn build_cache_network() -> (Network, netcl_sema::Specification) {
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("cache.ncl", CACHE_SRC)
            .unwrap();
        let spec = unit.model.kernels[0].specification();
        let report = netcl_tofino::fit(&unit.devices[0].tna_p4).unwrap();
        let switch = Switch::new(unit.devices[0].tna_p4.clone());
        let topo = star(1, &[1, 2], LinkSpec::default());

        // Host 2 is the KVS server: answer misses with v = k * 1000.
        let spec2 = spec.clone();
        let server = Box::new(move |_now: u64, ev: HostEvent, out: &mut Outbox| {
            let HostEvent::Message(bytes) = ev else { return };
            let mut op = Vec::new();
            let mut k = Vec::new();
            let msg =
                unpack(&bytes, &spec2, &mut [Some(&mut op), Some(&mut k), None, None]).unwrap();
            let reply = Message::new(msg.dst, msg.src, 0, netcl_runtime::device::NO_DEVICE);
            let v = k[0] * 1000;
            let packed =
                pack(&reply, &spec2, &[Some(&[0]), Some(&[k[0]]), Some(&[v]), Some(&[0])]).unwrap();
            out.send(0, packed);
        });

        let net = NetworkBuilder::new(topo)
            .device(1, switch, report.latency_ns.ceil() as u64)
            .sink_host(1)
            .host(2, server)
            .build();
        (net, spec)
    }

    fn query(net: &mut Network, spec: &netcl_sema::Specification, at: u64, key: u64) {
        let m = Message::new(1, 2, 1, 1);
        let packed = pack(&m, spec, &[Some(&[1]), Some(&[key]), None, None]).unwrap();
        net.send_from_host(1, at, packed);
    }

    /// The flagship end-to-end path: a cached key reflects at the switch
    /// (fast), a miss goes to the server and back (slow) — Fig. 14 right.
    #[test]
    fn cache_hit_beats_miss_latency() {
        let (mut net, spec) = build_cache_network();
        query(&mut net, &spec, 0, 1); // cached
        net.run(100);
        let hit_reply_at = net.host_received(1)[0].0;
        let mut v = Vec::new();
        let mut hit = Vec::new();
        unpack(&net.host_received(1)[0].1, &spec, &mut [None, None, Some(&mut v), Some(&mut hit)])
            .unwrap();
        assert_eq!((v[0], hit[0]), (42, 1), "served from the in-network cache");

        let t0 = net.now();
        query(&mut net, &spec, t0 + 1000, 9); // miss → server
        net.run(100);
        let miss_reply = net.host_received(1).last().unwrap().clone();
        let mut v = Vec::new();
        let mut hit = Vec::new();
        unpack(&miss_reply.1, &spec, &mut [None, None, Some(&mut v), Some(&mut hit)]).unwrap();
        assert_eq!(v[0], 9000, "server answered the miss");
        assert_eq!(hit[0], 0);
        let miss_rtt = miss_reply.0 - (t0 + 1000);
        assert!(
            miss_rtt > 2 * hit_reply_at,
            "miss RTT {miss_rtt} should well exceed hit RTT {hit_reply_at}"
        );
        assert_eq!(net.stats.unroutable, 0, "every message found a route");
    }

    #[test]
    fn transit_messages_not_computed() {
        // comp targets device 7 (absent); device 1 must pass it through
        // untouched to the destination host.
        let (mut net, spec) = build_cache_network();
        let m = Message::new(1, 2, 1, 7);
        let packed = pack(&m, &spec, &[Some(&[1]), Some(&[1]), None, None]).unwrap();
        net.send_from_host(1, 0, packed);
        net.run(100);
        // Server host (2) received it but as a computation-7 message the
        // server's unpack still works; the key's cache entry was NOT used.
        assert_eq!(net.stats.kernel_executions, 0);
    }

    #[test]
    fn link_loss_drops_messages() {
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("cache.ncl", CACHE_SRC)
            .unwrap();
        let spec = unit.model.kernels[0].specification();
        let switch = Switch::new(unit.devices[0].tna_p4.clone());
        let topo = star(1, &[1, 2], LinkSpec { loss: 1.0, ..Default::default() });
        let mut net =
            NetworkBuilder::new(topo).device(1, switch, 500).sink_host(1).sink_host(2).build();
        let m = Message::new(1, 2, 1, 1);
        let packed = pack(&m, &spec, &[Some(&[1]), Some(&[1]), None, None]).unwrap();
        net.send_from_host(1, 0, packed);
        net.run(100);
        assert_eq!(net.stats.link_losses, 1);
        assert_eq!(net.stats.delivered, 0);
    }

    /// A burst of same-timestamp queries is batched at the device: all of
    /// them compute and all replies arrive, in send order.
    #[test]
    fn same_timestamp_burst_batched_at_device() {
        let (mut net, spec) = build_cache_network();
        for _ in 0..8 {
            query(&mut net, &spec, 1000, 1); // all land at the same instant
        }
        net.run(1000);
        assert_eq!(net.stats.kernel_executions, 8);
        assert_eq!(net.stats.unroutable, 0);
        assert_eq!(net.host_received(1).len(), 8);
        for (_, bytes) in net.host_received(1) {
            let mut v = Vec::new();
            unpack(bytes, &spec, &mut [None, None, Some(&mut v), None]).unwrap();
            assert_eq!(v[0], 42);
        }
    }

    /// Regression for the clock-warp bug: device kernel latency used to be
    /// added to the global clock, delaying every other in-flight event.
    /// Two hosts issue concurrent cached queries; each reply must arrive at
    /// the same (symmetric-topology) time, unaffected by the other flow's
    /// kernel execution.
    #[test]
    fn kernel_latency_does_not_warp_concurrent_flows() {
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("cache.ncl", CACHE_SRC)
            .unwrap();
        let spec = unit.model.kernels[0].specification();
        let switch = Switch::new(unit.devices[0].tna_p4.clone());
        let topo = star(1, &[1, 2], LinkSpec::default());
        let mut net =
            NetworkBuilder::new(topo).device(1, switch, 500).sink_host(1).sink_host(2).build();
        // Host 1 → reflect to host 1; host 2 → reflect to host 2, both hit.
        let m1 = Message::new(1, 2, 1, 1);
        net.send_from_host(
            1,
            1000,
            pack(&m1, &spec, &[Some(&[1]), Some(&[1]), None, None]).unwrap(),
        );
        let m2 = Message::new(2, 1, 1, 1);
        net.send_from_host(
            2,
            1000,
            pack(&m2, &spec, &[Some(&[1]), Some(&[2]), None, None]).unwrap(),
        );
        net.run(100);
        let t1 = net.host_received(1)[0].0;
        let t2 = net.host_received(2)[0].0;
        assert_eq!(
            t1, t2,
            "symmetric flows must see identical reply times; a mismatch means \
             one flow's kernel latency leaked into the other's timestamps"
        );
        assert_eq!(net.stats.unroutable, 0);
    }

    #[test]
    fn link_outage_drops_then_recovers() {
        let (mut net, spec) = build_cache_network();
        net.schedule_fault(0, Fault::LinkDown(NodeId::Host(1), NodeId::Device(1)));
        net.schedule_fault(50_000, Fault::LinkUp(NodeId::Host(1), NodeId::Device(1)));
        query(&mut net, &spec, 1000, 1); // during the outage: dropped
        query(&mut net, &spec, 60_000, 1); // after repair: served
        net.run(100);
        assert_eq!(net.stats.fault_drops, 1);
        assert_eq!(net.stats.unroutable, 0, "fault drops are not topology gaps");
        assert_eq!(net.host_received(1).len(), 1);
        assert!(net.host_received(1)[0].0 > 60_000);
    }

    #[test]
    fn partition_cuts_cross_island_traffic() {
        let (mut net, spec) = build_cache_network();
        // Host 1 alone on one side; the device and host 2 on the other.
        net.schedule_fault(0, Fault::Partition(vec![NodeId::Host(1)]));
        net.schedule_fault(50_000, Fault::Heal);
        query(&mut net, &spec, 1000, 1);
        query(&mut net, &spec, 60_000, 1);
        net.run(100);
        assert_eq!(net.stats.fault_drops, 1);
        assert_eq!(net.host_received(1).len(), 1, "only the post-heal query answered");
    }

    #[test]
    fn device_fail_blackholes_and_restart_restores() {
        let (mut net, spec) = build_cache_network();
        net.schedule_fault(0, Fault::DeviceFail(1));
        net.schedule_fault(50_000, Fault::DeviceRestart(1));
        query(&mut net, &spec, 1000, 1); // blackholed at the failed device
        query(&mut net, &spec, 60_000, 1); // after restart: program-initial
                                           // cache entries are back
        net.run(100);
        assert_eq!(net.stats.fault_drops, 1);
        assert_eq!(net.stats.device_restarts, 1);
        assert_eq!(net.host_received(1).len(), 1);
        let mut v = Vec::new();
        unpack(&net.host_received(1)[0].1, &spec, &mut [None, None, Some(&mut v), None]).unwrap();
        assert_eq!(v[0], 42, "restart restored the program-initial cache entry");
    }

    #[test]
    fn restart_hook_runs_against_fresh_switch() {
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("cache.ncl", CACHE_SRC)
            .unwrap();
        let switch = Switch::new(unit.devices[0].tna_p4.clone());
        let topo = star(1, &[1], LinkSpec::default());
        let ran = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let ran2 = ran.clone();
        let mut net = NetworkBuilder::new(topo)
            .device(1, switch, 500)
            .sink_host(1)
            .on_restart(
                1,
                Box::new(move |_sw: &mut Switch| {
                    ran2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }),
            )
            .fault(100, Fault::DeviceFail(1))
            .fault(200, Fault::DeviceRestart(1))
            .build();
        net.run(100);
        assert_eq!(ran.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(!net.device_failed(1));
    }

    /// Observability is opt-in, lives outside `NetStats`, and captures the
    /// run as a Perfetto-loadable trace plus histograms.
    #[test]
    fn observe_records_trace_and_histograms() {
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("cache.ncl", CACHE_SRC)
            .unwrap();
        let spec = unit.model.kernels[0].specification();
        let switch = Switch::new(unit.devices[0].tna_p4.clone());
        let topo = star(1, &[1, 2], LinkSpec::default());
        let mut net = NetworkBuilder::new(topo)
            .device(1, switch, 500)
            .sink_host(1)
            .sink_host(2)
            .observe(ObsConfig { trace: true, ..Default::default() })
            .build();
        let m = Message::new(1, 2, 1, 1);
        let packed = pack(&m, &spec, &[Some(&[1]), Some(&[1]), None, None]).unwrap();
        net.send_from_host(1, 0, packed);
        net.run(100);
        let obs = net.obs().expect("observability enabled");
        assert!(obs.queue_depth.count() > 0, "queue depth sampled per event");
        assert_eq!(obs.queue_depth.count(), obs.event_wall_ns.count());
        let trace = net.take_trace().expect("trace recorded");
        let names: Vec<&str> = trace.events().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"kernel"), "device span recorded: {names:?}");
        assert!(names.contains(&"deliver"), "host delivery marked: {names:?}");
        assert!(names.contains(&"thread_name"), "tracks are named");
        let json = trace.to_json();
        assert!(json.contains("\"ph\":\"X\"") && json.contains("\"ph\":\"M\""));
        // Taking the trace leaves histograms in place.
        assert!(net.obs().unwrap().trace.is_none());
    }

    /// Turning observability on must not perturb the deterministic stats:
    /// an observed run and a plain run with the same seed are `Eq`.
    #[test]
    fn stats_identical_with_and_without_obs() {
        let run = |observe: bool| {
            let unit = netcl::Compiler::new(netcl::CompileOptions::default())
                .compile("cache.ncl", CACHE_SRC)
                .unwrap();
            let spec = unit.model.kernels[0].specification();
            let switch = Switch::new(unit.devices[0].tna_p4.clone());
            let topo = star(1, &[1, 2], LinkSpec::default());
            let mut b = NetworkBuilder::new(topo).device(1, switch, 500).sink_host(1).sink_host(2);
            if observe {
                b = b.observe(ObsConfig { trace: true, ..Default::default() });
            }
            let mut net = b.build();
            let m = Message::new(1, 2, 1, 1);
            let packed = pack(&m, &spec, &[Some(&[1]), Some(&[1]), None, None]).unwrap();
            net.send_from_host(1, 0, packed);
            net.run(100);
            net.stats.clone()
        };
        let plain = run(false);
        assert!(run(true) == plain, "observability must not change NetStats");
        assert_eq!(plain.recirculations, 0, "cache kernel never recirculates");
    }

    /// Bounded tracing caps trace memory at O(capacity) while leaving the
    /// deterministic stats and counters byte-identical to the unbounded
    /// run: the ring only changes what the trace *retains*, never what the
    /// network *does*.
    #[test]
    fn bounded_trace_caps_memory_without_changing_stats() {
        let run = |capacity: Option<usize>| {
            let unit = netcl::Compiler::new(netcl::CompileOptions::default())
                .compile("cache.ncl", CACHE_SRC)
                .unwrap();
            let spec = unit.model.kernels[0].specification();
            let switch = Switch::new(unit.devices[0].tna_p4.clone());
            let topo = star(1, &[1, 2], LinkSpec::default());
            let mut net = NetworkBuilder::new(topo)
                .device(1, switch, 500)
                .sink_host(1)
                .sink_host(2)
                .observe(ObsConfig { trace: true, trace_capacity: capacity })
                .build();
            for i in 0..32u64 {
                let m = Message::new(1, 2, 1, 1);
                let packed = pack(&m, &spec, &[Some(&[1]), Some(&[1]), None, None]).unwrap();
                net.send_from_host(1, i * 1_000, packed);
            }
            net.run(100);
            let counters = net.switch(1).unwrap().counters().clone();
            let trace = net.take_trace().expect("trace recorded");
            (net.stats.clone(), counters, trace)
        };
        let (stats_full, counters_full, trace_full) = run(None);
        let (stats_ring, counters_ring, trace_ring) = run(Some(8));
        assert!(stats_ring == stats_full, "bounding must not change NetStats");
        assert_eq!(counters_ring, counters_full, "nor the data-plane counters");
        // The full run saw many events; the ring kept only its capacity.
        assert_eq!(trace_full.dropped(), 0);
        assert!(trace_ring.dropped() > 0, "a 32-message run overflows 8 slots");
        let data = |t: &netcl_obs::Trace| t.events().filter(|e| e.ph != 'M').count();
        assert!(data(&trace_full) > 8);
        assert_eq!(data(&trace_ring), 8, "retained data events == capacity");
        assert_eq!(
            data(&trace_ring) as u64 + trace_ring.dropped(),
            data(&trace_full) as u64,
            "kept + dropped accounts for every event the full run saw"
        );
        // Metadata (track names) survives bounding in full.
        let meta = |t: &netcl_obs::Trace| t.events().filter(|e| e.ph == 'M').count();
        assert_eq!(meta(&trace_ring), meta(&trace_full));
    }

    #[test]
    fn timers_fire_in_order() {
        let topo = star(1, &[1], LinkSpec::default());
        let fired = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let f2 = fired.clone();
        let handler = Box::new(move |now: u64, ev: HostEvent, _out: &mut Outbox| {
            if let HostEvent::Timer(tok) = ev {
                f2.lock().unwrap().push((now, tok));
            }
        });
        let mut net = NetworkBuilder::new(topo).host(1, handler).build();
        net.set_host_timer(1, 500, 2);
        net.set_host_timer(1, 100, 1);
        net.set_host_timer(1, 900, 3);
        net.run(10);
        assert_eq!(*fired.lock().unwrap(), vec![(100, 1), (500, 2), (900, 3)]);
    }

    /// Everything a delivery leaves behind.
    struct Delivered {
        stats: NetStats,
        counters: netcl_bmv2::SwitchCounters,
        registers: Vec<(String, Vec<u64>)>,
        trace: Option<Trace>,
        /// Queued events, in pop order.
        queued: Vec<(u64, EventSrc, NodeOrd)>,
    }

    /// Hands `arrivals` to device 1 of a fresh chaos-link network at t=1000,
    /// cut into sub-bursts after every arrival whose bit is set in `cuts`
    /// (0 = one burst, all ones = all singletons), and snapshots the result.
    fn deliver_split(p4: &netcl_p4::ast::P4Program, arrivals: &[Vec<u8>], cuts: u32) -> Delivered {
        let topo = star(1, &[1, 2], LinkSpec::chaos(0.3));
        let mut net = NetworkBuilder::new(topo)
            .seed(42)
            .device(1, Switch::new(p4.clone()), 500)
            .sink_host(1)
            .sink_host(2)
            .observe(ObsConfig { trace: true, ..Default::default() })
            .build();
        net.clock = 1000;
        net.cur_node = Some(NodeId::Device(1));
        let mut burst = Vec::new();
        for (i, bytes) in arrivals.iter().enumerate() {
            burst.push(bytes.clone());
            if cuts >> i & 1 == 1 || i + 1 == arrivals.len() {
                net.device_receive_batch(1, &mut burst);
                assert!(burst.is_empty(), "delivery consumes its burst");
            }
        }
        let sw = net.switch(1).unwrap();
        let counters = sw.counters().clone();
        let registers = sw.registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect();
        let trace = net.take_trace();
        let mut queued = Vec::new();
        while let Some(Reverse(e)) = net.events.pop() {
            queued.push(e);
        }
        Delivered { stats: net.stats.clone(), counters, registers, trace, queued }
    }

    /// Burst-split invariance: delivering an arrival list as one burst and
    /// as every possible split into sub-bursts — all singletons included,
    /// which is per-message delivery — must leave identical `NetStats`,
    /// `SwitchCounters`, registers, trace, and queued events (keys, times,
    /// bytes, pop order). Chaos links make every forward draw from the
    /// network RNG, so an effect applied out of arrival order changes the
    /// queue. Returns the one-burst result for scenario assertions.
    fn assert_burst_split_invariant(
        p4: &netcl_p4::ast::P4Program,
        arrivals: &[Vec<u8>],
    ) -> Delivered {
        let whole = deliver_split(p4, arrivals, 0);
        for cuts in 1..1u32 << (arrivals.len() - 1) {
            let split = deliver_split(p4, arrivals, cuts);
            assert_eq!(whole.stats, split.stats, "cuts {cuts:#b}: NetStats diverged");
            assert_eq!(whole.counters, split.counters, "cuts {cuts:#b}: SwitchCounters diverged");
            assert_eq!(whole.registers, split.registers, "cuts {cuts:#b}: registers diverged");
            assert!(whole.trace == split.trace, "cuts {cuts:#b}: trace diverged");
            assert_eq!(whole.queued, split.queued, "cuts {cuts:#b}: queued events diverged");
        }
        whole
    }

    /// The CACHE fixture under a mix of every delivery outcome: hits that
    /// reflect, misses that forward, a transit toward an absent device
    /// (unroutable) and one toward a host, an unreadable header, and a
    /// packet the pipeline rejects.
    #[test]
    fn delivery_is_burst_split_invariant() {
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("cache.ncl", CACHE_SRC)
            .unwrap();
        let spec = unit.model.kernels[0].specification();
        let get = |to: u16, key: u64| {
            pack(&Message::new(1, 2, 1, to), &spec, &[Some(&[1]), Some(&[key]), None, None])
                .unwrap()
        };
        // Readable header addressed to this device, arguments cut short.
        let mut reject = get(1, 1);
        reject.truncate(netcl_runtime::NCL_HEADER_BYTES + 1);
        let arrivals = [
            get(1, 1),
            vec![0xFF; 3],
            get(1, 9),
            get(7, 1),
            reject,
            get(1, 2),
            get(netcl_runtime::device::NO_DEVICE, 2),
            get(1, 9),
        ];
        let Delivered { stats, counters, trace, queued, .. } =
            assert_burst_split_invariant(&unit.devices[0].tna_p4, &arrivals);
        assert_eq!(stats.kernel_executions, 5, "four computes and the reject");
        assert_eq!(counters.errors, 1, "the truncated packet is rejected");
        assert_eq!(stats.per_node[&NodeId::Device(1)].dropped, 3, "header, reject, unroutable");
        assert_eq!(stats.unroutable, 1, "the transit toward absent device 7");
        assert!(
            stats.link_losses + stats.duplicates + stats.reordered > 0,
            "chaos links should actually fire"
        );
        assert!(!queued.is_empty(), "forwards were queued");
        let names: Vec<&str> = trace.as_ref().unwrap().events().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"kernel") && names.contains(&"drop.reject"), "{names:?}");
    }

    /// `ncl::repeat()` recirculation: a packet that stops the batch mid-way
    /// finishes its extra passes before the burst resumes, however the
    /// burst is split. Every pass draws a ticket from a register, so a
    /// pass run out of packet order would change the replies.
    #[test]
    fn recirculation_is_burst_split_invariant() {
        const REPEAT_SRC: &str = r#"
_managed_ unsigned ticket[1];
_kernel(1) _at(1) void spin(unsigned &k, unsigned &n) {
  k = ncl::atomic_sadd_new(&ticket[0], 1);
  n = n + 1;
  if (n < 3) return ncl::repeat();
  return ncl::reflect();
}
"#;
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("spin.ncl", REPEAT_SRC)
            .unwrap();
        let spec = unit.model.kernels[0].specification();
        let spin =
            |to: u16| pack(&Message::new(1, 2, 1, to), &spec, &[Some(&[0]), Some(&[0])]).unwrap();
        // Every compute packet recirculates (stopping the batch), and a
        // transit message for an absent device rides along mid-burst.
        let arrivals = [spin(1), spin(1), spin(7), spin(1)];
        let Delivered { stats, registers, queued, .. } =
            assert_burst_split_invariant(&unit.devices[0].tna_p4, &arrivals);
        assert_eq!(stats.recirculations, 6, "each of 3 packets recirculates twice");
        assert_eq!(stats.kernel_executions, 9, "3 packets x 3 passes");
        assert!(registers.iter().any(|(_, cells)| cells.contains(&9)), "9 tickets: {registers:?}");
        // The replies carry the pass count and their last ticket: passes
        // ran in packet order, so the tickets are 3, 6, 9 (a duplicated
        // reply repeats its ticket).
        let mut tickets = Vec::new();
        for (_, _, NodeOrd(bytes, ord)) in &queued {
            if *ord != EventOrd::Arrive(NodeId::Host(1)) {
                continue;
            }
            let (mut k, mut n) = (Vec::new(), Vec::new());
            unpack(bytes, &spec, &mut [Some(&mut k), Some(&mut n)]).unwrap();
            assert_eq!(n[0], 3);
            tickets.push(k[0]);
        }
        tickets.sort_unstable();
        tickets.dedup();
        assert!(
            !tickets.is_empty() && tickets.iter().all(|t| [3, 6, 9].contains(t)),
            "{tickets:?}"
        );
    }
}
