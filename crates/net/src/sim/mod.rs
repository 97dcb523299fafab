//! The event-driven simulator core: the [`Network`], its event keys, and
//! the event loop. Statistics live in `stats.rs`, construction in
//! `builder.rs`, per-message delivery in `deliver.rs`.
//!
//! Invariants:
//! - Events run in `(time, EventSrc)` order. Keys are unique and locally
//!   derivable (schedule index, driver call order, per-node push counter),
//!   so the order is total and the same in a scalar run and in every shard.
//! - One heap per network is the only event source. Cross-shard arrivals
//!   are pushed onto it under the key the sending shard assigned, so pop
//!   order never depends on how an event got there.
//! - [`Network::run`] is the scalar oracle: a flow source is pumped exactly
//!   when simulated time reaches each flow, which is the interleaving an
//!   up-front injection would have had.

mod builder;
mod deliver;
mod stats;

pub use builder::NetworkBuilder;
pub use stats::{NetObs, NetStats, NodeCounters, ObsConfig};

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use netcl_bmv2::{Packet, Switch, TableUpdate};
use netcl_obs::{Stopwatch, Trace};
use netcl_runtime::device::DeviceRuntime;

use crate::fault::Fault;
use crate::route::RouteCache;
use crate::topo::{link_key, NodeId, Topology};
use stats::tid_of;

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

/// A [`FlowSource`] plus its lookahead of one: the next not-yet-injected
/// flow, whose time bounds how far a run may advance. The one place flows
/// are pulled — [`Network::run`] and the sharded round planner both drain
/// it, and differ only in where a drained flow goes.
#[derive(Default)]
pub(crate) struct FlowPump {
    source: Option<FlowSource>,
    next: Option<(u64, u32, Vec<u8>)>,
}

impl FlowPump {
    pub(crate) fn new(mut source: FlowSource) -> FlowPump {
        FlowPump { next: source(), source: Some(source) }
    }

    /// Injection time of the next flow; `None` once the source is dry.
    pub(crate) fn next_at(&self) -> Option<u64> {
        self.next.as_ref().map(|f| f.0)
    }

    /// Hands every flow due at or before `upto` to `inject(at, host,
    /// bytes)`, in source order.
    pub(crate) fn drain_upto(&mut self, upto: u64, mut inject: impl FnMut(u64, u32, Vec<u8>)) {
        while self.next_at().is_some_and(|at| at <= upto) {
            let (at, host, bytes) = self.next.take().expect("checked above");
            self.next = self.source.as_mut().and_then(|s| s());
            debug_assert!(
                self.next_at().is_none_or(|n| n >= at),
                "flow times must be nondecreasing"
            );
            inject(at, host, bytes);
        }
    }
}

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
    /// Reusable packet and output buffer. A delivery swaps the arriving
    /// wire buffer with `out` after each pass, so steady-state processing
    /// does not allocate per message.
    pkt: Packet,
    out: Vec<u8>,
}

struct HostNode {
    handler: Option<HostHandler>,
    received: Vec<(u64, Vec<u8>)>,
    /// Host-side processing cost before a handler's sends go out (socket +
    /// kernel path; the paper attributes its end-to-end deltas to this).
    process_ns: u64,
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
    /// Streamed driver injections ([`Network::set_flow_source`]); pulled
    /// as the run loop reaches each flow's injection time.
    flows: FlowPump,
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
pub(crate) enum EventOrd {
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
    /// timers are always pushed by (or injected at) the node itself. The
    /// sharded wrapper injects driver events here under `External` keys it
    /// numbers itself, so they match a scalar run's whichever shard owns
    /// the host.
    pub(crate) fn push_keyed(&mut self, time: u64, src: EventSrc, ord: EventOrd, bytes: Vec<u8>) {
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

    /// Takes delivery of one cross-shard arrival under the key its sending
    /// shard assigned. Straight onto the heap, not through `push_keyed`:
    /// the coordinator already routed it to its owner. Keys are unique and
    /// totally ordered, so pop order is independent of arrival order.
    pub(crate) fn accept_xs(&mut self, e: XsEvent) {
        self.events.push(Reverse((e.time, e.src, NodeOrd(e.bytes, EventOrd::Arrive(e.target)))));
    }

    /// Earliest pending event time, if any.
    pub(crate) fn next_event_time(&self) -> Option<u64> {
        self.events.peek().map(|Reverse((t, ..))| *t)
    }

    /// Pending events not yet processed — the live-event footprint
    /// `ShardedNetwork::peak_queue` samples as a run's memory proxy.
    pub(crate) fn queue_len(&self) -> usize {
        self.events.len()
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
    pub fn set_flow_source(&mut self, source: FlowSource) {
        self.flows = FlowPump::new(source);
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
            let Some(f) = self.flows.next_at() else {
                return n + self.run_until(u64::MAX, max_events - n);
            };
            n += self.run_until(f, max_events - n);
            if n < max_events {
                let mut flows = std::mem::take(&mut self.flows);
                flows.drain_upto(f, |at, host, bytes| self.send_from_host(host, at, bytes));
                self.flows = flows;
            }
        }
        n
    }

    /// Runs events with `time < horizon` (the conservative-lookahead window
    /// bound; `u64::MAX` means unbounded) up to `max_events`. Returns the
    /// number of events processed.
    pub(crate) fn run_until(&mut self, horizon: u64, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events {
            if self.next_event_time().is_none_or(|t| t >= horizon) {
                break;
            }
            let Reverse((time, _, NodeOrd(bytes, ord))) = self.events.pop().expect("peeked");
            self.clock = self.clock.max(time);
            if !matches!(ord, EventOrd::Fault(_) | EventOrd::RuleUpdate(_)) {
                self.stats.events += 1;
            }
            n += 1;
            let watch = self.obs.as_ref().map(|_| Stopwatch::start());
            if let Some(o) = self.obs.as_mut() {
                let depth = self.events.len() as u64;
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
                EventOrd::Arrive(NodeId::Device(d)) => self.device_receive(d, bytes),
                EventOrd::Arrive(NodeId::Host(h)) => self.host_receive(h, bytes),
                EventOrd::Timer(NodeId::Host(h), token) => self.host_timer(h, token),
                EventOrd::Fault(idx) => self.apply_fault(idx),
                EventOrd::RuleUpdate(idx) => {
                    let (dev, update) = self.update_list[idx].clone();
                    self.apply_update(dev, &update);
                }
                _ => {}
            }
            self.cur_node = None;
            if let (Some(w), Some(o)) = (watch, self.obs.as_mut()) {
                o.event_wall_ns.record(w.elapsed_ns());
            }
        }
        n
    }

    /// The one rule-update path, immediate (a controller calling it between
    /// `run` slices) and scheduled (the `RuleUpdate` event arm): validate-
    /// then-apply on the owner, count it in [`NetStats::rule_updates`] /
    /// [`NetStats::rule_update_rejects`], and journal successes for replay
    /// after a restart. Returns whether the batch landed. A device this
    /// network does not own (sharding) is a silent no-op `false` — the
    /// schedule is replicated, the application is not, and the owner shard
    /// counts it.
    pub fn apply_update(&mut self, dev: u16, update: &TableUpdate) -> bool {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::{star, LinkSpec};
    use netcl_runtime::message::{pack, unpack, Message};

    const CACHE_SRC: &str = r#"
_managed_ _lookup_ ncl::kv<unsigned, unsigned> cache[64] = {{1,42}, {2,43}};
_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v, char &hit) {
  if (op == 1) {
    hit = ncl::lookup(cache, k, v);
    if (hit) return ncl::reflect();
  }
}
"#;

    /// [`CACHE_SRC`] compiled: its generated TNA program and the kernel's
    /// message specification.
    fn compiled_cache() -> (Arc<netcl_p4::ast::P4Program>, netcl_sema::Specification) {
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("cache.ncl", CACHE_SRC)
            .unwrap();
        (unit.devices[0].tna_p4.clone(), unit.model.kernels[0].specification())
    }

    fn build_cache_network() -> (Network, netcl_sema::Specification) {
        let (p4, spec) = compiled_cache();
        let report = netcl_tofino::fit(&p4).unwrap();
        let switch = Switch::new(p4);
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
        let (p4, spec) = compiled_cache();
        let switch = Switch::new(p4);
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

    /// Same-timestamp queries at one device are delivered one by one: all of
    /// them compute and all replies arrive, in send order.
    #[test]
    fn same_timestamp_queries_all_served_in_send_order() {
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
        let (p4, spec) = compiled_cache();
        let switch = Switch::new(p4);
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
        let switch = Switch::new(compiled_cache().0);
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
        let (p4, spec) = compiled_cache();
        let switch = Switch::new(p4);
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
        assert_eq!(obs.queue_depth.count(), net.stats.events, "queue depth sampled per event");
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
            let (p4, spec) = compiled_cache();
            let switch = Switch::new(p4);
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
            let (p4, spec) = compiled_cache();
            let switch = Switch::new(p4);
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

    /// The flow pump drains in source order, includes flows due exactly at
    /// the bound, stops at the first later one, and goes quiet once the
    /// source is exhausted.
    #[test]
    fn flow_pump_drains_upto_inclusive_then_runs_dry() {
        let mut times = [10u64, 20, 20, 30].into_iter();
        let mut pump =
            FlowPump::new(Box::new(move || times.next().map(|at| (at, 1, vec![at as u8]))));
        let mut drained = Vec::new();
        assert_eq!(pump.next_at(), Some(10));
        pump.drain_upto(9, |at, _, _| drained.push(at));
        assert!(drained.is_empty(), "nothing is due before 10");
        pump.drain_upto(20, |at, host, bytes| {
            assert_eq!((host, bytes), (1, vec![at as u8]));
            drained.push(at);
        });
        assert_eq!(drained, [10, 20, 20], "both flows at the bound, in source order");
        assert_eq!(pump.next_at(), Some(30));
        pump.drain_upto(u64::MAX, |at, _, _| drained.push(at));
        assert_eq!((drained.last(), pump.next_at()), (Some(&30), None));
        pump.drain_upto(u64::MAX, |_, _, _| panic!("an exhausted source yields nothing"));
        FlowPump::default().drain_upto(u64::MAX, |_, _, _| panic!("no source attached"));
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

    /// Queues `arrivals` at device 1 of a fresh star network, all at t=1000
    /// and keyed in slice order, and runs exactly that timestamp.
    fn deliver_at_once(
        p4: &netcl_p4::ast::P4Program,
        link: LinkSpec,
        arrivals: &[Vec<u8>],
    ) -> Network {
        let mut net = NetworkBuilder::new(star(1, &[1, 2], link))
            .seed(42)
            .device(1, Switch::new(p4.clone()), 500)
            .sink_host(1)
            .sink_host(2)
            .observe(ObsConfig { trace: true, ..Default::default() })
            .build();
        for (i, bytes) in arrivals.iter().enumerate() {
            let at_dev = EventOrd::Arrive(NodeId::Device(1));
            net.push_keyed(1000, EventSrc::External(i as u64), at_dev, bytes.clone());
        }
        assert_eq!(net.run_until(1001, u64::MAX), arrivals.len() as u64);
        net
    }

    /// The CACHE fixture under a mix of every delivery outcome, all at one
    /// timestamp: hits that reflect, misses that forward, a transit toward
    /// an absent device (unroutable) and one toward a host, an unreadable
    /// header, and a packet the pipeline rejects. Each message's effects —
    /// stats, trace, forwards and their chaos draws — land in pop order.
    #[test]
    fn same_timestamp_outcome_mix_is_delivered_in_pop_order() {
        let (p4, spec) = compiled_cache();
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
        let mut net = deliver_at_once(&p4, LinkSpec::chaos(0.3), &arrivals);
        let stats = net.stats.clone();
        assert_eq!(stats.kernel_executions, 5, "four computes and the reject");
        assert_eq!(net.switch(1).unwrap().counters().errors, 1, "the truncated packet");
        assert_eq!(stats.per_node[&NodeId::Device(1)].dropped, 3, "header, reject, unroutable");
        assert_eq!(stats.unroutable, 1, "the transit toward absent device 7");
        assert!(
            stats.link_losses + stats.duplicates + stats.reordered > 0,
            "chaos links should actually fire"
        );
        // The device's trace track is the effect order: hit, (header drop is
        // silent), miss, unroutable transit, reject, hit, (host transit is
        // silent), miss.
        let trace = net.take_trace().unwrap();
        let at_dev: Vec<&str> = trace
            .events()
            .filter(|e| e.tid == tid_of(NodeId::Device(1)) && matches!(e.ph, 'X' | 'i'))
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(at_dev, ["kernel", "kernel", "drop.fault", "drop.reject", "kernel", "kernel"]);
        assert!(!net.events.is_empty(), "forwards were queued");
    }

    /// `ncl::repeat()` recirculation: each of three same-timestamp packets
    /// finishes all its passes before the next one starts. Every pass draws
    /// a ticket from a register, so a pass run out of arrival order would
    /// change the replies.
    #[test]
    fn same_timestamp_recirculations_draw_tickets_in_arrival_order() {
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
        // A transit message for an absent device rides along mid-way.
        let arrivals = [spin(1), spin(1), spin(7), spin(1)];
        let mut net = deliver_at_once(&unit.devices[0].tna_p4, LinkSpec::default(), &arrivals);
        assert_eq!(net.stats.recirculations, 6, "each of 3 packets recirculates twice");
        assert_eq!(net.stats.kernel_executions, 9, "3 packets x 3 passes");
        assert_eq!(net.stats.unroutable, 1, "the transit toward absent device 7");
        let sw = net.switch(1).unwrap();
        assert!(sw.registers().any(|(_, cells)| cells.contains(&9)), "9 tickets drawn");
        // Lossless links: one reply per packet, queued in arrival order and
        // carrying the pass count and the packet's last ticket.
        let mut tickets = Vec::new();
        while let Some(Reverse((_, _, NodeOrd(bytes, ord)))) = net.events.pop() {
            assert_eq!(ord, EventOrd::Arrive(NodeId::Host(1)));
            let (mut k, mut n) = (Vec::new(), Vec::new());
            unpack(&bytes, &spec, &mut [Some(&mut k), Some(&mut n)]).unwrap();
            assert_eq!(n[0], 3);
            tickets.push(k[0]);
        }
        assert_eq!(tickets, [3, 6, 9]);
    }
}
