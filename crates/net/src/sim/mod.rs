//! The event-driven simulator core: the [`Network`], its node table, its
//! event keys, and the event loop. Beside it: the queue (`queue.rs`), statistics
//! (`stats.rs`), construction (`builder.rs`), per-message delivery (`deliver.rs`).
//!
//! Invariants:
//! - A node has one identity in here: its dense index — the one `route.rs`
//!   gives a topology node, or a slot this network appended past that range
//!   for an id the topology lacks. All per-node state is in that slot;
//!   events, routing and hand-offs name nodes by index. `NodeId` stays at
//!   the API edge, in `EventSrc` keys, in fault state and in
//!   [`NetStats::per_node`]: nothing observable depends on the indexing.
//! - Events run in `(time, EventSrc)` order. Keys are unique and locally
//!   derivable (schedule index, driver call order, per-node push counter),
//!   so the order is total and the same in a scalar run and in every shard.
//! - One queue per network is the only event source. Cross-shard arrivals
//!   are pushed onto it under the key the sending shard assigned, so pop
//!   order never depends on how an event got there.
//! - A node's delivered / dropped counts are made in its slot and folded
//!   into [`NetStats::per_node`] whenever a run returns — the one time a
//!   caller can read it (`Network::fold_counters`).
//! - [`Network::run`] is the scalar oracle: a flow source is pumped exactly
//!   when simulated time reaches each flow, which is the interleaving an
//!   up-front injection would have had.

mod builder;
mod deliver;
mod queue;
mod stats;

pub use builder::NetworkBuilder;
pub use stats::{NetObs, NetStats, NodeCounters, ObsConfig};

use std::collections::{HashMap, HashSet};

use netcl_bmv2::{Packet, Switch, TableUpdate};
use netcl_obs::{Stopwatch, Trace};
use netcl_runtime::device::DeviceRuntime;

use crate::fault::Fault;
use crate::route::RouteCache;
use crate::topo::{link_key, mix64, NodeId};
use queue::EventQueue;
use stats::tid_of;

/// Events delivered to a host handler.
#[derive(Debug, Clone, Copy)]
pub enum HostEvent<'a> {
    /// A NetCL message arrived: its wire bytes, lent for the call and
    /// dropped when it returns.
    Message(&'a [u8]),
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
pub type HostHandler = Box<dyn FnMut(u64, HostEvent<'_>, &mut Outbox) + Send>;

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
    /// Applied rule updates, replayed (after the restart hook) when the
    /// device restarts — live rule changes survive the factory reset
    /// (DESIGN.md §16).
    journal: Vec<TableUpdate>,
    restart_hook: Option<RestartHook>,
}

/// What the builder declared at a host: a sink records what it receives,
/// a handler reacts to it — never both, so a message ends where it is
/// consumed and a handler host's memory does not grow with the run.
enum HostNode {
    /// Every message that landed here, with its arrival time.
    Sink(Vec<(u64, Vec<u8>)>),
    Handler(HostHandler),
}

/// A sink's log — only sinks log — is released newest first. Its newest
/// buffers are the last a run allocated — the top of the heap — and the
/// first few a thread frees of a size stay in glibc's per-thread cache,
/// which counts as in use: so the heap's top stays put while the rest of
/// the run is freed below it, and the next run reuses that memory instead
/// of glibc handing it back and the run faulting it in again (DESIGN.md
/// §18).
impl Drop for HostNode {
    fn drop(&mut self) {
        if let HostNode::Sink(log) = self {
            while log.pop().is_some() {}
        }
    }
}

/// Host-side processing cost before a handler's sends go out (socket +
/// kernel path; the paper attributes its end-to-end deltas to this).
const HOST_PROCESS_NS: u64 = 2000;

/// Everything kept per node, at the node's dense index.
struct Slot {
    id: NodeId,
    /// Push counter ([`EventSrc::Node`]).
    seq: u64,
    /// Chaos RNG cursor (splitmix64), seeded from `seed ⊕ tag(id)`. Draws
    /// for a transmit come from the *sending* node's stream, so a shard
    /// owning that node reproduces the scalar run's draws (DESIGN.md §15).
    rng: u64,
    /// Whether this network runs the node; arrivals at any other go to
    /// `xs_out` for the shard runner to route. Always true unsharded.
    owned: bool,
    /// Device currently failed (blackholing traffic).
    failed: bool,
    /// Delivered / dropped here since the last fold; non-zero ⇒ on `touched`.
    counters: NodeCounters,
    /// What the builder declared here, by the kind of `id`. The device is
    /// boxed to keep slots host-sized: a 10⁵-host fat-tree holds one per
    /// node in every shard.
    host: Option<HostNode>,
    device: Option<Box<DeviceNode>>,
}

impl Slot {
    fn new(id: NodeId, seed: u64, owned: bool) -> Slot {
        let tag = match id {
            NodeId::Host(h) => 0x486F_7374_0000_0000u64 | h as u64,
            NodeId::Device(d) => 0x4465_7663_0000_0000u64 | d as u64,
        };
        // One splitmix step decorrelates the per-node seeds.
        let rng = mix64(seed ^ tag);
        let counters = NodeCounters::default();
        Slot { id, seq: 0, rng, owned, failed: false, counters, host: None, device: None }
    }
}

/// The running simulation.
pub struct Network {
    /// The node table: topology nodes at their route index, then ids the
    /// topology lacks, in first-use order.
    slots: Vec<Slot>,
    events: EventQueue<EventKind>,
    /// Nodes whose slot holds counts not yet in `stats.per_node`.
    touched: Vec<u32>,
    clock: u64,
    /// Driver-injection counter ([`EventSrc::External`]).
    ext_seq: u64,
    /// The run seed; per-node RNG streams are derived from it.
    seed: u64,
    /// Statistics.
    pub stats: NetStats,
    /// Scheduled faults, referenced by index from `EventKind::Fault`.
    fault_list: Vec<Fault>,
    /// Scheduled rule updates, referenced by index from
    /// `EventKind::RuleUpdate`. Replicated into every shard (like faults)
    /// so indices — and therefore event keys — agree everywhere.
    update_list: Vec<(u16, TableUpdate)>,
    /// Links currently down (order-normalized endpoint pairs).
    downed: HashSet<(NodeId, NodeId)>,
    /// Links currently gray-degraded (order-normalized endpoint pairs →
    /// latency multiplier). Deliberately *not* part of the routing state:
    /// a degraded link keeps carrying traffic, so trees are never
    /// invalidated by it.
    degraded: HashMap<(NodeId, NodeId), u64>,
    /// Active partition: one island of nodes, cut off from the rest.
    island: Option<HashSet<NodeId>>,
    /// Wall-clock observability; `None` (the default) costs nothing.
    obs: Option<NetObs>,
    /// The shared node identity and routing (`route.rs`), with trees
    /// memoized per destination while links are down and invalidated
    /// whenever the downed-link set changes. Pure memoization: the run's
    /// observable behavior depends only on the tree contents, which are a
    /// deterministic function of (topology, downed set).
    routes: RouteCache,
    /// Outbound cross-shard arrivals produced by the current window.
    xs_out: Vec<Event>,
    /// Streamed driver injections ([`Network::set_flow_source`]); pulled
    /// as the run loop reaches each flow's injection time.
    flows: FlowPump,
    /// What the handler being run sends and arms; drained after every call,
    /// so the two vectors are allocated once per network.
    outbox: Outbox,
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
/// total order independent of push order — and of indexing: the node is
/// named by id.
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug)]
pub(crate) enum EventSrc {
    /// Scheduled fault, keyed by its index in the fault list.
    Control(u64),
    /// Driver injection (`send_from_host` / `set_host_timer`), call order.
    External(u64),
    /// Pushed while processing an event at this node (per-node counter).
    Node(NodeId, u64),
}

/// An event on its way to a queue: what crosses a shard boundary (arrivals
/// at topology nodes only), under the key the sending shard pushed it with.
/// The queue orders by `(time, src)` alone — keys are unique, so what happens
/// never takes part in the order.
#[derive(Debug)]
pub(crate) struct Event {
    pub(crate) time: u64,
    src: EventSrc,
    pub(crate) kind: EventKind,
}

/// What happens, and at which node (by dense index).
#[derive(Debug)]
pub(crate) enum EventKind {
    /// These wire bytes land at the node.
    Arrive(u32, Vec<u8>),
    /// The host puts these wire bytes on its uplink.
    HostSend(u32, Vec<u8>),
    /// The host's timer fires with this token.
    Timer(u32, u64),
    Fault(usize),
    RuleUpdate(usize),
}

/// Rule-update control keys live in the top half of the
/// [`EventSrc::Control`] space so they can never collide with fault keys
/// (fault index `i` → `Control(i)`, update index `i` → `Control(BIT | i)`).
/// At equal timestamps faults therefore order before rule updates — fixed,
/// documented, and identical in every shard.
const RULE_UPDATE_KEY_BIT: u64 = 1 << 63;

impl Network {
    /// Current simulated time in nanoseconds.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// The dense index of `n`: the shared lookup for a topology node, else
    /// this network's own slots past that range.
    fn index_of(&self, n: NodeId) -> Option<u32> {
        let core = &self.routes.core;
        core.index(n).or_else(|| {
            let extra = self.slots[core.nodes.len()..].iter().position(|s| s.id == n)?;
            Some((core.nodes.len() + extra) as u32)
        })
    }

    /// [`Self::index_of`], appending a slot for an id first seen now: it
    /// has no links, so whatever it sends is unroutable.
    pub(crate) fn intern(&mut self, n: NodeId) -> u32 {
        self.index_of(n).unwrap_or_else(|| {
            self.slots.push(Slot::new(n, self.seed, true));
            self.slots.len() as u32 - 1
        })
    }

    /// Messages a sink host ([`NetworkBuilder::sink_host`]) received, with
    /// arrival timestamps. Empty for a handler host: its handler consumed
    /// each message, and the buffer was dropped when the call returned.
    pub fn host_received(&self, id: u32) -> &[(u64, Vec<u8>)] {
        match self.index_of(NodeId::Host(id)).and_then(|i| self.slots[i as usize].host.as_ref()) {
            Some(HostNode::Sink(log)) => log,
            _ => &[],
        }
    }

    /// Direct control-plane access to a device's switch.
    pub fn switch_mut(&mut self, id: u16) -> Option<&mut Switch> {
        let i = self.index_of(NodeId::Device(id))?;
        self.slots[i as usize].device.as_mut().map(|d| &mut d.switch)
    }

    /// Immutable switch access.
    pub fn switch(&self, id: u16) -> Option<&Switch> {
        let i = self.index_of(NodeId::Device(id))?;
        self.slots[i as usize].device.as_ref().map(|d| &d.switch)
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

    /// Pushes an event made while processing one at node `at`, keyed `(at,
    /// per-node counter)`.
    fn push_from(&mut self, at: u32, time: u64, kind: EventKind) {
        let slot = &mut self.slots[at as usize];
        slot.seq += 1;
        let src = EventSrc::Node(slot.id, slot.seq);
        self.push_keyed(time, src, kind);
    }

    /// Pushes a driver injection at `host`, keyed by call order.
    fn inject(&mut self, host: u32, time: u64, kind: impl FnOnce(u32) -> EventKind) {
        let host = self.intern(NodeId::Host(host));
        self.ext_seq += 1;
        self.push_keyed(time, EventSrc::External(self.ext_seq), kind(host));
    }

    /// Pushes a fully-keyed event, routing arrivals at non-owned nodes to
    /// the cross-shard outbox. Only arrivals can cross shards: sends and
    /// timers are always pushed by (or injected at) the node itself. The
    /// sharded wrapper injects driver events here under `External` keys it
    /// numbers itself, so they match a scalar run's whichever shard owns
    /// the host.
    pub(crate) fn push_keyed(&mut self, time: u64, src: EventSrc, kind: EventKind) {
        let remote = matches!(kind, EventKind::Arrive(to, _) if !self.slots[to as usize].owned);
        let event = Event { time, src, kind };
        if remote {
            self.xs_out.push(event);
        } else {
            self.accept(event);
        }
    }

    /// Queues an event this network runs: `push_keyed` found it so, or the
    /// coordinator routed a cross-shard arrival to its owner. Keys are unique
    /// and totally ordered, so pop order is independent of arrival order.
    pub(crate) fn accept(&mut self, event: Event) {
        self.events.push(event.time, event.src, event.kind);
    }

    /// Earliest pending event time, if any.
    pub(crate) fn next_event_time(&self) -> Option<u64> {
        self.events.next_time()
    }

    /// Pending events not yet processed — the live-event footprint
    /// `ShardedNetwork::peak_queue` samples as a run's memory proxy.
    pub(crate) fn queue_len(&self) -> usize {
        self.events.len()
    }

    /// Hands over the cross-shard arrivals produced by the last window in
    /// exchange for `spare`, an emptied vector whose capacity the next
    /// window's arrivals reuse.
    pub(crate) fn swap_xs_out(&mut self, spare: &mut Vec<Event>) {
        debug_assert!(spare.is_empty(), "the runner routes every hand-off before the next round");
        std::mem::swap(&mut self.xs_out, spare);
    }

    /// Injects a send from a host at an absolute time.
    pub fn send_from_host(&mut self, host: u32, at_ns: u64, bytes: Vec<u8>) {
        self.inject(host, at_ns, |host| EventKind::HostSend(host, bytes));
    }

    /// Arms a host timer at an absolute time.
    pub fn set_host_timer(&mut self, host: u32, at_ns: u64, token: u64) {
        self.inject(host, at_ns, |host| EventKind::Timer(host, token));
    }

    /// Schedules a fault at an absolute simulated time (also available on
    /// the builder; this form lets tests inject mid-run). Faults are keyed
    /// by schedule index, so replicating one schedule across shards yields
    /// identical keys in every shard.
    pub fn schedule_fault(&mut self, at_ns: u64, fault: Fault) {
        let idx = self.fault_list.len();
        self.fault_list.push(fault);
        self.push_keyed(at_ns, EventSrc::Control(idx as u64), EventKind::Fault(idx));
    }

    /// Schedules a control-plane rule update at an absolute simulated time
    /// (also available on the builder; this form lets a controller inject
    /// mid-run). Keyed by schedule index in a space disjoint from fault
    /// keys, so replicating one schedule across shards yields identical
    /// keys in every shard.
    pub fn schedule_update(&mut self, at_ns: u64, device: u16, update: TableUpdate) {
        let idx = self.update_list.len();
        self.update_list.push((device, update));
        let key = EventSrc::Control(RULE_UPDATE_KEY_BIT | idx as u64);
        self.push_keyed(at_ns, key, EventKind::RuleUpdate(idx));
    }

    /// Whether device `id` is currently failed.
    pub fn device_failed(&self, id: u16) -> bool {
        self.index_of(NodeId::Device(id)).is_some_and(|i| self.slots[i as usize].failed)
    }

    /// Node `n`'s counts since the last fold, about to be added to.
    fn count(&mut self, n: u32) -> &mut NodeCounters {
        let counters = &mut self.slots[n as usize].counters;
        if *counters == NodeCounters::default() {
            self.touched.push(n);
        }
        counters
    }

    /// Brings `stats.per_node` up to date, as both runners do on every
    /// return: moves in the counts made since the last fold, one step per
    /// node touched whatever the table's size, never an all-zero entry.
    pub(crate) fn fold_counters(&mut self) {
        #[cfg(test)]
        tests::FOLD_STEPS.with(|n| n.set(n.get() + self.touched.len() as u64));
        for i in self.touched.drain(..) {
            let slot = &mut self.slots[i as usize];
            let made = std::mem::take(&mut slot.counters);
            let total = self.stats.per_node.entry(slot.id).or_default();
            total.delivered += made.delivered;
            total.dropped += made.dropped;
        }
    }

    /// Draws from node `n`'s chaos RNG stream.
    fn rand_u64(&mut self, n: u32) -> u64 {
        let state = &mut self.slots[n as usize].rng;
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(*state)
    }

    fn rand01(&mut self, n: u32) -> f64 {
        self.rand_u64(n) as f64 / u64::MAX as f64
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
                n += self.run_until(u64::MAX, max_events - n);
                break;
            };
            n += self.run_until(f, max_events - n);
            if n < max_events {
                let mut flows = std::mem::take(&mut self.flows);
                flows.drain_upto(f, |at, host, bytes| self.send_from_host(host, at, bytes));
                self.flows = flows;
            }
        }
        self.fold_counters();
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
            let (queue::Key { time, .. }, kind) = self.events.pop().expect("peeked");
            self.clock = self.clock.max(time);
            if !matches!(kind, EventKind::Fault(_) | EventKind::RuleUpdate(_)) {
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
            match kind {
                EventKind::HostSend(host, bytes) => self.host_transmit(host, bytes),
                EventKind::Arrive(n, bytes) => match self.slots[n as usize].id {
                    NodeId::Device(_) => self.device_receive(n, bytes),
                    NodeId::Host(_) => self.host_receive(n, bytes),
                },
                EventKind::Timer(host, token) => self.host_handle(host, HostEvent::Timer(token), 0),
                EventKind::Fault(idx) => self.apply_fault(idx),
                EventKind::RuleUpdate(idx) => {
                    let (dev, update) = self.update_list[idx].clone();
                    self.apply_update(dev, &update);
                }
            }
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
    /// network does not run (sharding) is a silent no-op `false` — the
    /// schedule is replicated, the application is not, and the owner shard
    /// counts it.
    pub fn apply_update(&mut self, dev: u16, update: &TableUpdate) -> bool {
        let Some(i) = self.index_of(NodeId::Device(dev)) else { return false };
        let slot = &mut self.slots[i as usize];
        let Some(node) = &mut slot.device else { return false };
        // The controller cannot reach a failed device: the batch is lost,
        // not queued (and not journaled — it never landed).
        let applied = !slot.failed && node.switch.apply_update(update).is_ok();
        if applied {
            node.journal.push(update.clone());
            self.stats.rule_updates += 1;
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
                let i = self.intern(NodeId::Device(d));
                self.slots[i as usize].failed = true;
            }
            Fault::DeviceRestart(d) => {
                let Some(i) = self.index_of(NodeId::Device(d)) else { return };
                let slot = &mut self.slots[i as usize];
                slot.failed = false;
                if let Some(node) = slot.device.as_deref_mut() {
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
                    if let Some(hook) = &mut node.restart_hook {
                        hook(&mut node.switch);
                    }
                    // Replay journaled rule updates *after* the hook: the
                    // hook restores the checkpoint, the journal re-applies
                    // every live rule change made since — a reload no
                    // longer loses them (DESIGN.md §16).
                    for u in &node.journal {
                        let _ = node.switch.apply_update(u);
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
    use std::sync::Arc;

    thread_local! {
        /// Nodes folded by [`Network::fold_counters`] calls on this thread.
        pub(super) static FOLD_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

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
                unpack(bytes, &spec2, &mut [Some(&mut op), Some(&mut k), None, None]).unwrap();
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

    proptest::proptest! {
        /// The node identity on random fat-trees: id → index → id round-trips
        /// and the table is laid out by it, index order is `NodeId` order,
        /// ids the topology lacks resolve to nothing, and a host declared on
        /// the builder but never linked gets a slot past the topology's
        /// range, from where whatever it sends is unroutable.
        #[test]
        fn node_index_round_trips_and_strays_land_past_the_topology(
            half_k in 1u16..=4,
            beyond in 0u32..1000,
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let ft = crate::FatTree::new(2 * half_k, LinkSpec::default()).unwrap();
            let (nodes, stray) = (ft.topology.nodes(), ft.num_hosts() as u32 + beyond);
            let mut net = NetworkBuilder::new(ft.topology).sink_host(stray).build();
            let core = net.routes.core.clone();
            prop_assert_eq!(&core.nodes, &nodes);
            prop_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "indices follow NodeId order");
            for (i, &n) in nodes.iter().enumerate() {
                prop_assert_eq!(core.index(n), Some(i as u32));
                prop_assert_eq!(net.slots[i].id, n);
            }
            for unknown in [NodeId::Host(stray), NodeId::Host(u32::MAX), NodeId::Device(u16::MAX)] {
                prop_assert_eq!(core.index(unknown), None);
            }
            prop_assert_eq!(net.index_of(NodeId::Device(u16::MAX)), None);
            prop_assert_eq!(net.index_of(NodeId::Host(stray)), Some(nodes.len() as u32));
            let mut to_host_0 = vec![0; netcl_runtime::NCL_HEADER_BYTES];
            Message::new(0, 0, 1, netcl_runtime::device::NO_DEVICE).write_header_into(&mut to_host_0);
            net.send_from_host(stray, 0, to_host_0);
            prop_assert_eq!(net.run(10), 1);
            prop_assert_eq!((net.stats.unroutable, net.stats.delivered), (1, 0));
            prop_assert_eq!(net.stats.per_node[&NodeId::Host(stray)].dropped, 1);
            prop_assert_eq!(net.slots.len(), nodes.len() + 1, "no second slot for the same id");
        }
    }

    /// The fold contract: `stats.per_node` is complete whenever a run has
    /// returned — scalar or sharded, inline or threaded, whole or in
    /// `run(7)` slices — and never holds an all-zero entry. Lossy,
    /// duplicating links and a device outage keep `dropped` moving; with
    /// well-formed traffic every drop is one of four counted kinds, so the
    /// per-node breakdown must sum to the totals at every return.
    #[test]
    fn per_node_is_complete_and_zero_free_after_every_run_return() {
        let (p4, spec) = compiled_cache();
        let link = LinkSpec { loss: 0.2, duplicate: 0.3, ..Default::default() };
        let builder = || {
            NetworkBuilder::new(star(1, &[1, 2], link))
                .seed(9)
                .device(1, Switch::new(p4.clone()), 500)
                .sink_host(1)
                .sink_host(2)
                .fault(40_000, Fault::DeviceFail(1))
                .fault(80_000, Fault::DeviceRestart(1))
        };
        let drive = |send: &mut dyn FnMut(u32, u64, Vec<u8>)| {
            for i in 0..60u64 {
                let args = [Some(&[1][..]), Some(&[i % 4][..]), None, None];
                send(1, i * 2_000, pack(&Message::new(1, 2, 1, 1), &spec, &args).unwrap());
            }
        };
        let complete = |s: &NetStats, when: &str| {
            let hosts = s.per_node.iter().filter(|(n, _)| matches!(n, NodeId::Host(_)));
            assert_eq!(hosts.map(|(_, c)| c.delivered).sum::<u64>(), s.delivered, "{when}");
            let dropped = s.link_losses + s.fault_drops + s.unroutable + s.kernel_drops;
            assert_eq!(s.per_node.values().map(|c| c.dropped).sum::<u64>(), dropped, "{when}");
            assert!(s.per_node.values().all(|c| *c != NodeCounters::default()), "{when}");
        };

        let mut whole = builder().build();
        drive(&mut |h, at, b| whole.send_from_host(h, at, b));
        whole.run(u64::MAX);
        complete(&whole.stats, "scalar, one run");
        let s = &whole.stats;
        assert!(s.link_losses > 0 && s.duplicates > 0 && s.fault_drops > 0, "{s:?}");
        assert!(s.per_node[&NodeId::Device(1)].dropped > 0 && s.delivered > 0, "{s:?}");

        let mut sliced = builder().build();
        drive(&mut |h, at, b| sliced.send_from_host(h, at, b));
        while sliced.run(7) > 0 {
            complete(&sliced.stats, "scalar, a run(7) slice");
            assert!(sliced.touched.is_empty(), "nothing waits for the next fold");
            assert!(sliced.slots.iter().all(|s| s.counters == NodeCounters::default()));
        }
        assert!(sliced.stats == whole.stats, "sliced ≡ whole");

        let partition = crate::Partition::new(vec![
            vec![NodeId::Device(1), NodeId::Host(2)],
            vec![NodeId::Host(1)],
        ]);
        for threaded in [false, true] {
            let mut net = builder().build_sharded(partition.clone()).unwrap();
            net.set_threaded(threaded);
            drive(&mut |h, at, b| net.send_from_host(h, at, b));
            while net.run(7) > 0 {
                complete(&net.stats(), "sharded, a run(7) slice");
                for shard in net.shard_stats() {
                    assert!(shard.per_node.values().all(|c| *c != NodeCounters::default()));
                }
            }
            assert!(net.stats() == whole.stats, "sharded (threaded={threaded}) ≡ scalar");
        }

        // A run whose last event is a drop: the fold still sees it.
        let (mut net, spec) = build_cache_network();
        net.schedule_fault(0, Fault::DeviceFail(1));
        query(&mut net, &spec, 10, 1);
        net.run(u64::MAX);
        assert_eq!(net.stats.per_node[&NodeId::Device(1)].dropped, 1);
        assert_eq!(net.stats.per_node.len(), 1, "{:?}", net.stats.per_node);
    }

    /// A fold costs one step per node touched since the last one, not one
    /// per node: draining a k=8 fat-tree (208 nodes) in `run(7)` slices
    /// folds at most once per event, and a single run at most once per node.
    #[test]
    fn fold_steps_follow_events_not_the_node_count() {
        let p4 = compiled_cache().0;
        let ft = crate::FatTree::new(8, LinkSpec::default()).unwrap();
        let build = || {
            let mut b = NetworkBuilder::new(ft.topology.clone());
            for &d in ft.edge_by_pod.iter().chain(&ft.agg_by_pod).flatten().chain(&ft.core) {
                b = b.device(d, Switch::new(p4.clone()), 500);
            }
            let mut net = ft.hosts.iter().fold(b, |b, &h| b.sink_host(h)).build();
            // Host to host, computed nowhere: every switch on the path
            // counts a delivery and passes it on.
            for i in 0..200u16 {
                let mut bytes = vec![0; netcl_runtime::NCL_HEADER_BYTES];
                Message::new(i % 128, (i * 37 + 5) % 128, 1, netcl_runtime::device::NO_DEVICE)
                    .write_header_into(&mut bytes);
                net.send_from_host((i % 128) as u32, i as u64 * 100, bytes);
            }
            FOLD_STEPS.with(|n| n.set(0));
            net
        };
        let mut whole = build();
        let events = whole.run(u64::MAX);
        let steps = FOLD_STEPS.with(std::cell::Cell::get);
        assert_eq!((whole.stats.delivered, whole.stats.unroutable), (200, 0));
        assert_eq!(steps, whole.stats.per_node.len() as u64, "one run: one step per node");
        assert!(steps > 150 && events > 1_000, "{steps} nodes over {events} events");

        let (mut sliced, mut slices) = (build(), 0u64);
        while sliced.run(7) > 0 {
            slices += 1;
        }
        let steps = FOLD_STEPS.with(std::cell::Cell::get);
        assert!(sliced.stats == whole.stats, "sliced ≡ whole");
        assert!(steps <= events, "{steps} fold steps over {events} events");
        assert!(steps < slices * 208 / 20, "{steps} steps, {slices} slices of 208 nodes");
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

    /// A handler's delay cannot wrap simulated time: what it arms or sends
    /// past the end of time lands at `u64::MAX`, in no horizon — it never
    /// runs and the run returns. Unchecked, `now + delay` panicked in debug
    /// and in release landed in the past and fired at once.
    #[test]
    fn a_delay_past_the_end_of_time_never_fires() {
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let f2 = fired.clone();
        let handler = Box::new(move |now: u64, ev: HostEvent, out: &mut Outbox| {
            let HostEvent::Timer(tok) = ev else { return };
            f2.lock().unwrap().push((now, tok));
            out.set_timer(u64::MAX, tok + 1);
            out.send(u64::MAX - 50, vec![0; netcl_runtime::NCL_HEADER_BYTES]);
        });
        let mut net =
            NetworkBuilder::new(star(1, &[1], LinkSpec::default())).host(1, handler).build();
        net.set_host_timer(1, 100, 1);
        assert_eq!(net.run(10), 1, "the kick-off timer and nothing else");
        assert_eq!(*fired.lock().unwrap(), vec![(100, 1)]);
        assert_eq!((net.now(), net.stats.events), (100, 1));
        assert_eq!((net.queue_len(), net.next_event_time()), (2, Some(u64::MAX)));
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
        let dev = net.intern(NodeId::Device(1));
        for (i, bytes) in arrivals.iter().enumerate() {
            let at_dev = EventKind::Arrive(dev, bytes.clone());
            net.push_keyed(1000, EventSrc::External(i as u64), at_dev);
        }
        assert_eq!(net.run_until(1001, u64::MAX), arrivals.len() as u64);
        net.fold_counters();
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
        assert!(net.events.len() > 0, "forwards were queued");
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
        while let Some((_, kind)) = net.events.pop() {
            let EventKind::Arrive(at, bytes) = kind else { panic!("not an arrival: {kind:?}") };
            assert_eq!(net.slots[at as usize].id, NodeId::Host(1));
            let (mut k, mut n) = (Vec::new(), Vec::new());
            unpack(&bytes, &spec, &mut [Some(&mut k), Some(&mut n)]).unwrap();
            assert_eq!(n[0], 3);
            tickets.push(k[0]);
        }
        assert_eq!(tickets, [3, 6, 9]);
    }
}
