//! [`NetworkBuilder`]: the one way a [`Network`] — whole, or one shard of
//! it — comes to exist.
//!
//! Invariant: fault and rule-update schedules are pushed in builder order,
//! which fixes their `EventSrc::Control` keys — identically in the whole
//! network and in every shard built from the same configuration.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use netcl_bmv2::{Switch, TableUpdate};
use netcl_obs::Trace;
use netcl_runtime::device::DeviceRuntime;

use super::queue::EventQueue;
use super::stats::tid_of;
use super::{
    DeviceNode, FlowPump, HostHandler, HostNode, NetStats, Network, Outbox, RestartHook, Slot,
};
use crate::fault::{Fault, FaultSchedule};
use crate::route::RouteCache;
use crate::topo::{NodeId, Topology};

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
    pub(crate) hosts: Vec<(u32, Option<HostHandler>)>,
    pub(crate) seed: u64,
    pub(crate) faults: Vec<(u64, Fault)>,
    pub(crate) updates: Vec<(u64, u16, TableUpdate)>,
    pub(crate) restart_hooks: HashMap<u16, RestartHook>,
    pub(crate) observe: bool,
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

    /// Adds a host with an event handler. The handler borrows each message
    /// it receives, which is dropped when the call returns: the host keeps
    /// no log, and [`Network::host_received`] reads empty for it.
    pub fn host(mut self, id: u32, handler: HostHandler) -> Self {
        self.hosts.push((id, Some(handler)));
        self
    }

    /// Adds a passive host: messages recorded, with their arrival times,
    /// for [`Network::host_received`]; no reaction.
    pub fn sink_host(mut self, id: u32) -> Self {
        self.hosts.push((id, None));
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

    /// Records a per-message Chrome `trace_event` timeline of the built
    /// network's run in simulated time, every event kept
    /// ([`Network::take_trace`]). A network built without `observe`
    /// allocates nothing for it, and its results are identical either way
    /// (`sim::tests::stats_identical_with_and_without_obs`).
    pub fn observe(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Builds the network.
    pub fn build(self) -> Network {
        let routes = RouteCache::new(&self.topology);
        self.build_part_with(None, routes)
    }

    /// Builds one shard — a network that runs only the nodes `part`'s owner
    /// table (shard by dense index) gives to its shard number, plus any
    /// declared here that the topology lacks; `None` runs everything. The
    /// sharded builder clones one route cache into every shard, so the node
    /// identity and the switch forest are built once and shared (`Arc`);
    /// the round driver routes `xs_out`.
    pub(crate) fn build_part_with(
        mut self,
        part: Option<(&[u32], u32)>,
        routes: RouteCache,
    ) -> Network {
        let trace = self.observe.then(|| {
            let mut t = Trace::new();
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
        let nodes = routes.core.nodes.iter().enumerate();
        let slots = nodes
            .map(|(i, &n)| Slot::new(n, self.seed, part.is_none_or(|(o, s)| o[i] == s)))
            .collect();
        let mut net = Network {
            slots,
            events: EventQueue::new(),
            touched: Vec::with_capacity(routes.core.nodes.len()),
            clock: 0,
            ext_seq: 0,
            seed: self.seed,
            stats: NetStats::default(),
            fault_list: Vec::new(),
            update_list: Vec::new(),
            downed: HashSet::new(),
            degraded: HashMap::new(),
            island: None,
            trace,
            routes,
            xs_out: Vec::new(),
            flows: FlowPump::default(),
            outbox: Outbox::default(),
        };
        for (id, switch, latency_ns) in self.devices {
            let i = net.intern(NodeId::Device(id));
            net.slots[i as usize].device = Some(Box::new(DeviceNode {
                pkt: switch.new_packet(),
                switch,
                runtime: DeviceRuntime::new(id),
                latency_ns,
                out: Vec::new(),
                journal: Vec::new(),
                restart_hook: self.restart_hooks.remove(&id),
            }));
        }
        for (id, handler) in self.hosts {
            let i = net.intern(NodeId::Host(id));
            net.slots[i as usize].host =
                Some(handler.map_or_else(|| HostNode::Sink(Vec::new()), HostNode::Handler));
        }
        for (at, fault) in self.faults {
            net.schedule_fault(at, fault);
        }
        for (at, dev, update) in self.updates {
            net.schedule_update(at, dev, update);
        }
        net
    }
}
