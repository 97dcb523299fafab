//! [`NetworkBuilder`]: the one way a [`Network`] — whole, or one shard of
//! it — comes to exist.
//!
//! Invariant: fault and rule-update schedules are pushed in builder order,
//! which fixes their `EventSrc::Control` keys — identically in the whole
//! network and in every shard built from the same configuration.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use netcl_bmv2::{Switch, TableUpdate};
use netcl_obs::Trace;
use netcl_runtime::device::DeviceRuntime;

use super::stats::tid_of;
use super::{
    DeviceNode, FlowPump, HostHandler, HostNode, NetObs, NetStats, Network, ObsConfig, RestartHook,
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
        let routes = RouteCache::new(&self.topology);
        self.build_part_with(None, routes)
    }

    /// Builds a network that owns only `owned` nodes (one shard); `None`
    /// owns everything. The sharded builder constructs one route cache and
    /// clones it into every shard, so the precomputed switch forest is
    /// built once and shared (`Arc`); the round driver routes `xs_out`.
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
            flows: FlowPump::default(),
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
