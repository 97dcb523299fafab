//! Scheduled fault events: the deterministic chaos layer's control track.
//!
//! Faults are scheduled on the simulator's event queue like any other
//! event, so a run is fully described by `(seed, fault schedule)` — the
//! determinism contract the chaos test suite replays failing cases from.
//! Link-level *distributions* (loss, duplication, corruption, reorder,
//! jitter) live on [`crate::topo::LinkSpec`]; this module covers the
//! discrete events: links going down and up, network partitions, and
//! devices failing and restarting.

use crate::topo::NodeId;

/// A discrete fault applied to the network at a scheduled time.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Take the bidirectional link between two nodes down. Traffic reroutes
    /// around it if the topology allows; otherwise it is dropped and
    /// counted in `NetStats::fault_drops`.
    LinkDown(NodeId, NodeId),
    /// Restore a downed link.
    LinkUp(NodeId, NodeId),
    /// Partition the network: only nodes on the same side of the cut can
    /// reach each other. Nodes in the vector form one island; everything
    /// else forms the other.
    Partition(Vec<NodeId>),
    /// Heal an active partition.
    Heal,
    /// A *gray* failure: the link stays up and keeps routing, but every
    /// transit (and its jitter bound) is multiplied by the factor — the
    /// misbehaving-but-alive middle ground real deployments hit far more
    /// often than clean outages. Routing deliberately does NOT react (no
    /// tree invalidation): traffic keeps flowing through the slow link,
    /// counted in `NetStats::degraded_transits`.
    LinkDegrade(NodeId, NodeId, u64),
    /// Restore a degraded link to full speed.
    LinkRestore(NodeId, NodeId),
    /// A device fails: packets arriving at it are blackholed and all of its
    /// state (registers *and* `_managed_` tables) is lost.
    DeviceFail(u16),
    /// A failed device restarts with factory state (zeroed registers,
    /// program-initial tables). If a restart hook was registered via
    /// `NetworkBuilder::on_restart`, it runs next, repopulating `_managed_`
    /// memory through the control plane exactly as a NetCL controller
    /// would.
    DeviceRestart(u16),
}

/// A time-ordered fault schedule. Thin wrapper over `Vec<(at_ns, Fault)>`
/// with builder-style helpers so tests read declaratively.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<(u64, Fault)>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Adds a fault at an absolute simulated time.
    pub(crate) fn at(mut self, at_ns: u64, fault: Fault) -> FaultSchedule {
        self.events.push((at_ns, fault));
        self
    }

    /// Takes a link down at `down_ns` and restores it at `up_ns`.
    pub fn link_outage(self, a: NodeId, b: NodeId, down_ns: u64, up_ns: u64) -> FaultSchedule {
        self.at(down_ns, Fault::LinkDown(a, b)).at(up_ns, Fault::LinkUp(a, b))
    }

    /// Degrades the link between `a` and `b` by `mult`× from `from_ns` and
    /// restores it at `to_ns` — a gray-failure window.
    pub fn slow_link(
        self,
        a: NodeId,
        b: NodeId,
        mult: u64,
        from_ns: u64,
        to_ns: u64,
    ) -> FaultSchedule {
        self.at(from_ns, Fault::LinkDegrade(a, b, mult)).at(to_ns, Fault::LinkRestore(a, b))
    }

    /// Fails a device at `fail_ns` and restarts it at `restart_ns`.
    pub fn device_outage(self, device: u16, fail_ns: u64, restart_ns: u64) -> FaultSchedule {
        self.at(fail_ns, Fault::DeviceFail(device)).at(restart_ns, Fault::DeviceRestart(device))
    }

    /// The scheduled events in insertion order.
    pub(crate) fn events(&self) -> &[(u64, Fault)] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_builders_compose() {
        let s = FaultSchedule::new()
            .link_outage(NodeId::Host(1), NodeId::Device(1), 100, 200)
            .device_outage(3, 150, 400)
            .at(500, Fault::Partition(vec![NodeId::Host(1)]))
            .at(600, Fault::Heal);
        assert_eq!(s.events().len(), 6);
        assert_eq!(s.events()[0], (100, Fault::LinkDown(NodeId::Host(1), NodeId::Device(1))));
        assert_eq!(s.events()[3], (400, Fault::DeviceRestart(3)));
        assert_eq!(s.events()[5], (600, Fault::Heal));
    }
}
