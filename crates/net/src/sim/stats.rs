//! What a run reports: deterministic statistics and an opt-in trace.
//!
//! Invariants:
//! - [`NetStats`] is a pure function of `(seed, fault schedule, injections)`
//!   — never of wall time, sharding, or whether a trace is being kept —
//!   so two such runs compare `Eq`.
//! - [`NetStats::accumulate`] is commutative and associative: per-shard
//!   stats merge to the scalar run's in any order.

use std::collections::BTreeMap;

use crate::topo::NodeId;

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
    /// (`Network::schedule_update`); counted only where the device
    /// lives, so shards merge exactly.
    pub rule_updates: u64,
    /// Rule-update batches that did not land: the target device was failed
    /// (blackholed) at delivery time, or the batch failed validation.
    pub rule_update_rejects: u64,
    /// Transits that crossed a gray-degraded link
    /// ([`Fault::LinkDegrade`](crate::Fault::LinkDegrade)) — delivered, just slower.
    pub degraded_transits: u64,
    /// Per-node delivered/dropped breakdown (keyed deterministically):
    /// nodes that counted something, complete whenever a run has returned.
    pub per_node: BTreeMap<NodeId, NodeCounters>,
}

impl NetStats {
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

/// Trace thread-track id for a node: devices use their id, hosts are
/// offset so the tracks never collide.
pub(super) fn tid_of(n: NodeId) -> u32 {
    match n {
        NodeId::Device(d) => d as u32,
        NodeId::Host(h) => 0x1_0000 + h,
    }
}
