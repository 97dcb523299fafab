//! A discrete-event network simulator for NetCL systems.
//!
//! Plays the role of the paper's testbed (§VII: six servers and a Tofino
//! switch): hosts and programmable devices connected by links, exchanging
//! NetCL-over-UDP messages. Devices run compiled (or handwritten) P4 on the
//! bmv2 interpreter with per-packet latency taken from the Tofino model;
//! the NetCL device runtime applies Table II forwarding; hosts are
//! event-driven application handlers with timers (retransmission etc.).
//!
//! The simulator is deterministic: seeded per-node RNG streams drive loss
//! injection, and events at equal timestamps process in `EventSrc` key
//! order — fault schedule index, driver call order, per-node push counter —
//! which a sharded run reproduces exactly (DESIGN.md §15).
//!
//! DESIGN.md §11 specifies the fault model and the determinism contract;
//! §12 covers the opt-in observability layer ([`NetworkBuilder::observe`]).

#![warn(unreachable_pub)]

pub mod fault;
mod route;
pub mod shard;
pub mod sim;
pub mod topo;
pub mod workload;

pub use fault::{Fault, FaultSchedule};
pub use route::PrecomputedRoutes;
pub use shard::{Partition, ShardedNetwork};
pub use sim::{
    FlowSource, HostEvent, HostHandler, NetStats, Network, NetworkBuilder, NodeCounters, Outbox,
    RestartHook,
};
pub use topo::{LinkSpec, NodeId, Topology};
pub use workload::{FatTree, Flow, FlowStream, WorkloadRng, Zipf};
