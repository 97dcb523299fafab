//! The NetCL runtimes (paper §VI-C).
//!
//! **Host runtime** — everything a NetCL application links against on the
//! host side: [`message`] implements `ncl::message` / `ncl::pack` /
//! `ncl::unpack` over the UDP wire layout of Fig. 10, driven by the kernel
//! specifications the compiler records (§V-A); [`managed`] is the one
//! handle on a device's `_managed_` state (DESIGN.md §16):
//! `ncl::managed_read` / `ncl::managed_write`, transparently resolving
//! compiler memory partitioning, and `_managed_ _lookup_` table updates as
//! atomic, validated batches applied to a *running* switch without a
//! program reload — optionally scoped to one tenant of a merged program.
//!
//! **Device runtime** — [`device`] implements the NetCL forwarding
//! semantics: given the action a kernel selected (Table II) and the header
//! 4-tuple, it decides the next hop and updates the tuple, enforcing the
//! no-implicit-computation rule (§IV). The base program / network layer
//! (the `netcl-net` simulator) then moves the message.
//!
//! DESIGN.md §2 lists both runtimes in the system inventory.

#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod device;
pub mod managed;
pub mod message;
pub mod reliable;

pub use device::{DeviceRuntime, Forward, NO_DEVICE};
pub use managed::{ManagedError, ManagedMemory};
pub use message::{Message, MessageError, NCL_HEADER_BYTES};
pub use reliable::{Reliable, ReliableStats, RetryPolicy, Transport, RELIABLE_TOKEN};
