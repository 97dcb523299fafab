//! Delivery: moving one message one hop, and what happens where it lands.
//!
//! Invariants:
//! - One routine per landing place handles one message at a time;
//!   same-timestamp arrivals are just consecutive calls in pop order.
//! - Chaos draws for a hop come from the *sending* node's RNG stream, and
//!   every push made while handling a message is keyed by the node it is
//!   handled at, so a shard owning that node reproduces the scalar run.
//! - A message is one buffer from the event that carries it to the log it
//!   ends in: hops move it, a host handler borrows it, `received` keeps it.
//!   Copies are made only where there are two owners — a duplicating link,
//!   and every multicast member but the last.

use netcl_obs::Value;
use netcl_runtime::device::Forward;
use netcl_runtime::message::Message;
use netcl_sema::builtins::ActionKind;

use super::stats::tid_of;
use super::{EventKind, HostEvent, HostNode, Network, HOST_PROCESS_NS};
use crate::topo::{link_key, NodeId};

impl Network {
    /// Whether a single hop is traversable under the active faults (link
    /// up, not crossing the partition cut).
    fn hop_open(&self, from: NodeId, to: NodeId) -> bool {
        !self.downed.contains(&link_key(from, to))
            && self.island.as_ref().is_none_or(|i| i.contains(&from) == i.contains(&to))
    }

    pub(super) fn host_transmit(&mut self, host: u32, bytes: Vec<u8>) {
        // Route toward the computing device (or destination host).
        let Ok(msg) = Message::read_header(&bytes) else { return };
        let target = if msg.to != netcl_runtime::device::NO_DEVICE {
            NodeId::Device(msg.to)
        } else {
            NodeId::Host(msg.dst as u32)
        };
        let now = self.clock;
        self.transmit(host, target, now, bytes);
    }

    /// Moves a message one hop from node `from` toward `target` — an id off
    /// the wire, possibly one no node has — departing at `at` (≥ the current
    /// clock; device forwards depart after their kernel latency).
    fn transmit(&mut self, from: u32, target: NodeId, at: u64, mut bytes: Vec<u8>) {
        let here = self.slots[from as usize].id;
        if here == target {
            if let NodeId::Host(_) = target {
                self.push_from(from, at, EventKind::Arrive(from, bytes));
            }
            return;
        }
        let faulted = !self.downed.is_empty() || self.island.is_some();
        let hop = self.index_of(target).and_then(|t| self.routes.hop(from, t, &self.downed));
        let open = |&(h, _): &_| !faulted || self.hop_open(here, self.slots[h as usize].id);
        let Some((hop, link)) = hop.filter(open) else {
            // No traversable route. Distinguish a topology gap (a bug in
            // the experiment setup) from a scheduled fault eating the path.
            if faulted {
                self.stats.fault_drops += 1;
            } else {
                self.stats.unroutable += 1;
            }
            self.count(from).dropped += 1;
            self.trace_instant("drop.fault", here, at);
            return;
        };
        if link.loss > 0.0 && self.rand01(from) < link.loss {
            self.stats.link_losses += 1;
            self.count(hop).dropped += 1;
            self.trace_instant("drop.loss", self.slots[hop as usize].id, at);
            return;
        }
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
            *self.degraded.get(&link_key(here, self.slots[hop as usize].id)).unwrap_or(&1)
        };
        if slow > 1 {
            self.stats.degraded_transits += 1;
        }
        for i in 0..copies {
            // Saturating: an unservable link arrives at `u64::MAX`, in no horizon.
            let mut arrive = at.saturating_add(slow.saturating_mul(link.transit_ns(bytes.len())));
            if link.jitter_ns > 0 {
                let span = slow.saturating_mul(link.jitter_ns).saturating_add(1);
                arrive = arrive.saturating_add(self.rand_u64(from) % span);
            }
            if link.reorder > 0.0 && self.rand01(from) < link.reorder {
                arrive = arrive.saturating_add(link.reorder_ns);
                self.stats.reordered += 1;
            }
            // The last copy moves the buffer — the common lossless single
            // delivery stays allocation-free.
            let payload = if i + 1 == copies { std::mem::take(&mut bytes) } else { bytes.clone() };
            self.push_from(from, arrive, EventKind::Arrive(hop, payload));
        }
    }

    /// The one delivery routine (DESIGN.md §13): one message arriving at one
    /// device. A failed device blackholes it; an unreadable header drops it;
    /// a message computed elsewhere transits at `clock`; otherwise the kernel
    /// runs — again while it asks to `Repeat`, up to 8 passes — and the
    /// final header decides the forward, departing after the passes'
    /// latency. Compute touches only switch state and the effects after it
    /// only network state.
    pub(super) fn device_receive(&mut self, dev: u32, mut wire: Vec<u8>) {
        let slot = &self.slots[dev as usize];
        let here = slot.id;
        if slot.failed {
            self.stats.fault_drops += 1;
            self.count(dev).dropped += 1;
            self.trace_instant("drop.fault", here, self.clock);
            return;
        }
        if slot.device.is_none() {
            return;
        }
        let Ok(msg) = Message::read_header(&wire) else {
            self.count(dev).dropped += 1;
            return;
        };
        self.count(dev).delivered += 1;
        let node = self.slots[dev as usize].device.as_deref_mut().expect("checked above");
        let runtime = node.runtime;
        if !runtime.should_compute(&msg) {
            let now = self.clock;
            return self.apply_forward(dev, runtime.transit(&msg), now, wire);
        }
        // `Ok`: the final pass's header. `Err(Some(name))`: a counted drop,
        // named on the trace. `Err(None)`: the kernel left an unreadable
        // header and the message vanishes silently.
        let mut passes = 0u64;
        let last = loop {
            passes += 1;
            if node.switch.process_into(&wire, &mut node.pkt, &mut node.out).is_err() {
                break Err(Some("drop.reject"));
            }
            std::mem::swap(&mut wire, &mut node.out);
            let Ok(msg) = Message::read_header(&wire) else { break Err(None) };
            if ActionKind::from_code(msg.action) != Some(ActionKind::Repeat) {
                break Ok(msg);
            }
            if passes == 8 {
                self.stats.kernel_drops += 1;
                break Err(Some("drop.kernel"));
            }
        };
        let latency = passes * node.latency_ns;
        let backend = node.switch.engine().name();
        self.stats.kernel_executions += passes;
        self.stats.recirculations += passes - 1;
        let mut msg = match last {
            Ok(msg) => msg,
            Err(why) => {
                if let Some(name) = why {
                    self.count(dev).dropped += 1;
                    self.trace_instant(name, here, self.clock);
                }
                return;
            }
        };
        let action = ActionKind::from_code(msg.action).unwrap_or(ActionKind::Pass);
        let (act_code, target) = (msg.action, msg.target);
        let fwd = runtime.forward(&mut msg, action, target);
        // Clear the per-hop action fields for the next node.
        msg.action = 0;
        msg.target = 0;
        msg.write_header_into(&mut wire[..netcl_runtime::NCL_HEADER_BYTES]);
        if let Some(tr) = &mut self.trace {
            tr.complete(
                "kernel",
                "device",
                0,
                tid_of(here),
                self.clock,
                latency,
                vec![
                    ("action", Value::U64(act_code as u64)),
                    ("recircs", Value::U64(passes - 1)),
                    ("src", Value::U64(msg.src as u64)),
                    ("dst", Value::U64(msg.dst as u64)),
                    ("backend", Value::Str(backend.to_string())),
                ],
            );
        }
        let depart = self.clock + latency;
        self.apply_forward(dev, fwd, depart, wire);
    }

    fn apply_forward(&mut self, dev: u32, fwd: Forward, at: u64, mut bytes: Vec<u8>) {
        match fwd {
            Forward::Drop => {
                self.stats.kernel_drops += 1;
                self.count(dev).dropped += 1;
            }
            Forward::ToHost(h) => self.transmit(dev, NodeId::Host(h as u32), at, bytes),
            Forward::ToDevice(d) => self.transmit(dev, NodeId::Device(d), at, bytes),
            Forward::Multicast(gid) => {
                let members = self.routes.core.groups.get(gid as usize).map_or(0, Vec::len);
                for k in 0..members {
                    let m = self.routes.core.groups[gid as usize][k];
                    // The last member's copy is the buffer itself.
                    let last = k + 1 == members;
                    let mut copy = if last { std::mem::take(&mut bytes) } else { bytes.clone() };
                    // A device member of the group becomes the computing
                    // target of its copy (P4xos: the leader multicasts
                    // phase-2A to the acceptor set).
                    if let NodeId::Device(d) = m {
                        if let Ok(mut msg) = Message::read_header(&copy) {
                            msg.to = d;
                            msg.write_header_into(&mut copy[..netcl_runtime::NCL_HEADER_BYTES]);
                        }
                    }
                    self.transmit(dev, m, at, copy);
                }
            }
            Forward::Recirculate => unreachable!("handled in device_receive"),
        }
    }

    /// A message lands at a host and is counted: a sink moves it into its
    /// log, a handler borrows it for the call, after which it is dropped —
    /// one buffer, never copied.
    pub(super) fn host_receive(&mut self, host: u32, bytes: Vec<u8>) {
        let (here, now) = (self.slots[host as usize].id, self.clock);
        self.stats.delivered += 1;
        self.count(host).delivered += 1;
        self.trace_instant("deliver", here, now);
        match &mut self.slots[host as usize].host {
            Some(HostNode::Sink(log)) => log.push((now, bytes)),
            Some(HostNode::Handler(_)) => {
                self.host_handle(host, HostEvent::Message(&bytes), HOST_PROCESS_NS)
            }
            None => {}
        }
    }

    /// Runs the host's handler (if any) on `ev`; what it sends and arms
    /// goes out `delay` after now, through the network's one [`Outbox`].
    pub(super) fn host_handle(&mut self, host: u32, ev: HostEvent<'_>, delay: u64) {
        let now = self.clock;
        let Some(HostNode::Handler(handler)) = &mut self.slots[host as usize].host else {
            return;
        };
        handler(now, ev, &mut self.outbox);
        // Saturating: a delay past the end of time lands at `u64::MAX`, in no
        // horizon, instead of wrapping into the past.
        let at = |delay_ns: u64| now.saturating_add(delay).saturating_add(delay_ns);
        let mut outbox = std::mem::take(&mut self.outbox);
        for (delay_ns, bytes) in outbox.sends.drain(..) {
            self.push_from(host, at(delay_ns), EventKind::HostSend(host, bytes));
        }
        for (delay_ns, token) in outbox.timers.drain(..) {
            self.push_from(host, at(delay_ns), EventKind::Timer(host, token));
        }
        self.outbox = outbox;
    }
}
