//! The NetCL device runtime: action → forwarding semantics (Table II, §IV).
//!
//! After a kernel executes, the runtime reads the action it selected and
//! updates the header 4-tuple; the base program (here, the network layer)
//! then moves the message. The rules implemented:
//!
//! * `pass()` — continue toward the original destination host `dst`.
//! * `drop()` — the message exits the network immediately.
//! * `send_to_host(h)` / `send_to_device(d)` — retarget; per the
//!   no-implicit-computation rule, intermediate devices treat the message
//!   as a no-op until it reaches the target (`to` names the computing
//!   device; a message heading to a host has `to = NO_DEVICE`).
//! * `multicast(gid)` — replicate to a neighbor group (resolved by the
//!   network layer).
//! * `reflect()` — back to the previous hop: the last computing device if
//!   any, else the source host (§IV).
//! * `repeat()` — execute the kernel again on this device (recirculation).
//! * `reflect_host()` — back to the source host.
//!
//! A computing device stamps itself into `from` on every outgoing message,
//! maintaining the previous-hop invariant.

use crate::message::Message;
use netcl_sema::builtins::ActionKind;

/// `from` value of a message no device has computed on yet.
pub const NO_DEVICE: u16 = 0xFFFF;

/// Where the network layer should move a message next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Forward {
    /// Remove from the network.
    Drop,
    /// Deliver to (or route toward) a host.
    ToHost(u16),
    /// Route toward a device (which will compute: `to` is set to it).
    ToDevice(u16),
    /// Replicate to multicast group `gid`.
    Multicast(u16),
    /// Re-execute the kernel on this device before forwarding.
    Recirculate,
}

/// The device-runtime decision logic.
#[derive(Clone, Copy, Debug)]
pub struct DeviceRuntime {
    /// This device's id.
    pub(crate) device: u16,
}

impl DeviceRuntime {
    /// Creates the runtime for a device.
    pub fn new(device: u16) -> DeviceRuntime {
        DeviceRuntime { device }
    }

    /// Whether this device should execute a kernel for `msg` (the
    /// no-implicit-computation rule: only the `to` device computes).
    pub fn should_compute(&self, msg: &Message) -> bool {
        msg.to == self.device
    }

    /// Applies a kernel's selected action, updating the header and deciding
    /// the next hop. `action`/`target` come from the executed program.
    pub fn forward(&self, msg: &mut Message, action: ActionKind, target: u16) -> Forward {
        let prev_from = msg.from;
        // Every outgoing message records this device as the previous hop.
        msg.from = self.device;
        match action {
            ActionKind::Drop => Forward::Drop,
            ActionKind::Pass => {
                msg.to = NO_DEVICE;
                Forward::ToHost(msg.dst)
            }
            ActionKind::SendToHost => {
                msg.to = NO_DEVICE;
                Forward::ToHost(target)
            }
            ActionKind::SendToDevice => {
                msg.to = target;
                Forward::ToDevice(target)
            }
            ActionKind::Multicast => Forward::Multicast(target),
            ActionKind::Reflect => {
                if prev_from == NO_DEVICE {
                    msg.to = NO_DEVICE;
                    Forward::ToHost(msg.src)
                } else {
                    msg.to = prev_from;
                    Forward::ToDevice(prev_from)
                }
            }
            ActionKind::ReflectHost => {
                msg.to = NO_DEVICE;
                Forward::ToHost(msg.src)
            }
            ActionKind::Repeat => {
                msg.from = prev_from; // recirculation is not a hop
                Forward::Recirculate
            }
        }
    }

    /// Forwarding for messages this device does *not* compute on (transit):
    /// continue toward the computing device, or the destination host.
    pub fn transit(&self, msg: &Message) -> Forward {
        if msg.to != NO_DEVICE {
            Forward::ToDevice(msg.to)
        } else {
            Forward::ToHost(msg.dst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message::new(1, 4, 2, 2) // send_{1→4}(comp 2, dev 2)
    }

    #[test]
    fn no_implicit_computation() {
        let rt2 = DeviceRuntime::new(2);
        let rt3 = DeviceRuntime::new(3);
        let m = msg();
        assert!(rt2.should_compute(&m));
        assert!(!rt3.should_compute(&m));
        // Transit at dev3 routes toward dev2.
        assert_eq!(rt3.transit(&m), Forward::ToDevice(2));
    }

    #[test]
    fn pass_continues_to_destination() {
        let rt = DeviceRuntime::new(2);
        let mut m = msg();
        let f = rt.forward(&mut m, ActionKind::Pass, 0);
        assert_eq!(f, Forward::ToHost(4));
        assert_eq!(m.from, 2, "device stamped as previous hop");
        assert_eq!(m.to, NO_DEVICE);
    }

    #[test]
    fn reflect_to_source_host_on_first_device() {
        let rt = DeviceRuntime::new(2);
        let mut m = msg(); // from = NO_DEVICE
        let f = rt.forward(&mut m, ActionKind::Reflect, 0);
        assert_eq!(f, Forward::ToHost(1), "previous hop is the source host (§IV)");
    }

    #[test]
    fn reflect_to_previous_device() {
        // Fig. 5: message went h1 → dev2 (computed) → dev3; reflect at dev3
        // goes back to dev2.
        let rt3 = DeviceRuntime::new(3);
        let mut m = msg();
        m.from = 2;
        m.to = 3;
        let f = rt3.forward(&mut m, ActionKind::Reflect, 0);
        assert_eq!(f, Forward::ToDevice(2));
        assert_eq!(m.to, 2);
        assert_eq!(m.from, 3);
    }

    #[test]
    fn send_to_device_chains_computation() {
        // Fig. 5 circle computation: dev2 forwards to dev3, which computes.
        let rt2 = DeviceRuntime::new(2);
        let mut m = msg();
        let f = rt2.forward(&mut m, ActionKind::SendToDevice, 3);
        assert_eq!(f, Forward::ToDevice(3));
        assert_eq!(m.to, 3);
        assert_eq!(m.from, 2);
        // The computation id is unchanged — a device "cannot request a
        // different computation from a subsequent device" (§IV).
        assert_eq!(m.comp, 2);
    }

    #[test]
    fn send_to_host_and_reflect_host() {
        let rt = DeviceRuntime::new(2);
        let mut m = msg();
        assert_eq!(rt.forward(&mut m, ActionKind::SendToHost, 9), Forward::ToHost(9));
        let mut m = msg();
        m.from = 7;
        assert_eq!(rt.forward(&mut m, ActionKind::ReflectHost, 0), Forward::ToHost(1));
    }

    #[test]
    fn repeat_recirculates_without_hop() {
        let rt = DeviceRuntime::new(2);
        let mut m = msg();
        m.from = 9;
        assert_eq!(rt.forward(&mut m, ActionKind::Repeat, 0), Forward::Recirculate);
        assert_eq!(m.from, 9, "recirculation preserves the previous hop");
    }

    #[test]
    fn drop_exits() {
        let rt = DeviceRuntime::new(2);
        let mut m = msg();
        assert_eq!(rt.forward(&mut m, ActionKind::Drop, 0), Forward::Drop);
    }
}
