//! P4xos — in-network Paxos \[20\] (paper Fig. 11, §VII).
//!
//! Three kernels of one computation at three locations: the **leader**
//! sequences client requests into instances (phase 2A), **acceptors** vote
//! (phase 2B), and the **learner** counts votes and delivers on majority.
//! The kernels follow Fig. 11's memory placement: `Instance` at the leader,
//! `VRound` at acceptors, `VoteHistory` at learners, and `Round`/`Value`
//! at both acceptors and learners. Acceptors are written SPMD-style — the
//! same kernel at every acceptor device derives its vote bit from
//! `device.id` (§V-C), which the compiler materializes per device.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;
use std::sync::{Arc, Mutex};

use netcl::CompiledDevice;
use netcl_bmv2::Switch;
use netcl_net::{HostEvent, LinkSpec, NodeId, Outbox, Topology};
use netcl_runtime::message::{pack, unpack, Message};
use netcl_runtime::reliable::{Reliable, RetryPolicy};
use netcl_sema::model::Specification;

use crate::{Conditions, Run, L2_FWD, PRELUDE};

/// Leader device id.
pub const LEADER_DEV: u16 = 1;
/// First acceptor device id (acceptors are consecutive).
pub const ACCEPTOR_DEV: u16 = 2;
/// Number of acceptors.
pub const NUM_ACCEPTORS: u16 = 3;
/// Learner device id.
pub const LEARNER_DEV: u16 = 5;
/// Multicast group id for the acceptor set.
pub const ACCEPTOR_GROUP: u16 = 43;
/// Paxos instance slots (power of two).
pub const NUM_INSTANCES: u32 = 1024;

/// Message types.
pub const T_REQUEST: u64 = 1;
/// Phase 2A (leader → acceptors).
pub const T_PHASE2A: u64 = 2;
/// Phase 2B (acceptor → learner).
pub const T_PHASE2B: u64 = 3;
/// Delivery (learner → replica host).
pub(crate) const T_DELIVER: u64 = 4;
/// Host-level delivery acknowledgment (replica host → proposer host; pure
/// transit, no device computes it).
pub(crate) const T_ACK: u64 = 5;

fn majority_cond(var: &str) -> String {
    // ≥2 of 3 vote bits set.
    format!("({var} == 3 || {var} == 5 || {var} == 6 || {var} == 7)")
}

/// The complete multi-device NetCL source (all three kernels, Fig. 11).
pub fn full_source() -> String {
    let maj_new = majority_cond("hist");
    let maj_old = majority_cond("count");
    format!(
        r#"#define LEADER 1
#define ACC0 2
#define ACC1 3
#define ACC2 4
#define LEARNER 5
#define NINST {ninst}
#define MASK (NINST - 1)

_at(LEADER) _net_ uint32_t Instance;
_at(LEARNER) _net_ uint8_t VoteHistory[NINST];
_at(ACC0, ACC1, ACC2) _net_ uint16_t VRound[NINST];
_at(ACC0, ACC1, ACC2, LEARNER) _net_ uint16_t Round[NINST];
_at(ACC0, ACC1, ACC2, LEARNER) _net_ uint32_t Value[8][NINST];

_kernel(1) _at(LEADER) void leader(uint8_t &type, uint32_t &instance,
    uint16_t round, uint16_t &vround, uint8_t &vote, uint32_t v[8]) {{
  if (type == 1) {{
    instance = ncl::atomic_inc_new(&Instance);
    type = 2;
    return ncl::multicast(43);
  }}
  return ncl::pass();
}}

_kernel(1) _at(ACC0, ACC1, ACC2) void acceptor(uint8_t &type, uint32_t &instance,
    uint16_t round, uint16_t &vround, uint8_t &vote, uint32_t v[8]) {{
  if (type == 2) {{
    uint16_t r = ncl::atomic_max_new(&Round[instance & MASK], round);
    if (round >= r) {{
      ncl::atomic_swap(&VRound[instance & MASK], round);
      for (auto i = 0; i < 8; ++i)
        ncl::atomic_swap(&Value[i][instance & MASK], v[i]);
      type = 3;
      vround = round;
      vote = 1 << (device.id - ACC0);
      return ncl::send_to_device(LEARNER);
    }}
    return ncl::drop();
  }}
  return ncl::pass();
}}

_kernel(1) _at(LEARNER) void learner(uint8_t &type, uint32_t &instance,
    uint16_t round, uint16_t &vround, uint8_t &vote, uint32_t v[8]) {{
  if (type == 3) {{
    uint16_t r = ncl::atomic_max_new(&Round[instance & MASK], round);
    if (round >= r) {{
      uint8_t count = ncl::atomic_or(&VoteHistory[instance & MASK], vote);
      uint8_t hist = count | vote;
      if ({maj_new}) {{
        if ({maj_old}) {{
          return ncl::drop();
        }}
        for (auto i = 0; i < 8; ++i)
          ncl::atomic_swap(&Value[i][instance & MASK], v[i]);
        type = 4;
        return ncl::pass();
      }}
      return ncl::drop();
    }}
    return ncl::drop();
  }}
  return ncl::pass();
}}
"#,
        ninst = NUM_INSTANCES,
    )
}

/// Single-kernel sources for the Table III per-kernel rows.
pub fn leader_source() -> String {
    extract_kernel(&full_source(), "leader", &["Instance"])
}
/// Acceptor-only source.
pub fn acceptor_source() -> String {
    extract_kernel(&full_source(), "acceptor", &["VRound", "Round", "Value"])
}
/// Learner-only source.
pub fn learner_source() -> String {
    extract_kernel(&full_source(), "learner", &["VoteHistory", "Round", "Value"])
}

/// Slices one kernel (plus the memory it references) out of the combined
/// source for standalone measurement.
fn extract_kernel(full: &str, kernel: &str, memories: &[&str]) -> String {
    let mut out = String::new();
    for line in full.lines() {
        if line.starts_with("#define") {
            out.push_str(line);
            out.push('\n');
        }
    }
    for mem in memories {
        for line in full.lines() {
            if line.contains(&format!(" {mem}[")) || line.contains(&format!(" {mem};")) {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    // The kernel body runs from its `_kernel` line to the closing brace at
    // column 0.
    let mut in_kernel = false;
    for line in full.lines() {
        if line.starts_with("_kernel") && line.contains(&format!(" {kernel}(")) {
            in_kernel = true;
        }
        if in_kernel {
            out.push_str(line);
            out.push('\n');
            if line == "}}" || line == "}" {
                break;
            }
        }
    }
    out
}

/// Kernel specification (shared by all three kernels, §V-A).
pub fn spec() -> Specification {
    use netcl_sema::model::SpecItem;
    use netcl_sema::Ty;
    Specification {
        items: vec![
            SpecItem { count: 1, ty: Ty::U8 },  // type
            SpecItem { count: 1, ty: Ty::U32 }, // instance
            SpecItem { count: 1, ty: Ty::U16 }, // round
            SpecItem { count: 1, ty: Ty::U16 }, // vround
            SpecItem { count: 1, ty: Ty::U8 },  // vote
            SpecItem { count: 8, ty: Ty::U32 }, // value
        ],
    }
}

/// The one [`spec`] the packet builders and handlers below share, instead
/// of building it per message.
fn shared_spec() -> &'static Specification {
    static SPEC: std::sync::OnceLock<Specification> = std::sync::OnceLock::new();
    SPEC.get_or_init(spec)
}

/// Builds a client proposal.
pub fn proposal(client: u16, replica: u16, round: u64, value: &[u64; 8]) -> Vec<u8> {
    let m = Message::new(client, replica, 1, LEADER_DEV);
    pack(
        &m,
        shared_spec(),
        &[
            Some(&[T_REQUEST]),
            Some(&[0]),
            Some(&[round]),
            Some(&[0]),
            Some(&[0]),
            Some(value.as_slice()),
        ],
    )
    .expect("packs")
}

/// Parses a delivered decision: `(instance, value)` if it is a delivery.
pub fn parse_delivery(bytes: &[u8]) -> Option<(u64, Vec<u64>)> {
    let mut ty = Vec::new();
    let mut inst = Vec::new();
    let mut val = Vec::new();
    unpack(
        bytes,
        shared_spec(),
        &mut [Some(&mut ty), Some(&mut inst), None, None, None, Some(&mut val)],
    )
    .ok()?;
    if ty[0] == T_DELIVER {
        Some((inst[0], val))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// End-to-end driver: reliable proposer + acking replica
// ---------------------------------------------------------------------------

/// The paper's P4xos topology (h1 — leader — {acceptors} — learner — h2)
/// with `link` on every edge, plus the acceptor multicast group.
fn topology(link: LinkSpec) -> Topology {
    let mut topo = Topology::new();
    topo.link(NodeId::Host(1), NodeId::Device(LEADER_DEV), link);
    for a in 0..NUM_ACCEPTORS {
        topo.link(NodeId::Device(LEADER_DEV), NodeId::Device(ACCEPTOR_DEV + a), link);
        topo.link(NodeId::Device(ACCEPTOR_DEV + a), NodeId::Device(LEARNER_DEV), link);
    }
    topo.link(NodeId::Device(LEARNER_DEV), NodeId::Host(2), link);
    topo.multicast_group(
        ACCEPTOR_GROUP,
        (0..NUM_ACCEPTORS).map(|a| NodeId::Device(ACCEPTOR_DEV + a)).collect(),
    );
    topo
}

/// The proposal value for proposal id `pid`: `value[1]` carries the pid so
/// deliveries and acks can be correlated end to end.
fn proposal_value(pid: u64) -> [u64; 8] {
    [pid * 10, pid, 0, 0, 0, 0, 0, 7]
}

/// The replica's delivery ack, routed back as plain transit (no computing
/// device), carrying the pid in `value[1]`.
fn ack_packet(replica: u16, proposer: u16, pid: u64) -> Vec<u8> {
    let m = Message::new(replica, proposer, 1, netcl_runtime::device::NO_DEVICE);
    let value = proposal_value(pid);
    pack(
        &m,
        shared_spec(),
        &[Some(&[T_ACK]), Some(&[0]), Some(&[0]), Some(&[0]), Some(&[0]), Some(&value)],
    )
    .expect("packs")
}

/// Result of a consensus run.
#[derive(Debug)]
pub struct PaxosRunResult {
    /// Proposals issued.
    pub proposals: u64,
    /// Distinct proposal ids delivered at least once.
    pub decided: u64,
    /// Instances delivered with more than one distinct value — the safety
    /// violation count; must be 0.
    pub conflicts: u64,
}

/// Runs `proposals` proposals through the full P4xos pipeline, each device
/// of `devices` running its TNA program. The proposer retransmits unacked
/// proposals via the shared reliability helper (each retransmission
/// becomes a *new* Paxos instance — the leader sequences every request —
/// so instance-level safety is unaffected by duplication).
pub fn run_paxos(
    devices: &[CompiledDevice],
    proposals: u64,
    c: &Conditions,
) -> Run<PaxosRunResult> {
    let mut builder = c.network(topology(c.link));
    for d in devices {
        builder = builder.device(d.device, Switch::new(d.tna_p4.clone()), 600);
    }

    // Replica (host 2): record deliveries per instance, ack every copy (a
    // duplicate delivery re-acks, which only helps the ack get through).
    let deliveries = Arc::new(Mutex::new(BTreeMap::<u64, Vec<Vec<u64>>>::new()));
    let dels = deliveries.clone();
    let replica = Box::new(move |_now: u64, ev: HostEvent, out: &mut Outbox| {
        let HostEvent::Message(bytes) = ev else { return };
        let Some((inst, val)) = parse_delivery(bytes) else { return };
        let pid = val[1];
        dels.lock().unwrap().entry(inst).or_default().push(val);
        out.send(0, ack_packet(2, 1, pid));
    });

    // Proposer (host 1): kickoff timers carry the pid; unacked proposals
    // retransmit with backoff.
    let mut rel = Reliable::new(RetryPolicy { base_rto_ns: 300_000, ..Default::default() });
    let (mut ty, mut val) = (Vec::new(), Vec::new());
    let proposer = Box::new(move |_now: u64, ev: HostEvent, out: &mut Outbox| match ev {
        HostEvent::Message(bytes) => {
            let Ok(_) = unpack(
                bytes,
                shared_spec(),
                &mut [Some(&mut ty), None, None, None, None, Some(&mut val)],
            ) else {
                return;
            };
            if ty[0] == T_ACK {
                rel.ack_key(val[1]);
            }
        }
        HostEvent::Timer(token) => {
            if !rel.on_timer(token, out) {
                let pid = token;
                rel.send(pid, &proposal(1, 2, 1, &proposal_value(pid)), out);
            }
        }
    });

    let mut net = builder.host(1, proposer).host(2, replica).build();
    for pid in 0..proposals {
        net.set_host_timer(1, pid * 20_000, pid);
    }
    net.run(c.max_events);

    let dels = deliveries.lock().unwrap();
    let decided: BTreeSet<u64> = dels.values().flatten().map(|v| v[1]).collect();
    let conflicts = dels.values().filter(|vals| vals.iter().any(|v| *v != vals[0])).count();
    let result =
        PaxosRunResult { proposals, decided: decided.len() as u64, conflicts: conflicts as u64 };
    Run::of(result, &mut net)
}

// ---------------------------------------------------------------------------
// Handwritten P4 baselines (one per kernel, as the paper's Table III rows)
// ---------------------------------------------------------------------------

/// The text the three roles share: the includes, the headers and the
/// parser, up to the control's first member.
fn role_head() -> String {
    format!(
        r#"{PRELUDE}header args_c1_t {{
    bit<8> a0_type;
    bit<32> a1_instance;
    bit<16> a2_round;
    bit<16> a3_vround;
    bit<8> a4_vote;
}}

header arr_c1_a5_t {{
    bit<32> value;
}}

struct headers_t {{
    ncl_t ncl;
    args_c1_t args_c1;
    arr_c1_a5_t[8] arr_c1_a5;
}}

parser IgParser(packet_in pkt, out headers_t hdr) {{
    state start {{
        pkt.extract(hdr.ncl);
        transition select(hdr.ncl.comp) {{
            1: parse_paxos;
            default: accept;
        }}
    }}
    state parse_paxos {{
        pkt.extract(hdr.args_c1);
        pkt.extract(hdr.arr_c1_a5);
        transition accept;
    }}
}}

control Ig(inout headers_t hdr, inout metadata_t meta) {{
"#
    )
}

/// `hdr.args_c1.a1_instance` as an index into the instance registers.
fn instance() -> String {
    format!("(hdr.args_c1.a1_instance & 32w{})", NUM_INSTANCES - 1)
}

/// The eight value words an acceptor and a learner keep: their registers,
/// their RegisterActions, and the calls storing a message's value, each
/// indented by `calls_indent`.
fn value_words(calls_indent: &str) -> [String; 3] {
    let (mut registers, mut actions, mut calls) = (String::new(), String::new(), String::new());
    let inst = instance();
    for i in 0..8 {
        let _ = writeln!(registers, "    Register<bit<32>, bit<32>>({NUM_INSTANCES}) ValueR{i};");
        let _ = write!(
            actions,
            r#"    RegisterAction<bit<32>, bit<32>, bit<32>>(ValueR{i}) value_store{i} = {{
        void apply(inout bit<32> m, out bit<32> o) {{
            o = m;
            m = hdr.arr_c1_a5[{i}].value;
        }}
    }};
"#
        );
        let _ = writeln!(calls, "{calls_indent}value_store{i}.execute({inst});");
    }
    [registers, actions, calls]
}

/// The handwritten leader (PLDR).
pub(crate) fn handwritten_leader_source() -> String {
    format!(
        r#"{head}    Register<bit<32>, bit<32>>(1) InstanceR;
    RegisterAction<bit<32>, bit<32>, bit<32>>(InstanceR) next_instance = {{
        void apply(inout bit<32> m, out bit<32> o) {{
            m = m + 1;
            o = m;
        }}
    }};
{L2_FWD}    apply {{
        if ((hdr.ncl.isValid() && (hdr.ncl.to == 16w{LEADER_DEV}))) {{
            if ((hdr.args_c1.a0_type == 8w{T_REQUEST})) {{
                hdr.args_c1.a1_instance = next_instance.execute(32w0);
                hdr.args_c1.a0_type = 8w{T_PHASE2A};
                hdr.ncl.action = 8w4;
                hdr.ncl.target = 16w{ACCEPTOR_GROUP};
            }}
        }}
        l2_fwd.apply();
    }}
}}

"#,
        head = role_head(),
    )
}

/// The handwritten acceptor (PACC), at the first acceptor position: its
/// vote bit is 1.
pub(crate) fn handwritten_acceptor_source() -> String {
    let [registers, actions, stores] = value_words(&" ".repeat(20));
    format!(
        r#"{head}    bit<16> rmax;
    Register<bit<16>, bit<32>>({NUM_INSTANCES}) RoundR;
    Register<bit<16>, bit<32>>({NUM_INSTANCES}) VRoundR;
{registers}    RegisterAction<bit<16>, bit<32>, bit<16>>(RoundR) round_max = {{
        void apply(inout bit<16> m, out bit<16> o) {{
            m = max(m, hdr.args_c1.a2_round);
            o = m;
        }}
    }};
    RegisterAction<bit<16>, bit<32>, bit<16>>(VRoundR) vround_store = {{
        void apply(inout bit<16> m, out bit<16> o) {{
            o = m;
            m = hdr.args_c1.a2_round;
        }}
    }};
{actions}{L2_FWD}    apply {{
        if ((hdr.ncl.isValid() && (hdr.ncl.to == 16w{ACCEPTOR_DEV}))) {{
            if ((hdr.args_c1.a0_type == 8w{T_PHASE2A})) {{
                meta.rmax = round_max.execute({inst});
                if ((hdr.args_c1.a2_round >= meta.rmax)) {{
                    vround_store.execute({inst});
{stores}                    hdr.args_c1.a0_type = 8w{T_PHASE2B};
                    hdr.args_c1.a3_vround = hdr.args_c1.a2_round;
                    hdr.args_c1.a4_vote = 8w1;
                    hdr.ncl.action = 8w3;
                    hdr.ncl.target = 16w{LEARNER_DEV};
                }} else {{
                    hdr.ncl.action = 8w1;
                }}
            }}
        }}
        l2_fwd.apply();
    }}
}}

"#,
        head = role_head(),
        inst = instance(),
    )
}

/// The handwritten learner (PLRN): it counts votes with a majority
/// MAT over the vote bitmap, the membership idiom P4 programmers reach for.
/// A vote is dropped unless it is the one that takes the bitmap from no
/// majority into one, which delivers the value.
pub(crate) fn handwritten_learner_source() -> String {
    let [registers, actions, stores] = value_words(&" ".repeat(28));
    format!(
        r#"{head}    bit<16> rmax;
    bit<8> count;
    bit<8> hist;
    Register<bit<16>, bit<32>>({NUM_INSTANCES}) RoundR;
    Register<bit<8>, bit<32>>({NUM_INSTANCES}) HistoryR;
{registers}    RegisterAction<bit<16>, bit<32>, bit<16>>(RoundR) round_max = {{
        void apply(inout bit<16> m, out bit<16> o) {{
            m = max(m, hdr.args_c1.a2_round);
            o = m;
        }}
    }};
    RegisterAction<bit<8>, bit<32>, bit<8>>(HistoryR) vote_or = {{
        void apply(inout bit<8> m, out bit<8> o) {{
            o = m;
            m = m | hdr.args_c1.a4_vote;
        }}
    }};
{actions}    action mark_majority() {{
        meta.hist = 8w255;
    }}
    table majority {{
        key = {{ meta.count : exact }}
        actions = {{ mark_majority; NoAction; }}
        default_action = NoAction();
        const entries = {{
            3 : mark_majority();
            5 : mark_majority();
            6 : mark_majority();
            7 : mark_majority();
        }}
        size = 8;
    }}
{L2_FWD}    apply {{
        if ((hdr.ncl.isValid() && (hdr.ncl.to == 16w{LEARNER_DEV}))) {{
            if ((hdr.args_c1.a0_type == 8w{T_PHASE2B})) {{
                hdr.ncl.action = 8w1;
                meta.rmax = round_max.execute({inst});
                if ((hdr.args_c1.a2_round >= meta.rmax)) {{
                    meta.count = vote_or.execute({inst});
                    majority.apply();
                    if ((meta.hist == 8w0)) {{
                        meta.count = (meta.count | hdr.args_c1.a4_vote);
                        majority.apply();
                        if ((meta.hist == 8w255)) {{
{stores}                            hdr.args_c1.a0_type = 8w{T_DELIVER};
                            hdr.ncl.action = 8w0;
                        }}
                    }}
                }}
            }}
        }}
        l2_fwd.apply();
    }}
}}

"#,
        head = role_head(),
        inst = instance(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use netcl_net::NetworkBuilder;

    #[test]
    fn full_source_compiles_for_all_locations() {
        let unit = compile("paxos.ncl", &full_source());
        // Devices 1 (leader), 2-4 (acceptors), 5 (learner).
        assert_eq!(unit.devices.len(), 5);
        for dev in &unit.devices {
            let fit = netcl_tofino::fit(&dev.tna_p4)
                .unwrap_or_else(|e| panic!("device {}: {e}", dev.device));
            assert!(fit.stages_used <= 12);
        }
        // The three standalone kernels of Table III also compile.
        compile("pldr.ncl", &leader_source());
        compile("pacc.ncl", &acceptor_source());
        compile("plrn.ncl", &learner_source());
    }

    /// Full end-to-end consensus: client → leader → 3 acceptors → learner →
    /// replica; every proposal delivered exactly once with its value.
    #[test]
    fn consensus_delivers_each_instance_once() {
        let unit = compile("paxos.ncl", &full_source());
        let mut builder = NetworkBuilder::new(topology(LinkSpec::default()));
        for dev in &unit.devices {
            builder = builder.device(dev.device, Switch::new(dev.tna_p4.clone()), 600);
        }
        let mut net = builder.sink_host(1).sink_host(2).build();

        let proposals = 5u64;
        for p in 0..proposals {
            let value = [p * 10, p * 10 + 1, 0, 0, 0, 0, 0, 7];
            net.send_from_host(1, p * 100_000, proposal(1, 2, 1, &value));
        }
        net.run(1_000_000);

        let delivered: Vec<(u64, Vec<u64>)> =
            net.host_received(2).iter().filter_map(|(_, bytes)| parse_delivery(bytes)).collect();
        assert_eq!(delivered.len(), proposals as usize, "one delivery per proposal");
        let mut instances: Vec<u64> = delivered.iter().map(|(i, _)| *i).collect();
        instances.sort_unstable();
        instances.dedup();
        assert_eq!(instances.len(), proposals as usize, "instances unique");
        for (inst, val) in &delivered {
            let p = (inst - 1) * 10; // instances start at 1 (inc_new)
            assert_eq!(val[0], p, "value for instance {inst}");
            assert_eq!(val[7], 7);
        }
    }

    /// A stale round is rejected by acceptors.
    #[test]
    fn acceptor_rejects_stale_round() {
        let unit = compile("pacc.ncl", &acceptor_source());
        let dev = unit.device(ACCEPTOR_DEV).unwrap();
        let mut sw = Switch::new(dev.tna_p4.clone());
        let mk = |round: u64, instance: u64| {
            let m = Message::new(1, 2, 1, ACCEPTOR_DEV);
            pack(
                &spec_msg(&m),
                &spec(),
                &[
                    Some(&[T_PHASE2A]),
                    Some(&[instance]),
                    Some(&[round]),
                    Some(&[0]),
                    Some(&[0]),
                    Some(&[1, 2, 3, 4, 5, 6, 7, 8]),
                ],
            )
            .unwrap()
        };
        fn spec_msg(m: &Message) -> Message {
            *m
        }
        let (pkt, _) = sw.process(&mk(5, 1)).unwrap();
        assert_eq!(pkt.get("ncl.action"), 3, "fresh round accepted → send_to_device");
        let (pkt, _) = sw.process(&mk(3, 1)).unwrap();
        assert_eq!(pkt.get("ncl.action"), 1, "stale round dropped");
        let (pkt, _) = sw.process(&mk(5, 1)).unwrap();
        assert_eq!(pkt.get("ncl.action"), 3, "equal round still accepted");
    }

    #[test]
    fn handwritten_kernels_fit() {
        for app in crate::all_apps().into_iter().filter(|app| app.name.starts_with('P')) {
            let p = app.handwritten;
            let fit = netcl_tofino::fit(&p).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(fit.stages_used <= 12, "{}", p.name);
        }
    }
}
