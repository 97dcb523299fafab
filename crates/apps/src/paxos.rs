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
use std::sync::{Arc, Mutex};

use netcl::codegen::device_guard;
use netcl::CompiledDevice;
use netcl_bmv2::Switch;
use netcl_net::{HostEvent, LinkSpec, NodeId, Outbox, Topology};
use netcl_p4::ast::*;
use netcl_runtime::message::{pack, unpack, Message};
use netcl_runtime::reliable::{Reliable, RetryPolicy};
use netcl_sema::builtins::{AtomicOp, AtomicRmw};
use netcl_sema::model::Specification;

use crate::{Conditions, Run};

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
pub const T_DELIVER: u64 = 4;
/// Host-level delivery acknowledgment (replica host → proposer host; pure
/// transit, no device computes it).
pub const T_ACK: u64 = 5;

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
    /// Acks the proposer received (first acks, not duplicates).
    pub acked: u64,
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
    let acked = Arc::new(Mutex::new(0u64));
    let acked2 = acked.clone();
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
            if ty[0] == T_ACK && rel.ack_key(val[1]) {
                *acked2.lock().unwrap() += 1;
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
    let result = PaxosRunResult {
        proposals,
        decided: decided.len() as u64,
        conflicts: conflicts as u64,
        acked: *acked.lock().unwrap(),
    };
    Run::of(result, &mut net)
}

// ---------------------------------------------------------------------------
// Handwritten P4 baselines (one per kernel, as the paper's Table III rows)
// ---------------------------------------------------------------------------

fn common_headers() -> Vec<HeaderDef> {
    vec![
        netcl::codegen::ncl_header(),
        HeaderDef {
            name: "args_c1_t".into(),
            fields: vec![
                ("a0_type".into(), 8),
                ("a1_instance".into(), 32),
                ("a2_round".into(), 16),
                ("a3_vround".into(), 16),
                ("a4_vote".into(), 8),
            ],
            stack: 1,
        },
        HeaderDef { name: "arr_c1_a5_t".into(), fields: vec![("value".into(), 32)], stack: 8 },
    ]
}

fn common_parser() -> ParserDef {
    ParserDef {
        name: "IgParser".into(),
        states: vec![
            ParserState {
                name: "start".into(),
                extracts: vec!["hdr.ncl".into()],
                transition: Transition::Select {
                    selector: Expr::field(&["hdr", "ncl", "comp"]),
                    cases: vec![(1, "parse_paxos".into())],
                    default: "accept".into(),
                },
            },
            ParserState {
                name: "parse_paxos".into(),
                extracts: vec!["hdr.args_c1".into(), "hdr.arr_c1_a5".into()],
                transition: Transition::Accept,
            },
        ],
    }
}

fn guard(dev: u16, body: Vec<Stmt>) -> Vec<Stmt> {
    vec![
        Stmt::If { cond: device_guard(dev), then: body, els: vec![] },
        Stmt::ApplyTable("l2_fwd".into()),
    ]
}

fn l2() -> TableDef {
    TableDef {
        name: "l2_fwd".into(),
        keys: vec![(Expr::field(&["hdr", "ncl", "dst"]), MatchKind::Exact)],
        actions: vec![],
        entries: vec![],
        default_action: "NoAction".into(),
        size: 64,
    }
}

/// Handwritten leader (PLDR).
pub fn handwritten_leader() -> P4Program {
    let mut c = ControlDef { name: "Ig".into(), ..Default::default() };
    c.registers.push(RegisterDef { name: "InstanceR".into(), elem_bits: 32, size: 1 });
    c.register_actions.push(RegisterActionDef {
        name: "next_instance".into(),
        register: "InstanceR".into(),
        op: AtomicOp { rmw: AtomicRmw::Inc, cond: false, ret_new: true },
        cond: None,
        operands: vec![],
    });
    c.tables.push(l2());
    let body = vec![Stmt::If {
        cond: Expr::Bin(
            P4BinOp::Eq,
            Box::new(Expr::field(&["hdr", "args_c1", "a0_type"])),
            Box::new(Expr::Const(T_REQUEST, 8)),
        ),
        then: vec![
            Stmt::ExecuteRegisterAction {
                dst: Some(Expr::field(&["hdr", "args_c1", "a1_instance"])),
                ra: "next_instance".into(),
                index: Expr::Const(0, 32),
            },
            Stmt::Assign(Expr::field(&["hdr", "args_c1", "a0_type"]), Expr::Const(T_PHASE2A, 8)),
            Stmt::Assign(Expr::field(&["hdr", "ncl", "action"]), Expr::Const(4, 8)),
            Stmt::Assign(
                Expr::field(&["hdr", "ncl", "target"]),
                Expr::Const(ACCEPTOR_GROUP as u64, 16),
            ),
        ],
        els: vec![],
    }];
    c.apply = guard(LEADER_DEV, body);
    P4Program {
        name: "pldr_handwritten".into(),
        target: Target::Tna,
        headers: common_headers().into(),
        parser: Some(common_parser().into()),
        controls: vec![c].into(),
    }
}

/// Handwritten acceptor (PACC) for acceptor index `acc` (vote bit `1<<acc`).
pub fn handwritten_acceptor_at(acc: u16) -> P4Program {
    let mask = (NUM_INSTANCES - 1) as u64;
    let inst = Expr::Bin(
        P4BinOp::And,
        Box::new(Expr::field(&["hdr", "args_c1", "a1_instance"])),
        Box::new(Expr::Const(mask, 32)),
    );
    let mut c = ControlDef { name: "Ig".into(), ..Default::default() };
    c.locals.push(("rmax".into(), 16));
    c.registers.push(RegisterDef { name: "RoundR".into(), elem_bits: 16, size: NUM_INSTANCES });
    c.registers.push(RegisterDef { name: "VRoundR".into(), elem_bits: 16, size: NUM_INSTANCES });
    c.register_actions.push(RegisterActionDef {
        name: "round_max".into(),
        register: "RoundR".into(),
        op: AtomicOp { rmw: AtomicRmw::Max, cond: false, ret_new: true },
        cond: None,
        operands: vec![Expr::field(&["hdr", "args_c1", "a2_round"])],
    });
    c.register_actions.push(RegisterActionDef {
        name: "vround_store".into(),
        register: "VRoundR".into(),
        op: AtomicOp { rmw: AtomicRmw::Swap, cond: false, ret_new: false },
        cond: None,
        operands: vec![Expr::field(&["hdr", "args_c1", "a2_round"])],
    });
    for i in 0..8u32 {
        c.registers.push(RegisterDef {
            name: format!("ValueR{i}").into(),
            elem_bits: 32,
            size: NUM_INSTANCES,
        });
        c.register_actions.push(RegisterActionDef {
            name: format!("value_store{i}").into(),
            register: format!("ValueR{i}").into(),
            op: AtomicOp { rmw: AtomicRmw::Swap, cond: false, ret_new: false },
            cond: None,
            operands: vec![Expr::field(&["hdr", &format!("arr_c1_a5[{i}]"), "value"])],
        });
    }
    c.tables.push(l2());
    let mut accept = vec![Stmt::ExecuteRegisterAction {
        dst: None,
        ra: "vround_store".into(),
        index: inst.clone(),
    }];
    for i in 0..8 {
        accept.push(Stmt::ExecuteRegisterAction {
            dst: None,
            ra: format!("value_store{i}").into(),
            index: inst.clone(),
        });
    }
    accept.extend([
        Stmt::Assign(Expr::field(&["hdr", "args_c1", "a0_type"]), Expr::Const(T_PHASE2B, 8)),
        Stmt::Assign(
            Expr::field(&["hdr", "args_c1", "a3_vround"]),
            Expr::field(&["hdr", "args_c1", "a2_round"]),
        ),
        Stmt::Assign(Expr::field(&["hdr", "args_c1", "a4_vote"]), Expr::Const(1 << acc, 8)),
        Stmt::Assign(Expr::field(&["hdr", "ncl", "action"]), Expr::Const(3, 8)),
        Stmt::Assign(Expr::field(&["hdr", "ncl", "target"]), Expr::Const(LEARNER_DEV as u64, 16)),
    ]);
    let body = vec![Stmt::If {
        cond: Expr::Bin(
            P4BinOp::Eq,
            Box::new(Expr::field(&["hdr", "args_c1", "a0_type"])),
            Box::new(Expr::Const(T_PHASE2A, 8)),
        ),
        then: vec![
            Stmt::ExecuteRegisterAction {
                dst: Some(Expr::field(&["meta", "rmax"])),
                ra: "round_max".into(),
                index: inst,
            },
            Stmt::If {
                cond: Expr::Bin(
                    P4BinOp::Ge,
                    Box::new(Expr::field(&["hdr", "args_c1", "a2_round"])),
                    Box::new(Expr::field(&["meta", "rmax"])),
                ),
                then: accept,
                els: vec![Stmt::Assign(Expr::field(&["hdr", "ncl", "action"]), Expr::Const(1, 8))],
            },
        ],
        els: vec![],
    }];
    c.apply = guard(ACCEPTOR_DEV + acc, body);
    P4Program {
        name: "pacc_handwritten".into(),
        target: Target::Tna,
        headers: common_headers().into(),
        parser: Some(common_parser().into()),
        controls: vec![c].into(),
    }
}

/// Handwritten acceptor at the first acceptor position.
pub fn handwritten_acceptor() -> P4Program {
    handwritten_acceptor_at(0)
}

/// Handwritten learner (PLRN).
pub fn handwritten_learner() -> P4Program {
    let mask = (NUM_INSTANCES - 1) as u64;
    let inst = Expr::Bin(
        P4BinOp::And,
        Box::new(Expr::field(&["hdr", "args_c1", "a1_instance"])),
        Box::new(Expr::Const(mask, 32)),
    );
    let mut c = ControlDef { name: "Ig".into(), ..Default::default() };
    c.locals.extend([("rmax".into(), 16), ("count".into(), 8), ("hist".into(), 8)]);
    c.registers.push(RegisterDef { name: "RoundR".into(), elem_bits: 16, size: NUM_INSTANCES });
    c.registers.push(RegisterDef { name: "HistoryR".into(), elem_bits: 8, size: NUM_INSTANCES });
    c.register_actions.push(RegisterActionDef {
        name: "round_max".into(),
        register: "RoundR".into(),
        op: AtomicOp { rmw: AtomicRmw::Max, cond: false, ret_new: true },
        cond: None,
        operands: vec![Expr::field(&["hdr", "args_c1", "a2_round"])],
    });
    c.register_actions.push(RegisterActionDef {
        name: "vote_or".into(),
        register: "HistoryR".into(),
        op: AtomicOp { rmw: AtomicRmw::Or, cond: false, ret_new: false },
        cond: None,
        operands: vec![Expr::field(&["hdr", "args_c1", "a4_vote"])],
    });
    for i in 0..8u32 {
        c.registers.push(RegisterDef {
            name: format!("ValueR{i}").into(),
            elem_bits: 32,
            size: NUM_INSTANCES,
        });
        c.register_actions.push(RegisterActionDef {
            name: format!("value_store{i}").into(),
            register: format!("ValueR{i}").into(),
            op: AtomicOp { rmw: AtomicRmw::Swap, cond: false, ret_new: false },
            cond: None,
            operands: vec![Expr::field(&["hdr", &format!("arr_c1_a5[{i}]"), "value"])],
        });
    }
    // The handwritten learner uses a majority MAT over the vote bitmap —
    // the MAT-based membership idiom P4 programmers reach for.
    c.actions.push(ActionDef {
        name: "mark_majority".into(),
        params: vec![],
        body: vec![Stmt::Assign(Expr::field(&["meta", "hist"]), Expr::Const(255, 8))],
    });
    c.tables.push(TableDef {
        name: "majority".into(),
        keys: vec![(Expr::field(&["meta", "count"]), MatchKind::Exact)],
        actions: vec!["mark_majority".into()],
        entries: [3u64, 5, 6, 7]
            .into_iter()
            .map(|v| TableEntry {
                keys: vec![EntryKey::Value(v)],
                action: "mark_majority".into(),
                args: vec![],
            })
            .collect(),
        default_action: "NoAction".into(),
        size: 8,
    });
    c.tables.push(l2());

    let mut deliver = Vec::new();
    for i in 0..8 {
        deliver.push(Stmt::ExecuteRegisterAction {
            dst: None,
            ra: format!("value_store{i}").into(),
            index: inst.clone(),
        });
    }
    deliver.extend([
        Stmt::Assign(Expr::field(&["hdr", "args_c1", "a0_type"]), Expr::Const(T_DELIVER, 8)),
        Stmt::Assign(Expr::field(&["hdr", "ncl", "action"]), Expr::Const(0, 8)),
    ]);

    let body = vec![Stmt::If {
        cond: Expr::Bin(
            P4BinOp::Eq,
            Box::new(Expr::field(&["hdr", "args_c1", "a0_type"])),
            Box::new(Expr::Const(T_PHASE2B, 8)),
        ),
        then: vec![
            // Default: drop unless a majority forms below.
            Stmt::Assign(Expr::field(&["hdr", "ncl", "action"]), Expr::Const(1, 8)),
            Stmt::ExecuteRegisterAction {
                dst: Some(Expr::field(&["meta", "rmax"])),
                ra: "round_max".into(),
                index: inst.clone(),
            },
            Stmt::If {
                cond: Expr::Bin(
                    P4BinOp::Ge,
                    Box::new(Expr::field(&["hdr", "args_c1", "a2_round"])),
                    Box::new(Expr::field(&["meta", "rmax"])),
                ),
                then: vec![
                    Stmt::ExecuteRegisterAction {
                        dst: Some(Expr::field(&["meta", "count"])),
                        ra: "vote_or".into(),
                        index: inst,
                    },
                    // Deliver on the edge into majority: old NOT majority,
                    // new majority.
                    Stmt::ApplyTable("majority".into()),
                    Stmt::If {
                        cond: Expr::Bin(
                            P4BinOp::Eq,
                            Box::new(Expr::field(&["meta", "hist"])),
                            Box::new(Expr::Const(0, 8)),
                        ),
                        then: vec![
                            Stmt::Assign(
                                Expr::field(&["meta", "count"]),
                                Expr::Bin(
                                    P4BinOp::Or,
                                    Box::new(Expr::field(&["meta", "count"])),
                                    Box::new(Expr::field(&["hdr", "args_c1", "a4_vote"])),
                                ),
                            ),
                            Stmt::ApplyTable("majority".into()),
                            Stmt::If {
                                cond: Expr::Bin(
                                    P4BinOp::Eq,
                                    Box::new(Expr::field(&["meta", "hist"])),
                                    Box::new(Expr::Const(255, 8)),
                                ),
                                then: deliver,
                                els: vec![],
                            },
                        ],
                        els: vec![],
                    },
                ],
                els: vec![],
            },
        ],
        els: vec![],
    }];
    c.apply = guard(LEARNER_DEV, body);
    P4Program {
        name: "plrn_handwritten".into(),
        target: Target::Tna,
        headers: common_headers().into(),
        parser: Some(common_parser().into()),
        controls: vec![c].into(),
    }
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
        for p in [handwritten_leader(), handwritten_acceptor(), handwritten_learner()] {
            let fit = netcl_tofino::fit(&p).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(fit.stages_used <= 12, "{}", p.name);
        }
    }
}
