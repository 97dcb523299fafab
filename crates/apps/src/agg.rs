//! AGG — in-network AllReduce (SwitchML \[13\], paper Fig. 7 + §VII).
//!
//! Workers stream fixed-size chunks of a tensor to a top-of-rack switch;
//! the switch aggregates per slot, drops intermediate packets, and
//! multicasts the completed aggregate to all workers. Reliability follows
//! the paper exactly: two slot versions in alternating-bit fashion, a
//! worker bitmap to detect retransmissions, and conditional `_new` atomics
//! so retransmissions of completed slots read the previous result (§V-E).
//! Following §VII we add the max-exponent computation SwitchML uses for
//! quantization.

use std::sync::{Arc, Mutex};

use netcl_bmv2::Switch;
use netcl_net::{HostEvent, LinkSpec, NodeId, Outbox};
use netcl_p4::ast::*;
use netcl_runtime::message::{pack_into, unpack, Message};
use netcl_runtime::reliable::{IntMap, Reliable, RetryPolicy};
use netcl_sema::builtins::{AtomicOp, AtomicRmw};
use netcl_sema::model::Specification;

use crate::{Conditions, Run};

/// AGG parameters.
#[derive(Clone, Copy, Debug)]
pub struct AggConfig {
    /// Number of workers.
    pub num_workers: u32,
    /// Aggregation slots per version.
    pub num_slots: u32,
    /// Values per packet (the paper aggregates 32 per packet on Tofino 1).
    pub slot_size: u32,
}

impl Default for AggConfig {
    fn default() -> Self {
        AggConfig { num_workers: 6, num_slots: 16, slot_size: 32 }
    }
}

/// The NetCL device code (Fig. 7 + max exponent).
pub fn netcl_source(cfg: &AggConfig) -> String {
    format!(
        r#"#define NUM_SLOTS {ns}
#define SLOT_SIZE {ss}
#define NUM_WORKERS {nw}
_net_ uint16_t Bitmap[2][NUM_SLOTS];
_net_ uint32_t Agg[SLOT_SIZE][NUM_SLOTS * 2];
_net_ uint8_t Count[NUM_SLOTS * 2];
_net_ uint8_t Exp[NUM_SLOTS * 2];

_kernel(1) _at(1) void allreduce( uint8_t ver, uint16_t bmp_idx,
                           uint16_t agg_idx, uint16_t mask, uint8_t &exp,
                           uint32_t _spec(SLOT_SIZE) *v) {{
  uint16_t bitmap;
  if (ver == 0) {{
    bitmap = ncl::atomic_or(&Bitmap[0][bmp_idx], mask);
    ncl::atomic_and(&Bitmap[1][bmp_idx], ~mask);
  }} else {{
    ncl::atomic_and(&Bitmap[0][bmp_idx], ~mask);
    bitmap = ncl::atomic_or(&Bitmap[1][bmp_idx], mask);
  }}
  if (bitmap == 0) {{
    for (auto i = 0; i < SLOT_SIZE; ++i)
      Agg[i][agg_idx] = v[i];
    ncl::atomic_swap(&Exp[agg_idx], exp);
    Count[agg_idx] = NUM_WORKERS - 1;
  }} else {{
    auto seen = bitmap & mask;
    exp = ncl::atomic_cond_max_new(&Exp[agg_idx], !seen, exp);
    for (auto i = 0; i < SLOT_SIZE; ++i)
      v[i] = ncl::atomic_cond_add_new(&Agg[i][agg_idx], !seen, v[i]);
    auto cnt = ncl::atomic_cond_dec(&Count[agg_idx], !seen);
    if (seen != 0) {{
      if (cnt == 0)
        return ncl::reflect();
      return ncl::drop();
    }}
    if (cnt == 1)
      return ncl::multicast(42);
  }}
  return ncl::drop();
}}
"#,
        ns = cfg.num_slots,
        ss = cfg.slot_size,
        nw = cfg.num_workers,
    )
}

/// The AGG kernel specification (for host pack/unpack).
pub fn spec(cfg: &AggConfig) -> Specification {
    use netcl_sema::model::SpecItem;
    use netcl_sema::Ty;
    Specification {
        items: vec![
            SpecItem { count: 1, ty: Ty::U8 },              // ver
            SpecItem { count: 1, ty: Ty::U16 },             // bmp_idx
            SpecItem { count: 1, ty: Ty::U16 },             // agg_idx
            SpecItem { count: 1, ty: Ty::U16 },             // mask
            SpecItem { count: 1, ty: Ty::U8 },              // exp (by-ref)
            SpecItem { count: cfg.slot_size, ty: Ty::U32 }, // v
        ],
    }
}

// ---------------------------------------------------------------------------
// Handwritten P4 baseline
// ---------------------------------------------------------------------------

/// An idiomatic handwritten P4₁₆ AGG over the same wire format. Key
/// structural differences from the generated code (mirroring what the paper
/// observes in Table V):
///
/// * slot-completion decisions go through a **ternary MAT on the counter**
///   ("the handwritten P4 code, following \[13\], uses MATs with ternary
///   lookups that do use TCAM"), where the compiler evaluates the
///   conditions inside the SALUs;
/// * RegisterActions read and write the argument header fields directly —
///   no temporaries, so the handwritten PHV footprint is smaller.
pub fn handwritten(cfg: &AggConfig) -> P4Program {
    let ss = cfg.slot_size;
    let ns = cfg.num_slots;
    let mut headers = vec![
        netcl::codegen::ncl_header(),
        HeaderDef {
            name: "args_c1_t".into(),
            fields: vec![
                ("a0_ver".into(), 8),
                ("a1_bmp_idx".into(), 16),
                ("a2_agg_idx".into(), 16),
                ("a3_mask".into(), 16),
                ("a4_exp".into(), 8),
            ],
            stack: 1,
        },
    ];
    headers.push(HeaderDef {
        name: "arr_c1_a5_t".into(),
        fields: vec![("value".into(), 32)],
        stack: ss,
    });

    let parser = ParserDef {
        name: "IgParser".into(),
        states: vec![
            ParserState {
                name: "start".into(),
                extracts: vec!["hdr.ncl".into()],
                transition: Transition::Select {
                    selector: Expr::field(&["hdr", "ncl", "comp"]),
                    cases: vec![(1, "parse_agg".into())],
                    default: "accept".into(),
                },
            },
            ParserState {
                name: "parse_agg".into(),
                extracts: vec!["hdr.args_c1".into(), "hdr.arr_c1_a5".into()],
                transition: Transition::Accept,
            },
        ],
    };

    let mut c = ControlDef { name: "Ig".into(), ..Default::default() };
    let idx = Expr::field(&["hdr", "args_c1", "a2_agg_idx"]);
    let bidx = Expr::field(&["hdr", "args_c1", "a1_bmp_idx"]);
    let mask = Expr::field(&["hdr", "args_c1", "a3_mask"]);

    // Bitmaps (one register per version, as SwitchML lays them out).
    for v in 0..2u32 {
        c.registers.push(RegisterDef {
            name: format!("Bitmap{v}").into(),
            elem_bits: 16,
            size: ns,
        });
        c.register_actions.push(RegisterActionDef {
            name: format!("bmp_set{v}").into(),
            register: format!("Bitmap{v}").into(),
            op: AtomicOp { rmw: AtomicRmw::Or, cond: false, ret_new: false },
            cond: None,
            operands: vec![mask.clone()],
        });
        c.register_actions.push(RegisterActionDef {
            name: format!("bmp_clr{v}").into(),
            register: format!("Bitmap{v}").into(),
            op: AtomicOp { rmw: AtomicRmw::And, cond: false, ret_new: false },
            cond: None,
            operands: vec![Expr::BitNot(Box::new(mask.clone()))],
        });
    }
    // Per-element aggregation registers (the SwitchML 32-lane layout).
    for i in 0..ss {
        c.registers.push(RegisterDef {
            name: format!("Agg{i}").into(),
            elem_bits: 32,
            size: ns * 2,
        });
        let val = Expr::Field(vec![
            PathSeg::new("hdr"),
            PathSeg::indexed("arr_c1_a5", i),
            PathSeg::new("value"),
        ]);
        c.register_actions.push(RegisterActionDef {
            name: format!("agg_write{i}").into(),
            register: format!("Agg{i}").into(),
            op: AtomicOp { rmw: AtomicRmw::Swap, cond: false, ret_new: false },
            cond: None,
            operands: vec![val.clone()],
        });
        c.register_actions.push(RegisterActionDef {
            name: format!("agg_add{i}").into(),
            register: format!("Agg{i}").into(),
            op: AtomicOp { rmw: AtomicRmw::Add, cond: true, ret_new: true },
            cond: Some(Expr::Bin(
                P4BinOp::Eq,
                Box::new(Expr::field(&["meta", "seen"])),
                Box::new(Expr::Const(0, 16)),
            )),
            operands: vec![val],
        });
    }
    // Count + Exp.
    c.registers.push(RegisterDef { name: "Count".into(), elem_bits: 8, size: ns * 2 });
    c.register_actions.push(RegisterActionDef {
        name: "count_reset".into(),
        register: "Count".into(),
        op: AtomicOp { rmw: AtomicRmw::Swap, cond: false, ret_new: false },
        cond: None,
        operands: vec![Expr::Const((cfg.num_workers - 1) as u64, 8)],
    });
    c.register_actions.push(RegisterActionDef {
        name: "count_dec".into(),
        register: "Count".into(),
        op: AtomicOp { rmw: AtomicRmw::Dec, cond: true, ret_new: false },
        cond: Some(Expr::Bin(
            P4BinOp::Eq,
            Box::new(Expr::field(&["meta", "seen"])),
            Box::new(Expr::Const(0, 16)),
        )),
        operands: vec![],
    });
    c.registers.push(RegisterDef { name: "ExpR".into(), elem_bits: 8, size: ns * 2 });
    c.register_actions.push(RegisterActionDef {
        name: "exp_write".into(),
        register: "ExpR".into(),
        op: AtomicOp { rmw: AtomicRmw::Swap, cond: false, ret_new: false },
        cond: None,
        operands: vec![Expr::field(&["hdr", "args_c1", "a4_exp"])],
    });
    c.register_actions.push(RegisterActionDef {
        name: "exp_max".into(),
        register: "ExpR".into(),
        op: AtomicOp { rmw: AtomicRmw::Max, cond: true, ret_new: true },
        cond: Some(Expr::Bin(
            P4BinOp::Eq,
            Box::new(Expr::field(&["meta", "seen"])),
            Box::new(Expr::Const(0, 16)),
        )),
        operands: vec![Expr::field(&["hdr", "args_c1", "a4_exp"])],
    });

    c.locals.push(("bitmap".into(), 16));
    c.locals.push(("seen".into(), 16));
    c.locals.push(("cnt".into(), 8));
    c.locals.push(("decision".into(), 8));

    // The SwitchML-style ternary decision table: count → forwarding action
    // (consumes TCAM, unlike the generated SALU conditionals).
    for (name, code) in [("act_reflect", 5u64), ("act_mcast", 4), ("act_drop", 1)] {
        c.actions.push(ActionDef {
            name: name.into(),
            params: vec![],
            body: vec![Stmt::Assign(Expr::field(&["hdr", "ncl", "action"]), Expr::Const(code, 8))],
        });
    }
    c.actions.push(ActionDef {
        name: "set_mcast_target".into(),
        params: vec![],
        body: vec![Stmt::Assign(Expr::field(&["hdr", "ncl", "target"]), Expr::Const(42, 16))],
    });
    c.tables.push(TableDef {
        name: "slot_decision".into(),
        keys: vec![
            (Expr::field(&["meta", "seen"]), MatchKind::Ternary),
            (Expr::field(&["meta", "cnt"]), MatchKind::Ternary),
        ],
        actions: vec!["act_reflect".into(), "act_mcast".into(), "act_drop".into()],
        entries: vec![
            // Retransmission of a completed slot → return the result.
            TableEntry {
                keys: vec![EntryKey::Range(1, 65535), EntryKey::Value(0)],
                action: "act_reflect".into(),
                args: vec![],
            },
            // Fresh contribution completing the slot → broadcast.
            TableEntry {
                keys: vec![EntryKey::Value(0), EntryKey::Value(1)],
                action: "act_mcast".into(),
                args: vec![],
            },
        ],
        default_action: "act_drop".into(),
        size: 4,
    });
    c.tables.push(TableDef {
        name: "l2_fwd".into(),
        keys: vec![(Expr::field(&["hdr", "ncl", "dst"]), MatchKind::Exact)],
        actions: vec![],
        entries: vec![],
        default_action: "NoAction".into(),
        size: 64,
    });

    // Apply: bitmap update, then first-packet vs aggregate paths.
    let mut apply: Vec<Stmt> = Vec::new();
    let guard = Expr::Bin(
        P4BinOp::LAnd,
        Box::new(Expr::Field(vec![
            PathSeg::new("hdr"),
            PathSeg::new("ncl"),
            PathSeg::new("$isValid"),
        ])),
        Box::new(Expr::Bin(
            P4BinOp::Eq,
            Box::new(Expr::field(&["hdr", "ncl", "to"])),
            Box::new(Expr::val(1, 16)),
        )),
    );
    let mut body: Vec<Stmt> = Vec::new();
    body.push(Stmt::If {
        cond: Expr::Bin(
            P4BinOp::Eq,
            Box::new(Expr::field(&["hdr", "args_c1", "a0_ver"])),
            Box::new(Expr::Const(0, 8)),
        ),
        then: vec![
            Stmt::ExecuteRegisterAction {
                dst: Some(Expr::field(&["meta", "bitmap"])),
                ra: "bmp_set0".into(),
                index: bidx.clone(),
            },
            Stmt::ExecuteRegisterAction { dst: None, ra: "bmp_clr1".into(), index: bidx.clone() },
        ],
        els: vec![
            Stmt::ExecuteRegisterAction { dst: None, ra: "bmp_clr0".into(), index: bidx.clone() },
            Stmt::ExecuteRegisterAction {
                dst: Some(Expr::field(&["meta", "bitmap"])),
                ra: "bmp_set1".into(),
                index: bidx,
            },
        ],
    });
    body.push(Stmt::Assign(
        Expr::field(&["meta", "seen"]),
        Expr::Bin(
            P4BinOp::And,
            Box::new(Expr::field(&["meta", "bitmap"])),
            Box::new(Expr::field(&["hdr", "args_c1", "a3_mask"])),
        ),
    ));
    // SwitchML orders the counter and the completion decision early in the
    // pipe — the decision MAT depends only on the counter, and the value
    // lanes fill the later stages independently.
    let mut first: Vec<Stmt> = Vec::new();
    first.push(Stmt::ExecuteRegisterAction {
        dst: None,
        ra: "exp_write".into(),
        index: idx.clone(),
    });
    first.push(Stmt::ExecuteRegisterAction {
        dst: None,
        ra: "count_reset".into(),
        index: idx.clone(),
    });
    first.push(Stmt::Assign(Expr::field(&["hdr", "ncl", "action"]), Expr::Const(1, 8)));
    for i in 0..ss {
        first.push(Stmt::ExecuteRegisterAction {
            dst: None,
            ra: format!("agg_write{i}").into(),
            index: idx.clone(),
        });
    }

    let mut aggr: Vec<Stmt> = vec![
        Stmt::ExecuteRegisterAction {
            dst: Some(Expr::field(&["hdr", "args_c1", "a4_exp"])),
            ra: "exp_max".into(),
            index: idx.clone(),
        },
        Stmt::ExecuteRegisterAction {
            dst: Some(Expr::field(&["meta", "cnt"])),
            ra: "count_dec".into(),
            index: idx.clone(),
        },
        Stmt::ApplyTable("slot_decision".into()),
        Stmt::If {
            cond: Expr::Bin(
                P4BinOp::Eq,
                Box::new(Expr::field(&["hdr", "ncl", "action"])),
                Box::new(Expr::Const(4, 8)),
            ),
            then: vec![Stmt::CallAction("set_mcast_target".into())],
            els: vec![],
        },
    ];
    for i in 0..ss {
        aggr.push(Stmt::ExecuteRegisterAction {
            dst: Some(Expr::Field(vec![
                PathSeg::new("hdr"),
                PathSeg::indexed("arr_c1_a5", i),
                PathSeg::new("value"),
            ])),
            ra: format!("agg_add{i}").into(),
            index: idx.clone(),
        });
    }

    body.push(Stmt::If {
        cond: Expr::Bin(
            P4BinOp::Eq,
            Box::new(Expr::field(&["meta", "bitmap"])),
            Box::new(Expr::Const(0, 16)),
        ),
        then: first,
        els: aggr,
    });
    apply.push(Stmt::If { cond: guard, then: body, els: vec![] });
    apply.push(Stmt::ApplyTable("l2_fwd".into()));
    c.apply = apply;

    P4Program {
        name: "agg_handwritten".into(),
        target: Target::Tna,
        headers: headers.into(),
        parser: Some(parser.into()),
        controls: vec![c].into(),
    }
}

// ---------------------------------------------------------------------------
// Host-side worker and end-to-end experiment (Fig. 14 left)
// ---------------------------------------------------------------------------

/// Deterministic tensor element for worker `w`, chunk `c`, lane `i`.
pub fn element(w: u32, c: u32, i: u32) -> u64 {
    ((w as u64 + 1) * 1000 + (c as u64) * 10 + i as u64) & 0xFFFF
}

/// Expected aggregate of a lane across all workers.
pub fn expected(cfg: &AggConfig, c: u32, i: u32) -> u64 {
    (0..cfg.num_workers).map(|w| element(w, c, i)).sum::<u64>() & 0xFFFF_FFFF
}

/// Per-worker progress shared with the experiment driver.
#[derive(Debug, Default)]
pub struct WorkerState {
    /// Chunks whose aggregate this worker has received.
    pub completed: Vec<u32>,
    /// Received aggregates (chunk → values).
    pub results: IntMap<u32, Vec<u64>>,
    /// Received max-exponents per chunk.
    pub exps: IntMap<u32, u64>,
    /// Retransmissions sent.
    pub retransmits: u64,
    /// Outstanding chunk per slot.
    pub inflight: IntMap<u32, u32>,
    /// When the last result arrived (simulated ns).
    pub last_result_ns: u64,
}

/// Releases `results` newest first. The last results are among the last
/// blocks a run allocated, at the top of the heap, and the first of them
/// freed stay in glibc's per-thread cache, which counts as in use: the
/// heap's top stays put, and the next run reuses the memory below it
/// instead of glibc handing it back and the run faulting it in again
/// (DESIGN.md §18).
impl Drop for WorkerState {
    fn drop(&mut self) {
        for chunk in self.completed.iter().rev() {
            self.results.remove(chunk);
        }
    }
}

/// Builds the chunk packet worker `w` sends for chunk `c`.
pub fn chunk_packet(cfg: &AggConfig, w: u32, c: u32) -> Vec<u8> {
    let mut wire = Vec::new();
    pack_chunk(cfg, &spec(cfg), w, c, &mut Vec::new(), &mut wire);
    wire
}

/// [`chunk_packet`] into `wire`, for a worker that sends one per event: the
/// specification is built once and `lanes` / `wire` are its to reuse.
fn pack_chunk(
    cfg: &AggConfig,
    s: &Specification,
    w: u32,
    c: u32,
    lanes: &mut Vec<u64>,
    wire: &mut Vec<u8>,
) {
    let slot = c % cfg.num_slots;
    let ver = (c / cfg.num_slots) % 2;
    let agg_idx = ver * cfg.num_slots + slot;
    lanes.clear();
    lanes.extend((0..cfg.slot_size).map(|i| element(w, c, i)));
    let exp = (w as u64 % 8) + (c as u64 % 4); // worker-local exponent
    let m = Message::new((100 + w) as u16, (100 + w) as u16, 1, 1);
    let args = [&[ver as u64][..], &[slot as u64], &[agg_idx as u64], &[1 << w], &[exp], lanes];
    pack_into(&m, s, &args.map(Some), wire).expect("chunk packs");
}

/// The base retransmission timeout used by workers (backed off and capped
/// by the shared [`Reliable`] helper).
pub const RTO_NS: u64 = 400_000;

/// Quiet period between acknowledging a chunk and reusing its slot for the
/// next one. The switch's alternating-bit slot scheme is safe only when a
/// worker's packets arrive in order; a reordered stale copy of the previous
/// chunk arriving after the new version has started would clear the
/// worker's bit in the live bitmap and let a duplicate double-add. Waiting
/// out the network's maximum packet lifetime (transit + jitter + reorder
/// hold-back, cf. TCP's TIME_WAIT) before reusing the slot drains those
/// copies. Must exceed the deployment's reorder horizon and stay below
/// [`RTO_NS`].
pub const SLOT_REUSE_GUARD_NS: u64 = 100_000;

/// The quiet period `link` requires before a slot can be reused: only links
/// that can hold packets back (reorder, jitter) or clone them (duplication)
/// can produce the stale-copy hazard; on in-order links every copy of the
/// previous chunk has provably arrived by the time its ack did, so workers
/// advance immediately (the lossless/lossy benchmark path is unchanged).
pub fn slot_guard_ns(link: &LinkSpec) -> u64 {
    if link.reorder > 0.0 || link.duplicate > 0.0 || link.jitter_ns > 0 {
        SLOT_REUSE_GUARD_NS
    } else {
        0
    }
}

/// Creates a worker host handler streaming `total_chunks` chunks.
///
/// Loss recovery rides on the shared host reliability helper: each chunk is
/// sent under its chunk id as the key, the switch's aggregate (multicast or
/// reflected) acts as the ack, and unacked chunks are retransmitted with
/// capped exponential backoff. Kickoff happens through plain (non-reliable)
/// timer tokens carrying the chunk id, so the first transmission also goes
/// through the helper and is tracked like any retransmission.
pub fn worker_handler(
    cfg: AggConfig,
    w: u32,
    total_chunks: u32,
    guard_ns: u64,
    state: Arc<Mutex<WorkerState>>,
) -> netcl_net::HostHandler {
    let s = spec(&cfg);
    let mut rel = Reliable::new(RetryPolicy { base_rto_ns: RTO_NS, ..Default::default() });
    state.lock().unwrap().results.reserve(total_chunks as usize);
    // Scratch the handler reuses; only `values` is new per result, because
    // `results` keeps it.
    let (mut agg_idx, mut exp, mut lanes, mut wire) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    Box::new(move |now, ev, out: &mut Outbox| {
        let mut st = state.lock().unwrap();
        match ev {
            HostEvent::Message(bytes) => {
                let mut values = Vec::new();
                let Ok(_) = unpack(
                    bytes,
                    &s,
                    &mut [None, None, Some(&mut agg_idx), None, Some(&mut exp), Some(&mut values)],
                ) else {
                    return;
                };
                let slot = (agg_idx[0] as u32) % cfg.num_slots;
                let Some(&chunk) = st.inflight.get(&slot) else { return };
                // Version check: the result is for the in-flight chunk.
                let ver = (chunk / cfg.num_slots) % 2;
                if agg_idx[0] as u32 != ver * cfg.num_slots + slot {
                    return;
                }
                rel.ack_key(chunk as u64);
                st.results.insert(chunk, values);
                st.exps.insert(chunk, exp[0]);
                st.completed.push(chunk);
                st.last_result_ns = now;
                let next = chunk + cfg.num_slots;
                if next < total_chunks {
                    st.inflight.insert(slot, next);
                    if guard_ns == 0 {
                        pack_chunk(&cfg, &s, w, next, &mut lanes, &mut wire);
                        rel.send(next as u64, &wire, out);
                    } else {
                        // Reuse the slot only after the quiet period: the
                        // timer token re-enters the kickoff path below.
                        out.set_timer(guard_ns, next as u64);
                    }
                } else {
                    st.inflight.remove(&slot);
                }
                st.retransmits = rel.stats.retransmits;
            }
            HostEvent::Timer(token) => {
                if !rel.on_timer(token, out) {
                    // Not a reliability timer: a kickoff token carrying the
                    // chunk id for this worker's first transmission.
                    let chunk = token as u32;
                    let slot = chunk % cfg.num_slots;
                    if st.inflight.get(&slot) == Some(&chunk) && !st.results.contains_key(&chunk) {
                        pack_chunk(&cfg, &s, w, chunk, &mut lanes, &mut wire);
                        rel.send(token, &wire, out);
                    }
                }
                st.retransmits = rel.stats.retransmits;
            }
        }
    })
}

/// Results of an end-to-end AllReduce run.
#[derive(Debug)]
pub struct AggRunResult {
    /// Simulated nanoseconds from the first send (t = 0) to the last result
    /// any worker received.
    pub duration_ns: u64,
    /// Aggregated tensor elements per second per worker (Fig. 14 metric).
    pub ate_per_sec_per_worker: f64,
    /// Whether every worker saw every chunk with the correct sums.
    pub all_correct: bool,
    /// Total retransmissions across workers.
    pub retransmits: u64,
}

/// Runs AllReduce over `total_chunks` chunks on `program`, every worker
/// filling its slot window at t = 0 (staggered by a few tens of ns) and
/// advancing a slot as its result returns.
pub fn run_allreduce(
    program: &P4Program,
    cfg: &AggConfig,
    total_chunks: u32,
    device_latency_ns: u64,
    c: &Conditions,
) -> Run<AggRunResult> {
    let hosts: Vec<u32> = (0..cfg.num_workers).map(|w| 100 + w).collect();
    let mut topo = netcl_net::topo::star(1, &hosts, c.link);
    topo.multicast_group(42, hosts.iter().map(|&h| NodeId::Host(h)).collect());
    let mut builder = c.network(topo).device(1, Switch::new(program.clone()), device_latency_ns);
    let states: Vec<Arc<Mutex<WorkerState>>> =
        (0..cfg.num_workers).map(|_| Arc::new(Mutex::new(WorkerState::default()))).collect();
    for (w, state) in (0..).zip(&states) {
        let handler = worker_handler(*cfg, w, total_chunks, slot_guard_ns(&c.link), state.clone());
        builder = builder.host(100 + w, handler);
    }
    let mut net = builder.build();

    // Kick off: each worker fills the slot window. The kickoff timers carry
    // the chunk id; the handler routes them through its reliability helper
    // so the first transmission arms retransmission like any other.
    let window = cfg.num_slots.min(total_chunks);
    for (w, state) in (0..).zip(&states) {
        for chunk in 0..window {
            net.set_host_timer(100 + w, w as u64 * 50 + chunk as u64 * 10, chunk as u64);
            state.lock().unwrap().inflight.insert(chunk % cfg.num_slots, chunk);
        }
    }
    net.run(c.max_events);

    let (mut all_correct, mut retransmits, mut duration_ns) = (true, 0, 1);
    for st in &states {
        let st = st.lock().unwrap();
        retransmits += st.retransmits;
        duration_ns = duration_ns.max(st.last_result_ns);
        all_correct &= st.completed.len() == total_chunks as usize
            && (0..total_chunks).all(|chunk| {
                st.results
                    .get(&chunk)
                    .is_some_and(|vals| (0..).zip(vals).all(|(i, &v)| v == expected(cfg, chunk, i)))
            });
    }
    let ate = total_chunks as f64 * cfg.slot_size as f64;
    let result = AggRunResult {
        duration_ns,
        ate_per_sec_per_worker: ate / (duration_ns as f64 / 1e9),
        all_correct,
        retransmits,
    };
    Run::of(result, &mut net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use netcl_net::NetworkBuilder;

    fn small() -> AggConfig {
        AggConfig { num_workers: 3, num_slots: 4, slot_size: 8 }
    }

    #[test]
    fn netcl_agg_compiles_and_fits() {
        let cfg = AggConfig::default();
        let unit = compile("agg.ncl", &netcl_source(&cfg));
        assert_eq!(unit.model.kernels[0].specification(), spec(&cfg));
        let fit = netcl_tofino::fit(&unit.devices[0].tna_p4).unwrap_or_else(|e| panic!("{e}"));
        assert!(fit.stages_used <= 12, "AGG needs {} stages", fit.stages_used);
        // The Table V observation: generated AGG uses no TCAM (conditions
        // evaluated inside SALUs)...
        assert!(fit.tcam_free(), "generated AGG should be TCAM-free");
        // ...while the handwritten baseline's ternary decision MAT does.
        let hfit = netcl_tofino::fit(&handwritten(&cfg)).unwrap();
        assert!(!hfit.tcam_free(), "handwritten AGG uses TCAM");
    }

    #[test]
    fn allreduce_lossless_correct() {
        let cfg = small();
        let unit = compile("agg.ncl", &netcl_source(&cfg));
        let r = run_allreduce(&unit.devices[0].tna_p4, &cfg, 8, 500, &Conditions::default()).result;
        assert!(r.all_correct, "{r:?}");
        assert_eq!(r.retransmits, 0);
        // Timed to the last result, not to the idle RTO timer behind it.
        assert!(r.duration_ns < RTO_NS, "{r:?}");
    }

    #[test]
    fn allreduce_handwritten_matches() {
        let cfg = small();
        let unit = compile("agg.ncl", &netcl_source(&cfg));
        let c = Conditions::default();
        let gen = run_allreduce(&unit.devices[0].tna_p4, &cfg, 8, 500, &c);
        let hand = run_allreduce(&handwritten(&cfg), &cfg, 8, 500, &c);
        assert!(gen.result.all_correct && hand.result.all_correct, "gen={gen:?} hand={hand:?}");
        // Identical kernel-execution counts: the data-plane behaviour of the
        // two implementations is the same (Fig. 14: "no difference").
        assert_eq!(gen.stats.kernel_executions, hand.stats.kernel_executions);
    }

    #[test]
    fn allreduce_recovers_from_loss() {
        let cfg = small();
        let unit = compile("agg.ncl", &netcl_source(&cfg));
        let c = Conditions { link: LinkSpec::lossy(0.05), ..Default::default() };
        let r = run_allreduce(&unit.devices[0].tna_p4, &cfg, 8, 500, &c).result;
        assert!(r.all_correct, "loss recovery failed: {r:?}");
        assert!(r.retransmits > 0, "expected at least one retransmission");
    }

    #[test]
    fn exponent_is_max_across_workers() {
        let cfg = small();
        let unit = compile("agg.ncl", &netcl_source(&cfg));
        let mut topo = netcl_net::topo::star(1, &[100, 101, 102], LinkSpec::default());
        topo.multicast_group(42, vec![NodeId::Host(100), NodeId::Host(101), NodeId::Host(102)]);
        let states: Vec<_> = (0..3).map(|_| Arc::new(Mutex::new(WorkerState::default()))).collect();
        let mut builder =
            NetworkBuilder::new(topo).device(1, Switch::new(unit.devices[0].tna_p4.clone()), 500);
        for w in 0..3u32 {
            builder =
                builder.host(100 + w, worker_handler(cfg, w, 1, 0, states[w as usize].clone()));
        }
        let mut net = builder.build();
        for w in 0..3u32 {
            net.send_from_host(100 + w, w as u64 * 100, chunk_packet(&cfg, w, 0));
            states[w as usize].lock().unwrap().inflight.insert(0, 0);
        }
        net.run(10_000);
        // Worker exponents for chunk 0: w%8 + 0 = {0,1,2}; max = 2.
        for st in &states {
            let st = st.lock().unwrap();
            assert_eq!(st.exps.get(&0), Some(&2), "{st:?}");
        }
    }
}
