//! CACHE — in-network key-value caching (NetCache \[16\], paper §VII).
//!
//! Extends Fig. 4 the way the paper describes: GET/PUT/DEL operations, a
//! validity bit implementing the write-back policy, two-step cache-line
//! access (a MAT maps the 8-byte key to a slot index, registers hold the
//! value words), the cache-line *sharing* bitmap tracking which words of a
//! line belong to the key, per-slot hit counters, and hot-key detection via
//! a count-min sketch followed by a Bloom filter. Unlike \[16\], misses are
//! marked hot in an extra header field on their way to the KVS server
//! (which then populates the cache through the control plane).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use netcl::codegen::device_guard;
use netcl::CompiledDevice;
use netcl_bmv2::{Switch, TableUpdate};
use netcl_net::{HostEvent, HostHandler, Outbox};
use netcl_p4::ast::*;
use netcl_runtime::managed::ManagedMemory;
use netcl_runtime::message::{pack, pack_into, unpack, Message};
use netcl_runtime::reliable::{Reliable, RetryPolicy};
use netcl_sema::builtins::{AtomicOp, AtomicRmw, HashKind};
use netcl_sema::model::{LookupEntry, Specification};

use crate::{Conditions, Run};

/// GET opcode.
pub const OP_GET: u64 = 1;
/// PUT opcode.
pub const OP_PUT: u64 = 2;
/// DEL opcode.
pub const OP_DEL: u64 = 3;

/// CACHE parameters.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Cache slots.
    pub slots: u32,
    /// Value words per cache line (the paper supports 128-byte values = 32
    /// words; we default smaller for simulation speed).
    pub words: u32,
    /// Hot-key threshold for the count-min sketch.
    pub threshold: u32,
    /// Sketch/Bloom row width.
    pub sketch_cols: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { slots: 64, words: 8, threshold: 64, sketch_cols: 4096 }
    }
}

/// The NetCL device code (the paper's ~90-line CACHE).
pub fn netcl_source(cfg: &CacheConfig) -> String {
    format!(
        r#"#define NSLOTS {slots}
#define W {words}
#define THRESH {thresh}
#define COLS {cols}
#define FULL_SHARE {full}
#define GET_REQ 1
#define PUT_REQ 2
#define DEL_REQ 3

_managed_ _lookup_ ncl::kv<uint64_t, uint16_t> index[NSLOTS];
_managed_ uint16_t Share[NSLOTS];
_managed_ uint8_t Valid[NSLOTS];
_net_ unsigned HitCount[NSLOTS];
_managed_ unsigned Val[W][NSLOTS];
_managed_ unsigned cms[3][COLS];
_net_ uint8_t Bloom[2][COLS];

_net_ void classify(unsigned kh, unsigned &hot) {{
  unsigned c[3];
  c[0] = ncl::atomic_sadd_new(&cms[0][ncl::xor16(kh) & (COLS - 1)], 1);
  c[1] = ncl::atomic_sadd_new(&cms[1][ncl::crc32<16>(kh) & (COLS - 1)], 1);
  c[2] = ncl::atomic_sadd_new(&cms[2][ncl::crc16(kh) & (COLS - 1)], 1);
  for (auto i = 1; i < 3; ++i)
    if (c[i] < c[0]) c[0] = c[i];
  if (c[0] > THRESH) {{
    uint8_t b0 = ncl::atomic_swap(&Bloom[0][ncl::xor16(kh) & (COLS - 1)], 1);
    uint8_t b1 = ncl::atomic_swap(&Bloom[1][ncl::crc16(kh) & (COLS - 1)], 1);
    if (b0 == 0 || b1 == 0)
      hot = c[0];
  }}
}}

_kernel(1) _at(1) void query(char op, uint64_t k, char &hit, unsigned &hot,
                             uint32_t _spec(W) *v) {{
  uint16_t idx = 0;
  char cached = ncl::lookup(index, k, idx);
  if (op == GET_REQ) {{
    uint16_t share = ncl::atomic_read(&Share[idx]);
    uint8_t valid = ncl::atomic_read(&Valid[idx]);
    if (cached) {{
      if (valid) {{
        ncl::atomic_inc(&HitCount[idx]);
        for (auto i = 0; i < W; ++i)
          if (ncl::bit_chk(share, i))
            v[i] = ncl::atomic_read(&Val[i][idx]);
        hit = 1;
        return ncl::reflect();
      }}
    }}
    classify(ncl::crc32(k), hot);
  }} else {{
    if (op == PUT_REQ) {{
      if (cached) {{
        ncl::atomic_swap(&Share[idx], FULL_SHARE);
        ncl::atomic_swap(&Valid[idx], 1);
        for (auto i = 0; i < W; ++i)
          ncl::atomic_swap(&Val[i][idx], v[i]);
      }}
    }} else {{
      if (op == DEL_REQ) {{
        if (cached) ncl::atomic_swap(&Valid[idx], 0);
      }}
    }}
  }}
  return ncl::pass();
}}
"#,
        slots = cfg.slots,
        words = cfg.words,
        thresh = cfg.threshold,
        cols = cfg.sketch_cols,
        full = (1u64 << cfg.words) - 1,
    )
}

/// Kernel specification.
pub fn spec(cfg: &CacheConfig) -> Specification {
    use netcl_sema::model::SpecItem;
    use netcl_sema::Ty;
    Specification {
        items: vec![
            SpecItem { count: 1, ty: Ty::U8 },          // op
            SpecItem { count: 1, ty: Ty::U64 },         // k (8-byte keys, as in \[16\])
            SpecItem { count: 1, ty: Ty::U8 },          // hit
            SpecItem { count: 1, ty: Ty::U32 },         // hot
            SpecItem { count: cfg.words, ty: Ty::U32 }, // v
        ],
    }
}

/// Builds a query packet. `client` is the host, `server` the KVS host.
pub fn request(
    cfg: &CacheConfig,
    client: u16,
    server: u16,
    op: u64,
    key: u64,
    value: Option<&[u64]>,
) -> Vec<u8> {
    let mut wire = Vec::new();
    request_into(&spec(cfg), client, server, op, key, value, &mut wire);
    wire
}

/// [`request`] into `wire`, against a specification the caller built once.
fn request_into(
    s: &Specification,
    client: u16,
    server: u16,
    op: u64,
    key: u64,
    value: Option<&[u64]>,
    wire: &mut Vec<u8>,
) {
    let m = Message::new(client, server, 1, 1);
    pack_into(&m, s, &[Some(&[op]), Some(&[key]), None, None, value], wire).expect("packs");
}

/// The deterministic server-side value for a key.
pub fn server_value(cfg: &CacheConfig, key: u64) -> Vec<u64> {
    (0..cfg.words as u64).map(|i| (key.wrapping_mul(31) + i) & 0xFFFF_FFFF).collect()
}

/// Populates cache slot `slot` with `key` through the control plane —
/// what the NetCache controller does when the server reports a hot key.
pub fn populate(
    mm: &ManagedMemory,
    sw: &mut Switch,
    cfg: &CacheConfig,
    slot: u16,
    key: u64,
    value: &[u64],
) {
    mm.lookup_insert(sw, "index", LookupEntry::Exact { key, value: slot as u64 }).unwrap();
    for (i, &w) in value.iter().enumerate() {
        mm.write(sw, "Val", &[i, slot as usize], w).unwrap();
    }
    mm.write(sw, "Share", &[slot as usize], (1u64 << cfg.words) - 1).unwrap();
    mm.write(sw, "Valid", &[slot as usize], 1).unwrap();
}

// ---------------------------------------------------------------------------
// Handwritten P4 baseline
// ---------------------------------------------------------------------------

/// Handwritten P4₁₆ NetCache over the same wire format: index MAT, per-word
/// value registers, share/valid registers, CMS + Bloom with hash externs.
pub fn handwritten(cfg: &CacheConfig) -> P4Program {
    let w = cfg.words;
    let cols = cfg.sketch_cols;
    let headers = vec![
        netcl::codegen::ncl_header(),
        HeaderDef {
            name: "args_c1_t".into(),
            fields: vec![
                ("a0_op".into(), 8),
                ("a1_k".into(), 64),
                ("a2_hit".into(), 8),
                ("a3_hot".into(), 32),
            ],
            stack: 1,
        },
        HeaderDef { name: "arr_c1_a4_t".into(), fields: vec![("value".into(), 32)], stack: w },
    ];
    let parser = ParserDef {
        name: "IgParser".into(),
        states: vec![
            ParserState {
                name: "start".into(),
                extracts: vec!["hdr.ncl".into()],
                transition: Transition::Select {
                    selector: Expr::field(&["hdr", "ncl", "comp"]),
                    cases: vec![(1, "parse_kv".into())],
                    default: "accept".into(),
                },
            },
            ParserState {
                name: "parse_kv".into(),
                extracts: vec!["hdr.args_c1".into(), "hdr.arr_c1_a4".into()],
                transition: Transition::Accept,
            },
        ],
    };

    let mut c = ControlDef { name: "Ig".into(), ..Default::default() };
    let idx = Expr::field(&["meta", "idx"]);
    c.locals.extend([
        ("idx".into(), 16),
        ("cached".into(), 1),
        ("share".into(), 16),
        ("valid".into(), 8),
        ("kh".into(), 32),
        ("h0".into(), 16),
        ("h1".into(), 16),
        ("h2".into(), 16),
        ("c0".into(), 32),
        ("c1".into(), 32),
        ("c2".into(), 32),
        ("b0".into(), 8),
        ("b1".into(), 8),
    ]);

    // The index MAT: key → slot (control-plane managed).
    c.actions.push(ActionDef {
        name: "set_idx".into(),
        params: vec![("i".into(), 16)],
        body: vec![Stmt::Assign(idx.clone(), Expr::field(&["i"]))],
    });
    c.tables.push(TableDef {
        name: "cache_index".into(),
        keys: vec![(Expr::field(&["hdr", "args_c1", "a1_k"]), MatchKind::Exact)],
        actions: vec!["set_idx".into()],
        entries: vec![],
        default_action: "NoAction".into(),
        size: cfg.slots,
    });

    // Registers.
    for (name, bits, size) in
        [("ShareR", 16, cfg.slots), ("ValidR", 8, cfg.slots), ("HitCountR", 32, cfg.slots)]
    {
        c.registers.push(RegisterDef { name: name.into(), elem_bits: bits, size });
    }
    for i in 0..w {
        c.registers.push(RegisterDef {
            name: format!("Val{i}").into(),
            elem_bits: 32,
            size: cfg.slots,
        });
    }
    for i in 0..3 {
        c.registers.push(RegisterDef { name: format!("Cms{i}").into(), elem_bits: 32, size: cols });
    }
    for i in 0..2 {
        c.registers.push(RegisterDef {
            name: format!("Bloom{i}").into(),
            elem_bits: 8,
            size: cols,
        });
    }

    // Register actions.
    let ra = |name: &str, reg: &str, rmw: AtomicRmw, ret_new: bool, operands: Vec<Expr>| {
        RegisterActionDef {
            name: name.into(),
            register: reg.into(),
            op: AtomicOp { rmw, cond: false, ret_new },
            cond: None,
            operands,
        }
    };
    c.register_actions.push(ra("share_read", "ShareR", AtomicRmw::Read, false, vec![]));
    c.register_actions.push(ra(
        "share_fill",
        "ShareR",
        AtomicRmw::Swap,
        false,
        vec![Expr::Const((1u64 << w) - 1, 16)],
    ));
    c.register_actions.push(ra("valid_read", "ValidR", AtomicRmw::Read, false, vec![]));
    c.register_actions.push(ra(
        "valid_set",
        "ValidR",
        AtomicRmw::Swap,
        false,
        vec![Expr::Const(1, 8)],
    ));
    c.register_actions.push(ra(
        "valid_clr",
        "ValidR",
        AtomicRmw::Swap,
        false,
        vec![Expr::Const(0, 8)],
    ));
    c.register_actions.push(ra("hit_inc", "HitCountR", AtomicRmw::Inc, false, vec![]));
    for i in 0..w {
        let vfield = Expr::field(&["hdr", &format!("arr_c1_a4[{i}]"), "value"]);
        c.register_actions.push(ra(
            &format!("val_read{i}"),
            &format!("Val{i}"),
            AtomicRmw::Read,
            false,
            vec![],
        ));
        c.register_actions.push(ra(
            &format!("val_write{i}"),
            &format!("Val{i}"),
            AtomicRmw::Swap,
            false,
            vec![vfield],
        ));
    }
    for i in 0..3 {
        c.register_actions.push(ra(
            &format!("cms_count{i}"),
            &format!("Cms{i}"),
            AtomicRmw::SAdd,
            true,
            vec![Expr::Const(1, 32)],
        ));
    }
    for i in 0..2 {
        c.register_actions.push(ra(
            &format!("bloom_set{i}"),
            &format!("Bloom{i}"),
            AtomicRmw::Swap,
            false,
            vec![Expr::Const(1, 8)],
        ));
    }

    // Hash engines over the folded key.
    for (name, algo) in
        [("HashA", HashKind::Xor16), ("HashB", HashKind::Crc32), ("HashC", HashKind::Crc16)]
    {
        c.hashes.push(HashDef { name: name.into(), algo, out_bits: 16 });
    }
    c.hashes.push(HashDef { name: "HashK".into(), algo: HashKind::Crc32, out_bits: 32 });

    let field = |p: &[&str]| Expr::field(p);
    let colmask = |e: Expr| {
        Expr::Bin(P4BinOp::And, Box::new(e), Box::new(Expr::Const((cols - 1) as u64, 16)))
    };

    // GET hit path.
    let mut get_hit: Vec<Stmt> =
        vec![Stmt::ExecuteRegisterAction { dst: None, ra: "hit_inc".into(), index: idx.clone() }];
    for i in 0..w {
        let vfield = Expr::field(&["hdr", &format!("arr_c1_a4[{i}]"), "value"]);
        get_hit.push(Stmt::If {
            cond: Expr::Bin(
                P4BinOp::Eq,
                Box::new(Expr::Slice(Box::new(field(&["meta", "share"])), i, i)),
                Box::new(Expr::Const(1, 1)),
            ),
            then: vec![Stmt::ExecuteRegisterAction {
                dst: Some(vfield),
                ra: format!("val_read{i}").into(),
                index: idx.clone(),
            }],
            els: vec![],
        });
    }
    get_hit.push(Stmt::Assign(field(&["hdr", "args_c1", "a2_hit"]), Expr::Const(1, 8)));
    get_hit.push(Stmt::Assign(field(&["hdr", "ncl", "action"]), Expr::Const(5, 8))); // reflect

    // Miss path: CMS + Bloom.
    let mut miss: Vec<Stmt> = vec![
        Stmt::HashGet {
            dst: field(&["meta", "kh"]),
            hash: "HashK".into(),
            args: vec![field(&["hdr", "args_c1", "a1_k"])],
        },
        Stmt::HashGet {
            dst: field(&["meta", "h0"]),
            hash: "HashA".into(),
            args: vec![field(&["meta", "kh"])],
        },
        Stmt::HashGet {
            dst: field(&["meta", "h1"]),
            hash: "HashB".into(),
            args: vec![field(&["meta", "kh"])],
        },
        Stmt::HashGet {
            dst: field(&["meta", "h2"]),
            hash: "HashC".into(),
            args: vec![field(&["meta", "kh"])],
        },
    ];
    for i in 0..3 {
        let h = field(&["meta", &format!("h{i}")]);
        miss.push(Stmt::ExecuteRegisterAction {
            dst: Some(field(&["meta", &format!("c{i}")])),
            ra: format!("cms_count{i}").into(),
            index: colmask(h),
        });
    }
    // min(c0, c1, c2) into c0.
    for i in 1..3 {
        miss.push(Stmt::If {
            cond: Expr::Bin(
                P4BinOp::Lt,
                Box::new(field(&["meta", &format!("c{i}")])),
                Box::new(field(&["meta", "c0"])),
            ),
            then: vec![Stmt::Assign(field(&["meta", "c0"]), field(&["meta", &format!("c{i}")]))],
            els: vec![],
        });
    }
    miss.push(Stmt::If {
        cond: Expr::Bin(
            P4BinOp::Gt,
            Box::new(field(&["meta", "c0"])),
            Box::new(Expr::Const(cfg.threshold as u64, 32)),
        ),
        then: vec![
            Stmt::ExecuteRegisterAction {
                dst: Some(field(&["meta", "b0"])),
                ra: "bloom_set0".into(),
                index: colmask(field(&["meta", "h0"])),
            },
            Stmt::ExecuteRegisterAction {
                dst: Some(field(&["meta", "b1"])),
                ra: "bloom_set1".into(),
                index: colmask(field(&["meta", "h2"])),
            },
            Stmt::If {
                cond: Expr::Bin(
                    P4BinOp::LOr,
                    Box::new(Expr::Bin(
                        P4BinOp::Eq,
                        Box::new(field(&["meta", "b0"])),
                        Box::new(Expr::Const(0, 8)),
                    )),
                    Box::new(Expr::Bin(
                        P4BinOp::Eq,
                        Box::new(field(&["meta", "b1"])),
                        Box::new(Expr::Const(0, 8)),
                    )),
                ),
                then: vec![Stmt::Assign(
                    field(&["hdr", "args_c1", "a3_hot"]),
                    field(&["meta", "c0"]),
                )],
                els: vec![],
            },
        ],
        els: vec![],
    });

    // PUT path.
    let mut put: Vec<Stmt> = vec![
        Stmt::ExecuteRegisterAction { dst: None, ra: "share_fill".into(), index: idx.clone() },
        Stmt::ExecuteRegisterAction { dst: None, ra: "valid_set".into(), index: idx.clone() },
    ];
    for i in 0..w {
        put.push(Stmt::ExecuteRegisterAction {
            dst: None,
            ra: format!("val_write{i}").into(),
            index: idx.clone(),
        });
    }

    let op = field(&["hdr", "args_c1", "a0_op"]);
    let get_body = vec![
        Stmt::ExecuteRegisterAction {
            dst: Some(field(&["meta", "share"])),
            ra: "share_read".into(),
            index: idx.clone(),
        },
        Stmt::ExecuteRegisterAction {
            dst: Some(field(&["meta", "valid"])),
            ra: "valid_read".into(),
            index: idx.clone(),
        },
        Stmt::If {
            cond: Expr::Bin(
                P4BinOp::LAnd,
                Box::new(Expr::Bin(
                    P4BinOp::Eq,
                    Box::new(field(&["meta", "cached"])),
                    Box::new(Expr::Const(1, 1)),
                )),
                Box::new(Expr::Bin(
                    P4BinOp::Eq,
                    Box::new(field(&["meta", "valid"])),
                    Box::new(Expr::Const(1, 8)),
                )),
            ),
            then: get_hit,
            els: miss,
        },
    ];

    let kernel = vec![
        Stmt::Assign(field(&["meta", "cached"]), Expr::Const(0, 1)),
        Stmt::If {
            cond: Expr::TableHit("cache_index".into()),
            then: vec![Stmt::Assign(field(&["meta", "cached"]), Expr::Const(1, 1))],
            els: vec![],
        },
        Stmt::If {
            cond: Expr::Bin(P4BinOp::Eq, Box::new(op.clone()), Box::new(Expr::Const(OP_GET, 8))),
            then: get_body,
            els: vec![Stmt::If {
                cond: Expr::Bin(
                    P4BinOp::LAnd,
                    Box::new(Expr::Bin(
                        P4BinOp::Eq,
                        Box::new(op.clone()),
                        Box::new(Expr::Const(OP_PUT, 8)),
                    )),
                    Box::new(Expr::Bin(
                        P4BinOp::Eq,
                        Box::new(field(&["meta", "cached"])),
                        Box::new(Expr::Const(1, 1)),
                    )),
                ),
                then: put,
                els: vec![Stmt::If {
                    cond: Expr::Bin(
                        P4BinOp::LAnd,
                        Box::new(Expr::Bin(
                            P4BinOp::Eq,
                            Box::new(op),
                            Box::new(Expr::Const(OP_DEL, 8)),
                        )),
                        Box::new(Expr::Bin(
                            P4BinOp::Eq,
                            Box::new(field(&["meta", "cached"])),
                            Box::new(Expr::Const(1, 1)),
                        )),
                    ),
                    then: vec![Stmt::ExecuteRegisterAction {
                        dst: None,
                        ra: "valid_clr".into(),
                        index: idx,
                    }],
                    els: vec![],
                }],
            }],
        },
    ];

    c.tables.push(TableDef {
        name: "l2_fwd".into(),
        keys: vec![(Expr::field(&["hdr", "ncl", "dst"]), MatchKind::Exact)],
        actions: vec![],
        entries: vec![],
        default_action: "NoAction".into(),
        size: 64,
    });
    c.apply = vec![
        Stmt::If { cond: device_guard(1), then: kernel, els: vec![] },
        Stmt::ApplyTable("l2_fwd".into()),
    ];

    P4Program {
        name: "cache_handwritten".into(),
        target: Target::Tna,
        headers: headers.into(),
        parser: Some(parser.into()),
        controls: vec![c].into(),
    }
}

/// Populates the handwritten program's cache directly (its register names
/// differ from the compiled module's).
pub fn populate_handwritten(
    sw: &mut Switch,
    cfg: &CacheConfig,
    slot: u16,
    key: u64,
    value: &[u64],
) {
    let entry = TableEntry {
        keys: vec![EntryKey::Value(key)],
        action: "set_idx".into(),
        args: vec![slot as u64],
    };
    sw.apply_update(&TableUpdate::new().insert("cache_index", entry))
        .expect("the handwritten program declares cache_index/set_idx");
    for (i, &v) in value.iter().enumerate() {
        sw.register_write(&format!("Val{i}"), slot as usize, v);
    }
    sw.register_write("ShareR", slot as usize, (1u64 << cfg.words) - 1);
    sw.register_write("ValidR", slot as usize, 1);
}

// ---------------------------------------------------------------------------
// End-to-end drivers: Fig. 14 (right) response time, and coherence
// ---------------------------------------------------------------------------

/// The KVS server's store: the values PUTs acknowledged, by key.
type Store = Arc<Mutex<BTreeMap<u64, Vec<u64>>>>;

/// The KVS server (host 2), the authority: a PUT updates the store, a GET
/// reads it — [`server_value`] for a key never written — and either is
/// answered with the key's value after `service_ns` (the host path that
/// dominates response time in the paper's testbed).
fn kvs_server(cfg: CacheConfig, service_ns: u64, store: Store) -> HostHandler {
    let s = spec(&cfg);
    let (mut op, mut k, mut v) = (Vec::new(), Vec::new(), Vec::new());
    Box::new(move |_now, ev, out: &mut Outbox| {
        let HostEvent::Message(bytes) = ev else { return };
        let Ok(msg) =
            unpack(bytes, &s, &mut [Some(&mut op), Some(&mut k), None, None, Some(&mut v)])
        else {
            return;
        };
        let mut store = store.lock().unwrap();
        match op[0] {
            OP_PUT => {
                store.insert(k[0], v.clone());
            }
            OP_GET => v = store.get(&k[0]).cloned().unwrap_or_else(|| server_value(&cfg, k[0])),
            _ => return,
        }
        let reply = Message::new(msg.dst, msg.src, 0, netcl_runtime::device::NO_DEVICE);
        let args = [Some(&op[..]), Some(&k[..]), Some(&[0][..]), Some(&[0][..]), Some(&v[..])];
        out.send(service_ns, pack(&reply, &s, &args).unwrap());
    })
}

/// Result of a response-time run.
#[derive(Debug)]
pub struct ResponseTimeResult {
    /// Mean response time in nanoseconds.
    pub mean_response_ns: f64,
    /// Fraction of queries answered by the switch.
    pub hit_rate: f64,
    /// Queries completed.
    pub completed: u64,
}

/// The Fig. 14 client's progress: queries issued (the first included),
/// when the outstanding one counts as sent, answers received, how many of
/// them the switch gave, and the sum of their response times.
#[derive(Default)]
struct Client {
    issued: u32,
    sent_at: u64,
    completed: u64,
    hits: u64,
    latency_ns: u64,
}

/// Runs `queries` closed-loop GETs over `total_keys` keys against
/// `program`, which `load_cache` has filled with the cached keys; the KVS
/// server takes 8 µs per miss. Returns mean response time and hit rate —
/// the Fig. 14 (right) series.
pub fn run_response_time(
    program: &P4Program,
    load_cache: impl Fn(&mut Switch),
    cfg: &CacheConfig,
    total_keys: u64,
    queries: u32,
    c: &Conditions,
) -> Run<ResponseTimeResult> {
    let s = spec(cfg);
    let client = Arc::new(Mutex::new(Client { issued: 1, ..Client::default() }));
    let cl = client.clone();
    let mut hit = Vec::new();
    let handler = Box::new(move |now: u64, ev: HostEvent, out: &mut Outbox| {
        let HostEvent::Message(bytes) = ev else { return };
        if unpack(bytes, &s, &mut [None, None, Some(&mut hit), None, None]).is_err() {
            return;
        }
        let mut cl = cl.lock().unwrap();
        cl.completed += 1;
        cl.hits += hit[0];
        cl.latency_ns += now - cl.sent_at;
        if cl.issued < queries {
            let key = cl.issued as u64 % total_keys;
            cl.issued += 1;
            cl.sent_at = now + 2000;
            let mut wire = Vec::new();
            request_into(&s, 1, 2, OP_GET, key, None, &mut wire);
            out.send(0, wire);
        }
    });

    let mut sw = Switch::new(program.clone());
    load_cache(&mut sw);
    let mut net = c
        .network(netcl_net::topo::star(1, &[1, 2], c.link))
        .device(1, sw, 700) // ns, per Fig. 13 scale
        .host(1, handler)
        .host(2, kvs_server(*cfg, 8_000, Store::default()))
        .build();
    net.send_from_host(1, 0, request(cfg, 1, 2, OP_GET, 0, None));
    net.run(c.max_events);

    let cl = client.lock().unwrap();
    let n = cl.completed.max(1) as f64;
    let result = ResponseTimeResult {
        mean_response_ns: cl.latency_ns as f64 / n,
        hit_rate: cl.hits as f64 / n,
        completed: cl.completed,
    };
    Run::of(result, &mut net)
}

/// The value the coherence client writes to `key` (distinct from the
/// initial [`server_value`], so a stale read is detectable).
fn written_value(cfg: &CacheConfig, key: u64) -> Vec<u64> {
    (0..cfg.words as u64).map(|i| (key.wrapping_mul(7) + 1000 + i) & 0xFFFF_FFFF).collect()
}

/// Result of a coherence run.
#[derive(Debug)]
pub struct CoherenceResult {
    /// Keys exercised (one PUT then one GET each).
    pub keys: u64,
    /// GETs completed (PUT acked, GET answered).
    pub completed: u64,
    /// GET responses that did not return the last written value — the
    /// coherence violation count; must be 0.
    pub stale: u64,
}

/// The coherence run's control plane: caches every key the server holds a
/// write for, with the server's value — or, while it holds none, keys
/// `0..keys` with their initial values — so a switch never serves state
/// older than the server's.
fn repopulate(mm: &ManagedMemory, sw: &mut Switch, cfg: &CacheConfig, keys: u64, store: &Store) {
    let store = store.lock().unwrap();
    if store.is_empty() {
        for k in 0..keys {
            populate(mm, sw, cfg, k as u16, k, &server_value(cfg, k));
        }
    } else {
        for (&k, v) in store.iter() {
            populate(mm, sw, cfg, k as u16, k, v);
        }
    }
}

/// Runs a PUT-then-GET coherence workload on `device`'s program: the
/// client reliably PUTs each of `keys` keys once (the KVS server's reply is
/// the ack), then reliably GETs it and checks the response equals the
/// written value — whether the switch or the server answered. The driver's
/// control plane fills the cache at build time and again after every
/// device restart: each key the server holds a write for, with the
/// server's value, or — while it holds none — keys `0..keys` with their
/// initial values.
pub fn run_coherence(
    device: &CompiledDevice,
    cfg: &CacheConfig,
    keys: u64,
    c: &Conditions,
) -> Run<CoherenceResult> {
    let s = spec(cfg);
    let store = Store::default();

    // The client (host 1): PUT each key (reliable key `k<<1`), on first
    // PUT-ack GET it back (reliable key `k<<1|1`), check the value.
    let progress = Arc::new(Mutex::new((0u64, 0u64))); // (completed, stale)
    let progress_cl = progress.clone();
    let cfg_cl = *cfg;
    let mut rel = Reliable::new(RetryPolicy { base_rto_ns: 100_000, ..Default::default() });
    let (mut op, mut k, mut v, mut wire) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let client = Box::new(move |_now: u64, ev: HostEvent, out: &mut Outbox| match ev {
        HostEvent::Message(bytes) => {
            let Ok(_) =
                unpack(bytes, &s, &mut [Some(&mut op), Some(&mut k), None, None, Some(&mut v)])
            else {
                return;
            };
            let key = k[0];
            if op[0] == OP_PUT {
                if rel.ack_key(key << 1) {
                    request_into(&s, 1, 2, OP_GET, key, None, &mut wire);
                    rel.send((key << 1) | 1, &wire, out);
                }
            } else if op[0] == OP_GET && rel.ack_key((key << 1) | 1) {
                let mut st = progress_cl.lock().unwrap();
                st.0 += 1;
                if v != written_value(&cfg_cl, key) {
                    st.1 += 1;
                }
            }
        }
        HostEvent::Timer(token) => {
            if !rel.on_timer(token, out) {
                // Kickoff token: one reliable PUT per key.
                let key = token;
                let value = written_value(&cfg_cl, key);
                request_into(&s, 1, 2, OP_PUT, key, Some(&value), &mut wire);
                rel.send(key << 1, &wire, out);
            }
        }
    });

    let mm = ManagedMemory::new(&device.tna_ir);
    let mut sw = Switch::new(device.tna_p4.clone());
    repopulate(&mm, &mut sw, cfg, keys, &store);
    let (cfg_hook, store_hook) = (*cfg, store.clone());
    let mut net = c
        .network(netcl_net::topo::star(1, &[1, 2], c.link))
        .device(1, sw, 700)
        .host(1, client)
        .host(2, kvs_server(*cfg, 2_000, store))
        .on_restart(1, Box::new(move |sw| repopulate(&mm, sw, &cfg_hook, keys, &store_hook)))
        .build();
    for key in 0..keys {
        net.set_host_timer(1, key * 10_000, key);
    }
    net.run(c.max_events);

    let (completed, stale) = *progress.lock().unwrap();
    Run::of(CoherenceResult { keys, completed, stale }, &mut net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn tiny() -> CacheConfig {
        CacheConfig { slots: 16, words: 4, threshold: 8, sketch_cols: 256 }
    }

    #[test]
    fn compiles_and_fits() {
        let cfg = CacheConfig::default();
        let unit = compile("cache.ncl", &netcl_source(&cfg));
        let fit = netcl_tofino::fit(&unit.devices[0].tna_p4).unwrap_or_else(|e| panic!("{e}"));
        assert!(fit.stages_used <= 12, "CACHE uses {} stages", fit.stages_used);
        // Paper: generated CACHE needs extra stages vs handwritten (the
        // min-chain); both must fit.
        let hfit = netcl_tofino::fit(&handwritten(&cfg)).unwrap();
        assert!(hfit.stages_used <= fit.stages_used, "handwritten should be no deeper");
    }

    #[test]
    fn get_put_del_semantics() {
        let cfg = tiny();
        let unit = compile("cache.ncl", &netcl_source(&cfg));
        let mut sw = Switch::new(unit.devices[0].tna_p4.clone());
        let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
        let s = spec(&cfg);

        // Populate slot 3 with key 0xABCD.
        let val = server_value(&cfg, 0xABCD);
        populate(&mm, &mut sw, &cfg, 3, 0xABCD, &val);

        // GET hit: reflected with the value.
        let (pkt, out) = sw.process(&request(&cfg, 1, 2, OP_GET, 0xABCD, None)).unwrap();
        assert_eq!(pkt.get("ncl.action"), 5);
        let mut hit = Vec::new();
        let mut v = Vec::new();
        unpack(&out, &s, &mut [None, None, Some(&mut hit), None, Some(&mut v)]).unwrap();
        assert_eq!(hit[0], 1);
        assert_eq!(v, val);

        // DEL invalidates: next GET misses (passes to server).
        let (pkt, _) = sw.process(&request(&cfg, 1, 2, OP_DEL, 0xABCD, None)).unwrap();
        assert_eq!(pkt.get("ncl.action"), 0, "DEL passes through");
        let (pkt, out) = sw.process(&request(&cfg, 1, 2, OP_GET, 0xABCD, None)).unwrap();
        assert_eq!(pkt.get("ncl.action"), 0, "invalidated entry misses");
        let mut hit = Vec::new();
        unpack(&out, &s, &mut [None, None, Some(&mut hit), None, None]).unwrap();
        assert_eq!(hit[0], 0);

        // PUT revalidates with fresh words.
        let newval: Vec<u64> = (0..cfg.words as u64).map(|i| 100 + i).collect();
        sw.process(&request(&cfg, 1, 2, OP_PUT, 0xABCD, Some(&newval))).unwrap();
        let (pkt, out) = sw.process(&request(&cfg, 1, 2, OP_GET, 0xABCD, None)).unwrap();
        assert_eq!(pkt.get("ncl.action"), 5);
        let mut v = Vec::new();
        unpack(&out, &s, &mut [None, None, None, None, Some(&mut v)]).unwrap();
        assert_eq!(v, newval);
    }

    #[test]
    fn hot_key_reported_once() {
        let cfg = tiny();
        let unit = compile("cache.ncl", &netcl_source(&cfg));
        let mut sw = Switch::new(unit.devices[0].tna_p4.clone());
        let s = spec(&cfg);
        let mut hot_reports = 0;
        for _ in 0..(cfg.threshold + 8) {
            let (_, out) = sw.process(&request(&cfg, 1, 2, OP_GET, 777, None)).unwrap();
            let mut hot = Vec::new();
            unpack(&out, &s, &mut [None, None, None, Some(&mut hot), None]).unwrap();
            if hot[0] > 0 {
                hot_reports += 1;
            }
        }
        assert_eq!(hot_reports, 1, "Bloom filter deduplicates hot reports");
    }

    #[test]
    fn handwritten_matches_generated() {
        let cfg = tiny();
        let unit = compile("cache.ncl", &netcl_source(&cfg));
        let mut gen = Switch::new(unit.devices[0].tna_p4.clone());
        let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
        let mut hand = Switch::new(handwritten(&cfg));
        let s = spec(&cfg);
        let val = server_value(&cfg, 42);
        populate(&mm, &mut gen, &cfg, 0, 42, &val);
        populate_handwritten(&mut hand, &cfg, 0, 42, &val);

        for key in [42u64, 43, 42, 44, 42] {
            let req = request(&cfg, 1, 2, OP_GET, key, None);
            let (pg, og) = gen.process(&req).unwrap();
            let (ph, oh) = hand.process(&req).unwrap();
            assert_eq!(pg.get("ncl.action"), ph.get("ncl.action"), "key {key}");
            let mut vg = Vec::new();
            let mut vh = Vec::new();
            let mut hg = Vec::new();
            let mut hh = Vec::new();
            unpack(&og, &s, &mut [None, None, Some(&mut hg), None, Some(&mut vg)]).unwrap();
            unpack(&oh, &s, &mut [None, None, Some(&mut hh), None, Some(&mut vh)]).unwrap();
            assert_eq!(hg, hh, "hit flag for key {key}");
            assert_eq!(vg, vh, "value for key {key}");
        }
    }

    #[test]
    fn response_time_improves_with_cache_ratio() {
        let cfg = tiny();
        let unit = compile("cache.ncl", &netcl_source(&cfg));
        let program = unit.devices[0].tna_p4.clone();
        let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
        let total_keys = 8u64;

        let mut results = Vec::new();
        for cached in [0u64, 4, 8] {
            let load = |sw: &mut Switch| {
                for k in 0..cached {
                    populate(&mm, sw, &cfg, k as u16, k, &server_value(&cfg, k));
                }
            };
            let c = Conditions::default();
            results.push(run_response_time(&program, load, &cfg, total_keys, 24, &c).result);
        }
        assert!(results[0].hit_rate < 0.01, "{:?}", results[0]);
        assert!(results[2].hit_rate > 0.99, "{:?}", results[2]);
        // Fig. 14 right: all-hit response time well below all-miss.
        assert!(
            results[2].mean_response_ns * 2.0 < results[0].mean_response_ns,
            "all-hit {} vs all-miss {}",
            results[2].mean_response_ns,
            results[0].mean_response_ns
        );
        // Monotone improvement.
        assert!(results[1].mean_response_ns < results[0].mean_response_ns);
    }
}
