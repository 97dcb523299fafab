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
use std::fmt::Write;
use std::sync::{Arc, Mutex};

use netcl::CompiledDevice;
use netcl_bmv2::{Switch, TableUpdate};
use netcl_net::{HostEvent, HostHandler, Outbox};
use netcl_p4::ast::{EntryKey, P4Program, TableEntry};
use netcl_runtime::managed::ManagedMemory;
use netcl_runtime::message::{pack, pack_into, unpack, Message};
use netcl_runtime::reliable::{Reliable, RetryPolicy};
use netcl_sema::model::{LookupEntry, Specification};

use crate::{Conditions, Run, L2_FWD, PRELUDE};

/// GET opcode.
pub const OP_GET: u64 = 1;
/// PUT opcode.
pub const OP_PUT: u64 = 2;
/// DEL opcode.
pub(crate) const OP_DEL: u64 = 3;

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

/// Populates cache slot `slot` with `key` through `mm` — what the NetCache
/// controller does when the server reports a hot key. A handle scoped to a
/// tenant ([`ManagedMemory::for_tenant`]) populates that tenant's CACHE on
/// a merged switch.
pub fn populate(
    mm: &ManagedMemory,
    sw: &mut Switch,
    cfg: &CacheConfig,
    slot: u16,
    key: u64,
    value: &[u64],
) {
    let index = mm.build_insert(sw, "index", &LookupEntry::Exact { key, value: slot as u64 });
    sw.apply_update(&index.unwrap()).unwrap();
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
    crate::baseline("cache_handwritten", &handwritten_source(cfg))
}

/// The text of [`handwritten`]: one `Val{i}` register, its two
/// RegisterActions and their two calls per value word.
pub(crate) fn handwritten_source(cfg: &CacheConfig) -> String {
    let CacheConfig { slots, words, threshold, sketch_cols } = *cfg;
    let (full, col_mask) = ((1u64 << words) - 1, sketch_cols - 1);
    let (mut registers, mut actions) = (String::new(), String::new());
    let (mut reads, mut writes) = (String::new(), String::new());
    for i in 0..words {
        let _ = writeln!(registers, "    Register<bit<32>, bit<32>>({slots}) Val{i};");
        let _ = write!(
            actions,
            r#"    RegisterAction<bit<32>, bit<32>, bit<32>>(Val{i}) val_read{i} = {{
        void apply(inout bit<32> m, out bit<32> o) {{
            o = m;
        }}
    }};
    RegisterAction<bit<32>, bit<32>, bit<32>>(Val{i}) val_write{i} = {{
        void apply(inout bit<32> m, out bit<32> o) {{
            o = m;
            m = hdr.arr_c1_a4[{i}].value;
        }}
    }};
"#
        );
        let _ = write!(
            reads,
            r#"                    if (((meta.share)[{i}:{i}] == 1w1)) {{
                        hdr.arr_c1_a4[{i}].value = val_read{i}.execute(meta.idx);
                    }}
"#
        );
        let _ = writeln!(writes, "                    val_write{i}.execute(meta.idx);");
    }
    format!(
        r#"{PRELUDE}header args_c1_t {{
    bit<8> a0_op;
    bit<64> a1_k;
    bit<8> a2_hit;
    bit<32> a3_hot;
}}

header arr_c1_a4_t {{
    bit<32> value;
}}

struct headers_t {{
    ncl_t ncl;
    args_c1_t args_c1;
    arr_c1_a4_t[{words}] arr_c1_a4;
}}

parser IgParser(packet_in pkt, out headers_t hdr) {{
    state start {{
        pkt.extract(hdr.ncl);
        transition select(hdr.ncl.comp) {{
            1: parse_kv;
            default: accept;
        }}
    }}
    state parse_kv {{
        pkt.extract(hdr.args_c1);
        pkt.extract(hdr.arr_c1_a4);
        transition accept;
    }}
}}

control Ig(inout headers_t hdr, inout metadata_t meta) {{
    bit<16> idx;
    bit<1> cached;
    bit<16> share;
    bit<8> valid;
    bit<32> kh;
    bit<16> h0;
    bit<16> h1;
    bit<16> h2;
    bit<32> c0;
    bit<32> c1;
    bit<32> c2;
    bit<8> b0;
    bit<8> b1;
    Register<bit<16>, bit<32>>({slots}) ShareR;
    Register<bit<8>, bit<32>>({slots}) ValidR;
    Register<bit<32>, bit<32>>({slots}) HitCountR;
{registers}    Register<bit<32>, bit<32>>({sketch_cols}) Cms0;
    Register<bit<32>, bit<32>>({sketch_cols}) Cms1;
    Register<bit<32>, bit<32>>({sketch_cols}) Cms2;
    Register<bit<8>, bit<32>>({sketch_cols}) Bloom0;
    Register<bit<8>, bit<32>>({sketch_cols}) Bloom1;
    RegisterAction<bit<16>, bit<32>, bit<16>>(ShareR) share_read = {{
        void apply(inout bit<16> m, out bit<16> o) {{
            o = m;
        }}
    }};
    RegisterAction<bit<16>, bit<32>, bit<16>>(ShareR) share_fill = {{
        void apply(inout bit<16> m, out bit<16> o) {{
            o = m;
            m = 16w{full};
        }}
    }};
    RegisterAction<bit<8>, bit<32>, bit<8>>(ValidR) valid_read = {{
        void apply(inout bit<8> m, out bit<8> o) {{
            o = m;
        }}
    }};
    RegisterAction<bit<8>, bit<32>, bit<8>>(ValidR) valid_set = {{
        void apply(inout bit<8> m, out bit<8> o) {{
            o = m;
            m = 8w1;
        }}
    }};
    RegisterAction<bit<8>, bit<32>, bit<8>>(ValidR) valid_clr = {{
        void apply(inout bit<8> m, out bit<8> o) {{
            o = m;
            m = 8w0;
        }}
    }};
    RegisterAction<bit<32>, bit<32>, bit<32>>(HitCountR) hit_inc = {{
        void apply(inout bit<32> m, out bit<32> o) {{
            o = m;
            m = m + 1;
        }}
    }};
{actions}    RegisterAction<bit<32>, bit<32>, bit<32>>(Cms0) cms_count0 = {{
        void apply(inout bit<32> m, out bit<32> o) {{
            m = m |+| 32w1;
            o = m;
        }}
    }};
    RegisterAction<bit<32>, bit<32>, bit<32>>(Cms1) cms_count1 = {{
        void apply(inout bit<32> m, out bit<32> o) {{
            m = m |+| 32w1;
            o = m;
        }}
    }};
    RegisterAction<bit<32>, bit<32>, bit<32>>(Cms2) cms_count2 = {{
        void apply(inout bit<32> m, out bit<32> o) {{
            m = m |+| 32w1;
            o = m;
        }}
    }};
    RegisterAction<bit<8>, bit<32>, bit<8>>(Bloom0) bloom_set0 = {{
        void apply(inout bit<8> m, out bit<8> o) {{
            o = m;
            m = 8w1;
        }}
    }};
    RegisterAction<bit<8>, bit<32>, bit<8>>(Bloom1) bloom_set1 = {{
        void apply(inout bit<8> m, out bit<8> o) {{
            o = m;
            m = 8w1;
        }}
    }};
    Hash<bit<16>>(HashAlgorithm_t.XOR16) HashA;
    Hash<bit<16>>(HashAlgorithm_t.CRC32) HashB;
    Hash<bit<16>>(HashAlgorithm_t.CRC16) HashC;
    Hash<bit<32>>(HashAlgorithm_t.CRC32) HashK;
    action set_idx(bit<16> i) {{
        meta.idx = i;
    }}
    table cache_index {{
        key = {{ hdr.args_c1.a1_k : exact }}
        actions = {{ set_idx; NoAction; }}
        default_action = NoAction();
        size = {slots};
    }}
{L2_FWD}    apply {{
        if ((hdr.ncl.isValid() && (hdr.ncl.to == 16w1))) {{
            meta.cached = 1w0;
            if (cache_index.apply().hit) {{
                meta.cached = 1w1;
            }}
            if ((hdr.args_c1.a0_op == 8w{OP_GET})) {{
                meta.share = share_read.execute(meta.idx);
                meta.valid = valid_read.execute(meta.idx);
                if (((meta.cached == 1w1) && (meta.valid == 8w1))) {{
                    hit_inc.execute(meta.idx);
{reads}                    hdr.args_c1.a2_hit = 8w1;
                    hdr.ncl.action = 8w5;
                }} else {{
                    meta.kh = HashK.get({{hdr.args_c1.a1_k}});
                    meta.h0 = HashA.get({{meta.kh}});
                    meta.h1 = HashB.get({{meta.kh}});
                    meta.h2 = HashC.get({{meta.kh}});
                    meta.c0 = cms_count0.execute((meta.h0 & 16w{col_mask}));
                    meta.c1 = cms_count1.execute((meta.h1 & 16w{col_mask}));
                    meta.c2 = cms_count2.execute((meta.h2 & 16w{col_mask}));
                    if ((meta.c1 < meta.c0)) {{
                        meta.c0 = meta.c1;
                    }}
                    if ((meta.c2 < meta.c0)) {{
                        meta.c0 = meta.c2;
                    }}
                    if ((meta.c0 > 32w{threshold})) {{
                        meta.b0 = bloom_set0.execute((meta.h0 & 16w{col_mask}));
                        meta.b1 = bloom_set1.execute((meta.h2 & 16w{col_mask}));
                        if (((meta.b0 == 8w0) || (meta.b1 == 8w0))) {{
                            hdr.args_c1.a3_hot = meta.c0;
                        }}
                    }}
                }}
            }} else {{
                if (((hdr.args_c1.a0_op == 8w{OP_PUT}) && (meta.cached == 1w1))) {{
                    share_fill.execute(meta.idx);
                    valid_set.execute(meta.idx);
{writes}                }} else {{
                    if (((hdr.args_c1.a0_op == 8w{OP_DEL}) && (meta.cached == 1w1))) {{
                        valid_clr.execute(meta.idx);
                    }}
                }}
            }}
        }}
        l2_fwd.apply();
    }}
}}

"#
    )
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
    Run::of(CoherenceResult { completed, stale }, &mut net)
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
