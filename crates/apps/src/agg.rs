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

use std::fmt::Write;
use std::sync::{Arc, Mutex};

use netcl_bmv2::Switch;
use netcl_net::{HostEvent, LinkSpec, NodeId, Outbox};
use netcl_p4::P4Program;
use netcl_runtime::message::{pack_into, unpack, Message};
use netcl_runtime::reliable::{Reliable, RetryPolicy};
use netcl_sema::model::Specification;

use crate::{Conditions, Run, L2_FWD, PRELUDE};

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
///
/// The decision MAT's entries reflect a retransmission to a completed slot
/// and multicast the contribution that completes one. As in SwitchML, the
/// counter and the decision come early in the pipe: the MAT depends only on
/// the counter, and the value lanes fill the later stages independently.
pub fn handwritten(cfg: &AggConfig) -> P4Program {
    crate::baseline("agg_handwritten", &handwritten_source(cfg))
}

/// The text of [`handwritten`]: one `Agg{i}` register, its two
/// RegisterActions and their two calls per value lane.
pub(crate) fn handwritten_source(cfg: &AggConfig) -> String {
    let (ns, lanes, last) = (cfg.num_slots, cfg.slot_size, cfg.num_workers - 1);
    let slots = 2 * ns;
    let (mut registers, mut actions) = (String::new(), String::new());
    let (mut writes, mut adds) = (String::new(), String::new());
    for i in 0..lanes {
        let _ = writeln!(registers, "    Register<bit<32>, bit<32>>({slots}) Agg{i};");
        let _ = write!(
            actions,
            r#"    RegisterAction<bit<32>, bit<32>, bit<32>>(Agg{i}) agg_write{i} = {{
        void apply(inout bit<32> m, out bit<32> o) {{
            o = m;
            m = hdr.arr_c1_a5[{i}].value;
        }}
    }};
    RegisterAction<bit<32>, bit<32>, bit<32>>(Agg{i}) agg_add{i} = {{
        void apply(inout bit<32> m, out bit<32> o) {{
            if ((meta.seen == 16w0)) {{
                m = m + hdr.arr_c1_a5[{i}].value;
            }}
            o = m;
        }}
    }};
"#
        );
        let _ = writeln!(writes, "                agg_write{i}.execute(hdr.args_c1.a2_agg_idx);");
        let _ = writeln!(
            adds,
            "                hdr.arr_c1_a5[{i}].value = agg_add{i}.execute(hdr.args_c1.a2_agg_idx);"
        );
    }
    format!(
        r#"{PRELUDE}header args_c1_t {{
    bit<8> a0_ver;
    bit<16> a1_bmp_idx;
    bit<16> a2_agg_idx;
    bit<16> a3_mask;
    bit<8> a4_exp;
}}

header arr_c1_a5_t {{
    bit<32> value;
}}

struct headers_t {{
    ncl_t ncl;
    args_c1_t args_c1;
    arr_c1_a5_t[{lanes}] arr_c1_a5;
}}

parser IgParser(packet_in pkt, out headers_t hdr) {{
    state start {{
        pkt.extract(hdr.ncl);
        transition select(hdr.ncl.comp) {{
            1: parse_agg;
            default: accept;
        }}
    }}
    state parse_agg {{
        pkt.extract(hdr.args_c1);
        pkt.extract(hdr.arr_c1_a5);
        transition accept;
    }}
}}

control Ig(inout headers_t hdr, inout metadata_t meta) {{
    bit<16> bitmap;
    bit<16> seen;
    bit<8> cnt;
    bit<8> decision;
    Register<bit<16>, bit<32>>({ns}) Bitmap0;
    Register<bit<16>, bit<32>>({ns}) Bitmap1;
{registers}    Register<bit<8>, bit<32>>({slots}) Count;
    Register<bit<8>, bit<32>>({slots}) ExpR;
    RegisterAction<bit<16>, bit<32>, bit<16>>(Bitmap0) bmp_set0 = {{
        void apply(inout bit<16> m, out bit<16> o) {{
            o = m;
            m = m | hdr.args_c1.a3_mask;
        }}
    }};
    RegisterAction<bit<16>, bit<32>, bit<16>>(Bitmap0) bmp_clr0 = {{
        void apply(inout bit<16> m, out bit<16> o) {{
            o = m;
            m = m & ~(hdr.args_c1.a3_mask);
        }}
    }};
    RegisterAction<bit<16>, bit<32>, bit<16>>(Bitmap1) bmp_set1 = {{
        void apply(inout bit<16> m, out bit<16> o) {{
            o = m;
            m = m | hdr.args_c1.a3_mask;
        }}
    }};
    RegisterAction<bit<16>, bit<32>, bit<16>>(Bitmap1) bmp_clr1 = {{
        void apply(inout bit<16> m, out bit<16> o) {{
            o = m;
            m = m & ~(hdr.args_c1.a3_mask);
        }}
    }};
{actions}    RegisterAction<bit<8>, bit<32>, bit<8>>(Count) count_reset = {{
        void apply(inout bit<8> m, out bit<8> o) {{
            o = m;
            m = 8w{last};
        }}
    }};
    RegisterAction<bit<8>, bit<32>, bit<8>>(Count) count_dec = {{
        void apply(inout bit<8> m, out bit<8> o) {{
            o = m;
            if ((meta.seen == 16w0)) {{
                m = m |-| 1;
            }}
        }}
    }};
    RegisterAction<bit<8>, bit<32>, bit<8>>(ExpR) exp_write = {{
        void apply(inout bit<8> m, out bit<8> o) {{
            o = m;
            m = hdr.args_c1.a4_exp;
        }}
    }};
    RegisterAction<bit<8>, bit<32>, bit<8>>(ExpR) exp_max = {{
        void apply(inout bit<8> m, out bit<8> o) {{
            if ((meta.seen == 16w0)) {{
                m = max(m, hdr.args_c1.a4_exp);
            }}
            o = m;
        }}
    }};
    action act_reflect() {{
        hdr.ncl.action = 8w5;
    }}
    action act_mcast() {{
        hdr.ncl.action = 8w4;
    }}
    action act_drop() {{
        hdr.ncl.action = 8w1;
    }}
    action set_mcast_target() {{
        hdr.ncl.target = 16w42;
    }}
    table slot_decision {{
        key = {{ meta.seen : ternary; meta.cnt : ternary }}
        actions = {{ act_reflect; act_mcast; act_drop; NoAction; }}
        default_action = act_drop();
        const entries = {{
            (1 .. 65535, 0) : act_reflect();
            (0, 1) : act_mcast();
        }}
        size = 4;
    }}
{L2_FWD}    apply {{
        if ((hdr.ncl.isValid() && (hdr.ncl.to == 16w1))) {{
            if ((hdr.args_c1.a0_ver == 8w0)) {{
                meta.bitmap = bmp_set0.execute(hdr.args_c1.a1_bmp_idx);
                bmp_clr1.execute(hdr.args_c1.a1_bmp_idx);
            }} else {{
                bmp_clr0.execute(hdr.args_c1.a1_bmp_idx);
                meta.bitmap = bmp_set1.execute(hdr.args_c1.a1_bmp_idx);
            }}
            meta.seen = (meta.bitmap & hdr.args_c1.a3_mask);
            if ((meta.bitmap == 16w0)) {{
                exp_write.execute(hdr.args_c1.a2_agg_idx);
                count_reset.execute(hdr.args_c1.a2_agg_idx);
                hdr.ncl.action = 8w1;
{writes}            }} else {{
                hdr.args_c1.a4_exp = exp_max.execute(hdr.args_c1.a2_agg_idx);
                meta.cnt = count_dec.execute(hdr.args_c1.a2_agg_idx);
                slot_decision.apply();
                if ((hdr.ncl.action == 8w4)) {{
                    set_mcast_target();
                }}
{adds}            }}
        }}
        l2_fwd.apply();
    }}
}}

"#
    )
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

/// A map from a dense `u32` index (a chunk or a slot number) to `T`: one
/// `Option<T>` per index, so a lookup is an index and an entry costs
/// `size_of::<Option<T>>()` (24 B for a result's `Vec<u64>`), where a hash
/// table reserved for the same count holds the next power of two above
/// 8 / 7 of it in wider buckets. It keeps the call shapes of a map
/// (`get(&k)`, `insert(k, v)`, `contains_key(&k)`), so callers read it as
/// one.
#[derive(Debug)]
pub struct DenseMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for DenseMap<T> {
    fn default() -> Self {
        DenseMap { slots: Vec::new() }
    }
}

impl<T> DenseMap<T> {
    /// Reserves one block of exactly `len` slots for the indices `0..len`.
    /// The slots are written as the indices reach them, so a page of the
    /// block is touched when the first result on it arrives, as a hash
    /// table's buckets are.
    pub(crate) fn reserve_len(&mut self, len: u32) {
        self.slots.reserve_exact((len as usize).saturating_sub(self.slots.len()));
    }

    /// The value at `index`, if one is stored.
    pub fn get(&self, index: &u32) -> Option<&T> {
        self.slots.get(*index as usize)?.as_ref()
    }

    /// Whether a value is stored at `index`.
    pub(crate) fn contains_key(&self, index: &u32) -> bool {
        self.get(index).is_some()
    }

    /// Stores `value` at `index`, growing the map past its end if need be,
    /// and returns the value it replaces.
    pub fn insert(&mut self, index: u32, value: T) -> Option<T> {
        let at = index as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        self.slots[at].replace(value)
    }

    /// Takes the value at `index` out, if one is stored.
    pub(crate) fn remove(&mut self, index: &u32) -> Option<T> {
        self.slots.get_mut(*index as usize)?.take()
    }
}

/// Per-worker progress shared with the experiment driver. Chunk numbers
/// are dense (`0..total_chunks`) and so are slot numbers (`0..num_slots`):
/// [`worker_handler`] sizes each store once, and every lookup is an index.
#[derive(Debug, Default)]
pub struct WorkerState {
    /// Chunks whose aggregate this worker has received.
    pub(crate) completed: Vec<u32>,
    /// Received aggregates (chunk → values).
    pub results: DenseMap<Vec<u64>>,
    /// Received max-exponent per chunk, one byte each (`bit<8>` on the
    /// wire); 0, or past the end, until the chunk's result arrives.
    pub(crate) exps: Vec<u8>,
    /// Retransmissions sent.
    pub retransmits: u64,
    /// Outstanding chunk per slot.
    pub inflight: DenseMap<u32>,
    /// When the last result arrived (simulated ns).
    pub(crate) last_result_ns: u64,
}

impl WorkerState {
    /// Reserves room for `total_chunks` results and `num_slots` slots,
    /// each store one block of exactly that size.
    fn reserve(&mut self, total_chunks: u32, num_slots: u32) {
        self.results.reserve_len(total_chunks);
        self.inflight.reserve_len(num_slots);
        self.exps.reserve_exact((total_chunks as usize).saturating_sub(self.exps.len()));
    }

    /// Records `chunk`'s aggregate: its values, its exponent, its place in
    /// `completed`. A duplicate overwrites the earlier result.
    fn record(&mut self, chunk: u32, values: Vec<u64>, exp: u8) {
        let at = chunk as usize;
        if at >= self.exps.len() {
            self.exps.resize(at + 1, 0);
        }
        self.exps[at] = exp;
        self.results.insert(chunk, values);
        self.completed.push(chunk);
    }
}

/// Releases `results` newest first, then the slot vectors (the fields, in
/// order). The last results are among the last blocks a run allocated, at
/// the top of the heap, and the first of them freed stay in glibc's
/// per-thread cache, which counts as in use: the heap's top stays put, and
/// the next run reuses the memory below it instead of glibc handing it back
/// and the run faulting it in again (DESIGN.md §18).
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
pub(crate) const RTO_NS: u64 = 400_000;

/// Quiet period between acknowledging a chunk and reusing its slot for the
/// next one. The switch's alternating-bit slot scheme is safe only when a
/// worker's packets arrive in order; a reordered stale copy of the previous
/// chunk arriving after the new version has started would clear the
/// worker's bit in the live bitmap and let a duplicate double-add. Waiting
/// out the network's maximum packet lifetime (transit + jitter + reorder
/// hold-back, cf. TCP's TIME_WAIT) before reusing the slot drains those
/// copies. Must exceed the deployment's reorder horizon and stay below
/// [`RTO_NS`].
pub(crate) const SLOT_REUSE_GUARD_NS: u64 = 100_000;

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
    state.lock().unwrap().reserve(total_chunks, cfg.num_slots);
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
                st.record(chunk, values, exp[0] as u8);
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

    /// A worker's store sized for 4 chunks and 2 slots, as
    /// [`worker_handler`] sizes it.
    fn sized_state() -> WorkerState {
        let mut st = WorkerState::default();
        st.reserve(4, 2);
        st
    }

    #[test]
    fn dense_store_reads_none_where_nothing_arrived() {
        let mut st = sized_state();
        st.record(1, vec![7; 3], 5);
        assert_eq!(st.results.get(&0), None, "an unreceived chunk");
        assert_eq!(st.results.get(&4), None, "one past total_chunks");
        assert_eq!(st.results.get(&u32::MAX), None);
        assert!(!st.results.contains_key(&3) && st.results.contains_key(&1));
        assert_eq!(st.inflight.get(&2), None, "one past num_slots");
        assert_eq!(st.exps, [0, 5]);
    }

    #[test]
    fn dense_store_reads_back_out_of_order_inserts() {
        let mut st = sized_state();
        for (chunk, exp) in [(3, 9), (0, 1), (2, 4)] {
            st.record(chunk, vec![chunk as u64; 2], exp);
        }
        st.inflight.insert(1, 3);
        st.inflight.insert(0, 2);
        for chunk in [0, 2, 3] {
            assert_eq!(st.results.get(&chunk), Some(&vec![chunk as u64; 2]));
        }
        assert_eq!(st.results.get(&1), None);
        assert_eq!(st.exps, [1, 0, 4, 9]);
        assert_eq!(st.completed, [3, 0, 2]);
        assert_eq!((st.inflight.get(&0), st.inflight.get(&1)), (Some(&2), Some(&3)));
        // Past the sized end the store grows instead of dropping the value.
        st.record(6, vec![6], 2);
        assert_eq!((st.results.get(&6), st.exps.get(6)), (Some(&vec![6]), Some(&2)));
    }

    #[test]
    fn dense_store_duplicate_overwrites() {
        let mut st = sized_state();
        st.record(2, vec![1, 2], 3);
        st.record(2, vec![4, 5], 6);
        assert_eq!((st.results.get(&2), st.exps[2]), (Some(&vec![4, 5]), 6));
        assert_eq!(st.inflight.insert(0, 2), None);
        assert_eq!(st.inflight.insert(0, 4), Some(2));
        assert_eq!(st.inflight.remove(&0), Some(4));
        assert_eq!(st.inflight.get(&0), None);
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
            assert_eq!(st.exps.first(), Some(&2), "{st:?}");
        }
    }
}
