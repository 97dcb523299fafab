//! `allreduce_agg` and `kv_cache_mixed`: one switch, closed-loop hosts. The
//! topology is a star, so what the simulator does is run host handlers and
//! the two heaviest kernels — the application-level workloads of Fig. 14.

use crate::chain;
use crate::harness::{Alternation, Harness};
use crate::metrics::LayerSamples;
use crate::sim::{self, Stopwatches};
use crate::spans::Spans;
use netcl::sema::model::Specification;
use netcl_apps::{agg, cache};
use netcl_net::topo::{star, LinkSpec};
use netcl_net::{
    HostEvent, HostHandler, Network, NetworkBuilder, NodeId, Outbox, WorkloadRng, Zipf,
};
use netcl_runtime::device::NO_DEVICE;
use netcl_runtime::managed::ManagedMemory;
use netcl_runtime::message::{pack, unpack, Message};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SWITCH: u16 = 1;

/// Nanoseconds per `pack` and per `unpack` of one of the workload's own
/// messages, replayed stand-alone `n` times.
fn wire_format_ns(spec: &Specification, args: &[Option<&[u64]>], n: usize) -> (f64, f64) {
    let m = Message::new(1, 2, 1, SWITCH);
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(pack(&m, spec, std::hint::black_box(args)).expect("packs"));
    }
    let pack_ns = start.elapsed().as_nanos() as f64 / n as f64;
    let wire = pack(&m, spec, args).expect("packs");
    let mut outs: Vec<Vec<u64>> = vec![Vec::new(); args.len()];
    let start = Instant::now();
    for _ in 0..n {
        let mut slots: Vec<Option<&mut Vec<u64>>> = outs.iter_mut().map(Some).collect();
        std::hint::black_box(
            unpack(std::hint::black_box(&wire), spec, &mut slots).expect("unpacks"),
        );
    }
    (pack_ns, start.elapsed().as_nanos() as f64 / n as f64)
}

/// The shared loop of both workloads: set up afresh, run, gate — every
/// repeat — and file the samples. `setup` builds the network (and whatever
/// the gate needs); `gate` judges a finished run and returns its
/// simulated-time results as `(metric, value)` pairs.
fn drive<S>(
    h: &mut Harness,
    ops: u64,
    setup: impl Fn(&mut Spans, Option<&Stopwatches>) -> Result<(Network, S), String>,
    gate: impl Fn(&mut Harness, &Network, S) -> Vec<(&'static str, f64)>,
    wire_format: impl Fn() -> (f64, f64),
) {
    // `None` when set-up failed, which a gate has then counted.
    let one_repeat = |h: &mut Harness, traced: bool, layers: &mut LayerSamples| {
        let watches = traced.then(Stopwatches::default);
        let (mut net, state) = match h.setup(|spans| setup(spans, watches.as_ref())) {
            Ok(built) => built,
            Err(e) => {
                eprintln!("{e}");
                h.gate("set-up", 1, 1);
                return None;
            }
        };
        let ran = sim::run(h, &mut net, &[SWITCH], watches.as_ref(), layers, ops);
        Some((ran, gate(h, &net, state)))
    };

    let mut layers = LayerSamples::default();
    let mut warmed = false;
    h.warm_up(|h| warmed = one_repeat(h, false, &mut layers).is_some());
    if !warmed {
        return;
    }
    let mut alternation = Alternation::new(h.trace);
    while h.keep_measuring() {
        let traced = alternation.next_is_traced();
        let Some((ran, results)) = one_repeat(h, traced, &mut layers) else { return };
        if !alternation.record(traced, ran.took.ref_s) {
            continue;
        }
        h.work(ran.stats.events as f64, ran.took);
        if traced {
            for (metric, value) in results {
                layers.push(metric, value);
            }
        }
    }
    if h.trace {
        layers.push("harness.trace_overhead", alternation.overhead());
        let (pack_ns, unpack_ns) = wire_format();
        layers.push("runtime.pack_ns", pack_ns);
        layers.push("runtime.unpack_ns", unpack_ns);
        layers.file(&mut h.report);
    }
}

pub fn run_allreduce(h: &mut Harness) {
    let cfg = agg::AggConfig { num_workers: 8, num_slots: 16, slot_size: 32 };
    let chunks: u32 = h.sized(10_000, 500);
    let seed = h.seed;
    let replays = h.sized(100_000, 5_000);
    let worker = |w: u32| 100 + w;

    let setup = |spans: &mut Spans, watches: Option<&Stopwatches>| {
        let built = chain::build(spans, &chain::compiler(), "agg.ncl", &agg::netcl_source(&cfg))?;
        let dev = &built.devices[0];
        let switch = chain::load(spans, &dev.program);
        let link = LinkSpec::default();
        let workers: Vec<u32> = (0..cfg.num_workers).map(worker).collect();
        let mut topo = spans.leaf("net.topology", || star(SWITCH, &workers, link));
        topo.multicast_group(42, workers.iter().map(|&w| NodeId::Host(w)).collect());
        let states: Vec<_> = (0..cfg.num_workers)
            .map(|_| Arc::new(Mutex::new(agg::WorkerState::default())))
            .collect();
        let build = spans.enter("net.build");
        let mut b = NetworkBuilder::new(topo).device(SWITCH, switch, dev.latency_ns()).seed(seed);
        for (w, state) in states.iter().enumerate() {
            let handler = agg::worker_handler(
                cfg,
                w as u32,
                chunks,
                agg::slot_guard_ns(&link),
                state.clone(),
            );
            b = b.host(worker(w as u32), sim::host(handler, watches));
        }
        let mut net = b.build();
        spans.exit(build);
        // Kick-off: every worker fills its window of 16 slots, at seeded
        // offsets; from there each result releases the slot's next chunk.
        let mut rng = WorkloadRng::new(seed ^ 0xA66);
        for (w, state) in states.iter().enumerate() {
            for c in 0..cfg.num_slots.min(chunks) {
                net.set_host_timer(worker(w as u32), rng.below(1_000), c as u64);
                state.lock().expect("no handler ran yet").inflight.insert(c % cfg.num_slots, c);
            }
        }
        Ok((net, states))
    };

    let gate = |h: &mut Harness, net: &Network, states: Vec<Arc<Mutex<agg::WorkerState>>>| {
        let mut wrong = 0;
        let mut retransmits = 0;
        for c in 0..chunks {
            let want: Vec<u64> = (0..cfg.slot_size).map(|i| agg::expected(&cfg, c, i)).collect();
            for state in &states {
                let state = state.lock().expect("handlers do not panic");
                wrong += (state.results.get(&c) != Some(&want)) as u64;
            }
        }
        for state in &states {
            retransmits += state.lock().expect("handlers do not panic").retransmits;
        }
        h.gate(
            "allreduce: every worker holds every chunk's sum",
            (chunks * cfg.num_workers) as u64,
            wrong,
        );
        // Aggregated tensor elements per simulated second per worker.
        let ate = (chunks * cfg.slot_size) as f64 / (net.now().max(1) as f64 / 1e9);
        vec![("sim.agg_ate_per_s_per_worker", ate), ("runtime.retransmits", retransmits as f64)]
    };

    let wire_format = || {
        let values: Vec<u64> = (0..cfg.slot_size).map(|i| agg::element(0, 0, i)).collect();
        let args: [&[u64]; 6] = [&[0], &[0], &[0], &[1], &[3], &values];
        wire_format_ns(&agg::spec(&cfg), &args.map(Some), replays)
    };
    drive(h, (chunks * cfg.num_workers) as u64, setup, gate, wire_format);
}

/// One client's view of the store, shared with the gate.
#[derive(Default)]
struct Client {
    /// Requests answered so far.
    completed: u64,
    /// The request in flight: `(op, key, PUT value, sent at)`.
    outstanding: Option<(u64, u64, Vec<u64>, u64)>,
    /// This client's last acknowledged PUT per key.
    written: HashMap<u64, Vec<u64>>,
    /// GETs that returned something other than the last PUT (or, without
    /// one, the server's initial value), and hits on keys never cached.
    stale: u64,
    false_hits: u64,
    hit_ns: (u64, u64),
    miss_ns: (u64, u64),
}

const CLIENTS: u64 = 4;
const SERVER: u32 = 10;
/// Keys in the store; the `CACHED` most popular are in the switch.
const KEYS: usize = 1024;
const CACHED: u64 = 64;
/// KVS server processing time per request, simulated ns.
const SERVICE_NS: u64 = 8_000;

pub fn run_kv(h: &mut Harness) {
    let cfg = cache::CacheConfig::default();
    let ops_per_client: u64 = h.sized(40_000, 1_250);
    let seed = h.seed;
    let replays = h.sized(100_000, 5_000);
    let spec = cache::spec(&cfg);

    // Client `c` owns the keys ≡ c (mod 4), draws Zipf(0.99) ranks over the
    // whole key space and maps each to its own class, PUTs one request in
    // ten and keeps one request outstanding.
    let client_handler = |c: u64, state: Arc<Mutex<Client>>| -> HostHandler {
        let mut rng = WorkloadRng::new(seed ^ (0xC11E + c));
        let zipf = Zipf::new(KEYS, 0.99);
        let spec = spec.clone();
        let mut next_request = move |state: &mut Client, now: u64| {
            let key = (zipf.sample(&mut rng) - 1) / CLIENTS * CLIENTS + c;
            let (op, value) = if rng.below(10) == 0 {
                let v: Vec<u64> = (0..cfg.words).map(|_| rng.next_u64() & 0xFFFF_FFFF).collect();
                (cache::OP_PUT, v)
            } else {
                (cache::OP_GET, Vec::new())
            };
            let put = (op == cache::OP_PUT).then_some(value.as_slice());
            let wire = cache::request(&cfg, 1 + c as u16, SERVER as u16, op, key, put);
            state.outstanding = Some((op, key, value, now));
            wire
        };
        Box::new(move |now, ev, out: &mut Outbox| {
            let mut st = state.lock().expect("handlers do not panic");
            if let HostEvent::Message(bytes) = ev {
                let (mut k, mut hit, mut v) = (Vec::new(), Vec::new(), Vec::new());
                let args = &mut [None, Some(&mut k), Some(&mut hit), None, Some(&mut v)];
                let Some((op, key, value, sent)) = st.outstanding.take() else { return };
                if unpack(&bytes, &spec, args).is_err() || k[0] != key {
                    st.stale += 1;
                } else if op == cache::OP_PUT {
                    st.written.insert(key, value);
                } else {
                    let fresh = match st.written.get(&key) {
                        Some(written) => v == *written,
                        None => v == cache::server_value(&cfg, key),
                    };
                    st.stale += !fresh as u64;
                    st.false_hits += (hit[0] == 1 && key >= CACHED) as u64;
                    let bucket = if hit[0] == 1 { &mut st.hit_ns } else { &mut st.miss_ns };
                    *bucket = (bucket.0 + (now - sent), bucket.1 + 1);
                }
                st.completed += 1;
            }
            // A timer is the kick-off; a message releases the next request.
            if st.completed < ops_per_client {
                out.send(0, next_request(&mut st, now));
            }
        })
    };

    // The server stores PUT values and answers every request after its
    // service time; the reply is plain transit back through the switch.
    let server_handler = || -> HostHandler {
        let spec = spec.clone();
        let mut store: HashMap<u64, Vec<u64>> = HashMap::new();
        Box::new(move |_now, ev, out: &mut Outbox| {
            let HostEvent::Message(bytes) = ev else { return };
            let (mut op, mut k, mut v) = (Vec::new(), Vec::new(), Vec::new());
            let args = &mut [Some(&mut op), Some(&mut k), None, None, Some(&mut v)];
            let Ok(msg) = unpack(&bytes, &spec, args) else { return };
            if op[0] == cache::OP_PUT {
                store.insert(k[0], v);
            }
            let value =
                store.get(&k[0]).cloned().unwrap_or_else(|| cache::server_value(&cfg, k[0]));
            let reply = Message::new(msg.dst, msg.src, 0, NO_DEVICE);
            let args =
                [Some(&op[..]), Some(&k[..]), Some(&[0][..]), Some(&[0][..]), Some(&value[..])];
            out.send(SERVICE_NS, pack(&reply, &spec, &args).expect("a reply packs"));
        })
    };

    let setup = |spans: &mut Spans, watches: Option<&Stopwatches>| {
        let built =
            chain::build(spans, &chain::compiler(), "cache.ncl", &cache::netcl_source(&cfg))?;
        let dev = &built.devices[0];
        let mut switch = chain::load(spans, &dev.program);
        // Control-plane populate: the 64 most popular keys, one per slot.
        let mm = ManagedMemory::new(&built.unit.devices[0].tna_ir);
        for key in 0..CACHED {
            cache::populate(
                &mm,
                &mut switch,
                &cfg,
                key as u16,
                key,
                &cache::server_value(&cfg, key),
            );
        }
        let hosts: Vec<u32> = (1..=CLIENTS as u32).chain([SERVER]).collect();
        let topo = spans.leaf("net.topology", || star(SWITCH, &hosts, LinkSpec::default()));
        let states: Vec<_> =
            (0..CLIENTS).map(|_| Arc::new(Mutex::new(Client::default()))).collect();
        let build = spans.enter("net.build");
        let mut b = NetworkBuilder::new(topo)
            .device(SWITCH, switch, dev.latency_ns())
            .seed(seed)
            .host(SERVER, sim::host(server_handler(), watches));
        for (c, state) in states.iter().enumerate() {
            b = b.host(1 + c as u32, sim::host(client_handler(c as u64, state.clone()), watches));
        }
        let mut net = b.build();
        spans.exit(build);
        for c in 0..CLIENTS {
            net.set_host_timer(1 + c as u32, c * 100, 0);
        }
        Ok((net, states))
    };

    let gate = |h: &mut Harness, _: &Network, states: Vec<Arc<Mutex<Client>>>| {
        let (mut hit, mut miss, mut bad, mut done) = ((0, 0), (0, 0), 0, 0);
        for state in &states {
            let st = state.lock().expect("handlers do not panic");
            hit = (hit.0 + st.hit_ns.0, hit.1 + st.hit_ns.1);
            miss = (miss.0 + st.miss_ns.0, miss.1 + st.miss_ns.1);
            bad += st.stale + st.false_hits;
            done += st.completed;
        }
        let ops = CLIENTS * ops_per_client;
        h.gate("kv: every request answered with the owner's last PUT", ops, bad + (ops - done));
        vec![
            ("sim.kv_get_hit_ns", hit.0 as f64 / hit.1.max(1) as f64),
            ("sim.kv_get_miss_ns", miss.0 as f64 / miss.1.max(1) as f64),
        ]
    };

    let wire_format = || {
        let value = cache::server_value(&cfg, 7);
        let args: [&[u64]; 5] = [&[cache::OP_PUT], &[7], &[0], &[0], &value];
        wire_format_ns(&spec, &args.map(Some), replays)
    };
    drive(h, CLIENTS * ops_per_client, setup, gate, wire_format);
}
