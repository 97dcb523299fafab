//! `switch_replay`: the bare data plane. Four applications' packet mixes
//! through one long-lived `Switch` each with `process_batch` — no
//! simulator, no hosts.

use crate::alloc::Snapshot;
use crate::chain;
use crate::harness::{Harness, MIN_SAMPLES};
use crate::metrics::{LayerSamples, REPLAY_APPS};
use crate::spans::Spans;
use crate::stats::geomean;
use netcl_apps::{agg, cache, calc, paxos};
use netcl_bmv2::{Engine, PacketBatch, Switch, DEFAULT_BATCH};
use netcl_net::WorkloadRng;
use netcl_runtime::managed::ManagedMemory;
use netcl_runtime::message::{pack, Message};
use std::time::Instant;

/// Distinct packets per application, cycled: 15 batches of 256. For AGG
/// that is 20 full turns of the 16 slots × 2 versions × 6 workers, so the
/// cycle restarts on the slot version the protocol expects next.
const MIX: usize = 15 * DEFAULT_BATCH;
/// Populated CACHE slots (all of the default configuration's).
const CACHED_KEYS: u64 = 64;

struct App {
    name: &'static str,
    switch: Switch,
    wires: Vec<Vec<u8>>,
    batches: Vec<PacketBatch>,
    /// The batch of the mix the replay continues with.
    cursor: usize,
}

fn words(rng: &mut WorkloadRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64() & 0xFFFF_FFFF).collect()
}

/// Compiles, loads and populates application `name` and draws its mix.
fn build_app(spans: &mut Spans, name: &'static str, seed: u64) -> Result<App, String> {
    let cc = chain::compiler();
    let mut rng = WorkloadRng::new(seed ^ 0x5EED ^ name.len() as u64);
    let (switch, wires): (Switch, Vec<Vec<u8>>) = match name {
        "calc" => {
            let built = chain::build(spans, &cc, "calc.ncl", &calc::netcl_source())?;
            let ops = [calc::OP_ADD, calc::OP_SUB, calc::OP_AND, calc::OP_OR, calc::OP_XOR];
            let wires = (0..MIX)
                .map(|_| {
                    let w = words(&mut rng, 2);
                    calc::request(7, ops[rng.below(5) as usize], w[0], w[1])
                })
                .collect();
            (chain::load(spans, &built.devices[0].program), wires)
        }
        "agg" => {
            let cfg = agg::AggConfig::default();
            let built = chain::build(spans, &cc, "agg.ncl", &agg::netcl_source(&cfg))?;
            // Protocol order: every worker's packet for chunk 0, then chunk
            // 1, …; chunk c uses slot c mod 16, version (c / 16) mod 2.
            let wires = (0..MIX as u32)
                .map(|i| agg::chunk_packet(&cfg, i % cfg.num_workers, i / cfg.num_workers))
                .collect();
            (chain::load(spans, &built.devices[0].program), wires)
        }
        "cache" => {
            let cfg = cache::CacheConfig::default();
            let built = chain::build(spans, &cc, "cache.ncl", &cache::netcl_source(&cfg))?;
            let mut switch = chain::load(spans, &built.devices[0].program);
            let mm = ManagedMemory::new(&built.unit.devices[0].tna_ir);
            // Cached keys are even, uncached ones odd, both seeded.
            let key = |rng: &mut WorkloadRng| rng.below(1 << 30) * 2;
            let cached: Vec<u64> = (0..CACHED_KEYS).map(|_| key(&mut rng)).collect();
            for (slot, &k) in cached.iter().enumerate() {
                cache::populate(
                    &mm,
                    &mut switch,
                    &cfg,
                    slot as u16,
                    k,
                    &cache::server_value(&cfg, k),
                );
            }
            // 50 % GET of a cached key, 25 % GET of an uncached key, 25 %
            // PUT of a cached key.
            let wires = (0..MIX)
                .map(|_| {
                    let k = cached[rng.below(CACHED_KEYS) as usize];
                    match rng.below(4) {
                        0 | 1 => cache::request(&cfg, 1, 2, cache::OP_GET, k, None),
                        2 => cache::request(&cfg, 1, 2, cache::OP_GET, key(&mut rng) + 1, None),
                        _ => {
                            let v = words(&mut rng, cfg.words as usize);
                            cache::request(&cfg, 1, 2, cache::OP_PUT, k, Some(&v))
                        }
                    }
                })
                .collect();
            (switch, wires)
        }
        "pacc" => {
            let built = chain::build(spans, &cc, "pacc.ncl", &paxos::acceptor_source())?;
            let dev = built
                .devices
                .iter()
                .find(|d| d.id == paxos::ACCEPTOR_DEV)
                .ok_or("pacc.ncl: no acceptor device")?;
            let spec = paxos::spec();
            let wires = (0..MIX)
                .map(|_| {
                    let m = Message::new(1, 2, 1, paxos::ACCEPTOR_DEV);
                    let args: [&[u64]; 6] = [
                        &[paxos::T_PHASE2A],
                        &[rng.below(paxos::NUM_INSTANCES as u64)],
                        &[1 + rng.below(8)],
                        &[0],
                        &[0],
                        &words(&mut rng, 8),
                    ];
                    pack(&m, &spec, &args.map(Some)).expect("a Phase 2a message packs")
                })
                .collect();
            (chain::load(spans, &dev.program), wires)
        }
        other => unreachable!("`{other}` is not a replay application"),
    };
    let batches = wires
        .chunks(DEFAULT_BATCH)
        .map(|chunk| {
            let mut b = PacketBatch::new();
            chunk.iter().for_each(|w| b.push(w));
            b
        })
        .collect();
    Ok(App { name, switch, wires, batches, cursor: 0 })
}

fn build_all(spans: &mut Spans, seed: u64) -> Result<Vec<App>, String> {
    REPLAY_APPS.iter().map(|name| build_app(spans, name, seed)).collect()
}

/// The next `batches` batches of the mix through `process_batch`, carrying
/// on where the last call stopped so that AGG sees its protocol's order.
fn replay_batched(app: &mut App, batches: usize) {
    for _ in 0..batches {
        app.switch.process_batch(&mut app.batches[app.cursor]);
        app.cursor = (app.cursor + 1) % app.batches.len();
    }
}

/// The same packets through `process_into`, one at a time.
fn replay_scalar(app: &mut App, batches: usize) {
    let mut pkt = app.switch.new_packet();
    let mut out = Vec::new();
    for _ in 0..batches {
        for wire in app.wires.chunks(DEFAULT_BATCH).nth(app.cursor).expect("cursor is in range") {
            let _ = std::hint::black_box(app.switch.process_into(wire, &mut pkt, &mut out));
        }
        app.cursor = (app.cursor + 1) % app.batches.len();
    }
}

/// The default engine, batched, against the interpreter oracle on the
/// first `n` packets of every mix: outputs, outcomes, counters, registers.
fn differential(spans: &mut Spans, seed: u64, n: usize) -> Result<u64, String> {
    let mut mismatches = 0;
    for name in REPLAY_APPS {
        let mut fast = build_app(spans, name, seed)?;
        let mut oracle = build_app(spans, name, seed)?;
        oracle.switch.set_engine(Engine::Interpreted);
        let mut i = 0;
        'batches: for b in &mut fast.batches {
            fast.switch.process_batch(b);
            for j in 0..b.len() {
                if i == n {
                    break 'batches;
                }
                let want = oracle.switch.process(&oracle.wires[i]).map(|(_, out)| out);
                let same = match (b.outcome(j), &want) {
                    (Ok(()), Ok(out)) => b.output(j) == out.as_slice(),
                    (Err(e), Err(w)) => e == w,
                    _ => false,
                };
                if !same {
                    eprintln!("{name} packet {i}: threaded batch and interpreter differ");
                    mismatches += 1;
                }
                i += 1;
            }
        }
        // The batch that held packet n − 1 ran to its end on the fast
        // side; bring the oracle level before comparing state.
        let processed = fast.switch.counters().packets as usize;
        for wire in &oracle.wires[i..processed] {
            let _ = oracle.switch.process(wire);
        }
        let regs = |sw: &Switch| -> Vec<(String, Vec<u64>)> {
            sw.registers().map(|(n, cells)| (n.to_string(), cells.to_vec())).collect()
        };
        if fast.switch.counters() != oracle.switch.counters() {
            eprintln!("{name}: counters differ between threaded and interpreter");
            mismatches += 1;
        }
        if regs(&fast.switch) != regs(&oracle.switch) {
            eprintln!("{name}: registers differ between threaded and interpreter");
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

pub fn run(h: &mut Harness) {
    let seed = h.seed;
    // Batches per application per repeat: one timed section each, 10 ms
    // (CALC) to 60 ms (AGG) long.
    let batches = h.sized(120, 20);
    let checked = h.sized(2_000, 500);

    let mut apps = Vec::new();
    for _ in 0..MIN_SAMPLES {
        apps.clear();
        match h.setup(|spans| build_all(spans, seed)) {
            Ok(built) => apps = built,
            Err(e) => {
                eprintln!("{e}");
                h.gate("switch_replay set-up", 1, 1);
                return;
            }
        }
    }
    // Warm-up: one turn of every mix fills caches and scratch buffers.
    for app in &mut apps {
        replay_batched(app, MIX / DEFAULT_BATCH);
    }

    // Nothing is wrapped around `process_batch` in either kind of run, so a
    // traced repeat measures the same batched replay, then adds the scalar
    // path and reads the counters (summed over the four applications).
    let mut layers = LayerSamples::default();
    while h.keep_measuring() {
        let (mut pps, mut wall_pps) = (Vec::new(), Vec::new());
        let (mut allocs, mut total) = (0, netcl_bmv2::SwitchCounters::default());
        for app in &mut apps {
            app.switch.reset_counters();
            let before = Snapshot::now();
            let ((), took) = h.timed(|h| {
                let t = h.spans.enter("bmv2.process");
                replay_batched(app, batches);
                h.spans.exit(t);
            });
            allocs += before.elapsed().allocs;
            let c = app.switch.counters().clone();
            h.gate(app.name, c.packets, c.errors);
            pps.push(c.packets as f64 / took.ref_s);
            wall_pps.push(c.packets as f64 / took.wall_s);
            total.packets += c.packets;
            total.errors += c.errors;
            total.reg_action_execs += c.reg_action_execs;
            total.table_hits.extend(c.table_hits);
            total.table_misses.extend(c.table_misses);
            if h.trace {
                layers.push(&format!("bmv2.pps.{}", app.name), c.packets as f64 / took.wall_s);
                let start = Instant::now();
                replay_scalar(app, batches);
                let scalar_s = start.elapsed().as_secs_f64();
                layers.push(&format!("bmv2.scalar_pps.{}", app.name), c.packets as f64 / scalar_s);
            }
        }
        h.work_rates(geomean(&pps), geomean(&wall_pps));
        layers.push("bmv2.packets", total.packets as f64);
        layers.push("bmv2.reg_action_execs", total.reg_action_execs as f64);
        layers.push("bmv2.errors", total.errors as f64);
        layers.push("bmv2.table_hits", total.table_hits.iter().sum::<u64>() as f64);
        layers.push("bmv2.table_misses", total.table_misses.iter().sum::<u64>() as f64);
        layers.push("bmv2.allocs_per_pkt", allocs as f64 / total.packets as f64);
    }

    let mismatches = h.check(|h| differential(&mut h.spans, seed, checked));
    match mismatches {
        Ok(m) => h.gate("switch_replay threaded ≡ interpreter", (4 * checked) as u64, m),
        Err(e) => {
            eprintln!("{e}");
            h.gate("switch_replay differential set-up", 1, 1);
        }
    }

    if h.trace {
        layers.file(&mut h.report);
    }
}
