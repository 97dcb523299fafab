//! Packets/sec throughput of the bmv2 software switch — the two engines
//! (direct-threaded production path, tree-walking interpreter oracle), per
//! application, through `process_into` and through `process_batch`.
//!
//! Run `cargo run --release -p netcl-bench --bin throughput` to reproduce
//! the `apps` section of `BENCH_switch.json` at the repository root. Two
//! other modes:
//!
//! - `--smoke`: a seconds-scale CI sanity run that prints results without
//!   writing the file;
//! - `--gate`: measures at moderate scale and fails (exit 1) if AGG's
//!   threaded throughput dropped more than 10% below the checked-in
//!   `BENCH_switch.json` baseline. Batched ÷ scalar is not gated: both
//!   entry points run the same per-packet routine, so the ratio is 1.0 ±
//!   noise.
//!
//! In every mode the binary first checks that the threaded engine and the
//! interpreter oracle agree packet-for-packet on each app, and that
//! `process_batch` agrees with a `process_into` loop: outputs, outcomes,
//! counters, and registers. It exits nonzero on any divergence, so CI's
//! smoke run doubles as the threaded/interpreted differential gate.
//!
//! Each application processes a small rotating set of representative
//! packets through one long-lived `Switch`, reusing one packet and one
//! output buffer (`process_into`) or one [`PacketBatch`], so the
//! measurement isolates per-packet execution cost rather than allocation
//! or setup.

use std::time::Instant;

use netcl_apps::{agg, cache, calc, paxos};
use netcl_bmv2::{Engine, PacketBatch, Switch, DEFAULT_BATCH};
use netcl_runtime::managed::ManagedMemory;
use netcl_runtime::message::{pack, Message};

struct BenchApp {
    name: &'static str,
    switch: Switch,
    packets: Vec<Vec<u8>>,
}

fn calc_app() -> BenchApp {
    let unit = netcl_apps::compile("calc.ncl", &calc::netcl_source());
    let switch = Switch::new(unit.devices[0].tna_p4.clone());
    let packets = vec![
        calc::request(7, calc::OP_ADD, 3, 4),
        calc::request(7, calc::OP_XOR, 0xAA, 0x55),
        calc::request(7, calc::OP_AND, 0xF0, 0x1F),
    ];
    BenchApp { name: "CALC", switch, packets }
}

fn agg_app() -> BenchApp {
    let cfg = agg::AggConfig::default();
    let unit = netcl_apps::compile("agg.ncl", &agg::netcl_source(&cfg));
    let switch = Switch::new(unit.devices[0].tna_p4.clone());
    let mut packets = Vec::new();
    for c in 0..4 {
        for w in 0..cfg.num_workers {
            packets.push(agg::chunk_packet(&cfg, w, c));
        }
    }
    BenchApp { name: "AGG", switch, packets }
}

fn cache_app() -> BenchApp {
    let cfg = cache::CacheConfig::default();
    let unit = netcl_apps::compile("cache.ncl", &cache::netcl_source(&cfg));
    let dev = &unit.devices[0];
    let mut switch = Switch::new(dev.tna_p4.clone());
    // Half the keys are cached so the workload exercises both the lookup
    // hit path and the miss path through the hot-key sketch.
    let mm = ManagedMemory::new(&dev.tna_ir);
    for k in 0..4u64 {
        let v = cache::server_value(&cfg, k);
        cache::populate(&mm, &mut switch, &cfg, k as u16, k, &v);
    }
    let packets = (0..8u64).map(|k| cache::request(&cfg, 1, 2, 1, k, None)).collect();
    BenchApp { name: "CACHE", switch, packets }
}

fn pacc_app() -> BenchApp {
    let unit = netcl_apps::compile("pacc.ncl", &paxos::acceptor_source());
    let dev = unit.device(paxos::ACCEPTOR_DEV).expect("acceptor device");
    let switch = Switch::new(dev.tna_p4.clone());
    let spec = paxos::spec();
    let value = [11u64, 22, 33, 44, 55, 66, 77, 88];
    let packets = (0..8u64)
        .map(|inst| {
            let m = Message::new(1, 2, 1, paxos::ACCEPTOR_DEV);
            pack(
                &m,
                &spec,
                &[
                    Some(&[paxos::T_PHASE2A]),
                    Some(&[inst]),
                    Some(&[1]),
                    Some(&[0]),
                    Some(&[0]),
                    Some(&value),
                ],
            )
            .expect("packs")
        })
        .collect();
    BenchApp { name: "PACC", switch, packets }
}

/// Processes `total` packets (cycling over the set) and returns packets/sec.
fn measure(sw: &mut Switch, packets: &[Vec<u8>], total: usize) -> f64 {
    let mut pkt = sw.new_packet();
    let mut out = Vec::new();
    // Warm up state, caches, and scratch buffers.
    for wire in packets {
        let _ = sw.process_into(wire, &mut pkt, &mut out);
    }
    let start = Instant::now();
    let mut done = 0usize;
    'outer: loop {
        for wire in packets {
            let _ = sw.process_into(wire, &mut pkt, &mut out);
            done += 1;
            if done >= total {
                break 'outer;
            }
        }
    }
    done as f64 / start.elapsed().as_secs_f64()
}

/// Processes `total` packets through `process_batch` in `batch_size`-sized
/// batches (cycling over the set) and returns packets/sec. The batch is
/// reused across iterations, so the steady state allocates nothing.
fn measure_batch(sw: &mut Switch, packets: &[Vec<u8>], total: usize, batch_size: usize) -> f64 {
    // Stage the wire bytes into batches up front: the scalar measurement
    // reads prebuilt buffers, so charging arena ingest to the batched
    // pipeline would compare processing+staging against processing.
    let mut batches: Vec<PacketBatch> = Vec::new();
    for chunk in packets.chunks(batch_size) {
        let mut b = PacketBatch::new();
        for wire in chunk {
            b.push(wire);
        }
        batches.push(b);
    }
    // Warm up state, caches, and scratch buffers.
    for b in &mut batches {
        sw.process_batch(b);
    }
    let mut done = 0usize;
    let start = Instant::now();
    'outer: loop {
        for b in &mut batches {
            sw.process_batch(b);
            done += b.len();
            if done >= total {
                break 'outer;
            }
        }
    }
    done as f64 / start.elapsed().as_secs_f64()
}

/// The engine/batching differential gate: three freshly-built copies of
/// the app process the same packet sequence — `process_into` on each
/// engine, `process_batch` on the threaded one — and every observable must
/// match the threaded `process_into` reference: outcomes, output bytes,
/// `SwitchCounters`, and final register state.
fn verify_engines_agree(build: fn() -> BenchApp) -> bool {
    let mut scalar = build();
    let name = scalar.name;
    let packets = scalar.packets.clone();
    let mut interp = build();
    interp.switch.set_engine(Engine::Interpreted);
    let mut batched = build();

    let mut pkt = scalar.switch.new_packet();
    let mut out = Vec::new();
    let mut batch = PacketBatch::new();
    // Cycle the set several times so register state evolves across rounds.
    for round in 0..5 {
        batch.clear();
        for w in &packets {
            batch.push(w);
        }
        batched.switch.process_batch(&mut batch);
        for (i, w) in packets.iter().enumerate() {
            let r = scalar.switch.process_into(w, &mut pkt, &mut out);
            let ri = interp.switch.process(w).map(|(_, o)| o);
            match (&r, &ri) {
                (Ok(()), Ok(oi)) if *oi == out => {}
                (Err(e), Err(ei)) if e == ei => {}
                _ => {
                    eprintln!("DIVERGENCE {name} round {round} packet {i}: interpreter oracle");
                    return false;
                }
            }
            if &r != batch.outcome(i) {
                eprintln!(
                    "DIVERGENCE {name} round {round} packet {i}: scalar {r:?} vs batched {:?}",
                    batch.outcome(i)
                );
                return false;
            }
            if r.is_ok() && out.as_slice() != batch.output(i) {
                eprintln!("DIVERGENCE {name} round {round} packet {i}: batched output differs");
                return false;
            }
        }
    }
    let regs = |sw: &Switch| -> Vec<(String, Vec<u64>)> {
        sw.registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect()
    };
    for (label, app) in [("interpreted", &interp), ("batched", &batched)] {
        if scalar.switch.counters() != app.switch.counters() {
            eprintln!(
                "DIVERGENCE {name}: counters {:?} vs {label} {:?}",
                scalar.switch.counters(),
                app.switch.counters()
            );
            return false;
        }
        if regs(&scalar.switch) != regs(&app.switch) {
            eprintln!("DIVERGENCE {name}: register state differs from {label}");
            return false;
        }
    }
    true
}

/// Simulator histograms for the bench report: a short observed network run
/// (the sim's batched delivery path) whose queue-depth and event wall-time
/// distributions are exported as JSON events.
fn netobs_histograms_json() -> String {
    use netcl_net::topo::star;
    use netcl_net::{LinkSpec, NetworkBuilder, ObsConfig};
    let cfg = cache::CacheConfig::default();
    let unit = netcl_apps::compile("cache.ncl", &cache::netcl_source(&cfg));
    let switch = Switch::new(unit.devices[0].tna_p4.clone());
    let mut net = NetworkBuilder::new(star(1, &[1, 2], LinkSpec::default()))
        .device(1, switch, 500)
        .sink_host(1)
        .sink_host(2)
        .observe(ObsConfig::default())
        .build();
    for round in 0..50u64 {
        for k in 0..4u64 {
            net.send_from_host(1, round * 1_000, cache::request(&cfg, 1, 2, 1, k, None));
        }
    }
    net.run(100_000);
    let obs = net.obs().expect("observability enabled");
    format!(
        "[{},\n   {}]",
        obs.queue_depth.to_event("sim.queue_depth", 0).to_json(),
        obs.event_wall_ns.to_event("sim.event_wall_ns", 0).to_json(),
    )
}

struct Row {
    name: &'static str,
    threaded_pps: f64,
    batched_pps: f64,
    interpreted_pps: f64,
    /// Data-plane counters from the threaded measurement (warmup included),
    /// captured before the other measurements so they describe one window.
    counters: netcl_bmv2::SwitchCounters,
    /// Per-table `(name, hits, misses)` for the same window.
    tables: Vec<(String, u64, u64)>,
}

/// Measures one app: threaded through `process_into`, threaded through
/// `process_batch` at the default size, and the interpreter.
fn measure_row(build: fn() -> BenchApp, threaded_n: usize, interp_n: usize) -> Row {
    let mut app = build();
    app.switch.reset_counters();
    let threaded_pps = measure(&mut app.switch, &app.packets, threaded_n);
    let counters = app.switch.counters().clone();
    let tables: Vec<(String, u64, u64)> =
        app.switch.table_stats().map(|(n, h, m)| (n.to_string(), h, m)).collect();
    let batched_pps = measure_batch(&mut app.switch, &app.packets, threaded_n, DEFAULT_BATCH);
    app.switch.set_engine(Engine::Interpreted);
    let interpreted_pps = measure(&mut app.switch, &app.packets, interp_n);
    Row { name: app.name, threaded_pps, batched_pps, interpreted_pps, counters, tables }
}

fn print_row(r: &Row) {
    println!(
        "{:<6} threaded {:>12.0} pps   batched {:>12.0} pps   interpreted {:>12.0} pps ({:.1}x)   \
         ({} pkts, {} hits, {} misses, {} reg-actions)",
        r.name,
        r.threaded_pps,
        r.batched_pps,
        r.interpreted_pps,
        r.threaded_pps / r.interpreted_pps,
        r.counters.packets,
        r.counters.total_hits(),
        r.counters.total_misses(),
        r.counters.reg_action_execs,
    );
}

/// Pulls one numeric field out of an app's block in the checked-in
/// `BENCH_switch.json` (hand-rolled: the repo deliberately has no JSON
/// dependency).
fn baseline_field(json: &str, app: &str, field: &str) -> Option<f64> {
    let start = json.find(&format!("\"app\": \"{app}\""))?;
    let rest = &json[start..];
    let end = rest[1..].find("\"app\": ").map(|i| i + 1).unwrap_or(rest.len());
    let block = &rest[..end];
    let key = format!("\"{field}\":");
    let at = block.find(&key)? + key.len();
    let num: String = block[at..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// The CI regression gate: AGG's threaded throughput must stay within 10%
/// of the checked-in baseline.
fn run_gate(rows: &[Row]) -> i32 {
    let json = match std::fs::read_to_string("BENCH_switch.json") {
        Ok(json) => json,
        Err(e) => {
            eprintln!("gate FAIL: cannot read BENCH_switch.json baseline: {e}");
            return 1;
        }
    };
    let Some(baseline) = baseline_field(&json, "AGG", "threaded_pps") else {
        eprintln!("gate FAIL: no AGG threaded_pps in checked-in BENCH_switch.json");
        return 1;
    };
    let agg = rows.iter().find(|r| r.name == "AGG").expect("AGG row");
    println!(
        "gate: AGG threaded {:.0} pps vs baseline {:.0} pps ({:.2}x)",
        agg.threaded_pps,
        baseline,
        agg.threaded_pps / baseline
    );
    if agg.threaded_pps < 0.9 * baseline {
        eprintln!(
            "gate FAIL: AGG threaded_pps {:.0} dropped >10% below baseline {:.0}",
            agg.threaded_pps, baseline
        );
        return 1;
    }
    println!("bench regression gate: pass");
    0
}

fn main() {
    let mut smoke = false;
    let mut gate = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--gate" => gate = true,
            other => {
                eprintln!("error: unknown argument `{other}` (expected `--smoke` or `--gate`)");
                std::process::exit(2);
            }
        }
    }
    let (threaded_n, interp_n) = if smoke {
        (2_000, 200)
    } else if gate {
        (150_000, 5_000)
    } else {
        (400_000, 40_000)
    };

    let builders: [fn() -> BenchApp; 4] = [calc_app, agg_app, cache_app, pacc_app];

    // The differential gate runs first, in every mode: CI fails if the
    // engines, or the batched and per-packet entry points, diverge on any
    // app.
    for build in builders {
        if !verify_engines_agree(build) {
            eprintln!("error: execution engines diverged");
            std::process::exit(1);
        }
    }
    println!("engine differential gate (threaded ≡ interpreted, batched ≡ scalar): all apps agree");

    let mut rows = Vec::new();
    for build in builders {
        let row = measure_row(build, threaded_n, interp_n);
        print_row(&row);
        rows.push(row);
    }

    if gate {
        std::process::exit(run_gate(&rows));
    }
    if smoke {
        println!("smoke run: not writing BENCH_switch.json");
        return;
    }
    let mut json = String::from("{\n  \"benchmark\": \"bmv2_throughput\",\n");
    json.push_str(&format!("  \"packets_per_measurement\": {threaded_n},\n"));
    json.push_str(&format!("  \"default_batch\": {DEFAULT_BATCH},\n"));
    json.push_str("  \"apps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"app\": \"{}\", \"threaded_pps\": {:.0}, \"batched_pps\": {:.0}, \
             \"interpreted_pps\": {:.0}, \"speedup\": {:.2},\n",
            r.name,
            r.threaded_pps,
            r.batched_pps,
            r.interpreted_pps,
            r.threaded_pps / r.interpreted_pps,
        ));
        let c = &r.counters;
        json.push_str(&format!(
            "     \"breakdown\": {{\"packets\": {}, \"errors\": {}, \"table_hits\": {}, \
             \"table_misses\": {}, \"reg_action_execs\": {}, \"action_calls\": {}, \
             \"extern_calls\": {}, \"tables\": [",
            c.packets,
            c.errors,
            c.total_hits(),
            c.total_misses(),
            c.reg_action_execs,
            c.action_calls,
            c.extern_calls,
        ));
        for (j, (t, h, m)) in r.tables.iter().enumerate() {
            json.push_str(&format!(
                "{}{{\"table\": \"{t}\", \"hits\": {h}, \"misses\": {m}}}",
                if j > 0 { ", " } else { "" },
            ));
        }
        json.push_str(&format!("]}}}}{}\n", if i + 1 < rows.len() { "," } else { "" }));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"sim_histograms\": {}", netobs_histograms_json()));
    // Preserve the sections other bench binaries merged in
    // (compile_throughput, sim_sharded, multi_tenant): carry their tail
    // over verbatim instead of wiping it on every regeneration.
    let tail = std::fs::read_to_string("BENCH_switch.json").ok().and_then(|old| {
        let start = old
            .find(",\n  \"compile_throughput\":")
            .or_else(|| old.find(",\n  \"sim_sharded\":"))
            .or_else(|| old.find(",\n  \"multi_tenant\":"))?;
        let end = old.rfind("\n}")?;
        (start < end).then(|| old[start..end].to_string())
    });
    if let Some(t) = tail {
        json.push_str(&t);
    }
    json.push_str("\n}\n");
    std::fs::write("BENCH_switch.json", &json).expect("write BENCH_switch.json");
    println!("wrote BENCH_switch.json");
}
