//! Compiler throughput, cold vs incremental — the DESIGN.md §16 cache at
//! workload scale.
//!
//! The workload is 1000 generated kernel variants (250 per app family:
//! CALC-like arithmetic, AGG-like sketch aggregation, CACHE-like lookup,
//! PACC-like threshold accumulators), derived deterministically from
//! [`GEN_SEED`] so every run and every machine compiles byte-identical
//! sources. Three measurements:
//!
//! - **cold**: every unit through `Compiler::compile`, no cache;
//! - **incremental**: one variant mutated, the whole workload re-driven
//!   through `Compiler::compile_incremental` against a warm
//!   [`CompileCache`] — the 999 unchanged units are served whole;
//! - **multi-device**: a two-device unit where only one device's kernel
//!   changes, showing device-level artifact reuse inside a unit miss.
//!
//! Run `cargo run --release -p netcl-bench --bin compile_throughput` to
//! merge a `compile_throughput` section into `BENCH_switch.json` (placed
//! before `sim_sharded`, which always keeps the last slot). Two other
//! modes:
//!
//! - `--smoke`: a seconds-scale CI run that prints results without
//!   touching the file;
//! - `--gate`: fails (exit 1) if the 1-of-N mutation run does not serve
//!   exactly N−1 unit hits from the cache (a silent cache miss), if any
//!   served artifact differs from its cold compile, or if the incremental
//!   row is less than [`GATE_MIN_SPEEDUP`] times the cold row.
//!
//! In every mode the binary cross-checks the mutated unit byte-for-byte
//! (printed P4, both dialects) against a cold compile of the same source,
//! so the speed row can never come from serving stale artifacts.
//!
//! Per-pass wall time is aggregated from the [`PassReport`]s of the cold
//! run and printed as JSONL (`netcl-obs` events), mirroring what
//! `ncc --emit-pass-report` exports per unit.

use std::collections::BTreeMap;
use std::time::Instant;

use netcl::passes::PassReport;
use netcl::{CompileCache, CompileOptions, CompiledUnit, Compiler};
use netcl_obs::Event;

/// The variant-generator seed (splitmix64 stream). Recorded in
/// EXPERIMENTS.md so the workload is reproducible from the number alone.
const GEN_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// `--gate`'s floor on incremental over cold at its 120-unit size: half of
/// the 33x measured there with shared artifacts (EXPERIMENTS.md). A cache
/// that deep-copies what it serves measures 8x, so the copy coming back
/// fails the gate.
const GATE_MIN_SPEEDUP: f64 = 16.0;

const FAMILIES: [&str; 4] = ["calc", "agg", "cache", "pacc"];

/// splitmix64: one well-mixed word per (family, index, salt) triple.
fn mix(i: u64) -> u64 {
    let mut z = GEN_SEED.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One generated translation unit. `salt` perturbs the embedded constants:
/// the bench mutates a kernel by bumping its salt, exactly what an editor
/// changing one literal would produce.
fn variant(family: usize, i: usize, salt: u64) -> (String, String) {
    let r = mix((family as u64) << 32 | (i as u64) << 8 | salt);
    let name = format!("{}_{i}.ncl", FAMILIES[family]);
    let source = match family {
        0 => {
            let ops = ["+", "^", "&"];
            let op1 = ops[(r % 3) as usize];
            let op2 = ops[((r >> 2) % 3) as usize];
            let c1 = (r >> 8) & 0xFFFF;
            let c2 = (r >> 24) & 0xFFFF;
            format!(
                "_kernel(1) _at(1) void calc{i}(unsigned a, unsigned b, unsigned &r) {{\n\
                 \x20 r = (a {op1} {c1}) {op2} (b ^ {c2});\n}}\n"
            )
        }
        1 => {
            let step = 1 + (r % 7);
            format!(
                "_net_ unsigned tally{i}[65536];\n\
                 _kernel(1) _at(1) void agg{i}(unsigned k, unsigned &c) {{\n\
                 \x20 c = ncl::atomic_sadd_new(&tally{i}[ncl::crc16(k)], {step});\n}}\n"
            )
        }
        2 => {
            let v: Vec<u64> = (0..4).map(|j| (r >> (8 * j)) & 0xFF).collect();
            format!(
                "_net_ _lookup_ ncl::kv<unsigned, unsigned> t{i}[] = \
                 {{{{1,{}}}, {{2,{}}}, {{3,{}}}, {{4,{}}}}};\n\
                 _kernel(1) _at(1) void get{i}(char op, unsigned k, unsigned &v, char &hit) {{\n\
                 \x20 if (op == 1) {{\n\
                 \x20   hit = ncl::lookup(t{i}, k, v);\n\
                 \x20   if (hit) return ncl::reflect();\n\
                 \x20 }}\n}}\n",
                v[0], v[1], v[2], v[3]
            )
        }
        _ => {
            let thresh = 16 + (r % 1000);
            format!(
                "_net_ unsigned seq{i}[65536];\n\
                 _kernel(1) _at(1) void acc{i}(unsigned inst, unsigned rnd, unsigned &o) {{\n\
                 \x20 unsigned cur = ncl::atomic_sadd_new(&seq{i}[ncl::crc16(inst)], rnd);\n\
                 \x20 o = cur > {thresh} ? cur : 0;\n}}\n"
            )
        }
    };
    (name, source)
}

/// A two-device unit for the within-unit reuse row; `salt` perturbs only
/// the device-2 kernel, so device 1's base IR is unchanged by a mutation.
fn multi_device_source(salt: u64) -> String {
    let c = 1 + (mix(0xdead << 8 | salt) % 255);
    format!(
        "_net_ _at(1) unsigned sa[65536];\n\
         _net_ _at(2) unsigned sb[65536];\n\
         _kernel(1) _at(1) void ka(unsigned k, unsigned &o) {{\n\
         \x20 o = ncl::atomic_sadd_new(&sa[ncl::crc16(k)], 1);\n}}\n\
         _kernel(2) _at(2) void kb(unsigned k, unsigned &o) {{\n\
         \x20 o = ncl::atomic_sadd_new(&sb[ncl::crc16(k)], {c});\n}}\n"
    )
}

/// Folds a unit's pass reports into the per-pass aggregate.
fn aggregate_passes(agg: &mut BTreeMap<&'static str, (u64, u64)>, unit: &CompiledUnit) {
    let mut fold = |rep: &Option<PassReport>| {
        if let Some(rep) = rep {
            for p in &rep.passes {
                let e = agg.entry(p.name).or_insert((0, 0));
                e.0 += p.runs;
                e.1 += p.wall_ns;
            }
        }
    };
    for d in &unit.devices {
        fold(&d.tna_pass_report);
        fold(&d.v1_pass_report);
    }
}

/// Printed P4 for both dialects — the byte-identity observable.
fn rendered(unit: &CompiledUnit) -> String {
    let mut out = String::new();
    for d in &unit.devices {
        out.push_str(&netcl_p4::print::print_program(&d.tna_p4));
        out.push_str(&netcl_p4::print::print_program(&d.v1_p4));
    }
    out
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
    let per_family = if smoke {
        10
    } else if gate {
        30
    } else {
        250
    };
    let variants: Vec<(usize, usize, String, String)> = (0..FAMILIES.len())
        .flat_map(|f| {
            (0..per_family).map(move |i| {
                let (name, src) = variant(f, i, 0);
                (f, i, name, src)
            })
        })
        .collect();
    let n = variants.len();
    let opts = CompileOptions { pass_report: true, ..Default::default() };
    let cc = Compiler::new(opts);

    // Cold row: every unit compiled from scratch, per-pass telemetry
    // aggregated across the workload.
    let mut pass_agg: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let t0 = Instant::now();
    for (_, _, name, src) in &variants {
        let unit = cc.compile(name, src).unwrap_or_else(|e| panic!("{name}: {e}"));
        aggregate_passes(&mut pass_agg, &unit);
    }
    let cold_s = t0.elapsed().as_secs_f64();
    let cold_kps = n as f64 / cold_s;
    println!("cold        {n:>5} kernels in {cold_s:>7.3} s   {cold_kps:>9.0} kernels/s");

    // Warm the cache with the unmutated workload.
    let mut cache = CompileCache::new();
    for (_, _, name, src) in &variants {
        cc.compile_incremental(name, src, &mut cache).expect("warms");
    }

    // Incremental row: mutate one kernel, re-drive the whole workload.
    let mutated_at = n / 2;
    let (mf, mi, _, _) = variants[mutated_at];
    let (mname, msrc) = variant(mf, mi, 1);
    let before = cache.stats();
    let mut mutated_unit = None;
    let t0 = Instant::now();
    for (at, (_, _, name, src)) in variants.iter().enumerate() {
        let (name, src) = if at == mutated_at { (&mname, &msrc) } else { (name, src) };
        let unit = cc.compile_incremental(name, src, &mut cache).expect("recompiles");
        if at == mutated_at {
            mutated_unit = Some(unit);
        }
    }
    let incr_s = t0.elapsed().as_secs_f64();
    let incr_kps = n as f64 / incr_s;
    let speedup = incr_kps / cold_kps;
    let d = cache.stats();
    let unit_hits = d.unit_hits - before.unit_hits;
    println!(
        "incremental {n:>5} kernels in {incr_s:>7.3} s   {incr_kps:>9.0} kernels/s   \
         ({speedup:.1}x cold, {unit_hits} unit hits, 1 recompiled)"
    );

    // The served speed must not come from stale artifacts: the mutated
    // unit's output is byte-identical to its own cold compile.
    let mutated_unit = mutated_unit.expect("mutated unit compiled");
    assert!(!mutated_unit.reuse.unit_hit, "mutated source must miss the unit cache");
    let cold_mutated = cc.compile(&mname, &msrc).expect("cold compile of mutated source");
    if rendered(&cold_mutated) != rendered(&mutated_unit) {
        eprintln!("error: incrementally compiled mutated unit differs from cold compile");
        std::process::exit(1);
    }
    println!("mutated unit `{mname}` byte-identical to cold compile (both dialects)");

    // Within-unit device reuse: mutate only the device-2 kernel of a
    // two-device unit; device 1's backend is served from the cache.
    let mut md_cache = CompileCache::new();
    let t0 = Instant::now();
    let md_cold = cc
        .compile_incremental("md.ncl", &multi_device_source(0), &mut md_cache)
        .expect("multi-device cold");
    let md_cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let md_warm = cc
        .compile_incremental("md.ncl", &multi_device_source(1), &mut md_cache)
        .expect("multi-device warm");
    let md_warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(md_cold.reuse.devices_total, 2);
    println!(
        "multi-device mutation: {}/{} devices reused, {md_cold_ms:.2} ms cold → \
         {md_warm_ms:.2} ms incremental",
        md_warm.reuse.devices_reused, md_warm.reuse.devices_total
    );

    // Per-pass aggregate from the cold run, as netcl-obs JSONL.
    for (name, (runs, wall_ns)) in &pass_agg {
        let e = Event::new(format!("compile.pass.{name}"), 0)
            .field("runs", *runs)
            .field("wall_ns", *wall_ns);
        println!("{}", e.to_json());
    }

    if gate {
        let mut failures = 0;
        if unit_hits != (n - 1) as u64 {
            eprintln!(
                "gate FAIL: expected {} unit hits for a 1-of-{n} change, got {unit_hits} \
                 (silent cache miss)",
                n - 1
            );
            failures += 1;
        }
        if md_warm.reuse.devices_reused != 1 {
            eprintln!(
                "gate FAIL: multi-device mutation reused {} devices, expected 1",
                md_warm.reuse.devices_reused
            );
            failures += 1;
        }
        if speedup < GATE_MIN_SPEEDUP {
            eprintln!(
                "gate FAIL: incremental only {speedup:.1}x cold (needs ≥{GATE_MIN_SPEEDUP}x)"
            );
            failures += 1;
        }
        if failures == 0 {
            println!("compile_throughput gate: pass ({speedup:.1}x, {unit_hits}/{n} served)");
        }
        std::process::exit(if failures == 0 { 0 } else { 1 });
    }
    if smoke {
        println!("smoke run: not writing BENCH_switch.json");
        return;
    }

    let mut section = String::from("{\n");
    section.push_str(&format!(
        "    \"kernels\": {n}, \"families\": {}, \"generator_seed\": \"{GEN_SEED:#x}\",\n",
        FAMILIES.len()
    ));
    section.push_str("    \"rows\": [\n");
    section.push_str(&format!(
        "      {{\"mode\": \"cold\", \"wall_s\": {cold_s:.3}, \"kernels_per_s\": {cold_kps:.0}}},\n"
    ));
    section.push_str(&format!(
        "      {{\"mode\": \"incremental_1_change\", \"wall_s\": {incr_s:.3}, \
         \"kernels_per_s\": {incr_kps:.0}, \"speedup_vs_cold\": {speedup:.1}, \
         \"unit_hits\": {unit_hits}, \"recompiled\": 1}}\n"
    ));
    section.push_str("    ],\n");
    section.push_str(&format!(
        "    \"multi_device\": {{\"devices\": 2, \"devices_reused\": {}, \
         \"cold_ms\": {md_cold_ms:.2}, \"incremental_ms\": {md_warm_ms:.2}}},\n",
        md_warm.reuse.devices_reused
    ));
    section.push_str("    \"passes\": [\n");
    let rows: Vec<String> = pass_agg
        .iter()
        .map(|(name, (runs, wall_ns))| {
            format!(
                "      {{\"pass\": \"{name}\", \"runs\": {runs}, \"wall_ms\": {:.2}}}",
                *wall_ns as f64 / 1e6
            )
        })
        .collect();
    section.push_str(&rows.join(",\n"));
    section.push_str("\n    ]\n  }");

    let path = "BENCH_switch.json";
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path} (run the throughput binary first): {e}"));
    // Drop any previous compile_throughput section: it spans from its key
    // to the next top-level key (sim_sharded) or the closing brace.
    let json = match json.find(",\n  \"compile_throughput\":") {
        Some(start) => {
            let rest = &json[start + 1..];
            let end = rest
                .find(",\n  \"sim_sharded\":")
                .map(|i| start + 1 + i)
                .unwrap_or_else(|| json.rfind("\n}").expect("closing brace"));
            format!("{}{}", &json[..start], &json[end..])
        }
        None => json,
    };
    // Insert before sim_sharded (which keeps the last slot) or at the end.
    let insert_at = json
        .find(",\n  \"sim_sharded\":")
        .unwrap_or_else(|| json.rfind("\n}").expect("closing brace"));
    let out = format!(
        "{},\n  \"compile_throughput\": {section}{}",
        &json[..insert_at],
        &json[insert_at..]
    );
    std::fs::write(path, out).expect("write BENCH_switch.json");
    println!("merged compile_throughput section into {path}");
}
