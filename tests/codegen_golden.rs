//! What code generation prints, pinned: for every program below and both
//! dialects, the byte length and a 64-bit FNV-1a hash of `print_program`,
//! compared with `tests/golden/codegen.txt` line by line. The programs are
//! every device of every shipped application source (P4xos devices 2–5
//! included), the AGG / CACHE grids of `tests/split_pipeline.rs`, the paper
//! listings that compile, one program of the shapes none of those reach,
//! the merged and solo devices of the AGG + CACHE tenant pair, and two
//! kernels placed at several devices: CALC at sixteen, and a kernel that
//! reads `device.id` at three. Then each handwritten baseline at every
//! configuration the repository runs it at (TNA only: it is written in that
//! dialect). A refactor of `netcl::codegen` must leave this file passing
//! unmodified.
//!
//! After an intended change to what codegen emits, rewrite the file with
//! `cargo test --test codegen_golden -- --ignored` and review the diff.

mod listings;

use netcl::{compile_tenants, CompileOptions, CompiledDevice, Compiler, TenantSource};
use netcl_apps::{agg, all_apps, cache, calc, paxos};
use netcl_p4::print::print_program;
use netcl_p4::P4Program;
use std::fmt::Write;

/// `cargo test` runs integration tests from the package root.
const GOLDEN: &str = "tests/golden/codegen.txt";

/// The instruction shapes no shipped source reaches: dynamically indexed
/// local and argument arrays (index-table reads and writes), clz, 16- and
/// 32-bit bswap, sign extension, arithmetic shifts, min / max, a select, a
/// hash narrower than its result, rand, a message field, a target
/// intrinsic, a conditional SALU with a computed condition, a
/// two-dimensional register index and a return with a value target.
const SHAPES: &str = r#"
_net_ unsigned R[16];
_net_ uint16_t S[4][8];
_kernel(1) void shapes(unsigned x, uint16_t y, int8_t s, int z, unsigned _spec(4) *v,
                       unsigned &o, unsigned &p, int &q, uint16_t &h, unsigned &r, unsigned &w,
                       unsigned &u) {
  unsigned t[4];
  t[0] = x; t[1] = x + 1; t[2] = x ^ 5; t[3] = 7;
  t[y & 3] = x;
  o = t[x & 3];
  p = v[y & 3];
  v[x & 3] = 9;
  q = (s >> 2) + (z >> 3);
  h = ncl::bswap(y) + msg.src;
  r = ncl::bswap(x) + ncl::clz(x) + ncl::min(x, p) + ncl::max(o, 3u) + ncl::crc32<16>(x)
      + ncl::rand<8>();
  w = ncl::atomic_cond_add_new(&R[x & 15], x > 3, 1) + S[y & 3][x & 7];
  u = (x > 5 ? y : 3u) + ncl::crc16<12>(x) + ncl::tna::lpf(x);
  if (q < 0) return ncl::drop();
  return ncl::multicast(y);
}
"#;

/// A kernel whose lowered IR differs per device: it reads `device.id`.
const DEVICE_ID: &str = r#"
_net_ _at(1, 2, 3) unsigned Seen[4];
_kernel(1) _at(1, 2, 3) void hop(unsigned x, unsigned &o, unsigned &n) {
  o = x * 4 + device.id;
  n = ncl::atomic_add_new(&Seen[device.id], 1);
  if (device.id == 2) return ncl::reflect();
}
"#;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn line(out: &mut String, label: &str, dialect: &str, program: &P4Program) {
    let text = print_program(program);
    let _ = writeln!(out, "{label} {dialect}: {} {:016x}", text.len(), fnv1a(text.as_bytes()));
}

fn device(out: &mut String, label: &str, d: &CompiledDevice) {
    let label = format!("{label} device {}", d.device);
    line(out, &label, "tna", &d.tna_p4);
    line(out, &label, "v1model", &d.v1_p4);
}

fn unit(out: &mut String, label: &str, name: &str, source: &str) {
    let unit = Compiler::new(CompileOptions::default())
        .compile(name, source)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    for d in &unit.devices {
        device(out, label, d);
    }
}

fn render() -> String {
    let mut out = String::new();
    for app in all_apps() {
        unit(&mut out, app.name, &format!("{}.ncl", app.name.to_lowercase()), &app.netcl_source);
    }
    unit(&mut out, "P4XOS", "paxos.ncl", &paxos::full_source());
    for num_workers in 2..9 {
        for num_slots in [8, 16, 32] {
            for slot_size in [8, 16, 32] {
                let cfg = agg::AggConfig { num_workers, num_slots, slot_size };
                let label = format!("AGG workers={num_workers} slots={num_slots} size={slot_size}");
                unit(&mut out, &label, "agg.ncl", &agg::netcl_source(&cfg));
            }
        }
    }
    for slots in [16, 64, 256] {
        for words in [2, 4, 8] {
            for sketch_cols in [256, 1024, 4096] {
                let cfg = cache::CacheConfig { slots, words, threshold: 64, sketch_cols };
                let label = format!("CACHE slots={slots} words={words} cols={sketch_cols}");
                unit(&mut out, &label, "cache.ncl", &cache::netcl_source(&cfg));
            }
        }
    }
    for (label, source) in [
        ("FIGURE 4", listings::FIGURE_4),
        ("FIGURE 7", listings::FIGURE_7),
        ("SECTION 5A", listings::SECTION_5A),
        ("SECTION 5B", listings::SECTION_5B),
        ("SECTION 5C", listings::SECTION_5C),
        ("SECTION 5D memory", listings::SECTION_5D_MEMORY),
        ("SECTION 5D ordering", listings::SECTION_5D_ORDERING),
        ("SHAPES", SHAPES),
    ] {
        unit(&mut out, label, "listing.ncl", source);
    }
    let agg_src = agg::netcl_source(&agg::AggConfig { slot_size: 8, ..Default::default() });
    let cache_src = cache::netcl_source(&cache::CacheConfig { words: 4, ..Default::default() });
    let merged = compile_tenants(
        &[
            TenantSource { tenant: 0, name: "agg.ncl", source: &agg_src },
            TenantSource { tenant: 1, name: "cache.ncl", source: &cache_src },
        ],
        1,
        &CompileOptions::default(),
        &Default::default(),
    )
    .expect("AGG + CACHE merge");
    device(&mut out, "MERGED agg+cache", &merged.merged);
    for t in &merged.tenants {
        device(&mut out, &format!("SOLO tenant {}", t.tenant), &t.solo);
    }
    let ids: Vec<String> = (1..=16).map(|d| d.to_string()).collect();
    let calc_at = calc::netcl_source().replace("_at(1)", &format!("_at({})", ids.join(", ")));
    unit(&mut out, "MULTI-DEVICE CALC", "calc.ncl", &calc_at);
    unit(&mut out, "MULTI-DEVICE device.id", "listing.ncl", DEVICE_ID);
    handwritten(&mut out);
    out
}

/// Every handwritten baseline at each configuration something runs it at:
/// Table III's defaults (`all_apps`), Figure 14's AGG and CACHE, and the
/// `netcl-apps` unit tests' `agg::tests::small` and `cache::tests::tiny`.
fn handwritten(out: &mut String) {
    for app in all_apps() {
        line(out, &format!("HANDWRITTEN {}", app.name), "tna", &app.handwritten);
    }
    for (num_workers, num_slots, slot_size) in [(2, 8, 16), (4, 8, 16), (6, 8, 16), (3, 4, 8)] {
        let cfg = agg::AggConfig { num_workers, num_slots, slot_size };
        let label =
            format!("HANDWRITTEN AGG workers={num_workers} slots={num_slots} size={slot_size}");
        line(out, &label, "tna", &agg::handwritten(&cfg));
    }
    for threshold in [64, 8] {
        let cfg = cache::CacheConfig { slots: 16, words: 4, threshold, sketch_cols: 256 };
        let label = format!("HANDWRITTEN CACHE slots=16 words=4 threshold={threshold} cols=256");
        line(out, &label, "tna", &cache::handwritten(&cfg));
    }
}

#[test]
fn generated_p4_matches_the_golden_file() {
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/golden/codegen.txt is committed");
    let now = render();
    for (i, (a, b)) in now.lines().zip(golden.lines()).enumerate() {
        let program = a.split_once(':').map_or(a, |(p, _)| p);
        assert_eq!(a, b, "{program}: printed P4 differs from {GOLDEN} at line {}", i + 1);
    }
    assert_eq!(now.lines().count(), golden.lines().count(), "{GOLDEN} covers other programs");
}

#[test]
#[ignore = "rewrites tests/golden/codegen.txt from the current code generator"]
fn rewrite_the_golden_file() {
    std::fs::write(GOLDEN, render()).expect("write tests/golden/codegen.txt");
}
