//! The seeded fleet of NetCL translation units the compile workloads drive,
//! and the per-unit semantic check of what they compile to.

use netcl::ir::Module;
use netcl_apps::{agg, cache, calc, paxos};
use netcl_bmv2::{Engine, Switch};
use netcl_net::WorkloadRng;
use netcl_p4::ast::P4Program;
use netcl_runtime::managed::ManagedMemory;
use netcl_runtime::message::{pack, unpack, Message};

/// What a unit is an instance of.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Agg(agg::AggConfig),
    Cache(cache::CacheConfig),
    Calc,
    /// Paxos acceptor, learner, leader: the kernel's message type.
    Paxos(u64),
    /// One of four one-kernel families with seeded constants.
    Family(u64),
}

#[derive(Clone, Debug)]
pub struct Unit {
    pub name: String,
    pub source: String,
    pub kind: Kind,
    /// Position in the fleet's fixed schedule of kinds (not in the seeded
    /// order the fleet is driven in); `index % SCHEDULE` is the kind's slot.
    pub index: usize,
    /// The seeded word the unit's constants derive from.
    word: u64,
}

/// Length of the schedule of kinds the fleet repeats.
pub const SCHEDULE: usize = 16;

/// Builds the fleet. What it contains does not depend on the seed, so that
/// every seed compiles the same amount of work: each run of 16 units holds
/// two AGG and two CACHE units walking their configuration grids, CALC, the
/// three Paxos kernels, and two each of four one-kernel families. The seed
/// draws the order the units are driven in, the families' constants and
/// the packets units are checked on. Names are unique.
pub fn generate(seed: u64, units: usize) -> Vec<Unit> {
    let mut rng = WorkloadRng::new(seed ^ 0xF1EE7);
    let pick = |choices: [u32; 3], j: usize| choices[j % 3];
    let mut fleet: Vec<Unit> = (0..units)
        .map(|index| {
            // `j` counts the AGG (or CACHE) units so far: two per turn.
            let j = index / SCHEDULE * 2 + index % 2;
            let kind = match index % SCHEDULE {
                0 | 1 => Kind::Agg(agg::AggConfig {
                    num_workers: 2 + (j % 7) as u32,
                    num_slots: pick([8, 16, 32], j / 3),
                    slot_size: pick([8, 16, 32], j),
                }),
                2 | 3 => Kind::Cache(cache::CacheConfig {
                    slots: pick([16, 64, 256], j / 3),
                    // 16 words is a structured E0303 on Tofino, so not used.
                    words: pick([2, 4, 8], j),
                    threshold: 64,
                    sketch_cols: pick([256, 1024, 4096], j / 9),
                }),
                4 => Kind::Calc,
                5 => Kind::Paxos(paxos::T_PHASE2A),
                6 => Kind::Paxos(paxos::T_PHASE2B),
                7 => Kind::Paxos(paxos::T_REQUEST),
                n => Kind::Family(n as u64 % 4),
            };
            let word = rng.next_u64();
            let mut unit = Unit { name: String::new(), source: String::new(), kind, index, word };
            unit.render(0);
            unit
        })
        .collect();
    for i in (1..fleet.len()).rev() {
        fleet.swap(i, rng.below(i as u64 + 1) as usize);
    }
    fleet
}

impl Unit {
    /// Rewrites the unit as edit number `rev` of itself (0: as drawn). A
    /// family unit gets new constants, so the edit recompiles it; an
    /// application unit gets a trailing comment, so its text changes but
    /// its IR does not — the two edits an incremental build must handle.
    pub fn render(&mut self, rev: u64) {
        let i = self.index;
        let r = splitmix(self.word ^ rev.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (stem, mut source) = match self.kind {
            Kind::Agg(cfg) => ("agg", agg::netcl_source(&cfg)),
            Kind::Cache(cfg) => ("cache", cache::netcl_source(&cfg)),
            Kind::Calc => ("calc", calc::netcl_source()),
            Kind::Paxos(paxos::T_PHASE2A) => ("pacc", paxos::acceptor_source()),
            Kind::Paxos(paxos::T_PHASE2B) => ("plrn", paxos::learner_source()),
            Kind::Paxos(_) => ("pldr", paxos::leader_source()),
            Kind::Family(0) => {
                let ops = ["+", "^", "&"];
                let (op1, op2) = (ops[(r % 3) as usize], ops[((r >> 2) % 3) as usize]);
                let (c1, c2) = ((r >> 8) & 0xFFFF, (r >> 24) & 0xFFFF);
                (
                    "arith",
                    format!(
                        "_kernel(1) _at(1) void arith{i}(unsigned a, unsigned b, unsigned &r) {{\n\
                         \x20 r = (a {op1} {c1}) {op2} (b ^ {c2});\n}}\n"
                    ),
                )
            }
            Kind::Family(1) => (
                "tally",
                format!(
                    "_net_ unsigned tally{i}[65536];\n\
                     _kernel(1) _at(1) void count{i}(unsigned k, unsigned &c) {{\n\
                     \x20 c = ncl::atomic_sadd_new(&tally{i}[ncl::crc16(k)], {});\n}}\n",
                    1 + r % 7
                ),
            ),
            Kind::Family(2) => (
                "lookup",
                format!(
                    "_net_ _lookup_ ncl::kv<unsigned, unsigned> t{i}[] = \
                     {{{{1,{}}}, {{2,{}}}, {{3,{}}}, {{4,{}}}}};\n\
                     _kernel(1) _at(1) void get{i}(char op, unsigned k, unsigned &v, char &hit) {{\n\
                     \x20 if (op == 1) {{\n\
                     \x20   hit = ncl::lookup(t{i}, k, v);\n\
                     \x20   if (hit) return ncl::reflect();\n\
                     \x20 }}\n}}\n",
                    r & 0xFF,
                    (r >> 8) & 0xFF,
                    (r >> 16) & 0xFF,
                    (r >> 24) & 0xFF
                ),
            ),
            Kind::Family(_) => (
                "thresh",
                format!(
                    "_net_ unsigned seq{i}[65536];\n\
                     _kernel(1) _at(1) void acc{i}(unsigned inst, unsigned rnd, unsigned &o) {{\n\
                     \x20 unsigned cur = ncl::atomic_sadd_new(&seq{i}[ncl::crc16(inst)], rnd);\n\
                     \x20 o = cur > {} ? cur : 0;\n}}\n",
                    16 + r % 1000
                ),
            ),
        };
        if rev > 0 {
            // Also on family units: their few constants can repeat an
            // earlier revision's, and an edit must always be new text.
            source.push_str(&format!("// edit {rev}\n"));
        }
        self.name = format!("{stem}_{i}.ncl");
        self.source = source;
    }
}

fn splitmix(x: u64) -> u64 {
    WorkloadRng::new(x).next_u64()
}

/// Packets each application unit is checked on.
const CHECK_PACKETS: u64 = 8;

/// Checks what one device of `unit` compiled to. For every kind, the
/// default (threaded) engine must agree with the interpreter oracle on
/// [`CHECK_PACKETS`] seeded packets; for AGG, CACHE and CALC the outputs
/// must also equal the application's reference function. Family units
/// have no packet format of their own and pass vacuously.
pub fn check_device(
    unit: &Unit,
    device: u16,
    program: &P4Program,
    tna_ir: &Module,
    seed: u64,
) -> Result<(), String> {
    let mut rng = WorkloadRng::new(seed ^ unit.word);
    let mut fast = Switch::new(program.clone());
    let mut oracle = Switch::new(program.clone());
    oracle.set_engine(Engine::Interpreted);
    // `(wire bytes, expected output check)` in send order.
    type Expect = Box<dyn Fn(&[u8]) -> Result<(), String>>;
    let mut packets: Vec<(Vec<u8>, Option<Expect>)> = Vec::new();
    match unit.kind {
        Kind::Family(_) => return Ok(()),
        Kind::Calc => {
            for _ in 0..CHECK_PACKETS {
                let ops = [calc::OP_ADD, calc::OP_SUB, calc::OP_AND, calc::OP_OR, calc::OP_XOR];
                let op = ops[rng.below(5) as usize];
                let (a, b) = (rng.next_u64() & 0xFFFF_FFFF, rng.next_u64() & 0xFFFF_FFFF);
                let want = calc::reference(op, a, b);
                packets.push((
                    calc::request(7, op, a, b),
                    Some(Box::new(move |out| match calc::result_of(out) {
                        Some(got) if got == want => Ok(()),
                        got => Err(format!("calc {a} {op} {b}: got {got:?}, want {want}")),
                    })),
                ));
            }
        }
        Kind::Agg(cfg) => {
            // Chunk 0 from every worker, then chunk 1 until the budget is
            // spent: the last worker's packet of a chunk carries the sum.
            let spec = agg::spec(&cfg);
            let mut sent = 0;
            'chunks: for c in 0.. {
                for w in 0..cfg.num_workers {
                    if sent == CHECK_PACKETS {
                        break 'chunks;
                    }
                    sent += 1;
                    let spec = spec.clone();
                    let expect: Option<Expect> = (w + 1 == cfg.num_workers).then(|| {
                        Box::new(move |out: &[u8]| {
                            let mut values = Vec::new();
                            unpack(
                                out,
                                &spec,
                                &mut [None, None, None, None, None, Some(&mut values)],
                            )
                            .map_err(|e| format!("agg result does not unpack: {e:?}"))?;
                            let want: Vec<u64> =
                                (0..cfg.slot_size).map(|i| agg::expected(&cfg, c, i)).collect();
                            if values == want {
                                Ok(())
                            } else {
                                Err(format!("agg chunk {c}: got {values:?}, want {want:?}"))
                            }
                        }) as Expect
                    });
                    packets.push((agg::chunk_packet(&cfg, w, c), expect));
                }
            }
        }
        Kind::Cache(cfg) => {
            let mm = ManagedMemory::new(tna_ir);
            let spec = cache::spec(&cfg);
            let cached: Vec<u64> = (0..CHECK_PACKETS / 2).map(|_| rng.below(1 << 20)).collect();
            for sw in [&mut fast, &mut oracle] {
                for (slot, &k) in cached.iter().enumerate() {
                    cache::populate(&mm, sw, &cfg, slot as u16, k, &cache::server_value(&cfg, k));
                }
            }
            for (i, &k) in cached.iter().enumerate() {
                // A cached key must hit with the server's value; its
                // neighbour above the drawn range must miss.
                for (key, want_hit) in [(k, 1u64), ((1 << 20) + i as u64, 0)] {
                    let spec = spec.clone();
                    packets.push((
                        cache::request(&cfg, 1, 2, cache::OP_GET, key, None),
                        Some(Box::new(move |out| {
                            let (mut hit, mut v) = (Vec::new(), Vec::new());
                            unpack(
                                out,
                                &spec,
                                &mut [None, None, Some(&mut hit), None, Some(&mut v)],
                            )
                            .map_err(|e| format!("cache reply does not unpack: {e:?}"))?;
                            let value_ok = want_hit == 0 || v == cache::server_value(&cfg, key);
                            if hit[0] == want_hit && value_ok {
                                Ok(())
                            } else {
                                Err(format!("cache GET {key}: hit {} value {v:?}", hit[0]))
                            }
                        })),
                    ));
                }
            }
        }
        Kind::Paxos(ty) => {
            let spec = paxos::spec();
            for _ in 0..CHECK_PACKETS {
                let value: Vec<u64> = (0..8).map(|_| rng.next_u64() & 0xFFFF_FFFF).collect();
                let m = Message::new(1, 2, 1, device);
                let wire = pack(
                    &m,
                    &spec,
                    &[
                        Some(&[ty]),
                        Some(&[rng.below(16)]),
                        Some(&[1 + rng.below(4)]),
                        Some(&[0]),
                        Some(&[1 << rng.below(3)]),
                        Some(&value),
                    ],
                )
                .map_err(|e| format!("paxos packet does not pack: {e:?}"))?;
                packets.push((wire, None));
            }
        }
    }
    for (i, (wire, expect)) in packets.iter().enumerate() {
        let got = fast.process(wire).map(|(_, out)| out);
        let want = oracle.process(wire).map(|(_, out)| out);
        if got != want {
            return Err(format!("{} packet {i}: threaded and interpreter differ", unit.name));
        }
        if let (Some(expect), Ok(out)) = (expect, &got) {
            expect(out).map_err(|e| format!("{} packet {i}: {e}", unit.name))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_a_pure_function_of_the_seed_with_unique_names() {
        let (a, b, c) = (generate(7, 64), generate(7, 64), generate(8, 64));
        let text = |f: &[Unit]| f.iter().map(|u| u.source.clone()).collect::<Vec<_>>();
        assert_eq!(text(&a), text(&b));
        assert_ne!(text(&a), text(&c));
        // Another seed is another order and other constants, not other work.
        let kinds = |f: &[Unit]| {
            let mut k: Vec<String> = f.iter().map(|u| format!("{:?}", u.kind)).collect();
            k.sort();
            k
        };
        assert_eq!(kinds(&a), kinds(&c));
        let mut names: Vec<&str> = a.iter().map(|u| u.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 64);
    }

    #[test]
    fn an_edit_changes_the_text_and_revision_zero_restores_it() {
        for mut u in generate(7, 32) {
            let pristine = u.source.clone();
            u.render(3);
            assert_ne!(u.source, pristine, "{}", u.name);
            u.render(0);
            assert_eq!(u.source, pristine);
        }
    }
}
