//! Property-based tests over core invariants (proptest).

use netcl::sema::model::{SpecItem, Specification};
use netcl::sema::Ty;
use netcl::{CompileOptions, Compiler};
use netcl_bmv2::{Engine, Switch, SwitchCounters, TableUpdate};
use netcl_net::WorkloadRng;
use netcl_p4::ast::{EntryKey, TableEntry};
use netcl_p4::{parse::parse_program, print::print_program};
use netcl_runtime::message::{pack, pack_into, unpack, Message, MessageError};
use proptest::prelude::*;
use std::sync::Arc;

mod listings;
mod shipped;

fn arb_ty() -> impl Strategy<Value = Ty> {
    prop_oneof![Just(Ty::U8), Just(Ty::U16), Just(Ty::U32), Just(Ty::U64), Just(Ty::Bool),]
}

fn arb_spec() -> impl Strategy<Value = Specification> {
    proptest::collection::vec((arb_ty(), 1u32..5), 1..6).prop_map(|items| Specification {
        items: items.into_iter().map(|(ty, count)| SpecItem { count, ty }).collect(),
    })
}

/// The wire format as `netcl-runtime` wrote and read it before it moved
/// whole words — scalars first, then arrays, every value one byte at a time
/// — kept as the oracle the production `pack` / `pack_into` / `unpack` are
/// held to: the packet, and below what an unpack of every argument reads.
fn oracle_pack(m: &Message, spec: &Specification, args: &[Option<&[u64]>]) -> Vec<u8> {
    let mut out = Vec::new();
    m.write_header(&mut out);
    for arrays in [false, true] {
        for (item, arg) in spec.items.iter().zip(args).filter(|(i, _)| (i.count > 1) == arrays) {
            for e in 0..item.count as usize {
                let v = arg.map_or(0, |vals| item.ty.wrap(vals[e]));
                out.extend((0..item.ty.size_bytes()).rev().map(|b| (v >> (8 * b)) as u8));
            }
        }
    }
    out
}

fn oracle_unpack(bytes: &[u8], spec: &Specification) -> Vec<Vec<u64>> {
    let mut bytes = bytes[netcl_runtime::NCL_HEADER_BYTES..].iter();
    let mut outs = vec![Vec::new(); spec.items.len()];
    for arrays in [false, true] {
        for (i, item) in spec.items.iter().enumerate().filter(|(_, i)| (i.count > 1) == arrays) {
            for _ in 0..item.count {
                let v = (0..item.ty.size_bytes())
                    .fold(0, |v, _| (v << 8) | *bytes.next().unwrap() as u64);
                outs[i].push(v);
            }
        }
    }
    outs
}

/// What the two engine differentials below run: every Table III
/// application's kernel device, plus a recirculating kernel (`ncl::repeat()`
/// — no Table III app recirculates), each as `(name, device, program)`.
/// Compiled once per process.
fn differential_programs() -> &'static [(String, u16, Arc<netcl_p4::P4Program>)] {
    static PROGRAMS: std::sync::OnceLock<Vec<(String, u16, Arc<netcl_p4::P4Program>)>> =
        std::sync::OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let cc = Compiler::new(CompileOptions::default());
        let mut ps: Vec<_> = netcl_apps::all_apps()
            .into_iter()
            .map(|app| {
                let unit = cc.compile(app.name, &app.netcl_source).unwrap();
                let p4 = unit.device(app.device).expect("kernel device").tna_p4.clone();
                (app.name.to_string(), app.device, p4)
            })
            .collect();
        let spin = cc
            .compile(
                "spin.ncl",
                "_kernel(1) _at(1) void spin(unsigned k, unsigned &n) {\n\
                   n = n + 1;\n\
                   if (n < 3) return ncl::repeat();\n\
                   return ncl::reflect();\n\
                 }\n",
            )
            .unwrap();
        ps.push(("spin".to_string(), 1, spin.devices[0].tna_p4.clone()));
        ps
    })
}

/// One wire for the engine differentials: up to 160 random bytes, and on
/// every other draw behind a well-formed NCL header naming computation 1
/// at `device` — so the kernel body runs on arbitrary (possibly truncated)
/// arguments, not just the parser and the transit path, which is all that
/// purely random bytes ever reach.
fn differential_wire(rng: &mut WorkloadRng, device: u16) -> Vec<u8> {
    let mut wire = Vec::new();
    if rng.below(2) == 0 {
        let (src, dst) = (rng.next_u64() as u16, rng.next_u64() as u16);
        Message::new(src, dst, 1, device).write_header(&mut wire);
    }
    let len = rng.below(160) as usize;
    wire.extend((0..len).map(|_| rng.next_u64() as u8));
    wire
}

/// One shipped TNA program read back from its text (`shipped/mod.rs`).
struct Reparsed {
    label: String,
    device: u16,
    text: String,
    original: Arc<netcl_p4::P4Program>,
    reparsed: Arc<netcl_p4::P4Program>,
}

/// Every shipped TNA program, printed and parsed once per process.
fn reparsed_programs() -> &'static [Reparsed] {
    static PROGRAMS: std::sync::OnceLock<Vec<Reparsed>> = std::sync::OnceLock::new();
    PROGRAMS.get_or_init(|| {
        shipped::tna_programs()
            .into_iter()
            .map(|(label, device, program)| {
                let text = print_program(&program);
                let mut reparsed = parse_program(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
                // The text does not carry a header stack's length: the
                // printer writes no `struct headers_t`, so every header
                // reads back as a plain one. The length is restored here;
                // everything else about a header must read back as is.
                for (h, o) in Arc::make_mut(&mut reparsed.headers).iter_mut().zip(&*program.headers)
                {
                    h.stack = o.stack;
                }
                assert_eq!(reparsed.headers, program.headers, "{label}");
                let (original, reparsed) = (Arc::new(program), Arc::new(reparsed));
                Reparsed { label, device, text, original, reparsed }
            })
            .collect()
    })
}

/// What `f` returns, or — when it panics instead — `what` names the call
/// and its input.
fn returns<T>(f: impl FnOnce() -> T, what: impl FnOnce() -> String) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|_| what())
}

/// `parse_program` on `bytes` (read as UTF-8, invalid sequences replaced)
/// returns, with a program or a `ParseError`, rather than panicking.
fn parse_returns(bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes);
    returns(|| drop(parse_program(&text)), || format!("parse_program panicked on {text:?}"))
}

/// Any [`Ty`] the type exists to hold, widths the language never makes
/// included: a message's specification is data a receiver may be handed.
fn arb_any_ty() -> impl Strategy<Value = Ty> {
    use netcl::sema::types::ScalarTy;
    let scalar =
        || (any::<u8>(), any::<bool>()).prop_map(|(bits, signed)| ScalarTy { bits, signed });
    prop_oneof![
        Just(Ty::Void),
        Just(Ty::Bool),
        Just(Ty::Action),
        (any::<u8>(), any::<bool>()).prop_map(|(bits, signed)| Ty::Int { bits, signed }),
        (scalar(), scalar()).prop_map(|(key, value)| Ty::Kv { key, value }),
        (scalar(), scalar()).prop_map(|(range, value)| Ty::Rv { range, value }),
    ]
}

/// Any specification: any types, and counts from none to `u32::MAX`.
fn arb_any_spec() -> impl Strategy<Value = Specification> {
    let count = prop_oneof![0u32..5, any::<u32>()];
    proptest::collection::vec((arb_any_ty(), count), 0..6).prop_map(|items| Specification {
        items: items.into_iter().map(|(ty, count)| SpecItem { count, ty }).collect(),
    })
}

/// Seeded hand-built control flow — the shapes `netcl-core::codegen` never
/// emits — for `threaded_matches_interpreter_on_hand_built_control_flow`:
/// one four-byte header, two locals, a register with two `RegisterAction`s
/// and three same-width lane registers with three each (`salu_run`), a
/// table whose entries and default call the two generated actions.
mod shapes {
    use netcl::sema::builtins::{AtomicOp, AtomicRmw};
    use netcl_net::WorkloadRng;
    use netcl_p4::ast::*;
    use std::sync::Arc;

    fn field(rng: &mut WorkloadRng) -> Expr {
        match rng.below(7) {
            4 => Expr::field(&["meta", "t0"]),
            5 => Expr::field(&["meta", "t1"]),
            // Bare: action parameter when bound, header field `x` otherwise.
            6 => Expr::field(&["x"]),
            i => Expr::field(&["hdr", "h", ["a", "b", "c", "d"][i as usize]]),
        }
    }

    /// A pure source or condition: every binary operator (the hot arms the
    /// lowering specializes and the cold ones it shares with the oracle),
    /// and the unary forms whose mask depends on the operand's static width.
    fn expr(rng: &mut WorkloadRng) -> Expr {
        use P4BinOp::*;
        const OPS: [P4BinOp; 18] = [
            Add, Sub, Mul, And, Or, Xor, Shl, Shr, SatAdd, SatSub, Eq, Ne, Lt, Le, Gt, Ge, LAnd,
            LOr,
        ];
        let (f, k) = (Box::new(field(rng)), Box::new(Expr::val(rng.below(4), 8)));
        let op = OPS[rng.below(18) as usize];
        match rng.below(8) {
            0 => *f,
            1 => *k,
            2 => Expr::Not(f),
            3 => Expr::BitNot(Box::new(Expr::Bin(op, f, k))),
            4 => Expr::Slice(Box::new(Expr::Bin(op, f, k)), 5, 1),
            5 => Expr::Cast(4, Box::new(Expr::Bin(op, k, f))),
            _ => Expr::Bin(op, f, k),
        }
    }

    fn exec(ra: &str, rng: &mut WorkloadRng) -> Stmt {
        let dst = (rng.below(2) == 0).then(|| Expr::field(&["meta", "t1"]));
        Stmt::ExecuteRegisterAction { dst, ra: ra.into(), index: field(rng) }
    }

    /// A run of SALU sites on the lane registers `L0`–`L2` (one width, so
    /// the `add*` sites share one microprogram, the `cadd*` sites another)
    /// that mostly fuses into one lane loop: one index leaf, each site
    /// behind at most one move — the move of its condition, as generated
    /// code spells it. Mixed in is everything that must end a run or not
    /// be fused across: a different microprogram (`max*`, or `add*` beside
    /// `cadd*`: with and without a condition), a different index leaf, a
    /// move or a site storing to a slot the index reads (`meta.t1` under a
    /// meta index, bare `x` or `meta.x` under a bare one), and a site
    /// storing the next one's condition or operand.
    fn salu_run(rng: &mut WorkloadRng) -> Vec<Stmt> {
        let t1 = || Expr::field(&["meta", "t1"]);
        let (index, meta) = match rng.below(3) {
            0 => (Expr::Cast(8, Box::new(t1())), true),
            1 => (t1(), true),
            _ => (Expr::field(&["x"]), false),
        };
        let writes_index = |rng: &mut WorkloadRng| match (meta, rng.below(2)) {
            (true, _) => t1(),
            (false, 0) => Expr::field(&["x"]),
            (false, _) => Expr::field(&["meta", "x"]),
        };
        let kind = ["cadd", "add"][rng.below(2) as usize];
        let mut run = Vec::new();
        for lane in 0..2 + rng.below(5) {
            let ra = match rng.below(10) {
                0 => "max",
                1 => ["cadd", "add"][rng.below(2) as usize],
                _ => kind,
            };
            match rng.below(6) {
                0..=2 => {
                    let a = Box::new(Expr::field(&["hdr", "h", "a"]));
                    let eq = Expr::Bin(P4BinOp::Eq, a, Box::new(Expr::val(rng.below(4), 8)));
                    run.push(Stmt::Assign(
                        Expr::field(&["meta", "t0"]),
                        Expr::Cast(8, Box::new(eq)),
                    ));
                }
                3 => run.push(Stmt::Assign(writes_index(rng), Expr::val(rng.below(4), 8))),
                _ => {}
            }
            let dst = match rng.below(8) {
                0 => Some(writes_index(rng)),
                // The next site's condition, and its operand.
                1 => Some(Expr::field(&["meta", "t0"])),
                2 => Some(Expr::field(&["hdr", "h", "c"])),
                3 => None,
                _ => Some(Expr::field(&["hdr", "h", ["a", "b", "d"][rng.below(3) as usize]])),
            };
            let index = if rng.below(10) == 0 { field(rng) } else { index.clone() };
            run.push(Stmt::ExecuteRegisterAction {
                dst,
                ra: format!("{ra}{}", lane % 3).into(),
                index,
            });
        }
        run
    }

    /// `calls`: whether the block may apply the table or call an action
    /// (the `apply` block may; action bodies may not, or they would recurse).
    fn stmt(rng: &mut WorkloadRng, depth: u32, calls: bool) -> Stmt {
        match rng.below(12) {
            0..=2 if depth < 4 => branch(rng, depth, calls),
            3 if calls => Stmt::CallAction(["act0", "act1"][rng.below(2) as usize].into()),
            4 if calls => Stmt::ApplyTable("t".into()),
            // A failing statement inside an arm; whatever follows must not run.
            5 if depth > 0 && rng.below(4) == 0 => Stmt::CallAction("missing".into()),
            6 => exec("bump", rng),
            7 => exec("cadd", rng),
            _ => {
                let dst = field(rng);
                Stmt::Assign(dst, expr(rng))
            }
        }
    }

    fn block(rng: &mut WorkloadRng, depth: u32, calls: bool) -> Vec<Stmt> {
        let mut block = Vec::new();
        for _ in 0..rng.below(4) {
            match rng.below(6) {
                0 => block.extend(salu_run(rng)),
                _ => block.push(stmt(rng, depth, calls)),
            }
        }
        block
    }

    /// An `if` on an expression or on a table hit / miss; either arm may be
    /// empty.
    fn branch(rng: &mut WorkloadRng, depth: u32, calls: bool) -> Stmt {
        let cond = match rng.below(6) {
            0 if calls => Expr::TableHit("t".into()),
            1 if calls => Expr::TableMiss("t".into()),
            _ => expr(rng),
        };
        let then = block(rng, depth + 1, calls);
        let els = if rng.below(2) == 0 { vec![] } else { block(rng, depth + 1, calls) };
        Stmt::If { cond, then, els }
    }

    pub fn program(rng: &mut WorkloadRng) -> P4Program {
        let mut apply = block(rng, 0, true);
        // `if` / `else` nested to depth 4.
        let mut nest = block(rng, 4, true);
        for depth in (0..4).rev() {
            let els = block(rng, depth + 1, true);
            nest = vec![Stmt::If { cond: expr(rng), then: nest, els }];
        }
        apply.extend(nest);
        // A SALU site directly after a join point; an action call between
        // two `if`s; a failing statement in a `then` arm followed by moves;
        // an `if` as the control's last statement.
        apply.extend([branch(rng, 0, true), exec("bump", rng)]);
        apply.extend([branch(rng, 0, true), Stmt::CallAction("act0".into())]);
        let d = Expr::field(&["hdr", "h", "d"]);
        apply.push(Stmt::If {
            cond: Expr::Bin(P4BinOp::Eq, Box::new(d.clone()), Box::new(Expr::val(3, 8))),
            then: vec![
                Stmt::CallAction("missing".into()),
                Stmt::Assign(d.clone(), Expr::val(9, 8)),
                Stmt::Assign(Expr::field(&["meta", "t0"]), d),
            ],
            els: vec![],
        });
        apply.push(branch(rng, 0, true));
        // SALU runs at the top level and in an action body, where the bare
        // `x` index reads the bound parameter.
        apply.extend(salu_run(rng));
        // ... and of an action body.
        let mut act0 = block(rng, 0, false);
        act0.extend(salu_run(rng));
        act0.push(branch(rng, 0, false));
        let action =
            |name: &str, body| ActionDef { name: name.into(), params: vec![("x".into(), 8)], body };
        let ra = |name: &str, cond: bool| RegisterActionDef {
            name: name.into(),
            register: "R".into(),
            op: AtomicOp { rmw: AtomicRmw::Add, cond, ret_new: true },
            cond: cond.then(|| Expr::field(&["meta", "t0"])),
            operands: vec![Expr::field(&["hdr", "h", "c"])],
        };
        // Per lane register: `add`, `cadd` (conditional on `meta.t0 == 1`,
        // as generated code spells it) and `max`.
        let mut register_actions = vec![ra("bump", false), ra("cadd", true)];
        for reg in 0..3 {
            let t0_is_1 = || {
                let t0 = Box::new(Expr::field(&["meta", "t0"]));
                Expr::Bin(P4BinOp::Eq, t0, Box::new(Expr::val(1, 8)))
            };
            let lane_ra = |name: &str, rmw, cond: bool, operand| RegisterActionDef {
                name: format!("{name}{reg}").into(),
                register: format!("L{reg}").into(),
                op: AtomicOp { rmw, cond, ret_new: cond },
                cond: cond.then(t0_is_1),
                operands: vec![Expr::field(&["hdr", "h", operand])],
            };
            register_actions.extend([
                lane_ra("add", AtomicRmw::Add, false, "c"),
                lane_ra("cadd", AtomicRmw::Add, true, "c"),
                lane_ra("max", AtomicRmw::Max, false, "b"),
            ]);
        }
        let lane_register = |i| RegisterDef { name: format!("L{i}").into(), elem_bits: 8, size: 4 };
        let registers = [RegisterDef { name: "R".into(), elem_bits: 8, size: 4 }]
            .into_iter()
            .chain((0..3).map(lane_register))
            .collect();
        let entry = |k, action: &str| TableEntry {
            keys: vec![EntryKey::Value(k)],
            action: action.into(),
            args: vec![k + 5],
        };
        let fields = ["a", "b", "c", "d"].map(|f| (f.to_string(), 8)).to_vec();
        P4Program {
            name: "shapes".into(),
            target: Target::V1Model,
            headers: vec![HeaderDef { name: "h_t".into(), fields, stack: 1 }].into(),
            parser: Some(Arc::new(ParserDef {
                name: "P".into(),
                states: vec![ParserState {
                    name: "start".into(),
                    extracts: vec!["hdr.h".into()],
                    transition: Transition::Accept,
                }],
            })),
            controls: vec![ControlDef {
                name: "Ig".into(),
                locals: vec![("t0".into(), 8), ("t1".into(), 8)],
                registers,
                register_actions,
                hashes: vec![],
                actions: vec![action("act0", act0), action("act1", block(rng, 0, false))],
                tables: vec![TableDef {
                    name: "t".into(),
                    keys: vec![(Expr::field(&["hdr", "h", "a"]), MatchKind::Exact)],
                    actions: vec!["act0".into(), "act1".into()],
                    entries: vec![entry(1, "act0"), entry(2, "act1")],
                    default_action: ["NoAction", "act1"][rng.below(2) as usize].into(),
                    size: 8,
                }],
                apply,
            }]
            .into(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pack ∘ unpack is the identity for any specification and payload, with
    /// any subset of the arguments ignored (`None`): `pack` is the oracle's
    /// packet byte for byte, `pack_into` a longer, dirty, reused buffer is
    /// `pack`, `unpack` into dirty reused vectors reads what the oracle
    /// reads, and a cut packet is `Truncated`, never a panic.
    #[test]
    fn pack_unpack_roundtrip(
        spec in arb_spec(),
        seed in any::<u64>(),
        ignored in any::<u8>(),
        cut in any::<u64>(),
    ) {
        let mut rng = seed;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 16
        };
        let payload: Vec<Vec<u64>> = spec
            .items
            .iter()
            .map(|item| (0..item.count).map(|_| item.ty.wrap(next())).collect())
            .collect();
        let m = Message::new(1, 2, 7, 3);
        let given = |i: usize| ignored >> i & 1 == 0;
        let refs: Vec<Option<&[u64]>> =
            payload.iter().enumerate().map(|(i, v)| given(i).then_some(v.as_slice())).collect();
        let bytes = pack(&m, &spec, &refs).unwrap();
        prop_assert_eq!(bytes.len(), Message::size(&spec));
        prop_assert_eq!(&bytes, &oracle_pack(&m, &spec, &refs));

        let mut reused = vec![0xA5; bytes.len() + 1 + (seed % 64) as usize];
        pack_into(&m, &spec, &refs, &mut reused).unwrap();
        prop_assert_eq!(&reused, &bytes);

        let mut outs: Vec<Vec<u64>> = vec![vec![0xDEAD; (seed % 7) as usize]; spec.items.len()];
        {
            let mut refs: Vec<Option<&mut Vec<u64>>> = outs.iter_mut().map(Some).collect();
            let hdr = unpack(&bytes, &spec, &mut refs).unwrap();
            prop_assert_eq!(hdr, m);
            let short = &bytes[..(cut % bytes.len() as u64) as usize];
            prop_assert_eq!(unpack(short, &spec, &mut refs), Err(MessageError::Truncated));
        }
        prop_assert_eq!(&outs, &oracle_unpack(&bytes, &spec));
        for (i, (out, sent)) in outs.iter().zip(&payload).enumerate() {
            let zeros = vec![0; sent.len()];
            prop_assert_eq!(out, if given(i) { sent } else { &zeros });
        }
    }

    /// The compiled calculator agrees with the reference semantics on
    /// arbitrary operands — through the full pipeline and the switch.
    #[test]
    fn calculator_differential(a in any::<u32>(), b in any::<u32>(), op_idx in 0usize..5) {
        use netcl_apps::calc;
        let ops = [calc::OP_ADD, calc::OP_SUB, calc::OP_AND, calc::OP_OR, calc::OP_XOR];
        let op = ops[op_idx];
        // Compile once per process.
        use std::sync::OnceLock;
        static PROGRAM: OnceLock<Arc<netcl_p4::P4Program>> = OnceLock::new();
        let program = PROGRAM.get_or_init(|| {
            Compiler::new(CompileOptions::default())
                .compile("calc.ncl", &calc::netcl_source())
                .unwrap()
                .devices[0]
                .tna_p4
                .clone()
        });
        let mut sw = Switch::new(program.clone());
        let (_, reply) = sw.process(&calc::request(7, op, a as u64, b as u64)).unwrap();
        prop_assert_eq!(calc::result_of(&reply).unwrap(), calc::reference(op, a as u64, b as u64));
    }

    /// For every Table III application (plus a synthetic recirculating
    /// kernel), `Switch::process_batch` over a batch of random wires —
    /// kernel-addressed, truncated, and garbage alike
    /// ([`differential_wire`]) — produces exactly the outcomes,
    /// output bytes, `SwitchCounters`, and register state of a scalar
    /// `process_into` loop over the same wires.
    #[test]
    fn process_batch_matches_scalar_loop_all_apps(seed in any::<u64>()) {
        use netcl_bmv2::PacketBatch;
        let programs = differential_programs();
        let mut rng = WorkloadRng::new(seed);
        for (name, device, program) in programs {
            // Both engines must hold batched ≡ scalar.
            for engine in [Engine::Threaded, Engine::Interpreted] {
                let mut scalar = Switch::new(program.clone());
                scalar.set_engine(engine);
                let mut batched = Switch::new(program.clone());
                batched.set_engine(engine);
                let wires: Vec<Vec<u8>> =
                    (0..8).map(|_| differential_wire(&mut rng, *device)).collect();
                let mut batch = PacketBatch::new();
                for w in &wires {
                    batch.push(w);
                }
                batched.process_batch(&mut batch);
                let mut pkt = scalar.new_packet();
                for (i, w) in wires.iter().enumerate() {
                    let mut out = Vec::new();
                    let r = scalar.process_into(w, &mut pkt, &mut out);
                    prop_assert_eq!(
                        &r, batch.outcome(i),
                        "{} [{}]: outcome diverges on packet {} ({:?})",
                        name, engine.name(), i, w
                    );
                    if r.is_ok() {
                        prop_assert_eq!(
                            out.as_slice(), batch.output(i),
                            "{} [{}]: output bytes diverge on packet {}", name, engine.name(), i
                        );
                    }
                }
                prop_assert_eq!(
                    scalar.counters(), batched.counters(),
                    "{} [{}]: SwitchCounters diverge", name, engine.name()
                );
                let sr: Vec<(String, Vec<u64>)> =
                    scalar.registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect();
                let br: Vec<(String, Vec<u64>)> =
                    batched.registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect();
                prop_assert_eq!(sr, br, "{} [{}]: register state diverges", name, engine.name());
            }
        }
    }

    /// The direct-threaded backend ≡ the tree-walking interpreter, packet
    /// for packet, for every Table III application plus a recirculating
    /// `ncl::repeat` kernel, on random wires (kernel-addressed, truncated,
    /// and garbage alike — [`differential_wire`]): same output bytes, same
    /// error values, same
    /// `SwitchCounters`, same final registers.
    #[test]
    fn threaded_matches_interpreter_all_apps(seed in any::<u64>()) {
        let programs = differential_programs();
        let mut rng = WorkloadRng::new(seed);
        for (name, device, program) in programs {
            let mut threaded = Switch::new(program.clone());
            prop_assert_eq!(threaded.engine(), Engine::Threaded, "threaded is the default");
            let mut oracle = Switch::new(program.clone());
            oracle.set_engine(Engine::Interpreted);
            for _ in 0..6 {
                let wire = differential_wire(&mut rng, *device);
                let rt = threaded.process(&wire);
                let ro = oracle.process(&wire);
                match (&rt, &ro) {
                    (Ok((_, ot)), Ok((_, oo))) => {
                        prop_assert_eq!(ot, oo, "{name}: threaded/oracle outputs on {wire:?}");
                    }
                    (Err(et), Err(eo)) => {
                        prop_assert_eq!(et, eo, "{name}: threaded/oracle errors on {wire:?}");
                    }
                    _ => prop_assert!(
                        false,
                        "{name}: engines disagree about failing {wire:?}: {rt:?} vs {ro:?}"
                    ),
                }
            }
            prop_assert_eq!(
                threaded.counters(), oracle.counters(),
                "{}: threaded/oracle counters diverge", name
            );
            // The two switches really ran different engines.
            prop_assert_eq!(threaded.engine().name(), "threaded");
            prop_assert_eq!(oracle.engine().name(), "interpreted");
            let tr: Vec<(String, Vec<u64>)> =
                threaded.registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect();
            let orr: Vec<(String, Vec<u64>)> =
                oracle.registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect();
            prop_assert_eq!(&tr, &orr, "{}: threaded/oracle registers diverge", name);
        }
    }

    /// The same differential over control flow the code generator never
    /// emits (`shapes::program`): jump targets and run boundaries are what
    /// the lowering decides, and the shipped applications only exercise
    /// the shapes `netcl-core::codegen` produces. Same output bytes, same
    /// errors, same `SwitchCounters`, same final registers.
    #[test]
    fn threaded_matches_interpreter_on_hand_built_control_flow(seed in any::<u64>()) {
        let mut rng = WorkloadRng::new(seed);
        let program = Arc::new(shapes::program(&mut rng));
        let mut threaded = Switch::new(program.clone());
        let mut oracle = Switch::new(program.clone());
        oracle.set_engine(Engine::Interpreted);
        for _ in 0..12 {
            // Small byte values, so conditions and table keys go both ways;
            // one wire in eight is truncated.
            let len = if rng.below(8) == 0 { rng.below(4) } else { 4 + rng.below(3) };
            let wire: Vec<u8> = (0..len).map(|_| rng.below(4) as u8).collect();
            let rt = threaded.process(&wire).map(|(_, out)| out);
            let ro = oracle.process(&wire).map(|(_, out)| out);
            prop_assert_eq!(rt, ro, "on {:?} of {:#?}", wire, program);
        }
        prop_assert_eq!(threaded.counters(), oracle.counters(), "counters of {:#?}", program);
        prop_assert!(threaded.registers().eq(oracle.registers()), "registers of {:#?}", program);
    }

    /// Wire parsing is total: `Message::read_header` and `unpack` never
    /// panic on arbitrary byte strings — the input path the simulator's
    /// corruption fault exercises — and report `Truncated` exactly when the
    /// buffer is shorter than the specification demands.
    #[test]
    fn unpack_is_total_on_arbitrary_bytes(
        spec in arb_spec(),
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        use netcl_runtime::message::NCL_HEADER_BYTES;
        let header = Message::read_header(&bytes);
        if bytes.len() < NCL_HEADER_BYTES {
            prop_assert_eq!(header, Err(MessageError::Truncated));
        } else {
            prop_assert!(header.is_ok());
        }
        let mut outs: Vec<Vec<u64>> = vec![Vec::new(); spec.items.len()];
        let mut refs: Vec<Option<&mut Vec<u64>>> = outs.iter_mut().map(Some).collect();
        match unpack(&bytes, &spec, &mut refs) {
            Ok(hdr) => {
                prop_assert!(bytes.len() >= Message::size(&spec));
                prop_assert_eq!(Ok(hdr), header);
            }
            Err(e) => {
                prop_assert!(bytes.len() < Message::size(&spec));
                prop_assert_eq!(e, MessageError::Truncated);
            }
        }
    }

    /// Nor under any specification — any type, any count up to `u32::MAX`,
    /// any subset of the arguments asked for: an unpack is the arguments or
    /// a structured error. `ArgWidth` names the first element that is not 1
    /// to 8 bytes wide; else `Truncated` is exactly a buffer shorter than
    /// the packet.
    #[test]
    fn unpack_is_total_on_arbitrary_specifications(
        spec in arb_any_spec(),
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        wanted in proptest::collection::vec(any::<bool>(), 6..7),
    ) {
        let mut outs: Vec<Vec<u64>> = vec![Vec::new(); spec.items.len()];
        let mut args: Vec<_> = outs.iter_mut().zip(&wanted).map(|(o, &w)| w.then_some(o)).collect();
        let what = || format!("unpack panicked on {bytes:?} under {spec:?}");
        let got = returns(|| unpack(&bytes, &spec, &mut args), what)?;
        let fits = |i: &SpecItem| (1..=8).contains(&i.ty.size_bytes());
        let payload = spec.items.iter().map(|i| i.ty.size_bytes() as u64 * i.count as u64);
        let short = (bytes.len() as u64) < netcl_runtime::NCL_HEADER_BYTES as u64 + payload.sum::<u64>();
        match got {
            Err(MessageError::ArgWidth { arg, .. }) => {
                prop_assert!(spec.items.iter().position(|i| !fits(i)) == Some(arg));
            }
            Err(MessageError::Truncated) => prop_assert!(spec.items.iter().all(fits) && short),
            Ok(_) => prop_assert!(spec.items.iter().all(fits) && !short),
            Err(e) => prop_assert!(false, "unpack returned {:?}", e),
        }
    }

    /// Any strict prefix of a well-formed packet is rejected as truncated,
    /// and a single flipped bit never breaks parsing (there is no checksum:
    /// the corrupted packet decodes, just to different field values).
    #[test]
    fn truncation_errs_and_bit_flips_parse(
        spec in arb_spec(),
        cut in any::<u64>(),
        flip in any::<u64>(),
    ) {
        let zeros: Vec<Option<&[u64]>> = spec.items.iter().map(|_| None).collect();
        let m = Message::new(3, 4, 9, 1);
        let bytes = pack(&m, &spec, &zeros).unwrap();

        let cut = (cut % bytes.len() as u64) as usize;
        let mut none: Vec<Option<&mut Vec<u64>>> = spec.items.iter().map(|_| None).collect();
        prop_assert_eq!(
            unpack(&bytes[..cut], &spec, &mut none),
            Err(MessageError::Truncated)
        );

        let mut flipped = bytes.clone();
        let bit = (flip % (bytes.len() as u64 * 8)) as usize;
        flipped[bit / 8] ^= 1 << (bit % 8);
        let mut outs: Vec<Vec<u64>> = vec![Vec::new(); spec.items.len()];
        let mut refs: Vec<Option<&mut Vec<u64>>> = outs.iter_mut().map(Some).collect();
        prop_assert!(unpack(&flipped, &spec, &mut refs).is_ok());
        prop_assert!(Message::read_header(&flipped).is_ok());
    }

    /// The P4 text hand-off is faithful: for every shipped generated-TNA and
    /// handwritten program `p`, a switch loaded from
    /// `parse_program(&print_program(p))` matches one loaded from `p` on
    /// random wires ([`differential_wire`]) — same outputs and errors, same
    /// `SwitchCounters`, same final registers. Header stack lengths are the
    /// exception, restored by [`reparsed_programs`]. v1model is out of
    /// scope: it prints RegisterActions as comments, so its text is not
    /// meant to be read back. This is also `Switch::process`'s totality
    /// check on wire bytes: every shipped program answers every wire with
    /// an output or a `SwitchError`, and a panic fails the case.
    #[test]
    fn reparsed_programs_run_like_the_originals(seed in any::<u64>()) {
        let mut rng = WorkloadRng::new(seed);
        for r in reparsed_programs() {
            let mut original = Switch::new(r.original.clone());
            let mut from_text = Switch::new(r.reparsed.clone());
            for _ in 0..6 {
                let wire = differential_wire(&mut rng, r.device);
                let want = original.process(&wire).map(|(_, out)| out);
                let got = from_text.process(&wire).map(|(_, out)| out);
                prop_assert_eq!(&got, &want, "{}: on {:?}: {:?} != {:?}", r.label, wire, got, want);
            }
            prop_assert_eq!(from_text.counters(), original.counters(), "{}: counters", r.label);
            prop_assert!(from_text.registers().eq(original.registers()), "{}: registers", r.label);
        }
    }

    /// Every lookup-table state the host installs is observed exactly by
    /// the data plane (managed memory coherence).
    #[test]
    fn managed_lookup_coherent(keys in proptest::collection::btree_set(1u64..1000, 1..8)) {
        use netcl_runtime::managed::ManagedMemory;
        use netcl::sema::model::LookupEntry;
        static UNIT: std::sync::OnceLock<netcl::CompiledUnit> = std::sync::OnceLock::new();
        let unit = UNIT.get_or_init(|| {
            Compiler::new(CompileOptions::default())
                .compile(
                    "t.ncl",
                    "_managed_ _lookup_ ncl::kv<unsigned, unsigned> t[64];\n\
                     _kernel(1) _at(1) void k(unsigned key, unsigned &v, char &hit) {\n\
                       hit = ncl::lookup(t, key, v);\n\
                     }\n",
                )
                .unwrap()
        });
        let spec = unit.model.kernels[0].specification();
        let mut sw = Switch::new(unit.devices[0].tna_p4.clone());
        let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
        for &k in &keys {
            mm.lookup_insert(&mut sw, "t", LookupEntry::Exact { key: k, value: k * 7 }).unwrap();
        }
        for probe in 0u64..1000 {
            if probe % 97 != 0 && !keys.contains(&probe) {
                continue; // subsample misses
            }
            let m = Message::new(1, 2, 1, 1);
            let req = pack(&m, &spec, &[Some(&[probe]), None, None]).unwrap();
            let (_, reply) = sw.process(&req).unwrap();
            let mut v = Vec::new();
            let mut hit = Vec::new();
            unpack(&reply, &spec, &mut [None, Some(&mut v), Some(&mut hit)]).unwrap();
            if keys.contains(&probe) {
                prop_assert_eq!((hit[0], v[0]), (1, probe * 7));
            } else {
                prop_assert_eq!(hit[0], 0);
            }
        }
    }
}

/// AllReduce correctness under randomized loss rates (failure injection).
#[test]
fn allreduce_correct_under_random_loss() {
    use netcl_apps::{agg, Conditions};
    use netcl_net::LinkSpec;
    let cfg = agg::AggConfig { num_workers: 3, num_slots: 4, slot_size: 8 };
    let unit = Compiler::new(CompileOptions::default())
        .compile("agg.ncl", &agg::netcl_source(&cfg))
        .unwrap();
    for loss_pct in [0u32, 2, 5, 10] {
        let c = Conditions { link: LinkSpec::lossy(loss_pct as f64 / 100.0), ..Default::default() };
        let r = agg::run_allreduce(&unit.devices[0].tna_p4, &cfg, 8, 500, &c).result;
        assert!(r.all_correct, "loss {loss_pct}%: {r:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// P4 text never panics the parser: arbitrary bytes parse to a program
    /// or a `ParseError`.
    #[test]
    fn p4_parse_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        parse_returns(&bytes)?;
    }

    /// Nor does a shipped TNA program's text with one byte inserted,
    /// deleted or bit-flipped: the mutation lands deep inside text that
    /// otherwise parses.
    #[test]
    fn p4_parse_is_total_on_mutated_shipped_programs(seed in any::<u64>()) {
        let mut rng = WorkloadRng::new(seed);
        let programs = reparsed_programs();
        let mut text = programs[rng.below(programs.len() as u64) as usize].text.clone().into_bytes();
        let at = rng.below(text.len() as u64) as usize;
        match rng.below(3) {
            0 => text.insert(at, rng.next_u64() as u8),
            1 => {
                text.remove(at);
            }
            _ => text[at] ^= 1 << rng.below(8),
        }
        parse_returns(&text)?;
    }
}

/// What a table-update batch may change, and what it must leave alone:
/// every table's entries, every register, every counter.
#[derive(Debug, PartialEq)]
struct ControlState {
    tables: Vec<(String, Vec<TableEntry>)>,
    registers: Vec<(String, Vec<u64>)>,
    counters: SwitchCounters,
}

fn control_state(sw: &Switch) -> ControlState {
    let tables = (sw.tables_with_prefix("").into_iter())
        .map(|t| {
            let entries = sw.table_entries(&t).expect("a listed table").to_vec();
            (t, entries)
        })
        .collect();
    let registers =
        sw.registers().map(|(name, cells)| (name.to_string(), cells.to_vec())).collect();
    ControlState { tables, registers, counters: sw.counters().clone() }
}

/// A batch of up to four operations on `program`'s tables. One choice in
/// eight is off: a table it lacks, a wrong key count, an action it does
/// not define. Any range key may have `lo > hi`.
fn arbitrary_batch(rng: &mut WorkloadRng, program: &netcl_p4::P4Program) -> TableUpdate {
    let controls = || program.controls.iter();
    let tables: Vec<_> = controls().flat_map(|c| &c.tables).collect();
    let mut actions: Vec<&str> = controls().flat_map(|c| &c.actions).map(|a| &*a.name).collect();
    actions.push("NoAction");
    let off = |rng: &mut WorkloadRng| rng.below(8) == 0;
    let entry = |rng: &mut WorkloadRng, n_keys: usize| {
        let n_keys = if off(rng) { rng.below(4) as usize } else { n_keys };
        let keys = (0..n_keys)
            .map(|_| match rng.below(2) {
                0 => EntryKey::Value(rng.next_u64()),
                _ => EntryKey::Range(rng.next_u64(), rng.next_u64()),
            })
            .collect();
        let action = if off(rng) {
            "no_such_action".to_string()
        } else {
            actions[rng.below(actions.len() as u64) as usize].to_string()
        };
        let args = (0..rng.below(3)).map(|_| rng.next_u64()).collect();
        TableEntry { keys, action, args }
    };
    let mut batch = TableUpdate::new();
    for _ in 0..rng.below(5) {
        let (name, n_keys) = if tables.is_empty() || off(rng) {
            ("lu_no_such_table".to_string(), rng.below(3) as usize)
        } else {
            let t = tables[rng.below(tables.len() as u64) as usize];
            (t.name.clone(), t.keys.len())
        };
        batch = match rng.below(4) {
            0 => batch.insert(name, entry(rng, n_keys)),
            1 => batch.modify(name, entry(rng, n_keys)),
            2 => batch.delete(name, entry(rng, n_keys).keys),
            _ => {
                let entries = (0..rng.below(3)).map(|_| entry(rng, n_keys)).collect();
                batch.set(name, entries)
            }
        };
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `apply_update` on an arbitrary batch, against every shipped TNA
    /// program, returns: an accepted batch leaves what its operations
    /// applied one at a time leave, and a rejected one changes nothing but
    /// `update_rejects` — and has an operation that is rejected alone.
    #[test]
    fn apply_update_is_total_and_atomic(seed in any::<u64>()) {
        let mut rng = WorkloadRng::new(seed);
        for p in reparsed_programs() {
            let batch = arbitrary_batch(&mut rng, &p.original);
            let mut one_by_one = Switch::new(p.original.clone());
            let alone: Vec<bool> = (batch.ops.iter())
                .map(|op| one_by_one.apply_update(&TableUpdate { ops: vec![op.clone()] }).is_ok())
                .collect();
            let mut sw = Switch::new(p.original.clone());
            let mut before = control_state(&sw);
            match sw.apply_update(&batch) {
                Ok(n) => {
                    prop_assert_eq!(n, batch.len(), "{}", p.label);
                    prop_assert!(alone.iter().all(|&ok| ok), "{}: {:?}", p.label, batch);
                    prop_assert_eq!(control_state(&sw), control_state(&one_by_one), "{}", p.label);
                }
                Err(e) => {
                    before.counters.update_rejects += 1;
                    prop_assert_eq!(control_state(&sw), before, "{}: {}", p.label, e);
                    prop_assert!(alone.iter().any(|&ok| !ok), "{}: {} on {:?}", p.label, e, batch);
                }
            }
        }
    }
}

/// `Compiler::compile` on `source` returns — a unit, or an error that
/// carries at least one diagnostic code — rather than panicking.
fn compile_returns(source: &str) -> Result<(), String> {
    let cc = Compiler::new(CompileOptions::default());
    match std::panic::catch_unwind(|| cc.compile("fuzz.ncl", source)) {
        Ok(Ok(_)) => Ok(()),
        Ok(Err(e)) if !e.codes.is_empty() => Ok(()),
        Ok(Err(e)) => Err(format!("an error without a code on {source:?}: {e}")),
        Err(_) => Err(format!("compile panicked on {source:?}")),
    }
}

/// Every shipped NetCL source: each application's, the whole P4xos unit
/// and the paper's listings that compile.
fn shipped_sources() -> &'static [String] {
    static SOURCES: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    SOURCES.get_or_init(|| {
        let mut sources: Vec<String> =
            netcl_apps::all_apps().into_iter().map(|app| app.netcl_source).collect();
        sources.push(netcl_apps::paxos::full_source());
        sources.extend(
            [
                listings::FIGURE_4,
                listings::FIGURE_7,
                listings::SECTION_5A,
                listings::SECTION_5B,
                listings::SECTION_5C,
                listings::SECTION_5D_MEMORY,
                listings::SECTION_5D_ORDERING,
            ]
            .map(String::from),
        );
        sources
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Source text never panics the compiler: arbitrary bytes compile, or
    /// fail with a coded diagnostic.
    #[test]
    fn compile_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        compile_returns(&String::from_utf8_lossy(&bytes))?;
    }

    /// Nor does a shipped source with one to three bytes inserted, deleted
    /// or bit-flipped: the mutations land inside text every layer accepts.
    #[test]
    fn compile_is_total_on_mutated_shipped_sources(seed in any::<u64>()) {
        let mut rng = WorkloadRng::new(seed);
        let sources = shipped_sources();
        let mut text = sources[rng.below(sources.len() as u64) as usize].clone().into_bytes();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(text.len() as u64) as usize;
            match rng.below(3) {
                0 => text.insert(at, rng.next_u64() as u8),
                1 => {
                    text.remove(at);
                }
                _ => text[at] ^= 1 << rng.below(8),
            }
        }
        compile_returns(&String::from_utf8_lossy(&text))?;
    }
}
