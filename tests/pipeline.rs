//! Cross-crate integration: source → compiler → P4 → print → parse →
//! bmv2 execution, checked against the IR interpreter at every step.

use netcl::passes::{run_pipeline, PassFlags, PipelineTarget};
use netcl::{codegen, CompileOptions, Compiler, EmitTarget};
use netcl_bmv2::Switch;
use netcl_p4::ast::Target;
use netcl_p4::{parse::parse_program, print::print_program, Parts};
use netcl_runtime::message::{pack, unpack, Message};
use std::sync::Arc;

mod shipped;

const KVS: &str = r#"
_managed_ _lookup_ ncl::kv<unsigned, unsigned> table[8] = {{1, 100}, {2, 200}};
_net_ unsigned misses[1];
_kernel(1) _at(3) void get(char op, unsigned k, unsigned &v, char &hit) {
  if (op == 'G') {
    hit = ncl::lookup(table, k, v);
    if (hit) return ncl::reflect();
    ncl::atomic_inc(&misses[0]);
  }
}
"#;

/// The generated P4 survives a full print → parse → print round trip and
/// the re-parsed program behaves identically on the software switch.
#[test]
fn print_parse_execute_roundtrip() {
    let unit = Compiler::new(CompileOptions::default()).compile("kvs.ncl", KVS).unwrap();
    let dev = &unit.devices[0];
    let text1 = print_program(&dev.tna_p4);
    let reparsed = parse_program(&text1).unwrap_or_else(|e| panic!("{e}\n{text1}"));
    let text2 = print_program(&reparsed);
    assert_eq!(
        text1.lines().skip(1).collect::<Vec<_>>(),
        text2.lines().skip(1).collect::<Vec<_>>(),
        "print ∘ parse not a fixpoint"
    );

    let spec = unit.model.kernels[0].specification();
    let mut sw1 = Switch::new(dev.tna_p4.clone());
    let mut sw2 = Switch::new(reparsed);
    for key in [1u64, 9, 2, 9, 1] {
        let m = Message::new(1, 2, 1, 3);
        let req = pack(&m, &spec, &[Some(&[b'G' as u64]), Some(&[key]), None, None]).unwrap();
        let (_, o1) = sw1.process(&req).unwrap();
        let (_, o2) = sw2.process(&req).unwrap();
        assert_eq!(o1, o2, "printed/parsed programs diverge on key {key}");
    }
    assert_eq!(sw1.register_read("misses", 0), Some(2));
    assert_eq!(sw2.register_read("misses", 0), Some(2));
}

/// The parser reads everything the printer writes, in both dialects: for
/// every device of every shipped application, TNA and v1model, and every
/// handwritten baseline, the parsed text is in the printed dialect and
/// printing it reproduces the text (all but the first line, a comment
/// naming the program).
#[test]
fn every_shipped_program_is_a_print_parse_fixpoint() {
    let body = |text: &str| text.split_once('\n').map(|(_, b)| b.to_string()).unwrap_or_default();
    for (label, _, program) in shipped::programs() {
        let text = print_program(&program);
        let reparsed = parse_program(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(reparsed.target, program.target, "{label}");
        assert_eq!(body(&print_program(&reparsed)), body(&text), "{label}");
    }
}

/// A message word read into a variable is forwarded to its header field; a
/// SALU result later written back to that word must not be forwarded into
/// the field before the variable's last use, or the use reads the new
/// value: `o` is the message's old `v[0]`, `v[0]` the register's new value.
#[test]
fn a_forwarded_read_is_not_clobbered_by_a_forwarded_salu_result() {
    let src = "_net_ unsigned R[8];
_kernel(1) _at(1) void k(unsigned _spec(2) *v, unsigned &o) {
  unsigned a = v[0];
  unsigned n = ncl::atomic_add_new(&R[a & 7], 1);
  o = a;
  v[0] = n;
}";
    let unit = Compiler::new(CompileOptions::default()).compile("fwd.ncl", src).unwrap();
    let spec = unit.model.kernels[0].specification();
    let mut sw = Switch::new(unit.devices[0].tna_p4.clone());
    let req = pack(&Message::new(1, 2, 1, 1), &spec, &[Some(&[13, 0]), None]).unwrap();
    let (_, reply) = sw.process(&req).unwrap();
    let (mut v, mut o) = (Vec::new(), Vec::new());
    unpack(&reply, &spec, &mut [Some(&mut v), Some(&mut o)]).unwrap();
    assert_eq!((v[0], o[0]), (1, 13));
}

/// Both emitted dialects execute the same way on the software switch.
#[test]
fn tna_and_v1model_agree() {
    let unit = Compiler::new(CompileOptions { target: EmitTarget::Both, ..Default::default() })
        .compile("kvs.ncl", KVS)
        .unwrap();
    let dev = &unit.devices[0];
    let spec = unit.model.kernels[0].specification();
    let mut tna = Switch::new(dev.tna_p4.clone());
    let mut v1 = Switch::new(dev.v1_p4.clone());
    for key in [1u64, 7, 2, 7] {
        let m = Message::new(1, 2, 1, 3);
        let req = pack(&m, &spec, &[Some(&[b'G' as u64]), Some(&[key]), None, None]).unwrap();
        let (p1, o1) = tna.process(&req).unwrap();
        let (p2, o2) = v1.process(&req).unwrap();
        assert_eq!(p1.get("ncl.action"), p2.get("ncl.action"), "key {key}");
        let mut v1v = Vec::new();
        let mut v2v = Vec::new();
        unpack(&o1, &spec, &mut [None, None, Some(&mut v1v), None]).unwrap();
        unpack(&o2, &spec, &mut [None, None, Some(&mut v2v), None]).unwrap();
        assert_eq!(v1v, v2v, "key {key}");
    }
}

/// A device keeps one artifact for both dialects exactly when their stages
/// agree (DESIGN.md §16). For every device of every shipped application,
/// the pipeline is run by hand once per dialect: the device's two IR
/// fields are those outputs and one allocation exactly when the outputs
/// are equal, a shared device's v1model program shares its three parts
/// with the TNA one, and the v1model program prints what codegen makes of
/// the v1model module.
#[test]
fn dialects_share_one_artifact_exactly_when_their_stages_agree() {
    let mut shared = 0;
    for (app, unit) in shipped::units() {
        let (parsed, mut diags) = netcl::lang::parse(app.name, &app.netcl_source);
        let (analysis, sema_diags) = netcl::sema::analyze(&parsed);
        diags.absorb(sema_diags);
        for d in &unit.devices {
            let what = format!("{} device {}", app.name, d.device);
            let mut stage = |target| {
                let mut ir = netcl::lower::lower_device(&parsed, &analysis, d.device, &mut diags);
                run_pipeline(&mut ir, target, &PassFlags::default(), &mut diags).expect("accepts");
                ir
            };
            let (tna, v1) = (stage(PipelineTarget::Tofino), stage(PipelineTarget::V1Model));
            assert!(*d.tna_ir == tna && *d.v1_ir == v1, "{what}: not the stage outputs");
            let one = Arc::ptr_eq(&d.tna_ir, &d.v1_ir);
            assert_eq!(one, tna == v1, "{what}");
            if one {
                shared += 1;
                assert!(Parts::of(&d.v1_p4).are(&d.tna_p4), "{what}");
            }
            let v1_p4 = codegen::generate_at(&d.v1_ir, Target::V1Model, d.device).expect("codegen");
            assert_eq!(print_program(&d.v1_p4), print_program(&v1_p4), "{what}");
        }
    }
    assert!(shared > 0, "no shipped device keeps one artifact");
}

/// The host runtime's pack/unpack round-trips through kernel execution for
/// all paper listings' specifications.
#[test]
fn runtime_wire_format_end_to_end() {
    let unit = Compiler::new(CompileOptions::default()).compile("kvs.ncl", KVS).unwrap();
    let spec = unit.model.kernels[0].specification();
    assert_eq!(spec.describe(), "[1,1,1,1][uint8_t,uint32_t,uint32_t,uint8_t]");
    assert_eq!(Message::size(&spec), netcl_runtime::NCL_HEADER_BYTES + 1 + 4 + 4 + 1);
    let mut sw = Switch::new(unit.devices[0].tna_p4.clone());
    let m = Message::new(5, 6, 1, 3);
    let req = pack(&m, &spec, &[Some(&[b'G' as u64]), Some(&[2]), None, None]).unwrap();
    let (_, reply) = sw.process(&req).unwrap();
    let mut v = Vec::new();
    let mut hit = Vec::new();
    let hdr = unpack(&reply, &spec, &mut [None, None, Some(&mut v), Some(&mut hit)]).unwrap();
    assert_eq!(hdr.src, 5);
    assert_eq!((v[0], hit[0]), (200, 1));

    // The P4 shim header every program declares is the runtime's wire
    // header: the same fields at the same offsets, `NCL_HEADER_BYTES` in all.
    let m = Message {
        src: 0x0102,
        dst: 0x0304,
        from: 0x0506,
        to: 0x0708,
        comp: 0x09,
        action: 0x0a,
        target: 0x0b0c,
    };
    let mut wire = [0u8; netcl_runtime::NCL_HEADER_BYTES];
    m.write_header_into(&mut wire);
    let mut bit = 0;
    for (name, bits) in &netcl::codegen::ncl_header().fields {
        let (at, bytes) = (bit / 8, *bits as usize / 8);
        let on_wire = wire[at..at + bytes].iter().fold(0u16, |v, &b| v << 8 | b as u16);
        let want = match name.as_str() {
            "src" => m.src,
            "dst" => m.dst,
            "from" => m.from,
            "to" => m.to,
            "comp" => m.comp as u16,
            "action" => m.action as u16,
            "target" => m.target,
            other => panic!("ncl_t has a field the runtime does not write: {other}"),
        };
        assert_eq!(on_wire, want, "ncl_t.{name} at bit {bit}");
        bit += *bits as usize;
    }
    assert_eq!(bit, netcl_runtime::NCL_HEADER_BYTES * 8);
}

/// Errors surface with stable codes across layers.
#[test]
fn diagnostics_have_stable_codes() {
    let cases = [
        ("int x;", "E0227"),                                    // bare global
        ("_kernel(1) void k(int x) { while (x) {} }", "E0306"), // loop
        ("_net_ int m[2];\n_kernel(1) void k(int &o) { o = m[0] + m[1]; }", "E0302"),
        ("_kernel(1) _at(1) void a(int x) {}\n_kernel(1) _at(1) void b(int x) {}", "E0206"),
        ("_kernel(1) void a(int x[3]) {}\n_kernel(1) void b(int x[4]) {}", "E0206"), // Eq.1 first
    ];
    for (src, code) in cases {
        let err = Compiler::new(CompileOptions::default()).compile("t.ncl", src).unwrap_err();
        assert!(
            err.codes.iter().any(|c| c == code),
            "expected {code} for {src:?}, got {:?}",
            err.codes
        );
    }
}

/// The memory-rule errors come out in the order the objects are declared,
/// one per object, under their declared names — the same text every run.
#[test]
fn memory_rule_errors_are_ordered_and_named() {
    let src = "_net_ unsigned c[4];\n_net_ unsigned a[4];\n_net_ unsigned b[4];\n\
               _kernel(1) _at(1) void k(unsigned x, unsigned &o) {\n\
               \x20 o = ncl::atomic_add_new(&b[0], x) + ncl::atomic_add_new(&b[1], x)\n\
               \x20   + ncl::atomic_add_new(&a[0], x) + ncl::atomic_add_new(&a[1], x)\n\
               \x20   + ncl::atomic_add_new(&c[0], x) + ncl::atomic_add_new(&c[1], x);\n}\n";
    let err = Compiler::new(CompileOptions::default()).compile("t.ncl", src).unwrap_err();
    let line = |name: &str| {
        format!(
            "<unknown>: error[E0302]: kernel `k`: global memory object `{name}` is accessed more \
             than once on one execution path; Tofino registers are stage-local, so accesses \
             must be mutually exclusive (§V-D)"
        )
    };
    assert_eq!(err.message, [line("c"), line("a"), line("b")].join("\n"));
}
