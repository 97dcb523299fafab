//! CALC — the P4-tutorials calculator \[78\], the paper's small stateless
//! application: the switch computes `a OP b` and reflects the result.

use netcl::codegen::device_guard;
use netcl_p4::ast::*;
use netcl_runtime::message::{pack, unpack, Message};
use netcl_sema::model::Specification;

/// Operation codes (matching the tutorial's ASCII choices).
pub const OP_ADD: u64 = b'+' as u64;
/// Subtraction.
pub const OP_SUB: u64 = b'-' as u64;
/// Bitwise and.
pub const OP_AND: u64 = b'&' as u64;
/// Bitwise or.
pub const OP_OR: u64 = b'|' as u64;
/// Bitwise xor.
pub const OP_XOR: u64 = b'^' as u64;

/// The NetCL device code.
pub fn netcl_source() -> String {
    r#"
_kernel(1) _at(1) void calc(char op, unsigned a, unsigned b, unsigned &result) {
  if (op == '+') result = a + b;
  if (op == '-') result = a - b;
  if (op == '&') result = a & b;
  if (op == '|') result = a | b;
  if (op == '^') result = a ^ b;
  return ncl::reflect();
}
"#
    .to_string()
}

/// Kernel specification.
pub fn spec() -> Specification {
    use netcl_sema::model::SpecItem;
    use netcl_sema::Ty;
    Specification {
        items: vec![
            SpecItem { count: 1, ty: Ty::U8 },
            SpecItem { count: 1, ty: Ty::U32 },
            SpecItem { count: 1, ty: Ty::U32 },
            SpecItem { count: 1, ty: Ty::U32 },
        ],
    }
}

/// Reference semantics (for differential tests and host verification).
pub fn reference(op: u64, a: u64, b: u64) -> u64 {
    let m = u32::MAX as u64;
    match op {
        OP_ADD => (a + b) & m,
        OP_SUB => a.wrapping_sub(b) & m,
        OP_AND => a & b,
        OP_OR => a | b,
        OP_XOR => (a ^ b) & m,
        _ => 0,
    }
}

/// Builds a calculator request packet.
pub fn request(src: u16, op: u64, a: u64, b: u64) -> Vec<u8> {
    let m = Message::new(src, src, 1, 1);
    pack(&m, &spec(), &[Some(&[op]), Some(&[a]), Some(&[b]), None]).expect("packs")
}

/// Extracts the result from a reply.
pub fn result_of(bytes: &[u8]) -> Option<u64> {
    let mut r = Vec::new();
    unpack(bytes, &spec(), &mut [None, None, None, Some(&mut r)]).ok()?;
    r.first().copied()
}

/// Handwritten P4 baseline: the tutorial's structure — one action per
/// operation, dispatched by a MAT on the opcode.
pub fn handwritten() -> P4Program {
    let headers = vec![
        netcl::codegen::ncl_header(),
        HeaderDef {
            name: "args_c1_t".into(),
            fields: vec![
                ("a0_op".into(), 8),
                ("a1_a".into(), 32),
                ("a2_b".into(), 32),
                ("a3_result".into(), 32),
            ],
            stack: 1,
        },
    ];
    let parser = ParserDef {
        name: "IgParser".into(),
        states: vec![
            ParserState {
                name: "start".into(),
                extracts: vec!["hdr.ncl".into()],
                transition: Transition::Select {
                    selector: Expr::field(&["hdr", "ncl", "comp"]),
                    cases: vec![(1, "parse_calc".into())],
                    default: "accept".into(),
                },
            },
            ParserState {
                name: "parse_calc".into(),
                extracts: vec!["hdr.args_c1".into()],
                transition: Transition::Accept,
            },
        ],
    };
    let a = Expr::field(&["hdr", "args_c1", "a1_a"]);
    let b = Expr::field(&["hdr", "args_c1", "a2_b"]);
    let res = Expr::field(&["hdr", "args_c1", "a3_result"]);
    let mut c = ControlDef { name: "Ig".into(), ..Default::default() };
    for (name, op) in [
        ("op_add", P4BinOp::Add),
        ("op_sub", P4BinOp::Sub),
        ("op_and", P4BinOp::And),
        ("op_or", P4BinOp::Or),
        ("op_xor", P4BinOp::Xor),
    ] {
        c.actions.push(ActionDef {
            name: name.into(),
            params: vec![],
            body: vec![Stmt::Assign(
                res.clone(),
                Expr::Bin(op, Box::new(a.clone()), Box::new(b.clone())),
            )],
        });
    }
    c.tables.push(TableDef {
        name: "calculate".into(),
        keys: vec![(Expr::field(&["hdr", "args_c1", "a0_op"]), MatchKind::Exact)],
        actions: vec![
            "op_add".into(),
            "op_sub".into(),
            "op_and".into(),
            "op_or".into(),
            "op_xor".into(),
        ],
        entries: vec![
            TableEntry {
                keys: vec![EntryKey::Value(OP_ADD)],
                action: "op_add".into(),
                args: vec![],
            },
            TableEntry {
                keys: vec![EntryKey::Value(OP_SUB)],
                action: "op_sub".into(),
                args: vec![],
            },
            TableEntry {
                keys: vec![EntryKey::Value(OP_AND)],
                action: "op_and".into(),
                args: vec![],
            },
            TableEntry { keys: vec![EntryKey::Value(OP_OR)], action: "op_or".into(), args: vec![] },
            TableEntry {
                keys: vec![EntryKey::Value(OP_XOR)],
                action: "op_xor".into(),
                args: vec![],
            },
        ],
        default_action: "NoAction".into(),
        size: 8,
    });
    c.tables.push(TableDef {
        name: "l2_fwd".into(),
        keys: vec![(Expr::field(&["hdr", "ncl", "dst"]), MatchKind::Exact)],
        actions: vec![],
        entries: vec![],
        default_action: "NoAction".into(),
        size: 64,
    });
    c.apply = vec![
        Stmt::If {
            cond: device_guard(1),
            then: vec![
                Stmt::ApplyTable("calculate".into()),
                Stmt::Assign(Expr::field(&["hdr", "ncl", "action"]), Expr::Const(5, 8)),
            ],
            els: vec![],
        },
        Stmt::ApplyTable("l2_fwd".into()),
    ];
    P4Program {
        name: "calc_handwritten".into(),
        target: Target::Tna,
        headers: headers.into(),
        parser: Some(parser.into()),
        controls: vec![c].into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;
    use netcl_bmv2::Switch;

    fn run_on(program: &P4Program, op: u64, a: u64, b: u64) -> (u64, u64) {
        let mut sw = Switch::new(program.clone());
        let (pkt, out) = sw.process(&request(7, op, a, b)).unwrap();
        (result_of(&out).unwrap(), pkt.get("ncl.action"))
    }

    #[test]
    fn all_operations_and_reflection() {
        let unit = compile("calc.ncl", &netcl_source());
        let p4 = &unit.devices[0].tna_p4;
        for (op, a, b) in [
            (OP_ADD, 3u64, 4u64),
            (OP_SUB, 10, 4),
            (OP_SUB, 3, 5), // wraps
            (OP_AND, 0xF0F0, 0xFF00),
            (OP_OR, 0xF0F0, 0x0F0F),
            (OP_XOR, 0xFFFF, 0x0F0F),
        ] {
            let (r, action) = run_on(p4, op, a, b);
            assert_eq!(r, reference(op, a, b), "op {op} on generated");
            assert_eq!(action, 5, "reflect");
            let (r, _) = run_on(&handwritten(), op, a, b);
            assert_eq!(r, reference(op, a, b), "op {op} on handwritten");
        }
    }

    #[test]
    fn fits_with_room_to_spare() {
        let unit = compile("calc.ncl", &netcl_source());
        let fit = netcl_tofino::fit(&unit.devices[0].tna_p4).unwrap();
        assert!(fit.stages_used <= 4, "CALC is tiny; got {} stages", fit.stages_used);
    }
}
