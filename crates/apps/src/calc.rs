//! CALC — the P4-tutorials calculator \[78\], the paper's small stateless
//! application: the switch computes `a OP b` and reflects the result.

use netcl_p4::P4Program;
use netcl_runtime::message::{pack, unpack, Message};
use netcl_sema::model::Specification;

use crate::{L2_FWD, PRELUDE};

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
pub(crate) fn handwritten() -> P4Program {
    crate::baseline("calc_handwritten", &handwritten_source())
}

/// The text of [`handwritten`].
pub(crate) fn handwritten_source() -> String {
    format!(
        r#"{PRELUDE}header args_c1_t {{
    bit<8> a0_op;
    bit<32> a1_a;
    bit<32> a2_b;
    bit<32> a3_result;
}}

struct headers_t {{
    ncl_t ncl;
    args_c1_t args_c1;
}}

parser IgParser(packet_in pkt, out headers_t hdr) {{
    state start {{
        pkt.extract(hdr.ncl);
        transition select(hdr.ncl.comp) {{
            1: parse_calc;
            default: accept;
        }}
    }}
    state parse_calc {{
        pkt.extract(hdr.args_c1);
        transition accept;
    }}
}}

control Ig(inout headers_t hdr, inout metadata_t meta) {{
    action op_add() {{
        hdr.args_c1.a3_result = (hdr.args_c1.a1_a + hdr.args_c1.a2_b);
    }}
    action op_sub() {{
        hdr.args_c1.a3_result = (hdr.args_c1.a1_a - hdr.args_c1.a2_b);
    }}
    action op_and() {{
        hdr.args_c1.a3_result = (hdr.args_c1.a1_a & hdr.args_c1.a2_b);
    }}
    action op_or() {{
        hdr.args_c1.a3_result = (hdr.args_c1.a1_a | hdr.args_c1.a2_b);
    }}
    action op_xor() {{
        hdr.args_c1.a3_result = (hdr.args_c1.a1_a ^ hdr.args_c1.a2_b);
    }}
    table calculate {{
        key = {{ hdr.args_c1.a0_op : exact }}
        actions = {{ op_add; op_sub; op_and; op_or; op_xor; NoAction; }}
        default_action = NoAction();
        const entries = {{
            {OP_ADD} : op_add();
            {OP_SUB} : op_sub();
            {OP_AND} : op_and();
            {OP_OR} : op_or();
            {OP_XOR} : op_xor();
        }}
        size = 8;
    }}
{L2_FWD}    apply {{
        if ((hdr.ncl.isValid() && (hdr.ncl.to == 16w1))) {{
            calculate.apply();
            hdr.ncl.action = 8w5;
        }}
        l2_fwd.apply();
    }}
}}

"#
    )
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
