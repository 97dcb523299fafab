//! Expression evaluation against a packet.

use crate::packet::Packet;
use netcl_p4::ast::{Expr, Ns, P4BinOp};

/// Evaluates a P4 expression. Returns the value and its width in bits (the
/// width drives wrapping; boolean results are 1 bit).
pub(crate) fn eval(e: &Expr, pkt: &Packet, widths: &dyn Fn(&str) -> u32) -> (u64, u32) {
    match e {
        Expr::Const(v, bits) => (*v, *bits),
        Expr::Device => (pkt.device() as u64, 16),
        Expr::Bool(b) => (*b as u64, 1),
        Expr::Field(p) => {
            if p.is_validity() {
                return (pkt.is_valid(p.instance()) as u64, 1);
            }
            let path = p.canonical();
            let w = widths(path);
            match p.ns() {
                Ns::Meta => (pkt.get_meta(path), w),
                Ns::Hdr => (pkt.get(path), w),
                // Bare names are action parameters / locals (metadata
                // namespace) first, header fields otherwise.
                Ns::Bare => match pkt.meta_opt(path) {
                    Some(v) => (v, w),
                    None => (pkt.get(path), w),
                },
            }
        }
        Expr::Bin(op, a, b) => {
            let (va, wa) = eval(a, pkt, widths);
            let (vb, wb) = eval(b, pkt, widths);
            bin_value(*op, va, wa, vb, wb)
        }
        Expr::Not(x) => {
            let (v, _) = eval(x, pkt, widths);
            ((v == 0) as u64, 1)
        }
        Expr::BitNot(x) => {
            let (v, w) = eval(x, pkt, widths);
            ((!v) & mask_of(w), w)
        }
        Expr::Cast(bits, x) => {
            let (v, _) = eval(x, pkt, widths);
            (v & mask_of(*bits), *bits)
        }
        Expr::Slice(x, hi, lo) => {
            let (v, _) = eval(x, pkt, widths);
            match slice_shape(*hi, *lo) {
                Some((shift, width)) => ((v >> shift) & mask_of(width), width),
                None => (0, 1),
            }
        }
        Expr::TableHit(_) | Expr::TableMiss(_) => {
            // Table applications are handled at statement level; reaching
            // here is a program-structure bug — fail closed.
            (0, 1)
        }
    }
}

/// The `(shift, width)` of a bit slice `[hi:lo]`, or `None` when it has no
/// width (`lo > hi`, or `hi` past bit 63). Shared by the evaluator above and
/// the lowering so neither subtracts on its own: an ill-formed slice in a
/// hand-built AST reads as `(0, 1)` on both engines — failing closed, as a
/// table application in expression position does — and the P4 parser refuses
/// to produce one.
pub(crate) fn slice_shape(hi: u32, lo: u32) -> Option<(u32, u32)> {
    (lo <= hi && hi < 64).then(|| (lo, hi - lo + 1))
}

/// One binary operation at the given operand widths, with the P4 result
/// width/wrapping rules. Shared by the tree-walking evaluator above and the
/// lowering's cold arms so the two paths cannot drift.
pub(crate) fn bin_value(op: P4BinOp, va: u64, wa: u32, vb: u64, wb: u32) -> (u64, u32) {
    let w = wa.max(wb);
    let mask = mask_of(w);
    match op {
        P4BinOp::Add => ((va.wrapping_add(vb)) & mask, w),
        P4BinOp::Sub => ((va.wrapping_sub(vb)) & mask, w),
        P4BinOp::Mul => ((va.wrapping_mul(vb)) & mask, w),
        P4BinOp::And => (va & vb, w),
        P4BinOp::Or => (va | vb, w),
        P4BinOp::Xor => ((va ^ vb) & mask, w),
        P4BinOp::Shl => {
            if vb >= w as u64 {
                (0, w)
            } else {
                ((va << vb) & mask, w)
            }
        }
        P4BinOp::Shr => {
            if vb >= 64 {
                (0, w)
            } else {
                (va >> vb, w)
            }
        }
        P4BinOp::SatAdd => (va.saturating_add(vb).min(mask), w),
        P4BinOp::SatSub => (va.saturating_sub(vb), w),
        P4BinOp::Eq => ((va == vb) as u64, 1),
        P4BinOp::Ne => ((va != vb) as u64, 1),
        P4BinOp::Lt => ((va < vb) as u64, 1),
        P4BinOp::Le => ((va <= vb) as u64, 1),
        P4BinOp::Gt => ((va > vb) as u64, 1),
        P4BinOp::Ge => ((va >= vb) as u64, 1),
        P4BinOp::LAnd => (((va != 0) && (vb != 0)) as u64, 1),
        P4BinOp::LOr => (((va != 0) || (vb != 0)) as u64, 1),
    }
}

/// Low `bits` mask.
pub(crate) fn mask_of(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_p4::ast::Expr as E;

    fn widths(_: &str) -> u32 {
        16
    }

    #[test]
    fn arithmetic_wraps_at_width() {
        let mut p = Packet::default();
        p.set("ncl.src", 0xFFFF);
        let e = E::Bin(
            P4BinOp::Add,
            Box::new(E::field(&["hdr", "ncl", "src"])),
            Box::new(E::Const(1, 16)),
        );
        assert_eq!(eval(&e, &p, &widths).0, 0);
        let e = E::Bin(
            P4BinOp::SatAdd,
            Box::new(E::field(&["hdr", "ncl", "src"])),
            Box::new(E::Const(1, 16)),
        );
        assert_eq!(eval(&e, &p, &widths).0, 0xFFFF);
    }

    #[test]
    fn comparisons_yield_bool() {
        let p = Packet::default();
        let e = E::Bin(P4BinOp::Lt, Box::new(E::Const(3, 16)), Box::new(E::Const(5, 16)));
        assert_eq!(eval(&e, &p, &widths), (1, 1));
    }

    #[test]
    fn meta_vs_header_namespaces() {
        let mut p = Packet::default();
        p.set_meta("t0", 42);
        p.set("t0", 7); // header field with same name must not collide
        let e = E::field(&["meta", "t0"]);
        assert_eq!(eval(&e, &p, &widths).0, 42);
    }

    #[test]
    fn validity_pseudo_field() {
        let mut p = Packet::default();
        p.set_valid("ncl", true);
        let e = E::field(&["hdr", "ncl", "$isValid"]);
        assert_eq!(eval(&e, &p, &widths), (1, 1));
    }

    #[test]
    fn slices_and_casts() {
        let p = Packet::default();
        let e = E::Slice(Box::new(E::Const(0xABCD, 16)), 15, 8);
        assert_eq!(eval(&e, &p, &widths), (0xAB, 8));
        let e = E::Cast(8, Box::new(E::Const(0xABCD, 16)));
        assert_eq!(eval(&e, &p, &widths), (0xCD, 8));
    }
}
