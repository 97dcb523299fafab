//! Compile-time constant evaluation.
//!
//! Array dimensions, `_kernel`/`_at`/`_spec` arguments, and lookup-table
//! initializer entries must all be integer constant expressions (macros are
//! expanded before parsing, so by this point a constant expression contains
//! only literals and operators).

use netcl_lang::ast::{BinOp, Expr, ExprKind, UnOp};
use netcl_util::{DiagnosticSink, Symbol};

use crate::types::Ty;

/// Evaluates `expr` as a 64-bit constant. Reports `E0212` on failure.
pub(crate) fn eval_const(expr: &Expr, diags: &mut DiagnosticSink) -> Option<u64> {
    match try_eval(expr) {
        Some(v) => Some(v),
        None => {
            diags.error("E0212", "expression is not an integer constant", expr.span);
            None
        }
    }
}

/// Evaluates and range-checks a constant against `ty`, reporting `E0215` if
/// it does not fit.
pub(crate) fn eval_const_in(
    expr: &Expr,
    ty: Ty,
    what: &str,
    diags: &mut DiagnosticSink,
) -> Option<u64> {
    let v = eval_const(expr, diags)?;
    if v > ty.max_value() {
        diags.error("E0215", format!("{what} `{v}` does not fit in {ty}"), expr.span);
        return None;
    }
    Some(v)
}

/// Evaluates a constant expression without reporting diagnostics.
pub fn try_eval(expr: &Expr) -> Option<u64> {
    try_eval_with(expr, None)
}

/// [`try_eval`] with an induction variable bound to a value — how the
/// unroller evaluates a loop's condition and step. Comparisons are signed,
/// as on C `int`: `-1 < 0` is 1.
pub fn try_eval_with(expr: &Expr, iv: Option<(Symbol, u64)>) -> Option<u64> {
    let eval = |e: &Expr| try_eval_with(e, iv);
    match &expr.kind {
        ExprKind::Ident(s) => iv.filter(|(name, _)| name == s).map(|(_, v)| v),
        ExprKind::Int(v) => Some(*v),
        ExprKind::Char(c) => Some(*c as u64),
        ExprKind::Bool(b) => Some(*b as u64),
        ExprKind::Unary(op, e) => {
            let v = eval(e)?;
            Some(match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Not => (v == 0) as u64,
                UnOp::BitNot => !v,
                UnOp::AddrOf | UnOp::Deref => return None,
            })
        }
        ExprKind::Binary(op, a, b) => {
            let (a, b) = (eval(a)?, eval(b)?);
            let (sa, sb) = (a as i64, b as i64);
            Some(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => a.checked_div(b)?,
                BinOp::Rem => a.checked_rem(b)?,
                BinOp::And => a & b,
                BinOp::Or => a | b,
                BinOp::Xor => a ^ b,
                BinOp::Shl => a.checked_shl(b as u32).unwrap_or(0),
                BinOp::Shr => a.checked_shr(b as u32).unwrap_or(0),
                BinOp::Eq => (a == b) as u64,
                BinOp::Ne => (a != b) as u64,
                BinOp::Lt => (sa < sb) as u64,
                BinOp::Le => (sa <= sb) as u64,
                BinOp::Gt => (sa > sb) as u64,
                BinOp::Ge => (sa >= sb) as u64,
                BinOp::LogicalAnd => (a != 0 && b != 0) as u64,
                BinOp::LogicalOr => (a != 0 || b != 0) as u64,
            })
        }
        ExprKind::Ternary(c, a, b) => {
            if eval(c)? != 0 {
                eval(a)
            } else {
                eval(b)
            }
        }
        ExprKind::Cast(te, e) => {
            let v = eval(e)?;
            match Ty::from_type_expr(te) {
                Some(ty) if ty.is_arith() => Some(ty.wrap(v)),
                _ => None,
            }
        }
        ExprKind::Sizeof(te) => Ty::from_type_expr(te).map(|t| t.size_bytes() as u64),
        _ => None,
    }
}

/// Evaluates an array dimension: constant, nonzero. Reports `E0228`.
pub(crate) fn eval_dim(expr: &Expr, diags: &mut DiagnosticSink) -> Option<usize> {
    let v = eval_const(expr, diags)?;
    if v == 0 {
        diags.error("E0228", "array dimension must be nonzero", expr.span);
        return None;
    }
    if v > (1 << 28) {
        diags.error(
            "E0228",
            format!("array dimension {v} exceeds the device memory model"),
            expr.span,
        );
        return None;
    }
    Some(v as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_lang::ast::{Init, Item};
    use netcl_lang::parse;

    /// Parses a global `int x[] = {EXPR};` and returns the initializer expr.
    fn expr_of(src: &str) -> Expr {
        let (unit, diags) = parse("t.ncl", &format!("_net_ int x[] = {{{src}}};"));
        assert!(!diags.has_errors(), "{:?}", diags.diagnostics());
        match &unit.program.items[0] {
            Item::Global(g) => match g.init.as_ref().unwrap() {
                Init::List(items, _) => match &items[0] {
                    Init::Expr(e) => e.clone(),
                    _ => panic!(),
                },
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    fn ev(src: &str) -> Option<u64> {
        try_eval(&expr_of(src))
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev("2 + 3 * 4"), Some(14));
        assert_eq!(ev("1 << 10"), Some(1024));
        assert_eq!(ev("65536 * 2"), Some(131072));
        assert_eq!(ev("7 / 2"), Some(3));
        assert_eq!(ev("7 % 2"), Some(1));
    }

    #[test]
    fn division_by_zero_fails() {
        assert_eq!(ev("1 / 0"), None);
        assert_eq!(ev("1 % 0"), None);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(ev("3 > 2"), Some(1));
        assert_eq!(ev("3 > 2 ? 10 : 20"), Some(10));
        assert_eq!(ev("0 && (1/0)"), None); // strict evaluation of operands
        assert_eq!(ev("1 && 2"), Some(1));
        assert_eq!(ev("!5"), Some(0));
    }

    /// Comparisons are signed, as on C `int` — array dimensions, `_spec`
    /// and the unroller all see the same answer.
    #[test]
    fn comparisons_are_signed() {
        assert_eq!(ev("-1 < 0"), Some(1));
        assert_eq!(ev("0 >= -1"), Some(1));
        assert_eq!(ev("(-1 < 0) + 1"), Some(2));
    }

    #[test]
    fn casts_wrap() {
        assert_eq!(ev("(uint8_t)300"), Some(44));
        assert_eq!(ev("(uint16_t)65536"), Some(0));
    }

    #[test]
    fn sizeof_constant() {
        assert_eq!(ev("sizeof(uint32_t)"), Some(4));
        assert_eq!(ev("sizeof(char)"), Some(1));
    }

    #[test]
    fn char_literals_are_constants() {
        assert_eq!(ev("'G'"), Some(b'G' as u64));
    }

    #[test]
    fn non_constant_reports() {
        let e = expr_of("1");
        let mut d = DiagnosticSink::new();
        assert_eq!(eval_const(&e, &mut d), Some(1));
        assert!(!d.has_errors());
    }

    #[test]
    fn dim_zero_rejected() {
        let e = expr_of("0");
        let mut d = DiagnosticSink::new();
        assert_eq!(eval_dim(&e, &mut d), None);
        assert!(d.has_code("E0228"));
    }

    #[test]
    fn range_check() {
        let e = expr_of("256");
        let mut d = DiagnosticSink::new();
        assert_eq!(eval_const_in(&e, Ty::U8, "computation id", &mut d), None);
        assert!(d.has_code("E0215"));
        let e = expr_of("255");
        let mut d = DiagnosticSink::new();
        assert_eq!(eval_const_in(&e, Ty::U8, "computation id", &mut d), Some(255));
    }
}
