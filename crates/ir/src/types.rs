//! IR value types, operands, and operator enums.
//!
//! Like LLVM, types carry only width; signedness lives in the operations
//! (`udiv`/`sdiv`, `lshr`/`ashr`, `ult`/`slt`). `i1` is the boolean type.

use std::fmt;

/// An IR value type: an integer of the given bit width (1 = bool).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IrTy {
    /// Bit width: 1, 8, 16, 32, or 64.
    pub bits: u8,
}

impl IrTy {
    /// Boolean.
    pub const I1: IrTy = IrTy { bits: 1 };
    /// Byte.
    pub const I8: IrTy = IrTy { bits: 8 };
    /// 16-bit.
    pub const I16: IrTy = IrTy { bits: 16 };
    /// 32-bit.
    pub const I32: IrTy = IrTy { bits: 32 };
    /// 64-bit.
    pub const I64: IrTy = IrTy { bits: 64 };

    /// Constructs from a width.
    pub fn int(bits: u8) -> IrTy {
        debug_assert!(matches!(bits, 1 | 8 | 16 | 32 | 64), "unsupported width {bits}");
        IrTy { bits }
    }

    /// Mask with the low `bits` set (all ones for 64).
    pub fn mask(self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }

    /// Truncates a value to this width.
    pub fn wrap(self, v: u64) -> u64 {
        v & self.mask()
    }

    /// Sign-extends `v` (assumed `self.bits` wide) to 64 bits.
    pub(crate) fn sext(self, v: u64) -> u64 {
        let v = self.wrap(v);
        if self.bits < 64 && v >> (self.bits - 1) & 1 == 1 {
            v | !self.mask()
        } else {
            v
        }
    }
}

impl fmt::Debug for IrTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.bits)
    }
}

impl fmt::Display for IrTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.bits)
    }
}

netcl_util::define_index!(RawValueId, "%");

/// An instruction operand: an SSA value or an immediate constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Reference to a defined value.
    Value(super::func::ValueId),
    /// Immediate with explicit width.
    Const(u64, IrTy),
}

impl Operand {
    /// Immediate constant helper.
    pub fn imm(v: u64, ty: IrTy) -> Operand {
        Operand::Const(ty.wrap(v), ty)
    }

    /// The constant value, if this is an immediate.
    pub fn as_const(self) -> Option<u64> {
        match self {
            Operand::Const(v, _) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Debug for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Value(v) => write!(f, "{v}"),
            Operand::Const(c, ty) => write!(f, "{ty} {c}"),
        }
    }
}

/// Binary integer operations. Signedness is explicit where it matters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IrBinOp {
    /// Wrapping add.
    Add,
    /// Wrapping subtract.
    Sub,
    /// Wrapping multiply.
    Mul,
    /// Unsigned divide.
    UDiv,
    /// Signed divide.
    SDiv,
    /// Unsigned remainder.
    URem,
    /// Signed remainder.
    SRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
    /// Unsigned saturating add (`ncl::sadd`, SALU-native on Tofino).
    UAddSat,
    /// Unsigned saturating subtract (`ncl::ssub`).
    USubSat,
    /// Unsigned minimum.
    UMin,
    /// Unsigned maximum.
    UMax,
    /// Signed minimum.
    SMin,
    /// Signed maximum.
    SMax,
}

impl IrBinOp {
    /// Evaluates the op at width `ty` (operands already canonical).
    pub fn eval(self, a: u64, b: u64, ty: IrTy) -> Option<u64> {
        let m = |v: u64| ty.wrap(v);
        Some(match self {
            IrBinOp::Add => m(a.wrapping_add(b)),
            IrBinOp::Sub => m(a.wrapping_sub(b)),
            IrBinOp::Mul => m(a.wrapping_mul(b)),
            IrBinOp::UDiv => m(a.checked_div(b)?),
            IrBinOp::SDiv => {
                let (sa, sb) = (ty.sext(a) as i64, ty.sext(b) as i64);
                m(sa.checked_div(sb)? as u64)
            }
            IrBinOp::URem => m(a.checked_rem(b)?),
            IrBinOp::SRem => {
                let (sa, sb) = (ty.sext(a) as i64, ty.sext(b) as i64);
                m(sa.checked_rem(sb)? as u64)
            }
            IrBinOp::And => a & b,
            IrBinOp::Or => a | b,
            IrBinOp::Xor => a ^ b,
            IrBinOp::Shl => {
                if b >= ty.bits as u64 {
                    0
                } else {
                    m(a << b)
                }
            }
            IrBinOp::LShr => {
                if b >= ty.bits as u64 {
                    0
                } else {
                    m(a >> b)
                }
            }
            IrBinOp::AShr => {
                let sa = ty.sext(a) as i64;
                let sh = (b as u32).min(63);
                m((sa >> sh) as u64)
            }
            IrBinOp::UAddSat => {
                let s = a.saturating_add(b);
                if s > ty.mask() {
                    ty.mask()
                } else {
                    s
                }
            }
            IrBinOp::USubSat => a.saturating_sub(b),
            IrBinOp::UMin => a.min(b),
            IrBinOp::UMax => a.max(b),
            IrBinOp::SMin => {
                if ty.sext(a) as i64 <= ty.sext(b) as i64 {
                    a
                } else {
                    b
                }
            }
            IrBinOp::SMax => {
                if ty.sext(a) as i64 >= ty.sext(b) as i64 {
                    a
                } else {
                    b
                }
            }
        })
    }

    /// True for `+ * & | ^ min max` — operand order irrelevant.
    pub fn commutative(self) -> bool {
        use IrBinOp::*;
        matches!(self, Add | Mul | And | Or | Xor | UAddSat | UMin | UMax | SMin | SMax)
    }

    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use IrBinOp::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            UDiv => "udiv",
            SDiv => "sdiv",
            URem => "urem",
            SRem => "srem",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            LShr => "lshr",
            AShr => "ashr",
            UAddSat => "uadd.sat",
            USubSat => "usub.sat",
            UMin => "umin",
            UMax => "umax",
            SMin => "smin",
            SMax => "smax",
        }
    }
}

/// Unary operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IrUnOp {
    /// Byte swap (width must be a multiple of 16).
    Bswap,
    /// Count leading zeros.
    Clz,
}

impl IrUnOp {
    /// Evaluates at width `ty`.
    pub fn eval(self, a: u64, ty: IrTy) -> u64 {
        match self {
            IrUnOp::Bswap => {
                let bytes = (ty.bits / 8).max(1) as usize;
                let le = a.to_le_bytes();
                let mut out = 0u64;
                for &b in le.iter().take(bytes) {
                    out = (out << 8) | b as u64;
                }
                ty.wrap(out)
            }
            IrUnOp::Clz => {
                let shifted = ty.wrap(a);
                if shifted == 0 {
                    ty.bits as u64
                } else {
                    (shifted.leading_zeros() - (64 - ty.bits as u32)) as u64
                }
            }
        }
    }

    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IrUnOp::Bswap => "bswap",
            IrUnOp::Clz => "ctlz",
        }
    }
}

/// Integer comparison predicates (LLVM `icmp`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IcmpPred {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// unsigned `<`
    Ult,
    /// unsigned `<=`
    Ule,
    /// unsigned `>`
    Ugt,
    /// unsigned `>=`
    Uge,
    /// signed `<`
    Slt,
    /// signed `<=`
    Sle,
    /// signed `>`
    Sgt,
    /// signed `>=`
    Sge,
}

impl IcmpPred {
    /// Evaluates the predicate at width `ty`.
    pub fn eval(self, a: u64, b: u64, ty: IrTy) -> bool {
        let (sa, sb) = (ty.sext(a) as i64, ty.sext(b) as i64);
        match self {
            IcmpPred::Eq => a == b,
            IcmpPred::Ne => a != b,
            IcmpPred::Ult => a < b,
            IcmpPred::Ule => a <= b,
            IcmpPred::Ugt => a > b,
            IcmpPred::Uge => a >= b,
            IcmpPred::Slt => sa < sb,
            IcmpPred::Sle => sa <= sb,
            IcmpPred::Sgt => sa > sb,
            IcmpPred::Sge => sa >= sb,
        }
    }

    /// True for predicates with dynamic-operand forms Tofino ALUs cannot
    /// evaluate directly (§VI-B rewrites them to `sub` + MSB check).
    pub fn needs_sub_msb_rewrite(self) -> bool {
        !matches!(self, IcmpPred::Eq | IcmpPred::Ne)
    }

    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IcmpPred::Eq => "eq",
            IcmpPred::Ne => "ne",
            IcmpPred::Ult => "ult",
            IcmpPred::Ule => "ule",
            IcmpPred::Ugt => "ugt",
            IcmpPred::Uge => "uge",
            IcmpPred::Slt => "slt",
            IcmpPred::Sle => "sle",
            IcmpPred::Sgt => "sgt",
            IcmpPred::Sge => "sge",
        }
    }
}

/// Cast kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CastKind {
    /// Zero extension.
    Zext,
    /// Sign extension.
    Sext,
    /// Truncation.
    Trunc,
}

impl CastKind {
    /// Evaluates the cast from `from` width to `to` width.
    pub fn eval(self, v: u64, from: IrTy, to: IrTy) -> u64 {
        match self {
            CastKind::Zext => from.wrap(v),
            CastKind::Sext => to.wrap(from.sext(v)),
            CastKind::Trunc => to.wrap(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_and_wrap() {
        assert_eq!(IrTy::I8.mask(), 0xFF);
        assert_eq!(IrTy::I64.mask(), u64::MAX);
        assert_eq!(IrTy::I16.wrap(0x1_2345), 0x2345);
        assert_eq!(IrTy::I1.wrap(3), 1);
    }

    #[test]
    fn sext() {
        assert_eq!(IrTy::I8.sext(0x80), 0xFFFF_FFFF_FFFF_FF80);
        assert_eq!(IrTy::I8.sext(0x7F), 0x7F);
    }

    #[test]
    fn binop_eval_semantics() {
        let t = IrTy::I8;
        assert_eq!(IrBinOp::Add.eval(250, 10, t), Some(4));
        assert_eq!(IrBinOp::UAddSat.eval(250, 10, t), Some(255));
        assert_eq!(IrBinOp::USubSat.eval(3, 10, t), Some(0));
        assert_eq!(IrBinOp::UDiv.eval(7, 0, t), None);
        assert_eq!(IrBinOp::SDiv.eval(t.wrap(-6i64 as u64), 2, t), Some(t.wrap(-3i64 as u64)));
        assert_eq!(IrBinOp::Shl.eval(1, 9, t), Some(0));
        assert_eq!(IrBinOp::LShr.eval(0x80, 7, t), Some(1));
        assert_eq!(IrBinOp::AShr.eval(0x80, 7, t), Some(0xFF));
        assert_eq!(IrBinOp::SMin.eval(0xFF, 1, t), Some(0xFF)); // -1 < 1
        assert_eq!(IrBinOp::UMin.eval(0xFF, 1, t), Some(1));
    }

    #[test]
    fn unop_eval() {
        assert_eq!(IrUnOp::Bswap.eval(0x1234, IrTy::I16), 0x3412);
        assert_eq!(IrUnOp::Bswap.eval(0x1234_5678, IrTy::I32), 0x7856_3412);
        assert_eq!(IrUnOp::Clz.eval(0, IrTy::I16), 16);
        assert_eq!(IrUnOp::Clz.eval(1, IrTy::I16), 15);
        assert_eq!(IrUnOp::Clz.eval(0x8000, IrTy::I16), 0);
    }

    #[test]
    fn icmp_eval_signed_vs_unsigned() {
        let t = IrTy::I8;
        assert!(IcmpPred::Ult.eval(1, 0xFF, t));
        assert!(!IcmpPred::Slt.eval(1, 0xFF, t)); // 1 < -1 is false
        assert!(IcmpPred::Sgt.eval(1, 0xFF, t));
    }

    #[test]
    fn cast_eval() {
        assert_eq!(CastKind::Zext.eval(0x80, IrTy::I8, IrTy::I32), 0x80);
        assert_eq!(CastKind::Sext.eval(0x80, IrTy::I8, IrTy::I32), 0xFFFF_FF80);
        assert_eq!(CastKind::Trunc.eval(0x1234, IrTy::I16, IrTy::I8), 0x34);
    }
}
