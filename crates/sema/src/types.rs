//! Semantic types.
//!
//! NetCL device types are deliberately small (paper §V-A: fundamental types
//! except `void` for kernel arguments, plus the `kv`/`rv` lookup entry
//! types). [`Ty`] is the resolved form of `netcl_lang::ast::TypeExpr`, with
//! `auto` already inferred and integer spellings normalized to width +
//! signedness.

use netcl_lang::ast::TypeExpr;
use std::fmt;

/// A resolved NetCL type.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// `void` — only as a return type.
    Void,
    /// `bool` — comparison results and flags; 1 bit semantically, 8 on wire.
    Bool,
    /// Fixed-width integer.
    Int {
        /// 8, 16, 32, or 64.
        bits: u8,
        /// Signedness.
        signed: bool,
    },
    /// Exact-match lookup entry `ncl::kv<K, V>`; fields are scalar ints.
    Kv {
        /// Key type.
        key: ScalarTy,
        /// Value type.
        value: ScalarTy,
    },
    /// Range-match lookup entry `ncl::rv<R, V>`.
    Rv {
        /// Range bound type.
        range: ScalarTy,
        /// Value type.
        value: ScalarTy,
    },
    /// The result of a NetCL action call (`ncl::drop()` etc.); may only flow
    /// into a kernel `return`.
    Action,
}

/// A scalar integer type packed into one byte for embedding in [`Ty`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScalarTy {
    /// Bit width.
    pub bits: u8,
    /// Signedness.
    pub signed: bool,
}

impl ScalarTy {
    /// Widens back to a [`Ty`].
    pub fn ty(self) -> Ty {
        Ty::Int { bits: self.bits, signed: self.signed }
    }
}

impl Ty {
    /// `uint8_t`.
    pub const U8: Ty = Ty::Int { bits: 8, signed: false };
    /// `uint16_t`.
    pub const U16: Ty = Ty::Int { bits: 16, signed: false };
    /// `uint32_t`.
    pub const U32: Ty = Ty::Int { bits: 32, signed: false };
    /// `uint64_t`.
    pub const U64: Ty = Ty::Int { bits: 64, signed: false };
    /// `int32_t`.
    pub const I32: Ty = Ty::Int { bits: 32, signed: true };

    /// True for integer types (not bool).
    pub(crate) fn is_int(self) -> bool {
        matches!(self, Ty::Int { .. })
    }

    /// True for types usable in arithmetic (int or bool, which promotes).
    pub(crate) fn is_arith(self) -> bool {
        matches!(self, Ty::Int { .. } | Ty::Bool)
    }

    /// True for kv/rv lookup entry types.
    pub(crate) fn is_lookup_entry(self) -> bool {
        matches!(self, Ty::Kv { .. } | Ty::Rv { .. })
    }

    /// Bit width when laid out in a message or register (bool = 8 on wire).
    pub(crate) fn bits(self) -> u32 {
        match self {
            Ty::Void | Ty::Action => 0,
            Ty::Bool => 8,
            Ty::Int { bits, .. } => bits as u32,
            Ty::Kv { key, value } => key.bits as u32 + value.bits as u32,
            Ty::Rv { range, value } => 2 * range.bits as u32 + value.bits as u32,
        }
    }

    /// Size in bytes on the wire.
    pub fn size_bytes(self) -> u32 {
        self.bits().div_ceil(8)
    }

    /// Truncates `v` to this type's width and re-interprets per signedness,
    /// returning the canonical u64 bit-pattern (sign-extended to 64 bits for
    /// signed types). This is the conversion every assignment performs.
    pub fn wrap(self, v: u64) -> u64 {
        match self {
            Ty::Bool => (v != 0) as u64,
            Ty::Int { bits: 64, .. } => v,
            Ty::Int { bits, signed } => {
                let mask = (1u64 << bits) - 1;
                let t = v & mask;
                if signed && t >> (bits - 1) & 1 == 1 {
                    t | !mask
                } else {
                    t
                }
            }
            _ => v,
        }
    }

    /// Maximum representable value (as u64 bit pattern).
    pub(crate) fn max_value(self) -> u64 {
        match self {
            Ty::Bool => 1,
            Ty::Int { bits: 64, signed: false } => u64::MAX,
            Ty::Int { bits: 64, signed: true } => i64::MAX as u64,
            Ty::Int { bits, signed: false } => (1u64 << bits) - 1,
            Ty::Int { bits, signed: true } => (1u64 << (bits - 1)) - 1,
            _ => 0,
        }
    }

    /// The C "usual arithmetic conversions", restricted to our type set:
    /// the wider width wins; on equal width unsigned wins; bool promotes to
    /// i32 first.
    pub fn unify_arith(a: Ty, b: Ty) -> Ty {
        let pa = a.promote();
        let pb = b.promote();
        match (pa, pb) {
            (Ty::Int { bits: ba, signed: sa }, Ty::Int { bits: bb, signed: sb }) => {
                if ba != bb {
                    if ba > bb {
                        pa
                    } else {
                        pb
                    }
                } else {
                    Ty::Int { bits: ba, signed: sa && sb }
                }
            }
            _ => pa,
        }
    }

    /// Integer promotion: bool and sub-int types promote to i32 in
    /// arithmetic, matching C.
    pub fn promote(self) -> Ty {
        match self {
            Ty::Bool => Ty::I32,
            Ty::Int { bits, signed } if bits < 32 => {
                // Values of narrower types always fit in i32.
                let _ = signed;
                Ty::I32
            }
            other => other,
        }
    }

    /// Whether `self` can be implicitly converted to `to` (C integer model:
    /// any int↔int, int↔bool; actions and lookup entries never convert).
    pub(crate) fn converts_to(self, to: Ty) -> bool {
        match (self, to) {
            (a, b) if a == b => true,
            (Ty::Int { .. } | Ty::Bool, Ty::Int { .. } | Ty::Bool) => true,
            _ => false,
        }
    }

    /// Resolves a syntactic type. `auto` and `Named` yield `None` (callers
    /// report the error or infer from an initializer).
    pub(crate) fn from_type_expr(te: &TypeExpr) -> Option<Ty> {
        match te {
            TypeExpr::Void => Some(Ty::Void),
            TypeExpr::Bool => Some(Ty::Bool),
            TypeExpr::Auto | TypeExpr::Named(_) => None,
            TypeExpr::Int { bits, signed } => Some(Ty::Int { bits: *bits, signed: *signed }),
            TypeExpr::Kv(k, v) => {
                let k = Ty::from_type_expr(k)?.as_scalar()?;
                let v = Ty::from_type_expr(v)?.as_scalar()?;
                Some(Ty::Kv { key: k, value: v })
            }
            TypeExpr::Rv(r, v) => {
                let r = Ty::from_type_expr(r)?.as_scalar()?;
                let v = Ty::from_type_expr(v)?.as_scalar()?;
                Some(Ty::Rv { range: r, value: v })
            }
        }
    }

    /// Narrow to a scalar descriptor, if this is an integer type.
    pub(crate) fn as_scalar(self) -> Option<ScalarTy> {
        match self {
            Ty::Int { bits, signed } => Some(ScalarTy { bits, signed }),
            Ty::Bool => Some(ScalarTy { bits: 8, signed: false }),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Void => write!(f, "void"),
            Ty::Bool => write!(f, "bool"),
            Ty::Int { bits, signed } => {
                write!(f, "{}int{}_t", if *signed { "" } else { "u" }, bits)
            }
            Ty::Kv { key, value } => write!(f, "ncl::kv<{}, {}>", key.ty(), value.ty()),
            Ty::Rv { range, value } => write!(f, "ncl::rv<{}, {}>", range.ty(), value.ty()),
            Ty::Action => write!(f, "<action>"),
        }
    }
}

impl fmt::Debug for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_truncates_and_sign_extends() {
        assert_eq!(Ty::U8.wrap(0x1FF), 0xFF);
        assert_eq!(Ty::U16.wrap(0x12345), 0x2345);
        // i8: 0xFF → -1 sign extended.
        let i8ty = Ty::Int { bits: 8, signed: true };
        assert_eq!(i8ty.wrap(0xFF), u64::MAX);
        assert_eq!(i8ty.wrap(0x7F), 0x7F);
        assert_eq!(Ty::Bool.wrap(42), 1);
        assert_eq!(Ty::Bool.wrap(0), 0);
    }

    #[test]
    fn max_values() {
        assert_eq!(Ty::U8.max_value(), 255);
        assert_eq!(Ty::U32.max_value(), u32::MAX as u64);
        assert_eq!(Ty::I32.max_value(), i32::MAX as u64);
        assert_eq!(Ty::U64.max_value(), u64::MAX);
    }

    #[test]
    fn unify_prefers_width_then_unsigned() {
        assert_eq!(Ty::unify_arith(Ty::U8, Ty::U32), Ty::U32);
        assert_eq!(Ty::unify_arith(Ty::U32, Ty::I32), Ty::U32);
        assert_eq!(Ty::unify_arith(Ty::I32, Ty::I32), Ty::I32);
        assert_eq!(Ty::unify_arith(Ty::Bool, Ty::Bool), Ty::I32);
        assert_eq!(Ty::unify_arith(Ty::U64, Ty::U32), Ty::U64);
        // Narrow ints promote to i32 first.
        assert_eq!(Ty::unify_arith(Ty::U8, Ty::U16), Ty::I32);
    }

    #[test]
    fn conversions() {
        assert!(Ty::U8.converts_to(Ty::U64));
        assert!(Ty::U64.converts_to(Ty::U8)); // narrowing allowed, C-style
        assert!(Ty::Bool.converts_to(Ty::U32));
        assert!(!Ty::Action.converts_to(Ty::U32));
        let kv = Ty::Kv {
            key: ScalarTy { bits: 32, signed: false },
            value: ScalarTy { bits: 32, signed: false },
        };
        assert!(!kv.converts_to(Ty::U32));
    }

    #[test]
    fn sizes() {
        assert_eq!(Ty::U8.size_bytes(), 1);
        assert_eq!(Ty::Bool.size_bytes(), 1);
        assert_eq!(Ty::U32.size_bytes(), 4);
        let kv = Ty::Kv {
            key: ScalarTy { bits: 32, signed: false },
            value: ScalarTy { bits: 32, signed: false },
        };
        assert_eq!(kv.size_bytes(), 8);
    }

    #[test]
    fn display() {
        assert_eq!(Ty::U16.to_string(), "uint16_t");
        assert_eq!(Ty::I32.to_string(), "int32_t");
    }
}
