//! The NetCL device library (paper Table I and Table II).
//!
//! Resolves `ncl::...` paths into a typed [`Builtin`] descriptor: forwarding
//! actions, RMW atomics (with their `cond`/`_new` variants, §V-B), lookup,
//! hashes, math helpers, and target-specific intrinsics. The checker uses
//! the descriptor for signature validation; lowering maps it onto IR
//! operations; the interpreter and codegen share the same enum.

use crate::types::Ty;

/// Forwarding actions (paper Table II).
///
/// The paper's table lists `reflect_long()` twice by mistake; the three
/// behaviours it describes are `repeat` (execute the kernel again),
/// `reflect` (send the message back to the previous node), and
/// `reflect_host` (send it back to its source host). Figure 4 uses
/// `reflect()` for "return the cache hit to the sender", matching the
/// previous-node reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ActionKind {
    /// `ncl::drop()` — message exits the network immediately.
    Drop,
    /// `ncl::send_to_host(h)`.
    SendToHost,
    /// `ncl::send_to_device(d)`.
    SendToDevice,
    /// `ncl::multicast(gid)` — to an (adjacent-node) multicast group.
    Multicast,
    /// `ncl::reflect()` — back to the previous hop.
    Reflect,
    /// `ncl::repeat()` — execute the kernel again on this device.
    Repeat,
    /// `ncl::reflect_host()` — back to the message's source host.
    ReflectHost,
    /// `ncl::pass()` — continue to the original destination (the implicit
    /// action on paths that do not return one).
    Pass,
}

impl ActionKind {
    /// Number of arguments the action takes.
    pub(crate) fn arg_count(self) -> usize {
        match self {
            ActionKind::SendToHost | ActionKind::SendToDevice | ActionKind::Multicast => 1,
            _ => 0,
        }
    }

    /// The `ncl::` function name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            ActionKind::Drop => "drop",
            ActionKind::SendToHost => "send_to_host",
            ActionKind::SendToDevice => "send_to_device",
            ActionKind::Multicast => "multicast",
            ActionKind::Reflect => "reflect",
            ActionKind::Repeat => "repeat",
            ActionKind::ReflectHost => "reflect_host",
            ActionKind::Pass => "pass",
        }
    }

    /// Wire encoding of the action in the NetCL header (shared by codegen,
    /// the device runtime, and the bmv2 interpreter).
    pub fn code(self) -> u8 {
        match self {
            ActionKind::Pass => 0,
            ActionKind::Drop => 1,
            ActionKind::SendToHost => 2,
            ActionKind::SendToDevice => 3,
            ActionKind::Multicast => 4,
            ActionKind::Reflect => 5,
            ActionKind::Repeat => 6,
            ActionKind::ReflectHost => 7,
        }
    }

    /// Decodes a wire action code.
    pub fn from_code(code: u8) -> Option<ActionKind> {
        ActionKind::all().into_iter().find(|a| a.code() == code)
    }

    /// All actions, for table-driven tests.
    pub(crate) fn all() -> [ActionKind; 8] {
        [
            ActionKind::Drop,
            ActionKind::SendToHost,
            ActionKind::SendToDevice,
            ActionKind::Multicast,
            ActionKind::Reflect,
            ActionKind::Repeat,
            ActionKind::ReflectHost,
            ActionKind::Pass,
        ]
    }
}

/// The read-modify-write core of an atomic (§V-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AtomicRmw {
    /// Wrapping add.
    Add,
    /// Saturating add (`sadd`).
    SAdd,
    /// Wrapping subtract.
    Sub,
    /// Saturating subtract (`ssub`).
    SSub,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
    /// Bitwise xor.
    Xor,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Increment by one (no value operand).
    Inc,
    /// Decrement by one, saturating at zero (no value operand).
    Dec,
    /// Unconditional store, returning the old value.
    Swap,
    /// Compare-and-swap (expected, desired operands).
    Cas,
    /// Plain atomic read (no modification).
    Read,
}

impl AtomicRmw {
    /// Number of value operands after the address (and after the condition
    /// for `_cond` forms).
    pub fn value_operands(self) -> usize {
        match self {
            AtomicRmw::Inc | AtomicRmw::Dec | AtomicRmw::Read => 0,
            AtomicRmw::Cas => 2,
            _ => 1,
        }
    }

    /// Applies the RMW to `old` with operands `ops`, at width `ty`, returning
    /// the new memory value. (Shared by the IR interpreter and bmv2's
    /// RegisterAction evaluation, so semantics are defined exactly once.)
    #[inline]
    pub(crate) fn apply(self, old: u64, ops: &[u64], ty: Ty) -> u64 {
        let m = |v: u64| ty.wrap(v);
        match self {
            AtomicRmw::Add => m(old.wrapping_add(ops[0])),
            AtomicRmw::SAdd => {
                let sum = old.saturating_add(ops[0]);
                if sum > ty.max_value() {
                    ty.max_value()
                } else {
                    sum
                }
            }
            AtomicRmw::Sub => m(old.wrapping_sub(ops[0])),
            AtomicRmw::SSub => old.saturating_sub(ops[0]),
            AtomicRmw::Or => m(old | ops[0]),
            AtomicRmw::And => m(old & ops[0]),
            AtomicRmw::Xor => m(old ^ ops[0]),
            AtomicRmw::Min => m(old.min(ops[0])),
            AtomicRmw::Max => m(old.max(ops[0])),
            AtomicRmw::Inc => m(old.wrapping_add(1)),
            AtomicRmw::Dec => old.saturating_sub(1),
            AtomicRmw::Swap => m(ops[0]),
            AtomicRmw::Cas => {
                if old == ops[0] {
                    m(ops[1])
                } else {
                    old
                }
            }
            AtomicRmw::Read => old,
        }
    }

    fn from_str(s: &str) -> Option<AtomicRmw> {
        Some(match s {
            "add" => AtomicRmw::Add,
            "sadd" => AtomicRmw::SAdd,
            "sub" => AtomicRmw::Sub,
            "ssub" => AtomicRmw::SSub,
            "or" => AtomicRmw::Or,
            "and" => AtomicRmw::And,
            "xor" => AtomicRmw::Xor,
            "min" => AtomicRmw::Min,
            "max" => AtomicRmw::Max,
            "inc" => AtomicRmw::Inc,
            "dec" => AtomicRmw::Dec,
            "swap" => AtomicRmw::Swap,
            "cas" => AtomicRmw::Cas,
            "read" => AtomicRmw::Read,
            _ => return None,
        })
    }
}

/// A fully-specified atomic operation: `atomic_[cond_]<op>[_new]`.
///
/// `cond` adds a boolean operand after the address: the RMW executes only
/// when it is true. `ret_new` returns the value *after* the operation
/// instead of the old one — and, crucially for the paper's AGG kernel
/// (§V-E), a conditional `_new` atomic whose condition is false returns the
/// *old* value, which is what makes one SALU execution serve both the
/// aggregation and retransmission paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AtomicOp {
    /// The RMW core.
    pub rmw: AtomicRmw,
    /// Conditional form.
    pub cond: bool,
    /// Return new value instead of old.
    pub ret_new: bool,
}

impl AtomicOp {
    /// Total operand count including address and condition.
    pub(crate) fn arg_count(self) -> usize {
        1 + self.cond as usize + self.rmw.value_operands()
    }

    /// Executes against `old`, returning `(new_memory, returned_value)`.
    #[inline]
    pub fn execute(self, old: u64, cond: bool, ops: &[u64], ty: Ty) -> (u64, u64) {
        let enabled = !self.cond || cond;
        let new = if enabled { self.rmw.apply(old, ops, ty) } else { old };
        let ret = if self.ret_new && enabled { new } else { old };
        (new, ret)
    }

    /// The `ncl::` spelling, e.g. `atomic_cond_add_new`.
    pub fn name(self) -> String {
        let mut s = String::from("atomic_");
        if self.cond {
            s.push_str("cond_");
        }
        s.push_str(match self.rmw {
            AtomicRmw::Add => "add",
            AtomicRmw::SAdd => "sadd",
            AtomicRmw::Sub => "sub",
            AtomicRmw::SSub => "ssub",
            AtomicRmw::Or => "or",
            AtomicRmw::And => "and",
            AtomicRmw::Xor => "xor",
            AtomicRmw::Min => "min",
            AtomicRmw::Max => "max",
            AtomicRmw::Inc => "inc",
            AtomicRmw::Dec => "dec",
            AtomicRmw::Swap => "swap",
            AtomicRmw::Cas => "cas",
            AtomicRmw::Read => "read",
        });
        if self.ret_new {
            s.push_str("_new");
        }
        s
    }

    fn parse(name: &str) -> Option<AtomicOp> {
        let rest = name.strip_prefix("atomic_")?;
        let (rest, cond) = match rest.strip_prefix("cond_") {
            Some(r) => (r, true),
            None => (rest, false),
        };
        let (core, ret_new) = match rest.strip_suffix("_new") {
            Some(r) => (r, true),
            None => (rest, false),
        };
        Some(AtomicOp { rmw: AtomicRmw::from_str(core)?, cond, ret_new })
    }
}

/// Hash algorithms available to device code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HashKind {
    /// `ncl::crc16` — CRC-16/ARC.
    Crc16,
    /// `ncl::crc32` / `ncl::crc32<N>`.
    Crc32,
    /// `ncl::xor16`.
    Xor16,
    /// `ncl::identity` — no mixing, truncation only.
    Identity,
}

impl HashKind {
    /// Computes the hash of a key's little-endian bytes, folded to `bits`.
    #[inline]
    pub fn compute(self, key: u64, key_bytes: u32, bits: u8) -> u64 {
        let le = key.to_le_bytes();
        let data = &le[..key_bytes.min(8) as usize];
        let full = match self {
            HashKind::Crc16 => netcl_util::hash::crc16(data) as u32,
            HashKind::Crc32 => netcl_util::hash::crc32(data),
            HashKind::Xor16 => netcl_util::hash::xor16(data) as u32,
            HashKind::Identity => key as u32,
        };
        netcl_util::hash::fold_to_bits(full, bits as u32) as u64
    }
}

/// A resolved `ncl::` library call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Builtin {
    /// A forwarding action (Table II).
    Action(ActionKind),
    /// A global-memory atomic.
    Atomic(AtomicOp),
    /// `ncl::lookup(table, key [, out])`.
    Lookup,
    /// A hash with explicit output width.
    Hash(HashKind, u8),
    /// `ncl::sadd(a, b)` — saturating add (non-atomic).
    SAdd,
    /// `ncl::ssub(a, b)` — saturating subtract (non-atomic).
    SSub,
    /// `ncl::min(a, b)`.
    Min,
    /// `ncl::max(a, b)`.
    Max,
    /// `ncl::bit_chk(x, i)` — test bit `i`.
    BitChk,
    /// `ncl::bswap(x)` — byte swap (maps to bit-slice concatenation).
    Bswap,
    /// `ncl::clz(x)` — count leading zeros (maps to an LPM table).
    Clz,
    /// `ncl::rand<uN>()` — uniform random of the given width.
    Rand(u8),
    /// A target-specific intrinsic, e.g. `ncl::tna::crc64`. Carries the
    /// target namespace and intrinsic name; per-target backends validate.
    TargetIntrinsic {
        /// `tna` or `v1`.
        target: String,
        /// Intrinsic name within the namespace.
        name: String,
    },
}

/// Resolution errors distinguished for diagnostics.
#[derive(Debug, PartialEq, Eq)]
pub enum ResolveError {
    /// Not an `ncl::` path at all.
    NotNcl,
    /// `ncl::` path but unknown function.
    Unknown(String),
    /// Known function, malformed template arguments.
    BadTemplateArgs(String),
}

/// Resolves path segments + template constants into a [`Builtin`].
///
/// `targs` carries template *widths*: for `crc32<16>` it is `[16]`; for
/// `rand<u8>` the frontend passes the type's bit width.
pub(crate) fn resolve(segments: &[&str], targs: &[u64]) -> Result<Builtin, ResolveError> {
    if segments.first() != Some(&"ncl") {
        return Err(ResolveError::NotNcl);
    }
    match segments {
        ["ncl", name] => resolve_simple(name, targs),
        ["ncl", target @ ("tna" | "v1"), name] => {
            Ok(Builtin::TargetIntrinsic { target: target.to_string(), name: name.to_string() })
        }
        _ => Err(ResolveError::Unknown(segments.join("::"))),
    }
}

fn resolve_simple(name: &str, targs: &[u64]) -> Result<Builtin, ResolveError> {
    if let Some(op) = AtomicOp::parse(name) {
        return Ok(Builtin::Atomic(op));
    }
    for ak in ActionKind::all() {
        if ak.name() == name {
            return Ok(Builtin::Action(ak));
        }
    }
    let width_arg = |default: u8| -> Result<u8, ResolveError> {
        match targs {
            [] => Ok(default),
            [w] if (1..=64).contains(w) => Ok(*w as u8),
            _ => Err(ResolveError::BadTemplateArgs(name.to_string())),
        }
    };
    Ok(match name {
        "lookup" => Builtin::Lookup,
        "crc16" => Builtin::Hash(HashKind::Crc16, width_arg(16)?),
        "crc32" => Builtin::Hash(HashKind::Crc32, width_arg(32)?),
        "xor16" => Builtin::Hash(HashKind::Xor16, width_arg(16)?),
        "identity" => Builtin::Hash(HashKind::Identity, width_arg(32)?),
        "sadd" => Builtin::SAdd,
        "ssub" => Builtin::SSub,
        "min" => Builtin::Min,
        "max" => Builtin::Max,
        "bit_chk" => Builtin::BitChk,
        "bswap" => Builtin::Bswap,
        "clz" => Builtin::Clz,
        "rand" => Builtin::Rand(width_arg(32)?),
        other => return Err(ResolveError::Unknown(format!("ncl::{other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_name_grammar() {
        let op = AtomicOp::parse("atomic_sadd_new").unwrap();
        assert_eq!(op.rmw, AtomicRmw::SAdd);
        assert!(!op.cond);
        assert!(op.ret_new);
        assert_eq!(op.name(), "atomic_sadd_new");

        let op = AtomicOp::parse("atomic_cond_add_new").unwrap();
        assert!(op.cond && op.ret_new);
        assert_eq!(op.arg_count(), 3); // addr, cond, value

        let op = AtomicOp::parse("atomic_cond_dec").unwrap();
        assert_eq!(op.rmw, AtomicRmw::Dec);
        assert_eq!(op.arg_count(), 2); // addr, cond

        assert!(AtomicOp::parse("atomic_frob").is_none());
        assert!(AtomicOp::parse("atomicadd").is_none());
    }

    #[test]
    fn atomic_execute_semantics() {
        let ty = Ty::U8;
        // sadd_new saturates and returns new.
        let op = AtomicOp::parse("atomic_sadd_new").unwrap();
        assert_eq!(op.execute(250, true, &[10], ty), (255, 255));
        // cond=false leaves memory and returns old even for _new (paper §V-E:
        // retransmissions read the previous result).
        let op = AtomicOp::parse("atomic_cond_add_new").unwrap();
        assert_eq!(op.execute(7, false, &[5], ty), (7, 7));
        assert_eq!(op.execute(7, true, &[5], ty), (12, 12));
        // plain add returns old.
        let op = AtomicOp::parse("atomic_add").unwrap();
        assert_eq!(op.execute(7, true, &[5], ty), (12, 7));
        // dec saturates at 0.
        let op = AtomicOp::parse("atomic_dec").unwrap();
        assert_eq!(op.execute(0, true, &[], ty), (0, 0));
        // cas.
        let op = AtomicOp::parse("atomic_cas").unwrap();
        assert_eq!(op.execute(5, true, &[5, 9], ty), (9, 5));
        assert_eq!(op.execute(6, true, &[5, 9], ty), (6, 6));
    }

    #[test]
    fn rmw_wraps_at_width() {
        assert_eq!(AtomicRmw::Add.apply(255, &[1], Ty::U8), 0);
        assert_eq!(AtomicRmw::SAdd.apply(255, &[1], Ty::U8), 255);
        assert_eq!(AtomicRmw::Sub.apply(0, &[1], Ty::U8), 255);
        assert_eq!(AtomicRmw::SSub.apply(0, &[1], Ty::U8), 0);
    }

    #[test]
    fn resolve_actions() {
        assert_eq!(resolve(&["ncl", "drop"], &[]), Ok(Builtin::Action(ActionKind::Drop)));
        assert_eq!(resolve(&["ncl", "multicast"], &[]), Ok(Builtin::Action(ActionKind::Multicast)));
        assert_eq!(resolve(&["ncl", "pass"], &[]), Ok(Builtin::Action(ActionKind::Pass)));
    }

    #[test]
    fn resolve_hashes_with_widths() {
        assert_eq!(resolve(&["ncl", "crc32"], &[16]), Ok(Builtin::Hash(HashKind::Crc32, 16)));
        assert_eq!(resolve(&["ncl", "crc16"], &[]), Ok(Builtin::Hash(HashKind::Crc16, 16)));
        assert!(matches!(resolve(&["ncl", "crc32"], &[99]), Err(ResolveError::BadTemplateArgs(_))));
    }

    #[test]
    fn resolve_target_intrinsics() {
        match resolve(&["ncl", "tna", "crc64"], &[]) {
            Ok(Builtin::TargetIntrinsic { target, name }) => {
                assert_eq!(target, "tna");
                assert_eq!(name, "crc64");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resolve_unknown() {
        assert!(matches!(resolve(&["ncl", "frobnicate"], &[]), Err(ResolveError::Unknown(_))));
        assert_eq!(resolve(&["std", "min"], &[]), Err(ResolveError::NotNcl));
    }

    #[test]
    fn hash_compute_matches_util() {
        let k = 0xDEAD_BEEFu64;
        assert_eq!(
            HashKind::Crc16.compute(k, 4, 16),
            netcl_util::hash::crc16(&(k as u32).to_le_bytes()) as u64
        );
        assert_eq!(
            HashKind::Crc32.compute(k, 4, 16),
            (netcl_util::hash::crc32(&(k as u32).to_le_bytes()) & 0xFFFF) as u64
        );
    }
}
