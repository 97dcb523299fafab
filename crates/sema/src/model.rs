//! The semantic model: the compiler-facing view of a checked program.
//!
//! After analysis, a translation unit boils down to three entity kinds
//! (paper §IV–V): kernels, net functions, and global memory objects. Each
//! carries its resolved location set, and kernels carry the *specification*
//! (§V-A) that the host runtime uses to lay out messages.

use crate::types::Ty;
use netcl_lang::ast::PassMode;
use netcl_util::Span;

/// A location set: `None` = location-less (placed everywhere, §V-C),
/// `Some(ids)` = explicit `_at(...)` list.
pub(crate) type LocationSet = Option<Vec<u16>>;

/// Whether an entity placed with `locs` is present on device `dev` (§V-C:
/// a location-less entity is on every device compiled for).
pub fn placed_at(locs: &LocationSet, dev: u16) -> bool {
    locs.as_ref().is_none_or(|ids| ids.contains(&dev))
}

/// One element of a kernel specification: `count` elements of scalar `ty`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecItem {
    /// Element count (1 for scalars, N for arrays / `_spec(N)` pointers).
    pub count: u32,
    /// Element type.
    pub ty: Ty,
}

/// The specification of a kernel (§V-A): the per-argument element counts and
/// types that define message layout. Kernels of the same computation must
/// have equal specifications.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Specification {
    /// Per-argument items, in declaration order.
    pub items: Vec<SpecItem>,
}

impl Specification {
    /// Total payload size in bytes when packed into a NetCL message.
    pub fn payload_bytes(&self) -> u32 {
        self.items.iter().map(|i| i.count * i.ty.size_bytes()).sum()
    }

    /// Human-readable form like `[1,2,1][uint8_t,uint32_t,uint32_t]`.
    pub fn describe(&self) -> String {
        let counts: Vec<String> = self.items.iter().map(|i| i.count.to_string()).collect();
        let tys: Vec<String> = self.items.iter().map(|i| i.ty.to_string()).collect();
        format!("[{}][{}]", counts.join(","), tys.join(","))
    }
}

/// A checked kernel parameter.
#[derive(Clone, Debug)]
pub struct ParamInfo {
    /// Name.
    pub name: String,
    /// Scalar element type.
    pub ty: Ty,
    /// Element count (the parameter's specification).
    pub count: u32,
    /// Pass mode — by-value updates are device-local (§V-A).
    pub mode: PassMode,
}

/// A checked kernel.
#[derive(Clone, Debug)]
pub struct KernelInfo {
    /// Function name.
    pub name: String,
    /// Computation ID (`_kernel(c)`).
    pub computation: u8,
    /// Location set.
    pub locations: LocationSet,
    /// Parameters.
    pub params: Vec<ParamInfo>,
    /// Index of the corresponding `FunctionDecl` in `Program::items`.
    pub item_index: usize,
    /// Declaration span.
    pub(crate) span: Span,
}

impl KernelInfo {
    /// Derives the kernel's specification.
    pub fn specification(&self) -> Specification {
        Specification {
            items: self.params.iter().map(|p| SpecItem { count: p.count, ty: p.ty }).collect(),
        }
    }
}

/// A checked net function.
#[derive(Clone, Debug)]
pub struct NetFnInfo {
    /// Function name.
    pub name: String,
    /// Location set.
    pub locations: LocationSet,
    /// Return type.
    pub ret: Ty,
    /// Parameters (counts are always 1 for net functions; `_spec` ignored).
    pub params: Vec<ParamInfo>,
    /// Index of the corresponding `FunctionDecl` in `Program::items`.
    pub item_index: usize,
    /// Declaration span.
    pub(crate) span: Span,
}

/// A lookup-table initializer entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LookupEntry {
    /// Scalar set member: `lookup(a, x)` matches when `x == key`.
    Member {
        /// The member value.
        key: u64,
    },
    /// `kv` entry: exact match on `key` yields `value`.
    Exact {
        /// Match key.
        key: u64,
        /// Returned value.
        value: u64,
    },
    /// `rv` entry: `lo <= x <= hi` yields `value`.
    Range {
        /// Inclusive low bound.
        lo: u64,
        /// Inclusive high bound.
        hi: u64,
        /// Returned value.
        value: u64,
    },
}

/// A checked global memory object.
#[derive(Clone, Debug)]
pub struct GlobalInfo {
    /// Name.
    pub name: String,
    /// Element type (scalar for `_net_`/`_managed_`, kv/rv for lookups).
    pub elem: Ty,
    /// Resolved dimensions (empty = scalar).
    pub dims: Vec<usize>,
    /// Writable from host code (`_managed_`).
    pub managed: bool,
    /// Match-action-table backed (`_lookup_`).
    pub lookup: bool,
    /// Location set.
    pub locations: LocationSet,
    /// Initial lookup entries (lookup memory only).
    pub entries: Vec<LookupEntry>,
    /// Declaration span.
    pub(crate) span: Span,
}

/// The complete checked model of one translation unit.
#[derive(Clone, Debug, Default)]
pub struct Model {
    /// All kernels.
    pub kernels: Vec<KernelInfo>,
    /// All net functions.
    pub net_fns: Vec<NetFnInfo>,
    /// All global memory objects.
    pub globals: Vec<GlobalInfo>,
}

impl Model {
    /// Finds a global by name.
    pub(crate) fn global(&self, name: &str) -> Option<&GlobalInfo> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// The set of device IDs that appear in any `_at` in the program, or
    /// `[0]` if everything is location-less (single-device program).
    pub fn mentioned_devices(&self) -> Vec<u16> {
        let mut ids: Vec<u16> = self
            .kernels
            .iter()
            .filter_map(|k| k.locations.as_ref())
            .chain(self.net_fns.iter().filter_map(|f| f.locations.as_ref()))
            .chain(self.globals.iter().filter_map(|g| g.locations.as_ref()))
            .flatten()
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            ids.push(0);
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(items: &[(u32, Ty)]) -> Specification {
        Specification { items: items.iter().map(|&(count, ty)| SpecItem { count, ty }).collect() }
    }

    #[test]
    fn specification_layout() {
        // kernel(4) void d(int x, int y[2], int *z) → [1,2,1][int,int,int]
        let s = spec(&[(1, Ty::I32), (2, Ty::I32), (1, Ty::I32)]);
        assert_eq!(s.payload_bytes(), 16);
        assert_eq!(s.describe(), "[1,2,1][int32_t,int32_t,int32_t]");
    }

    #[test]
    fn specifications_compare_structurally() {
        // Kernels b and c from §V-A: `int x[4]` vs `int _spec(4) *x` match.
        assert_eq!(spec(&[(4, Ty::I32)]), spec(&[(4, Ty::I32)]));
        // a (`int x[3]`) and d differ.
        assert_ne!(spec(&[(3, Ty::I32)]), spec(&[(4, Ty::I32)]));
    }

    #[test]
    fn placement_queries() {
        let m = Model {
            kernels: vec![
                KernelInfo {
                    name: "a".into(),
                    computation: 1,
                    locations: Some(vec![1, 2]),
                    params: vec![],
                    item_index: 0,
                    span: Span::DUMMY,
                },
                KernelInfo {
                    name: "b".into(),
                    computation: 2,
                    locations: None,
                    params: vec![],
                    item_index: 1,
                    span: Span::DUMMY,
                },
            ],
            net_fns: vec![],
            globals: vec![],
        };
        let at = |dev| m.kernels.iter().filter(move |k| placed_at(&k.locations, dev));
        let at1: Vec<_> = at(1).map(|k| k.name.as_str()).collect();
        assert_eq!(at1, vec!["a", "b"]);
        let at3: Vec<_> = at(3).map(|k| k.name.as_str()).collect();
        assert_eq!(at3, vec!["b"]);
        assert_eq!(m.mentioned_devices(), vec![1, 2]);
    }
}
