//! Semantic analysis for NetCL-C device code (paper §V).
//!
//! Takes a parsed [`netcl_lang::Program`] and produces a [`model::Model`]:
//! the resolved set of kernels, net functions, and global memory objects,
//! each with its computation ID, location set, kernel specification, and
//! fully-evaluated constant dimensions/initializers. On the way it enforces
//! every rule §V states:
//!
//! * kernel arguments are fundamental types; specifications are inferred from
//!   types (`_spec` for pointers, no array-to-pointer decay) — §V-A
//! * kernels of the same computation have matching specifications — §V-A
//! * placement validity (Eq. 1) and reference validity (Eq. 2) — §V-C
//! * lookup memory is searched, never indexed; only `ncl::lookup` reads it —
//!   §V-B
//! * actions appear only in kernel `return` statements — §V-A
//! * no pointer arithmetic or pointer casts in device code — §V-D
//! * no recursion among net functions — §V-D
//!
//! Target-*specific* restrictions (single-stage memory access, access
//! ordering, unrollable loops) are intentionally **not** checked here: the
//! paper's design is "unrestricted at the language level, reject per-target"
//! (§V-D), so those checks live in the pass pipeline.
//!
//! Sema is the only resolver. Beside the model, [`Analysis`] holds per AST
//! node its type and its [`Resolution`] (global, callee, member, `sizeof`
//! operand, local declaration); lowering reads them and decides none again.
//!
//! DESIGN.md §3 lists every enforced rule with its diagnostic code.

#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod builtins;
pub mod check;
pub mod consteval;
pub mod model;
pub mod types;

pub use builtins::{ActionKind, AtomicOp, AtomicRmw, Builtin, HashKind};

pub use check::{analyze, Analysis, Member, Resolution};
pub use model::{GlobalInfo, KernelInfo, Model, NetFnInfo, ParamInfo, Specification};
pub use types::Ty;
