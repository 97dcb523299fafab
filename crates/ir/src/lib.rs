//! The NetCL compiler's SSA intermediate representation.
//!
//! Mirrors the LLVM subset the paper's device pipeline operates on (§VI,
//! Fig. 9 middle row): typed integer values, basic blocks with explicit
//! terminators, φ-nodes, local "alloca" slots for variables and local
//! arrays, and NetCL-specific operations for global memory (atomic register
//! transactions), lookup tables, hashes, and kernel-argument (message)
//! access. Kernels terminate in forwarding actions.
//!
//! Submodules:
//! * [`types`] — value types, operands, operator enums
//! * [`func`] — instructions, blocks, functions, modules, and the builder
//! * [`dom`] — CFG orders, dominator tree, dominance frontiers
//! * [`verify`] — structural and dominance verification
//! * [`merge`] — multi-tenant namespacing and module composition (§17)
//! * [`mod@print`] — textual dump (stable, used by golden tests)
//! * [`interp`] — a reference interpreter used for differential testing
//!   against the generated P4 running on the bmv2 model
//!
//! DESIGN.md §4 shows where the IR sits in the `ncc` pipeline.

#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod dom;
pub mod func;
pub mod interp;
pub mod merge;
pub mod print;
pub mod types;
pub mod verify;

pub use func::{
    ArgInfo, Atomic, Block, BlockId, FuncBuilder, Function, GlobalDef, Inst, InstKind,
    IntrinsicCall, LocalId, LocalSlot, MemRef, Module, Results, Terminator, ValueId, ValueInfo,
};
pub use types::{CastKind, IcmpPred, IrBinOp, IrTy, IrUnOp, Operand};
