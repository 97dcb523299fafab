//! P4-16 program representation, printer, parser, and construct classifier.
//!
//! This crate is the interchange format between the NetCL code generator,
//! the Tofino resource allocator (`netcl-tofino`), and the behavioral-model
//! interpreter (`netcl-bmv2`):
//!
//! * [`ast`] — a typed P4-16 subset: headers, parsers, controls,
//!   `Register`/`RegisterAction`/`Hash` externs (TNA style), match-action
//!   tables with const entries, actions, and apply blocks. The subset is
//!   exactly what the NetCL backend emits (paper Fig. 9) plus what our
//!   handwritten P4 baselines use.
//! * [`mod@print`] — renders a program to P4-16 text, in one form for both
//!   dialects: a TNA and a v1model program differ only in the comment line
//!   naming the target and the `#include` line.
//! * [`parse`] — parses that same subset back, the dialect read from the
//!   `#include` line; `print ∘ parse` is a text fixpoint on every program
//!   the toolchain prints, TNA and v1model, generated or handwritten
//!   (`tests/pipeline.rs`), and the printed `struct headers_t` carries each
//!   header stack's length, so the program reads back whole. Generated
//!   programs are built as [`ast`] values by the code generator; the
//!   handwritten baselines in `netcl-apps` and the programs the unit tests
//!   of `netcl-bmv2`, `netcl-tofino` and [`classify`] run are P4 text that
//!   `parse_program` reads. It is also called by `tests/pipeline.rs`
//!   (print → parse → execute round trip) and by `netcl_e2e`'s
//!   `compile_fleet` stage (`p4.parse_s`, `p4.parse_refused`).
//! * [`classify`] — assigns each line of a program to a construct category
//!   (headers, parsers, MATs, RegisterActions, control, declarations),
//!   regenerating the paper's Figure 12 breakdown.
//!
//! DESIGN.md §2 places this interchange format in the system inventory.

#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod ast;
pub mod classify;
pub mod parse;
pub mod print;

pub use ast::{
    ActionDef, ControlDef, Expr, HeaderDef, MatchKind, P4Program, ParserDef, ParserState, Parts,
    PartsKey, RegisterActionDef, RegisterDef, Stmt, TableDef, TableEntry, Target, WeakParts,
};
