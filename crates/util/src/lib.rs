//! Shared infrastructure for the NetCL toolchain.
//!
//! This crate hosts the pieces that every other layer of the system needs:
//! source locations and diagnostics ([`Span`], [`DiagnosticSink`]),
//! interned identifiers ([`intern`]), stable typed index handles ([`idx`]),
//! the hash functions the NetCL device library exposes ([`hash`]), and a
//! small fixed-capacity bitset ([`bitset`]) used by the resource allocator
//! and the AllReduce application.
//!
//! DESIGN.md §2 shows where this crate sits under everything else.

#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod bitset;
mod diag;
pub mod hash;
pub mod idx;
pub mod intern;
pub mod tenant;

pub use diag::{Diagnostic, DiagnosticSink, Severity, SourceMap, Span};
pub use intern::{Interner, Symbol};
