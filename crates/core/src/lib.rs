//! NetCL — a unified programming framework for in-network computing.
//!
//! This crate is the paper's primary contribution as a Rust library: the
//! `ncc` compiler pipeline that turns NetCL-C device code into P4 programs
//! for Intel Tofino (TNA) and the v1model software switch (paper §III, §VI).
//!
//! ```text
//!  NetCL-C source ──lang──▶ AST ──sema──▶ model ──lower──▶ SSA IR
//!        ──passes──▶ target-legal IR ──codegen──▶ P4 (TNA / v1model)
//! ```
//!
//! The public entry point is [`Compiler`]:
//!
//! ```
//! use netcl::{Compiler, CompileOptions};
//!
//! let source = r#"
//!     _net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42},{2,43}};
//!     _kernel(1) void query(char op, unsigned k, unsigned &v, char &hit) {
//!         if (op == 'G') {
//!             hit = ncl::lookup(cache, k, v);
//!             if (hit) return ncl::reflect();
//!         }
//!     }
//! "#;
//! let unit = Compiler::new(CompileOptions::default())
//!     .compile("cache.ncl", source)
//!     .expect("compiles");
//! assert_eq!(unit.devices.len(), 1);
//! let p4 = &unit.devices[0].tna_p4;
//! assert!(p4.controls.iter().any(|c| !c.tables.is_empty()));
//! ```
//!
//! For workloads of many units, [`Compiler::compile_incremental`] reuses
//! unchanged artifacts through a [`CompileCache`]: whole units are kept by
//! name, one entry per revision and compared by source text, an edit that
//! moves no token (a comment, blank lines, trailing spaces) is served the
//! newest revision once their preprocessed texts compare equal, and device
//! programs are kept by a hash of the lowered module they were built from,
//! so an edit recompiles only what it touched. The IR modules, P4 programs and
//! model of a result are immutable behind `Arc` and shared between the
//! cache and every unit it serves, and a served unit is itself the cache's
//! `Arc`: a hit costs one text compare and one reference count, with no
//! allocation, whatever the size of the unit (`tests/cache_alloc.rs`
//! holds it to that). Served results carry
//! [`compiler::CompiledUnit::reuse`] and mark their pass reports
//! `from_cache` (`tests/incremental.rs` counts the hits of a one-unit edit;
//! `cache::tests::cached_pass_reports_are_marked`).
//!
//! DESIGN.md §4 walks the pipeline stage by stage; §12 documents the
//! per-pass telemetry behind [`CompileOptions::pass_report`] and
//! `ncc --emit-pass-report`; §16 covers the runtime control plane and the
//! incremental recompilation cache ([`cache`]).

#![warn(unreachable_pub)]

pub mod cache;
pub mod codegen;
pub mod compiler;
pub mod lower;
pub mod tenant;

pub use cache::{CacheStats, CompileCache, ReuseStats};
pub use compiler::{
    CompileError, CompileOptions, CompiledDevice, CompiledUnit, Compiler, EmitTarget,
};
pub use tenant::{compile_tenants, MergedCompilation, TenantSlice, TenantSource};

// Re-export the layers for downstream crates (runtime, apps, benches).
pub use netcl_ir as ir;
pub use netcl_lang as lang;
pub use netcl_p4 as p4;
pub use netcl_passes as passes;
pub use netcl_sema as sema;
pub use netcl_util as util;
