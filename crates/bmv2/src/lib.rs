//! A v1model-style software switch: executes P4 programs packet by packet.
//!
//! This is the repository's analogue of the p4lang behavioral model (BMv2):
//! "a software emulator that will execute *any* valid P4 program" (§III).
//! It drives the same [`netcl_p4::ast::P4Program`] the code generator emits
//! (or the parser reads from handwritten `.p4` baselines):
//!
//! 1. the parser FSM extracts headers from the wire bytes,
//! 2. the ingress control runs — tables match (first-entry priority),
//!    actions execute, `RegisterAction`s perform their SALU microprograms
//!    against persistent register state, hash externs compute with the
//!    exact algorithms of `netcl_util::hash`,
//! 3. valid headers deparse back to bytes in extraction order.
//!
//! Register and table state persist across packets, and a control-plane
//! interface ([`Switch::register_write`] for registers,
//! [`Switch::apply_update`] — the only way to change a table — for rules)
//! backs the NetCL `_managed_` memory API (§V-B).
//!
//! A program is lowered once, at the first [`Switch::new`] of its parts:
//! one walk over the AST builds the layout everything shares (field slots,
//! widths, register and table identity) and the direct-threaded closure
//! arrays the production engine runs. Every later switch loaded from the
//! same parts — one module placed at many devices — shares that loaded
//! program and owns only its state and its device. Per-packet execution
//! walks those arrays with zero heap allocation for interned fields. There
//! are exactly two engines: [`Switch::set_engine`] selects between threaded
//! and the original tree-walking interpreter, which remains the
//! differential-testing oracle.
//!
//! DESIGN.md §10 describes the layout, the lowering and the threaded
//! engine; §12 the data-plane counters ([`Switch::counters`]) both engines
//! maintain identically; §13 the batched entry point
//! ([`Switch::process_batch`]); §16 the runtime control plane
//! ([`mod@ctrl`]): validated, atomic table-update batches applied to a
//! running switch without a reload.

#![warn(unreachable_pub)]

mod assemble;
pub mod batch;
mod counters;
pub mod ctrl;
pub mod eval;
mod interp;
mod layout;
mod loaded;
mod lower;
pub mod packet;
pub mod switch;
mod threaded;

pub use batch::{PacketBatch, DEFAULT_BATCH};
pub use ctrl::{TableOp, TableUpdate, UpdateError};
pub use layout::{FieldSlot, HeaderId, SlotTable};
pub use packet::{FieldError, Packet, PacketError};
pub use switch::{Engine, Switch, SwitchCounters, SwitchError};
