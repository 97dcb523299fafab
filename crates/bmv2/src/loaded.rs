//! The loaded program: a program's parts lowered once (`lower.rs`) into
//! the layout and the threaded ops, and shared by every switch loaded from
//! those same parts (DESIGN.md §10).
//!
//! Invariants:
//! - A loaded program holds nothing a switch changes or owns. Registers,
//!   tables and counters live in the switch's `RuntimeState`; the device is
//!   the switch's, stamped on each packet it runs, and is what a program's
//!   `Expr::Device` leaf reads on both engines.
//! - Two programs share a loaded program only when their `headers`,
//!   `parser` and `controls` are the same allocations (`netcl_p4::Parts`,
//!   the identity the Tofino fit memo uses too). The loaded program
//!   holds those `Arc`s, so while it lives, the addresses that key it in the
//!   table name exactly its parts; a hit is still confirmed with
//!   `Arc::ptr_eq`. Equal parts in distinct allocations load apart.
//! - Threads that load the same parts at once, finding none live, may
//!   each lower them; the first lowering entered in the table is the one
//!   they all keep.
//! - The table holds no strong reference. The last switch to drop a loaded
//!   program frees it, and its `Drop` removes its entry.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, PoisonError, Weak};

use crate::layout::Layout;
use crate::lower;
use crate::threaded::ThreadedProgram;
use netcl_p4::ast::{P4Program, Parts, PartsKey};

/// A program lowered once, for every switch loaded from its parts.
pub(crate) struct Loaded {
    /// The parts the lowering read.
    parts: Parts,
    /// The addresses of `parts`: its entry in the table.
    key: PartsKey,
    /// Slots, widths, register and table identity (`layout.rs`): what the
    /// interpreter, the control plane ([`crate::ctrl`]) and the counters
    /// share with the threaded ops.
    pub(crate) layout: Layout,
    /// The direct-threaded lowering (`threaded.rs`).
    pub(crate) threaded: ThreadedProgram,
}

/// The live loaded programs, by the addresses of their parts.
fn table() -> MutexGuard<'static, HashMap<PartsKey, Weak<Loaded>>> {
    static TABLE: LazyLock<Mutex<HashMap<PartsKey, Weak<Loaded>>>> =
        LazyLock::new(Default::default);
    // An entry is inserted or removed whole, so a panic elsewhere while the
    // lock was held leaves the table consistent.
    TABLE.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Loaded {
    /// The loaded program of `program`'s parts: the live one a switch was
    /// loaded with from these same allocations, or else a new lowering.
    pub(crate) fn of(program: &P4Program) -> Arc<Loaded> {
        let key = Parts::key(program);
        // The guard is released at the end of this statement, before any
        // `Arc` is dropped: a drop may run `Loaded::drop`, which locks.
        let live = table().get(&key).and_then(Weak::upgrade);
        if let Some(loaded) = live.filter(|l| l.parts.are(program)) {
            return loaded;
        }
        let (layout, threaded) = lower::lower(program);
        let lowered = Arc::new(Loaded { parts: Parts::of(program), key, layout, threaded });
        // Another thread may have loaded these parts while this one lowered
        // them: its entry stays, so that every switch shares one lowering,
        // and this lowering is dropped after the guard.
        let live = {
            let mut table = table();
            let live = table.get(&key).and_then(Weak::upgrade);
            if !live.as_ref().is_some_and(|l| l.parts.are(program)) {
                table.insert(key, Arc::downgrade(&lowered));
            }
            live
        };
        live.filter(|l| l.parts.are(program)).unwrap_or(lowered)
    }
}

impl Drop for Loaded {
    fn drop(&mut self) {
        let mut table = table();
        // Another load of these parts may have replaced the entry since.
        if table.get(&self.key).is_some_and(|w| w.strong_count() == 0) {
            table.remove(&self.key);
        }
    }
}
