//! What a loaded program *is* to everything that is not an engine: dense
//! slots for its fields and header instances, declared widths, and the
//! identity of its registers and table states.
//!
//! [`Layout`] is built during the one lowering walk (`lower.rs` declares
//! each control's registers and tables here as it reaches them) and then
//! frozen for the switch's lifetime. Both engines, the control plane
//! (`ctrl.rs`), the counters and every [`crate::Packet`] read it; nothing
//! a packet executes lives here.
//!
//! Invariants:
//! - Header-namespace and metadata-namespace paths are distinct slots even
//!   when their canonical spelling collides (an action parameter `x` and a
//!   header field `x` must not alias): paths are interned under a
//!   one-character namespace prefix.
//! - Registers and table states are global **by name**, exactly as the
//!   interpreter's `HashMap<String, _>`s are: the last same-named
//!   definition sets a register's size and a table's `const entries`; the
//!   first one gives the control plane its key arity and action scope.
//! - Only `<name>_t` header types give an instance a wire layout, and the
//!   first definition of a type wins (`Iterator::find` in the interpreter);
//!   an instance without one is a lazily-raised unknown header.

use std::collections::HashMap;
use std::sync::Arc;

use netcl_p4::ast::{HeaderDef, Name, P4Program, RegisterDef, TableDef, TableEntry};
use netcl_util::define_index;
use netcl_util::idx::{Idx, IndexVec};
use netcl_util::intern::{Interner, Symbol};

define_index!(FieldSlot, "fs");
define_index!(HeaderId, "hdr");

/// Dense slot assignment for every field/metadata path and header instance
/// a program can touch. Shared (via `Arc`) between the switch's `Layout`
/// and every [`crate::Packet`] flowing through it.
#[derive(Debug, Default)]
pub struct SlotTable {
    /// `"h:<path>"` / `"m:<path>"` → [`FieldSlot`].
    paths: Interner,
    /// Header instance names (`ncl`, `args_c1`, ...).
    instances: Interner,
    /// Per-instance deparse/extract plan: `(slot, bits)` in wire order with
    /// stacks flattened. `None` = no `<name>_t` header type exists, which
    /// the interpreter reports as an unknown header if it ever deparses.
    layouts: IndexVec<HeaderId, Option<Vec<(FieldSlot, u32)>>>,
    /// The prefixed spelling of the path being interned, reused: the
    /// lowering interns a path per field reference, nearly all seen before.
    key: String,
}

impl SlotTable {
    /// Number of field slots (the size of a packet's value store).
    pub(crate) fn n_slots(&self) -> usize {
        self.paths.len()
    }

    /// Number of header instances (the size of a packet's validity bitset).
    pub(crate) fn n_instances(&self) -> usize {
        self.instances.len()
    }

    /// Looks up a header-namespace path without interning.
    pub(crate) fn header_slot(&self, path: &str) -> Option<FieldSlot> {
        self.lookup('h', path)
    }

    /// Looks up a metadata-namespace path without interning.
    pub(crate) fn meta_slot(&self, path: &str) -> Option<FieldSlot> {
        self.lookup('m', path)
    }

    /// Looks up a header instance without interning.
    pub(crate) fn instance_id(&self, name: &str) -> Option<HeaderId> {
        self.instances.get(name).map(|s| HeaderId(s.0))
    }

    /// The name of an interned instance (`None` for dynamic ids a packet
    /// allocated beyond this table).
    pub(crate) fn instance_name(&self, id: HeaderId) -> Option<&str> {
        if id.index() < self.instances.len() {
            Some(self.instances.resolve(Symbol(id.0)))
        } else {
            None
        }
    }

    /// The deparse plan for an instance, if a header type defines one.
    pub(crate) fn layout(&self, id: HeaderId) -> Option<&[(FieldSlot, u32)]> {
        self.layouts.get(id).and_then(|o| o.as_deref())
    }

    fn lookup(&self, ns: char, path: &str) -> Option<FieldSlot> {
        self.paths.get(&format!("{ns}:{path}")).map(|s| FieldSlot(s.0))
    }

    pub(crate) fn intern_slot(&mut self, ns: char, path: &str) -> FieldSlot {
        self.key.clear();
        self.key.extend([ns, ':']);
        self.key.push_str(path);
        FieldSlot(self.paths.intern(&self.key).0)
    }

    pub(crate) fn intern_instance(&mut self, name: &str) -> HeaderId {
        let id = HeaderId(self.instances.intern(name).0);
        while self.layouts.len() <= id.index() {
            self.layouts.push(None);
        }
        id
    }

    /// Interns every `*_t` header's instance and its per-field slots, in
    /// wire order with stacks flattened.
    fn with_header_plans(headers: &[HeaderDef]) -> SlotTable {
        let mut slots = SlotTable::default();
        for h in headers {
            let Some(instance) = h.name.strip_suffix("_t") else { continue };
            let id = slots.intern_instance(instance);
            if slots.layouts[id].is_some() {
                continue;
            }
            let mut plan = Vec::with_capacity(h.fields.len() * h.stack as usize);
            for i in 0..h.stack {
                for (f, w) in &h.fields {
                    plan.push((slots.intern_slot('h', &field_path(instance, h.stack, i, f)), *w));
                }
            }
            slots.layouts[id] = Some(plan);
        }
        slots
    }
}

/// `inst.f`, or `inst[i].f` for a header stack — the code generator's
/// canonical spelling.
fn field_path(instance: &str, stack: u32, i: u32, field: &str) -> String {
    if stack > 1 {
        format!("{instance}[{i}].{field}")
    } else {
        format!("{instance}.{field}")
    }
}

/// A register's global identity: name + element count.
#[derive(Debug)]
pub(crate) struct RegState {
    pub(crate) name: Name,
    pub(crate) size: usize,
}

/// One table state (keyed by name): what the runtime entry store is seeded
/// with and what an update to it is validated against.
#[derive(Debug)]
pub(crate) struct TableState {
    pub(crate) name: String,
    /// `const entries` seed.
    pub(crate) entries: Vec<TableEntry>,
    /// Key arity of the defining table.
    pub(crate) n_keys: usize,
    /// The defining control's action scope (name → action id), shared with
    /// that control's lowered tables: runtime entries carry action names.
    pub(crate) actions: Arc<HashMap<String, u32>>,
}

/// Everything about a loaded program that is not executed (module docs).
#[derive(Debug)]
pub(crate) struct Layout {
    /// The slot table (shared with packets).
    pub(crate) slots: Arc<SlotTable>,
    /// Canonical path → declared width (locals first, headers overwrite);
    /// an absent path is 32 bits wide ([`Layout::width_of`]).
    field_widths: HashMap<Name, u32>,
    pub(crate) regs: Vec<RegState>,
    /// Register name → index into `regs` and the runtime cells.
    pub(crate) reg_index: HashMap<Name, u32>,
    pub(crate) table_states: Vec<TableState>,
    /// Table name → index into `table_states`, the runtime entry stores
    /// and the hit/miss counters.
    pub(crate) table_index: HashMap<String, u32>,
}

impl Layout {
    /// Widths and header plans; registers and tables are declared by the
    /// lowering as it walks the controls.
    pub(crate) fn new(program: &P4Program) -> Layout {
        let mut field_widths = HashMap::new();
        for c in program.controls.iter() {
            for (n, w) in &c.locals {
                field_widths.insert(n.clone(), *w);
            }
        }
        for h in program.headers.iter() {
            let instance = h.name.strip_suffix("_t").unwrap_or(&h.name);
            for (f, w) in &h.fields {
                for i in 0..h.stack.max(1) {
                    field_widths.insert(field_path(instance, h.stack, i, f).into(), *w);
                }
            }
        }
        Layout {
            slots: Arc::new(SlotTable::with_header_plans(&program.headers)),
            field_widths,
            regs: Vec::new(),
            reg_index: HashMap::new(),
            table_states: Vec::new(),
            table_index: HashMap::new(),
        }
    }

    /// The declared width of a canonical path (32 when undeclared).
    pub(crate) fn width_of(&self, path: &str) -> u32 {
        self.field_widths.get(path).copied().unwrap_or(32)
    }

    /// The slot table while the lowering is still interning into it.
    pub(crate) fn slots_mut(&mut self) -> &mut SlotTable {
        Arc::get_mut(&mut self.slots).expect("no packet exists before the switch is built")
    }

    pub(crate) fn declare_register(&mut self, r: &RegisterDef) {
        match self.reg_index.get(&r.name) {
            Some(&i) => self.regs[i as usize].size = r.size as usize,
            None => {
                self.reg_index.insert(r.name.clone(), self.regs.len() as u32);
                self.regs.push(RegState { name: r.name.clone(), size: r.size as usize });
            }
        }
    }

    /// Declares one table definition under `actions`, its control's action
    /// scope; returns the state index its lowered form applies against.
    pub(crate) fn declare_table(
        &mut self,
        t: &TableDef,
        actions: &Arc<HashMap<String, u32>>,
    ) -> usize {
        match self.table_index.get(&t.name) {
            Some(&i) => {
                self.table_states[i as usize].entries = t.entries.clone();
                i as usize
            }
            None => {
                let i = self.table_states.len();
                self.table_index.insert(t.name.clone(), i as u32);
                self.table_states.push(TableState {
                    name: t.name.clone(),
                    entries: t.entries.clone(),
                    n_keys: t.keys.len(),
                    actions: Arc::clone(actions),
                });
                i
            }
        }
    }
}
