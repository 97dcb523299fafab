//! The control surface of a running switch: validated, atomic table-update
//! batches and register access.
//!
//! Invariants:
//! - [`Switch::apply_update`] is the only way a table changes after load:
//!   there is no per-entry mutator to bypass its validation, atomicity or
//!   counting.
//! - A batch that fails validation changes nothing.
//!
//! Production switches change match-action rules constantly; reloading the
//! program to do it wipes every register and table (exactly what a device
//! restart does in the chaos harness). This module is the data-plane half
//! of the control plane in DESIGN.md §16: a [`TableUpdate`] is a batch of
//! add/modify/delete/replace operations that [`Switch::apply_update`]
//! applies *atomically* — the whole batch is validated against the
//! program's layout first (table exists, key arity matches, action known)
//! and either every operation lands or none does.
//!
//! Updates mutate the runtime table state that both execution engines
//! share, so a live update is engine-uniform by construction; the
//! differential tests still assert it, through the applied/rejected
//! counters ([`SwitchCounters::table_updates`] /
//! [`SwitchCounters::update_rejects`]) and packet-level equivalence under
//! the chaos matrix.
//!
//! [`SwitchCounters::table_updates`]: crate::SwitchCounters::table_updates
//! [`SwitchCounters::update_rejects`]: crate::SwitchCounters::update_rejects

use crate::layout::TableState;
use crate::switch::Switch;
use netcl_p4::ast::{EntryKey, TableEntry};

/// One table mutation inside a [`TableUpdate`] batch.
#[derive(Debug, Clone, PartialEq)]
pub enum TableOp {
    /// Appends an entry (lowest priority: first-entry-wins matching).
    Insert {
        /// Target table name (post-lowering, e.g. `lu_cache_0`).
        table: String,
        /// The new entry.
        entry: TableEntry,
    },
    /// Upserts: removes every entry whose keys equal `entry.keys`, then
    /// appends `entry`.
    Modify {
        /// Target table name.
        table: String,
        /// The replacement entry.
        entry: TableEntry,
    },
    /// Removes every entry whose keys equal `key`.
    Delete {
        /// Target table name.
        table: String,
        /// The key cells to match exactly.
        key: Vec<EntryKey>,
    },
    /// Replaces the table's contents wholesale.
    Set {
        /// Target table name.
        table: String,
        /// The new entry list.
        entries: Vec<TableEntry>,
    },
}

impl TableOp {
    /// The table this operation targets.
    pub fn table(&self) -> &str {
        match self {
            TableOp::Insert { table, .. }
            | TableOp::Modify { table, .. }
            | TableOp::Delete { table, .. }
            | TableOp::Set { table, .. } => table,
        }
    }
}

/// A batch of table operations applied atomically by
/// [`Switch::apply_update`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableUpdate {
    /// Operations, applied in order.
    pub ops: Vec<TableOp>,
}

impl TableUpdate {
    /// An empty batch.
    pub fn new() -> TableUpdate {
        TableUpdate::default()
    }

    /// Adds an insert.
    pub fn insert(mut self, table: impl Into<String>, entry: TableEntry) -> Self {
        self.ops.push(TableOp::Insert { table: table.into(), entry });
        self
    }

    /// Adds an upsert.
    pub fn modify(mut self, table: impl Into<String>, entry: TableEntry) -> Self {
        self.ops.push(TableOp::Modify { table: table.into(), entry });
        self
    }

    /// Adds a delete-by-key.
    pub fn delete(mut self, table: impl Into<String>, key: Vec<EntryKey>) -> Self {
        self.ops.push(TableOp::Delete { table: table.into(), key });
        self
    }

    /// Adds a wholesale replacement.
    pub fn set(mut self, table: impl Into<String>, entries: Vec<TableEntry>) -> Self {
        self.ops.push(TableOp::Set { table: table.into(), entries });
        self
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Why a whole [`TableUpdate`] batch was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// No table with that name in the loaded program.
    UnknownTable(String),
    /// An entry's key-cell count does not match the table's key count.
    KeyArity {
        /// The table.
        table: String,
        /// Keys the table matches on.
        expected: usize,
        /// Keys the entry carried.
        got: usize,
    },
    /// An entry names an action the owning control does not define.
    UnknownAction {
        /// The table.
        table: String,
        /// The unresolvable action name.
        action: String,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            UpdateError::KeyArity { table, expected, got } => {
                write!(f, "table `{table}` matches {expected} key(s), entry has {got}")
            }
            UpdateError::UnknownAction { table, action } => {
                write!(f, "table `{table}` has no action `{action}`")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

impl Switch {
    /// Applies a [`TableUpdate`] batch atomically.
    ///
    /// The whole batch is validated first — every op's table must exist,
    /// every entry's key arity must match the table's key count,
    /// and every entry's action must be resolvable in the owning control —
    /// and only then applied, in order. A failed validation applies
    /// *nothing*, bumps [`SwitchCounters::update_rejects`] by one, and
    /// returns the first error. Success bumps
    /// [`SwitchCounters::table_updates`] by the number of operations and
    /// returns that count.
    ///
    /// [`SwitchCounters::update_rejects`]: crate::SwitchCounters::update_rejects
    /// [`SwitchCounters::table_updates`]: crate::SwitchCounters::table_updates
    ///
    /// All engines share one table store, so an applied update is visible
    /// to whichever engine processes the next packet (DESIGN.md §16).
    pub fn apply_update(&mut self, update: &TableUpdate) -> Result<usize, UpdateError> {
        if let Err(e) = self.validate_update(update) {
            self.st.counters.update_rejects += 1;
            return Err(e);
        }
        for op in &update.ops {
            // Validation resolved every table name, so indexing cannot miss.
            let entries = &mut self.st.tables[self.loaded.layout.table_index[op.table()] as usize];
            match op {
                TableOp::Insert { entry, .. } => entries.push(entry.clone()),
                TableOp::Modify { entry, .. } => {
                    entries.retain(|e| e.keys != entry.keys);
                    entries.push(entry.clone());
                }
                TableOp::Delete { key, .. } => entries.retain(|e| e.keys != *key),
                TableOp::Set { entries: rows, .. } => *entries = rows.clone(),
            }
        }
        self.st.counters.table_updates += update.ops.len() as u64;
        Ok(update.ops.len())
    }

    /// Validates a batch without applying it (the check
    /// [`Switch::apply_update`] runs before touching any state).
    pub(crate) fn validate_update(&self, update: &TableUpdate) -> Result<(), UpdateError> {
        for op in &update.ops {
            let table = op.table();
            let Some(&state) = self.loaded.layout.table_index.get(table) else {
                return Err(UpdateError::UnknownTable(table.to_string()));
            };
            // The table's first definition gives the key arity and the
            // action scope; every definition of one state agrees on both.
            let site = &self.loaded.layout.table_states[state as usize];
            match op {
                TableOp::Insert { entry, .. } | TableOp::Modify { entry, .. } => {
                    validate_entry(entry, site)?;
                }
                TableOp::Delete { key, .. } => {
                    if key.len() != site.n_keys {
                        return Err(UpdateError::KeyArity {
                            table: table.to_string(),
                            expected: site.n_keys,
                            got: key.len(),
                        });
                    }
                }
                TableOp::Set { entries, .. } => {
                    for entry in entries {
                        validate_entry(entry, site)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Register access and table contents (back `_managed_` memory, §V-B).
impl Switch {
    /// Reads one register element.
    pub fn register_read(&self, name: &str, index: usize) -> Option<u64> {
        let i = *self.loaded.layout.reg_index.get(name)?;
        self.st.registers[i as usize].get(index).copied()
    }

    /// Writes one register element.
    pub fn register_write(&mut self, name: &str, index: usize, value: u64) -> bool {
        let Some(&i) = self.loaded.layout.reg_index.get(name) else { return false };
        match self.st.registers[i as usize].get_mut(index) {
            Some(cell) => {
                *cell = value;
                true
            }
            None => false,
        }
    }

    /// All registers with their current contents (diagnostics and
    /// differential tests).
    pub fn registers(&self) -> impl Iterator<Item = (&str, &[u64])> {
        self.loaded
            .layout
            .regs
            .iter()
            .zip(&self.st.registers)
            .map(|(r, cells)| (r.name.as_str(), cells.as_slice()))
    }

    /// A table's current entries, in match order.
    pub fn table_entries(&self, table: &str) -> Option<&[TableEntry]> {
        let &i = self.loaded.layout.table_index.get(table)?;
        Some(&self.st.tables[i as usize])
    }
}

fn validate_entry(entry: &TableEntry, site: &TableState) -> Result<(), UpdateError> {
    if entry.keys.len() != site.n_keys {
        return Err(UpdateError::KeyArity {
            table: site.name.clone(),
            expected: site.n_keys,
            got: entry.keys.len(),
        });
    }
    if !site.actions.contains_key(&entry.action) {
        return Err(UpdateError::UnknownAction {
            table: site.name.clone(),
            action: entry.action.clone(),
        });
    }
    Ok(())
}
