//! Host-side `_managed_` memory access (§V-B).
//!
//! `ncl::managed_read` / `ncl::managed_write` address device memory by its
//! *source-level* name and indices; the compiler may have partitioned the
//! array across registers (§VI-B), so the resolver consults the compiled
//! module's origin metadata to find the physical register and flat element
//! index. Lookup-table updates fan out to every MAT materialized for the
//! table (one per access site) as **one** atomic
//! [`TableUpdate`] batch: the crate-private `lookup_batch` is the only
//! place that fan-out and the entries' action are resolved, and it serves
//! [`ManagedMemory::lookup_insert`] and every
//! [`crate::control::ControlPlane`] builder alike.
//!
//! All operations run through the device's control plane — the switch's
//! `register_read`/`register_write` and its validated, counted
//! `apply_update` — making them the reliable slow path the paper
//! prescribes for "kernel configurations, resets, checkpointing, and so
//! on".

use netcl_bmv2::{Switch, TableUpdate};
use netcl_ir::Module;
use netcl_p4::ast::{EntryKey, TableEntry};
use netcl_sema::model::LookupEntry;
use std::collections::HashMap;

/// Managed-memory access errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagedError {
    /// No global with that name (or it is not `_managed_`).
    UnknownMemory(String),
    /// Index count or range mismatch.
    BadIndex(String),
}

impl std::fmt::Display for ManagedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagedError::UnknownMemory(n) => write!(f, "unknown managed memory `{n}`"),
            ManagedError::BadIndex(m) => write!(f, "bad index: {m}"),
        }
    }
}

#[derive(Debug, Clone)]
struct MemInfo {
    /// Non-partitioned register (name, dims), or per-outer-index partitions.
    kind: MemKind,
    managed: bool,
    lookup: bool,
}

#[derive(Debug, Clone)]
enum MemKind {
    Plain { register: String, dims: Vec<usize> },
    Partitioned { parts: Vec<(String, Vec<usize>)> },
}

/// Resolver from source names to physical device state.
#[derive(Debug, Clone)]
pub struct ManagedMemory {
    mems: HashMap<String, MemInfo>,
}

impl ManagedMemory {
    /// Builds the resolver from a compiled device module.
    pub fn new(module: &Module) -> ManagedMemory {
        let mut mems: HashMap<String, MemInfo> = HashMap::new();
        for g in &module.globals {
            match &g.origin {
                Some((base, idx)) if *idx == usize::MAX => {
                    // Partition husk: establishes the base name.
                    mems.entry(base.clone()).or_insert(MemInfo {
                        kind: MemKind::Partitioned { parts: Vec::new() },
                        managed: g.managed,
                        lookup: g.lookup,
                    });
                }
                Some((base, idx)) => {
                    let info = mems.entry(base.clone()).or_insert(MemInfo {
                        kind: MemKind::Partitioned { parts: Vec::new() },
                        managed: g.managed,
                        lookup: g.lookup,
                    });
                    if let MemKind::Partitioned { parts } = &mut info.kind {
                        while parts.len() <= *idx {
                            parts.push((String::new(), vec![]));
                        }
                        parts[*idx] = (g.name.clone(), g.dims.clone());
                    }
                    info.managed |= g.managed;
                }
                None => {
                    mems.insert(
                        g.name.clone(),
                        MemInfo {
                            kind: MemKind::Plain { register: g.name.clone(), dims: g.dims.clone() },
                            managed: g.managed,
                            lookup: g.lookup,
                        },
                    );
                }
            }
        }
        ManagedMemory { mems }
    }

    /// Resolves `(name, indices)` → `(register, flat index)`.
    pub fn resolve(&self, name: &str, indices: &[usize]) -> Result<(String, usize), ManagedError> {
        let info =
            self.mems.get(name).ok_or_else(|| ManagedError::UnknownMemory(name.to_string()))?;
        match &info.kind {
            MemKind::Plain { register, dims } => Ok((register.clone(), flatten(dims, indices)?)),
            MemKind::Partitioned { parts } => {
                let Some((&outer, rest)) = indices.split_first() else {
                    return Err(ManagedError::BadIndex(
                        "partitioned memory needs an outer index".into(),
                    ));
                };
                let (reg, dims) = parts
                    .get(outer)
                    .filter(|(n, _)| !n.is_empty())
                    .ok_or_else(|| ManagedError::BadIndex(format!("outer index {outer}")))?;
                Ok((reg.clone(), flatten(dims, rest)?))
            }
        }
    }

    /// `ncl::managed_write(conn, &name[indices], value)`.
    pub fn write(
        &self,
        sw: &mut Switch,
        name: &str,
        indices: &[usize],
        value: u64,
    ) -> Result<(), ManagedError> {
        self.check_managed(name)?;
        let (reg, idx) = self.resolve(name, indices)?;
        if sw.register_write(&reg, idx, value) {
            Ok(())
        } else {
            Err(ManagedError::BadIndex(format!("{name}{indices:?}")))
        }
    }

    /// `ncl::managed_read(conn, &name[indices], &out)`.
    pub fn read(&self, sw: &Switch, name: &str, indices: &[usize]) -> Result<u64, ManagedError> {
        self.check_managed(name)?;
        let (reg, idx) = self.resolve(name, indices)?;
        sw.register_read(&reg, idx)
            .ok_or_else(|| ManagedError::BadIndex(format!("{name}{indices:?}")))
    }

    fn check_managed(&self, name: &str) -> Result<(), ManagedError> {
        match self.mems.get(name) {
            Some(info) if info.managed => Ok(()),
            _ => Err(ManagedError::UnknownMemory(name.to_string())),
        }
    }

    /// Inserts an entry into a `_managed_ _lookup_` table: one atomic,
    /// validated batch over all MATs materialized for it, so either every
    /// access site serves the key afterwards or none does.
    pub fn lookup_insert(
        &self,
        sw: &mut Switch,
        name: &str,
        entry: LookupEntry,
    ) -> Result<(), ManagedError> {
        let batch = self
            .lookup_batch(sw, name, |u, t, action| u.insert(t, to_table_entry(&entry, action)))?;
        sw.apply_update(&batch)
            .map(drop)
            .map_err(|e| ManagedError::UnknownMemory(format!("{name} ({e})")))
    }

    /// Builds one batch covering every MAT of the managed lookup `name`:
    /// `op` appends a MAT's operation given the table and the action its
    /// entries invoke (the first the table declares). A table declaring no
    /// action yields `""`, which `apply_update` rejects as unknown.
    pub(crate) fn lookup_batch(
        &self,
        sw: &Switch,
        name: &str,
        mut op: impl FnMut(TableUpdate, String, &str) -> TableUpdate,
    ) -> Result<TableUpdate, ManagedError> {
        let mut update = TableUpdate::new();
        for t in self.lookup_tables(sw, name)? {
            let action = sw
                .program()
                .controls
                .iter()
                .find_map(|c| c.table(&t).and_then(|td| td.actions.first().cloned()))
                .unwrap_or_default();
            update = op(update, t, &action);
        }
        Ok(update)
    }

    /// The match-action tables materialized for a managed lookup (one per
    /// access site — the `name`, `name__dup1`, ... fan-out that an atomic
    /// [`crate::control::ControlPlane`] batch must update together).
    pub fn lookup_tables(&self, sw: &Switch, name: &str) -> Result<Vec<String>, ManagedError> {
        let info =
            self.mems.get(name).ok_or_else(|| ManagedError::UnknownMemory(name.to_string()))?;
        if !info.lookup || !info.managed {
            return Err(ManagedError::UnknownMemory(format!("{name} (not managed lookup)")));
        }
        let sanitized: String =
            name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        let tables = sw.tables_with_prefix(&format!("lu_{sanitized}_"));
        if tables.is_empty() {
            return Err(ManagedError::UnknownMemory(format!("{name} (no MATs)")));
        }
        Ok(tables)
    }
}

fn flatten(dims: &[usize], indices: &[usize]) -> Result<usize, ManagedError> {
    if dims.len() != indices.len() {
        return Err(ManagedError::BadIndex(format!(
            "{} indices for {} dimensions",
            indices.len(),
            dims.len()
        )));
    }
    let mut flat = 0usize;
    for (d, i) in dims.iter().zip(indices) {
        if i >= d {
            return Err(ManagedError::BadIndex(format!("index {i} ≥ dim {d}")));
        }
        flat = flat * d + i;
    }
    Ok(flat)
}

/// The table entry a source-level lookup entry becomes, invoking `action`.
pub(crate) fn to_table_entry(e: &LookupEntry, action: &str) -> TableEntry {
    match *e {
        LookupEntry::Member { key } => TableEntry {
            keys: vec![EntryKey::Value(key)],
            action: action.to_string(),
            args: vec![],
        },
        LookupEntry::Exact { key, value } => TableEntry {
            keys: vec![EntryKey::Value(key)],
            action: action.to_string(),
            args: vec![value],
        },
        LookupEntry::Range { lo, hi, value } => TableEntry {
            keys: vec![EntryKey::Range(lo, hi)],
            action: action.to_string(),
            args: vec![value],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{pack, unpack, Message};

    const SRC: &str = r#"
_managed_ unsigned thresh;
_managed_ unsigned counts[2][64];
_managed_ _lookup_ ncl::kv<unsigned, unsigned> cache[8] = {{1, 42}};
_kernel(1) _at(1) void k(unsigned key, unsigned &v, char &hit, unsigned &t) {
  hit = ncl::lookup(cache, key, v);
  t = thresh;
  ncl::atomic_add(&counts[0][key & 63], 1);
  ncl::atomic_add(&counts[1][key & 63], 1);
}
"#;

    fn compiled() -> (netcl::CompiledUnit, Switch, ManagedMemory) {
        let unit =
            netcl::Compiler::new(netcl::CompileOptions::default()).compile("m.ncl", SRC).unwrap();
        let sw = Switch::new(unit.devices[0].tna_p4.clone());
        let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
        (unit, sw, mm)
    }

    fn run_key(unit: &netcl::CompiledUnit, sw: &mut Switch, key: u64) -> (u64, u64, u64) {
        let spec = unit.model.kernels[0].specification();
        let m = Message::new(1, 2, 1, 1);
        let packed = pack(&m, &spec, &[Some(&[key]), None, None, None]).unwrap();
        let (_, out) = sw.process(&packed).unwrap();
        let mut v = Vec::new();
        let mut hit = Vec::new();
        let mut t = Vec::new();
        unpack(&out, &spec, &mut [None, Some(&mut v), Some(&mut hit), Some(&mut t)]).unwrap();
        (v[0], hit[0], t[0])
    }

    #[test]
    fn managed_scalar_write_visible_to_kernel() {
        let (unit, mut sw, mm) = compiled();
        let (_, _, t0) = run_key(&unit, &mut sw, 5);
        assert_eq!(t0, 0, "zero-initialized");
        mm.write(&mut sw, "thresh", &[], 512).unwrap();
        let (_, _, t1) = run_key(&unit, &mut sw, 5);
        assert_eq!(t1, 512);
        assert_eq!(mm.read(&sw, "thresh", &[]).unwrap(), 512);
    }

    #[test]
    fn partitioned_array_resolution() {
        let (unit, mut sw, mm) = compiled();
        // counts[2][64] is partitioned (both outer indices constant).
        run_key(&unit, &mut sw, 3);
        run_key(&unit, &mut sw, 3);
        assert_eq!(mm.read(&sw, "counts", &[0, 3]).unwrap(), 2);
        assert_eq!(mm.read(&sw, "counts", &[1, 3]).unwrap(), 2);
        assert_eq!(mm.read(&sw, "counts", &[0, 4]).unwrap(), 0);
        mm.write(&mut sw, "counts", &[1, 7], 99).unwrap();
        assert_eq!(mm.read(&sw, "counts", &[1, 7]).unwrap(), 99);
        // Bad indices rejected.
        assert!(mm.read(&sw, "counts", &[2, 0]).is_err());
        assert!(mm.read(&sw, "counts", &[0]).is_err());
    }

    /// A lookup read at two (mutually exclusive) sites materializes two
    /// MATs; one `lookup_insert` reaches both through one counted
    /// `apply_update` batch (NetCache-style population from the host).
    #[test]
    fn lookup_insert_is_one_counted_batch_over_every_mat() {
        const TWO_SITES: &str = r#"
_managed_ _lookup_ ncl::kv<unsigned, unsigned> cache[8] = {{1, 42}};
_kernel(1) _at(1) void k(unsigned key, char site, unsigned &v, char &hit) {
  if (site == 0) hit = ncl::lookup(cache, key, v);
  else hit = ncl::lookup(cache, key + 1, v);
}
"#;
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("two.ncl", TWO_SITES)
            .unwrap();
        let spec = unit.model.kernels[0].specification();
        let mut sw = Switch::new(unit.devices[0].tna_p4.clone());
        let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
        let mats = mm.lookup_tables(&sw, "cache").unwrap().len();
        assert_eq!(mats, 2, "one MAT per access site");
        let ask = |sw: &mut Switch, key: u64, site: u64| {
            let m = Message::new(1, 2, 1, 1);
            let packed = pack(&m, &spec, &[Some(&[key]), Some(&[site]), None, None]).unwrap();
            let (_, out) = sw.process(&packed).unwrap();
            let (mut v, mut hit) = (Vec::new(), Vec::new());
            unpack(&out, &spec, &mut [None, None, Some(&mut v), Some(&mut hit)]).unwrap();
            (v[0], hit[0])
        };
        assert_eq!(ask(&mut sw, 1, 0), (42, 1), "static entry");
        assert_eq!(ask(&mut sw, 9, 0).1, 0);
        assert_eq!(ask(&mut sw, 8, 1).1, 0);

        mm.lookup_insert(&mut sw, "cache", LookupEntry::Exact { key: 9, value: 77 }).unwrap();
        assert_eq!(sw.counters().table_updates, mats as u64, "one counted op per MAT");
        assert_eq!(sw.counters().update_rejects, 0);
        assert_eq!(ask(&mut sw, 9, 0), (77, 1), "the first site serves the new key");
        assert_eq!(ask(&mut sw, 8, 1), (77, 1), "and so does the second");
    }

    #[test]
    fn non_managed_rejected() {
        let src = "_net_ unsigned secret[4];\n_kernel(1) void k(unsigned x) { ncl::atomic_add(&secret[0], x); }";
        let unit =
            netcl::Compiler::new(netcl::CompileOptions::default()).compile("t.ncl", src).unwrap();
        let mut sw = Switch::new(unit.devices[0].tna_p4.clone());
        let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
        assert!(matches!(
            mm.write(&mut sw, "secret", &[0], 1),
            Err(ManagedError::UnknownMemory(_))
        ));
    }
}
