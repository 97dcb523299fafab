//! Host-side `_managed_` state (§V-B): the one handle through which a host
//! reads and writes a device's registers and updates its `_lookup_` tables
//! (DESIGN.md §16).
//!
//! `ncl::managed_read` / `ncl::managed_write` address device memory by its
//! *source-level* name and indices; the compiler may have partitioned the
//! array across registers (§VI-B), so the resolver consults the compiled
//! module's origin metadata to find the physical register and flat element
//! index.
//!
//! A `_managed_ _lookup_` table changes only as a built [`TableUpdate`]
//! batch covering every match-action table the compiler materialized for
//! it — `lu_<name>_<site>`, one per access site, which must change together
//! or a packet between the partial writes observes a torn update. The
//! caller applies the batch with [`Switch::apply_update`], which validates
//! it whole (all MATs update, or none do), or schedules it against a
//! running simulation (`Network::schedule_update`). Unlike a program
//! reload, an applied batch touches only its tables: registers and the
//! other tables keep their live contents, on both execution engines.
//!
//! A handle built with [`ManagedMemory::for_tenant`] is scoped to one tenant
//! of a merged module (DESIGN.md §17). Every name it is given — register or
//! table — passes one scoping step first: a bare name resolves inside the
//! tenant's `t<id>__` namespace, and another tenant's name is refused
//! before anything touches the switch.

use netcl_bmv2::{Switch, TableUpdate, UpdateError};
use netcl_ir::Module;
use netcl_p4::ast::{EntryKey, TableEntry};
use netcl_sema::model::LookupEntry;
use netcl_util::tenant;
use std::borrow::Cow;
use std::collections::HashMap;

/// Why a managed-state call was refused. Nothing reached the switch, except
/// for [`ManagedError::Update`], a batch the switch rejected whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagedError {
    /// No `_managed_` global with that name — or, for a table batch, no
    /// `_managed_ _lookup_` one.
    UnknownMemory(String),
    /// Index count or range mismatch.
    BadIndex(String),
    /// A tenant-scoped handle was given another tenant's name.
    CrossTenant {
        /// The tenant the handle is scoped to.
        tenant: u16,
        /// The refused name.
        name: String,
    },
    /// The switch rejected a built batch; nothing was applied.
    Update(UpdateError),
}

impl std::fmt::Display for ManagedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagedError::UnknownMemory(n) => write!(f, "unknown managed memory `{n}`"),
            ManagedError::BadIndex(m) => write!(f, "bad index: {m}"),
            ManagedError::CrossTenant { tenant, name } => {
                write!(f, "`{name}` is outside tenant {tenant}'s namespace")
            }
            ManagedError::Update(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ManagedError {}

impl From<UpdateError> for ManagedError {
    fn from(e: UpdateError) -> Self {
        ManagedError::Update(e)
    }
}

#[derive(Debug, Clone)]
struct MemInfo {
    /// Non-partitioned register (name, dims), or per-outer-index partitions.
    kind: MemKind,
    lookup: bool,
}

#[derive(Debug, Clone)]
enum MemKind {
    Plain { register: String, dims: Vec<usize> },
    Partitioned { parts: Vec<(String, Vec<usize>)> },
}

/// The handle on one device's `_managed_` state: resolves source names to
/// physical registers and lookup MATs. It lives as long as the program,
/// across any number of updates and device restarts.
#[derive(Debug, Clone)]
pub struct ManagedMemory {
    mems: HashMap<String, MemInfo>,
    tenant: Option<u16>,
}

impl ManagedMemory {
    /// The operator's handle on a compiled device module: unscoped, every
    /// name reaches the global it spells.
    pub fn new(module: &Module) -> ManagedMemory {
        let mut mems: HashMap<String, MemInfo> = HashMap::new();
        for g in module.globals.iter().filter(|g| g.managed) {
            let Some((base, idx)) = &g.origin else {
                let kind = MemKind::Plain { register: g.name.clone(), dims: g.dims.clone() };
                mems.insert(g.name.clone(), MemInfo { kind, lookup: g.lookup });
                continue;
            };
            // A partition husk (`usize::MAX`) comes first and establishes
            // the base name; each part fills its outer index.
            let info = mems.entry(base.clone()).or_insert(MemInfo {
                kind: MemKind::Partitioned { parts: Vec::new() },
                lookup: g.lookup,
            });
            match &mut info.kind {
                MemKind::Partitioned { parts } if *idx != usize::MAX => {
                    if parts.len() <= *idx {
                        parts.resize(*idx + 1, (String::new(), vec![]));
                    }
                    parts[*idx] = (g.name.clone(), g.dims.clone());
                }
                _ => {}
            }
        }
        ManagedMemory { mems, tenant: None }
    }

    /// A handle **scoped to one tenant** of a merged module (DESIGN.md
    /// §17): `Val` means `t<tenant>__Val`, an already-namespaced name of
    /// the same tenant passes through, and another tenant's name — a
    /// register or a table — is refused with
    /// [`ManagedError::CrossTenant`].
    pub fn for_tenant(module: &Module, tenant: u16) -> ManagedMemory {
        ManagedMemory { tenant: Some(tenant), ..ManagedMemory::new(module) }
    }

    /// The one scoping step: the module-level name `name` means through
    /// this handle, and its managed state.
    fn find<'a>(&self, name: &'a str) -> Result<(Cow<'a, str>, &MemInfo), ManagedError> {
        let name = match (self.tenant, tenant::of(name)) {
            (None, _) => Cow::Borrowed(name),
            (Some(t), None) => Cow::Owned(tenant::apply(t, name)),
            (Some(t), Some(owner)) if owner == t => Cow::Borrowed(name),
            (Some(t), Some(_)) => {
                return Err(ManagedError::CrossTenant { tenant: t, name: name.to_string() })
            }
        };
        match self.mems.get(&*name) {
            Some(info) => Ok((name, info)),
            None => Err(ManagedError::UnknownMemory(name.into_owned())),
        }
    }

    /// Resolves `(name, indices)` → `(register, flat index)`.
    fn resolve(&self, name: &str, indices: &[usize]) -> Result<(&str, usize), ManagedError> {
        match &self.find(name)?.1.kind {
            MemKind::Plain { register, dims } => Ok((register, flatten(dims, indices)?)),
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
                Ok((reg, flatten(dims, rest)?))
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
        let (reg, idx) = self.resolve(name, indices)?;
        if sw.register_write(reg, idx, value) {
            Ok(())
        } else {
            Err(ManagedError::BadIndex(format!("{name}{indices:?}")))
        }
    }

    /// `ncl::managed_read(conn, &name[indices], &out)`.
    pub fn read(&self, sw: &Switch, name: &str, indices: &[usize]) -> Result<u64, ManagedError> {
        let (reg, idx) = self.resolve(name, indices)?;
        sw.register_read(reg, idx)
            .ok_or_else(|| ManagedError::BadIndex(format!("{name}{indices:?}")))
    }

    /// The atomic batch that inserts `entry` into every MAT of the managed
    /// lookup `name`.
    pub fn build_insert(
        &self,
        sw: &Switch,
        name: &str,
        entry: &LookupEntry,
    ) -> Result<TableUpdate, ManagedError> {
        self.build(sw, name, |u, t, action| u.insert(t, table_entry(entry, action)))
    }

    /// The batch that upserts `entry` (replaces any entry with the same
    /// key, in every MAT).
    pub fn build_modify(
        &self,
        sw: &Switch,
        name: &str,
        entry: &LookupEntry,
    ) -> Result<TableUpdate, ManagedError> {
        self.build(sw, name, |u, t, action| u.modify(t, table_entry(entry, action)))
    }

    /// The batch that removes `key` from every MAT.
    pub fn build_remove(
        &self,
        sw: &Switch,
        name: &str,
        key: u64,
    ) -> Result<TableUpdate, ManagedError> {
        self.build(sw, name, |u, t, _| u.delete(t, vec![EntryKey::Value(key)]))
    }

    /// One batch over every MAT of the managed lookup `name`: `op` appends
    /// a MAT's operation given the table and the action its entries invoke
    /// (the first the table declares; none yields `""`, which
    /// `apply_update` rejects as unknown). The switch only supplies the
    /// layout, so the batch applies to any instance of its program.
    fn build(
        &self,
        sw: &Switch,
        name: &str,
        mut op: impl FnMut(TableUpdate, String, &str) -> TableUpdate,
    ) -> Result<TableUpdate, ManagedError> {
        let (name, info) = self.find(name)?;
        if !info.lookup {
            return Err(ManagedError::UnknownMemory(format!("{name} (not a lookup)")));
        }
        let mut update = TableUpdate::new();
        for t in sw.program().controls.iter().flat_map(|c| &c.tables) {
            if is_mat_of(&t.name, &name) {
                update = op(update, t.name.clone(), t.actions.first().map_or("", String::as_str));
            }
        }
        if update.is_empty() {
            return Err(ManagedError::UnknownMemory(format!("{name} (no MATs)")));
        }
        Ok(update)
    }
}

/// Whether `table` is one of the MATs codegen materializes for the lookup
/// `name`: exactly `lu_<name>_<site>`, with `name` sanitized as codegen
/// sanitizes it — so `kv` does not claim `kv_hot`'s `lu_kv_hot_1`.
fn is_mat_of(table: &str, name: &str) -> bool {
    let sanitized = name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' });
    table.strip_prefix("lu_").and_then(|t| t.rsplit_once('_')).is_some_and(|(stem, site)| {
        !site.is_empty() && site.bytes().all(|b| b.is_ascii_digit()) && stem.chars().eq(sanitized)
    })
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
fn table_entry(e: &LookupEntry, action: &str) -> TableEntry {
    let (key, args) = match *e {
        LookupEntry::Member { key } => (EntryKey::Value(key), vec![]),
        LookupEntry::Exact { key, value } => (EntryKey::Value(key), vec![value]),
        LookupEntry::Range { lo, hi, value } => (EntryKey::Range(lo, hi), vec![value]),
    };
    TableEntry { keys: vec![key], action: action.to_string(), args }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{pack, unpack, Message};
    use netcl_bmv2::Engine;

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

    fn compile(name: &str, src: &str) -> netcl::CompiledUnit {
        netcl::Compiler::new(netcl::CompileOptions::default()).compile(name, src).unwrap()
    }

    fn compiled() -> (netcl::CompiledUnit, Switch, ManagedMemory) {
        let unit = compile("m.ncl", SRC);
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
    /// MATs; one built insert reaches both through one counted
    /// `apply_update` batch (NetCache-style population from the host).
    #[test]
    fn an_insert_is_one_counted_batch_over_every_mat() {
        const TWO_SITES: &str = r#"
_managed_ _lookup_ ncl::kv<unsigned, unsigned> cache[8] = {{1, 42}};
_kernel(1) _at(1) void k(unsigned key, char site, unsigned &v, char &hit) {
  if (site == 0) hit = ncl::lookup(cache, key, v);
  else hit = ncl::lookup(cache, key + 1, v);
}
"#;
        let unit = compile("two.ncl", TWO_SITES);
        let spec = unit.model.kernels[0].specification();
        let mut sw = Switch::new(unit.devices[0].tna_p4.clone());
        let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
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

        let batch = mm.build_insert(&sw, "cache", &LookupEntry::Exact { key: 9, value: 77 });
        let mats = sw.apply_update(&batch.unwrap()).unwrap();
        assert_eq!(mats, 2, "one MAT per access site");
        assert_eq!(sw.counters().table_updates, mats as u64, "one counted op per MAT");
        assert_eq!(sw.counters().update_rejects, 0);
        assert_eq!(ask(&mut sw, 9, 0), (77, 1), "the first site serves the new key");
        assert_eq!(ask(&mut sw, 8, 1), (77, 1), "and so does the second");
    }

    #[test]
    fn non_managed_rejected() {
        let src = "_net_ unsigned secret[4];\n_kernel(1) void k(unsigned x) { ncl::atomic_add(&secret[0], x); }";
        let unit = compile("t.ncl", src);
        let mut sw = Switch::new(unit.devices[0].tna_p4.clone());
        let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
        assert!(matches!(
            mm.write(&mut sw, "secret", &[0], 1),
            Err(ManagedError::UnknownMemory(_))
        ));
    }

    /// Live updates without a reload: registers keep their state while
    /// tables change, and the update counters reflect every applied op.
    #[test]
    fn live_update_preserves_managed_registers() {
        let (unit, mut sw, mm) = compiled();
        mm.write(&mut sw, "thresh", &[], 7).unwrap();
        let u = mm.build_insert(&sw, "cache", &LookupEntry::Exact { key: 9, value: 77 }).unwrap();
        let applied = sw.apply_update(&u).unwrap();
        assert!(applied >= 1);
        let (v, hit, t) = run_key(&unit, &mut sw, 9);
        assert_eq!((v, hit), (77, 1), "new rule is live");
        assert_eq!(t, 7, "register state survived the update");
        assert_eq!(sw.counters().table_updates, applied as u64);
        assert_eq!(sw.counters().update_rejects, 0);
    }

    /// Upsert replaces by key; remove evicts everywhere.
    #[test]
    fn modify_and_remove_roundtrip() {
        let (unit, mut sw, mm) = compiled();
        let u = mm.build_modify(&sw, "cache", &LookupEntry::Exact { key: 1, value: 100 }).unwrap();
        sw.apply_update(&u).unwrap();
        let (v, hit, _) = run_key(&unit, &mut sw, 1);
        assert_eq!((v, hit), (100, 1), "static entry replaced");
        sw.apply_update(&mm.build_remove(&sw, "cache", 1).unwrap()).unwrap();
        let (_, hit, _) = run_key(&unit, &mut sw, 1);
        assert_eq!(hit, 0);
    }

    /// A batch that fails validation applies nothing, counts a reject, and
    /// comes back as the switch's own `UpdateError`.
    #[test]
    fn rejected_batch_is_all_or_nothing() {
        let (unit, mut sw, mm) = compiled();
        let mut u =
            mm.build_insert(&sw, "cache", &LookupEntry::Exact { key: 5, value: 1 }).unwrap();
        // Poison the *last* op: the earlier valid ops must not apply.
        u = u.delete("no_such_table", vec![EntryKey::Value(0)]);
        let err = ManagedError::from(sw.apply_update(&u).unwrap_err());
        assert_eq!(err, ManagedError::Update(UpdateError::UnknownTable("no_such_table".into())));
        let (_, hit, _) = run_key(&unit, &mut sw, 5);
        assert_eq!(hit, 0, "valid prefix of a rejected batch must not land");
        assert_eq!(sw.counters().table_updates, 0);
        assert_eq!(sw.counters().update_rejects, 1);
    }

    /// The same update applied to each engine's switch yields identical
    /// outputs and counters — the differential contract covers live
    /// updates.
    #[test]
    fn update_is_engine_uniform() {
        let mut results = Vec::new();
        for engine in [Engine::Threaded, Engine::Interpreted] {
            let (unit, mut sw, mm) = compiled();
            sw.set_engine(engine);
            let u =
                mm.build_insert(&sw, "cache", &LookupEntry::Exact { key: 3, value: 33 }).unwrap();
            sw.apply_update(&u).unwrap();
            sw.apply_update(&mm.build_remove(&sw, "cache", 1).unwrap()).unwrap();
            let out = (run_key(&unit, &mut sw, 3), run_key(&unit, &mut sw, 1));
            results.push((out, sw.counters().clone()));
        }
        assert_eq!(results[0].0, results[1].0);
        assert_eq!(results[0].1, results[1].1, "counters differ threaded vs interpreted");
    }

    const TEN0: &str = r#"
_managed_ unsigned Acc[4];
_managed_ _lookup_ ncl::kv<unsigned, unsigned> kv[8] = {{1, 10}};
_kernel(1) _at(1) void a(unsigned k, unsigned &v, char &hit) {
  hit = ncl::lookup(kv, k, v);
  ncl::atomic_add(&Acc[k & 3], 1);
  if (hit) return ncl::reflect();
}
"#;
    const TEN1: &str = r#"
_managed_ unsigned Val[4];
_managed_ _lookup_ ncl::kv<unsigned, unsigned> kv[8] = {{1, 11}};
_managed_ _lookup_ ncl::kv<unsigned, unsigned> kv_hot[8];
_kernel(1) _at(1) void b(unsigned k, unsigned &v, char &hit, unsigned &w, char &hot) {
  hit = ncl::lookup(kv, k, v);
  hot = ncl::lookup(kv_hot, k, w);
  if (hit) return ncl::reflect();
  v = Val[k & 3];
}
"#;

    fn merged() -> netcl::MergedCompilation {
        let sources = [
            netcl::TenantSource { tenant: 0, name: "a.ncl", source: TEN0 },
            netcl::TenantSource { tenant: 1, name: "b.ncl", source: TEN1 },
        ];
        let options = netcl::CompileOptions::default();
        netcl::compile_tenants(&sources, 1, &options, &Default::default()).unwrap()
    }

    /// A tenant-scoped handle resolves bare names inside its namespace and
    /// refuses, before anything reaches the switch, another tenant's
    /// tables — while an unscoped handle on the same merged module keeps
    /// full reach.
    #[test]
    fn tenant_scoped_handle_isolates_tables() {
        let merged = merged();
        let mut sw = Switch::new(merged.merged.tna_p4.clone());
        let t1 = ManagedMemory::for_tenant(&merged.merged.tna_ir, 1);

        let u = t1.build_insert(&sw, "kv", &LookupEntry::Exact { key: 9, value: 99 }).unwrap();
        assert!(u.ops.iter().all(|op| op.table().starts_with("lu_t1__kv_")), "{u:?}");
        assert_eq!(sw.apply_update(&u), Ok(1));

        let entry = LookupEntry::Exact { key: 7, value: 7 };
        let err = t1.build_insert(&sw, "t0__kv", &entry).unwrap_err();
        assert_eq!(err, ManagedError::CrossTenant { tenant: 1, name: "t0__kv".into() });
        assert!(err.to_string().contains("tenant 1"));
        assert!(t1.build_insert(&sw, "t1__kv", &entry).is_ok(), "its own namespaced name");
        assert_eq!(sw.counters().update_rejects, 0, "rejected before reaching the switch");

        // The operator's unscoped handle still reaches every namespace.
        let op = ManagedMemory::new(&merged.merged.tna_ir);
        let u = op.build_insert(&sw, "t0__kv", &LookupEntry::Exact { key: 5, value: 5 }).unwrap();
        assert!(sw.apply_update(&u).is_ok());
    }

    /// The scope covers registers as tables: tenant 1's handle refuses to
    /// read or write tenant 0's `Acc`, which keeps its value, and its bare
    /// `Val` is `t1__Val`.
    #[test]
    fn tenant_scoped_handle_isolates_registers() {
        let merged = merged();
        let mut sw = Switch::new(merged.merged.tna_p4.clone());
        let op = ManagedMemory::new(&merged.merged.tna_ir);
        let t1 = ManagedMemory::for_tenant(&merged.merged.tna_ir, 1);
        op.write(&mut sw, "t0__Acc", &[2], 5).unwrap();

        let refused = ManagedError::CrossTenant { tenant: 1, name: "t0__Acc".into() };
        assert_eq!(t1.write(&mut sw, "t0__Acc", &[2], 777), Err(refused.clone()));
        assert_eq!(t1.read(&sw, "t0__Acc", &[2]), Err(refused));
        assert_eq!(op.read(&sw, "t0__Acc", &[2]), Ok(5), "tenant 0's register kept its value");

        t1.write(&mut sw, "Val", &[3], 41).unwrap();
        assert_eq!(op.read(&sw, "t1__Val", &[3]), Ok(41));
        assert_eq!(t1.read(&sw, "Val", &[3]), Ok(41));
        assert!(
            matches!(t1.read(&sw, "Acc", &[2]), Err(ManagedError::UnknownMemory(n)) if n == "t1__Acc")
        );
    }

    /// A lookup's batch reaches its own MATs only — `kv` is not a prefix
    /// that claims `kv_hot`'s — on a solo program and, namespaced, on a
    /// merged one.
    #[test]
    fn a_lookup_batch_reaches_only_its_own_tables() {
        let solo = compile("b.ncl", TEN1);
        let merged = merged();
        for (program, mm, hot) in [
            (&solo.devices[0].tna_p4, ManagedMemory::new(&solo.devices[0].tna_ir), "lu_kv_hot_"),
            (
                &merged.merged.tna_p4,
                ManagedMemory::for_tenant(&merged.merged.tna_ir, 1),
                "lu_t1__kv_hot_",
            ),
        ] {
            let mut sw = Switch::new(program.clone());
            let hot_tables: Vec<String> = (program.controls.iter())
                .flat_map(|c| &c.tables)
                .filter(|t| t.name.starts_with(hot))
                .map(|t| t.name.clone())
                .collect();
            assert_eq!(hot_tables.len(), 1, "{hot}");
            let probe = |sw: &Switch| -> Vec<Vec<TableEntry>> {
                hot_tables.iter().map(|t| sw.table_entries(t).unwrap().to_vec()).collect()
            };
            let before = probe(&sw);
            let u = mm.build_insert(&sw, "kv", &LookupEntry::Exact { key: 2, value: 3 }).unwrap();
            sw.apply_update(&u).unwrap();
            assert_eq!(sw.counters().table_updates, 1, "{hot}: one op, into `kv` alone");
            assert_eq!(probe(&sw), before, "{hot}: `kv_hot` changed");
        }
    }
}
