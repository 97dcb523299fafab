//! The runtime control plane: source-level rule updates for a *running*
//! switch (DESIGN.md §16).
//!
//! [`ManagedMemory`] resolves source names to physical device state;
//! [`ControlPlane`] builds on it to turn one source-level `_managed_
//! _lookup_` mutation into an **atomic** [`TableUpdate`] batch covering
//! every match-action table the compiler materialized for that lookup
//! (duplication fans one source table out to `lu_<name>_…` MATs, one per
//! access site — they must change together or the data plane observes a
//! torn update). The batch is validated and applied by
//! [`netcl_bmv2::Switch::apply_update`]: all MATs update, or none do.
//!
//! Unlike a program reload (what [`DeviceRestart`] does in the chaos
//! harness), applying a `TableUpdate` touches *only* the targeted tables:
//! registers — all `_managed_` scalar and array state — and the other
//! tables keep their live contents. The simulator additionally journals
//! scheduled updates per device and replays them after a restart, so
//! updated rules survive where a full reload would lose them
//! (`netcl_net::sim`).
//!
//! [`DeviceRestart`]: netcl_bmv2::Switch
//!
//! Engine uniformity: both execution engines read the same runtime
//! table store, so an applied update is visible to the threaded default
//! and the interpreter oracle alike; the chaos matrix asserts the
//! resulting packet streams, counters, and stats are byte-identical.

use crate::managed::{to_table_entry, ManagedError, ManagedMemory};
use netcl_bmv2::{Switch, TableUpdate, UpdateError};
use netcl_ir::Module;
use netcl_p4::ast::EntryKey;
use netcl_sema::model::LookupEntry;

/// Control-plane errors: name resolution or batch validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// The source-level name did not resolve to managed lookup state.
    Managed(ManagedError),
    /// The built batch failed validation (nothing was applied).
    Update(UpdateError),
    /// A tenant-scoped plane resolved a table outside its namespace; the
    /// batch was rejected before anything touched the switch.
    CrossTenant {
        /// The scope the plane is bound to.
        tenant: u16,
        /// The offending table.
        table: String,
    },
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Managed(e) => write!(f, "{e}"),
            ControlError::Update(e) => write!(f, "{e}"),
            ControlError::CrossTenant { tenant, table } => {
                write!(f, "table `{table}` is outside tenant {tenant}'s namespace; batch rejected")
            }
        }
    }
}

impl std::error::Error for ControlError {}

impl From<ManagedError> for ControlError {
    fn from(e: ManagedError) -> Self {
        ControlError::Managed(e)
    }
}

impl From<UpdateError> for ControlError {
    fn from(e: UpdateError) -> Self {
        ControlError::Update(e)
    }
}

/// Source-level control plane for one device's switch.
///
/// Construct it from the device's lowered IR module (the same input
/// [`ManagedMemory::new`] takes); the resolver inside survives for the
/// life of the program, across any number of updates and device restarts.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    mm: ManagedMemory,
    scope: Option<u16>,
}

impl ControlPlane {
    /// Builds the control plane from a compiled device module.
    pub fn new(module: &Module) -> ControlPlane {
        ControlPlane { mm: ManagedMemory::new(module), scope: None }
    }

    /// Builds a control plane **scoped to one tenant** of a merged module
    /// (DESIGN.md §17). Source names resolve inside the tenant's
    /// namespace — `cache` means `t<id>__cache` — and every update batch
    /// is validated to touch only `lu_t<id>__…` tables before it reaches
    /// the switch: a scoped plane cannot mutate another tenant's rules,
    /// by construction ([`ControlError::CrossTenant`]).
    pub fn for_tenant(module: &Module, tenant: u16) -> ControlPlane {
        ControlPlane { mm: ManagedMemory::new(module), scope: Some(tenant) }
    }

    /// The tenant this plane is scoped to, if any.
    pub fn tenant(&self) -> Option<u16> {
        self.scope
    }

    /// The name a source-level identifier resolves under: scoped planes
    /// prefix bare names with their tenant namespace, already-namespaced
    /// names pass through (and are then subject to the cross-tenant
    /// check).
    pub fn scoped_name(&self, name: &str) -> String {
        match self.scope {
            Some(t) if netcl_util::tenant::of(name).is_none() => netcl_util::tenant::apply(t, name),
            _ => name.to_string(),
        }
    }

    /// The underlying managed-memory resolver (scalar/array register
    /// access: `ncl::managed_read` / `ncl::managed_write`). Names here are
    /// raw module-level names; scoped callers pass them through
    /// [`ControlPlane::scoped_name`] first.
    pub fn memory(&self) -> &ManagedMemory {
        &self.mm
    }

    // ---- batch builders --------------------------------------------------

    /// Builds the atomic batch that inserts `entry` into every MAT of the
    /// source-level lookup `name`. The batch can be applied immediately
    /// ([`Switch::apply_update`]) or scheduled against a running
    /// simulation (`Network::schedule_update`).
    pub fn build_insert(
        &self,
        sw: &Switch,
        name: &str,
        entry: &LookupEntry,
    ) -> Result<TableUpdate, ControlError> {
        self.build(sw, name, |u, t, action| u.insert(t, to_table_entry(entry, action)))
    }

    /// Builds the batch that upserts `entry` (replaces any entry with the
    /// same key, in every MAT).
    pub fn build_modify(
        &self,
        sw: &Switch,
        name: &str,
        entry: &LookupEntry,
    ) -> Result<TableUpdate, ControlError> {
        self.build(sw, name, |u, t, action| u.modify(t, to_table_entry(entry, action)))
    }

    /// Builds the batch that removes `key` from every MAT.
    pub fn build_remove(
        &self,
        sw: &Switch,
        name: &str,
        key: u64,
    ) -> Result<TableUpdate, ControlError> {
        self.build(sw, name, |u, t, _| u.delete(t, vec![EntryKey::Value(key)]))
    }

    fn build(
        &self,
        sw: &Switch,
        name: &str,
        op: impl FnMut(TableUpdate, String, &str) -> TableUpdate,
    ) -> Result<TableUpdate, ControlError> {
        let update = self.mm.lookup_batch(sw, &self.scoped_name(name), op)?;
        if let Some(tenant) = self.scope {
            if let Some(op) =
                update.ops.iter().find(|op| netcl_util::tenant::of(op.table()) != Some(tenant))
            {
                return Err(ControlError::CrossTenant { tenant, table: op.table().to_string() });
            }
        }
        Ok(update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{pack, unpack, Message};
    use netcl_bmv2::Engine;

    const SRC: &str = r#"
_managed_ unsigned epoch;
_managed_ _lookup_ ncl::kv<unsigned, unsigned> cache[8] = {{1, 42}};
_kernel(1) _at(1) void k(unsigned key, unsigned &v, char &hit, unsigned &e) {
  hit = ncl::lookup(cache, key, v);
  e = epoch;
}
"#;

    fn compiled() -> (netcl::CompiledUnit, Switch, ControlPlane) {
        let unit =
            netcl::Compiler::new(netcl::CompileOptions::default()).compile("c.ncl", SRC).unwrap();
        let sw = Switch::new(unit.devices[0].tna_p4.clone());
        let cp = ControlPlane::new(&unit.devices[0].tna_ir);
        (unit, sw, cp)
    }

    fn run_key(unit: &netcl::CompiledUnit, sw: &mut Switch, key: u64) -> (u64, u64, u64) {
        let spec = unit.model.kernels[0].specification();
        let m = Message::new(1, 2, 1, 1);
        let packed = pack(&m, &spec, &[Some(&[key]), None, None, None]).unwrap();
        let (_, out) = sw.process(&packed).unwrap();
        let mut v = Vec::new();
        let mut hit = Vec::new();
        let mut e = Vec::new();
        unpack(&out, &spec, &mut [None, Some(&mut v), Some(&mut hit), Some(&mut e)]).unwrap();
        (v[0], hit[0], e[0])
    }

    /// Live updates without a reload: registers keep their state while
    /// tables change, and the update counters reflect every applied op.
    #[test]
    fn live_update_preserves_managed_registers() {
        let (unit, mut sw, cp) = compiled();
        cp.memory().write(&mut sw, "epoch", &[], 7).unwrap();
        let u = cp.build_insert(&sw, "cache", &LookupEntry::Exact { key: 9, value: 77 }).unwrap();
        let applied = sw.apply_update(&u).unwrap();
        assert!(applied >= 1);
        let (v, hit, e) = run_key(&unit, &mut sw, 9);
        assert_eq!((v, hit), (77, 1), "new rule is live");
        assert_eq!(e, 7, "register state survived the update");
        assert_eq!(sw.counters().table_updates, applied as u64);
        assert_eq!(sw.counters().update_rejects, 0);
    }

    /// Upsert replaces by key; remove evicts everywhere.
    #[test]
    fn modify_and_remove_roundtrip() {
        let (unit, mut sw, cp) = compiled();
        let u = cp.build_modify(&sw, "cache", &LookupEntry::Exact { key: 1, value: 100 }).unwrap();
        sw.apply_update(&u).unwrap();
        let (v, hit, _) = run_key(&unit, &mut sw, 1);
        assert_eq!((v, hit), (100, 1), "static entry replaced");
        sw.apply_update(&cp.build_remove(&sw, "cache", 1).unwrap()).unwrap();
        let (_, hit, _) = run_key(&unit, &mut sw, 1);
        assert_eq!(hit, 0);
    }

    /// A batch that fails validation applies nothing and counts a reject.
    #[test]
    fn rejected_batch_is_all_or_nothing() {
        let (unit, mut sw, cp) = compiled();
        let mut u =
            cp.build_insert(&sw, "cache", &LookupEntry::Exact { key: 5, value: 1 }).unwrap();
        // Poison the *last* op: the earlier valid ops must not apply.
        u = u.delete("no_such_table", vec![EntryKey::Value(0)]);
        assert!(matches!(
            sw.apply_update(&u),
            Err(UpdateError::UnknownTable(t)) if t == "no_such_table"
        ));
        let (_, hit, _) = run_key(&unit, &mut sw, 5);
        assert_eq!(hit, 0, "valid prefix of a rejected batch must not land");
        assert_eq!(sw.counters().table_updates, 0);
        assert_eq!(sw.counters().update_rejects, 1);
    }

    const TEN0: &str = r#"
_managed_ _lookup_ ncl::kv<unsigned, unsigned> kv[8] = {{1, 10}};
_kernel(1) _at(1) void a(unsigned k, unsigned &v, char &hit) {
  hit = ncl::lookup(kv, k, v);
  if (hit) return ncl::reflect();
}
"#;
    const TEN1: &str = r#"
_managed_ _lookup_ ncl::kv<unsigned, unsigned> kv[8] = {{1, 11}};
_kernel(1) _at(1) void b(unsigned k, unsigned &v, char &hit) {
  hit = ncl::lookup(kv, k, v);
  if (hit) return ncl::reflect();
}
"#;

    /// A tenant-scoped plane resolves bare names inside its namespace and
    /// refuses, pre-application, any batch that reaches another tenant's
    /// tables — while an unscoped plane on the same merged module keeps
    /// full reach.
    #[test]
    fn tenant_scoped_plane_isolates_namespaces() {
        let sources = [
            netcl::TenantSource { tenant: 0, name: "a.ncl", source: TEN0 },
            netcl::TenantSource { tenant: 1, name: "b.ncl", source: TEN1 },
        ];
        let merged = netcl::compile_tenants(
            &sources,
            1,
            &netcl::CompileOptions::default(),
            &Default::default(),
        )
        .unwrap();
        let mut sw = Switch::new(merged.merged.tna_p4.clone());

        let cp1 = ControlPlane::for_tenant(&merged.merged.tna_ir, 1);
        assert_eq!(cp1.tenant(), Some(1));
        assert_eq!(cp1.scoped_name("kv"), "t1__kv");
        assert_eq!(cp1.scoped_name("t0__kv"), "t0__kv", "namespaced names pass through");

        let u = cp1.build_insert(&sw, "kv", &LookupEntry::Exact { key: 9, value: 99 }).unwrap();
        let applied = sw.apply_update(&u).unwrap();
        assert!(applied >= 1);

        let err =
            cp1.build_insert(&sw, "t0__kv", &LookupEntry::Exact { key: 7, value: 7 }).unwrap_err();
        assert!(
            matches!(
                err,
                ControlError::CrossTenant { tenant: 1, ref table } if table.starts_with("lu_t0__")
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("tenant 1"));
        assert_eq!(sw.counters().update_rejects, 0, "rejected before reaching the switch");

        // The operator's unscoped plane still reaches every namespace.
        let cp = ControlPlane::new(&merged.merged.tna_ir);
        let u = cp.build_insert(&sw, "t0__kv", &LookupEntry::Exact { key: 5, value: 5 }).unwrap();
        assert!(sw.apply_update(&u).is_ok());
    }

    /// The same update applied to each engine's switch yields identical
    /// outputs and counters — the differential contract covers live
    /// updates.
    #[test]
    fn update_is_engine_uniform() {
        let mut results = Vec::new();
        for engine in [Engine::Threaded, Engine::Interpreted] {
            let (unit, mut sw, cp) = compiled();
            sw.set_engine(engine);
            let u =
                cp.build_insert(&sw, "cache", &LookupEntry::Exact { key: 3, value: 33 }).unwrap();
            sw.apply_update(&u).unwrap();
            sw.apply_update(&cp.build_remove(&sw, "cache", 1).unwrap()).unwrap();
            let out = (run_key(&unit, &mut sw, 3), run_key(&unit, &mut sw, 1));
            results.push((out, sw.counters().clone()));
        }
        assert_eq!(results[0].0, results[1].0);
        assert_eq!(results[0].1, results[1].1, "counters differ threaded vs interpreted");
    }
}
