//! Data-plane counters: what a switch counts, per tenant too, and the
//! [`Switch`] accessors that read, reset and configure them (DESIGN.md §12,
//! §17).
//!
//! Invariants:
//! - Every counter is incremented on a branch both engines take, so
//!   [`SwitchCounters`] compares `Eq` across engines — the differential
//!   tests rely on it. Nothing here names the engine that counted.
//! - Per-tenant packets attribute by the wire's `comp` byte, reg-action
//!   executions by the delta across one packet's run; `Switch::run_one`
//!   is the only writer of both.

use crate::layout::Layout;
use crate::switch::Switch;

/// Per-switch data-plane counters (DESIGN.md §12). Always on — each is a
/// single integer increment on an already-taken branch, so there is no
/// counters-off build to price them against; their cost is inside every
/// `netcl_e2e` `switch_replay` sample — and they count identically on
/// both engines, so the differential tests compare them too. Reset by
/// [`Switch::reset_counters`] and by device restarts (a fresh switch
/// starts from zero, like real hardware).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Packets entering the pipeline (parse attempts).
    pub packets: u64,
    /// Packets rejected with an error (parse failure or a deferred
    /// compile-time failure surfacing at execution).
    pub errors: u64,
    /// Table hits, by table-state index (see [`Switch::table_stats`]).
    pub table_hits: Vec<u64>,
    /// Table misses, by table-state index.
    pub table_misses: Vec<u64>,
    /// `RegisterAction` executions (SALU microprograms).
    pub reg_action_execs: u64,
    /// Action invocations (table-driven and direct calls).
    pub action_calls: u64,
    /// Extern function calls (hash engines count separately under their
    /// tables' keys; this counts `random` and the ncl intrinsics).
    pub(crate) extern_calls: u64,
    /// Control-plane table operations applied through
    /// [`Switch::apply_update`] (one per op in an accepted batch).
    pub table_updates: u64,
    /// Control-plane update *batches* rejected by validation (nothing
    /// applied — see [`crate::ctrl`]).
    pub update_rejects: u64,
    /// Per-tenant sub-views (DESIGN.md §17), keyed by tenant id. Empty
    /// until [`Switch::set_tenants`] configures the comp→tenant map;
    /// maintained by the one per-packet routine both engines run under,
    /// so they participate in the differential contract like every other
    /// counter.
    pub tenants: std::collections::BTreeMap<u16, TenantCounters>,
}

/// One tenant's slice of the data-plane counters. Packets attribute by
/// the NCL shim's `comp` byte (wire byte 8 — the tenant classifier at
/// ingress); `RegisterAction` executions attribute by delta around each
/// packet's execution, which is exact because namespaced kernels dispatch
/// exclusively on `comp`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Packets entering the pipeline with this tenant's comp byte.
    pub packets: u64,
    /// SALU microprograms executed on behalf of this tenant's packets.
    pub reg_action_execs: u64,
}

impl SwitchCounters {
    pub(crate) fn new(layout: &Layout) -> SwitchCounters {
        SwitchCounters {
            table_hits: vec![0; layout.table_states.len()],
            table_misses: vec![0; layout.table_states.len()],
            ..SwitchCounters::default()
        }
    }

    /// Total hits across all tables.
    pub fn total_hits(&self) -> u64 {
        self.table_hits.iter().sum()
    }

    /// Total misses across all tables.
    pub fn total_misses(&self) -> u64 {
        self.table_misses.iter().sum()
    }
}

/// The comp→tenant classification a multi-tenant switch attributes
/// counters with ([`Switch::set_tenants`]). A 256-entry direct map: the
/// NCL `comp` byte indexes it, `u16::MAX` means "no tenant".
pub(crate) struct Tenancy {
    comp_tenant: [u16; 256],
}

impl Tenancy {
    /// The NCL shim header places `comp` at wire byte 8.
    const COMP_BYTE: usize = 8;

    pub(crate) fn of_wire(&self, wire: &[u8]) -> Option<u16> {
        let comp = *wire.get(Self::COMP_BYTE)?;
        let t = self.comp_tenant[comp as usize];
        (t != u16::MAX).then_some(t)
    }
}

impl Switch {
    // ---- observability (DESIGN.md §12) ----------------------------------

    /// The data-plane counters accumulated so far. Counted identically by
    /// both engines, so they participate in the differential contract.
    pub fn counters(&self) -> &SwitchCounters {
        &self.st.counters
    }

    /// Zeroes all counters (e.g. between a warmup and a measured run).
    pub fn reset_counters(&mut self) {
        self.st.counters = SwitchCounters::new(&self.loaded.layout);
    }

    /// Per-table `(name, hits, misses)`, in table-state order. Duplicated
    /// lookup tables (`name__dupN`) report separately.
    pub fn table_stats(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.loaded.layout.table_states.iter().enumerate().map(|(i, t)| {
            (t.name.as_str(), self.st.counters.table_hits[i], self.st.counters.table_misses[i])
        })
    }

    // ---- multi-tenant attribution (DESIGN.md §17) ------------------------

    /// Configures per-tenant counter attribution: `comps` maps each NCL
    /// computation id to its owning tenant (the merge driver's
    /// `TenantMapEntry` provides exactly this). Packets classify by the
    /// shim's `comp` byte at ingress; comps not listed attribute to
    /// nobody. Survives engine switches and [`Switch::reset_counters`],
    /// but not a device restart (a fresh switch knows no tenants — the
    /// simulator's restart hooks re-apply it, like real control planes
    /// re-push config).
    pub fn set_tenants(&mut self, comps: &[(u8, u16)]) {
        let mut map = [u16::MAX; 256];
        for &(comp, tenant) in comps {
            map[comp as usize] = tenant;
        }
        self.tenancy = Some(Box::new(Tenancy { comp_tenant: map }));
    }

    /// One tenant's counter sub-view (zeroes when it processed nothing).
    pub fn tenant_counters(&self, tenant: u16) -> TenantCounters {
        self.st.counters.tenants.get(&tenant).copied().unwrap_or_default()
    }

    /// One tenant's `(hits, misses)` summed over the tables its namespace
    /// owns. Derived from the per-table counters and the `t<id>__` name
    /// prefix — tables dispatch behind the tenant's comp match, so
    /// per-name totals *are* per-tenant totals, with no per-packet cost.
    pub fn tenant_table_stats(&self, tenant: u16) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for (i, t) in self.loaded.layout.table_states.iter().enumerate() {
            if netcl_util::tenant::of(&t.name) == Some(tenant) {
                hits += self.st.counters.table_hits[i];
                misses += self.st.counters.table_misses[i];
            }
        }
        (hits, misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::PacketBatch;
    use crate::switch::Engine;
    use netcl_p4::ast::P4Program;
    use netcl_p4::parse::parse_program;
    use std::sync::Arc;

    /// A merged two-tenant program. The header mimics the NCL shim: 8 bytes
    /// of preamble, then the comp byte at wire offset 8. Comp 1 is tenant
    /// 0's kernel (one reg action on `t0__A`); comp 2 is tenant 1's (two
    /// reg actions on `t1__B` plus a lookup MAT `lu_t1__kv`).
    fn tenant_program() -> Arc<P4Program> {
        let bump = |name: &str, register: &str| {
            format!(
                "RegisterAction<bit<32>, bit<32>, bit<32>>({register}) {name} = {{
                    void apply(inout bit<32> m, out bit<32> o) {{ m = m + 32w1; o = m; }}
                }};"
            )
        };
        let (bump0, bump1) = (bump("bump0", "t0__A"), bump("bump1", "t1__B"));
        let text = format!(
            "#include <v1model.p4>
header th_t {{ bit<64> pad; bit<8> comp; bit<8> k; }}
struct headers_t {{ th_t th; }}
parser P(packet_in pkt, out headers_t hdr) {{
    state start {{ pkt.extract(hdr.th); transition accept; }}
}}
control Ig(inout headers_t hdr, inout metadata_t meta) {{
    bit<32> cnt;
    Register<bit<32>, bit<32>>(4) t0__A;
    Register<bit<32>, bit<32>>(4) t1__B;
    {bump0}
    {bump1}
    action setk(bit<8> x) {{ hdr.th.k = x; }}
    table lu_t1__kv {{
        key = {{ hdr.th.k : exact }}
        actions = {{ setk; }}
        const entries = {{ 7 : setk(42); }}
        size = 8;
    }}
    apply {{
        if (hdr.th.comp == 8w1) {{ meta.cnt = bump0.execute(32w0); }}
        if (hdr.th.comp == 8w2) {{
            meta.cnt = bump1.execute(32w0);
            meta.cnt = bump1.execute(32w0);
            lu_t1__kv.apply();
        }}
    }}
}}"
        );
        parse_program(&text).map(Arc::new).unwrap_or_else(|e| panic!("{e}\n{text}"))
    }

    /// A 10-byte wire for [`tenant_program`]: 8 zero bytes, comp, k.
    fn twire(comp: u8, k: u8) -> Vec<u8> {
        let mut w = vec![0u8; 8];
        w.push(comp);
        w.push(k);
        w
    }

    /// Both engines attribute per-tenant packets, reg actions, and table
    /// stats identically; unmapped comps stay unattributed.
    #[test]
    fn tenant_counters_uniform_across_engines() {
        let run = |engine: Engine| {
            let mut sw = Switch::new(tenant_program());
            sw.set_engine(engine);
            sw.set_tenants(&[(1, 0), (2, 1)]);
            for w in [twire(1, 7), twire(2, 7), twire(2, 8), twire(3, 0)] {
                sw.process(&w).unwrap();
            }
            sw
        };
        let switches = [Engine::Interpreted, Engine::Threaded].map(run);
        for sw in &switches {
            let e = sw.engine().name();
            assert_eq!(
                sw.tenant_counters(0),
                TenantCounters { packets: 1, reg_action_execs: 1 },
                "tenant 0 on {e}"
            );
            assert_eq!(
                sw.tenant_counters(1),
                TenantCounters { packets: 2, reg_action_execs: 4 },
                "tenant 1 on {e}"
            );
            assert_eq!(sw.tenant_counters(9), TenantCounters::default());
            // comp 3 is unmapped: counted globally, attributed to no one.
            assert_eq!(sw.counters().packets, 4);
            assert_eq!(
                sw.counters().tenants.values().map(|t| t.packets).sum::<u64>(),
                3,
                "one packet outside every tenant on {e}"
            );
            // Only comp-2 packets reach `lu_t1__kv`: k=7 hits, k=8 misses.
            assert_eq!(sw.tenant_table_stats(1), (1, 1), "tenant 1 tables on {e}");
            assert_eq!(sw.tenant_table_stats(0), (0, 0));
        }
        // Per-tenant maps are inside `SwitchCounters`' differential contract.
        assert_eq!(switches[0].counters(), switches[1].counters());
    }

    /// The batch entry point credits tenants exactly like per-packet
    /// `process_into` calls, parse errors included.
    #[test]
    fn tenant_counters_batch_matches_scalar() {
        // The 9-byte wire carries a readable comp byte but truncates the
        // header: its tenant is charged the packet and zero reg actions.
        let truncated = {
            let mut w = vec![0u8; 8];
            w.push(2);
            w
        };
        let wires = [twire(1, 7), twire(2, 7), truncated, twire(2, 8), twire(3, 1), vec![0x01]];

        let mut scalar = Switch::new(tenant_program());
        scalar.set_tenants(&[(1, 0), (2, 1)]);
        let mut pkt = scalar.new_packet();
        let mut out = Vec::new();
        for w in &wires {
            let _ = scalar.process_into(w, &mut pkt, &mut out);
        }

        let mut batched = Switch::new(tenant_program());
        batched.set_tenants(&[(1, 0), (2, 1)]);
        let mut batch = PacketBatch::new();
        for w in &wires {
            batch.push(w);
        }
        batched.process_batch(&mut batch);
        assert_eq!(batched.counters(), scalar.counters(), "batch diverges");

        assert_eq!(
            scalar.tenant_counters(1),
            TenantCounters { packets: 3, reg_action_execs: 4 },
            "truncated comp-2 packet charged, zero reg actions"
        );
    }
}
