//! What sharing a switch costs a tenant, as exact counts (DESIGN.md §17):
//! AGG (tenant 0) and CACHE (tenant 1) merged onto one pipeline against
//! each tenant's dedicated switch, on the counters the data plane already
//! keeps — no timer, so the statement holds on any host. That the merged
//! switch *answers* like the dedicated ones (outputs, registers, under
//! faults) is `tests/chaos.rs::tenant_isolation_*`.

use netcl_apps::{agg, cache};
use netcl_bmv2::Switch;
use netcl_runtime::managed::ManagedMemory;

/// Tenant shapes for a *shared* pipeline: the default 32-value AGG plus
/// the 8-word CACHE overflow one 4096-bit PHV together.
fn agg_cfg() -> agg::AggConfig {
    agg::AggConfig { slot_size: 8, ..Default::default() }
}

fn cache_cfg() -> cache::CacheConfig {
    cache::CacheConfig { words: 4, ..Default::default() }
}

fn merged() -> netcl::MergedCompilation {
    let (agg_src, cache_src) = (agg::netcl_source(&agg_cfg()), cache::netcl_source(&cache_cfg()));
    netcl::compile_tenants(
        &[
            netcl::TenantSource { tenant: 0, name: "agg.ncl", source: &agg_src },
            netcl::TenantSource { tenant: 1, name: "cache.ncl", source: &cache_src },
        ],
        1,
        &netcl::CompileOptions::default(),
        &Default::default(),
    )
    .expect("AGG + CACHE fit the default per-tenant budgets")
}

/// The packet builders write each tenant's original computation id; the
/// shared switch (and the solo baselines, which keep merged ids)
/// dispatches on the merged one, at wire byte 8.
fn with_comp(mut wire: Vec<u8>, comp: u8) -> Vec<u8> {
    wire[8] = comp;
    wire
}

/// Per tenant: `(tenant, its packet stream)`. AGG is 4 chunks from every
/// worker; CACHE is one GET for each of keys 0..8.
fn streams(m: &netcl::MergedCompilation) -> [(u16, Vec<Vec<u8>>); 2] {
    let comp = |t: u16| m.tenant(t).unwrap().map.comp(1).expect("each tenant's kernel is comp 1");
    let acfg = agg_cfg();
    let agg = (0..4)
        .flat_map(|c| (0..acfg.num_workers).map(move |w| (w, c)))
        .map(|(w, c)| with_comp(agg::chunk_packet(&acfg, w, c), comp(0)))
        .collect();
    let cache = (0..8u64)
        .map(|k| with_comp(cache::request(&cache_cfg(), 1, 2, cache::OP_GET, k, None), comp(1)))
        .collect();
    [(0, agg), (1, cache)]
}

/// The data-plane work a switch counted for a stream, by the counters
/// both engines keep: packets, errors, table applies that hit, table
/// applies that missed, action calls, `RegisterAction` executions.
fn work(sw: &Switch) -> [u64; 6] {
    let c = sw.counters();
    [c.packets, c.errors, c.total_hits(), c.total_misses(), c.action_calls, c.reg_action_execs]
}

/// Each tenant's stream, three times over, through a fresh shared switch
/// (both tenants loaded, per-tenant accounting on) and through the
/// tenant's dedicated one: the shared pipeline applies the same tables,
/// calls the same actions and runs the same SALU programs per packet —
/// sharing adds the other tenant's *state*, not work on this tenant's
/// packets. The counts are pinned so a change to either side shows:
///
/// | stream | packets | table applies | hits | action calls | reg-actions |
/// |---|---|---|---|---|---|
/// | AGG, 4 chunks × 6 workers × 3 | 72 | 72 (1 / packet: `l2_fwd`, empty here) | 0 | 0 | 864 (12 / packet) |
/// | CACHE, GET keys 0..8 × 3 | 24 | 48 (2 / packet: `l2_fwd` + `lu_t1__index`) | 12 | 12 (the hits) | 144 (6 / packet) |
#[test]
fn shared_switch_does_the_dedicated_switchs_work_per_packet() {
    let m = merged();
    let comps: Vec<(u8, u16)> = m
        .tenants
        .iter()
        .flat_map(|s| s.map.comps.iter().map(|&(_, merged)| (merged, s.tenant)))
        .collect();
    // Caches keys 0..4 in tenant 1's CACHE, the same on whichever switch
    // is passed, so merged and dedicated start equal and a GET for keys
    // 0..8 hits half the time.
    let cfg = cache_cfg();
    let populate = |module, sw: &mut Switch| {
        let tenant1 = ManagedMemory::for_tenant(module, 1);
        for key in 0..4 {
            cache::populate(&tenant1, sw, &cfg, key as u16, key, &cache::server_value(&cfg, key));
        }
    };
    let pinned = [[72, 0, 0, 72, 0, 864], [24, 0, 12, 36, 12, 144]];
    for ((tenant, packets), pinned) in streams(&m).into_iter().zip(pinned) {
        let slice = m.tenant(tenant).unwrap();
        let mut shared = Switch::new(m.merged.tna_p4.clone());
        shared.set_tenants(&comps);
        populate(&m.merged.tna_ir, &mut shared);
        let mut dedicated = Switch::new(slice.solo.tna_p4.clone());
        if tenant == 1 {
            populate(&slice.solo.tna_ir, &mut dedicated);
        }
        // Populating went through the control plane; count packets only.
        shared.reset_counters();
        dedicated.reset_counters();
        for _ in 0..3 {
            for wire in &packets {
                let on_shared = shared.process(wire).map(|(_, out)| out);
                let on_dedicated = dedicated.process(wire).map(|(_, out)| out);
                assert_eq!(on_shared, on_dedicated, "tenant {tenant}: outputs");
            }
        }
        assert_eq!(work(&shared), work(&dedicated), "tenant {tenant}: shared vs dedicated");
        assert_eq!(work(&dedicated), pinned, "tenant {tenant}: the pinned counts moved");
        // The per-tenant views say the same: all of the shared switch's
        // packets and SALU work are this tenant's, and the tables its
        // namespace owns (`l2_fwd` is nobody's) count alike.
        let view = shared.tenant_counters(tenant);
        assert_eq!([view.packets, view.reg_action_execs], [pinned[0], pinned[5]]);
        assert_eq!(shared.tenant_table_stats(tenant), dedicated.tenant_table_stats(tenant));
        assert_eq!(shared.tenant_table_stats(tenant).0, pinned[2], "every hit is a tenant table's");
    }
}
