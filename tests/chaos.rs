//! Chaos property suite: the three NetCL applications keep their safety
//! properties under 20% loss with reordering and duplication, across a
//! fixed seed matrix (the ISSUE-2 headline deliverable).
//!
//! Determinism contract: a run is fully described by `(seed, fault
//! schedule)` — the same pair reproduces byte-identical `NetStats`, which
//! `replay_is_deterministic_*` assert. A failing seed from CI therefore
//! replays exactly by rerunning with that seed.
//!
//! The matrix size defaults to 64 and can be overridden with
//! `NETCL_CHAOS_SEEDS` (e.g. `NETCL_CHAOS_SEEDS=8` for a quick local run).
//!
//! Engines: every safety test below runs on the **direct-threaded**
//! backend — it is the `Switch` default (DESIGN.md §10) — and
//! `burst_delivery_is_engine_uniform_under_chaos_all_apps` additionally
//! runs every app × seed on the interpreter oracle, asserting both engines
//! produce identical `NetStats` and `SwitchCounters`.

use netcl_apps::{agg, cache, paxos, Conditions};
use netcl_net::{FaultSchedule, LinkSpec, NodeId};
use netcl_runtime::managed::ManagedMemory;

/// The chaos regime the ISSUE mandates: 20% loss + reorder + duplication.
fn chaos_link() -> LinkSpec {
    LinkSpec::chaos(0.2)
}

/// One chaos-matrix run: the chaos link, `seed`, `faults`, `max_events`.
fn chaos(seed: u64, faults: FaultSchedule, max_events: u64) -> Conditions {
    Conditions { link: chaos_link(), seed, faults, max_events, obs: false }
}

fn seed_matrix() -> u64 {
    std::env::var("NETCL_CHAOS_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

fn compile(name: &str, src: &str) -> netcl::CompiledUnit {
    netcl::Compiler::new(netcl::CompileOptions::default()).compile(name, src).unwrap()
}

// ---------------------------------------------------------------------------
// AGG: exactly-once sums
// ---------------------------------------------------------------------------

/// Every worker receives every chunk's aggregate exactly once with the
/// correct sum, despite loss, duplication, and reordering: the switch's
/// bitmap dedup makes retransmissions idempotent.
#[test]
fn agg_sums_exactly_once_under_chaos() {
    let cfg = agg::AggConfig { num_workers: 3, num_slots: 4, slot_size: 8 };
    let unit = compile("agg.ncl", &agg::netcl_source(&cfg));
    let program = &unit.devices[0].tna_p4;
    for seed in 0..seed_matrix() {
        let run =
            agg::run_allreduce(program, &cfg, 8, 500, &chaos(seed, FaultSchedule::new(), 300_000));
        let (r, stats) = (run.result, run.stats);
        assert!(r.all_correct, "seed {seed}: wrong/missing aggregate: {r:?} stats={stats:?}");
        assert_eq!(stats.unroutable, 0, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// P4xos: agreement
// ---------------------------------------------------------------------------

/// No instance is ever delivered with two different values, and every
/// proposal decides (the proposer retransmits as new instances until its
/// delivery ack returns).
#[test]
fn paxos_never_chooses_two_values_under_chaos() {
    let unit = compile("paxos.ncl", &paxos::full_source());
    for seed in 0..seed_matrix() {
        let run = paxos::run_paxos(&unit.devices, 6, &chaos(seed, FaultSchedule::new(), 200_000));
        let (r, stats) = (run.result, run.stats);
        assert_eq!(r.conflicts, 0, "seed {seed}: conflicting decisions: {r:?} stats={stats:?}");
        assert_eq!(r.decided, r.proposals, "seed {seed}: undecided proposals: {r:?}");
        assert_eq!(stats.unroutable, 0, "seed {seed}");
    }
}

/// Restarting a minority acceptor mid-run (its votes and rounds wiped)
/// cannot produce conflicting decisions: each instance binds one value.
#[test]
fn paxos_survives_acceptor_restart() {
    let unit = compile("paxos.ncl", &paxos::full_source());
    let faults = FaultSchedule::new().device_outage(paxos::ACCEPTOR_DEV, 30_000, 120_000);
    for seed in 0..seed_matrix().min(16) {
        let run = paxos::run_paxos(&unit.devices, 6, &chaos(seed, faults.clone(), 200_000));
        let (r, stats) = (run.result, run.stats);
        assert_eq!(r.conflicts, 0, "seed {seed}: {r:?}");
        assert_eq!(r.decided, r.proposals, "seed {seed}: {r:?}");
        assert_eq!(stats.device_restarts, 1, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// CACHE: read-your-last-write
// ---------------------------------------------------------------------------

const CACHE_KEYS: u64 = 6;

fn cache_cfg() -> cache::CacheConfig {
    cache::CacheConfig { slots: 16, words: 4, threshold: 8, sketch_cols: 256 }
}

/// Every GET issued after its key's PUT was acknowledged returns the
/// written value, whether the switch or the server answers.
#[test]
fn cache_reads_return_last_write_under_chaos() {
    let cfg = cache_cfg();
    let unit = compile("cache.ncl", &cache::netcl_source(&cfg));
    for seed in 0..seed_matrix() {
        let c = chaos(seed, FaultSchedule::new(), 200_000);
        let run = cache::run_coherence(&unit.devices[0], &cfg, CACHE_KEYS, &c);
        let (r, stats) = (run.result, run.stats);
        assert_eq!(r.stale, 0, "seed {seed}: stale reads: {r:?} stats={stats:?}");
        assert_eq!(r.completed, CACHE_KEYS, "seed {seed}: incomplete: {r:?}");
        assert_eq!(stats.unroutable, 0, "seed {seed}");
    }
}

/// A mid-run device restart wipes `_managed_` cache state; the driver's
/// restart hook repopulates it from the server's store, and coherence still
/// holds.
#[test]
fn cache_survives_device_restart() {
    let cfg = cache_cfg();
    let unit = compile("cache.ncl", &cache::netcl_source(&cfg));
    let faults = FaultSchedule::new().device_outage(1, 25_000, 80_000);
    for seed in 0..seed_matrix().min(16) {
        let run = cache::run_coherence(
            &unit.devices[0],
            &cfg,
            CACHE_KEYS,
            &chaos(seed, faults.clone(), 200_000),
        );
        let (r, stats) = (run.result, run.stats);
        assert_eq!(r.stale, 0, "seed {seed}: {r:?}");
        assert_eq!(r.completed, CACHE_KEYS, "seed {seed}: {r:?}");
        assert_eq!(stats.device_restarts, 1, "seed {seed}");
    }
}

// ---------------------------------------------------------------------------
// Replay determinism
// ---------------------------------------------------------------------------

/// Same `(seed, fault schedule)` → byte-identical `NetStats`: the contract
/// that makes any failing seed above replayable.
#[test]
fn replay_is_deterministic_agg() {
    let cfg = agg::AggConfig { num_workers: 3, num_slots: 4, slot_size: 8 };
    let unit = compile("agg.ncl", &agg::netcl_source(&cfg));
    let run = |seed| {
        let faults =
            FaultSchedule::new().link_outage(NodeId::Host(100), NodeId::Device(1), 40_000, 90_000);
        agg::run_allreduce(&unit.devices[0].tna_p4, &cfg, 8, 500, &chaos(seed, faults, 300_000))
            .stats
    };
    let (a, b) = (run(7), run(7));
    assert_eq!(a, b, "identical (seed, schedule) must replay identically");
    assert!(a.fault_drops > 0 || a.link_losses > 0, "the chaos regime actually fired: {a:?}");
}

/// The cache workload replays identically too, including a device restart
/// (the control-plane repopulation path is deterministic).
#[test]
fn replay_is_deterministic_cache() {
    let cfg = cache_cfg();
    let unit = compile("cache.ncl", &cache::netcl_source(&cfg));
    let faults = FaultSchedule::new().device_outage(1, 25_000, 80_000);
    let run = |seed| {
        let c = chaos(seed, faults.clone(), 200_000);
        cache::run_coherence(&unit.devices[0], &cfg, CACHE_KEYS, &c).stats
    };
    let (a, b) = (run(3), run(3));
    assert_eq!(a, b);
    assert_eq!(a.device_restarts, 1);
}

// ---------------------------------------------------------------------------
// Batched delivery equivalence (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// Sharded row of the matrix (ISSUE 7): scheduled faults landing on
/// *inter-shard* links — a link outage severing the host–device boundary
/// and a device outage wiping the kernel device — produce identical fault
/// counter breakdowns (`fault_drops`, `link_losses`, `device_restarts`,
/// per-node drops) sharded vs. scalar, for a sample of chaos seeds. The
/// fault schedule is replicated into every shard, so fault *state* agrees
/// even where the fault's endpoints live in different shards.
#[test]
fn sharded_fault_counters_equal_scalar_on_inter_shard_faults() {
    use netcl_bmv2::Switch;
    use netcl_net::topo::star;
    use netcl_net::{NetworkBuilder, NodeId, Partition};
    use netcl_runtime::message::Message;

    for app in netcl_apps::all_apps() {
        let unit = compile(app.name, &app.netcl_source);
        let p4 = unit.device(app.device).expect("kernel device").tna_p4.clone();
        let dev = app.device;
        let builder = |seed: u64| {
            NetworkBuilder::new(star(dev, &[1, 2], chaos_link()))
                .seed(seed)
                .device(dev, Switch::new(p4.clone()), 500)
                .sink_host(1)
                .sink_host(2)
                .faults(
                    FaultSchedule::new()
                        // h1–dev is an inter-shard link below.
                        .link_outage(NodeId::Host(1), NodeId::Device(dev), 30_000, 70_000)
                        .device_outage(dev, 90_000, 110_000),
                )
        };
        let drive = |send: &mut dyn FnMut(u32, u64, Vec<u8>)| {
            for round in 0..30u64 {
                let m = Message::new(1, 2, 1, dev);
                let mut bytes = Vec::new();
                m.write_header(&mut bytes);
                bytes.extend((0..64u64).map(|j| (round.wrapping_mul(13) ^ j) as u8));
                send(1, round * 5_000, bytes);
            }
        };
        // The partition puts the faulted link's endpoints in different
        // shards: the device with h2, h1 alone.
        let partition =
            Partition::new(vec![vec![NodeId::Device(dev), NodeId::Host(2)], vec![NodeId::Host(1)]]);
        for seed in 0..seed_matrix().min(16) {
            let scalar = {
                let mut net = builder(seed).build();
                drive(&mut |h, at, b| net.send_from_host(h, at, b));
                net.run(400_000);
                net.stats.clone()
            };
            assert!(scalar.fault_drops > 0, "{}: seed {seed}: faults must bite", app.name);
            assert_eq!(scalar.device_restarts, 1, "{}: seed {seed}", app.name);
            let mut net = builder(seed).build_sharded(partition.clone()).unwrap();
            drive(&mut |h, at, b| net.send_from_host(h, at, b));
            net.run(400_000);
            assert_eq!(
                scalar,
                net.stats(),
                "{}: sharded fault counters diverged at seed {seed}",
                app.name
            );
        }
    }
}

/// Gray-failure row of the chaos matrix (ISSUE 10): a mid-run slow-link
/// window — 10× transit and jitter on the client–device link, routing
/// deliberately left alone — stretches deliveries without dropping them.
/// Sharded runs (both window runners, the degraded link spanning the
/// shard boundary) stay byte-identical to scalar, and
/// `degraded_transits` counts every slowed transit identically.
#[test]
fn sharded_equals_scalar_under_gray_degraded_links() {
    use netcl_bmv2::Switch;
    use netcl_net::topo::star;
    use netcl_net::{NetworkBuilder, NodeId, Partition};
    use netcl_runtime::message::Message;

    for app in netcl_apps::all_apps() {
        let unit = compile(app.name, &app.netcl_source);
        let p4 = unit.device(app.device).expect("kernel device").tna_p4.clone();
        let dev = app.device;
        let builder = |seed: u64| {
            NetworkBuilder::new(star(dev, &[1, 2], chaos_link()))
                .seed(seed)
                .device(dev, Switch::new(p4.clone()), 500)
                .sink_host(1)
                .sink_host(2)
                .faults(
                    FaultSchedule::new()
                        // The h1–dev link crawls at 10× for most of the
                        // run; below, its endpoints live in different
                        // shards (the window widens the lookahead test).
                        .slow_link(NodeId::Host(1), NodeId::Device(dev), 10, 20_000, 110_000),
                )
        };
        let drive = |send: &mut dyn FnMut(u32, u64, Vec<u8>)| {
            for round in 0..30u64 {
                let m = Message::new(1, 2, 1, dev);
                let mut bytes = Vec::new();
                m.write_header(&mut bytes);
                bytes.extend((0..64u64).map(|j| (round.wrapping_mul(19) ^ j) as u8));
                send(1, round * 5_000, bytes);
            }
        };
        let partition =
            Partition::new(vec![vec![NodeId::Device(dev), NodeId::Host(2)], vec![NodeId::Host(1)]]);
        for seed in 0..seed_matrix().min(16) {
            let scalar = {
                let mut net = builder(seed).build();
                drive(&mut |h, at, b| net.send_from_host(h, at, b));
                net.run(400_000);
                net.stats.clone()
            };
            assert!(
                scalar.degraded_transits > 0,
                "{}: seed {seed}: the slow-link window must cover traffic",
                app.name
            );
            assert_eq!(
                scalar.fault_drops, 0,
                "{}: seed {seed}: a gray failure is not an outage — nothing fault-drops",
                app.name
            );
            for threaded in [false, true] {
                let mut net = builder(seed).build_sharded(partition.clone()).unwrap();
                net.set_threaded(threaded);
                drive(&mut |h, at, b| net.send_from_host(h, at, b));
                net.run(400_000);
                assert_eq!(
                    scalar,
                    net.stats(),
                    "{}: sharded (threaded={threaded}) diverged under gray failure at seed {seed}",
                    app.name
                );
            }
        }
    }
}

/// A link that cannot serialize (`gbps` zero or denormal) and a degrade
/// multiplier past the range of time saturate: the message is due at
/// `u64::MAX`, which no run reaches. Unchecked, the sum panicked in a debug
/// build and wrapped in release — the message arrived *early*, silently. CI
/// runs this suite both ways. NaN and negative `gbps` read as zero
/// serialization, as they always did.
#[test]
fn unservable_links_deliver_within_no_horizon() {
    use netcl_net::{Fault, NetworkBuilder, Topology};
    use netcl_runtime::message::Message;

    let (h1, h2) = (NodeId::Host(1), NodeId::Host(2));
    // When host 2 has the one message host 1 sends at t=1000, if ever.
    let arrival = |spec: LinkSpec, degrade: Option<u64>| {
        let mut topo = Topology::new();
        topo.link(h1, h2, spec);
        let mut b = NetworkBuilder::new(topo).sink_host(1).sink_host(2);
        if let Some(mult) = degrade {
            b = b.fault(0, Fault::LinkDegrade(h1, h2, mult));
        }
        let mut net = b.build();
        let mut bytes = Vec::new();
        Message::new(1, 2, 1, netcl_runtime::device::NO_DEVICE).write_header(&mut bytes);
        net.send_from_host(1, 1_000, bytes);
        net.run(100);
        assert_eq!(net.stats.per_node.get(&h2).map_or(0, |c| c.dropped), 0, "late, not lost");
        net.host_received(2).first().map(|&(at, _)| at)
    };
    let ok = LinkSpec::default();
    let header_ns = ok.transit_ns(netcl_runtime::NCL_HEADER_BYTES);
    assert_eq!(arrival(ok, None), Some(1_000 + header_ns));
    assert_eq!(arrival(ok, Some(3)), Some(1_000 + 3 * header_ns));
    for gbps in [0.0, f64::MIN_POSITIVE] {
        assert_eq!(arrival(LinkSpec { gbps, ..ok }, None), None, "gbps {gbps:e}");
    }
    for spec in [ok, LinkSpec { jitter_ns: 7, reorder: 1.0, reorder_ns: 9, ..ok }] {
        assert_eq!(arrival(spec, Some(u64::MAX)), None, "{spec:?} degraded by u64::MAX");
    }
    for gbps in [f64::NAN, -100.0] {
        assert_eq!(arrival(LinkSpec { gbps, ..ok }, None), Some(1_000 + ok.latency_ns));
    }
}

/// Delivery of same-timestamp bursts is engine-uniform for every Table III
/// application under the full chaos regime — loss, corruption,
/// duplication, jitter, reordering, a device failure, and a restart —
/// across a seed matrix: the threaded engine and the interpreter oracle
/// must produce field-for-field equal `NetStats` and `SwitchCounters`.
/// (Same-timestamp arrivals are delivered one at a time in pop order; the
/// order tests in `crates/net/src/sim/mod.rs` pin that.)
#[test]
fn burst_delivery_is_engine_uniform_under_chaos_all_apps() {
    use netcl_bmv2::{Engine, Switch};
    use netcl_net::topo::star;
    use netcl_net::{Fault, NetworkBuilder};
    use netcl_runtime::message::Message;

    for app in netcl_apps::all_apps() {
        let unit = compile(app.name, &app.netcl_source);
        let p4 = unit.device(app.device).expect("kernel device").tna_p4.clone();
        let dev = app.device;
        let run = |engine: Engine, seed: u64| {
            let topo = star(dev, &[1, 2], chaos_link());
            let mut sw = Switch::new(p4.clone());
            sw.set_engine(engine);
            let mut net = NetworkBuilder::new(topo)
                .seed(seed)
                .device(dev, sw, 500)
                .sink_host(1)
                .sink_host(2)
                .fault(40_000, Fault::DeviceFail(dev))
                .fault(80_000, Fault::DeviceRestart(dev))
                .build();
            // Same-timestamp bursts of pseudo-random payloads: some parse,
            // some reject — equivalence must hold either way.
            for round in 0..25u64 {
                for i in 0..4u64 {
                    let m = Message::new(1, 2, 1, dev);
                    let mut bytes = Vec::new();
                    m.write_header(&mut bytes);
                    bytes.extend(
                        (0..96u64).map(|j| (round.wrapping_mul(31) ^ i.wrapping_mul(7) ^ j) as u8),
                    );
                    net.send_from_host(1, round * 5_000, bytes);
                }
            }
            net.run(500_000);
            assert_eq!(
                net.switch(dev).unwrap().engine(),
                engine,
                "{}: engine selection must survive the device restart",
                app.name
            );
            (net.stats.clone(), net.switch(dev).unwrap().counters().clone())
        };
        for seed in [1u64, 7, 42] {
            let threaded = run(Engine::Threaded, seed);
            let oracle = run(Engine::Interpreted, seed);
            assert!(
                threaded == oracle,
                "{}: engines diverged at seed {seed}:\n{:#?}\nvs\n{:#?}",
                app.name,
                threaded,
                oracle
            );
            assert!(threaded.0.kernel_executions > 0, "{}: no kernel traffic", app.name);
            assert_eq!(threaded.0.device_restarts, 1, "{}: restart fault must fire", app.name);
            assert!(
                threaded.1.packets > 0,
                "{}: the restarted switch must still see packets",
                app.name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Runtime reconfiguration under chaos (DESIGN.md §16)
// ---------------------------------------------------------------------------

/// The lookup + managed-register unit the reconfiguration tests drive: a
/// table the control plane updates live, and a register whose fate
/// distinguishes an update (state preserved) from a restart (state wiped).
const RECONF_SRC: &str = r#"
_managed_ unsigned epoch;
_managed_ _lookup_ ncl::kv<unsigned, unsigned> rules[8] = {{1, 42}};
_kernel(1) _at(1) void k(unsigned key, unsigned &v, char &hit, unsigned &e) {
  hit = ncl::lookup(rules, key, v);
  e = epoch;
}
"#;

/// Queries `key` directly on the device switch and returns `(v, hit, e)`.
fn reconf_query(
    unit: &netcl::CompiledUnit,
    sw: &mut netcl_bmv2::Switch,
    key: u64,
) -> (u64, u64, u64) {
    use netcl_runtime::message::{pack, unpack, Message};
    let spec = unit.model.kernels[0].specification();
    let m = Message::new(1, 2, 1, 1);
    let packed = pack(&m, &spec, &[Some(&[key]), None, None, None]).unwrap();
    let (_, out) = sw.process(&packed).unwrap();
    let (mut v, mut hit, mut e) = (Vec::new(), Vec::new(), Vec::new());
    unpack(&out, &spec, &mut [None, Some(&mut v), Some(&mut hit), Some(&mut e)]).unwrap();
    (v[0], hit[0], e[0])
}

/// Scheduled rule updates race a device failure and restart under the
/// chaos link: updates applied before or at the restart survive it (the
/// simulator journals and replays them), an update landing on the failed
/// device is rejected and stays gone, and the whole run replays
/// byte-identically. A full reload (fresh `Switch`) loses the same rules —
/// the contrast the live control plane exists for.
#[test]
fn rule_updates_survive_restart_and_replay_deterministically() {
    use netcl::sema::model::LookupEntry;
    use netcl_bmv2::Switch;
    use netcl_net::topo::star;
    use netcl_net::{Fault, NetworkBuilder};
    use netcl_runtime::message::Message;

    let unit = compile("reconf.ncl", RECONF_SRC);
    let p4 = unit.devices[0].tna_p4.clone();
    let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
    // Batches are built against a template switch: the table layout is a
    // pure function of the program, so they apply to any instance of it.
    let template = Switch::new(p4.clone());
    let u9 =
        mm.build_insert(&template, "rules", &LookupEntry::Exact { key: 9, value: 77 }).unwrap();
    let u5 =
        mm.build_insert(&template, "rules", &LookupEntry::Exact { key: 5, value: 55 }).unwrap();
    let u3 =
        mm.build_insert(&template, "rules", &LookupEntry::Exact { key: 3, value: 33 }).unwrap();
    let ops_per_batch = u9.len() as u64;

    let run = |seed: u64| {
        let mut net = NetworkBuilder::new(star(1, &[1, 2], chaos_link()))
            .seed(seed)
            .device(1, Switch::new(p4.clone()), 500)
            .sink_host(1)
            .sink_host(2)
            .fault(40_000, Fault::DeviceFail(1))
            .fault(80_000, Fault::DeviceRestart(1))
            .update(20_000, 1, u9.clone()) // applied live, journaled
            .update(60_000, 1, u5.clone()) // device is down: rejected
            .update(80_000, 1, u3.clone()) // same tick as the restart: fault orders first
            .build();
        net.switch_mut(1).unwrap().register_write("epoch", 0, 7);
        for round in 0..30u64 {
            let m = Message::new(1, 2, 1, 1);
            let mut bytes = Vec::new();
            m.write_header(&mut bytes);
            bytes.extend((0..32u64).map(|j| (round.wrapping_mul(17) ^ j) as u8));
            net.send_from_host(1, round * 5_000, bytes);
        }
        net.run(400_000);
        let counters = net.switch(1).unwrap().counters().clone();
        let queries: Vec<(u64, u64, u64)> = [9, 3, 5, 1]
            .iter()
            .map(|&k| reconf_query(&unit, net.switch_mut(1).unwrap(), k))
            .collect();
        (net.stats.clone(), counters, queries)
    };

    for seed in 0..seed_matrix().min(8) {
        let (stats, counters, queries) = run(seed);
        assert_eq!(stats.device_restarts, 1, "seed {seed}");
        assert_eq!(stats.rule_updates, 2, "seed {seed}: u9 and u3 apply (u3 after the restart)");
        assert_eq!(stats.rule_update_rejects, 1, "seed {seed}: u5 hit the failed device");
        // The restart resets counters; what remains is the journal replay
        // of u9 plus the same-tick u3 batch.
        assert_eq!(counters.table_updates, 2 * ops_per_batch, "seed {seed}");
        // Updated rules survived the restart via the journal...
        assert_eq!((queries[0].0, queries[0].1), (77, 1), "seed {seed}: u9 lost by restart");
        assert_eq!((queries[1].0, queries[1].1), (33, 1), "seed {seed}: u3 lost");
        // ...the rejected one stayed gone, and static entries came back.
        assert_eq!(queries[2].1, 0, "seed {seed}: rejected update resurrected");
        assert_eq!((queries[3].0, queries[3].1), (42, 1), "seed {seed}: static entry");
        // The restart DID wipe registers — that is what distinguishes a
        // live table update from a reload.
        assert_eq!(queries[0].2, 0, "seed {seed}: epoch should be factory-reset");
        // A full reload loses every live rule the journal preserved.
        let mut fresh = Switch::new(p4.clone());
        assert_eq!(reconf_query(&unit, &mut fresh, 9).1, 0, "reload keeps live rules?");
    }
    // Replay determinism: same (seed, schedule) → byte-identical run.
    assert_eq!(run(11), run(11));
}

/// The same chaos schedule — traffic, faults, and live rule updates — on
/// the threaded and interpreter engines: `NetStats`, the
/// device's `SwitchCounters`, and post-run rule visibility are identical.
/// The differential contract covers runtime reconfiguration.
#[test]
fn rule_updates_are_engine_uniform_under_chaos() {
    use netcl::sema::model::LookupEntry;
    use netcl_bmv2::{Engine, Switch};
    use netcl_net::topo::star;
    use netcl_net::{Fault, NetworkBuilder};
    use netcl_runtime::message::Message;

    let unit = compile("reconf.ncl", RECONF_SRC);
    let p4 = unit.devices[0].tna_p4.clone();
    let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
    let template = Switch::new(p4.clone());
    let ins =
        mm.build_insert(&template, "rules", &LookupEntry::Exact { key: 6, value: 66 }).unwrap();
    let del = mm.build_remove(&template, "rules", 1).unwrap();

    let run = |engine: Engine, seed: u64| {
        let mut sw = Switch::new(p4.clone());
        sw.set_engine(engine);
        let mut net = NetworkBuilder::new(star(1, &[1, 2], chaos_link()))
            .seed(seed)
            .device(1, sw, 500)
            .sink_host(1)
            .sink_host(2)
            .fault(50_000, Fault::DeviceFail(1))
            .fault(70_000, Fault::DeviceRestart(1))
            .update(30_000, 1, ins.clone())
            .update(90_000, 1, del.clone())
            .build();
        for round in 0..20u64 {
            let m = Message::new(1, 2, 1, 1);
            let mut bytes = Vec::new();
            m.write_header(&mut bytes);
            bytes.extend((0..32u64).map(|j| (round.wrapping_mul(23) ^ j) as u8));
            net.send_from_host(1, round * 6_000, bytes);
        }
        net.run(400_000);
        let counters = net.switch(1).unwrap().counters().clone();
        let queries: Vec<(u64, u64, u64)> =
            [6, 1].iter().map(|&k| reconf_query(&unit, net.switch_mut(1).unwrap(), k)).collect();
        (net.stats.clone(), counters, queries)
    };

    for seed in [2u64, 13] {
        let t = run(Engine::Threaded, seed);
        let i = run(Engine::Interpreted, seed);
        assert_eq!(t, i, "threaded vs interpreted diverged at seed {seed}");
        assert_eq!(t.0.rule_updates, 2, "seed {seed}");
        assert_eq!((t.2[0].0, t.2[0].1), (66, 1), "seed {seed}: inserted rule live");
        assert_eq!(t.2[1].1, 0, "seed {seed}: removed rule still hit");
    }
}

/// Scheduled rule updates under sharding: the schedule is replicated into
/// every shard (event keys agree) but applied owner-only, so the merged
/// `NetStats` — including `rule_updates` — are byte-identical to the
/// scalar run even when the update's device and the traffic source live
/// in different shards.
#[test]
fn sharded_rule_updates_equal_scalar() {
    use netcl::sema::model::LookupEntry;
    use netcl_bmv2::Switch;
    use netcl_net::topo::star;
    use netcl_net::{Fault, NetworkBuilder, NodeId, Partition};
    use netcl_runtime::message::Message;

    let unit = compile("reconf.ncl", RECONF_SRC);
    let p4 = unit.devices[0].tna_p4.clone();
    let mm = ManagedMemory::new(&unit.devices[0].tna_ir);
    let template = Switch::new(p4.clone());
    let ins =
        mm.build_insert(&template, "rules", &LookupEntry::Exact { key: 4, value: 44 }).unwrap();
    let upd =
        mm.build_modify(&template, "rules", &LookupEntry::Exact { key: 1, value: 99 }).unwrap();

    let builder = |seed: u64| {
        NetworkBuilder::new(star(1, &[1, 2], chaos_link()))
            .seed(seed)
            .device(1, Switch::new(p4.clone()), 500)
            .sink_host(1)
            .sink_host(2)
            .fault(45_000, Fault::DeviceFail(1))
            .fault(75_000, Fault::DeviceRestart(1))
            .update(25_000, 1, ins.clone())
            .update(75_000, 1, upd.clone())
    };
    let drive = |send: &mut dyn FnMut(u32, u64, Vec<u8>)| {
        for round in 0..25u64 {
            let m = Message::new(1, 2, 1, 1);
            let mut bytes = Vec::new();
            m.write_header(&mut bytes);
            bytes.extend((0..32u64).map(|j| (round.wrapping_mul(29) ^ j) as u8));
            send(1, round * 5_000, bytes);
        }
    };
    let partition =
        Partition::new(vec![vec![NodeId::Device(1), NodeId::Host(2)], vec![NodeId::Host(1)]]);
    for seed in 0..seed_matrix().min(8) {
        let (scalar_stats, scalar_regs) = {
            let mut net = builder(seed).build();
            drive(&mut |h, at, b| net.send_from_host(h, at, b));
            net.run(400_000);
            let regs: Vec<(String, Vec<u64>)> = net
                .switch(1)
                .unwrap()
                .registers()
                .map(|(n, c)| (n.to_string(), c.to_vec()))
                .collect();
            (net.stats.clone(), regs)
        };
        assert_eq!(scalar_stats.rule_updates, 2, "seed {seed}");
        let mut net = builder(seed).build_sharded(partition.clone()).unwrap();
        drive(&mut |h, at, b| net.send_from_host(h, at, b));
        net.run(400_000);
        assert_eq!(scalar_stats, net.stats(), "seed {seed}: sharded stats diverged");
        let sharded_regs: Vec<(String, Vec<u64>)> =
            net.switch(1).unwrap().registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect();
        assert_eq!(scalar_regs, sharded_regs, "seed {seed}: device state diverged");
        let (v, hit, _) = reconf_query(&unit, net.switch_mut(1).unwrap(), 4);
        assert_eq!((v, hit), (44, 1), "seed {seed}: update missing in sharded run");
        let (v, hit, _) = reconf_query(&unit, net.switch_mut(1).unwrap(), 1);
        assert_eq!((v, hit), (99, 1), "seed {seed}: modify missing in sharded run");
    }
}

// ---------------------------------------------------------------------------
// Tenant isolation (DESIGN.md §17)
// ---------------------------------------------------------------------------

/// Compiles AGG (tenant 0) and CACHE (tenant 1) into one merged switch
/// program under the default budgets. The app shapes are shrunk (AGG
/// slot_size 8, CACHE words 4) so both tenants' headers fit one PHV.
fn merged_two_tenants() -> (netcl::MergedCompilation, agg::AggConfig, cache::CacheConfig) {
    let acfg = agg::AggConfig { num_workers: 3, num_slots: 4, slot_size: 8 };
    let ccfg = cache_cfg();
    let asrc = agg::netcl_source(&acfg);
    let csrc = cache::netcl_source(&ccfg);
    let sources = [
        netcl::TenantSource { tenant: 0, name: "agg.ncl", source: &asrc },
        netcl::TenantSource { tenant: 1, name: "cache.ncl", source: &csrc },
    ];
    let merged =
        netcl::compile_tenants(&sources, 1, &netcl::CompileOptions::default(), &Default::default())
            .expect("AGG + CACHE must fit the default per-tenant budgets");
    (merged, acfg, ccfg)
}

/// The comp→tenant map [`netcl_bmv2::Switch::set_tenants`] takes, derived
/// from the merged unit's per-tenant maps.
fn tenant_comps(merged: &netcl::MergedCompilation) -> Vec<(u8, u16)> {
    merged
        .tenants
        .iter()
        .flat_map(|s| s.map.comps.iter().map(move |&(_, m)| (m, s.tenant)))
        .collect()
}

/// Rewrites the shim header's comp byte to the merged computation id —
/// the app packet builders emit each tenant's *original* id.
fn with_comp(mut bytes: Vec<u8>, comp: u8) -> Vec<u8> {
    bytes[8] = comp;
    bytes
}

/// AGG traffic: 12 chunk rounds from 3 workers, clustered mid-decade so
/// no arrival lands near the fault boundaries at 48 µs and 88 µs (queueing
/// skew from the other tenant must not push a packet across an outage
/// edge in the merged run but not the solo one).
fn agg_stream(acfg: &agg::AggConfig, comp: u8, send: &mut dyn FnMut(u32, u64, Vec<u8>)) {
    for c in 0..12u32 {
        for w in 0..3u32 {
            let at = 3_000 + c as u64 * 10_000 + w as u64 * 300;
            send(100 + w, at, with_comp(agg::chunk_packet(acfg, w, c), comp));
        }
    }
}

/// CACHE traffic: 12 GETs from host 1 against keys 0..6 — key 1 is
/// populated, so both the hit (reflect) and miss (forward to the server
/// host 2) paths run. Offset from the AGG clusters.
fn cache_stream(ccfg: &cache::CacheConfig, comp: u8, send: &mut dyn FnMut(u32, u64, Vec<u8>)) {
    for r in 0..12u64 {
        let at = 6_000 + r * 10_000;
        let req = cache::request(ccfg, 1, 2, cache::OP_GET, r % CACHE_KEYS, None);
        send(1, at, with_comp(req, comp));
    }
}

/// A device restart plus a tenant-1-scoped rule-update stream (applied
/// live, rejected during the outage, journal-replayed across the restart)
/// leave tenant 0's per-tenant counters, registers, and its hosts'
/// received payloads **byte-identical** to tenant 0's dedicated-switch
/// solo run — and symmetrically for tenant 1. Links are lossless and
/// deterministic here: byte-identity against a solo run is only defined
/// when the merged run's extra traffic draws no chaos randomness.
#[test]
fn tenant_isolation_restart_and_updates_leave_other_tenant_byte_identical() {
    use netcl::sema::model::LookupEntry;
    use netcl_bmv2::Switch;
    use netcl_net::topo::star;
    use netcl_net::{Fault, Network, NetworkBuilder};
    use netcl_runtime::ManagedError;

    let (merged, acfg, ccfg) = merged_two_tenants();
    let agg_comp = merged.tenant(0).unwrap().map.comp(1).unwrap();
    let cache_comp = merged.tenant(1).unwrap().map.comp(1).unwrap();
    let comps = tenant_comps(&merged);
    let merged_p4 = merged.merged.tna_p4.clone();
    let solo0_p4 = merged.tenant(0).unwrap().solo.tna_p4.clone();
    let solo1 = merged.tenant(1).unwrap().solo.clone();
    let solo1_tenant1 = ManagedMemory::for_tenant(&solo1.tna_ir, 1);

    // Tenant 1's populate and update stream, through a tenant-scoped
    // handle: bare names resolve inside its namespace; the batches are
    // name-based, so they apply identically to the merged switch and tenant
    // 1's solo switch (the merge preserves per-tenant table names).
    let tenant1 = ManagedMemory::for_tenant(&merged.merged.tna_ir, 1);
    let template = Switch::new(merged_p4.clone());
    let ins3 =
        tenant1.build_insert(&template, "index", &LookupEntry::Exact { key: 3, value: 1 }).unwrap();
    let ins4 =
        tenant1.build_insert(&template, "index", &LookupEntry::Exact { key: 4, value: 2 }).unwrap();
    let ins5 =
        tenant1.build_insert(&template, "index", &LookupEntry::Exact { key: 5, value: 3 }).unwrap();
    // A tenant-0-scoped handle cannot even *build* a batch against tenant
    // 1's tables — the cross-tenant guard fires before any switch is
    // touched.
    let tenant0 = ManagedMemory::for_tenant(&merged.merged.tna_ir, 0);
    assert!(
        matches!(
            tenant0.build_insert(&template, "t1__index", &LookupEntry::Exact { key: 9, value: 0 }),
            Err(ManagedError::CrossTenant { tenant: 0, .. })
        ),
        "tenant-0 plane must reject tenant-1 tables"
    );

    let hosts = [1u32, 2, 100, 101, 102];
    let base = |sw: Switch| {
        // Group 42 is AGG's multicast target: the completed aggregate fans
        // out to the three workers.
        let mut topo = star(1, &hosts, LinkSpec::default());
        topo.multicast_group(42, vec![NodeId::Host(100), NodeId::Host(101), NodeId::Host(102)]);
        let mut b = NetworkBuilder::new(topo)
            .seed(5)
            .device(1, sw, 500)
            .fault(48_000, Fault::DeviceFail(1))
            .fault(88_000, Fault::DeviceRestart(1));
        for &h in &hosts {
            b = b.sink_host(h);
        }
        b
    };
    let payloads = |net: &Network, h: u32| -> Vec<Vec<u8>> {
        net.host_received(h).iter().map(|(_, b)| b.clone()).collect()
    };
    let tenant_regs = |net: &Network, tenant: u16| -> Vec<(String, Vec<u64>)> {
        net.switch(1)
            .unwrap()
            .registers()
            .filter(|(n, _)| netcl::util::tenant::of(n) == Some(tenant))
            .map(|(n, c)| (n.to_string(), c.to_vec()))
            .collect()
    };
    let updates = |b: NetworkBuilder| {
        b.update(25_000, 1, ins3.clone()) // applied live, journaled
            .update(60_000, 1, ins5.clone()) // device is down: rejected
            .update(95_000, 1, ins4.clone()) // applied after the restart
    };

    // Merged run: both tenants' traffic, the restart, and tenant 1's
    // update stream on one switch. The restart hook re-applies the
    // comp→tenant map (a fresh switch knows no tenants).
    let merged_net = {
        let mut sw = Switch::new(merged_p4.clone());
        sw.set_tenants(&comps);
        cache::populate(&tenant1, &mut sw, &ccfg, 0, 1, &cache::server_value(&ccfg, 1));
        let hook_comps = comps.clone();
        let mut net = updates(base(sw))
            .on_restart(1, Box::new(move |sw| sw.set_tenants(&hook_comps)))
            .build();
        agg_stream(&acfg, agg_comp, &mut |h, at, b| net.send_from_host(h, at, b));
        cache_stream(&ccfg, cache_comp, &mut |h, at, b| net.send_from_host(h, at, b));
        net.run(400_000);
        net
    };
    assert_eq!(merged_net.stats.device_restarts, 1);
    assert_eq!(merged_net.stats.rule_updates, 2, "live + post-restart batches apply");
    assert_eq!(merged_net.stats.rule_update_rejects, 1, "mid-outage batch is rejected");

    // Tenant 0's solo baseline: its namespaced program alone, same fault
    // schedule, only its own traffic, no update stream.
    let solo0_net = {
        let mut net = base(Switch::new(solo0_p4.clone())).build();
        agg_stream(&acfg, agg_comp, &mut |h, at, b| net.send_from_host(h, at, b));
        net.run(400_000);
        net
    };
    // Tenant 1's solo baseline: same faults AND the same update stream.
    let solo1_net = {
        let mut sw = Switch::new(solo1.tna_p4.clone());
        cache::populate(&solo1_tenant1, &mut sw, &ccfg, 0, 1, &cache::server_value(&ccfg, 1));
        let mut net = updates(base(sw)).build();
        cache_stream(&ccfg, cache_comp, &mut |h, at, b| net.send_from_host(h, at, b));
        net.run(400_000);
        net
    };

    // Tenant 0 is untouched by tenant 1's restart-window updates: its
    // per-tenant counters equal the solo run's *global* counters, its
    // registers match, and every AGG worker saw byte-identical payloads.
    let t0 = merged_net.switch(1).unwrap().tenant_counters(0);
    let solo0_counters = solo0_net.switch(1).unwrap().counters().clone();
    assert_eq!(t0.packets, solo0_counters.packets, "tenant 0 packet count diverged from solo");
    assert_eq!(t0.reg_action_execs, solo0_counters.reg_action_execs, "tenant 0 SALU execs");
    assert!(t0.reg_action_execs > 0, "AGG must exercise RegisterActions");
    assert_eq!(tenant_regs(&merged_net, 0), tenant_regs(&solo0_net, 0), "tenant 0 registers");
    for h in [100u32, 101, 102] {
        assert!(!payloads(&solo0_net, h).is_empty(), "worker {h} must receive aggregates");
        assert_eq!(payloads(&merged_net, h), payloads(&solo0_net, h), "worker {h} payloads");
    }

    // And symmetrically for tenant 1 — including its table stats, so the
    // journal-replayed inserts landed identically on both switches.
    let t1 = merged_net.switch(1).unwrap().tenant_counters(1);
    let solo1_counters = solo1_net.switch(1).unwrap().counters().clone();
    assert_eq!(t1.packets, solo1_counters.packets, "tenant 1 packet count diverged from solo");
    assert_eq!(t1.reg_action_execs, solo1_counters.reg_action_execs, "tenant 1 SALU execs");
    assert_eq!(
        merged_net.switch(1).unwrap().tenant_table_stats(1),
        solo1_net.switch(1).unwrap().tenant_table_stats(1),
        "tenant 1 table hit/miss breakdown"
    );
    assert_eq!(tenant_regs(&merged_net, 1), tenant_regs(&solo1_net, 1), "tenant 1 registers");
    assert!(!payloads(&solo1_net, 2).is_empty(), "cache misses must reach the server");
    assert_eq!(payloads(&merged_net, 1), payloads(&solo1_net, 1), "cache client payloads");
    assert_eq!(payloads(&merged_net, 2), payloads(&solo1_net, 2), "cache server payloads");
}

/// The merged two-tenant switch under the full chaos regime — loss,
/// duplication, corruption, reordering, a failure, a restart, and a
/// tenant-scoped update stream — produces identical `NetStats` and
/// `SwitchCounters` (including the per-tenant sub-views) on both
/// engines, and the sharded run matches the scalar one field-for-field.
#[test]
fn tenant_isolation_chaos_engine_matrix_sharded_equals_scalar() {
    use netcl::sema::model::LookupEntry;
    use netcl_bmv2::{Engine, Switch};
    use netcl_net::topo::star;
    use netcl_net::{Fault, NetworkBuilder, Partition};

    let (merged, acfg, ccfg) = merged_two_tenants();
    let agg_comp = merged.tenant(0).unwrap().map.comp(1).unwrap();
    let cache_comp = merged.tenant(1).unwrap().map.comp(1).unwrap();
    let comps = tenant_comps(&merged);
    let p4 = merged.merged.tna_p4.clone();
    let tenant1 = ManagedMemory::for_tenant(&merged.merged.tna_ir, 1);
    let template = Switch::new(p4.clone());
    let ins =
        tenant1.build_insert(&template, "index", &LookupEntry::Exact { key: 3, value: 1 }).unwrap();

    let hosts = [1u32, 2, 100, 101, 102];
    let builder = |engine: Engine, seed: u64| {
        let mut sw = Switch::new(p4.clone());
        sw.set_engine(engine);
        sw.set_tenants(&comps);
        cache::populate(&tenant1, &mut sw, &ccfg, 0, 1, &cache::server_value(&ccfg, 1));
        let hook_comps = comps.clone();
        let mut topo = star(1, &hosts, chaos_link());
        topo.multicast_group(42, vec![NodeId::Host(100), NodeId::Host(101), NodeId::Host(102)]);
        let mut b = NetworkBuilder::new(topo)
            .seed(seed)
            .device(1, sw, 500)
            .fault(48_000, Fault::DeviceFail(1))
            .fault(88_000, Fault::DeviceRestart(1))
            .update(25_000, 1, ins.clone())
            .on_restart(1, Box::new(move |sw| sw.set_tenants(&hook_comps)));
        for &h in &hosts {
            b = b.sink_host(h);
        }
        b
    };
    let drive = |send: &mut dyn FnMut(u32, u64, Vec<u8>)| {
        agg_stream(&acfg, agg_comp, send);
        cache_stream(&ccfg, cache_comp, send);
    };
    // Host 1 (the cache client) lives in a different shard from the
    // device, so both tenants' traffic and the update stream cross the
    // shard boundary.
    let partition = Partition::new(vec![
        vec![
            NodeId::Device(1),
            NodeId::Host(2),
            NodeId::Host(100),
            NodeId::Host(101),
            NodeId::Host(102),
        ],
        vec![NodeId::Host(1)],
    ]);

    for seed in [3u64, 17] {
        let mut first: Option<(netcl_net::NetStats, netcl_bmv2::SwitchCounters)> = None;
        for engine in [Engine::Threaded, Engine::Interpreted] {
            let mut net = builder(engine, seed).build();
            drive(&mut |h, at, b| net.send_from_host(h, at, b));
            net.run(400_000);
            let run = (net.stats.clone(), net.switch(1).unwrap().counters().clone());
            if let Some(prev) = &first {
                assert!(
                    *prev == run,
                    "[{}] diverged at seed {seed}:\n{:#?}\nvs\n{:#?}",
                    engine.name(),
                    prev,
                    run
                );
            } else {
                assert_eq!(run.0.device_restarts, 1, "seed {seed}");
                let (t0, t1) = (run.1.tenants.get(&0), run.1.tenants.get(&1));
                assert!(
                    t0.is_some_and(|t| t.packets > 0) && t1.is_some_and(|t| t.packets > 0),
                    "seed {seed}: both tenants must see traffic under chaos: {:?}",
                    run.1.tenants
                );
                let attributed: u64 = run.1.tenants.values().map(|t| t.packets).sum();
                assert!(
                    attributed <= run.1.packets,
                    "seed {seed}: attributed {attributed} > total {}",
                    run.1.packets
                );
                first = Some(run);
            }
        }
        let (scalar_stats, scalar_counters) = first.unwrap();
        let mut net = builder(Engine::Threaded, seed).build_sharded(partition.clone()).unwrap();
        drive(&mut |h, at, b| net.send_from_host(h, at, b));
        net.run(400_000);
        assert_eq!(scalar_stats, net.stats(), "seed {seed}: sharded stats diverged");
        assert_eq!(
            scalar_counters,
            net.switch(1).unwrap().counters().clone(),
            "seed {seed}: sharded per-tenant counters diverged"
        );
    }
}
