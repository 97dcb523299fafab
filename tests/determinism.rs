//! Cross-shard determinism suite: a sharded run is byte-identical to the
//! single-threaded run with the same `(seed, schedule)` — merged
//! `NetStats`, per-device `SwitchCounters`, and every host's received
//! byte stream. This is the Eq-replay contract (DESIGN.md §11) surviving
//! the shard runner (DESIGN.md §15) verbatim.
//!
//! Each equivalence is asserted three ways per app and seed: scalar
//! (plain [`netcl_net::Network`], the oracle), sharded with rounds executed
//! inline, and sharded with rounds executed on a thread per shard — so a
//! divergence blames either the window protocol or thread scheduling,
//! never both at once. One planner drives both executors, so they must
//! also report the same number of rounds.
//!
//! CI runs this suite at 34 `NETCL_DETERMINISM_SEED` bases (0–31, 100
//! and 200) with unconstrained `--test-threads`, so a lucky interleaving
//! cannot hide scheduling nondeterminism, and once more pinned to a single
//! core (`taskset -c 0`), where every shard thread has to give the core
//! away to the one it waits for.
//!
//! The star topologies above put every node one hop from the device; the
//! fat-tree tests at the end run the same contract where it is meant to
//! be used — a partitioned multi-hop fabric, up to 101 306 hosts.

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use netcl::{CompileOptions, CompiledUnit, Compiler, EmitTarget};
use netcl_apps::calc;
use netcl_bmv2::{Switch, SwitchCounters};
use netcl_net::topo::star;
use netcl_net::{
    FatTree, Fault, Flow, FlowStream, LinkSpec, NetStats, NetworkBuilder, NodeCounters, NodeId,
    Partition, PrecomputedRoutes, ShardedNetwork, Zipf,
};
use netcl_runtime::message::{pack, unpack, Message};

fn compile(name: &str, src: &str) -> CompiledUnit {
    Compiler::new(CompileOptions::default()).compile(name, src).unwrap()
}

/// Seed-matrix base, varied in CI (`NETCL_DETERMINISM_SEED`) so the suite
/// does not always test the same eight seeds.
fn seed_base() -> u64 {
    std::env::var("NETCL_DETERMINISM_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// Runs `f` on a thread of its own and returns what it returns, its panic
/// included — or fails once `limit` has passed, so a rendezvous that never
/// completes is a failed test, not a stuck suite.
fn finishes_within<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = done_tx.send(f());
    });
    match done_rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(RecvTimeoutError::Timeout) => panic!("still running after {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("dropped the sender unsent"))
        }
    }
}

/// The full chaos regime: 20% loss, duplication, reordering, jitter.
fn chaos_link() -> LinkSpec {
    LinkSpec::chaos(0.2)
}

/// Everything a run can observably produce: merged stats, the kernel
/// device's counters, and each host's timestamped byte stream.
#[derive(Debug, PartialEq)]
struct RunOutcome {
    stats: NetStats,
    counters: SwitchCounters,
    received: Vec<Vec<(u64, Vec<u8>)>>,
}

/// The shared driver: hosts 1..=4 on one kernel device, same-timestamp
/// bursts of pseudo-random payloads from two different source hosts, a
/// device outage mid-run, and one send from a host the topology does not
/// know (unroutable in every runner). Identical injection sequence for
/// scalar and sharded runs.
fn drive_star<N>(
    net: &mut N,
    dev: u16,
    send: impl Fn(&mut N, u32, u64, Vec<u8>),
    run: impl Fn(&mut N, u64) -> u64,
) {
    for round in 0..25u64 {
        for i in 0..4u64 {
            let (src, dst) = if i % 2 == 0 { (1, 2) } else { (3, 4) };
            let m = Message::new(src, dst, 1, dev);
            let mut bytes = Vec::new();
            m.write_header(&mut bytes);
            bytes
                .extend((0..96u64).map(|j| (round.wrapping_mul(31) ^ i.wrapping_mul(7) ^ j) as u8));
            send(net, src as u32, round * 5_000, bytes);
        }
    }
    let mut stray = Vec::new();
    Message::new(1, 2, 1, dev).write_header(&mut stray);
    send(net, 9_999, 7_500, stray);
    run(net, 500_000);
}

fn star_builder(dev: u16, p4: &netcl_p4::P4Program, seed: u64) -> NetworkBuilder {
    NetworkBuilder::new(star(dev, &[1, 2, 3, 4], chaos_link()))
        .seed(seed)
        .device(dev, Switch::new(p4.clone()), 500)
        .sink_host(1)
        .sink_host(2)
        .sink_host(3)
        .sink_host(4)
        .fault(40_000, Fault::DeviceFail(dev))
        .fault(80_000, Fault::DeviceRestart(dev))
}

fn scalar_outcome(dev: u16, p4: &netcl_p4::P4Program, seed: u64) -> RunOutcome {
    let mut net = star_builder(dev, p4, seed).build();
    drive_star(&mut net, dev, |n, h, at, b| n.send_from_host(h, at, b), |n, max| n.run(max));
    RunOutcome {
        stats: net.stats.clone(),
        counters: net.switch(dev).unwrap().counters().clone(),
        received: (1..=4).map(|h| net.host_received(h).to_vec()).collect(),
    }
}

fn sharded_outcome(
    dev: u16,
    p4: &netcl_p4::P4Program,
    seed: u64,
    partition: Partition,
    threaded: bool,
) -> (RunOutcome, u64) {
    let mut net = star_builder(dev, p4, seed).build_sharded(partition).expect("valid partition");
    net.set_threaded(threaded);
    drive_star(&mut net, dev, |n, h, at, b| n.send_from_host(h, at, b), |n, max| n.run(max));
    let outcome = RunOutcome {
        stats: net.stats(),
        counters: net.switch(dev).unwrap().counters().clone(),
        received: (1..=4).map(|h| net.host_received(h).to_vec()).collect(),
    };
    (outcome, net.rounds())
}

/// Device with hosts 1 and 3 in shard 0; hosts 2 and 4 in shard 1 — every
/// delivery to an even host crosses the boundary.
fn two_shards(dev: u16) -> Partition {
    Partition::new(vec![
        vec![NodeId::Device(dev), NodeId::Host(1), NodeId::Host(3)],
        vec![NodeId::Host(2), NodeId::Host(4)],
    ])
}

/// One node per shard: every hop is a shard crossing.
fn max_shards(dev: u16) -> Partition {
    Partition::new(vec![
        vec![NodeId::Device(dev)],
        vec![NodeId::Host(1)],
        vec![NodeId::Host(2)],
        vec![NodeId::Host(3)],
        vec![NodeId::Host(4)],
    ])
}

/// The headline acceptance criterion: for every Table III app, a ≥2-shard
/// run — inline and threaded, in the same number of rounds — is
/// byte-identical to the scalar run across at least 8 chaos seeds.
#[test]
fn sharded_matches_scalar_all_apps() {
    for app in netcl_apps::all_apps() {
        let unit = compile(app.name, &app.netcl_source);
        let p4 = &unit.device(app.device).expect("kernel device").tna_p4;
        let dev = app.device;
        for seed in seed_base()..seed_base() + 8 {
            let scalar = scalar_outcome(dev, p4, seed);
            assert!(
                scalar.stats.link_losses + scalar.stats.fault_drops > 0,
                "{}: chaos must actually fire at seed {seed}",
                app.name
            );
            assert_eq!(scalar.stats.device_restarts, 1, "{}", app.name);
            assert_eq!(
                scalar.stats.per_node[&NodeId::Host(9_999)].dropped,
                1,
                "{}: the send from unknown host 9999 is unroutable",
                app.name
            );
            for partition in [two_shards(dev), max_shards(dev)] {
                let shards = partition.num_shards();
                let (inline, inline_rounds) =
                    sharded_outcome(dev, p4, seed, partition.clone(), false);
                let (threads, thread_rounds) = sharded_outcome(dev, p4, seed, partition, true);
                for (sharded, how) in [(inline, "inline"), (threads, "threaded")] {
                    assert_eq!(
                        scalar, sharded,
                        "{}: {shards}-shard ({how}) diverged from scalar at seed {seed}",
                        app.name
                    );
                }
                assert_eq!(inline_rounds, thread_rounds, "{}: {shards}-shard rounds", app.name);
            }
        }
    }
}

/// Streamed flow injection (ISSUE 10) is observationally identical to
/// materializing the same schedule up front: for every Table III app, a
/// Zipf flow schedule delivered lazily through a flow source — scalar,
/// and sharded on both round executors — produces the same `NetStats`,
/// device counters, and host byte streams as `send_from_host`-ing every
/// flow before `run()` — whether the sharded run is one `run` call or
/// many capped ones. One flow comes from a host the topology does not
/// know: unroutable everywhere, a panic nowhere. Flows 10 to 15 leave
/// flow 10's host at flow 10's instant: a burst of six, twice the sliced
/// runs' cap of 3, so a capped run must stop that host's shard mid-round
/// whatever the seed.
#[test]
fn streamed_flows_equal_materialized_all_apps() {
    let hosts = [1u32, 2, 3, 4];
    let zipf = Zipf::new(8, 0.9);
    let seed = seed_base() ^ 0xF10A;
    let schedule = || {
        let stream = FlowStream::new(seed, &hosts, &zipf, 80, 4_000);
        let mut burst = (0, 0);
        stream.enumerate().map(move |(i, f)| match i {
            10 => {
                burst = (f.src, f.at_ns);
                f
            }
            11..=15 => Flow { src: burst.0, at_ns: burst.1, ..f },
            40 => Flow { src: 9_999, ..f },
            _ => f,
        })
    };
    let flows: Vec<Flow> = schedule().collect();
    // One flow rendered to bytes: a kernel message whose payload is a
    // pure function of the flow, long enough to exercise parsing.
    let render = |f: &Flow, dev: u16| {
        let m = Message::new(f.src as u16, 1 + (f.key % 4) as u16, 1, dev);
        let mut bytes = Vec::new();
        m.write_header(&mut bytes);
        bytes.extend((0..64u64).map(|j| (f.key.wrapping_mul(37) ^ f.at_ns ^ j) as u8));
        bytes
    };
    for app in netcl_apps::all_apps() {
        let unit = compile(app.name, &app.netcl_source);
        let p4 = &unit.device(app.device).expect("kernel device").tna_p4;
        let dev = app.device;
        let materialized = {
            let mut net = star_builder(dev, p4, 9).build();
            for f in &flows {
                net.send_from_host(f.src, f.at_ns, render(f, dev));
            }
            net.run(500_000);
            RunOutcome {
                stats: net.stats.clone(),
                counters: net.switch(dev).unwrap().counters().clone(),
                received: (1..=4).map(|h| net.host_received(h).to_vec()).collect(),
            }
        };
        assert!(
            materialized.stats.kernel_executions > 0,
            "{}: flows must reach the kernel",
            app.name
        );
        assert_eq!(
            materialized.stats.per_node[&NodeId::Host(9_999)].dropped,
            1,
            "{}: the flow from unknown host 9999 is unroutable",
            app.name
        );
        let source = || {
            let mut stream = schedule();
            Box::new(move || stream.next().map(|f| (f.at_ns, f.src, render(&f, dev))))
                as netcl_net::FlowSource
        };
        let streamed_scalar = {
            let mut net = star_builder(dev, p4, 9).build();
            net.set_flow_source(source());
            net.run(500_000);
            RunOutcome {
                stats: net.stats.clone(),
                counters: net.switch(dev).unwrap().counters().clone(),
                received: (1..=4).map(|h| net.host_received(h).to_vec()).collect(),
            }
        };
        assert_eq!(materialized, streamed_scalar, "{}: scalar streamed diverged", app.name);
        // Each executor once in a single `run` call and once sliced into
        // many capped calls: `run(max_events)` is resumable, so a cap
        // landing mid-window — cross-shard arrivals in flight, pumped
        // flows not yet delivered — must lose and reorder nothing. The
        // threaded executor makes and releases its workers in every call,
        // so this is also what says no posted turn or report goes missing
        // between them. On the five-shard partition a cap of 3 stops the
        // burst's shard short of its horizon, which shows as extra rounds.
        for (partition, slice) in [(two_shards(dev), 7), (max_shards(dev), 3)] {
            let shards = partition.num_shards();
            let mut rounds = Vec::new();
            for (threaded, slice) in
                [(false, u64::MAX), (true, u64::MAX), (false, slice), (true, slice)]
            {
                let mut net =
                    star_builder(dev, p4, 9).build_sharded(partition.clone()).expect("valid");
                net.set_threaded(threaded);
                net.set_flow_source(source());
                let mut calls = 0u64;
                while net.run(slice) > 0 {
                    calls += 1;
                }
                assert!(slice == u64::MAX || calls > 10, "{}: the cap must slice", app.name);
                let sharded = RunOutcome {
                    stats: net.stats(),
                    counters: net.switch(dev).unwrap().counters().clone(),
                    received: (1..=4).map(|h| net.host_received(h).to_vec()).collect(),
                };
                assert_eq!(
                    materialized,
                    sharded,
                    "{}: {shards}-shard streamed ({}, {calls} run calls) diverged",
                    app.name,
                    if threaded { "threaded" } else { "inline" }
                );
                rounds.push(net.rounds());
            }
            assert_eq!(rounds[0], rounds[1], "{}: {shards}-shard whole-run rounds", app.name);
            assert_eq!(rounds[2], rounds[3], "{}: {shards}-shard sliced-run rounds", app.name);
            assert!(
                shards == 2 || rounds[2] > rounds[0],
                "{}: run(3) on {shards} shards never stopped a shard mid-round",
                app.name
            );
        }
    }
}

/// Runs h1 → device → h2 transit traffic on worker threads over
/// `partition`, with a handler on host 2 that panics on its third message,
/// and returns the message `run()` panicked with. Before it panics the
/// handler sleeps long past a waiter's spin and yield steps, so the other
/// shards' threads are parked at their mailboxes when the run unwinds: if
/// unwinding did not release them, joining them would hang and the time
/// limit would fail the test.
fn run_with_a_bomb_on_host_2(partition: Partition) -> String {
    let unit = compile("calc.ncl", &netcl_apps::calc::netcl_source());
    let p4 = unit.devices[0].tna_p4.clone();
    let result = finishes_within(Duration::from_secs(60), move || {
        let mut seen = 0u32;
        let bomb =
            Box::new(move |_now: u64, _ev: netcl_net::HostEvent, _out: &mut netcl_net::Outbox| {
                seen += 1;
                if seen == 3 {
                    std::thread::sleep(Duration::from_millis(20));
                    panic!("handler gave up on message {seen}");
                }
            });
        let mut net = NetworkBuilder::new(star(1, &[1, 2], LinkSpec::default()))
            .device(1, Switch::new(p4), 500)
            .sink_host(1)
            .host(2, bomb)
            .build_sharded(partition)
            .expect("valid partition");
        net.set_threaded(true);
        for i in 0..8u64 {
            // Plain host-to-host transit through the device.
            let m = Message::new(1, 2, 1, netcl_runtime::device::NO_DEVICE);
            let mut bytes = Vec::new();
            m.write_header(&mut bytes);
            bytes.extend([i as u8; 16]);
            net.send_from_host(1, i * 10_000, bytes);
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.run(u64::MAX)))
    });
    let cause = result.expect_err("the shard's panic must surface from run()");
    let msg = cause.downcast_ref::<String>().expect("a formatted panic message").clone();
    assert!(msg.contains("round") && msg.contains("horizon"), "names round and horizon: {msg}");
    // The third message left host 1 at 20 000 ns; two links and the device
    // later host 2's shard has reached the time a scalar run would have.
    assert!(msg.contains("clock 22006)"), "carries the shard's clock: {msg}");
    assert!(msg.contains("handler gave up on message 3"), "carries the cause: {msg}");
    msg
}

/// A panic inside a shard worker (here: a host handler) fails the run with
/// a panic naming the shard, instead of leaving the caller waiting forever
/// for that shard's round report.
#[test]
fn worker_panic_fails_the_run_instead_of_hanging() {
    // Host 2 (the panicking one) lives in shard 1, away from the device.
    let msg = run_with_a_bomb_on_host_2(Partition::new(vec![
        vec![NodeId::Device(1), NodeId::Host(1)],
        vec![NodeId::Host(2)],
    ]));
    assert!(msg.contains("shard 1 panicked"), "names the shard: {msg}");
}

/// The same panic in shard 0, which the thread calling `run()` executes
/// itself: the same message, and the two workers — waiting for a round that
/// will never be posted — are released as the panic unwinds through `run`.
#[test]
fn caller_shard_panic_fails_the_run_and_releases_the_workers() {
    let msg = run_with_a_bomb_on_host_2(Partition::new(vec![
        vec![NodeId::Host(2)],
        vec![NodeId::Device(1)],
        vec![NodeId::Host(1)],
    ]));
    assert!(msg.contains("shard 0 panicked"), "names the shard: {msg}");
}

/// Multi-hop chains: h1 — dev1 — dev2 — h2 with one node group per shard.
/// Traffic computed at dev1 transits dev2, so cross-shard arrivals chain
/// through an intermediate shard and the lookahead matrix must be
/// transitive (Floyd–Warshall, not just direct neighbors).
#[test]
fn sharded_matches_scalar_across_multi_hop_chain() {
    let unit = compile("calc.ncl", &netcl_apps::calc::netcl_source());
    let p4 = &unit.devices[0].tna_p4;
    let build = || {
        let mut topo = netcl_net::Topology::new();
        topo.link(NodeId::Host(1), NodeId::Device(1), chaos_link());
        topo.link(NodeId::Device(1), NodeId::Device(2), chaos_link());
        topo.link(NodeId::Device(2), NodeId::Host(2), chaos_link());
        NetworkBuilder::new(topo)
            .seed(11)
            .device(1, Switch::new(p4.clone()), 500)
            .device(2, Switch::new(p4.clone()), 500)
            .sink_host(1)
            .sink_host(2)
            .fault(30_000, Fault::LinkDown(NodeId::Device(1), NodeId::Device(2)))
            .fault(60_000, Fault::LinkUp(NodeId::Device(1), NodeId::Device(2)))
    };
    let drive = |send: &mut dyn FnMut(u32, u64, Vec<u8>)| {
        for round in 0..30u64 {
            // Alternate computed traffic (CALC reflects to the sender from
            // dev2, crossing two boundaries back) with pure transit to h2
            // (forwarded through both devices, crossing all three).
            let dev = if round % 2 == 0 { 2 } else { netcl_runtime::device::NO_DEVICE };
            let m = Message::new(1, 2, 1, dev);
            let mut bytes = Vec::new();
            m.write_header(&mut bytes);
            bytes.extend((0..64u64).map(|j| (round ^ j) as u8));
            send(1, round * 4_000, bytes);
        }
    };
    let scalar = {
        let mut net = build().build();
        drive(&mut |h, at, b| net.send_from_host(h, at, b));
        net.run(200_000);
        (net.stats.clone(), net.host_received(2).to_vec())
    };
    assert!(scalar.1.len() > 1, "traffic must reach h2 through the chain");
    let partition = Partition::new(vec![
        vec![NodeId::Host(1)],
        vec![NodeId::Device(1)],
        vec![NodeId::Device(2), NodeId::Host(2)],
    ]);
    let mut rounds = Vec::new();
    for threaded in [false, true] {
        let mut net = build().build_sharded(partition.clone()).unwrap();
        net.set_threaded(threaded);
        drive(&mut |h, at, b| net.send_from_host(h, at, b));
        net.run(200_000);
        assert_eq!(scalar.0, net.stats(), "stats diverged (threaded={threaded})");
        assert_eq!(scalar.1, net.host_received(2).to_vec(), "payloads diverged");
        rounds.push(net.rounds());
    }
    assert_eq!(rounds[0], rounds[1], "inline and threaded executors plan the same rounds");
}

/// The inline and threaded round executors agree with each other — results
/// and round count — on a freshly-built pair of networks (not just each
/// against scalar), over a seed sweep wider than the scalar comparison's.
#[test]
fn threaded_executor_equals_inline_executor() {
    let unit = compile("calc.ncl", &netcl_apps::calc::netcl_source());
    let p4 = &unit.devices[0].tna_p4;
    for seed in seed_base()..seed_base() + 16 {
        let a = sharded_outcome(1, p4, seed, two_shards(1), false);
        let b = sharded_outcome(1, p4, seed, two_shards(1), true);
        assert_eq!(a, b, "executors diverged at seed {seed}");
    }
}

/// Timers routed through the sharded wrapper keep their scalar keys: a
/// host timer armed by the driver fires identically in both runs.
#[test]
fn sharded_timers_match_scalar() {
    let unit = compile("calc.ncl", &netcl_apps::calc::netcl_source());
    let p4 = &unit.devices[0].tna_p4;
    let scalar = {
        let mut net = star_builder(1, p4, 5).build();
        net.set_host_timer(1, 10_000, 77);
        net.send_from_host(1, 12_000, b"after-timer".to_vec());
        net.run(100_000);
        net.stats.clone()
    };
    for threaded in [false, true] {
        let mut net = star_builder(1, p4, 5).build_sharded(two_shards(1)).unwrap();
        net.set_threaded(threaded);
        net.set_host_timer(1, 10_000, 77);
        net.send_from_host(1, 12_000, b"after-timer".to_vec());
        net.run(100_000);
        assert_eq!(scalar, net.stats());
    }
}

/// Partition validation rejects unassigned nodes, double assignment, and
/// zero-latency inter-shard links — each with a diagnosable error.
#[test]
fn build_sharded_validates_partitions() {
    let unit = compile("calc.ncl", &netcl_apps::calc::netcl_source());
    let p4 = &unit.devices[0].tna_p4;
    let builder = || {
        NetworkBuilder::new(star(1, &[1, 2], LinkSpec::default()))
            .device(1, Switch::new(p4.clone()), 500)
            .sink_host(1)
            .sink_host(2)
    };
    let missing = Partition::new(vec![vec![NodeId::Device(1), NodeId::Host(1)]]);
    let err = builder().build_sharded(missing).unwrap_err();
    assert!(err.contains("not assigned"), "{err}");

    let duplicated = Partition::new(vec![
        vec![NodeId::Device(1), NodeId::Host(1)],
        vec![NodeId::Host(1), NodeId::Host(2)],
    ]);
    let err = builder().build_sharded(duplicated).unwrap_err();
    assert!(err.contains("more than one shard"), "{err}");

    // A restart hook naming a device no shard owns is the same kind of
    // mistake as an unassigned device: an error, not a panic.
    let cover =
        Partition::new(vec![vec![NodeId::Device(1), NodeId::Host(1)], vec![NodeId::Host(2)]]);
    let err = builder().on_restart(7, Box::new(|_| {})).build_sharded(cover).unwrap_err();
    assert!(err.contains("restart hook for device 7, which no shard owns"), "{err}");

    let zero = LinkSpec { latency_ns: 0, ..LinkSpec::default() };
    let net = NetworkBuilder::new(star(1, &[1, 2], zero))
        .device(1, Switch::new(p4.clone()), 500)
        .sink_host(1)
        .sink_host(2)
        .build_sharded(Partition::new(vec![
            vec![NodeId::Device(1)],
            vec![NodeId::Host(1), NodeId::Host(2)],
        ]));
    let err = net.unwrap_err();
    assert!(err.contains("zero latency"), "{err}");

    // A zero-latency link *inside* one shard is fine.
    let mut topo = star(1, &[1, 2], LinkSpec::default());
    topo.link(NodeId::Host(1), NodeId::Host(2), zero);
    let ok = NetworkBuilder::new(topo)
        .device(1, Switch::new(p4.clone()), 500)
        .sink_host(1)
        .sink_host(2)
        .build_sharded(Partition::new(vec![
            vec![NodeId::Host(1), NodeId::Host(2)],
            vec![NodeId::Device(1)],
        ]));
    assert!(ok.is_ok());
}

/// `NetStats::accumulate` is commutative and associative — the property
/// the shard merge leans on (ISSUE 7 satellite). Checked on synthetic
/// stats with overlapping per-node keys, then on real per-shard stats
/// from a chaos run.
#[test]
fn netstats_accumulate_is_order_independent() {
    let mk = |base: u64, nodes: &[(NodeId, u64, u64)]| {
        let mut s = NetStats {
            delivered: base,
            kernel_drops: base + 1,
            link_losses: base * 2,
            kernel_executions: base + 3,
            events: base * 5,
            unroutable: base % 3,
            fault_drops: base + 7,
            duplicates: base % 5,
            corrupted: base % 2,
            reordered: base + 11,
            device_restarts: base % 4,
            recirculations: base + 13,
            ..NetStats::default()
        };
        for &(n, d, dr) in nodes {
            s.per_node.insert(n, NodeCounters { delivered: d, dropped: dr });
        }
        s
    };
    let a = mk(3, &[(NodeId::Host(1), 10, 2), (NodeId::Device(1), 5, 0)]);
    let b = mk(17, &[(NodeId::Host(2), 4, 4), (NodeId::Device(1), 9, 1)]);
    let c = mk(29, &[(NodeId::Host(1), 1, 1), (NodeId::Host(9), 0, 7)]);

    let fold = |order: &[&NetStats]| {
        let mut acc = NetStats::default();
        for s in order {
            acc.accumulate(s);
        }
        acc
    };
    let abc = fold(&[&a, &b, &c]);
    // Commutativity: every permutation agrees.
    for order in [[&a, &c, &b], [&b, &a, &c], [&b, &c, &a], [&c, &a, &b], [&c, &b, &a]] {
        assert_eq!(abc, fold(&order));
    }
    // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    let mut left = NetStats::default();
    left.accumulate(&a);
    left.accumulate(&b);
    let mut left_c = left.clone();
    left_c.accumulate(&c);
    let mut bc = NetStats::default();
    bc.accumulate(&b);
    bc.accumulate(&c);
    let mut a_bc = a.clone();
    a_bc.accumulate(&bc);
    assert_eq!(left_c, a_bc);

    // And on real shard stats from a chaos run.
    let unit = compile("calc.ncl", &netcl_apps::calc::netcl_source());
    let p4 = &unit.devices[0].tna_p4;
    let mut net: ShardedNetwork = star_builder(1, p4, 13).build_sharded(max_shards(1)).unwrap();
    drive_star(&mut net, 1, |n, h, at, b| n.send_from_host(h, at, b), |n, max| n.run(max));
    let shard_stats: Vec<NetStats> = net.shard_stats().into_iter().cloned().collect();
    assert!(shard_stats.len() >= 2);
    let forward = fold(&shard_stats.iter().collect::<Vec<_>>());
    let backward = fold(&shard_stats.iter().rev().collect::<Vec<_>>());
    assert_eq!(forward, backward);
    assert_eq!(forward, net.stats(), "the merge accessor folds in shard order");
}

/// Sharded tracing merges per-shard traces without touching the
/// determinism contract: stats still match scalar while the merged trace
/// samples queue depth once per event popped in every shard and names
/// every shard's tracks.
#[test]
fn sharded_obs_merges_across_shards() {
    let unit = compile("calc.ncl", &netcl_apps::calc::netcl_source());
    let p4 = &unit.devices[0].tna_p4;
    // `NetStats::events` leaves out `star_builder`'s two scheduled faults,
    // which every network applies — each shard its own replica.
    let faults = 2;
    let scalar = {
        let mut net = star_builder(1, p4, 2).observe().build();
        drive_star(&mut net, 1, |n, h, at, b| n.send_from_host(h, at, b), |n, max| n.run(max));
        let trace = net.take_trace().expect("tracing enabled");
        let depths = trace.events().filter(|e| e.name == "queue_depth").count() as u64;
        assert_eq!(depths, net.stats.events + faults);
        net.stats.clone()
    };
    let mut net = star_builder(1, p4, 2).observe().build_sharded(two_shards(1)).unwrap();
    drive_star(&mut net, 1, |n, h, at, b| n.send_from_host(h, at, b), |n, max| n.run(max));
    assert_eq!(scalar, net.stats());
    let trace = net.take_trace().expect("tracing enabled");
    let depths = trace.events().filter(|e| e.name == "queue_depth").count() as u64;
    let shards = net.shard_stats().len() as u64;
    assert_eq!(depths, net.stats().events + faults * shards, "one sample per event, every shard");
    let names: Vec<String> = trace
        .events()
        .filter(|e| e.name == "thread_name")
        .map(|e| format!("{:?}", e.args))
        .collect();
    assert!(names.iter().any(|n| n.contains("device 1")), "{names:?}");
    assert!(names.iter().any(|n| n.contains("host 2")), "{names:?}");
}

// ---------------------------------------------------------------------------
// Fat-tree identity (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// What a fat-tree run leaves behind: the merged stats and the timestamped
/// byte stream of every host that received anything.
type FatTreeOutcome = (NetStats, Vec<(u32, Vec<(u64, Vec<u8>)>)>);

/// Streams `flows` CALC requests through `ft`, whose switch `d` runs
/// `program_of(d)`, at every shard count in `shard_counts`, once on worker
/// threads and once inline. Every 16th
/// wire-addressable host is a client; a flow goes to a Zipf(0.99)-popular
/// host (ranks scattered over the pods) and names that host's edge switch
/// as its computing device, with the Zipf key and the injection time as
/// operands. The partition is the event-weight-balanced one the schedule
/// itself predicts.
///
/// Asserts that every run delivers every flow with nothing unroutable,
/// that all runs are byte-identical — `NetStats` and every host's stream —
/// that both executors plan the same rounds, and that at 8 shards the
/// busiest one handles at most a quarter of the events (event counts are
/// deterministic, so this is the partitioner's balance on real traffic,
/// not a timing: 18.0 % at k=8, 13.7 % at k=74). Returns the first run's
/// outcome.
fn fat_tree_identity(
    ft: &FatTree,
    flows: usize,
    shard_counts: &[usize],
    program_of: &dyn Fn(u16) -> Arc<netcl_p4::P4Program>,
) -> FatTreeOutcome {
    let half = (ft.k / 2) as usize;
    let clients: Vec<u32> = ft.hosts.iter().copied().step_by(16).filter(|&h| h < 1 << 16).collect();
    let zipf = Zipf::new(ft.num_hosts(), 0.99);
    // Host index → (wire address, edge switch). Host ids above the 16-bit
    // wire space fold into it: still a host of the tree.
    let targets: Arc<Vec<(u16, u16)>> = Arc::new(
        (0..ft.num_hosts())
            .map(|i| {
                (ft.hosts[i] as u16, ft.edge_by_pod[i / (half * half)][i % (half * half) / half])
            })
            .collect(),
    );
    // The prime multiplier keeps the Zipf head from sitting in pod 0.
    let target_of = |targets: &[(u16, u16)], key: u64| {
        targets[((key as usize - 1) * 2_654_435_761) % targets.len()]
    };
    let stream = || FlowStream::new(7, &clients, &zipf, flows, 10);
    let routes = PrecomputedRoutes::new(&ft.topology);
    let spec = calc::spec();

    let run = |shards: usize, threaded: bool| {
        let pairs = stream().map(|f| (f.src, target_of(&targets, f.key).1));
        let (partition, _) = ft.partition_balanced(&routes, pairs, shards);
        let mut b = NetworkBuilder::new(ft.topology.clone()).seed(1);
        for &d in ft.edge_by_pod.iter().chain(&ft.agg_by_pod).flatten().chain(&ft.core) {
            b = b.device(d, Switch::new(program_of(d)), 500);
        }
        for &h in &ft.hosts {
            b = b.sink_host(h);
        }
        let mut net = b.build_sharded_with(partition, &routes).expect("an exact cover");
        net.set_threaded(threaded);
        let (mut stream, targets, spec) = (stream(), Arc::clone(&targets), spec.clone());
        net.set_flow_source(Box::new(move || {
            stream.next().map(|f| {
                let (dst, dev) = target_of(&targets, f.key);
                let m = Message::new(f.src as u16, dst, 1, dev);
                let args = [Some(&[calc::OP_ADD][..]), Some(&[f.key]), Some(&[f.at_ns]), None];
                (f.at_ns, f.src, pack(&m, &spec, &args).expect("a CALC request packs"))
            })
        }));
        net.run(u64::MAX);
        let stats = net.stats();
        assert_eq!(stats.unroutable, 0, "{shards} shard(s): a fat-tree routes everything");
        assert_eq!(stats.delivered, flows as u64, "{shards} shard(s): one delivery per flow");
        if shards == 8 {
            let busiest = net.shard_stats().iter().map(|s| s.events).max().expect("8 shards");
            assert!(
                busiest * 4 <= stats.events,
                "busiest of 8 shards handled {busiest} of {} events (> 25 %)",
                stats.events
            );
        }
        let received = ft
            .hosts
            .iter()
            .map(|&h| (h, net.host_received(h).to_vec()))
            .filter(|(_, stream)| !stream.is_empty())
            .collect();
        ((stats, received), net.rounds())
    };

    let mut first: Option<FatTreeOutcome> = None;
    for &shards in shard_counts {
        let mut planned = Vec::new();
        for threaded in [true, false] {
            let (outcome, rounds) = run(shards, threaded);
            planned.push(rounds);
            match &first {
                None => first = Some(outcome),
                // Not `assert_eq!`: a failure would print every stream.
                Some(first) => assert!(
                    *first == outcome,
                    "{shards} shard(s), threaded={threaded}: diverged from the first run"
                ),
            }
        }
        assert_eq!(planned[0], planned[1], "{shards} shard(s): rounds, threads vs inline");
    }
    first.expect("at least one shard count")
}

/// k=8 (128 hosts, 80 switches), 2 000 flows, 1 / 2 / 4 / 8 / 16 shards, with
/// CALC placed `_at` every switch and each switch loading the program
/// compiled for its own id — a generated program computes only on messages
/// addressed to the device it was compiled for, so one `_at(1)` program on
/// every switch would forward these flows without running the kernel.
/// Every flow's reply must unpack to `a + b`.
///
/// At 8 and 16 shards the threads outnumber any CI host's cores (and all
/// sit on one when CI pins the suite with `taskset -c 0`): a round's
/// rendezvous must then give the core away, not spin on it, and the whole
/// sweep has a time limit some fifty times what it takes.
#[test]
fn fat_tree_shard_counts_agree_and_every_flow_computes() {
    finishes_within(Duration::from_secs(600), fat_tree_sweep);
}

fn fat_tree_sweep() {
    let flows = 2_000;
    let ft = FatTree::new(8, LinkSpec::default()).unwrap();
    let unit = calc_at_every_switch(&ft, EmitTarget::Both);
    let own = |d: u16| unit.device(d).expect("CALC is placed at every switch").tna_p4.clone();

    let (stats, received) = fat_tree_identity(&ft, flows, &[1, 2, 4, 8, 16], &own);
    assert_eq!(stats.kernel_executions, flows as u64, "one kernel execution per flow");
    let spec = calc::spec();
    let (mut a, mut b, mut sum) = (Vec::new(), Vec::new(), Vec::new());
    let mut replies = 0;
    for (host, stream) in &received {
        for (at, bytes) in stream {
            unpack(bytes, &spec, &mut [None, Some(&mut a), Some(&mut b), Some(&mut sum)])
                .unwrap_or_else(|e| panic!("host {host} at {at} ns: {e:?}"));
            assert_eq!(sum[0], calc::reference(calc::OP_ADD, a[0], b[0]), "host {host}: a + b");
            replies += 1;
        }
    }
    assert_eq!(replies, flows);
}

/// CALC with its kernel placed `_at` every switch of `ft` (ids 0 to the
/// switch count), compiled for `target`. Every switch lowers to the same
/// module, so the compile runs the pass pipeline once and places the
/// program at each switch.
fn calc_at_every_switch(ft: &FatTree, target: EmitTarget) -> CompiledUnit {
    let switches = ft.core.len() + 2 * ft.edge_by_pod.iter().map(Vec::len).sum::<usize>();
    let ids: Vec<String> = (0..switches).map(|d| d.to_string()).collect();
    let source = calc::netcl_source();
    assert!(source.contains("_at(1)"), "CALC's placement is no longer `_at(1)`");
    let source = source.replace("_at(1)", &format!("_at({})", ids.join(", ")));
    let unit = Compiler::new(CompileOptions { target, ..Default::default() })
        .compile("calc.ncl", &source)
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(unit.devices.len(), switches);
    assert_eq!(unit.reuse.devices_total - unit.reuse.devices_reused, 1, "one pipeline run");
    unit
}

/// The 10⁵-host point: k=74 (101 306 hosts, 6 845 switches), 2 000 flows,
/// 1 and 8 shards. Like the k=8 sweep above, CALC is placed `_at` every
/// switch and each switch loads the program compiled for its own id, so
/// every flow computes at its destination's edge switch: the test proves
/// scale, routing, identity and compute. Only the TNA programs are kept.
/// `#[ignore]`d for its build time; CI runs it with `--release --
/// --ignored`.
#[test]
#[ignore = "builds a 101 306-host network four times; run in release"]
fn fat_tree_100k_hosts_route_and_shard_identically() {
    let flows = 2_000;
    let ft = FatTree::new(74, LinkSpec::default()).unwrap();
    assert_eq!(ft.num_hosts(), 101_306);
    let unit = calc_at_every_switch(&ft, EmitTarget::Tna);
    assert_eq!(unit.devices.len(), 6_845);
    let own = |d: u16| unit.device(d).expect("CALC is placed at every switch").tna_p4.clone();
    let (stats, _) = fat_tree_identity(&ft, flows, &[1, 8], &own);
    assert_eq!(stats.kernel_executions, flows as u64, "one kernel execution per flow");
}
