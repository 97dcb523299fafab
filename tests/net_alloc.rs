//! What the simulator's event loop allocates per event (ROADMAP direction
//! 1, DESIGN.md §13): a streamed CALC fat-tree in steady state. Node state
//! is a table indexed by dense node index, a hop moves its wire buffer, a
//! switch swaps it with its output buffer and a sink host keeps it — so
//! what is left is the amortised growth of the event queue (its key heap
//! and payload slab, which reach working size in the warm-up) and of each
//! host's `received`. The requests are packed before the measurement: a
//! flow source's own `pack` is two allocations per flow (0.23 per event on
//! `netcl_e2e`'s `fattree_calc`, all but 0.01 of its `net.allocs_per_event`)
//! and is not the simulator's. Each ceiling below is the measured figure
//! plus 10 %: host- and load-independent, and the number the next
//! per-event-allocation change ratchets down. The second reading runs the
//! same network as two shards: the round planner's own allocations. The
//! third is the host path (DESIGN.md §13): an AGG star whose eight workers
//! run `agg::worker_handler`, so packing, the reliability helper, the
//! `Outbox` and the multicast fan-out are inside the measurement.

mod counting_alloc;

use counting_alloc::{allocs_during, Counting};
use netcl::{CompileOptions, Compiler};
use netcl_apps::{agg, calc};
use netcl_bmv2::Switch;
use netcl_net::{FatTree, FlowStream, LinkSpec, NetworkBuilder, NodeId, PrecomputedRoutes, Zipf};
use netcl_runtime::message::{pack, Message};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per event measured at this commit: 51 over 14 846 events
/// (2 693 at the parent, whose sink hosts cloned every delivery).
const MEASURED: f64 = 51.0 / 14_846.0;

/// The same reading through two inline shards, measured at this commit: 50
/// over 14 578 events (860 at the parent, whose planner built a round's
/// horizons, inboxes, reports and hand-off vectors anew every round; they
/// are one `Turn` per shard now, handed out and back). The round planner
/// adds nothing to the scalar figure any more, and each shard's queue is
/// the scalar queue, so this is also where a slab or key heap that kept
/// growing after the warm-up would show.
const MEASURED_SHARDED: f64 = 50.0 / 14_578.0;

/// Allocations per event with a handler on every host, measured at this
/// commit: 7 744 over 12 128 events of a lossless 8-worker AllReduce (four
/// events per chunk and worker: send, arrive at the switch, arrive at the
/// host, RTO timer). The parent read 3.97 per event on `netcl_e2e`'s
/// `allreduce_agg`: every chunk cycle rebuilt the specification, the lane
/// vector, the wire buffer, `Reliable`'s copy, an `Outbox` and the handler's
/// own copy of the message, and unpacked into vectors that grew by `push`.
/// What is left has an owner: the result `Vec` that `WorkerState::results`
/// keeps (1 per cycle), the payload the `HostSend` event owns (1), and the
/// copy each multicast member but the last is handed and its `received` log
/// keeps (⅞) — 2.875 per four events in mid-run (0.72, which is what
/// `allreduce_agg` reads), less here because the run ends in a window of
/// RTO timers that find their chunk acked. One more allocation per message
/// anywhere on the path lands above the ceiling, and the ceiling below 1.
const MEASURED_HANDLERS: f64 = 7_744.0 / 12_128.0;
const _: () = assert!(MEASURED_HANDLERS * 1.10 < 1.0, "the ceiling stays below one per event");

/// A driver injection: `(at_ns, source host, wire bytes)`.
type Request = (u64, u32, Vec<u8>);

/// The k=4 CALC fat-tree, every host a sink, and its 3 000 packed requests:
/// every host is a client; a flow asks the edge switch of a Zipf-popular
/// host to add its two operands and reflect the sum.
fn calc_fat_tree() -> (FatTree, NetworkBuilder, Vec<Request>) {
    let unit = Compiler::new(CompileOptions::default())
        .compile("calc.ncl", &calc::netcl_source())
        .expect("CALC compiles");
    let program = &unit.devices[0].tna_p4;
    let ft = FatTree::new(4, LinkSpec::default()).expect("k=4");
    let mut b = NetworkBuilder::new(ft.topology.clone()).seed(1);
    for &d in ft.edge_by_pod.iter().chain(&ft.agg_by_pod).flatten().chain(&ft.core) {
        b = b.device(d, Switch::new(program.clone()), 500);
    }
    for &h in &ft.hosts {
        b = b.sink_host(h);
    }
    let zipf = Zipf::new(ft.num_hosts(), 0.99);
    let (edges, spec) = (ft.edge_by_pod.concat(), calc::spec());
    let requests = FlowStream::new(7, &ft.hosts, &zipf, 3_000, 10)
        .map(|f| {
            let dev = edges[(f.key as usize - 1) / 2];
            let m = Message::new(f.src as u16, f.key as u16 - 1, 1, dev);
            let args = [Some(&[calc::OP_ADD][..]), Some(&[f.key]), Some(&[f.at_ns]), None];
            (f.at_ns, f.src, pack(&m, &spec, &args).expect("a CALC request packs"))
        })
        .collect();
    (ft, b, requests)
}

/// Warm-up — the queue's key heap and slab and every switch's packet
/// buffers reach their working size — then the rest of the run under the
/// allocation counter: `(events, allocations)` of the measured part.
fn measured_tail(mut run: impl FnMut(u64) -> u64) -> (u64, u64) {
    let warm_up = run(4_000);
    let (events, allocs) = allocs_during(|| run(u64::MAX));
    assert!((4_000..5_000).contains(&warm_up) && events > 10_000, "{warm_up} + {events} events");
    (events, allocs)
}

fn assert_ceiling(what: &str, (events, allocs): (u64, u64), measured: f64) {
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= measured * 1.10,
        "{what}: {allocs} allocations over {events} events = {per_event:.5} per event \
         (ceiling {measured:.5} + 10 %)"
    );
}

#[test]
fn steady_state_event_loop_allocations_per_event() {
    let (_, builder, requests) = calc_fat_tree();
    let mut net = builder.build();
    let mut requests = requests.into_iter();
    net.set_flow_source(Box::new(move || requests.next()));
    let tail = measured_tail(|n| net.run(n));
    assert_eq!(net.stats.delivered, 3_000, "every flow's reply reaches its client");
    assert_eq!(net.stats.unroutable, 0);
    assert_ceiling("scalar", tail, MEASURED);
}

/// The sharded build of the same network, on the inline executor so the
/// shards' loops run on the counting thread.
#[test]
fn steady_state_sharded_allocations_per_event() {
    let (ft, builder, requests) = calc_fat_tree();
    let routes = PrecomputedRoutes::new(&ft.topology);
    let executes_at = |bytes| Message::read_header(bytes).expect("packed above").to;
    let pairs = requests.iter().map(|(_, src, bytes)| (*src, executes_at(bytes)));
    let (partition, _) = ft.partition_balanced(&routes, pairs, 2);
    let mut net = builder.build_sharded_with(partition, &routes).expect("an exact cover");
    net.set_threaded(false);
    let mut requests = requests.into_iter();
    net.set_flow_source(Box::new(move || requests.next()));
    let tail = measured_tail(|n| net.run(n));
    assert_eq!((net.stats().delivered, net.stats().unroutable), (3_000, 0));
    assert_ceiling("two inline shards", tail, MEASURED_SHARDED);
}

/// The host path in steady state: eight AGG workers around one switch,
/// window 16, 32 lanes per chunk, lossless links.
#[test]
fn steady_state_handler_allocations_per_event() {
    let cfg = agg::AggConfig { num_workers: 8, num_slots: 16, slot_size: 32 };
    let (chunks, link) = (500, LinkSpec::default());
    let unit = Compiler::new(CompileOptions::default())
        .compile("agg.ncl", &agg::netcl_source(&cfg))
        .expect("AGG compiles");
    let workers: Vec<u32> = (0..cfg.num_workers).map(|w| 100 + w).collect();
    let mut topo = netcl_net::topo::star(1, &workers, link);
    topo.multicast_group(42, workers.iter().map(|&w| NodeId::Host(w)).collect());
    let states: Vec<_> = workers.iter().map(|_| Default::default()).collect();
    let mut b =
        NetworkBuilder::new(topo).device(1, Switch::new(unit.devices[0].tna_p4.clone()), 500);
    for (w, state) in states.iter().enumerate() {
        let guard = agg::slot_guard_ns(&link);
        let handler = agg::worker_handler(cfg, w as u32, chunks, guard, Arc::clone(state));
        b = b.host(workers[w], handler);
    }
    let mut net = b.build();
    for (w, state) in states.iter().enumerate() {
        for c in 0..cfg.num_slots {
            net.set_host_timer(workers[w], w as u64 * 50 + c as u64 * 10, c as u64);
            state.lock().unwrap().inflight.insert(c, c);
        }
    }
    let tail = measured_tail(|n| net.run(n));
    for state in &states {
        let state = state.lock().unwrap();
        let sums = |c| (0..cfg.slot_size).map(|i| agg::expected(&cfg, c, i)).collect::<Vec<_>>();
        assert!((0..chunks).all(|c| state.results.get(&c) == Some(&sums(c))), "a wrong sum");
        assert_eq!(state.retransmits, 0);
    }
    assert_ceiling("AGG star, a handler per host", tail, MEASURED_HANDLERS);
}
