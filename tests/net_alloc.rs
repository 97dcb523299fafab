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
//! `Outbox` and the multicast fan-out are inside the measurement. The last
//! two tests read what a run keeps rather than what it allocates: what an
//! AGG worker holds per result it received, and that a handler host
//! consumes each message, so twice the requests hold no more memory.

mod counting_alloc;

use counting_alloc::{allocs_during, live_bytes, Counting};
use netcl::{CompileOptions, Compiler};
use netcl_apps::{agg, calc};
use netcl_bmv2::Switch;
use netcl_net::{
    FatTree, FlowStream, HostEvent, HostHandler, LinkSpec, Network, NetworkBuilder, NodeId, Outbox,
    PrecomputedRoutes, Zipf,
};
use netcl_runtime::device::NO_DEVICE;
use netcl_runtime::message::{pack, Message};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
/// commit: 7 720 over 12 128 events of a lossless 8-worker AllReduce (four
/// events per chunk and worker: send, arrive at the switch, arrive at the
/// host, RTO timer); 7 736 while each worker hashed its exponents into a
/// table that grew twice in the measured part, and 7 744 while each host
/// also logged what its handler had read. Before
/// the host path was reworked, `netcl_e2e`'s `allreduce_agg` read 3.97 per
/// event: every chunk cycle rebuilt the specification, the lane vector, the
/// wire buffer, `Reliable`'s copy, an `Outbox` and the handler's own copy of
/// the message, and unpacked into vectors that grew by `push`. What is left
/// has an owner: the result `Vec` that `WorkerState::results` keeps (1 per
/// cycle), the payload the `HostSend` event owns (1), and the copy each
/// multicast member but the last is handed, which its handler borrows and
/// which is dropped after the call (⅞) — 2.875 per four events in mid-run
/// (0.72, which is what `allreduce_agg` reads), less here because the run
/// ends in a window of RTO timers that find their chunk acked. One more
/// allocation per message anywhere on the path lands above the ceiling, and
/// the ceiling below 1.
const MEASURED_HANDLERS: f64 = 7_720.0 / 12_128.0;
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

/// Allocations of a fat-tree's routing set-up, measured at this commit:
/// 117 for the k=8 forest and a 2-shard partition of 2 000 flows. The
/// per-flow trace it replaced made 105: counting the distinct pairs first
/// adds the pair map's doublings, logarithmic in the number of pairs.
const SETUP_MEASURED: u64 = 117;

/// The set-up the fat-tree workloads run before their first event, on k=8:
/// `PrecomputedRoutes::new` (the CSR index and the switch forest) and
/// `partition_balanced` over 2 000 Zipf flows (the pair counts, the weights
/// and the packed units). The flow list is built first, so the schedule's
/// own allocations are not counted. The ceiling is the measured figure
/// plus 10 %; a tree build that allocates per target, or a partition that
/// allocates per flow, lands above it.
#[test]
fn fat_tree_setup_allocations() {
    let ft = FatTree::new(8, LinkSpec::default()).expect("k=8");
    let zipf = Zipf::new(ft.num_hosts(), 0.99);
    let edges = ft.edge_by_pod.concat();
    let per_edge = ft.num_hosts() / edges.len();
    let flows: Vec<(u32, u16)> = FlowStream::new(7, &ft.hosts, &zipf, 2_000, 10)
        .map(|f| (f.src, edges[(f.key as usize - 1) / per_edge]))
        .collect();
    let (_, allocs) = allocs_during(|| {
        let routes = PrecomputedRoutes::new(&ft.topology);
        ft.partition_balanced(&routes, flows.iter().copied(), 2)
    });
    assert!(
        allocs as f64 <= SETUP_MEASURED as f64 * 1.10,
        "{allocs} allocations (ceiling {SETUP_MEASURED} + 10 %)"
    );
}

/// The AGG star of the host-path readings: eight workers around one
/// switch, window 16, 32 lanes per chunk, lossless links, 500 chunks, every
/// worker's window kicked off.
fn agg_star() -> (Network, Vec<Arc<Mutex<agg::WorkerState>>>) {
    let (chunks, link) = (AGG_CHUNKS, LinkSpec::default());
    let unit = Compiler::new(CompileOptions::default())
        .compile("agg.ncl", &agg::netcl_source(&AGG))
        .expect("AGG compiles");
    let workers: Vec<u32> = (0..AGG.num_workers).map(|w| 100 + w).collect();
    let mut topo = netcl_net::topo::star(1, &workers, link);
    topo.multicast_group(42, workers.iter().map(|&w| NodeId::Host(w)).collect());
    let states: Vec<_> = workers.iter().map(|_| Default::default()).collect();
    let mut b =
        NetworkBuilder::new(topo).device(1, Switch::new(unit.devices[0].tna_p4.clone()), 500);
    for (w, state) in states.iter().enumerate() {
        let guard = agg::slot_guard_ns(&link);
        let handler = agg::worker_handler(AGG, w as u32, chunks, guard, Arc::clone(state));
        b = b.host(workers[w], handler);
    }
    let mut net = b.build();
    for (w, state) in states.iter().enumerate() {
        for c in 0..AGG.num_slots {
            net.set_host_timer(workers[w], w as u64 * 50 + c as u64 * 10, c as u64);
            state.lock().unwrap().inflight.insert(c, c);
        }
    }
    (net, states)
}

const AGG: agg::AggConfig = agg::AggConfig { num_workers: 8, num_slots: 16, slot_size: 32 };
const AGG_CHUNKS: u32 = 500;

/// Every worker holds every chunk's sum, and none retransmitted.
fn assert_every_sum(states: &[Arc<Mutex<agg::WorkerState>>]) {
    let sums = |c| (0..AGG.slot_size).map(|i| agg::expected(&AGG, c, i)).collect::<Vec<_>>();
    for state in states {
        let state = state.lock().unwrap();
        assert!((0..AGG_CHUNKS).all(|c| state.results.get(&c) == Some(&sums(c))), "a wrong sum");
        assert_eq!(state.retransmits, 0);
    }
}

/// The host path in steady state: the AGG star, a handler per host.
#[test]
fn steady_state_handler_allocations_per_event() {
    let (mut net, states) = agg_star();
    let tail = measured_tail(|n| net.run(n));
    assert_every_sum(&states);
    assert_ceiling("AGG star, a handler per host", tail, MEASURED_HANDLERS);
}

/// Bytes an AGG worker holds per result it received, measured at this
/// commit: 1 142 560 over 4 000 results. Each result is its 256-byte lane
/// vector, its 24-byte slot in the chunk-indexed store and its exponent
/// byte; `completed` adds 4 bytes a result, the slot table and the state
/// itself a few hundred bytes per worker. The hashed stores it replaced
/// read 363.5 bytes per result: `results` reserved to a 1 024-bucket table
/// of 32-byte entries, `exps` grown to another of 16-byte entries.
const MEASURED_STATE_BYTES_PER_RESULT: f64 = 1_142_560.0 / 4_000.0;

/// What a finished AllReduce keeps, per result: the network (and with it
/// every handler's handle on its worker's state) is dropped first, then
/// what dropping the eight `WorkerState`s frees is read. The ceiling is the
/// measured figure plus 5 %; a store that spends one more pointer per
/// chunk lands above it.
#[test]
fn worker_state_bytes_per_result() {
    let (mut net, states) = agg_star();
    net.run(u64::MAX);
    assert_every_sum(&states);
    drop(net);
    let held = live_bytes();
    drop(states);
    let results = (AGG.num_workers * AGG_CHUNKS) as f64;
    let per_result = (held - live_bytes()) as f64 / results;
    assert!(
        per_result <= MEASURED_STATE_BYTES_PER_RESULT * 1.05,
        "{per_result:.1} bytes per result (ceiling {MEASURED_STATE_BYTES_PER_RESULT:.1} + 5 %)"
    );
}

/// A closed-loop client at host 1: one request outstanding, each answer
/// releasing the next until `answered` reaches `budget`. Even requests ask
/// the CALC switch (device 1) for `n + 2n`, odd ones go to the echo host 2.
fn calc_client(budget: Arc<AtomicU64>, answered: Arc<AtomicU64>) -> HostHandler {
    Box::new(move |_now, ev, out: &mut Outbox| {
        if let HostEvent::Message(bytes) = ev {
            let n = answered.load(Ordering::Relaxed);
            let from_echo = Message::read_header(bytes).expect("a whole header").src == 2;
            let want = if from_echo { 0 } else { calc::reference(calc::OP_ADD, n, 2 * n) };
            assert_eq!(
                calc::result_of(bytes),
                Some(want),
                "answer {n}, from the echo: {from_echo}"
            );
            answered.store(n + 1, Ordering::Relaxed);
        }
        let n = answered.load(Ordering::Relaxed);
        if n < budget.load(Ordering::Relaxed) {
            let mut wire = calc::request(1, calc::OP_ADD, n, 2 * n);
            if n % 2 == 1 {
                Message::new(1, 2, 1, NO_DEVICE).write_header_into(&mut wire);
            }
            out.send(0, wire);
        }
    })
}

/// Host 2: sends every message back to where it came from.
fn echo() -> HostHandler {
    Box::new(|_now, ev, out: &mut Outbox| {
        let HostEvent::Message(bytes) = ev else { return };
        let m = Message::read_header(bytes).expect("a whole header");
        let mut reply = bytes.to_vec();
        Message::new(m.dst, m.src, m.comp, NO_DEVICE).write_header_into(&mut reply);
        out.send(0, reply);
    })
}

/// A message ends where it is consumed: a host with a handler keeps no log
/// of what it received, so the memory a run holds does not grow with its
/// history. A closed-loop client and an echo host around one CALC switch
/// answer `N` requests and then `2N`; what the thread holds after the
/// second run is within a fixed slack of what it held after the first (it
/// reads 0). Hosts that logged their messages as well held 173 304 bytes
/// more.
#[test]
fn handler_hosts_retain_nothing() {
    const N: u64 = 2_000;
    /// What may differ between the two readings: the event queue and the
    /// packet buffers are at working size after the first run.
    const SLACK: i64 = 4 << 10;
    let unit = Compiler::new(CompileOptions::default())
        .compile("calc.ncl", &calc::netcl_source())
        .expect("CALC compiles");
    let (budget, answered) = (Arc::new(AtomicU64::new(N)), Arc::new(AtomicU64::new(0)));
    let mut net = NetworkBuilder::new(netcl_net::topo::star(1, &[1, 2], LinkSpec::default()))
        .device(1, Switch::new(unit.devices[0].tna_p4.clone()), 500)
        .host(1, calc_client(Arc::clone(&budget), Arc::clone(&answered)))
        .host(2, echo())
        .build();
    let mut run_to = |requests: u64| {
        budget.store(requests, Ordering::Relaxed);
        // A timer is the kick-off: the client sends its next request.
        net.set_host_timer(1, net.now(), 0);
        net.run(u64::MAX);
        assert_eq!(answered.load(Ordering::Relaxed), requests, "every request answered");
        assert!(net.host_received(1).is_empty() && net.host_received(2).is_empty());
        live_bytes()
    };
    let after_n = run_to(N);
    let after_2n = run_to(2 * N);
    assert!(
        after_2n - after_n <= SLACK,
        "{} more bytes held after {} requests than after {N} (slack {SLACK})",
        after_2n - after_n,
        2 * N
    );
}
