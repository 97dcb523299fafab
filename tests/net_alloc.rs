//! What the simulator's event loop allocates per event (ROADMAP direction
//! 1, DESIGN.md §13): a streamed CALC fat-tree in steady state. Node state
//! is a table indexed by dense node index, a hop moves its wire buffer, a
//! switch swaps it with its output buffer and a sink host keeps it — so
//! what is left is the amortised growth of the event heap and of each
//! host's `received`. The requests are packed before the measurement: a
//! flow source's own `pack` is two allocations per flow (0.23 per event on
//! `netcl_e2e`'s `fattree_calc`, all but 0.01 of its `net.allocs_per_event`)
//! and is not the simulator's. The ceiling below is the measured figure
//! plus 10 %: host- and load-independent, and the number the next
//! per-event-allocation change ratchets down.

mod counting_alloc;

use counting_alloc::{allocs_during, Counting};
use netcl::{CompileOptions, Compiler};
use netcl_apps::calc;
use netcl_bmv2::Switch;
use netcl_net::{FatTree, FlowStream, LinkSpec, NetworkBuilder, Zipf};
use netcl_runtime::message::{pack, Message};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per event measured at this commit: 51 over 14 846 events
/// (2 693 at the parent, whose sink hosts cloned every delivery).
const MEASURED: f64 = 51.0 / 14_846.0;

#[test]
fn steady_state_event_loop_allocations_per_event() {
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
    let mut net = b.build();

    // Every host is a client; a flow asks the edge switch of a
    // Zipf-popular host to add its two operands and reflect the sum.
    let zipf = Zipf::new(ft.num_hosts(), 0.99);
    let (edges, spec) = (ft.edge_by_pod.concat(), calc::spec());
    let requests: Vec<(u64, u32, Vec<u8>)> = FlowStream::new(7, &ft.hosts, &zipf, 3_000, 10)
        .map(|f| {
            let dev = edges[(f.key as usize - 1) / 2];
            let m = Message::new(f.src as u16, f.key as u16 - 1, 1, dev);
            let args = [Some(&[calc::OP_ADD][..]), Some(&[f.key]), Some(&[f.at_ns]), None];
            (f.at_ns, f.src, pack(&m, &spec, &args).expect("a CALC request packs"))
        })
        .collect();
    let mut requests = requests.into_iter();
    net.set_flow_source(Box::new(move || requests.next()));

    // Warm-up: the heap, the per-node counters and every switch's packet
    // buffers reach their working size.
    let warm_up = net.run(4_000);
    let (events, allocs) = allocs_during(|| net.run(u64::MAX));
    assert_eq!(net.stats.delivered, 3_000, "every flow's reply reaches its client");
    assert_eq!(net.stats.unroutable, 0);
    assert!(warm_up == 4_000 && events > 10_000, "{warm_up} + {events} events");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= MEASURED * 1.10,
        "{allocs} allocations over {events} events = {per_event:.5} per event \
         (ceiling {MEASURED:.5} + 10 %)"
    );
}
