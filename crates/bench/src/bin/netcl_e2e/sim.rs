//! What the four simulator workloads share: one view over the scalar and
//! the sharded network, the stopwatches wrapped around the closures the
//! benchmark hands to the simulator, and the timed `run()`.

use crate::alloc::Snapshot;
use crate::harness::{Harness, Timing};
use crate::metrics::LayerSamples;
use netcl_bmv2::Switch;
use netcl_net::{FlowSource, HostHandler, NetStats, Network, ShardedNetwork};
use netcl_obs::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The parts of `Network` and `ShardedNetwork` the workloads use.
pub trait Sim {
    fn set_flow_source(&mut self, source: FlowSource);
    fn run(&mut self, max_events: u64) -> u64;
    fn stats(&self) -> NetStats;
    fn host_received(&self, id: u32) -> &[(u64, Vec<u8>)];
    fn switch(&self, id: u16) -> Option<&Switch>;
    fn switch_mut(&mut self, id: u16) -> Option<&mut Switch>;
}

macro_rules! forward_sim {
    ($ty:ty, $stats:expr) => {
        impl Sim for $ty {
            fn set_flow_source(&mut self, source: FlowSource) {
                <$ty>::set_flow_source(self, source)
            }
            fn run(&mut self, max_events: u64) -> u64 {
                <$ty>::run(self, max_events)
            }
            fn stats(&self) -> NetStats {
                $stats(self)
            }
            fn host_received(&self, id: u32) -> &[(u64, Vec<u8>)] {
                <$ty>::host_received(self, id)
            }
            fn switch(&self, id: u16) -> Option<&Switch> {
                <$ty>::switch(self, id)
            }
            fn switch_mut(&mut self, id: u16) -> Option<&mut Switch> {
                <$ty>::switch_mut(self, id)
            }
        }
    };
}
forward_sim!(Network, |n: &Network| n.stats.clone());
forward_sim!(ShardedNetwork, ShardedNetwork::stats);

/// Time and calls summed by a stopwatch the benchmark wraps around a
/// closure it hands to the simulator. Statistics only, hence `Relaxed`.
#[derive(Default)]
pub struct Clock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Clock {
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// `(nanoseconds, calls)` so far.
    pub fn read(&self) -> (u64, u64) {
        (self.ns.load(Ordering::Relaxed), self.calls.load(Ordering::Relaxed))
    }
}

/// The stopwatches of one traced run; `None` in an untraced one, where
/// the closures run bare.
#[derive(Clone, Default)]
pub struct Stopwatches {
    pub handlers: Arc<Clock>,
    pub flow_source: Arc<Clock>,
}

/// `handler` as given, or inside the handler stopwatch when tracing.
pub fn host(handler: HostHandler, watches: Option<&Stopwatches>) -> HostHandler {
    match watches {
        None => handler,
        Some(w) => {
            let (clock, mut inner) = (Arc::clone(&w.handlers), handler);
            Box::new(move |now, ev, out| clock.time(|| inner(now, ev, out)))
        }
    }
}

/// `source` as given, or inside the flow-source stopwatch when tracing.
pub fn flow_source(source: FlowSource, watches: Option<&Stopwatches>) -> FlowSource {
    match watches {
        None => source,
        Some(w) => {
            let (clock, mut inner) = (Arc::clone(&w.flow_source), source);
            Box::new(move || clock.time(&mut inner))
        }
    }
}

/// What one `run()` produced, beyond what the network itself holds.
pub struct Ran {
    pub took: Timing,
    pub stats: NetStats,
}

/// Runs `net` to completion in one `run()` call, as a `net.run` span and one
/// timed section.
///
/// Traced (`watches` is `Some`), every kernel device's opt-in per-packet
/// stopwatch is switched on first; afterwards the stopwatch totals become
/// aggregated children of the span and the run's layer metrics are pushed
/// to `layers`. `ops` is the workload's own unit count, for `events_per_op`.
pub fn run<N: Sim>(
    h: &mut Harness,
    net: &mut N,
    devices: &[u16],
    watches: Option<&Stopwatches>,
    layers: &mut LayerSamples,
    ops: u64,
) -> Ran {
    let Some(w) = watches else {
        let ((), took) = h.timed(|h| {
            let span = h.spans.enter("net.run");
            net.run(u64::MAX);
            h.spans.exit(span);
        });
        return Ran { took, stats: net.stats() };
    };
    for &d in devices {
        net.switch_mut(d).expect("a device the workload added").set_timing(true);
    }
    let before = Snapshot::now();
    let ((allocated, in_switch, handlers, source), took) = h.timed(|h| {
        let span = h.spans.enter("net.run");
        net.run(u64::MAX);
        let allocated = before.elapsed();
        let mut in_switch = Histogram::new();
        for &d in devices {
            in_switch.merge(net.switch(d).and_then(Switch::timing).expect("switched on above"));
        }
        let (handlers, source) = (w.handlers.read(), w.flow_source.read());
        h.spans.aggregated_child("bmv2.process", in_switch.sum(), in_switch.count());
        h.spans.aggregated_child("apps.handler", handlers.0, handlers.1);
        h.spans.aggregated_child("net.flow_source", source.0, source.1);
        h.spans.exit(span);
        (allocated, in_switch, handlers, source)
    });
    let ran = Ran { took, stats: net.stats() };
    let ((handler_ns, handler_calls), (source_ns, source_calls)) = (handlers, source);
    let (mut packets, mut reg_execs, mut errors, mut hits, mut misses) = (0, 0, 0, 0, 0);
    for &d in devices {
        let c = net.switch(d).expect("a device the workload added").counters();
        packets += c.packets;
        reg_execs += c.reg_action_execs;
        errors += c.errors;
        hits += c.table_hits.iter().sum::<u64>();
        misses += c.table_misses.iter().sum::<u64>();
    }

    // Layer figures are wall-clock: they are read against each other. The
    // span's self time is its duration minus the three children above.
    let run = h.spans.take_totals()["net.run"];
    let stats = &ran.stats;
    let events = stats.events as f64;
    layers.push("net.run_s", run.secs());
    layers.push("net.self_s", run.self_ns as f64 / 1e9);
    layers.push("net.events", events);
    layers.push("net.events_per_op", events / ops as f64);
    layers.push("net.kernel_executions", stats.kernel_executions as f64);
    layers.push("net.delivered", stats.delivered as f64);
    layers.push("net.flow_source_s", source_ns as f64 / 1e9);
    layers.push("net.flow_source_calls", source_calls as f64);
    layers.push("net.allocs_per_event", allocated.allocs as f64 / events);
    layers.push("net.alloc_bytes_per_event", allocated.bytes as f64 / events);
    layers.push("bmv2.in_sim_s", in_switch.sum() as f64 / 1e9);
    layers.push("bmv2.in_sim_ns_p50", in_switch.quantile(0.5) as f64);
    layers.push("bmv2.in_sim_ns_p99", in_switch.quantile(0.99) as f64);
    layers.push("bmv2.packets", packets as f64);
    layers.push("bmv2.reg_action_execs", reg_execs as f64);
    layers.push("bmv2.errors", errors as f64);
    layers.push("bmv2.table_hits", hits as f64);
    layers.push("bmv2.table_misses", misses as f64);
    layers.push("apps.handler_s", handler_ns as f64 / 1e9);
    layers.push("apps.handler_calls", handler_calls as f64);
    ran
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_closures_are_timed_and_bare_ones_are_not() {
        let w = Stopwatches::default();
        let mut left = 3;
        let mut source = flow_source(
            Box::new(move || {
                left -= 1;
                (left >= 0).then(|| (left as u64, 1, vec![0u8; 4]))
            }),
            Some(&w),
        );
        while source().is_some() {}
        assert_eq!(w.flow_source.read().1, 4);
        let mut bare = flow_source(Box::new(|| None), None);
        assert!(bare().is_none());
        assert_eq!(w.flow_source.read().1, 4);
        assert_eq!(w.handlers.read(), (0, 0));
    }
}
