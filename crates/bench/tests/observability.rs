//! End-to-end observability tests (DESIGN.md §12): the three telemetry
//! layers — compiler pass reports, switch data-plane counters, and the
//! simulator's trace — agree with each other and with the deterministic
//! [`netcl_net::NetStats`].

use netcl_apps::agg;
use netcl_bmv2::{Engine, Switch};
use netcl_net::{LinkSpec, NetworkBuilder, NodeId};

fn agg_cfg() -> agg::AggConfig {
    agg::AggConfig { num_workers: 3, num_slots: 4, slot_size: 8 }
}

/// The switch's own packet counter and the simulator's kernel-execution
/// stat are two independent observers of the same run; they must agree
/// exactly on a compiled AGG run.
#[test]
fn switch_counters_match_netstats() {
    let cfg = agg_cfg();
    let unit = netcl_apps::compile("agg.ncl", &agg::netcl_source(&cfg));
    let switch = Switch::new(unit.devices[0].tna_p4.clone());

    let workers: Vec<u32> = (0..cfg.num_workers).map(|w| 100 + w).collect();
    let mut topo = netcl_net::topo::star(1, &workers, LinkSpec::default());
    topo.multicast_group(42, workers.iter().map(|&w| NodeId::Host(w)).collect());
    let mut builder = NetworkBuilder::new(topo).device(1, switch, 500).observe();
    for &w in &workers {
        builder = builder.sink_host(w);
    }
    let mut net = builder.build();

    // Every worker contributes every chunk; the last contribution per chunk
    // multicasts the aggregate back to the group.
    for c in 0..4u32 {
        for w in 0..cfg.num_workers {
            net.send_from_host(100 + w, (c as u64) * 10_000, agg::chunk_packet(&cfg, w, c));
        }
    }
    net.run(10_000);

    let stats = net.stats.clone();
    assert!(stats.delivered > 0, "aggregates came back: {stats:?}");
    let counters = net.switch(1).expect("device 1").counters().clone();
    // One `process_into` per kernel execution (recirculations included) —
    // the data-plane counter and the simulator stat are independent
    // observers of the same packets.
    assert_eq!(counters.packets, stats.kernel_executions, "{counters:?} vs {stats:?}");
    assert_eq!(counters.errors, 0);
    assert!(counters.reg_action_execs > 0, "AGG runs SALU programs per packet");

    // The trace saw every kernel execution as a span and every host
    // delivery as an instant.
    let trace = net.take_trace().expect("tracing enabled");
    let spans = trace.events().filter(|e| e.name == "kernel").count() as u64;
    let delivers = trace.events().filter(|e| e.name == "deliver").count() as u64;
    // Recirculation passes fold into one span per arriving message.
    assert_eq!(spans + stats.recirculations, stats.kernel_executions);
    assert_eq!(delivers, stats.delivered);
}

/// Both engines agree on the counters for the same workload (the
/// differential-oracle property extends to telemetry).
#[test]
fn engines_agree_on_counters() {
    let cfg = agg_cfg();
    let unit = netcl_apps::compile("agg.ncl", &agg::netcl_source(&cfg));
    let mut fast = Switch::new(unit.devices[0].tna_p4.clone());
    let mut oracle = Switch::new(unit.devices[0].tna_p4.clone());
    oracle.set_engine(Engine::Interpreted);
    for c in 0..2u32 {
        for w in 0..cfg.num_workers {
            let wire = agg::chunk_packet(&cfg, w, c);
            fast.process(&wire).unwrap();
            oracle.process(&wire).unwrap();
        }
    }
    assert_eq!(fast.counters(), oracle.counters());
    let f: Vec<_> = fast.table_stats().collect();
    let o: Vec<_> = oracle.table_stats().collect();
    assert_eq!(f, o);
}

/// `--emit-pass-report` data: compiling the Fig. 7 AGG kernel with
/// telemetry yields a populated per-pass report whose deltas reconcile
/// with the pipeline totals.
#[test]
fn pass_report_populated_for_agg() {
    let cfg = agg_cfg();
    let opts = netcl::CompileOptions { pass_report: true, ..Default::default() };
    let unit = netcl::Compiler::new(opts)
        .compile("agg.ncl", &agg::netcl_source(&cfg))
        .expect("agg compiles");
    let rep = unit.devices[0].tna_pass_report.as_ref().expect("report requested");
    assert!(!rep.passes.is_empty());
    assert!(rep.total_ns() > 0, "wall time accounted");
    assert!(rep.insts_end < rep.insts_start, "the pipeline shrinks AGG");
    let sum: i64 = rep.passes.iter().map(|p| p.insts_delta).sum();
    assert_eq!(sum, rep.insts_end as i64 - rep.insts_start as i64, "deltas reconcile");
    let table = rep.render();
    for pass in ["fold", "dce", "mem2reg", "speculate"] {
        assert!(table.contains(pass), "missing {pass} in:\n{table}");
    }
    // Per-kernel attribution: the transpose of the per-pass table. Both
    // views partition the same measured runs, so every aggregate must
    // reconcile; function passes land on the kernel, module passes on
    // the `<module>` pseudo-kernel; both show up in the rendered table.
    rep.reconcile().expect("per-kernel view reconciles with per-pass view");
    assert!(
        rep.per_kernel.iter().any(|k| k.kernel != netcl::passes::MODULE_KERNEL),
        "the AGG kernel must have attributed passes"
    );
    let module = rep.kernel(netcl::passes::MODULE_KERNEL).expect("module passes attributed");
    assert!(module.runs > 0);
    let kernel_wall: u64 = rep.per_kernel.iter().map(|k| k.wall_ns).sum();
    assert_eq!(kernel_wall, rep.total_ns(), "kernel wall times sum to the pipeline total");
    assert!(table.contains("KERNEL"), "rendered table lists the per-kernel section");
    // Each kernel exports its own JSONL event, and the pipeline one more;
    // their records are exactly these.
    let events = rep.to_events();
    for k in &rep.per_kernel {
        let name = format!("kernel.{}", k.kernel);
        let ev = events.iter().find(|e| e.name == name).expect("one event per kernel");
        let (runs, wall, insts, blocks, rewrites) =
            (k.runs, k.wall_ns, k.insts_delta, k.blocks_delta, k.rewrites);
        let json = format!(
            r#"{{"event":"{name}","ts_ns":0,"runs":{runs},"wall_ns":{wall},"insts":{insts},"blocks":{blocks},"rewrites":{rewrites}}}"#
        );
        assert_eq!(ev.to_json(), json);
    }
    let (wall, insts, blocks, runs) = (rep.total_ns(), rep.insts_end, rep.blocks_end, rep.kernels);
    let cached = rep.from_cache as u64;
    let json = format!(
        r#"{{"event":"pipeline","ts_ns":0,"wall_ns":{wall},"insts":{insts},"blocks":{blocks},"runs":{runs},"from_cache":{cached}}}"#
    );
    assert_eq!(events.last().map(|e| e.to_json()), Some(json));
}

/// The chaos trace export is well-formed Chrome `trace_event` JSON.
#[test]
fn chaos_trace_is_perfetto_loadable() {
    let json = netcl_bench::chaos_trace_json(1);
    assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    for ph in ["\"ph\":\"X\"", "\"ph\":\"i\"", "\"ph\":\"C\"", "\"ph\":\"M\""] {
        assert!(json.contains(ph), "missing {ph}");
    }
    assert!(json.contains("\"process_name\"") && json.contains("\"thread_name\""));
    // Balanced braces — cheap structural sanity without a JSON parser.
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes);
}
