//! In-network AllReduce end to end: the Fig. 7 kernel aggregating tensors
//! from 4 workers through the simulated switch, with loss injection and
//! retransmission (the SwitchML reliability scheme).
//!
//! ```text
//! cargo run --example allreduce
//! ```

use netcl_apps::{agg, Conditions};
use netcl_net::LinkSpec;

fn main() {
    let cfg = agg::AggConfig { num_workers: 4, num_slots: 8, slot_size: 16 };
    let unit = netcl_apps::compile("agg.ncl", &agg::netcl_source(&cfg));
    let p4 = &unit.devices[0].tna_p4;
    let fit = netcl_tofino::fit(p4).expect("fits");
    println!(
        "AGG compiled: {} stages, {} SALUs total, TCAM-free = {}",
        fit.stages_used,
        fit.per_stage.iter().map(|s| s.salus).sum::<u32>(),
        fit.tcam_free()
    );

    for loss in [0.0, 0.05] {
        let c = Conditions { link: LinkSpec::lossy(loss), ..Default::default() };
        let run = agg::run_allreduce(p4, &cfg, 32, fit.latency_ns.ceil() as u64, &c);
        let r = run.result;
        println!(
            "loss={loss:>4}: correct={} | {:.0} ATE/s/worker | {} retransmissions | {} kernel executions",
            r.all_correct, r.ate_per_sec_per_worker, r.retransmits, run.stats.kernel_executions
        );
        assert!(r.all_correct);
    }
}
