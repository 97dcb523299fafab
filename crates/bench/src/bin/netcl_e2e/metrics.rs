//! The names this benchmark reports — workloads, end-to-end metrics and
//! per-layer metrics — in the order `BENCHMARK.json` lists them. `--check`
//! validates that the two agree; README.md says what each one means and
//! which end-to-end metric each layer metric is expected to move.

use crate::spans::Total;
use crate::stats::Summary;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Workload names, permanent once published.
pub const WORKLOADS: [&str; 7] = [
    "compile_fleet",
    "compile_edit",
    "switch_replay",
    "fattree_calc",
    "fattree_calc_2shard",
    "allreduce_agg",
    "kv_cache_mixed",
];

/// `(name, unit)` of every end-to-end metric; every workload reports all.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// The 16 passes of `netcl_passes::run_pipeline`, in first-run order.
pub const PASSES: [&str; 16] = [
    "fold",
    "strength-reduce",
    "dce",
    "cfg-simplify",
    "cfg-check-dag",
    "mem2reg",
    "partition",
    "dup-lookup",
    "hoist-common",
    "speculate",
    "icmp-to-sub-msb",
    "detect-bswap",
    "memcheck",
    "phi-elim",
    "structurize",
    "ir-verify",
];

/// The four data-plane applications `switch_replay` drives.
pub const REPLAY_APPS: [&str; 4] = ["calc", "agg", "cache", "pacc"];

/// `(name, unit)` of every per-layer metric except the per-pass and
/// per-app families, which [`per_layer`] expands.
const PER_LAYER_FIXED: [(&str, &str); 71] = [
    // Compiler stages (traced re-drive of each unit, stage by stage).
    ("core.compile_s", "s"),
    ("lang.parse_s", "s"),
    ("lang.source_bytes", "B"),
    ("sema.analyze_s", "s"),
    ("core.lower_s", "s"),
    ("ir.verify_s", "s"),
    ("ir.insts_start", "count"),
    ("ir.insts_end", "count"),
    ("passes.tna_s", "s"),
    ("passes.v1model_s", "s"),
    ("passes.rewrites", "count"),
    ("core.codegen_s", "s"),
    ("p4.print_s", "s"),
    ("p4.parse_s", "s"),
    ("p4.text_bytes", "B"),
    ("p4.parse_refused", "count"),
    ("tofino.fit_s", "s"),
    ("tofino.stages_used", "count"),
    ("tofino.phv_pct", "%"),
    ("tofino.latency_ns", "ns"),
    ("bmv2.load_s", "s"),
    ("core.allocs_per_unit", "count"),
    // Compile cache.
    ("core.cache.unit_hits", "count"),
    ("core.cache.unit_misses", "count"),
    ("core.cache.device_hits", "count"),
    ("core.edit_round_s", "s"),
    // Data plane.
    ("bmv2.packets", "count"),
    ("bmv2.reg_action_execs", "count"),
    ("bmv2.table_hits", "count"),
    ("bmv2.table_misses", "count"),
    ("bmv2.errors", "count"),
    ("bmv2.allocs_per_pkt", "count"),
    ("bmv2.in_sim_s", "s"),
    ("bmv2.in_sim_ns_p50", "ns"),
    ("bmv2.in_sim_ns_p99", "ns"),
    // Simulator.
    ("net.topology_s", "s"),
    ("net.routes_s", "s"),
    ("net.partition_s", "s"),
    ("net.build_s", "s"),
    ("net.run_s", "s"),
    ("net.self_s", "s"),
    ("net.events", "count"),
    ("net.events_per_op", "count"),
    ("net.kernel_executions", "count"),
    ("net.delivered", "count"),
    ("net.delivered_at_source", "count"),
    ("net.flow_source_s", "s"),
    ("net.flow_source_calls", "count"),
    ("net.allocs_per_event", "count"),
    ("net.alloc_bytes_per_event", "B"),
    // Sharding.
    ("net.shard.rounds", "count"),
    ("net.shard.busy_sum_s", "s"),
    ("net.shard.busy_max_s", "s"),
    ("net.shard.busiest_share", "ratio"),
    ("net.shard.wait_s", "s"),
    ("net.shard.efficiency", "ratio"),
    ("net.shard.peak_queue", "count"),
    ("net.shard.critical_path_s", "s"),
    // Hosts and wire format.
    ("apps.handler_s", "s"),
    ("apps.handler_calls", "count"),
    ("runtime.pack_ns", "ns"),
    ("runtime.unpack_ns", "ns"),
    ("runtime.retransmits", "count"),
    // Simulated-time results: exact for a seed, compared for equality.
    ("sim.flow_latency_p50_ns", "ns"),
    ("sim.flow_latency_p99_ns", "ns"),
    ("sim.agg_ate_per_s_per_worker", "1/s"),
    ("sim.kv_get_hit_ns", "ns"),
    ("sim.kv_get_miss_ns", "ns"),
    // Harness.
    ("harness.check_s", "s"),
    ("harness.trace_overhead", "ratio"),
    ("harness.host_ref_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer() -> &'static [(String, &'static str)] {
    static ALL: OnceLock<Vec<(String, &'static str)>> = OnceLock::new();
    ALL.get_or_init(|| {
        let mut all: Vec<(String, &'static str)> =
            PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        all.extend(PASSES.iter().map(|p| (format!("passes.pass.{p}_s"), "s")));
        for family in ["bmv2.pps", "bmv2.scalar_pps"] {
            all.extend(REPLAY_APPS.iter().map(|a| (format!("{family}.{a}"), "1/s")));
        }
        all
    })
}

/// `(name, unit)` of every end-to-end metric, in the shape of [`per_layer`].
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

/// One reported metric of one run.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// The metrics one run collected, looked up by name when reporting.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn unit_of(name: &str) -> &'static str {
        let end_to_end = END_TO_END.iter().map(|&(n, u)| (n, u));
        let per_layer = per_layer().iter().map(|(n, u)| (n.as_str(), *u));
        end_to_end
            .chain(per_layer)
            .find(|&(n, _)| n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("`{name}` is not a metric of this benchmark"))
    }

    /// Records `name`; a name outside the published lists is a bug here.
    pub fn put(&mut self, name: &str, summary: Summary) {
        assert!(self.get(name).is_none(), "`{name}` reported twice");
        self.metrics.push(Metric { name: name.to_string(), unit: Report::unit_of(name), summary });
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value));
    }

    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        self.put(name, Summary::of(samples));
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every name of `names` in order: as recorded, or 0 where this
    /// workload has no such layer (the contract wants every name present).
    pub fn in_order(&self, names: &[(String, &'static str)]) -> Vec<Metric> {
        names
            .iter()
            .map(|(name, unit)| {
                self.get(name).cloned().unwrap_or(Metric {
                    name: name.clone(),
                    unit,
                    summary: Summary::single(0.0),
                })
            })
            .collect()
    }
}

/// Per-repeat values of layer metrics, filed as one summary per name.
#[derive(Default)]
pub struct LayerSamples {
    by_name: BTreeMap<String, Vec<f64>>,
}

impl LayerSamples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.by_name.entry(name.to_string()).or_default().push(value);
    }

    /// Pushes `total.secs()` of the span `span` under `metric`, 0 when the
    /// span did not run this repeat.
    pub fn push_span(&mut self, metric: &str, totals: &BTreeMap<&'static str, Total>, span: &str) {
        self.push(metric, totals.get(span).map_or(0.0, Total::secs));
    }

    pub fn file(self, report: &mut Report) {
        for (name, values) in self.by_name {
            report.samples(&name, &values);
        }
    }

    /// Files only the names `report` does not hold yet.
    pub fn file_absent(self, report: &mut Report) {
        for (name, values) in self.by_name {
            if report.get(&name).is_none() {
                report.samples(&name, &values);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|&(n, _)| n.to_string()).collect();
        names.extend(per_layer().iter().map(|(n, _)| n.clone()));
        names.extend(WORKLOADS.iter().map(|w| w.to_string()));
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn report_fills_absent_layers_with_zero_and_rejects_unknown_names() {
        let mut r = Report::default();
        r.count("net.events", 42.0);
        let out = r.in_order(per_layer());
        assert_eq!(out.len(), per_layer().len());
        assert_eq!(out.iter().find(|m| m.name == "net.events").unwrap().summary.median, 42.0);
        assert_eq!(out.iter().find(|m| m.name == "net.run_s").unwrap().summary.median, 0.0);
        let unknown = std::panic::catch_unwind(|| Report::default().count("net.bogus", 1.0));
        assert!(unknown.is_err());
    }
}
