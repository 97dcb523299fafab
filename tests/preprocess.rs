//! The one-pass preprocessor writes and reports exactly what the
//! line-by-line oracle it replaced does (`crates/lang/tests/oracle`) on
//! every NetCL source this repository ships or generates: the paper's
//! listings, the applications' sources, and every unit of the benchmark's
//! fleet at seeds 7 and 11, as drawn and after two edits each.

#[allow(dead_code)]
#[path = "../crates/bench/src/bin/netcl_e2e/fleet.rs"]
mod fleet;
#[allow(dead_code)]
mod listings;
#[path = "../crates/lang/tests/oracle/mod.rs"]
mod oracle;

use netcl::util::{DiagnosticSink, Span};
use netcl_apps::{agg, cache, calc, paxos};

fn same_as_oracle(name: &str, source: &str) {
    let mut diags = DiagnosticSink::new();
    let old = oracle::preprocess(source, &mut diags);
    let new = netcl::lang::preprocess(source);
    assert_eq!(new.text, old, "{name}");
    let (new, old) = (new.diags.diagnostics(), diags.diagnostics());
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "{name}");
}

#[test]
fn shipped_sources_preprocess_as_before() {
    let sources = [
        ("figure 4", listings::FIGURE_4.to_string()),
        ("figure 7", listings::FIGURE_7.to_string()),
        ("5a", listings::SECTION_5A.to_string()),
        ("5b", listings::SECTION_5B.to_string()),
        ("5c", listings::SECTION_5C.to_string()),
        ("5d memory", listings::SECTION_5D_MEMORY.to_string()),
        ("5d ordering", listings::SECTION_5D_ORDERING.to_string()),
        ("agg", agg::netcl_source(&agg::AggConfig::default())),
        ("cache", cache::netcl_source(&cache::CacheConfig::default())),
        ("calc", calc::netcl_source()),
        ("paxos", paxos::full_source()),
        ("leader", paxos::leader_source()),
        ("acceptor", paxos::acceptor_source()),
        ("learner", paxos::learner_source()),
    ];
    for (name, source) in &sources {
        same_as_oracle(name, source);
    }
}

#[test]
fn every_fleet_unit_preprocesses_as_before() {
    for seed in [7, 11] {
        for mut unit in fleet::generate(seed, 192) {
            for rev in [0, 1, 2] {
                unit.render(rev);
                same_as_oracle(&format!("seed {seed}, {} rev {rev}", unit.name), &unit.source);
            }
        }
    }
}
