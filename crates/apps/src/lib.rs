//! The paper's evaluation applications (§VII, Table III).
//!
//! Each application ships in three forms:
//!
//! 1. **NetCL source** — the device code as the paper writes it (AGG is
//!    Fig. 7 plus the max-exponent extension; CACHE extends Fig. 4 with
//!    PUT/DEL, validity, cache-line sharing, and hot-key reporting; P4xos
//!    is Fig. 11's three kernels; CALC is the P4-tutorials calculator).
//! 2. **Handwritten P4 baseline** — an idiomatic P4₁₆ implementation of the
//!    same functionality over the same wire format, playing the role of the
//!    paper's "P4" column. It is P4 text (`handwritten_source`), read by
//!    `netcl_p4`'s parser. Baselines deliberately use the structures a P4
//!    programmer would reach for (e.g. AGG decides slot completion with a
//!    ternary MAT where the NetCL compiler uses in-SALU conditionals —
//!    the TCAM-vs-SRAM contrast Table V highlights).
//! 3. **One end-to-end driver per workload**, all over one [`Conditions`]
//!    and all returning a [`Run`]: [`agg::run_allreduce`] (Fig. 14 left and
//!    the AGG chaos rows), [`cache::run_response_time`] (Fig. 14 right),
//!    [`cache::run_coherence`] and [`paxos::run_paxos`] (the chaos rows).
//!
//! DESIGN.md §5 indexes which driver regenerates which table/figure.

#![warn(unreachable_pub)]

pub mod agg;
pub mod cache;
pub mod calc;
pub mod paxos;

use netcl::{CompileOptions, CompiledUnit, Compiler};
use netcl_net::{FaultSchedule, LinkSpec, NetStats, Network, NetworkBuilder, Topology};
use netcl_obs::Trace;

/// The network an end-to-end driver runs its workload on, and for how long.
#[derive(Clone, Debug)]
pub struct Conditions {
    /// Every link of the driver's topology.
    pub link: LinkSpec,
    /// The fault-RNG seed; with `faults` it fixes the run.
    pub seed: u64,
    /// Scheduled faults.
    pub faults: FaultSchedule,
    /// Event budget for `Network::run`.
    pub max_events: u64,
    /// Whether to trace the run; the trace comes back in [`Run::trace`].
    pub obs: bool,
}

impl Default for Conditions {
    /// Lossless links, `NetworkBuilder`'s default seed, no faults.
    fn default() -> Self {
        Conditions {
            link: LinkSpec::default(),
            seed: 0x5DEECE66D,
            faults: FaultSchedule::new(),
            max_events: 4_000_000,
            obs: false,
        }
    }
}

impl Conditions {
    /// A builder over `topology` with this run's seed, faults and
    /// observability.
    fn network(&self, topology: Topology) -> NetworkBuilder {
        let b = NetworkBuilder::new(topology).seed(self.seed).faults(self.faults.clone());
        if self.obs {
            b.observe()
        } else {
            b
        }
    }
}

/// What one end-to-end run produced.
#[derive(Debug)]
pub struct Run<R> {
    /// The application-level result.
    pub result: R,
    /// The network's counters — what the replay-determinism contract
    /// compares across reruns of the same [`Conditions`].
    pub stats: NetStats,
    /// The run's trace, when [`Conditions::obs`] asked for one.
    pub trace: Option<Trace>,
}

impl<R> Run<R> {
    /// `result` with the finished network's stats and trace.
    fn of(result: R, net: &mut Network) -> Run<R> {
        Run { result, stats: std::mem::take(&mut net.stats), trace: net.take_trace() }
    }
}

/// Compiles a NetCL application source with default options.
pub fn compile(name: &str, source: &str) -> CompiledUnit {
    Compiler::new(CompileOptions::default())
        .compile(name, source)
        .unwrap_or_else(|e| panic!("{name} failed to compile:\n{e}"))
}

/// The start of every handwritten baseline's text: the includes and the
/// NetCL shim header, as `netcl::codegen::ncl_header` declares it.
const PRELUDE: &str = r#"#include <core.p4>
#include <tna.p4>

header ncl_t {
    bit<16> src;
    bit<16> dst;
    bit<16> from;
    bit<16> to;
    bit<8> comp;
    bit<8> action;
    bit<16> target;
}

"#;

/// The forwarding table every handwritten baseline declares last.
const L2_FWD: &str = r#"    table l2_fwd {
        key = { hdr.ncl.dst : exact }
        actions = { NoAction; }
        default_action = NoAction();
        size = 64;
    }
"#;

/// A handwritten baseline: its P4 `text`, read by the one P4 parser, named
/// `name`.
///
/// # Panics
///
/// If `text` does not parse; every caller passes this crate's own text.
fn baseline(name: &str, text: &str) -> netcl_p4::P4Program {
    let mut p = netcl_p4::parse::parse_program(text).unwrap_or_else(|e| panic!("{name}: {e}"));
    p.name = name.into();
    p
}

/// One evaluation application: name, NetCL source, handwritten baseline.
pub struct App {
    /// Table III name (`AGG`, `CACHE`, `PACC`, `PLRN`, `PLDR`, `CALC`).
    pub name: &'static str,
    /// NetCL device source.
    pub netcl_source: String,
    /// Handwritten P4 baseline.
    pub handwritten: netcl_p4::P4Program,
    /// The device the kernel is placed at.
    pub device: u16,
}

/// All Table III rows in paper order.
pub fn all_apps() -> Vec<App> {
    vec![
        App {
            name: "AGG",
            netcl_source: agg::netcl_source(&agg::AggConfig::default()),
            handwritten: agg::handwritten(&agg::AggConfig::default()),
            device: 1,
        },
        App {
            name: "CACHE",
            netcl_source: cache::netcl_source(&cache::CacheConfig::default()),
            handwritten: cache::handwritten(&cache::CacheConfig::default()),
            device: 1,
        },
        App {
            name: "PACC",
            netcl_source: paxos::acceptor_source(),
            handwritten: baseline("pacc_handwritten", &paxos::handwritten_acceptor_source()),
            device: paxos::ACCEPTOR_DEV,
        },
        App {
            name: "PLRN",
            netcl_source: paxos::learner_source(),
            handwritten: baseline("plrn_handwritten", &paxos::handwritten_learner_source()),
            device: paxos::LEARNER_DEV,
        },
        App {
            name: "PLDR",
            netcl_source: paxos::leader_source(),
            handwritten: baseline("pldr_handwritten", &paxos::handwritten_leader_source()),
            device: paxos::LEADER_DEV,
        },
        App {
            name: "CALC",
            netcl_source: calc::netcl_source(),
            handwritten: calc::handwritten(),
            device: 1,
        },
    ]
}

/// The empty program (Table V's EMPTY column): just the NetCL runtime shim
/// and base forwarding, no kernels.
pub fn empty_program() -> netcl_p4::P4Program {
    let unit = compile("empty.ncl", "_net_ unsigned unused_;\n");
    netcl_p4::P4Program::clone(&unit.devices[0].tna_p4)
}

/// Counts the non-blank, non-comment lines of a NetCL source (Table III's
/// NetCL column).
pub fn netcl_loc(source: &str) -> usize {
    source.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with("//")).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_compile_and_fit() {
        for app in all_apps() {
            let unit = compile(app.name, &app.netcl_source);
            let dev = unit
                .device(app.device)
                .unwrap_or_else(|| panic!("{}: device {} missing", app.name, app.device));
            let fit = netcl_tofino::fit(&dev.tna_p4)
                .unwrap_or_else(|e| panic!("{} does not fit Tofino: {e}", app.name));
            assert!(fit.stages_used <= 12, "{}", app.name);
        }
    }

    #[test]
    fn all_baselines_fit() {
        for app in all_apps() {
            let fit = netcl_tofino::fit(&app.handwritten)
                .unwrap_or_else(|e| panic!("{} baseline does not fit: {e}", app.name));
            assert!(fit.stages_used <= 12, "{} baseline", app.name);
        }
    }

    #[test]
    fn loc_reduction_order_of_magnitude() {
        // Table III: NetCL needs O(10) LoC where P4 needs O(100).
        for app in all_apps() {
            let ncl = netcl_loc(&app.netcl_source);
            let p4 = netcl_p4::print::loc(&netcl_p4::print::print_program(&app.handwritten));
            assert!(
                p4 >= 3 * ncl,
                "{}: NetCL {ncl} LoC vs P4 {p4} LoC — expected ≥3x reduction",
                app.name
            );
        }
    }

    /// The shim header the baselines' text declares is the one generated
    /// programs carry.
    #[test]
    fn the_prelude_declares_the_shim_header() {
        let prelude = netcl_p4::parse::parse_program(PRELUDE).unwrap();
        assert_eq!(*prelude.headers, [netcl::codegen::ncl_header()]);
    }

    /// At the default configurations, each baseline's text is what
    /// `artifacts/handwritten_p4/` ships after its first line (the program
    /// name), and the program read from it prints back to that file.
    #[test]
    fn baseline_texts_are_the_shipped_artifacts() {
        let texts = [
            agg::handwritten_source(&Default::default()),
            cache::handwritten_source(&Default::default()),
            paxos::handwritten_acceptor_source(),
            paxos::handwritten_learner_source(),
            paxos::handwritten_leader_source(),
            calc::handwritten_source(),
        ];
        for (app, text) in all_apps().into_iter().zip(texts) {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../artifacts/handwritten_p4");
            let path = format!("{dir}/{}.p4", app.name.to_lowercase());
            let shipped = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(shipped.split_once('\n').map(|(_, body)| body), Some(&*text), "{path}");
            assert_eq!(netcl_p4::print::print_program(&app.handwritten), shipped, "{path}");
        }
    }

    #[test]
    fn empty_program_is_small() {
        let p = empty_program();
        let fit = netcl_tofino::fit(&p).unwrap();
        assert!(fit.stages_used <= 2);
        assert!(fit.phv.percent() < 25.0);
    }
}
