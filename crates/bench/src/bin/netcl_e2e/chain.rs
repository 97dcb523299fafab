//! The compile chain every workload starts from: NetCL source → `ncc` →
//! P4 printed and parsed back → Tofino fit → loaded into a `netcl-bmv2`
//! switch, with one span per layer.
//!
//! The switch is loaded from the compiler's own program, as everywhere else
//! in the repository: `netcl_p4::parse` does not yet read every SALU
//! microprogram the printer writes (the conditional-max forms of AGG and
//! the Paxos acceptor and learner come back as a structured error), so the
//! parsed-back program is kept beside it, and a refusal is counted, not
//! treated as a failed compile.

use crate::spans::Spans;
use netcl::{CompileOptions, CompiledUnit, Compiler};
use netcl_bmv2::Switch;
use netcl_p4::ast::P4Program;
use netcl_tofino::AllocationReport;

/// One device of a compiled unit, past print → parse → fit.
pub struct Device {
    pub id: u16,
    /// The generated TNA program.
    pub program: P4Program,
    /// `program` printed.
    pub text: String,
    /// `text` parsed back, or why the parser refused it.
    pub reparsed: Result<P4Program, String>,
    pub fit: AllocationReport,
}

impl Device {
    /// Whole-nanosecond device latency for the simulator, from the fit.
    pub fn latency_ns(&self) -> u64 {
        self.fit.latency_ns.ceil() as u64
    }
}

pub struct Built {
    pub unit: CompiledUnit,
    pub devices: Vec<Device>,
}

pub fn compiler() -> Compiler {
    Compiler::new(CompileOptions::default())
}

/// Print → parse → fit for one device's generated TNA program.
pub fn finish_device(
    spans: &mut Spans,
    name: &str,
    id: u16,
    tna_p4: &P4Program,
) -> Result<Device, String> {
    let text = spans.leaf("p4.print", || netcl_p4::print::print_program(tna_p4));
    let reparsed =
        spans.leaf("p4.parse", || netcl_p4::parse::parse_program(&text)).map_err(|e| e.to_string());
    let fit = spans
        .leaf("tofino.fit", || netcl_tofino::fit(tna_p4))
        .map_err(|e| format!("{name}: does not fit: {e}"))?;
    Ok(Device { id, program: tna_p4.clone(), text, reparsed, fit })
}

/// The whole chain short of loading, cold.
pub fn build(spans: &mut Spans, cc: &Compiler, name: &str, source: &str) -> Result<Built, String> {
    let unit = spans
        .leaf("core.compile", || cc.compile(name, source))
        .map_err(|e| format!("{name}: {e}"))?;
    let devices = unit
        .devices
        .iter()
        .map(|d| finish_device(spans, name, d.device, &d.tna_p4))
        .collect::<Result<_, _>>()?;
    Ok(Built { unit, devices })
}

/// Loads a program into a fresh switch (compiles it to the engines' forms).
pub fn load(spans: &mut Spans, program: &P4Program) -> Switch {
    spans.leaf("bmv2.load", || Switch::new(program.clone()))
}
