//! P4 code generation (paper §VI-B "Code generation", Fig. 9).
//!
//! Translates a target-legal IR module (structured, φ-free) into a complete
//! P4 program containing the NetCL device runtime and the base program:
//!
//! * the NetCL shim header (Fig. 10 4-tuple + computation id + action
//!   fields) and per-computation argument headers; array arguments and
//!   surviving local arrays become header stacks,
//! * a parser FSM extracting the shim and, by computation id, the argument
//!   headers,
//! * one ingress control holding, per Fig. 9: a local variable per
//!   materialised value, `Register`/`RegisterAction` pairs per global
//!   memory access, MATs for lookup memory, index tables for dynamically
//!   indexed header stacks, and a top-level computation-id dispatch,
//! * the base-program skeleton the runtime is embedded into (an L2
//!   forwarding table — the "empty program" baseline of Table V).
//!
//! Each kernel is planned, then emitted. `plan` makes every placement
//! decision once over dense ids — which values are forwarded to header
//! fields and which get a `meta` local, where each argument and slot lives,
//! each region's join. `emit` turns the plan into statements by recursive
//! region descent over immediate post-dominators — the lexical-scope
//! construction the paper describes (conditional targets open sub-scopes;
//! sinks are emitted in the scope of the nearest common dominator) — and
//! names nothing but per-site resources, in emission order.

mod emit;
mod plan;

use netcl_ir::Module;
use netcl_p4::ast::*;
use std::sync::Arc;

/// Codegen failure (a construct the target cannot express).
#[derive(Debug, Clone)]
pub struct CodegenError {
    /// Error code (`E03xx` range).
    pub(crate) code: &'static str,
    /// Description.
    pub(crate) message: String,
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Generates the P4 program for a compiled device module, placed at device
/// 0 — where a location-less program runs: [`generate_at`] with device 0.
pub fn generate(module: &Module, target: Target) -> Result<P4Program, CodegenError> {
    generate_at(module, target, 0)
}

/// Generates the P4 program for a compiled device module placed at
/// `device`. The module does not name a device; `place` writes the id.
pub fn generate_at(
    module: &Module,
    target: Target,
    device: u16,
) -> Result<P4Program, CodegenError> {
    let mut cg = Codegen {
        module,
        program: P4Program { target, ..Default::default() },
        control: ControlDef { name: "Ig".into(), ..Default::default() },
        counters: emit::Counters::default(),
    };
    cg.headers();
    cg.parser();
    cg.globals();
    cg.base_program();
    cg.control.apply = cg.kernels()?;
    let mut program = cg.program;
    program.controls = vec![cg.control].into();
    place(&mut program, &module.name, device);
    Ok(program)
}

/// The per-device step of code generation. A module says nothing about the
/// device it runs on, so a program generated from it differs between two
/// devices in exactly two fields, which this writes: the program name
/// `<unit>_dev<device>` and the device, which the kernels' guard
/// `hdr.ncl.to == <device>` reads (the no-implicit-computation rule, §IV).
/// Applied to a clone of another device's program, it shares every part of
/// that program and copies none.
pub(crate) fn place(program: &mut P4Program, unit: &str, device: u16) {
    program.name = format!("{unit}_dev{device}");
    program.device = device;
}

/// The name of the NetCL shim header instance.
pub(crate) const NCL_HDR: &str = "ncl";

/// The NetCL shim header type (Fig. 10): 4-tuple + computation + action +
/// target, in `netcl_runtime::message`'s wire order. Generated programs and
/// the handwritten baselines declare this one definition.
pub fn ncl_header() -> HeaderDef {
    HeaderDef {
        name: "ncl_t".into(),
        fields: vec![
            ("src".into(), 16),
            ("dst".into(), 16),
            ("from".into(), 16),
            ("to".into(), 16),
            ("comp".into(), 8),
            ("action".into(), 8),
            ("target".into(), 16),
        ],
        stack: 1,
    }
}

/// Header-stack instance name of array argument `arg` of computation `c`.
fn arg_stack(c: u8, arg: usize) -> String {
    format!("arr_c{c}_a{arg}")
}

fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

struct Codegen<'a> {
    module: &'a Module,
    program: P4Program,
    control: ControlDef,
    counters: emit::Counters,
}

impl Codegen<'_> {
    fn headers(&mut self) {
        let headers = Arc::make_mut(&mut self.program.headers);
        headers.push(ncl_header());
        for k in &self.module.kernels {
            let mut fields = Vec::new();
            for (i, a) in k.args.iter().enumerate() {
                if a.count == 1 {
                    fields.push((format!("a{}_{}", i, a.name), a.ty.bits as u32));
                } else {
                    headers.push(HeaderDef {
                        name: format!("{}_t", arg_stack(k.computation, i)),
                        fields: vec![("value".into(), a.ty.bits as u32)],
                        stack: a.count,
                    });
                }
            }
            if !fields.is_empty() {
                headers.push(HeaderDef {
                    name: format!("args_c{}_t", k.computation),
                    fields,
                    stack: 1,
                });
            }
        }
    }

    fn parser(&mut self) {
        let kernels = &self.module.kernels;
        let mut states = vec![ParserState {
            name: "start".into(),
            extracts: vec![format!("hdr.{NCL_HDR}")],
            transition: if kernels.is_empty() {
                Transition::Accept
            } else {
                Transition::Select {
                    selector: Expr::field(&["hdr", NCL_HDR, "comp"]),
                    cases: kernels
                        .iter()
                        .map(|k| (k.computation as u64, format!("parse_c{}", k.computation)))
                        .collect(),
                    default: "accept".into(),
                }
            },
        }];
        for k in kernels {
            let mut extracts = Vec::new();
            if k.args.iter().any(|a| a.count == 1) {
                extracts.push(format!("hdr.args_c{}", k.computation));
            }
            for (i, a) in k.args.iter().enumerate() {
                if a.count > 1 {
                    extracts.push(format!("hdr.{}", arg_stack(k.computation, i)));
                }
            }
            states.push(ParserState {
                name: format!("parse_c{}", k.computation),
                extracts,
                transition: Transition::Accept,
            });
        }
        self.program.parser = Some(ParserDef { name: "IgParser".into(), states }.into());
    }

    /// One register per global memory object; lookup tables are
    /// materialised per access site.
    fn globals(&mut self) {
        for g in &self.module.globals {
            if g.lookup || netcl_passes::partition::is_replaced_husk(g) {
                continue;
            }
            self.control.registers.push(RegisterDef {
                name: g.name.as_str().into(),
                elem_bits: (g.ty.bits as u32).max(8),
                size: g.element_count() as u32,
            });
        }
    }

    /// The base P4 program the runtime is embedded into (§VI-C): plain
    /// link-layer forwarding driven by the control plane. This is the
    /// "EMPTY" program of Table V.
    fn base_program(&mut self) {
        self.control.actions.push(ActionDef {
            name: "set_egress".into(),
            params: vec![("port".into(), 16)],
            body: vec![Stmt::Assign(Expr::field(&["meta", "egress_port"]), Expr::field(&["port"]))],
        });
        self.control.locals.push(("egress_port".into(), 16));
        self.control.tables.push(TableDef {
            name: "l2_fwd".into(),
            keys: vec![(Expr::field(&["hdr", NCL_HDR, "dst"]), MatchKind::Exact)],
            actions: vec!["set_egress".into()],
            entries: vec![],
            default_action: "NoAction".into(),
            size: 64,
        });
    }

    /// The apply block: kernels behind a computation-id `if` / `else` chain,
    /// inside the device guard, then base forwarding.
    fn kernels(&mut self) -> Result<Vec<Stmt>, CodegenError> {
        let module = self.module;
        let mut arms = Vec::with_capacity(module.kernels.len());
        for f in &module.kernels {
            let plan = plan::KernelPlan::build(f);
            let body = emit::kernel(self, f, &plan)?;
            let comp = Expr::Bin(
                P4BinOp::Eq,
                Box::new(Expr::field(&["hdr", NCL_HDR, "comp"])),
                Box::new(Expr::val(f.computation as u64, 8)),
            );
            arms.push((comp, body));
        }
        // Nest: if c1 {..} else { if c2 {..} else {..} }
        let chain = arms
            .into_iter()
            .rev()
            .fold(vec![], |els, (cond, then)| vec![Stmt::If { cond, then, els }]);
        Ok(vec![
            Stmt::If { cond: Expr::device_guard(), then: chain, els: vec![] },
            Stmt::ApplyTable("l2_fwd".into()),
        ])
    }
}
