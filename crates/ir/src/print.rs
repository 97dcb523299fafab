//! Textual IR dump.
//!
//! The format intentionally echoes LLVM assembly (Fig. 9 middle row) so the
//! paper's examples are recognizable in `--dump-ir` output and golden tests
//! stay readable.

use crate::func::{Atomic, Function, Inst, InstKind, IntrinsicCall, Module, Terminator};
use crate::types::Operand;
use std::fmt::Write;

/// Prints a module: its name, its globals, then each kernel's
/// [`print_function`].
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; module {}", m.name);
    for (i, g) in m.globals.iter().enumerate() {
        let dims: Vec<String> = g.dims.iter().map(|d| format!("[{d}]")).collect();
        let mut attrs = Vec::new();
        if g.managed {
            attrs.push("managed");
        }
        if g.lookup {
            attrs.push("lookup");
        }
        let _ = writeln!(
            out,
            "@g{} = global {} {}{} ; {}{}",
            i,
            g.ty,
            g.name,
            dims.join(""),
            attrs.join(" "),
            if g.entries.is_empty() {
                String::new()
            } else {
                format!(" {} entries", g.entries.len())
            }
        );
    }
    for k in &m.kernels {
        out.push('\n');
        out.push_str(&print_function(k));
    }
    out
}

/// Prints one function.
pub fn print_function(f: &Function) -> String {
    let mut out = String::new();
    let args: Vec<String> = f
        .args
        .iter()
        .map(|a| {
            format!(
                "{} {}{}{}",
                a.ty,
                if a.in_message { "&" } else { "" },
                a.name,
                if a.count > 1 { format!("[{}]", a.count) } else { String::new() }
            )
        })
        .collect();
    let _ = writeln!(out, "kernel({}) @{}({}) {{", f.computation, f.name, args.join(", "));
    for (i, l) in f.locals.iter_enumerated() {
        let _ = writeln!(out, "  {i:?} = local {} x{} ; {}", l.ty, l.count, l.name);
    }
    for (bid, b) in f.blocks.iter_enumerated() {
        let _ = writeln!(out, "{bid}:");
        for inst in &b.insts {
            let _ = writeln!(out, "  {}", print_inst(f, inst));
        }
        let term = match &b.term {
            Terminator::Br(t) => format!("br {t}"),
            Terminator::CondBr { cond, then_bb, else_bb } => {
                format!("br {}, {then_bb}, {else_bb}", fmt_op(*cond))
            }
            Terminator::Ret(a) => match a.target {
                Some(t) => format!("ret {:?}({})", a.kind, fmt_op(t)),
                None => format!("ret {:?}()", a.kind),
            },
            Terminator::Unterminated => "<unterminated>".to_string(),
        };
        let _ = writeln!(out, "  {term}");
    }
    out.push_str("}\n");
    out
}

fn fmt_op(op: Operand) -> String {
    match op {
        Operand::Value(v) => format!("{v}"),
        Operand::Const(c, ty) => format!("{ty} {c}"),
    }
}

fn fmt_ops(ops: &[Operand]) -> String {
    ops.iter().map(|o| fmt_op(*o)).collect::<Vec<_>>().join(", ")
}

/// Prints a single instruction.
pub(crate) fn print_inst(f: &Function, inst: &Inst) -> String {
    let results = inst.results.iter().map(|r| format!("{r}")).collect::<Vec<_>>().join(", ");
    let lhs = if results.is_empty() { String::new() } else { format!("{results} = ") };
    let ty = inst.results.first().map(|&r| format!("{}", f.value_ty(r))).unwrap_or_default();
    let body = match &inst.kind {
        InstKind::Bin { op, a, b } => {
            format!("{} {ty} {}, {}", op.mnemonic(), fmt_op(*a), fmt_op(*b))
        }
        InstKind::Un { op, a } => format!("{} {ty} {}", op.mnemonic(), fmt_op(*a)),
        InstKind::Icmp { pred, a, b } => {
            format!("icmp {} {}, {}", pred.mnemonic(), fmt_op(*a), fmt_op(*b))
        }
        InstKind::Select { cond, a, b } => {
            format!("select {}, {}, {}", fmt_op(*cond), fmt_op(*a), fmt_op(*b))
        }
        InstKind::Cast { kind, a, to } => {
            let k = match kind {
                crate::types::CastKind::Zext => "zext",
                crate::types::CastKind::Sext => "sext",
                crate::types::CastKind::Trunc => "trunc",
            };
            format!("{k} {} to {to}", fmt_op(*a))
        }
        InstKind::Phi { incoming } => {
            let items: Vec<String> =
                incoming.iter().map(|(b, v)| format!("[{b}, {}]", fmt_op(*v))).collect();
            format!("phi {ty} {}", items.join(", "))
        }
        InstKind::LocalLoad { slot, index } => format!("load {slot}[{}]", fmt_op(*index)),
        InstKind::LocalStore { slot, index, value } => {
            format!("store {slot}[{}], {}", fmt_op(*index), fmt_op(*value))
        }
        InstKind::ArgRead { arg, index } => {
            format!("arg.read {}[{}]", f.args[*arg as usize].name, fmt_op(*index))
        }
        InstKind::ArgWrite { arg, index, value } => format!(
            "arg.write {}[{}], {}",
            f.args[*arg as usize].name,
            fmt_op(*index),
            fmt_op(*value)
        ),
        InstKind::MemRead { mem } => format!("mem.read {}[{}]", mem.mem, fmt_ops(&mem.indices)),
        InstKind::MemWrite { mem, value } => {
            format!("mem.write {}[{}], {}", mem.mem, fmt_ops(&mem.indices), fmt_op(*value))
        }
        InstKind::AtomicRmw(a) => {
            let Atomic { op, mem, cond, operands } = &**a;
            let mut s = format!("{} {}[{}]", op.name(), mem.mem, fmt_ops(&mem.indices));
            if let Some(c) = cond {
                let _ = write!(s, " if {}", fmt_op(*c));
            }
            if !operands.is_empty() {
                let _ = write!(s, ", {}", fmt_ops(operands));
            }
            s
        }
        InstKind::Lookup { table, key } => format!("lookup {table}, {}", fmt_op(*key)),
        InstKind::Hash { kind, bits, a } => {
            format!("hash.{:?}<{bits}> {}", kind, fmt_op(*a)).to_lowercase()
        }
        InstKind::Rand => format!("rand {ty}"),
        InstKind::MsgField { field } => format!("msg.{:?}", field).to_lowercase(),
        InstKind::Intrinsic(call) => {
            let IntrinsicCall { target, name, args } = &**call;
            format!("intrinsic {target}::{name}({})", fmt_ops(args))
        }
    };
    format!("{lhs}{body}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{ActionRef, FuncBuilder, MemId, MemRef, Terminator};
    use crate::types::{IrBinOp, IrTy, Operand as Op};

    #[test]
    fn printed_form_is_stable() {
        let mut b = FuncBuilder::new("sketch", 1);
        let arg = b.add_arg("k", IrTy::I32, 1, false);
        let k = b.emit(InstKind::ArgRead { arg, index: Op::imm(0, IrTy::I32) }, IrTy::I32).unwrap();
        let h = b
            .emit(
                InstKind::Hash {
                    kind: netcl_sema::builtins::HashKind::Crc16,
                    bits: 16,
                    a: Op::Value(k),
                },
                IrTy::I16,
            )
            .unwrap();
        b.emit(
            InstKind::AtomicRmw(Box::new(Atomic {
                op: netcl_sema::builtins::AtomicOp {
                    rmw: netcl_sema::builtins::AtomicRmw::SAdd,
                    cond: false,
                    ret_new: true,
                },
                mem: MemRef { mem: MemId(0), indices: [Op::Value(h)].into() },
                cond: None,
                operands: [Op::imm(1, IrTy::I32)].into(),
            })),
            IrTy::I32,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        let text = print_function(&f);
        assert!(text.contains("kernel(1) @sketch"));
        assert!(text.contains("arg.read k[i32 0]"));
        assert!(text.contains("hash.crc16<16>"));
        assert!(text.contains("atomic_sadd_new @g0"));
        assert!(text.contains("ret Pass()"));
    }

    #[test]
    fn bin_and_phi_printing() {
        let mut b = FuncBuilder::new("f", 2);
        let x = b.bin(IrBinOp::Add, Op::imm(1, IrTy::I8), Op::imm(2, IrTy::I8), IrTy::I8);
        let _ = x;
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        let text = print_function(&f);
        assert!(text.contains("add i8 i8 1, i8 2"), "{text}");
    }
}
