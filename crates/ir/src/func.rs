//! Instructions, basic blocks, functions, and modules.

use crate::types::{CastKind, IcmpPred, IrBinOp, IrTy, IrUnOp, Operand};
use netcl_sema::builtins::{ActionKind, AtomicOp, HashKind};
use netcl_sema::model::LookupEntry;
use netcl_util::define_index;
use netcl_util::idx::{Idx, IndexVec};

define_index!(BlockId, "bb");
define_index!(ValueId, "%v");
define_index!(LocalId, "loc");
define_index!(MemId, "@g");

/// Metadata for a defined SSA value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ValueInfo {
    /// The value's type.
    pub ty: IrTy,
    /// The slot this value is the φ of, when mem2reg promoted one; phi-elim
    /// names the φ's variable after it.
    pub phi_of: Option<LocalId>,
}

impl ValueInfo {
    /// A value of type `ty` that is no promoted slot's φ.
    pub fn of(ty: IrTy) -> ValueInfo {
        ValueInfo { ty, phi_of: None }
    }
}

/// A reference to (an element of) a global memory object.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct MemRef {
    /// Which global.
    pub mem: MemId,
    /// One index per dimension (empty for scalars).
    pub indices: Box<[Operand]>,
}

/// A function-local memory slot (LLVM `alloca` analogue): a variable or a
/// local array. Scalars are promoted to SSA by mem2reg; dynamically indexed
/// arrays survive to codegen as header stacks with index tables (Fig. 9).
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct LocalSlot {
    /// Source name.
    pub name: String,
    /// Element type.
    pub ty: IrTy,
    /// Element count (1 = scalar).
    pub count: u32,
}

/// Kernel argument descriptor (derived from the kernel specification).
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct ArgInfo {
    /// Source name.
    pub name: String,
    /// Element type.
    pub ty: IrTy,
    /// Element count.
    pub count: u32,
    /// Whether writes propagate to the message (by-ref / pointer args).
    /// By-value arguments are copied into locals at entry instead (§V-A).
    pub in_message: bool,
}

/// A NetCL message header field (paper Table I `msg` builtin).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgField {
    /// Source host id.
    Src,
    /// Destination host id.
    Dst,
    /// Previous device id.
    From,
    /// Target device id.
    To,
}

/// An instruction: kind plus 0, 1, or 2 result values.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Inst {
    /// The operation.
    pub kind: InstKind,
    /// Defined values (`Lookup` defines two: hit and value).
    pub results: Results,
}

/// An instruction's results, held in place: up to two ids, read as a slice
/// (`results[0]`, `.iter()`, `.first()`). An unused slot holds a
/// sentinel id that no function defines.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Results([ValueId; 2]);

impl Results {
    /// The id of an unused slot.
    pub(crate) const UNUSED: ValueId = ValueId(u32::MAX);
    /// No result (stores and writes).
    pub const NONE: Results = Results([Results::UNUSED; 2]);

    /// One result.
    pub fn one(v: ValueId) -> Results {
        debug_assert!(v != Results::UNUSED);
        Results([v, Results::UNUSED])
    }

    /// Two results (`Lookup`'s hit and value).
    pub(crate) fn two(a: ValueId, b: ValueId) -> Results {
        debug_assert!(a != Results::UNUSED && b != Results::UNUSED);
        Results([a, b])
    }

    /// The same count of results, each id mapped through `f`.
    pub fn map(self, mut f: impl FnMut(ValueId) -> ValueId) -> Results {
        let mut out = Results::NONE;
        for (slot, &v) in out.0.iter_mut().zip(self.iter()) {
            *slot = f(v);
        }
        out
    }
}

impl std::ops::Deref for Results {
    type Target = [ValueId];
    fn deref(&self) -> &[ValueId] {
        let n = self.0.iter().take_while(|&&v| v != Results::UNUSED).count();
        &self.0[..n]
    }
}

impl<'a> IntoIterator for &'a Results {
    type Item = &'a ValueId;
    type IntoIter = std::slice::Iter<'a, ValueId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::fmt::Debug for Results {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Instruction kinds.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum InstKind {
    /// Binary integer op; result width = operand width.
    Bin {
        /// Operator.
        op: IrBinOp,
        /// LHS.
        a: Operand,
        /// RHS.
        b: Operand,
    },
    /// Unary op (bswap, clz).
    Un {
        /// Operator.
        op: IrUnOp,
        /// Operand.
        a: Operand,
    },
    /// Integer comparison; result `i1`.
    Icmp {
        /// Predicate.
        pred: IcmpPred,
        /// LHS.
        a: Operand,
        /// RHS.
        b: Operand,
    },
    /// `cond ? a : b` on values.
    Select {
        /// Condition (`i1`).
        cond: Operand,
        /// Value when true.
        a: Operand,
        /// Value when false.
        b: Operand,
    },
    /// Width conversion.
    Cast {
        /// Kind.
        kind: CastKind,
        /// Operand.
        a: Operand,
        /// Destination type.
        to: IrTy,
    },
    /// SSA φ-node; one incoming operand per predecessor.
    Phi {
        /// `(pred block, value)` pairs.
        incoming: Vec<(BlockId, Operand)>,
    },
    /// Read from a local slot.
    LocalLoad {
        /// Slot.
        slot: LocalId,
        /// Element index.
        index: Operand,
    },
    /// Write to a local slot.
    LocalStore {
        /// Slot.
        slot: LocalId,
        /// Element index.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
    /// Read a kernel argument (message field).
    ArgRead {
        /// Argument position.
        arg: u32,
        /// Element index within the argument.
        index: Operand,
    },
    /// Write a kernel argument (message field) — by-ref/pointer args only.
    ArgWrite {
        /// Argument position.
        arg: u32,
        /// Element index within the argument.
        index: Operand,
        /// Stored value.
        value: Operand,
    },
    /// Plain global memory read (an atomic register read, §V-B).
    MemRead {
        /// Target element.
        mem: MemRef,
    },
    /// Plain global memory write.
    MemWrite {
        /// Target element.
        mem: MemRef,
        /// Stored value.
        value: Operand,
    },
    /// Read-modify-write atomic on a global element; defines the returned
    /// value (old or new per `op.ret_new`).
    AtomicRmw(Box<Atomic>),
    /// Search lookup memory. Defines two results: `hit: i1` and the matched
    /// value (undefined on miss; 0 width-wrapped for membership sets).
    Lookup {
        /// The `_lookup_` global.
        table: MemId,
        /// Search key.
        key: Operand,
    },
    /// Hash computation.
    Hash {
        /// Algorithm.
        kind: HashKind,
        /// Output bits (folded).
        bits: u8,
        /// Key operand.
        a: Operand,
    },
    /// Uniform random value of the result width.
    Rand,
    /// Read a NetCL header field (`msg.src` etc., Table I); result `i16`.
    /// `device.id`/`device.kind` never reach the IR — they are materialized
    /// as constants during lowering (§VI-B).
    MsgField {
        /// Which field.
        field: MsgField,
    },
    /// Target-specific intrinsic call; single result.
    Intrinsic(Box<IntrinsicCall>),
}

/// The operands of [`InstKind::AtomicRmw`], behind one box so that the
/// common instructions stay small.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Atomic {
    /// The atomic descriptor (`atomic_[cond_]op[_new]`).
    pub op: AtomicOp,
    /// Target element.
    pub mem: MemRef,
    /// Condition operand for `_cond` forms.
    pub cond: Option<Operand>,
    /// Value operands (0 for inc/dec, 2 for cas).
    pub operands: Box<[Operand]>,
}

/// The operands of [`InstKind::Intrinsic`], behind one box.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct IntrinsicCall {
    /// Namespace (`tna`, `v1`).
    pub target: String,
    /// Name.
    pub name: String,
    /// Arguments.
    pub args: Vec<Operand>,
}

impl InstKind {
    /// Number of results this instruction defines.
    pub(crate) fn result_count(&self) -> usize {
        match self {
            InstKind::LocalStore { .. } | InstKind::ArgWrite { .. } | InstKind::MemWrite { .. } => {
                0
            }
            InstKind::Lookup { .. } => 2,
            _ => 1,
        }
    }

    /// Whether the instruction has side effects (memory/message writes).
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            InstKind::LocalStore { .. }
                | InstKind::ArgWrite { .. }
                | InstKind::MemWrite { .. }
                | InstKind::AtomicRmw { .. }
        )
    }

    /// Whether the instruction reads or writes global memory.
    pub fn touches_global(&self) -> Option<MemId> {
        match self {
            InstKind::MemRead { mem } | InstKind::MemWrite { mem, .. } => Some(mem.mem),
            InstKind::AtomicRmw(a) => Some(a.mem.mem),
            InstKind::Lookup { table, .. } => Some(*table),
            _ => None,
        }
    }

    /// Visits every operand in order, without allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(Operand)) {
        match self {
            InstKind::Bin { a, b, .. } | InstKind::Icmp { a, b, .. } => {
                f(*a);
                f(*b);
            }
            InstKind::Un { a, .. } | InstKind::Cast { a, .. } | InstKind::Hash { a, .. } => f(*a),
            InstKind::Select { cond, a, b } => {
                f(*cond);
                f(*a);
                f(*b);
            }
            InstKind::Phi { incoming } => incoming.iter().for_each(|(_, v)| f(*v)),
            InstKind::LocalLoad { index, .. } | InstKind::ArgRead { index, .. } => f(*index),
            InstKind::LocalStore { index, value, .. } | InstKind::ArgWrite { index, value, .. } => {
                f(*index);
                f(*value);
            }
            InstKind::MemRead { mem } => mem.indices.iter().for_each(|i| f(*i)),
            InstKind::MemWrite { mem, value } => {
                mem.indices.iter().for_each(|i| f(*i));
                f(*value);
            }
            InstKind::AtomicRmw(a) => {
                a.mem.indices.iter().for_each(|i| f(*i));
                if let Some(c) = a.cond {
                    f(c);
                }
                a.operands.iter().for_each(|o| f(*o));
            }
            InstKind::Lookup { key, .. } => f(*key),
            InstKind::Rand | InstKind::MsgField { .. } => {}
            InstKind::Intrinsic(call) => call.args.iter().for_each(|a| f(*a)),
        }
    }

    /// Rewrites every operand through `f` (used by inlining and peepholes).
    pub fn map_operands(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        match self {
            InstKind::Bin { a, b, .. } | InstKind::Icmp { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            InstKind::Un { a, .. } | InstKind::Cast { a, .. } | InstKind::Hash { a, .. } => {
                *a = f(*a)
            }
            InstKind::Select { cond, a, b } => {
                *cond = f(*cond);
                *a = f(*a);
                *b = f(*b);
            }
            InstKind::Phi { incoming } => {
                for (_, v) in incoming {
                    *v = f(*v);
                }
            }
            InstKind::LocalLoad { index, .. } | InstKind::ArgRead { index, .. } => {
                *index = f(*index)
            }
            InstKind::LocalStore { index, value, .. } | InstKind::ArgWrite { index, value, .. } => {
                *index = f(*index);
                *value = f(*value);
            }
            InstKind::MemRead { mem } => {
                for i in mem.indices.iter_mut() {
                    *i = f(*i);
                }
            }
            InstKind::MemWrite { mem, value } => {
                for i in mem.indices.iter_mut() {
                    *i = f(*i);
                }
                *value = f(*value);
            }
            InstKind::AtomicRmw(a) => {
                for i in a.mem.indices.iter_mut() {
                    *i = f(*i);
                }
                if let Some(c) = &mut a.cond {
                    *c = f(*c);
                }
                for o in a.operands.iter_mut() {
                    *o = f(*o);
                }
            }
            InstKind::Lookup { key, .. } => *key = f(*key),
            InstKind::Rand | InstKind::MsgField { .. } => {}
            InstKind::Intrinsic(call) => {
                for a in &mut call.args {
                    *a = f(*a);
                }
            }
        }
    }
}

/// The action a kernel terminates with, possibly with a target operand.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct ActionRef {
    /// Which action.
    pub kind: ActionKind,
    /// Target host/device/group id for the targeted actions.
    pub target: Option<Operand>,
}

impl ActionRef {
    /// The implicit `pass()` action (§V-A).
    pub fn pass() -> ActionRef {
        ActionRef { kind: ActionKind::Pass, target: None }
    }
}

/// Block terminator.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch.
    CondBr {
        /// Condition (`i1`).
        cond: Operand,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
    },
    /// Kernel exit with a forwarding action.
    Ret(ActionRef),
    /// Placeholder while a block is under construction.
    Unterminated,
}

impl Terminator {
    /// Successor block ids, in branch order. The iterator owns its ids, so
    /// the blocks may be edited while it runs.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + Clone {
        let (first, second) = match *self {
            Terminator::Br(b) => (Some(b), None),
            Terminator::CondBr { then_bb, else_bb, .. } => (Some(then_bb), Some(else_bb)),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// Every block's predecessors in one array (CSR): `preds[b]` lists them in
/// block order, a condbr with both arms on `b` twice.
#[derive(Clone, Debug)]
pub struct Predecessors {
    start: Vec<u32>,
    preds: Vec<BlockId>,
}

impl std::ops::Index<BlockId> for Predecessors {
    type Output = [BlockId];
    fn index(&self, b: BlockId) -> &[BlockId] {
        &self.preds[self.start[b.index()] as usize..self.start[b.index() + 1] as usize]
    }
}

/// A basic block.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Block {
    /// Instructions in order (φ-nodes first).
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

impl Block {
    fn new() -> Block {
        Block { insts: Vec::new(), term: Terminator::Unterminated }
    }
}

/// A kernel (or, before inlining, a net function) in IR form.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Function {
    /// Source name.
    pub name: String,
    /// Computation id (kernels; 0 for net functions pre-inline).
    pub computation: u8,
    /// Kernel arguments in specification order.
    pub args: Vec<ArgInfo>,
    /// Basic blocks.
    pub blocks: IndexVec<BlockId, Block>,
    /// Value table.
    pub values: IndexVec<ValueId, ValueInfo>,
    /// Local slots.
    pub locals: IndexVec<LocalId, LocalSlot>,
    /// Entry block.
    pub entry: BlockId,
}

impl Function {
    /// The predecessor lists, computed on demand. Out-of-range targets are
    /// skipped; the verifier reports them.
    pub fn predecessors(&self) -> Predecessors {
        let n = self.blocks.len();
        let mut edges: Vec<(BlockId, BlockId)> = (self.blocks.iter_enumerated())
            .flat_map(|(id, b)| b.term.successors().map(move |s| (s, id)))
            .filter(|(s, _)| s.index() < n)
            .collect();
        edges.sort_unstable(); // by target, then in block order
        let start = (0..=n).map(|b| edges.partition_point(|(s, _)| s.index() < b) as u32);
        let start = start.collect();
        Predecessors { start, preds: edges.into_iter().map(|(_, p)| p).collect() }
    }

    /// The type of a value.
    pub fn value_ty(&self, v: ValueId) -> IrTy {
        self.values[v].ty
    }

    /// The type of an operand.
    pub fn operand_ty(&self, op: Operand) -> IrTy {
        match op {
            Operand::Value(v) => self.value_ty(v),
            Operand::Const(_, ty) => ty,
        }
    }

    /// Total instruction count, for size heuristics and tests.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A global memory object at module level (placed on one device).
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct GlobalDef {
    /// Source name (possibly suffixed by memory partitioning, §VI-B).
    pub name: String,
    /// Element type.
    pub ty: IrTy,
    /// Dimensions (empty = scalar).
    pub dims: Vec<usize>,
    /// Host-writable (`_managed_`).
    pub managed: bool,
    /// MAT-backed (`_lookup_`).
    pub lookup: bool,
    /// Lookup entries.
    pub entries: Vec<LookupEntry>,
    /// When this global was produced by memory partitioning or lookup
    /// duplication (§VI-B), the source object's name and this copy's outer
    /// index. The host runtime uses it to address `_managed_` memory by its
    /// source-level name.
    pub origin: Option<(String, usize)>,
}

impl GlobalDef {
    /// Total element count.
    pub fn element_count(&self) -> usize {
        self.dims.iter().product::<usize>().max(1)
    }
}

/// A compiled device module: everything placed on one device. It does not
/// name the device: after lowering, the id survives only as the constants
/// `device.id` lowered to, so devices whose modules are equal run the same
/// program (DESIGN.md §4).
#[derive(Clone, Debug, Default, PartialEq, Hash)]
pub struct Module {
    /// Source unit name.
    pub name: String,
    /// Global memory (indexed by [`MemId`]).
    pub globals: Vec<GlobalDef>,
    /// Kernels placed on this device.
    pub kernels: Vec<Function>,
}

impl Module {
    /// The global behind a [`MemId`].
    pub fn global(&self, id: MemId) -> &GlobalDef {
        &self.globals[id.0 as usize]
    }

    /// Finds a global by name.
    pub fn global_by_name(&self, name: &str) -> Option<(MemId, &GlobalDef)> {
        self.globals
            .iter()
            .enumerate()
            .find(|(_, g)| g.name == name)
            .map(|(i, g)| (MemId(i as u32), g))
    }
}

/// Incremental function construction, used by lowering and by tests.
pub struct FuncBuilder {
    /// The function being built.
    pub func: Function,
    /// Current insertion block.
    pub(crate) current: BlockId,
}

impl FuncBuilder {
    /// Starts a function with an entry block.
    pub fn new(name: &str, computation: u8) -> FuncBuilder {
        let mut blocks = IndexVec::new();
        let entry = blocks.push(Block::new());
        FuncBuilder {
            func: Function {
                name: name.to_string(),
                computation,
                args: Vec::new(),
                blocks,
                values: IndexVec::new(),
                locals: IndexVec::new(),
                entry,
            },
            current: entry,
        }
    }

    /// Appends a new (unterminated) block.
    pub fn new_block(&mut self) -> BlockId {
        self.func.blocks.push(Block::new())
    }

    /// Moves the insertion point.
    pub fn switch_to(&mut self, b: BlockId) {
        self.current = b;
    }

    /// True if the current block already has a terminator.
    pub fn is_terminated(&self) -> bool {
        !matches!(self.func.blocks[self.current].term, Terminator::Unterminated)
    }

    /// Declares a local slot.
    pub fn add_local(&mut self, name: &str, ty: IrTy, count: u32) -> LocalId {
        self.func.locals.push(LocalSlot { name: name.to_string(), ty, count })
    }

    /// Declares a kernel argument.
    pub fn add_arg(&mut self, name: &str, ty: IrTy, count: u32, in_message: bool) -> u32 {
        self.func.args.push(ArgInfo { name: name.to_string(), ty, count, in_message });
        (self.func.args.len() - 1) as u32
    }

    fn fresh_value(&mut self, ty: IrTy) -> ValueId {
        self.func.values.push(ValueInfo::of(ty))
    }

    /// Emits an instruction, returning its result if it defines one (of
    /// type `ty`). A lookup, which defines two, is built by
    /// [`FuncBuilder::emit_lookup`].
    pub fn emit(&mut self, kind: InstKind, ty: IrTy) -> Option<ValueId> {
        debug_assert!(kind.result_count() < 2, "a lookup is built by emit_lookup");
        if kind.result_count() == 0 {
            self.push(Inst { kind, results: Results::NONE });
            return None;
        }
        Some(self.emit_value(kind, ty))
    }

    /// Emits an instruction that defines one result of type `ty`.
    pub(crate) fn emit_value(&mut self, kind: InstKind, ty: IrTy) -> ValueId {
        debug_assert_eq!(kind.result_count(), 1, "{kind:?} does not define one result");
        let v = self.fresh_value(ty);
        self.push(Inst { kind, results: Results::one(v) });
        v
    }

    fn push(&mut self, inst: Inst) {
        assert!(!self.is_terminated(), "emitting into terminated block {:?}", self.current);
        self.func.blocks[self.current].insts.push(inst);
    }

    /// Emits a lookup with distinct hit (`i1`) and value types.
    pub fn emit_lookup(
        &mut self,
        table: MemId,
        key: Operand,
        value_ty: IrTy,
    ) -> (ValueId, ValueId) {
        let hit = self.fresh_value(IrTy::I1);
        let value = self.fresh_value(value_ty);
        self.push(Inst {
            kind: InstKind::Lookup { table, key },
            results: Results::two(hit, value),
        });
        (hit, value)
    }

    /// Convenience: binary op.
    pub fn bin(&mut self, op: IrBinOp, a: Operand, b: Operand, ty: IrTy) -> Operand {
        Operand::Value(self.emit_value(InstKind::Bin { op, a, b }, ty))
    }

    /// Convenience: comparison.
    pub fn icmp(&mut self, pred: IcmpPred, a: Operand, b: Operand) -> Operand {
        Operand::Value(self.emit_value(InstKind::Icmp { pred, a, b }, IrTy::I1))
    }

    /// Convenience: cast (no-op if widths already match).
    pub fn cast(&mut self, kind: CastKind, a: Operand, from: IrTy, to: IrTy) -> Operand {
        if from == to {
            return a;
        }
        Operand::Value(self.emit_value(InstKind::Cast { kind, a, to }, to))
    }

    /// Terminates the current block.
    pub fn terminate(&mut self, term: Terminator) {
        assert!(!self.is_terminated(), "block {:?} already terminated", self.current);
        self.func.blocks[self.current].term = term;
    }

    /// Terminates with a branch if not already terminated (used at join
    /// points where a branch may have returned).
    pub fn branch_if_open(&mut self, to: BlockId) {
        if !self.is_terminated() {
            self.terminate(Terminator::Br(to));
        }
    }

    /// Finishes construction.
    pub fn finish(mut self) -> Function {
        // Any unterminated block becomes an implicit pass() return (§V-A:
        // paths without an explicit action return pass()).
        for b in self.func.blocks.iter_mut() {
            if matches!(b.term, Terminator::Unterminated) {
                b.term = Terminator::Ret(ActionRef::pass());
            }
        }
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Operand as Op;

    #[test]
    fn builder_produces_wellformed_function() {
        let mut b = FuncBuilder::new("k", 1);
        let arg = b.add_arg("x", IrTy::I32, 1, false);
        let x = b.emit(InstKind::ArgRead { arg, index: Op::imm(0, IrTy::I32) }, IrTy::I32).unwrap();
        let sum = b.bin(IrBinOp::Add, Op::Value(x), Op::imm(1, IrTy::I32), IrTy::I32);
        let then_bb = b.new_block();
        let else_bb = b.new_block();
        let cond = b.icmp(IcmpPred::Ugt, sum, Op::imm(10, IrTy::I32));
        b.terminate(Terminator::CondBr { cond, then_bb, else_bb });
        b.switch_to(then_bb);
        b.terminate(Terminator::Ret(ActionRef { kind: ActionKind::Drop, target: None }));
        b.switch_to(else_bb);
        let f = b.finish();
        assert_eq!(f.blocks.len(), 3);
        // else_bb got the implicit pass().
        match &f.blocks[else_bb].term {
            Terminator::Ret(a) => assert_eq!(a.kind, ActionKind::Pass),
            other => panic!("{other:?}"),
        }
        assert_eq!(f.inst_count(), 3);
    }

    #[test]
    fn predecessors_computed() {
        let mut b = FuncBuilder::new("k", 1);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let cond = Op::imm(1, IrTy::I1);
        b.terminate(Terminator::CondBr { cond, then_bb: t, else_bb: e });
        b.switch_to(t);
        b.terminate(Terminator::Br(j));
        b.switch_to(e);
        b.terminate(Terminator::Br(j));
        b.switch_to(j);
        let f = b.finish();
        let preds = f.predecessors();
        assert_eq!(preds[j], [t, e]);
        assert!(preds[f.entry].is_empty());
    }

    #[test]
    fn lookup_defines_two_results() {
        let mut b = FuncBuilder::new("k", 1);
        let (hit, value) = b.emit_lookup(MemId(0), Op::imm(1, IrTy::I32), IrTy::I32);
        let f = b.finish();
        assert_eq!(f.value_ty(hit), IrTy::I1);
        assert_eq!(f.value_ty(value), IrTy::I32);
        assert_eq!(f.blocks[f.entry].insts[0].results.len(), 2);
    }

    #[test]
    fn operand_iteration_and_mapping() {
        let mut k = InstKind::AtomicRmw(Box::new(Atomic {
            op: netcl_sema::builtins::AtomicOp {
                rmw: netcl_sema::builtins::AtomicRmw::Add,
                cond: true,
                ret_new: true,
            },
            mem: MemRef { mem: MemId(0), indices: [Op::imm(3, IrTy::I16)].into() },
            cond: Some(Op::imm(1, IrTy::I1)),
            operands: [Op::imm(7, IrTy::I32)].into(),
        }));
        let operands = |k: &InstKind| {
            let mut out = Vec::new();
            k.for_each_operand(|o| out.push(o));
            out
        };
        assert_eq!(operands(&k).len(), 3);
        k.map_operands(|o| match o {
            Op::Const(v, t) => Op::Const(v + 1, t),
            other => other,
        });
        assert_eq!(operands(&k)[0].as_const(), Some(4));
    }

    #[test]
    fn side_effect_classification() {
        assert!(InstKind::MemWrite {
            mem: MemRef { mem: MemId(0), indices: [].into() },
            value: Op::imm(0, IrTy::I8)
        }
        .has_side_effects());
        assert!(!InstKind::Bin {
            op: IrBinOp::Add,
            a: Op::imm(1, IrTy::I8),
            b: Op::imm(2, IrTy::I8)
        }
        .has_side_effects());
    }

    /// The layout every module in a compile cache is made of: an
    /// instruction holds its results in place and boxes the rare wide
    /// kinds, and a value is its type and the φ's slot.
    #[test]
    fn instructions_and_values_stay_small() {
        assert!(std::mem::size_of::<InstKind>() <= 48, "{}", std::mem::size_of::<InstKind>());
        assert!(std::mem::size_of::<Inst>() <= 56, "{}", std::mem::size_of::<Inst>());
        assert!(std::mem::size_of::<ValueInfo>() <= 12, "{}", std::mem::size_of::<ValueInfo>());
    }

    #[test]
    fn results_read_as_a_slice() {
        let (a, b) = (ValueId(3), ValueId(9));
        assert!(Results::NONE.is_empty());
        assert_eq!(*Results::one(a), [a]);
        assert_eq!(*Results::two(a, b), [a, b]);
        assert_eq!(Results::two(a, b)[1], b);
        assert_eq!(*Results::two(a, b).map(|v| ValueId(v.0 + 1)), [ValueId(4), ValueId(10)]);
        assert_eq!(format!("{:?}", Results::one(a)), "[%v3]");
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_termination_panics() {
        let mut b = FuncBuilder::new("k", 1);
        b.terminate(Terminator::Ret(ActionRef::pass()));
        b.terminate(Terminator::Ret(ActionRef::pass()));
    }
}
