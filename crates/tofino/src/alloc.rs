//! The stage allocator.
//!
//! Places every match-action unit of a P4 program onto the RMT pipeline:
//!
//! * a unit may execute no earlier than the stage where all its inputs are
//!   available (a value written in stage *s* is readable from stage *s+1* —
//!   results travel on the PHV between stages),
//! * gateway conditions gate their region: everything inside an `if` sits
//!   at or after the stage where the condition is evaluable,
//! * a `Register` lives on exactly one stage; every `RegisterAction` on it
//!   executes there (stage-local stateful memory, §V-D) — if data
//!   dependences force a later access, allocation restarts with the
//!   register pinned later, and fails if the constraint set is
//!   unsatisfiable,
//! * per-stage budgets (SRAM/TCAM bits, SALUs, VLIW slots, hash units,
//!   logical tables) overflow units into later stages,
//! * running out of stages rejects the program — exactly how `bf-p4c`
//!   behaves (§VI-B: "there are no guarantees that a given program will fit
//!   an RMT pipeline").
//!
//! An allocation lowers the program once into a `Plan` — field paths
//! interned to dense ids, register / action / table names resolved to
//! indices, each unit's demand and read set precomputed — and every repin
//! round then walks that plan over reused vectors (DESIGN.md §4a). The
//! rounds and every placement decision are those of a walk over the AST:
//! `tests/fit_golden.rs` holds the reports byte for byte.

use std::collections::HashMap;

use crate::latency;
use crate::phv;
use crate::report::{AllocationReport, StageUse, TenantUsage};
use crate::spec::TofinoSpec;
use netcl_p4::ast::*;

/// A hard per-tenant resource cap for multi-tenant pipelines (DESIGN.md
/// §17). All limits are pipe totals over the units *attributable* to the
/// tenant by its `t<id>__` name prefix — registers (SALU + register SRAM)
/// and match-action tables (SRAM/TCAM + logical table slots). Shared
/// dispatch cost (the comp classifier, VLIW moves) is deliberately
/// unattributed: it belongs to the merged program, not to any tenant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantBudget {
    /// Maximum stage span (last occupied − first occupied + 1).
    pub stages: u32,
    /// Maximum SRAM bits (registers + exact-match tables).
    pub sram_bits: u64,
    /// Maximum stateful ALUs.
    pub salus: u32,
    /// Maximum logical tables.
    pub tables: u32,
}

/// Per-tenant budget assignment: specific tenants first, then an optional
/// default for everyone else. Tenants with no budget are uncapped (the
/// global per-stage limits still apply).
#[derive(Clone, Debug, Default)]
pub struct TenantBudgets {
    /// `(tenant, budget)` overrides.
    pub per_tenant: Vec<(u16, TenantBudget)>,
    /// Budget for tenants not listed above.
    pub default_budget: Option<TenantBudget>,
}

impl TenantBudgets {
    /// The budget applying to `tenant`, if any.
    pub(crate) fn budget_for(&self, tenant: u16) -> Option<&TenantBudget> {
        self.per_tenant
            .iter()
            .find(|(t, _)| *t == tenant)
            .map(|(_, b)| b)
            .or(self.default_budget.as_ref())
    }
}

/// Why a program did not fit.
#[derive(Debug, Clone, PartialEq)]
pub enum AllocError {
    /// PHV demand exceeds capacity.
    PhvOverflow {
        /// Bits requested.
        used: u32,
        /// Bits available.
        capacity: u32,
    },
    /// A unit could not be placed before the last stage.
    OutOfStages {
        /// What was being placed.
        what: String,
        /// The stage the unit needed (>= spec.stages).
        needed_stage: u32,
    },
    /// A register's accesses demand two different stages.
    RegisterStageConflict {
        /// Register name.
        register: String,
    },
    /// A tenant exceeded its [`TenantBudget`]: the structured rejection
    /// multi-tenant merging relies on (never a panic, never a silent
    /// mis-allocation).
    TenantBudget {
        /// The offending tenant.
        tenant: u16,
        /// The exhausted resource (`"SRAM"`, `"SALUs"`, `"tables"`,
        /// `"stages"`).
        resource: &'static str,
        /// What the tenant's units demand.
        used: u64,
        /// The tenant's cap.
        cap: u64,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::PhvOverflow { used, capacity } => {
                write!(f, "PHV overflow: {used} bits needed, {capacity} available")
            }
            AllocError::OutOfStages { what, needed_stage } => {
                write!(f, "{what} requires stage {needed_stage}, pipeline exhausted")
            }
            AllocError::RegisterStageConflict { register } => {
                write!(f, "register `{register}` cannot satisfy all access stages")
            }
            AllocError::TenantBudget { tenant, resource, used, cap } => {
                write!(
                    f,
                    "tenant {tenant} exceeds its {resource} budget: {used} used, {cap} allowed"
                )
            }
        }
    }
}

/// Allocates `program` on `spec` with no tenant caps.
pub fn allocate(program: &P4Program, spec: &TofinoSpec) -> Result<AllocationReport, AllocError> {
    allocate_with_budgets(program, spec, &TenantBudgets::default())
}

/// Allocates `program` on `spec`, additionally enforcing per-tenant caps.
///
/// Usage is attributed to tenants by the `t<id>__` prefix on table and
/// register names (see [`netcl_util::tenant`]); the resulting
/// [`AllocationReport::tenants`] vector is filled in whether or not any
/// budgets are set, so placement planning can read footprints from an
/// uncapped allocation.
pub fn allocate_with_budgets(
    program: &P4Program,
    spec: &TofinoSpec,
    budgets: &TenantBudgets,
) -> Result<AllocationReport, AllocError> {
    let phv = phv::account(program, spec);
    if phv.used_bits() > phv.capacity_bits {
        return Err(AllocError::PhvOverflow { used: phv.used_bits(), capacity: phv.capacity_bits });
    }

    // Names, field paths and demands are resolved once; every round below
    // runs over the lowered plan.
    let plan = Plan::lower(program);
    let mut round = Round::new(spec, &plan);

    // Iterate until register pinning reaches a fixpoint. Each round repins
    // one register monotonically later, so rounds are bounded by
    // #registers × #stages.
    let nregs: usize = program.controls.iter().map(|c| c.registers.len()).sum();
    let mut pins: Vec<Option<u32>> = vec![None; plan.registers.len()];
    for _round in 0..((nregs + 2) * spec.stages as usize) {
        round.reset(&pins);
        for &apply in &plan.applies {
            round.walk(apply, 0)?;
        }
        if let Some((reg, stage)) = round.repin {
            // A register access needed a later stage than the register got;
            // pin it later and retry from scratch.
            if stage >= spec.stages || pins[reg as usize] == Some(stage) {
                return Err(AllocError::RegisterStageConflict {
                    register: plan.registers[reg as usize].name.to_string(),
                });
            }
            pins[reg as usize] = Some(stage);
            continue;
        }
        // Tenant accumulation belongs to this (final, successful) round
        // only: repin rounds above restart from scratch.
        let mut tenants: Vec<TenantUsage> = round.tenant_use.iter().flatten().copied().collect();
        tenants.sort_by_key(|t| t.tenant);
        for t in &tenants {
            let Some(b) = budgets.budget_for(t.tenant) else { continue };
            let over = |resource, used: u64, cap: u64| AllocError::TenantBudget {
                tenant: t.tenant,
                resource,
                used,
                cap,
            };
            if t.sram_bits > b.sram_bits {
                return Err(over("SRAM", t.sram_bits, b.sram_bits));
            }
            if t.salus > b.salus {
                return Err(over("SALUs", t.salus as u64, b.salus as u64));
            }
            if t.tables > b.tables {
                return Err(over("tables", t.tables as u64, b.tables as u64));
            }
            if t.stage_span() > b.stages {
                return Err(over("stages", t.stage_span() as u64, b.stages as u64));
            }
        }
        let stages_used = round
            .stages
            .iter()
            .rposition(|s| !s.is_empty())
            .map(|i| i as u32 + 1)
            .unwrap_or(0)
            // Even an empty program traverses at least one stage for the
            // base forwarding decision.
            .max(1);
        let (latency_cycles, latency_ns) = latency::pipeline_latency(spec, stages_used);
        return Ok(AllocationReport {
            program: program.name.clone(),
            stages_used,
            per_stage: round.stages.into(),
            phv,
            spec: spec.clone(),
            latency_cycles,
            latency_ns,
            tenants,
        });
    }
    Err(AllocError::RegisterStageConflict { register: "<unresolved>".into() })
}

/// Resource demand of a single unit.
#[derive(Default, Clone, Copy)]
struct Demand {
    sram_bits: u64,
    tcam_bits: u64,
    salus: u32,
    vliw: u32,
    hash_units: u32,
    tables: u32,
}

/// What is being placed, rendered only when placement fails.
#[derive(Clone, Copy)]
enum Unit<'a> {
    Move,
    Alu,
    Extern,
    Hash,
    Header,
    Register(&'a str),
    Table(&'a str),
}

impl Unit<'_> {
    fn describe(self) -> String {
        match self {
            Unit::Move => "move".into(),
            Unit::Alu => "ALU op".into(),
            Unit::Extern => "extern".into(),
            Unit::Hash => "hash".into(),
            Unit::Header => "header op".into(),
            Unit::Register(name) => format!("register `{name}`"),
            Unit::Table(name) => format!("table `{name}`"),
        }
    }
}

/// A half-open index range into one of the plan's arenas.
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn of<T>(arena: &[T], start: usize) -> Span {
        Span { start: start as u32, end: arena.len() as u32 }
    }

    fn slice<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..self.end as usize]
    }
}

/// One statement of an apply block or action body, with every name
/// resolved: fields are ids into [`Round::avail`], registers ids into
/// [`Plan::registers`], and so on.
#[derive(Clone, Copy)]
enum Op {
    /// A statement the allocator skips (it names a unit the control lacks),
    /// kept so statement positions match the source.
    Nop,
    /// A pure move, width cast or 1-bit flag computation into `dst`.
    Move {
        reads: Span,
        dst: u32,
    },
    /// Any other assignment, costing `vliw` operations.
    Alu {
        reads: Span,
        dst: u32,
        vliw: u32,
    },
    Extern {
        reads: Span,
        dst: Option<u32>,
    },
    Hash {
        reads: Span,
        dst: u32,
    },
    /// A `RegisterAction` execution on `reg`, whose register holds `sram`
    /// bits.
    Exec {
        reads: Span,
        reg: u32,
        sram: u64,
        dst: Option<u32>,
    },
    Table(u32),
    /// A direct action call: the body is [`Plan::actions`]`[i]`.
    Call(u32),
    If {
        cond: Cond,
        then: Span,
        els: Span,
    },
    Header,
}

/// What gates an `if`.
#[derive(Clone, Copy)]
enum Cond {
    /// A table applied in the condition (`None`: one the control lacks).
    Table(Option<u32>),
    Reads(Span),
}

struct RegisterPlan<'a> {
    name: &'a str,
    /// Index into [`Plan::tenants`].
    tenant: Option<u32>,
}

struct TablePlan<'a> {
    name: &'a str,
    reads: Span,
    demand: Demand,
    tenant: Option<u32>,
    /// Fields its actions assign.
    defines: Span,
}

/// A [`P4Program`] lowered for placement: what [`Round::walk`] visits once
/// per repin round, built once per allocation.
#[derive(Default)]
struct Plan<'a> {
    ops: Vec<Op>,
    /// Field-id lists: read sets and table define sets.
    fields: Vec<u32>,
    field_count: usize,
    /// Registers by name, across controls (a pin follows the name).
    registers: Vec<RegisterPlan<'a>>,
    tables: Vec<TablePlan<'a>>,
    /// Action bodies, all controls' in declaration order.
    actions: Vec<Span>,
    /// Tenants any register or table name carries.
    tenants: Vec<u16>,
    /// One apply block per control.
    applies: Vec<Span>,
}

/// The name tables lowering resolves through; gone once the plan is built.
struct Lowering<'a> {
    plan: Plan<'a>,
    /// A field path, or a non-field expression a statement writes, → id.
    field_ids: HashMap<&'a Expr, u32>,
    register_ids: HashMap<&'a str, u32>,
    /// Header field name → width, first declaration winning.
    header_bits: HashMap<&'a str, u32>,
}

/// One control's name tables.
struct ControlNames<'a> {
    control: &'a ControlDef,
    locals: HashMap<&'a str, u32>,
    /// Where this control's actions and tables start in the plan.
    action_base: u32,
    table_base: u32,
}

impl ControlNames<'_> {
    /// The plan index of the control's first table called `name`.
    fn table(&self, name: &str) -> Option<u32> {
        let i = self.control.tables.iter().position(|t| t.name == name)?;
        Some(self.table_base + i as u32)
    }

    /// The plan index of the control's first action called `name`.
    fn action(&self, name: &str) -> Option<u32> {
        let i = self.control.actions.iter().position(|a| a.name == name)?;
        Some(self.action_base + i as u32)
    }
}

impl<'a> Plan<'a> {
    fn lower(program: &'a P4Program) -> Plan<'a> {
        let mut header_bits = HashMap::new();
        for h in program.headers.iter() {
            for (name, bits) in &h.fields {
                header_bits.entry(name.as_str()).or_insert(*bits);
            }
        }
        let mut l = Lowering {
            plan: Plan::default(),
            field_ids: HashMap::new(),
            register_ids: HashMap::new(),
            header_bits,
        };
        for control in program.controls.iter() {
            l.control(control);
        }
        l.plan.field_count = l.field_ids.len();
        l.plan
    }
}

impl<'a> Lowering<'a> {
    fn control(&mut self, control: &'a ControlDef) {
        let mut locals = HashMap::with_capacity(control.locals.len());
        for (name, bits) in &control.locals {
            locals.entry(name.as_str()).or_insert(*bits);
        }
        let names = ControlNames {
            control,
            locals,
            action_base: self.plan.actions.len() as u32,
            table_base: self.plan.tables.len() as u32,
        };
        for t in &control.tables {
            let table = self.table(t, &names);
            self.plan.tables.push(table);
        }
        for a in &control.actions {
            let body = self.block(&a.body, &names);
            self.plan.actions.push(body);
        }
        let apply = self.block(&control.apply, &names);
        self.plan.applies.push(apply);
    }

    fn tenant(&mut self, name: &str) -> Option<u32> {
        let tenant = netcl_util::tenant::of(name)?;
        let known = self.plan.tenants.iter().position(|&t| t == tenant);
        Some(known.unwrap_or_else(|| {
            self.plan.tenants.push(tenant);
            self.plan.tenants.len() - 1
        }) as u32)
    }

    fn register(&mut self, name: &'a str) -> u32 {
        if let Some(&id) = self.register_ids.get(name) {
            return id;
        }
        let id = self.plan.registers.len() as u32;
        let tenant = self.tenant(name);
        self.plan.registers.push(RegisterPlan { name, tenant });
        self.register_ids.insert(name, id);
        id
    }

    /// Interns the field `e` is, or the non-field expression a statement
    /// writes.
    fn intern(&mut self, e: &'a Expr) -> u32 {
        let next = self.field_ids.len() as u32;
        *self.field_ids.entry(e).or_insert(next)
    }

    /// Appends the fields `e` reads to the plan's field arena.
    fn collect_reads(&mut self, e: &'a Expr) {
        match e {
            Expr::Field(p) if !p.canonical().contains('$') => {
                let id = self.intern(e);
                self.plan.fields.push(id);
            }
            Expr::Field(_) => {}
            Expr::Bin(_, a, b) => {
                self.collect_reads(a);
                self.collect_reads(b);
            }
            Expr::Not(x) | Expr::BitNot(x) | Expr::Cast(_, x) | Expr::Slice(x, _, _) => {
                self.collect_reads(x)
            }
            _ => {}
        }
    }

    fn reads(&mut self, exprs: impl IntoIterator<Item = &'a Expr>) -> Span {
        let start = self.plan.fields.len();
        for e in exprs {
            self.collect_reads(e);
        }
        Span::of(&self.plan.fields, start)
    }

    /// Bit width of a key expression (header field lookup, else 32).
    fn expr_bits(&self, e: &Expr, names: &ControlNames<'a>) -> u64 {
        match e {
            Expr::Field(p) => {
                let last = p.canonical().rsplit('.').next().and_then(|s| s.split('[').next());
                let last = last.unwrap_or_default();
                let bits = (p.ns() == Ns::Meta)
                    .then(|| names.locals.get(last))
                    .flatten()
                    .or_else(|| self.header_bits.get(last));
                bits.map_or(32, |&b| b as u64)
            }
            Expr::Const(_, bits) => *bits as u64,
            Expr::Device => 16,
            Expr::Cast(bits, _) => *bits as u64,
            _ => 32,
        }
    }

    fn table(&mut self, t: &'a TableDef, names: &ControlNames<'a>) -> TablePlan<'a> {
        let control = names.control;
        let reads = self.reads(t.keys.iter().map(|(k, _)| k));
        let key_bits: u64 = t.keys.iter().map(|(k, _)| self.expr_bits(k, names)).sum();
        let actions = || t.actions.iter().filter_map(|a| control.action(a));
        let action_data_bits: u64 = actions()
            .map(|a| a.params.iter().map(|(_, b)| *b as u64).sum::<u64>())
            .max()
            .unwrap_or(0);
        let rows = (t.size.max(t.entries.len() as u32)).max(1) as u64;
        // Entry overhead: action select + validity.
        let row_bits = key_bits + action_data_bits + 8;
        let ternary = t
            .keys
            .iter()
            .any(|(_, mk)| matches!(mk, MatchKind::Ternary | MatchKind::Range | MatchKind::Lpm));
        let demand = Demand {
            tables: 1,
            sram_bits: if ternary { action_data_bits * rows } else { row_bits * rows },
            tcam_bits: if ternary { (key_bits + 2) * rows } else { 0 },
            // Action bodies execute in this stage's VLIW.
            vliw: actions().map(|a| a.body.len() as u32).max().unwrap_or(0).max(1),
            ..Default::default()
        };
        // Action writes become available after the table's stage.
        let start = self.plan.fields.len();
        for a in actions() {
            for st in &a.body {
                if let Stmt::Assign(dst, _) = st {
                    let id = self.intern(dst);
                    self.plan.fields.push(id);
                }
            }
        }
        let defines = Span::of(&self.plan.fields, start);
        TablePlan { name: &t.name, reads, demand, tenant: self.tenant(&t.name), defines }
    }

    /// Lowers a statement list into one contiguous run of ops (nested
    /// blocks land before it).
    fn block(&mut self, stmts: &'a [Stmt], names: &ControlNames<'a>) -> Span {
        let ops: Vec<Op> = stmts.iter().map(|s| self.stmt(s, names)).collect();
        let start = self.plan.ops.len();
        self.plan.ops.extend(ops);
        Span::of(&self.plan.ops, start)
    }

    fn stmt(&mut self, stmt: &'a Stmt, names: &ControlNames<'a>) -> Op {
        let control = names.control;
        match stmt {
            Stmt::Assign(dst, rhs) => {
                let reads = self.reads([rhs]);
                // 1-bit flag computations are gateway/predicate work: they
                // evaluate within the stage their inputs arrive in, like
                // Tofino's per-stage gateway comparators.
                let flag_dst = self.expr_bits(dst, names) == 1;
                let dst = self.intern(dst);
                if is_move(rhs) || flag_dst {
                    Op::Move { reads, dst }
                } else {
                    Op::Alu { reads, dst, vliw: op_count(rhs) }
                }
            }
            Stmt::ExternCall { dst, args, .. } => {
                let reads = self.reads(args);
                Op::Extern { reads, dst: dst.as_ref().map(|d| self.intern(d)) }
            }
            Stmt::HashGet { dst, args, .. } => {
                let reads = self.reads(args);
                Op::Hash { reads, dst: self.intern(dst) }
            }
            Stmt::ExecuteRegisterAction { dst, ra, index } => {
                let Some(radef) = control.register_action(ra) else { return Op::Nop };
                let reads =
                    self.reads(std::iter::once(index).chain(&radef.cond).chain(&radef.operands));
                let sram = control
                    .register(&radef.register)
                    .map_or(0, |r| r.elem_bits as u64 * r.size as u64);
                Op::Exec {
                    reads,
                    reg: self.register(&radef.register),
                    sram,
                    dst: dst.as_ref().map(|d| self.intern(d)),
                }
            }
            Stmt::ApplyTable(t) => names.table(t).map_or(Op::Nop, Op::Table),
            Stmt::CallAction(name) => names.action(name).map_or(Op::Nop, Op::Call),
            Stmt::If { cond, then, els } => {
                let cond = match table_in_cond(cond) {
                    Some(t) => Cond::Table(names.table(t)),
                    None => Cond::Reads(self.reads([cond])),
                };
                Op::If { cond, then: self.block(then, names), els: self.block(els, names) }
            }
            Stmt::SetValid(_) | Stmt::SetInvalid(_) | Stmt::Exit => Op::Header,
        }
    }
}

/// One repin round's state over a [`Plan`]; [`Round::reset`] reuses the
/// buffers for the next round.
struct Round<'a> {
    spec: &'a TofinoSpec,
    plan: &'a Plan<'a>,
    stages: Vec<StageUse>,
    /// Field → first stage where its value is readable.
    avail: Vec<u32>,
    /// `avail` as it was on entry to each enclosing `if`, innermost last.
    snapshots: Vec<u32>,
    /// Register → assigned stage.
    reg_stage: Vec<Option<u32>>,
    reg_sram_counted: Vec<bool>,
    /// Set when a register needs re-pinning to a later stage.
    repin: Option<(u32, u32)>,
    /// Per-tenant usage, indexed like [`Plan::tenants`]; `None` until a
    /// unit of the tenant is placed.
    tenant_use: Vec<Option<TenantUsage>>,
}

impl<'a> Round<'a> {
    fn new(spec: &'a TofinoSpec, plan: &'a Plan<'a>) -> Round<'a> {
        Round {
            spec,
            plan,
            stages: vec![StageUse::default(); spec.stages as usize],
            avail: vec![0; plan.field_count],
            snapshots: Vec::new(),
            reg_stage: vec![None; plan.registers.len()],
            reg_sram_counted: vec![false; plan.registers.len()],
            repin: None,
            tenant_use: vec![None; plan.tenants.len()],
        }
    }

    fn reset(&mut self, pins: &[Option<u32>]) {
        self.stages.fill(StageUse::default());
        self.avail.fill(0);
        self.snapshots.clear();
        self.reg_stage.copy_from_slice(pins);
        self.reg_sram_counted.fill(false);
        self.repin = None;
        self.tenant_use.fill(None);
    }

    fn avail_of(&self, reads: Span) -> u32 {
        reads.slice(&self.plan.fields).iter().map(|&f| self.avail[f as usize]).max().unwrap_or(0)
    }

    fn define(&mut self, field: u32, stage: u32) {
        let e = &mut self.avail[field as usize];
        *e = (*e).max(stage + 1);
    }

    /// Credits a placed unit to its owning tenant. Units outside every
    /// tenant's namespace are shared infrastructure and accrue to nobody.
    fn attribute(&mut self, tenant: Option<u32>, stage: u32, d: Demand) {
        let Some(tenant) = tenant else { return };
        let u = self.tenant_use[tenant as usize].get_or_insert(TenantUsage {
            tenant: self.plan.tenants[tenant as usize],
            first_stage: stage,
            last_stage: stage,
            ..Default::default()
        });
        u.sram_bits += d.sram_bits;
        u.tcam_bits += d.tcam_bits;
        u.salus += d.salus;
        u.tables += d.tables;
        u.first_stage = u.first_stage.min(stage);
        u.last_stage = u.last_stage.max(stage);
    }

    /// Places a unit at the earliest stage ≥ `min` with room for `d`.
    fn place(&mut self, what: Unit<'_>, min: u32, d: Demand) -> Result<u32, AllocError> {
        let mut s = min;
        loop {
            if s >= self.spec.stages {
                return Err(AllocError::OutOfStages { what: what.describe(), needed_stage: s });
            }
            let u = &self.stages[s as usize];
            let fits = u.sram_bits + d.sram_bits <= self.spec.sram_bits_per_stage
                && u.tcam_bits + d.tcam_bits <= self.spec.tcam_bits_per_stage
                && u.salus + d.salus <= self.spec.salus_per_stage
                && u.vliw + d.vliw <= self.spec.vliw_per_stage
                && u.hash_units + d.hash_units <= self.spec.hash_units_per_stage
                && u.tables + d.tables <= self.spec.tables_per_stage;
            if fits {
                let u = &mut self.stages[s as usize];
                u.sram_bits += d.sram_bits;
                u.tcam_bits += d.tcam_bits;
                u.salus += d.salus;
                u.vliw += d.vliw;
                u.hash_units += d.hash_units;
                u.tables += d.tables;
                return Ok(s);
            }
            s += 1;
        }
    }

    fn walk(&mut self, block: Span, gate: u32) -> Result<(), AllocError> {
        for i in block.start..block.end {
            self.op(self.plan.ops[i as usize], gate)?;
            if self.repin.is_some() {
                return Ok(()); // abort round; restart with new pin
            }
        }
        Ok(())
    }

    fn op(&mut self, op: Op, gate: u32) -> Result<(), AllocError> {
        let vliw = |vliw| Demand { vliw, ..Default::default() };
        match op {
            Op::Nop => {}
            Op::Move { reads, dst } => {
                // Pure moves and width casts are folded into their
                // consumer's crossbar input on Tofino: the destination is
                // usable as soon as the source is, and no stage hop is
                // paid. One VLIW slot still performs the copy.
                let min = gate.max(self.avail_of(reads));
                self.place(Unit::Move, min, vliw(1))?;
                let e = &mut self.avail[dst as usize];
                *e = (*e).max(min);
            }
            Op::Alu { reads, dst, vliw: ops } => {
                let min = gate.max(self.avail_of(reads));
                let s = self.place(Unit::Alu, min, vliw(ops))?;
                self.define(dst, s);
            }
            Op::Extern { reads, dst } => {
                let min = gate.max(self.avail_of(reads));
                let s = self.place(Unit::Extern, min, vliw(1))?;
                if let Some(d) = dst {
                    self.define(d, s);
                }
            }
            Op::Hash { reads, dst } => {
                let min = gate.max(self.avail_of(reads));
                let s =
                    self.place(Unit::Hash, min, Demand { hash_units: 1, ..Default::default() })?;
                self.define(dst, s);
            }
            Op::Exec { reads, reg, sram, dst } => {
                let min = gate.max(self.avail_of(reads));
                let register = &self.plan.registers[reg as usize];
                // Register SRAM counted once, on the register's stage.
                let first_placement = !self.reg_sram_counted[reg as usize];
                let d = Demand {
                    salus: 1,
                    sram_bits: if first_placement { sram } else { 0 },
                    ..Default::default()
                };
                let stage = match self.reg_stage[reg as usize] {
                    Some(fixed) if min > fixed => {
                        // Data deps need the register later than it sits.
                        self.repin = Some((reg, min));
                        return Ok(());
                    }
                    Some(fixed) => {
                        // Execute at the register's stage. The register's
                        // single SALU is shared by all its RegisterActions
                        // (mutually-exclusive accesses use the same ALU);
                        // only the register's first access this round pays
                        // the SALU and SRAM — including registers pre-pinned
                        // by an earlier repin round.
                        if first_placement {
                            let u = &mut self.stages[fixed as usize];
                            if u.salus + 1 > self.spec.salus_per_stage {
                                // No SALU left at the pinned stage: push the
                                // register later and retry the round, unless
                                // that walks it off the pipeline.
                                if fixed + 1 >= self.spec.stages {
                                    return Err(AllocError::OutOfStages {
                                        what: Unit::Register(register.name).describe(),
                                        needed_stage: fixed + 1,
                                    });
                                }
                                self.repin = Some((reg, fixed + 1));
                                return Ok(());
                            }
                            u.salus += 1;
                            u.sram_bits += d.sram_bits;
                            self.attribute(register.tenant, fixed, d);
                        }
                        fixed
                    }
                    None => {
                        let s = self.place(Unit::Register(register.name), min, d)?;
                        self.reg_stage[reg as usize] = Some(s);
                        self.attribute(register.tenant, s, d);
                        s
                    }
                };
                if let Some(d) = dst {
                    self.define(d, stage);
                }
                self.reg_sram_counted[reg as usize] = true;
            }
            Op::Table(t) => {
                self.table(t, gate)?;
            }
            Op::Call(action) => self.walk(self.plan.actions[action as usize], gate)?,
            Op::If { cond, then, els } => {
                let g = match cond {
                    Cond::Table(Some(t)) => self.table(t, gate)? + 1,
                    Cond::Table(None) => gate + 1,
                    Cond::Reads(reads) => gate.max(self.avail_of(reads)),
                };
                // Branches see the same availability; merge maxwise after.
                let base = self.snapshots.len();
                self.snapshots.extend_from_slice(&self.avail);
                self.walk(then, g)?;
                if self.repin.is_some() {
                    return Ok(());
                }
                self.avail.swap_with_slice(&mut self.snapshots[base..]);
                self.walk(els, g)?;
                for (e, &then_avail) in self.avail.iter_mut().zip(&self.snapshots[base..]) {
                    *e = (*e).max(then_avail);
                }
                self.snapshots.truncate(base);
            }
            Op::Header => {
                self.place(Unit::Header, gate, vliw(1))?;
            }
        }
        Ok(())
    }

    /// Allocates a table application; returns its stage.
    fn table(&mut self, table: u32, gate: u32) -> Result<u32, AllocError> {
        let t = &self.plan.tables[table as usize];
        let min = gate.max(self.avail_of(t.reads));
        let s = self.place(Unit::Table(t.name), min, t.demand)?;
        // Table SRAM/TCAM and the logical-table slot belong to the owning
        // tenant; the VLIW move slots are shared dispatch cost.
        self.attribute(t.tenant, s, t.demand);
        for &field in t.defines.slice(&self.plan.fields) {
            self.define(field, s);
        }
        Ok(s)
    }
}

/// Number of VLIW operations an expression tree costs (≥1).
fn op_count(e: &Expr) -> u32 {
    fn inner(e: &Expr) -> u32 {
        match e {
            Expr::Bin(_, a, b) => 1 + inner(a) + inner(b),
            Expr::Not(x) | Expr::BitNot(x) | Expr::Cast(_, x) | Expr::Slice(x, _, _) => {
                1 + inner(x)
            }
            _ => 0,
        }
    }
    inner(e).max(1)
}

/// True for register-to-register moves and pure width casts, which Tofino
/// folds into the consumer's operand crossbar.
fn is_move(e: &Expr) -> bool {
    match e {
        Expr::Field(_) | Expr::Const(..) | Expr::Device | Expr::Bool(_) => true,
        Expr::Cast(_, x) => is_move(x),
        _ => false,
    }
}

fn table_in_cond(e: &Expr) -> Option<&str> {
    match e {
        Expr::TableHit(t) | Expr::TableMiss(t) => Some(t),
        Expr::Not(x) => table_in_cond(x),
        Expr::Bin(_, a, b) => table_in_cond(a).or_else(|| table_in_cond(b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_p4::parse::parse_program;
    use std::sync::Arc;

    impl TenantBudget {
        /// An even split of `spec` across `n` tenants (stage span is not
        /// divided: kernels dispatch exclusively, so tenants may overlap
        /// in stages).
        fn split(spec: &TofinoSpec, n: u32) -> TenantBudget {
            let n = n.max(1);
            TenantBudget {
                stages: spec.stages,
                sram_bits: spec.sram_bits_per_stage * spec.stages as u64 / n as u64,
                salus: spec.salus_per_stage * spec.stages / n,
                tables: spec.tables_per_stage * spec.stages / n,
            }
        }
    }

    impl TofinoSpec {
        /// A deliberately tiny pipeline for overflow tests.
        fn tiny() -> TofinoSpec {
            TofinoSpec {
                stages: 3,
                sram_bits_per_stage: 8 * 1024,
                tcam_bits_per_stage: 2 * 1024,
                salus_per_stage: 1,
                vliw_per_stage: 4,
                hash_units_per_stage: 1,
                tables_per_stage: 2,
                phv_bits: 512,
                ..TofinoSpec::tofino1()
            }
        }
    }

    fn spec() -> TofinoSpec {
        TofinoSpec::tofino1()
    }

    /// `hdr.ncl.K`, 32 bits.
    const NCL: &str = "header ncl_t { bit<32> K; } struct headers_t { ncl_t ncl; }";

    /// A program of `headers` and one control `Ig` whose members are `body`.
    fn program(headers: &str, body: &str) -> Arc<P4Program> {
        let text = format!(
            "{headers}\ncontrol Ig(inout headers_t hdr, inout metadata_t meta) {{\n{body}\n}}"
        );
        parse_program(&text).map(Arc::new).unwrap_or_else(|e| panic!("{e}\n{text}"))
    }

    /// RegisterAction `name` on the `bits`-wide register `register`, its
    /// apply body `body`.
    fn ra(name: &str, register: &str, bits: u32, body: &str) -> String {
        format!(
            "RegisterAction<bit<{bits}>, bit<32>, bit<{bits}>>({register}) {name} = {{
                void apply(inout bit<{bits}> m, out bit<{bits}> o) {{ {body} }}
            }};"
        )
    }

    /// hash → register chain needs two stages: the register index depends on
    /// the hash output.
    #[test]
    fn dependent_units_take_consecutive_stages() {
        let incr = ra("Incr", "Cnt", 32, "m = m |+| 32w1; o = m;");
        let p = program(
            NCL,
            &format!(
                "bit<16> h0;
                bit<32> c0;
                Register<bit<32>, bit<32>>(1024) Cnt;
                {incr}
                Hash<bit<16>>(HashAlgorithm_t.CRC16) H;
                apply {{
                    meta.h0 = H.get({{hdr.ncl.K}});
                    meta.c0 = Incr.execute(meta.h0);
                }}"
            ),
        );
        let r = allocate(&p, &spec()).unwrap();
        assert_eq!(r.stages_used, 2, "{:?}", r.per_stage);
        assert_eq!(r.per_stage[0].hash_units, 1);
        assert_eq!(r.per_stage[1].salus, 1);
        assert!(r.per_stage[1].sram_bits >= 32 * 1024);
    }

    /// Two accesses to one register from sibling branches share its stage.
    #[test]
    fn register_shared_across_exclusive_branches() {
        let inc = |name: &str| ra(name, "R", 16, "o = m; m = m + 16w1;");
        let p = program(
            NCL,
            &format!(
                "bit<16> x;
                Register<bit<16>, bit<32>>(64) R;
                {}
                {}
                apply {{
                    if (hdr.ncl.K == 32w0) {{ a.execute(32w0); }} else {{ b.execute(32w1); }}
                }}",
                inc("a"),
                inc("b")
            ),
        );
        let r = allocate(&p, &spec()).unwrap();
        // One register binds one SALU on one stage, shared by both
        // (mutually-exclusive) RegisterActions.
        let total_salus: u32 = r.per_stage.iter().map(|s| s.salus).sum();
        assert_eq!(total_salus, 1);
        assert_eq!(r.per_stage.iter().filter(|s| s.salus > 0).count(), 1);
    }

    /// A register read whose index depends on the register's own first
    /// access cannot fit: each repin moves the dependence along with it, so
    /// repinning never converges and ends in a conflict.
    #[test]
    fn register_repinning_that_cannot_converge_is_a_conflict() {
        // First access at stage 0; second access's index depends on the
        // first's output → needs stage ≥ 2.
        let read = ra("ra", "R", 16, "o = m;");
        let p = program(
            "",
            &format!(
                "bit<16> a;
                bit<16> b;
                bit<16> c;
                Register<bit<16>, bit<32>>(64) R;
                {read}
                apply {{
                    meta.a = ra.execute(32w0);
                    // b = a + 1 (stage 1)
                    meta.b = meta.a + 16w1;
                    meta.c = ra.execute(meta.b);
                }}"
            ),
        );
        // The second access needs stage ≥ 2 while the first pinned R at 0.
        // Repinning moves R to 2 — but then the FIRST access reads R at 2
        // and `b` computes at 3, making the second access need ≥ 4; this
        // never converges → conflict.
        let r = allocate(&p, &spec());
        assert!(
            matches!(r, Err(AllocError::RegisterStageConflict { .. })),
            "expected conflict, got {r:?}"
        );
    }

    /// A register whose later access needs a later stage than its first
    /// access placed it at is repinned once, and both accesses execute at
    /// the new stage on one SALU.
    #[test]
    fn register_repinning_to_a_later_stage_succeeds() {
        let read = ra("ra", "R", 16, "o = m;");
        let p = program(
            NCL,
            &format!(
                "bit<16> h0;
                Register<bit<16>, bit<32>>(64) R;
                {read}
                Hash<bit<16>>(HashAlgorithm_t.CRC16) H;
                apply {{
                    // A constant index places R at stage 0 ...
                    ra.execute(32w0);
                    meta.h0 = H.get({{hdr.ncl.K}});
                    // ... and a hash-derived one needs it at stage 1: R moves
                    // there, and the first access, which depends on nothing,
                    // follows it.
                    ra.execute(meta.h0);
                }}"
            ),
        );
        let r = allocate(&p, &spec()).unwrap();
        assert_eq!(r.stages_used, 2, "{:?}", r.per_stage);
        assert_eq!(r.per_stage[0].hash_units, 1);
        let salus: Vec<u32> = r.per_stage.iter().map(|s| s.salus).collect();
        assert_eq!(salus[..2], [0, 1]);
        assert_eq!(salus.iter().sum::<u32>(), 1);
    }

    /// A pinned register bumped off the last stage for want of a SALU is an
    /// exhausted pipeline, reported like the same exhaustion on a register
    /// that was never pinned — not a conflict between its accesses.
    #[test]
    fn salu_bump_past_the_last_stage_is_out_of_stages() {
        let p = program(
            NCL,
            &format!(
                "bit<16> h0;
                bit<16> h1;
                Register<bit<16>, bit<32>>(64) X;
                Register<bit<16>, bit<32>>(64) Y;
                {}
                {}
                Hash<bit<16>>(HashAlgorithm_t.CRC16) H;
                apply {{
                    // Y's index is a hash output: Y sits at stage 1.
                    meta.h0 = H.get({{hdr.ncl.K}});
                    y.execute(meta.h0);
                    // X lands at stage 0, then its second access needs stage
                    // 1: the repin finds Y on stage 1's only SALU and bumps X
                    // to stage 2 of a two-stage pipeline.
                    x.execute(32w0);
                    meta.h1 = H.get({{hdr.ncl.K}});
                    x.execute(meta.h1);
                }}",
                ra("x", "X", 16, "o = m;"),
                ra("y", "Y", 16, "o = m;")
            ),
        );
        let two_stages = TofinoSpec { stages: 2, salus_per_stage: 1, ..TofinoSpec::tofino1() };
        assert_eq!(
            allocate(&p, &two_stages).unwrap_err(),
            AllocError::OutOfStages { what: "register `X`".into(), needed_stage: 2 }
        );
        // One more stage and the bumped register fits.
        let r = allocate(&p, &TofinoSpec { stages: 3, ..two_stages }).unwrap();
        assert_eq!(r.per_stage.iter().map(|s| s.salus).collect::<Vec<_>>(), [0, 1, 1]);
    }

    #[test]
    fn out_of_stages_on_tiny_pipeline() {
        // A chain of 5 dependent ALU ops needs 5 stages; tiny has 3.
        let locals: String = (0..=5).map(|i| format!("bit<16> f{i};\n")).collect();
        let apply: String =
            (1..=5).map(|i| format!("meta.f{i} = meta.f{} + 16w1;\n", i - 1)).collect();
        let p = program("", &format!("{locals}apply {{\n{apply}}}"));
        let r = allocate(&p, &TofinoSpec::tiny());
        assert!(matches!(r, Err(AllocError::OutOfStages { .. })), "{r:?}");
        // But it fits the full pipeline.
        assert!(allocate(&p, &TofinoSpec::tofino1()).is_ok());
    }

    #[test]
    fn ternary_tables_consume_tcam_exact_consume_sram() {
        let table = |name: &str, kind: &str| {
            format!(
                "table {name} {{ key = {{ hdr.ncl.K : {kind} }} actions = {{ NoAction; }} size = 128; }}"
            )
        };
        let (e, r) = (table("e", "exact"), table("r", "range"));
        let p = program(NCL, &format!("{e}\n{r}\napply {{ e.apply(); r.apply(); }}"));
        let r = allocate(&p, &spec()).unwrap();
        let sram: u64 = r.per_stage.iter().map(|s| s.sram_bits).sum();
        let tcam: u64 = r.per_stage.iter().map(|s| s.tcam_bits).sum();
        assert!(sram > 0);
        assert!(tcam > 0);
        assert!(!r.tcam_free());
    }

    #[test]
    fn phv_overflow_rejected() {
        // 200 × 32 = 6400 bits > 4096.
        let p = parse_program("header big_t { bit<32> v; } struct headers_t { big_t[200] big; }")
            .unwrap();
        let r = allocate(&p, &spec());
        assert!(matches!(r, Err(AllocError::PhvOverflow { .. })));
    }

    /// Namespaced units accrue to their tenants; budgets reject overuse
    /// with a structured diagnostic naming tenant and resource.
    #[test]
    fn tenant_attribution_and_budget_rejection() {
        let incr = |t: u16| {
            ra(&format!("t{t}__incr"), &format!("t{t}__Cnt"), 32, "m = m |+| 32w1; o = m;")
        };
        let p = program(
            NCL,
            &format!(
                "bit<32> a;
                bit<32> b;
                Register<bit<32>, bit<32>>(1024) t0__Cnt;
                Register<bit<32>, bit<32>>(1024) t1__Cnt;
                {}
                {}
                table lu_t1__cache_0 {{
                    key = {{ hdr.ncl.K : exact }}
                    actions = {{ NoAction; }}
                    size = 64;
                }}
                apply {{
                    meta.a = t0__incr.execute(32w0);
                    meta.b = t1__incr.execute(32w0);
                    lu_t1__cache_0.apply();
                }}",
                incr(0),
                incr(1)
            ),
        );
        let r = allocate(&p, &spec()).unwrap();
        assert_eq!(r.tenants.len(), 2);
        let t0 = &r.tenants[0];
        let t1 = &r.tenants[1];
        assert_eq!((t0.tenant, t0.salus, t0.tables), (0, 1, 0));
        assert_eq!((t1.tenant, t1.salus, t1.tables), (1, 1, 1));
        assert_eq!(t0.sram_bits, 32 * 1024);
        assert!(t1.sram_bits > 32 * 1024, "register plus table rows");

        // Cap tenant 1's tables at zero → structured rejection.
        let budgets = TenantBudgets {
            per_tenant: vec![(
                1,
                TenantBudget { stages: 12, sram_bits: u64::MAX, salus: 4, tables: 0 },
            )],
            default_budget: None,
        };
        let err = allocate_with_budgets(&p, &spec(), &budgets).unwrap_err();
        assert_eq!(
            err,
            AllocError::TenantBudget { tenant: 1, resource: "tables", used: 1, cap: 0 }
        );

        // An even split admits both tenants.
        let even = TenantBudgets {
            per_tenant: vec![],
            default_budget: Some(TenantBudget::split(&spec(), 2)),
        };
        assert!(allocate_with_budgets(&p, &spec(), &even).is_ok());
    }

    /// End-to-end: the compiled Fig. 4 cache fits the 12-stage pipe.
    #[test]
    fn compiled_cache_fits() {
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("fig4.ncl", FIG4)
            .unwrap();
        let p4 = &unit.devices[0].tna_p4;
        let r = allocate(p4, &spec()).unwrap_or_else(|e| panic!("{e}"));
        assert!(r.stages_used <= 12);
        assert!(r.stages_used >= 3, "hash → CMS chain needs depth, got {}", r.stages_used);
        let salus: u32 = r.per_stage.iter().map(|s| s.salus).sum();
        assert_eq!(salus, 3, "three CMS partitions");
        assert!(r.phv.percent() < 100.0);
        assert!(r.latency_ns < 1000.0, "sub-µs per-packet latency (Fig. 13)");
    }

    const FIG4: &str = r#"
#define CMS_HASHES 3
#define THRESH 512
#define GET_REQ 1
_managed_ unsigned cms[CMS_HASHES][65536];
_net_ void sketch(unsigned k, unsigned &hot) {
  unsigned c[CMS_HASHES];
  c[0] = ncl::atomic_sadd_new(&cms[0][ncl::xor16(k)], 1);
  c[1] = ncl::atomic_sadd_new(&cms[1][ncl::crc32<16>(k)], 1);
  c[2] = ncl::atomic_sadd_new(&cms[2][ncl::crc16(k)], 1);
  for (auto i = 1; i < CMS_HASHES; ++i)
    if (c[i] < c[0]) c[0] = c[i];
  hot = c[0] > THRESH ? c[0] : 0;
}
_net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42}, {2,42}, {3,42}, {4,42}};
_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v,
                             char &hit, unsigned &hot) {
  if (op == GET_REQ) {
    hit = ncl::lookup(cache, k, v);
    return hit ? ncl::reflect() : sketch(k, hot);
  }
}
"#;
}
