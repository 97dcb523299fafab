//! The switch: parser FSM, ingress execution, deparser, and state.
//!
//! Two execution engines share one runtime state (selected with
//! [`Switch::set_engine`]):
//!
//! * the **threaded** production path (default): the flat op stream that
//!   [`mod@crate::compile`] produces, lowered once more into direct-threaded
//!   closure arrays by [`mod@crate::threaded`] — no per-op `match`,
//!   pre-resolved slots, masks, and register/table handles (DESIGN.md §14);
//! * the **tree-walking interpreter**: re-evaluates the AST per packet
//!   through the string compatibility layer. It is intentionally kept
//!   simple and serves as the differential oracle for the threaded engine.
//!
//! Both count, mutate, and fail identically — the differential proptests
//! and the chaos matrix hold them to byte-for-byte equal outputs, errors,
//! [`SwitchCounters`], and register state. Every entry point
//! ([`Switch::process_into`], [`Switch::process_batch`]) runs each packet
//! through the same private per-packet routine, which holds the only
//! engine dispatch.

use std::sync::Arc;

use crate::batch::PacketBatch;
use crate::compile::{self, CompiledProgram};
use crate::eval::{canonical, eval, instance_of, mask_of};
use crate::packet::{read_field, write_field, FieldError, Packet, PacketError};
use crate::threaded::{self, ThreadedProgram};
use netcl_ir::interp::eval_intrinsic;
use netcl_p4::ast::*;

/// Which execution engine a [`Switch`] runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Tree-walking AST interpreter (the differential oracle).
    Interpreted,
    /// Direct-threaded closure arrays (the default; DESIGN.md §14).
    #[default]
    Threaded,
}

impl Engine {
    /// Stable lowercase label, used on trace spans and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Interpreted => "interpreted",
            Engine::Threaded => "threaded",
        }
    }
}

/// Runtime errors (all indicate malformed programs or packets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// Packet parse failure.
    Packet(PacketError),
    /// Program references an unknown entity.
    Unknown(String),
}

impl std::fmt::Display for SwitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwitchError::Packet(p) => write!(f, "{p}"),
            SwitchError::Unknown(s) => write!(f, "unknown entity `{s}`"),
        }
    }
}

impl From<PacketError> for SwitchError {
    fn from(p: PacketError) -> Self {
        SwitchError::Packet(p)
    }
}

fn field_err(e: FieldError, header: &str) -> SwitchError {
    match e {
        FieldError::Unaligned { .. } => PacketError::Unaligned(header.to_string()).into(),
        FieldError::Truncated => PacketError::Truncated { header: header.to_string() }.into(),
    }
}

/// Per-switch data-plane counters (DESIGN.md §12). Always on — each is a
/// single integer increment on an already-taken branch, which the
/// throughput benchmark bounds at < 2% — and they count identically on
/// both engines, so the differential tests compare them too. Reset by
/// [`Switch::reset_counters`] and by device restarts (a fresh switch
/// starts from zero, like real hardware).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Packets entering the pipeline (parse attempts).
    pub packets: u64,
    /// Packets rejected with an error (parse failure or a deferred
    /// compile-time failure surfacing at execution).
    pub errors: u64,
    /// Table hits, by table-state index (see [`Switch::table_stats`]).
    pub table_hits: Vec<u64>,
    /// Table misses, by table-state index.
    pub table_misses: Vec<u64>,
    /// `RegisterAction` executions (SALU microprograms).
    pub reg_action_execs: u64,
    /// Action invocations (table-driven and direct calls).
    pub action_calls: u64,
    /// Extern function calls (hash engines count separately under their
    /// tables' keys; this counts `random` and the ncl intrinsics).
    pub extern_calls: u64,
    /// Control-plane table operations applied through
    /// [`Switch::apply_update`] (one per op in an accepted batch).
    pub table_updates: u64,
    /// Control-plane update *batches* rejected by validation (nothing
    /// applied — see [`crate::ctrl`]).
    pub update_rejects: u64,
    /// Per-tenant sub-views (DESIGN.md §17), keyed by tenant id. Empty
    /// until [`Switch::set_tenants`] configures the comp→tenant map;
    /// maintained by the one per-packet routine both engines run under,
    /// so they participate in the differential contract like every other
    /// counter.
    pub tenants: std::collections::BTreeMap<u16, TenantCounters>,
}

/// One tenant's slice of the data-plane counters. Packets attribute by
/// the NCL shim's `comp` byte (wire byte 8 — the tenant classifier at
/// ingress); `RegisterAction` executions attribute by delta around each
/// packet's execution, which is exact because namespaced kernels dispatch
/// exclusively on `comp`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Packets entering the pipeline with this tenant's comp byte.
    pub packets: u64,
    /// SALU microprograms executed on behalf of this tenant's packets.
    pub reg_action_execs: u64,
}

impl SwitchCounters {
    fn new(cp: &CompiledProgram) -> SwitchCounters {
        SwitchCounters {
            table_hits: vec![0; cp.table_states.len()],
            table_misses: vec![0; cp.table_states.len()],
            ..SwitchCounters::default()
        }
    }

    /// Total hits across all tables.
    pub fn total_hits(&self) -> u64 {
        self.table_hits.iter().sum()
    }

    /// Total misses across all tables.
    pub fn total_misses(&self) -> u64 {
        self.table_misses.iter().sum()
    }
}

/// Mutable per-switch state shared by both engines, plus the threaded
/// engine's reusable scratch buffers (all stack-disciplined so re-entrant
/// table/action execution never allocates in steady state).
pub(crate) struct RuntimeState {
    /// Register cells, by [`CompiledProgram`] register index.
    pub(crate) registers: Vec<Vec<u64>>,
    /// Table entries, by table-state index (shared by name).
    pub(crate) tables: Vec<Vec<TableEntry>>,
    pub(crate) rng: u64,
    /// Table key values for in-flight applies.
    pub(crate) keys: Vec<u64>,
    /// Action args / RA operands / extern arg values.
    pub(crate) scratch: Vec<u64>,
    /// Saved `(slot, value, present)` for action-parameter bindings.
    pub(crate) param_saves: Vec<(compile::FieldSlot, u64, bool)>,
    /// Data-plane counters (lives here so the threaded engine's free
    /// functions can increment through `st`).
    pub(crate) counters: SwitchCounters,
}

impl RuntimeState {
    fn new(cp: &CompiledProgram) -> RuntimeState {
        RuntimeState {
            registers: cp.regs.iter().map(|r| vec![0u64; r.size]).collect(),
            tables: cp.table_states.iter().map(|t| t.entries.clone()).collect(),
            rng: 0x9E37_79B9_97F4_A7C1,
            keys: Vec::new(),
            scratch: Vec::new(),
            param_saves: Vec::new(),
            counters: SwitchCounters::new(cp),
        }
    }
}

/// The comp→tenant classification a multi-tenant switch attributes
/// counters with ([`Switch::set_tenants`]). A 256-entry direct map: the
/// NCL `comp` byte indexes it, `u16::MAX` means "no tenant".
struct Tenancy {
    comp_tenant: [u16; 256],
}

impl Tenancy {
    /// The NCL shim header places `comp` at wire byte 8.
    const COMP_BYTE: usize = 8;

    fn of_wire(&self, wire: &[u8]) -> Option<u16> {
        let comp = *wire.get(Self::COMP_BYTE)?;
        let t = self.comp_tenant[comp as usize];
        (t != u16::MAX).then_some(t)
    }
}

/// A software switch instance executing one P4 program.
pub struct Switch {
    program: P4Program,
    /// Crate-visible so the control-plane module ([`crate::ctrl`]) can
    /// validate updates against the compiled table metadata.
    pub(crate) compiled: Arc<CompiledProgram>,
    /// The direct-threaded lowering of `compiled` (built once, in `new`).
    threaded: ThreadedProgram,
    /// Crate-visible so [`crate::ctrl`] can bump the update counters.
    pub(crate) st: RuntimeState,
    /// Which engine `process` runs ([`Switch::set_engine`]).
    engine: Engine,
    /// Opt-in per-packet wall-time histogram ([`Switch::set_timing`]).
    timing: Option<netcl_obs::Histogram>,
    /// Per-tenant attribution config; `None` (the default) costs nothing
    /// on the packet path.
    tenancy: Option<Box<Tenancy>>,
}

impl Switch {
    /// Instantiates a switch for `program` with zeroed registers. The
    /// program is compiled to flat form — and lowered to direct-threaded
    /// form — here, once.
    pub fn new(program: P4Program) -> Switch {
        let compiled = Arc::new(compile::compile(&program));
        let threaded = threaded::lower(&compiled);
        let st = RuntimeState::new(&compiled);
        Switch {
            program,
            compiled,
            threaded,
            st,
            engine: Engine::default(),
            timing: None,
            tenancy: None,
        }
    }

    // ---- observability (DESIGN.md §12) ----------------------------------

    /// The data-plane counters accumulated so far. Counted identically by
    /// both engines, so they participate in the differential contract.
    pub fn counters(&self) -> &SwitchCounters {
        &self.st.counters
    }

    /// Zeroes all counters (e.g. between a warmup and a measured run).
    pub fn reset_counters(&mut self) {
        self.st.counters = SwitchCounters::new(&self.compiled);
    }

    /// Per-table `(name, hits, misses)`, in table-state order. Duplicated
    /// lookup tables (`name__dupN`) report separately.
    pub fn table_stats(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.compiled.table_states.iter().enumerate().map(|(i, t)| {
            (t.name.as_str(), self.st.counters.table_hits[i], self.st.counters.table_misses[i])
        })
    }

    // ---- multi-tenant attribution (DESIGN.md §17) ------------------------

    /// Configures per-tenant counter attribution: `comps` maps each NCL
    /// computation id to its owning tenant (the merge driver's
    /// `TenantMapEntry` provides exactly this). Packets classify by the
    /// shim's `comp` byte at ingress; comps not listed attribute to
    /// nobody. Survives engine switches and [`Switch::reset_counters`],
    /// but not a device restart (a fresh switch knows no tenants — the
    /// simulator's restart hooks re-apply it, like real control planes
    /// re-push config).
    pub fn set_tenants(&mut self, comps: &[(u8, u16)]) {
        let mut map = [u16::MAX; 256];
        for &(comp, tenant) in comps {
            map[comp as usize] = tenant;
        }
        self.tenancy = Some(Box::new(Tenancy { comp_tenant: map }));
    }

    /// Drops tenant attribution; existing per-tenant counts remain until
    /// [`Switch::reset_counters`].
    pub fn clear_tenants(&mut self) {
        self.tenancy = None;
    }

    /// One tenant's counter sub-view (zeroes when it processed nothing).
    pub fn tenant_counters(&self, tenant: u16) -> TenantCounters {
        self.st.counters.tenants.get(&tenant).copied().unwrap_or_default()
    }

    /// One tenant's `(hits, misses)` summed over the tables its namespace
    /// owns. Derived from the per-table counters and the `t<id>__` name
    /// prefix — tables dispatch behind the tenant's comp match, so
    /// per-name totals *are* per-tenant totals, with no per-packet cost.
    pub fn tenant_table_stats(&self, tenant: u16) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for (i, t) in self.compiled.table_states.iter().enumerate() {
            if netcl_util::tenant::of(&t.name) == Some(tenant) {
                hits += self.st.counters.table_hits[i];
                misses += self.st.counters.table_misses[i];
            }
        }
        (hits, misses)
    }

    /// Enables (or disables) the per-packet wall-time histogram. Off by
    /// default: when off, `process_into` never reads the clock.
    pub fn set_timing(&mut self, on: bool) {
        self.timing = if on { Some(netcl_obs::Histogram::new()) } else { None };
    }

    /// The per-packet wall-time histogram, when timing is enabled.
    pub fn timing(&self) -> Option<&netcl_obs::Histogram> {
        self.timing.as_ref()
    }

    /// The program this switch runs.
    pub fn program(&self) -> &P4Program {
        &self.program
    }

    /// The compiled form of the program.
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    /// Selects the execution engine. Registers, tables, and counters carry
    /// over.
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The currently selected engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// A packet shaped for this switch's slot table, for reuse with
    /// [`Switch::process_into`].
    pub fn new_packet(&self) -> Packet {
        Packet::with_slots(Arc::clone(&self.compiled.slots))
    }

    // ---- control plane (backs `_managed_` memory, §V-B) -----------------

    /// Reads one register element.
    pub fn register_read(&self, name: &str, index: usize) -> Option<u64> {
        let i = *self.compiled.reg_index.get(name)?;
        self.st.registers[i as usize].get(index).copied()
    }

    /// Writes one register element.
    pub fn register_write(&mut self, name: &str, index: usize, value: u64) -> bool {
        let Some(&i) = self.compiled.reg_index.get(name) else { return false };
        match self.st.registers[i as usize].get_mut(index) {
            Some(cell) => {
                *cell = value;
                true
            }
            None => false,
        }
    }

    /// All registers with their current contents (diagnostics and
    /// differential tests).
    pub fn registers(&self) -> impl Iterator<Item = (&str, &[u64])> {
        self.compiled
            .regs
            .iter()
            .zip(&self.st.registers)
            .map(|(r, cells)| (r.name.as_str(), cells.as_slice()))
    }

    /// Tables whose names start with `prefix` (lookup duplication creates
    /// `name`, `name__dup1`, ... that must be updated together).
    pub fn tables_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.compiled
            .table_states
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .map(|t| t.name.clone())
            .collect()
    }

    // ---- packet processing ----------------------------------------------

    /// Runs one packet through parser → ingress → deparser, allocating a
    /// fresh packet and output buffer. Prefer [`Switch::process_into`] on
    /// hot paths.
    pub fn process(&mut self, wire: &[u8]) -> Result<(Packet, Vec<u8>), SwitchError> {
        let mut pkt = self.new_packet();
        let mut out = Vec::new();
        self.process_into(wire, &mut pkt, &mut out)?;
        Ok((pkt, out))
    }

    /// Runs one packet, reusing the caller's packet and output buffer. On
    /// the threaded engine this performs no heap allocation for fields the
    /// program interned (errors and payload growth aside).
    pub fn process_into(
        &mut self,
        wire: &[u8],
        pkt: &mut Packet,
        out: &mut Vec<u8>,
    ) -> Result<(), SwitchError> {
        pkt.ensure_slots(&self.compiled.slots);
        self.run_one(wire, pkt, out)
    }

    /// The one per-packet routine behind every entry point: count, reset
    /// the caller's (already shaped) packet and output, run the selected
    /// engine, attribute to the tenant, time, and count a failure. This is
    /// the only place the engine is dispatched on.
    fn run_one(
        &mut self,
        wire: &[u8],
        pkt: &mut Packet,
        out: &mut Vec<u8>,
    ) -> Result<(), SwitchError> {
        let watch = self.timing.as_ref().map(|_| netcl_obs::Stopwatch::start());
        self.st.counters.packets += 1;
        // Tenant attribution brackets the engine run: the comp byte names
        // the tenant, and the reg-action delta across the run is exactly
        // the tenant's (kernels dispatch exclusively on comp).
        let tenant = self.tenancy.as_deref().and_then(|t| t.of_wire(wire));
        let ra_before = self.st.counters.reg_action_execs;
        out.clear();
        pkt.reset();
        let r = match self.engine {
            Engine::Interpreted => self.run_interp(wire, pkt, out),
            // Split borrows: the lowered program and the runtime state are
            // disjoint fields, so no per-packet `Arc` refcount traffic.
            Engine::Threaded => {
                let Switch { threaded, st, .. } = self;
                threaded::run_threaded(threaded, wire, pkt, out, st)
            }
        };
        if let Some(tid) = tenant {
            let delta = self.st.counters.reg_action_execs - ra_before;
            let e = self.st.counters.tenants.entry(tid).or_default();
            e.packets += 1;
            e.reg_action_execs += delta;
        }
        if let (Some(w), Some(h)) = (watch, self.timing.as_mut()) {
            h.record(w.elapsed_ns());
        }
        if r.is_err() {
            self.st.counters.errors += 1;
        }
        r
    }

    // ---- batched processing (DESIGN.md §13) -----------------------------

    /// Runs every packet of `batch` through the pipeline, in order,
    /// recording per-packet outcomes and outputs in the batch. Identical
    /// to calling [`Switch::process_into`] once per packet — it is the same
    /// per-packet routine — with packet shaping, output buffers and the
    /// wire arena amortized over the batch.
    pub fn process_batch(&mut self, batch: &mut PacketBatch) {
        batch.prepare(&self.compiled.slots);
        for i in 0..batch.len() {
            let (wire, pkt, out) = batch.slot_mut(i);
            let r = self.run_one(wire, pkt, out);
            batch.set_outcome(i, r);
        }
    }

    // ---- interpreter oracle ---------------------------------------------

    fn header_def(&self, instance: &str) -> Option<&HeaderDef> {
        let ty = format!("{instance}_t");
        self.program.headers.iter().find(|h| h.name == ty)
    }

    /// One full parse → ingress → deparse run on the interpreter.
    fn run_interp(
        &mut self,
        wire: &[u8],
        pkt: &mut Packet,
        out: &mut Vec<u8>,
    ) -> Result<(), SwitchError> {
        self.parse_interp(wire, pkt)?;
        let controls = self.program.controls.clone();
        for control in &controls {
            self.exec_stmts(&control.apply, control, pkt)?;
        }
        self.deparse_interp(pkt, out)
    }

    fn parse_interp(&self, wire: &[u8], pkt: &mut Packet) -> Result<(), SwitchError> {
        let Some(parser) = self.program.parser.clone() else {
            pkt.payload.extend_from_slice(wire);
            return Ok(());
        };
        let mut cursor = 0usize;
        let mut state = "start".to_string();
        let mut hops = 0;
        while state != "accept" && state != "reject" {
            hops += 1;
            if hops > 64 {
                return Err(SwitchError::Unknown("parser loop".into()));
            }
            let Some(st) = parser.states.iter().find(|s| s.name == state) else {
                return Err(SwitchError::Unknown(format!("parser state `{state}`")));
            };
            for ex in &st.extracts {
                let instance = ex.strip_prefix("hdr.").unwrap_or(ex).to_string();
                let def = self
                    .header_def(&instance)
                    .ok_or_else(|| SwitchError::Unknown(format!("header `{instance}`")))?;
                for i in 0..def.stack {
                    for (fname, bits) in &def.fields {
                        let v = read_field(wire, &mut cursor, *bits)
                            .map_err(|e| field_err(e, &instance))?;
                        let path = if def.stack > 1 {
                            format!("{instance}[{i}].{fname}")
                        } else {
                            format!("{instance}.{fname}")
                        };
                        pkt.set(&path, v);
                    }
                }
                pkt.set_valid(&instance, true);
            }
            state = match &st.transition {
                Transition::Accept => "accept".into(),
                Transition::Reject => "reject".into(),
                Transition::Direct(t) => t.clone(),
                Transition::Select { selector, cases, default } => {
                    let widths = self.width_fn();
                    let (v, _) = eval(selector, pkt, &widths);
                    cases
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, t)| t.clone())
                        .unwrap_or_else(|| default.clone())
                }
            };
        }
        pkt.payload.extend_from_slice(&wire[cursor..]);
        Ok(())
    }

    fn deparse_interp(&self, pkt: &Packet, out: &mut Vec<u8>) -> Result<(), SwitchError> {
        for &id in pkt.order_ids() {
            if !pkt.is_valid_id(id) {
                continue;
            }
            let instance = pkt.instance_name(id);
            let def = self
                .header_def(instance)
                .ok_or_else(|| SwitchError::Unknown(format!("header `{instance}`")))?;
            for i in 0..def.stack {
                for (fname, bits) in &def.fields {
                    let path = if def.stack > 1 {
                        format!("{instance}[{i}].{fname}")
                    } else {
                        format!("{instance}.{fname}")
                    };
                    write_field(out, pkt.get(&path), *bits).map_err(|e| field_err(e, instance))?;
                }
            }
        }
        out.extend_from_slice(&pkt.payload);
        Ok(())
    }

    fn width_fn(&self) -> impl Fn(&str) -> u32 + '_ {
        move |path: &str| self.compiled.field_widths.get(path).copied().unwrap_or(32)
    }

    fn exec_stmts(
        &mut self,
        stmts: &[Stmt],
        control: &ControlDef,
        pkt: &mut Packet,
    ) -> Result<(), SwitchError> {
        for s in stmts {
            self.exec_stmt(s, control, pkt)?;
        }
        Ok(())
    }

    fn assign(&self, pkt: &mut Packet, dst: &Expr, value: u64) {
        let Expr::Field(segs) = dst else { return };
        let path = canonical(segs);
        let width = self.compiled.field_widths.get(&path).copied().unwrap_or(32);
        let v = value & mask_of(width);
        if segs.first().map(|s| s.name.as_str()) == Some("meta") {
            pkt.set_meta(&path, v);
        } else {
            pkt.set(&path, v);
        }
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        control: &ControlDef,
        pkt: &mut Packet,
    ) -> Result<(), SwitchError> {
        match stmt {
            Stmt::Assign(dst, rhs) => {
                let widths = self.width_fn();
                let (v, _) = eval(rhs, pkt, &widths);
                self.assign(pkt, dst, v);
            }
            Stmt::CallAction(name) => {
                let a = control
                    .action(name)
                    .ok_or_else(|| SwitchError::Unknown(format!("action `{name}`")))?
                    .clone();
                self.exec_action(&a, &[], control, pkt)?;
            }
            Stmt::ApplyTable(name) => {
                self.apply_table(name, control, pkt)?;
            }
            Stmt::ExecuteRegisterAction { dst, ra, index } => {
                self.st.counters.reg_action_execs += 1;
                let radef = control
                    .register_action(ra)
                    .ok_or_else(|| SwitchError::Unknown(format!("RegisterAction `{ra}`")))?
                    .clone();
                let reg = control.register(&radef.register).ok_or_else(|| {
                    SwitchError::Unknown(format!("register `{}`", radef.register))
                })?;
                let bits = reg.elem_bits;
                let widths = self.width_fn();
                let (idx, _) = eval(index, pkt, &widths);
                let cond = match &radef.cond {
                    Some(c) => eval(c, pkt, &widths).0 != 0,
                    None => true,
                };
                let mut ops = Vec::new();
                for o in &radef.operands {
                    ops.push(eval(o, pkt, &widths).0 & mask_of(bits));
                }
                drop(widths);
                let reg_i =
                    self.compiled.reg_index.get(&radef.register).copied().ok_or_else(|| {
                        SwitchError::Unknown(format!("register `{}`", radef.register))
                    })?;
                let cells = &mut self.st.registers[reg_i as usize];
                let i = (idx as usize).min(cells.len().saturating_sub(1));
                let old = cells.get(i).copied().unwrap_or(0);
                let sty = netcl_sema::Ty::Int { bits: (bits as u8).clamp(8, 64), signed: false };
                let (new, ret) = radef.op.execute(old, cond, &ops, sty);
                if let Some(cell) = cells.get_mut(i) {
                    *cell = new & mask_of(bits);
                }
                if let Some(d) = dst {
                    self.assign(pkt, d, ret);
                }
            }
            Stmt::HashGet { dst, hash, args } => {
                let h = control
                    .hashes
                    .iter()
                    .find(|h| h.name == *hash)
                    .ok_or_else(|| SwitchError::Unknown(format!("hash `{hash}`")))?
                    .clone();
                let widths = self.width_fn();
                // Hash the concatenated little-endian bytes of all args, as
                // the IR interpreter does for its single-key form.
                let mut key = 0u64;
                let mut key_bits = 0u32;
                for a in args {
                    let (v, w) = eval(a, pkt, &widths);
                    key |= (v & mask_of(w)) << key_bits.min(63);
                    key_bits += w;
                }
                let key_bytes = key_bits.div_ceil(8).max(1);
                let v = h.algo.compute(key, key_bytes, h.out_bits.min(64) as u8);
                drop(widths);
                self.assign(pkt, dst, v);
            }
            Stmt::If { cond, then, els } => {
                let taken = match cond {
                    Expr::TableHit(t) => self.apply_table(t, control, pkt)?,
                    Expr::TableMiss(t) => !self.apply_table(t, control, pkt)?,
                    other => {
                        let widths = self.width_fn();
                        eval(other, pkt, &widths).0 != 0
                    }
                };
                if taken {
                    self.exec_stmts(then, control, pkt)?;
                } else {
                    self.exec_stmts(els, control, pkt)?;
                }
            }
            Stmt::ExternCall { dst, func, args } => {
                self.st.counters.extern_calls += 1;
                let widths = self.width_fn();
                let mut vals = Vec::new();
                for a in args {
                    vals.push(eval(a, pkt, &widths).0);
                }
                drop(widths);
                let v = match func.as_str() {
                    "random" => {
                        // SplitMix64, mirroring the IR interpreter's RNG.
                        self.st.rng = self.st.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                        let mut z = self.st.rng;
                        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                        z ^ (z >> 31)
                    }
                    other => match other.split_once('_') {
                        Some((target, name)) => eval_intrinsic(target, name, &vals),
                        None => eval_intrinsic("", other, &vals),
                    },
                };
                if let Some(d) = dst {
                    self.assign(pkt, d, v);
                }
            }
            Stmt::SetValid(e) => {
                if let Expr::Field(segs) = e {
                    let inst = instance_of(segs);
                    pkt.set_valid(&inst, true);
                }
            }
            Stmt::SetInvalid(e) => {
                if let Expr::Field(segs) = e {
                    let inst = instance_of(segs);
                    pkt.set_valid(&inst, false);
                }
            }
            Stmt::Exit => {}
        }
        Ok(())
    }

    /// Applies a table; returns hit/miss.
    fn apply_table(
        &mut self,
        name: &str,
        control: &ControlDef,
        pkt: &mut Packet,
    ) -> Result<bool, SwitchError> {
        let t = control
            .table(name)
            .ok_or_else(|| SwitchError::Unknown(format!("table `{name}`")))?
            .clone();
        let widths = self.width_fn();
        let key_vals: Vec<u64> = t.keys.iter().map(|(k, _)| eval(k, pkt, &widths).0).collect();
        drop(widths);
        let state = self.compiled.table_index.get(name).copied();
        let entries = state.map(|i| self.st.tables[i as usize].clone()).unwrap_or_default();
        let hit = entries.iter().find(|e| {
            e.keys.len() == key_vals.len()
                && e.keys.iter().zip(&key_vals).all(|(ek, kv)| match ek {
                    EntryKey::Value(v) => v == kv,
                    EntryKey::Range(lo, hi) => lo <= kv && kv <= hi,
                })
        });
        if let Some(i) = state {
            match hit {
                Some(_) => self.st.counters.table_hits[i as usize] += 1,
                None => self.st.counters.table_misses[i as usize] += 1,
            }
        }
        match hit {
            Some(entry) => {
                let entry = entry.clone();
                if let Some(a) = control.action(&entry.action) {
                    let a = a.clone();
                    self.exec_action(&a, &entry.args, control, pkt)?;
                }
                Ok(true)
            }
            None => {
                if t.default_action != "NoAction" {
                    if let Some(a) = control.action(&t.default_action) {
                        let a = a.clone();
                        self.exec_action(&a, &[], control, pkt)?;
                    }
                }
                Ok(false)
            }
        }
    }

    fn exec_action(
        &mut self,
        action: &ActionDef,
        args: &[u64],
        control: &ControlDef,
        pkt: &mut Packet,
    ) -> Result<(), SwitchError> {
        self.st.counters.action_calls += 1;
        // Bind parameters as metadata under their bare names (action-local).
        let saved: Vec<(String, Option<u64>)> =
            action.params.iter().map(|(n, _)| (n.clone(), pkt.meta_opt(n))).collect();
        for ((n, w), v) in action.params.iter().zip(args) {
            pkt.set_meta(n, v & mask_of(*w));
        }
        self.exec_stmts(&action.body, control, pkt)?;
        for (n, old) in saved {
            match old {
                Some(v) => pkt.set_meta(&n, v),
                None => pkt.meta_remove(&n),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::TableUpdate;
    use netcl_sema::builtins::{AtomicOp, AtomicRmw};

    /// A tiny hand-built program: parse one header, count packets in a
    /// register, set a field from a table.
    fn counting_program() -> P4Program {
        P4Program {
            name: "count".into(),
            target: Target::V1Model,
            headers: vec![HeaderDef {
                name: "h_t".into(),
                fields: vec![("k".into(), 16), ("v".into(), 16)],
                stack: 1,
            }],
            parser: Some(ParserDef {
                name: "P".into(),
                states: vec![ParserState {
                    name: "start".into(),
                    extracts: vec!["hdr.h".into()],
                    transition: Transition::Accept,
                }],
            }),
            controls: vec![ControlDef {
                name: "Ig".into(),
                locals: vec![("cnt".into(), 32)],
                registers: vec![RegisterDef { name: "R".into(), elem_bits: 32, size: 8 }],
                register_actions: vec![RegisterActionDef {
                    name: "bump".into(),
                    register: "R".into(),
                    op: AtomicOp { rmw: AtomicRmw::Add, cond: false, ret_new: true },
                    cond: None,
                    operands: vec![Expr::val(1, 32)],
                }],
                hashes: vec![],
                actions: vec![ActionDef {
                    name: "setv".into(),
                    params: vec![("x".into(), 16)],
                    body: vec![Stmt::Assign(Expr::field(&["hdr", "h", "v"]), Expr::field(&["x"]))],
                }],
                tables: vec![TableDef {
                    name: "t".into(),
                    keys: vec![(Expr::field(&["hdr", "h", "k"]), MatchKind::Exact)],
                    actions: vec!["setv".into()],
                    entries: vec![TableEntry {
                        keys: vec![EntryKey::Value(7)],
                        action: "setv".into(),
                        args: vec![99],
                    }],
                    default_action: "NoAction".into(),
                    size: 8,
                }],
                apply: vec![
                    Stmt::ExecuteRegisterAction {
                        dst: Some(Expr::field(&["meta", "cnt"])),
                        ra: "bump".into(),
                        index: Expr::val(0, 32),
                    },
                    Stmt::ApplyTable("t".into()),
                ],
            }],
        }
    }

    fn wire(k: u16, v: u16) -> Vec<u8> {
        let mut out = Vec::new();
        write_field(&mut out, k as u64, 16).unwrap();
        write_field(&mut out, v as u64, 16).unwrap();
        out
    }

    #[test]
    fn parse_execute_deparse_roundtrip() {
        let mut sw = Switch::new(counting_program());
        let (pkt, out) = sw.process(&wire(7, 0)).unwrap();
        assert_eq!(pkt.get("h.k"), 7);
        assert_eq!(pkt.get("h.v"), 99, "table hit writes v");
        // Deparsed bytes reflect the modified header.
        assert_eq!(out, wire(7, 99));
        // Register counted the packet.
        assert_eq!(sw.register_read("R", 0), Some(1));
        // Miss leaves v alone.
        let (_, out) = sw.process(&wire(8, 5)).unwrap();
        assert_eq!(out, wire(8, 5));
        assert_eq!(sw.register_read("R", 0), Some(2));
    }

    #[test]
    fn control_plane_table_updates() {
        let mut sw = Switch::new(counting_program());
        let entry =
            TableEntry { keys: vec![EntryKey::Value(8)], action: "setv".into(), args: vec![11] };
        assert_eq!(sw.apply_update(&TableUpdate::new().insert("t", entry)), Ok(1));
        let (_, out) = sw.process(&wire(8, 0)).unwrap();
        assert_eq!(out, wire(8, 11));
        let evict = TableUpdate::new().delete("t", vec![EntryKey::Value(8)]);
        assert_eq!(sw.apply_update(&evict), Ok(1));
        let (_, out) = sw.process(&wire(8, 0)).unwrap();
        assert_eq!(out, wire(8, 0));
    }

    #[test]
    fn register_control_plane() {
        let mut sw = Switch::new(counting_program());
        assert!(sw.register_write("R", 3, 500));
        assert_eq!(sw.register_read("R", 3), Some(500));
        assert!(!sw.register_write("missing", 0, 1));
        assert!(!sw.register_write("R", 99, 1));
    }

    #[test]
    fn truncated_packet_rejected() {
        let mut sw = Switch::new(counting_program());
        let r = sw.process(&[0x01]);
        assert!(matches!(r, Err(SwitchError::Packet(PacketError::Truncated { .. }))));
        // The interpreter agrees.
        sw.set_engine(Engine::Interpreted);
        let r = sw.process(&[0x01]);
        assert!(matches!(r, Err(SwitchError::Packet(PacketError::Truncated { .. }))));
    }

    /// The threaded engine and the interpreter oracle agree byte-for-byte
    /// on outputs and register state, including across control-plane
    /// updates.
    #[test]
    fn threaded_matches_interpreter() {
        let mut fast = Switch::new(counting_program());
        let mut oracle = Switch::new(counting_program());
        oracle.set_engine(Engine::Interpreted);
        assert_eq!(fast.engine(), Engine::Threaded);
        assert_eq!(oracle.engine(), Engine::Interpreted);

        let extra =
            TableEntry { keys: vec![EntryKey::Value(3)], action: "setv".into(), args: vec![42] };
        let extra = TableUpdate::new().insert("t", extra);
        assert_eq!(fast.apply_update(&extra), Ok(1));
        assert_eq!(oracle.apply_update(&extra), Ok(1));

        for (k, v) in [(7u16, 0u16), (8, 5), (3, 1), (7, 7), (0xFFFF, 0xFFFF)] {
            let (pf, of) = fast.process(&wire(k, v)).unwrap();
            let (po, oo) = oracle.process(&wire(k, v)).unwrap();
            assert_eq!(of, oo, "output diverges on k={k} v={v}");
            assert_eq!(pf.get("h.v"), po.get("h.v"));
        }
        let fr: Vec<_> = fast.registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect();
        let or: Vec<_> = oracle.registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect();
        assert_eq!(fr, or, "register state diverges");
        // Both engines count the same events: counters are part of the
        // differential contract.
        assert_eq!(fast.counters(), oracle.counters(), "counters diverge");
    }

    /// Counters track packets, table hits/misses, reg-action executions and
    /// errors, and reset cleanly.
    #[test]
    fn counters_track_data_plane_events() {
        let mut sw = Switch::new(counting_program());
        sw.set_timing(true);
        sw.process(&wire(7, 0)).unwrap(); // hit
        sw.process(&wire(8, 5)).unwrap(); // miss
        sw.process(&[0x01]).unwrap_err(); // parse error
        let c = sw.counters();
        assert_eq!(c.packets, 3);
        assert_eq!(c.errors, 1);
        assert_eq!(c.reg_action_execs, 2);
        assert_eq!(c.total_hits(), 1);
        assert_eq!(c.total_misses(), 1);
        assert_eq!(c.action_calls, 1, "only the hit ran `setv`");
        let stats: Vec<_> = sw.table_stats().collect();
        assert_eq!(stats, vec![("t", 1, 1)]);
        // Timing recorded one sample per completed pipeline run.
        assert_eq!(sw.timing().unwrap().count(), 3);
        sw.reset_counters();
        assert_eq!(sw.counters().packets, 0);
        assert_eq!(sw.counters().total_hits(), 0);
    }

    /// Deferred compilation errors surface with the interpreter's message,
    /// at the same (execution) time.
    #[test]
    fn unknown_action_fails_lazily_like_interpreter() {
        let mut p = counting_program();
        // Reference a missing action, but only behind a miss-only branch.
        p.controls[0].apply = vec![Stmt::If {
            cond: Expr::Bin(
                P4BinOp::Eq,
                Box::new(Expr::field(&["hdr", "h", "k"])),
                Box::new(Expr::val(1, 16)),
            ),
            then: vec![Stmt::CallAction("missing".into())],
            els: vec![],
        }];
        let mut fast = Switch::new(p.clone());
        let mut oracle = Switch::new(p);
        oracle.set_engine(Engine::Interpreted);
        // Not taken: no error.
        assert!(fast.process(&wire(2, 0)).is_ok());
        assert!(oracle.process(&wire(2, 0)).is_ok());
        // Taken: identical error text.
        let ef = fast.process(&wire(1, 0)).unwrap_err();
        let eo = oracle.process(&wire(1, 0)).unwrap_err();
        assert_eq!(ef, eo);
        assert_eq!(ef, SwitchError::Unknown("action `missing`".into()));
    }

    /// `process_into` reuses caller buffers and matches `process`.
    #[test]
    fn process_into_reuses_buffers() {
        let mut sw = Switch::new(counting_program());
        let mut pkt = sw.new_packet();
        let mut out = Vec::new();
        sw.process_into(&wire(7, 0), &mut pkt, &mut out).unwrap();
        assert_eq!(out, wire(7, 99));
        // Second run reuses the same packet without stale state.
        sw.process_into(&wire(8, 5), &mut pkt, &mut out).unwrap();
        assert_eq!(out, wire(8, 5));
        assert_eq!(pkt.get("h.v"), 5);
        // A default packet is re-shaped on entry.
        let mut stale = Packet::default();
        sw.process_into(&wire(7, 0), &mut stale, &mut out).unwrap();
        assert_eq!(out, wire(7, 99));
    }

    /// Differential test: the compiled Fig. 4 kernel behaves identically on
    /// the IR interpreter and on the generated P4 running here.
    #[test]
    fn generated_p4_matches_ir_interpreter() {
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile("fig4.ncl", FIG4)
            .unwrap();
        let dev = &unit.devices[0];
        let mut sw = Switch::new(dev.tna_p4.clone());
        let module = &dev.tna_ir;
        let kernel = &module.kernels[0];
        let mut st = netcl_ir::interp::DeviceState::new(module);
        let mut env = netcl_ir::interp::ExecEnv { to: 1, ..Default::default() };

        for (op, k) in [(1u64, 2u64), (1, 99), (1, 2), (0, 3), (1, 99), (1, 4)] {
            // IR side.
            let mut args = vec![vec![op], vec![k], vec![0u64], vec![0u64], vec![0u64]];
            let r =
                netcl_ir::interp::execute(kernel, module, &mut st, &mut args, &mut env).unwrap();

            // P4 side: build the NetCL wire packet (Fig. 10 layout).
            let mut w = Vec::new();
            write_field(&mut w, 1, 16).unwrap(); // src
            write_field(&mut w, 2, 16).unwrap(); // dst
            write_field(&mut w, 1, 16).unwrap(); // from
            write_field(&mut w, 1, 16).unwrap(); // to (this device)
            write_field(&mut w, 1, 8).unwrap(); // comp
            write_field(&mut w, 0, 8).unwrap(); // action
            write_field(&mut w, 0, 16).unwrap(); // target
            write_field(&mut w, op, 8).unwrap(); // a0_op
            write_field(&mut w, k, 32).unwrap(); // a1_k
            write_field(&mut w, 0, 32).unwrap(); // a2_v
            write_field(&mut w, 0, 8).unwrap(); // a3_hit
            write_field(&mut w, 0, 32).unwrap(); // a4_hot
            let (pkt, _) = sw.process(&w).unwrap();

            assert_eq!(
                pkt.get("ncl.action"),
                r.action.code() as u64,
                "action diverges on op={op} k={k}"
            );
            assert_eq!(pkt.get("args_c1.a2_v"), args[2][0], "v diverges on k={k}");
            assert_eq!(pkt.get("args_c1.a3_hit"), args[3][0], "hit diverges on k={k}");
            assert_eq!(pkt.get("args_c1.a4_hot"), args[4][0], "hot diverges on k={k}");
        }
        // Register state agrees too (CMS partitions).
        for p in 0..3 {
            let name = format!("cms__{p}");
            let (mem, g) = module.global_by_name(&name).unwrap();
            for i in 0..g.element_count() {
                if st.read(mem, i) != 0 {
                    assert_eq!(
                        sw.register_read(&name, i),
                        Some(st.read(mem, i)),
                        "{name}[{i}] diverges"
                    );
                }
            }
        }
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

    // ---- batched execution (DESIGN.md §13) ------------------------------

    /// A mixed batch of hits, misses, and malformed packets: batched
    /// processing produces the same outputs, outcomes, counters, and
    /// register state as a scalar loop.
    #[test]
    fn process_batch_matches_scalar_loop() {
        let wires: Vec<Vec<u8>> =
            vec![wire(7, 0), wire(8, 5), vec![0x01], wire(7, 1), vec![], wire(3, 3)];

        let mut scalar = Switch::new(counting_program());
        scalar.set_timing(true);
        let mut pkt = scalar.new_packet();
        let mut out = Vec::new();
        let mut scalar_results = Vec::new();
        for w in &wires {
            let r = scalar.process_into(w, &mut pkt, &mut out);
            scalar_results.push((r, out.clone()));
        }

        let mut batched = Switch::new(counting_program());
        batched.set_timing(true);
        let mut batch = PacketBatch::new();
        for w in &wires {
            batch.push(w);
        }
        batched.process_batch(&mut batch);

        for (i, (r, o)) in scalar_results.iter().enumerate() {
            assert_eq!(batch.outcome(i), r, "outcome diverges at {i}");
            if r.is_ok() {
                assert_eq!(batch.output(i), o.as_slice(), "output diverges at {i}");
            }
        }
        assert_eq!(batched.counters(), scalar.counters(), "counters diverge");
        let br: Vec<_> = batched.registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect();
        let sr: Vec<_> = scalar.registers().map(|(n, c)| (n.to_string(), c.to_vec())).collect();
        assert_eq!(br, sr, "register state diverges");
        // One timing sample per attempted packet.
        assert_eq!(batched.timing().unwrap().count(), wires.len() as u64);
    }

    /// The interpreter oracle exposes the same batched entry point and
    /// agrees with the threaded engine batch-for-batch.
    #[test]
    fn process_batch_interpreter_oracle_agrees() {
        let wires = [wire(7, 0), vec![0xAB], wire(8, 1), wire(7, 2)];
        let mut fast = Switch::new(counting_program());
        let mut oracle = Switch::new(counting_program());
        oracle.set_engine(Engine::Interpreted);
        let (mut fb, mut ob) = (PacketBatch::new(), PacketBatch::new());
        for w in &wires {
            fb.push(w);
            ob.push(w);
        }
        fast.process_batch(&mut fb);
        oracle.process_batch(&mut ob);
        for i in 0..wires.len() {
            assert_eq!(fb.outcome(i), ob.outcome(i), "outcome diverges at {i}");
            assert_eq!(fb.output(i), ob.output(i), "output diverges at {i}");
        }
        assert_eq!(fast.counters(), oracle.counters(), "counters diverge");
    }

    /// Reusing one batch across calls keeps outputs and outcomes correct
    /// (buffer recycling must not leak stale bytes).
    #[test]
    fn batch_reuse_is_clean() {
        let mut sw = Switch::new(counting_program());
        let mut batch = PacketBatch::new();
        batch.push(&wire(7, 0));
        sw.process_batch(&mut batch);
        assert_eq!(batch.output(0), wire(7, 99));
        batch.clear();
        batch.push(&[0x01]);
        batch.push(&wire(8, 4));
        sw.process_batch(&mut batch);
        assert!(batch.outcome(0).is_err());
        assert_eq!(batch.output(1), wire(8, 4));
    }

    // ---- per-tenant accounting (DESIGN.md §17) --------------------------

    /// A hand-built merged two-tenant program. The header mimics the NCL
    /// shim: 8 bytes of preamble, then the comp byte at wire offset 8.
    /// Comp 1 is tenant 0's kernel (one reg action on `t0__A`); comp 2 is
    /// tenant 1's (two reg actions on `t1__B` plus a lookup MAT
    /// `lu_t1__kv`).
    fn tenant_program() -> P4Program {
        let comp_is = |v: u64| {
            Expr::Bin(
                P4BinOp::Eq,
                Box::new(Expr::field(&["hdr", "th", "comp"])),
                Box::new(Expr::val(v, 8)),
            )
        };
        let bump = |name: &str, register: &str| RegisterActionDef {
            name: name.into(),
            register: register.into(),
            op: AtomicOp { rmw: AtomicRmw::Add, cond: false, ret_new: true },
            cond: None,
            operands: vec![Expr::val(1, 32)],
        };
        let exec = |ra: &str| Stmt::ExecuteRegisterAction {
            dst: Some(Expr::field(&["meta", "cnt"])),
            ra: ra.into(),
            index: Expr::val(0, 32),
        };
        P4Program {
            name: "tenants".into(),
            target: Target::V1Model,
            headers: vec![HeaderDef {
                name: "th_t".into(),
                fields: vec![("pad".into(), 64), ("comp".into(), 8), ("k".into(), 8)],
                stack: 1,
            }],
            parser: Some(ParserDef {
                name: "P".into(),
                states: vec![ParserState {
                    name: "start".into(),
                    extracts: vec!["hdr.th".into()],
                    transition: Transition::Accept,
                }],
            }),
            controls: vec![ControlDef {
                name: "Ig".into(),
                locals: vec![("cnt".into(), 32)],
                registers: vec![
                    RegisterDef { name: "t0__A".into(), elem_bits: 32, size: 4 },
                    RegisterDef { name: "t1__B".into(), elem_bits: 32, size: 4 },
                ],
                register_actions: vec![bump("bump0", "t0__A"), bump("bump1", "t1__B")],
                hashes: vec![],
                actions: vec![ActionDef {
                    name: "setk".into(),
                    params: vec![("x".into(), 8)],
                    body: vec![Stmt::Assign(Expr::field(&["hdr", "th", "k"]), Expr::field(&["x"]))],
                }],
                tables: vec![TableDef {
                    name: "lu_t1__kv".into(),
                    keys: vec![(Expr::field(&["hdr", "th", "k"]), MatchKind::Exact)],
                    actions: vec!["setk".into()],
                    entries: vec![TableEntry {
                        keys: vec![EntryKey::Value(7)],
                        action: "setk".into(),
                        args: vec![42],
                    }],
                    default_action: "NoAction".into(),
                    size: 8,
                }],
                apply: vec![
                    Stmt::If { cond: comp_is(1), then: vec![exec("bump0")], els: vec![] },
                    Stmt::If {
                        cond: comp_is(2),
                        then: vec![
                            exec("bump1"),
                            exec("bump1"),
                            Stmt::ApplyTable("lu_t1__kv".into()),
                        ],
                        els: vec![],
                    },
                ],
            }],
        }
    }

    /// A 10-byte wire for [`tenant_program`]: 8 zero bytes, comp, k.
    fn twire(comp: u8, k: u8) -> Vec<u8> {
        let mut w = vec![0u8; 8];
        w.push(comp);
        w.push(k);
        w
    }

    /// Both engines attribute per-tenant packets, reg actions, and table
    /// stats identically; unmapped comps stay unattributed.
    #[test]
    fn tenant_counters_uniform_across_engines() {
        let run = |engine: Engine| {
            let mut sw = Switch::new(tenant_program());
            sw.set_engine(engine);
            sw.set_tenants(&[(1, 0), (2, 1)]);
            for w in [twire(1, 7), twire(2, 7), twire(2, 8), twire(3, 0)] {
                sw.process(&w).unwrap();
            }
            sw
        };
        let switches = [Engine::Interpreted, Engine::Threaded].map(run);
        for sw in &switches {
            let e = sw.engine().name();
            assert_eq!(
                sw.tenant_counters(0),
                TenantCounters { packets: 1, reg_action_execs: 1 },
                "tenant 0 on {e}"
            );
            assert_eq!(
                sw.tenant_counters(1),
                TenantCounters { packets: 2, reg_action_execs: 4 },
                "tenant 1 on {e}"
            );
            assert_eq!(sw.tenant_counters(9), TenantCounters::default());
            // comp 3 is unmapped: counted globally, attributed to no one.
            assert_eq!(sw.counters().packets, 4);
            assert_eq!(
                sw.counters().tenants.values().map(|t| t.packets).sum::<u64>(),
                3,
                "one packet outside every tenant on {e}"
            );
            // Only comp-2 packets reach `lu_t1__kv`: k=7 hits, k=8 misses.
            assert_eq!(sw.tenant_table_stats(1), (1, 1), "tenant 1 tables on {e}");
            assert_eq!(sw.tenant_table_stats(0), (0, 0));
        }
        // Per-tenant maps are inside `SwitchCounters`' differential contract.
        assert_eq!(switches[0].counters(), switches[1].counters());
    }

    /// The batch entry point credits tenants exactly like per-packet
    /// `process_into` calls, parse errors included, and `clear_tenants`
    /// stops attribution.
    #[test]
    fn tenant_counters_batch_matches_scalar() {
        // The 9-byte wire carries a readable comp byte but truncates the
        // header: its tenant is charged the packet and zero reg actions.
        let truncated = {
            let mut w = vec![0u8; 8];
            w.push(2);
            w
        };
        let wires = [twire(1, 7), twire(2, 7), truncated, twire(2, 8), twire(3, 1), vec![0x01]];

        let mut scalar = Switch::new(tenant_program());
        scalar.set_tenants(&[(1, 0), (2, 1)]);
        let mut pkt = scalar.new_packet();
        let mut out = Vec::new();
        for w in &wires {
            let _ = scalar.process_into(w, &mut pkt, &mut out);
        }

        let mut batched = Switch::new(tenant_program());
        batched.set_tenants(&[(1, 0), (2, 1)]);
        let mut batch = PacketBatch::new();
        for w in &wires {
            batch.push(w);
        }
        batched.process_batch(&mut batch);
        assert_eq!(batched.counters(), scalar.counters(), "batch diverges");

        assert_eq!(
            scalar.tenant_counters(1),
            TenantCounters { packets: 3, reg_action_execs: 4 },
            "truncated comp-2 packet charged, zero reg actions"
        );

        // Dropping tenancy stops attribution but not global counting.
        let before = scalar.tenant_counters(0);
        scalar.clear_tenants();
        scalar.process(&twire(1, 7)).unwrap();
        assert_eq!(scalar.tenant_counters(0), before);
        assert_eq!(scalar.counters().packets, wires.len() as u64 + 1);
    }
}
