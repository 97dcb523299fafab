//! The switch: one P4 program, its runtime state, and the packet entry
//! points. Counters live in `counters.rs`, the interpreter oracle in
//! `interp.rs`, register access and table updates in `ctrl.rs`, the loaded
//! program switches share in `loaded.rs`.
//!
//! Two execution engines share one runtime state (selected with
//! [`Switch::set_engine`]):
//!
//! * the **threaded** production path (default): the program lowered once
//!   per distinct program (`lower.rs`, `loaded.rs`) into direct-threaded
//!   closure arrays (`threaded.rs`) — no per-op `match`, pre-resolved
//!   slots, masks, and register/table handles (DESIGN.md §10);
//! * the **tree-walking interpreter** (`interp.rs`): re-evaluates the AST
//!   per packet; the differential oracle for the threaded engine.
//!
//! Invariants:
//! - Both engines count, mutate, and fail identically — the differential
//!   proptests and the chaos matrix hold them to byte-for-byte equal
//!   outputs, errors, [`SwitchCounters`], and register state.
//! - Every entry point ([`Switch::process_into`],
//!   [`Switch::process_batch`]) runs each packet through the same private
//!   per-packet routine, which holds the only engine dispatch.

use std::sync::Arc;

use crate::batch::PacketBatch;
use crate::counters::Tenancy;
pub use crate::counters::{SwitchCounters, TenantCounters};
use crate::layout::{FieldSlot, Layout};
use crate::loaded::Loaded;
use crate::packet::{Packet, PacketError};
use crate::threaded;
use netcl_p4::ast::{P4Program, TableEntry};

/// Which execution engine a [`Switch`] runs (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Tree-walking AST interpreter (the differential oracle).
    Interpreted,
    /// Direct-threaded closure arrays (the default; DESIGN.md §10).
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

/// Mutable per-switch state shared by both engines, plus the threaded
/// engine's reusable scratch buffers (all stack-disciplined so re-entrant
/// table/action execution never allocates in steady state).
pub(crate) struct RuntimeState {
    /// Register cells, by [`Layout`] register index.
    pub(crate) registers: Vec<Vec<u64>>,
    /// Table entries, by table-state index (shared by name).
    pub(crate) tables: Vec<Vec<TableEntry>>,
    pub(crate) rng: u64,
    /// Table key values for in-flight applies.
    pub(crate) keys: Vec<u64>,
    /// Action args / RA operands / extern arg values.
    pub(crate) scratch: Vec<u64>,
    /// Saved `(slot, value, present)` for action-parameter bindings.
    pub(crate) param_saves: Vec<(FieldSlot, u64, bool)>,
    /// Data-plane counters (lives here so the threaded engine's free
    /// functions can increment through `st`).
    pub(crate) counters: SwitchCounters,
}

impl RuntimeState {
    fn new(layout: &Layout) -> RuntimeState {
        RuntimeState {
            registers: layout.regs.iter().map(|r| vec![0u64; r.size]).collect(),
            tables: layout.table_states.iter().map(|t| t.entries.clone()).collect(),
            rng: 0x9E37_79B9_97F4_A7C1,
            keys: Vec::new(),
            scratch: Vec::new(),
            param_saves: Vec::new(),
            counters: SwitchCounters::new(layout),
        }
    }
}

/// A software switch instance executing one P4 program.
pub struct Switch {
    /// Shared with whoever built it (a `CompiledDevice`, every other switch
    /// loaded from it). Crate-visible so the interpreter (`interp.rs`) can
    /// walk it.
    pub(crate) program: Arc<P4Program>,
    /// `program`'s layout and threaded ops, shared with every switch loaded
    /// from the same parts (`loaded.rs`).
    pub(crate) loaded: Arc<Loaded>,
    /// `program.device`, stamped on every packet this switch runs: what
    /// the program's `Expr::Device` leaf reads. Held here so the packet
    /// loop does not reach into the program.
    device: u16,
    /// Crate-visible so [`crate::ctrl`] can bump the update counters.
    pub(crate) st: RuntimeState,
    /// Which engine `process` runs ([`Switch::set_engine`]).
    engine: Engine,
    /// Opt-in per-packet wall-time histogram ([`Switch::set_timing`]).
    timing: Option<netcl_obs::Histogram>,
    /// Per-tenant attribution config (`counters.rs`); `None` (the default)
    /// costs nothing on the packet path.
    pub(crate) tenancy: Option<Box<Tenancy>>,
}

impl Switch {
    /// Instantiates a switch for `program` with zeroed registers. Takes an
    /// owned `P4Program` or an `Arc<P4Program>`; the switch never modifies
    /// it. The program is lowered to direct-threaded form once per distinct
    /// program: a switch loaded from a program whose `headers`, `parser`
    /// and `controls` are the allocations another live switch was loaded
    /// from — the programs of one module placed at many devices — shares
    /// that switch's lowering and owns only its state and device.
    pub fn new(program: impl Into<Arc<P4Program>>) -> Switch {
        // Not generic, so the loader is compiled once, in this crate:
        // instantiated in each calling crate it moved the packet loop's
        // code and `switch_replay` measured 3 % slower.
        fn load(program: Arc<P4Program>) -> Switch {
            let loaded = Loaded::of(&program);
            let st = RuntimeState::new(&loaded.layout);
            Switch {
                device: program.device,
                program,
                loaded,
                st,
                engine: Engine::default(),
                timing: None,
                tenancy: None,
            }
        }
        load(program.into())
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

    /// The program this switch runs (clone the `Arc` to load another
    /// switch from it).
    pub fn program(&self) -> &Arc<P4Program> {
        &self.program
    }

    /// Whether this switch and `other` run one loaded program: they were
    /// loaded from programs whose parts are the same allocations while one
    /// of them was live (module docs of `loaded.rs`). They still share no
    /// state.
    pub fn shares_program(&self, other: &Switch) -> bool {
        Arc::ptr_eq(&self.loaded, &other.loaded)
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
        Packet::with_slots(Arc::clone(&self.loaded.layout.slots))
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
        pkt.ensure_slots(&self.loaded.layout.slots);
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
        pkt.set_device(self.device);
        let r = match self.engine {
            Engine::Interpreted => self.run_interp(wire, pkt, out),
            // Split borrows: the loaded program and the runtime state are
            // disjoint fields, so no per-packet `Arc` refcount traffic.
            Engine::Threaded => {
                let Switch { loaded, st, .. } = self;
                threaded::run_threaded(&loaded.threaded, wire, pkt, out, st)
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
        batch.prepare(&self.loaded.layout.slots);
        for i in 0..batch.len() {
            let (wire, pkt, out) = batch.slot_mut(i);
            let r = self.run_one(wire, pkt, out);
            batch.set_outcome(i, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::TableUpdate;
    use crate::packet::write_field;
    use netcl_p4::ast::*;
    use netcl_p4::parse::parse_program;

    /// The tiny program the tests run: parse one header, count packets in
    /// register `R` with `bump`, set a field from table `t`. `states` is
    /// the parser's body, `ras` declares more RegisterActions and `apply`
    /// is the apply block's body.
    fn counting_text(states: &str, ras: &str, apply: &str) -> String {
        format!(
            "#include <v1model.p4>
header h_t {{ bit<16> k; bit<16> v; }}
struct headers_t {{ h_t h; }}
parser P(packet_in pkt, out headers_t hdr) {{ {states} }}
control Ig(inout headers_t hdr, inout metadata_t meta) {{
    bit<32> cnt;
    Register<bit<32>, bit<32>>(8) R;
    RegisterAction<bit<32>, bit<32>, bit<32>>(R) bump = {{
        void apply(inout bit<32> m, out bit<32> o) {{ m = m + 32w1; o = m; }}
    }};
    {ras}
    action setv(bit<16> x) {{ hdr.h.v = x; }}
    table t {{
        key = {{ hdr.h.k : exact }}
        actions = {{ setv; }}
        const entries = {{ 7 : setv(99); }}
        size = 8;
    }}
    apply {{ {apply} }}
}}"
        )
    }

    /// `start` extracts `h` and accepts.
    const START: &str = "state start { pkt.extract(hdr.h); transition accept; }";
    /// Count the packet, then apply `t`.
    const APPLY: &str = "meta.cnt = bump.execute(32w0); t.apply();";

    /// The program `text` spells; a switch holds it as an `Arc`, so loading
    /// it twice copies nothing.
    fn program(text: &str) -> Arc<P4Program> {
        parse_program(text).map(Arc::new).unwrap_or_else(|e| panic!("{e}\n{text}"))
    }

    fn counting_program() -> Arc<P4Program> {
        program(&counting_text(START, "", APPLY))
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

    /// Every deferred failure the lowering can emit, against the oracle:
    /// not reached, both engines process the packet; reached, both raise
    /// the same text at the same moment — same counters, same registers.
    #[test]
    fn deferred_failures_match_the_interpreter() {
        // The statement under test runs only for k == 1, after a SALU
        // execution and in front of a move that must then not happen.
        let apply_with = |ras: &str, s: &str| {
            let apply =
                format!("bump.execute(32w0); if (hdr.h.k == 16w1) {{ {s} hdr.h.v = 16w9; }}");
            counting_text(START, ras, &apply)
        };
        let apply = |s: &str| apply_with("", s);
        // `start` extracts `h` and leaves for `target` when k == 1.
        let parser = |target: &str, detour: &str| {
            let states = format!(
                "state start {{ pkt.extract(hdr.h); transition select(hdr.h.k) {{ 1: {target}; default: accept; }} }} {detour}"
            );
            counting_text(&states, "", APPLY)
        };
        let orphan = apply_with(
            "RegisterAction<bit<32>, bit<32>, bit<32>>(Q) orphan = {
                void apply(inout bit<32> m, out bit<32> o) { m = m + 32w1; o = m; }
            };",
            "orphan.execute(32w0);",
        );
        let rows = [
            (apply("missing();"), "action `missing`"),
            (apply("nope.apply();"), "table `nope`"),
            (apply("if (nope.apply().hit) { }"), "table `nope`"),
            (apply("if (!nope.apply().hit) { }"), "table `nope`"),
            (apply("ghost.execute(32w0);"), "RegisterAction `ghost`"),
            (orphan, "register `Q`"),
            (apply("hdr.h.v = h0.get({});"), "hash `h0`"),
            (parser("detour", "state detour { transition nowhere; }"), "parser state `nowhere`"),
            (parser("nowhere", ""), "parser state `nowhere`"),
            (
                parser("detour", "state detour { pkt.extract(hdr.ghost); transition accept; }"),
                "header `ghost`",
            ),
            // Set valid without a `ghost_t` type: the deparser finds out.
            (apply("hdr.ghost.setValid();"), "header `ghost`"),
        ];
        for (source, text) in rows {
            let p = program(&source);
            let mut fast = Switch::new(p.clone());
            let mut oracle = Switch::new(p);
            oracle.set_engine(Engine::Interpreted);
            let (_, out) = fast.process(&wire(2, 0)).expect(text);
            assert_eq!(out, oracle.process(&wire(2, 0)).expect(text).1, "{text}: not reached");
            let ef = fast.process(&wire(1, 0)).unwrap_err();
            assert_eq!(ef, oracle.process(&wire(1, 0)).unwrap_err(), "{text}");
            assert_eq!(ef, SwitchError::Unknown(text.into()));
            assert_eq!(fast.counters(), oracle.counters(), "{text}: counters diverge");
            assert!(fast.registers().eq(oracle.registers()), "{text}: registers diverge");
        }
    }

    /// A hand-built AST can carry a slice the P4 parser refuses. It has no
    /// width to subtract: both engines read it as `(0, 1)`.
    #[test]
    fn ill_formed_slices_read_as_zero_on_both_engines() {
        for (hi, lo, v) in [(7, 3, 0x1F + 5), (3, 7, 5), (70, 65, 5)] {
            let k = Box::new(Expr::field(&["hdr", "h", "k"]));
            let sum = Expr::Bin(
                P4BinOp::Add,
                Box::new(Expr::Slice(k, hi, lo)),
                Box::new(Expr::val(5, 16)),
            );
            let mut p = P4Program::clone(&counting_program());
            Arc::make_mut(&mut p.controls)[0].apply =
                vec![Stmt::Assign(Expr::field(&["hdr", "h", "v"]), sum)];
            for engine in [Engine::Threaded, Engine::Interpreted] {
                let mut sw = Switch::new(p.clone());
                sw.set_engine(engine);
                let (_, out) = sw.process(&wire(0xFFFF, 0)).unwrap();
                assert_eq!(out, wire(0xFFFF, v), "[{hi}:{lo}] on {}", engine.name());
            }
        }
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
}
