//! The `ncc` compiler driver (paper Fig. 3, steps 1–2).
//!
//! Orchestrates the full pipeline — parse, semantic analysis, per-device
//! lowering, the §VI-B pass pipeline, and P4 code generation — and reports
//! per-phase timings (the `ncc` rows of Table IV).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netcl_ir::Module;
use netcl_lang::{ParsedUnit, Preprocessed};
use netcl_p4::ast::{P4Program, Target};
use netcl_passes::{PassFlags, PassReport, PipelineTarget};
use netcl_sema::model::placed_at;
use netcl_sema::{Analysis, Model};
use netcl_util::{DiagnosticSink, SourceMap};

use crate::cache::{self, CompileCache, ReuseStats};
use crate::codegen;
use crate::lower;

/// Which P4 dialects to emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum EmitTarget {
    /// Intel Tofino (TNA) only.
    Tna,
    /// v1model only.
    V1Model,
    /// Both (default) — the paper develops backends for both extremes.
    #[default]
    Both,
}

/// Compiler configuration.
#[derive(Clone, Debug, Default)]
pub struct CompileOptions {
    /// Emitted dialects.
    pub target: EmitTarget,
    /// Pass pipeline flags (§VI-B transformation toggles).
    pub flags: PassFlags,
    /// Devices to compile for, each once, in the order of first mention;
    /// defaults to every device mentioned in an `_at(...)` (or device 0 for
    /// location-less programs).
    pub devices: Option<Vec<u16>>,
    /// Collect per-pass telemetry (wall time, IR deltas, rewrite counts)
    /// into [`CompiledDevice::tna_pass_report`] / `v1_pass_report`
    /// (DESIGN.md §12; surfaced by `ncc --emit-pass-report`).
    pub pass_report: bool,
}

/// Per-phase wall-clock timings.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileTimings {
    /// Preprocess + lex + parse.
    pub frontend: Duration,
    /// Semantic analysis.
    pub sema: Duration,
    /// Lowering (once per group of devices placed alike, DESIGN.md §4).
    pub lower: Duration,
    /// Pass pipelines (each distinct device module, both targets).
    pub passes: Duration,
    /// P4 code generation (each distinct device module, both targets) and
    /// placing every device's programs.
    pub codegen: Duration,
}

impl CompileTimings {
    /// Total `ncc` time.
    pub fn total(&self) -> Duration {
        self.frontend + self.sema + self.lower + self.passes + self.codegen
    }
}

/// The output for one device.
///
/// The four artifacts are immutable and shared: cloning a device — which
/// is all a [`CompileCache`] program hit does — bumps four reference
/// counts. Take an owned copy with `P4Program::clone(&d.tna_p4)` (or
/// `Arc::make_mut`) when one is really needed; neither reaches the cache's
/// copy.
#[derive(Clone, Debug)]
pub struct CompiledDevice {
    /// The device this output runs on. The IR does not name it, and the P4
    /// programs hold it only in the fields `codegen::place` writes.
    /// Devices that run one program share their IR and every part of their
    /// P4 programs. When both dialects' stages leave equal modules, the two
    /// IR fields are one allocation and the two programs share every part.
    pub device: u16,
    /// Tofino-legal IR (post Tofino pipeline) — the allocator's input.
    pub tna_ir: Arc<Module>,
    /// v1model-legal IR (common pipeline only).
    pub v1_ir: Arc<Module>,
    /// Generated TNA P4.
    pub tna_p4: Arc<P4Program>,
    /// Generated v1model P4.
    pub v1_p4: Arc<P4Program>,
    /// Per-pass telemetry for the Tofino pipeline (when
    /// [`CompileOptions::pass_report`] is set).
    pub tna_pass_report: Option<PassReport>,
    /// Per-pass telemetry for the v1model pipeline.
    pub v1_pass_report: Option<PassReport>,
}

/// A fully compiled translation unit.
#[derive(Clone, Debug)]
pub struct CompiledUnit {
    /// The semantic model (kernel specifications for the host runtime),
    /// shared with the cache like the device artifacts.
    pub model: Arc<Model>,
    /// Per-device outputs.
    pub devices: Vec<CompiledDevice>,
    /// Phase timings. On a cache hit these are the *original* run's
    /// timings — wall-clock savings show up in the caller's clock, not
    /// here.
    pub timings: CompileTimings,
    /// Warnings (rendered).
    pub warnings: Vec<String>,
    /// What was not built afresh: devices placed from another device's
    /// program (on every compile) and what the incremental cache served.
    pub reuse: ReuseStats,
}

impl CompiledUnit {
    /// The output for a specific device id.
    pub fn device(&self, id: u16) -> Option<&CompiledDevice> {
        self.devices.iter().find(|d| d.device == id)
    }
}

/// Compilation failure: rendered diagnostics.
#[derive(Debug, Clone)]
pub struct CompileError {
    /// Human-readable diagnostics, one per line group.
    pub message: String,
    /// Machine-readable codes in order of emission.
    pub codes: Vec<String>,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CompileError {}

impl From<codegen::CodegenError> for CompileError {
    fn from(e: codegen::CodegenError) -> CompileError {
        CompileError { message: e.to_string(), codes: vec![e.code.to_string()] }
    }
}

/// The NetCL compiler.
pub struct Compiler {
    options: CompileOptions,
    /// [`cache::options_fingerprint`] of `options`, which never change.
    fingerprint: u64,
}

impl Compiler {
    /// Creates a compiler with the given options.
    pub fn new(options: CompileOptions) -> Compiler {
        let fingerprint = cache::options_fingerprint(&options);
        Compiler { options, fingerprint }
    }

    /// Compiles one NetCL-C translation unit (no caching).
    pub fn compile(&self, name: &str, source: &str) -> Result<CompiledUnit, CompileError> {
        self.compile_with(name, preprocessed(source), None, lowered)
    }

    /// Compiles one unit through the incremental cache (DESIGN.md §16):
    /// an unchanged unit is served whole — the cache's own `Arc`, one
    /// reference count. An edit that moves no token (a comment rewritten,
    /// blank lines or trailing spaces) is served the newest revision's
    /// artifacts once its preprocessed text is compared with theirs. Past
    /// that, a device whose lowered module equals one the cache holds a
    /// program for skips the pass pipeline and codegen. Served artifacts
    /// carry [`ReuseStats`] and `from_cache` pass reports.
    pub fn compile_incremental(
        &self,
        name: &str,
        source: &str,
        cache: &mut CompileCache,
    ) -> Result<Arc<CompiledUnit>, CompileError> {
        if let Some(unit) = cache.unit(self.fingerprint, name, source) {
            return Ok(unit);
        }
        let pre = preprocessed(source);
        if let Some(unit) = cache.same_tokens(self.fingerprint, name, source, &pre.0) {
            return Ok(unit);
        }
        let unit = self.compile_with(name, pre, Some(cache), lowered)?;
        cache.put_unit(self.fingerprint, name, source, unit.clone());
        Ok(Arc::new(unit))
    }

    /// The single compile path below the unit map, from the preprocessed
    /// source and the time preprocessing took: `cache = None` is a cold
    /// compile. It probes the program table, groups devices by placement
    /// and orders the three phases below; it holds no phase. `lower` is
    /// [`lowered`] but in the tests that count lowerings or hand the
    /// compile a module the verifier rejects.
    fn compile_with(
        &self,
        name: &str,
        pre: (Preprocessed, Duration),
        mut cache: Option<&mut CompileCache>,
        lower: Lowering,
    ) -> Result<CompiledUnit, CompileError> {
        let mut fe = frontend_of(name, pre)?;
        let devices = match &self.options.devices {
            Some(list) => {
                let mut seen = HashSet::with_capacity(list.len());
                list.iter().copied().filter(|&d| seen.insert(d)).collect()
            }
            None => fe.analysis.model.mentioned_devices(),
        };

        let mut out_devices: Vec<CompiledDevice> = Vec::with_capacity(devices.len());
        let mut reuse = ReuseStats { devices_total: devices.len(), ..Default::default() };
        // Devices placed alike run one program unless the lowering reads
        // `device.id`. The first of them is lowered and verified — and keyed
        // and probed, when there is a cache — and builds the program or is
        // served it; each later one is only placed from it. `groups` holds
        // each such first device and its index in `out_devices` while a later
        // device may still join it; a single-device unit keeps none.
        let mut groups: Vec<(u16, usize)> = Vec::new();
        for (i, &dev) in devices.iter().enumerate() {
            let model = &fe.analysis.model;
            if let Some(&(_, first)) = groups.iter().find(|&&(f, _)| placed_alike(model, f, dev)) {
                let d = placed(&out_devices[first], dev, self.options.target, &mut fe.timings);
                out_devices.push(d);
                reuse.devices_reused += 1;
                continue;
            }
            let (base, read_device) = lower(&mut fe, dev)?;
            verified(&base, "lowered")?;
            if !read_device && i + 1 < devices.len() {
                groups.push((dev, out_devices.len()));
            }
            let key = cache.is_some().then(|| cache::program_key(self.fingerprint, &base));
            if let Some(program) = cache.as_deref_mut().zip(key).and_then(|(c, key)| c.program(key))
            {
                out_devices.push(placed(program, dev, self.options.target, &mut fe.timings));
                reuse.devices_reused += 1;
                continue;
            }

            let (diags, map) = (&mut fe.diags, &fe.unit.source_map);
            let compiled = build_device(base, dev, &self.options, diags, map, &mut fe.timings)?;
            if let (Some(c), Some(key)) = (cache.as_deref_mut(), key) {
                c.put_program(key, compiled.clone());
            }
            out_devices.push(compiled);
        }

        let warnings = fe
            .diags
            .diagnostics()
            .iter()
            .filter(|d| d.severity == netcl_util::Severity::Warning)
            .map(|d| d.render(&fe.unit.source_map))
            .collect();
        Ok(CompiledUnit {
            model: Arc::new(fe.analysis.model),
            devices: out_devices,
            timings: fe.timings,
            warnings,
            reuse,
        })
    }
}

/// Whether devices `a` and `b` are placed alike: each kernel and each
/// global at both or at neither. Their lowerings then differ at most in the
/// constants `device.id` lowers to.
fn placed_alike(model: &Model, a: u16, b: u16) -> bool {
    let alike = |locations| placed_at(locations, a) == placed_at(locations, b);
    model.kernels.iter().all(|k| alike(&k.locations))
        && model.globals.iter().all(|g| alike(&g.locations))
}

/// A device that runs `program`, placed at `device`: the IR shared, the
/// pass reports marked `from_cache`, and — when `program` was built for
/// another device — each emitted program re-placed by [`codegen::place`],
/// a new name and device over the same parts. The time counts as codegen.
fn placed(
    program: &CompiledDevice,
    device: u16,
    target: EmitTarget,
    timings: &mut CompileTimings,
) -> CompiledDevice {
    let t0 = Instant::now();
    let mut d = program.clone();
    if d.device != device {
        d.device = device;
        let unit = &d.tna_ir.name;
        if target != EmitTarget::V1Model {
            codegen::place(Arc::make_mut(&mut d.tna_p4), unit, device);
        }
        if target != EmitTarget::Tna {
            codegen::place(Arc::make_mut(&mut d.v1_p4), unit, device);
        }
    }
    cache::mark_served(&mut d);
    timings.codegen += t0.elapsed();
    d
}

/// What [`frontend`] leaves for the per-device phases: the parsed unit (and
/// its source map), the analysis, every diagnostic so far and the clock.
pub(crate) struct Frontend {
    pub(crate) unit: ParsedUnit,
    pub(crate) analysis: Analysis,
    pub(crate) diags: DiagnosticSink,
    pub timings: CompileTimings,
}

/// `source` preprocessed, and the time that took.
fn preprocessed(source: &str) -> (Preprocessed, Duration) {
    let t0 = Instant::now();
    let pre = netcl_lang::preprocess(source);
    (pre, t0.elapsed())
}

/// Phase 1, once per unit: parse and semantic analysis.
pub(crate) fn frontend(name: &str, source: &str) -> Result<Frontend, CompileError> {
    frontend_of(name, preprocessed(source))
}

/// [`frontend`] from the preprocessed source and its time.
fn frontend_of(
    name: &str,
    (pre, took): (Preprocessed, Duration),
) -> Result<Frontend, CompileError> {
    let mut timings = CompileTimings::default();

    let t0 = Instant::now();
    let (unit, mut diags) = netcl_lang::parse_preprocessed(name, pre);
    timings.frontend = took + t0.elapsed();
    check(&diags, &unit.source_map)?;

    let t0 = Instant::now();
    let (analysis, sema_diags) = netcl_sema::analyze(&unit);
    timings.sema = t0.elapsed();
    diags.absorb(sema_diags);
    check(&diags, &unit.source_map)?;
    Ok(Frontend { unit, analysis, diags, timings })
}

/// [`lowered`] or, in tests, a stand-in for it.
type Lowering = fn(&mut Frontend, u16) -> Result<(Module, bool), CompileError>;

/// Phase 2, once per group of devices placed alike: the base module and
/// whether its lowering read `dev` (`device.id`). The caller verifies it.
pub(crate) fn lowered(fe: &mut Frontend, dev: u16) -> Result<(Module, bool), CompileError> {
    let t0 = Instant::now();
    let lowered = lower::lower_reporting(&fe.unit, &fe.analysis, dev, &mut fe.diags);
    fe.timings.lower += t0.elapsed();
    check(&fe.diags, &fe.unit.source_map)?;
    Ok(lowered)
}

/// A module a driver built itself (`what`: "lowered", "merged") must
/// verify before the passes see it; a failure is a compiler bug.
pub(crate) fn verified(module: &Module, what: &str) -> Result<(), CompileError> {
    netcl_ir::verify::verify_module(module).map_err(|errs| {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        CompileError {
            message: format!("internal: {what} IR fails verification:\n{}", msgs.join("\n")),
            codes: vec!["E0399".into()],
        }
    })
}

/// Phase 3, once per distinct module of a unit that the caches do not hold
/// — and per merged or solo tenant module (`tenant.rs`): the §VI-B pipeline
/// and P4 codegen, placed at `device`, for every emitted dialect. Pipeline
/// rejections land in `diags` and render against `map`; `timings` gains
/// the passes and codegen time.
pub(crate) fn build_device(
    base: Module,
    device: u16,
    options: &CompileOptions,
    diags: &mut DiagnosticSink,
    map: &SourceMap,
    timings: &mut CompileTimings,
) -> Result<CompiledDevice, CompileError> {
    let want_tna = options.target != EmitTarget::V1Model;
    let want_v1 = options.target != EmitTarget::Tna;

    let t0 = Instant::now();
    // A dialect that is not emitted keeps the lowered module as is.
    let mut unprocessed = (!(want_tna && want_v1)).then(|| base.clone());
    // The common stage reads neither the target nor the flags, so it runs
    // once; each dialect continues from a copy of its result, and of its
    // report entries (DESIGN.md §4, §12).
    let mut shared = base;
    let mut common_report = options.pass_report.then(|| PassReport::begin("common", &shared));
    netcl_passes::run_common_stage(&mut shared, diags, common_report.as_mut())
        .map_err(|()| render(diags, map))?;
    type Dialect = (Module, Option<PassReport>);
    let mut dialect = |ir: Option<Module>, target| -> Result<Dialect, CompileError> {
        let Some(mut ir) = ir else {
            return Ok((unprocessed.take().expect("kept when a dialect is off"), None));
        };
        let mut report = common_report.clone();
        netcl_passes::run_target_stage(&mut ir, target, &options.flags, diags, report.as_mut())
            .map_err(|()| render(diags, map))?;
        if let Some(report) = &mut report {
            report.finish(&ir);
        }
        Ok((ir, report))
    };
    let (tna_ir, tna_pass_report) =
        dialect(want_tna.then(|| shared.clone()), PipelineTarget::Tofino)?;
    let (v1_ir, v1_pass_report) = dialect(want_v1.then_some(shared), PipelineTarget::V1Model)?;
    // Codegen reads the target only to name the dialect, so when both
    // dialects leave their stages equal, one module and one generated
    // program serve both (DESIGN.md §16).
    let one_artifact = want_tna && want_v1 && tna_ir == v1_ir;
    timings.passes += t0.elapsed();

    let t0 = Instant::now();
    let p4 = |want: bool, ir: &Module, target: Target| -> Result<P4Program, CompileError> {
        Ok(if want { codegen::generate_at(ir, target, device)? } else { P4Program::default() })
    };
    let tna_p4 = p4(want_tna, &tna_ir, Target::Tna)?;
    let v1_p4 = if one_artifact {
        P4Program { target: Target::V1Model, ..tna_p4.clone() }
    } else {
        p4(want_v1, &v1_ir, Target::V1Model)?
    };
    timings.codegen += t0.elapsed();

    let tna_ir = Arc::new(tna_ir);
    let v1_ir = if one_artifact { Arc::clone(&tna_ir) } else { Arc::new(v1_ir) };
    Ok(CompiledDevice {
        device,
        tna_ir,
        v1_ir,
        tna_p4: Arc::new(tna_p4),
        v1_p4: Arc::new(v1_p4),
        tna_pass_report,
        v1_pass_report,
    })
}

fn check(diags: &DiagnosticSink, map: &SourceMap) -> Result<(), CompileError> {
    if diags.has_errors() {
        Err(render(diags, map))
    } else {
        Ok(())
    }
}

/// The one renderer: everything in `diags`.
fn render(diags: &DiagnosticSink, map: &SourceMap) -> CompileError {
    CompileError {
        message: diags.render_all(map),
        codes: diags.diagnostics().iter().map(|d| d.code.to_string()).collect(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use netcl_ir::interp::{execute, DeviceState, ExecEnv};
    use netcl_p4::Parts;
    use netcl_sema::builtins::ActionKind;
    use netcl_sema::Ty;
    use std::cell::Cell;

    pub(crate) const FIG4_CACHE: &str = r#"
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

_net_ _lookup_ ncl::kv<unsigned, unsigned> cache[] = {{1,42}, {2,42},
                                                      {3,42}, {4,42}};

_kernel(1) _at(1) void query(char op, unsigned k, unsigned &v,
                             char &hit, unsigned &hot) {
  if (op == GET_REQ) {
    hit = ncl::lookup(cache, k, v);
    return hit ? ncl::reflect() : sketch(k, hot);
  }
}
"#;

    #[test]
    fn compiles_figure4_cache() {
        let unit = Compiler::new(CompileOptions::default())
            .compile("fig4.ncl", FIG4_CACHE)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(unit.devices.len(), 1);
        let dev = &unit.devices[0];
        assert_eq!(dev.device, 1);
        // TNA P4 carries the cache MAT and three CMS registers (partitioned).
        let ig = dev.tna_p4.control("Ig").unwrap();
        assert!(ig.tables.iter().any(|t| t.name.starts_with("lu_cache")), "cache MAT missing");
        let cms_regs = ig.registers.iter().filter(|r| r.name.starts_with("cms__")).count();
        assert_eq!(cms_regs, 3, "partitioning should split cms into 3 registers");
        assert_eq!(ig.register_actions.len(), 3);
        assert!(ig.register_actions.iter().all(|ra| ra.op.name() == "atomic_sadd_new"));
        // Hash engines for xor16/crc32<16>/crc16.
        assert_eq!(ig.hashes.len(), 3);
        // v1model P4 also generated.
        assert!(!dev.v1_p4.controls.is_empty());
    }

    /// Execute the compiled cache kernel on the IR interpreter:
    /// hit → reflect + value written; miss → pass + CMS counted.
    #[test]
    fn figure4_semantics_hit_and_miss() {
        let unit =
            Compiler::new(CompileOptions::default()).compile("fig4.ncl", FIG4_CACHE).unwrap();
        let dev = &unit.devices[0];
        let module = &dev.tna_ir;
        let kernel = &module.kernels[0];
        let mut st = DeviceState::new(module);
        let mut env = ExecEnv::default();

        // args: op, k, v, hit, hot
        let mut args = vec![vec![1u64], vec![2u64], vec![0u64], vec![0u64], vec![0u64]];
        let r = execute(kernel, module, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(r.action, ActionKind::Reflect);
        assert_eq!(args[2][0], 42, "cache value written to v");
        assert_eq!(args[3][0], 1, "hit flag set");

        // Miss: key 99 → pass, sketch counts it (hot still 0 below THRESH).
        let mut args = vec![vec![1u64], vec![99u64], vec![0u64], vec![0u64], vec![0u64]];
        let r = execute(kernel, module, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(r.action, ActionKind::Pass);
        assert_eq!(args[3][0], 0);
        // One CMS row counted once in each of the three partitions.
        let total: u64 = (0..3)
            .map(|p| {
                let (mem, g) =
                    module.global_by_name(&format!("cms__{p}")).expect("partitioned cms");
                (0..g.element_count()).map(|i| st.read(mem, i)).sum::<u64>()
            })
            .sum();
        assert_eq!(total, 3, "each hash partition counted the miss once");

        // Non-GET op: implicit pass, nothing written.
        let mut args = vec![vec![0u64], vec![1u64], vec![0u64], vec![0u64], vec![0u64]];
        let r = execute(kernel, module, &mut st, &mut args, &mut env).unwrap();
        assert_eq!(r.action, ActionKind::Pass);
        assert_eq!(args[2][0], 0);
    }

    /// Hot detection: drive the same key past THRESH misses.
    #[test]
    fn figure4_hot_key_detection() {
        let unit =
            Compiler::new(CompileOptions::default()).compile("fig4.ncl", FIG4_CACHE).unwrap();
        let dev = &unit.devices[0];
        let module = &dev.tna_ir;
        let kernel = &module.kernels[0];
        let mut st = DeviceState::new(module);
        let mut env = ExecEnv::default();
        let mut last_hot = 0u64;
        for _ in 0..520 {
            let mut args = vec![vec![1u64], vec![77u64], vec![0u64], vec![0u64], vec![0u64]];
            execute(kernel, module, &mut st, &mut args, &mut env).unwrap();
            last_hot = args[4][0];
        }
        assert!(last_hot > 512, "key should be reported hot after 520 misses, got {last_hot}");
    }

    #[test]
    fn unrollable_loop_limits() {
        let src = r#"
_net_ unsigned Acc[8];
_kernel(1) void k(unsigned x) {
  for (auto i = 0; i < x; ++i)
    ncl::atomic_add(&Acc[0], 1);
}
"#;
        let err = Compiler::new(CompileOptions::default()).compile("t.ncl", src).unwrap_err();
        assert!(err.codes.iter().any(|c| c == "E0306"), "{err}");
    }

    /// The unroller evaluates with sema's constant evaluator: a bound may
    /// be a `sizeof`, and comparisons are signed (C `int`), so a count-down
    /// loop stops below zero. Each loop runs exactly four times.
    #[test]
    fn loops_unroll_over_sizeof_bounds_and_signed_conditions() {
        for header in ["for (int i = 0; i < sizeof(uint32_t); i++)", "for (int i = 3; i >= 0; i--)"]
        {
            let src =
                format!("_kernel(1) void k(unsigned _spec(8) *o) {{\n  {header} o[i] = i + 1;\n}}");
            assert_eq!(run(&src, &[vec![0; 8]])[0], [1, 2, 3, 4, 0, 0, 0, 0], "{header}");
        }
    }

    /// Compiles `src` and runs its kernel on the IR interpreter, over each
    /// dialect's IR; both must agree. Returns the arguments after the run.
    fn run(src: &str, args: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let unit = Compiler::new(CompileOptions::default())
            .compile("t.ncl", src)
            .unwrap_or_else(|e| panic!("{src}\n{e}"));
        let d = &unit.devices[0];
        let [tna, v1] = [&d.tna_ir, &d.v1_ir].map(|module| {
            let mut args = args.to_vec();
            let (mut st, mut env) = (DeviceState::new(module), ExecEnv::default());
            execute(&module.kernels[0], module, &mut st, &mut args, &mut env)
                .unwrap_or_else(|e| panic!("{src}\n{e:?}"));
            args
        });
        assert_eq!(tna, v1, "{src}");
        tna
    }

    /// A multi-dimensional local is one slot of every element, indexed
    /// row-major: `a[1][1]` and `a[0][1]` are different elements, and
    /// `a[0][2]` is in bounds.
    #[test]
    fn multi_dimensional_locals_index_row_major() {
        for (body, want) in [
            ("unsigned a[2][3]; a[0][1] = 3; a[1][1] = 5; o = a[0][1];", 3),
            ("unsigned a[2][3]; a[0][2] = 7; a[1][0] = 8; o = a[0][2];", 7),
            ("unsigned b[2][3][4]; b[1][2][3] = 9; b[0][0][3] = 1; o = b[1][2][3] * 10 + b[0][0][3];", 91),
        ] {
            let src = format!("_kernel(1) void k(unsigned &o) {{ {body} }}");
            assert_eq!(run(&src, &[vec![0]])[0], [want], "{body}");
        }
        let src = "_kernel(1) void k(unsigned r, unsigned c, unsigned &o) {
                     unsigned a[2][3] = {0, 1, 2, 10, 11, 12};
                     o = a[r][c];
                   }";
        for (r, c) in (0..2).flat_map(|r| (0..3).map(move |c| (r, c))) {
            assert_eq!(run(src, &[vec![r], vec![c], vec![0]])[2], [r * 10 + c], "a[{r}][{c}]");
        }
    }

    /// A local, a by-value and a by-reference `_net_` parameter named like
    /// a global are not the global; the global itself still is.
    #[test]
    fn names_that_shadow_a_global_are_not_the_global() {
        let src = "_net_ unsigned g[4];
                   _net_ unsigned twice(unsigned g) { return g + g; }
                   _net_ void bump(unsigned &g) { g = g + 1; }
                   _kernel(1) void k(unsigned x, unsigned &o, unsigned &p, unsigned &q) {
                     bump(q);
                     o = twice(x) + ncl::atomic_add_new(&g[2], 1);
                     { unsigned g = x + 3; p = g; }
                   }";
        assert_eq!(run(src, &[vec![20], vec![0], vec![0], vec![7]]), [[20], [41], [23], [8]]);
    }

    /// Casts and `sizeof` take their type from sema at every integer width:
    /// `(T)x` wraps (and sign-extends into the `uint64_t` output when `T`
    /// is signed), `sizeof(T)` is its width in bytes.
    #[test]
    fn casts_and_sizeof_at_every_integer_width() {
        let x = 0x8765_4321_FEDC_BA98u64;
        for bits in [8u8, 16, 32, 64] {
            for signed in [false, true] {
                let ty = Ty::Int { bits, signed };
                let src = format!(
                    "_kernel(1) void k(uint64_t x, uint64_t _spec(2) *o) {{ o[0] = ({ty})x; o[1] = sizeof({ty}); }}"
                );
                let out = run(&src, &[vec![x], vec![0, 0]]);
                assert_eq!(out[1], [ty.wrap(x), bits as u64 / 8], "{ty}");
            }
        }
    }

    #[test]
    fn while_rejected() {
        let src = "_kernel(1) void k(unsigned &x) { while (x > 0) { x = x - 1; } }";
        let err = Compiler::new(CompileOptions::default()).compile("t.ncl", src).unwrap_err();
        assert!(err.codes.iter().any(|c| c == "E0306"), "{err}");
    }

    #[test]
    fn same_path_double_access_rejected_for_tofino_only() {
        let src = r#"
_net_ int m[42];
_kernel(2) void a(int x, int &o) { o = m[0] + m[1]; }
"#;
        // Tofino target rejects (§V-D)...
        let err = Compiler::new(CompileOptions { target: EmitTarget::Tna, ..Default::default() })
            .compile("t.ncl", src)
            .unwrap_err();
        assert!(err.codes.iter().any(|c| c == "E0302"), "{err}");
        // ...while the v1model software switch accepts.
        let ok =
            Compiler::new(CompileOptions { target: EmitTarget::V1Model, ..Default::default() })
                .compile("t.ncl", src);
        assert!(ok.is_ok(), "{:?}", ok.err().map(|e| e.message));
    }

    #[test]
    fn multi_device_compilation() {
        let src = r#"
_net_ _at(1,2) int m[42];
_kernel(1) _at(1,2) void a(int x, int &o) {
  if (device.id == 1) { o = ncl::atomic_add(&m[0], x); }
  else { o = ncl::atomic_add(&m[1], x); }
}
"#;
        let unit = Compiler::new(CompileOptions::default()).compile("t.ncl", src).unwrap();
        assert_eq!(unit.devices.len(), 2);
        // device.id materialization folds each device's branch away: each
        // module's kernel has exactly one atomic.
        for d in &unit.devices {
            let atomics: usize = d.tna_ir.kernels[0]
                .blocks
                .iter()
                .map(|b| {
                    b.insts
                        .iter()
                        .filter(|i| matches!(i.kind, netcl_ir::InstKind::AtomicRmw { .. }))
                        .count()
                })
                .sum();
            assert_eq!(atomics, 1, "device {} kept both branches", d.device);
        }
    }

    #[test]
    fn timings_populated() {
        let unit =
            Compiler::new(CompileOptions::default()).compile("fig4.ncl", FIG4_CACHE).unwrap();
        assert!(unit.timings.total() > Duration::ZERO);
    }

    /// The CALC application (`netcl_apps::calc`), placed by [`at`].
    const CALC: &str = r#"
_kernel(1) _at(DEVICES) void calc(char op, unsigned a, unsigned b, unsigned &result) {
  if (op == '+') result = a + b;
  if (op == '-') result = a - b;
  if (op == '&') result = a & b;
  if (op == '|') result = a | b;
  if (op == '^') result = a ^ b;
  return ncl::reflect();
}
"#;

    /// A P4xos acceptor's shape: its vote bit is its `device.id`.
    const ACCEPTOR: &str = r#"
_at(2, 3, 4) _net_ uint16_t Round[64];
_kernel(1) _at(2, 3, 4) void acceptor(uint8_t &type, uint32_t &instance, uint16_t round,
                                      uint8_t &vote) {
  if (type == 2) {
    uint16_t r = ncl::atomic_max_new(&Round[instance & 63], round);
    if (round >= r) {
      type = 3;
      vote = 1 << (device.id - 2);
      return ncl::send_to_device(5);
    }
    return ncl::drop();
  }
}
"#;

    /// A P4xos learner's shape (PLRN): the acceptors' memory is placed at
    /// devices 2–4 beside the learner, whose kernel runs at 5 alone, so 2–4
    /// lower to equal kernel-free modules.
    const LEARNER: &str = r#"
_at(5) _net_ uint8_t VoteHistory[64];
_at(2, 3, 4, 5) _net_ uint16_t Round[64];
_kernel(1) _at(5) void learner(uint8_t &type, uint32_t &instance, uint16_t round,
                               uint8_t &vote) {
  if (type == 3) {
    uint16_t r = ncl::atomic_max_new(&Round[instance & 63], round);
    if (round >= r) {
      uint8_t seen = ncl::atomic_or(&VoteHistory[instance & 63], vote);
      if (seen != 0) return ncl::drop();
      type = 4;
    }
  }
}
"#;

    /// `src` with `DEVICES` replaced by `ids`.
    fn at(src: &str, ids: impl IntoIterator<Item = u16>) -> String {
        let ids: Vec<String> = ids.into_iter().map(|d| d.to_string()).collect();
        src.replace("DEVICES", &ids.join(", "))
    }

    /// `(device, TNA P4, v1model P4)`, printed, per device.
    type Printed = Vec<(u16, String, String)>;

    fn printed(unit: &CompiledUnit) -> Printed {
        let print = |p: &P4Program| netcl_p4::print::print_program(p);
        unit.devices.iter().map(|d| (d.device, print(&d.tna_p4), print(&d.v1_p4))).collect()
    }

    /// The oracle: every device of `src` built on its own — lowered for it,
    /// through the pipeline and generated at its id — with nothing shared.
    fn built_alone(src: &str) -> Printed {
        let mut fe = frontend("t.ncl", src).unwrap_or_else(|e| panic!("{e}"));
        let print = |p: &P4Program| netcl_p4::print::print_program(p);
        let devices = fe.analysis.model.mentioned_devices();
        devices
            .into_iter()
            .map(|dev| {
                let (base, _) = lowered(&mut fe, dev).unwrap_or_else(|e| panic!("{e}"));
                verified(&base, "lowered").unwrap_or_else(|e| panic!("{e}"));
                let (options, map) = (CompileOptions::default(), &fe.unit.source_map);
                let d = build_device(base, dev, &options, &mut fe.diags, map, &mut fe.timings)
                    .unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(d.tna_p4.name, format!("t.ncl_dev{dev}"));
                (dev, print(&d.tna_p4), print(&d.v1_p4))
            })
            .collect()
    }

    fn compile(src: &str) -> CompiledUnit {
        Compiler::new(CompileOptions::default())
            .compile("t.ncl", src)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// How many devices ran the pass pipeline and codegen: on a cold
    /// compile, those not placed from another device's program.
    fn pipeline_runs(unit: &CompiledUnit) -> usize {
        unit.reuse.devices_total - unit.reuse.devices_reused
    }

    /// Whether devices `a` and `b` of `unit` share their IR.
    fn share_ir(unit: &CompiledUnit, a: u16, b: u16) -> bool {
        let (a, b) = (unit.device(a).unwrap(), unit.device(b).unwrap());
        Arc::ptr_eq(&a.tna_ir, &b.tna_ir) && Arc::ptr_eq(&a.v1_ir, &b.v1_ir)
    }

    #[test]
    fn calc_at_sixteen_devices_runs_one_pipeline() {
        let src = at(CALC, 1..=16);
        let unit = compile(&src);
        assert_eq!(unit.devices.len(), 16);
        assert_eq!(pipeline_runs(&unit), 1);
        assert_eq!(unit.reuse.devices_reused, 15);
        assert!((2..=16).all(|d| share_ir(&unit, 1, d)));
        // Placed devices replay the first device's reports, marked.
        let opts = CompileOptions { pass_report: true, ..Default::default() };
        let reported = Compiler::new(opts).compile("t.ncl", &src).unwrap();
        let cached: Vec<bool> = reported
            .devices
            .iter()
            .map(|d| d.tna_pass_report.as_ref().unwrap().from_cache)
            .collect();
        assert_eq!(cached, [[false].as_slice(), &[true; 15]].concat());
        assert_eq!(printed(&unit), built_alone(&src));
    }

    /// Placing writes a name and a device and copies no part: every placed
    /// device's programs share their parts with the first device's, and a
    /// program placed twice still shares them with its source.
    #[test]
    fn placing_shares_every_part() {
        let share_parts = |a: &P4Program, b| Parts::of(a).are(b);
        let unit = compile(&at(CALC, 1..=4));
        let first = &unit.devices[0];
        for d in &unit.devices {
            assert!(share_parts(&d.tna_p4, &first.tna_p4) && share_parts(&d.v1_p4, &first.v1_p4));
            assert_eq!((d.tna_p4.device, d.v1_p4.device), (d.device, d.device));
        }
        let mut twice = P4Program::clone(&first.tna_p4);
        codegen::place(&mut twice, "u", 7);
        codegen::place(&mut twice, "u", 9);
        assert_eq!((twice.name.as_str(), twice.device), ("u_dev9", 9));
        assert!(share_parts(&twice, &first.tna_p4));
    }

    #[test]
    fn a_kernel_reading_device_id_runs_one_pipeline_per_device() {
        let src = "_kernel(1) _at(1, 2, 3) void k(unsigned x, unsigned &o) {
                     o = x * 4 + device.id;
                   }";
        let unit = compile(src);
        assert_eq!(pipeline_runs(&unit), 3);
        assert!(!share_ir(&unit, 1, 2) && !share_ir(&unit, 2, 3));
        assert_eq!(printed(&unit), built_alone(src));
    }

    #[test]
    fn p4xos_shares_kernel_free_devices_but_not_acceptors() {
        let acceptors = compile(ACCEPTOR);
        assert_eq!(pipeline_runs(&acceptors), 3);
        assert_eq!(printed(&acceptors), built_alone(ACCEPTOR));

        let learner = compile(LEARNER);
        assert_eq!(learner.devices.iter().map(|d| d.device).collect::<Vec<_>>(), [2, 3, 4, 5]);
        assert_eq!(pipeline_runs(&learner), 2);
        assert!(share_ir(&learner, 2, 3) && share_ir(&learner, 2, 4));
        assert!(!share_ir(&learner, 2, 5));
        assert_eq!(printed(&learner), built_alone(LEARNER));
    }

    /// The program table is probed once per group and its key names no
    /// device: a compile whose kernel-free devices start at 3 is served the
    /// program built at device 2, and must re-place it at 3.
    #[test]
    fn kernel_free_devices_keep_their_own_guard_through_the_cache() {
        let cc = Compiler::new(CompileOptions::default());
        let mut cache = CompileCache::new();
        let first = cc.compile_incremental("t.ncl", LEARNER, &mut cache).unwrap();
        assert_eq!(printed(&first), built_alone(LEARNER));
        let moved = LEARNER.replace("_at(2, 3, 4, 5)", "_at(3, 4, 5)");
        let second = cc.compile_incremental("t.ncl", &moved, &mut cache).unwrap();
        // Device 3 is served device 2's program, 4 is placed from 3, and
        // the learner's device 5 is a hit.
        assert_eq!((second.reuse.devices_total, second.reuse.devices_reused), (3, 3));
        let st = cache.stats();
        assert_eq!((st.device_hits, st.device_misses), (2, 2), "one lookup per group");
        assert_eq!(printed(&second), built_alone(&moved));
    }

    /// A kernel that reads `device.id` at three devices, and one that does
    /// not at four others: three groups of one and one of four.
    const MIXED: &str = "
        _kernel(1) _at(1, 2, 3) void k(unsigned x, unsigned &o) { o = x * 4 + device.id; }
        _kernel(2) _at(4, 5, 6, 7) void s(unsigned x, unsigned &o) { o = x + 1; }";

    /// A `_net_` helper that reads `device.id`, inlined into a kernel at
    /// three devices: only the lowering sees the read.
    const HELPER: &str = "
        _net_ unsigned plus_id(unsigned x) { return x * 4 + device.id; }
        _kernel(1) _at(1, 2, 3) void k(unsigned x, unsigned &o) { o = plus_id(x); }";

    /// One kernel at four devices, a global at two of them: the kernels
    /// are placed alike, the globals are not.
    const PARTIAL: &str = "
        _at(1, 2) _net_ unsigned G[4];
        _kernel(1) _at(1, 2, 3, 4) void k(unsigned x, unsigned &o) { o = x + 1; }";

    /// The grouping oracle: whatever group a device falls in, it gets the
    /// IR and the printed programs of a compile restricted to it. The last
    /// case lists device 9, which no `_at` mentions: it gets the kernel-free
    /// module alone.
    #[test]
    fn every_device_equals_a_compile_restricted_to_it() {
        for (src, devices, want, runs) in [
            (MIXED, None, vec![1, 2, 3, 4, 5, 6, 7], 4),
            (HELPER, None, vec![1, 2, 3], 3),
            (PARTIAL, None, vec![1, 2, 3, 4], 2),
            (MIXED, Some(vec![4, 9, 1, 5]), vec![4, 9, 1, 5], 3),
        ] {
            let opts = CompileOptions { devices, ..Default::default() };
            let unit = Compiler::new(opts).compile("t.ncl", src).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(unit.devices.iter().map(|d| d.device).collect::<Vec<_>>(), want, "{src}");
            assert_eq!(pipeline_runs(&unit), runs, "{src}");
            for (d, printed) in unit.devices.iter().zip(printed(&unit)) {
                let opts = CompileOptions { devices: Some(vec![d.device]), ..Default::default() };
                let alone = Compiler::new(opts).compile("t.ncl", src).unwrap();
                let a = &alone.devices[0];
                assert_eq!((a.device, &a.tna_ir, &a.v1_ir), (d.device, &d.tna_ir, &d.v1_ir));
                assert_eq!(self::printed(&alone), [printed]);
            }
        }
        let unit = compile(MIXED);
        assert!((5..=7).all(|d| share_ir(&unit, 4, d)));
        let unit = compile(PARTIAL);
        assert!(share_ir(&unit, 1, 2) && share_ir(&unit, 3, 4) && !share_ir(&unit, 2, 3));
    }

    thread_local! {
        /// How many lowerings [`counted`] has run on this thread.
        static LOWERINGS: Cell<usize> = const { Cell::new(0) };
    }

    /// `lowered`, counted in [`LOWERINGS`].
    fn counted(fe: &mut Frontend, dev: u16) -> Result<(Module, bool), CompileError> {
        LOWERINGS.with(|n| n.set(n.get() + 1));
        lowered(fe, dev)
    }

    /// Devices placed alike are lowered once, unless the lowering reads
    /// `device.id`; a device joins a group before it is lowered.
    #[test]
    fn devices_placed_alike_are_lowered_once() {
        let cc = Compiler::new(CompileOptions::default());
        let calc = at(CALC, 1..=16);
        for (src, want) in [(calc.as_str(), 1), (MIXED, 4), (LEARNER, 2), (ACCEPTOR, 3)] {
            LOWERINGS.with(|n| n.set(0));
            cc.compile_with("t.ncl", preprocessed(src), None, counted)
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(LOWERINGS.with(Cell::get), want, "{src}");
        }
    }

    /// `lowered`, with device `D`'s entry block left without a terminator.
    fn unterminated_at<const D: u16>(
        fe: &mut Frontend,
        dev: u16,
    ) -> Result<(Module, bool), CompileError> {
        let (mut base, read_device) = lowered(fe, dev)?;
        if dev == D {
            let k = &mut base.kernels[0];
            let entry = k.entry;
            k.blocks[entry].term = netcl_ir::Terminator::Unterminated;
        }
        Ok((base, read_device))
    }

    /// Every lowered module is verified, whether its device is the unit's
    /// first, the first of a group placed alike, or a later device whose
    /// kernel reads `device.id` and is lowered on its own; cold or through
    /// a cache.
    #[test]
    fn a_lowered_module_the_verifier_rejects_reports_e0399() {
        let cc = Compiler::new(CompileOptions::default());
        let cases: [(Lowering, &str); 3] =
            [(unterminated_at::<1>, "k"), (unterminated_at::<4>, "s"), (unterminated_at::<2>, "k")];
        for (lower, kernel) in cases {
            for cache in [None, Some(&mut CompileCache::new())] {
                let err = cc.compile_with("t.ncl", preprocessed(MIXED), cache, lower).unwrap_err();
                // The lowered module's verification reports it, not the
                // passes' closing one.
                let want = format!("internal: lowered IR fails verification:\n{kernel}/bb0: block");
                assert_eq!(err.codes, ["E0399"], "{}", err.message);
                assert!(err.message.starts_with(&want), "{}", err.message);
            }
        }
    }

    /// A device listed twice is compiled once, where it is first listed.
    #[test]
    fn repeated_device_ids_compile_once() {
        let opts = CompileOptions { devices: Some(vec![2, 1, 2, 1, 2]), ..Default::default() };
        let unit = Compiler::new(opts).compile("t.ncl", &at(CALC, [1, 2])).unwrap();
        assert_eq!(unit.devices.iter().map(|d| d.device).collect::<Vec<_>>(), [2, 1]);
        assert_eq!(unit.reuse.devices_total, 2);
    }
}
