//! Per-pass telemetry for the §VI-B pipeline (DESIGN.md §12).
//!
//! The paper's pipeline makes the mapping decisions programmers otherwise
//! debug blind — speculation, memory duplication, stage fitting. A
//! [`PassReport`] records, per pass (aggregated over kernels and fixpoint
//! iterations): wall time, the IR delta it caused (instructions and blocks
//! added/removed), and how many rewrites fired. `ncc --emit-pass-report`
//! prints the rendered table; [`PassReport::to_events`] exports the same
//! data as JSONL through `netcl-obs`.

use netcl_ir::{Function, Module};
use netcl_obs::{Event, Stopwatch};
use std::fmt::Write as _;

/// What a pass entry point reports back, normalized to "rewrites fired".
pub trait PassOutcome {
    /// Number of rewrites/changes this run applied.
    fn rewrites(&self) -> u64;
}

impl PassOutcome for bool {
    fn rewrites(&self) -> u64 {
        *self as u64
    }
}

impl PassOutcome for usize {
    fn rewrites(&self) -> u64 {
        *self as u64
    }
}

impl PassOutcome for () {
    fn rewrites(&self) -> u64 {
        0
    }
}

/// Aggregated statistics for one named pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStat {
    /// Pass name as it appears in the pipeline.
    pub name: &'static str,
    /// Invocations (per kernel × per fixpoint iteration).
    pub runs: u64,
    /// Total wall time across runs, nanoseconds.
    pub wall_ns: u64,
    /// Net instructions added (negative: removed).
    pub insts_delta: i64,
    /// Net blocks added (negative: removed).
    pub blocks_delta: i64,
    /// Rewrites fired (pass-reported change count).
    pub rewrites: u64,
}

/// Aggregated statistics for one kernel, across every pass that touched
/// it — the transpose of the per-pass table. Module-scope passes (layout,
/// partitioning) are attributed to the pseudo-kernel [`MODULE_KERNEL`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStat {
    /// Kernel name (or [`MODULE_KERNEL`] for module-scope passes).
    pub kernel: String,
    /// Pass invocations attributed to this kernel.
    pub runs: u64,
    /// Total wall time across those invocations, nanoseconds.
    pub wall_ns: u64,
    /// Net instructions added to this kernel (negative: removed).
    pub insts_delta: i64,
    /// Net blocks added (negative: removed).
    pub blocks_delta: i64,
    /// Rewrites fired on this kernel.
    pub rewrites: u64,
}

/// The pseudo-kernel module-scope passes are attributed to: their deltas
/// span kernels, so they cannot be assigned to any single one.
pub const MODULE_KERNEL: &str = "<module>";

/// Sizes of a function or module: `(instructions, blocks)`.
fn fn_size(f: &Function) -> (u64, u64) {
    (f.blocks.iter().map(|b| b.insts.len() as u64).sum(), f.blocks.len() as u64)
}

fn module_size(m: &Module) -> (u64, u64) {
    m.kernels.iter().map(fn_size).fold((0, 0), |(i, b), (fi, fb)| (i + fi, b + fb))
}

/// The pipeline telemetry for one `run_pipeline` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassReport {
    /// Target label (`"tna"` or `"v1model"`).
    pub target: &'static str,
    /// Kernel count in the module.
    pub kernels: u64,
    /// Instructions before the first pass.
    pub insts_start: u64,
    /// Instructions after the last pass.
    pub insts_end: u64,
    /// Blocks before the first pass.
    pub blocks_start: u64,
    /// Blocks after the last pass.
    pub blocks_end: u64,
    /// Per-pass aggregates, in first-execution order.
    pub passes: Vec<PassStat>,
    /// Per-kernel aggregates, in first-touch order — the same measured
    /// runs as [`PassReport::passes`], partitioned by kernel instead of
    /// by pass ([`PassReport::reconcile`] checks the two views agree).
    pub per_kernel: Vec<KernelStat>,
    /// Whether this report was served from the incremental-compile cache
    /// instead of a fresh pipeline run: the per-pass numbers then describe
    /// the *original* run whose artifacts were reused (DESIGN.md §16).
    pub from_cache: bool,
}

impl PassReport {
    /// Starts a report by snapshotting the module.
    pub fn begin(target: &'static str, module: &Module) -> PassReport {
        let (insts, blocks) = module_size(module);
        PassReport {
            target,
            kernels: module.kernels.len() as u64,
            insts_start: insts,
            insts_end: insts,
            blocks_start: blocks,
            blocks_end: blocks,
            passes: Vec::new(),
            per_kernel: Vec::new(),
            from_cache: false,
        }
    }

    /// Final module snapshot (call once the pipeline is done).
    pub fn finish(&mut self, module: &Module) {
        let (insts, blocks) = module_size(module);
        self.insts_end = insts;
        self.blocks_end = blocks;
    }

    /// Total pipeline wall time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.passes.iter().map(|p| p.wall_ns).sum()
    }

    /// The aggregate entry for kernel `name` (or [`MODULE_KERNEL`]), if
    /// any measured pass touched it.
    pub fn kernel(&self, name: &str) -> Option<&KernelStat> {
        self.per_kernel.iter().find(|k| k.kernel == name)
    }

    fn stat_mut(&mut self, name: &'static str) -> &mut PassStat {
        let i = self.passes.iter().position(|p| p.name == name).unwrap_or_else(|| {
            self.passes.push(PassStat {
                name,
                runs: 0,
                wall_ns: 0,
                insts_delta: 0,
                blocks_delta: 0,
                rewrites: 0,
            });
            self.passes.len() - 1
        });
        &mut self.passes[i]
    }

    fn kernel_mut(&mut self, kernel: &str) -> &mut KernelStat {
        let i = self.per_kernel.iter().position(|k| k.kernel == kernel).unwrap_or_else(|| {
            self.per_kernel.push(KernelStat {
                kernel: kernel.to_string(),
                runs: 0,
                wall_ns: 0,
                insts_delta: 0,
                blocks_delta: 0,
                rewrites: 0,
            });
            self.per_kernel.len() - 1
        });
        &mut self.per_kernel[i]
    }

    /// Every measured run lands in both partitions: once under its pass,
    /// once under its kernel.
    fn record(
        &mut self,
        name: &'static str,
        kernel: &str,
        wall_ns: u64,
        before: (u64, u64),
        after: (u64, u64),
        rewrites: u64,
    ) {
        let insts = after.0 as i64 - before.0 as i64;
        let blocks = after.1 as i64 - before.1 as i64;
        let s = self.stat_mut(name);
        s.runs += 1;
        s.wall_ns += wall_ns;
        s.insts_delta += insts;
        s.blocks_delta += blocks;
        s.rewrites += rewrites;
        let k = self.kernel_mut(kernel);
        k.runs += 1;
        k.wall_ns += wall_ns;
        k.insts_delta += insts;
        k.blocks_delta += blocks;
        k.rewrites += rewrites;
    }

    /// Runs a function pass under measurement, attributed to the kernel.
    pub(crate) fn on_fn<R: PassOutcome>(
        &mut self,
        name: &'static str,
        f: &mut Function,
        run: impl FnOnce(&mut Function) -> R,
    ) -> R {
        let kernel = f.name.clone();
        let before = fn_size(f);
        let sw = Stopwatch::start();
        let r = run(f);
        let wall = sw.elapsed_ns();
        self.record(name, &kernel, wall, before, fn_size(f), r.rewrites());
        r
    }

    /// Runs a module pass under measurement, attributed to
    /// [`MODULE_KERNEL`].
    pub(crate) fn on_module<R: PassOutcome>(
        &mut self,
        name: &'static str,
        m: &mut Module,
        run: impl FnOnce(&mut Module) -> R,
    ) -> R {
        let before = module_size(m);
        let sw = Stopwatch::start();
        let r = run(m);
        let wall = sw.elapsed_ns();
        self.record(name, MODULE_KERNEL, wall, before, module_size(m), r.rewrites());
        r
    }

    /// Checks the per-pass and per-kernel views reconcile: they partition
    /// the same set of measured runs, so every aggregate must agree.
    /// Returns the first mismatching aggregate.
    pub fn reconcile(&self) -> Result<(), String> {
        let by_pass = self.passes.iter().fold((0u64, 0u64, 0i64, 0i64, 0u64), |a, p| {
            (
                a.0 + p.runs,
                a.1 + p.wall_ns,
                a.2 + p.insts_delta,
                a.3 + p.blocks_delta,
                a.4 + p.rewrites,
            )
        });
        let by_kernel = self.per_kernel.iter().fold((0u64, 0u64, 0i64, 0i64, 0u64), |a, k| {
            (
                a.0 + k.runs,
                a.1 + k.wall_ns,
                a.2 + k.insts_delta,
                a.3 + k.blocks_delta,
                a.4 + k.rewrites,
            )
        });
        for (label, p, k) in [
            ("runs", by_pass.0 as i64, by_kernel.0 as i64),
            ("wall_ns", by_pass.1 as i64, by_kernel.1 as i64),
            ("insts_delta", by_pass.2, by_kernel.2),
            ("blocks_delta", by_pass.3, by_kernel.3),
            ("rewrites", by_pass.4 as i64, by_kernel.4 as i64),
        ] {
            if p != k {
                return Err(format!("per-pass {label} {p} != per-kernel {label} {k}"));
            }
        }
        Ok(())
    }

    /// The human-readable table `ncc --emit-pass-report` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pass report{} — target {}, {} kernel(s): {} insts → {}, {} blocks → {}, {:.2} ms total",
            if self.from_cache { " (cached)" } else { "" },
            self.target,
            self.kernels,
            self.insts_start,
            self.insts_end,
            self.blocks_start,
            self.blocks_end,
            self.total_ns() as f64 / 1e6,
        );
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>11} {:>8} {:>8} {:>9}",
            "PASS", "RUNS", "WALL(µs)", "ΔINSTS", "ΔBLOCKS", "REWRITES"
        );
        for p in &self.passes {
            let _ = writeln!(
                out,
                "{:<18} {:>5} {:>11.1} {:>+8} {:>+8} {:>9}",
                p.name,
                p.runs,
                p.wall_ns as f64 / 1e3,
                p.insts_delta,
                p.blocks_delta,
                p.rewrites
            );
        }
        let _ = writeln!(
            out,
            "{:<18} {:>5} {:>11} {:>8} {:>8} {:>9}",
            "KERNEL", "RUNS", "WALL(µs)", "ΔINSTS", "ΔBLOCKS", "REWRITES"
        );
        for k in &self.per_kernel {
            let _ = writeln!(
                out,
                "{:<18} {:>5} {:>11.1} {:>+8} {:>+8} {:>9}",
                k.kernel,
                k.runs,
                k.wall_ns as f64 / 1e3,
                k.insts_delta,
                k.blocks_delta,
                k.rewrites
            );
        }
        out
    }

    /// JSONL export: one `pass` event per pass, one `kernel` event per
    /// kernel, plus a `pipeline` summary.
    pub fn to_events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.passes.len() + self.per_kernel.len() + 1);
        for p in &self.passes {
            out.push(
                Event::new(format!("pass.{}", p.name), 0)
                    .field("runs", p.runs)
                    .field("wall_ns", p.wall_ns)
                    .field("insts", p.insts_delta)
                    .field("blocks", p.blocks_delta)
                    .field("rewrites", p.rewrites),
            );
        }
        for k in &self.per_kernel {
            out.push(
                Event::new(format!("kernel.{}", k.kernel), 0)
                    .field("runs", k.runs)
                    .field("wall_ns", k.wall_ns)
                    .field("insts", k.insts_delta)
                    .field("blocks", k.blocks_delta)
                    .field("rewrites", k.rewrites),
            );
        }
        out.push(
            Event::new("pipeline", 0)
                .field("wall_ns", self.total_ns())
                .field("insts", self.insts_end)
                .field("blocks", self.blocks_end)
                .field("runs", self.kernels)
                .field("from_cache", self.from_cache as u64),
        );
        out
    }
}

/// An optional-report recorder: measures through a `Some` report, runs the
/// pass bare through `None` — so the pipeline has a single set of call
/// sites and pays nothing when telemetry is off.
pub(crate) struct Recorder<'a>(pub Option<&'a mut PassReport>);

impl Recorder<'_> {
    /// Function-pass dispatch.
    pub(crate) fn on_fn<R: PassOutcome>(
        &mut self,
        name: &'static str,
        f: &mut Function,
        run: impl FnOnce(&mut Function) -> R,
    ) -> R {
        match self.0.as_deref_mut() {
            Some(rep) => rep.on_fn(name, f, run),
            None => run(f),
        }
    }

    /// Module-pass dispatch.
    pub(crate) fn on_module<R: PassOutcome>(
        &mut self,
        name: &'static str,
        m: &mut Module,
        run: impl FnOnce(&mut Module) -> R,
    ) -> R {
        match self.0.as_deref_mut() {
            Some(rep) => rep.on_module(name, m, run),
            None => run(m),
        }
    }
}
