//! `compile_fleet` and `compile_edit`: the compiler and everything it
//! feeds, up to a loaded switch — no packet is simulated.

use crate::alloc::Snapshot;
use crate::chain::{self, Device};
use crate::fleet::{self, Unit};
use crate::harness::{Alternation, Harness, Timing, MIN_SAMPLES};
use crate::metrics::{LayerSamples, PASSES};
use crate::spans::Spans;
use crate::stats::Summary;
use netcl::ir::Module;
use netcl::passes::{run_pipeline_with_report, PassFlags, PassReport, PipelineTarget};
use netcl::{codegen, lower, CompileCache, CompiledUnit, Compiler};
use netcl_net::WorkloadRng;
use netcl_p4::ast::Target;
use netcl_p4::print::print_program;

/// One unit through the whole chain, cold: compile, print, parse, fit and
/// load every device. The loaded switches are dropped; the rest is kept
/// for checking.
fn cold_unit(spans: &mut Spans, cc: &Compiler, u: &Unit) -> Result<chain::Built, String> {
    let built = chain::build(spans, cc, &u.name, &u.source)?;
    for d in &built.devices {
        std::hint::black_box(chain::load(spans, &d.program));
    }
    Ok(built)
}

/// One untimed pass over the fleet; returns how many units failed.
fn cold_pass(spans: &mut Spans, cc: &Compiler, fleet: &[Unit]) -> u64 {
    let mut failed = 0;
    for u in fleet {
        if let Err(e) = cold_unit(spans, cc, u) {
            eprintln!("{e}");
            failed += 1;
        }
    }
    failed
}

/// One timed pass of `unit` over the fleet; returns how many units failed
/// and how long the pass took.
fn timed_pass(
    h: &mut Harness,
    fleet: &[Unit],
    mut unit: impl FnMut(&mut Spans, &Unit) -> Result<(), String>,
) -> (u64, Timing) {
    h.timed(|h| {
        let mut failed = 0;
        for u in fleet {
            if let Err(e) = unit(&mut h.spans, u) {
                eprintln!("{e}");
                failed += 1;
            }
        }
        failed
    })
}

/// What the traced pass learns about one unit beyond span times.
#[derive(Default)]
struct Facts {
    source_bytes: f64,
    text_bytes: f64,
    parse_refused: f64,
    insts_start: f64,
    insts_end: f64,
    rewrites: f64,
    stages_used: f64,
    phv_pct: f64,
    latency_ns: f64,
    devices: f64,
}

/// The same chain as [`cold_unit`], driven stage by stage through the
/// crates' public functions so each gets its own span — the steps of
/// `Compiler::compile_with`, in its order, with default options.
fn staged_unit(spans: &mut Spans, u: &Unit, facts: &mut Facts) -> Result<(), String> {
    let flags = PassFlags::default();
    let compile = spans.enter("core.compile");
    let staged = (|| {
        let (parsed, mut diags) =
            spans.leaf("lang.parse", || netcl::lang::parse(&u.name, &u.source));
        if diags.has_errors() {
            return Err(format!("{}: {}", u.name, diags.render_all(&parsed.source_map)));
        }
        let (analysis, sema_diags) = spans.leaf("sema.analyze", || netcl::sema::analyze(&parsed));
        diags.absorb(sema_diags);
        if diags.has_errors() {
            return Err(format!("{}: {}", u.name, diags.render_all(&parsed.source_map)));
        }
        let mut programs = Vec::new();
        for dev in analysis.model.mentioned_devices() {
            let base = spans
                .leaf("core.lower", || lower::lower_device(&parsed, &analysis, dev, &mut diags));
            if diags.has_errors() {
                return Err(format!("{}: {}", u.name, diags.render_all(&parsed.source_map)));
            }
            spans
                .leaf("ir.verify", || netcl::ir::verify::verify_module(&base))
                .map_err(|e| format!("{}: lowered IR fails verification: {e:?}", u.name))?;
            let mut pipeline = |ir: &mut Module, target, span| -> Result<PassReport, String> {
                let t = spans.enter(span);
                let (r, report) = run_pipeline_with_report(ir, target, &flags, &mut diags);
                for p in &report.passes {
                    spans.aggregated_child(p.name, p.wall_ns, p.runs);
                }
                spans.exit(t);
                r.map(|()| report)
                    .map_err(|()| format!("{}: {}", u.name, diags.render_all(&parsed.source_map)))
            };
            let mut tna_ir = base.clone();
            let tna = pipeline(&mut tna_ir, PipelineTarget::Tofino, "passes.tna")?;
            let mut v1_ir = base;
            let v1 = pipeline(&mut v1_ir, PipelineTarget::V1Model, "passes.v1model")?;
            facts.insts_start += tna.insts_start as f64;
            facts.insts_end += tna.insts_end as f64;
            facts.rewrites +=
                tna.passes.iter().chain(&v1.passes).map(|p| p.rewrites).sum::<u64>() as f64;
            let tna_p4 = spans
                .leaf("core.codegen", || {
                    let tna = codegen::generate(&tna_ir, Target::Tna)?;
                    std::hint::black_box(codegen::generate(&v1_ir, Target::V1Model)?);
                    Ok(tna)
                })
                .map_err(|e: codegen::CodegenError| format!("{}: {e}", u.name))?;
            programs.push((dev, tna_p4));
        }
        Ok(programs)
    })();
    spans.exit(compile);
    facts.source_bytes += u.source.len() as f64;
    for (dev, tna_p4) in staged? {
        let Device { program, text, reparsed, fit, .. } =
            chain::finish_device(spans, &u.name, dev, &tna_p4)?;
        std::hint::black_box(chain::load(spans, &program));
        facts.text_bytes += text.len() as f64;
        facts.parse_refused += reparsed.is_err() as u64 as f64;
        facts.stages_used += fit.stages_used as f64;
        facts.phv_pct += fit.phv.percent();
        facts.latency_ns += fit.latency_ns;
        facts.devices += 1.0;
    }
    Ok(())
}

/// Both dialects of every device, printed: the byte-identity observable.
fn rendered(unit: &CompiledUnit) -> String {
    unit.devices.iter().map(|d| print_program(&d.tna_p4) + &print_program(&d.v1_p4)).collect()
}

pub fn run_fleet(h: &mut Harness) {
    let units = h.sized(192, 24);
    let seed = h.seed;
    let cc = chain::compiler();

    // Set-up: draw the fleet and take every unit through the chain once,
    // so the measured passes run with warm instruction and data caches.
    let mut fleet = Vec::new();
    for _ in 0..MIN_SAMPLES {
        let (f, failed) = h.setup(|spans| {
            let f = fleet::generate(seed, units);
            let failed = cold_pass(spans, &cc, &f);
            (f, failed)
        });
        h.gate("compile_fleet warm-up pass", units as u64, failed);
        fleet = f;
    }

    let cold = |spans: &mut Spans, u: &Unit| cold_unit(spans, &cc, u).map(drop);

    let mut accounted = Vec::new();
    let mut layers = LayerSamples::default();
    let mut alternation = Alternation::new(h.trace);
    while h.keep_measuring() {
        h.spans.take_totals();
        if !alternation.next_is_traced() {
            let (failed, took) = timed_pass(h, &fleet, cold);
            h.gate("compile_fleet cold pass", units as u64, failed);
            if alternation.record(false, took.ref_s) {
                h.work(units as f64, took);
            }
            continue;
        }
        let mut facts = Facts::default();
        let before = Snapshot::now();
        let (failed, took) = timed_pass(h, &fleet, |spans, u| staged_unit(spans, u, &mut facts));
        let allocs = before.elapsed().allocs;
        h.gate("compile_fleet staged pass", units as u64, failed);
        h.work(units as f64, took);
        alternation.record(true, took.ref_s);
        let totals = h.spans.take_totals();
        for (metric, span) in [
            ("core.compile_s", "core.compile"),
            ("lang.parse_s", "lang.parse"),
            ("sema.analyze_s", "sema.analyze"),
            ("core.lower_s", "core.lower"),
            ("ir.verify_s", "ir.verify"),
            ("passes.tna_s", "passes.tna"),
            ("passes.v1model_s", "passes.v1model"),
            ("core.codegen_s", "core.codegen"),
            ("p4.print_s", "p4.print"),
            ("p4.parse_s", "p4.parse"),
            ("tofino.fit_s", "tofino.fit"),
            ("bmv2.load_s", "bmv2.load"),
        ] {
            layers.push_span(metric, &totals, span);
        }
        for pass in PASSES {
            layers.push_span(&format!("passes.pass.{pass}_s"), &totals, pass);
        }
        // The stages are everything the pass does apart from the loop
        // itself and dropping what each stage built.
        let staged: f64 = ["core.compile", "p4.print", "p4.parse", "tofino.fit", "bmv2.load"]
            .iter()
            .map(|s| totals[s].secs())
            .sum();
        accounted.push(staged / took.wall_s);
        layers.push("lang.source_bytes", facts.source_bytes);
        layers.push("p4.text_bytes", facts.text_bytes);
        layers.push("p4.parse_refused", facts.parse_refused);
        layers.push("ir.insts_start", facts.insts_start);
        layers.push("ir.insts_end", facts.insts_end);
        layers.push("passes.rewrites", facts.rewrites);
        layers.push("tofino.stages_used", facts.stages_used / facts.devices);
        layers.push("tofino.phv_pct", facts.phv_pct / facts.devices);
        layers.push("tofino.latency_ns", facts.latency_ns / facts.devices);
        layers.push("core.allocs_per_unit", allocs as f64 / units as f64);
    }
    if h.trace {
        layers.push("harness.trace_overhead", alternation.overhead());
        // Stage times must account for the staged pass (and through
        // `harness.trace_overhead` ≈ 1, for the untraced one) to within 5 %.
        let share = Summary::of(&accounted).median;
        eprintln!("note: stage times sum to {share:.3} of the staged pass");
        let accounted_for = (0.95..=1.0).contains(&share);
        h.gate("compile_fleet stage times account for the pass", 1, !accounted_for as u64);
    }

    // Check, untimed: every unit again, now also proving the printed P4 a
    // print → parse → print fixed point wherever the parser reads it, and
    // the loaded programs correct.
    let failed = h.check(|h| {
        let mut failed = 0;
        for u in &fleet {
            let checked = cold_unit(&mut h.spans, &cc, u).and_then(|built| {
                for (d, compiled) in built.devices.iter().zip(&built.unit.devices) {
                    // The first line is a comment naming the program, which
                    // the parser does not keep.
                    let body = |text: &str| text.split_once('\n').map(|(_, b)| b.to_string());
                    if d.reparsed.as_ref().is_ok_and(|p| body(&print_program(p)) != body(&d.text)) {
                        return Err(format!("{}: print → parse → print changes the text", u.name));
                    }
                    fleet::check_device(u, d.id, &d.program, &compiled.tna_ir, seed)?;
                }
                Ok(())
            });
            if let Err(e) = checked {
                eprintln!("{e}");
                failed += 1;
            }
        }
        failed
    });
    h.gate("compile_fleet check pass", units as u64, failed);

    if h.trace {
        layers.file(&mut h.report);
    }
}

pub fn run_edit(h: &mut Harness) {
    let units = h.sized(192, 24);
    let rounds = h.sized(16, 4);
    let seed = h.seed;
    let cc = chain::compiler();

    // The schedule positions edited in every repeat — one unit of every
    // `rounds`-th kind, a seeded choice among the fleet's units of it — so
    // that repeats, and seeds, do equal work.
    let mut rng = WorkloadRng::new(seed ^ 0xED17);
    let turns = (units / fleet::SCHEDULE) as u64;
    let edited: Vec<usize> = (0..rounds)
        .map(|r| rng.below(turns) as usize * fleet::SCHEDULE + r * fleet::SCHEDULE / rounds)
        .collect();

    let mut layers = LayerSamples::default();
    // Every repeat draws the fleet and warms a fresh cache with it — the
    // cache keeps every revision it has seen, so a shared one would grow
    // with the run's length — which also makes each repeat a set-up sample.
    let one_repeat = |h: &mut Harness, layers: &mut LayerSamples| {
        let (mut fleet, mut cache, failed) = h.setup(|spans| {
            let fleet = fleet::generate(seed, units);
            let mut cache = CompileCache::new();
            let mut failed = 0;
            for u in &fleet {
                let warmed = spans.leaf("core.compile", || {
                    cc.compile_incremental(&u.name, &u.source, &mut cache)
                });
                if let Err(e) = warmed {
                    eprintln!("{}: {e}", u.name);
                    failed += 1;
                }
            }
            (fleet, cache, failed)
        });
        h.gate("compile_edit cache warm-up", units as u64, failed);

        let stats_before = cache.stats();
        let allocs_before = Snapshot::now();
        let (mut round_s, mut took, mut failed) = (Vec::new(), Timing::default(), 0);
        for (rev, &index) in edited.iter().enumerate() {
            let target = fleet.iter().position(|u| u.index == index).expect("a schedule position");
            fleet[target].render(1 + rev as u64);
            let mut hits = 0;
            // One round is one timed section: about 20 ms.
            let ((), round) = h.timed(|_| {
                for u in &fleet {
                    match cc.compile_incremental(&u.name, &u.source, &mut cache) {
                        Ok(unit) => hits += unit.reuse.unit_hit as usize,
                        Err(e) => {
                            eprintln!("{}: {e}", u.name);
                            failed += 1;
                        }
                    }
                }
            });
            round_s.push(round.wall_s);
            took += round;
            // Exactly the edited unit may miss: fewer hits is a silent
            // cache miss, more is a stale artifact served for new text.
            if hits != units - 1 {
                eprintln!("edit of {}: {hits} unit hits, want {}", fleet[target].name, units - 1);
                failed += 1;
            }
        }
        let driven = (units * rounds) as u64;
        h.gate("compile_edit round", driven, failed);
        h.work(driven as f64, took);
        if h.trace {
            let stats = cache.stats();
            layers.push("core.cache.unit_hits", (stats.unit_hits - stats_before.unit_hits) as f64);
            layers.push(
                "core.cache.unit_misses",
                (stats.unit_misses - stats_before.unit_misses) as f64,
            );
            layers.push(
                "core.cache.device_hits",
                (stats.device_hits - stats_before.device_hits) as f64,
            );
            layers.push("core.edit_round_s", Summary::of(&round_s).median);
            layers.push(
                "core.allocs_per_unit",
                allocs_before.elapsed().allocs as f64 / driven as f64,
            );
        }
        (fleet, cache)
    };
    let mut last = None;
    h.warm_up(|h| last = Some(one_repeat(h, &mut LayerSamples::default())));
    while h.keep_measuring() {
        // Two fleets and caches at once would count double in `peak_rss_mb`.
        drop(last.take());
        last = Some(one_repeat(h, &mut layers));
    }

    // Check, untimed: what the cache serves for the fleet as last edited
    // must be byte-identical to a cold compile of the same text.
    let (fleet, mut cache) = last.expect("at least one repeat ran");
    let failed = h.check(|_| {
        let mut failed = 0;
        for u in &fleet {
            let served = cc.compile_incremental(&u.name, &u.source, &mut cache);
            let cold = cc.compile(&u.name, &u.source);
            match (served, cold) {
                (Ok(s), Ok(c)) if rendered(&s) == rendered(&c) => {}
                _ => {
                    eprintln!("{}: incremental result differs from a cold compile", u.name);
                    failed += 1;
                }
            }
        }
        failed
    });
    h.gate("compile_edit incremental ≡ cold", units as u64, failed);

    if h.trace {
        layers.file(&mut h.report);
    }
}
