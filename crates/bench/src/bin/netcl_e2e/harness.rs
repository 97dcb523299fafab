//! What every workload shares: the run's configuration, host-speed-corrected
//! timing, and the set-up and measured-phase bookkeeping.

use crate::metrics::{LayerSamples, Metric, Report};
use crate::spans::Spans;
use crate::stats::{host_ref_ms, Summary, HOST_REF_NOMINAL_MS, HOST_REF_TABLE};
use std::time::Instant;

/// Toy inputs for `--check`, the published sizes otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Check,
}

/// Every workload sets up, and repeats its measured phase, at least this
/// often after its warm-up, so that both timings are medians.
pub const MIN_SAMPLES: usize = 5;
/// `(metric, span)` of the layer spans a set-up may contain; each set-up's
/// totals become one sample of the metric.
const SETUP_SPANS: [(&str, &str); 9] = [
    ("core.compile_s", "core.compile"),
    ("p4.print_s", "p4.print"),
    ("p4.parse_s", "p4.parse"),
    ("tofino.fit_s", "tofino.fit"),
    ("bmv2.load_s", "bmv2.load"),
    ("net.topology_s", "net.topology"),
    ("net.routes_s", "net.routes"),
    ("net.partition_s", "net.partition"),
    ("net.build_s", "net.build"),
];

/// How long a timed section took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// On the wall clock.
    pub wall_s: f64,
    /// In reference seconds: see [`Harness::timed`].
    pub ref_s: f64,
}

impl std::ops::AddAssign for Timing {
    fn add_assign(&mut self, other: Timing) {
        self.wall_s += other.wall_s;
        self.ref_s += other.ref_s;
    }
}

/// A traced run alternates untraced and traced repeats, so that both sides
/// of `harness.trace_overhead` see the same host and the same warm caches;
/// only the traced ones are samples.
pub struct Alternation {
    trace: bool,
    repeats: usize,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
}

impl Alternation {
    /// For a traced (`trace`) or an untraced run.
    pub fn new(trace: bool) -> Alternation {
        Alternation { trace, repeats: 0, untraced_s: Vec::new(), traced_s: Vec::new() }
    }

    /// Whether the next repeat carries the instrumentation: never in an
    /// untraced run, every second repeat in a traced one.
    pub fn next_is_traced(&mut self) -> bool {
        self.repeats += 1;
        self.trace && self.repeats.is_multiple_of(2)
    }

    /// Records how long a repeat took; returns whether it is a sample (in a
    /// traced run the untraced repeats are only the reference).
    pub fn record(&mut self, traced: bool, secs: f64) -> bool {
        if traced {
            self.traced_s.push(secs);
        } else {
            self.untraced_s.push(secs);
        }
        traced == self.trace
    }

    /// Median traced duration over median untraced duration.
    pub fn overhead(&self) -> f64 {
        Summary::of(&self.traced_s).median / Summary::of(&self.untraced_s).median
    }
}

pub struct Harness {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub spans: Spans,
    pub report: Report,
    /// Units of work driven (compile units, packets, flows, chunk results,
    /// requests) and how many of them failed a gate.
    pub attempted: u64,
    pub failed: u64,
    setup: Vec<Timing>,
    setup_layers: LayerSamples,
    /// `(work per reference second, work per wall second)` of every repeat.
    work: Vec<(f64, f64)>,
    /// Inside [`Harness::warm_up`]: nothing is a sample.
    warming: bool,
    host_ref_ms: Vec<f64>,
    host_ref_table: Vec<u64>,
    check_s: f64,
    measuring_since: Option<Instant>,
}

impl Harness {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool, size: Size) -> Harness {
        Harness {
            seed,
            seconds,
            trace,
            size,
            spans: Spans::new(workload, trace),
            report: Report::default(),
            attempted: 0,
            failed: 0,
            setup: Vec::new(),
            setup_layers: LayerSamples::default(),
            work: Vec::new(),
            warming: false,
            host_ref_ms: Vec::new(),
            host_ref_table: vec![0; HOST_REF_TABLE],
            check_s: 0.0,
            measuring_since: None,
        }
    }

    /// `full` at the published size, `check` under `--check`.
    pub fn sized<T>(&self, full: T, check: T) -> T {
        match self.size {
            Size::Full => full,
            Size::Check => check,
        }
    }

    /// How long the reference loop takes right now.
    fn reference_ms(&mut self) -> f64 {
        let ms = host_ref_ms(&mut self.host_ref_table);
        self.host_ref_ms.push(ms);
        ms
    }

    /// Runs `f` and returns its duration in *reference seconds*: wall
    /// seconds scaled by how much faster or slower than nominal the fixed
    /// reference loop ran just before and just after. Every end-to-end
    /// timing goes through here; README.md ("Noise") has the measurements
    /// that made this necessary. Keep sections to a few hundred
    /// milliseconds, so that the two readings describe the whole of it.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Harness) -> R) -> (R, Timing) {
        let before = self.reference_ms();
        let start = Instant::now();
        let r = f(self);
        let wall_s = start.elapsed().as_secs_f64();
        let after = self.reference_ms();
        (r, Timing { wall_s, ref_s: wall_s * HOST_REF_NOMINAL_MS / ((before + after) / 2.0) })
    }

    /// Runs one complete set-up as a `setup` span and records its corrected
    /// duration as a `setup_s` sample. The state of an earlier set-up must
    /// be dropped before the next one starts, or `peak_rss_mb` counts both.
    pub fn setup<S>(&mut self, f: impl FnOnce(&mut Spans) -> S) -> S {
        self.spans.take_totals();
        let (state, secs) = self.timed(|h| {
            let t = h.spans.enter("setup");
            let state = f(&mut h.spans);
            h.spans.exit(t);
            state
        });
        let totals = self.spans.take_totals();
        if !self.warming {
            self.setup.push(secs);
            for (metric, span) in SETUP_SPANS {
                self.setup_layers.push_span(metric, &totals, span);
            }
        }
        state
    }

    /// Records one repeat of the measured phase: `units` of the workload's
    /// own work in `took`.
    pub fn work(&mut self, units: f64, took: Timing) {
        self.work_rates(units / took.ref_s, units / took.wall_s);
    }

    /// The same for a repeat whose rate is not one quotient.
    pub fn work_rates(&mut self, per_ref_s: f64, per_wall_s: f64) {
        if !self.warming {
            self.work.push((per_ref_s, per_wall_s));
        }
    }

    /// Runs `f` — one whole repeat, set-up included — with caches, page
    /// tables and the allocator cold, and drops its samples; its gates count.
    pub fn warm_up(&mut self, f: impl FnOnce(&mut Harness)) {
        self.warming = true;
        f(self);
        self.warming = false;
    }

    /// Runs untimed verification as a `check` span; its time is reported
    /// as `harness.check_s`, never as set-up or measured work.
    pub fn check<R>(&mut self, f: impl FnOnce(&mut Harness) -> R) -> R {
        let t = self.spans.enter("check");
        let r = f(self);
        self.check_s += self.spans.exit(t);
        r
    }

    /// Counts `attempted` operations of which `failed` failed, and says
    /// where on standard error when any did.
    pub fn gate(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("GATE FAIL: {what}: {failed} of {attempted} failed");
        }
    }

    /// Whether the measured phase should run another repeat: always until
    /// [`MIN_SAMPLES`] exist, then until `--seconds` have passed since the
    /// first call.
    pub fn keep_measuring(&mut self) -> bool {
        let since = *self.measuring_since.get_or_insert_with(Instant::now);
        self.work.len() < MIN_SAMPLES || since.elapsed().as_secs_f64() < self.seconds
    }

    /// Files the harness's own metrics into the report: the two end-to-end
    /// timings for an untraced run, the `harness.*` layer metrics for a
    /// traced one.
    pub fn finish(&mut self) {
        // A workload that gave up on a failed set-up has already said so.
        assert!(
            self.failed > 0 || self.setup.len().min(self.work.len()) >= MIN_SAMPLES,
            "a workload sets up and repeats at least {MIN_SAMPLES} times"
        );
        if self.trace {
            // A layer a workload measured in its repeats keeps that figure.
            std::mem::take(&mut self.setup_layers).file_absent(&mut self.report);
            self.report.count("harness.check_s", self.check_s);
            self.report.samples("harness.host_ref_ms", &self.host_ref_ms);
        } else if !self.setup.is_empty() && !self.work.is_empty() {
            let setup_s: Vec<f64> = self.setup.iter().map(|t| t.ref_s).collect();
            let work_per_s: Vec<f64> = self.work.iter().map(|w| w.0).collect();
            self.report.samples("setup_s", &setup_s);
            self.report.samples("work_per_s", &work_per_s);
        }
    }

    /// The two end-to-end timings as the wall clock saw them, uncorrected:
    /// printed and written to the result file beside the metrics.
    pub fn wall_clock(&self) -> Vec<Metric> {
        if self.setup.is_empty() || self.work.is_empty() {
            return Vec::new();
        }
        let setup_s: Vec<f64> = self.setup.iter().map(|t| t.wall_s).collect();
        let work_per_s: Vec<f64> = self.work.iter().map(|w| w.1).collect();
        let metric = |name: &str, unit, samples: &[f64]| Metric {
            name: name.to_string(),
            unit,
            summary: Summary::of(samples),
        };
        vec![metric("setup_wall_s", "s", &setup_s), metric("work_per_wall_s", "1/s", &work_per_s)]
    }

    /// The median of the reference loop's readings, for the result file.
    pub fn host_ref_median_ms(&self) -> f64 {
        Summary::of(&self.host_ref_ms).median
    }
}
