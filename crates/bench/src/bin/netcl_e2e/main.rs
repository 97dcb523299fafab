//! `netcl_e2e` — the repository's benchmark: seven named workloads from
//! NetCL source to bytes checked at a host, end-to-end and per-layer
//! metrics, every output verified. README.md in this directory has the
//! workload and metric tables and how to run; `BENCHMARK.json` at the
//! repository root is the contract a driver runs this against.

mod alloc;
mod chain;
mod compare;
mod compile;
mod fattree;
mod fleet;
mod harness;
mod hosts;
mod json;
mod metrics;
mod replay;
mod sim;
mod spans;
mod stats;

use harness::{Harness, Size};
use json::Json;
use metrics::{Metric, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: netcl_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--check]
       netcl_e2e compare A.json B.json

With --workload, runs that workload in this process and prints its metrics;
the last line of standard output is the result as one JSON object. Without,
runs every workload, each untraced and traced in a process of its own, and
writes results.json. --check does the same at toy sizes with every gate on
and validates the emitted names against BENCHMARK.json. compare exits 1 on a
regression, 3 when a pair is too noisy to judge and nothing regressed.";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli { workload: None, seed: 7, seconds: 0.0, trace: false, check: false };
        let mut seconds = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!("unknown workload `{w}`; one of {WORKLOADS:?}"));
                    }
                    cli.workload = Some(w.clone());
                }
                "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err("--seconds must be in (0, 60]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    cli.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                "--check" => cli.check = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        // By default BENCHMARK.json's run_seconds; under --check just long
        // enough for the minimum number of repeats.
        cli.seconds = seconds.unwrap_or(if cli.check { 0.1 } else { 12.0 });
        Ok(cli)
    }
}

/// Where result files and traces go: under the build directory, which the
/// repository ignores.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("netcl_e2e")
}

fn result_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("{workload}.{}.json", if trace { "traced" } else { "untraced" }))
}

fn metric_json(m: &Metric, detail: bool) -> (String, Json) {
    let s = &m.summary;
    let mut fields = vec![("value", Json::Num(s.median)), ("unit", Json::str(m.unit))];
    if detail {
        fields.extend([
            ("samples", Json::Num(s.samples as f64)),
            ("p25", Json::Num(s.p25)),
            ("p75", Json::Num(s.p75)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
        ]);
    }
    (m.name.clone(), Json::obj(fields))
}

/// Runs one workload in this process.
fn run_one(cli: &Cli, workload: &str) -> ExitCode {
    let size = if cli.check { Size::Check } else { Size::Full };
    let mut h = Harness::new(workload, cli.seed, cli.seconds, cli.trace, size);
    let whole = h.spans.enter("workload");
    match workload {
        "compile_fleet" => compile::run_fleet(&mut h),
        "compile_edit" => compile::run_edit(&mut h),
        "switch_replay" => replay::run(&mut h),
        "fattree_calc" => fattree::run(&mut h, 1),
        "fattree_calc_2shard" => fattree::run(&mut h, 2),
        "allreduce_agg" => hosts::run_allreduce(&mut h),
        "kv_cache_mixed" => hosts::run_kv(&mut h),
        other => unreachable!("`{other}` passed Cli::parse"),
    }
    h.spans.exit(whole);
    h.finish();

    let metrics = if cli.trace {
        h.report.in_order(metrics::per_layer())
    } else {
        h.report.count("peak_rss_mb", peak_rss_mb());
        let metrics = h.report.in_order(&metrics::end_to_end());
        for m in &metrics {
            // Only a run that gave up on a failed set-up has nothing to report.
            assert!(
                h.failed > 0 || m.summary.median > 0.0,
                "end-to-end metric `{}` must never be 0",
                m.name
            );
        }
        metrics
    };
    let correct = h.failed == 0;

    println!(
        "{workload}  seed {}  {}  {}",
        cli.seed,
        if cli.trace { "traced" } else { "untraced" },
        if cli.check { "toy size (--check)" } else { "full size" }
    );
    // Beside the corrected timings, what the wall clock read.
    let wall_clock = if cli.trace { Vec::new() } else { h.wall_clock() };
    for m in metrics.iter().chain(&wall_clock) {
        let s = &m.summary;
        println!(
            "  {:<34} {:>16.6} {:<6} n={:<3} p25={:.6} p75={:.6} min={:.6} max={:.6}",
            m.name, s.median, m.unit, s.samples, s.p25, s.p75, s.min, s.max
        );
    }
    println!("  ops_attempted {}  ops_failed {}", h.attempted, h.failed);

    let result = |detail: bool| {
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(h.attempted.max(1) as f64)),
            ("failed", Json::Num(h.failed as f64)),
            ("metrics", Json::obj(metrics.iter().map(|m| metric_json(m, detail)))),
        ])
    };
    let mut file = result(true);
    if let Json::Obj(fields) = &mut file {
        fields.push(("workload".into(), Json::str(workload)));
        fields.push(("seed".into(), Json::Num(cli.seed as f64)));
        fields.push(("seconds".into(), Json::Num(cli.seconds)));
        fields.push(("size".into(), Json::str(if cli.check { "check" } else { "full" })));
        fields.push(("host_ref_ms".into(), Json::Num(h.host_ref_median_ms())));
        fields.push((
            "wall_clock".into(),
            Json::obj(wall_clock.iter().map(|m| metric_json(m, true))),
        ));
        fields.push(("host".into(), host_block()));
    }
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(result_path(workload, cli.trace), file.to_line() + "\n"))
        .and_then(|()| {
            if cli.trace {
                let path = out_dir().join(format!("{workload}.trace.json"));
                std::fs::write(path, h.spans.trace.to_json())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("error: cannot write under {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    println!("{}", result(false).to_line());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `VmHWM` of this process: the most physical memory it ever held.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What the numbers were taken on, for telling two result files apart.
fn host_block() -> Json {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("available_parallelism", Json::Num(threads as f64)),
        ("rustc", Json::Str(rustc)),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("kernel", Json::Str(read("/proc/sys/kernel/osrelease").trim().to_string())),
        ("cpu", Json::Str(cpu)),
    ])
}

/// Runs every workload, untraced then traced, each in a fresh process so
/// that peak memory and allocator state do not leak between them, and
/// merges their result files into `results.json`.
fn drive_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut merged = Vec::new();
    for workload in WORKLOADS {
        let mut passes = Vec::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdin(Stdio::null());
            if cli.check {
                cmd.arg("--check");
            }
            // `status` waits for the child, so none outlives this process.
            match cmd.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!("FAIL: {workload} (trace {}) exited with {status}", trace as u8);
                    ok = false;
                }
                Err(e) => {
                    eprintln!("FAIL: cannot run {workload}: {e}");
                    ok = false;
                }
            }
            let path = result_path(workload, trace);
            match std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|t| Json::parse(&t))
            {
                Ok(result) => passes.push((if trace { "traced" } else { "untraced" }, result)),
                Err(e) => {
                    eprintln!("FAIL: {}: {e}", path.display());
                    ok = false;
                }
            }
        }
        merged.push((workload, Json::obj(passes)));
    }
    let results = Json::obj([
        ("benchmark", Json::str("netcl_e2e")),
        ("seed", Json::Num(cli.seed as f64)),
        ("size", Json::str(if cli.check { "check" } else { "full" })),
        ("host", host_block()),
        ("workloads", Json::obj(merged)),
    ]);
    if cli.check {
        if let Err(e) = compare::validate_against_contract(&results) {
            eprintln!("FAIL: schema: {e}");
            ok = false;
        } else {
            println!("schema: every emitted name matches BENCHMARK.json");
        }
    }
    let path = out_dir().join("results.json");
    if let Err(e) = std::fs::write(&path, results.to_line() + "\n") {
        eprintln!("error: cannot write {}: {e}", path.display());
        ok = false;
    } else {
        println!("wrote {}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::run(&args[1..]);
    }
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(workload) => run_one(&cli, workload),
        None => drive_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    /// This directory is also a package of its own (README.md, "The driver's
    /// contract"), and a nested workspace does not inherit the root's
    /// profile: unless the two agree, the two builds of this benchmark
    /// measure different programs.
    #[test]
    fn release_profile_is_the_workspace_roots() {
        fn settings(manifest: &str) -> Vec<&str> {
            let (_, after) = manifest.split_once("[profile.release]").expect("a release profile");
            after
                .lines()
                .map(str::trim)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        assert_eq!(
            settings(include_str!("Cargo.toml")),
            settings(include_str!("../../../../../Cargo.toml"))
        );
    }
}
