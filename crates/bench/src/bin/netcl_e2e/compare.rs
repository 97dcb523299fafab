//! `netcl_e2e compare A.json B.json` — two `results.json` files judged by
//! the bounds `BENCHMARK.json` fixes — and the schema check that ties the
//! names this program emits to that file.

use crate::json::Json;
use crate::metrics::{self, WORKLOADS};
use crate::stats::{judge, worsening, Better, Summary, Verdict};
use std::process::ExitCode;

/// Read from the working directory: the root of the checkout.
const CONTRACT: &str = "BENCHMARK.json";

/// Differences smaller than this, in the metric's unit, are none (ISSUE 11:
/// "10 % or 0.05 s"). `BENCHMARK.json` has no key for it.
const FLOORS: [(&str, f64); 1] = [("setup_s", 0.05)];

/// What `compare` found.
#[derive(Default)]
struct Outcome {
    /// A regression, a rise in failures or a simulated-time mismatch.
    failed: bool,
    /// Pairs too noisy to judge.
    unresolved: usize,
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `(name, unit)` of every entry of one of the contract's lists.
fn named(contract: &Json, list: &str) -> Result<Vec<(String, String)>, String> {
    let entries = contract
        .get(list)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{CONTRACT}: `{list}` is not a list"))?;
    entries
        .iter()
        .map(|e| {
            let field = |f: &str| e.get(f).and_then(Json::as_str).map(str::to_string);
            let name =
                field("name").ok_or_else(|| format!("{CONTRACT}: `{list}` entry has no name"))?;
            Ok((name, field("unit").unwrap_or_default()))
        })
        .collect()
}

/// Checks that `BENCHMARK.json` lists exactly the workloads and metrics
/// this program knows, with the same units and in the same order, and
/// that `results` holds exactly those for every workload.
pub fn validate_against_contract(results: &Json) -> Result<(), String> {
    let contract = read_json(CONTRACT)?;
    let same = |what: &str, listed: Vec<(String, String)>, ours: Vec<(String, String)>| match listed
        .iter()
        .zip(&ours)
        .find(|(a, b)| a != b)
    {
        Some((a, b)) => Err(format!("{what}: {CONTRACT} has {a:?} where the program has {b:?}")),
        None if listed.len() != ours.len() => {
            Err(format!("{what}: {CONTRACT} lists {}, the program {}", listed.len(), ours.len()))
        }
        None => Ok(()),
    };
    let owned = |names: &[(String, &str)]| -> Vec<(String, String)> {
        names.iter().map(|(n, u)| (n.clone(), u.to_string())).collect()
    };
    let workloads: Vec<(String, String)> =
        WORKLOADS.iter().map(|w| (w.to_string(), String::new())).collect();
    let (end_to_end, layer) = (owned(&metrics::end_to_end()), owned(metrics::per_layer()));
    same("workloads", named(&contract, "workloads")?, workloads)?;
    same("end_to_end", named(&contract, "end_to_end")?, end_to_end.clone())?;
    same("per_layer", named(&contract, "per_layer")?, layer.clone())?;

    for workload in WORKLOADS {
        for (pass, expected) in [("untraced", end_to_end.clone()), ("traced", layer.clone())] {
            let emitted: Vec<(String, String)> = results
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get(pass))
                .and_then(|p| p.get("metrics"))
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("results: no {pass} metrics for {workload}"))?
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap_or_default().to_string(),
                    )
                })
                .collect();
            same(&format!("{workload} {pass}"), emitted, expected)?;
        }
    }
    Ok(())
}

/// One metric of one pass of one workload in a results file.
fn summary(results: &Json, workload: &str, pass: &str, metric: &str) -> Option<Summary> {
    let m = results.get("workloads")?.get(workload)?.get(pass)?.get("metrics")?.get(metric)?;
    let num = |f: &str| m.get(f).and_then(Json::as_f64);
    Some(Summary {
        median: num("value")?,
        p25: num("p25")?,
        p75: num("p75")?,
        min: num("min")?,
        max: num("max")?,
        samples: num("samples")? as usize,
    })
}

/// Failed operations as a share of attempted, for one pass.
fn failure_rate(results: &Json, workload: &str, pass: &str) -> Option<f64> {
    let p = results.get("workloads")?.get(workload)?.get(pass)?;
    Some(p.get("failed")?.as_f64()? / p.get("attempted")?.as_f64()?.max(1.0))
}

/// The simulated-time metrics: equal seeds must give equal values.
fn sim_metrics() -> Vec<String> {
    metrics::per_layer().iter().map(|(n, _)| n.clone()).filter(|n| n.starts_with("sim.")).collect()
}

fn compare(a_path: &str, b_path: &str) -> Result<Outcome, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    let contract = read_json(CONTRACT)?;
    let bounds: Vec<(String, Better, f64)> = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{CONTRACT}: no end_to_end list"))?
        .iter()
        .map(|e| {
            let name =
                e.get("name").and_then(Json::as_str).ok_or("end_to_end entry has no name")?;
            let better = match e.get("better").and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => return Err(format!("{name}: `better` is {other:?}")),
            };
            let bound = e.get("bound").and_then(Json::as_f64).ok_or(format!("{name}: no bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect::<Result<_, String>>()?;

    let mut outcome = Outcome::default();
    println!(
        "{:<20} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound"
    );
    for workload in WORKLOADS {
        for (metric, better, bound) in &bounds {
            let pair = (
                summary(&a, workload, "untraced", metric),
                summary(&b, workload, "untraced", metric),
            );
            let (Some(sa), Some(sb)) = pair else {
                println!("{workload:<20} {metric:<12} missing from a file");
                outcome.failed = true;
                continue;
            };
            let floor = FLOORS.iter().find(|(m, _)| m == metric).map_or(0.0, |&(_, f)| f);
            let verdict = judge(&sa, &sb, *better, *bound, floor);
            outcome.failed |= verdict == Verdict::Regressed;
            outcome.unresolved += (verdict == Verdict::Unresolved) as usize;
            println!(
                "{workload:<20} {metric:<12} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%  {}",
                sa.median,
                sb.median,
                100.0 * worsening(sa.median, sb.median, *better),
                100.0 * bound,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved (a side's p25–p75 is wider than the bound)",
                }
            );
        }
        for pass in ["untraced", "traced"] {
            if let (Some(fa), Some(fb)) =
                (failure_rate(&a, workload, pass), failure_rate(&b, workload, pass))
            {
                if fb > fa {
                    println!(
                        "{workload:<20} {pass}: failed/attempted rose from {fa} to {fb}  FAILED"
                    );
                    outcome.failed = true;
                }
            }
        }
    }
    println!("unresolved pairs: {}", outcome.unresolved);

    // Simulated results are exact: the same seed must reproduce them, in
    // both files and, for flow latency, in both fat-tree workloads.
    let same_seed = a.get("seed") == b.get("seed") && a.get("size") == b.get("size");
    for metric in sim_metrics() {
        for workload in WORKLOADS {
            let value = |r: &Json| summary(r, workload, "traced", &metric).map(|s| s.median);
            if let (true, Some(va), Some(vb)) = (same_seed, value(&a), value(&b)) {
                if va != vb {
                    println!("{workload:<20} {metric}: {va} in A, {vb} in B, same seed  MISMATCH");
                    outcome.failed = true;
                }
            }
        }
        if metric.starts_with("sim.flow_latency") {
            for (label, r) in [("A", &a), ("B", &b)] {
                let of = |w: &str| summary(r, w, "traced", &metric).map(|s| s.median);
                if of("fattree_calc") != of("fattree_calc_2shard") {
                    println!("{label}: {metric} differs between fattree_calc and fattree_calc_2shard  MISMATCH");
                    outcome.failed = true;
                }
            }
        }
    }
    if !same_seed {
        println!("seeds or sizes differ: simulated-time metrics not compared across files");
    }
    Ok(outcome)
}

pub fn run(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: netcl_e2e compare A.json B.json");
        return ExitCode::from(2);
    };
    match compare(a, b) {
        Ok(Outcome { failed: true, .. }) => ExitCode::FAILURE,
        // Neither a regression nor its absence was shown for some pair.
        Ok(Outcome { unresolved: 1.., .. }) => ExitCode::from(3),
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
