//! `--repeat N`: the same workload N times in fresh child processes,
//! each with its own seed, summarised as median, quartiles, IQR share
//! and relative range per metric. The two sets of runs behind the
//! bounds in `BENCHMARK.json` were produced with it.

use std::process::{Command, Stdio};

use crate::{deploy, json, stats, Args};

/// One child run's metrics, or why it did not produce any.
fn child(workload: &str, seed: u64, args: &Args) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !out.status.success() {
        return Err(format!("child exited with {}: {last}", out.status));
    }
    let v = json::parse(last)?;
    if v.get("correct").and_then(json::Value::as_bool) != Some(true) {
        return Err(format!("child reported incorrect output: {last}"));
    }
    let metrics = v
        .get("metrics")
        .and_then(json::Value::as_obj)
        .ok_or("result line has no metrics")?;
    metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(json::Value::as_f64)
                .map(|x| (name.clone(), x))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect()
}

pub fn run(args: &Args, n: usize) -> Result<bool, String> {
    for spec in deploy::SPECS {
        if args.workload.as_deref().is_some_and(|w| w != spec.name) {
            continue;
        }
        let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
        for i in 0..n {
            let seed = args.seed + i as u64;
            let row = child(spec.name, seed, args)?;
            eprintln!("   {} run {}/{n} (seed {seed}) done", spec.name, i + 1);
            for (name, x) in row {
                match columns.iter_mut().find(|(c, _)| *c == name) {
                    Some((_, xs)) => xs.push(x),
                    None => columns.push((name, vec![x])),
                }
            }
        }
        println!(
            "== {} x{n} (seeds {}..{}) ==",
            spec.name,
            args.seed,
            args.seed + n as u64 - 1
        );
        println!(
            "   {:<36} {:>12} {:>12} {:>12} {:>9} {:>9}",
            "metric", "q1", "median", "q3", "iqr/med", "range/med"
        );
        for (name, xs) in columns {
            let xs = stats::sorted(xs);
            let (q1, med, q3) = stats::quartiles(&xs).unwrap_or((xs[0], xs[0], xs[0]));
            println!(
                "   {name:<36} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>9.4} {:>9.4}",
                stats::iqr_share(&xs).unwrap_or(0.0),
                stats::relative_range(&xs).unwrap_or(0.0),
            );
        }
    }
    Ok(true)
}
