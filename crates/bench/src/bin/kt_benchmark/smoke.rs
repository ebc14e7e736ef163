//! `--smoke`: all four workloads at one tenth length plus one traced
//! run, checked against `BENCHMARK.json` — every end-to-end and
//! per-layer name printed exactly once, with its unit and a finite
//! value, and the `verify` phase ran.

use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::{deploy, metrics, report, run_end_to_end, traced, DEFAULT_SECONDS};

/// `BENCHMARK.json` from the working directory or the nearest
/// ancestor of it (or of this package) that has one.
fn find_manifest() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    cwd.ancestors()
        .chain(package.ancestors())
        .map(|dir| dir.join("BENCHMARK.json"))
        .find(|p| p.is_file())
        .ok_or_else(|| "no BENCHMARK.json in the working directory or above it".to_string())
}

/// The `(name, unit)` pairs of one metric list of the manifest.
fn declared(manifest: &Value, list: &str) -> Result<Vec<(String, String)>, String> {
    manifest
        .get(list)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("{list}: entry without name/unit"))
        })
        .collect()
}

/// Checks that `BENCHMARK.json` and the code declare the same
/// workloads, metric names and units, in the same order. With that,
/// `Table::rows` — which refuses an unset, non-finite or undeclared
/// name — proves every declared name is printed exactly once.
fn check_manifest() -> Result<(), String> {
    let path = find_manifest()?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let specs: Vec<&str> = deploy::SPECS.iter().map(|s| s.name).collect();
    if workloads != specs {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != benchmark workloads {specs:?}"
        ));
    }
    for (list, have) in [
        ("end_to_end", metrics::END_TO_END),
        ("per_layer", metrics::PER_LAYER),
    ] {
        let want = declared(&doc, list)?;
        let have: Vec<(String, String)> = have
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if want != have {
            let odd: Vec<_> = want
                .iter()
                .filter(|w| !have.contains(w))
                .chain(have.iter().filter(|h| !want.contains(h)))
                .collect();
            return Err(format!(
                "BENCHMARK.json {list} and metrics.rs disagree on {odd:?} (or on order)"
            ));
        }
    }
    Ok(())
}

pub fn run() -> Result<bool, String> {
    check_manifest()?;
    let seconds = DEFAULT_SECONDS / 10.0;
    for spec in deploy::SPECS {
        let out = run_end_to_end(spec, 1, seconds, 1)?;
        // Not correct when, among other things, verify replayed nothing.
        if !report(&out) {
            return Err(format!("{}: the run was not correct", spec.name));
        }
    }
    let spec = &deploy::SPECS[0];
    let out = traced::run(spec, 1, seconds, None)?;
    if !report(&out) {
        return Err(format!("{} (traced): the run was not correct", spec.name));
    }
    println!(
        "smoke ok: {} workloads x {} end-to-end metrics, {} per-layer metrics, verify ran",
        deploy::SPECS.len(),
        metrics::END_TO_END.len(),
        metrics::PER_LAYER.len()
    );
    Ok(true)
}

#[cfg(test)]
mod tests {
    /// Always: `BENCHMARK.json` and the code declare the same
    /// workloads, names and units. Optimised builds
    /// (`cargo test --release`) also run the smoke itself; unoptimised,
    /// one decode token costs ~90 ms and the same run takes nine
    /// minutes, which no routine `cargo test --workspace` should pay.
    #[test]
    fn smoke_prints_every_declared_metric_once() {
        if cfg!(debug_assertions) {
            assert_eq!(super::check_manifest(), Ok(()));
        } else {
            assert_eq!(super::run(), Ok(true));
        }
    }
}
