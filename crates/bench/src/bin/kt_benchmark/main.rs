//! The serving benchmark: four workloads on one frozen deployment,
//! five end-to-end metrics, a per-layer table from a separate traced
//! run. See README.md beside this file; `BENCHMARK.json` at the repo
//! root names the command, the metrics and their regression bounds.
//!
//! ```text
//! kt_benchmark --workload decode_stream --seed 1 --seconds 22 --trace 0
//! kt_benchmark --seed 1                 # all four, one after another
//! kt_benchmark --workload prefill_long --trace 1   # per-layer table
//! kt_benchmark --smoke                  # every name printed once, verify ran
//! kt_benchmark --workload decode_stream --repeat 5 # medians, quartiles, range
//! ```

mod deploy;
mod driver;
mod json;
mod loadgen;
mod metrics;
mod probes;
mod procfs;
mod repeat;
mod smoke;
mod spans;
mod stats;
mod traced;

use std::process::ExitCode;

use deploy::Spec;
use metrics::Table;

/// Default length of a timed window (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 22.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    span_file: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: None,
        span_file: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if deploy::spec(&name).is_none() {
                    let known: Vec<&str> = deploy::SPECS.iter().map(|s| s.name).collect();
                    return Err(format!("unknown workload {name:?}; one of {known:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                };
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 || n > 100 {
                    return Err(format!("--repeat {n} is outside 1..=100"));
                }
                args.repeat = Some(n);
            }
            "--span-file" => args.span_file = Some(value("a path")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// What one run of one workload produced.
pub struct RunOutput {
    pub table: Table,
    pub correct: Result<(), String>,
    pub attempted: u64,
    pub failed: u64,
}

/// The untraced run: set-up (x `setup_reps`), warm-up, timed window,
/// verify. Prints the human-readable report as it goes.
fn run_end_to_end(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    setup_reps: usize,
) -> Result<RunOutput, String> {
    println!("== {} seed={seed} seconds={seconds} ==", spec.name);
    println!("   why: {}", spec.why);
    let (dep, setups) = driver::set_up_repeated(spec, setup_reps)?;
    let warm = driver::warm_up(&dep.server, spec, seed);
    let ticks = procfs::cpu_ticks();
    let window = driver::run_window(&dep.server, spec, seed, 0, seconds, &mut |_| {});
    let stolen = procfs::steal_frac(ticks, procfs::cpu_ticks());
    let verify = driver::verify(&dep.server, spec, seed, &window);
    let st = dep.server.stats();
    dep.server.shutdown();
    drop(dep.engine);
    let sum = driver::summarize(spec, &window, &verify.mismatched);
    driver::print_phases(&warm, &window, &verify, &sum, spec);
    println!(
        "   server (all phases): steps={} prefix hit_tokens={} evictions={} preempt swap={} recompute={} shed={}",
        st.steps, st.prefix_hit_tokens, st.prefix_evictions, st.preempt_swap, st.preempt_recompute, st.shed
    );

    let mut table = Table::new(metrics::END_TO_END);
    table.set(
        "setup_s",
        stats::median(&stats::sorted(setups)).unwrap_or(f64::NAN),
    );
    table.set("out_tok_s", sum.out_tok_s);
    table.set("in_tok_s", sum.in_tok_s);
    table.set("ttft_p50_ms", sum.ttft_p50_ms);
    table.set("goodput_frac", sum.goodput_frac);
    println!(
        "   peak rss: {:.1} MB; host CPU stolen during the window: {:.1}%",
        procfs::peak_rss_mb().unwrap_or(f64::NAN),
        stolen * 100.0
    );
    Ok(RunOutput {
        table,
        correct: driver::check(spec, &warm, &window.counts, &verify),
        attempted: window.counts.sent + verify.counts.sent,
        failed: driver::failed_operations(spec, &window.counts, &verify),
    })
}

/// Prints the metric rows and the result line; true when the run was
/// correct and every declared metric has a finite value.
fn report(out: &RunOutput) -> bool {
    let rows = match out.table.rows() {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("kt_benchmark: {e}");
            return false;
        }
    };
    for (name, unit, value) in &rows {
        println!("   {name:<36} {value:>16.6} {unit}");
    }
    if let Err(e) = &out.correct {
        println!("   INCORRECT: {e}");
    }
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct.is_ok(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    out.correct.is_ok()
}

fn run_one(spec: &Spec, args: &Args) -> Result<bool, String> {
    let out = if args.trace {
        traced::run(spec, args.seed, args.seconds, args.span_file.as_deref())?
    } else {
        run_end_to_end(spec, args.seed, args.seconds, SETUP_REPS)?
    };
    Ok(report(&out))
}

fn run(args: &Args) -> Result<bool, String> {
    if args.smoke {
        return smoke::run();
    }
    if let Some(n) = args.repeat {
        return repeat::run(args, n);
    }
    let mut ok = true;
    for spec in deploy::SPECS {
        if args.workload.as_deref().is_none_or(|w| w == spec.name) {
            ok &= run_one(spec, args)?;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kt_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("kt_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
