//! Dynamic expert placement ablation: the live cost-model-driven
//! placement (a nonzero `expert_cache_bytes` budget for the value-aware
//! VRAM expert cache) versus the paper's static all-CPU expert split
//! (the zero-byte cache), on the real engine.
//!
//! Routing is imposed through the engine's routing-override hook so
//! both arms of a pair see the *identical* deterministic token→expert
//! stream:
//!
//! * **skewed** — Zipf(s=1.2) expert popularity: a handful of hot
//!   experts carry most of the gating mass, so the cache admits them,
//!   they run on the vGPU, and the CPU worker only sees the cold
//!   tail — CPU and vGPU expert work genuinely overlap.
//! * **uniform** — Zipf(s=0): no expert is persistently hot, the
//!   value function admits little, and dynamic placement must cost
//!   (almost) nothing over the static split.
//! * **cold cache** — skewed routing but a budget of one expert:
//!   value-driven admission must degrade gracefully instead of
//!   thrashing uploads.
//!
//! Correctness rider: dynamic placement partitions the immediate
//! routing by whole expert and merges bucket outputs in the same
//! serial expert order the CPU path uses, so logits are checked
//! **bitwise** against the static split before anything is timed.
//!
//! Headline metric: the **expert-phase critical path**, measured from
//! kt-trace spans (real host kernel durations, not simulated):
//!
//! ```text
//! crit = max(Σ cpu expert span ns, Σ vGPU expert span ns) + Σ merge ns
//! ```
//!
//! Under the static split the vGPU term is zero, so `crit` is the full
//! serial CPU expert time; under dynamic placement the two device
//! tracks run concurrently and only the bitwise-ordered merge is
//! serial. This is the latency the schedule achieves whenever the CPU
//! worker and the device thread have a core each — wall-clock decode
//! tok/s is also measured and reported, but on a container with a
//! single CPU core (CI runners included) every thread timeshares one
//! core and *no* placement policy can change wall-clock, so the gate
//! is on the span metric. Both appear in `BENCH_placement.json`
//! together with the core count the run observed.
//!
//! Modes:
//! * default — all arms, writes `BENCH_placement.json` (run from the
//!   repo root).
//! * `--smoke` — CI gate: the bitwise check above, skewed-routing
//!   expert-critical-path speedup ≥ 1.2x the static split, and
//!   uniform-arm critical-path regression ≤ 3%; exits nonzero
//!   otherwise.

use kt_bench::{section, table};
use kt_core::{EngineConfig, HybridEngine, SchedMode};
use kt_kernels::moe::MoeRouting;
use kt_model::ModelPreset;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Zipf exponent of the skewed arm.
const SKEW: f64 = 1.2;
/// Expert-cache budget of the bounded arms, in expert-slots. The cache
/// is keyed by (layer, expert) and the budget spans all four MoE
/// layers, so 24 slots ≈ 6 hot experts per layer — 19% of the 128
/// (layer, expert) pairs.
const CACHE_EXPERTS: usize = 24;
/// Timed decode steps of the wall-clock arms (expert-heavy config,
/// ~1-2 ms/step).
const N_DECODE: usize = 192;
const REPS: usize = 5;
/// Decode steps of one traced (span-measured) rep.
const N_TRACED: usize = 96;
const TRACED_REPS: usize = 3;

/// Placement-arm model: the DS-3 tiny preset scaled so routed-expert
/// compute dominates the decode step (moe_inter 48 → 512, 16 → 32
/// experts, vocab 8192 → 512). With the tiny preset as-is the LM head
/// GEMM rivals total expert work, the device thread is never idle, and
/// no placement policy could buy anything — the interesting regime is
/// the paper's: CPU expert time on the critical path. `cache_bytes = 0`
/// is the static split.
fn mk_engine(cache_bytes: usize) -> HybridEngine {
    let mut cfg = ModelPreset::DeepSeekV3.tiny_config();
    cfg.vocab = 512;
    cfg.moe_inter = 512;
    cfg.n_routed_experts = 32;
    HybridEngine::random(
        &cfg,
        EngineConfig {
            n_cpu_workers: 1,
            mode: SchedMode::AsyncGraph,
            n_deferred: 2,
            expert_cache_bytes: cache_bytes,
            seed: 17,
            ..Default::default()
        },
    )
    .expect("engine")
}

/// Deterministic Zipf(s) routing override (s = 0 is uniform): each
/// row's `top_k` distinct experts are drawn from a Zipf rank
/// distribution seeded by (call counter, layer, row). The engine's
/// single control thread fixes the call order, so two arms started
/// with fresh hooks and the same token stream see the identical
/// routing sequence — which is what makes the bitwise cross-check and
/// the timing comparison apples-to-apples.
fn zipf_hook(
    n_experts: usize,
    top_k: usize,
    s: f64,
) -> impl Fn(usize, usize) -> Option<MoeRouting> + Send + Sync {
    // Inverse-CDF table over expert ranks: weight(e) = 1/(e+1)^s.
    let mut cdf = Vec::with_capacity(n_experts);
    let mut acc = 0.0f64;
    for e in 0..n_experts {
        acc += 1.0 / ((e + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    let calls = AtomicU64::new(0);
    move |layer, rows| {
        let c = calls.fetch_add(1, Ordering::Relaxed);
        let mut assignments = Vec::with_capacity(rows);
        for row in 0..rows {
            let mut x = (c.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                ^ ((layer as u64) << 32)
                ^ ((row as u64) << 16)
                ^ 0x243F_6A88_85A3_08D3;
            let mut picked: Vec<usize> = Vec::with_capacity(top_k);
            while picked.len() < top_k {
                // xorshift64 draw → inverse CDF.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64 * total;
                let e = cdf.partition_point(|&v| v < u).min(n_experts - 1);
                if !picked.contains(&e) {
                    picked.push(e);
                }
            }
            let w = 1.0 / top_k as f32;
            assignments.push(picked.into_iter().map(|e| (e, w)).collect());
        }
        Some(MoeRouting::new(assignments))
    }
}

fn install_hook(engine: &HybridEngine, s: f64) {
    let cfg = engine.config().clone();
    engine.set_routing_override(zipf_hook(cfg.n_routed_experts, cfg.top_k, s));
}

/// Prefill + `steps` greedy decode steps, every logits matrix as raw
/// bits (bitwise identity, not float equality).
fn logits_bits(cache_bytes: usize, s: f64, steps: usize) -> Vec<Vec<u32>> {
    let engine = mk_engine(cache_bytes);
    install_hook(&engine, s);
    let mut out = Vec::with_capacity(steps + 1);
    let l = engine.forward(&[1, 2, 3]).expect("prefill");
    let mut next = kt_model::model::argmax(l.row(l.rows() - 1));
    out.push(l.as_slice().iter().map(|v| v.to_bits()).collect());
    engine.recycle_logits(l);
    for _ in 0..steps {
        let l = engine.forward(&[next]).expect("decode");
        next = kt_model::model::argmax(l.row(0));
        out.push(l.as_slice().iter().map(|v| v.to_bits()).collect());
        engine.recycle_logits(l);
    }
    out
}

/// Single-stream decode throughput, `ablation_hotpath` methodology
/// (prefill, 2 warmups, `steps` timed steps), with Zipf(`s`) routing
/// imposed.
fn decode_tokens_per_s(engine: HybridEngine, s: f64, steps: usize) -> f64 {
    install_hook(&engine, s);
    let logits = engine.forward(&[1, 2, 3]).expect("prefill");
    let mut next = kt_model::model::argmax(logits.row(logits.rows() - 1));
    engine.recycle_logits(logits);
    for _ in 0..2 {
        let l = engine.forward(&[next]).expect("warmup");
        next = kt_model::model::argmax(l.row(0));
        engine.recycle_logits(l);
    }
    let start = Instant::now();
    for _ in 0..steps {
        let l = engine.forward(&[next]).expect("decode");
        next = kt_model::model::argmax(l.row(0));
        engine.recycle_logits(l);
    }
    let tok_s = steps as f64 / start.elapsed().as_secs_f64();
    if std::env::var_os("KT_PLACEMENT_DEBUG").is_some() {
        if let Some(s) = engine.expert_cache_stats() {
            eprintln!("  [debug] cache {s:?}");
        }
    }
    tok_s
}

/// Expert-phase span totals over one traced decode run, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
struct ExpertPhase {
    /// CPU worker expert execution (immediate + deferred spans).
    cpu_ns: u64,
    /// vGPU routed-expert execution (dynamic placement only).
    gpu_ns: u64,
    /// Serial merge work in the merge op (scatter-add spans).
    merge_ns: u64,
    /// Device-track non-expert work (attention, shared experts, LM
    /// head) — context for judging whether the device track could
    /// become the bottleneck.
    device_other_ns: u64,
}

impl ExpertPhase {
    /// Critical-path ns assuming the CPU worker and the device thread
    /// run concurrently (they do whenever the host grants each thread
    /// a core): the slower expert track, plus the serial merge.
    fn critical_ns(&self) -> u64 {
        self.cpu_ns.max(self.gpu_ns) + self.merge_ns
    }
}

/// Runs `steps` decode steps with kt-trace enabled and aggregates the
/// expert-phase spans. Durations are real measured host kernel times;
/// only the *aggregation* assumes the two tracks overlap.
fn expert_phase(cache_bytes: usize, s: f64, steps: usize) -> ExpertPhase {
    use kt_trace::SpanKind;
    let engine = mk_engine(cache_bytes);
    install_hook(&engine, s);
    let logits = engine.forward(&[1, 2, 3]).expect("prefill");
    let mut next = kt_model::model::argmax(logits.row(logits.rows() - 1));
    engine.recycle_logits(logits);
    for _ in 0..2 {
        let l = engine.forward(&[next]).expect("warmup");
        next = kt_model::model::argmax(l.row(0));
        engine.recycle_logits(l);
    }
    kt_trace::enable();
    let t0 = kt_trace::now_ns();
    for _ in 0..steps {
        let l = engine.forward(&[next]).expect("decode");
        next = kt_model::model::argmax(l.row(0));
        engine.recycle_logits(l);
    }
    let snap = kt_trace::sink().snapshot();
    kt_trace::disable();
    let mut p = ExpertPhase::default();
    for sp in &snap.spans {
        if sp.start_ns < t0 {
            continue; // an earlier arm's spans, or warmup
        }
        match sp.kind {
            SpanKind::CpuExpertImmediate | SpanKind::CpuExpertDeferred => p.cpu_ns += sp.dur_ns,
            SpanKind::GpuExperts => p.gpu_ns += sp.dur_ns,
            SpanKind::ScatterAdd => p.merge_ns += sp.dur_ns,
            SpanKind::Attention | SpanKind::SharedExperts | SpanKind::LmHead => {
                p.device_other_ns += sp.dur_ns
            }
            _ => {}
        }
    }
    p
}

/// Median-by-critical-path of `TRACED_REPS` traced runs.
fn traced_arm(cache_bytes: usize, s: f64) -> ExpertPhase {
    let mut reps: Vec<ExpertPhase> = (0..TRACED_REPS)
        .map(|_| expert_phase(cache_bytes, s, N_TRACED))
        .collect();
    reps.sort_by_key(|p| p.critical_ns());
    reps[reps.len() / 2]
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn fmt_samples(xs: &[f64]) -> String {
    let cells: Vec<String> = xs.iter().map(|v| format!("{v:.1}")).collect();
    format!("[{}]", cells.join(", "))
}

struct Arm {
    label: &'static str,
    samples: Vec<f64>,
    median: f64,
}

fn run_arm(label: &'static str, cache_bytes: usize, s: f64) -> Arm {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| decode_tokens_per_s(mk_engine(cache_bytes), s, N_DECODE))
        .collect();
    let median = median(&mut samples);
    Arm { label, samples, median }
}

fn arm_json(a: &Arm) -> String {
    format!(
        r#"    "{}": {{"samples": {}, "median": {:.1}}}"#,
        a.label,
        fmt_samples(&a.samples),
        a.median
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    // Cache budgets in bytes, probed from the live expert weights.
    let expert_bytes = mk_engine(0)
        .expert_weight_bytes()
        .expect("model has routed experts");
    let bounded = CACHE_EXPERTS * expert_bytes;
    let cold = expert_bytes;

    section(&format!(
        "Dynamic expert placement vs static split: DS-3 tiny, moe_inter=512, \
         32 experts, 1 CPU worker, cache {CACHE_EXPERTS} experts ({bounded} B), Zipf s = {SKEW}"
    ));

    // Correctness before speed: dynamic placement must reproduce the
    // static split's logits bit for bit under both routing regimes,
    // including the one-expert cold cache (maximum churn).
    for (s, cache, what) in [
        (SKEW, bounded, "skewed/bounded"),
        (0.0, bounded, "uniform/bounded"),
        (SKEW, cold, "skewed/cold"),
    ] {
        let want = logits_bits(0, s, 48);
        let got = logits_bits(cache, s, 48);
        assert_eq!(want, got, "{what}: dynamic placement changed the bits");
    }
    println!("bitwise check: dynamic == static over 48 decode steps (skewed, uniform, cold cache)");

    // Span-measured expert-phase critical paths (the headline metric:
    // see the module docs for why wall-clock cannot move on a 1-core
    // container).
    let tr_static_skew = traced_arm(0, SKEW);
    let tr_dyn_skew = traced_arm(bounded, SKEW);
    let tr_static_uni = traced_arm(0, 0.0);
    let tr_dyn_uni = traced_arm(bounded, 0.0);
    let speedup = tr_static_skew.critical_ns() as f64 / tr_dyn_skew.critical_ns() as f64;
    let uniform_ratio = tr_static_uni.critical_ns() as f64 / tr_dyn_uni.critical_ns() as f64;

    let traced = [
        ("static_skewed", &tr_static_skew),
        ("dynamic_skewed", &tr_dyn_skew),
        ("static_uniform", &tr_static_uni),
        ("dynamic_uniform", &tr_dyn_uni),
    ];
    let us = |ns: u64| format!("{:.0}", ns as f64 / (N_TRACED as f64 * 1e3));
    let rows: Vec<Vec<String>> = traced
        .iter()
        .map(|(label, p)| {
            vec![
                (*label).into(),
                us(p.cpu_ns),
                us(p.gpu_ns),
                us(p.merge_ns),
                us(p.device_other_ns),
                us(p.critical_ns()),
            ]
        })
        .collect();
    table(
        &[
            "Arm",
            "CPU experts µs/step",
            "vGPU experts µs/step",
            "merge µs/step",
            "device other µs/step",
            "expert crit µs/step",
        ],
        &rows,
    );

    // Wall-clock arms (reported for transparency, not gated).
    let static_skew = run_arm("static_skewed", 0, SKEW);
    let dyn_skew = run_arm("dynamic_skewed", bounded, SKEW);
    let static_uni = run_arm("static_uniform", 0, 0.0);
    let dyn_uni = run_arm("dynamic_uniform", bounded, 0.0);
    let dyn_cold = run_arm("dynamic_skewed_cold_cache", cold, SKEW);

    let arms = [&static_skew, &dyn_skew, &static_uni, &dyn_uni, &dyn_cold];
    let rows: Vec<Vec<String>> = arms
        .iter()
        .map(|a| vec![a.label.into(), format!("{:.1}", a.median), fmt_samples(&a.samples)])
        .collect();
    println!();
    table(&["Arm", "Decode tok/s (median, wall-clock)", "Samples"], &rows);

    println!();
    println!(
        "skewed_speedup {speedup:.2}x (expert critical path: static {} µs/step vs dynamic {} µs/step)",
        us(tr_static_skew.critical_ns()),
        us(tr_dyn_skew.critical_ns()),
    );
    println!("uniform_ratio {uniform_ratio:.3} (critical-path regression beyond 3% fails the gate)");

    let mut failures = Vec::new();
    if speedup < 1.2 {
        failures.push(format!(
            "skewed-routing expert-critical-path speedup {speedup:.2}x below the 1.2x gate"
        ));
    }
    if uniform_ratio < 0.97 {
        failures.push(format!(
            "uniform-routing arm critical path regressed {:.1}% (> 3%)",
            (1.0 - uniform_ratio) * 100.0
        ));
    }

    if smoke {
        if failures.is_empty() {
            println!("SMOKE OK: skewed {speedup:.2}x >= 1.2x, uniform ratio {uniform_ratio:.3}");
        } else {
            for f in &failures {
                eprintln!("SMOKE FAIL: {f}");
            }
            std::process::exit(1);
        }
        return;
    }
    for f in &failures {
        eprintln!("WARNING: {f}");
    }

    let json = format!(
        r#"{{
  "bench": "ablation_placement",
  "workload": {{
    "model": "DeepSeekV3 tiny preset scaled expert-heavy: moe_inter=512, n_routed_experts=32, vocab=512",
    "engine": "n_cpu_workers=1, mode=AsyncGraph, n_deferred=2, seed=17; static = expert_cache_bytes 0",
    "routing": "deterministic Zipf routing override shared by both arms of each pair; s={SKEW} skewed, s=0 uniform",
    "expert_cache": "bounded = {CACHE_EXPERTS} experts ({bounded} B), cold = 1 expert ({cold} B)"
  }},
  "method": "headline: expert-phase critical path from kt-trace spans (max(cpu expert ns, vgpu expert ns) + merge ns; measured host kernel durations over {N_TRACED} decode steps, median of {TRACED_REPS} reps); wall-clock: single-stream decode, ablation_hotpath methodology (2 warmups, {N_DECODE} timed steps), {REPS} reps, median; dynamic-vs-static logits checked bitwise over 48 decode steps (skewed, uniform, and cold-cache) before timing",
  "cores_observed": {cores},
  "expert_critical_path_us_per_step": {{
{traced_json}
  }},
  "skewed_speedup": {speedup:.3},
  "uniform_ratio": {uniform_ratio:.3},
  "wall_clock_arms": {{
{arms_json}
  }},
  "bitwise_identical": true
}}
"#,
        cores = std::thread::available_parallelism().map_or(0, |n| n.get()),
        traced_json = traced
            .iter()
            .map(|(label, p)| {
                format!(
                    r#"    "{label}": {{"cpu": {}, "vgpu": {}, "merge": {}, "device_other": {}, "critical": {}}}"#,
                    us(p.cpu_ns),
                    us(p.gpu_ns),
                    us(p.merge_ns),
                    us(p.device_other_ns),
                    us(p.critical_ns()),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
        arms_json = arms.iter().map(|a| arm_json(a)).collect::<Vec<_>>().join(",\n"),
    );
    std::fs::write("BENCH_placement.json", &json).expect("write BENCH_placement.json");
    println!();
    println!("wrote BENCH_placement.json");
}
