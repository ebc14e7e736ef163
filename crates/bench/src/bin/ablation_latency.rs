//! Request-latency view, hardware-simulated: time-to-first-token
//! (prefill) and end-to-end latency for a representative full-scale
//! request, per system — the quantities a local-deployment user
//! actually feels. Measured serving percentiles are `kt_benchmark`'s
//! (`ttft_p50_ms`, `serve.ttft_p90_ms`, `serve.itl_tail_ms`).

use kt_bench::{section, table};
use kt_hwsim::policy::{simulate, Phase, SystemPolicy};
use kt_hwsim::workload::Precision;
use kt_hwsim::{Calibration, Platform};
use kt_model::ModelPreset;

fn main() {
    let cal = Calibration::default();
    let platform = Platform::a100_dual_xeon();
    let cfg = ModelPreset::DeepSeekV3.full_config();
    let prompt = 2048usize;
    let n_new = 256usize;
    section(&format!(
        "Request latency: DS-3 BF16 on A100, prompt {prompt}, {n_new} new tokens"
    ));
    let mut rows = Vec::new();
    for policy in [
        SystemPolicy::fiddler(),
        SystemPolicy::llamacpp(),
        SystemPolicy::ktransformers(),
        SystemPolicy::ktransformers_deferred(3),
    ] {
        let prefill = simulate(
            &policy,
            &platform,
            &cfg,
            Precision::Bf16,
            Precision::Bf16,
            Phase::Prefill { prompt },
            &cal,
        )
        .expect("prefill sim");
        let decode = simulate(
            &policy,
            &platform,
            &cfg,
            Precision::Bf16,
            Precision::Bf16,
            Phase::Decode {
                prompt,
                steps: 16,
            },
            &cal,
        )
        .expect("decode sim");
        let ttft = prompt as f64 / prefill.tokens_per_s;
        let decode_time = n_new as f64 / decode.tokens_per_s;
        rows.push(vec![
            policy.name.clone(),
            format!("{ttft:.1} s"),
            format!("{:.0} ms", 1000.0 / decode.tokens_per_s),
            format!("{:.1} s", ttft + decode_time),
        ]);
    }
    table(
        &["System", "Time to first token", "Per-token latency", "End-to-end"],
        &rows,
    );
    println!();
    println!("KTransformers' prefill advantage dominates TTFT; deferral only");
    println!("improves the decode tail (it is disabled during prefill).");
}
