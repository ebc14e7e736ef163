//! Expert Deferral trade-off study on a live engine: throughput gain
//! (with realistic injected launch latencies) against output
//! divergence, sweeping the number of deferred experts.
//!
//! Run with: `cargo run --release --example deferral_tradeoff`

use ktransformers::core::{EngineConfig, HybridEngine, SchedMode, VgpuConfig};
use ktransformers::eval::{kl_divergence, top1_agreement};
use ktransformers::model::ModelPreset;
use std::time::{Duration, Instant};

fn main() {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let prompt = [3u32, 17, 40, 99, 7];
    let n_new = 12;

    let build = |n_deferred: usize| {
        HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred,
                vgpu: VgpuConfig {
                    launch_latency: Duration::from_micros(5),
                    graph_launch_latency: Duration::from_micros(5),
                },
                seed: 9,
                ..Default::default()
            },
        )
        .expect("engine")
    };

    // Reference logits from the standard path.
    let reference = build(0);
    let ref_logits = collect_decode_logits(&reference, &prompt, n_new);

    println!("deferred  tok/s     KL vs standard  greedy agreement");
    for n_def in [0usize, 1, 2, 3, 4, 5] {
        let engine = build(n_def);
        // Warm up the step workspaces (the decode graph was captured at
        // construction), then time a new conversation's decoding.
        let _ = engine.generate_greedy(&prompt, 2).expect("warmup");
        let start = Instant::now();
        let logits = collect_decode_logits(&engine, &prompt, n_new);
        let elapsed = start.elapsed().as_secs_f64();
        let tput = n_new as f64 / elapsed;

        let mut kl = 0.0;
        let mut agree = 0usize;
        for (a, b) in ref_logits.iter().zip(&logits) {
            kl += kl_divergence(a, b);
            agree += usize::from(top1_agreement(a, b));
        }
        println!(
            "{:<8}  {:<8.1}  {:<14.5}  {}/{}",
            n_def,
            tput,
            kl / n_new as f64,
            agree,
            n_new
        );
    }
    println!();
    println!("Deferring more experts increases CPU/GPU overlap (speed) while the");
    println!("residual architecture keeps outputs close — the Figure 10/13 trade.");
}

/// Prefills `prompt` on a fresh cache, decodes `n_new` greedy tokens,
/// returning each step's logits.
fn collect_decode_logits(engine: &HybridEngine, prompt: &[u32], n_new: usize) -> Vec<Vec<f32>> {
    let mut cache = engine.fresh_cache();
    let logits = engine.forward(prompt, &mut cache).expect("prefill");
    let mut out = Vec::with_capacity(n_new);
    let mut next = ktransformers::model::model::argmax(logits.row(logits.rows() - 1));
    for _ in 0..n_new {
        let l = engine.forward(&[next], &mut cache).expect("decode");
        let row = l.row(0).to_vec();
        next = ktransformers::model::model::argmax(&row);
        out.push(row);
    }
    out
}
