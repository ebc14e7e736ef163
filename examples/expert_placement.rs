//! Dynamic expert placement — the one way a routed expert reaches the
//! (virtual) GPU. A nonzero `expert_cache_bytes` budget lets the engine
//! split each MoE layer's experts between CPU and vGPU per step by
//! calibrated cost, with a value-aware cache deciding which experts
//! are device-resident; `0` is the paper's static all-CPU split.
//! Placement is pure scheduling: logits are bitwise identical to the
//! zero-byte run.
//!
//! Run with: `cargo run --release --example expert_placement`

use ktransformers::core::{EngineConfig, HybridEngine, SchedMode};
use ktransformers::model::{ModelConfig, ModelPreset};

/// Routed experts per MoE layer the cache budget holds.
const CACHED_PER_LAYER: usize = 4;

fn engine(cfg: &ModelConfig, expert_cache_bytes: usize) -> HybridEngine {
    HybridEngine::random(
        cfg,
        EngineConfig {
            n_cpu_workers: 2,
            mode: SchedMode::AsyncGraph,
            expert_cache_bytes,
            seed: 77,
            ..Default::default()
        },
    )
    .expect("engine")
}

/// Prefill + 12 greedy decode steps; every logits matrix as raw bits.
fn logits_bits(engine: &HybridEngine, prompt: &[u32]) -> Vec<Vec<u32>> {
    engine.reset();
    let mut logits = engine.forward(prompt).expect("prefill");
    let mut out = Vec::new();
    for _ in 0..12 {
        out.push(logits.as_slice().iter().map(|v| v.to_bits()).collect());
        let next = ktransformers::model::model::argmax(logits.row(logits.rows() - 1));
        logits = engine.forward(&[next]).expect("decode");
    }
    out
}

fn main() {
    // Qwen2-style architecture: without shared experts, routed-expert
    // popularity is the whole placement story.
    let cfg = ModelPreset::Qwen2Moe.tiny_config();
    let static_split = engine(&cfg, 0);
    let one = static_split
        .expert_weight_bytes()
        .expect("model has routed experts");
    let budget = CACHED_PER_LAYER * cfg.n_moe_layers() * one;
    let dynamic = engine(&cfg, budget);
    println!(
        "expert cache budget: {budget} B = {CACHED_PER_LAYER} experts x {} MoE layers x {one} B",
        cfg.n_moe_layers()
    );

    // 1. Same traffic through both engines: identical logits, bit for bit.
    let prompts: [&[u32]; 3] = [&[1, 2, 3, 4, 5], &[90, 12, 44], &[200, 201, 202, 203]];
    for p in prompts {
        assert_eq!(
            logits_bits(&static_split, p),
            logits_bits(&dynamic, p),
            "placement must not change a single bit"
        );
    }
    println!(
        "logits bitwise identical to the zero-byte (all-CPU) run over {} prompts",
        prompts.len()
    );

    // 2. The routing skew the cache feeds on: share of one layer's
    //    activations taken by its hottest experts.
    let profile = dynamic.expert_profile();
    let layer = cfg.n_dense_layers;
    let mut counts: Vec<u64> = (0..profile.n_experts())
        .map(|e| profile.count(layer, e))
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let hot: u64 = counts.iter().take(CACHED_PER_LAYER).sum();
    println!(
        "layer {layer}: hottest {CACHED_PER_LAYER} of {} experts take {:.0}% of {} activations (uniform: {:.0}%)",
        counts.len(),
        100.0 * hot as f64 / profile.total(layer).max(1) as f64,
        profile.total(layer),
        100.0 * CACHED_PER_LAYER as f64 / counts.len() as f64,
    );

    // 3. What the cache did with it.
    let s = dynamic
        .expert_cache_stats()
        .expect("a nonzero budget runs the cache");
    println!(
        "expert cache: {} hits, {} misses, {} insertions, {} evictions; {} experts ({} B) resident",
        s.hits, s.misses, s.insertions, s.evictions, s.resident_entries, s.resident_bytes
    );
    assert!(
        static_split.expert_cache_stats().is_none(),
        "zero bytes = no cache"
    );
}
