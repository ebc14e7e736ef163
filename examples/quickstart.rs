//! Quickstart: build a (scaled-down) DeepSeek-V3-architecture MoE model
//! and serve it with the KTransformers hybrid engine.
//!
//! Run with: `cargo run --release --example quickstart`

use ktransformers::core::{EngineConfig, HybridEngine, SchedMode};
use ktransformers::model::model::argmax;
use ktransformers::model::ModelPreset;
use ktransformers::tensor::{PrecisionPolicy, WeightDtype};

fn main() {
    // 1. Pick an architecture. `tiny_config` keeps DeepSeek-V3's shape
    //    (grouped sigmoid top-k routing, shared expert, MLA attention,
    //    leading dense layer) at laptop scale; `full_config` carries
    //    the real 671B dimensions for the simulator.
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    println!("model: {} ({} layers, {} routed experts, top-{})",
        cfg.name, cfg.n_layers, cfg.n_routed_experts, cfg.top_k);

    // 2. Build the hybrid engine: routed experts quantized to Int4 on
    //    the CPU backend, everything else on the virtual GPU, the whole
    //    decode path captured in a single graph, 3 experts deferred.
    let engine = HybridEngine::random(
        &cfg,
        EngineConfig {
            n_cpu_workers: 2,
            mode: SchedMode::AsyncGraph,
            n_deferred: 3,
            precision: PrecisionPolicy::experts(WeightDtype::Int4 { group: 16 }),
            seed: 42,
            ..Default::default()
        },
    )
    .expect("engine construction");

    // 3. Prefill a real text prompt (byte-level tokenizer: the tiny
    //    models use a 256-entry vocabulary, so UTF-8 bytes ARE tokens)
    //    and decode greedily. The conversation's KV cache is ours: the
    //    engine owns none (`generate_greedy` does the same on a fresh
    //    cache). The weights are random, so the output is gibberish —
    //    the point is the full serving path.
    let prompt = ktransformers::model::tokenizer::encode("MoE models are ");
    let mut cache = engine.fresh_cache();
    let logits = engine.forward(&prompt, &mut cache).expect("prefill");
    let mut generated = vec![argmax(logits.row(logits.rows() - 1))];
    while generated.len() < 16 {
        let last = generated[generated.len() - 1];
        let logits = engine.forward(&[last], &mut cache).expect("decode");
        generated.push(argmax(logits.row(0)));
    }
    println!("prompt tokens:    {prompt:?}");
    println!("generated tokens: {generated:?}");
    println!(
        "decoded (random weights => noise): {:?}",
        ktransformers::model::tokenizer::decode(&generated)
    );

    // 4. Inspect the scheduling stats: the decode path replays ONE
    //    graph per token instead of launching every op.
    let stats = engine.launch_stats();
    println!(
        "launches: {} individual kernels, {} graph replays covering {} ops",
        stats.kernel_launches, stats.graph_replays, stats.graph_ops
    );
    assert!(stats.graph_replays >= 15);
}
