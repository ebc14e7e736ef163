//! The served numerics, pinned. bench-moe-256 — the serving benchmark's
//! model and engine config, restated here — prefills a fixed 16-token
//! prompt and decodes 16 greedy steps. The FNV-1a digest over the
//! little-endian bytes of every logit's `f32::to_bits` (prefill rows,
//! then each decode row) and the 17 greedy tokens must read the same
//! under every kernel backend: the backend is a scheduling choice.
//!
//! The model runs K = 512 and K = 1 024 down projections, which span
//! several tiled K blocks, and its prefill buckets outgrow the hybrid
//! dispatch's crossover. A numerics change (a new kernel, a new
//! quantization) updates [`DIGEST`] and [`TOKENS`] here, once.
//!
//! Release only (about 20 s per engine in debug):
//! `cargo test --release --test served_digest -- --ignored`.

use ktransformers::core::{EngineConfig, HybridEngine, SchedMode};
use ktransformers::kernels::dispatch::Backend;
use ktransformers::model::model::argmax;
use ktransformers::model::{ModelConfig, ModelPreset};
use ktransformers::tensor::PrecisionPolicy;

/// Digest of every logit the fixed run serves.
const DIGEST: u64 = 0x6ec8_91e2_b46b_f876;

/// The run's greedy tokens: one from the prefill, one per decode step.
const TOKENS: [u32; 17] = [
    3723, 1645, 1141, 1049, 154, 1491, 1427, 2722, 2566, 3063, 4066, 2171, 445, 1417, 1839, 2276,
    278,
];

/// bench-moe-256: `ModelPreset::DeepSeekV3.tiny_config()` widened until
/// the routed experts stream more bytes per decode step than the L2
/// holds.
fn model_config() -> ModelConfig {
    ModelConfig {
        name: "bench-moe-256".into(),
        vocab: 4096,
        hidden: 256,
        n_layers: 4,
        n_dense_layers: 1,
        dense_inter: 1024,
        moe_inter: 512,
        n_routed_experts: 32,
        top_k: 8,
        n_heads: 4,
        head_dim: 64,
        max_seq: 2048,
        ..ModelPreset::DeepSeekV3.tiny_config()
    }
}

/// The benchmark's deployment (int4 routed experts in groups of 16, two
/// deferred experts, weight seed 31) on `backend`.
fn engine_config(backend: Backend) -> EngineConfig {
    EngineConfig {
        n_cpu_workers: 1,
        mode: SchedMode::AsyncGraph,
        n_deferred: 2,
        precision: PrecisionPolicy::quantized_serving(16),
        seed: 31,
        backend,
        ..Default::default()
    }
}

fn fold(mut h: u64, logits: &[f32]) -> u64 {
    for b in logits.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest and greedy tokens of the fixed run on `backend`.
fn served(backend: Backend) -> (u64, Vec<u32>) {
    let e = HybridEngine::random(&model_config(), engine_config(backend)).expect("engine");
    let prompt: Vec<u32> = (0..16).map(|i| (37 * i + 11) % 4096).collect();
    let mut cache = e.fresh_cache();
    let logits = e.forward(&prompt, &mut cache).expect("prefill");
    let mut h = fold(0xcbf2_9ce4_8422_2325, logits.as_slice());
    let mut tokens = vec![argmax(logits.row(logits.rows() - 1))];
    for _ in 0..16 {
        let logits = e
            .forward(&tokens[tokens.len() - 1..], &mut cache)
            .expect("decode");
        h = fold(h, logits.as_slice());
        tokens.push(argmax(logits.row(0)));
    }
    (h, tokens)
}

#[test]
#[ignore = "bench-moe-256; release only"]
fn served_digest_is_the_same_under_every_backend() {
    for backend in [
        Backend::HybridAmxAvx512,
        Backend::VectorOnly,
        Backend::TiledOnly,
    ] {
        let (digest, tokens) = served(backend);
        println!("{backend:?}: digest {digest:016x}, tokens {tokens:?}");
        assert_eq!(digest, DIGEST, "{backend:?}: digest {digest:016x}");
        assert_eq!(tokens, TOKENS, "{backend:?}");
    }
}
