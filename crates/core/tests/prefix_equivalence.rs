//! Engine-level property test for shared-prefix KV reuse: a batch that
//! prefills only the *uncached suffix* of a prompt on a prefix-seeded
//! cache must produce **bitwise** the same logits and final cache state
//! as a batch that cold-prefills the whole prompt — while a concurrent decode row rides in both
//! batches, pinning that seeding one sequence cannot perturb another.
//!
//! This is the end-to-end contract the serving layer's warm-admission
//! path stands on. The model-layer proptests next door in `kt-model`
//! cover every page size and unaligned prefix per attention kind;
//! here the full engine runs — routing, shared/routed experts, expert
//! deferral, the LM head — over both tiny presets (MLA and GQA) and
//! every expert weight dtype, on the deployed kernel backend.

use kt_core::{BatchSeq, EngineConfig, HybridEngine, SchedMode};
use kt_model::prefix::{PrefixCache, PrefixCacheConfig};
use kt_model::{KvCache, ModelPreset};
use kt_tensor::{PrecisionPolicy, WeightDtype};
use proptest::prelude::*;

fn dtype_strategy() -> impl Strategy<Value = WeightDtype> {
    prop_oneof![
        Just(WeightDtype::F32),
        Just(WeightDtype::Bf16),
        Just(WeightDtype::Int8 { group: 8 }),
        Just(WeightDtype::Int4 { group: 8 }),
    ]
}

/// Asserts two multi-layer caches are bitwise identical.
fn assert_same_cache(a: &KvCache, b: &KvCache) {
    assert_eq!(a.n_layers(), b.n_layers());
    for i in 0..a.n_layers() {
        let (la, lb) = (a.layer(i), b.layer(i));
        assert_eq!(la.len(), lb.len(), "layer {i} length diverged");
        for pos in 0..la.len() {
            assert_eq!(la.k_row(pos), lb.k_row(pos), "layer {i} k row {pos}");
            assert_eq!(la.v_row(pos), lb.v_row(pos), "layer {i} v row {pos}");
        }
    }
}

proptest! {
    // Each case builds a full (tiny) engine; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prefix_seeded_batch_logits_are_bitwise_identical_to_cold_prefill(
        seed in 0u64..100,
        prompt_len in 4usize..14,
        split_raw in 1usize..64,
        dtype in dtype_strategy(),
        mla in any::<bool>(),
    ) {
        let preset = if mla { ModelPreset::DeepSeekV3 } else { ModelPreset::Qwen2Moe };
        let cfg = preset.tiny_config();
        let engine = HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                precision: PrecisionPolicy::experts(dtype),
                seed,
                ..Default::default()
            },
        )
        .unwrap();
        let m = 1 + split_raw % (prompt_len - 1); // seeded prefix, 1..prompt_len
        let prompt: Vec<u32> =
            (0..prompt_len).map(|i| ((i as u64 * 31 + seed * 7) % 256) as u32).collect();

        // The concurrent decode row's own history, shared bitwise by
        // both runs (KvCache is a deep clone).
        let mut setup = vec![BatchSeq::prefill(engine.fresh_cache(), vec![9, 17, 23])];
        engine.forward_batch(&mut setup).unwrap();
        let d_cache = setup.remove(0).cache;

        // Cold: whole prompt in one prefill, decode row alongside.
        let mut cold_batch = vec![
            BatchSeq::prefill(engine.fresh_cache(), prompt.clone()),
            BatchSeq::decode(d_cache.clone(), 7),
        ];
        let cold = engine.forward_batch(&mut cold_batch).unwrap();
        let cold_prefill = cold[0].as_ref().unwrap();
        let cold_decode = cold[1].as_ref().unwrap();
        let cold_cache = std::mem::take(&mut cold_batch[0].cache);
        let cold_d_cache = std::mem::take(&mut cold_batch[1].cache);

        // Freeze the first m positions of the cold cache and seed a
        // fresh lease-alike from the index, exactly as admission does.
        let px = PrefixCache::new(PrefixCacheConfig {
            capacity_bytes: 32 << 20,
            min_prefix_len: 1,
        });
        px.insert(&prompt[..m], &cold_cache);
        let mat = px.lookup(&prompt).expect("inserted prefix must hit");
        prop_assert_eq!(mat.len(), m);
        let mut warm_cache = engine.fresh_cache();
        mat.seed_into(&mut warm_cache).unwrap();
        // The engine's cache invariant check accepts the seeded cache
        // as a legal partially-prefilled one.
        engine.validate_cache(&warm_cache).unwrap();

        // Warm: only the uncached suffix prefills; same decode row.
        let mut warm_batch = vec![
            BatchSeq::prefill(warm_cache, prompt[m..].to_vec()),
            BatchSeq::decode(d_cache.clone(), 7),
        ];
        let warm = engine.forward_batch(&mut warm_batch).unwrap();
        let warm_prefill = warm[0].as_ref().unwrap();
        let warm_decode = warm[1].as_ref().unwrap();

        // Suffix logits match the cold run's suffix rows bit for bit.
        prop_assert_eq!(warm_prefill.rows(), prompt_len - m);
        for t in 0..prompt_len - m {
            prop_assert_eq!(
                warm_prefill.row(t),
                cold_prefill.row(m + t),
                "suffix logits row {} diverged (split {}/{}, {})",
                t, m, prompt_len, cfg.name
            );
        }
        // The concurrent decode row is untouched by how its batchmate
        // was seeded.
        prop_assert_eq!(warm_decode.as_slice(), cold_decode.as_slice());

        // Final KV state is bitwise identical, for the
        // seeded sequence and the decode row alike.
        assert_same_cache(&cold_cache, &warm_batch[0].cache);
        assert_same_cache(&cold_d_cache, &warm_batch[1].cache);
    }
}
