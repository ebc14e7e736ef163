//! Cross-crate property-based tests on the system's core invariants.

use ktransformers::core::{BatchSeq, EngineConfig, HybridEngine, SchedMode};
use ktransformers::kernels::dispatch::Backend;
use ktransformers::model::ModelPreset;
use ktransformers::kernels::gemm::gemm_auto;
use ktransformers::kernels::moe::{ExpertWeights, FusedMoE, MoeRouting};
use ktransformers::kernels::schedule::SchedulePolicy;
use ktransformers::tensor::rng::seeded;
use ktransformers::tensor::{Matrix, PackedWeights, WeightDtype};
use proptest::prelude::*;

fn routing_strategy(
    n_tokens: usize,
    n_experts: usize,
) -> impl Strategy<Value = MoeRouting> {
    proptest::collection::vec(
        proptest::collection::vec((0..n_experts, 0.05f32..1.0), 0..=4),
        n_tokens..=n_tokens,
    )
    .prop_map(|mut a| {
        // De-duplicate experts per token (routers never pick twice).
        for row in &mut a {
            row.sort_by_key(|&(e, _)| e);
            row.dedup_by_key(|&mut (e, _)| e);
        }
        MoeRouting::new(a)
    })
}

/// Greedy pick: highest logit, earliest index on ties.
fn argmax(row: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best as u32
}

/// Turns proptest-drawn raw cut sizes into an exact cover of `total`.
fn chunks_covering(total: usize, raw: &[usize]) -> Vec<usize> {
    let mut chunks = Vec::new();
    let mut left = total;
    for &c in raw {
        if left == 0 {
            break;
        }
        let take = c.clamp(1, left);
        chunks.push(take);
        left -= take;
    }
    if left > 0 {
        chunks.push(left);
    }
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full engine's chunk-invariance contract, end to end: a
    /// prompt prefilled through `forward_batch` in random chunks —
    /// with a concurrent decode row sharing every step, as the serving
    /// scheduler composes them — produces bitwise the logits and KV
    /// state of a solo monolithic prefill, and the bystander decode
    /// row's greedy continuation is exactly what it decodes alone.
    /// (TiledOnly pins one kernel class so expert GEMMs are invariant
    /// to how many tokens share a step — the serve-equivalence
    /// convention; position-dependent math is row-stable under any
    /// backend.)
    #[test]
    fn engine_chunked_prefill_with_concurrent_decode_is_bitwise(
        seed in 0u64..500,
        prompt_len in 1usize..13,
        raw_chunks in proptest::collection::vec(1usize..5, 0..10),
    ) {
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let e = HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::Sync,
                n_deferred: 2,
                backend: Backend::TiledOnly,
                seed: 31,
                ..Default::default()
            },
        )
        .unwrap();
        let prompt: Vec<u32> =
            (0..prompt_len).map(|i| ((seed + i as u64 * 37) % 251) as u32).collect();
        let chunks = chunks_covering(prompt_len, &raw_chunks);

        // Monolithic reference: the whole prompt in one solo step.
        let mut mono = vec![BatchSeq::prefill(e.fresh_cache(), prompt.clone())];
        let mut ref_logits = e.forward_batch(&mut mono).unwrap();
        let ref_logits = ref_logits[0].take().unwrap();

        // A bystander sequence mid-generation: prefill its prompt,
        // then precompute the greedy tokens it decodes when running
        // alone, one step per upcoming chunk.
        let dec_prompt = [3u32, 1, 4];
        let mut dec = vec![BatchSeq::prefill(e.fresh_cache(), dec_prompt.to_vec())];
        let mut first = e.forward_batch(&mut dec).unwrap();
        let first = first[0].take().unwrap();
        let first = argmax(first.row(first.rows() - 1));
        let dec_cache = dec.pop().unwrap().cache;
        let mut solo = vec![BatchSeq::decode(dec_cache.clone(), first)];
        let mut expect_dec = Vec::with_capacity(chunks.len());
        for _ in &chunks {
            let mut l = e.forward_batch(&mut solo).unwrap();
            let l = l[0].take().unwrap();
            let t = argmax(l.row(0));
            expect_dec.push(t);
            solo[0].tokens = vec![t];
        }

        // Mixed steps: one prefill chunk + the decode row per step.
        let mut batch = vec![
            BatchSeq::prefill(e.fresh_cache(), Vec::new()),
            BatchSeq::decode(dec_cache, first),
        ];
        let mut start = 0;
        for (ci, &len) in chunks.iter().enumerate() {
            batch[0].tokens = prompt[start..start + len].to_vec();
            let mut logits = e.forward_batch(&mut batch).unwrap();
            let l0 = logits[0].take().unwrap();
            for t in 0..len {
                prop_assert_eq!(
                    l0.row(t),
                    ref_logits.row(start + t),
                    "chunked logits diverged at position {} (chunks {:?})",
                    start + t,
                    &chunks
                );
            }
            let l1 = logits[1].take().unwrap();
            let t = argmax(l1.row(l1.rows() - 1));
            prop_assert_eq!(
                t, expect_dec[ci],
                "concurrent decode row perturbed by prefill chunks"
            );
            batch[1].tokens = vec![t];
            start += len;
        }

        // KV state bitwise identical to the monolithic cache.
        let mono_cache = &mono[0].cache;
        let chunked_cache = &batch[0].cache;
        prop_assert_eq!(chunked_cache.seq_len(), prompt.len());
        for layer in 0..mono_cache.n_layers() {
            for pos in 0..prompt.len() {
                prop_assert_eq!(
                    mono_cache.layer(layer).k_row(pos),
                    chunked_cache.layer(layer).k_row(pos),
                    "layer {} k row {} diverged", layer, pos
                );
                prop_assert_eq!(
                    mono_cache.layer(layer).v_row(pos),
                    chunked_cache.layer(layer).v_row(pos),
                    "layer {} v row {} diverged", layer, pos
                );
            }
        }
    }

    /// The hybrid-dispatch kernel agrees with the reference matmul for
    /// random shapes and dtypes.
    #[test]
    fn gemm_auto_matches_reference(
        m in 1usize..10,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let k = 64usize;
        let mut rng = seeded(seed);
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng).unwrap();
        let wmat = Matrix::random_uniform(n, k, 1.0, &mut rng).unwrap();
        for dt in [WeightDtype::F32, WeightDtype::Int8 { group: 32 }] {
            let w = PackedWeights::pack(&wmat, dt).unwrap();
            let expect = a.matmul_wt(&w.unpack()).unwrap();
            let mut out = Matrix::zeros(m, n).unwrap();
            gemm_auto(&a, &w, &mut out, None).unwrap();
            let err = expect.relative_error(&out);
            prop_assert!(err < 1e-4, "dtype {dt:?} err {err}");
        }
    }

    /// MoE linearity: splitting any routing into two parts and summing
    /// the partial outputs reproduces the full output — the invariant
    /// Expert Deferral is built on.
    #[test]
    fn moe_split_linearity(
        routing in routing_strategy(5, 6),
        n_imm in 0usize..5,
        seed in 0u64..500,
    ) {
        let mut rng = seeded(seed);
        let moe = FusedMoE::random(6, 24, 32, WeightDtype::F32,
            Backend::HybridAmxAvx512, &mut rng).unwrap();
        let x = Matrix::random_uniform(5, 24, 1.0, &mut rng).unwrap();
        let full = moe.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap();
        let (imm, def) = routing.split_deferred(n_imm, &[true; 5]);
        prop_assert_eq!(imm.n_activations() + def.n_activations(), routing.n_activations());
        let mut sum = moe.forward(&x, &imm, None, SchedulePolicy::Dynamic).unwrap();
        moe.forward_accumulate(&x, &def, &mut sum, None, SchedulePolicy::Dynamic).unwrap();
        let err = full.relative_error(&sum);
        prop_assert!(err < 1e-4, "err {err}");
    }

    /// Routing weights scale outputs linearly.
    #[test]
    fn moe_weight_scaling(scale in 0.1f32..4.0, seed in 0u64..200) {
        let mut rng = seeded(seed);
        let moe = FusedMoE::random(4, 16, 24, WeightDtype::F32,
            Backend::HybridAmxAvx512, &mut rng).unwrap();
        let x = Matrix::random_uniform(2, 16, 1.0, &mut rng).unwrap();
        let base = MoeRouting::new(vec![vec![(1, 1.0)], vec![(3, 1.0)]]);
        let scaled = MoeRouting::new(vec![vec![(1, scale)], vec![(3, scale)]]);
        let y1 = moe.forward(&x, &base, None, SchedulePolicy::Dynamic).unwrap();
        let y2 = moe.forward(&x, &scaled, None, SchedulePolicy::Dynamic).unwrap();
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            prop_assert!((a * scale - b).abs() < 1e-3 * a.abs().max(1.0) * scale.max(1.0));
        }
    }

    /// Quantizing expert weights perturbs the MoE output by a bounded
    /// amount (Int8 stays within a few percent).
    #[test]
    fn quantized_moe_error_is_bounded(seed in 0u64..200) {
        let mut rng = seeded(seed);
        let hidden = 32;
        let inter = 32;
        let gate = Matrix::random_kaiming(inter, hidden, &mut rng).unwrap();
        let up = Matrix::random_kaiming(inter, hidden, &mut rng).unwrap();
        let down = Matrix::random_kaiming(hidden, inter, &mut rng).unwrap();
        let f32e = ExpertWeights::from_matrices(&gate, &up, &down, WeightDtype::F32).unwrap();
        let i8e = ExpertWeights::from_matrices(&gate, &up, &down,
            WeightDtype::Int8 { group: 16 }).unwrap();
        let full = FusedMoE::new(vec![f32e], Backend::HybridAmxAvx512).unwrap();
        let quant = FusedMoE::new(vec![i8e], Backend::HybridAmxAvx512).unwrap();
        let x = Matrix::random_uniform(3, hidden, 1.0, &mut rng).unwrap();
        let routing = MoeRouting::new(vec![vec![(0, 1.0)]; 3]);
        let a = full.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap();
        let b = quant.forward(&x, &routing, None, SchedulePolicy::Dynamic).unwrap();
        let err = a.relative_error(&b);
        prop_assert!(err < 0.06, "int8 err {err}");
    }
}
