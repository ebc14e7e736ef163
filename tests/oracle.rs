//! The oracle gate: every logit the engine serves equals
//! `MoeModel::forward` over the engine's own weights
//! (`HybridEngine::model`), by `f32::to_bits`. The oracle runs a
//! prefill in `ExecMode::Standard` and a decode row in `Deferred` with
//! the engine's immediate-expert count (Standard when nothing defers);
//! the `kt_model::model` module doc states the contract.

use ktransformers::core::{BatchSeq, EngineConfig, HybridEngine, SchedMode};
use ktransformers::model::model::argmax;
use ktransformers::model::pool::KvCachePool;
use ktransformers::model::prefix::PrefixCacheConfig;
use ktransformers::model::{ExecMode, KvCache, ModelConfig, ModelPreset};
use ktransformers::tensor::{Matrix, PrecisionPolicy};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn engine(cfg: &ModelConfig, econfig: EngineConfig) -> HybridEngine {
    HybridEngine::random(cfg, econfig).expect("engine")
}

/// `MoeModel::forward` on its own cache, over an engine's weights.
struct Oracle<'a> {
    e: &'a HybridEngine,
    cache: KvCache,
}

impl<'a> Oracle<'a> {
    fn new(e: &'a HybridEngine) -> Self {
        let cache = e.model().new_cache();
        Oracle { e, cache }
    }

    /// Runs `tokens` through the model — as decode rows when `decode`,
    /// else as prefill rows — asserts the engine's logits `got` equal
    /// its bits, and returns the greedy next token.
    fn check(&mut self, tokens: &[u32], decode: bool, got: &Matrix, what: &str) -> u32 {
        let top_k = self.e.config().top_k;
        let mode = match self.e.engine_config().n_deferred.min(top_k - 1) {
            n_def if decode && n_def > 0 => ExecMode::Deferred {
                n_immediate: top_k - n_def,
            },
            _ => ExecMode::Standard,
        };
        let model = self.e.model();
        let want = model.forward(tokens, &mut self.cache, mode, None).unwrap();
        assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{what}");
        argmax(got.row(got.rows() - 1))
    }
}

#[test]
fn engine_logits_equal_model_forward_bitwise() {
    let prompt = [5u32, 17, 40, 99, 123];
    for preset in ModelPreset::all() {
        for precision in [
            PrecisionPolicy::default(),
            PrecisionPolicy::quantized_serving(16),
        ] {
            for n_deferred in [0, 2] {
                for mode in [SchedMode::Sync, SchedMode::AsyncGraph] {
                    let what = format!("{preset:?} {precision:?} n_deferred {n_deferred} {mode:?}");
                    let e = engine(
                        &preset.tiny_config(),
                        EngineConfig {
                            mode,
                            n_deferred,
                            precision,
                            seed: 3,
                            ..Default::default()
                        },
                    );
                    let mut oracle = Oracle::new(&e);
                    let mut cache = e.fresh_cache();
                    let l = e.forward(&prompt, &mut cache).unwrap();
                    let mut next = oracle.check(&prompt, false, &l, &what);
                    for step in 0..8 {
                        let l = e.forward(&[next], &mut cache).unwrap();
                        next = oracle.check(&[next], true, &l, &format!("{what} step {step}"));
                    }
                }
            }
        }
    }
}

/// The served kernel shape at the tiny width: the expert and dense down
/// projections have bench-moe-256's K = 512, two tiled K blocks, and 8
/// experts at top-2 put more than `ARI_CROSSOVER` rows in a bucket once
/// a step holds a few dozen rows, where the hybrid dispatch would switch
/// to the tiled class. The default backend runs the vector class at
/// every bucket; `tests/served_digest.rs` runs all three backends.
fn served_shape() -> ModelConfig {
    ModelConfig {
        name: "served-shape".into(),
        moe_inter: 512,
        dense_inter: 512,
        n_routed_experts: 8,
        top_k: 2,
        n_groups: 1,
        topk_groups: 1,
        n_layers: 3,
        ..ModelPreset::DeepSeekV3.tiny_config()
    }
}

/// Every tiny preset at `tiny` precision, then the served shape in f32
/// and in the serving precision; the flag marks the served shape.
fn cases(tiny: PrecisionPolicy) -> Vec<(ModelConfig, PrecisionPolicy, bool)> {
    let presets = ModelPreset::all().map(|p| (p.tiny_config(), tiny, false));
    let served = [
        PrecisionPolicy::default(),
        PrecisionPolicy::quantized_serving(16),
    ]
    .map(|precision| (served_shape(), precision, true));
    presets.into_iter().chain(served).collect()
}

#[test]
fn batched_decode_equals_per_sequence_oracle() {
    // Sequences at different lengths prefill together in one step, then
    // decode in one batch, each checked against its own oracle cache,
    // which runs the sequence alone. At the served shape the batch's
    // buckets outgrow the crossover that a lone sequence's stay under.
    for (cfg, precision, served) in cases(PrecisionPolicy::quantized_serving(16)) {
        let prompts: Vec<Vec<u32>> = if served {
            (0..8u32)
                .map(|s| (0..2 + s % 5).map(|i| (s * 13 + i * 7 + 1) % 250).collect())
                .collect()
        } else {
            vec![
                vec![1, 2, 3],
                vec![9, 8, 7, 6, 5],
                vec![4, 40, 44, 60, 61, 62, 63, 64],
            ]
        };
        let what = format!("{} {precision:?}", cfg.name);
        let e = engine(
            &cfg,
            EngineConfig {
                n_deferred: 2,
                precision,
                seed: 5,
                ..Default::default()
            },
        );
        let mut oracle: Vec<Oracle> = prompts.iter().map(|_| Oracle::new(&e)).collect();
        let mut seqs: Vec<BatchSeq> = prompts
            .iter()
            .map(|p| BatchSeq::prefill(e.fresh_cache(), p.clone()))
            .collect();
        let logits = e.forward_batch(&mut seqs).unwrap();
        let mut next: Vec<u32> = logits
            .iter()
            .zip(&prompts)
            .enumerate()
            .map(|(s, (l, p))| {
                oracle[s].check(p, false, l.as_ref().unwrap(), &format!("{what} seq {s}"))
            })
            .collect();
        for step in 0..6 {
            for (seq, &t) in seqs.iter_mut().zip(&next) {
                seq.tokens = vec![t];
                seq.prefill = false;
            }
            let logits = e.forward_batch(&mut seqs).unwrap();
            for (s, l) in logits.iter().enumerate() {
                let what = format!("{what} seq {s} step {step}");
                next[s] = oracle[s].check(&[next[s]], true, l.as_ref().unwrap(), &what);
            }
        }
    }
}

#[test]
fn chunked_prefill_equals_monolithic_oracle() {
    // An engine fed the prompt in chunks (the last a one-token prefill
    // chunk, which must not defer) matches its monolithic prefill —
    // itself checked against the oracle's — at every position, then
    // decodes on the chunk-built cache like the oracle. The served shape
    // takes 32 one-row chunks: its monolithic prefill runs the tiled
    // class, every chunk the vector class.
    for (cfg, precision, served) in cases(PrecisionPolicy::default()) {
        let (prompt, chunks): (Vec<u32>, Vec<usize>) = if served {
            ((0..32).map(|i| (i * 11 + 3) % 250).collect(), vec![1; 32])
        } else {
            (
                (0..13).map(|i| (i * 7 + 1) % 250).collect(),
                vec![4, 4, 4, 1],
            )
        };
        let what = format!("{} {precision:?}", cfg.name);
        let e = engine(
            &cfg,
            EngineConfig {
                n_deferred: 2,
                precision,
                seed: 7,
                ..Default::default()
            },
        );
        let mut oracle = Oracle::new(&e);
        let mono = e.forward(&prompt, &mut e.fresh_cache()).unwrap();
        oracle.check(&prompt, false, &mono, &format!("{what} monolithic"));
        let vocab = mono.cols();
        let mut batch = [BatchSeq::prefill(e.fresh_cache(), Vec::new())];
        let mut row = 0;
        for n in chunks {
            batch[0].tokens = prompt[row..row + n].to_vec();
            let l = e.forward_batch(&mut batch).unwrap().remove(0).unwrap();
            let want = &mono.as_slice()[row * vocab..(row + n) * vocab];
            assert_eq!(bits(l.as_slice()), bits(want), "{what} chunk at {row}");
            row += n;
        }
        let mut next = argmax(mono.row(row - 1));
        for step in 0..4 {
            batch[0].tokens = vec![next];
            batch[0].prefill = false;
            let l = e.forward_batch(&mut batch).unwrap().remove(0).unwrap();
            next = oracle.check(&[next], true, &l, &format!("{what} step {step}"));
        }
    }
}

#[test]
fn prefix_seeded_prefill_equals_cold_oracle() {
    // Warm = oracle: a lease seeded from a frozen prefix prefills only
    // its suffix, then decodes, and every logit equals the oracle's over
    // the whole prompt on a cold cache. The 11-token prefix is shared by
    // reference at 1-row pages, shared up to row 9 with a row-copied
    // tail at 3-row pages, and row-copied whole inside one 16-row page.
    let prefix: Vec<u32> = (0..11).map(|i| (i * 17 + 3) % 250).collect();
    let prompt: Vec<u32> = prefix.iter().copied().chain([7, 99, 123, 5, 61]).collect();
    for preset in [ModelPreset::DeepSeekV3, ModelPreset::Qwen2Moe] {
        let e = engine(
            &preset.tiny_config(),
            EngineConfig {
                n_deferred: 2,
                seed: 9,
                ..Default::default()
            },
        );
        for page_rows in [1, 3, 16] {
            let what = format!("{preset:?} page_rows {page_rows}");
            let pool = KvCachePool::for_prototype(&e.fresh_cache(), 2)
                .with_prefix_cache(PrefixCacheConfig {
                    capacity_bytes: 32 << 20,
                    min_prefix_len: 4,
                })
                .with_paged(4096, page_rows);
            let (mut donor, _) = pool.lease_for_prompt(&prefix).unwrap();
            let cache = std::mem::take(&mut donor.cache);
            let mut batch = [BatchSeq::prefill(cache, prefix.clone())];
            e.forward_batch(&mut batch).unwrap();
            let [seq] = batch;
            donor.cache = seq.cache;
            pool.release_with_prefix(donor, &prefix).unwrap();

            let (mut warm, seeded) = pool.lease_for_prompt(&prompt).unwrap();
            assert_eq!(seeded, prefix.len(), "{what}");
            assert_eq!(
                warm.cache.layer(0).shared_pages(),
                prefix.len() / page_rows,
                "{what}"
            );
            let cache = std::mem::take(&mut warm.cache);
            let mut batch = [BatchSeq::prefill(cache, prompt[seeded..].to_vec())];
            let l = e.forward_batch(&mut batch).unwrap().remove(0).unwrap();

            let mut oracle = Oracle::new(&e);
            let cold = e
                .model()
                .forward(&prompt, &mut oracle.cache, ExecMode::Standard, None)
                .unwrap();
            let vocab = cold.cols();
            assert_eq!(
                bits(l.as_slice()),
                bits(&cold.as_slice()[seeded * vocab..]),
                "{what} suffix"
            );
            let mut next = argmax(l.row(l.rows() - 1));
            for step in 0..8 {
                batch[0].tokens = vec![next];
                batch[0].prefill = false;
                let l = e.forward_batch(&mut batch).unwrap().remove(0).unwrap();
                next = oracle.check(&[next], true, &l, &format!("{what} step {step}"));
            }
        }
    }
}
