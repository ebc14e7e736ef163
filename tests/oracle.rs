//! The oracle gate: every logit the engine serves equals
//! `MoeModel::forward` over the engine's own weights
//! (`HybridEngine::model`), by `f32::to_bits`. The oracle runs a
//! prefill in `ExecMode::Standard` and a decode row in `Deferred` with
//! the engine's immediate-expert count (Standard when nothing defers);
//! the `kt_model::model` module doc states the contract.

use ktransformers::core::{BatchSeq, EngineConfig, HybridEngine, SchedMode};
use ktransformers::kernels::dispatch::Backend;
use ktransformers::model::model::argmax;
use ktransformers::model::pool::KvCachePool;
use ktransformers::model::prefix::PrefixCacheConfig;
use ktransformers::model::{ExecMode, KvCache, ModelPreset};
use ktransformers::tensor::{Matrix, PrecisionPolicy};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn engine(preset: ModelPreset, econfig: EngineConfig) -> HybridEngine {
    HybridEngine::random(&preset.tiny_config(), econfig).expect("engine")
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
                        preset,
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

#[test]
fn batched_decode_equals_per_sequence_oracle() {
    // Three sequences at different lengths decode in one batch, each
    // checked against its own oracle cache. Each prefill is a step of
    // its own, so expert buckets hold the rows the oracle's prefill gives
    // them; a decode batch puts at most three rows in a bucket, below the
    // hybrid dispatch's crossover.
    let prompts: [&[u32]; 3] = [
        &[1, 2, 3],
        &[9, 8, 7, 6, 5],
        &[4, 40, 44, 60, 61, 62, 63, 64],
    ];
    for preset in ModelPreset::all() {
        let what = format!("{preset:?}");
        let e = engine(
            preset,
            EngineConfig {
                n_deferred: 2,
                precision: PrecisionPolicy::quantized_serving(16),
                seed: 5,
                ..Default::default()
            },
        );
        let mut oracle: Vec<Oracle> = prompts.iter().map(|_| Oracle::new(&e)).collect();
        let mut seqs = Vec::new();
        let mut next = Vec::new();
        for (s, p) in prompts.iter().enumerate() {
            let mut one = vec![BatchSeq::prefill(e.fresh_cache(), p.to_vec())];
            let l = e.forward_batch(&mut one).unwrap().remove(0).unwrap();
            next.push(oracle[s].check(p, false, &l, &format!("{what} seq {s}")));
            seqs.append(&mut one);
        }
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
    // A `TiledOnly` engine fed the prompt in {4, 4, 4, 1} chunks (the
    // last a one-token prefill chunk, which must not defer) matches its
    // monolithic prefill — itself checked against the oracle's — at every
    // position, then decodes on the chunk-built cache like the oracle.
    let prompt: Vec<u32> = (0..13).map(|i| (i * 7 + 1) % 250).collect();
    for preset in ModelPreset::all() {
        let e = engine(
            preset,
            EngineConfig {
                n_deferred: 2,
                backend: Backend::TiledOnly,
                seed: 7,
                ..Default::default()
            },
        );
        let mut oracle = Oracle::new(&e);
        let mono = e.forward(&prompt, &mut e.fresh_cache()).unwrap();
        oracle.check(&prompt, false, &mono, &format!("{preset:?} monolithic"));
        let vocab = mono.cols();
        let mut batch = [BatchSeq::prefill(e.fresh_cache(), Vec::new())];
        let mut row = 0;
        for n in [4, 4, 4, 1] {
            batch[0].tokens = prompt[row..row + n].to_vec();
            let l = e.forward_batch(&mut batch).unwrap().remove(0).unwrap();
            let want = &mono.as_slice()[row * vocab..(row + n) * vocab];
            assert_eq!(bits(l.as_slice()), bits(want), "{preset:?} chunk at {row}");
            row += n;
        }
        let mut next = argmax(mono.row(row - 1));
        for step in 0..4 {
            batch[0].tokens = vec![next];
            batch[0].prefill = false;
            let l = e.forward_batch(&mut batch).unwrap().remove(0).unwrap();
            next = oracle.check(&[next], true, &l, &format!("{preset:?} step {step}"));
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
            preset,
            EngineConfig {
                n_deferred: 2,
                backend: Backend::TiledOnly,
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
            let cache = std::mem::replace(&mut donor.cache, KvCache::new(&[], 0));
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
            let cache = std::mem::replace(&mut warm.cache, KvCache::new(&[], 0));
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
