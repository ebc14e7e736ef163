//! Layer probes: timings taken from outside, around calls to public
//! functions, single-threaded, with the bench model's shapes.
//!
//! Every probe call is one span under its layer's span. A probe's
//! value is the median over its calls. Bytes and FLOPs are computed
//! from tensor sizes (`stored_bytes`, `FusedMoE::weight_bytes` /
//! `flops`), not measured — the `*_gbs` / `*_gflops` rates are those
//! computed amounts over measured time.

use std::hint::black_box;

use kt_core::{BatchSeq, HybridEngine};
use kt_kernels::dispatch::Backend;
use kt_kernels::gemm::{gemm_rowwise, gemm_tiled, gemv_vector};
use kt_kernels::moe::{ExpertWeights, FusedMoE, MoeRouting, MoeWorkspace};
use kt_kernels::schedule::SchedulePolicy;
use kt_model::gating::{GateConfig, Router};
use kt_model::paged::BlockAllocator;
use kt_model::pool::KvCachePool;
use kt_model::prefix::PrefixCacheConfig;
use kt_model::rope::Rope;
use kt_model::{attention::Attention, model::argmax, KvCache};
use kt_serve::sched::{compose_plan, ComposeCfg, SeqView};
use kt_tensor::{Matrix, PackedWeights, WeightDtype};

use crate::deploy;
use crate::loadgen::{self, Rng};
use crate::metrics::Table;
use crate::spans::SpanLog;
use crate::stats;

const PAGE_ROWS: usize = kt_model::DEFAULT_PAGE_ROWS;
const PROBE_SEED: u64 = 0xBE7C;

fn median(samples: Vec<f64>) -> f64 {
    stats::median(&stats::sorted(samples)).unwrap_or(f64::NAN)
}

/// Runs `f` `iters` times, one span each under `parent`; median ns.
fn median_ns(
    log: &mut SpanLog,
    parent: usize,
    name: &str,
    iters: usize,
    mut f: impl FnMut(),
) -> f64 {
    median(
        (0..iters)
            .map(|_| log.time(name, parent, &mut f).1 as f64)
            .collect(),
    )
}

/// An empty paged cache shaped for `engine`, drawing on `alloc`.
fn paged_cache(engine: &HybridEngine, alloc: &BlockAllocator) -> KvCache {
    let fresh = engine.fresh_cache();
    let specs: Vec<(usize, usize)> = (0..fresh.n_layers())
        .map(|i| (fresh.layer(i).k_width(), fresh.layer(i).v_width()))
        .collect();
    KvCache::new_paged(&specs, deploy::model_config().max_seq, alloc, PAGE_ROWS)
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = kt_tensor::rng::seeded(seed);
    Matrix::random_kaiming(rows, cols, &mut rng).expect("nonzero dims")
}

fn packed_set(n: usize, rows: usize, cols: usize, dtype: WeightDtype) -> Vec<PackedWeights> {
    (0..n)
        .map(|i| {
            PackedWeights::pack(&random_matrix(rows, cols, PROBE_SEED + i as u64), dtype)
                .expect("pack")
        })
        .collect()
}

/// A routing of `tokens` rows, each to `top_k` consecutive experts
/// starting at a seeded offset, so successive calls walk the pool.
fn routing(rng: &mut Rng, tokens: usize, n_experts: usize, top_k: usize) -> MoeRouting {
    MoeRouting::new(
        (0..tokens)
            .map(|_| {
                let first = rng.below(n_experts as u64) as usize;
                (0..top_k)
                    .map(|j| ((first + j * 3) % n_experts, 1.0 / top_k as f32))
                    .collect()
            })
            .collect(),
    )
}

pub fn kernels(log: &mut SpanLog, root: usize, t: &mut Table) {
    let layer = log.open("probe.kernels", Some(root));
    let m = deploy::model_config();
    let (hidden, inter) = (m.hidden, m.moe_inter);
    let group = deploy::QUANT_GROUP;

    // GEMV streaming rate per dtype: one call walks a set of expert-
    // shaped matrices larger than the L2, as a decode step does.
    let x: Vec<f32> = (0..hidden).map(|i| (i as f32 * 0.37).sin()).collect();
    let mut y = vec![0.0f32; inter];
    for (name, dtype, n) in [
        ("kernels.gemv_int4_gbs", WeightDtype::Int4 { group }, 96),
        ("kernels.gemv_int8_gbs", WeightDtype::Int8 { group }, 64),
        ("kernels.gemv_f32_gbs", WeightDtype::F32, 16),
    ] {
        let set = packed_set(n, inter, hidden, dtype);
        let bytes: usize = set.iter().map(PackedWeights::stored_bytes).sum();
        let ns = median_ns(log, layer, name, 9, || {
            for w in &set {
                gemv_vector(black_box(&x), w, &mut y, None).expect("gemv shapes");
            }
            black_box(&mut y);
        });
        t.set(name, bytes as f64 / ns);
    }

    // Tiled GEMM and the row-stable GEMM at a prefill chunk's M.
    let a = random_matrix(64, hidden, PROBE_SEED);
    let flops = (2 * 64 * hidden * inter) as f64;
    for (name, dtype, rowwise) in [
        (
            "kernels.gemm_tiled_int4_gflops",
            WeightDtype::Int4 { group },
            false,
        ),
        ("kernels.gemm_tiled_f32_gflops", WeightDtype::F32, false),
        ("kernels.gemm_rowwise_f32_gflops", WeightDtype::F32, true),
    ] {
        let w = &packed_set(1, inter, hidden, dtype)[0];
        let mut out = Matrix::zeros(64, inter).expect("nonzero dims");
        let ns = median_ns(log, layer, name, 15, || {
            if rowwise {
                gemm_rowwise(black_box(&a), w, &mut out, None).expect("gemm shapes");
            } else {
                gemm_tiled(black_box(&a), w, &mut out, None).expect("gemm shapes");
            }
            black_box(&mut out);
        });
        t.set(name, flops / ns);
    }

    // One MoE layer of the bench model at decode (M=1), batched decode
    // (M=8) and a prefill chunk (M=64), default hybrid dispatch.
    let mut wrng = kt_tensor::rng::seeded(PROBE_SEED);
    let moe = FusedMoE::random(
        m.n_routed_experts,
        hidden,
        inter,
        WeightDtype::Int4 { group },
        Backend::default(),
        &mut wrng,
    )
    .expect("moe");
    let mut ws = MoeWorkspace::new();
    let mut rng = Rng::new(PROBE_SEED);
    for (rows, us_name, iters) in [
        (1usize, "kernels.moe_m1_us", 60),
        (8, "kernels.moe_m8_us", 20),
        (64, "kernels.moe_m64_us", 8),
    ] {
        let xs = random_matrix(rows, hidden, PROBE_SEED + rows as u64);
        let routes: Vec<MoeRouting> = (0..iters)
            .map(|_| routing(&mut rng, rows, m.n_routed_experts, m.top_k))
            .collect();
        let mut k = 0;
        let ns = median_ns(log, layer, us_name, iters, || {
            let out = moe
                .forward_with(
                    black_box(&xs),
                    &routes[k],
                    None,
                    SchedulePolicy::Dynamic,
                    &mut ws,
                )
                .expect("moe forward");
            ws.restore(out);
            k += 1;
        });
        t.set(us_name, ns / 1e3);
        let r = &routes[0];
        match rows {
            1 => {
                t.set("kernels.moe_m1_gbs", moe.weight_bytes(r) as f64 / ns);
                t.set(
                    "kernels.moe_weight_bytes_per_tok",
                    moe.weight_bytes(r) as f64,
                );
                t.set("kernels.moe_flops_per_tok", moe.flops(r) as f64);
            }
            64 => t.set("kernels.moe_m64_gflops", moe.flops(r) as f64 / ns),
            _ => {}
        }
    }
    log.close(layer);
}

pub fn tensor(log: &mut SpanLog, root: usize, t: &mut Table) {
    let layer = log.open("probe.tensor", Some(root));
    let m = deploy::model_config();
    let gate = random_matrix(m.moe_inter, m.hidden, PROBE_SEED);
    let up = random_matrix(m.moe_inter, m.hidden, PROBE_SEED + 1);
    let down = random_matrix(m.hidden, m.moe_inter, PROBE_SEED + 2);
    let dtype = WeightDtype::Int4 {
        group: deploy::QUANT_GROUP,
    };
    let ns = median_ns(log, layer, "tensor.quant_pack_ms", 7, || {
        black_box(ExpertWeights::from_matrices(&gate, &up, &down, dtype).expect("pack expert"));
    });
    t.set("tensor.quant_pack_ms", ns / 1e6);
    log.close(layer);
}

pub fn model(log: &mut SpanLog, root: usize, engine: &HybridEngine, t: &mut Table) {
    let layer = log.open("probe.model", Some(root));
    let m = deploy::model_config();
    let mut wrng = kt_tensor::rng::seeded(PROBE_SEED);

    // Attention over paged rows: one decode row at context 512, then a
    // 64-token chunk landing on the same context.
    let attn = Attention::random(
        m.hidden,
        m.n_heads,
        m.head_dim,
        m.attention,
        WeightDtype::F32,
        &mut wrng,
    )
    .expect("attention");
    let rope = Rope::new(m.head_dim, m.max_seq, m.rope_theta);
    let alloc = BlockAllocator::new(4096);
    let mut cache = KvCache::new_paged(&[attn.cache_spec()], m.max_seq, &alloc, PAGE_ROWS);
    for c in 0..8 {
        let chunk = random_matrix(64, m.hidden, PROBE_SEED + c);
        attn.forward(&chunk, cache.layer_mut(0), &rope, None)
            .expect("fill context");
    }
    let row = random_matrix(1, m.hidden, PROBE_SEED + 100);
    let ns = median_ns(log, layer, "model.attn_decode_ctx512_us", 40, || {
        black_box(
            attn.forward(&row, cache.layer_mut(0), &rope, None)
                .expect("decode row"),
        );
    });
    t.set("model.attn_decode_ctx512_us", ns / 1e3);
    let chunk = random_matrix(64, m.hidden, PROBE_SEED + 101);
    let ns = median_ns(log, layer, "model.attn_chunk64_ctx512_us", 3, || {
        black_box(
            attn.forward(&chunk, cache.layer_mut(0), &rope, None)
                .expect("chunk"),
        );
    });
    t.set("model.attn_chunk64_ctx512_us", ns / 1e3);
    drop(cache);

    // Router gating.
    let router = Router::random(
        GateConfig {
            n_experts: m.n_routed_experts,
            top_k: m.top_k,
            n_groups: m.n_groups,
            topk_groups: m.topk_groups,
            score: m.score,
            routed_scaling: m.routed_scaling,
            norm_topk_prob: m.norm_topk_prob,
        },
        m.hidden,
        &mut wrng,
    )
    .expect("router");
    for (rows, name, iters) in [
        (1usize, "model.gate_route_m1_us", 200),
        (64, "model.gate_route_m64_us", 30),
    ] {
        let x = random_matrix(rows, m.hidden, PROBE_SEED + rows as u64);
        let ns = median_ns(log, layer, name, iters, || {
            black_box(router.route(black_box(&x)));
        });
        t.set(name, ns / 1e3);
    }

    // Prefix cache on real KV state: a prefix_pressure-shaped prompt
    // prefilled through the engine into a paged lease, then frozen,
    // looked up and seeded into fresh leases.
    let pool = KvCachePool::for_prototype(&engine.fresh_cache(), 2)
        .with_prefix_cache(PrefixCacheConfig {
            capacity_bytes: 32 << 20,
            min_prefix_len: 4,
        })
        .with_paged(4096, PAGE_ROWS);
    let px = pool.prefix_cache().expect("attached above");
    let prompt = loadgen::tokens(
        &mut Rng::new(PROBE_SEED),
        deploy::PREFIX_LEN + deploy::PREFIX_TAIL,
    );
    let mut lease = pool.lease().expect("empty pool leases");
    let cache = std::mem::replace(&mut lease.cache, KvCache::new(&[], 0));
    let mut seqs = [BatchSeq::prefill_chunk(cache, prompt.clone())];
    engine.forward_batch(&mut seqs).expect("prefill");
    let [seq] = seqs;
    lease.cache = seq.cache;
    let ns = median(
        (0..5)
            .map(|_| {
                px.clear();
                log.time("model.prefix_insert_us", layer, || {
                    px.insert(&prompt, &lease.cache)
                })
                .1 as f64
            })
            .collect(),
    );
    t.set("model.prefix_insert_us", ns / 1e3);
    let ns = median_ns(log, layer, "model.prefix_lookup_us", 200, || {
        black_box(px.lookup(black_box(&prompt)));
    });
    t.set("model.prefix_lookup_us", ns / 1e3);
    let hit = px.lookup(&prompt).expect("inserted above");
    let mut target = pool.lease().expect("second lease");
    let ns = median(
        (0..20)
            .map(|_| {
                target.cache.reset();
                log.time("model.prefix_seed_us", layer, || {
                    hit.seed_into(&mut target.cache).expect("seed")
                })
                .1 as f64
            })
            .collect(),
    );
    pool.release(target).expect("own lease");
    t.set("model.prefix_seed_us", ns / 1e3);
    drop(hit);
    pool.release(lease).expect("own lease");

    let ns = median_ns(log, layer, "model.pool_lease_release_us", 200, || {
        let l = pool.lease().expect("free pool");
        pool.release(black_box(l)).expect("own lease");
    });
    t.set("model.pool_lease_release_us", ns / 1e3);
    let (kw, vw) = attn.cache_spec();
    let ns = median_ns(log, layer, "model.page_alloc_free_ns", 500, || {
        black_box(alloc.try_page(kw, vw, PAGE_ROWS));
    });
    t.set("model.page_alloc_free_ns", ns);
    log.close(layer);
}

/// One sequence mid-flight on a paged lease.
struct Seq {
    cache: KvCache,
    next: u32,
}

/// Runs one batched step over `seqs` (decode rows) plus an optional
/// prefill chunk; returns updated state through `seqs`/`chunk_cache`.
fn step(engine: &HybridEngine, seqs: &mut [Seq], chunk: Option<(&mut KvCache, Vec<u32>)>) {
    let empty = || KvCache::new(&[], 0);
    let mut batch: Vec<BatchSeq> = seqs
        .iter_mut()
        .map(|s| BatchSeq::decode(std::mem::replace(&mut s.cache, empty()), s.next))
        .collect();
    let mut chunk_slot = None;
    if let Some((cache, tokens)) = chunk {
        batch.push(BatchSeq::prefill_chunk(
            std::mem::replace(cache, empty()),
            tokens,
        ));
        chunk_slot = Some(cache);
    }
    let logits = engine.forward_batch(&mut batch).expect("probe step");
    let mut batch = batch.into_iter();
    for (s, l) in seqs.iter_mut().zip(logits) {
        s.cache = batch.next().expect("one per seq").cache;
        let l = l.expect("decode rows return logits");
        s.next = argmax(l.row(l.rows() - 1));
        engine.recycle_logits(l);
    }
    if let Some(cache) = chunk_slot {
        *cache = batch.next().expect("chunk row").cache;
    }
}

pub fn core(log: &mut SpanLog, root: usize, engine: &HybridEngine, t: &mut Table) {
    let layer = log.open("probe.core", Some(root));
    let alloc = BlockAllocator::new(8192);
    let mut rng = Rng::new(PROBE_SEED);
    let mut prompt = |n: usize| loadgen::tokens(&mut rng, n);
    let start = |tokens: Vec<u32>| -> Seq {
        let mut seqs = [BatchSeq::prefill(paged_cache(engine, &alloc), tokens)];
        let l = engine
            .forward_batch(&mut seqs)
            .expect("prefill")
            .pop()
            .flatten()
            .expect("logits");
        let next = argmax(l.row(l.rows() - 1));
        engine.recycle_logits(l);
        let [seq] = seqs;
        Seq {
            cache: seq.cache,
            next,
        }
    };
    let mut seqs: Vec<Seq> = (0..8).map(|_| start(prompt(16))).collect();

    // Warm the step workspaces at each shape before timing it.
    step(engine, &mut seqs[..1], None);
    let ns = median_ns(log, layer, "core.step_decode_b1_us", 120, || {
        step(engine, &mut seqs[..1], None)
    });
    t.set("core.step_decode_b1_us", ns / 1e3);
    step(engine, &mut seqs, None);
    let ns = median_ns(log, layer, "core.step_decode_b8_us", 30, || {
        step(engine, &mut seqs, None)
    });
    t.set("core.step_decode_b8_us", ns / 1e3);

    let mut long = start(prompt(64)).cache;
    let ns = median_ns(log, layer, "core.step_chunk64_us", 7, || {
        step(engine, &mut [], Some((&mut long, prompt(64))));
    });
    t.set("core.step_chunk64_us", ns / 1e3);
    let ns = median_ns(log, layer, "core.step_mixed_us", 5, || {
        step(engine, &mut seqs[..7], Some((&mut long, prompt(64))));
    });
    t.set("core.step_mixed_us", ns / 1e3);
    log.close(layer);
}

pub fn serve(log: &mut SpanLog, root: usize, t: &mut Table) {
    let layer = log.open("probe.serve", Some(root));
    let cfg = ComposeCfg {
        prefill_chunk: 64,
        step_token_budget: 128,
        priority_aware: true,
    };
    // A full batch: six decode rows (one at risk) and two prompts.
    let views: Vec<SeqView> = (0..8)
        .map(|i| SeqView {
            prompt_remaining: if i >= 6 { 192 } else { 0 },
            priority: i % 3,
            at_risk: i == 0,
        })
        .collect();
    let ns = median_ns(log, layer, "serve.compose_plan_us", 500, || {
        black_box(compose_plan(&cfg, black_box(&views)));
    });
    t.set("serve.compose_plan_us", ns / 1e3);
    log.close(layer);
}
