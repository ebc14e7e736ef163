//! Paged-KV ablation: how many sequences one KV byte budget sustains
//! concurrently when admission charges pages actually used, against
//! the ceiling of reserving a full `max_seq` cache per sequence — plus
//! the cost (none) and fidelity (bitwise) of the machinery that makes
//! paging safe: preemption round trips and zero-copy prefix sharing.
//!
//! Arms:
//! * **paged** — the byte budget of `FLAT_SLOTS` full-capacity caches,
//!   converted to 16-row pages: admission charges only the pages a
//!   sequence actually grows into, so short requests pack
//!   ~`max_seq / rows_used` times denser than the
//!   `budget / full_cache_bytes` = `FLAT_SLOTS` sequences that
//!   whole-cache reservation would admit. Its token streams are the
//!   reference for the pressure arms.
//! * **pressure** — a pool barely above one full request, forced
//!   preemption under `AlwaysSwap` and `AlwaysRecompute`: preempt and
//!   resume round trips must leave the streams bitwise identical to
//!   the unpressured paged arm.
//! * **warm prefix** — zero-copy page sharing: a primed 384-token
//!   shared prefix seeds by reference (CoW on the divergent tail), so
//!   warm TTFT must hold the recorded warm-hit line
//!   (`BENCH_prefix.json`: 2.9 ms) or better.
//!
//! Modes:
//! * default — all arms, writes `BENCH_paged.json` (run from the repo
//!   root).
//! * `--smoke` — CI gate: the paged arm's lease high-water mark is
//!   **>= 2x** `FLAT_SLOTS` at equal pool bytes, the preemption arms'
//!   streams are bitwise identical to the unpressured run, and a
//!   single-stream decode guard vs the `BENCH_quant.json` f32 hotpath
//!   median (0.6x tolerance, the repo-wide guard tolerance).

use kt_bench::{section, table};
use kt_core::{BatchSeq, EngineConfig, HybridEngine, SchedMode};
use kt_kernels::dispatch::Backend;
use kt_model::pool::KvCachePool;
use kt_model::{model::argmax, KvCache, ModelPreset};
use kt_serve::{PreemptPolicy, Request, Server, ServerConfig};
use std::sync::Arc;
use std::time::Instant;

/// Rows per KV page in the concurrency and warm-prefix arms.
const PAGE_ROWS: usize = 16;
/// Full-capacity caches the byte budget covers: the concurrency
/// ceiling of reserving `max_seq` rows per sequence,
/// `pool_bytes / full_cache_bytes`.
const FLAT_SLOTS: usize = 4;
/// Concurrency offered.
const CONCURRENT: usize = 32;
/// Prompt length of each workload request.
const PROMPT: usize = 24;
/// Tokens each request generates.
const MAX_NEW: usize = 16;
/// `BENCH_quant.json` `decode_guard.f32_hotpath_median` — the
/// single-stream decode baseline the page-table reads must hold.
const QUANT_F32_HOTPATH_TOK_S: f64 = 1900.1;
/// Repo-wide guard tolerance (CI containers timeshare cores).
const GUARD_TOLERANCE: f64 = 0.6;
/// `BENCH_prefix.json` warm `ttft_ms_median` — the recorded warm-hit
/// line zero-copy sharing must hold or beat.
const PREFIX_WARM_TTFT_MS: f64 = 2.9;

fn engine(seed: u64) -> Arc<HybridEngine> {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    Arc::new(
        HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                // Batch-size-invariant expert GEMMs: the arms batch very
                // differently (32-wide vs 3-wide under pressure), and
                // the token streams must still compare bitwise.
                backend: Backend::TiledOnly,
                seed,
                ..Default::default()
            },
        )
        .expect("engine"),
    )
}

fn prompts() -> Vec<Vec<u32>> {
    (0..CONCURRENT)
        .map(|r| (0..PROMPT).map(|j| ((r * 31 + j * 7 + 5) % 251) as u32).collect())
        .collect()
}

/// Runs the workload (all requests submitted up front), returning the
/// token streams, the lease high-water mark, and the wall time.
fn run_arm(cfg: ServerConfig, n: usize) -> (Vec<Vec<u32>>, u64, f64) {
    let server = Server::start(engine(7), cfg).expect("valid config");
    let t0 = Instant::now();
    let handles: Vec<_> = prompts()
        .into_iter()
        .take(n)
        .map(|p| server.submit(Request::greedy(&p, MAX_NEW)))
        .collect();
    let tokens: Vec<Vec<u32>> = handles
        .iter()
        .map(|h| {
            let r = h.wait();
            assert!(r.is_completed(), "{:?}", r.outcome);
            r.tokens
        })
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    let peak = server.stats().kv_leases_peak;
    server.shutdown();
    (tokens, peak, wall)
}

/// Pool pages equal in bytes to `FLAT_SLOTS` full-capacity caches
/// (`max_seq` divides by `PAGE_ROWS`, so the conversion is exact).
fn equal_byte_pages() -> usize {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    FLAT_SLOTS * cfg.n_layers * cfg.max_seq / PAGE_ROWS
}

fn base_cfg() -> ServerConfig {
    ServerConfig {
        prefill_chunk: 32,
        step_token_budget: 64,
        // Concurrency accounting only: no prefix retention.
        prefix_cache_bytes: 0,
        ..Default::default()
    }
}

/// Single-stream decode throughput through a pool lease and the batch
/// API (`ablation_hotpath` methodology: realistic vocab,
/// 2 warmups, deep timed window). The page-table indirection on every
/// attention read is the thing under test.
fn paged_decode_tokens_per_s(steps: usize) -> f64 {
    let mut cfg = ModelPreset::DeepSeekV3.tiny_config();
    cfg.vocab = 8192;
    let engine = HybridEngine::random(
        &cfg,
        EngineConfig {
            n_cpu_workers: 1,
            mode: SchedMode::AsyncGraph,
            n_deferred: 2,
            seed: 17,
            ..Default::default()
        },
    )
    .expect("engine");
    let fresh = engine.fresh_cache();
    let pool = KvCachePool::for_prototype(&fresh, 1).with_paged(4096, PAGE_ROWS);
    let mut lease = pool.lease().expect("fresh pool leases");

    let forward = |cache: KvCache, tokens: Vec<u32>, prefill: bool| {
        let mut seqs = vec![if prefill {
            BatchSeq::prefill(cache, tokens)
        } else {
            BatchSeq::decode(cache, tokens[0])
        }];
        let l = engine
            .forward_batch(&mut seqs)
            .expect("forward")
            .pop()
            .flatten()
            .expect("logits");
        let next = argmax(l.row(l.rows() - 1));
        engine.recycle_logits(l);
        (std::mem::replace(&mut seqs[0].cache, KvCache::new(&[], 0)), next)
    };

    let (mut cache, mut next) =
        forward(std::mem::replace(&mut lease.cache, KvCache::new(&[], 0)), vec![1, 2, 3], true);
    for _ in 0..2 {
        (cache, next) = forward(cache, vec![next], false);
    }
    let start = Instant::now();
    for _ in 0..steps {
        (cache, next) = forward(cache, vec![next], false);
    }
    let dt = start.elapsed().as_secs_f64();
    lease.cache = cache;
    pool.release(lease).expect("lease returns");
    steps as f64 / dt
}

/// Warm prefix-hit TTFT (ms, median of 3) with zero-copy page sharing.
fn warm_prefix_ttft_ms() -> f64 {
    let mut cfg = ModelPreset::DeepSeekV3.tiny_config();
    cfg.max_seq = 1024;
    let engine = Arc::new(
        HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                seed: 31,
                ..Default::default()
            },
        )
        .expect("engine"),
    );
    let server = Server::start(
        engine,
        ServerConfig {
            max_batch: 4,
            prefill_chunk: 64,
            step_token_budget: 96,
            prefix_cache_bytes: 32 << 20,
            page_rows: PAGE_ROWS,
            ..Default::default()
        },
    )
    .expect("valid config");
    let shared: Vec<u32> = (0..384).map(|i| ((i * 3 + 11) % 251) as u32).collect();
    let prompt = |r: usize| {
        let mut p = shared.clone();
        p.extend((0..8).map(|j| ((r * 17 + j * 5 + 97) % 251) as u32));
        p
    };
    let ttft = |p: &[u32]| {
        let r = server.submit(Request::greedy(p, 4)).wait();
        assert!(r.is_completed(), "{:?}", r.outcome);
        r.metrics.ttft_ns.expect("completed request has a TTFT") as f64 / 1e6
    };
    let _prime = ttft(&prompt(usize::MAX / 2));
    let mut samples: Vec<f64> = (0..3).map(|r| ttft(&prompt(r))).collect();
    assert_eq!(server.stats().prefix_hits, 3, "every timed request hit");
    // `kt_kv_pages_shared` counts pages co-held by a *live* lease, so
    // it reads 0 between requests. Observe it mid-flight: a probe with
    // a long generation holds its zero-copy seeded prefix pages while
    // decoding.
    let probe = server.submit(Request::greedy(&prompt(1000), 96));
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    let mut seen_shared = false;
    while Instant::now() < deadline {
        if server.stats().kv_pages_shared > 0 {
            seen_shared = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert!(probe.wait().is_completed(), "probe request completes");
    assert!(seen_shared, "warm seeding shared pages zero-copy");
    server.shutdown();
    median(&mut samples)
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let model_cfg = ModelPreset::DeepSeekV3.tiny_config();
    let pool_pages = equal_byte_pages();
    let full_cache_bytes = model_cfg.n_layers
        * model_cfg.max_seq
        * 2
        * (2 * 16) // GQA: kv_heads=2, head_dim=16, k and v rows
        * std::mem::size_of::<f32>();

    section(&format!(
        "Concurrency at equal pool bytes: {FLAT_SLOTS} full caches' worth \
         ({:.1} MiB) serving {CONCURRENT} requests of {} rows each",
        (FLAT_SLOTS * full_cache_bytes) as f64 / (1 << 20) as f64,
        PROMPT + MAX_NEW,
    ));

    let (paged_tokens, paged_peak, paged_wall) = run_arm(
        ServerConfig {
            max_batch: CONCURRENT,
            page_rows: PAGE_ROWS,
            kv_pool_pages: pool_pages,
            ..base_cfg()
        },
        CONCURRENT,
    );

    table(
        &["Admission", "Peak concurrent seqs", "Wall (s)"],
        &[
            vec!["whole-cache reservation (computed ceiling)".into(), FLAT_SLOTS.to_string(), "-".into()],
            vec![format!("paged ({PAGE_ROWS}-row pages)"), paged_peak.to_string(), format!("{paged_wall:.2}")],
        ],
    );
    let density = paged_peak as f64 / FLAT_SLOTS as f64;
    println!();
    println!("concurrency_gain {density:.1}x at equal KV pool bytes");

    // Pressure arms: a pool barely above one full request forces
    // preempt/resume round trips; streams must not move.
    section("Forced preemption round trips (pool barely above one request)");
    let n_pressure = 6;
    let largest = model_cfg.n_layers * (PROMPT + MAX_NEW).div_ceil(4);
    let mut pressure_rows: Vec<Vec<String>> = Vec::new();
    let mut preempt_counts = [0u64; 2];
    for (slot, policy) in [PreemptPolicy::AlwaysSwap, PreemptPolicy::AlwaysRecompute]
        .into_iter()
        .enumerate()
    {
        let t0 = Instant::now();
        let server = Server::start(
            engine(7),
            ServerConfig {
                max_batch: 3,
                prefill_chunk: 4,
                step_token_budget: 8,
                prefix_cache_bytes: 0,
                page_rows: 4,
                kv_pool_pages: largest + 1,
                preempt_policy: policy,
                ..Default::default()
            },
        )
        .expect("valid config");
        let handles: Vec<_> = prompts()
            .into_iter()
            .take(n_pressure)
            .map(|p| server.submit(Request::greedy(&p, MAX_NEW)))
            .collect();
        for (h, want) in handles.iter().zip(&paged_tokens) {
            let r = h.wait();
            assert!(r.is_completed(), "{:?}", r.outcome);
            assert_eq!(&r.tokens, want, "{policy:?}: preemption changed the stream");
        }
        let stats = server.stats();
        let n = stats.preempt_swap + stats.preempt_recompute;
        assert!(n > 0, "{policy:?}: pool never came under pressure");
        assert_eq!(stats.kv_pages_free, stats.kv_pages_total, "page leak");
        preempt_counts[slot] = n;
        pressure_rows.push(vec![
            format!("{policy:?}"),
            n.to_string(),
            format!("{:.2}", t0.elapsed().as_secs_f64()),
        ]);
        server.shutdown();
    }
    table(&["Policy", "Preemptions", "Wall (s)"], &pressure_rows);
    println!();
    println!("streams bitwise identical to the unpressured paged arm under both policies");

    // Decode guard: page-table indirection must not tax the hot path.
    section("Single-stream decode guard (paged lease, hotpath methodology)");
    let (reps, steps) = if smoke { (3, 448) } else { (5, 448) };
    let mut decode_samples: Vec<f64> = (0..reps).map(|_| paged_decode_tokens_per_s(steps)).collect();
    let decode_median = median(&mut decode_samples);
    println!(
        "decode_guard {decode_median:.1} tok/s vs BENCH_quant.json f32 hotpath \
         {QUANT_F32_HOTPATH_TOK_S} (tolerance {GUARD_TOLERANCE}x)"
    );

    if smoke {
        let mut fail = false;
        if density < 2.0 {
            eprintln!("SMOKE FAIL: paged sustains only {density:.1}x the whole-cache ceiling (< 2x)");
            fail = true;
        }
        if decode_median < GUARD_TOLERANCE * QUANT_F32_HOTPATH_TOK_S {
            eprintln!(
                "SMOKE FAIL: paged decode {decode_median:.1} tok/s below \
                 {GUARD_TOLERANCE}x of the {QUANT_F32_HOTPATH_TOK_S} baseline"
            );
            fail = true;
        }
        if fail {
            std::process::exit(1);
        }
        println!();
        println!(
            "SMOKE OK: {density:.1}x concurrency at equal bytes, decode guard \
             {decode_median:.1} tok/s, preempted streams bitwise identical"
        );
        return;
    }

    section("Warm prefix-hit TTFT (zero-copy page sharing)");
    let mut warm: Vec<f64> = (0..3).map(|_| warm_prefix_ttft_ms()).collect();
    let warm_ttft = median(&mut warm);
    println!(
        "warm_ttft_ms_median {warm_ttft:.1} vs {PREFIX_WARM_TTFT_MS} recorded line \
         (BENCH_prefix.json)"
    );

    let json = format!(
        r#"{{
  "bench": "ablation_paged",
  "workload": {{
    "model": "DeepSeekV3 tiny preset (max_seq=512; warm-prefix arm max_seq=1024)",
    "engine": "n_cpu_workers=2, mode=AsyncGraph, n_deferred=2, backend=TiledOnly, seed=7",
    "requests": "{CONCURRENT} requests, {PROMPT}-token prompts, {MAX_NEW} new tokens ({rows} rows of {max_seq} capacity)"
  }},
  "method": "the byte budget of {FLAT_SLOTS} full-capacity caches as {pool_pages} {PAGE_ROWS}-row pages; peak concurrency from the lease high-water mark against the whole-cache ceiling pool_bytes / full_cache_bytes = {FLAT_SLOTS}; preemption-arm streams compared bitwise against the unpressured run",
  "whole_cache_ceiling": {FLAT_SLOTS},
  "paged": {{
    "page_rows": {PAGE_ROWS},
    "pool_pages": {pool_pages},
    "peak_concurrent": {paged_peak},
    "wall_s": {paged_wall:.2}
  }},
  "concurrency_gain": {density:.1},
  "preemption": {{
    "pool_pages": {tiny_pool},
    "always_swap_preemptions": {swap_n},
    "always_recompute_preemptions": {rec_n},
    "roundtrip_bitwise_identical": true
  }},
  "warm_prefix": {{
    "ttft_ms_median": {warm_ttft:.1},
    "bench_prefix_warm_ttft_ms_median": {PREFIX_WARM_TTFT_MS}
  }},
  "decode_guard": {{
    "method": "single-stream decode through a pool lease and forward_batch, vocab=8192, {steps} timed steps, {reps} reps",
    "decode_tokens_per_s_median": {decode_median:.1},
    "bench_quant_f32_hotpath_median": {QUANT_F32_HOTPATH_TOK_S},
    "tolerance": {GUARD_TOLERANCE}
  }}
}}
"#,
        rows = PROMPT + MAX_NEW,
        max_seq = model_cfg.max_seq,
        tiny_pool = largest + 1,
        swap_n = preempt_counts[0],
        rec_n = preempt_counts[1],
    );
    std::fs::write("BENCH_paged.json", &json).expect("write BENCH_paged.json");
    println!();
    println!("wrote BENCH_paged.json");
}
