//! The deployment under test and the four workloads, frozen.
//!
//! Everything a later PR could be tempted to retune — model shape,
//! engine and server knobs, request shapes, the open-loop rate, the
//! latency limits behind `goodput_frac`, the page pools of
//! `prefix_pressure` — is a constant here. README.md records
//! how each was calibrated.

use kt_core::{EngineConfig, SchedMode};
use kt_model::{ModelConfig, ModelPreset};
use kt_serve::{ServerConfig, SloPolicy, SloTarget};
use kt_tensor::PrecisionPolicy;

use crate::loadgen::Class;

pub const MODEL_NAME: &str = "bench-moe-256";
pub const VOCAB: u32 = 4096;
/// Engine weight seed (the *load* seed is `--seed`).
pub const WEIGHT_SEED: u64 = 31;
/// Int4/int8 quantization group.
pub const QUANT_GROUP: usize = 16;

/// `prefix_pressure`: shared prefixes per seed, their length, and the
/// unique tail each request appends. Six 256-token prefixes (13 MB of
/// frozen pages + MLA memo) sit in the 32 MiB prefix cache with room
/// for ~60 of the 48-row tails every finished request inserts, so
/// every request hits, and the cache evicts tails steadily.
pub const N_PREFIXES: usize = 6;
pub const PREFIX_LEN: usize = 256;
pub const PREFIX_TAIL: usize = 16;
/// `prefix_pressure` output lengths are uniform in `max_new` +- this.
pub const PRESSURE_NEW_SPREAD: usize = 16;
/// `prefix_pressure` page pool: 1.45x the ~1 100 pages the workload
/// holds at its peak (frozen prefix pages + 8 live sequences), against
/// 20 480 when auto-sized. Smaller pools make admission wait for pages
/// and preempt, in storms whose size differs several-fold between
/// identical runs (README.md, "Calibration").
pub const PRESSURE_POOL_PAGES: usize = 1600;
/// Page pool of the squeezed sub-window of `prefix_pressure`'s traced
/// run: below the workload's peak, so the block allocator exhausts and
/// the scheduler preempts. Counts only (`serve.preempt_*`); nothing
/// timed is taken from it.
pub const SQUEEZED_POOL_PAGES: usize = 1000;

/// How often each prefix is picked in one deck of 32 requests:
/// Zipf-like over 6 ranks. Every deck holds exactly these counts in a
/// seeded order, so the popularity a seed sees is the workload's, not
/// the luck of its draws.
pub const PREFIX_DECK: [u8; N_PREFIXES] = [12, 8, 5, 4, 2, 1];

/// `serve_mixed_open` arrival rate, req/s: 0.6 x the 8-client
/// closed-loop capacity of the same mix on the reference host
/// (9.1-10.5 req/s measured).
pub const OPEN_RATE: f64 = 5.5;
/// Arrivals per stratum: each `ARRIVAL_BLOCK / OPEN_RATE` seconds hold
/// exactly this many arrivals at seeded uniform instants, and exactly
/// one deck of the class mix.
pub const ARRIVAL_BLOCK: usize = 10;

#[derive(Debug, Clone, Copy)]
pub struct MixEntry {
    pub class: Class,
    /// Requests of this class in a deck of [`ARRIVAL_BLOCK`].
    pub per_deck: u8,
    pub prompt: usize,
    pub max_new: usize,
}

/// `serve_mixed_open` class mix: 50% / 30% / 20%.
pub const CLASS_MIX: [MixEntry; 3] = [
    MixEntry {
        class: Class::Interactive,
        per_deck: 5,
        prompt: 16,
        max_new: 16,
    },
    MixEntry {
        class: Class::Standard,
        per_deck: 3,
        prompt: 64,
        max_new: 32,
    },
    MixEntry {
        class: Class::Batch,
        per_deck: 2,
        prompt: 192,
        max_new: 48,
    },
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `clients` requests kept outstanding; the next is sent when one
    /// completes.
    Closed { clients: usize },
    /// Seeded Poisson arrivals at `rate` req/s, sent whether or not
    /// earlier requests finished.
    Open { rate: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Prompt / output length (per class for `serve_mixed_open`; the
    /// mean output length for `prefix_pressure`).
    pub prompt: usize,
    pub max_new: usize,
    /// Replayed samples must match bitwise (1-client workloads: same
    /// composition, same chunking). Batched workloads run the default
    /// hybrid ARI dispatch, which is tolerance-equal only.
    pub bitwise: bool,
    /// Latency limits behind `goodput_frac`, far enough above the
    /// reference host's tails that only a pathological stall misses.
    pub l_ttft_ms: f64,
    pub l_itl_ms: f64,
    /// Untimed requests sent before the window.
    pub warmup: u64,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "decode_stream",
        why: "batch-1 decode (paper Fig 12): step replay, Expert Deferral, M=1 fused-dequant GEMV, LM head; bypasses batching, prefill GEMM, prefix reuse, paging",
        kind: Kind::Closed { clients: 1 },
        prompt: 16,
        max_new: 128,
        bitwise: true,
        l_ttft_ms: 150.0,
        l_itl_ms: 100.0,
        warmup: 2,
    },
    Spec {
        name: "prefill_long",
        why: "long-prompt prefill (paper Fig 11): tiled GEMM and gemm_rowwise at M=64, chunked prefill, prefix-cache write side under eviction; bypasses decode GEMV and prefix hits",
        kind: Kind::Closed { clients: 1 },
        prompt: 512,
        max_new: 32,
        bitwise: true,
        l_ttft_ms: 2000.0,
        l_itl_ms: 100.0,
        warmup: 1,
    },
    Spec {
        name: "serve_mixed_open",
        why: "open-loop Poisson mix of three SLO classes at 0.6x capacity: admission, compose_plan, batched decode at M=2-8 beside prefill chunks; prefix cache off",
        kind: Kind::Open { rate: OPEN_RATE },
        prompt: 0,
        max_new: 0,
        bitwise: false,
        l_ttft_ms: 1200.0,
        l_itl_ms: 400.0,
        warmup: 4,
    },
    Spec {
        name: "prefix_pressure",
        why: "8 clients on 6 Zipf-shared 256-token prefixes in a 32 MiB prefix cache: radix hits, zero-copy page sharing, memo copy, tail eviction; the traced run adds a squeezed-pool sub-window that preempts",
        kind: Kind::Closed { clients: 8 },
        prompt: PREFIX_LEN + PREFIX_TAIL,
        max_new: 32,
        bitwise: false,
        l_ttft_ms: 1500.0,
        l_itl_ms: 600.0,
        warmup: 0,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// `ModelPreset::DeepSeekV3.tiny_config()` widened until the routed
/// experts stream more bytes per decode step than the L2 holds, so
/// decode is bandwidth-paced as in the paper.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        name: MODEL_NAME.into(),
        vocab: VOCAB as usize,
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

/// The paper's deployment shape with its default hybrid ARI dispatch.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        n_cpu_workers: 1,
        mode: SchedMode::AsyncGraph,
        n_deferred: 2,
        precision: PrecisionPolicy::quantized_serving(QUANT_GROUP),
        seed: WEIGHT_SEED,
        ..Default::default()
    }
}

/// `prefix_pressure`'s server with the pool squeezed until it preempts.
pub fn squeezed_server_config(spec: &Spec) -> ServerConfig {
    ServerConfig {
        kv_pool_pages: SQUEEZED_POOL_PAGES,
        ..server_config(spec)
    }
}

/// `ServerConfig::default()` except where the workload says otherwise.
pub fn server_config(spec: &Spec) -> ServerConfig {
    let base = ServerConfig::default();
    match spec.name {
        "serve_mixed_open" => ServerConfig {
            prefix_cache_bytes: 0,
            // Generous targets: priority admission and the slack math
            // run on every request, and nothing is shed even when the
            // machine is ten times slower than the reference host
            // (with 5 s / 20 s TTFT targets a host under 70% hypervisor
            // steal shed 2 of 17 requests).
            slo: Some(SloPolicy {
                targets: [
                    SloTarget::from_millis(10_000, 500),
                    SloTarget::from_millis(30_000, 1_000),
                    SloTarget::from_millis(60_000, 2_000),
                ],
                shed: true,
            }),
            ..base
        },
        "prefix_pressure" => ServerConfig {
            kv_pool_pages: PRESSURE_POOL_PAGES,
            ..base
        },
        _ => base,
    }
}
