//! MoE transformer models for the KTransformers reproduction.
//!
//! Implements the model architectures the paper evaluates (Table 1):
//! DeepSeek-V3-0324, DeepSeek-V2.5 and Qwen2-57B-A14B — as *configs*
//! carrying the full-scale dimensions for the hardware simulator, and as
//! runnable scaled-down instances with real weights for functional and
//! accuracy experiments:
//!
//! * [`config`] — architecture descriptions, parameter accounting
//!   (reproduces Table 1's total/GPU/CPU splits) and scaled-down presets.
//! * [`norm`], [`rope`] — RMSNorm and rotary position embeddings.
//! * [`attention`] — grouped-query attention and an MLA-style variant
//!   with a compressed latent KV cache.
//! * [`gating`] — top-k and grouped top-k routers with shared experts,
//!   softmax/sigmoid scoring and routed scaling, as used by
//!   DeepSeek-V2/V3 and Qwen2.
//! * [`kvcache`] — the per-sequence KV cache: one page table per layer.
//! * [`paged`] — the KV store: fixed-size pages behind a ref-counted
//!   block allocator (admission by pages actually needed, copy-on-write
//!   sharing, swap tier for preemption).
//! * [`pool`] — a bounded lease/release pool of per-sequence caches
//!   (the admission-control valve of the serving layer).
//! * [`prefix`] — a token-keyed radix index of frozen KV snapshots for
//!   shared-prefix reuse (zero-copy page sharing, LRU-by-bytes budget).
//! * [`model`] — the end-to-end causal LM with three execution modes:
//!   standard, **Expert Deferral** (§4: deferred experts' outputs are
//!   injected one MoE layer later) and **Expert Skipping** (the Figure
//!   13 baseline that drops low-score experts).
//! * [`sampler`] — greedy and temperature sampling.

pub mod attention;
pub mod config;
pub mod error;
pub mod gating;
pub mod kvcache;
pub mod model;
pub mod norm;
pub mod paged;
pub mod pool;
pub mod prefix;
pub mod rope;
pub mod sampler;
pub mod tokenizer;

pub use config::{AttentionKind, ModelConfig, ModelPreset};
pub use error::ModelError;
pub use gating::{GateConfig, Router, ScoreFunc};
pub use kvcache::KvCache;
pub use model::{ExecMode, MoeModel};
pub use paged::{BlockAllocator, PageStats, PagedKvStore, SwappedKv, DEFAULT_PAGE_ROWS};
pub use pool::{CacheLease, KvCachePool, PoolOccupancy};
pub use prefix::{PrefixCache, PrefixCacheConfig, PrefixMatch, PrefixStats};
