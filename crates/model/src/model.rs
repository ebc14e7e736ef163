//! The end-to-end MoE causal language model.
//!
//! Assembles embeddings, attention blocks, dense/MoE feed-forward
//! layers, the final norm and LM head, and implements the three
//! execution modes studied in the paper:
//!
//! * [`ExecMode::Standard`] — the reference Transformer data flow.
//! * [`ExecMode::Deferred`] — **Expert Deferral** (§4.1): per MoE layer
//!   `k`, only the `n_immediate` highest-score routed experts
//!   contribute to `O_k`; the remaining experts' outputs are computed
//!   from the *same* input `I_k` but injected into `O_{k+1}`, one MoE
//!   layer later. The final MoE layer never defers, and additionally
//!   absorbs the previous layer's deferred contribution — exactly the
//!   piecewise definition in §4.1.
//! * [`ExecMode::Skipped`] — **Expert Skipping** (Figure 13's
//!   baseline): the lowest-score experts are simply dropped.
//!
//! The numerical identity `Deferred ≡ Standard modulo one-layer delay of
//! low-rank contributions` is what makes deferral accuracy-preserving;
//! the scheduling benefit (CPU/GPU overlap) is realized in `kt-core`
//! and modeled in `kt-hwsim`.
//!
//! # The oracle contract
//!
//! [`MoeModel`] owns the weights `kt-core`'s `HybridEngine` serves (it
//! moves a model in; [`MoeModel::random_with`] is the one weight
//! constructor, [`CHECKPOINT_MAGIC`] the one checkpoint format), and
//! [`MoeModel::forward`] is the serial reference the engine's logits
//! equal by `f32::to_bits`. So each layer adds into the residual in the
//! engine's order: attention output; then the dense MLP, or the shared
//! experts, accumulated straight into it; then this layer's routed
//! experts (all, kept or immediate) as **one** zero-initialised buffer
//! ([`FusedMoE::forward`]); then the previous MoE layer's deferred
//! buffer. An engine prefill is [`ExecMode::Standard`]; a decode row
//! with `n_deferred` deferred experts is
//! `Deferred { n_immediate: top_k - min(n_deferred, top_k - 1) }`
//! (Standard at 0). Pools, the expert cache and the schedule mode are
//! bitwise neutral; chunking and batching are too while every expert
//! bucket keeps its kernel class. The root `tests/oracle.rs` gate checks
//! all of it.

use kt_kernels::dispatch::Backend;
use kt_kernels::gemm::gemm_rowwise;
use kt_kernels::moe::{ExpertWeights, FusedMoE, MoeRouting};
use kt_kernels::schedule::{SchedulePolicy, ThreadPool};
use kt_tensor::{Matrix, PackedWeights, PrecisionPolicy, WeightDtype};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::attention::Attention;
use crate::config::{AttentionKind, ModelConfig};
use crate::error::ModelError;
use crate::gating::{GateConfig, Router};
use crate::kvcache::KvCache;
use crate::norm::RmsNorm;
use crate::rope::Rope;

/// Leading bytes of a model checkpoint — the one weight format, which
/// `kt-core`'s engine reads and writes too.
pub const CHECKPOINT_MAGIC: &[u8] = b"KTMDL";

/// Execution mode for MoE layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Standard Transformer execution.
    Standard,
    /// Expert Deferral with `n_immediate` immediate experts per token.
    Deferred {
        /// Experts whose output is consumed immediately (>= 2 per the
        /// paper's stability heuristic, though not enforced here so the
        /// ablation sweeps can explore the full range).
        n_immediate: usize,
    },
    /// Expert Skipping keeping only the `n_kept` best experts.
    Skipped {
        /// Experts retained per token.
        n_kept: usize,
    },
}

/// Feed-forward flavor of one block.
pub enum Ffn {
    /// Dense MLP (leading layers of DeepSeek models).
    Dense(FusedMoE),
    /// Mixture of experts with optional always-on shared experts.
    Moe {
        /// Gating network.
        router: Router,
        /// Always-active shared experts (weight 1 each).
        shared: Option<FusedMoE>,
        /// Routed experts.
        routed: FusedMoE,
    },
}

impl Ffn {
    /// The routed-expert pool of a MoE layer; `None` for a dense layer.
    pub fn routed(&self) -> Option<&FusedMoE> {
        match self {
            Ffn::Moe { routed, .. } => Some(routed),
            Ffn::Dense(_) => None,
        }
    }
}

/// One transformer block. Fields are public for the schedulers that
/// run a model's weights (`kt-core`), which only ever borrow them.
pub struct Block {
    /// Pre-attention norm.
    pub attn_norm: RmsNorm,
    /// Attention sublayer.
    pub attn: Attention,
    /// Pre-FFN norm.
    pub ffn_norm: RmsNorm,
    /// Feed-forward sublayer.
    pub ffn: Ffn,
}

/// A runnable MoE causal LM with randomly initialized weights.
pub struct MoeModel {
    cfg: ModelConfig,
    /// Token embeddings, `vocab x hidden` (dense lookup table).
    embed: Matrix,
    blocks: Vec<Block>,
    final_norm: RmsNorm,
    /// LM head, `vocab x hidden`.
    lm_head: PackedWeights,
    rope: Rope,
}

impl MoeModel {
    /// Builds a model with seeded random weights. Routed and shared
    /// expert weights use `expert_dtype` (the paper quantizes experts,
    /// keeping attention in higher precision); everything else is F32.
    ///
    /// Convenience wrapper over [`MoeModel::random_with`] with
    /// [`PrecisionPolicy::experts`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] for invalid configs and propagates
    /// packing errors.
    pub fn random(
        cfg: &ModelConfig,
        expert_dtype: WeightDtype,
        seed: u64,
    ) -> Result<Self, ModelError> {
        Self::random_with(cfg, &PrecisionPolicy::experts(expert_dtype), seed)
    }

    /// Builds a model with seeded random weights, packing each weight
    /// role at the precision the policy assigns it.
    ///
    /// The random stream draws full-precision matrices first and packs
    /// them afterwards, so two models built from the same seed under
    /// different policies share the exact same underlying weights — the
    /// foundation for apples-to-apples quantization divergence studies.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] for invalid configs or a policy
    /// whose group sizes do not divide the model dimensions, and
    /// propagates packing errors.
    pub fn random_with(
        cfg: &ModelConfig,
        precision: &PrecisionPolicy,
        seed: u64,
    ) -> Result<Self, ModelError> {
        cfg.validate().map_err(ModelError::config)?;
        precision
            .validate(cfg.hidden, cfg.dense_inter, cfg.moe_inter)
            .map_err(|e| ModelError::config(e.to_string()))?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut embed = Matrix::zeros(cfg.vocab, cfg.hidden)?;
        kt_tensor::rng::fill_normal(&mut rng, embed.as_mut_slice(), 0.1);

        let mut blocks = Vec::with_capacity(cfg.n_layers);
        for layer in 0..cfg.n_layers {
            let attn = Attention::random(
                cfg.hidden,
                cfg.n_heads,
                cfg.head_dim,
                cfg.attention,
                precision.attention,
                &mut rng,
            )?;
            let ffn = if layer < cfg.n_dense_layers {
                let dense =
                    ExpertWeights::random(cfg.hidden, cfg.dense_inter, precision.dense, &mut rng)?;
                Ffn::Dense(FusedMoE::new(vec![dense], Backend::HybridAmxAvx512)?)
            } else {
                let router = Router::random(gate_config(cfg), cfg.hidden, &mut rng)?;
                let shared = if cfg.n_shared_experts > 0 {
                    let experts = (0..cfg.n_shared_experts)
                        .map(|_| {
                            ExpertWeights::random(
                                cfg.hidden,
                                cfg.moe_inter,
                                precision.shared,
                                &mut rng,
                            )
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    Some(FusedMoE::new(experts, Backend::HybridAmxAvx512)?)
                } else {
                    None
                };
                let experts = (0..cfg.n_routed_experts)
                    .map(|_| {
                        ExpertWeights::random(cfg.hidden, cfg.moe_inter, precision.routed, &mut rng)
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ffn::Moe {
                    router,
                    shared,
                    routed: FusedMoE::new(experts, Backend::HybridAmxAvx512)?,
                }
            };
            blocks.push(Block {
                attn_norm: RmsNorm::random(cfg.hidden, &mut rng),
                attn,
                ffn_norm: RmsNorm::random(cfg.hidden, &mut rng),
                ffn,
            });
        }

        let mut head = Matrix::zeros(cfg.vocab, cfg.hidden)?;
        kt_tensor::rng::fill_normal(&mut rng, head.as_mut_slice(), 0.05);
        let lm_head = PackedWeights::pack(&head, precision.lm_head)?;
        let rope = Rope::new(cfg.head_dim, cfg.max_seq, cfg.rope_theta);
        Ok(MoeModel {
            cfg: cfg.clone(),
            embed,
            blocks,
            final_norm: RmsNorm::ones(cfg.hidden),
            lm_head,
            rope,
        })
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The transformer blocks, in layer order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Token embeddings, `vocab x hidden`.
    pub fn embed(&self) -> &Matrix {
        &self.embed
    }

    /// LM head, `vocab x hidden`.
    pub fn lm_head(&self) -> &PackedWeights {
        &self.lm_head
    }

    /// Final norm before the LM head.
    pub fn final_norm(&self) -> &RmsNorm {
        &self.final_norm
    }

    /// Rotary position tables shared by every attention block.
    pub fn rope(&self) -> &Rope {
        &self.rope
    }

    /// Sets the kernel backend of every expert pool (dense MLPs, shared
    /// and routed experts). A runtime setting, like the backend a
    /// checkpoint was saved with: weights are untouched.
    pub fn set_backend(&mut self, backend: Backend) {
        for block in &mut self.blocks {
            match &mut block.ffn {
                Ffn::Dense(mlp) => mlp.set_backend(backend),
                Ffn::Moe { shared, routed, .. } => {
                    if let Some(sh) = shared {
                        sh.set_backend(backend);
                    }
                    routed.set_backend(backend);
                }
            }
        }
    }

    /// Creates a KV cache sized for this model.
    pub fn new_cache(&self) -> KvCache {
        let specs: Vec<(usize, usize)> = self
            .blocks
            .iter()
            .map(|b| b.attn.cache_spec())
            .collect();
        KvCache::new(&specs, self.cfg.max_seq)
    }

    /// Routes `x` through one MoE layer's router (exposed for
    /// engine-level scheduling, which needs routing decisions before
    /// dispatching expert work).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] if `layer` is not a MoE layer.
    pub fn route_layer(&self, layer: usize, x: &Matrix) -> Result<MoeRouting, ModelError> {
        match &self.blocks[layer].ffn {
            Ffn::Moe { router, .. } => Ok(router.route(x)),
            Ffn::Dense(_) => Err(ModelError::exec(format!("layer {layer} is dense"))),
        }
    }

    /// Checks that `tokens` is a non-empty run of in-vocabulary ids.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] naming the problem.
    pub fn validate_tokens(&self, tokens: &[u32]) -> Result<(), ModelError> {
        if tokens.is_empty() {
            return Err(ModelError::exec("forward requires at least one token"));
        }
        match tokens.iter().find(|&&t| t as usize >= self.cfg.vocab) {
            Some(t) => Err(ModelError::exec(format!(
                "token {t} outside vocab {}",
                self.cfg.vocab
            ))),
            None => Ok(()),
        }
    }

    /// Runs the model over `tokens` (appended to `cache`), returning
    /// logits for every new position (`tokens.len() x vocab`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] on invalid tokens, cache overflow or
    /// kernel failures.
    pub fn forward(
        &self,
        tokens: &[u32],
        cache: &mut KvCache,
        mode: ExecMode,
        pool: Option<&ThreadPool>,
    ) -> Result<Matrix, ModelError> {
        self.validate_tokens(tokens)?;
        let t_new = tokens.len();
        let mut x = Matrix::zeros(t_new, self.cfg.hidden)?;
        for (i, &t) in tokens.iter().enumerate() {
            x.row_mut(i).copy_from_slice(self.embed.row(t as usize));
        }

        let n_moe = self.blocks.iter().filter(|b| matches!(b.ffn, Ffn::Moe { .. })).count();
        let mut moe_idx = 0usize;
        // Deferred contribution from the previous MoE layer, to be added
        // into this layer's output (R^def_{k-1}(I_{k-1}) in §4.1).
        let mut pending: Option<Matrix> = None;

        for (layer, block) in self.blocks.iter().enumerate() {
            // Attention sublayer (pre-norm residual).
            let normed = block.attn_norm.forward(&x);
            let attn_out = block
                .attn
                .forward(&normed, cache.layer_mut(layer), &self.rope, pool)?;
            add_into(&mut x, &attn_out);

            // Feed-forward sublayer.
            let ffn_in = block.ffn_norm.forward(&x);
            match &block.ffn {
                Ffn::Dense(mlp) => {
                    let all = MoeRouting::new(vec![vec![(0, 1.0)]; t_new]);
                    mlp.forward_accumulate(&ffn_in, &all, &mut x, pool, SchedulePolicy::Dynamic)?;
                }
                Ffn::Moe {
                    router,
                    shared,
                    routed,
                } => {
                    // Shared experts: always active, weight 1 each.
                    if let Some(sh) = shared {
                        let all: Vec<(usize, f32)> =
                            (0..sh.n_experts()).map(|e| (e, 1.0)).collect();
                        let all = MoeRouting::new(vec![all; t_new]);
                        sh.forward_accumulate(&ffn_in, &all, &mut x, pool, SchedulePolicy::Dynamic)?;
                    }

                    // This layer's routed experts (`now`) and, under
                    // deferral, the ones whose output lands at the next
                    // MoE layer (`later`) — computed from the SAME input.
                    // The final MoE layer never defers (§4.1).
                    let routing = router.route(&ffn_in);
                    let is_last_moe = moe_idx + 1 == n_moe;
                    moe_idx += 1;
                    let (now, later) = match mode {
                        ExecMode::Standard => (routing, None),
                        ExecMode::Deferred { .. } if is_last_moe => (routing, None),
                        ExecMode::Skipped { n_kept } => (routing.split_deferred(n_kept).0, None),
                        ExecMode::Deferred { n_immediate } => {
                            let (imm, def) = routing.split_deferred(n_immediate);
                            (imm, Some(def).filter(|d| d.n_activations() > 0))
                        }
                    };
                    // One buffer per routed sum, then one add each: the
                    // engine's merge order (module doc).
                    let routed_out =
                        routed.forward(&ffn_in, &now, pool, SchedulePolicy::Dynamic)?;
                    add_into(&mut x, &routed_out);
                    let next_pending = later
                        .map(|def| routed.forward(&ffn_in, &def, pool, SchedulePolicy::Dynamic))
                        .transpose()?;
                    if let Some(p) = std::mem::replace(&mut pending, next_pending) {
                        add_into(&mut x, &p);
                    }
                }
            }
        }

        // Final norm + LM head.
        let normed = self.final_norm.forward(&x);
        let mut logits = Matrix::zeros(t_new, self.cfg.vocab)?;
        gemm_rowwise(&normed, &self.lm_head, &mut logits, pool)?;
        Ok(logits)
    }

    /// Serializes the full model (config + all weights) to a writer.
    /// Packed weights are stored in packed form, so loading skips the
    /// pack/quantize preprocessing.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, w: &mut impl std::io::Write) -> Result<(), ModelError> {
        kt_tensor::serial::write_magic(w, CHECKPOINT_MAGIC)?;
        self.cfg.write_to(w)?;
        self.embed.write_to(w)?;
        for block in &self.blocks {
            block.attn_norm.write_to(w)?;
            block.attn.write_to(w)?;
            block.ffn_norm.write_to(w)?;
            match &block.ffn {
                Ffn::Dense(mlp) => {
                    kt_tensor::serial::write_u64(w, 0)?;
                    mlp.write_to(w)?;
                }
                Ffn::Moe {
                    router,
                    shared,
                    routed,
                } => {
                    kt_tensor::serial::write_u64(w, 1)?;
                    router.write_to(w)?;
                    kt_tensor::serial::write_u64(w, shared.is_some() as u64)?;
                    if let Some(sh) = shared {
                        sh.write_to(w)?;
                    }
                    routed.write_to(w)?;
                }
            }
        }
        self.final_norm.write_to(w)?;
        self.lm_head.write_to(w).map_err(ModelError::from)
    }

    /// Loads a model written by [`MoeModel::save`]. Expert pools keep
    /// the kernel backend they were saved with (see
    /// [`MoeModel::set_backend`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] for an invalid stored config and
    /// [`ModelError::Exec`] on corrupt checkpoints, including any
    /// weight whose shape disagrees with the stored config.
    pub fn load(r: &mut impl std::io::Read) -> Result<Self, ModelError> {
        kt_tensor::serial::expect_magic(r, CHECKPOINT_MAGIC)?;
        let cfg = ModelConfig::read_from(r)?;
        cfg.validate().map_err(ModelError::config)?;
        let embed = Matrix::read_from(r)?;
        let mut blocks = Vec::with_capacity(cfg.n_layers);
        for _ in 0..cfg.n_layers {
            let attn_norm = RmsNorm::read_from(r)?;
            let attn = Attention::read_from(r)?;
            let ffn_norm = RmsNorm::read_from(r)?;
            let ffn = match kt_tensor::serial::read_u64(r)? {
                0 => Ffn::Dense(FusedMoE::read_from(r)?),
                1 => {
                    let router = Router::read_from(r)?;
                    let shared = if kt_tensor::serial::read_u64(r)? != 0 {
                        Some(FusedMoE::read_from(r)?)
                    } else {
                        None
                    };
                    Ffn::Moe {
                        router,
                        shared,
                        routed: FusedMoE::read_from(r)?,
                    }
                }
                other => return Err(ModelError::exec(format!("unknown ffn tag {other}"))),
            };
            blocks.push(Block {
                attn_norm,
                attn,
                ffn_norm,
                ffn,
            });
        }
        let final_norm = RmsNorm::read_from(r)?;
        let lm_head = kt_tensor::PackedWeights::read_from(r)?;
        let rope = Rope::new(cfg.head_dim, cfg.max_seq, cfg.rope_theta);
        let model = MoeModel {
            cfg,
            embed,
            blocks,
            final_norm,
            lm_head,
            rope,
        };
        model.check_shapes()?;
        Ok(model)
    }

    /// Saves to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), ModelError> {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| ModelError::exec(format!("create checkpoint: {e}")))?,
        );
        self.save(&mut f)
    }

    /// Loads from a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn load_file(path: impl AsRef<std::path::Path>) -> Result<Self, ModelError> {
        let mut f = std::io::BufReader::new(
            std::fs::File::open(path)
                .map_err(|e| ModelError::exec(format!("open checkpoint: {e}")))?,
        );
        Self::load(&mut f)
    }

    /// Teacher-forced perplexity of a token sequence: logits at
    /// position `t` score token `t + 1`. The standard language-model
    /// quality metric, usable to compare execution modes (e.g. how much
    /// Expert Skipping degrades next-token prediction vs Deferral).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Exec`] for sequences shorter than 2 tokens
    /// or on forward failures.
    pub fn perplexity(
        &self,
        tokens: &[u32],
        mode: ExecMode,
        pool: Option<&ThreadPool>,
    ) -> Result<f64, ModelError> {
        if tokens.len() < 2 {
            return Err(ModelError::exec("perplexity needs at least 2 tokens"));
        }
        let mut cache = self.new_cache();
        let logits = self.forward(tokens, &mut cache, mode, pool)?;
        let mut nll = 0.0f64;
        for t in 0..tokens.len() - 1 {
            let row = logits.row(t);
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v)) as f64;
            let logsumexp = max
                + row
                    .iter()
                    .map(|&v| ((v as f64) - max).exp())
                    .sum::<f64>()
                    .ln();
            let target = tokens[t + 1] as usize;
            nll += logsumexp - row[target] as f64;
        }
        Ok((nll / (tokens.len() - 1) as f64).exp())
    }

    /// Convenience: runs a prompt then greedily decodes `n_new` tokens.
    ///
    /// # Errors
    ///
    /// Propagates forward errors.
    pub fn generate_greedy(
        &self,
        prompt: &[u32],
        n_new: usize,
        mode: ExecMode,
        pool: Option<&ThreadPool>,
    ) -> Result<Vec<u32>, ModelError> {
        let mut cache = self.new_cache();
        let logits = self.forward(prompt, &mut cache, ExecMode::Standard, pool)?;
        let mut out = Vec::with_capacity(n_new);
        let mut next = argmax(logits.row(logits.rows() - 1));
        out.push(next);
        for _ in 1..n_new {
            let logits = self.forward(&[next], &mut cache, mode, pool)?;
            next = argmax(logits.row(0));
            out.push(next);
        }
        Ok(out)
    }

    /// Checks every weight's shape against the config: a checkpoint
    /// whose config disagrees with its tensors must fail to load, not
    /// index out of bounds mid-forward.
    fn check_shapes(&self) -> Result<(), ModelError> {
        let cfg = &self.cfg;
        let pool_ok = |p: &FusedMoE, n: usize, inter: usize| {
            (p.n_experts(), p.hidden(), p.inter()) == (n, cfg.hidden, inter)
        };
        let kv_spec = match cfg.attention {
            AttentionKind::Gqa { kv_heads } => (kv_heads * cfg.head_dim, kv_heads * cfg.head_dim),
            AttentionKind::Mla { kv_lora_rank } => (kv_lora_rank, 0),
        };
        let block_ok = |i: usize, b: &Block| {
            let ffn_ok = match &b.ffn {
                Ffn::Dense(mlp) => i < cfg.n_dense_layers && pool_ok(mlp, 1, cfg.dense_inter),
                Ffn::Moe {
                    router,
                    shared,
                    routed,
                } => {
                    i >= cfg.n_dense_layers
                        && (*router.config(), router.hidden()) == (gate_config(cfg), cfg.hidden)
                        && pool_ok(routed, cfg.n_routed_experts, cfg.moe_inter)
                        && match shared {
                            Some(sh) => pool_ok(sh, cfg.n_shared_experts, cfg.moe_inter),
                            None => cfg.n_shared_experts == 0,
                        }
                }
            };
            let attn = (b.attn.hidden(), b.attn.n_heads(), b.attn.head_dim());
            ffn_ok
                && (b.attn_norm.dim(), b.ffn_norm.dim()) == (cfg.hidden, cfg.hidden)
                && attn == (cfg.hidden, cfg.n_heads, cfg.head_dim)
                && b.attn.cache_spec() == kv_spec
        };
        let vocab_by_hidden = (cfg.vocab, cfg.hidden);
        let what = if (self.embed.rows(), self.embed.cols()) != vocab_by_hidden {
            Some("embedding".to_string())
        } else if (self.lm_head.n(), self.lm_head.k()) != vocab_by_hidden {
            Some("LM head".to_string())
        } else if self.final_norm.dim() != cfg.hidden {
            Some("final norm".to_string())
        } else {
            let mut blocks = self.blocks.iter().enumerate();
            blocks
                .find(|&(i, b)| !block_ok(i, b))
                .map(|(i, _)| format!("layer {i}"))
        };
        match what {
            Some(what) => Err(ModelError::exec(format!(
                "checkpoint {what} shape disagrees with its config"
            ))),
            None => Ok(()),
        }
    }
}

/// The router configuration a model config implies.
fn gate_config(cfg: &ModelConfig) -> GateConfig {
    GateConfig {
        n_experts: cfg.n_routed_experts,
        top_k: cfg.top_k,
        n_groups: cfg.n_groups,
        topk_groups: cfg.topk_groups,
        score: cfg.score,
        routed_scaling: cfg.routed_scaling,
        norm_topk_prob: cfg.norm_topk_prob,
    }
}

/// `x += y`, elementwise.
fn add_into(x: &mut Matrix, y: &Matrix) {
    for (o, v) in x.as_mut_slice().iter_mut().zip(y.as_slice()) {
        *o += v;
    }
}

/// Index of the maximum logit.
pub fn argmax(v: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best as u32
}

impl std::fmt::Debug for MoeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MoeModel")
            .field("name", &self.cfg.name)
            .field("layers", &self.cfg.n_layers)
            .field("experts", &self.cfg.n_routed_experts)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelPreset;

    fn tiny_model(preset: ModelPreset, seed: u64) -> MoeModel {
        MoeModel::random(&preset.tiny_config(), WeightDtype::F32, seed).unwrap()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forward_produces_finite_logits() {
        for preset in ModelPreset::all() {
            let model = tiny_model(preset, 1);
            let mut cache = model.new_cache();
            let logits = model
                .forward(&[1, 2, 3, 4], &mut cache, ExecMode::Standard, None)
                .unwrap();
            assert_eq!(logits.rows(), 4);
            assert_eq!(logits.cols(), 256);
            assert!(logits.as_slice().iter().all(|v| v.is_finite()), "{preset:?}");
        }
    }

    #[test]
    fn incremental_decode_matches_prefill() {
        let model = tiny_model(ModelPreset::DeepSeekV3, 2);
        let tokens = [5u32, 9, 13, 7];
        let mut full_cache = model.new_cache();
        let full = model
            .forward(&tokens, &mut full_cache, ExecMode::Standard, None)
            .unwrap();
        let mut inc_cache = model.new_cache();
        let _ = model
            .forward(&tokens[..2], &mut inc_cache, ExecMode::Standard, None)
            .unwrap();
        let _ = model
            .forward(&tokens[2..3], &mut inc_cache, ExecMode::Standard, None)
            .unwrap();
        let last = model
            .forward(&tokens[3..], &mut inc_cache, ExecMode::Standard, None)
            .unwrap();
        assert_eq!(bits(full.row(3)), bits(last.row(0)));
    }

    #[test]
    fn invalid_tokens_are_rejected() {
        let model = tiny_model(ModelPreset::Qwen2Moe, 3);
        let mut cache = model.new_cache();
        assert!(model
            .forward(&[], &mut cache, ExecMode::Standard, None)
            .is_err());
        assert!(model
            .forward(&[9999], &mut cache, ExecMode::Standard, None)
            .is_err());
    }

    #[test]
    fn deferral_with_full_immediate_matches_standard() {
        // Deferring zero experts (n_immediate >= top_k) must be exactly
        // the standard computation.
        let model = tiny_model(ModelPreset::DeepSeekV3, 4);
        let tokens = [3u32, 17, 40];
        let mut c1 = model.new_cache();
        let mut c2 = model.new_cache();
        let std_logits = model
            .forward(&tokens, &mut c1, ExecMode::Standard, None)
            .unwrap();
        let k = model.config().top_k;
        let def_logits = model
            .forward(&tokens, &mut c2, ExecMode::Deferred { n_immediate: k }, None)
            .unwrap();
        assert_eq!(bits(std_logits.as_slice()), bits(def_logits.as_slice()));
    }

    #[test]
    fn deferral_perturbs_less_than_skipping() {
        // The core claim behind Figure 13: with the same number of
        // affected experts, deferral stays much closer to the standard
        // output than skipping.
        let model = tiny_model(ModelPreset::DeepSeekV3, 5);
        let prompt = [3u32, 17, 40, 99];
        let k = model.config().top_k;
        let n_imm = 2; // defer/skip k-2 experts
        let run = |mode: ExecMode| {
            let mut cache = model.new_cache();
            let _ = model
                .forward(&prompt, &mut cache, ExecMode::Standard, None)
                .unwrap();
            // Decode a few steps under the studied mode.
            let mut last = Vec::new();
            let mut tok = 7u32;
            for _ in 0..3 {
                let logits = model.forward(&[tok], &mut cache, mode, None).unwrap();
                last = logits.row(0).to_vec();
                tok = argmax(&last);
            }
            last
        };
        let std_out = run(ExecMode::Standard);
        let def_out = run(ExecMode::Deferred { n_immediate: n_imm });
        let skip_out = run(ExecMode::Skipped { n_kept: n_imm });
        let dist = |a: &[f32], b: &[f32]| {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                .sqrt()
        };
        let d_def = dist(&std_out, &def_out);
        let d_skip = dist(&std_out, &skip_out);
        assert!(
            d_def < d_skip,
            "deferral divergence {d_def} should be below skipping {d_skip}"
        );
        let _ = k;
    }

    #[test]
    fn skipping_all_experts_changes_output() {
        let model = tiny_model(ModelPreset::Qwen2Moe, 6);
        let mut c1 = model.new_cache();
        let mut c2 = model.new_cache();
        let a = model
            .forward(&[1, 2], &mut c1, ExecMode::Standard, None)
            .unwrap();
        let b = model
            .forward(&[1, 2], &mut c2, ExecMode::Skipped { n_kept: 0 }, None)
            .unwrap();
        assert!(a.relative_error(&b) > 1e-4);
    }

    #[test]
    fn generation_is_deterministic() {
        let model = tiny_model(ModelPreset::DeepSeekV2, 7);
        let a = model
            .generate_greedy(&[1, 2, 3], 5, ExecMode::Standard, None)
            .unwrap();
        let b = model
            .generate_greedy(&[1, 2, 3], 5, ExecMode::Standard, None)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn perplexity_is_finite_and_mode_sensitive() {
        let model = tiny_model(ModelPreset::DeepSeekV3, 21);
        let tokens: Vec<u32> = (0..24).map(|i| (i * 37 + 5) % 256).collect();
        let std_ppl = model
            .perplexity(&tokens, ExecMode::Standard, None)
            .unwrap();
        assert!(std_ppl.is_finite() && std_ppl > 1.0);
        // An untrained model should be near the uniform-perplexity
        // ceiling (vocab = 256) but not above it by much.
        assert!(std_ppl < 4000.0, "ppl={std_ppl}");
        // Skipping every expert must not *improve* prediction on
        // average... but with random weights we only check validity.
        let skip_ppl = model
            .perplexity(&tokens, ExecMode::Skipped { n_kept: 0 }, None)
            .unwrap();
        assert!(skip_ppl.is_finite() && skip_ppl > 1.0);
        assert!(model.perplexity(&[1], ExecMode::Standard, None).is_err());
    }

    #[test]
    fn route_layer_exposes_moe_routing() {
        let model = tiny_model(ModelPreset::DeepSeekV3, 8);
        let cfg = model.config().clone();
        let x = Matrix::zeros(2, cfg.hidden).unwrap();
        // Layer 0 is dense for DS-3 tiny (1 dense layer).
        assert!(model.route_layer(0, &x).is_err());
        let routing = model.route_layer(1, &x).unwrap();
        assert_eq!(routing.n_tokens(), 2);
        assert_eq!(routing.assignments[0].len(), cfg.top_k);
    }

    #[test]
    fn checkpoint_round_trips_bit_exact() {
        // Quantized experts included: the packed payloads serialize
        // verbatim, so outputs are identical after reload.
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let model =
            MoeModel::random(&cfg, WeightDtype::Int8 { group: 16 }, 77).unwrap();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = MoeModel::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.config(), model.config());
        let tokens = [3u32, 14, 159, 26];
        let mut c1 = model.new_cache();
        let mut c2 = loaded.new_cache();
        let a = model
            .forward(&tokens, &mut c1, ExecMode::Standard, None)
            .unwrap();
        let b = loaded
            .forward(&tokens, &mut c2, ExecMode::Standard, None)
            .unwrap();
        assert_eq!(a.as_slice(), b.as_slice());

        // Corrupt magic is rejected.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(MoeModel::load(&mut bad.as_slice()).is_err());
        // Truncation is rejected.
        buf.truncate(buf.len() / 2);
        assert!(MoeModel::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn parallel_pool_matches_serial() {
        let model = tiny_model(ModelPreset::Qwen2Moe, 9);
        let pool = ThreadPool::new(3).unwrap();
        let mut c1 = model.new_cache();
        let mut c2 = model.new_cache();
        let a = model
            .forward(&[4, 5, 6], &mut c1, ExecMode::Standard, None)
            .unwrap();
        let b = model
            .forward(&[4, 5, 6], &mut c2, ExecMode::Standard, Some(&pool))
            .unwrap();
        assert_eq!(bits(a.as_slice()), bits(b.as_slice()));
    }
}
