//! Model architecture configurations and parameter accounting.
//!
//! Carries both the **full-scale** configurations of the paper's three
//! evaluation models (Table 1) — used by the hardware simulator's cost
//! model and by the Table 1 regenerator — and **scaled-down** presets
//! that actually run on test hardware with real weights.

use crate::gating::ScoreFunc;

/// Attention mechanism variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttentionKind {
    /// Grouped-query attention with `kv_heads` key/value heads
    /// (Qwen2-style; `kv_heads == n_heads` degenerates to MHA).
    Gqa {
        /// Number of key/value heads (must divide `n_heads`).
        kv_heads: usize,
    },
    /// Multi-head Latent Attention (DeepSeek-style): keys and values are
    /// reconstructed from a compressed per-token latent of rank
    /// `kv_lora_rank`, which is what the KV cache stores.
    Mla {
        /// Rank of the compressed KV latent.
        kv_lora_rank: usize,
    },
}

/// Complete architecture description of a MoE causal LM.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable model name.
    pub name: String,
    /// Vocabulary size.
    pub vocab: usize,
    /// Model (hidden) dimension.
    pub hidden: usize,
    /// Total transformer blocks.
    pub n_layers: usize,
    /// Leading blocks that use a dense MLP instead of MoE.
    pub n_dense_layers: usize,
    /// Dense-MLP intermediate dimension.
    pub dense_inter: usize,
    /// Per-expert MLP intermediate dimension.
    pub moe_inter: usize,
    /// Routed experts per MoE layer.
    pub n_routed_experts: usize,
    /// Shared experts per MoE layer (always active).
    pub n_shared_experts: usize,
    /// Experts activated per token (top-k).
    pub top_k: usize,
    /// Expert groups for grouped top-k routing (1 = plain top-k).
    pub n_groups: usize,
    /// Groups retained by grouped top-k.
    pub topk_groups: usize,
    /// Router scoring function.
    pub score: ScoreFunc,
    /// Scaling factor applied to routed-expert weights.
    pub routed_scaling: f32,
    /// Whether routing weights are renormalized over the selected top-k.
    pub norm_topk_prob: bool,
    /// Attention heads.
    pub n_heads: usize,
    /// Per-head dimension.
    pub head_dim: usize,
    /// Attention variant.
    pub attention: AttentionKind,
    /// Maximum sequence length (KV cache capacity).
    pub max_seq: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
}

impl ModelConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.hidden == 0 || self.n_layers == 0 || self.vocab == 0 {
            return Err("hidden, n_layers and vocab must be nonzero".into());
        }
        if self.n_dense_layers > self.n_layers {
            return Err(format!(
                "n_dense_layers {} exceeds n_layers {}",
                self.n_dense_layers, self.n_layers
            ));
        }
        if self.top_k > self.n_routed_experts {
            return Err(format!(
                "top_k {} exceeds n_routed_experts {}",
                self.top_k, self.n_routed_experts
            ));
        }
        if self.n_groups == 0 || !self.n_routed_experts.is_multiple_of(self.n_groups) {
            return Err(format!(
                "n_groups {} must divide n_routed_experts {}",
                self.n_groups, self.n_routed_experts
            ));
        }
        if self.topk_groups == 0 || self.topk_groups > self.n_groups {
            return Err(format!(
                "topk_groups {} must be in 1..={}",
                self.topk_groups, self.n_groups
            ));
        }
        if let AttentionKind::Gqa { kv_heads } = self.attention {
            if kv_heads == 0 || !self.n_heads.is_multiple_of(kv_heads) {
                return Err(format!(
                    "kv_heads {} must divide n_heads {}",
                    kv_heads, self.n_heads
                ));
            }
        }
        if !self.head_dim.is_multiple_of(2) {
            return Err("head_dim must be even for RoPE".into());
        }
        Ok(())
    }

    /// Number of MoE layers (Table 1 row "MoE Layers").
    pub fn n_moe_layers(&self) -> usize {
        self.n_layers - self.n_dense_layers
    }

    /// Parameters of the routed experts — the weights offloaded to CPU
    /// DRAM under the paper's placement (Table 1 row "CPU Parameters").
    pub fn cpu_params(&self) -> u64 {
        self.n_moe_layers() as u64
            * self.n_routed_experts as u64
            * 3
            * self.hidden as u64
            * self.moe_inter as u64
    }

    /// Parameters resident on the GPU: embeddings, LM head, attention,
    /// dense MLPs, shared experts and routers (Table 1 row "GPU
    /// Parameters").
    pub fn gpu_params(&self) -> u64 {
        let hidden = self.hidden as u64;
        let embed = 2 * self.vocab as u64 * hidden; // embedding + head
        let attn_per_layer: u64 = match self.attention {
            AttentionKind::Gqa { kv_heads } => {
                let qo = 2 * hidden * (self.n_heads * self.head_dim) as u64;
                let kv = 2 * hidden * (kv_heads * self.head_dim) as u64;
                qo + kv
            }
            AttentionKind::Mla { kv_lora_rank } => {
                let r = kv_lora_rank as u64;
                let hd = (self.n_heads * self.head_dim) as u64;
                // q down+up, kv down, kv up (k and v), output proj.
                let q = hidden * r + r * hd;
                let kv = hidden * r + r * 2 * hd;
                let o = hd * hidden;
                q + kv + o
            }
        };
        let dense = self.n_dense_layers as u64 * 3 * hidden * self.dense_inter as u64;
        let shared = self.n_moe_layers() as u64
            * self.n_shared_experts as u64
            * 3
            * hidden
            * self.moe_inter as u64;
        let router = self.n_moe_layers() as u64 * self.n_routed_experts as u64 * hidden;
        embed + self.n_layers as u64 * attn_per_layer + dense + shared + router
    }

    /// Total parameters (Table 1 row "Total Parameters").
    pub fn total_params(&self) -> u64 {
        self.cpu_params() + self.gpu_params()
    }

    /// Serializes the configuration.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to(&self, w: &mut impl std::io::Write) -> Result<(), kt_tensor::TensorError> {
        use kt_tensor::serial::{write_bytes, write_f32s, write_u64};
        write_bytes(w, self.name.as_bytes())?;
        for v in [
            self.vocab,
            self.hidden,
            self.n_layers,
            self.n_dense_layers,
            self.dense_inter,
            self.moe_inter,
            self.n_routed_experts,
            self.n_shared_experts,
            self.top_k,
            self.n_groups,
            self.topk_groups,
            self.n_heads,
            self.head_dim,
            self.max_seq,
        ] {
            write_u64(w, v as u64)?;
        }
        write_u64(w, matches!(self.score, ScoreFunc::Sigmoid) as u64)?;
        write_u64(w, self.norm_topk_prob as u64)?;
        match self.attention {
            AttentionKind::Gqa { kv_heads } => {
                write_u64(w, 0)?;
                write_u64(w, kv_heads as u64)?;
            }
            AttentionKind::Mla { kv_lora_rank } => {
                write_u64(w, 1)?;
                write_u64(w, kv_lora_rank as u64)?;
            }
        }
        write_f32s(w, &[self.routed_scaling, self.rope_theta])
    }

    /// Deserializes a configuration written by [`ModelConfig::write_to`].
    ///
    /// # Errors
    ///
    /// Returns an error for corrupt or invalid configurations.
    pub fn read_from(r: &mut impl std::io::Read) -> Result<Self, kt_tensor::TensorError> {
        use kt_tensor::serial::{read_bytes, read_f32s, read_len, read_u64, MAX_ELEMS};
        let name_bytes = read_bytes(r, 4096)?;
        let name = String::from_utf8(name_bytes).map_err(|_| kt_tensor::TensorError::Io {
            what: "config name is not UTF-8".into(),
        })?;
        let mut vals = [0usize; 14];
        for v in &mut vals {
            *v = read_len(r, MAX_ELEMS)?;
        }
        let score = if read_u64(r)? != 0 {
            ScoreFunc::Sigmoid
        } else {
            ScoreFunc::Softmax
        };
        let norm_topk_prob = read_u64(r)? != 0;
        let attention = match read_u64(r)? {
            0 => AttentionKind::Gqa {
                kv_heads: read_len(r, MAX_ELEMS)?,
            },
            1 => AttentionKind::Mla {
                kv_lora_rank: read_len(r, MAX_ELEMS)?,
            },
            other => {
                return Err(kt_tensor::TensorError::Io {
                    what: format!("unknown attention tag {other}"),
                })
            }
        };
        let floats = read_f32s(r, 2)?;
        if floats.len() != 2 {
            return Err(kt_tensor::TensorError::Io {
                what: "missing config floats".into(),
            });
        }
        let cfg = ModelConfig {
            name,
            vocab: vals[0],
            hidden: vals[1],
            n_layers: vals[2],
            n_dense_layers: vals[3],
            dense_inter: vals[4],
            moe_inter: vals[5],
            n_routed_experts: vals[6],
            n_shared_experts: vals[7],
            top_k: vals[8],
            n_groups: vals[9],
            topk_groups: vals[10],
            n_heads: vals[11],
            head_dim: vals[12],
            max_seq: vals[13],
            score,
            routed_scaling: floats[0],
            norm_topk_prob,
            attention,
            rope_theta: floats[1],
        };
        cfg.validate()
            .map_err(|e| kt_tensor::TensorError::Io { what: e })?;
        Ok(cfg)
    }

    /// Parameters activated per decoded token on the CPU side:
    /// `top_k` routed experts per MoE layer.
    pub fn active_cpu_params_per_token(&self) -> u64 {
        self.n_moe_layers() as u64
            * self.top_k as u64
            * 3
            * self.hidden as u64
            * self.moe_inter as u64
    }
}

/// The three models of the paper's evaluation plus a synthetic preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelPreset {
    /// DeepSeek-V3-0324 (671B), "DS-3".
    DeepSeekV3,
    /// DeepSeek-V2.5-1210 (236B), "DS-2".
    DeepSeekV2,
    /// Qwen2-57B-A14B, "QW-2".
    Qwen2Moe,
}

impl ModelPreset {
    /// All presets, in Table 1 order.
    pub fn all() -> [ModelPreset; 3] {
        [
            ModelPreset::DeepSeekV3,
            ModelPreset::DeepSeekV2,
            ModelPreset::Qwen2Moe,
        ]
    }

    /// Short name used in the paper's tables ("DS-3" etc.).
    pub fn short_name(self) -> &'static str {
        match self {
            ModelPreset::DeepSeekV3 => "DS-3",
            ModelPreset::DeepSeekV2 => "DS-2",
            ModelPreset::Qwen2Moe => "QW-2",
        }
    }

    /// Full-scale configuration with the published architecture
    /// dimensions; reproduces Table 1's parameter accounting.
    pub fn full_config(self) -> ModelConfig {
        match self {
            ModelPreset::DeepSeekV3 => ModelConfig {
                name: "DeepSeek-V3-0324".into(),
                vocab: 129_280,
                hidden: 7168,
                n_layers: 61,
                n_dense_layers: 3,
                dense_inter: 18_432,
                moe_inter: 2048,
                n_routed_experts: 256,
                n_shared_experts: 1,
                top_k: 8,
                n_groups: 8,
                topk_groups: 4,
                score: ScoreFunc::Sigmoid,
                routed_scaling: 2.5,
                norm_topk_prob: true,
                n_heads: 128,
                head_dim: 192,
                attention: AttentionKind::Mla { kv_lora_rank: 512 },
                max_seq: 16_384,
                rope_theta: 10_000.0,
            },
            ModelPreset::DeepSeekV2 => ModelConfig {
                name: "DeepSeek-V2.5-1210".into(),
                vocab: 102_400,
                hidden: 5120,
                n_layers: 60,
                n_dense_layers: 1,
                dense_inter: 12_288,
                moe_inter: 1536,
                n_routed_experts: 160,
                n_shared_experts: 2,
                top_k: 6,
                n_groups: 8,
                topk_groups: 3,
                score: ScoreFunc::Softmax,
                routed_scaling: 16.0,
                norm_topk_prob: false,
                n_heads: 128,
                head_dim: 192,
                attention: AttentionKind::Mla { kv_lora_rank: 512 },
                max_seq: 16_384,
                rope_theta: 10_000.0,
            },
            ModelPreset::Qwen2Moe => ModelConfig {
                name: "Qwen2-57B-A14B".into(),
                vocab: 151_936,
                hidden: 3584,
                n_layers: 28,
                n_dense_layers: 0,
                dense_inter: 18_944,
                moe_inter: 2560,
                n_routed_experts: 64,
                n_shared_experts: 8, // shared-expert inter 20480 = 8 x 2560
                top_k: 8,
                n_groups: 1,
                topk_groups: 1,
                score: ScoreFunc::Softmax,
                routed_scaling: 1.0,
                norm_topk_prob: false,
                n_heads: 28,
                head_dim: 128,
                attention: AttentionKind::Gqa { kv_heads: 4 },
                max_seq: 16_384,
                rope_theta: 1_000_000.0,
            },
        }
    }

    /// A scaled-down but architecturally faithful configuration that
    /// runs with real weights on test hardware: same routing strategy,
    /// shared-expert structure and attention kind, tiny dimensions.
    pub fn tiny_config(self) -> ModelConfig {
        let full = self.full_config();
        ModelConfig {
            name: format!("{}-tiny", full.name),
            vocab: 256,
            hidden: 64,
            n_layers: 5,
            n_dense_layers: full.n_dense_layers.min(1),
            dense_inter: 128,
            moe_inter: 48,
            n_routed_experts: 16,
            n_shared_experts: full.n_shared_experts.min(2),
            top_k: full.top_k.min(8),
            n_groups: if full.n_groups > 1 { 4 } else { 1 },
            topk_groups: if full.n_groups > 1 { 2 } else { 1 },
            score: full.score,
            routed_scaling: 1.0,
            norm_topk_prob: full.norm_topk_prob,
            n_heads: 4,
            head_dim: 16,
            attention: match full.attention {
                AttentionKind::Gqa { .. } => AttentionKind::Gqa { kv_heads: 2 },
                AttentionKind::Mla { .. } => AttentionKind::Mla { kv_lora_rank: 32 },
            },
            max_seq: 512,
            rope_theta: 10_000.0,
        }
    }
}

/// Formats a parameter count the way the paper does ("671B", "57B").
pub fn format_params(p: u64) -> String {
    if p >= 1_000_000_000 {
        format!("{:.0}B", p as f64 / 1e9)
    } else if p >= 1_000_000 {
        format!("{:.0}M", p as f64 / 1e6)
    } else {
        format!("{p}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn billions(p: u64) -> f64 {
        p as f64 / 1e9
    }

    #[test]
    fn all_configs_validate() {
        for preset in ModelPreset::all() {
            preset.full_config().validate().unwrap();
            preset.tiny_config().validate().unwrap();
        }
    }

    #[test]
    fn ds3_matches_table1() {
        let c = ModelPreset::DeepSeekV3.full_config();
        assert_eq!(c.n_moe_layers(), 58);
        assert_eq!(c.n_routed_experts, 256);
        assert_eq!(c.top_k, 8);
        // Table 1: total 671B, GPU 17B, CPU 654B.
        assert!(
            (billions(c.cpu_params()) - 654.0).abs() < 10.0,
            "{}",
            billions(c.cpu_params())
        );
        assert!(
            (billions(c.gpu_params()) - 17.0).abs() < 3.0,
            "{}",
            billions(c.gpu_params())
        );
        assert!((billions(c.total_params()) - 671.0).abs() < 12.0);
    }

    #[test]
    fn ds2_matches_table1() {
        let c = ModelPreset::DeepSeekV2.full_config();
        assert_eq!(c.n_moe_layers(), 59);
        assert_eq!(c.n_routed_experts, 160);
        assert_eq!(c.top_k, 6);
        assert!(
            (billions(c.cpu_params()) - 223.0).abs() < 6.0,
            "{}",
            billions(c.cpu_params())
        );
        assert!(
            (billions(c.gpu_params()) - 13.0).abs() < 3.0,
            "{}",
            billions(c.gpu_params())
        );
        assert!((billions(c.total_params()) - 236.0).abs() < 8.0);
    }

    #[test]
    fn qw2_matches_table1() {
        let c = ModelPreset::Qwen2Moe.full_config();
        assert_eq!(c.n_moe_layers(), 28);
        assert_eq!(c.n_routed_experts, 64);
        assert_eq!(c.top_k, 8);
        assert!(
            (billions(c.cpu_params()) - 49.0).abs() < 3.0,
            "{}",
            billions(c.cpu_params())
        );
        assert!(
            (billions(c.gpu_params()) - 8.0).abs() < 3.0,
            "{}",
            billions(c.gpu_params())
        );
        assert!((billions(c.total_params()) - 57.0).abs() < 5.0);
    }

    #[test]
    fn active_params_follow_top_k() {
        let c = ModelPreset::DeepSeekV3.full_config();
        // 58 layers x 8 experts x 3 x 7168 x 2048 ~ 20.4B active.
        let active = billions(c.active_cpu_params_per_token());
        assert!((active - 20.4).abs() < 1.0, "{active}");
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ModelPreset::Qwen2Moe.tiny_config();
        c.top_k = 100;
        assert!(c.validate().is_err());
        let mut c = ModelPreset::Qwen2Moe.tiny_config();
        c.n_groups = 3; // does not divide 16
        assert!(c.validate().is_err());
        let mut c = ModelPreset::Qwen2Moe.tiny_config();
        c.attention = AttentionKind::Gqa { kv_heads: 3 };
        assert!(c.validate().is_err());
        let mut c = ModelPreset::Qwen2Moe.tiny_config();
        c.head_dim = 15;
        assert!(c.validate().is_err());
        let mut c = ModelPreset::Qwen2Moe.tiny_config();
        c.n_dense_layers = c.n_layers + 1;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_serialization_round_trips() {
        for preset in ModelPreset::all() {
            for cfg in [preset.full_config(), preset.tiny_config()] {
                let mut buf = Vec::new();
                cfg.write_to(&mut buf).unwrap();
                let loaded = ModelConfig::read_from(&mut buf.as_slice()).unwrap();
                assert_eq!(cfg, loaded);
            }
        }
    }

    #[test]
    fn format_params_is_humane() {
        assert_eq!(format_params(671_000_000_000), "671B");
        assert_eq!(format_params(57_000_000_000), "57B");
        assert_eq!(format_params(14_000_000), "14M");
        assert_eq!(format_params(512), "512");
    }

    #[test]
    fn tiny_configs_are_small_enough_to_run() {
        for preset in ModelPreset::all() {
            let c = preset.tiny_config();
            assert!(c.total_params() < 20_000_000, "{}", c.name);
        }
    }
}
