//! Configuration-driven engine construction: the §5 workflow end to
//! end. A YAML rule file is applied to the model's module tree, and the
//! injected `FusedMoE` kwargs (backend, quantization, deferral, GPU
//! experts) become the engine configuration — "a single YAML file
//! drives the process".

use kt_core::{EngineConfig, HybridEngine};
use kt_inject::{inject, InjectError, ModuleTree, OperatorRegistry};
use kt_kernels::dispatch::Backend;
use kt_kernels::ExpertWeights;
use kt_model::ModelConfig;
use kt_tensor::{Matrix, PrecisionPolicy, WeightDtype};

/// Everything derived from applying a rule file to a model.
#[derive(Debug)]
pub struct AdaptedModel {
    /// The rewritten module tree.
    pub tree: ModuleTree,
    /// Engine configuration extracted from the injected kwargs.
    pub engine_config: EngineConfig,
    /// CPU kernel backend selected by the configuration.
    pub backend: Backend,
    /// Modules replaced by the rule file.
    pub replacements: usize,
}

/// Derives the class-name prefix for the module tree from the model
/// name ("DeepSeek-V3-0324" -> `modeling_deepseek_v3.DeepseekV3`).
fn class_prefix(cfg: &ModelConfig) -> String {
    let lower = cfg.name.to_lowercase();
    if lower.contains("deepseek-v3") {
        "modeling_deepseek_v3.DeepseekV3".into()
    } else if lower.contains("deepseek-v2") {
        "modeling_deepseek_v2.DeepseekV2".into()
    } else if lower.contains("qwen2") {
        "modeling_qwen2_moe.Qwen2Moe".into()
    } else {
        "modeling_generic.Generic".into()
    }
}

/// Expert-cache budget that holds `k` routed experts per MoE layer of
/// `cfg` at `dtype`'s stored size. The size is read off one packed
/// (all-zero) expert, so the packing format stays kt-tensor's business.
/// `k = 0` is the static split.
fn expert_cache_bytes(
    cfg: &ModelConfig,
    k: usize,
    dtype: WeightDtype,
) -> Result<usize, InjectError> {
    if k == 0 {
        return Ok(0);
    }
    let err = |e: String| InjectError::rule(format!("n_gpu_experts: {e}"));
    let (h, i) = (cfg.hidden, cfg.moe_inter);
    let zeros = |r, c| Matrix::zeros(r, c).map_err(|e| err(e.to_string()));
    let expert = ExpertWeights::from_matrices(&zeros(i, h)?, &zeros(i, h)?, &zeros(h, i)?, dtype)
        .map_err(|e| err(e.to_string()))?;
    k.checked_mul(cfg.n_moe_layers())
        .and_then(|n| n.checked_mul(expert.stored_bytes()))
        .ok_or_else(|| err(format!("{k} experts per layer overflow the byte budget")))
}

/// Applies a YAML rule file to `cfg`'s module tree and extracts an
/// engine configuration from the injected MoE operator's kwargs
/// (`backend`, `data_type`, `n_deferred_experts`, `n_gpu_experts`).
///
/// `n_gpu_experts: k` sizes the expert cache (`expert_cache_bytes`) to
/// hold `k` routed experts per MoE layer at the routed precision: the
/// dynamic placement path decides which experts are resident, with
/// outputs bitwise identical to the all-CPU split.
///
/// Unknown kwargs are ignored (forward compatibility); missing ones
/// keep [`EngineConfig::default`] values.
///
/// # Errors
///
/// Returns [`InjectError`] on parse/pattern/registry failures, when
/// no rule matched a MoE module, or when `n_gpu_experts` is not a
/// non-negative integer whose budget the routed precision can size.
pub fn adapt(cfg: &ModelConfig, yaml_rules: &str) -> Result<AdaptedModel, InjectError> {
    let mut tree = ModuleTree::hf_moe_model(
        &class_prefix(cfg),
        cfg.n_layers,
        cfg.n_dense_layers,
        cfg.n_shared_experts > 0,
    );
    let registry = OperatorRegistry::builtin();
    let report = inject(&mut tree, yaml_rules, &registry)?;

    // Find the injected MoE module (any MoE layer; they share kwargs).
    let moe_layer = cfg.n_dense_layers;
    let moe = tree
        .find(&format!("model.layers.{moe_layer}.mlp"))
        .filter(|n| n.class == "operators.experts.FusedMoE")
        .ok_or_else(|| {
            kt_inject::InjectError::rule(
                "no rule injected operators.experts.FusedMoE into a MoE layer",
            )
        })?;

    let kwarg = |key: &str| {
        moe.kwargs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let backend = kwarg("backend")
        .and_then(Backend::parse)
        .unwrap_or_default();
    // `data_type` quantizes the experts (the historical knob);
    // `precision: "quantized_serving"` selects the full per-role serving
    // preset (routed int4, shared/dense int8, attention + head F32).
    let precision = match kwarg("precision") {
        Some("quantized_serving") => PrecisionPolicy::quantized_serving(16),
        _ => match kwarg("data_type") {
            Some("Int4") => PrecisionPolicy::experts(WeightDtype::Int4 { group: 16 }),
            Some("Int8") => PrecisionPolicy::experts(WeightDtype::Int8 { group: 16 }),
            Some("BF16") => PrecisionPolicy::experts(WeightDtype::Bf16),
            _ => PrecisionPolicy::default(),
        },
    };
    let n_deferred = kwarg("n_deferred_experts")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let expert_cache_bytes = match kwarg("n_gpu_experts") {
        None => 0,
        Some(v) => {
            let k = v.parse().map_err(|_| {
                InjectError::rule(format!(
                    "n_gpu_experts: expected a non-negative integer, got {v:?}"
                ))
            })?;
            expert_cache_bytes(cfg, k, precision.routed)?
        }
    };

    Ok(AdaptedModel {
        engine_config: EngineConfig {
            n_deferred,
            expert_cache_bytes,
            precision,
            backend,
            ..Default::default()
        },
        backend,
        replacements: report.total(),
        tree,
    })
}

/// One-call convenience: adapt per the YAML and build a runnable engine
/// with seeded random weights.
///
/// # Errors
///
/// Returns a human-readable error for injection or engine-construction
/// failures.
pub fn engine_from_yaml(
    cfg: &ModelConfig,
    yaml_rules: &str,
    seed: u64,
) -> Result<HybridEngine, String> {
    let adapted = adapt(cfg, yaml_rules).map_err(|e| e.to_string())?;
    let mut econfig = adapted.engine_config;
    econfig.seed = seed;
    HybridEngine::random(cfg, econfig).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_model::ModelPreset;

    const RULES: &str = r#"
- match:
    class: modeling_deepseek_v3.DeepseekV3MoE
  replace:
    class: operators.experts.FusedMoE
    device: "cpu"
    kwargs:
      backend: "hybrid_AMX_AVX512"
      data_type: "Int8"
      n_deferred_experts: 2
      n_gpu_experts: 3
"#;

    #[test]
    fn adapt_extracts_engine_config() {
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let adapted = adapt(&cfg, RULES).unwrap();
        assert_eq!(adapted.engine_config.n_deferred, 2);
        assert!(
            adapted.engine_config.expert_cache_bytes > 0,
            "n_gpu_experts sizes the cache"
        );
        assert!(matches!(
            adapted.engine_config.precision.routed,
            WeightDtype::Int8 { .. }
        ));
        assert!(matches!(
            adapted.engine_config.precision.shared,
            WeightDtype::Int8 { .. }
        ));
        assert_eq!(adapted.engine_config.precision.attention, WeightDtype::F32);
        assert_eq!(adapted.backend, Backend::HybridAmxAvx512);
        assert_eq!(adapted.replacements, cfg.n_moe_layers());
    }

    #[test]
    fn precision_preset_kwarg_selects_serving_policy() {
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let rules = RULES.replace("data_type: \"Int8\"", "precision: \"quantized_serving\"");
        let adapted = adapt(&cfg, &rules).unwrap();
        let p = adapted.engine_config.precision;
        assert!(matches!(p.routed, WeightDtype::Int4 { .. }));
        assert!(matches!(p.shared, WeightDtype::Int8 { .. }));
        assert!(matches!(p.dense, WeightDtype::Int8 { .. }));
        assert_eq!(p.attention, WeightDtype::F32);
        assert_eq!(p.lm_head, WeightDtype::F32);
    }

    #[test]
    fn adapt_requires_a_moe_rule() {
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let no_moe = r#"
- match:
    name: "lm_head"
  replace:
    class: operators.linear.MarlinLinear
"#;
        assert!(adapt(&cfg, no_moe).is_err());
    }

    #[test]
    fn wrong_model_class_does_not_match() {
        // A DS-3 rule file applied to Qwen2 matches nothing — the §5
        // one-line-change property, inverted.
        let cfg = ModelPreset::Qwen2Moe.tiny_config();
        assert!(adapt(&cfg, RULES).is_err());
        let qwen_rules = RULES.replace(
            "modeling_deepseek_v3.DeepseekV3MoE",
            "modeling_qwen2_moe.Qwen2MoeMoE",
        );
        let adapted = adapt(&cfg, &qwen_rules).unwrap();
        assert_eq!(adapted.replacements, cfg.n_moe_layers());
    }

    #[test]
    fn n_gpu_experts_budgets_the_expert_cache_at_stored_size() {
        // The budget is k stored routed experts per MoE layer, pinned to
        // the engine's own packed experts at F32 and Int4.
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        for (data_type, name) in [("F32", "f32"), ("Int4", "int4")] {
            let rules = RULES.replace("\"Int8\"", &format!("\"{data_type}\""));
            let budget = adapt(&cfg, &rules)
                .unwrap()
                .engine_config
                .expert_cache_bytes;
            let engine = engine_from_yaml(&cfg, &rules, 7).unwrap();
            assert_eq!(engine.expert_weight_dtype().unwrap().name(), name);
            let one = engine.expert_weight_bytes().unwrap();
            assert_eq!(budget, 3 * cfg.n_moe_layers() * one, "{data_type}");
        }
        // Absent is the static split; present but malformed is an error,
        // not a silent no-op.
        let absent = RULES.replace("      n_gpu_experts: 3\n", "");
        assert_eq!(
            adapt(&cfg, &absent)
                .unwrap()
                .engine_config
                .expert_cache_bytes,
            0
        );
        let bad = RULES.replace("n_gpu_experts: 3", "n_gpu_experts: three");
        assert!(adapt(&cfg, &bad)
            .unwrap_err()
            .to_string()
            .contains("n_gpu_experts"));
    }

    #[test]
    fn n_gpu_experts_engine_matches_no_cache_engine_bitwise() {
        // The kwarg drives dynamic placement, which must not change a
        // single logit bit relative to the all-CPU split: prefill plus
        // 8 greedy decode steps, compared as raw bits.
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let trace = |e: &HybridEngine| -> Vec<Vec<u32>> {
            let mut l = e.forward(&[3, 1, 4, 1, 5]).unwrap();
            let mut out = Vec::new();
            for _ in 0..9 {
                out.push(l.as_slice().iter().map(|v| v.to_bits()).collect());
                let next = kt_model::model::argmax(l.row(l.rows() - 1));
                l = e.forward(&[next]).unwrap();
            }
            out
        };
        let cached = engine_from_yaml(&cfg, RULES, 11).unwrap();
        let budget = cached.engine_config().expert_cache_bytes;
        let one = cached.expert_weight_bytes().unwrap();
        assert!(
            budget >= 3 * cfg.n_moe_layers() * one,
            "holds >= 3 experts per MoE layer"
        );
        let no_cache =
            engine_from_yaml(&cfg, &RULES.replace("      n_gpu_experts: 3\n", ""), 11).unwrap();
        assert_eq!(no_cache.engine_config().expert_cache_bytes, 0);
        assert_eq!(trace(&cached), trace(&no_cache));
        let stats = cached
            .expert_cache_stats()
            .expect("nonzero budget runs the cache");
        assert!(
            stats.hits + stats.misses > 0,
            "experts were placed on the device"
        );
        assert!(no_cache.expert_cache_stats().is_none());
    }

    #[test]
    fn engine_from_yaml_generates() {
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let engine = engine_from_yaml(&cfg, RULES, 7).unwrap();
        let out = engine.generate_greedy(&[1, 2, 3], 4).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(engine.engine_config().n_deferred, 2);
    }
}
