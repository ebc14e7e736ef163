//! Configuration-driven engine construction: the §5 workflow end to
//! end. A YAML rule file is applied to the model's module tree, and the
//! injected `FusedMoE` kwargs (backend, quantization, deferral) become
//! the engine configuration — "a single YAML file drives the process".

use kt_core::{EngineConfig, HybridEngine};
use kt_inject::{inject, InjectError, ModuleTree, OperatorRegistry};
use kt_kernels::dispatch::Backend;
use kt_model::ModelConfig;
use kt_tensor::{PrecisionPolicy, WeightDtype};

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

/// Applies a YAML rule file to `cfg`'s module tree and extracts an
/// engine configuration from the injected MoE operator's kwargs
/// (`backend`, `data_type`, `n_deferred_experts`, `n_gpu_experts`).
///
/// `n_gpu_experts` (upstream's count of GPU-resident routed experts)
/// is accepted only as `0`: every routed expert runs on the CPU, the
/// paper's static split (§3.1).
///
/// Unknown kwargs are ignored (forward compatibility); missing ones
/// keep [`EngineConfig::default`] values.
///
/// # Errors
///
/// Returns [`InjectError`] on parse/pattern/registry failures, when
/// no rule matched a MoE module, when one of the four kwargs above or
/// `precision` is present with a value it does not recognise, or when
/// `n_gpu_experts` is nonzero.
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
    // A kwarg that is present must be recognised: a typo is an error
    // naming the kwarg and its value, never a silent default.
    let bad = |key: &str, expected: &str, v: &str| {
        InjectError::rule(format!("{key}: expected {expected}, got {v:?}"))
    };
    let backend = match kwarg("backend") {
        None => Backend::default(),
        Some(v) => Backend::parse(v)
            .ok_or_else(|| bad("backend", "hybrid_AMX_AVX512, AMX or AVX512", v))?,
    };
    // `data_type` quantizes the experts (the historical knob);
    // `precision: "quantized_serving"` selects the full per-role serving
    // preset (routed int4, shared/dense int8, attention + head F32).
    let precision = match kwarg("precision") {
        Some("quantized_serving") => PrecisionPolicy::quantized_serving(16),
        Some(v) => return Err(bad("precision", "quantized_serving", v)),
        None => match kwarg("data_type") {
            None | Some("F32") => PrecisionPolicy::default(),
            Some("Int4") => PrecisionPolicy::experts(WeightDtype::Int4 { group: 16 }),
            Some("Int8") => PrecisionPolicy::experts(WeightDtype::Int8 { group: 16 }),
            Some("BF16") => PrecisionPolicy::experts(WeightDtype::Bf16),
            Some(v) => return Err(bad("data_type", "F32, BF16, Int8 or Int4", v)),
        },
    };
    let count = |key: &str| {
        kwarg(key).map_or(Ok(0), |v| {
            v.parse().map_err(|_| bad(key, "a non-negative integer", v))
        })
    };
    let n_deferred = count("n_deferred_experts")?;
    // Unknown kwargs are ignored, so a nonzero GPU-expert count would
    // silently run every expert on the CPU anyway: reject it instead.
    let n_gpu_experts: usize = count("n_gpu_experts")?;
    if n_gpu_experts != 0 {
        return Err(InjectError::rule(format!(
            "n_gpu_experts: {n_gpu_experts} is not supported: routed experts run on the CPU \
             (use 0 or omit the kwarg)"
        )));
    }

    Ok(AdaptedModel {
        engine_config: EngineConfig {
            n_deferred,
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
      n_gpu_experts: 0
"#;

    #[test]
    fn adapt_extracts_engine_config() {
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let adapted = adapt(&cfg, RULES).unwrap();
        assert_eq!(adapted.engine_config.n_deferred, 2);
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
    fn nonzero_n_gpu_experts_is_rejected() {
        // Routed experts run on the CPU: a nonzero count is an error
        // naming the kwarg and its value, `0` is the same configuration
        // as no kwarg at all, and a malformed count is still an error.
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let three = RULES.replace("n_gpu_experts: 0", "n_gpu_experts: 3");
        let err = adapt(&cfg, &three).unwrap_err().to_string();
        assert!(err.contains("n_gpu_experts") && err.contains('3'), "{err}");
        assert!(err.contains("CPU"), "{err}");
        let absent = RULES.replace("      n_gpu_experts: 0\n", "");
        assert_ne!(absent, RULES);
        assert_eq!(
            format!("{:?}", adapt(&cfg, RULES).unwrap().engine_config),
            format!("{:?}", adapt(&cfg, &absent).unwrap().engine_config)
        );
        let bad = RULES.replace("n_gpu_experts: 0", "n_gpu_experts: three");
        assert!(adapt(&cfg, &bad)
            .unwrap_err()
            .to_string()
            .contains("n_gpu_experts"));
    }

    #[test]
    fn malformed_kwargs_are_errors_naming_the_kwarg() {
        // A typo in any recognised kwarg must fail loudly instead of
        // falling back to that kwarg's default.
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        for (key, value, from, to) in [
            ("backend", "hybird", "\"hybrid_AMX_AVX512\"", "\"hybird\""),
            ("data_type", "int4", "\"Int8\"", "\"int4\""),
            ("data_type", "FP8", "\"Int8\"", "\"FP8\""),
            (
                "precision",
                "quantized",
                "data_type: \"Int8\"",
                "precision: \"quantized\"",
            ),
            (
                "n_deferred_experts",
                "two",
                "n_deferred_experts: 2",
                "n_deferred_experts: two",
            ),
            (
                "n_deferred_experts",
                "-1",
                "n_deferred_experts: 2",
                "n_deferred_experts: -1",
            ),
        ] {
            let rules = RULES.replace(from, to);
            assert_ne!(rules, RULES, "{to}");
            let err = adapt(&cfg, &rules).unwrap_err().to_string();
            assert!(err.contains(key) && err.contains(value), "{to}: {err}");
        }
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
