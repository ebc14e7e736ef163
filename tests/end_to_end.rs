//! Cross-crate integration tests: configuration-driven injection wired
//! into the live engine. Engine/model agreement is `tests/oracle.rs`.

use ktransformers::core::{EngineConfig, HybridEngine, SchedMode};
use ktransformers::inject::{inject, ModuleTree, OperatorRegistry};
use ktransformers::kernels::dispatch::Backend;
use ktransformers::model::ModelPreset;
use ktransformers::tensor::{PrecisionPolicy, WeightDtype};

/// A quantized-deployment rule file in the paper's format.
const CONFIG: &str = r#"
- match:
    class: modeling_deepseek_v3.DeepseekV3MoE
  replace:
    class: operators.experts.FusedMoE
    device: "cpu"
    kwargs:
      backend: "hybrid_AMX_AVX512"
      data_type: "Int4"
      n_deferred_experts: 3
"#;

/// Parses the injected kwargs of the MoE replacement into an engine
/// configuration — YAML drives the runtime, as §5 intends.
fn engine_config_from_yaml(tree_cfg: &str) -> (EngineConfig, Backend) {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let mut tree = ModuleTree::hf_moe_model(
        "modeling_deepseek_v3.DeepseekV3",
        cfg.n_layers,
        cfg.n_dense_layers,
        true,
    );
    let report = inject(&mut tree, tree_cfg, &OperatorRegistry::builtin()).expect("inject");
    assert!(report.total() > 0);
    let moe = tree
        .find("model.layers.1.mlp")
        .expect("moe module replaced");
    assert_eq!(moe.class, "operators.experts.FusedMoE");
    assert_eq!(moe.device, "cpu");
    let get = |key: &str| {
        moe.kwargs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .expect("kwarg present")
    };
    let backend = Backend::parse(&get("backend")).expect("known backend");
    let dtype = match get("data_type").as_str() {
        "Int4" => WeightDtype::Int4 { group: 16 },
        "Int8" => WeightDtype::Int8 { group: 16 },
        _ => WeightDtype::F32,
    };
    let n_deferred: usize = get("n_deferred_experts").parse().expect("integer");
    (
        EngineConfig {
            n_cpu_workers: 2,
            mode: SchedMode::AsyncGraph,
            n_deferred,
            precision: PrecisionPolicy::experts(dtype),
            seed: 99,
            ..Default::default()
        },
        backend,
    )
}

#[test]
fn yaml_config_drives_the_engine() {
    let (econfig, backend) = engine_config_from_yaml(CONFIG);
    assert_eq!(backend, Backend::HybridAmxAvx512);
    assert_eq!(econfig.n_deferred, 3);
    assert!(matches!(econfig.precision.routed, WeightDtype::Int4 { .. }));

    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let engine = HybridEngine::random(&cfg, econfig).expect("engine");
    let out = engine.generate_greedy(&[1, 2, 3], 8).expect("generation");
    assert_eq!(out.len(), 8);
    // The engine really deferred: decode graph replays exist and each
    // replay covers many ops.
    let stats = engine.launch_stats();
    assert!(stats.graph_replays >= 7);
}

#[test]
fn injection_puts_every_moe_layer_on_cpu() {
    // The YAML places routed experts on cpu: the §3.1 split, which the
    // engine's step table runs (every routed expert in a CPU task).
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let mut tree = ModuleTree::hf_moe_model(
        "modeling_deepseek_v3.DeepseekV3",
        cfg.n_layers,
        cfg.n_dense_layers,
        true,
    );
    inject(&mut tree, CONFIG, &OperatorRegistry::builtin()).expect("inject");
    for layer in cfg.n_dense_layers..cfg.n_layers {
        let injected = tree.find(&format!("model.layers.{layer}.mlp")).unwrap();
        assert_eq!(injected.device, "cpu");
        assert_eq!(injected.class, "operators.experts.FusedMoE");
    }
}

#[test]
fn checkpoint_flow_spans_the_stack() {
    // YAML-adapted engine -> checkpoint -> reload -> identical decode,
    // with quantized experts: the full deployment loop.
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    let engine = ktransformers::adapt::engine_from_yaml(&cfg, CONFIG, 123).expect("adapt");
    let expect = engine.generate_greedy(&[10, 20, 30], 6).expect("generate");

    let mut checkpoint = Vec::new();
    engine.save(&mut checkpoint).expect("save");
    let reloaded = HybridEngine::load(
        &mut checkpoint.as_slice(),
        EngineConfig {
            n_cpu_workers: 2,
            mode: SchedMode::AsyncGraph,
            n_deferred: 3,
            seed: 0,
            ..Default::default()
        },
    )
    .expect("load");
    let got = reloaded.generate_greedy(&[10, 20, 30], 6).expect("generate");
    assert_eq!(expect, got);
}

#[test]
fn all_presets_run_end_to_end_with_quantized_experts() {
    for preset in ModelPreset::all() {
        let cfg = preset.tiny_config();
        let engine = HybridEngine::random(
            &cfg,
            EngineConfig {
                n_cpu_workers: 2,
                mode: SchedMode::AsyncGraph,
                n_deferred: 2,
                precision: PrecisionPolicy::experts(WeightDtype::Int8 { group: 16 }),
                seed: 11,
                ..Default::default()
            },
        )
        .expect("engine");
        let out = engine.generate_greedy(&[1, 2], 4).expect("generation");
        assert_eq!(out.len(), 4, "{preset:?}");
    }
}
