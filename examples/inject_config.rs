//! Module injection walkthrough: adapt a stock DeepSeek-V3 module tree
//! with the paper's Listing-1 YAML configuration, then read the §3.1
//! CPU/GPU split off the injected tree.
//!
//! Run with: `cargo run --release --example inject_config`

use std::collections::BTreeMap;

use ktransformers::inject::{inject, ModuleTree, OperatorRegistry};
use ktransformers::model::ModelPreset;

/// Listing 1 of the paper, verbatim structure.
const LISTING_1: &str = r#"
- match:
    class: modeling_deepseek_v3.DeepseekV3MoE
  replace:
    class: operators.experts.FusedMoE
    device: "cpu"
    kwargs:
      backend: "hybrid_AMX_AVX512"
      data_type: "Int4"
      n_deferred_experts: 6

- match:
    name: "^model\\.layers\\..*\\.self_attn$"
  replace:
    class: operators.attention.FlashInferMLA
    device: "cuda:0"

- match:
    name: "^(?!lm_head$).*"
    class: torch.nn.Linear
  replace:
    class: operators.linear.MarlinLinear
    device: "cuda:0"
    kwargs:
      data_type: "Int4"
"#;

fn main() {
    let cfg = ModelPreset::DeepSeekV3.tiny_config();
    // A HuggingFace-shaped module tree for the model.
    let mut tree = ModuleTree::hf_moe_model(
        "modeling_deepseek_v3.DeepseekV3",
        cfg.n_layers,
        cfg.n_dense_layers,
        cfg.n_shared_experts > 0,
    );
    println!("module tree: {} modules before injection", tree.len());

    let registry = OperatorRegistry::builtin();
    let report = inject(&mut tree, LISTING_1, &registry).expect("injection");
    println!("injection performed {} replacements:", report.total());
    for (i, count) in report.per_rule.iter().enumerate() {
        println!("  rule {}: {count} modules", i + 1);
    }

    // Show a few rewritten modules.
    for path in [
        "model.layers.1.mlp",
        "model.layers.1.self_attn",
        "model.layers.1.self_attn.q_proj",
        "lm_head",
    ] {
        let node = tree.find(path).expect("module exists");
        println!("  {:<35} -> {} on {}", node.path, node.class, node.device);
        for (k, v) in &node.kwargs {
            println!("  {:<35}    kwargs: {k} = {v}", "");
        }
    }

    // The §3.1 split, read off the injected tree ("meta" = unplaced).
    let mut per_device: BTreeMap<String, usize> = BTreeMap::new();
    tree.walk(&mut |node| *per_device.entry(node.device.clone()).or_default() += 1);
    for (device, count) in &per_device {
        println!("split: {count} modules on {device}");
    }
}
