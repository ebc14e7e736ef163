//! Placement plans: which module runs on which device.
//!
//! Mirrors §3.1's split: attention (highest arithmetic intensity),
//! shared experts, router, embeddings and the LM head live on the GPU;
//! routed experts live in CPU DRAM and execute on the CPU.

use std::collections::HashMap;

use kt_model::ModelConfig;

/// Execution device of a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// GPU-resident (virtual GPU in this reproduction).
    Gpu,
    /// CPU-resident with CPU compute (computation offloading).
    Cpu,
}

/// A module placement plan.
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    /// `(module path, device)` entries, one per placed module class.
    pub entries: Vec<(String, DeviceKind)>,
    /// Path → device index so `device_of` is O(1) on the hot path.
    index: HashMap<String, DeviceKind>,
}

impl PartialEq for PlacementPlan {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for PlacementPlan {}

impl PlacementPlan {
    /// Builds a plan from explicit entries. On duplicate paths the
    /// first entry wins, preserving the semantics of the old linear
    /// `find` scan.
    pub fn new(entries: Vec<(String, DeviceKind)>) -> Self {
        let mut index = HashMap::with_capacity(entries.len());
        for (p, d) in &entries {
            index.entry(p.clone()).or_insert(*d);
        }
        PlacementPlan { entries, index }
    }

    /// Builds the paper's default plan for a model config.
    pub fn for_model(cfg: &ModelConfig) -> Self {
        let mut entries = vec![
            ("model.embed_tokens".to_string(), DeviceKind::Gpu),
            ("lm_head".to_string(), DeviceKind::Gpu),
            ("model.norm".to_string(), DeviceKind::Gpu),
        ];
        for layer in 0..cfg.n_layers {
            entries.push((format!("model.layers.{layer}.self_attn"), DeviceKind::Gpu));
            if layer < cfg.n_dense_layers {
                entries.push((format!("model.layers.{layer}.mlp"), DeviceKind::Gpu));
            } else {
                entries.push((format!("model.layers.{layer}.mlp.gate"), DeviceKind::Gpu));
                if cfg.n_shared_experts > 0 {
                    entries.push((
                        format!("model.layers.{layer}.mlp.shared_experts"),
                        DeviceKind::Gpu,
                    ));
                }
                entries.push((format!("model.layers.{layer}.mlp.experts"), DeviceKind::Cpu));
            }
        }
        PlacementPlan::new(entries)
    }

    /// Device for a module path, if placed. O(1) via the index.
    pub fn device_of(&self, path: &str) -> Option<DeviceKind> {
        self.index.get(path).copied()
    }

    /// Count of modules placed on a device.
    pub fn count(&self, device: DeviceKind) -> usize {
        self.entries.iter().filter(|&&(_, d)| d == device).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_model::ModelPreset;

    #[test]
    fn routed_experts_go_to_cpu_everything_else_gpu() {
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let plan = PlacementPlan::for_model(&cfg);
        assert_eq!(
            plan.device_of("model.layers.1.mlp.experts"),
            Some(DeviceKind::Cpu)
        );
        assert_eq!(
            plan.device_of("model.layers.1.self_attn"),
            Some(DeviceKind::Gpu)
        );
        assert_eq!(
            plan.device_of("model.layers.1.mlp.shared_experts"),
            Some(DeviceKind::Gpu)
        );
        assert_eq!(plan.device_of("lm_head"), Some(DeviceKind::Gpu));
        assert_eq!(plan.device_of("nonexistent"), None);
        // Exactly one CPU entry per MoE layer.
        assert_eq!(plan.count(DeviceKind::Cpu), cfg.n_moe_layers());
    }

    #[test]
    fn dense_layers_have_gpu_mlp() {
        let cfg = ModelPreset::DeepSeekV3.tiny_config(); // 1 dense layer
        let plan = PlacementPlan::for_model(&cfg);
        assert_eq!(plan.device_of("model.layers.0.mlp"), Some(DeviceKind::Gpu));
        assert_eq!(plan.device_of("model.layers.0.mlp.experts"), None);
    }

    #[test]
    fn index_matches_entries_and_first_duplicate_wins() {
        let plan = PlacementPlan::new(vec![
            ("a".to_string(), DeviceKind::Cpu),
            ("a".to_string(), DeviceKind::Gpu),
            ("b".to_string(), DeviceKind::Gpu),
        ]);
        assert_eq!(plan.device_of("a"), Some(DeviceKind::Cpu));
        assert_eq!(plan.device_of("b"), Some(DeviceKind::Gpu));
        let cfg = ModelPreset::DeepSeekV3.tiny_config();
        let plan = PlacementPlan::for_model(&cfg);
        for (p, d) in &plan.entries {
            assert_eq!(plan.device_of(p), Some(*d));
        }
    }

    #[test]
    fn qwen_has_no_dense_layers() {
        let cfg = ModelPreset::Qwen2Moe.tiny_config();
        let plan = PlacementPlan::for_model(&cfg);
        assert_eq!(
            plan.device_of("model.layers.0.mlp.experts"),
            Some(DeviceKind::Cpu)
        );
    }
}
